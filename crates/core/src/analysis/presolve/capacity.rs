//! Capacity/counting proofs: necessary conditions checkable in closed form.
//!
//! Each check derives a counting bound every model must satisfy; a
//! violation is therefore a proof of infeasibility, attributed to the
//! constraint family and provenance site it was derived from. All bounds
//! are taken at zero extension margins, so a verdict here survives the
//! recovery ladder's margin relaxations (the placer re-checks per rung
//! because the pin-density threshold itself can be raised).

use super::PresolveConflict;
use crate::config::PlacerConfig;
use crate::encode::pin_density::resolve_check;
use crate::encode::region::dimension_candidates;
use crate::ir::{ConstraintFamily, Provenance};
use crate::power::PowerPlan;
use crate::scale::ScaleInfo;
use ams_netlist::{Design, RegionId, SymmetryAxis};

/// Runs every counting proof; the first violation wins.
pub(crate) fn check(
    design: &Design,
    config: &PlacerConfig,
    scale: &ScaleInfo,
    plan: &PowerPlan,
) -> Result<(), PresolveConflict> {
    check_die_area(design, scale)?;
    check_pin_density(design, config, scale)?;
    if config.toggles.symmetry {
        check_symmetry_parity(design, scale)?;
    }
    if config.toggles.power_abutment {
        check_power_stacking(design, scale, plan)?;
    }
    Ok(())
}

/// Eq. 4–5 candidates of a region at zero extension margins.
fn zero_margin_candidates(
    design: &Design,
    scale: &ScaleInfo,
    ri: usize,
) -> Result<Vec<(u32, u32)>, PresolveConflict> {
    let rid = RegionId::from_index(ri);
    let (ex, ey) = scale.region_edge[ri];
    let min_w = design
        .cells_in_region(rid)
        .map(|c| scale.width_of(c))
        .max()
        .unwrap_or(1);
    let min_h = design
        .cells_in_region(rid)
        .map(|c| scale.height_of(c))
        .max()
        .unwrap_or(1);
    let max_w = u64::from(scale.scaled_w).saturating_sub(2 * u64::from(ex)) as u32;
    let max_h = u64::from(scale.scaled_h).saturating_sub(2 * u64::from(ey)) as u32;
    let cands = dimension_candidates(scale.region_target[ri], min_w, min_h, max_w, max_h);
    if cands.is_empty() {
        return Err(PresolveConflict::capacity(
            ConstraintFamily::CoreGeometry,
            Provenance::Region(rid),
            format!(
                "no feasible dimension candidates for target area {}",
                scale.region_target[ri]
            ),
        ));
    }
    Ok(cands)
}

/// Area pigeonhole: regions inflated by their edge reservations are
/// pairwise disjoint and inside the die (Eq. 6 separates regions by the
/// *sum* of both reservations), so the sum of minimal inflated footprints
/// must fit the die area.
fn check_die_area(design: &Design, scale: &ScaleInfo) -> Result<(), PresolveConflict> {
    let die = u64::from(scale.scaled_w) * u64::from(scale.scaled_h);
    let mut need = 0u64;
    for ri in 0..design.regions().len() {
        let (ex, ey) = scale.region_edge[ri];
        let cands = zero_margin_candidates(design, scale, ri)?;
        need += cands
            .iter()
            .map(|&(w, h)| (u64::from(w) + 2 * u64::from(ex)) * (u64::from(h) + 2 * u64::from(ey)))
            .min()
            .expect("nonempty candidates");
    }
    if need > die {
        return Err(PresolveConflict::capacity(
            ConstraintFamily::CoreGeometry,
            Provenance::Design,
            format!("region footprints need at least {need} scaled sites but the die offers {die}"),
        ));
    }
    Ok(())
}

/// Window-counting proofs (Eq. 13–14). Both need *coverage* — stride no
/// larger than the (die-clamped) window, so every cell overlaps at least
/// one check window; the window walk always includes the final origin.
///
/// * Per cell: a cell contributes every pin to each window it overlaps, so
///   `|P(v)| > λ_th` dooms whichever window ends up over it.
/// * Globally: summing the per-window bounds over all windows gives
///   `Σ |P(v)| ≤ Σ_w λ_w` — total pins beyond that cannot fit.
fn check_pin_density(
    design: &Design,
    config: &PlacerConfig,
    scale: &ScaleInfo,
) -> Result<(), PresolveConflict> {
    let Some(pd) = &config.pin_density else {
        return Ok(());
    };
    let check = resolve_check(design, scale, pd);
    let (beta_x, beta_y, lambda) = (check.beta_x, check.beta_y, check.lambda);
    if check.stride_x > beta_x || check.stride_y > beta_y {
        // Striding past the window leaves uncovered gaps: a cell could sit
        // between windows, so neither counting argument applies.
        return Ok(());
    }
    for c in design.cell_ids() {
        let pins = design.cell(c).pin_count() as u64;
        if pins > lambda {
            return Err(PresolveConflict::capacity(
                ConstraintFamily::PinDensity,
                Provenance::Cell(c),
                format!(
                    "cell carries {pins} pins but every {beta_x}x{beta_y} window admits \
                     at most λ_th = {lambda}"
                ),
            ));
        }
    }
    let (windows, capacity) = check
        .windows(scale.scaled_w, scale.scaled_h)
        .fold((0u64, 0u64), |(n, cap), (_, bound)| {
            (n + 1, cap.saturating_add(bound))
        });
    let total: u64 = design.cells().iter().map(|c| c.pin_count() as u64).sum();
    if total > capacity {
        return Err(PresolveConflict::capacity(
            ConstraintFamily::PinDensity,
            Provenance::Design,
            format!(
                "{total} pins exceed the aggregate window capacity Σ λ_w = {capacity} \
                 over {windows} windows"
            ),
        ));
    }
    Ok(())
}

/// Symmetry parity: a self-symmetric cell pins its axis parity via
/// `2·x + w = axis2`, so two self-symmetric cells on the same (shared)
/// axis with different width parities contradict (Eq. 8). Horizontal
/// groups constrain heights instead.
fn check_symmetry_parity(design: &Design, scale: &ScaleInfo) -> Result<(), PresolveConflict> {
    let groups = &design.constraints().symmetry;
    // Per resolved axis root: the parity pinned so far and who pinned it.
    let mut pinned: Vec<Option<(u64, usize)>> = vec![None; groups.len()];
    for (gi, g) in groups.iter().enumerate() {
        let mut root = gi;
        while let Some(parent) = groups[root].share_axis_with {
            root = parent;
        }
        for p in &g.pairs {
            if p.b.is_some() {
                continue;
            }
            let dim = match g.axis {
                SymmetryAxis::Vertical => u64::from(scale.width_of(p.a)),
                SymmetryAxis::Horizontal => u64::from(scale.height_of(p.a)),
            };
            match pinned[root] {
                None => pinned[root] = Some((dim % 2, gi)),
                Some((parity, by)) if parity != dim % 2 => {
                    return Err(PresolveConflict::capacity(
                        ConstraintFamily::Symmetry,
                        Provenance::SymmetryGroup(gi),
                        format!(
                            "self-symmetric cell #{} needs axis parity {} but group #{by} \
                             already pinned the shared axis to parity {parity}",
                            p.a.index(),
                            dim % 2,
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// Power-band stacking: a mixed region must be at least as tall as the sum
/// of its bands' tallest cells (Eq. 12 stacks disjoint full-height bands),
/// but no Eq. 5 candidate may be that tall.
fn check_power_stacking(
    design: &Design,
    scale: &ScaleInfo,
    plan: &PowerPlan,
) -> Result<(), PresolveConflict> {
    for p in &plan.regions {
        let ri = p.region.index();
        let cands = zero_margin_candidates(design, scale, ri)?;
        let tallest = cands
            .iter()
            .map(|&(_, h)| u64::from(h))
            .max()
            .expect("nonempty candidates");
        let need: u64 = p
            .bands
            .iter()
            .map(|&g| {
                design
                    .cells_in_region(p.region)
                    .filter(|&c| design.cell(c).power_group == g)
                    .map(|c| u64::from(scale.height_of(c)))
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        if need > tallest {
            return Err(PresolveConflict::capacity(
                ConstraintFamily::PowerAbutment,
                Provenance::PowerRegion(p.region),
                format!(
                    "stacking {} power bands needs height {need} but the tallest region \
                     candidate is {tallest}",
                    p.bands.len()
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::benchmarks;

    fn ctx(design: &Design, config: &PlacerConfig) -> (ScaleInfo, PowerPlan) {
        (
            ScaleInfo::compute(design, config),
            PowerPlan::analyze(design),
        )
    }

    #[test]
    fn default_fixtures_pass_every_proof() {
        for design in [benchmarks::buf(), benchmarks::vco()] {
            let config = PlacerConfig::default();
            let (scale, plan) = ctx(&design, &config);
            assert_eq!(check(&design, &config, &scale, &plan), Ok(()));
        }
    }

    #[test]
    fn lambda_zero_fails_the_per_cell_count() {
        let design = benchmarks::buf();
        let mut config = PlacerConfig::default();
        config.pin_density.as_mut().expect("default has pd").lambda = Some(0);
        let (scale, plan) = ctx(&design, &config);
        let c = check(&design, &config, &scale, &plan).expect_err("λ_th = 0");
        assert_eq!(c.family, ConstraintFamily::PinDensity);
        assert!(matches!(c.site, Provenance::Cell(_)));
    }

    #[test]
    fn aggregate_window_capacity_catches_low_lambda() {
        // λ_th = 1 passes no per-cell check only if every cell has ≤ 1 pin;
        // BUF cells have several, so the per-cell proof fires first — use a
        // wide stride-uncovered config to show the guard disables proofs.
        let design = benchmarks::buf();
        let mut config = PlacerConfig::default();
        {
            let pd = config.pin_density.as_mut().expect("default has pd");
            pd.lambda = Some(0);
            pd.stride_x = 1000; // beyond β_x: no coverage, proofs must not fire
        }
        let (scale, plan) = ctx(&design, &config);
        assert_eq!(check(&design, &config, &scale, &plan), Ok(()));
    }

    #[test]
    fn mismatched_self_symmetry_parity_is_caught() {
        use ams_netlist::{DesignBuilder, SymmetryGroup, SymmetryPair};
        let mut b = DesignBuilder::new("parity");
        let vdd = b.add_power_group("VDD");
        let r = b.add_region("top", 0.9);
        // Widths 2 and 3 share unit GCD 1 → scaled parities differ.
        let a = b.add_cell("a", r, 2, 1, vdd);
        let c = b.add_cell("c", r, 3, 1, vdd);
        b.add_symmetry(SymmetryGroup {
            name: "s".into(),
            axis: SymmetryAxis::Vertical,
            pairs: vec![
                SymmetryPair::self_symmetric(a),
                SymmetryPair::self_symmetric(c),
            ],
            share_axis_with: None,
        });
        let design = b.build().expect("valid design");
        let config = PlacerConfig::default();
        let (scale, plan) = ctx(&design, &config);
        let err = check(&design, &config, &scale, &plan).expect_err("parity conflict");
        assert_eq!(err.family, ConstraintFamily::Symmetry);
    }
}
