//! Lazy pin-density refinement under a conflict budget: the budget may run
//! out between a model that overloads a window and its refined re-solve,
//! and the placer must then fall back to its last legal model (or report
//! the budget exhausted) — never return the overloaded one.

use ams_netlist::benchmarks::{synthetic, SyntheticParams};
use ams_place::{PinDensityConfig, PlaceError, PlaceOutcome, Placer, PlacerConfig};

#[test]
fn budget_expiry_mid_refinement_never_returns_an_illegal_placement() {
    let design = synthetic(SyntheticParams {
        regions: 2,
        cells_per_region: 6,
        nets: 10,
        net_degree: 3,
        symmetry_pairs: 1,
        ..Default::default()
    });
    let (mut refined, mut cut) = (0usize, 0usize);
    // λ_th = 6 makes the feasibility solve refine five times over ~420
    // conflicts on this design, and later rounds refine again, so these
    // budgets stop runs before, inside and after the refinement chains.
    for budget in [100, 250, 300, 350, 400, 800, 1_500, 2_000, 5_000] {
        let mut cfg = PlacerConfig::fast();
        cfg.recovery.enabled = false;
        cfg.optimize.first_conflict_budget = Some(budget);
        cfg.optimize.conflict_budget = Some(budget);
        cfg.pin_density = Some(PinDensityConfig {
            lambda: Some(6),
            ..PinDensityConfig::default()
        });
        let placer = Placer::builder(&design)
            .config(cfg)
            .threads(1)
            .build()
            .expect("encode");
        match placer.place() {
            Ok(placement) => {
                if let Err(v) = placement.verify(&design) {
                    panic!("budget {budget}: illegal placement returned: {v:?}");
                }
                refined += placement.stats.windows.refinements.iter().sum::<usize>();
                cut += usize::from(matches!(
                    placement.stats.outcome,
                    PlaceOutcome::Anytime { .. }
                ));
            }
            Err(PlaceError::BudgetExhausted) => cut += 1,
            Err(e) => panic!("budget {budget}: unexpected failure: {e}"),
        }
    }
    assert!(refined > 0, "no run refined a window");
    assert!(cut > 0, "no budget was small enough to cut a run short");
}
