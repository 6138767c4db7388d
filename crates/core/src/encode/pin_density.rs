//! Window-based pin-density constraints (Eq. 13–14, Fig. 5).
//!
//! A sliding `β_x × β_y` check window is swept over the scaled floorplan;
//! each window gets Boolean overlap indicators `b_{i,j}` (one per cell with
//! pins), and a pseudo-Boolean constraint bounds `Σ |P(v_i)|·b_{i,j} ≤ λ_th`
//! per window. Because the indicators are one-directional (`overlap → b`),
//! over-approximation is conservative: every model satisfies the true
//! density bound.
//!
//! Windows are encoded lazily: the placer starts with none and emits a
//! window ([`emit_window`]) only once a model overloads it, as judged by
//! the exact window oracle ([`crate::PinDensityCheck`]). [`WindowSet`]
//! tracks which windows are live.

use crate::config::PinDensityConfig;
use crate::ir::{ConstraintStore, Provenance};
use crate::placement::PinDensityCheck;
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::Design;
use ams_smt::{Smt, Term};

/// Resolves `λ_th`: the configured value, or `auto_margin` times the
/// densest window of a *reference packing* — a tight greedy row layout of
/// the same cells. Because Eq. 13 counts every pin of every overlapping
/// cell, a threshold derived from average density would be unsatisfiable
/// whenever cells are larger than the window; calibrating against an
/// actual dense packing keeps the constraint satisfiable while still
/// forbidding pathological pin pile-ups.
pub(crate) fn resolve_lambda(design: &Design, scale: &ScaleInfo, cfg: &PinDensityConfig) -> u64 {
    if let Some(l) = cfg.lambda {
        return l;
    }
    let reference = reference_window_load(design, scale, cfg.beta_x, cfg.beta_y);
    let max_cell_pins = design
        .cells()
        .iter()
        .map(|c| c.pin_count() as u64)
        .max()
        .unwrap_or(0);
    ((reference as f64 * cfg.auto_margin).ceil() as u64).max(max_cell_pins + 1)
}

/// Max window pin load of a tight greedy row packing of the design's cells
/// (scaled units, per region stacked side by side).
fn reference_window_load(design: &Design, scale: &ScaleInfo, beta_x: u32, beta_y: u32) -> u64 {
    // Pack every region tightly at ~unity utilization.
    let mut rects: Vec<(u32, u32, u32, u32, u64)> = Vec::new(); // x,y,w,h,pins
    let mut region_x0 = 0u32;
    for r in design.region_ids() {
        let mut cells: Vec<_> = design.cells_in_region(r).collect();
        cells.sort_by(|&a, &b| scale.width_of(b).cmp(&scale.width_of(a)).then(a.cmp(&b)));
        let area: u64 = cells
            .iter()
            .map(|&c| u64::from(scale.width_of(c)) * u64::from(scale.height_of(c)))
            .sum();
        let row_w = ((area as f64).sqrt().ceil() as u32)
            .max(cells.iter().map(|&c| scale.width_of(c)).max().unwrap_or(1));
        let (mut x, mut y, mut row_h) = (0u32, 0u32, 0u32);
        let mut max_x = 0u32;
        for &c in &cells {
            let (w, h) = (scale.width_of(c), scale.height_of(c));
            if x + w > row_w {
                x = 0;
                y += row_h.max(1);
                row_h = 0;
            }
            rects.push((region_x0 + x, y, w, h, design.cell(c).pin_count() as u64));
            x += w;
            row_h = row_h.max(h);
            max_x = max_x.max(region_x0 + x);
        }
        region_x0 = max_x + 1;
    }
    // Slide the window over the packing's bounding box.
    let span_x = rects
        .iter()
        .map(|&(x, _, w, _, _)| x + w)
        .max()
        .unwrap_or(1);
    let span_y = rects
        .iter()
        .map(|&(_, y, _, h, _)| y + h)
        .max()
        .unwrap_or(1);
    let mut worst = 0u64;
    for wy in 0..=span_y.saturating_sub(beta_y) {
        for wx in 0..=span_x.saturating_sub(beta_x) {
            let load: u64 = rects
                .iter()
                .filter(|&&(x, y, w, h, _)| {
                    x < wx + beta_x && wx < x + w && y < wy + beta_y && wy < y + h
                })
                .map(|&(_, _, _, _, p)| p)
                .sum();
            worst = worst.max(load);
        }
    }
    worst
}

/// The check the encoding enforces: `λ_th`, the die-clamped window, the
/// strides and the per-window overrides.
pub(crate) fn resolve_check(
    design: &Design,
    scale: &ScaleInfo,
    cfg: &PinDensityConfig,
) -> PinDensityCheck {
    PinDensityCheck {
        beta_x: cfg.beta_x.min(scale.scaled_w),
        beta_y: cfg.beta_y.min(scale.scaled_h),
        lambda: resolve_lambda(design, scale, cfg),
        stride_x: cfg.stride_x,
        stride_y: cfg.stride_y,
        lambda_overrides: cfg.lambda_overrides.clone(),
    }
}

/// The pin-density family of one placer: every check window with its
/// bound, and which of them are encoded in the live solver.
#[derive(Clone, Debug)]
pub(crate) struct WindowSet {
    /// The check every returned model is held to.
    pub check: PinDensityCheck,
    /// Every window as `(origin, bound)`, row by row — the family's
    /// content, which a warm rebase compares.
    pub windows: Vec<((u32, u32), u64)>,
    /// Per window: whether its records are in the live store.
    pub live: Vec<bool>,
}

impl WindowSet {
    /// All windows of `check` over the scaled die, none live yet.
    pub fn new(check: PinDensityCheck, scale: &ScaleInfo) -> WindowSet {
        let windows: Vec<_> = check.windows(scale.scaled_w, scale.scaled_h).collect();
        let live = vec![false; windows.len()];
        WindowSet {
            check,
            windows,
            live,
        }
    }

    /// Whether two sets encode the same constraints: same window shape,
    /// same origins, same bounds.
    pub fn same_content(&self, other: &WindowSet) -> bool {
        (self.check.beta_x, self.check.beta_y) == (other.check.beta_x, other.check.beta_y)
            && self.windows == other.windows
    }

    /// Index of the window at scaled origin `(x, y)`.
    pub fn index_of(&self, (x, y): (u32, u32)) -> Option<usize> {
        // Row-major order sorts the windows by (y, x).
        self.windows
            .binary_search_by_key(&(y, x), |&((wx, wy), _)| (wy, wx))
            .ok()
    }

    /// Windows whose bound is below the heaviest cell's pin count. Such
    /// a window bans that cell from its whole area; refinement would learn
    /// the ban one overloading model at a time, so these are instantiated
    /// when the family opens. Under a λ_th calibrated above every cell
    /// (the default) there are none.
    pub fn seeds<'s>(&'s self, design: &Design) -> impl Iterator<Item = usize> + 's {
        let heaviest = design
            .cells()
            .iter()
            .map(|c| c.pin_count() as u64)
            .max()
            .unwrap_or(0);
        (0..self.windows.len()).filter(move |&i| self.windows[i].1 < heaviest)
    }

    /// Number of live windows.
    pub fn instantiated(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }
}

/// Emits the window at scaled origin `(xm, ym)` with at-most `bound` into
/// the store's open pin-density context: one overlap indicator per pinful
/// cell and the Eq. 14 bound over them. A window no placement can
/// overload emits nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_window(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
    check: &PinDensityCheck,
    (xm, ym): (u32, u32),
    bound: u64,
) {
    let beta = (check.beta_x, check.beta_y);
    let mut overlaps = Vec::new();
    for c in design.cell_ids() {
        let pins = design.cell(c).pin_count() as u64;
        if pins > 0 {
            match overlap_condition(smt, scale, vars, c, (xm, ym), beta) {
                Overlap::Never => {}
                overlap => overlaps.push((c, overlap, pins)),
            }
        }
    }
    if overlaps.iter().map(|&(_, _, pins)| pins).sum::<u64>() <= bound {
        return;
    }
    store.at(Provenance::Window { x: xm, y: ym });
    let mut items: Vec<(Term, u64)> = Vec::with_capacity(overlaps.len());
    for (c, overlap, pins) in overlaps {
        let indicator = match overlap {
            // Contributes unconditionally (`Never` was dropped above).
            Overlap::Always | Overlap::Never => smt.tru(),
            Overlap::Cond(cond) => {
                let b = smt.bool_var(format!("b_c{}_w{}x{}", c.index(), xm, ym));
                let imp = smt.implies(cond, b);
                store.assert(imp);
                b
            }
        };
        items.push((indicator, pins));
    }
    store.assert_at_most(items, bound);
}

enum Overlap {
    Never,
    Always,
    Cond(Term),
}

/// The Eq. 13 overlap condition between cell `c` and the window at
/// `(xm, ym)`, folded against constants:
/// `x_v < xm + β_x  ∧  x_v + w_v > xm  ∧  y_v < ym + β_y  ∧  y_v + h_v > ym`.
fn overlap_condition(
    smt: &mut Smt,
    scale: &ScaleInfo,
    vars: &VarMap,
    c: ams_netlist::CellId,
    (xm, ym): (u32, u32),
    (beta_x, beta_y): (u32, u32),
) -> Overlap {
    let (w, h) = (scale.width_of(c), scale.height_of(c));
    let x = vars.cell_x[c.index()];
    let y = vars.cell_y[c.index()];
    let mut conds: Vec<Term> = Vec::with_capacity(4);

    // x_v <= xm + beta_x - 1 (may be vacuous if the bound covers the die).
    let hi_x = u64::from(xm + beta_x - 1);
    if hi_x < u64::from(scale.scaled_w) {
        let cst = smt.bv_const(scale.lx, hi_x);
        conds.push(smt.ule(x, cst));
    }
    // x_v >= xm + 1 - w  (vacuous when xm < w).
    if xm + 1 > w {
        let lo_x = u64::from(xm + 1 - w);
        let cst = smt.bv_const(scale.lx, lo_x);
        conds.push(smt.uge(x, cst));
    }
    let hi_y = u64::from(ym + beta_y - 1);
    if hi_y < u64::from(scale.scaled_h) {
        let cst = smt.bv_const(scale.ly, hi_y);
        conds.push(smt.ule(y, cst));
    }
    if ym + 1 > h {
        let lo_y = u64::from(ym + 1 - h);
        let cst = smt.bv_const(scale.ly, lo_y);
        conds.push(smt.uge(y, cst));
    }

    if conds.is_empty() {
        return Overlap::Always;
    }
    let cond = smt.and(&conds);
    match smt.pool().as_const(cond) {
        Some(0) => Overlap::Never,
        Some(_) => Overlap::Always,
        None => Overlap::Cond(cond),
    }
}
