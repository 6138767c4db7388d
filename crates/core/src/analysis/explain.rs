//! Second-stage UNSAT explanation over the shared constraint IR.
//!
//! When the linter finds nothing wrong but the solver still reports UNSAT,
//! the conflict spans constraint *families* rather than a single broken
//! constraint. The placer guards each family with a selector literal
//! ([`crate::ir`]) and solves under the selectors as assumptions; the SAT
//! core's failed assumptions then name exactly the families whose
//! combination is contradictory.
//!
//! A placement attempt that ends UNSAT gets that attribution from its own
//! first solve ([`crate::PlaceError::Infeasible`]); this entry runs the
//! same feasibility solve alone, for `--explain`-style diagnosis without
//! the optimization loop.

use crate::config::PlacerConfig;
use crate::encode;
use crate::ir::ConstraintFamily;
use crate::placer::Placer;
use crate::scale::ScaleInfo;
use ams_netlist::Design;
use ams_smt::SmtResult;

/// Outcome of [`explain_unsat`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UnsatOutcome {
    /// The instance is satisfiable — nothing to explain.
    Feasible,
    /// The conflict budget expired before a verdict.
    Unknown,
    /// Unsatisfiable; the listed family combination suffices for the
    /// conflict (sorted, deduplicated, non-empty).
    Conflict(Vec<ConstraintFamily>),
}

/// Runs the placer's feasibility solve — pin-density windows refined
/// lazily, exactly as [`Placer::place`] would — and attributes an UNSAT
/// verdict to the families its failed selector assumptions blame.
///
/// The lint gate, presolve shortcuts and the recovery ladder are off: the
/// verdict is the solver's on the design as configured, on one thread.
/// The wirelength family never constrains feasibility and is excluded
/// from attribution. The first-solve conflict budget of `config.optimize`
/// applies.
pub fn explain_unsat(design: &Design, config: &PlacerConfig) -> UnsatOutcome {
    let scale = ScaleInfo::compute(design, config);

    // The region encoder panics on an empty Eq. 5 candidate set; that case
    // is a pure core-geometry conflict, already reportable without solving.
    for (ri, rid) in design.region_ids().enumerate() {
        let (ex, ey) = scale.region_edge[ri];
        let rm = encode::region::region_margins(design, &scale, config, rid);
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
        let max_w = scale.scaled_w.saturating_sub(2 * ex + rm.left + rm.right);
        let max_h = scale.scaled_h.saturating_sub(2 * ey + rm.bottom + rm.top);
        if encode::region::dimension_candidates(scale.region_target[ri], min_w, min_h, max_w, max_h)
            .is_empty()
        {
            return UnsatOutcome::Conflict(vec![ConstraintFamily::CoreGeometry]);
        }
    }

    let mut config = config.clone();
    config.presolve.enabled = false;
    config.recovery.enabled = false;
    config.solver.threads = 1;
    let Ok(mut placer) = Placer::unlinted(design, config) else {
        return UnsatOutcome::Unknown;
    };
    match placer.feasibility_solve() {
        SmtResult::Sat => UnsatOutcome::Feasible,
        SmtResult::Unknown | SmtResult::Cancelled => UnsatOutcome::Unknown,
        SmtResult::Unsat => UnsatOutcome::Conflict(placer.blamed_families()),
    }
}
