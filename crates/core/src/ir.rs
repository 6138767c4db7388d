//! The provenance-carrying constraint IR between the encoders and the SMT
//! layer.
//!
//! Every encoder module emits typed `Constraint` records — a family, a
//! provenance site, and an [`ams_smt`] term payload — into one
//! `ConstraintStore` (crate-internal) instead of asserting into the solver
//! directly. A single lowering pass (`ConstraintStore::lower`) installs the
//! records, with every family guarded by a fresh selector literal
//! (`sel_<family>_g<generation>`, see [`ams_smt::Smt::set_guard`]).
//!
//! One store, three consumers:
//!
//! * **Solving** passes the selectors as assumptions on every solve, so the
//!   encoding behaves exactly as if asserted directly — and an UNSAT
//!   verdict's failed assumptions name the conflicting families for free
//!   (no re-encode, no second solve).
//! * **Recovery** retires a relaxed family's selector
//!   ([`ams_smt::Smt::retire`]) and lowers a replacement generation on the
//!   live solver, keeping every learnt clause that does not depend on the
//!   retired family.
//! * **Diagnostics** ([`crate::PlaceError::Infeasible`], lint `--explain`)
//!   cite the provenance sites of the blamed families.

use ams_netlist::{CellId, NetId, RegionId};
use ams_smt::{Smt, Term};
use std::fmt;
use std::time::{Duration, Instant};

/// The constraint families of the encoding (Section IV.C), as attribution
/// units for UNSAT explanation, lowering statistics, and recovery.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ConstraintFamily {
    /// Region sizing/separation, containment, and cell non-overlap
    /// (Eq. 4–7, 11) — the critical geometry.
    CoreGeometry,
    /// Hierarchical symmetry (Eq. 8).
    Symmetry,
    /// Arrays and matching patterns (Eq. 9–10).
    Arrays,
    /// Power-abutment row bands (Eq. 12).
    PowerAbutment,
    /// Window-based pin density (Eq. 13–14).
    PinDensity,
    /// Net bounding-box links feeding the wirelength objective Φ
    /// (Algorithm 1). Always satisfiable on their own, so this family is
    /// excluded from conflict attribution; it exists so the objective
    /// bookkeeping flows through the same store as every real constraint.
    Wirelength,
}

impl ConstraintFamily {
    /// Every family, in canonical (lowering) order.
    pub const ALL: [ConstraintFamily; 6] = [
        ConstraintFamily::CoreGeometry,
        ConstraintFamily::Symmetry,
        ConstraintFamily::Arrays,
        ConstraintFamily::PowerAbutment,
        ConstraintFamily::PinDensity,
        ConstraintFamily::Wirelength,
    ];

    /// Stable lowercase name, e.g. `"core-geometry"`.
    pub fn name(self) -> &'static str {
        match self {
            ConstraintFamily::CoreGeometry => "core-geometry",
            ConstraintFamily::Symmetry => "symmetry",
            ConstraintFamily::Arrays => "arrays",
            ConstraintFamily::PowerAbutment => "power-abutment",
            ConstraintFamily::PinDensity => "pin-density",
            ConstraintFamily::Wirelength => "wirelength",
        }
    }
}

impl fmt::Display for ConstraintFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The design object a constraint was derived from — the unit of blame in
/// infeasibility diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Provenance {
    /// Whole-design bookkeeping with no narrower site.
    #[default]
    Design,
    /// One region's sizing, bounds, or dimension choice.
    Region(RegionId),
    /// Separation between a pair of regions.
    RegionPair(RegionId, RegionId),
    /// One cell's containment or margins.
    Cell(CellId),
    /// Non-overlap (or keep-out) between a pair of cells.
    CellPair(CellId, CellId),
    /// One net's bounding-box links.
    Net(NetId),
    /// One symmetry group (index into the design's constraint list).
    SymmetryGroup(usize),
    /// One array constraint (index into the design's constraint list).
    Array(usize),
    /// The power bands of one region.
    PowerRegion(RegionId),
    /// One pin-density check window at the given scaled origin.
    Window {
        /// Window origin x (scaled units).
        x: u32,
        /// Window origin y (scaled units).
        y: u32,
    },
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Provenance::Design => write!(f, "the design"),
            Provenance::Region(r) => write!(f, "region #{}", r.index()),
            Provenance::RegionPair(a, b) => {
                write!(f, "regions #{}/#{}", a.index(), b.index())
            }
            Provenance::Cell(c) => write!(f, "cell #{}", c.index()),
            Provenance::CellPair(a, b) => write!(f, "cells #{}/#{}", a.index(), b.index()),
            Provenance::Net(n) => write!(f, "net #{}", n.index()),
            Provenance::SymmetryGroup(g) => write!(f, "symmetry group #{g}"),
            Provenance::Array(a) => write!(f, "array #{a}"),
            Provenance::PowerRegion(r) => write!(f, "power bands of region #{}", r.index()),
            Provenance::Window { x, y } => write!(f, "window ({x}, {y})"),
        }
    }
}

/// The solver-facing payload of one constraint record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Payload {
    /// A Boolean term to assert.
    Term(Term),
    /// A pseudo-Boolean bound `Σ weightᵢ·itemᵢ ≤ bound` (Eq. 14).
    AtMost { items: Vec<(Term, u64)>, bound: u64 },
}

/// One typed constraint record: which family it belongs to, which design
/// object produced it, and what to install in the solver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Constraint {
    pub family: ConstraintFamily,
    pub provenance: Provenance,
    pub payload: Payload,
}

/// Per-family lowering statistics, reported in
/// [`crate::PlaceStats::families`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FamilyStats {
    /// The family.
    pub family: ConstraintFamily,
    /// IR constraint records emitted for the family.
    pub constraints: usize,
    /// SAT clauses the family's records blasted into. Shared subterms are
    /// blasted once and attributed to the first family that uses them.
    pub clauses: usize,
}

/// Result of one lowering pass.
pub(crate) struct Lowering {
    /// One `(family, selector)` per family lowered, in canonical order.
    /// The selectors must be passed as assumptions on every solve.
    pub selectors: Vec<(ConstraintFamily, Term)>,
    /// Per-family record/clause counts of this pass.
    pub families: Vec<FamilyStats>,
    /// Wall-clock time spent installing and bit-blasting.
    pub elapsed: Duration,
}

/// The one constraint store between the encoders and the solver.
///
/// Encoders set an emission context ([`ConstraintStore::family`] /
/// [`ConstraintStore::at`]) and emit records; the placer lowers them in one
/// pass and keeps the store for diagnostics and recovery re-lowering.
#[derive(Default)]
pub(crate) struct ConstraintStore {
    constraints: Vec<Constraint>,
    family: Option<ConstraintFamily>,
    provenance: Provenance,
    /// Families whose records arrive lazily under a selector that is live
    /// before the first record (the pin-density windows).
    lazy: Vec<ConstraintFamily>,
}

impl ConstraintStore {
    pub fn new() -> ConstraintStore {
        ConstraintStore::default()
    }

    /// Opens an emission context for `family`, resetting the provenance
    /// site to [`Provenance::Design`].
    pub fn family(&mut self, family: ConstraintFamily) {
        self.family = Some(family);
        self.provenance = Provenance::Design;
    }

    /// Sets the provenance site for subsequent emissions.
    pub fn at(&mut self, provenance: Provenance) {
        self.provenance = provenance;
    }

    /// Emits a Boolean constraint under the current context.
    ///
    /// # Panics
    ///
    /// Panics if no [`ConstraintStore::family`] context is open.
    pub fn assert(&mut self, t: Term) {
        let family = self.family.expect("no constraint family context open");
        self.constraints.push(Constraint {
            family,
            provenance: self.provenance,
            payload: Payload::Term(t),
        });
    }

    /// Emits a pseudo-Boolean at-most bound under the current context.
    ///
    /// # Panics
    ///
    /// Panics if no [`ConstraintStore::family`] context is open.
    pub fn assert_at_most(&mut self, items: Vec<(Term, u64)>, bound: u64) {
        let family = self.family.expect("no constraint family context open");
        self.constraints.push(Constraint {
            family,
            provenance: self.provenance,
            payload: Payload::AtMost { items, bound },
        });
    }

    /// Marks `family` as lazily refined (or not): its live selector may
    /// precede its first record.
    pub fn set_lazy(&mut self, family: ConstraintFamily, lazy: bool) {
        self.lazy.retain(|&f| f != family);
        if lazy {
            self.lazy.push(family);
        }
    }

    /// Whether `family` is lazily refined.
    pub fn is_lazy(&self, family: ConstraintFamily) -> bool {
        self.lazy.contains(&family)
    }

    /// Number of records in the store.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Read-only view of every record, for static analysis
    /// ([`crate::analysis::presolve`]).
    pub fn records(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Drops every record of the given families (before re-emitting a
    /// relaxed replacement generation).
    pub fn remove_families(&mut self, families: &[ConstraintFamily]) {
        self.constraints.retain(|c| !families.contains(&c.family));
    }

    /// Lowers every record into the solver, one guard selector per family.
    pub fn lower(&self, smt: &mut Smt, generation: u32) -> Lowering {
        self.lower_from(smt, generation, 0)
    }

    /// Lowers the records from index `start` on — the re-lowering entry
    /// used by the recovery ladder after [`ConstraintStore::remove_families`]
    /// plus re-emission (the replacement records sit at the tail).
    ///
    /// Each family present in the range gets a fresh
    /// `sel_<family>_g<generation>` selector; records are installed under
    /// it via [`Smt::set_guard`] in emission order, then bit-blasted
    /// ([`Smt::flush`]) so the per-family clause delta can be measured.
    pub fn lower_from(&self, smt: &mut Smt, generation: u32, start: usize) -> Lowering {
        let t0 = Instant::now();
        let range = &self.constraints[start..];
        let mut selectors = Vec::new();
        let mut families = Vec::new();
        smt.flush();
        for family in ConstraintFamily::ALL {
            let records = || range.iter().filter(|c| c.family == family);
            if records().next().is_none() {
                continue;
            }
            let sel = smt.bool_var(format!("sel_{}_g{generation}", family.name()));
            let (constraints, clauses) = install(smt, sel, records());
            selectors.push((family, sel));
            families.push(FamilyStats {
                family,
                constraints,
                clauses,
            });
        }
        Lowering {
            selectors,
            families,
            elapsed: t0.elapsed(),
        }
    }

    /// Lowers the records from index `start` on under `sel`, a selector
    /// that is already live — how lazily instantiated pin-density windows
    /// join their family's current generation. Returns the records and
    /// clauses added.
    pub fn lower_under(&self, smt: &mut Smt, sel: Term, start: usize) -> (usize, usize) {
        smt.flush();
        install(smt, sel, self.constraints[start..].iter())
    }

    /// Compares this store against `other` family by family and returns
    /// the families whose record sequences differ (count, provenance, or
    /// payload), in canonical order.
    ///
    /// Record payloads reference [`Term`]s by index, so the comparison is
    /// only meaningful when both stores were emitted by the *same
    /// deterministic encoding sequence* over identically-constructed
    /// solvers — the contract [`crate::Placer::rebase`] maintains by
    /// re-encoding the incoming request against a fresh scratch solver
    /// that mirrors the cached placer's construction order. A family the
    /// cached placer has since re-lowered (recovery rungs re-emit records
    /// with live-solver term ids) compares as changed, which is safe: the
    /// caller simply re-lowers it again.
    pub fn diff_families(&self, other: &ConstraintStore) -> Vec<ConstraintFamily> {
        ConstraintFamily::ALL
            .into_iter()
            .filter(|&family| {
                let mine = self.constraints.iter().filter(|c| c.family == family);
                let theirs = other.constraints.iter().filter(|c| c.family == family);
                !mine.eq(theirs)
            })
            .collect()
    }

    /// One human-readable blame line per family: record count, distinct
    /// provenance sites, and a few example sites. Cited by
    /// [`crate::PlaceError::Infeasible`] and the CLI.
    pub fn provenance_lines(&self, families: &[ConstraintFamily]) -> Vec<String> {
        families
            .iter()
            .map(|&family| {
                let mut count = 0usize;
                let mut sites: Vec<Provenance> = Vec::new();
                for c in self.constraints.iter().filter(|c| c.family == family) {
                    count += 1;
                    if !sites.contains(&c.provenance) {
                        sites.push(c.provenance);
                    }
                }
                let examples: Vec<String> = sites.iter().take(3).map(|p| p.to_string()).collect();
                let more = if sites.len() > 3 {
                    format!(" and {} more", sites.len() - 3)
                } else {
                    String::new()
                };
                format!(
                    "{family}: {count} constraint(s) from {} site(s), e.g. {}{more}",
                    sites.len(),
                    examples.join(", "),
                )
            })
            .collect()
    }
}

/// Installs `records` guarded by `sel` and bit-blasts them ([`Smt::flush`])
/// so the clause delta can be measured; returns `(records, clauses)`.
fn install<'c>(
    smt: &mut Smt,
    sel: Term,
    records: impl Iterator<Item = &'c Constraint>,
) -> (usize, usize) {
    smt.set_guard(Some(sel));
    let before = smt.num_sat_clauses();
    let mut constraints = 0usize;
    for c in records {
        constraints += 1;
        match &c.payload {
            Payload::Term(t) => smt.assert(*t),
            Payload::AtMost { items, bound } => smt.assert_at_most(items, *bound),
        }
    }
    smt.flush();
    smt.set_guard(None);
    (constraints, smt.num_sat_clauses() - before)
}

/// Maps the failed assumptions of an UNSAT solve back to constraint
/// families — the attribution step shared by the placer's
/// [`crate::PlaceError::Infeasible`] and the standalone explainer.
///
/// [`ConstraintFamily::Wirelength`] is filtered out: its bounding-box
/// links are satisfiable under any cell assignment, so they can always be
/// dropped from an unsatisfiable core without restoring satisfiability —
/// when the SAT core over-approximates and names the wirelength selector,
/// the remaining families still conflict on their own. When the core
/// names no selector at all (which guarded assertions rule out, but be
/// defensive), every present family is blamed. Sorted, deduplicated.
pub(crate) fn conflict_families(
    selectors: &[(ConstraintFamily, Term)],
    failed: &[Term],
) -> Vec<ConstraintFamily> {
    let attributable = |&&(f, _): &&(ConstraintFamily, Term)| f != ConstraintFamily::Wirelength;
    let mut families: Vec<ConstraintFamily> = selectors
        .iter()
        .filter(|&&(_, s)| failed.contains(&s))
        .filter(attributable)
        .map(|&(f, _)| f)
        .collect();
    if families.is_empty() {
        families = selectors
            .iter()
            .filter(attributable)
            .map(|&(f, _)| f)
            .collect();
    }
    families.sort();
    families.dedup();
    families
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_smt::SmtResult;

    #[test]
    fn lowering_guards_families_independently() {
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let mut store = ConstraintStore::new();
        store.family(ConstraintFamily::CoreGeometry);
        let is3 = smt.eq_const(x, 3);
        store.assert(is3);
        store.family(ConstraintFamily::Symmetry);
        let is5 = smt.eq_const(x, 5);
        store.assert(is5);

        let lowering = store.lower(&mut smt, 0);
        assert_eq!(lowering.selectors.len(), 2);
        assert_eq!(lowering.families.len(), 2);
        assert!(lowering.families.iter().all(|f| f.constraints == 1));
        let sels: Vec<Term> = lowering.selectors.iter().map(|&(_, s)| s).collect();

        // Both families enabled: contradictory, and the failed assumptions
        // attribute the conflict to both.
        assert_eq!(smt.solve_with(&sels), SmtResult::Unsat);
        let failed = smt.failed_assumptions();
        assert!(sels.iter().all(|s| failed.contains(s)));
        // Each alone is consistent.
        assert_eq!(smt.solve_with(&sels[..1]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 3);
        assert_eq!(smt.solve_with(&sels[1..]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 5);
    }

    #[test]
    fn relowering_replaces_a_retired_family() {
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let mut store = ConstraintStore::new();
        store.family(ConstraintFamily::PinDensity);
        let is3 = smt.eq_const(x, 3);
        store.assert(is3);
        let g0 = store.lower(&mut smt, 0);
        let sel0 = g0.selectors[0].1;
        assert_eq!(smt.solve_with(&[sel0]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 3);

        // Retire generation 0 and lower a relaxed generation 1.
        smt.retire(sel0);
        store.remove_families(&[ConstraintFamily::PinDensity]);
        let mark = store.len();
        store.family(ConstraintFamily::PinDensity);
        let is7 = smt.eq_const(x, 7);
        store.assert(is7);
        let g1 = store.lower_from(&mut smt, 1, mark);
        let sel1 = g1.selectors[0].1;
        assert_ne!(sel0, sel1);
        assert_eq!(smt.solve_with(&[sel1]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 7);
    }

    #[test]
    fn diff_families_reports_only_changed_families() {
        // Two stores emitted by the same term-construction sequence over
        // separate solvers: identical geometry records, one differing
        // pin-density bound (the λ_th-only warm-cache scenario).
        let build = |bound: u64| {
            let mut smt = Smt::new();
            let x = smt.bv_var(4, "x");
            let mut store = ConstraintStore::new();
            store.family(ConstraintFamily::CoreGeometry);
            let lim = smt.eq_const(x, 3);
            store.assert(lim);
            store.family(ConstraintFamily::PinDensity);
            store.at(Provenance::Window { x: 0, y: 0 });
            store.assert_at_most(vec![(lim, 1)], bound);
            store
        };
        let a = build(2);
        let same = build(2);
        let relaxed = build(5);
        assert_eq!(a.diff_families(&same), Vec::new());
        assert_eq!(
            a.diff_families(&relaxed),
            vec![ConstraintFamily::PinDensity]
        );
        // A missing family counts as changed on whichever side has it.
        let mut empty = ConstraintStore::new();
        empty.family(ConstraintFamily::CoreGeometry);
        assert_eq!(
            a.diff_families(&empty),
            vec![ConstraintFamily::CoreGeometry, ConstraintFamily::PinDensity]
        );
    }

    #[test]
    fn provenance_lines_cite_sites() {
        let mut smt = Smt::new();
        let t = smt.tru();
        let mut store = ConstraintStore::new();
        store.family(ConstraintFamily::PinDensity);
        store.at(Provenance::Window { x: 0, y: 2 });
        store.assert(t);
        store.at(Provenance::Window { x: 4, y: 2 });
        store.assert_at_most(vec![(t, 3)], 1);
        let lines = store.provenance_lines(&[ConstraintFamily::PinDensity]);
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("pin-density: 2 constraint(s)"),
            "{lines:?}"
        );
        assert!(lines[0].contains("window (0, 2)"), "{lines:?}");
        assert!(lines[0].contains("window (4, 2)"), "{lines:?}");
    }
}
