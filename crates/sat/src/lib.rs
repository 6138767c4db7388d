//! # ams-sat
//!
//! An incremental CDCL SAT solver, the decision-procedure substrate for the
//! `finfet-ams-place` placement stack (standing in for the SAT core of Z3 in
//! the DATE 2022 paper this workspace reproduces).
//!
//! Features: two-watched-literal propagation, first-UIP learning with
//! recursive clause minimization, VSIDS + phase saving, Luby restarts,
//! LBD-ordered learnt-database reduction, solving under assumptions with
//! failed-assumption cores, conflict/propagation budgets, cooperative
//! cancellation ([`Solver::set_stop_flag`]), and a diversified parallel
//! [`Portfolio`] with learnt-clause sharing.
//!
//! ## Example
//!
//! ```
//! use ams_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var().positive();
//! let y = solver.new_var().positive();
//! solver.add_clause(&[x, y]);   // x ∨ y
//! solver.add_clause(&[!x, y]);  // ¬x ∨ y
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert!(solver.lit_model(y));
//! ```

mod clause;
pub mod drat;
mod heap;
mod lit;
mod luby;
mod portfolio;
mod solver;

pub use clause::{ClauseDb, ClauseRef, Relocation};
pub use drat::{CheckError, CheckStats, Proof, ProofLog, ProofStep};
pub use heap::VarHeap;
pub use lit::{Lbool, Lit, Var};
pub use luby::luby;
pub use portfolio::{Portfolio, PortfolioConfig, PortfolioVerdict, WorkerStats};
pub use solver::{ClauseExchange, SolveResult, Solver, Stats, StopCause};
