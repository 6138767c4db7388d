//! Benchmark of the placement stack: four seeded workloads timed through
//! the public API of each layer, with correctness checks, medians, tail
//! percentiles and an optional span trace.
//!
//! `src/main.rs` is the command; `src/bin/make_reference.rs` regenerates
//! the certified verdict list (`reference_verdicts.json`) the correctness
//! checks compare against.

pub mod check;
pub mod stats;
pub mod trace;
pub mod workloads;

use ams_place::api::JobOptions;
use ams_place::scenario::Scenario;
use ams_place::PlacerConfig;

/// The per-job options every scenario job uses, locally and over the
/// wire: the `--quick` profile (`k_iter = 1`, 20 000 conflicts per round).
pub fn quick_options() -> JobOptions {
    JobOptions {
        quick: true,
        ..JobOptions::default()
    }
}

/// Conflict budget of the optimization round for the workloads that place
/// locally. The quick profile's 20 000 makes one BUF placement with pin
/// density take 33-57 s on a 2-vCPU machine, one sample per run; 2 000
/// keeps the same feasibility solve (`first_conflict_budget`) and the same
/// CNF, so verdicts and encode sizes are those of the quick profile, and
/// gives several samples per run.
pub const ROUND_BUDGET: u64 = 2_000;

/// The local instance of a corpus scenario under `options`: exactly what
/// `amsplace scenario:<i>` configures, die aspect included, at one thread.
pub fn scenario_config(scenario: &Scenario, options: &JobOptions) -> PlacerConfig {
    let mut config = scenario.config(options.to_config());
    config.solver.threads = 1;
    config
}
