//! Regenerates `perfbench/reference_verdicts.json`: the verdict of every
//! corpus scenario under the quick profile, solved in certify mode so each
//! infeasible verdict carries a DRAT certificate that is checked here.
//!
//! Run from the repository root (takes a few minutes):
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin make-reference -- [--threads N]
//! ```

use ams_netlist::json::Json;
use ams_perfbench::check::REFERENCE_FILE;
use ams_perfbench::{quick_options, scenario_config};
use ams_place::scenario::{scenario, CORPUS_SIZE};
use ams_place::{PlaceError, Placer};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Placed,
    Infeasible,
}

/// Certified verdict of one scenario, or a message when none was reached.
fn certified_verdict(index: u32) -> Result<Outcome, String> {
    let s = scenario(index);
    let mut config = scenario_config(&s, &quick_options());
    config.solver.certify = true;
    for attempt in 0..2 {
        let result = Placer::new(&s.design, config.clone()).and_then(Placer::place);
        match result {
            Ok(placement) => {
                placement
                    .verify(&s.design)
                    .map_err(|v| format!("certified placement rejected by verify: {v:?}"))?;
                return Ok(Outcome::Placed);
            }
            Err(PlaceError::Infeasible {
                certificate: Some(proof),
                ..
            }) => {
                ams_sat::drat::check(&proof).map_err(|e| format!("DRAT check failed: {e}"))?;
                return Ok(Outcome::Infeasible);
            }
            // A presolve proof has no DRAT certificate: decide the same
            // instance again by search alone.
            Err(PlaceError::Infeasible {
                certificate: None, ..
            }) if attempt == 0 => config.presolve.enabled = false,
            Err(e) => return Err(e.to_string()),
        }
    }
    Err("infeasible without a certificate".into())
}

fn main() {
    let mut threads = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--threads", Some(n)) => threads = n.parse().expect("--threads <n>"),
            _ => {
                eprintln!("usage: make-reference [--threads N]");
                std::process::exit(2);
            }
        }
    }
    let next = AtomicU32::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= CORPUS_SIZE {
                    return;
                }
                let outcome = certified_verdict(index);
                if index.is_multiple_of(100) {
                    eprintln!("scenario {index}/{CORPUS_SIZE}");
                }
                results.lock().unwrap().push((index, outcome));
            });
        }
    });
    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|(i, _)| *i);
    let mut infeasible = Vec::new();
    for (index, outcome) in &results {
        match outcome {
            Ok(Outcome::Infeasible) => infeasible.push(Json::uint(u64::from(*index))),
            Ok(Outcome::Placed) => {}
            Err(msg) => {
                eprintln!("scenario {index}: no certified verdict: {msg}");
                std::process::exit(1);
            }
        }
    }
    let doc = Json::obj([
        ("corpus_size", Json::uint(u64::from(CORPUS_SIZE))),
        (
            "profile",
            Json::str("quick: k_iter=1, 20000 conflicts per round, threads=1, scenario die aspect"),
        ),
        (
            "method",
            Json::str(
                "certify mode; every infeasible verdict DRAT-checked with ams_sat::drat::check",
            ),
        ),
        ("infeasible", Json::Arr(infeasible)),
    ]);
    std::fs::write(REFERENCE_FILE, doc.pretty() + "\n").expect("write reference file");
    eprintln!("wrote {REFERENCE_FILE}");
}
