//! The benchmark command. Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-buf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It prints a human-readable report and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1` (which also writes the span trace as JSON lines under
//! `.perfbench-out/`).

use ams_perfbench::check::{References, REFERENCE_FILE};
use ams_perfbench::workloads::{self, RunSpec, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <paper-buf|paper-buf-nopd|corpus-close|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: PathBuf::from(".perfbench-out"),
    })
}

fn main() -> ExitCode {
    let spec = match parse_args() {
        Ok(spec) => spec,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let refs = match References::load(REFERENCE_FILE) {
        Ok(refs) => refs,
        Err(msg) => {
            eprintln!("error: {msg} (run from the repository root)");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&spec.out_dir) {
        eprintln!("error: creating {}: {e}", spec.out_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match workloads::run_workload(&spec, &refs) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload {} seed {} ({} s, trace {})",
        spec.workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(spec.trace)
    );
    for note in &result.notes {
        println!("  {note}");
    }
    for (kind, detail) in result.tally.failures() {
        println!("  failed [{}]: {detail}", kind.name());
    }
    for m in &result.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if spec.trace {
        let path = spec.out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            spec.workload.name(),
            spec.seed
        ));
        match result.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "  trace: {} spans in {}",
                result.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.tally.only_known_defects(),
        result.tally.attempted.max(1),
        result.tally.failed(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
