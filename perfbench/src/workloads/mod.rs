//! The run loop shared by every workload, and the metrics it reports.
//!
//! A run repeats its workload's *pass* — a fixed, seeded list of jobs —
//! until the run has lasted `--seconds`, set-ups and checks included, and
//! the workload's least number of passes has run. The timed wall of a pass
//! holds the program's work only, not the checks the benchmark adds. Every
//! pass sets up afresh, and that set-up time is `setup_s`. Quality figures
//! come from the first pass; every later pass must reproduce its
//! deterministic counters exactly. Per-job times are first reduced to the
//! median of each job slot across passes: a slot repeats the same
//! deterministic work, and its passes are spread over the run, so the
//! median keeps the host's usual speed during the run and drops the
//! spells that are much slower or faster than it. The sample count of a
//! tail is then the number of jobs in a pass whatever the machine's speed.

pub mod corpus;
pub mod place;
pub mod serve;

use crate::check::{FailKind, References, Tally};
use crate::stats::{self, Tail};
use crate::trace::Tracer;
use ams_place::{ConstraintFamily, PlaceOutcome, PlaceStats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Minimum set-up samples per run; extra set-ups run when fewer passes fit.
const MIN_SETUPS: usize = 3;

/// One set-up sample repeats the set-up back to back for at least this
/// long and keeps the mean, so a sub-millisecond set-up is not read at the
/// scale of timer and cache jitter.
const SETUP_SAMPLE_S: f64 = 0.02;

/// Set-up samples taken before the first pass, as many as fit in
/// [`SETUP_BUDGET_S`] (at least one).
const SETUP_SAMPLES: usize = 41;
const SETUP_BUDGET_S: f64 = 1.0;

/// Job ids of set-up spans start here, one per pass, above every job id.
const SETUP_JOB: u64 = 1 << 40;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperBuf,
    PaperBufNopd,
    CorpusClose,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperBuf,
        Workload::PaperBufNopd,
        Workload::CorpusClose,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBuf => "paper-buf",
            Workload::PaperBufNopd => "paper-buf-nopd",
            Workload::CorpusClose => "corpus-close",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs to know.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory (inside the checkout) for the trace and the journal.
    pub out_dir: std::path::PathBuf,
}

/// What one job of a pass measured. Times are seconds; a `None` time means
/// the job has no such phase (e.g. an infeasible job never places).
#[derive(Clone, Debug, Default)]
pub struct JobSample {
    /// Wall time of the whole job as its caller waits for it.
    pub job_s: f64,
    /// Wall time of the placement the job waits for.
    pub place_s: Option<f64>,
    /// Wall time of the solver work the job waits for.
    pub solve_s: Option<f64>,
}

/// Quality of the first pass, summed over its placed jobs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Quality {
    pub hpwl_um: f64,
    pub routed_wl_um: f64,
    pub vias: u64,
    /// Placed jobs (denominator of the clean ratio).
    pub placed: u64,
    /// Placed jobs whose routing has zero overflow.
    pub drc_clean: u64,
}

impl Quality {
    /// Adds one routed placement.
    pub fn add(&mut self, hpwl_um: f64, routed_wl_um: f64, vias: u64, overflow: usize) {
        self.hpwl_um += hpwl_um;
        self.routed_wl_um += routed_wl_um;
        self.vias += vias;
        self.placed += 1;
        self.drc_clean += u64::from(overflow == 0);
    }
}

/// What one pass hands back to the run loop.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// One sample per job slot, in slot order (the same on every pass).
    pub jobs: Vec<JobSample>,
    /// Deterministic counters of the pass (per-layer work counts); every
    /// pass must reproduce the first pass's values exactly.
    pub counters: BTreeMap<&'static str, f64>,
    /// Per-job values of per-layer metrics that are not span times, e.g.
    /// `lower.s` read from the placer's own stats.
    pub layer_samples: BTreeMap<&'static str, Vec<f64>>,
    /// Quality, filled on the first pass only.
    pub quality: Option<Quality>,
    /// A fingerprint of the pass's outputs (verdicts, HPWLs, routed
    /// lengths) that must repeat exactly.
    pub fingerprint: Vec<u64>,
    /// Timed wall of the pass in seconds: the program's work only, without
    /// the checks and quality routing the benchmark adds.
    pub wall_s: f64,
}

/// A workload: a seeded set-up and a pass over it.
pub trait Bench {
    /// Per-pass state built by [`Bench::setup`].
    type State;

    /// Builds the pass's inputs; timed as `setup_s`. Its spans carry `job`,
    /// an id no job of a pass uses.
    fn setup(&mut self, tracer: &mut Tracer, job: u64) -> Self::State;

    /// Runs every job of one pass, counting operations in `tally`.
    fn pass(
        &mut self,
        state: Self::State,
        tracer: &mut Tracer,
        tally: &mut Tally,
        first: bool,
    ) -> PassOutcome;

    /// Names of the per-layer span metrics this workload reports, with the
    /// span whose per-job self time each one is.
    fn span_metrics(&self) -> &'static [(&'static str, &'static str)];

    /// Passes a run makes at the least, however long they take.
    fn min_passes(&self) -> usize {
        1
    }

    /// Report lines about the workload's fixed settings.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one run.
#[derive(Debug)]
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// Runs `bench` for `spec.seconds` of run time and reduces the
/// samples to metrics: the end-to-end set, or with tracing the per-layer
/// set.
pub fn run<B: Bench>(bench: &mut B, spec: &RunSpec) -> RunResult {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(spec.trace);
    let mut setups = Vec::new();
    let mut passes: Vec<PassOutcome> = Vec::new();
    let t_run = Instant::now();
    let mut timed = 0.0;
    // Traced runs alternate untraced and traced passes; their difference
    // is the tracing overhead.
    let mut pass_walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut untraced = Tracer::new(false);
    // Peak RSS over the set-ups and the first pass: later passes repeat
    // the same work, and what they add is allocator fragmentation that
    // grows with the number of passes, i.e. with the host's speed.
    let mut peak_rss = 0.0;
    // Set-ups are sampled up front, before any pass has warmed a cache.
    while setups.len() < SETUP_SAMPLES
        && (setups.is_empty() || t_run.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        setups.push(setup_sample(bench));
    }
    loop {
        let traced_pass = spec.trace && passes.len() % 2 == 1;
        let tr = if traced_pass {
            &mut tracer
        } else {
            &mut untraced
        };
        let t = Instant::now();
        let state = bench.setup(tr, SETUP_JOB + passes.len() as u64);
        setups.push(t.elapsed().as_secs_f64());
        let outcome = bench.pass(state, tr, &mut tally, passes.is_empty());
        timed += outcome.wall_s;
        // Pass 0 carries the warm-up, so it stays out of the overhead.
        if !passes.is_empty() {
            pass_walls[usize::from(traced_pass)].push(outcome.wall_s);
        }
        if let Some(first) = passes.first() {
            check_repeat(first, &outcome, passes.len(), &mut tally);
        }
        if passes.is_empty() {
            peak_rss = peak_rss_mb();
        }
        passes.push(outcome);
        // A traced run needs an untraced and a traced pass after pass 0.
        let need = if spec.trace { 3 } else { bench.min_passes() };
        if passes.len() >= need && t_run.elapsed().as_secs_f64() >= spec.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(setup_sample(bench));
    }

    let mut notes = bench.notes();
    let metrics = if spec.trace {
        per_layer(bench, &tracer, &passes, &pass_walls, &mut notes)
    } else {
        end_to_end(&passes, &setups, peak_rss, &tally, &mut notes)
    };
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    notes.push(format!(
        "passes: {} ({timed:.2} s timed: {} s)",
        passes.len(),
        walls.join(", "),
    ));
    notes.push(format!(
        "set-up samples: {}, from {:.6} to {:.6} s",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
    ));
    RunResult {
        tally,
        metrics,
        notes,
        tracer,
    }
}

/// Times back-to-back set-ups whose state no pass uses, for at least
/// [`SETUP_SAMPLE_S`]; returns the mean seconds of one.
fn setup_sample<B: Bench>(bench: &mut B) -> f64 {
    let t = Instant::now();
    let mut n = 0u32;
    loop {
        drop(bench.setup(&mut Tracer::new(false), SETUP_JOB));
        n += 1;
        let s = t.elapsed().as_secs_f64();
        if s >= SETUP_SAMPLE_S {
            return s / f64::from(n);
        }
    }
}

/// A later pass must reproduce the first pass's counters and outputs.
fn check_repeat(first: &PassOutcome, later: &PassOutcome, index: usize, tally: &mut Tally) {
    tally.attempt();
    if first.counters != later.counters || first.fingerprint != later.fingerprint {
        tally.fail(
            FailKind::Nondeterministic,
            format!(
                "pass {index} differs from pass 0: counters {:?} vs {:?}",
                later.counters, first.counters
            ),
        );
    }
}

/// Per job slot, the median over passes of `pick`; slots where no pass
/// had a value are skipped.
fn per_slot(passes: &[PassOutcome], pick: impl Fn(&JobSample) -> Option<f64>) -> Vec<f64> {
    let slots = passes.iter().map(|p| p.jobs.len()).max().unwrap_or(0);
    (0..slots)
        .filter_map(|i| {
            let v: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.jobs.get(i).and_then(&pick))
                .collect();
            (!v.is_empty()).then(|| stats::median(&v))
        })
        .collect()
}

fn tail_note(name: &str, t: &Tail) -> String {
    if t.percentile >= 100.0 {
        format!(
            "{name}: maximum of {} per-job samples (fewer than 20, so no percentile has 10 beyond it)",
            t.samples
        )
    } else {
        format!("{name}: p{} of {} per-job samples", t.percentile, t.samples)
    }
}

fn end_to_end(
    passes: &[PassOutcome],
    setups: &[f64],
    peak_rss: f64,
    tally: &Tally,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let jobs = per_slot(passes, |j| Some(j.job_s));
    let places = per_slot(passes, |j| j.place_s);
    let solves = per_slot(passes, |j| j.solve_s);
    let completed: usize = passes.iter().map(|p| p.jobs.len()).sum();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let job_tail = stats::tail(&jobs);
    let solve_tail = stats::tail(&solves);
    notes.push(tail_note("job_tail_s", &job_tail));
    notes.push(tail_note("solve_tail_s", &solve_tail));
    notes.push(format!(
        "place_s: median of {} per-job samples; jobs completed: {completed}",
        places.len()
    ));
    let q = passes[0].quality.clone().unwrap_or_default();
    notes.push(format!(
        "quality of the first pass: {} placed jobs, {} routed clean",
        q.placed, q.drc_clean
    ));
    notes.push(format!(
        "failed_ratio: {:.6} ({} failed of {} attempted)",
        tally.failed_ratio(),
        tally.failed(),
        tally.attempted
    ));
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", stats::median(setups)),
        m("place_s", "s", stats::median(&places)),
        m(
            "jobs_per_min",
            "1/min",
            passes[0].jobs.len() as f64 * 60.0 / stats::median(&walls),
        ),
        m("job_p50_s", "s", stats::median(&jobs)),
        m("job_tail_s", "s", job_tail.value),
        m("solve_p50_s", "s", stats::median(&solves)),
        m("solve_tail_s", "s", solve_tail.value),
        m("hpwl_um", "um", q.hpwl_um),
        m("routed_wl_um", "um", q.routed_wl_um),
        m("vias", "count", q.vias as f64),
        m(
            "drc_clean_ratio",
            "ratio",
            ratio(q.drc_clean as f64, q.placed as f64),
        ),
        m("peak_rss_mb", "MB", peak_rss),
        m("ok_ratio", "ratio", 1.0 - tally.failed_ratio()),
    ]
}

/// Adds one placement's encode and solve counters, from the placer's own
/// stats, to the sums in `c`.
pub fn add_solver_counters(c: &mut BTreeMap<&'static str, f64>, s: &PlaceStats) {
    let pd_clauses: usize = s
        .families
        .iter()
        .filter(|f| f.family == ConstraintFamily::PinDensity)
        .map(|f| f.clauses)
        .sum();
    let anytime = matches!(s.outcome, PlaceOutcome::Anytime { .. });
    for (name, v) in [
        ("encode.sat_vars", s.sat_vars as f64),
        ("encode.sat_clauses", s.sat_clauses as f64),
        ("encode.pd_clauses", pd_clauses as f64),
        ("solve.conflicts", s.conflicts as f64),
        ("solve.rounds", s.iterations as f64),
        ("solve.anytime", f64::from(u8::from(anytime))),
    ] {
        *c.entry(name).or_default() += v;
    }
    let share = ratio(c["encode.pd_clauses"], c["encode.sat_clauses"]);
    c.insert("encode.pd_share", share);
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them; a
/// layer the workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("netlist.gen_s", "s"),
    ("lint.s", "s"),
    ("presolve.s", "s"),
    ("presolve.narrowed_bits", "count"),
    ("encode.s", "s"),
    ("lower.s", "s"),
    ("encode.sat_vars", "count"),
    ("encode.sat_clauses", "count"),
    ("encode.pd_clauses", "count"),
    ("encode.pd_share", "ratio"),
    ("solve.s", "s"),
    ("solve.conflicts", "count"),
    ("solve.rounds", "count"),
    ("solve.us_per_conflict", "us"),
    ("solve.anytime", "count"),
    ("verify.s", "s"),
    ("route.s", "s"),
    ("route.overflow_edges", "count"),
    ("route.rrr_rounds", "count"),
    ("closure.s", "s"),
    ("closure.route_s", "s"),
    ("closure.place_s", "s"),
    ("closure.iters", "count"),
    ("closure.hot_windows", "count"),
    ("serve.accept_s", "s"),
    ("serve.hit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.exact_hits", "count"),
    ("serve.warm_identical", "count"),
    ("serve.warm_relowered", "count"),
    ("serve.cold_builds", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.exact_hit_ratio", "ratio"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.aspect_dropped_ratio", "ratio"),
    ("journal.bytes", "bytes"),
    ("trace.overhead_s", "s"),
];

fn per_layer<B: Bench>(
    bench: &B,
    tracer: &Tracer,
    passes: &[PassOutcome],
    pass_walls: &[Vec<f64>; 2],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    // Span self times: the median over traced jobs of each job's total.
    for &(metric, span) in bench.span_metrics() {
        values.insert(metric, stats::median(&tracer.per_job_self_s(span)));
    }
    // Values the workload read from the program's own stats, per job.
    let traced: Vec<&PassOutcome> = passes.iter().skip(1).step_by(2).collect();
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in &traced {
        for (name, v) in &p.layer_samples {
            samples.entry(name).or_default().extend(v);
        }
    }
    for (name, v) in samples {
        values.insert(name, stats::median(&v));
    }
    for (name, v) in &passes[0].counters {
        values.insert(name, *v);
    }
    let overhead = stats::median(&pass_walls[1]) - stats::median(&pass_walls[0]);
    values.insert("trace.overhead_s", overhead);
    notes.push(format!(
        "tracing overhead: {overhead:.6} s per pass (traced {} pass(es) minus untraced {}, pass 0 left out)",
        pass_walls[1].len(),
        pass_walls[0].len()
    ));
    for (name, s) in tracer.self_s_by_name() {
        notes.push(format!("self time {name}: {s:.6} s"));
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload `spec` names.
///
/// # Errors
///
/// A message when the reference verdicts cannot be loaded.
pub fn run_workload(spec: &RunSpec, refs: &References) -> Result<RunResult, String> {
    Ok(match spec.workload {
        Workload::PaperBuf => run(&mut place::PaperBuf::new(true), spec),
        Workload::PaperBufNopd => run(&mut place::PaperBuf::new(false), spec),
        Workload::CorpusClose => run(&mut corpus::CorpusClose::new(spec.seed, refs.clone()), spec),
        Workload::ServeMix => run(&mut serve::ServeMix::new(spec, refs.clone())?, spec),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<_> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn a_pass_that_does_not_repeat_is_a_failure() {
        let mut a = PassOutcome::default();
        a.counters.insert("solve.conflicts", 10.0);
        let mut b = PassOutcome::default();
        b.counters.insert("solve.conflicts", 11.0);
        let mut t = Tally::default();
        check_repeat(&a, &a, 1, &mut t);
        assert_eq!(t.failed(), 0);
        check_repeat(&a, &b, 2, &mut t);
        assert_eq!((t.attempted, t.count(FailKind::Nondeterministic)), (2, 1));
    }

    #[test]
    fn slots_keep_their_median_pass() {
        let pass = |v: &[f64]| PassOutcome {
            jobs: v
                .iter()
                .map(|&s| JobSample {
                    job_s: s,
                    ..JobSample::default()
                })
                .collect(),
            ..PassOutcome::default()
        };
        let passes = [pass(&[1.0, 10.0]), pass(&[3.0, 30.0]), pass(&[2.0, 20.0])];
        assert_eq!(per_slot(&passes, |j| Some(j.job_s)), vec![2.0, 20.0]);
        assert!(per_slot(&passes, |j| j.place_s).is_empty());
    }
}
