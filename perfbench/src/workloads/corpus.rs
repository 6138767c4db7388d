//! `corpus-close`: a seeded stratified draw of corpus scenarios, each
//! driven through the routing-closure loop on a starved router.

use super::{Bench, JobSample, PassOutcome, Quality};
use crate::check::{FailKind, References, Tally, Verdict};
use crate::trace::Tracer;
use crate::{quick_options, scenario_config, ROUND_BUDGET};
use ams_netlist::rng::SplitMix64;
use ams_place::analysis::{self, presolve::presolve};
use ams_place::closure::{close, ClosureConfig, ClosureStats};
use ams_place::scenario::{self, Scenario, CORPUS_SIZE};
use ams_place::{PlaceError, Placement, PlacerConfig};
use ams_route::{route, route_feedback, RouterConfig};
use std::time::Instant;

/// Scenarios per pass: enough that the job tail is a real p75.
pub const SCENARIOS: u32 = 40;

/// The router of this workload: one track per unit edge (the starved
/// router of the closure tests), default rip-up rounds.
pub fn starved_router() -> RouterConfig {
    RouterConfig {
        capacity: 1,
        ..RouterConfig::default()
    }
}

/// Sweep digits ordered by how much they move a scenario's size: regions,
/// template, array, aspect, mix, symmetry, domains, netlist seed slot.
const STRATA: [(u32, u32); 8] = [
    (3, 2), // regions, corpus digit 2
    (2, 1), // template, digit 1
    (3, 5), // array, digit 5
    (2, 7), // aspect, digit 7
    (2, 6), // mix, digit 6
    (3, 4), // symmetry pairs, digit 4
    (2, 3), // domains, digit 3
    (3, 0), // seed slot, digit 0
];

/// Radices of the corpus index, fastest digit first (see
/// `ams_place::scenario::params`).
const CORPUS_RADICES: [u32; 8] = [3, 2, 3, 2, 3, 3, 2, 2];

/// Maps a position of the size-ordered sweep to its corpus index.
fn corpus_index(position: u32) -> u32 {
    let mut digits = [0u32; 8];
    let mut rest = position;
    for &(radix, digit) in STRATA.iter().rev() {
        digits[digit as usize] = rest % radix;
        rest /= radix;
    }
    let mut index = 0;
    for (d, r) in digits.iter().zip(CORPUS_RADICES).rev() {
        index = index * r + d;
    }
    index
}

/// Sweep points per netlist seed slot (the corpus without its fastest
/// digit).
const POINTS: u32 = CORPUS_SIZE / 3;

/// The pass's scenarios: `n` sweep points spread evenly over the sweep
/// ordered by size, netlist seed slots in turn, in an order the seed
/// shuffles. The set is the same for every seed, so the seed moves no
/// figure but the order of work: a seeded draw of the set itself moved
/// the per-job median by a fifth between seeds.
pub fn draw(seed: u64, n: u32) -> Vec<u32> {
    let mut set: Vec<u32> = (0..n)
        .map(|i| corpus_index((2 * i + 1) * POINTS / (2 * n) * 3 + i % 3))
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..set.len()).rev() {
        set.swap(i, rng.index(i + 1));
    }
    set
}

pub struct CorpusClose {
    indices: Vec<u32>,
    refs: References,
    next_job: u64,
}

/// One run of one scenario: the timed sample and what the checks need.
struct JobRun {
    sample: JobSample,
    closed: Result<(Placement, ClosureStats), PlaceError>,
    lint_errors: bool,
    narrowed_bits: u64,
    legal: Result<(), usize>,
    close_s: f64,
    route_s: f64,
    /// `Placer::new` minus lowering: the time to the first route callback
    /// less the first placement's own solve and lowering times.
    encode_s: Option<f64>,
    /// Summed `place_mut` time and conflicts of every placement `close()`
    /// made, from each placement's stats.
    solve_s: f64,
    conflicts: u64,
}

impl JobRun {
    /// What the job must reproduce exactly on every pass.
    fn fingerprint(&self, index: u32) -> Vec<u64> {
        match &self.closed {
            Ok((placement, stats)) => [u64::from(index), stats.iterations as u64]
                .into_iter()
                .chain(stats.routed_wl_trend.iter().copied())
                .chain(
                    placement
                        .cells
                        .iter()
                        .flat_map(|r| [u64::from(r.x), u64::from(r.y)]),
                )
                .collect(),
            Err(e) => vec![
                u64::from(index),
                u64::from(matches!(e, PlaceError::Infeasible { .. })),
            ],
        }
    }
}

impl CorpusClose {
    pub fn new(seed: u64, refs: References) -> CorpusClose {
        CorpusClose {
            indices: draw(seed, SCENARIOS),
            refs,
            next_job: 0,
        }
    }
}

/// Runs one scenario as its caller waits for it: lint, presolve, `close()`
/// with `route_feedback` as the callback, and `verify`.
fn run_job(s: &Scenario, config: &PlacerConfig, tracer: &mut Tracer, job: u64) -> JobRun {
    let t_job = Instant::now();
    let lint = tracer.span("lint", job, || analysis::lint(&s.design, config));
    let pre = tracer.span("presolve", job, || presolve(&s.design, config));
    let t_close = Instant::now();
    let mut first_route: Option<f64> = None;
    let mut encode_s = None;
    let (mut route_s, mut solve_s, mut conflicts) = (0.0, 0.0, 0);
    let closed = tracer.nest("closure", job, |tr| {
        close(
            &s.design,
            config.clone(),
            &ClosureConfig::default(),
            |d, p, w| {
                let t = Instant::now();
                let solve = p.stats.runtime.as_secs_f64();
                if first_route.is_none() {
                    let to_route = (t - t_close).as_secs_f64();
                    first_route = Some(to_route);
                    encode_s = Some(to_route - solve - p.stats.lowering.as_secs_f64());
                }
                solve_s += solve;
                conflicts += p.stats.conflicts;
                let fb = tr.span("closure.route", job, || {
                    route_feedback(d, p, w, starved_router())
                });
                route_s += t.elapsed().as_secs_f64();
                fb
            },
        )
    });
    let close_s = t_close.elapsed().as_secs_f64();
    let legal = match &closed {
        Ok((placement, _)) => tracer
            .span("verify", job, || placement.verify(&s.design))
            .map_err(|v| v.len()),
        Err(_) => Ok(()),
    };
    JobRun {
        sample: JobSample {
            job_s: t_job.elapsed().as_secs_f64(),
            place_s: first_route,
            solve_s: Some(close_s - route_s),
        },
        closed,
        lint_errors: lint.has_errors(),
        narrowed_bits: pre.vars_saved_bits,
        legal,
        close_s,
        route_s,
        encode_s,
        solve_s,
        conflicts,
    }
}

impl Bench for CorpusClose {
    type State = Vec<Scenario>;

    fn setup(&mut self, tracer: &mut Tracer, job: u64) -> Vec<Scenario> {
        tracer.span("netlist", job, || {
            self.indices
                .iter()
                .map(|&i| scenario::scenario(i))
                .collect()
        })
    }

    fn pass(
        &mut self,
        scenarios: Vec<Scenario>,
        tracer: &mut Tracer,
        tally: &mut Tally,
        first: bool,
    ) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut quality = Quality::default();
        let (mut iters, mut hot, mut bits, mut overflow_edges, mut rrr) = (0, 0, 0, 0, 0);
        let options = quick_options();
        for s in &scenarios {
            let what = &s.name;
            let index = s.params.index;
            let mut config = scenario_config(s, &options);
            config.optimize.conflict_budget = Some(ROUND_BUDGET);
            let reference = self.refs.verdict(index);
            self.next_job += 1;
            let run = run_job(s, &config, tracer, self.next_job);
            out.wall_s += run.sample.job_s;
            tally.expect_verdict(what, Verdict::of(&run.closed), reference);
            if run.lint_errors && reference == Verdict::Placed {
                tally.fail(
                    FailKind::Error,
                    format!("{what}: lint errors on a placeable design"),
                );
            }
            if let Err(n) = run.legal {
                tally.fail(
                    FailKind::IllegalPlacement,
                    format!("{what}: {n} violations"),
                );
            }
            bits += run.narrowed_bits;
            out.fingerprint.extend(run.fingerprint(index));
            out.jobs.push(run.sample);
            let Ok((placement, stats)) = run.closed else {
                continue;
            };
            let ls = &mut out.layer_samples;
            ls.entry("closure.s").or_default().push(run.close_s);
            ls.entry("closure.route_s").or_default().push(run.route_s);
            ls.entry("closure.place_s")
                .or_default()
                .push(run.close_s - run.route_s);
            ls.entry("lower.s")
                .or_default()
                .push(placement.stats.lowering.as_secs_f64());
            ls.entry("encode.s").or_default().extend(run.encode_s);
            ls.entry("solve.s").or_default().push(run.solve_s);
            ls.entry("solve.us_per_conflict")
                .or_default()
                .push(super::ratio(run.solve_s * 1e6, run.conflicts as f64));
            super::add_solver_counters(&mut out.counters, &placement.stats);
            iters += stats.iterations;
            hot += stats.hot_windows.len();
            // The final routing again, outside the timed wall: its µm
            // length, vias and overflow are the job's quality.
            let routed = tracer.span("route", self.next_job, || {
                route(&s.design, &placement, starved_router())
            });
            if stats.routed_wl_trend.last() != Some(&routed.wirelength) {
                tally.fail(
                    FailKind::Nondeterministic,
                    format!("{what}: re-routing the final placement gave another length"),
                );
            }
            overflow_edges += routed.overflow_edges.len();
            rrr += routed.iterations;
            quality.add(
                placement.hpwl_um(&s.design),
                routed.wirelength_um(s.design.pitch()),
                routed.vias,
                routed.overflow,
            );
            out.fingerprint
                .extend([placement.hpwl(&s.design), routed.wirelength, routed.vias]);
        }
        let c = &mut out.counters;
        c.insert("presolve.narrowed_bits", bits as f64);
        c.insert("closure.iters", iters as f64);
        c.insert("closure.hot_windows", hot as f64);
        c.insert("route.overflow_edges", overflow_edges as f64);
        c.insert("route.rrr_rounds", rrr as f64);
        if first {
            out.quality = Some(quality);
        }
        out
    }

    /// Each job slot keeps the median of its passes; passes spread over the
    /// run let that median leave out a slow spell of a shared host, which
    /// back-to-back repeats of a job would all share.
    fn min_passes(&self) -> usize {
        3
    }

    fn span_metrics(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("netlist.gen_s", "netlist"),
            ("lint.s", "lint"),
            ("presolve.s", "presolve"),
            ("verify.s", "verify"),
            ("route.s", "route"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_ordered_positions_decode_to_every_corpus_index_once() {
        let mut seen: Vec<u32> = (0..CORPUS_SIZE).map(corpus_index).collect();
        // Regions vary slowest: each third of the positions shares one count.
        assert!((0..432).all(|k| scenario::params(corpus_index(k)).regions == 1));
        assert!((432..864).all(|k| scenario::params(corpus_index(k)).regions == 2));
        seen.sort_unstable();
        assert_eq!(seen, (0..CORPUS_SIZE).collect::<Vec<_>>());
    }

    #[test]
    fn draws_are_seeded_orders_of_one_balanced_set() {
        assert_eq!(draw(7, SCENARIOS), draw(7, SCENARIOS));
        assert_ne!(draw(7, SCENARIOS), draw(8, SCENARIOS));
        let (mut a, mut b) = (draw(7, SCENARIOS), draw(8, SCENARIOS));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        for seed in 0..5 {
            let regions: Vec<u32> = draw(seed, 36)
                .iter()
                .map(|&i| scenario::params(i).regions)
                .collect();
            for r in 1..=3 {
                assert_eq!(regions.iter().filter(|&&x| x == r).count(), 12);
            }
        }
    }
}
