//! `paper-buf` and `paper-buf-nopd`: the paper's BUF instance under the
//! quick profile, placed, verified and routed once per pass.

use super::{Bench, JobSample, PassOutcome, Quality};
use crate::check::{FailKind, Tally, Verdict};
use crate::trace::Tracer;
use crate::{quick_options, ROUND_BUDGET};
use ams_netlist::{benchmarks, Design};
use ams_place::analysis::{self, presolve::presolve};
use ams_place::{Placer, PlacerConfig};
use ams_route::{route, RouterConfig};
use std::time::Instant;

/// BUF with pin density on (`paper-buf`) or off (`paper-buf-nopd`). Both
/// share the round budget, so `paper-buf-nopd` runs the same conflict
/// budget on the smaller CNF.
pub struct PaperBuf {
    pin_density: bool,
    next_job: u64,
}

impl PaperBuf {
    pub fn new(pin_density: bool) -> PaperBuf {
        PaperBuf {
            pin_density,
            next_job: 0,
        }
    }

    fn config(&self) -> PlacerConfig {
        let mut config = quick_options().to_config();
        config.optimize.conflict_budget = Some(ROUND_BUDGET);
        config.solver.threads = 1;
        if !self.pin_density {
            config.pin_density = None;
        }
        config
    }
}

/// The BUF instance is the same for every seed: it is the paper's design.
/// The paper places it, so its reference verdict is `placed`.
const BUF_REFERENCE: Verdict = Verdict::Placed;

impl Bench for PaperBuf {
    type State = (Design, PlacerConfig);

    fn setup(&mut self, tracer: &mut Tracer, job: u64) -> (Design, PlacerConfig) {
        let design = tracer.span("netlist", job, benchmarks::buf);
        (design, self.config())
    }

    fn pass(
        &mut self,
        (design, config): (Design, PlacerConfig),
        tracer: &mut Tracer,
        tally: &mut Tally,
        first: bool,
    ) -> PassOutcome {
        let mut out = PassOutcome::default();
        self.next_job += 1;
        let job = self.next_job;
        let t_job = Instant::now();
        let lint = tracer.span("lint", job, || analysis::lint(&design, &config));
        let pre = tracer.span("presolve", job, || presolve(&design, &config));
        let t_place = Instant::now();
        let placer = tracer.span("encode", job, || Placer::new(&design, config.clone()));
        let (sat_vars, sat_clauses) = match &placer {
            Ok(p) => (p.sat_vars(), p.sat_clauses()),
            Err(_) => (0, 0),
        };
        let t_solve = Instant::now();
        let new_s = (t_solve - t_place).as_secs_f64();
        let placed = placer.and_then(|mut p| tracer.span("solve", job, || p.place_mut()));
        let solve_s = t_solve.elapsed().as_secs_f64();
        tally.expect_verdict("buf", Verdict::of(&placed), BUF_REFERENCE);
        let Ok(placement) = placed else {
            out.wall_s = t_job.elapsed().as_secs_f64();
            out.jobs.push(JobSample {
                job_s: out.wall_s,
                ..JobSample::default()
            });
            return out;
        };
        let legal = tracer.span("verify", job, || placement.verify(&design));
        let place_s = t_place.elapsed().as_secs_f64();
        if let Err(v) = legal {
            tally.fail(
                FailKind::IllegalPlacement,
                format!("buf: {} violations", v.len()),
            );
        }
        let routed = tracer.span("route", job, || {
            route(&design, &placement, RouterConfig::default())
        });
        out.wall_s = t_job.elapsed().as_secs_f64();
        out.jobs.push(JobSample {
            job_s: out.wall_s,
            place_s: Some(place_s),
            solve_s: Some(solve_s),
        });
        if lint.has_errors() {
            tally.fail(FailKind::Error, "buf: lint reported errors");
        }

        let s = &placement.stats;
        let c = &mut out.counters;
        c.insert("presolve.narrowed_bits", pre.vars_saved_bits as f64);
        super::add_solver_counters(c, s);
        // The placer's size before it solves.
        c.insert("encode.sat_vars", sat_vars as f64);
        c.insert("encode.sat_clauses", sat_clauses as f64);
        c.insert(
            "encode.pd_share",
            super::ratio(c["encode.pd_clauses"], sat_clauses as f64),
        );
        c.insert("route.overflow_edges", routed.overflow_edges.len() as f64);
        c.insert("route.rrr_rounds", routed.iterations as f64);
        let lower_s = s.lowering.as_secs_f64();
        out.layer_samples.insert("lower.s", vec![lower_s]);
        out.layer_samples.insert("encode.s", vec![new_s - lower_s]);
        out.layer_samples.insert(
            "solve.us_per_conflict",
            vec![super::ratio(solve_s * 1e6, s.conflicts as f64)],
        );
        let hpwl = placement.hpwl_um(&design);
        let rwl = routed.wirelength_um(design.pitch());
        out.fingerprint = vec![placement.hpwl(&design), routed.wirelength, routed.vias];
        if first {
            let mut q = Quality::default();
            q.add(hpwl, rwl, routed.vias, routed.overflow);
            out.quality = Some(q);
        }
        out
    }

    fn span_metrics(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("netlist.gen_s", "netlist"),
            ("lint.s", "lint"),
            ("presolve.s", "presolve"),
            ("solve.s", "solve"),
            ("verify.s", "verify"),
            ("route.s", "route"),
        ]
    }
}
