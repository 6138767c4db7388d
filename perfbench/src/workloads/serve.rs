//! `serve-mix`: an in-process journaled server with two workers and two
//! closed-loop clients, each with designs of its own, submitting first
//! sights (cold), λ_th variants (warm `rebase`) and exact repeats.

use super::{Bench, JobSample, PassOutcome, Quality, RunSpec};
use crate::check::{FailKind, References, Tally, Verdict};
use crate::trace::Tracer;
use crate::{quick_options, scenario_config};
use ams_netlist::json::Json;
use ams_netlist::rng::SplitMix64;
use ams_netlist::{Design, Rect};
use ams_place::api::{JobOptions, JobStatus, PlaceRequest, PlaceResponse};
use ams_place::scenario::{self, Scenario};
use ams_place::{PlaceStats, Placement, Placer};
use ams_route::{route, RouterConfig};
use ams_serve::{client, ServeConfig, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Client poll interval while a job is not terminal; exact-cache answers
/// are quantised by it.
pub const POLL: Duration = Duration::from_millis(5);

/// Exact repeats per design: one after its first sight, the rest after its
/// λ_th variant.
const REPEATS: usize = 3;

/// Sweep points of each client's four designs, as corpus digits
/// `(template, regions - 1, domains - 1, symmetry pairs, array, mix,
/// aspect)`. Every client has two square-die and two wide-die designs, and
/// both templates appear on both die shapes. The designs are the same for
/// every seed (netlist seed slot 0); the seed decides the request script.
/// A seeded draw of four designs moved every figure by half between seeds.
const CLIENT_POINTS: [[[u32; 7]; 4]; 2] = [
    [
        [0, 1, 0, 1, 0, 0, 0],
        [1, 0, 1, 0, 2, 0, 0],
        [1, 1, 1, 1, 2, 0, 1],
        [0, 0, 0, 0, 1, 1, 1],
    ],
    [
        [1, 1, 0, 1, 1, 0, 0],
        [0, 2, 1, 0, 0, 1, 0],
        [0, 1, 1, 1, 0, 1, 1],
        [1, 0, 0, 2, 0, 0, 1],
    ],
];

/// Warm-pool entries: one per design, so no pooled solver is ever turned
/// away and the seed alone decides which requests hit.
const WARM_POOL: usize = 8;

/// Stops a server and joins its threads.
fn stop(server: Server) {
    server.shutdown();
    server.join();
}

impl Drop for ServePlan {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            stop(server);
        }
    }
}

/// Corpus index of sweep point `digits` with netlist seed slot `slot`.
fn point_index(digits: [u32; 7], slot: u32) -> u32 {
    const RADICES: [u32; 7] = [2, 3, 2, 3, 3, 2, 2];
    digits
        .iter()
        .zip(RADICES)
        .rev()
        .fold(0, |acc, (&d, r)| acc * r + d)
        * 3
        + slot
}

/// What one request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Cold,
    Warm,
    Exact,
}

#[derive(Clone, Debug)]
struct Request {
    /// Index into the client's designs.
    design: usize,
    lambda: Option<u64>,
    kind: Kind,
    body: Json,
}

/// A served scenario and its local instance.
struct Local {
    scenario: Scenario,
    reference: Verdict,
    /// Verdict of the local calibration solve (`None`: an error).
    local: Option<Verdict>,
    /// Die and resolved λ_th of the local placement, when it places.
    calibrated: Option<(u32, u32, u64)>,
}

pub struct ServePlan {
    /// Taken by the pass that stops it; a plan dropped unused stops its
    /// server on drop.
    server: Option<Server>,
    journal: PathBuf,
    clients: Vec<(Vec<Local>, Vec<Request>)>,
}

/// What a client saw of one job.
struct Seen {
    accept_s: f64,
    latency_s: f64,
    /// Terminal job view, or the reason there is none.
    view: Result<Json, String>,
}

pub struct ServeMix {
    indices: [[u32; 4]; 2],
    seed: u64,
    refs: References,
    journal_root: PathBuf,
    passes: u64,
    next_job: u64,
    /// Square-die instances of the wide designs, per (scenario, λ_th),
    /// solved locally once per run outside the timed wall.
    square: BTreeMap<(u32, Option<u64>), Option<Expect>>,
}

/// The verdict and die a served reply must show; `die` is `None` for an
/// infeasible verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Expect {
    verdict: Verdict,
    die: Option<(u64, u64)>,
}

/// The failure a served reply counts as, if any. `expected` is the local
/// instance, die aspect included. `square`, for a wide-die design, is the
/// same scenario solved locally on the default square die: the instance
/// the server solves, because the wire format drops the aspect. Only a
/// reply that matches `square` exactly is the known defect; any other
/// mismatch is a failure of its own kind.
fn classify(
    stated: Option<Verdict>,
    die: Option<(u64, u64)>,
    expected: Expect,
    square: Option<Expect>,
) -> Option<FailKind> {
    let Some(verdict) = stated else {
        return Some(FailKind::ServeStatus);
    };
    let seen = Expect { verdict, die };
    if seen == expected {
        None
    } else if Some(seen) == square {
        Some(FailKind::AspectDropped)
    } else if verdict != expected.verdict {
        Some(FailKind::VerdictMismatch)
    } else {
        Some(FailKind::ServeStatus)
    }
}

/// The instance the server solves for scenario `s` under `lambda`: the
/// request's options as they are, on the default square die, at one
/// thread. `None` when the solve ends without a verdict.
fn square_instance(s: &Scenario, lambda: Option<u64>) -> Option<Expect> {
    let options = JobOptions {
        lambda_th: lambda,
        ..quick_options()
    };
    let mut config = options.to_config();
    config.solver.threads = 1;
    let placed = Placer::new(&s.design, config).and_then(Placer::place);
    Some(Expect {
        verdict: Verdict::of(&placed)?,
        die: placed
            .ok()
            .map(|p| (u64::from(p.die.w), u64::from(p.die.h))),
    })
}

/// Checks what a served reply allows. The wire format carries no regions,
/// so `Placement::verify` cannot run on it; instead every design cell must
/// come back once, with its design dimensions, inside the die and
/// overlapping no other cell.
fn check_served(design: &Design, p: &Placement) -> Result<(), String> {
    let cells = design.cells();
    if p.cells.len() != cells.len() {
        return Err(format!(
            "{} cells served for {} design cells",
            p.cells.len(),
            cells.len()
        ));
    }
    for (i, (c, &r)) in cells.iter().zip(&p.cells).enumerate() {
        if (r.w, r.h) != (c.width, c.height) {
            return Err(format!("cell {} has wrong dimensions", c.name));
        }
        if !p.die.contains_rect(r) {
            return Err(format!("cell {} escapes the die", c.name));
        }
        if let Some(o) = p.cells[..i].iter().position(|&q| q.overlaps(r)) {
            return Err(format!("cells {} and {} overlap", cells[o].name, c.name));
        }
    }
    Ok(())
}

impl ServeMix {
    /// # Errors
    ///
    /// A message when the journal directory cannot be made.
    pub fn new(spec: &RunSpec, refs: References) -> Result<ServeMix, String> {
        let indices = CLIENT_POINTS.map(|c| c.map(|p| point_index(p, 0)));
        let journal_root = spec.out_dir.join(format!("journal-{}", std::process::id()));
        std::fs::create_dir_all(&journal_root)
            .map_err(|e| format!("creating {}: {e}", journal_root.display()))?;
        Ok(ServeMix {
            indices,
            seed: spec.seed,
            refs,
            journal_root,
            passes: 0,
            next_job: 0,
            square: BTreeMap::new(),
        })
    }

    /// The client's seeded request script: per design a cold first sight,
    /// an exact repeat, a λ_th variant one looser than the calibrated
    /// bound (a warm `rebase`), then exact repeats of either; the designs
    /// interleave. Failed results are not cached, so the repeats of an
    /// infeasible design re-solve on its pooled solver.
    fn script(&self, client: usize, locals: &[Local]) -> Vec<Request> {
        let mut rng = SplitMix64::new(self.seed.wrapping_mul(31).wrapping_add(client as u64));
        let per_design: Vec<Vec<(Option<u64>, Kind)>> = locals
            .iter()
            .map(|l| {
                let Some((_, _, lambda)) = l.calibrated else {
                    return vec![(None, Kind::Cold), (None, Kind::Warm), (None, Kind::Warm)];
                };
                let variant = Some(lambda + 1);
                let mut reqs = vec![
                    (None, Kind::Cold),
                    (None, Kind::Exact),
                    (variant, Kind::Warm),
                ];
                for _ in 0..REPEATS - 1 {
                    let pick = if rng.index(2) == 0 { None } else { variant };
                    reqs.push((pick, Kind::Exact));
                }
                reqs
            })
            .collect();
        let longest = per_design.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = Vec::new();
        // The seed also decides the order in which a client's designs
        // take turns.
        let mut order: Vec<usize> = (0..per_design.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        for k in 0..longest {
            for &d in &order {
                if let Some(&(lambda, kind)) = per_design[d].get(k) {
                    let request = PlaceRequest {
                        design: locals[d].scenario.design.clone(),
                        options: JobOptions {
                            lambda_th: lambda,
                            ..quick_options()
                        },
                        idempotency_key: None,
                    };
                    out.push(Request {
                        design: d,
                        lambda,
                        kind,
                        body: request.to_json(),
                    });
                }
            }
        }
        out
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.journal_root);
    }
}

/// Calibrates λ_th on the local instance: the placement's resolved bound.
fn calibrate(s: &Scenario) -> Result<Option<(u32, u32, u64)>, String> {
    let config = scenario_config(s, &quick_options());
    match Placer::new(&s.design, config).and_then(Placer::place) {
        Ok(p) => Ok(Some((
            p.die.w,
            p.die.h,
            p.pin_density.map_or(0, |pd| pd.lambda),
        ))),
        Err(ams_place::PlaceError::Infeasible { .. }) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Submits one request and polls it to a terminal state.
fn submit_and_wait(addr: SocketAddr, body: &Json, tracer: &mut Tracer, job: u64) -> Seen {
    let t0 = Instant::now();
    let accepted = tracer.span("serve.accept", job, || {
        client::post(addr, "/v1/jobs", Some(body))
    });
    let accept_s = t0.elapsed().as_secs_f64();
    let id = match accepted {
        Ok(r) if r.status == 202 => r.body.field("job_id").and_then(Json::as_u64),
        Ok(r) => {
            return Seen {
                accept_s,
                latency_s: t0.elapsed().as_secs_f64(),
                view: Err(format!("HTTP {} on submit", r.status)),
            }
        }
        Err(e) => {
            return Seen {
                accept_s,
                latency_s: t0.elapsed().as_secs_f64(),
                view: Err(format!("submit: {e}")),
            }
        }
    };
    let Some(id) = id else {
        return Seen {
            accept_s,
            latency_s: t0.elapsed().as_secs_f64(),
            view: Err("accept reply without a job id".into()),
        };
    };
    let path = format!("/v1/jobs/{id}");
    let view = tracer.span("serve.wait", job, || loop {
        std::thread::sleep(POLL);
        match client::get(addr, &path) {
            Ok(r) if r.status == 200 => {
                let terminal = r
                    .body
                    .field("status")
                    .and_then(Json::as_str)
                    .and_then(JobStatus::parse)
                    .is_some_and(JobStatus::is_terminal);
                if terminal {
                    return Ok(r.body);
                }
            }
            Ok(r) => return Err(format!("HTTP {} on poll", r.status)),
            Err(e) => return Err(format!("poll: {e}")),
        }
    });
    Seen {
        accept_s,
        latency_s: t0.elapsed().as_secs_f64(),
        view,
    }
}

/// Rebuilds a served placement from its cells and die, for routing.
fn served_placement(response: &PlaceResponse) -> Option<Placement> {
    let stats = response.stats.as_ref()?;
    let die = stats.field("die")?;
    let dim = |j: &Json, k: &str| j.field(k).and_then(Json::as_u64).map(|v| v as u32);
    let cells = response
        .cells
        .as_ref()?
        .items()?
        .iter()
        .map(|c| {
            Some(Rect::new(
                dim(c, "x")?,
                dim(c, "y")?,
                dim(c, "w")?,
                dim(c, "h")?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(wire_placement(
        cells,
        Rect::new(0, 0, dim(die, "w")?, dim(die, "h")?),
    ))
}

/// A placement holding only what the wire format carries: cells and die.
fn wire_placement(cells: Vec<Rect>, die: Rect) -> Placement {
    Placement {
        cells,
        regions: Vec::new(),
        die,
        edge_cells: Vec::new(),
        dummy_cells: Vec::new(),
        units: (1, 1),
        pin_density: None,
        stats: PlaceStats::default(),
    }
}

impl Bench for ServeMix {
    type State = ServePlan;

    fn setup(&mut self, tracer: &mut Tracer, job: u64) -> ServePlan {
        self.passes += 1;
        let mut clients = Vec::new();
        for (c, pair) in self.indices.iter().enumerate() {
            let locals: Vec<Local> = pair
                .iter()
                .map(|&i| {
                    let scenario = tracer.span("netlist", job, || scenario::scenario(i));
                    let calibration = tracer.span("calibrate", job, || calibrate(&scenario));
                    Local {
                        reference: self.refs.verdict(i),
                        local: calibration.as_ref().ok().map(|c| match c {
                            Some(_) => Verdict::Placed,
                            None => Verdict::Infeasible,
                        }),
                        calibrated: calibration.unwrap_or(None),
                        scenario,
                    }
                })
                .collect();
            let script = self.script(c, &locals);
            clients.push((locals, script));
        }
        let journal = self.journal_root.join(format!("pass-{}", self.passes));
        let server = tracer.span("serve.start", job, || {
            Server::start(ServeConfig {
                workers: 2,
                warm_pool_cap: WARM_POOL,
                journal_dir: Some(journal.clone()),
                ..ServeConfig::default()
            })
            .expect("bind a loopback server")
        });
        ServePlan {
            server: Some(server),
            journal,
            clients,
        }
    }

    fn pass(
        &mut self,
        mut plan: ServePlan,
        tracer: &mut Tracer,
        tally: &mut Tally,
        first: bool,
    ) -> PassOutcome {
        let server = plan.server.take().expect("set-up starts a server");
        let addr = server.addr();
        let base = self.next_job;
        let (enabled, origin) = (tracer.enabled(), tracer.origin());
        let t_wall = Instant::now();
        let seen: Vec<(Vec<Seen>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .clients
                .iter()
                .enumerate()
                .map(|(c, (_, script))| {
                    scope.spawn(move || {
                        let mut tr = Tracer::with_origin(enabled, origin);
                        let seen = script
                            .iter()
                            .enumerate()
                            .map(|(k, r)| {
                                let job = base + (c as u64) * 1000 + k as u64 + 1;
                                submit_and_wait(addr, &r.body, &mut tr, job)
                            })
                            .collect();
                        (seen, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = t_wall.elapsed().as_secs_f64();
        self.next_job += 10_000;
        let stats = client::get(addr, "/v1/stats").map(|r| r.body).ok();
        stop(server);
        let journal_bytes = dir_bytes(&plan.journal);
        let _ = std::fs::remove_dir_all(&plan.journal);

        let mut out = PassOutcome {
            wall_s,
            ..PassOutcome::default()
        };
        let mut quality = Quality::default();
        let (mut accept, mut hit, mut wait) = (Vec::new(), Vec::new(), Vec::new());
        let mut aspect_dropped = 0u64;
        for ((locals, script), (seen, tr)) in plan.clients.iter().zip(seen) {
            tracer.absorb(tr);
            for l in locals {
                tally.expect_verdict(
                    &format!("{} (local)", l.scenario.name),
                    l.local,
                    l.reference,
                );
            }
            for (r, s) in script.iter().zip(seen) {
                let local = &locals[r.design];
                let what = format!("{} λ={:?} ({:?})", local.scenario.name, r.lambda, r.kind);
                tally.attempt();
                accept.push(s.accept_s);
                let mut sample = JobSample {
                    job_s: s.latency_s,
                    ..JobSample::default()
                };
                let response = s.view.and_then(|v| {
                    let doc = v.field("response").cloned().unwrap_or(Json::Null);
                    PlaceResponse::from_json(&doc)
                });
                let response = match response {
                    Ok(r) => r,
                    Err(e) => {
                        tally.fail(FailKind::ServeStatus, format!("{what}: {e}"));
                        out.jobs.push(sample);
                        continue;
                    }
                };
                let stated = match response.status {
                    JobStatus::Done => Some(Verdict::Placed),
                    JobStatus::Failed
                        if response
                            .error
                            .as_ref()
                            .is_some_and(|e| e.kind.name() == "infeasible") =>
                    {
                        Some(Verdict::Infeasible)
                    }
                    _ => None,
                };
                // A looser λ_th than a placed instance's stays placeable.
                let verdict = match r.lambda {
                    Some(_) => Verdict::Placed,
                    None => local.reference,
                };
                let expected = Expect {
                    verdict,
                    die: local
                        .calibrated
                        .filter(|_| verdict == Verdict::Placed)
                        .map(|(w, h, _)| (u64::from(w), u64::from(h))),
                };
                let die = response
                    .stats
                    .as_ref()
                    .and_then(|s| s.field("die"))
                    .and_then(|d| Some((d.field("w")?.as_u64()?, d.field("h")?.as_u64()?)));
                let square = (local.scenario.params.aspect != 0).then(|| {
                    *self
                        .square
                        .entry((local.scenario.params.index, r.lambda))
                        .or_insert_with(|| square_instance(&local.scenario, r.lambda))
                });
                let status = response.status.name();
                let mut failure = classify(stated, die, expected, square.flatten()).map(|kind| {
                    let detail = format!(
                        "{what}: ended {status}, served {stated:?} on die {die:?}, \
                         expected {expected:?}"
                    );
                    (kind, detail)
                });
                if response.cached {
                    hit.push(s.latency_s);
                } else {
                    sample.solve_s = Some(s.latency_s);
                    if r.kind == Kind::Cold {
                        sample.place_s = Some(s.latency_s);
                    }
                    if let Some(ms) = response
                        .stats
                        .as_ref()
                        .and_then(|st| st.field("runtime_ms"))
                        .and_then(Json::as_u64)
                    {
                        wait.push(s.latency_s - ms as f64 / 1000.0);
                    }
                }
                if response.status == JobStatus::Done {
                    let hpwl = response
                        .stats
                        .as_ref()
                        .and_then(|st| st.field("hpwl_um"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    out.fingerprint.push(hpwl.to_bits());
                    let design = &local.scenario.design;
                    let served = served_placement(&response)
                        .ok_or_else(|| "reply without cells or die".to_string())
                        .and_then(|p| check_served(design, &p).map(|()| p));
                    match served {
                        // An illegal reply is never the known defect.
                        Err(e) => {
                            failure = Some((FailKind::IllegalPlacement, format!("{what}: {e}")))
                        }
                        Ok(p) if first => {
                            let routed = route(design, &p, RouterConfig::default());
                            quality.add(
                                hpwl,
                                routed.wirelength_um(design.pitch()),
                                routed.vias,
                                routed.overflow,
                            );
                        }
                        Ok(_) => {}
                    }
                } else {
                    out.fingerprint
                        .push(u64::from(stated == Some(Verdict::Infeasible)));
                }
                if let Some((kind, detail)) = failure {
                    aspect_dropped += u64::from(kind == FailKind::AspectDropped);
                    tally.fail(kind, detail);
                }
                out.jobs.push(sample);
            }
        }
        let counter = |k: &str| {
            stats
                .as_ref()
                .and_then(|s| s.field(k))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        let c = &mut out.counters;
        for (name, key) in [
            ("serve.exact_hits", "exact_hits"),
            ("serve.warm_identical", "warm_identical"),
            ("serve.warm_relowered", "warm_relowered"),
            ("serve.cold_builds", "cold_builds"),
            ("serve.shed", "shed"),
            ("serve.rejected", "rejected"),
        ] {
            c.insert(name, counter(key));
        }
        let submitted = counter("submitted");
        let warm = counter("warm_identical") + counter("warm_relowered");
        let solved = warm + counter("cold_builds");
        c.insert(
            "serve.exact_hit_ratio",
            super::ratio(counter("exact_hits"), submitted),
        );
        c.insert("serve.warm_hit_ratio", super::ratio(warm, solved));
        c.insert(
            "serve.aspect_dropped_ratio",
            super::ratio(aspect_dropped as f64, out.jobs.len() as f64),
        );
        let ls = &mut out.layer_samples;
        ls.insert("serve.accept_s", accept);
        ls.insert("serve.hit_s", hit);
        ls.insert("serve.queue_wait_s", wait);
        ls.insert("journal.bytes", vec![journal_bytes as f64]);
        if first {
            out.quality = Some(quality);
        }
        out
    }

    fn span_metrics(&self) -> &'static [(&'static str, &'static str)] {
        &[("netlist.gen_s", "netlist")]
    }

    /// Each job slot keeps the median of three passes or more.
    fn min_passes(&self) -> usize {
        3
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "client poll interval: {} ms (serve.hit_s is quantised by it)",
            POLL.as_millis()
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_points_decode_to_their_digits() {
        for (c, points) in CLIENT_POINTS.iter().enumerate() {
            let aspects: Vec<u32> = points.iter().map(|p| p[6]).collect();
            assert_eq!(
                aspects,
                vec![0, 0, 1, 1],
                "client {c}: two square, two wide"
            );
            for &p in points {
                for slot in 0..3 {
                    let q = scenario::params(point_index(p, slot));
                    let got = [
                        q.template,
                        q.regions - 1,
                        q.domains - 1,
                        q.symmetry_pairs,
                        q.array,
                        q.mix,
                        q.aspect,
                    ];
                    assert_eq!(got, p);
                }
            }
        }
    }

    #[test]
    fn only_a_reply_matching_the_square_instance_is_the_aspect_defect() {
        use FailKind::{AspectDropped, ServeStatus, VerdictMismatch};
        use Verdict::{Infeasible, Placed};
        let wide = Expect {
            verdict: Placed,
            die: Some((40, 20)),
        };
        let square_unsat = Expect {
            verdict: Infeasible,
            die: None,
        };
        let square_placed = Expect {
            verdict: Placed,
            die: Some((28, 28)),
        };
        // The local instance itself is no failure.
        assert_eq!(
            classify(Some(Placed), Some((40, 20)), wide, Some(square_unsat)),
            None
        );
        // The square instance's outcome is the known defect.
        assert_eq!(
            classify(Some(Infeasible), None, wide, Some(square_unsat)),
            Some(AspectDropped)
        );
        assert_eq!(
            classify(Some(Placed), Some((28, 28)), wide, Some(square_placed)),
            Some(AspectDropped)
        );
        // Anything else on a wide design is a failure of its own kind.
        assert_eq!(
            classify(Some(Placed), Some((28, 28)), wide, Some(square_unsat)),
            Some(ServeStatus)
        );
        assert_eq!(
            classify(Some(Placed), Some((30, 30)), wide, Some(square_placed)),
            Some(ServeStatus)
        );
        assert_eq!(
            classify(Some(Infeasible), None, wide, Some(square_placed)),
            Some(VerdictMismatch)
        );
        assert_eq!(
            classify(None, None, wide, Some(square_unsat)),
            Some(ServeStatus)
        );
        // A square design has no square reference.
        assert_eq!(
            classify(Some(Infeasible), None, wide, None),
            Some(VerdictMismatch)
        );
    }

    #[test]
    fn served_placements_need_design_dimensions_the_die_and_no_overlap() {
        let design = scenario::scenario(point_index(CLIENT_POINTS[0][0], 0)).design;
        // Every cell in one row, side by side: legal for what the wire carries.
        let mut x = 0;
        let row: Vec<Rect> = design
            .cells()
            .iter()
            .map(|c| {
                x += c.width;
                Rect::new(x - c.width, 0, c.width, c.height)
            })
            .collect();
        let height = design.cells().iter().map(|c| c.height).max().unwrap();
        let die = Rect::new(0, 0, x, height);
        assert_eq!(
            check_served(&design, &wire_placement(row.clone(), die)),
            Ok(())
        );

        let mut overlap = row.clone();
        overlap[1].x = overlap[0].x;
        assert!(check_served(&design, &wire_placement(overlap, die)).is_err());
        let mut resized = row.clone();
        resized[0].w += 1;
        assert!(check_served(&design, &wire_placement(resized, die)).is_err());
        let narrow = Rect::new(0, 0, x - 1, height);
        assert!(check_served(&design, &wire_placement(row.clone(), narrow)).is_err());
        assert!(check_served(&design, &wire_placement(row[1..].to_vec(), die)).is_err());
    }
}
