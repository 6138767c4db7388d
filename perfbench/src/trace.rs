//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around each call the benchmark makes into a layer:
//! name, start, end, the enclosing span, and a job id shared by the spans
//! of one job. They stay in memory and are written as JSON lines when the
//! run ends. A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; merge per-thread tracers with
/// [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_origin(enabled, Instant::now())
    }

    /// A tracer whose times count from `origin`, so tracers of several
    /// threads share one time axis.
    pub fn with_origin(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name` of job `job`.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        self.nest(name, job, |_| f())
    }

    /// Like [`Tracer::span`] for a closure that records nested spans.
    pub fn nest<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans, renumbering their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per job, the summed self time of spans named `name`, in seconds;
    /// jobs without such a span are absent.
    pub fn per_job_self_s(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        let mut by_job: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            if s.name == name {
                *by_job.entry(s.job).or_default() += t;
            }
        }
        by_job.values().map(|&ns| ns as f64 * 1e-9).collect()
    }

    /// Summed self time per span name, in seconds.
    pub fn self_s_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_default() += t as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.job
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.nest("job", 1, |t| t.span("solve", 1, || 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_carry_parent_and_job_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.nest("job", 4, |t| {
            t.span("encode", 4, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("solve", 4, || {});
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("job", None));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s.iter().all(|x| x.job == 4 && x.end_ns >= x.start_ns));
        let selfs = t.self_times_ns();
        assert_eq!(
            selfs[0],
            s[0].duration_ns() - s[1].duration_ns() - s[2].duration_ns()
        );
        assert_eq!(t.per_job_self_s("encode").len(), 1);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let origin = Instant::now();
        let mut a = Tracer::with_origin(true, origin);
        a.span("x", 1, || {});
        let mut b = Tracer::with_origin(true, origin);
        b.nest("y", 2, |t| t.span("z", 2, || {}));
        a.absorb(b);
        let ids: Vec<_> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(0, None), (1, None), (2, Some(1))]);
    }
}
