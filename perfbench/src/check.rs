//! Failure accounting and the certified reference verdicts.

use ams_netlist::json::Json;
use ams_place::scenario::CORPUS_SIZE;
use ams_place::PlaceError;

/// The reference verdict list kept beside the benchmark.
pub const REFERENCE_FILE: &str = "perfbench/reference_verdicts.json";

/// What a placement job concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A legal placement exists (and was returned).
    Placed,
    /// No legal placement exists.
    Infeasible,
}

impl Verdict {
    /// The verdict a placer result states; `None` for errors that are no
    /// verdict at all (budget, deadline, config, internal).
    pub fn of<T>(result: &Result<T, PlaceError>) -> Option<Verdict> {
        match result {
            Ok(_) => Some(Verdict::Placed),
            Err(PlaceError::Infeasible { .. }) => Some(Verdict::Infeasible),
            Err(_) => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Verdict::Placed => "placed",
            Verdict::Infeasible => "infeasible",
        }
    }
}

/// Reference verdicts of every corpus scenario under the quick profile,
/// made once in certify mode (each infeasible verdict DRAT-checked).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct References {
    infeasible: Vec<u32>,
}

impl References {
    /// Loads the list from `path`, relative to the checkout root.
    ///
    /// # Errors
    ///
    /// A message when the file is missing, malformed or made for another
    /// corpus size.
    pub fn load(path: &str) -> Result<References, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        References::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses the JSON document written by `make-reference`.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed field.
    pub fn parse(text: &str) -> Result<References, String> {
        let doc = Json::parse(text).map_err(|e| format!("{e:?}"))?;
        let size = doc.field("corpus_size").and_then(Json::as_u64);
        if size != Some(u64::from(CORPUS_SIZE)) {
            return Err(format!(
                "made for corpus size {size:?}, the corpus holds {CORPUS_SIZE}"
            ));
        }
        let mut infeasible = Vec::new();
        for item in doc
            .field("infeasible")
            .and_then(Json::items)
            .ok_or("missing `infeasible` list")?
        {
            let index = item.as_u64().ok_or("non-integer scenario index")?;
            infeasible.push(u32::try_from(index).map_err(|e| e.to_string())?);
        }
        infeasible.sort_unstable();
        Ok(References { infeasible })
    }

    /// Builds a list directly (self-tests).
    pub fn from_infeasible(mut infeasible: Vec<u32>) -> References {
        infeasible.sort_unstable();
        References { infeasible }
    }

    /// The reference verdict of scenario `index`.
    pub fn verdict(&self, index: u32) -> Verdict {
        if self.infeasible.binary_search(&index).is_ok() {
            Verdict::Infeasible
        } else {
            Verdict::Placed
        }
    }
}

/// Why an operation counted as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailKind {
    /// The program returned an error that is not a verdict matching the
    /// reference.
    Error,
    /// `Placement::verify` rejected a returned placement.
    IllegalPlacement,
    /// The stated verdict differs from the reference verdict.
    VerdictMismatch,
    /// A served job did not end `done`/`failed` with the expected verdict.
    ServeStatus,
    /// A served job solved another instance than the local one: the wire
    /// format carries no die aspect, so a wide-die scenario comes back on
    /// the default square die. A known program defect, counted, never
    /// filtered.
    AspectDropped,
    /// A repeat of the same work gave other counters or quality figures.
    Nondeterministic,
}

impl FailKind {
    pub fn name(self) -> &'static str {
        match self {
            FailKind::Error => "error",
            FailKind::IllegalPlacement => "illegal_placement",
            FailKind::VerdictMismatch => "verdict_mismatch",
            FailKind::ServeStatus => "serve_status",
            FailKind::AspectDropped => "aspect_dropped",
            FailKind::Nondeterministic => "nondeterministic",
        }
    }

    /// Whether this kind is the documented aspect defect, which is
    /// counted as failed but does not make the benchmark's own result
    /// incorrect.
    pub fn is_known_defect(self) -> bool {
        self == FailKind::AspectDropped
    }
}

/// Attempted and failed operations of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    failures: Vec<(FailKind, String)>,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records one failed operation (at most one per attempt).
    pub fn fail(&mut self, kind: FailKind, detail: impl Into<String>) {
        self.failures.push((kind, detail.into()));
    }

    /// Counts an attempt and checks a stated verdict against the
    /// reference: an error without a verdict, or a verdict that differs,
    /// is a failure.
    pub fn expect_verdict(&mut self, what: &str, stated: Option<Verdict>, reference: Verdict) {
        self.attempt();
        match stated {
            None => self.fail(FailKind::Error, format!("{what}: error without a verdict")),
            Some(v) if v != reference => self.fail(
                FailKind::VerdictMismatch,
                format!(
                    "{what}: {} but the reference is {}",
                    v.name(),
                    reference.name()
                ),
            ),
            Some(_) => {}
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Failures of one kind.
    pub fn count(&self, kind: FailKind) -> u64 {
        self.failures.iter().filter(|(k, _)| *k == kind).count() as u64
    }

    /// True when every failure is the documented known defect.
    pub fn only_known_defects(&self) -> bool {
        self.failures.iter().all(|(k, _)| k.is_known_defect())
    }

    pub fn failures(&self) -> &[(FailKind, String)] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_that_match_the_reference_are_not_failures() {
        let refs = References::from_infeasible(vec![414, 612]);
        let mut t = Tally::default();
        t.expect_verdict("s414", Some(Verdict::Infeasible), refs.verdict(414));
        t.expect_verdict("s3", Some(Verdict::Placed), refs.verdict(3));
        assert_eq!((t.attempted, t.failed()), (2, 0));
        assert_eq!(t.failed_ratio(), 0.0);
    }

    #[test]
    fn a_flipped_reference_verdict_is_a_failure() {
        // The same outcomes against a reference with one verdict flipped.
        let flipped = References::from_infeasible(vec![3, 612]);
        let mut t = Tally::default();
        t.expect_verdict("s414", Some(Verdict::Infeasible), flipped.verdict(414));
        t.expect_verdict("s3", Some(Verdict::Placed), flipped.verdict(3));
        assert_eq!(t.failed(), 2);
        assert_eq!(t.count(FailKind::VerdictMismatch), 2);
        assert!(!t.only_known_defects());
    }

    #[test]
    fn errors_without_a_verdict_and_defects_are_counted() {
        let mut t = Tally::default();
        t.expect_verdict("budget", None, Verdict::Placed);
        t.attempt();
        t.fail(FailKind::AspectDropped, "scenario 1047");
        t.attempt();
        assert_eq!((t.attempted, t.failed()), (3, 2));
        assert!((t.failed_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.count(FailKind::Error), 1);
        assert!(!t.only_known_defects());

        let mut known = Tally::default();
        known.attempt();
        known.fail(FailKind::AspectDropped, "scenario 1047");
        assert!(known.only_known_defects());
    }

    #[test]
    fn reference_file_round_trips_and_rejects_other_corpora() {
        let doc = format!("{{\"corpus_size\": {CORPUS_SIZE}, \"infeasible\": [612, 414]}}");
        let refs = References::parse(&doc).unwrap();
        assert_eq!(refs, References::from_infeasible(vec![414, 612]));
        assert!(References::parse("{\"corpus_size\": 7, \"infeasible\": []}").is_err());
    }

    #[test]
    fn the_committed_reference_list_loads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference_verdicts.json");
        let refs = References::load(path).unwrap();
        assert_eq!(refs.verdict(612), Verdict::Infeasible);
    }
}
