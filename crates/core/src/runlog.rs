//! The harvested output of a monitored run.
//!
//! After the application reaches a quiescent state, the scattered per-thread
//! logs are gathered together with the name vocabulary and the deployment
//! topology — everything the off-line collector needs to synthesize its
//! relational database.

use crate::deploy::Deployment;
use crate::names::VocabSnapshot;
use crate::record::ProbeRecord;

/// Everything harvested from one system run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    /// All probe records, grouped by (process, thread) in drain order.
    pub records: Vec<ProbeRecord>,
    /// Names for every id appearing in the records.
    pub vocab: VocabSnapshot,
    /// The node/process topology of the run.
    pub deployment: Deployment,
    /// How many records the harvesting side *expected* to drain — the sum
    /// of each store's buffered count captured immediately before its
    /// drain. When this exceeds [`RunLog::len`], the difference was lost
    /// between harvest and analysis (a torn file, or another consumer
    /// drained the store first); the analyzer warns about it. `None` for
    /// logs assembled by hand or written by older tools.
    pub expected_records: Option<u64>,
}

impl RunLog {
    /// Creates a run log.
    pub fn new(records: Vec<ProbeRecord>, vocab: VocabSnapshot, deployment: Deployment) -> RunLog {
        RunLog { records, vocab, deployment, expected_records: None }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records were harvested.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merges another run log's records into this one (e.g. logs gathered
    /// from two runtime domains of a hybrid system). Vocabulary and
    /// deployment must already agree (they come from the shared system).
    pub fn merge(&mut self, other: RunLog) {
        self.records.extend(other.records);
        // The expectation only stays meaningful when both sides carry one.
        self.expected_records = match (self.expected_records, other.expected_records) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
    }

    /// Records dropped between harvest and now: `expected_records` minus
    /// what the log actually holds, when the expectation is known and was
    /// missed. `None` means "no discrepancy detectable".
    pub fn missing_records(&self) -> Option<u64> {
        let expected = self.expected_records?;
        let actual = self.records.len() as u64;
        (expected > actual).then(|| expected - actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_concatenates_records() {
        let mut a = RunLog::default();
        assert!(a.is_empty());
        let b = RunLog::default();
        a.merge(b);
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn merge_sums_expectations_only_when_both_known() {
        let mut a = RunLog { expected_records: Some(3), ..RunLog::default() };
        let b = RunLog { expected_records: Some(4), ..RunLog::default() };
        a.merge(b);
        assert_eq!(a.expected_records, Some(7));
        a.merge(RunLog::default()); // unknown side poisons the sum
        assert_eq!(a.expected_records, None);
    }

    #[test]
    fn missing_records_reports_only_shortfalls() {
        let mut run = RunLog::default();
        assert_eq!(run.missing_records(), None, "no expectation, no verdict");
        run.expected_records = Some(2);
        assert_eq!(run.missing_records(), Some(2));
        run.expected_records = Some(0);
        assert_eq!(run.missing_records(), None, "surplus is not a loss");
    }
}
