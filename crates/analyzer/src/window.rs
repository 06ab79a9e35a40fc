//! The windowed aggregates the live monitor closes, retains and checks:
//! one operation's [`SeriesAgg`] and one window's [`WindowSnapshot`].
//!
//! [`crate::live`] builds snapshots, [`crate::history`] retains them and
//! [`crate::rules`] evaluates rules against them; none of the three needs
//! another to read one.

use crate::latency::LatencyHistogram;
use causeway_core::ids::{InterfaceId, MethodIndex};
use std::collections::BTreeMap;

/// A per-operation series key: the characterization unit of the paper's
/// Table 2.
pub type SeriesKey = (InterfaceId, MethodIndex);

/// Streaming aggregates for one (interface, method) within one window or
/// slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesAgg {
    /// Completed invocations.
    pub calls: u64,
    /// Sum of compensated latencies, ns.
    pub latency_sum_ns: u64,
    /// Log2 latency histogram (bucket upper bounds answer quantiles).
    pub hist: LatencyHistogram,
}

impl SeriesAgg {
    pub(crate) fn record(&mut self, latency_ns: u64) {
        self.calls += 1;
        self.latency_sum_ns += latency_ns;
        self.hist.record(latency_ns);
    }

    pub(crate) fn merge(&mut self, other: &SeriesAgg) {
        self.calls += other.calls;
        self.latency_sum_ns += other.latency_sum_ns;
        self.hist.merge(&other.hist);
    }
}

/// A finalized (or synthesized sliding) window of characterization data.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Tumbling window ordinal (slice index of its first slice divided by
    /// the slice count); `u64::MAX` marks a synthesized sliding view.
    pub index: u64,
    /// Window span covered, ns.
    pub span_ns: u64,
    /// Per-operation aggregates.
    pub series: BTreeMap<SeriesKey, SeriesAgg>,
    /// Invocations completed across all series.
    pub completed_calls: u64,
    /// Figure-4 reconstruction failures observed.
    pub abnormalities: u64,
}

impl WindowSnapshot {
    /// The q-quantile (`q` in `[0,1]`) for one series, as the containing
    /// log2 bucket's upper bound; `None` when the series has no samples.
    pub fn quantile_ns(&self, key: SeriesKey, q: f64) -> Option<u64> {
        let agg = self.series.get(&key)?;
        (agg.calls > 0).then(|| agg.hist.quantile_ns(q))
    }

    /// The q-quantile over every series' merged histogram; 0 when the
    /// window completed nothing.
    pub(crate) fn system_quantile_ns(&self, q: f64) -> u64 {
        let mut all = SeriesAgg::default();
        for agg in self.series.values() {
            all.merge(agg);
        }
        if all.calls == 0 { 0 } else { all.hist.quantile_ns(q) }
    }

    /// Completed calls per second for one series (or all, with `None`).
    pub fn call_rate_hz(&self, key: Option<SeriesKey>) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        let calls = match key {
            Some(key) => self.series.get(&key).map_or(0, |a| a.calls),
            None => self.completed_calls,
        };
        calls as f64 * 1e9 / self.span_ns as f64
    }

    /// Abnormalities per second over the window.
    pub fn abnormality_rate_hz(&self) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        self.abnormalities as f64 * 1e9 / self.span_ns as f64
    }

    /// Fraction of the window one series spent inside invocations (its
    /// latency sum over the window span) — the live proxy for the paper's
    /// per-function CPU share.
    pub fn busy_share(&self, key: SeriesKey) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        self.series.get(&key).map_or(0.0, |a| a.latency_sum_ns as f64 / self.span_ns as f64)
    }
}
