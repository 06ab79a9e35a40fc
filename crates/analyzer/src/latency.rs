//! End-to-end timing latency (§3.2, first half).
//!
//! For each reconstructed invocation `F`:
//!
//! * synchronous / one-way stub side:
//!   `L(F) = P_{F,4,start} − P_{F,1,end} − O_F`
//! * collocated / one-way skeleton side:
//!   `L(F) = P_{F,3,start} − P_{F,2,end} − O_F`
//!
//! with the causality-capture overhead compensated by
//! `O_F = Σ_i Σ_{j ∈ R(i)} (P_{i,j,end} − P_{i,j,start})` over the immediate
//! child invocations `i`, where `R` is `{1,2,3,4}` for synchronous children
//! and `{1,4}` for one-way children (whose skeleton probes run elsewhere and
//! do not occupy the caller's window).
//!
//! This module is the formulas' only home: [`node_latency`] reads them off
//! a reconstructed tree, and the on-line analyzer applies the same code to
//! each call it sees complete, with `O_F` summed as the children close.

use crate::dscg::{CallNode, Dscg, walk_nodes};
use crate::figure4::Probe;
use causeway_core::event::CallKind;
use causeway_core::ids::{InterfaceId, MethodIndex};
use causeway_core::pool;
use std::collections::BTreeMap;

/// Latency of a single invocation, ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLatency {
    /// The compensated end-to-end latency `L(F)`.
    pub latency_ns: u64,
    /// The probe overhead `O_F` that was subtracted.
    pub overhead_ns: u64,
}

/// Computes `L(F)` for one node, or `None` when the needed wall stamps are
/// absent (latency probing was off, or the invocation is incomplete).
pub fn node_latency(node: &CallNode) -> Option<NodeLatency> {
    let overhead = node.children.iter().map(|child| CallStamps::of(child).overhead_share()).sum();
    CallStamps::of(node).latency(overhead)
}

/// The wall stamps of one probe: all that `L(F)` and `O_F` read of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamps {
    pub(crate) wall_start: Option<u64>,
    pub(crate) wall_end: Option<u64>,
}

impl Stamps {
    /// The probe's own duration, as
    /// [`causeway_core::record::ProbeRecord::wall_span`].
    fn span(self) -> Option<u64> {
        Some(self.wall_end?.saturating_sub(self.wall_start?))
    }
}

/// One invocation's four probes, as `L(F)` and `O_F` read them — the only
/// place either formula is written. The off-line trees and the on-line
/// analyzer both call it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallStamps {
    kind: CallKind,
    probes: [Option<Stamps>; 4],
}

impl CallStamps {
    /// From the probes in call order: stub start, skeleton start, skeleton
    /// end, stub end.
    pub(crate) fn new<P: Probe>(kind: CallKind, probes: [&Option<P>; 4]) -> CallStamps {
        CallStamps { kind, probes: probes.map(|p| p.as_ref().map(Probe::stamps)) }
    }

    fn of(node: &CallNode) -> CallStamps {
        let probes = [&node.stub_start, &node.skel_start, &node.skel_end, &node.stub_end];
        CallStamps::new(node.kind, probes)
    }

    /// `L(F)`, given `O_F`.
    pub(crate) fn latency(&self, overhead_ns: u64) -> Option<NodeLatency> {
        let [stub_start, skel_start, skel_end, stub_end] = self.probes;
        let window = |from: Option<Stamps>, to: Option<Stamps>| {
            Some(to?.wall_start?.saturating_sub(from?.wall_end?))
        };
        let window = match self.kind {
            CallKind::Sync => window(stub_start, stub_end),
            // Prefer the skeleton side (actual execution) when there is one
            // — a grafted fork or a one-way chain head; fall back to the
            // stub side (send cost) otherwise.
            CallKind::Oneway if skel_start.is_some() && skel_end.is_some() => {
                window(skel_start, skel_end)
            }
            CallKind::Oneway => window(stub_start, stub_end),
            CallKind::Collocated | CallKind::CustomMarshal => window(skel_start, skel_end),
        }?;
        Some(NodeLatency { latency_ns: window.saturating_sub(overhead_ns), overhead_ns })
    }

    /// This invocation's term of its caller's `O_F`: the spans of its
    /// probes that ran inside the caller's window.
    pub(crate) fn overhead_share(&self) -> u64 {
        let [stub_start, skel_start, skel_end, stub_end] = self.probes;
        let caller_side = match self.kind {
            CallKind::Oneway => [stub_start, stub_end, None, None],
            _ => [stub_start, skel_start, skel_end, stub_end],
        };
        caller_side.into_iter().flatten().filter_map(Stamps::span).sum()
    }
}

/// Aggregate latency statistics for one (interface, method).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Invocations with measurable latency.
    pub count: usize,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Minimum latency, ns.
    pub min_ns: u64,
    /// Maximum latency, ns.
    pub max_ns: u64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 95th-percentile latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Mean compensated overhead, ns.
    pub mean_overhead_ns: f64,
}

/// Latency analysis over a whole DSCG.
#[derive(Debug, Clone, Default)]
pub struct LatencyAnalysis {
    /// Per-(interface, method) statistics.
    pub per_method: BTreeMap<(InterfaceId, MethodIndex), LatencyStats>,
}

impl LatencyAnalysis {
    /// Computes per-method statistics across every invocation in the DSCG on
    /// the configured worker pool.
    pub fn compute(dscg: &Dscg) -> LatencyAnalysis {
        Self::compute_with_threads(dscg, pool::configured_threads())
    }

    /// Computes per-method statistics using up to `threads` worker threads.
    ///
    /// Contiguous ranges of trees shard across the pool; each range collects
    /// its `L(F)` samples in walk order, and the merge appends range maps in
    /// tree order — the exact sample sequence the serial walk produces, so
    /// the (stable) sort and percentile math below yield bit-identical
    /// statistics.
    pub fn compute_with_threads(dscg: &Dscg, threads: usize) -> LatencyAnalysis {
        let samples = pool::fold_ranges(
            dscg.trees.len(),
            threads,
            |range| {
                let mut samples: BTreeMap<(InterfaceId, MethodIndex), Vec<NodeLatency>> =
                    BTreeMap::new();
                for tree in &dscg.trees[range] {
                    walk_nodes(&tree.roots, &mut |node, _| {
                        if let Some(lat) = node_latency(node) {
                            samples.entry(node.func.method_key()).or_default().push(lat);
                        }
                    });
                }
                samples
            },
            |samples, part| {
                for (key, values) in part {
                    samples.entry(key).or_default().extend(values);
                }
            },
        );
        let per_method = samples
            .into_iter()
            .map(|(key, mut values)| {
                values.sort_by_key(|l| l.latency_ns);
                let count = values.len();
                let sum: u64 = values.iter().map(|l| l.latency_ns).sum();
                let overhead_sum: u64 = values.iter().map(|l| l.overhead_ns).sum();
                let stats = LatencyStats {
                    count,
                    mean_ns: sum as f64 / count as f64,
                    min_ns: values.first().map(|l| l.latency_ns).unwrap_or(0),
                    max_ns: values.last().map(|l| l.latency_ns).unwrap_or(0),
                    p50_ns: percentile(&values, 50),
                    p95_ns: percentile(&values, 95),
                    p99_ns: percentile(&values, 99),
                    mean_overhead_ns: overhead_sum as f64 / count as f64,
                };
                (key, stats)
            })
            .collect();
        LatencyAnalysis { per_method }
    }

    /// Statistics for one method, if any invocation was measurable.
    pub fn method(&self, iface: InterfaceId, method: MethodIndex) -> Option<&LatencyStats> {
        self.per_method.get(&(iface, method))
    }
}

fn percentile(sorted: &[NodeLatency], pct: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct as usize * sorted.len()).div_ceil(100)).clamp(1, sorted.len());
    sorted[rank - 1].latency_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dscg::{CallTree, NodeProbe};
    use causeway_core::event::TraceEvent;
    use causeway_core::ids::*;
    use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
    use causeway_core::uuid::Uuid;

    fn stamp(seq: u64, event: TraceEvent, start: u64, end: u64) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(1),
            seq,
            event,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(0),
                thread: LogicalThreadId(0),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(0)),
            wall_start: Some(start),
            wall_end: Some(end),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    fn sync_node(p1: (u64, u64), p2: (u64, u64), p3: (u64, u64), p4: (u64, u64)) -> CallNode {
        let records = [
            stamp(1, TraceEvent::StubStart, p1.0, p1.1),
            stamp(2, TraceEvent::SkelStart, p2.0, p2.1),
            stamp(3, TraceEvent::SkelEnd, p3.0, p3.1),
            stamp(4, TraceEvent::StubEnd, p4.0, p4.1),
        ];
        CallNode {
            func: records[0].func,
            kind: CallKind::Sync,
            chain: Uuid(1),
            stub_start: Some(NodeProbe::from(&records[0])),
            skel_start: Some(NodeProbe::from(&records[1])),
            skel_end: Some(NodeProbe::from(&records[2])),
            stub_end: Some(NodeProbe::from(&records[3])),
            oneway_child: None,
            children: Vec::new(),
            complete: true,
        }
    }

    #[test]
    fn leaf_latency_is_p4_start_minus_p1_end() {
        // Probe 1 ends at t=10; probe 4 starts at t=110.
        let node = sync_node((5, 10), (20, 25), (90, 95), (110, 115));
        let lat = node_latency(&node).unwrap();
        assert_eq!(lat.latency_ns, 100);
        assert_eq!(lat.overhead_ns, 0, "no children, no compensation");
    }

    #[test]
    fn child_probe_overhead_is_subtracted() {
        let mut parent = sync_node((0, 10), (20, 25), (190, 195), (200, 210));
        // A child whose four probes each cost 5 ns.
        let child = sync_node((30, 35), (40, 45), (60, 65), (70, 75));
        parent.children.push(child);
        let lat = node_latency(&parent).unwrap();
        assert_eq!(lat.overhead_ns, 20);
        assert_eq!(lat.latency_ns, (200 - 10) - 20);
    }

    #[test]
    fn oneway_child_contributes_only_stub_probes() {
        let mut parent = sync_node((0, 10), (20, 25), (190, 195), (200, 210));
        let mut child = sync_node((30, 37), (40, 45), (60, 65), (70, 77));
        child.kind = CallKind::Oneway;
        parent.children.push(child);
        let lat = node_latency(&parent).unwrap();
        assert_eq!(lat.overhead_ns, 14, "only probes 1 and 4 (7 ns each)");
    }

    #[test]
    fn collocated_latency_uses_skeleton_window() {
        let mut node = sync_node((0, 10), (20, 25), (80, 85), (90, 95));
        node.kind = CallKind::Collocated;
        let lat = node_latency(&node).unwrap();
        assert_eq!(lat.latency_ns, 80 - 25);
    }

    #[test]
    fn grafted_oneway_uses_skeleton_window() {
        let mut node = sync_node((0, 10), (200, 210), (500, 505), (15, 20));
        node.kind = CallKind::Oneway;
        let lat = node_latency(&node).unwrap();
        assert_eq!(lat.latency_ns, 500 - 210);
    }

    #[test]
    fn ungrafted_oneway_falls_back_to_stub_window() {
        let mut node = sync_node((0, 10), (0, 0), (0, 0), (15, 20));
        node.kind = CallKind::Oneway;
        node.skel_start = None;
        node.skel_end = None;
        let lat = node_latency(&node).unwrap();
        assert_eq!(lat.latency_ns, 15 - 10);
    }

    #[test]
    fn missing_stamps_yield_none() {
        let mut node = sync_node((0, 10), (20, 25), (80, 85), (90, 95));
        let unstamped = ProbeRecord { wall_start: None, ..stamp(4, TraceEvent::StubEnd, 90, 95) };
        node.stub_end = Some(NodeProbe::from(&unstamped));
        assert!(node_latency(&node).is_none());
        let mut node2 = sync_node((0, 10), (20, 25), (80, 85), (90, 95));
        node2.stub_start = None;
        assert!(node_latency(&node2).is_none());
    }

    #[test]
    fn analysis_aggregates_statistics() {
        let mut trees = Vec::new();
        for (i, span) in [100u64, 200, 300, 400].iter().enumerate() {
            let node = sync_node((0, 10), (20, 25), (30, 35), (10 + span, 10 + span + 5));
            trees.push(CallTree { chain: Uuid(i as u128 + 1), roots: vec![node] });
        }
        let dscg = Dscg::from_trees(trees);
        let analysis = LatencyAnalysis::compute(&dscg);
        let stats = analysis.method(InterfaceId(0), MethodIndex(0)).unwrap();
        assert_eq!(stats.count, 4);
        assert_eq!(stats.min_ns, 100);
        assert_eq!(stats.max_ns, 400);
        assert_eq!(stats.mean_ns, 250.0);
        assert_eq!(stats.p50_ns, 200);
        assert_eq!(stats.p95_ns, 400);
        assert_eq!(stats.p99_ns, 400);
        assert!(analysis.method(InterfaceId(9), MethodIndex(0)).is_none());
    }

    #[test]
    fn percentile_edges() {
        let mk = |ns| NodeLatency { latency_ns: ns, overhead_ns: 0 };
        let one = vec![mk(7)];
        assert_eq!(percentile(&one, 50), 7);
        assert_eq!(percentile(&one, 95), 7);
        assert_eq!(percentile(&[], 50), 0);
    }
}

/// A logarithmic latency histogram: bucket `i` counts invocations with
/// `L(F)` in `[2^i, 2^(i+1))` nanoseconds. 64 buckets cover every
/// representable duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0 }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency_ns: u64) {
        let bucket = 63 - latency_ns.max(1).leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Count in the bucket covering `[2^i, 2^(i+1))` ns.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Adds `n` samples directly to bucket `i` (out-of-range indices are
    /// ignored) — the reconstruction path for histograms decoded from a
    /// spill segment, where only per-bucket counts survive. Equivalent to
    /// `n` calls to [`LatencyHistogram::record`] with any latency in the
    /// bucket's range.
    pub fn add_bucket_count(&mut self, i: usize, n: u64) {
        if let Some(bucket) = self.buckets.get_mut(i) {
            *bucket += n;
            self.count += n;
        }
    }

    /// The occupied buckets as `(index, count)` pairs, ascending — the
    /// sparse encoding a spill segment stores.
    pub fn occupied_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| (i, n))
    }

    /// Merges another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// An approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the q-th sample.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    /// Renders the occupied bucket range as an ASCII bar chart, one line per
    /// bucket, e.g. `  64µs..128µs | #####  12`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (Some(first), Some(last)) = (
            self.buckets.iter().position(|&n| n > 0),
            self.buckets.iter().rposition(|&n| n > 0),
        ) else {
            return String::from("(empty histogram)\n");
        };
        let max = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        for i in first..=last {
            let lo = 1u64 << i;
            let hi = 1u64 << (i + 1).min(63);
            let bar = "#".repeat(((self.buckets[i] * 40).div_ceil(max)) as usize);
            writeln!(
                out,
                "{:>10}..{:<10} |{:<40} {}",
                fmt_ns(lo),
                fmt_ns(hi),
                bar,
                self.buckets[i]
            )
            .expect("string write");
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{}µs", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Per-method latency histograms over a whole DSCG, computed on the
/// configured worker pool.
pub fn histograms(
    dscg: &Dscg,
) -> BTreeMap<(InterfaceId, MethodIndex), LatencyHistogram> {
    histograms_with_threads(dscg, pool::configured_threads())
}

/// Per-method latency histograms using up to `threads` worker threads,
/// one partial per contiguous range of trees. Bucket counts are
/// order-insensitive sums, so any merge order yields the serial result.
pub fn histograms_with_threads(
    dscg: &Dscg,
    threads: usize,
) -> BTreeMap<(InterfaceId, MethodIndex), LatencyHistogram> {
    pool::fold_ranges(
        dscg.trees.len(),
        threads,
        |range| {
            let mut part: BTreeMap<(InterfaceId, MethodIndex), LatencyHistogram> =
                BTreeMap::new();
            for tree in &dscg.trees[range] {
                walk_nodes(&tree.roots, &mut |node, _| {
                    if let Some(lat) = node_latency(node) {
                        part.entry(node.func.method_key()).or_default().record(lat.latency_ns);
                    }
                });
            }
            part
        },
        |out, part| {
            for (key, hist) in part {
                out.entry(key).or_default().merge(&hist);
            }
        },
    )
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        let mut h = LatencyHistogram::new();
        h.record(1);
        h.record(1); // bucket 0: [1, 2)
        h.record(3); // bucket 1: [2, 4)
        h.record(1024); // bucket 10
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(10), 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn zero_latency_lands_in_the_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.bucket(0), 1);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record(ns);
        }
        assert!(h.quantile_ns(0.5) >= 200);
        assert!(h.quantile_ns(1.0) >= 100_000);
        assert!(h.quantile_ns(0.0) >= 100);
        assert_eq!(LatencyHistogram::new().quantile_ns(0.5), 0);
    }

    #[test]
    fn bucket_counts_reconstruct_an_identical_histogram() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64, 3, 1024, 1024, 5_000_000] {
            h.record(ns);
        }
        let mut rebuilt = LatencyHistogram::new();
        for (i, n) in h.occupied_buckets() {
            rebuilt.add_bucket_count(i, n);
        }
        assert_eq!(rebuilt, h, "sparse bucket counts carry the full state");
        rebuilt.add_bucket_count(200, 5); // out of range: ignored
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn render_shows_occupied_range_only() {
        let mut h = LatencyHistogram::new();
        h.record(1_500); // ~1µs bucket
        h.record(1_500);
        h.record(3_000_000); // ~2ms bucket
        let text = h.render();
        assert!(text.contains("µs"), "{text}");
        assert!(text.contains("ms"), "{text}");
        assert!(text.contains('#'));
        assert_eq!(LatencyHistogram::new().render(), "(empty histogram)\n");
    }
}
