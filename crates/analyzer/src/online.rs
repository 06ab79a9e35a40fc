//! On-line causality analysis — the paper's future-work direction "to apply
//! the global causality capturing technique from the on-line perspective
//! for application-level system management".
//!
//! [`OnlineAnalyzer`] consumes probe records *as they are produced* (in any
//! arrival order — records of one chain are re-sequenced by their event
//! numbers) and emits management events the moment they are knowable:
//! a call completed (with its compensated latency), a chain went idle, an
//! abnormal transition appeared. Unlike the off-line [`crate::dscg::Dscg`]
//! pass, no quiescence is required — which is precisely what an adaptive
//! runtime manager needs.
//!
//! Each chain's re-sequenced records drive the same Figure-4 machine the
//! off-line trees are built with (the private `figure4` module), keeping
//! only wall stamps per open call; latency comes from the same
//! `L(F)`/`O_F` as [`crate::latency::node_latency`]. A record whose event
//! number was already processed is a duplicate delivery: it is dropped and
//! counted.
//!
//! Per-record cost does not grow with the number of open chains. Every
//! ingest entry point — [`OnlineAnalyzer::ingest`], the batch paths and the
//! live monitor's pre-grouped chains — runs one per-chain step loop over
//! records it reads in place: a batch is grouped by a permutation of record
//! indices, never by moving records. A record that arrives in order while
//! nothing is buffered goes straight to the Figure-4 machine; any other is
//! kept as the machine's step (event number, event, kind, function and wall
//! stamps, 64 bytes against the record's 208) in a buffer sorted by event
//! number, whose contiguous prefix drains from the front. The open-chain
//! and buffered-record counts are kept exact as each chain's before/after
//! contribution, so reading them is O(1).

use crate::figure4::{Close, Consumer, Frame, Machine, Step};
use crate::latency::Stamps;
use causeway_core::event::CallKind;
use causeway_core::metrics::{Counter, Gauge, MetricsRegistry};
use causeway_core::pool;
use causeway_core::record::{FunctionKey, ProbeRecord};
use causeway_core::uuid::Uuid;
use std::collections::{HashMap, VecDeque};

/// Self-observability handles for on-line analysis. Analyzers given one
/// registry aggregate into one set of series (an analyzer instance is not
/// a stable series identity — monitors create them freely); the default
/// handles belong to no registry.
#[derive(Debug, Default)]
struct OnlineMetrics {
    records: Counter,
    duplicates: Counter,
    completed: Counter,
    abnormalities: Counter,
    open_chains: Gauge,
    buffered: Gauge,
}

impl OnlineMetrics {
    fn register(r: &MetricsRegistry) -> OnlineMetrics {
        OnlineMetrics {
            records: r.counter(
                "causeway_online_records_total",
                "probe records processed by on-line analyzers",
            ),
            duplicates: r.counter(
                "causeway_online_duplicate_records_total",
                "records dropped or replaced because their event number was already seen",
            ),
            completed: r.counter(
                "causeway_online_calls_completed_total",
                "invocations the on-line analyzers saw complete",
            ),
            abnormalities: r.counter(
                "causeway_online_abnormalities_total",
                "abnormal Figure-4 transitions reported on-line",
            ),
            open_chains: r.gauge(
                "causeway_online_open_chains",
                "causal chains with open invocations or buffered records",
            ),
            buffered: r.gauge(
                "causeway_online_resequence_buffered",
                "records buffered waiting for out-of-order predecessors",
            ),
        }
    }
}

/// Forwards an event to the caller's sink, counting the countable ones.
fn emit(m: &OnlineMetrics, sink: &mut impl FnMut(OnlineEvent), event: OnlineEvent) {
    match &event {
        OnlineEvent::CallCompleted { .. } => m.completed.add(1),
        OnlineEvent::Abnormality { .. } => m.abnormalities.add(1),
        OnlineEvent::ChainIdle { .. } => {}
    }
    sink(event);
}

/// A point-in-time description of one chain with unfinished work, as
/// reported by [`OnlineAnalyzer::open_chain_summaries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenChainSummary {
    /// The chain's Function UUID.
    pub chain: Uuid,
    /// Open (not yet completed) invocations on the Figure-4 stack.
    pub open_calls: usize,
    /// The innermost open invocation, when any.
    pub innermost: Option<FunctionKey>,
    /// Records buffered waiting for out-of-order predecessors.
    pub buffered_records: usize,
    /// Invocations completed on this chain so far.
    pub completed_calls: usize,
    /// Highest contiguous event number processed.
    pub processed_seq: u64,
}

/// A management event emitted by the on-line analyzer.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineEvent {
    /// An invocation finished (its final probe was processed). `latency_ns`
    /// is the paper's `L(F)` — probe-overhead compensated — when wall
    /// stamps are present.
    CallCompleted {
        /// The chain the call belongs to.
        chain: Uuid,
        /// What was invoked.
        func: FunctionKey,
        /// How it was invoked (sync, one-way, collocated, …).
        kind: CallKind,
        /// Nesting depth within the chain (0 = top level).
        depth: usize,
        /// Compensated end-to-end latency, when measurable.
        latency_ns: Option<u64>,
    },
    /// A chain has no open invocations and no buffered records — e.g. a
    /// transaction boundary.
    ChainIdle {
        /// The chain.
        chain: Uuid,
        /// Invocations completed on it so far.
        completed_calls: usize,
    },
    /// Adjacent records followed none of the legal Figure-4 transitions.
    Abnormality {
        /// The chain.
        chain: Uuid,
        /// Event number of the offending record.
        at_seq: u64,
        /// Description.
        message: String,
    },
}

#[derive(Debug, Default)]
struct ChainState {
    /// The highest event number processed so far (dense numbering: the next
    /// record to process is `processed + 1`).
    processed: u64,
    /// Out-of-order arrivals waiting for their predecessors, as the steps
    /// the machine will take: sorted by `seq`, no two alike, every one past
    /// `processed`. An insert shifts min(i, len − i) entries, so arrivals
    /// in order or in reverse shift none; a chain delivered middle-out is
    /// the worst case, about half the buffer per arrival.
    pending: VecDeque<Step<Stamps>>,
    /// Open calls keep their probes' wall stamps and the summed
    /// caller-side probe spans (`O_F`) of their closed children.
    machine: Machine<Stamps, u64>,
    completed_calls: usize,
}

impl ChainState {
    /// This chain's share of the analyzer's (open chains, buffered records)
    /// counts.
    fn load(&self) -> (usize, usize) {
        let open = self.machine.open_calls() > 0 || !self.pending.is_empty();
        (usize::from(open), self.pending.len())
    }

    /// The step loop behind every ingest entry point: re-sequences
    /// `records` (all of `chain`) into the Figure-4 machine, then reports
    /// the chain idle if it has no open work left.
    fn step<'a>(
        &mut self,
        m: &OnlineMetrics,
        chain: Uuid,
        records: impl IntoIterator<Item = &'a ProbeRecord>,
        sink: &mut impl FnMut(OnlineEvent),
    ) {
        let mut fed = 0;
        let mut duplicates = 0;
        for record in records {
            fed += 1;
            if record.seq <= self.processed {
                // A duplicate delivery: buffering it would pin the chain
                // open, since the drain never reaches a past seq.
                duplicates += 1;
                continue;
            }
            if self.pending.is_empty() && record.seq == self.processed + 1 {
                // In order with nothing buffered: inserting and draining
                // would hand this record, and only it, to the machine.
                self.processed = record.seq;
                self.apply(m, chain, Step::of(record), sink);
                continue;
            }
            match self.pending.binary_search_by_key(&record.seq, |step| step.seq) {
                // A second arrival for a buffered number replaces the first.
                Ok(at) => {
                    self.pending[at] = Step::of(record);
                    duplicates += 1;
                }
                Err(at) => self.pending.insert(at, Step::of(record)),
            }
            // Drain the contiguous prefix.
            while self.pending.front().is_some_and(|step| step.seq == self.processed + 1) {
                let step = self.pending.pop_front().expect("the front is next");
                self.processed = step.seq;
                self.apply(m, chain, step, sink);
            }
        }
        m.records.add(fed);
        if duplicates > 0 {
            m.duplicates.add(duplicates);
        }
        if self.machine.open_calls() == 0 && self.pending.is_empty() && self.completed_calls > 0 {
            emit(m, sink, OnlineEvent::ChainIdle { chain, completed_calls: self.completed_calls });
        }
    }

    /// One Figure-4 transition.
    fn apply(
        &mut self,
        metrics: &OnlineMetrics,
        chain: Uuid,
        step: Step<Stamps>,
        sink: &mut impl FnMut(OnlineEvent),
    ) {
        let completed_calls = &mut self.completed_calls;
        let mut out = Emitter { chain, processed: self.processed, completed_calls, metrics, sink };
        self.machine.step(step, &mut out);
    }
}

/// Turns the machine's decisions on one chain into [`OnlineEvent`]s.
struct Emitter<'a, S> {
    chain: Uuid,
    /// Reported as the position of end-of-stream abnormalities.
    processed: u64,
    completed_calls: &'a mut usize,
    metrics: &'a OnlineMetrics,
    sink: &'a mut S,
}

impl<S: FnMut(OnlineEvent)> Consumer<Stamps, u64> for Emitter<'_, S> {
    fn closed(
        &mut self,
        frame: Frame<Stamps, u64>,
        how: Close,
        parent: Option<&mut Frame<Stamps, u64>>,
        depth: usize,
    ) {
        let stamps = frame.stamps();
        if let Some(parent) = parent {
            parent.children += stamps.overhead_share();
        }
        if how == Close::Completed {
            *self.completed_calls += 1;
            emit(self.metrics, self.sink, OnlineEvent::CallCompleted {
                chain: self.chain,
                func: frame.func,
                kind: frame.kind,
                depth,
                latency_ns: stamps.latency(frame.children).map(|l| l.latency_ns),
            });
        }
    }

    fn abnormal(&mut self, at_seq: Option<u64>, message: String) {
        emit(self.metrics, self.sink, OnlineEvent::Abnormality {
            chain: self.chain,
            at_seq: at_seq.unwrap_or(self.processed),
            message,
        });
    }
}

/// A batch grouped by chain without moving a record: the chains in
/// first-appearance order and a counting-sort permutation of record indices
/// that lists each chain's records together, in batch order.
#[derive(Debug)]
pub(crate) struct ChainGroups {
    /// The batch's chains; a chain's rank is its position here.
    pub chains: Vec<Uuid>,
    /// Record indices, chain by chain.
    order: Vec<u32>,
    /// Where each chain's run of indices starts in `order`.
    starts: Vec<u32>,
}

impl ChainGroups {
    /// Groups `records`. The chain is looked up only where consecutive
    /// records change chain.
    pub fn of(records: &[ProbeRecord]) -> ChainGroups {
        u32::try_from(records.len()).expect("a batch holds fewer than 2^32 records");
        // Record UUIDs come from outside the process: keep the keyed hasher.
        let mut rank_of: HashMap<Uuid, u32> = HashMap::new();
        let mut chains = Vec::new();
        let mut ends: Vec<u32> = Vec::new();
        let mut ranks = Vec::with_capacity(records.len());
        let mut run: Option<(Uuid, u32)> = None;
        for record in records {
            let rank = match run {
                Some((chain, rank)) if chain == record.uuid => rank,
                _ => *rank_of.entry(record.uuid).or_insert_with(|| {
                    chains.push(record.uuid);
                    ends.push(0);
                    (chains.len() - 1) as u32
                }),
            };
            run = Some((record.uuid, rank));
            ends[rank as usize] += 1;
            ranks.push(rank);
        }
        let mut total = 0;
        for end in &mut ends {
            total += *end;
            *end = total;
        }
        // Placing indices from the back walks each chain's end down to its
        // start and keeps batch order within a chain.
        let mut order = vec![0; records.len()];
        for (index, &rank) in ranks.iter().enumerate().rev() {
            let slot = &mut ends[rank as usize];
            *slot -= 1;
            order[*slot as usize] = index as u32;
        }
        ChainGroups { chains, order, starts: ends }
    }

    /// The records of the chain ranked `rank`, in batch order.
    pub fn records<'a>(
        &'a self,
        rank: usize,
        batch: &'a [ProbeRecord],
    ) -> impl Iterator<Item = &'a ProbeRecord> + 'a {
        let end = self.starts.get(rank + 1).map_or(self.order.len(), |&end| end as usize);
        let indices = &self.order[self.starts[rank] as usize..end];
        indices.iter().map(move |&index| &batch[index as usize])
    }
}

/// Incremental, order-tolerant causality analyzer.
///
/// # Example
///
/// ```
/// use causeway_analyzer::online::{OnlineAnalyzer, OnlineEvent};
/// let mut analyzer = OnlineAnalyzer::new();
/// let mut events = Vec::new();
/// // records arrive from the wire...
/// # let records: Vec<causeway_core::record::ProbeRecord> = Vec::new();
/// for record in records {
///     analyzer.ingest(record, &mut |e| events.push(e));
/// }
/// ```
#[derive(Debug, Default)]
pub struct OnlineAnalyzer {
    chains: HashMap<Uuid, ChainState>,
    /// Chains with open invocations or buffered records: the sum of every
    /// chain's [`ChainState::load`], adjusted wherever a chain changes.
    open: usize,
    /// Records in every chain's re-sequencing buffer, kept the same way.
    buffered: usize,
    metrics: OnlineMetrics,
    /// Whole-map walks so far (test-only): ingest must never walk.
    #[cfg(test)]
    pub(crate) walks: std::cell::Cell<usize>,
}

impl OnlineAnalyzer {
    /// Creates an empty analyzer whose `causeway_online_*` handles belong
    /// to no registry; [`OnlineAnalyzer::with_metrics`] publishes them.
    pub fn new() -> OnlineAnalyzer {
        OnlineAnalyzer::default()
    }

    /// Creates an empty analyzer publishing its `causeway_online_*` series
    /// to `registry`.
    pub fn with_metrics(registry: &MetricsRegistry) -> OnlineAnalyzer {
        OnlineAnalyzer { metrics: OnlineMetrics::register(registry), ..OnlineAnalyzer::default() }
    }

    /// Chains with unfinished work (open invocations or buffered records).
    /// O(1).
    pub fn open_chains(&self) -> usize {
        self.open
    }

    /// Records buffered waiting for out-of-order predecessors. O(1).
    pub fn buffered_records(&self) -> usize {
        self.buffered
    }

    /// Moves the counts from a chain's `before` load to its `after` load.
    fn account(&mut self, before: (usize, usize), after: (usize, usize)) {
        self.open = self.open + after.0 - before.0;
        self.buffered = self.buffered + after.1 - before.1;
    }

    /// Feeds records that all belong to `chain`, in order; `sink` receives
    /// the chain's events, [`OnlineEvent::ChainIdle`] evaluated once at the
    /// end.
    pub(crate) fn ingest_chain<'a>(
        &mut self,
        chain: Uuid,
        records: impl IntoIterator<Item = &'a ProbeRecord>,
        sink: &mut impl FnMut(OnlineEvent),
    ) {
        let state = self.chains.entry(chain).or_default();
        let before = state.load();
        state.step(&self.metrics, chain, records, sink);
        let after = state.load();
        self.account(before, after);
    }

    /// A point-in-time description of every chain with unfinished work, for
    /// live status endpoints. Sorted by chain UUID for stable output.
    pub fn open_chain_summaries(&self) -> Vec<OpenChainSummary> {
        #[cfg(test)]
        self.walks.set(self.walks.get() + 1);
        let mut out: Vec<OpenChainSummary> = self
            .chains
            .iter()
            .filter(|(_, c)| c.load().0 > 0)
            .map(|(&chain, c)| OpenChainSummary {
                chain,
                open_calls: c.machine.open_calls(),
                innermost: c.machine.innermost(),
                buffered_records: c.pending.len(),
                completed_calls: c.completed_calls,
                processed_seq: c.processed,
            })
            .collect();
        out.sort_by_key(|s| s.chain);
        out
    }

    /// Drops all state for a chain, returning `true` if it existed.
    ///
    /// Long-running consumers call this after a [`OnlineEvent::ChainIdle`]
    /// so completed transactions do not accumulate forever. Forgetting a
    /// chain mid-flight is safe but lossy: later records for it start a
    /// fresh state and will be reported as a sequence gap.
    pub fn forget_chain(&mut self, chain: Uuid) -> bool {
        match self.chains.remove(&chain) {
            Some(state) => {
                self.account(state.load(), (0, 0));
                true
            }
            None => false,
        }
    }

    /// Publishes this analyzer's instantaneous state (open chains,
    /// re-sequencing buffer depth) to its metrics registry.
    ///
    /// Called automatically by [`Self::finish`].
    pub fn publish_metrics(&self) {
        let m = &self.metrics;
        m.open_chains.set(self.open_chains() as i64);
        m.buffered.set(self.buffered_records() as i64);
    }

    /// Feeds one record; `sink` receives any events it triggers.
    pub fn ingest(&mut self, record: ProbeRecord, sink: &mut impl FnMut(OnlineEvent)) {
        self.ingest_chain(record.uuid, [&record], sink);
    }

    /// Feeds a batch of records, processing distinct chains in parallel on
    /// [`pool::configured_threads`] workers.
    pub fn ingest_batch(&mut self, records: Vec<ProbeRecord>, sink: &mut impl FnMut(OnlineEvent)) {
        self.ingest_batch_with_threads(records, pool::configured_threads(), sink);
    }

    /// Like [`Self::ingest_batch`] with an explicit worker count.
    ///
    /// The batch is sharded by chain (Function UUID) — a chain's records are
    /// applied by exactly one worker, against that chain's carried-over
    /// state — and events reach `sink` grouped by chain in the batch's
    /// first-appearance order, so the output is identical at any thread
    /// count. Within one chain the event stream matches per-record
    /// [`Self::ingest`] calls, except that [`OnlineEvent::ChainIdle`] is
    /// evaluated once per chain at the end of the batch instead of after
    /// every record.
    pub fn ingest_batch_with_threads(
        &mut self,
        records: Vec<ProbeRecord>,
        threads: usize,
        sink: &mut impl FnMut(OnlineEvent),
    ) {
        let groups = ChainGroups::of(&records);
        // Move each touched chain's state out to its worker.
        let work: Vec<(usize, ChainState)> = groups
            .chains
            .iter()
            .enumerate()
            .map(|(rank, chain)| (rank, self.chains.remove(chain).unwrap_or_default()))
            .collect();
        let metrics = &self.metrics;
        let done = pool::par_map_vec(work, threads, |(rank, mut state)| {
            let chain = groups.chains[rank];
            let before = state.load();
            let mut events = Vec::new();
            state.step(metrics, chain, groups.records(rank, &records), &mut |e| events.push(e));
            (chain, state, before, events)
        });
        for (chain, state, before, events) in done {
            self.account(before, state.load());
            self.chains.insert(chain, state);
            events.into_iter().for_each(&mut *sink);
        }
    }

    /// Forces out everything still buffered (end of run): gaps are reported
    /// as abnormalities, open invocations as incomplete.
    pub fn finish(&mut self, sink: &mut impl FnMut(OnlineEvent)) {
        #[cfg(test)]
        self.walks.set(self.walks.get() + 1);
        let mut chains: Vec<Uuid> = self.chains.keys().copied().collect();
        chains.sort();
        for chain in chains {
            let mut state = self.chains.remove(&chain).expect("key listed");
            self.account(state.load(), (0, 0));
            while let Some(step) = state.pending.pop_front() {
                let seq = step.seq;
                if seq != state.processed + 1 {
                    emit(&self.metrics, sink, OnlineEvent::Abnormality {
                        chain,
                        at_seq: seq,
                        message: format!(
                            "gap in event numbers: expected {}, have {seq}",
                            state.processed + 1
                        ),
                    });
                }
                state.processed = seq;
                state.apply(&self.metrics, chain, step, sink);
            }
            let ChainState { processed, machine, completed_calls, .. } = &mut state;
            machine.finish(&mut Emitter {
                chain,
                processed: *processed,
                completed_calls,
                metrics: &self.metrics,
                sink,
            });
        }
        self.publish_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::event::TraceEvent;
    use causeway_core::ids::*;
    use causeway_core::record::CallSite;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn rec(
        uuid: u128,
        seq: u64,
        event: TraceEvent,
        kind: CallKind,
        object: u64,
        wall: (u64, u64),
    ) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(uuid),
            seq,
            event,
            kind,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(0),
                thread: LogicalThreadId(0),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(object)),
            wall_start: Some(wall.0),
            wall_end: Some(wall.1),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    fn sync_call(uuid: u128, base_seq: u64, object: u64, t0: u64) -> Vec<ProbeRecord> {
        vec![
            rec(uuid, base_seq, TraceEvent::StubStart, CallKind::Sync, object, (t0, t0 + 5)),
            rec(uuid, base_seq + 1, TraceEvent::SkelStart, CallKind::Sync, object, (t0 + 10, t0 + 12)),
            rec(uuid, base_seq + 2, TraceEvent::SkelEnd, CallKind::Sync, object, (t0 + 90, t0 + 92)),
            rec(uuid, base_seq + 3, TraceEvent::StubEnd, CallKind::Sync, object, (t0 + 100, t0 + 103)),
        ]
    }

    fn collect(records: Vec<ProbeRecord>) -> (Vec<OnlineEvent>, OnlineAnalyzer) {
        let mut analyzer = OnlineAnalyzer::new();
        let mut events = Vec::new();
        for record in records {
            analyzer.ingest(record, &mut |e| events.push(e));
        }
        (events, analyzer)
    }

    #[test]
    fn in_order_call_completes_with_latency() {
        let (events, analyzer) = collect(sync_call(1, 1, 7, 0));
        assert_eq!(analyzer.open_chains(), 0);
        assert_eq!(
            events,
            vec![
                OnlineEvent::CallCompleted {
                    chain: Uuid(1),
                    func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(7)),
                    kind: CallKind::Sync,
                    depth: 0,
                    latency_ns: Some(95), // 100 − 5, no children
                },
                OnlineEvent::ChainIdle { chain: Uuid(1), completed_calls: 1 },
            ]
        );
    }

    #[test]
    fn out_of_order_arrival_is_resequenced() {
        let mut records = sync_call(1, 1, 7, 0);
        records.swap(1, 3); // skeleton events arrive late (different process)
        records.swap(0, 2);
        let (events, analyzer) = collect(records);
        assert_eq!(analyzer.buffered_records(), 0);
        assert!(matches!(events[0], OnlineEvent::CallCompleted { latency_ns: Some(95), .. }));
    }

    #[test]
    fn nested_calls_report_depth_and_compensated_latency() {
        // Parent window [5, 500]; child probes cost 5+2+2+3 = 12.
        let mut records = vec![
            rec(1, 1, TraceEvent::StubStart, CallKind::Sync, 1, (0, 5)),
            rec(1, 2, TraceEvent::SkelStart, CallKind::Sync, 1, (10, 12)),
        ];
        records.extend(sync_call(1, 3, 2, 100)); // child at seqs 3..6
        records.push(rec(1, 7, TraceEvent::SkelEnd, CallKind::Sync, 1, (450, 452)));
        records.push(rec(1, 8, TraceEvent::StubEnd, CallKind::Sync, 1, (500, 503)));
        let (events, _) = collect(records);
        let completed: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::CallCompleted { func, depth, latency_ns, .. } => {
                    Some((func.object.0, *depth, *latency_ns))
                }
                _ => None,
            })
            .collect();
        // Child completes first (depth 1), then the parent (depth 0) with
        // the child's probe spans (5+2+2+3 = 12) compensated away.
        assert_eq!(completed, vec![(2, 1, Some(95)), (1, 0, Some(500 - 5 - 12))]);
    }

    #[test]
    fn oneway_skeleton_side_completes_at_skel_end() {
        let records = vec![
            rec(2, 1, TraceEvent::SkelStart, CallKind::Oneway, 9, (10, 12)),
            rec(2, 2, TraceEvent::SkelEnd, CallKind::Oneway, 9, (50, 52)),
        ];
        let (events, _) = collect(records);
        assert!(matches!(
            events[0],
            OnlineEvent::CallCompleted { latency_ns: Some(38), depth: 0, .. }
        ));
    }

    #[test]
    fn abnormal_transitions_are_reported_live() {
        let records = vec![
            rec(1, 1, TraceEvent::SkelEnd, CallKind::Sync, 1, (0, 1)),
            rec(1, 2, TraceEvent::StubStart, CallKind::Sync, 1, (2, 3)),
            rec(1, 3, TraceEvent::StubEnd, CallKind::Sync, 1, (4, 5)),
        ];
        let (events, _) = collect(records);
        let abnormal = events
            .iter()
            .filter(|e| matches!(e, OnlineEvent::Abnormality { .. }))
            .count();
        assert_eq!(abnormal, 2, "stray skel_end + stub_end without skeleton");
    }

    #[test]
    fn finish_reports_gaps_and_incomplete_calls() {
        let mut analyzer = OnlineAnalyzer::new();
        let mut events = Vec::new();
        // Seq 2 missing forever; seq 3 buffered.
        analyzer.ingest(
            rec(1, 1, TraceEvent::StubStart, CallKind::Sync, 1, (0, 5)),
            &mut |e| events.push(e),
        );
        analyzer.ingest(
            rec(1, 3, TraceEvent::SkelEnd, CallKind::Sync, 1, (90, 92)),
            &mut |e| events.push(e),
        );
        assert_eq!(analyzer.buffered_records(), 1);
        assert_eq!(analyzer.open_chains(), 1);
        analyzer.finish(&mut |e| events.push(e));
        let gap = events.iter().any(
            |e| matches!(e, OnlineEvent::Abnormality { message, .. } if message.contains("gap")),
        );
        let incomplete = events.iter().any(
            |e| matches!(e, OnlineEvent::Abnormality { message, .. } if message.contains("never completed")),
        );
        assert!(gap, "{events:?}");
        assert!(incomplete, "{events:?}");
        assert_eq!(analyzer.open_chains(), 0);
    }

    #[test]
    fn a_duplicated_record_is_dropped_and_the_chain_goes_idle() {
        let mut records = sync_call(1, 1, 7, 0);
        records.insert(2, records[1].clone()); // seq 2 delivered twice
        let (mut events, mut analyzer) = collect(records);
        assert_eq!(analyzer.open_chains(), 0);
        assert_eq!(analyzer.buffered_records(), 0);
        assert!(matches!(events[0], OnlineEvent::CallCompleted { latency_ns: Some(95), .. }));
        assert_eq!(events[1], OnlineEvent::ChainIdle { chain: Uuid(1), completed_calls: 1 });
        assert_eq!(events.len(), 2, "no abnormality: {events:?}");
        analyzer.finish(&mut |e| events.push(e));
        assert_eq!(events.len(), 2, "nothing left for the end-of-stream sweep: {events:?}");
    }

    #[test]
    fn a_second_arrival_for_a_buffered_seq_replaces_the_first() {
        let records = sync_call(1, 1, 7, 0);
        let mut analyzer = OnlineAnalyzer::new();
        let mut events = Vec::new();
        for i in [3, 2, 2, 1, 0] {
            analyzer.ingest(records[i].clone(), &mut |e| events.push(e));
        }
        assert_eq!(analyzer.buffered_records(), 0);
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(matches!(events[1], OnlineEvent::ChainIdle { .. }));
    }

    /// Feeds every record `store` holds to `analyzer`, chunk by chunk in
    /// each producer's push order; returns how many.
    fn poll(
        analyzer: &mut OnlineAnalyzer,
        store: &causeway_core::sink::LogStore,
        events: &mut Vec<OnlineEvent>,
    ) -> usize {
        let mut ingested = 0;
        for chunk in store.drain_chunks() {
            ingested += chunk.len();
            for record in chunk.records {
                analyzer.ingest(record, &mut |e| events.push(e));
            }
        }
        ingested
    }

    #[test]
    fn live_chunk_stream_from_a_monitor_is_complete() {
        use causeway_core::monitor::{Monitor, ProbeMode};
        use causeway_core::sink::CHUNK_CAPACITY;

        const CALLS: usize = 300; // 4 records/call ≫ one chunk

        let monitor = Monitor::builder(ProcessId(0), NodeId(0))
            .mode(ProbeMode::CausalityOnly)
            .build();
        let store = monitor.store().clone();
        let func = FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(1));
        let producer = std::thread::spawn(move || {
            for _ in 0..CALLS {
                monitor.begin_root();
                let out = monitor.stub_start(func, CallKind::Sync);
                monitor.skel_start(func, CallKind::Sync, out.wire_ftl, None);
                let reply = monitor.skel_end(func, CallKind::Sync);
                monitor.stub_end(func, CallKind::Sync, Some(reply));
            }
        });

        // Consume chunks while the producer runs — no quiescence, no
        // post-hoc RunLog.
        let mut analyzer = OnlineAnalyzer::new();
        let mut events = Vec::new();
        let mut ingested = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while ingested < CALLS * 4 && std::time::Instant::now() < deadline {
            ingested += poll(&mut analyzer, &store, &mut events);
            std::thread::sleep(Duration::from_millis(1));
        }
        producer.join().unwrap();
        ingested += poll(&mut analyzer, &store, &mut events);
        analyzer.finish(&mut |e| events.push(e));

        // Compile-time sanity: the workload spans several chunks.
        const _: () = assert!(CALLS * 4 > CHUNK_CAPACITY);
        assert_eq!(ingested, CALLS * 4, "every record reached the analyzer");
        let completed = events
            .iter()
            .filter(|e| matches!(e, OnlineEvent::CallCompleted { .. }))
            .count();
        assert_eq!(completed, CALLS);
        assert!(
            !events.iter().any(|e| matches!(e, OnlineEvent::Abnormality { .. })),
            "clean run has no abnormalities"
        );
    }

    #[test]
    fn batch_ingest_matches_per_record_ingest() {
        // Chain-grouped input: the serial per-record event order equals the
        // batch path's chain-grouped order, so the streams compare exactly.
        let mut records = sync_call(1, 1, 1, 0);
        records.extend(sync_call(2, 1, 2, 1000));
        records.extend(sync_call(3, 1, 3, 2000));
        // An abnormal chain, to compare abnormality events too.
        records.push(rec(4, 1, TraceEvent::SkelEnd, CallKind::Sync, 4, (0, 1)));
        let (serial_events, _) = collect(records.clone());
        for threads in [1, 2, 4] {
            let mut analyzer = OnlineAnalyzer::new();
            let mut events = Vec::new();
            analyzer.ingest_batch_with_threads(records.clone(), threads, &mut |e| events.push(e));
            assert_eq!(events, serial_events, "threads={threads}");
            assert_eq!(analyzer.open_chains(), 0);
        }
    }

    #[test]
    fn batch_ingest_preserves_chain_state_across_batches() {
        let records = sync_call(1, 1, 7, 0);
        let mut analyzer = OnlineAnalyzer::new();
        let mut events = Vec::new();
        analyzer.ingest_batch_with_threads(records[..2].to_vec(), 2, &mut |e| events.push(e));
        assert!(events.is_empty(), "call still open after half the records");
        assert_eq!(analyzer.open_chains(), 1);
        analyzer.ingest_batch_with_threads(records[2..].to_vec(), 2, &mut |e| events.push(e));
        assert_eq!(
            events,
            vec![
                OnlineEvent::CallCompleted {
                    chain: Uuid(1),
                    func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(7)),
                    kind: CallKind::Sync,
                    depth: 0,
                    latency_ns: Some(95),
                },
                OnlineEvent::ChainIdle { chain: Uuid(1), completed_calls: 1 },
            ]
        );
        assert_eq!(analyzer.open_chains(), 0);
    }

    #[test]
    fn interleaved_chains_stay_independent() {
        let mut records = sync_call(1, 1, 1, 0);
        let other = sync_call(2, 1, 2, 1000);
        // Interleave the two chains' records.
        for (i, r) in other.into_iter().enumerate() {
            records.insert(i * 2 + 1, r);
        }
        let (events, _) = collect(records);
        let completed: Vec<u128> = events
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::CallCompleted { chain, .. } => Some(chain.0),
                _ => None,
            })
            .collect();
        assert_eq!(completed.len(), 2);
        assert!(completed.contains(&1) && completed.contains(&2));
    }

    /// The re-sequencing semantics written the obvious way, without the
    /// in-order fast path: per chain a `BTreeMap` that every record not yet
    /// processed is inserted into (a second arrival replacing the first)
    /// and drained from; a batch's chains in first-appearance order, each
    /// checked for idleness once at the end of its group.
    #[derive(Default)]
    struct Oracle {
        chains: HashMap<Uuid, (ChainState, BTreeMap<u64, ProbeRecord>)>,
        /// Drop a chain's state when it goes idle, as the live monitor does.
        forget_idle: bool,
        /// Records handed to the machine.
        applied: u64,
    }

    impl Oracle {
        fn batch(&mut self, records: &[ProbeRecord], sink: &mut impl FnMut(OnlineEvent)) {
            let mut chains: Vec<Uuid> = Vec::new();
            for record in records {
                if !chains.contains(&record.uuid) {
                    chains.push(record.uuid);
                }
            }
            for chain in chains {
                let (state, pending) = self.chains.entry(chain).or_default();
                for record in records.iter().filter(|record| record.uuid == chain) {
                    if record.seq > state.processed {
                        pending.insert(record.seq, record.clone());
                    }
                    while let Some(record) = {
                        let next = state.processed + 1;
                        pending.remove(&next)
                    } {
                        state.processed = record.seq;
                        state.apply(&OnlineMetrics::default(), chain, Step::of(&record), sink);
                        self.applied += 1;
                    }
                }
                let completed_calls = state.completed_calls;
                if state.machine.open_calls() == 0 && pending.is_empty() && completed_calls > 0 {
                    sink(OnlineEvent::ChainIdle { chain, completed_calls });
                    if self.forget_idle {
                        self.chains.remove(&chain);
                    }
                }
            }
        }

        /// [`OnlineAnalyzer::finish`]: chains in UUID order, buffered
        /// records in `seq` order with every gap reported.
        fn finish(&mut self, sink: &mut impl FnMut(OnlineEvent)) {
            let mut chains: Vec<_> = self.chains.drain().collect();
            chains.sort_by_key(|(chain, _)| *chain);
            for (chain, (mut state, pending)) in chains {
                for (seq, record) in pending {
                    let expected = state.processed + 1;
                    if seq != expected {
                        let message = format!("gap in event numbers: expected {expected}, have {seq}");
                        sink(OnlineEvent::Abnormality { chain, at_seq: seq, message });
                    }
                    state.processed = seq;
                    state.apply(&OnlineMetrics::default(), chain, Step::of(&record), sink);
                    self.applied += 1;
                }
                let ChainState { processed, machine, completed_calls, .. } = &mut state;
                let metrics = &OnlineMetrics::default();
                let processed = *processed;
                machine.finish(&mut Emitter { chain, processed, completed_calls, metrics, sink });
            }
        }

        fn summaries(&self) -> Vec<OpenChainSummary> {
            let mut out: Vec<OpenChainSummary> = self
                .chains
                .iter()
                .filter(|(_, (state, pending))| state.machine.open_calls() > 0 || !pending.is_empty())
                .map(|(&chain, (state, pending))| OpenChainSummary {
                    chain,
                    open_calls: state.machine.open_calls(),
                    innermost: state.machine.innermost(),
                    buffered_records: pending.len(),
                    completed_calls: state.completed_calls,
                    processed_seq: state.processed,
                })
                .collect();
            out.sort_by_key(|summary| summary.chain);
            out
        }

        fn buffered(&self) -> usize {
            self.chains.values().map(|(_, pending)| pending.len()).sum()
        }
    }

    /// One call on `uuid` from `seq` on, with a nested child call when
    /// `nested`; returns its records and the next free `seq`.
    fn call(uuid: u128, seq: u64, object: u64, t0: u64, nested: bool) -> (Vec<ProbeRecord>, u64) {
        if !nested {
            return (sync_call(uuid, seq, object, t0), seq + 4);
        }
        let mut records = vec![
            rec(uuid, seq, TraceEvent::StubStart, CallKind::Sync, object, (t0, t0 + 5)),
            rec(uuid, seq + 1, TraceEvent::SkelStart, CallKind::Sync, object, (t0 + 10, t0 + 12)),
        ];
        records.extend(sync_call(uuid, seq + 2, object + 1, t0 + 100));
        records.push(rec(uuid, seq + 6, TraceEvent::SkelEnd, CallKind::Sync, object, (t0 + 450, t0 + 452)));
        records.push(rec(uuid, seq + 7, TraceEvent::StubEnd, CallKind::Sync, object, (t0 + 500, t0 + 503)));
        (records, seq + 8)
    }

    /// A few chains of flat and nested calls, delivered the way a lossy
    /// transport delivers them: records dropped (gaps), a few events
    /// corrupted, records repeated (the later copy carries other stamps, so
    /// which copy the machine saw shows in the latency), displaced by up to
    /// `spread` places, and cut into batches at `1 / cut_every` of the
    /// boundaries. Returns the stream and its batch lengths.
    fn disordered(seed: u64) -> (Vec<ProbeRecord>, Vec<usize>) {
        let mut rng = causeway_core::rng::Rng::seed_from_u64(seed);
        let mut records = Vec::new();
        for uuid in 1..=rng.gen_range(1..=4) as u128 {
            let mut seq = 1;
            for n in 0..rng.gen_range(1..=4) as u64 {
                let (call, next) = call(uuid, seq, n * 2, n * 1000, rng.gen_bool(0.4));
                records.extend(call);
                seq = next;
            }
        }
        let mut delivered: Vec<(usize, ProbeRecord)> = Vec::new();
        let spread = [1, 3, 8, 64][rng.gen_range(0..4)];
        for (index, mut record) in records.into_iter().enumerate() {
            if rng.gen_bool(0.05) {
                continue;
            }
            if rng.gen_bool(0.03) {
                record.event = TraceEvent::ALL[rng.gen_range(0..4)];
            }
            if rng.gen_bool(0.1) {
                let mut again = record.clone();
                again.wall_end = again.wall_end.map(|end| end + 7);
                delivered.push((index + rng.gen_range(0..=spread), again));
            }
            delivered.push((index + rng.gen_range(0..spread), record));
        }
        delivered.sort_by_key(|(position, _)| *position);
        let records: Vec<ProbeRecord> = delivered.into_iter().map(|(_, record)| record).collect();
        let cut_every = rng.gen_range(1..=8);
        let mut batches = vec![0];
        for _ in 0..records.len() {
            if *batches.last().unwrap() > 0 && rng.gen_range(0..cut_every) == 0 {
                batches.push(0);
            }
            *batches.last_mut().unwrap() += 1;
        }
        (records, batches)
    }

    /// `stream` cut into batches of the given lengths.
    fn cut<'a>(stream: &'a [ProbeRecord], batches: &'a [usize]) -> impl Iterator<Item = &'a [ProbeRecord]> {
        let mut rest = stream;
        batches.iter().map(move |&len| {
            let (batch, tail) = rest.split_at(len);
            rest = tail;
            batch
        })
    }

    /// Every record fed is applied, dropped or replaced as a duplicate, or
    /// still buffered.
    fn assert_conserved(registry: &MetricsRegistry, analyzer: &OnlineAnalyzer, applied: u64) {
        let fed = registry.counter_value("causeway_online_records_total").unwrap_or(0);
        let duplicates = registry.counter_value("causeway_online_duplicate_records_total");
        let buffered = analyzer.buffered_records() as u64;
        assert_eq!(fed, applied + duplicates.unwrap_or(0) + buffered);
    }

    /// Feeds `stream` batch by batch to a fresh analyzer through `ingest`
    /// and checks it against the oracle after every batch and at the end.
    fn check_analyzer(
        stream: &[ProbeRecord],
        batches: &[usize],
        ingest: impl Fn(&mut OnlineAnalyzer, &[ProbeRecord], &mut Vec<OnlineEvent>),
    ) {
        let registry = MetricsRegistry::new();
        let mut analyzer = OnlineAnalyzer::with_metrics(&registry);
        let mut oracle = Oracle::default();
        let (mut events, mut expected) = (Vec::new(), Vec::new());
        for batch in cut(stream, batches) {
            ingest(&mut analyzer, batch, &mut events);
            oracle.batch(batch, &mut |e| expected.push(e));
            assert_eq!(events, expected);
            assert_eq!(analyzer.open_chain_summaries(), oracle.summaries());
            assert_eq!(analyzer.open_chains(), oracle.summaries().len());
            assert_eq!(analyzer.buffered_records(), oracle.buffered());
            assert_conserved(&registry, &analyzer, oracle.applied);
        }
        analyzer.finish(&mut |e| events.push(e));
        oracle.finish(&mut |e| expected.push(e));
        assert_eq!(events, expected);
        assert_eq!((analyzer.open_chains(), analyzer.buffered_records()), (0, 0));
        assert_conserved(&registry, &analyzer, oracle.applied);
    }

    /// Feeds `stream` batch by batch to a live monitor with `shards`
    /// shards: it forgets a chain when it goes idle, and shows its events
    /// as totals and its open chains as summaries.
    fn check_live(stream: &[ProbeRecord], batches: &[usize], shards: usize) {
        use crate::live::{LiveConfig, LiveMonitor};
        let cfg = LiveConfig { shards, metrics: Some(MetricsRegistry::new()), ..LiveConfig::default() };
        let monitor = LiveMonitor::new(cfg, Default::default(), Default::default());
        let mut oracle = Oracle { forget_idle: true, ..Oracle::default() };
        let (mut completed, mut abnormal) = (0, 0);
        for batch in cut(stream, batches) {
            monitor.ingest_batch_at(batch.to_vec(), 1);
            oracle.batch(batch, &mut |event| match event {
                OnlineEvent::CallCompleted { .. } => completed += 1,
                OnlineEvent::Abnormality { .. } => abnormal += 1,
                OnlineEvent::ChainIdle { .. } => {}
            });
            assert_eq!(monitor.total_completed(), completed, "shards={shards}");
            assert_eq!(monitor.total_abnormalities(), abnormal, "shards={shards}");
            assert_eq!(monitor.open_chain_summaries(), oracle.summaries(), "shards={shards}");
        }
    }

    #[test]
    fn a_buffered_step_is_no_bigger_than_64_bytes() {
        assert!(std::mem::size_of::<Step<Stamps>>() <= 64);
    }

    /// 1,024 calls on one chain delivered so that every arrival lands in
    /// the middle of the re-sequencing buffer, the sorted buffer's worst
    /// shift pattern: seqs 2 and n, then 3 and n − 1, and so on inwards,
    /// seq 1 last.
    #[test]
    fn a_chain_delivered_middle_out_gives_the_oracles_events() {
        let mut records = Vec::new();
        for n in 0..1024 {
            records.extend(sync_call(1, 1 + 4 * n, n, 1000 * n));
        }
        let (mut low, mut high) = (1, records.len() - 1);
        let mut delivered = Vec::new();
        while low <= high {
            delivered.push(records[low].clone());
            if high != low {
                delivered.push(records[high].clone());
            }
            (low, high) = (low + 1, high - 1);
        }
        delivered.push(records[0].clone());
        assert_eq!(delivered.len(), 4096);
        check_analyzer(&delivered, &[delivered.len()], |analyzer, batch, events| {
            analyzer.ingest_batch_with_threads(batch.to_vec(), 1, &mut |e| events.push(e));
        });
        let (events, analyzer) = collect(delivered);
        let completed = events.iter().filter(|e| matches!(e, OnlineEvent::CallCompleted { .. }));
        assert_eq!(completed.count(), 1024);
        assert_eq!(analyzer.open_chains(), 0);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// In-order records skip the buffer, yet every stream — in order,
        /// reordered, with gaps and repeats — yields exactly the events the
        /// insert-then-drain path produces.
        #[test]
        fn fast_path_emits_what_the_buffer_would(
            raw in prop::collection::vec((0u128..3, 1u64..9, 0usize..4, 0usize..2, 0u64..2), 0..60),
        ) {
            let kinds = [CallKind::Sync, CallKind::Oneway];
            let records: Vec<ProbeRecord> = raw
                .into_iter()
                .map(|(uuid, seq, event, kind, object)| {
                    let wall = (seq * 10, seq * 10 + 1);
                    rec(uuid, seq, TraceEvent::ALL[event], kinds[kind], object, wall)
                })
                .collect();
            let (events, _) = collect(records.clone());
            let mut oracle = Oracle::default();
            let mut expected = Vec::new();
            for record in records {
                oracle.batch(&[record], &mut |e| expected.push(e));
            }
            prop_assert_eq!(events, expected);
        }

        /// Every ingest path re-sequences as the oracle does: per record,
        /// in batches at 1 and 3 threads, and through the live monitor at
        /// 1 and 4 shards.
        #[test]
        fn every_ingest_path_resequences_as_the_oracle_does(seed in any::<u64>()) {
            let (stream, batches) = disordered(seed);
            let singles = vec![1; stream.len()];
            check_analyzer(&stream, &singles, |analyzer, batch, events| {
                analyzer.ingest(batch[0].clone(), &mut |e| events.push(e));
            });
            for threads in [1, 3] {
                check_analyzer(&stream, &batches, |analyzer, batch, events| {
                    analyzer.ingest_batch_with_threads(batch.to_vec(), threads, &mut |e| events.push(e));
                });
            }
            for shards in [1, 4] {
                check_live(&stream, &batches, shards);
            }
        }
    }
}
