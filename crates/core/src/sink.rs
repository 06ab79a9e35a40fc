//! Per-thread logs that a drain reads in place.
//!
//! "All runtime behavior information is recorded individually by probes
//! without coordination" — each thread appends to a log of its own, so
//! probe threads never wait on each other. A log is a list of full blocks
//! of [`CHUNK_CAPACITY`] records plus one open block that grows on demand,
//! behind a mutex that only the owning thread and a drain ever take: the
//! probe hot path is an uncontended lock, a `Vec::push` and an unlock.
//! A block that fills is moved onto the list, not copied.
//!
//! A record is visible to the next drain as soon as [`LogStore::push`]
//! returns. A drain ([`LogStore::drain_chunks`],
//! [`LogStore::recv_chunk_timeout`]) visits every registered log, takes its
//! blocks with an O(1) swap under the log's lock and hands each block out
//! as a [`Chunk`]. Nothing seals or flushes: no idle point, dispatch end or
//! thread exit has to hand records over, so none can strand them. Full
//! collection still happens at the quiescent state, as in the paper — but
//! quiescence is needed only for *completeness*, never for safety: a drain
//! may run while producers push.
//!
//! A thread's log is registered with the store on the thread's first probe.
//! When the thread exits, its log stays registered until a drain has taken
//! its last records, and the drain then prunes it, so a thread-per-request
//! server registers no more logs than it has live threads plus exited ones
//! not yet drained.
//!
//! A drain hands over **what was recorded, not the buffer**: a part-full
//! block whose capacity exceeds twice its records is shrunk on its way out
//! (off the producer's lock), so undrained memory is proportional to the
//! records buffered, not to the number of drains or threads.
//!
//! The store also assigns dense process-local [`LogicalThreadId`]s, which is
//! how scattered records are attributed to "the 32 threads" of a run without
//! leaking OS thread handles into the data model.

use crate::ids::LogicalThreadId;
use crate::metrics::{self, Counter, Gauge, Histogram, MetricsRegistry};
use crate::record::ProbeRecord;
use crate::sync::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// How often [`LogStore::recv_chunk_timeout`] looks for a full block. A
/// poll, not a wake-up: waking a consumer from `push` would put a syscall
/// on the probe path.
const RECV_POLL: Duration = Duration::from_millis(1);

/// Sink self-observability handles, resolved once per store against the
/// registry it was given. Stores sharing a registry aggregate into one set
/// of series on purpose: per-store labels would be unbounded-cardinality
/// series (tests and short-lived systems mint store ids freely).
struct SinkMetrics {
    records_pushed: Counter,
    records_drained: Counter,
    chunks_sealed: Counter,
    chunks_open: Gauge,
    chunks_in_flight: Gauge,
    buffered_records: Gauge,
    push_ns: Histogram,
}

impl SinkMetrics {
    fn register(r: &MetricsRegistry) -> SinkMetrics {
        SinkMetrics {
            records_pushed: r.counter(
                "causeway_sink_records_pushed_total",
                "probe records pushed into any log store",
            ),
            records_drained: r.counter(
                "causeway_sink_records_drained_total",
                "probe records handed to chunk consumers",
            ),
            chunks_sealed: r.counter(
                "causeway_sink_chunks_sealed_total",
                "blocks closed, by filling up or by a drain taking them part-full",
            ),
            chunks_open: r.gauge(
                "causeway_sink_chunks_open",
                "per-thread open blocks holding records",
            ),
            chunks_in_flight: r.gauge(
                "causeway_sink_chunks_in_flight",
                "closed blocks not yet handed to a consumer",
            ),
            buffered_records: r.gauge(
                "causeway_sink_buffered_records",
                "records pushed but not yet drained, as of the last drain",
            ),
            push_ns: r.histogram(
                "causeway_sink_push_ns",
                "probe push latency in nanoseconds, sampled 1 in 64",
            ),
        }
    }
}

/// Records per block: a thread's open block is closed when it holds this
/// many. A drain also closes a part-full block, so a [`Chunk`] carries at
/// most this many records.
pub const CHUNK_CAPACITY: usize = 256;

/// A block of records from one thread, in push (chronological) order.
///
/// A thread's chunks are handed out in the order they were recorded, so a
/// single thread's records never reorder across chunks. Chunks from
/// different threads interleave arbitrarily, as scattered logs always
/// have.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// The logical thread that recorded these probes.
    pub thread: LogicalThreadId,
    /// The records, in the order they were pushed.
    pub records: Vec<ProbeRecord>,
}

impl Chunk {
    /// Records in the chunk.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the chunk holds no records (never produced by a store;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One thread's log for one store.
struct ThreadLog {
    thread: LogicalThreadId,
    blocks: Mutex<Blocks>,
}

#[derive(Default)]
struct Blocks {
    /// Blocks that reached [`CHUNK_CAPACITY`], oldest first.
    full: Vec<Vec<ProbeRecord>>,
    /// The block being appended to.
    open: Vec<ProbeRecord>,
}

/// The collector side of a store, under one lock.
#[derive(Default)]
struct Collector {
    /// Every log a drain may still find records in, in registration order.
    logs: Vec<Arc<ThreadLog>>,
    /// Blocks taken from the logs but not yet handed out, oldest first.
    ready: VecDeque<Chunk>,
}

struct StoreInner {
    id: u64,
    next_thread: AtomicU32,
    /// Records pushed but not yet handed out by a drain/chunk receive.
    ///
    /// Incremented *before* the record becomes reachable and decremented
    /// exactly once per record handed out, so it can transiently
    /// over-count in-flight pushes but never under-counts or wraps — the
    /// count is exact whenever producers are between pushes.
    buffered: AtomicU64,
    collector: Mutex<Collector>,
    metrics: SinkMetrics,
}

impl fmt::Debug for StoreInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogStore")
            .field("id", &self.id)
            .field("threads", &self.next_thread.load(Ordering::Relaxed))
            .field("buffered", &self.buffered.load(Ordering::Relaxed))
            .finish()
    }
}

impl StoreInner {
    /// Moves every registered log's full blocks onto `ready`, and with
    /// `open_too` its open block as well, pruning the logs whose threads
    /// have exited.
    fn sweep(&self, collector: &mut Collector, open_too: bool) {
        let m = &self.metrics;
        let Collector { logs, ready } = collector;
        logs.retain(|log| {
            let (full, open, exited) = {
                let mut blocks = log.blocks.lock();
                // The owning thread pushes through its own reference and
                // drops it only after its last push. Seen under the lock,
                // a log with no other reference has had its last push.
                let exited = Arc::strong_count(log) == 1;
                let open = if open_too { std::mem::take(&mut blocks.open) } else { Vec::new() };
                (std::mem::take(&mut blocks.full), open, exited)
            };
            ready.extend(full.into_iter().map(|records| Chunk { thread: log.thread, records }));
            if !open.is_empty() {
                m.chunks_open.dec();
                m.chunks_in_flight.inc();
                m.chunks_sealed.inc();
                let mut records = open;
                if records.capacity() > 2 * records.len() {
                    records.shrink_to_fit();
                }
                ready.push_back(Chunk { thread: log.thread, records });
            }
            !(exited && open_too)
        });
    }

    /// Bookkeeping for chunks leaving the store: the exact buffered count
    /// and the drain metrics.
    fn hand_out(&self, chunks: &[Chunk]) {
        let records: usize = chunks.iter().map(Chunk::len).sum();
        let left = self.buffered.fetch_sub(records as u64, Ordering::Relaxed) - records as u64;
        let m = &self.metrics;
        m.records_drained.add(records as u64);
        m.chunks_in_flight.add(-(chunks.len() as i64));
        m.buffered_records.set(left as i64);
    }
}

/// One thread's handle on its log in one store.
struct LocalSlot {
    store_id: u64,
    /// For pruning slots whose store is gone.
    store: Weak<StoreInner>,
    log: Arc<ThreadLog>,
}

#[derive(Default)]
struct LocalRegistry {
    /// This thread's logs, one per store it probed into. Most threads
    /// probe into exactly one store, so lookup is a linear scan with the
    /// last-used slot kept at the front.
    slots: Vec<LocalSlot>,
}

impl LocalRegistry {
    /// The slot for `store`, created (registering the thread's log) on
    /// first use, and moved to the front so repeat lookups hit immediately.
    fn slot_for(&mut self, store: &Arc<StoreInner>) -> &mut LocalSlot {
        if let Some(i) = self.slots.iter().position(|s| s.store_id == store.id) {
            self.slots.swap(0, i);
            return &mut self.slots[0];
        }
        // Miss: prune slots whose store died (keeps the scan short in
        // long-lived threads that touch many short-lived stores).
        self.slots.retain(|s| s.store.strong_count() > 0);
        let log = Arc::new(ThreadLog {
            thread: LogicalThreadId(store.next_thread.fetch_add(1, Ordering::Relaxed)),
            blocks: Mutex::default(),
        });
        store.collector.lock().logs.push(Arc::clone(&log));
        self.slots.push(LocalSlot { store_id: store.id, store: Arc::downgrade(store), log });
        let last = self.slots.len() - 1;
        self.slots.swap(0, last);
        &mut self.slots[0]
    }
}

thread_local! {
    static LOCAL: RefCell<LocalRegistry> = RefCell::new(LocalRegistry::default());
}

/// A process's log store: per-thread logs that any number of consumers
/// drain while producers keep pushing.
///
/// Cloning is cheap and clones share state.
///
/// # Example
///
/// ```
/// use causeway_core::sink::LogStore;
/// let store = LogStore::new();
/// let tid = store.current_thread();
/// assert_eq!(tid.0, 0); // first thread gets id 0
/// assert!(store.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LogStore {
    inner: Arc<StoreInner>,
}

impl Default for LogStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LogStore {
    /// Creates an empty store publishing to
    /// [`MetricsRegistry::global`]. Runtimes use
    /// [`LogStore::with_metrics`] with the registry they own.
    pub fn new() -> LogStore {
        LogStore::with_metrics(MetricsRegistry::global())
    }

    /// Creates an empty store publishing its `causeway_sink_*` series to
    /// `registry`.
    pub fn with_metrics(registry: &MetricsRegistry) -> LogStore {
        LogStore {
            inner: Arc::new(StoreInner {
                id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
                next_thread: AtomicU32::new(0),
                buffered: AtomicU64::new(0),
                collector: Mutex::default(),
                metrics: SinkMetrics::register(registry),
            }),
        }
    }

    /// The calling thread's logical id within this store, assigning one on
    /// first use.
    pub fn current_thread(&self) -> LogicalThreadId {
        LOCAL.with(|l| l.borrow_mut().slot_for(&self.inner).log.thread)
    }

    /// Appends a record to the calling thread's log, where the next drain
    /// finds it. The log's lock is shared only with drains.
    pub fn push(&self, record: ProbeRecord) {
        let m = &self.inner.metrics;
        // `inc` returns the previous count, so one push in SAMPLE_STRIDE
        // pays for two clock reads and the rest stay a pure counter bump.
        let sampled = m.records_pushed.inc().is_multiple_of(metrics::SAMPLE_STRIDE);
        let push_started = if sampled { Some(Instant::now()) } else { None };
        // Count before the record can become visible to a consumer, so
        // the drain-side decrement can never outrun the increment.
        self.inner.buffered.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|l| {
            let mut reg = l.borrow_mut();
            let mut blocks = reg.slot_for(&self.inner).log.blocks.lock();
            blocks.open.push(record);
            match blocks.open.len() {
                1 => m.chunks_open.inc(),
                CHUNK_CAPACITY => {
                    let full =
                        std::mem::replace(&mut blocks.open, Vec::with_capacity(CHUNK_CAPACITY));
                    blocks.full.push(full);
                    m.chunks_sealed.inc();
                    m.chunks_open.dec();
                    m.chunks_in_flight.inc();
                }
                _ => {}
            }
        });
        if let Some(started) = push_started {
            m.push_ns.observe(started.elapsed().as_nanos() as u64);
        }
    }

    /// Total records currently buffered (in logs, or taken by a drain and
    /// not yet handed out). Exact whenever no push is mid-flight.
    pub fn len(&self) -> usize {
        self.inner.buffered.load(Ordering::Relaxed) as usize
    }

    /// `true` when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of threads that have registered with this store.
    pub fn thread_count(&self) -> usize {
        self.inner.next_thread.load(Ordering::Relaxed) as usize
    }

    /// Does nothing: a record is visible to the next drain as soon as
    /// [`Self::push`] returns, so there is nothing to hand over. Kept for
    /// callers written against a sink that sealed at idle points.
    pub fn flush_current_thread(&self) {}

    /// Takes one full block, waiting up to `timeout` for a producer to
    /// fill one, then takes a part-full block if there is one. Waits by
    /// polling every millisecond; a zero `timeout` takes any buffered
    /// block without waiting. Safe to call concurrently with pushes and
    /// with other consumers: each chunk is delivered exactly once.
    pub fn recv_chunk_timeout(&self, timeout: Duration) -> Option<Chunk> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if let Some(chunk) = self.take_one(now >= deadline) {
                return Some(chunk);
            }
            if now >= deadline {
                return None;
            }
            std::thread::sleep((deadline - now).min(RECV_POLL));
        }
    }

    /// One chunk from the last sweep, sweeping again (open blocks only
    /// with `open_too`) when none is left.
    fn take_one(&self, open_too: bool) -> Option<Chunk> {
        let chunk = {
            let mut collector = self.inner.collector.lock();
            if collector.ready.is_empty() {
                self.inner.sweep(&mut collector, open_too);
            }
            collector.ready.pop_front()?
        };
        self.inner.hand_out(std::slice::from_ref(&chunk));
        Some(chunk)
    }

    /// Drains every buffered record, in chunk order (within one thread,
    /// chronological push order — which the analyzer may use as a
    /// secondary ordering hint but never requires).
    ///
    /// Safe to call while other threads are pushing: concurrent pushers
    /// lose nothing, and a record pushed after the drain passed its
    /// thread's log arrives at the next one. For a *complete* drain, reach
    /// quiescence first.
    pub fn drain(&self) -> Vec<ProbeRecord> {
        let chunks = self.drain_chunks();
        let mut out = Vec::with_capacity(chunks.iter().map(Chunk::len).sum());
        for mut chunk in chunks {
            out.append(&mut chunk.records);
        }
        out
    }

    /// Like [`Self::drain`], but preserves chunk boundaries — the unit a
    /// durable segment writer appends and checksums, so a crash loses at
    /// most the chunks not yet appended (see `causeway-collector`'s
    /// `segment` module).
    pub fn drain_chunks(&self) -> Vec<Chunk> {
        let chunks: Vec<Chunk> = {
            let mut collector = self.inner.collector.lock();
            self.inner.sweep(&mut collector, true);
            std::mem::take(&mut collector.ready).into()
        };
        self.inner.hand_out(&chunks);
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CallKind, TraceEvent};
    use crate::ids::{InterfaceId, MethodIndex, NodeId, ObjectId, ProcessId};
    use crate::record::{CallSite, FunctionKey};
    use crate::uuid::Uuid;
    use std::sync::atomic::AtomicBool;

    fn rec(store: &LogStore, seq: u64) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(1),
            seq,
            event: TraceEvent::StubStart,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(0),
                thread: store.current_thread(),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(0)),
            wall_start: None,
            wall_end: None,
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    #[test]
    fn push_and_drain() {
        let store = LogStore::new();
        let r1 = rec(&store, 1);
        let r2 = rec(&store, 2);
        store.push(r1.clone());
        store.push(r2.clone());
        assert_eq!(store.len(), 2);
        let drained = store.drain();
        assert_eq!(drained, vec![r1, r2]);
        assert!(store.is_empty());
        assert!(store.drain().is_empty());
    }

    #[test]
    fn thread_ids_are_dense_and_stable() {
        let store = LogStore::new();
        let t0 = store.current_thread();
        assert_eq!(t0, store.current_thread(), "stable within a thread");
        let store2 = store.clone();
        let t1 = std::thread::spawn(move || store2.current_thread()).join().unwrap();
        assert_ne!(t0, t1);
        assert_eq!(store.thread_count(), 2);
    }

    #[test]
    fn two_stores_assign_independent_ids() {
        let a = LogStore::new();
        let b = LogStore::new();
        assert_eq!(a.current_thread().0, 0);
        assert_eq!(b.current_thread().0, 0);
    }

    #[test]
    fn concurrent_pushes_all_arrive() {
        let store = LogStore::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = store.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let r = rec(&s, i);
                        s.push(r);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.drain().len(), 800);
    }

    #[test]
    fn full_chunks_stream_without_any_flush() {
        let store = LogStore::new();
        for i in 0..(CHUNK_CAPACITY as u64 + 10) {
            store.push(rec(&store, i));
        }
        // The first CHUNK_CAPACITY records sealed on their own.
        let chunk = store.recv_chunk_timeout(Duration::ZERO).expect("a sealed chunk is ready");
        assert_eq!(chunk.len(), CHUNK_CAPACITY);
        assert_eq!(chunk.thread, store.current_thread());
        let seqs: Vec<u64> = chunk.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..CHUNK_CAPACITY as u64).collect::<Vec<_>>());
        // The remainder is visible too, with no flush: the open block.
        assert_eq!(store.recv_chunk_timeout(Duration::ZERO).expect("the open block").len(), 10);
        assert!(store.recv_chunk_timeout(Duration::ZERO).is_none());
        assert!(store.is_empty());
    }

    /// Slack a drained chunk stream carries: allocated vs recorded.
    fn capacity_and_len(chunks: &[Chunk]) -> (usize, usize) {
        chunks
            .iter()
            .fold((0, 0), |(cap, len), c| (cap + c.records.capacity(), len + c.records.len()))
    }

    /// The bug behind a 1 GB resident set for a 162 MB log: every seal
    /// used to hand over the whole `CHUNK_CAPACITY` buffer, however few
    /// records the dispatch had pushed into it.
    #[test]
    fn part_full_seals_hand_over_what_was_recorded_not_the_buffer() {
        // A worker that seals after every two-record dispatch.
        let store = LogStore::new();
        let mut chunks = Vec::new();
        for i in 0..1000u64 {
            store.push(rec(&store, 2 * i));
            store.push(rec(&store, 2 * i + 1));
            assert_eq!(store.len(), 2, "exact before the seal");
            store.flush_current_thread();
            assert_eq!(store.len(), 2, "sealing hands nothing out");
            chunks.push(store.recv_chunk_timeout(Duration::ZERO).expect("one chunk per flush"));
            assert_eq!(store.len(), 0, "exact after the receive");
        }
        let (capacity, len) = capacity_and_len(&chunks);
        assert_eq!(len, 2000);
        assert!(capacity <= 2 * len, "{capacity} record slots allocated for {len} records");
        let seqs: Vec<u64> = chunks.iter().flat_map(|c| &c.records).map(|r| r.seq).collect();
        assert_eq!(seqs, (0..2000).collect::<Vec<_>>(), "push order across seals");

        // Thread-per-request: 64 threads that push two records and exit.
        let store = LogStore::new();
        for t in 0..64u64 {
            let s = store.clone();
            std::thread::spawn(move || {
                s.push(rec(&s, 2 * t));
                s.push(rec(&s, 2 * t + 1));
            })
            .join()
            .unwrap();
        }
        assert_eq!(store.len(), 128);
        let chunks = store.drain_chunks();
        assert_eq!(store.len(), 0);
        let (capacity, len) = capacity_and_len(&chunks);
        assert_eq!((chunks.len(), len), (64, 128));
        assert!(capacity <= 2 * len, "{capacity} record slots allocated for {len} records");
    }

    /// Contract: a record is visible to the next drain as soon as `push`
    /// returns — no flush, no thread exit, no full block needed.
    #[test]
    fn a_parked_producers_records_drain_without_a_flush() {
        const N: u64 = CHUNK_CAPACITY as u64 + 7;
        let store = LogStore::new();
        let parked = Arc::new(std::sync::Barrier::new(2));
        let producer = {
            let (s, parked) = (store.clone(), Arc::clone(&parked));
            std::thread::spawn(move || {
                for i in 0..N {
                    s.push(rec(&s, i));
                }
                parked.wait(); // pushed
                parked.wait(); // drained
            })
        };
        parked.wait();
        let seqs: Vec<u64> = store.drain().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..N).collect::<Vec<_>>(), "every record, in push order");
        assert!(store.is_empty());
        parked.wait();
        producer.join().unwrap();
        assert!(store.drain().is_empty());
    }

    /// Logs registered with `store` (live threads plus exited ones not yet
    /// drained).
    fn registered(store: &LogStore) -> usize {
        store.inner.collector.lock().logs.len()
    }

    #[test]
    fn exited_threads_stay_registered_until_drained_then_are_pruned() {
        const THREADS: u64 = 10_000;
        let store = LogStore::new();
        store.push(rec(&store, u64::MAX)); // this thread stays live
        for t in 0..THREADS {
            let s = store.clone();
            std::thread::spawn(move || {
                s.push(rec(&s, 2 * t));
                s.push(rec(&s, 2 * t + 1));
            })
            .join()
            .unwrap();
        }
        assert_eq!(registered(&store), THREADS as usize + 1, "reachable until drained");
        let mut seqs: Vec<u64> = store.drain().iter().map(|r| r.seq).collect();
        assert_eq!(seqs.remove(0), u64::MAX, "logs drain in registration order");
        seqs.sort_unstable();
        assert_eq!(seqs, (0..2 * THREADS).collect::<Vec<_>>());
        assert_eq!(registered(&store), 1, "only the live thread stays registered");
        assert!(store.is_empty());
    }

    #[test]
    fn buffered_records_gauge_is_len_as_of_the_last_drain() {
        let registry = MetricsRegistry::new();
        let store = LogStore::with_metrics(&registry);
        let gauge = || registry.gauge_value("causeway_sink_buffered_records");
        for i in 0..(CHUNK_CAPACITY as u64 + 5) {
            store.push(rec(&store, i));
        }
        assert_eq!(store.recv_chunk_timeout(Duration::ZERO).map(|c| c.len()), Some(CHUNK_CAPACITY));
        assert_eq!(gauge(), Some(5), "the open block is taken but not yet handed out");
        assert_eq!(registry.gauge_value("causeway_sink_chunks_in_flight"), Some(1));
        assert_eq!(registry.gauge_value("causeway_sink_chunks_open"), Some(0));
        store.push(rec(&store, 0));
        assert_eq!(registry.gauge_value("causeway_sink_chunks_open"), Some(1));
        assert_eq!(store.drain().len(), 6);
        assert_eq!(gauge(), Some(0));
    }

    #[test]
    fn thread_exit_seals_the_open_chunk() {
        let store = LogStore::new();
        let s = store.clone();
        std::thread::spawn(move || {
            for i in 0..5 {
                s.push(rec(&s, i));
            }
        })
        .join()
        .unwrap();
        let chunk = store.recv_chunk_timeout(Duration::ZERO).expect("an exited thread's log is drained");
        assert_eq!(chunk.len(), 5);
        assert!(store.is_empty());
    }

    /// The acceptance scenario: a drain concurrent with 8 pushing threads
    /// loses zero records and duplicates none, and the buffered count is
    /// exact once the producers are done.
    #[test]
    fn streaming_drain_concurrent_with_pushers_loses_nothing() {
        const PUSHERS: u64 = 8;
        const PER_THREAD: u64 = 4000;
        let store = LogStore::new();
        let stop = Arc::new(AtomicBool::new(false));

        let producers: Vec<_> = (0..PUSHERS)
            .map(|p| {
                let s = store.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Globally unique tag so duplicates are detectable.
                        s.push(rec(&s, p * PER_THREAD + i));
                    }
                })
            })
            .collect();

        // Drain continuously while producers are live.
        let collector = {
            let s = store.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    got.extend(s.drain());
                }
                got
            })
        };

        for t in producers {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let mut got = collector.join().unwrap();
        // Producers have exited (TLS sealed everything); the count is
        // exact and one final drain empties the store.
        got.extend(store.drain());
        assert_eq!(store.len(), 0, "exact count after quiescence");

        let mut seqs: Vec<u64> = got.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len(),
            (PUSHERS * PER_THREAD) as usize,
            "no record lost, none duplicated"
        );
    }

    #[test]
    fn drain_chunks_preserves_chunk_boundaries() {
        let store = LogStore::new();
        for i in 0..(CHUNK_CAPACITY as u64 + 3) {
            store.push(rec(&store, i));
        }
        let chunks = store.drain_chunks();
        assert_eq!(chunks.len(), 2, "one full chunk plus the flushed remainder");
        assert_eq!(chunks[0].len(), CHUNK_CAPACITY);
        assert_eq!(chunks[1].len(), 3);
        assert!(chunks.iter().all(|c| c.thread == store.current_thread()));
        assert!(store.is_empty());
    }

    #[test]
    fn per_thread_order_is_preserved_across_chunks() {
        let store = LogStore::new();
        let s = store.clone();
        std::thread::spawn(move || {
            for i in 0..(3 * CHUNK_CAPACITY as u64) {
                s.push(rec(&s, i));
            }
        })
        .join()
        .unwrap();
        let drained = store.drain();
        let seqs: Vec<u64> = drained.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..3 * CHUNK_CAPACITY as u64).collect::<Vec<_>>());
    }

    #[test]
    fn recv_chunk_timeout_sees_a_live_producer() {
        let store = LogStore::new();
        let s = store.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..(CHUNK_CAPACITY as u64) {
                s.push(rec(&s, i));
            }
            // Open remainder is sealed by thread exit.
        });
        let chunk = store
            .recv_chunk_timeout(Duration::from_secs(5))
            .expect("producer seals a full chunk");
        assert_eq!(chunk.len(), CHUNK_CAPACITY);
        producer.join().unwrap();
    }

    #[test]
    fn a_store_publishes_only_to_its_registry() {
        let registry = MetricsRegistry::new();
        let store = LogStore::with_metrics(&registry);
        let other = LogStore::with_metrics(&MetricsRegistry::new());
        for i in 0..(CHUNK_CAPACITY as u64 + 5) {
            store.push(rec(&store, i));
        }
        other.push(rec(&other, 0));
        assert_eq!(store.drain().len(), CHUNK_CAPACITY + 5);
        let count = |name| registry.counter_value(name);
        assert_eq!(count("causeway_sink_records_pushed_total"), Some(CHUNK_CAPACITY as u64 + 5));
        assert_eq!(count("causeway_sink_records_drained_total"), Some(CHUNK_CAPACITY as u64 + 5));
        assert_eq!(count("causeway_sink_chunks_sealed_total"), Some(2));
        assert_eq!(registry.gauge_value("causeway_sink_chunks_open"), Some(0));
        assert_eq!(registry.gauge_value("causeway_sink_chunks_in_flight"), Some(0));
    }
}
