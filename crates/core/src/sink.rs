//! Per-thread chunked log buffers with a streaming drain.
//!
//! "All runtime behavior information is recorded individually by probes
//! without coordination" — each thread appends to a chunk it exclusively
//! owns, cached in thread-local storage, so the probe hot path takes **no
//! lock and performs no hash lookup**: it is an atomic counter bump plus an
//! unsynchronized `Vec::push`. When a chunk fills (or the owning thread
//! reaches an idle point, or exits), it is *sealed* — handed to the
//! collector side over a multi-producer channel. Draining is therefore an
//! incremental, concurrency-safe *stream* of sealed chunks: a collector may
//! pull chunks while producer threads keep pushing, which is what the
//! on-line analyzer builds on. Full collection still happens at the
//! quiescent state, as in the paper — but quiescence is needed only for
//! *completeness*, never for safety.
//!
//! Sealing discipline (who closes an open chunk):
//!
//! * the **owning thread**, when the chunk reaches [`CHUNK_CAPACITY`];
//! * the **owning thread**, at an idle point — runtimes call
//!   [`LogStore::flush_current_thread`] before blocking on an empty inbox,
//!   so a quiescent system has no open chunks;
//! * the **owning thread**, on its next push after a collector called
//!   [`LogStore::request_flush`] (each drain bumps a flush epoch that every
//!   producer checks for free on its own schedule);
//! * the **thread-local destructor**, when the thread exits.
//!
//! No other thread ever touches an open chunk, which is exactly why no
//! synchronization is needed on the record path.
//!
//! Sealing hands over **what was recorded, not the buffer**. Most seals are
//! part-full — a server worker seals after every dispatch, with the two to
//! a handful of records that dispatch pushed — so a part-full seal moves
//! its records into an exact-size vector and the thread keeps its buffer;
//! only a buffer that reached [`CHUNK_CAPACITY`] is itself handed over (and
//! replaced). A thread's buffer starts empty and grows on demand, so a
//! thread-per-request thread that pushes two records never allocates a
//! full chunk's worth. Sealed-but-undrained memory is therefore
//! proportional to the records buffered, not to the number of seals.
//!
//! The store also assigns dense process-local [`LogicalThreadId`]s, which is
//! how scattered records are attributed to "the 32 threads" of a run without
//! leaking OS thread handles into the data model.

use crate::ids::LogicalThreadId;
use crate::metrics::{self, Counter, Gauge, Histogram, MetricsRegistry};
use crate::record::ProbeRecord;
use crossbeam::channel::{Receiver, Sender, unbounded};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

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
    push_ns: Histogram,
    flush_requests: Counter,
    epoch_seals: Counter,
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
                "chunks sealed onto the collector channel",
            ),
            chunks_open: r.gauge(
                "causeway_sink_chunks_open",
                "per-thread chunks currently accumulating records",
            ),
            chunks_in_flight: r.gauge(
                "causeway_sink_chunks_in_flight",
                "sealed chunks not yet received by a consumer (channel depth)",
            ),
            push_ns: r.histogram(
                "causeway_sink_push_ns",
                "probe push latency in nanoseconds, sampled 1 in 64",
            ),
            flush_requests: r.counter(
                "causeway_sink_flush_requests_total",
                "collector-initiated flush epochs (request_flush calls)",
            ),
            epoch_seals: r.counter(
                "causeway_sink_epoch_seals_total",
                "chunks sealed because a producer noticed a flush epoch lap",
            ),
        }
    }
}

/// Records per chunk before the owning thread seals it on its own.
///
/// Small enough that a live consumer sees records promptly even under
/// steady load; large enough that the channel send amortizes to well under
/// a nanosecond per record. This is a seal *threshold*, not an allocation
/// size: a chunk sealed earlier carries exactly the records pushed so far.
pub const CHUNK_CAPACITY: usize = 256;

/// A sealed batch of records from one thread, in push (chronological)
/// order.
///
/// Chunks from one thread arrive in the order they were sealed, so a
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
    /// Bumped by [`LogStore::request_flush`]; producers seal their open
    /// chunk when they notice the epoch moved.
    flush_epoch: AtomicU64,
    chunk_tx: Sender<Chunk>,
    chunk_rx: Receiver<Chunk>,
    metrics: Arc<SinkMetrics>,
}

impl fmt::Debug for StoreInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogStore")
            .field("id", &self.id)
            .field("threads", &self.next_thread.load(Ordering::Relaxed))
            .field("buffered", &self.buffered.load(Ordering::Relaxed))
            .field("sealed_chunks", &self.chunk_rx.len())
            .finish()
    }
}

/// One thread's open chunk for one store.
struct LocalSlot {
    store_id: u64,
    /// For pruning slots whose store is gone.
    store: Weak<StoreInner>,
    thread: LogicalThreadId,
    /// The flush epoch observed when the open chunk started.
    epoch: u64,
    buf: Vec<ProbeRecord>,
    tx: Sender<Chunk>,
    /// The store's handles: a slot may seal after its store is gone.
    metrics: Arc<SinkMetrics>,
}

impl LocalSlot {
    fn seal(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        // Hand over what was recorded, not the buffer (module docs): only
        // a full buffer is itself the chunk.
        let records = if self.buf.len() >= CHUNK_CAPACITY {
            std::mem::replace(&mut self.buf, Vec::with_capacity(CHUNK_CAPACITY))
        } else {
            let mut exact = Vec::with_capacity(self.buf.len());
            exact.append(&mut self.buf);
            exact
        };
        let m = &self.metrics;
        m.chunks_sealed.add(1);
        m.chunks_open.dec();
        m.chunks_in_flight.inc();
        // Send fails only when the store (every receiver) is gone; then
        // there is nobody left to read the records.
        let _ = self.tx.send(Chunk { thread: self.thread, records });
    }
}

impl Drop for LocalSlot {
    fn drop(&mut self) {
        // Thread exit: hand over whatever the thread still buffered.
        self.seal();
    }
}

#[derive(Default)]
struct LocalRegistry {
    /// Open chunks of this thread, one per store it probed into. Most
    /// threads probe into exactly one store, so lookup is a linear scan
    /// with the last-used slot kept at the front.
    slots: Vec<LocalSlot>,
}

impl LocalRegistry {
    /// The slot for `store`, created (registering the thread) on first
    /// use, and moved to the front so repeat lookups hit immediately.
    fn slot_for(&mut self, store: &Arc<StoreInner>) -> &mut LocalSlot {
        if let Some(i) = self.slots.iter().position(|s| s.store_id == store.id) {
            self.slots.swap(0, i);
            return &mut self.slots[0];
        }
        // Miss: prune slots whose store died (keeps the scan short in
        // long-lived threads that touch many short-lived stores).
        self.slots.retain(|s| s.store.upgrade().is_some());
        let thread =
            LogicalThreadId(store.next_thread.fetch_add(1, Ordering::Relaxed));
        self.slots.push(LocalSlot {
            store_id: store.id,
            store: Arc::downgrade(store),
            thread,
            epoch: store.flush_epoch.load(Ordering::Relaxed),
            // Grows on demand: most threads seal long before a chunk fills.
            buf: Vec::new(),
            tx: store.chunk_tx.clone(),
            metrics: Arc::clone(&store.metrics),
        });
        let last = self.slots.len() - 1;
        self.slots.swap(0, last);
        &mut self.slots[0]
    }
}

thread_local! {
    static LOCAL: RefCell<LocalRegistry> = RefCell::new(LocalRegistry::default());
}

/// A process's log store: per-thread chunked buffers feeding a sealed-chunk
/// stream.
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
        let (chunk_tx, chunk_rx) = unbounded();
        LogStore {
            inner: Arc::new(StoreInner {
                id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
                next_thread: AtomicU32::new(0),
                buffered: AtomicU64::new(0),
                flush_epoch: AtomicU64::new(0),
                chunk_tx,
                chunk_rx,
                metrics: Arc::new(SinkMetrics::register(registry)),
            }),
        }
    }

    /// The calling thread's logical id within this store, assigning one on
    /// first use.
    pub fn current_thread(&self) -> LogicalThreadId {
        LOCAL.with(|l| l.borrow_mut().slot_for(&self.inner).thread)
    }

    /// Appends a record to the calling thread's open chunk — no lock, no
    /// hash lookup; the chunk is owned exclusively by this thread.
    pub fn push(&self, record: ProbeRecord) {
        let m = &*self.inner.metrics;
        // `inc` returns the previous count, so one push in SAMPLE_STRIDE
        // pays for two clock reads and the rest stay a pure counter bump.
        let sampled = m.records_pushed.inc().is_multiple_of(metrics::SAMPLE_STRIDE);
        let push_started = if sampled { Some(Instant::now()) } else { None };
        // Count before the record can become visible to a consumer, so
        // the drain-side decrement can never outrun the increment.
        self.inner.buffered.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|l| {
            let mut reg = l.borrow_mut();
            let slot = reg.slot_for(&self.inner);
            let epoch = self.inner.flush_epoch.load(Ordering::Relaxed);
            if slot.epoch != epoch {
                // A collector asked for a flush since this chunk started:
                // seal what precedes the request, then start fresh.
                if !slot.buf.is_empty() {
                    m.epoch_seals.add(1);
                }
                slot.seal();
                slot.epoch = epoch;
            }
            slot.buf.push(record);
            if slot.buf.len() == 1 {
                m.chunks_open.inc();
            }
            if slot.buf.len() >= CHUNK_CAPACITY {
                slot.seal();
            }
        });
        if let Some(started) = push_started {
            m.push_ns.observe(started.elapsed().as_nanos() as u64);
        }
    }

    /// Total records currently buffered (open chunks + sealed, undrained
    /// chunks). Exact whenever no push is mid-flight.
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

    /// Seals the *calling thread's* open chunk, making its records
    /// available to chunk consumers. Runtimes call this at idle points —
    /// e.g. a pool worker about to block on an empty inbox — so that a
    /// quiescent system has no records stranded in open chunks.
    pub fn flush_current_thread(&self) {
        LOCAL.with(|l| {
            let mut reg = l.borrow_mut();
            if let Some(slot) =
                reg.slots.iter_mut().find(|s| s.store_id == self.inner.id)
            {
                slot.seal();
            }
        });
    }

    /// Asks every producer thread to seal its open chunk at its next push.
    ///
    /// This is asynchronous by design — the paper's probes never
    /// coordinate, so a collector cannot *force* another thread's hand; it
    /// can only leave a note the producer honors on its own schedule.
    pub fn request_flush(&self) {
        self.inner.metrics.flush_requests.add(1);
        self.inner.flush_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Receives one sealed chunk if any is ready, without blocking.
    ///
    /// This is the streaming consumption path: safe to call concurrently
    /// with pushes (and with other consumers — each chunk is delivered
    /// exactly once).
    pub fn try_recv_chunk(&self) -> Option<Chunk> {
        let chunk = self.inner.chunk_rx.try_recv().ok()?;
        self.note_received(&chunk);
        Some(chunk)
    }

    /// Receives one sealed chunk, waiting up to `timeout` for a producer
    /// to seal one.
    pub fn recv_chunk_timeout(&self, timeout: Duration) -> Option<Chunk> {
        let chunk = self.inner.chunk_rx.recv_timeout(timeout).ok()?;
        self.note_received(&chunk);
        Some(chunk)
    }

    /// Bookkeeping for a chunk leaving the store: the exact buffered count
    /// and the drain metrics.
    fn note_received(&self, chunk: &Chunk) {
        self.inner
            .buffered
            .fetch_sub(chunk.records.len() as u64, Ordering::Relaxed);
        let m = &self.inner.metrics;
        m.records_drained.add(chunk.records.len() as u64);
        m.chunks_in_flight.dec();
    }

    /// Drains every currently sealed chunk, returning the records in chunk
    /// arrival order (within one thread, chronological push order — which
    /// the analyzer may use as a secondary ordering hint but never
    /// requires).
    ///
    /// Safe to call while other threads are pushing: concurrent pushers
    /// lose nothing and the count removed is exact — records an active
    /// thread still holds in an open chunk simply arrive at a later drain
    /// (their threads were asked to flush via [`Self::request_flush`]).
    /// For a *complete* drain, reach quiescence first: idle runtimes flush
    /// at their blocking points and exited threads flush on termination.
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
    /// most the chunks not yet sealed (see `causeway-collector`'s
    /// `segment` module).
    pub fn drain_chunks(&self) -> Vec<Chunk> {
        self.request_flush();
        // The drain itself runs on some thread that may have pushed
        // (clients, tests): hand over our own open chunk immediately.
        self.flush_current_thread();
        let mut out = Vec::new();
        while let Some(chunk) = self.try_recv_chunk() {
            out.push(chunk);
        }
        out
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
        let chunk = store.try_recv_chunk().expect("a sealed chunk is ready");
        assert_eq!(chunk.len(), CHUNK_CAPACITY);
        assert_eq!(chunk.thread, store.current_thread());
        let seqs: Vec<u64> = chunk.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..CHUNK_CAPACITY as u64).collect::<Vec<_>>());
        // The remainder is still open; a flush hands it over.
        assert!(store.try_recv_chunk().is_none());
        store.flush_current_thread();
        assert_eq!(store.try_recv_chunk().expect("flushed").len(), 10);
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
            chunks.push(store.try_recv_chunk().expect("one chunk per flush"));
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

    #[test]
    fn request_flush_seals_producer_chunks_at_their_next_push() {
        let store = LogStore::new();
        store.push(rec(&store, 1));
        store.request_flush();
        assert!(store.try_recv_chunk().is_none(), "flush is asynchronous");
        store.push(rec(&store, 2));
        let chunk = store.try_recv_chunk().expect("sealed at next push");
        assert_eq!(chunk.len(), 1, "only the pre-flush record");
        assert_eq!(chunk.records[0].seq, 1);
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
        let chunk = store.try_recv_chunk().expect("sealed by TLS destructor");
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
