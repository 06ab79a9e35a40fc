//! The engine gate: admission, in-flight accounting, the dispatch bracket
//! and quiescence, written once for every runtime (ORB, COM, EJB).
//!
//! The paper collects its scattered logs only once the system is
//! quiescent. Quiescence can be trusted only if "nothing in flight" implies
//! "every server-side record is visible to the collector". A [`Gate`] makes
//! that a property of the types:
//!
//! * [`Gate::enter`] hands out a [`Ticket`] that travels inside the request
//!   message. The request counts as in flight until the ticket is dropped,
//!   so a send failure, an unknown object, a shed request or a caller that
//!   timed out releases the count exactly once, with no hand-written
//!   decrement.
//! * [`Ticket::dispatch`] turns the ticket into the server-side bracket.
//!   The [`Dispatch`] guard owns the ticket; its `Drop` ends the engine's
//!   busy clock and then releases the ticket, on a return, an early error
//!   and a panicking servant alike. Nothing has to be sealed first: a
//!   record is visible to a drain as soon as `LogStore::push` returns, so
//!   every record the worker pushed precedes the release, and a drain that
//!   follows an observed zero in-flight count finds them all.
//! * [`Gate::admits`] is bounded admission: a queue at capacity refuses the
//!   request and counts it in `causeway_engine_shed_total`.
//! * [`Gate::quiesce`] waits for the in-flight count to reach zero.

use crate::metrics::{EngineMetrics, MetricsRegistry, OpMetrics, OpSeries, WorkerHandle};
use crate::names::SystemVocab;
use crate::record::FunctionKey;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on an engine's dispatch queue (for the ORB's
/// thread-per-request policy, on its request threads serving a request).
/// Requests over it are shed instead of queueing without bound: an
/// open-loop arrival burst must surface as explicit shed load, not as a
/// silently growing queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 65_536;

/// Most threads that wait idle for reuse at once, at each site that reuses
/// threads (ORB request threads, HTTP connection threads); a thread that
/// finds this many already waiting exits instead, so a burst leaves no pool
/// behind.
pub const MAX_PARKED: usize = 4;

#[derive(Debug)]
struct GateInner {
    in_flight: AtomicI64,
    capacity: usize,
    metrics: EngineMetrics,
    ops: OpMetrics,
}

/// One runtime's admission gate and in-flight count, publishing the
/// `causeway_engine_*{engine=...}` series. Cloning shares state.
#[derive(Debug, Clone)]
pub struct Gate {
    inner: Arc<GateInner>,
}

impl Gate {
    /// Creates a gate publishing `engine=<engine>` series to `registry`,
    /// refusing requests once a queue holds `capacity` (0 is treated as 1).
    pub fn new(registry: &MetricsRegistry, engine: &'static str, capacity: usize) -> Gate {
        Gate {
            inner: Arc::new(GateInner {
                in_flight: AtomicI64::new(0),
                capacity: capacity.max(1),
                metrics: EngineMetrics::register(registry, engine),
                ops: OpMetrics::new(registry, engine),
            }),
        }
    }

    /// Counts one request in flight until the returned ticket is dropped.
    /// The ticket is stamped now, for the queue-wait histogram.
    pub fn enter(&self) -> Ticket {
        self.inner.in_flight.fetch_add(1, Ordering::SeqCst);
        Ticket { gate: Arc::clone(&self.inner), enqueued: Instant::now() }
    }

    /// Whether a queue currently holding `queue_len` requests may take one
    /// more. A refusal is counted as shed.
    pub fn admits(&self, queue_len: usize) -> bool {
        let admitted = queue_len < self.inner.capacity;
        if !admitted {
            self.inner.metrics.shed.inc();
        }
        admitted
    }

    /// Requests currently in flight (entered, ticket not yet dropped).
    pub fn in_flight(&self) -> i64 {
        self.inner.in_flight.load(Ordering::SeqCst)
    }

    /// Waits until no requests are in flight — the quiescent state after
    /// which logs may be collected.
    ///
    /// # Errors
    ///
    /// Returns the number of requests still in flight after `timeout`.
    pub fn quiesce(&self, timeout: Duration) -> Result<(), i64> {
        let deadline = Instant::now() + timeout;
        loop {
            let in_flight = self.in_flight();
            if in_flight <= 0 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(in_flight);
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Marks a worker thread as live until the returned handle drops.
    pub fn worker(&self) -> WorkerHandle {
        self.inner.metrics.worker()
    }
}

/// One request's place in its gate's in-flight count; dropping it releases
/// the count. Carries the instant its request was queued.
#[derive(Debug)]
pub struct Ticket {
    gate: Arc<GateInner>,
    enqueued: Instant,
}

impl Ticket {
    /// Opens the server-side bracket of this ticket's request on the
    /// calling worker: records the queue wait, counts the dispatch and
    /// marks it in flight in the engine series. The ticket is released when
    /// the returned guard drops.
    pub fn dispatch(self) -> Dispatch {
        let metrics = &self.gate.metrics;
        metrics.queue_wait_ns.observe(self.enqueued.elapsed().as_nanos() as u64);
        metrics.dispatch.inc();
        metrics.inflight.inc();
        Dispatch { op: None, started: Instant::now(), ticket: self }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The server-side bracket of one dispatch (see [`Ticket::dispatch`]).
/// Dropping it closes the operation's busy clock, charges the dispatch to
/// the engine's busy time and then releases the ticket.
#[derive(Debug)]
pub struct Dispatch {
    op: Option<(OpSeries, Instant)>,
    started: Instant,
    /// Dropped after `Drop::drop` has run: the release comes last.
    ticket: Ticket,
}

impl Dispatch {
    /// Counts this dispatch in the per-operation series of `func` (labels
    /// resolved through `vocab` on first sight) and starts its busy clock,
    /// which runs until the guard drops.
    pub fn op(&mut self, func: FunctionKey, vocab: &SystemVocab) {
        let series = self.ticket.gate.ops.series(func.interface, func.method, || {
            (
                vocab.interface_name(func.interface).unwrap_or_else(|| func.interface.to_string()),
                vocab
                    .method_name(func.interface, func.method)
                    .unwrap_or_else(|| func.method.to_string()),
            )
        });
        series.dispatch.inc();
        self.op = Some((series, Instant::now()));
    }
}

impl Drop for Dispatch {
    fn drop(&mut self) {
        if let Some((series, started)) = self.op.take() {
            series.busy_ns.observe(started.elapsed().as_nanos() as u64);
        }
        let metrics = &self.ticket.gate.metrics;
        metrics.busy_ns.add(self.started.elapsed().as_nanos() as u64);
        metrics.inflight.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CallKind;
    use crate::ids::{InterfaceId, MethodIndex, NodeId, ObjectId, ProcessId};
    use crate::monitor::Monitor;
    use crate::sink::LogStore;

    fn new_gate(capacity: usize) -> (MetricsRegistry, Gate) {
        let registry = MetricsRegistry::new();
        let gate = Gate::new(&registry, "test", capacity);
        (registry, gate)
    }

    fn shed(registry: &MetricsRegistry) -> Option<u64> {
        registry.counter_value_with("causeway_engine_shed_total", &[("engine", "test")])
    }

    #[test]
    fn admits_refuses_at_the_bound_and_counts_the_shed() {
        let (registry, gate) = new_gate(2);
        assert!(gate.admits(0));
        assert!(gate.admits(1));
        assert!(!gate.admits(2), "a queue holding `capacity` is full");
        assert!(!gate.admits(3));
        assert_eq!(shed(&registry), Some(2), "each refusal counts once");

        let (registry, gate) = new_gate(0);
        assert!(gate.admits(0), "capacity 0 is treated as 1");
        assert!(!gate.admits(1));
        assert_eq!(shed(&registry), Some(1));
    }

    #[test]
    fn a_dropped_ticket_releases_exactly_once() {
        let (_registry, gate) = new_gate(1);
        let first = gate.enter();
        let second = gate.clone().enter();
        assert_eq!(gate.in_flight(), 2);
        drop(first);
        assert_eq!(gate.in_flight(), 1);
        drop(second);
        assert_eq!(gate.in_flight(), 0);
        assert_eq!(gate.quiesce(Duration::ZERO), Ok(()));
    }

    #[test]
    fn quiesce_reports_the_stuck_count_on_timeout() {
        let (_registry, gate) = new_gate(1);
        let stuck = [gate.enter(), gate.enter()];
        assert_eq!(gate.quiesce(Duration::from_millis(5)), Err(2));
        drop(stuck);
        assert_eq!(gate.quiesce(Duration::from_millis(5)), Ok(()));
    }

    #[test]
    fn the_dispatch_guard_releases_its_ticket_exactly_once() {
        let (registry, gate) = new_gate(1);
        let store = LogStore::with_metrics(&registry);
        let monitor = Monitor::builder(ProcessId(0), NodeId(0)).store(store.clone()).build();
        let vocab = SystemVocab::new();
        let func = FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(0));
        let mut dispatch = gate.enter().dispatch();
        dispatch.op(func, &vocab);
        let out = monitor.stub_start(func, CallKind::Sync);
        monitor.skel_start(func, CallKind::Sync, out.wire_ftl, None);
        assert_eq!(store.drain().len(), 2, "visible while the dispatch runs");
        assert_eq!(gate.in_flight(), 1);
        drop(dispatch);
        assert_eq!(gate.in_flight(), 0, "dropping the guard released the ticket once");

        let labels = [("engine", "test")];
        assert_eq!(registry.counter_value_with("causeway_engine_dispatch_total", &labels), Some(1));
        assert_eq!(registry.gauge_value_with("causeway_engine_inflight", &labels), Some(0));
        let op = [("engine", "test"), ("iface", "if0"), ("method", "m0")];
        assert_eq!(registry.counter_value_with("causeway_engine_op_dispatch_total", &op), Some(1));
    }
}
