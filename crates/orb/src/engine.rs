//! Server engines: the multithreading architectures of Schmidt's ORB survey
//! that §2.2 of the paper proves causality tracing robust against.
//!
//! All three policies preserve observation O1 — a physical thread is
//! dedicated to an incoming call until that call finishes — which, together
//! with O2 (the skeleton-start probe refreshes the thread's FTL on every
//! dispatch), is why the tunnel survives thread reuse.
//!
//! Under thread-per-request and the pool, no thread stands between the
//! inbox and the workers: they take requests off the process inbox
//! themselves, so a request reaches the thread that serves it with one
//! hand-off. A thread admits the request it
//! took at that moment, so under overload the request shed is the one that
//! waited longest, not the newest arrival. Both stop on one
//! [`Incoming::Stop`]: the thread that receives it forwards one stop to the
//! inbox and exits, and the next waiting thread does the same.
//!
//! Thread-per-request is the survey's Leader/Followers. The thread that
//! takes the last idle place starts a successor before it dispatches, so a
//! queued request never waits on a crew that is all busy. A thread whose
//! dispatch has returned clears its thread-specific storage and waits
//! again, unless [`MAX_PARKED`] already wait; then it exits. Reuse is safe
//! for the same reasons as under a pool — O1 and O2 — plus the cleared
//! storage: a skeleton that installs no FTL (an interceptor-traced request
//! that carried none) finds no stale chain to extend. Admission counts
//! busy threads only: a thread counts itself busy, asks the gate with the
//! count it found and undoes it on a shed. A stop wins over a park: the
//! thread that receives the stop marks the engine stopped under the lock
//! every successor spawn takes before it forwards the stop, and a thread
//! that finishes after the stop exits too.
//!
//! A pool is exactly its workers. A worker admits the request it took
//! against the requests still queued behind it in the inbox.
//!
//! Thread-per-connection keeps a router thread, because it routes each
//! request to its connection's worker; it admits against that worker's
//! queue.
//!
//! Admission, in-flight accounting and the dispatch bracket belong to the
//! system's [`causeway_core::engine::Gate`]; `causeway_engine_queue_wait_ns`
//! runs from [`Gate::enter`](causeway_core::engine::Gate::enter) at the
//! caller to the dispatch under every policy. A worker's records are
//! visible to a drain as soon as it pushes them, so no policy seals or
//! flushes anything: a request stops counting as in flight after its last
//! record is pushed (the gate's dispatch guard, see [`crate::orb::Orb`]).

use crate::orb::Orb;
use crate::transport::{ConnKey, Incoming, RequestMsg};
use causeway_core::engine::{Ticket, MAX_PARKED};
use causeway_core::sync::Mutex;
use causeway_core::tss;
use crossbeam::channel::{Receiver, Sender, unbounded};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;

/// The server threading policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadingPolicy {
    /// A thread dedicated to each incoming request until its dispatch
    /// ends; finished request threads wait on the inbox for the next one
    /// (module docs).
    #[default]
    ThreadPerRequest,
    /// A fixed pool of worker threads taking requests off the inbox.
    ThreadPool(usize),
    /// One dedicated worker per client connection, spawned on first use.
    ThreadPerConnection,
}

/// The running server side of one process.
#[derive(Debug)]
pub struct ServerEngine {
    /// Some under thread-per-connection only.
    router: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Workers>>,
    /// Lets `Drop` stop the engine when nobody sent [`Incoming::Stop`].
    stop_tx: Sender<Incoming>,
}

/// The engine's threads, joined at stop (handles of request threads that
/// exited are reaped when a successor is spawned), and whether a request
/// thread has received the stop: no request thread is spawned after it.
#[derive(Debug, Default)]
struct Workers {
    handles: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl ServerEngine {
    /// Starts an engine consuming `rx` under `policy`. `stop_tx` must feed
    /// the same inbox as `rx`; the engine's threads forward the stop on it,
    /// and the engine uses it to stop itself when dropped without an
    /// explicit [`Incoming::Stop`].
    pub fn start(
        orb: Orb,
        rx: Receiver<Incoming>,
        stop_tx: Sender<Incoming>,
        policy: ThreadingPolicy,
    ) -> ServerEngine {
        let workers = Arc::new(Mutex::new(Workers::default()));
        let router = match policy {
            ThreadingPolicy::ThreadPerRequest => {
                let crew = Arc::new(Crew {
                    orb,
                    inbox: rx,
                    stop_tx: stop_tx.clone(),
                    idle: AtomicUsize::new(0),
                    busy: AtomicUsize::new(0),
                    workers: Arc::clone(&workers),
                });
                spawn_request_thread(&crew, &mut workers.lock());
                None
            }
            ThreadingPolicy::ThreadPool(size) => {
                let mut guard = workers.lock();
                for i in 0..size.max(1) {
                    let (orb, inbox, stop_tx) = (orb.clone(), rx.clone(), stop_tx.clone());
                    let handle = std::thread::Builder::new()
                        .name(format!("{}-pool{}", orb.process(), i))
                        .spawn(move || pool_worker(&orb, &inbox, &stop_tx))
                        .expect("spawn pool worker");
                    guard.handles.push(handle);
                }
                None
            }
            ThreadingPolicy::ThreadPerConnection => {
                Some(spawn_router(orb, rx, Arc::clone(&workers)))
            }
        };
        ServerEngine { router, workers, stop_tx }
    }

    /// Joins the router and every worker. Call after sending
    /// [`Incoming::Stop`] to the inbox.
    pub fn join(&mut self) {
        if let Some(handle) = self.router.take() {
            let _ = handle.join();
        }
        // A request thread may spawn a successor until the stop reaches
        // it, so take handles until none is left.
        loop {
            let handles = std::mem::take(&mut self.workers.lock().handles);
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }

    /// Worker threads currently tracked (live, or finished but not yet
    /// reaped).
    pub fn tracked_workers(&self) -> usize {
        self.workers.lock().handles.len()
    }
}

impl Drop for ServerEngine {
    fn drop(&mut self) {
        // Stop the engine's threads instead of leaking them (harmless after
        // `join`: nothing receives any more), then join them.
        let _ = self.stop_tx.send(Incoming::Stop);
        self.join();
    }
}

/// The request threads of one thread-per-request engine and the inbox they
/// take requests off.
struct Crew {
    orb: Orb,
    inbox: Receiver<Incoming>,
    /// Forwards a received stop to the next thread waiting on the inbox.
    stop_tx: Sender<Incoming>,
    /// Threads waiting on the inbox or on their way to it.
    idle: AtomicUsize,
    /// Threads serving a request: the queue the gate admits against.
    busy: AtomicUsize,
    workers: Arc<Mutex<Workers>>,
}

/// One request thread counted busy; released on drop, so a thread whose
/// servant panics still frees its place.
struct Busy<'a>(&'a AtomicUsize);

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Spawns a request thread, counted idle. The caller holds the workers
/// lock and found the engine running.
fn spawn_request_thread(crew: &Arc<Crew>, workers: &mut Workers) {
    // Request threads that found the inbox fully staffed have exited; reap
    // them so a long-lived engine does not accumulate their handles.
    workers.handles.retain(|handle| !handle.is_finished());
    crew.idle.fetch_add(1, Ordering::AcqRel);
    let thread_crew = Arc::clone(crew);
    let handle = std::thread::Builder::new()
        .name(format!("{}-req", crew.orb.process()))
        .spawn(move || request_thread(&thread_crew))
        .expect("spawn request thread");
    workers.handles.push(handle);
}

/// One request thread: takes requests off the inbox and dispatches them
/// until the stop reaches it or enough threads already wait.
fn request_thread(crew: &Arc<Crew>) {
    let orb = &crew.orb;
    let _worker = orb.gate().worker();
    loop {
        let Ok(Incoming::Request(msg, ticket)) = crew.inbox.recv() else {
            // Stop wins over a park: no successor is spawned from now on,
            // and the next waiting thread gets the stop in turn.
            crew.workers.lock().stopped = true;
            let _ = crew.stop_tx.send(Incoming::Stop);
            return;
        };
        // Took the last idle place: a successor waits while this serves.
        if crew.idle.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut workers = crew.workers.lock();
            if !workers.stopped {
                spawn_request_thread(crew, &mut workers);
            }
        }
        // The queue under thread-per-request IS the set of threads serving
        // a request: shed rather than serve without bound.
        let previous = crew.busy.fetch_add(1, Ordering::AcqRel);
        let busy = Busy(&crew.busy);
        if orb.gate().admits(previous) {
            // O1: the thread is the request's until dispatch returns — the
            // reply is sent and the ticket released by then.
            orb.dispatch(msg, ticket);
            // The next request starts in a fresh thread's state.
            tss::clear();
            drop(busy);
        } else {
            drop(busy);
            orb.shed(msg, ticket);
        }
        // Back to the inbox, unless stopped or enough threads wait there.
        let room = |n| (n < MAX_PARKED).then_some(n + 1);
        if crew.workers.lock().stopped
            || crew.idle.fetch_update(Ordering::AcqRel, Ordering::Acquire, room).is_err()
        {
            return;
        }
    }
}

/// One pool worker: takes requests off the inbox and admits each against
/// the requests still queued behind it, until the stop reaches it; then it
/// forwards the stop to the next worker and exits.
fn pool_worker(orb: &Orb, inbox: &Receiver<Incoming>, stop_tx: &Sender<Incoming>) {
    let _worker = orb.gate().worker();
    while let Ok(Incoming::Request(msg, ticket)) = inbox.recv() {
        if orb.gate().admits(inbox.len()) {
            orb.dispatch(msg, ticket);
        } else {
            orb.shed(msg, ticket);
        }
    }
    let _ = stop_tx.send(Incoming::Stop);
}

/// The per-connection router: the one acceptor left, because it routes each
/// request to its connection's worker. It ends at the stop; dropping its
/// connection queues then ends each worker once it has served what was
/// routed to it.
fn spawn_router(
    orb: Orb,
    rx: Receiver<Incoming>,
    workers: Arc<Mutex<Workers>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("{}-router", orb.process()))
        .spawn(move || {
            let mut conns: HashMap<ConnKey, Sender<(RequestMsg, Ticket)>> = HashMap::new();
            while let Ok(Incoming::Request(msg, ticket)) = rx.recv() {
                let conn = msg.conn;
                // Bounded admission per connection queue (the worker is
                // per connection, so the bound is too).
                if !orb.gate().admits(conns.get(&conn).map_or(0, Sender::len)) {
                    orb.shed(msg, ticket);
                    continue;
                }
                let tx = conns.entry(conn).or_insert_with(|| {
                    let (tx, conn_rx) = unbounded::<(RequestMsg, Ticket)>();
                    let orb = orb.clone();
                    let handle = std::thread::Builder::new()
                        .name(format!("{}-conn{}", orb.process(), conn.0))
                        .spawn(move || {
                            let _worker = orb.gate().worker();
                            while let Ok((msg, ticket)) = conn_rx.recv() {
                                orb.dispatch(msg, ticket);
                            }
                        })
                        .expect("spawn connection worker");
                    workers.lock().handles.push(handle);
                    tx
                });
                let _ = tx.send((msg, ticket));
            }
        })
        .expect("spawn router")
}
