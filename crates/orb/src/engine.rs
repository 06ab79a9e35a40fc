//! Server engines: the multithreading architectures of Schmidt's ORB survey
//! that §2.2 of the paper proves causality tracing robust against.
//!
//! All three policies preserve observation O1 — a physical thread is
//! dedicated to an incoming call until that call finishes — which, together
//! with O2 (the skeleton-start probe refreshes the thread's FTL on every
//! dispatch), is why the tunnel survives thread reuse.
//!
//! Thread-per-request dedicates a thread to each request but does not spawn
//! one per request: a request thread whose dispatch has returned clears its
//! thread-specific storage and parks in a [`ParkLot`] (at most
//! [`MAX_PARKED`](causeway_core::park::MAX_PARKED) per engine; the rest
//! exit), and the acceptor hands the next request to a parked thread,
//! spawning only when none waits. Reuse is safe for the same reasons it is
//! under a pool — O1 and O2 — plus the cleared storage, which starts every
//! request in a fresh thread's state: a skeleton that installs no FTL (an
//! interceptor-traced request that carried none) finds no stale chain to
//! extend. Concurrency stays bounded only by the gate, which counts the
//! threads serving a request, not the parked ones.
//!
//! Admission, in-flight accounting and the dispatch bracket belong to the
//! system's [`causeway_core::engine::Gate`]: every policy asks the gate
//! whether its queue (for thread-per-request, its request threads serving
//! a request) admits one more request, and re-stamps the request's ticket
//! when it hands the request to a worker, so `causeway_engine_queue_wait_ns`
//! measures the wait for a worker. A worker's records are visible to a
//! drain as soon as it pushes them, so no policy seals or flushes anything:
//! a request stops counting as in flight after its last record is pushed
//! (the gate's dispatch guard, see [`crate::orb::Orb`]), and a parked
//! worker holds no records back.

use crate::orb::Orb;
use crate::transport::{ConnKey, Incoming, RequestMsg};
use causeway_core::engine::Ticket;
use causeway_core::park::ParkLot;
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
    /// ends; finished request threads park for reuse (module docs).
    #[default]
    ThreadPerRequest,
    /// A fixed pool of worker threads sharing the request queue.
    ThreadPool(usize),
    /// One dedicated worker per client connection, spawned on first use.
    ThreadPerConnection,
}

/// The running server side of one process.
#[derive(Debug)]
pub struct ServerEngine {
    acceptor: Option<JoinHandle<()>>,
    /// Joined at stop; per-request and per-connection threads keep their
    /// handles here (handles of request threads that exited are reaped as
    /// new requests arrive, so the list stays bounded by live threads).
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Lets `Drop` signal the inbox so the acceptor and its workers exit
    /// even when nobody sent [`Incoming::Stop`] explicitly.
    stop_tx: Sender<Incoming>,
}

impl ServerEngine {
    /// Starts an engine consuming `rx` under `policy`. `stop_tx` must feed
    /// the same inbox as `rx`; the engine uses it to stop itself when
    /// dropped without an explicit [`Incoming::Stop`].
    pub fn start(
        orb: Orb,
        rx: Receiver<Incoming>,
        stop_tx: Sender<Incoming>,
        policy: ThreadingPolicy,
    ) -> ServerEngine {
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = match policy {
            ThreadingPolicy::ThreadPerRequest => spawn_per_request(orb, rx, Arc::clone(&workers)),
            ThreadingPolicy::ThreadPool(size) => spawn_pool(orb, rx, size, Arc::clone(&workers)),
            ThreadingPolicy::ThreadPerConnection => {
                spawn_per_connection(orb, rx, Arc::clone(&workers))
            }
        };
        ServerEngine { acceptor: Some(acceptor), workers, stop_tx }
    }

    /// Joins the acceptor and every worker. Call after sending
    /// [`Incoming::Stop`] to the inbox.
    pub fn join(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Worker threads currently tracked (live, or finished but not yet
    /// reaped).
    pub fn tracked_workers(&self) -> usize {
        self.workers.lock().len()
    }
}

impl Drop for ServerEngine {
    fn drop(&mut self) {
        // If `join` already ran the acceptor is gone and workers were
        // joined; otherwise signal the inbox so the engine's threads wind
        // down instead of leaking, then join them.
        if self.acceptor.is_some() {
            let _ = self.stop_tx.send(Incoming::Stop);
        }
        self.join();
    }
}

/// Joins and removes finished handles, keeping the tracked set bounded by
/// the number of *live* threads.
fn reap_finished(workers: &Mutex<Vec<JoinHandle<()>>>) {
    let mut guard = workers.lock();
    let mut i = 0;
    while i < guard.len() {
        if guard[i].is_finished() {
            let handle = guard.swap_remove(i);
            let _ = handle.join();
        } else {
            i += 1;
        }
    }
}

/// A pooled or per-connection worker: dispatches requests until it receives
/// [`Incoming::Stop`] or its queue closes.
fn serve(orb: Orb, rx: Receiver<Incoming>) {
    let _worker = orb.gate().worker();
    while let Ok(Incoming::Request(msg, ticket)) = rx.recv() {
        orb.dispatch(msg, ticket);
    }
}

/// A request on its way to a request thread, holding its place in the
/// engine's busy count.
type Job = (RequestMsg, Ticket, Busy);

/// One request thread counted busy; released on drop, so a thread whose
/// servant panics still frees its place.
struct Busy(Arc<AtomicUsize>);

impl Busy {
    fn new(count: &Arc<AtomicUsize>) -> Busy {
        count.fetch_add(1, Ordering::AcqRel);
        Busy(Arc::clone(count))
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One request thread: dispatches `job`, then parks for the next request
/// until the lot stops or is full.
fn request_thread(orb: Orb, lot: &ParkLot<Job>, mut job: Job) {
    let _worker = orb.gate().worker();
    loop {
        let (msg, ticket, busy) = job;
        // O1: the thread is the request's until dispatch returns — the
        // reply is sent and the ticket released by then.
        orb.dispatch(msg, ticket);
        // The next request starts in a fresh thread's state.
        tss::clear();
        drop(busy);
        let Some(next) = lot.park() else {
            return;
        };
        match next.recv() {
            Ok(handed) => job = handed,
            Err(_) => return,
        }
    }
}

fn spawn_per_request(
    orb: Orb,
    rx: Receiver<Incoming>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("{}-acceptor", orb.process()))
        .spawn(move || {
            let lot = Arc::new(ParkLot::<Job>::new());
            let busy = Arc::new(AtomicUsize::new(0));
            while let Ok(Incoming::Request(msg, mut ticket)) = rx.recv() {
                // Request threads that found the lot full have exited;
                // reap them so a long-lived engine does not accumulate one
                // dead handle per such thread.
                reap_finished(&workers);
                // The queue under thread-per-request IS the set of threads
                // serving a request: shed rather than spawn without bound.
                if !orb.gate().admits(busy.load(Ordering::Acquire)) {
                    orb.shed(msg, ticket);
                    continue;
                }
                // Queue wait under thread-per-request is the hand-off (or
                // spawn) cost: stamp here, observe when the thread runs.
                ticket.restamp();
                let Err(job) = lot.hand_off((msg, ticket, Busy::new(&busy))) else {
                    continue;
                };
                let orb = orb.clone();
                let lot = Arc::clone(&lot);
                let handle = std::thread::Builder::new()
                    .name(format!("{}-req", orb.process()))
                    .spawn(move || request_thread(orb, &lot, job))
                    .expect("spawn request thread");
                workers.lock().push(handle);
            }
            // Stop wins over park: a thread still serving exits when it
            // finishes, and the parked ones are released now.
            lot.stop();
        })
        .expect("spawn acceptor")
}

fn spawn_pool(
    orb: Orb,
    rx: Receiver<Incoming>,
    size: usize,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> JoinHandle<()> {
    let size = size.max(1);
    let (work_tx, work_rx) = unbounded::<Incoming>();
    {
        let mut guard = workers.lock();
        for i in 0..size {
            let orb = orb.clone();
            let work_rx = work_rx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("{}-pool{}", orb.process(), i))
                .spawn(move || serve(orb, work_rx))
                .expect("spawn pool worker");
            guard.push(handle);
        }
    }
    std::thread::Builder::new()
        .name(format!("{}-acceptor", orb.process()))
        .spawn(move || {
            while let Ok(incoming) = rx.recv() {
                match incoming {
                    Incoming::Request(msg, mut ticket) => {
                        // Bounded admission: a full worker queue sheds the
                        // request with an overload reply instead of letting
                        // an arrival burst grow the queue without bound.
                        if !orb.gate().admits(work_tx.len()) {
                            orb.shed(msg, ticket);
                            continue;
                        }
                        ticket.restamp();
                        if work_tx.send(Incoming::Request(msg, ticket)).is_err() {
                            break;
                        }
                    }
                    Incoming::Stop => {
                        for _ in 0..size {
                            let _ = work_tx.send(Incoming::Stop);
                        }
                        break;
                    }
                }
            }
        })
        .expect("spawn acceptor")
}

fn spawn_per_connection(
    orb: Orb,
    rx: Receiver<Incoming>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("{}-acceptor", orb.process()))
        .spawn(move || {
            let mut conns: HashMap<ConnKey, Sender<Incoming>> = HashMap::new();
            while let Ok(incoming) = rx.recv() {
                match incoming {
                    Incoming::Request(msg, mut ticket) => {
                        let conn = msg.conn;
                        // Bounded admission per connection queue (the
                        // worker is per connection, so the bound is too).
                        if !orb.gate().admits(conns.get(&conn).map_or(0, Sender::len)) {
                            orb.shed(msg, ticket);
                            continue;
                        }
                        let tx = conns.entry(conn).or_insert_with(|| {
                            let (tx, conn_rx) = unbounded::<Incoming>();
                            let orb = orb.clone();
                            let handle = std::thread::Builder::new()
                                .name(format!("{}-conn{}", orb.process(), conn.0))
                                .spawn(move || serve(orb, conn_rx))
                                .expect("spawn connection worker");
                            workers.lock().push(handle);
                            tx
                        });
                        ticket.restamp();
                        let _ = tx.send(Incoming::Request(msg, ticket));
                    }
                    Incoming::Stop => {
                        for tx in conns.values() {
                            let _ = tx.send(Incoming::Stop);
                        }
                        break;
                    }
                }
            }
        })
        .expect("spawn acceptor")
}
