//! Transport fabric: message passing between simulated processes.
//!
//! Each process owns an inbox; requests are real messages whose argument
//! payloads are marshalled bytes. Crossing the fabric genuinely loses all
//! thread context — the only causality that survives is what the
//! instrumented stub appended to the payload. A [`LatencyModel`] can inject
//! per-link network delay so that remote calls cost more than collocated
//! ones, as on the paper's multi-machine testbeds.

use crate::interceptor::ServiceContexts;
use causeway_core::engine::Ticket;
use causeway_core::ids::{InterfaceId, MethodIndex, ObjectId, ProcessId};
use causeway_core::sync::RwLock;
use crossbeam::channel::{Receiver, Sender, unbounded};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Identifies a client connection for thread-per-connection dispatching:
/// one connection per client process, as with one TCP connection per peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnKey(pub ProcessId);

/// A request message.
#[derive(Debug, Clone)]
pub struct RequestMsg {
    /// The originating connection.
    pub conn: ConnKey,
    /// Target object.
    pub target: ObjectId,
    /// Target interface (for dispatch validation).
    pub interface: InterfaceId,
    /// Method declaration index.
    pub method: MethodIndex,
    /// `true` for one-way requests: no reply will be sent.
    pub oneway: bool,
    /// Marshalled arguments (with the hidden FTL appended when the system is
    /// instrumented).
    pub payload: Vec<u8>,
    /// Service contexts attached by client interceptors.
    pub contexts: ServiceContexts,
    /// Where to send the reply (absent for one-way requests).
    pub reply: Option<Sender<ReplyMsg>>,
    /// Network delay the server should model before dispatching (used for
    /// one-way requests, whose callers do not wait).
    pub net_delay: Duration,
}

/// A reply message.
#[derive(Debug, Clone)]
pub struct ReplyMsg {
    /// Marshalled result (with the hidden FTL appended when instrumented),
    /// or a runtime-level failure rendered as a string.
    pub body: Result<Vec<u8>, String>,
    /// Service contexts attached by server interceptors on the reply path.
    pub contexts: ServiceContexts,
}

/// What a server engine receives.
#[derive(Debug)]
pub enum Incoming {
    /// A request to dispatch, with the ticket that counts it in flight in
    /// the system's gate until it is dispatched or dropped.
    Request(RequestMsg, Ticket),
    /// Orderly shutdown.
    Stop,
}

/// Per-link network delay model.
#[derive(Debug, Default)]
pub struct LatencyModel {
    default: Duration,
    overrides: HashMap<(ProcessId, ProcessId), Duration>,
}

impl LatencyModel {
    /// One-way delay between two processes.
    pub fn delay(&self, from: ProcessId, to: ProcessId) -> Duration {
        if from == to {
            return Duration::ZERO;
        }
        self.overrides.get(&(from, to)).copied().unwrap_or(self.default)
    }
}

#[derive(Debug, Default)]
struct FabricInner {
    inboxes: RwLock<HashMap<ProcessId, Sender<Incoming>>>,
    latency: RwLock<LatencyModel>,
}

/// The shared message fabric. Cloning shares state.
#[derive(Debug, Clone, Default)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Fabric {
        Fabric::default()
    }

    /// Creates an inbox for `process`, returning its receiving end.
    pub fn register(&self, process: ProcessId) -> Receiver<Incoming> {
        let (tx, rx) = unbounded();
        self.inner.inboxes.write().insert(process, tx);
        rx
    }

    /// Removes a process's inbox (tear-down).
    pub fn unregister(&self, process: ProcessId) {
        self.inner.inboxes.write().remove(&process);
    }

    /// The sending end of a registered process's inbox, e.g. for a server
    /// engine to signal itself to stop.
    pub fn sender(&self, process: ProcessId) -> Option<Sender<Incoming>> {
        self.inner.inboxes.read().get(&process).cloned()
    }

    /// Sends a message to a process's inbox.
    ///
    /// # Errors
    ///
    /// Returns the display name of the problem when the process has no
    /// inbox or its engine has stopped.
    pub fn send(&self, to: ProcessId, msg: Incoming) -> Result<(), String> {
        let inboxes = self.inner.inboxes.read();
        let tx = inboxes
            .get(&to)
            .ok_or_else(|| format!("{to} has no transport endpoint"))?;
        tx.send(msg).map_err(|_| format!("{to} engine stopped"))
    }

    /// Sets the default one-way network delay between distinct processes.
    pub fn set_default_delay(&self, delay: Duration) {
        self.inner.latency.write().default = delay;
    }

    /// Overrides the one-way delay for a specific directed link.
    pub fn set_link_delay(&self, from: ProcessId, to: ProcessId, delay: Duration) {
        self.inner.latency.write().overrides.insert((from, to), delay);
    }

    /// The modelled one-way delay between two processes.
    pub fn delay(&self, from: ProcessId, to: ProcessId) -> Duration {
        self.inner.latency.read().delay(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_send() {
        let fabric = Fabric::new();
        let rx = fabric.register(ProcessId(1));
        fabric.send(ProcessId(1), Incoming::Stop).unwrap();
        assert!(matches!(rx.recv().unwrap(), Incoming::Stop));
    }

    #[test]
    fn send_to_unknown_process_fails() {
        let fabric = Fabric::new();
        let err = fabric.send(ProcessId(9), Incoming::Stop).unwrap_err();
        assert!(err.contains("no transport endpoint"));
    }

    #[test]
    fn send_after_unregister_fails() {
        let fabric = Fabric::new();
        let _rx = fabric.register(ProcessId(1));
        fabric.unregister(ProcessId(1));
        assert!(fabric.send(ProcessId(1), Incoming::Stop).is_err());
    }

    #[test]
    fn latency_model_defaults_and_overrides() {
        let fabric = Fabric::new();
        let (a, b, c) = (ProcessId(0), ProcessId(1), ProcessId(2));
        assert_eq!(fabric.delay(a, b), Duration::ZERO);
        fabric.set_default_delay(Duration::from_micros(50));
        assert_eq!(fabric.delay(a, b), Duration::from_micros(50));
        fabric.set_link_delay(a, c, Duration::from_micros(200));
        assert_eq!(fabric.delay(a, c), Duration::from_micros(200));
        assert_eq!(fabric.delay(c, a), Duration::from_micros(50), "directed");
        assert_eq!(fabric.delay(a, a), Duration::ZERO, "loopback is free");
    }
}
