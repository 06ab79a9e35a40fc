//! Apartments and the message pump.
//!
//! * **STA** — one dedicated thread serving a message queue. While an STA
//!   thread waits for the reply of an *outbound* call, it pumps its queue
//!   and dispatches other incoming calls (reentrancy). This violates the
//!   paper's observation O1 and is what makes COM hostile to naive
//!   causality tracing.
//! * **MTA** — a pool of worker threads; workers block on outbound calls,
//!   so O1 holds as in the ORB.

use crate::hook::Extensions;
use causeway_core::engine::Ticket;
use causeway_core::ids::{InterfaceId, MethodIndex, ObjectId};
use crossbeam::channel::{Receiver, Sender};
use std::cell::RefCell;
use std::fmt;

/// Identifies an apartment within a COM domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApartmentId(pub u32);

impl fmt::Display for ApartmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "apt{}", self.0)
    }
}

/// The apartment threading model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApartmentKind {
    /// Single-threaded apartment: one thread, message loop, reentrant
    /// dispatch while blocked on outbound calls.
    Sta,
    /// Multi-threaded apartment with the given pool size; workers block on
    /// outbound calls (no reentrancy).
    Mta(usize),
}

/// An ORPC request message.
#[derive(Debug)]
pub struct OrpcMsg {
    /// Target object.
    pub target: ObjectId,
    /// Target interface.
    pub interface: InterfaceId,
    /// Method declaration index.
    pub method: MethodIndex,
    /// Marshalled arguments.
    pub payload: Vec<u8>,
    /// Extension headers (the FTL rides here via the channel hook).
    pub extensions: Extensions,
    /// Where the reply goes; `None` for posted (fire-and-forget) calls.
    pub reply: Option<Sender<OrpcReply>>,
    /// Counts the call in flight in the domain's gate until the message is
    /// dropped; stamped at enqueue for
    /// `causeway_engine_queue_wait_ns{engine="com"}`.
    pub ticket: Ticket,
}

/// An ORPC reply message.
#[derive(Debug)]
pub struct OrpcReply {
    /// Marshalled result, or (exception, message) for application errors,
    /// or a runtime failure string.
    pub body: Result<Result<Vec<u8>, (String, String)>, String>,
    /// Extension headers on the return path.
    pub extensions: Extensions,
}

/// What an apartment's queue carries.
#[derive(Debug)]
pub enum AptIncoming {
    /// A call to dispatch.
    Call(OrpcMsg),
    /// Orderly shutdown.
    Stop,
}

thread_local! {
    /// Set while the current thread is an STA thread: its own queue receiver
    /// (for pumping during outbound waits) and its own sender (to re-post a
    /// Stop drained mid-pump).
    static STA_PUMP: RefCell<Option<(Receiver<AptIncoming>, Sender<AptIncoming>)>> =
        const { RefCell::new(None) };
}

/// Marks the current thread as an STA thread. Returns a guard that clears
/// the mark on drop.
pub(crate) fn enter_sta(rx: Receiver<AptIncoming>, tx: Sender<AptIncoming>) -> StaGuard {
    STA_PUMP.with(|p| *p.borrow_mut() = Some((rx, tx)));
    StaGuard
}

/// Clears the STA mark on drop.
pub(crate) struct StaGuard;

impl Drop for StaGuard {
    fn drop(&mut self) {
        STA_PUMP.with(|p| *p.borrow_mut() = None);
    }
}

/// The current thread's pump, when it is an STA thread.
pub(crate) fn current_pump() -> Option<(Receiver<AptIncoming>, Sender<AptIncoming>)> {
    STA_PUMP.with(|p| p.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn sta_mark_is_scoped_and_thread_local() {
        assert!(current_pump().is_none());
        let (tx, rx) = unbounded();
        {
            let _guard = enter_sta(rx, tx);
            assert!(current_pump().is_some());
            let other = std::thread::spawn(|| current_pump().is_none())
                .join()
                .unwrap();
            assert!(other, "other threads are not STA threads");
        }
        assert!(current_pump().is_none(), "guard clears the mark");
    }
}
