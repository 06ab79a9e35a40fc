//! Probe records — the unit of monitoring data.
//!
//! Each probe activation produces exactly one [`ProbeRecord`], written to the
//! local per-thread buffer with no coordination and no global clock. The
//! record carries the FTL state (UUID + event number), which event fired,
//! where (node/process/thread), on which function, and the probe's own
//! start/end stamps — the paper's formulas need both stamps because the
//! probe's own duration is compensated for in `O_F`.

use crate::event::{CallKind, TraceEvent};
use crate::ids::{InterfaceId, LogicalThreadId, MethodIndex, NodeId, ObjectId, ProcessId};
use crate::uuid::Uuid;
use std::fmt;

/// Identifies *which function on which object* an invocation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionKey {
    /// The IDL interface the method belongs to.
    pub interface: InterfaceId,
    /// The method's declaration index within the interface.
    pub method: MethodIndex,
    /// The target component object instance.
    pub object: ObjectId,
}

impl FunctionKey {
    /// Creates a function key.
    pub fn new(interface: InterfaceId, method: MethodIndex, object: ObjectId) -> FunctionKey {
        FunctionKey { interface, method, object }
    }

    /// The (interface, method) pair, ignoring the object — the unit the
    /// CCSG aggregates over together with the object.
    pub fn method_key(&self) -> (InterfaceId, MethodIndex) {
        (self.interface, self.method)
    }
}

impl fmt::Display for FunctionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}@{}", self.interface, self.method, self.object)
    }
}

/// Where a probe fired: processor, process and logical thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallSite {
    /// The processor (node) hosting the process.
    pub node: NodeId,
    /// The process the probe ran in.
    pub process: ProcessId,
    /// The process-local logical thread the probe ran on.
    pub thread: LogicalThreadId,
}

impl fmt::Display for CallSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.node, self.process, self.thread)
    }
}

/// One probe activation.
///
/// `wall_*` stamps are present only when latency probing is enabled and
/// `cpu_*` only when CPU probing is enabled — per the paper, the two are not
/// activated simultaneously by default to reduce interference, but causality
/// (uuid/seq/event) is *always* captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeRecord {
    /// The causal chain this event belongs to.
    pub uuid: Uuid,
    /// The event number issued on that chain for this event.
    pub seq: u64,
    /// Which of the four probes fired.
    pub event: TraceEvent,
    /// The invocation flavor.
    pub kind: CallKind,
    /// Where the probe fired.
    pub site: CallSite,
    /// The invoked function.
    pub func: FunctionKey,
    /// Wall stamp when the probe began, ns (latency mode only).
    pub wall_start: Option<u64>,
    /// Wall stamp when the probe finished, ns (latency mode only).
    pub wall_end: Option<u64>,
    /// Calling thread's CPU counter when the probe began, ns (CPU mode only).
    pub cpu_start: Option<u64>,
    /// Calling thread's CPU counter when the probe finished, ns (CPU mode only).
    pub cpu_end: Option<u64>,
    /// On the `StubStart` of a one-way call: the fresh chain spawned for the
    /// callee side ("such a parent/child chain relationship is recorded in
    /// the stub start probes of the one-way function calls").
    pub oneway_child: Option<Uuid>,
    /// On the `SkelStart` of a one-way call: the parent chain and the event
    /// number at the fork, recorded redundantly for robust grafting.
    pub oneway_parent: Option<(Uuid, u64)>,
}

impl ProbeRecord {
    /// The probe's own duration on the wall clock, when latency was probed.
    pub fn wall_span(&self) -> Option<u64> {
        Some(self.wall_end?.saturating_sub(self.wall_start?))
    }

    /// The probe's own CPU cost, when CPU was probed.
    pub fn cpu_span(&self) -> Option<u64> {
        Some(self.cpu_end?.saturating_sub(self.cpu_start?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(1),
            seq: 1,
            event: TraceEvent::StubStart,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(0),
                thread: LogicalThreadId(0),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(0)),
            wall_start: Some(100),
            wall_end: Some(150),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    #[test]
    fn spans_subtract_stamps() {
        let r = sample();
        assert_eq!(r.wall_span(), Some(50));
        assert_eq!(r.cpu_span(), None);
    }

    #[test]
    fn spans_are_none_without_stamps() {
        let mut r = sample();
        r.wall_end = None;
        assert_eq!(r.wall_span(), None);
    }

    #[test]
    fn span_saturates_on_clock_skew() {
        let mut r = sample();
        r.wall_start = Some(200);
        r.wall_end = Some(150);
        assert_eq!(r.wall_span(), Some(0));
    }

    #[test]
    fn display_of_keys() {
        let r = sample();
        assert_eq!(r.func.to_string(), "if0.m0@obj0");
        assert_eq!(r.site.to_string(), "node0/proc0/thr0");
    }
}
