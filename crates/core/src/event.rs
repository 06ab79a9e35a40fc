//! Tracing events and invocation kinds.

use std::fmt;

/// The four tracing events of the paper, one per probe of Figure 1.
///
/// Events are recorded in this chronological order along a synchronous
/// invocation path, and the *event chaining patterns* over a whole log
/// (Table 1) are what let the analyzer distinguish sibling calls from
/// parent/child (nested) calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceEvent {
    /// Probe 1 — start of the stub, right after the client invokes the
    /// function.
    StubStart,
    /// Probe 2 — beginning of the skeleton, when the invocation request
    /// reaches the server side.
    SkelStart,
    /// Probe 3 — end of the skeleton, when the function implementation
    /// concludes.
    SkelEnd,
    /// Probe 4 — end of the stub, when the response is ready to return to
    /// the client.
    StubEnd,
}

impl TraceEvent {
    /// The probe number (1–4) used in the paper's formulas.
    pub fn probe_number(self) -> u8 {
        match self {
            TraceEvent::StubStart => 1,
            TraceEvent::SkelStart => 2,
            TraceEvent::SkelEnd => 3,
            TraceEvent::StubEnd => 4,
        }
    }

    /// `true` for the client-side (stub) probes 1 and 4.
    pub fn is_stub_side(self) -> bool {
        matches!(self, TraceEvent::StubStart | TraceEvent::StubEnd)
    }

    /// `true` for the server-side (skeleton) probes 2 and 3.
    pub fn is_skel_side(self) -> bool {
        !self.is_stub_side()
    }

    /// All four events in chronological order along one invocation.
    pub const ALL: [TraceEvent; 4] = [
        TraceEvent::StubStart,
        TraceEvent::SkelStart,
        TraceEvent::SkelEnd,
        TraceEvent::StubEnd,
    ];
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceEvent::StubStart => "stub_start",
            TraceEvent::SkelStart => "skel_start",
            TraceEvent::SkelEnd => "skel_end",
            TraceEvent::StubEnd => "stub_end",
        })
    }
}

/// The flavor of a component-object invocation (Section 2.2 of the paper).
///
/// The discriminants are the kind's one-byte tag in the binary record
/// format and the exemplar spill ([`CallKind::tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// Ordinary synchronous remote invocation: the caller blocks until the
    /// reply arrives. All four probes fire, 1 and 4 on the caller thread,
    /// 2 and 3 on a server thread.
    Sync = 0,
    /// One-way (asynchronous) invocation: the caller does not wait.
    /// Dispatching *spurs a fresh causality chain* in the callee; the stub
    /// start probe records the parent/child chain link.
    Oneway = 1,
    /// In-process invocation with collocation optimization: the stub locates
    /// the servant directly and the stub/skeleton start (end) probes
    /// degenerate into a single start (end) probe on the caller thread.
    Collocated = 2,
    /// Custom-marshalled (marshal-by-value) invocation: the object state is
    /// transferred and the call executes in the *client's* thread context,
    /// turning a remote call into a collocated one.
    CustomMarshal = 3,
}

impl CallKind {
    /// All four kinds, in tag order.
    pub const ALL: [CallKind; 4] =
        [CallKind::Sync, CallKind::Oneway, CallKind::Collocated, CallKind::CustomMarshal];

    /// The kind's one-byte tag in the binary encodings (0–3).
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The kind a [`CallKind::tag`] byte names; `None` for any other byte.
    pub fn from_tag(tag: u8) -> Option<CallKind> {
        CallKind::ALL.get(usize::from(tag)).copied()
    }

    /// `true` when the invocation executes entirely in the caller's thread.
    pub fn runs_in_caller_thread(self) -> bool {
        matches!(self, CallKind::Collocated | CallKind::CustomMarshal)
    }

    /// The probe set `R(F)` whose overhead is charged to the *caller's*
    /// latency window in the paper's `O_F` formula: `{1,2,3,4}` for
    /// synchronous (and collocated) calls, `{1,4}` for one-way calls whose
    /// skeleton side runs elsewhere.
    pub fn caller_side_probes(self) -> &'static [TraceEvent] {
        match self {
            CallKind::Sync | CallKind::Collocated | CallKind::CustomMarshal => &TraceEvent::ALL,
            CallKind::Oneway => &[TraceEvent::StubStart, TraceEvent::StubEnd],
        }
    }
}

impl fmt::Display for CallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CallKind::Sync => "sync",
            CallKind::Oneway => "oneway",
            CallKind::Collocated => "collocated",
            CallKind::CustomMarshal => "custom_marshal",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_numbers_match_figure_1() {
        assert_eq!(TraceEvent::StubStart.probe_number(), 1);
        assert_eq!(TraceEvent::SkelStart.probe_number(), 2);
        assert_eq!(TraceEvent::SkelEnd.probe_number(), 3);
        assert_eq!(TraceEvent::StubEnd.probe_number(), 4);
    }

    #[test]
    fn stub_and_skel_sides_partition_the_events() {
        let stub: Vec<_> = TraceEvent::ALL.iter().filter(|e| e.is_stub_side()).collect();
        let skel: Vec<_> = TraceEvent::ALL.iter().filter(|e| e.is_skel_side()).collect();
        assert_eq!(stub.len(), 2);
        assert_eq!(skel.len(), 2);
    }

    #[test]
    fn oneway_charges_only_stub_probes() {
        assert_eq!(CallKind::Oneway.caller_side_probes().len(), 2);
        assert_eq!(CallKind::Sync.caller_side_probes().len(), 4);
        assert_eq!(CallKind::Collocated.caller_side_probes().len(), 4);
    }

    #[test]
    fn caller_thread_kinds() {
        assert!(CallKind::Collocated.runs_in_caller_thread());
        assert!(CallKind::CustomMarshal.runs_in_caller_thread());
        assert!(!CallKind::Sync.runs_in_caller_thread());
        assert!(!CallKind::Oneway.runs_in_caller_thread());
    }

    #[test]
    fn kind_tags_round_trip_in_declaration_order() {
        for (tag, kind) in CallKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.tag(), tag as u8);
            assert_eq!(CallKind::from_tag(tag as u8), Some(kind));
        }
        assert_eq!(CallKind::from_tag(4), None);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(TraceEvent::SkelStart.to_string(), "skel_start");
        assert_eq!(CallKind::CustomMarshal.to_string(), "custom_marshal");
    }
}
