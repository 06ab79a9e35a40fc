//! The paper's Figure-4 state machine, written once.
//!
//! One chain's records, in event-number order, drive a stack of open
//! invocations (frames). A synchronous invocation contributes the pattern
//! `F.stub_start … F.skel_start … (children) … F.skel_end … F.stub_end`; a
//! one-way invocation contributes `F.stub_start F.stub_end` on its parent
//! chain and `F.skel_start … (children) … F.skel_end` at the head of a
//! fresh child chain. When a record follows none of the legal transitions
//! the machine "indicates the failure and restarts from the next log
//! record": it reports an abnormality and carries on.
//!
//! The machine steps on a [`Step`]: the four fields a transition reads
//! (`seq`, `event`, `kind`, `func`) and the consumer's [`Probe`], built once
//! from a record. Two consumers drive it. The off-line tree builder in
//! [`crate::dscg`] keeps each probe's event number, site and stamps in its
//! frames and turns each closed frame into a `CallNode`. The on-line
//! analyzer in [`crate::online`] keeps only wall stamps and turns each
//! closed frame into management events, after re-sequencing the chain's
//! steps itself.
//!
//! # Where a record is out of place
//!
//! * A `skel_start`, `skel_end` or `stub_end` for a function other than the
//!   innermost open call is abnormal and otherwise ignored.
//! * A second `skel_end` on an open skeleton is abnormal; the first stands.
//! * A `stub_end` for the innermost open call whose transition is illegal
//!   (the skeleton never closed, or it ends a one-way chain head)
//!   force-closes that frame: it closes incomplete ([`Close::Forced`]), is
//!   not a completed call, and its caller-side probe spans still count in
//!   its parent's `O_F`, because they ran inside the parent's window.
//! * At end of stream every frame still open is reported as never
//!   completed, innermost first, and closes [`Close::Unfinished`].
//!
//! The machine sees each step it is given. Off-line input is one chain's
//! seq-sorted records, repeats included. The on-line re-sequencer feeds each
//! event number once: it drops a record whose number was already processed,
//! and a second arrival for a buffered number replaces the first.

use crate::latency::{CallStamps, Stamps};
use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::record::{FunctionKey, ProbeRecord};

/// What a consumer keeps of a probe record in a frame.
pub(crate) trait Probe {
    /// Keeps `record`.
    fn of(record: &ProbeRecord) -> Self;
    /// The wall stamps `L(F)` and `O_F` read.
    fn stamps(&self) -> Stamps;
}

impl Probe for Stamps {
    fn of(record: &ProbeRecord) -> Stamps {
        Stamps { wall_start: record.wall_start, wall_end: record.wall_end }
    }

    fn stamps(&self) -> Stamps {
        *self
    }
}

/// What the machine reads of one probe record: the transition's inputs and
/// the consumer's probe, which moves into a frame slot.
#[derive(Debug)]
pub(crate) struct Step<P> {
    pub seq: u64,
    pub event: TraceEvent,
    pub kind: CallKind,
    pub func: FunctionKey,
    pub probe: P,
}

impl<P: Probe> Step<P> {
    /// Reads `record` once.
    pub fn of(record: &ProbeRecord) -> Step<P> {
        Step {
            seq: record.seq,
            event: record.event,
            kind: record.kind,
            func: record.func,
            probe: P::of(record),
        }
    }
}

/// One open invocation: its four probe slots, and what the consumer folds
/// in from its closed children.
#[derive(Debug)]
pub(crate) struct Frame<P, X> {
    pub func: FunctionKey,
    pub kind: CallKind,
    pub stub_start: Option<P>,
    pub skel_start: Option<P>,
    pub skel_end: Option<P>,
    pub stub_end: Option<P>,
    pub children: X,
}

impl<P: Probe, X> Frame<P, X> {
    /// The frame's probes as `L(F)` and `O_F` read them.
    pub fn stamps(&self) -> CallStamps {
        let probes = [&self.stub_start, &self.skel_start, &self.skel_end, &self.stub_end];
        CallStamps::new(self.kind, probes)
    }
}

/// How a frame left the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    /// Every probe arrived in a legal order: a completed call.
    Completed,
    /// The stub side of a one-way call: legal and complete on this chain,
    /// but the call itself completes on its child chain.
    Sent,
    /// An illegal `stub_end` closed it.
    Forced,
    /// The stream ended with it open.
    Unfinished,
}

/// Receives what the machine decides.
pub(crate) trait Consumer<P, X> {
    /// `step` opened a frame: a stub start, or the head of a one-way child
    /// chain.
    fn opened(&mut self, _step: &Step<P>) {}
    /// `frame` left the stack `how`. `parent` is the frame it was nested in
    /// (`None` at top level) and `depth` its nesting depth (0 = top level).
    fn closed(
        &mut self,
        frame: Frame<P, X>,
        how: Close,
        parent: Option<&mut Frame<P, X>>,
        depth: usize,
    );
    /// A record followed no legal transition. `at_seq` is `None` for the
    /// end-of-stream sweep.
    fn abnormal(&mut self, at_seq: Option<u64>, message: String);
}

/// The stack of open invocations on one chain.
#[derive(Debug)]
pub(crate) struct Machine<P, X> {
    stack: Vec<Frame<P, X>>,
}

impl<P, X> Default for Machine<P, X> {
    fn default() -> Self {
        Machine { stack: Vec::new() }
    }
}

impl<P: Probe, X: Default> Machine<P, X> {
    /// Open invocations.
    pub fn open_calls(&self) -> usize {
        self.stack.len()
    }

    /// The innermost open invocation, when any.
    pub fn innermost(&self) -> Option<FunctionKey> {
        self.stack.last().map(|frame| frame.func)
    }

    /// One transition.
    pub fn step(&mut self, step: Step<P>, consumer: &mut impl Consumer<P, X>) {
        let func = step.func;
        let seq = Some(step.seq);
        let idle = self.stack.is_empty();
        let top = self.stack.last_mut().filter(|frame| frame.func == func);
        match step.event {
            TraceEvent::StubStart => self.open(step, consumer),
            TraceEvent::SkelStart => match top {
                Some(frame) if frame.stub_start.is_some() && frame.skel_start.is_none() => {
                    frame.skel_start = Some(step.probe);
                }
                // Head of a one-way child chain.
                None if idle && step.kind == CallKind::Oneway => self.open(step, consumer),
                _ => consumer.abnormal(seq, format!("unexpected skel_start for {func}")),
            },
            TraceEvent::SkelEnd => match top {
                Some(frame) if frame.skel_start.is_some() && frame.skel_end.is_none() => {
                    frame.skel_end = Some(step.probe);
                    // A one-way chain head completes here: no stub_end
                    // will arrive on this chain.
                    if frame.kind == CallKind::Oneway && frame.stub_start.is_none() {
                        self.close(Close::Completed, consumer);
                    }
                }
                Some(_) => {
                    consumer.abnormal(seq, format!("skel_end without open skeleton for {func}"));
                }
                None => consumer.abnormal(seq, format!("unexpected skel_end for {func}")),
            },
            TraceEvent::StubEnd => match top {
                Some(frame) => {
                    let (legal, how) = match frame.kind {
                        // One-way stub side: stub_start then stub_end, no
                        // skeleton events on this chain.
                        CallKind::Oneway => {
                            (frame.stub_start.is_some() && frame.skel_end.is_none(), Close::Sent)
                        }
                        // Synchronous / collocated: the skeleton must have
                        // closed first.
                        _ => (frame.skel_end.is_some(), Close::Completed),
                    };
                    if legal {
                        frame.stub_end = Some(step.probe);
                        self.close(how, consumer);
                    } else {
                        consumer.abnormal(seq, format!("stub_end out of order for {func}"));
                        self.close(Close::Forced, consumer);
                    }
                }
                None => consumer.abnormal(seq, format!("unexpected stub_end for {func}")),
            },
        }
    }

    /// End of stream: every open invocation never completed.
    pub fn finish(&mut self, consumer: &mut impl Consumer<P, X>) {
        while let Some(frame) = self.stack.last() {
            consumer.abnormal(None, format!("invocation {} never completed", frame.func));
            self.close(Close::Unfinished, consumer);
        }
    }

    /// Pushes the frame `step` opens: at its stub start, or else at its
    /// skeleton start (a one-way chain head).
    fn open(&mut self, step: Step<P>, consumer: &mut impl Consumer<P, X>) {
        consumer.opened(&step);
        let (stub_start, skel_start) = match step.event {
            TraceEvent::StubStart => (Some(step.probe), None),
            _ => (None, Some(step.probe)),
        };
        self.stack.push(Frame {
            func: step.func,
            kind: step.kind,
            stub_start,
            skel_start,
            skel_end: None,
            stub_end: None,
            children: X::default(),
        });
    }

    fn close(&mut self, how: Close, consumer: &mut impl Consumer<P, X>) {
        let frame = self.stack.pop().expect("a frame is open");
        let depth = self.stack.len();
        consumer.closed(frame, how, self.stack.last_mut(), depth);
    }
}
