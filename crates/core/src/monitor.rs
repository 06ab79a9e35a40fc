//! The four probes of Figure 1, packaged as a per-process [`Monitor`].
//!
//! The runtime substrates (`causeway-orb`, `causeway-com`) call these probes
//! from their generated stubs and skeletons. The probes:
//!
//! 1. maintain the FTL — mint a chain at the root, increment the event
//!    number at every event, move the FTL between thread-specific storage
//!    and the wire;
//! 2. record a [`ProbeRecord`] with the probe's own start/end stamps (wall
//!    and/or per-thread CPU depending on the [`ProbeMode`]);
//! 3. charge their own execution to the thread's CPU counter, so that probe
//!    interference is *visible* in the CPU data exactly as it was on the
//!    paper's HP-UX counters (this is what the accuracy experiments
//!    quantify).
//!
//! Event-number discipline (matters for the analyzer's state machine): each
//! probe increments the chain's sequence number once and records the new
//! value. A synchronous call `F` therefore logs
//! `F.stub_start(k) … F.skel_start(k+1) … F.skel_end(n) … F.stub_end(n+1)`
//! with all child events strictly inside `(k+1, n)`. There is exactly one
//! locus of control per chain, so the numbering is dense and totally ordered
//! without any clock synchronization.

use crate::clock::{CpuClock, SystemClock, VirtualCpuClock, WallClock};
use crate::event::{CallKind, TraceEvent};
use crate::ftl::FunctionTxLog;
use crate::ids::{InterfaceId, NodeId, ProcessId};
use crate::record::{CallSite, FunctionKey, ProbeRecord};
use crate::sink::LogStore;
use crate::tss;
use crate::uuid::Uuid;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Which behavior aspects the probes record.
///
/// Per the paper, "to reduce interference, latency and CPU utilization
/// probes are not activated simultaneously. However, they always perform
/// causality capture." [`ProbeMode::Both`] is provided as an extension for
/// users who accept the interference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeMode {
    /// Record only causality (uuid / seq / event) — no stamps.
    CausalityOnly,
    /// Record causality + wall-clock stamps.
    #[default]
    Latency,
    /// Record causality + per-thread CPU stamps.
    Cpu,
    /// Record causality + both stamp families (extension; adds interference).
    Both,
}

impl ProbeMode {
    /// All modes, ordered by [`ProbeMode::rank`].
    pub const ALL: [ProbeMode; 4] =
        [ProbeMode::CausalityOnly, ProbeMode::Latency, ProbeMode::Cpu, ProbeMode::Both];

    /// `true` when wall stamps are recorded.
    pub fn wall(self) -> bool {
        matches!(self, ProbeMode::Latency | ProbeMode::Both)
    }

    /// `true` when CPU stamps are recorded.
    pub fn cpu(self) -> bool {
        matches!(self, ProbeMode::Cpu | ProbeMode::Both)
    }

    /// Observation-intensity rank (`CausalityOnly` < `Latency` < `Cpu` <
    /// `Both`). The control plane uses this to take the most observant of
    /// several concurrent escalation holds.
    pub fn rank(self) -> u8 {
        match self {
            ProbeMode::CausalityOnly => 0,
            ProbeMode::Latency => 1,
            ProbeMode::Cpu => 2,
            ProbeMode::Both => 3,
        }
    }

    /// The canonical name, as accepted by [`ProbeMode::from_str`].
    pub fn name(self) -> &'static str {
        match self {
            ProbeMode::CausalityOnly => "causality-only",
            ProbeMode::Latency => "latency",
            ProbeMode::Cpu => "cpu",
            ProbeMode::Both => "both",
        }
    }
}

impl fmt::Display for ProbeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`ProbeMode`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProbeModeError(String);

impl fmt::Display for ParseProbeModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown probe mode {:?} (expected causality-only, latency, cpu, or both)",
            self.0
        )
    }
}

impl std::error::Error for ParseProbeModeError {}

impl FromStr for ProbeMode {
    type Err = ParseProbeModeError;

    /// Parses a mode name. Case-insensitive; accepts the canonical
    /// kebab-case names plus `causality` / `causality_only` as aliases.
    fn from_str(s: &str) -> Result<ProbeMode, ParseProbeModeError> {
        match s.to_ascii_lowercase().as_str() {
            "causality-only" | "causality_only" | "causality" => Ok(ProbeMode::CausalityOnly),
            "latency" => Ok(ProbeMode::Latency),
            "cpu" => Ok(ProbeMode::Cpu),
            "both" => Ok(ProbeMode::Both),
            _ => Err(ParseProbeModeError(s.to_string())),
        }
    }
}

/// One probe-mode override: pin `interface` to `mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeDirective {
    /// The interface whose probes are overridden.
    pub interface: InterfaceId,
    /// The mode its probes run at while the override stands.
    pub mode: ProbeMode,
}

/// Number of direct-indexed override slots in a [`ProbePolicy`]. Interfaces
/// with ids past this stay at the base mode (vocabularies in this codebase
/// are tens of interfaces; the slack is for generated workloads).
pub const PROBE_OVERRIDE_SLOTS: usize = 1024;

/// No-override sentinel in a policy slot; occupied slots hold `rank + 1`.
const SLOT_EMPTY: u8 = 0;

struct PolicyInner {
    base: ProbeMode,
    /// One atomic mode word per interface, direct-indexed by
    /// `InterfaceId.0`. `SLOT_EMPTY` means "use the base mode"; otherwise
    /// the slot holds `mode.rank() + 1`.
    slots: Box<[AtomicU8]>,
}

/// The probe control plane's shared state: a base [`ProbeMode`] plus a
/// lock-free per-interface override table.
///
/// Every dispatch substrate reads the *effective* mode per call through
/// [`ProbePolicy::effective`] — a single relaxed atomic load — so an
/// actuator (the live monitor's alert engine, or an operator `POST
/// /probes`) can hot-swap stamping for one interface without a rebuild and
/// without slowing uninvolved interfaces. Causality capture is not
/// negotiable here by construction: the weakest expressible setting is
/// [`ProbeMode::CausalityOnly`], so the paper's always-on causality floor
/// can never be crossed (§2.2).
///
/// Cloning is cheap; clones share the table.
#[derive(Clone)]
pub struct ProbePolicy {
    inner: Arc<PolicyInner>,
}

impl ProbePolicy {
    /// A policy with no overrides: every interface runs at `base`.
    pub fn new(base: ProbeMode) -> ProbePolicy {
        let slots = (0..PROBE_OVERRIDE_SLOTS).map(|_| AtomicU8::new(SLOT_EMPTY)).collect();
        ProbePolicy { inner: Arc::new(PolicyInner { base, slots }) }
    }

    /// The mode interfaces without an override run at.
    pub fn base(&self) -> ProbeMode {
        self.inner.base
    }

    /// The mode `interface`'s probes run at right now. This is the probe
    /// hot path: one relaxed load, no branches beyond the decode.
    #[inline]
    pub fn effective(&self, interface: InterfaceId) -> ProbeMode {
        let Some(slot) = self.inner.slots.get(interface.0 as usize) else {
            return self.inner.base;
        };
        match slot.load(Ordering::Relaxed) {
            SLOT_EMPTY => self.inner.base,
            1 => ProbeMode::CausalityOnly,
            2 => ProbeMode::Latency,
            3 => ProbeMode::Cpu,
            _ => ProbeMode::Both,
        }
    }

    /// Installs (or replaces) an override. Calls already past their probe's
    /// mode read keep the old setting; every later probe sees the new one.
    /// Out-of-table interfaces are ignored (they stay at base).
    pub fn apply(&self, directive: ProbeDirective) {
        if let Some(slot) = self.inner.slots.get(directive.interface.0 as usize) {
            slot.store(directive.mode.rank() + 1, Ordering::Relaxed);
        }
    }

    /// Removes `interface`'s override, returning it to the base mode.
    pub fn clear(&self, interface: InterfaceId) {
        if let Some(slot) = self.inner.slots.get(interface.0 as usize) {
            slot.store(SLOT_EMPTY, Ordering::Relaxed);
        }
    }

    /// Snapshot of the standing overrides, in interface-id order.
    pub fn overrides(&self) -> Vec<ProbeDirective> {
        let mut out = Vec::new();
        for (i, slot) in self.inner.slots.iter().enumerate() {
            let mode = match slot.load(Ordering::Relaxed) {
                SLOT_EMPTY => continue,
                1 => ProbeMode::CausalityOnly,
                2 => ProbeMode::Latency,
                3 => ProbeMode::Cpu,
                _ => ProbeMode::Both,
            };
            out.push(ProbeDirective { interface: InterfaceId(i as u32), mode });
        }
        out
    }
}

impl fmt::Debug for ProbePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbePolicy")
            .field("base", &self.inner.base)
            .field("overrides", &self.overrides())
            .finish()
    }
}

struct MonitorInner {
    process: ProcessId,
    node: NodeId,
    policy: ProbePolicy,
    wall: Arc<dyn WallClock>,
    cpu: Arc<dyn CpuClock>,
    store: LogStore,
    anomalies: AtomicU64,
}

impl fmt::Debug for MonitorInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("process", &self.process)
            .field("node", &self.node)
            .field("policy", &self.policy)
            .field("buffered", &self.store.len())
            .finish()
    }
}

/// Result of the stub-start probe: what must ride the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StubStartOutcome {
    /// The FTL to marshal with the request as the hidden `inout` parameter.
    /// For one-way calls this is the *fresh child chain*; for everything
    /// else it is the caller's (possibly just-minted) chain.
    pub wire_ftl: FunctionTxLog,
    /// For one-way calls: the parent chain position at the fork, to be
    /// carried alongside the child FTL so the skeleton can record the link
    /// redundantly.
    pub oneway_parent: Option<(Uuid, u64)>,
}

/// Per-process probe runtime.
///
/// Cloning is cheap; clones share state. See the crate-level example for a
/// hand-driven probe sequence.
#[derive(Debug, Clone)]
pub struct Monitor {
    inner: Arc<MonitorInner>,
}

impl Monitor {
    /// Starts building a monitor for the process/node a runtime lives in.
    pub fn builder(process: ProcessId, node: NodeId) -> MonitorBuilder {
        MonitorBuilder {
            process,
            node,
            mode: ProbeMode::default(),
            policy: None,
            wall: None,
            cpu: None,
            store: None,
        }
    }

    /// The process this monitor belongs to.
    pub fn process(&self) -> ProcessId {
        self.inner.process
    }

    /// The node hosting the process.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The base probe mode — what interfaces without a standing override
    /// run at. Per-interface effective modes live in [`Monitor::policy`].
    pub fn mode(&self) -> ProbeMode {
        self.inner.policy.base()
    }

    /// The probe policy the probes consult per call. Shared — applying a
    /// directive through any clone is visible to the probes immediately.
    pub fn policy(&self) -> &ProbePolicy {
        &self.inner.policy
    }

    /// The log store probes record into.
    pub fn store(&self) -> &LogStore {
        &self.inner.store
    }

    /// The wall clock used for latency stamps.
    pub fn wall_clock(&self) -> &Arc<dyn WallClock> {
        &self.inner.wall
    }

    /// The CPU clock used for per-thread CPU stamps.
    pub fn cpu_clock(&self) -> &Arc<dyn CpuClock> {
        &self.inner.cpu
    }

    /// Count of internal anomalies recovered from (e.g. a skeleton-end probe
    /// finding empty thread-specific storage). Zero in a healthy run.
    pub fn anomaly_count(&self) -> u64 {
        self.inner.anomalies.load(Ordering::Relaxed)
    }

    /// Clears the calling thread's chain context so the next invocation
    /// starts a new causal chain (a new tree in the DSCG). Client drivers
    /// call this between top-level transactions.
    pub fn begin_root(&self) {
        tss::clear();
    }

    /// The calling thread's current chain, if any.
    pub fn current_chain(&self) -> Option<FunctionTxLog> {
        tss::peek()
    }

    fn site(&self) -> CallSite {
        CallSite {
            node: self.inner.node,
            process: self.inner.process,
            thread: self.inner.store.current_thread(),
        }
    }

    /// Probe 1 — start of the stub, after the client invokes the function.
    ///
    /// Reads the caller's chain from thread-specific storage (minting a
    /// fresh chain when the storage is empty, i.e. at a root invocation),
    /// issues the next event number, and returns what must ride the wire.
    /// For one-way calls a fresh child chain is created and its identity is
    /// recorded in this probe's record, as §2.2 of the paper specifies.
    /// Runtimes open the bracket with [`Monitor::call`] instead, which
    /// closes it on every path.
    pub fn stub_start(&self, func: FunctionKey, kind: CallKind) -> StubStartOutcome {
        let chain = || tss::peek().unwrap_or_else(FunctionTxLog::fresh);
        let (ftl, child) = self.probe(TraceEvent::StubStart, func, kind, chain, None);
        match child {
            Some(child) => StubStartOutcome {
                wire_ftl: child,
                oneway_parent: Some((ftl.global_function_id, ftl.event_seq_no)),
            },
            None => StubStartOutcome { wire_ftl: ftl, oneway_parent: None },
        }
    }

    /// Probe 2 — beginning of the skeleton, when the request reaches the
    /// server side. Installs the wire FTL into the server thread's
    /// thread-specific storage (refreshing any stale FTL a pooled thread may
    /// hold — observation O2).
    pub fn skel_start(
        &self,
        func: FunctionKey,
        kind: CallKind,
        wire_ftl: FunctionTxLog,
        oneway_parent: Option<(Uuid, u64)>,
    ) {
        let parent = oneway_parent.filter(|_| kind == CallKind::Oneway);
        self.probe(TraceEvent::SkelStart, func, kind, || wire_ftl, parent);
    }

    /// Probe 3 — end of the skeleton, when the function implementation
    /// concludes. Returns the updated FTL to marshal with the reply.
    pub fn skel_end(&self, func: FunctionKey, kind: CallKind) -> FunctionTxLog {
        // No TSS context here means the tunnel was broken (e.g. a runtime
        // dispatched the up-call on a different thread than the one that
        // ran skel_start — the interceptor hazard the paper warns about).
        let chain = || tss::peek().unwrap_or_else(|| self.recover());
        self.probe(TraceEvent::SkelEnd, func, kind, chain, None).0
    }

    /// Probe 4 — end of the stub, when the response is ready to return to
    /// the client. `reply_ftl` is the FTL that came back with the reply for
    /// synchronous calls, or `None` for one-way calls (whose parent chain
    /// continues from thread-specific storage).
    pub fn stub_end(&self, func: FunctionKey, kind: CallKind, reply_ftl: Option<FunctionTxLog>) {
        let chain = || reply_ftl.or_else(tss::peek).unwrap_or_else(|| self.recover());
        self.probe(TraceEvent::StubEnd, func, kind, chain, None);
    }

    /// Opens the client half of a probe bracket: probe 1 now, probe 4
    /// exactly once when the returned [`Call`] is finished or dropped.
    #[inline]
    pub fn call(&self, func: FunctionKey, kind: CallKind) -> Call<'_> {
        let out = self.stub_start(func, kind);
        Call { monitor: self, func, kind, out, reply_ftl: None }
    }

    /// Opens the server half of a probe bracket: probe 2 now, probe 3
    /// exactly once when the returned [`Skeleton`] is finished or dropped.
    #[inline]
    pub fn skeleton(
        &self,
        func: FunctionKey,
        kind: CallKind,
        wire_ftl: FunctionTxLog,
        oneway_parent: Option<(Uuid, u64)>,
    ) -> Skeleton<'_> {
        self.skel_start(func, kind, wire_ftl, oneway_parent);
        Skeleton { monitor: self, func, kind }
    }

    /// Recovers from a probe that found no chain to continue: counts the
    /// anomaly and mints a fresh chain.
    fn recover(&self) -> FunctionTxLog {
        self.inner.anomalies.fetch_add(1, Ordering::Relaxed);
        FunctionTxLog::fresh()
    }

    /// The one probe body. Between its start and end stamps, charged to the
    /// thread's CPU: the FTL step (`chain` gives the event's chain; the body
    /// issues the next event number, stores the FTL in TSS and, for a
    /// one-way stub start, mints the child chain) and the record. Then the
    /// push, after charging the span its two stamps (its only clock reads)
    /// bound. Returns the updated FTL and the child.
    #[inline]
    fn probe(
        &self,
        event: TraceEvent,
        func: FunctionKey,
        kind: CallKind,
        chain: impl FnOnce() -> FunctionTxLog,
        oneway_parent: Option<(Uuid, u64)>,
    ) -> (FunctionTxLog, Option<FunctionTxLog>) {
        let start = self.inner.wall.now();
        let mode = self.inner.policy.effective(func.interface);
        let cpu_start = mode.cpu().then(|| self.inner.cpu.thread_cpu_now());

        let mut ftl = chain();
        let seq = ftl.next_seq();
        tss::store(ftl);
        let fork = event == TraceEvent::StubStart && kind == CallKind::Oneway;
        let child = fork.then(FunctionTxLog::fresh);

        let mut record = ProbeRecord {
            uuid: ftl.global_function_id,
            seq,
            event,
            kind,
            site: self.site(),
            func,
            wall_start: None,
            wall_end: None,
            cpu_start,
            cpu_end: None,
            oneway_child: child.map(|c| c.global_function_id),
            oneway_parent,
        };

        let end = self.inner.wall.now();
        self.inner.cpu.charge(end.saturating_sub(start));
        record.cpu_end = mode.cpu().then(|| self.inner.cpu.thread_cpu_now());
        record.wall_start = mode.wall().then_some(start);
        record.wall_end = mode.wall().then_some(end);
        self.inner.store.push(record);
        (ftl, child)
    }
}

/// The client half of one probe bracket, from [`Monitor::call`].
///
/// Probe 1 fired when it was made. Probe 4 fires exactly once: with the
/// reply's FTL from [`Call::finish`], or with none when the guard drops
/// unfinished (a return, an early `?`, an error or a panic), continuing
/// the chain from thread-specific storage. If the server stamped the chain
/// first, that close can repeat an event number (DESIGN.md §4 "Bracket").
#[must_use = "dropping a Call closes its bracket at once"]
#[derive(Debug)]
pub struct Call<'a> {
    monitor: &'a Monitor,
    func: FunctionKey,
    kind: CallKind,
    out: StubStartOutcome,
    reply_ftl: Option<FunctionTxLog>,
}

impl Call<'_> {
    /// The FTL to marshal with the request (for one-way calls, the fresh
    /// child chain).
    #[inline]
    pub fn wire_ftl(&self) -> FunctionTxLog {
        self.out.wire_ftl
    }

    /// For one-way calls, the parent chain position at the fork.
    #[inline]
    pub fn oneway_parent(&self) -> Option<(Uuid, u64)> {
        self.out.oneway_parent
    }

    /// Closes the bracket with the FTL that came back with the reply
    /// (`None` for one-way calls).
    #[inline]
    pub fn finish(mut self, reply_ftl: Option<FunctionTxLog>) {
        self.reply_ftl = reply_ftl;
    }
}

impl Drop for Call<'_> {
    #[inline]
    fn drop(&mut self) {
        self.monitor.stub_end(self.func, self.kind, self.reply_ftl);
    }
}

/// The server half of one probe bracket, from [`Monitor::skeleton`].
///
/// Probe 2 fired when it was made; probe 3 fires exactly once, from
/// [`Skeleton::finish`] or when the guard drops (an early return or a
/// panicking up-call). So a skeleton ends if and only if it started. On
/// the collocated path the caller holds a [`Call`] and then a `Skeleton`,
/// so unwinding ends the skeleton before the stub.
#[must_use = "dropping a Skeleton closes its bracket at once"]
#[derive(Debug)]
pub struct Skeleton<'a> {
    monitor: &'a Monitor,
    func: FunctionKey,
    kind: CallKind,
}

impl Skeleton<'_> {
    /// Closes the bracket and returns the FTL to marshal with the reply.
    #[inline]
    pub fn finish(self) -> FunctionTxLog {
        let this = ManuallyDrop::new(self);
        this.monitor.skel_end(this.func, this.kind)
    }
}

impl Drop for Skeleton<'_> {
    #[inline]
    fn drop(&mut self) {
        self.monitor.skel_end(self.func, self.kind);
    }
}

/// Builder for [`Monitor`] (C-BUILDER).
#[derive(Debug)]
pub struct MonitorBuilder {
    process: ProcessId,
    node: NodeId,
    mode: ProbeMode,
    policy: Option<ProbePolicy>,
    wall: Option<Arc<dyn WallClock>>,
    cpu: Option<Arc<dyn CpuClock>>,
    store: Option<LogStore>,
}

impl MonitorBuilder {
    /// Sets the base probe mode (default: [`ProbeMode::Latency`]). Ignored
    /// when a shared [`MonitorBuilder::policy`] is supplied.
    pub fn mode(mut self, mode: ProbeMode) -> MonitorBuilder {
        self.mode = mode;
        self
    }

    /// Shares a probe policy with this monitor instead of the private one
    /// `build` would otherwise mint from the base mode. All monitors of one
    /// system share a policy so a control-plane directive covers every
    /// process at once.
    pub fn policy(mut self, policy: ProbePolicy) -> MonitorBuilder {
        self.policy = Some(policy);
        self
    }

    /// Substitutes the wall clock (default: [`SystemClock`]).
    pub fn wall_clock(mut self, clock: Arc<dyn WallClock>) -> MonitorBuilder {
        self.wall = Some(clock);
        self
    }

    /// Substitutes the CPU clock (default: [`VirtualCpuClock`]).
    pub fn cpu_clock(mut self, clock: Arc<dyn CpuClock>) -> MonitorBuilder {
        self.cpu = Some(clock);
        self
    }

    /// Substitutes the log store (default: a fresh store). Useful when
    /// several monitors should share one store.
    pub fn store(mut self, store: LogStore) -> MonitorBuilder {
        self.store = Some(store);
        self
    }

    /// Builds the monitor.
    pub fn build(self) -> Monitor {
        Monitor {
            inner: Arc::new(MonitorInner {
                process: self.process,
                node: self.node,
                policy: self.policy.unwrap_or_else(|| ProbePolicy::new(self.mode)),
                wall: self.wall.unwrap_or_else(|| Arc::new(SystemClock::new())),
                cpu: self.cpu.unwrap_or_else(|| Arc::new(VirtualCpuClock::new())),
                store: self.store.unwrap_or_default(),
                anomalies: AtomicU64::new(0),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::monotonic_ns;
    use crate::ids::{InterfaceId, MethodIndex, ObjectId};

    fn func(n: u64) -> FunctionKey {
        FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(n))
    }

    fn fresh_monitor(mode: ProbeMode) -> Monitor {
        Monitor::builder(ProcessId(0), NodeId(0)).mode(mode).build()
    }

    #[test]
    fn sync_call_produces_four_densely_numbered_events() {
        let m = fresh_monitor(ProbeMode::Latency);
        m.begin_root();
        let out = m.stub_start(func(1), CallKind::Sync);
        m.skel_start(func(1), CallKind::Sync, out.wire_ftl, None);
        let reply = m.skel_end(func(1), CallKind::Sync);
        m.stub_end(func(1), CallKind::Sync, Some(reply));

        let recs = m.store().drain();
        assert_eq!(recs.len(), 4);
        let uuid = recs[0].uuid;
        assert!(!uuid.is_nil());
        assert!(recs.iter().all(|r| r.uuid == uuid));
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        let events: Vec<TraceEvent> = recs.iter().map(|r| r.event).collect();
        assert_eq!(events, TraceEvent::ALL.to_vec());
        m.begin_root();
    }

    #[test]
    fn nested_call_numbers_children_inside_parent_window() {
        let m = fresh_monitor(ProbeMode::CausalityOnly);
        m.begin_root();
        // F calls G (both collocated for a single-thread test).
        let f = func(1);
        let g = func(2);
        let out_f = m.stub_start(f, CallKind::Collocated);
        m.skel_start(f, CallKind::Collocated, out_f.wire_ftl, None);
        let out_g = m.stub_start(g, CallKind::Collocated);
        m.skel_start(g, CallKind::Collocated, out_g.wire_ftl, None);
        let rg = m.skel_end(g, CallKind::Collocated);
        m.stub_end(g, CallKind::Collocated, Some(rg));
        let rf = m.skel_end(f, CallKind::Collocated);
        m.stub_end(f, CallKind::Collocated, Some(rf));

        let recs = m.store().drain();
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        // Chronological push order == seq order on one thread.
        assert_eq!(seqs, (1..=8).collect::<Vec<u64>>());
        // The parent/child nesting pattern of Table 1:
        let pattern: Vec<(TraceEvent, ObjectId)> =
            recs.iter().map(|r| (r.event, r.func.object)).collect();
        assert_eq!(
            pattern,
            vec![
                (TraceEvent::StubStart, ObjectId(1)),
                (TraceEvent::SkelStart, ObjectId(1)),
                (TraceEvent::StubStart, ObjectId(2)),
                (TraceEvent::SkelStart, ObjectId(2)),
                (TraceEvent::SkelEnd, ObjectId(2)),
                (TraceEvent::StubEnd, ObjectId(2)),
                (TraceEvent::SkelEnd, ObjectId(1)),
                (TraceEvent::StubEnd, ObjectId(1)),
            ]
        );
        m.begin_root();
    }

    #[test]
    fn sibling_calls_share_one_chain() {
        let m = fresh_monitor(ProbeMode::CausalityOnly);
        m.begin_root();
        for n in [1u64, 2] {
            let f = func(n);
            let out = m.stub_start(f, CallKind::Collocated);
            m.skel_start(f, CallKind::Collocated, out.wire_ftl, None);
            let r = m.skel_end(f, CallKind::Collocated);
            m.stub_end(f, CallKind::Collocated, Some(r));
        }
        let recs = m.store().drain();
        assert_eq!(recs.len(), 8);
        assert!(recs.iter().all(|r| r.uuid == recs[0].uuid), "siblings share the UUID");
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=8).collect::<Vec<u64>>());
        m.begin_root();
    }

    #[test]
    fn begin_root_starts_a_new_chain() {
        let m = fresh_monitor(ProbeMode::CausalityOnly);
        m.begin_root();
        let a = m.stub_start(func(1), CallKind::Sync).wire_ftl;
        m.stub_end(func(1), CallKind::Sync, Some(a));
        m.begin_root();
        let b = m.stub_start(func(1), CallKind::Sync).wire_ftl;
        assert_ne!(a.global_function_id, b.global_function_id);
        m.begin_root();
        m.store().drain();
    }

    #[test]
    fn oneway_forks_a_child_chain_and_records_the_link() {
        let m = fresh_monitor(ProbeMode::CausalityOnly);
        m.begin_root();
        let f = func(7);
        let out = m.stub_start(f, CallKind::Oneway);
        // The wire FTL is the fresh child chain, not the parent chain.
        let parent = m.current_chain().unwrap();
        assert_ne!(out.wire_ftl.global_function_id, parent.global_function_id);
        assert_eq!(out.wire_ftl.event_seq_no, 0);
        assert_eq!(out.oneway_parent, Some((parent.global_function_id, 1)));
        m.stub_end(f, CallKind::Oneway, None);

        // Server side (same thread here, different chain).
        m.skel_start(f, CallKind::Oneway, out.wire_ftl, out.oneway_parent);
        m.skel_end(f, CallKind::Oneway);

        let recs = m.store().drain();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].oneway_child, Some(out.wire_ftl.global_function_id));
        assert_eq!(recs[2].oneway_parent, Some((parent.global_function_id, 1)));
        assert_eq!(recs[0].uuid, parent.global_function_id);
        assert_eq!(recs[1].uuid, parent.global_function_id);
        assert_eq!(recs[2].uuid, out.wire_ftl.global_function_id);
        assert_eq!(recs[3].uuid, out.wire_ftl.global_function_id);
        m.begin_root();
    }

    #[test]
    fn latency_mode_stamps_wall_not_cpu() {
        let m = fresh_monitor(ProbeMode::Latency);
        m.begin_root();
        let out = m.stub_start(func(1), CallKind::Sync);
        m.stub_end(func(1), CallKind::Sync, Some(out.wire_ftl));
        let recs = m.store().drain();
        for r in &recs {
            assert!(r.wall_start.is_some() && r.wall_end.is_some());
            assert!(r.cpu_start.is_none() && r.cpu_end.is_none());
            assert!(r.wall_end.unwrap() >= r.wall_start.unwrap());
        }
        m.begin_root();
    }

    /// Counts clock reads: wall stamps and CPU region brackets (each a
    /// monotonic-clock read under the virtual CPU clock), not reads of the
    /// thread's CPU counter, which is a thread-local.
    #[derive(Debug, Default)]
    struct Counting {
        reads: AtomicU64,
        charged: AtomicU64,
    }

    impl WallClock for Counting {
        fn now(&self) -> u64 {
            self.reads.fetch_add(1, Ordering::Relaxed);
            monotonic_ns()
        }
    }

    impl CpuClock for Counting {
        fn thread_cpu_now(&self) -> u64 {
            VirtualCpuClock.thread_cpu_now()
        }
        fn region_begin(&self) -> u64 {
            self.reads.fetch_add(1, Ordering::Relaxed);
            VirtualCpuClock.region_begin()
        }
        fn region_end(&self, token: u64) {
            self.reads.fetch_add(1, Ordering::Relaxed);
            VirtualCpuClock.region_end(token);
        }
        fn charge(&self, ns: u64) {
            self.charged.fetch_add(1, Ordering::Relaxed);
            VirtualCpuClock.charge(ns);
        }
    }

    #[test]
    fn a_probe_reads_the_clock_twice_and_charges_once_in_every_mode() {
        for mode in ProbeMode::ALL {
            let clock = Arc::new(Counting::default());
            let m = Monitor::builder(ProcessId(0), NodeId(0))
                .mode(mode)
                .wall_clock(clock.clone())
                .cpu_clock(clock.clone())
                .build();
            m.begin_root();
            let out = m.stub_start(func(1), CallKind::Sync);
            m.stub_end(func(1), CallKind::Sync, Some(out.wire_ftl));
            assert_eq!(clock.reads.load(Ordering::Relaxed), 4, "{mode:?}: two reads per probe");
            assert_eq!(clock.charged.load(Ordering::Relaxed), 2, "{mode:?}: one charge per probe");
            m.begin_root();
        }
    }

    #[test]
    fn a_probe_charges_the_span_it_stamps() {
        let m = fresh_monitor(ProbeMode::Both);
        m.begin_root();
        let out = m.stub_start(func(1), CallKind::Sync);
        m.skel_start(func(1), CallKind::Sync, out.wire_ftl, None);
        let reply = m.skel_end(func(1), CallKind::Sync);
        m.stub_end(func(1), CallKind::Sync, Some(reply));
        let recs = m.store().drain();
        assert_eq!(recs.len(), 4);
        for r in &recs {
            let wall = r.wall_end.unwrap() - r.wall_start.unwrap();
            assert_eq!(r.cpu_end.unwrap() - r.cpu_start.unwrap(), wall, "{r:?}");
        }
        m.begin_root();
    }

    #[test]
    fn cpu_mode_stamps_cpu_not_wall() {
        let m = fresh_monitor(ProbeMode::Cpu);
        m.begin_root();
        let out = m.stub_start(func(1), CallKind::Sync);
        m.stub_end(func(1), CallKind::Sync, Some(out.wire_ftl));
        let recs = m.store().drain();
        for r in &recs {
            assert!(r.cpu_start.is_some() && r.cpu_end.is_some());
            assert!(r.wall_start.is_none() && r.wall_end.is_none());
        }
        m.begin_root();
    }

    #[test]
    fn causality_only_mode_stamps_nothing() {
        let m = fresh_monitor(ProbeMode::CausalityOnly);
        m.begin_root();
        let out = m.stub_start(func(1), CallKind::Sync);
        m.stub_end(func(1), CallKind::Sync, Some(out.wire_ftl));
        for r in m.store().drain() {
            assert_eq!(r.wall_start, None);
            assert_eq!(r.cpu_start, None);
        }
        m.begin_root();
    }

    #[test]
    fn skel_end_without_tss_recovers_and_counts_anomaly() {
        let m = fresh_monitor(ProbeMode::CausalityOnly);
        m.begin_root();
        assert_eq!(m.anomaly_count(), 0);
        let _ = m.skel_end(func(1), CallKind::Sync);
        assert_eq!(m.anomaly_count(), 1);
        m.begin_root();
        m.store().drain();
    }

    #[test]
    fn probe_mode_display_round_trips_for_every_mode() {
        for mode in ProbeMode::ALL {
            let name = mode.to_string();
            assert_eq!(name.parse::<ProbeMode>(), Ok(mode), "round-trip of {name}");
        }
    }

    #[test]
    fn probe_mode_parse_accepts_aliases_and_any_case() {
        for (s, want) in [
            ("causality-only", ProbeMode::CausalityOnly),
            ("causality_only", ProbeMode::CausalityOnly),
            ("causality", ProbeMode::CausalityOnly),
            ("CAUSALITY-ONLY", ProbeMode::CausalityOnly),
            ("latency", ProbeMode::Latency),
            ("Latency", ProbeMode::Latency),
            ("cpu", ProbeMode::Cpu),
            ("CPU", ProbeMode::Cpu),
            ("both", ProbeMode::Both),
            ("BoTh", ProbeMode::Both),
        ] {
            assert_eq!(s.parse::<ProbeMode>(), Ok(want), "parse of {s:?}");
        }
    }

    #[test]
    fn probe_mode_parse_rejects_junk() {
        for s in ["", "off", "none", "latency ", "all", "causality only"] {
            let err = s.parse::<ProbeMode>().unwrap_err();
            assert!(err.to_string().contains("probe mode"), "error for {s:?}: {err}");
        }
    }

    #[test]
    fn probe_mode_ranks_are_strictly_increasing() {
        let ranks: Vec<u8> = ProbeMode::ALL.iter().map(|m| m.rank()).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn policy_effective_follows_apply_and_clear() {
        let p = ProbePolicy::new(ProbeMode::Latency);
        let iface = InterfaceId(3);
        assert_eq!(p.effective(iface), ProbeMode::Latency);
        p.apply(ProbeDirective { interface: iface, mode: ProbeMode::Both });
        assert_eq!(p.effective(iface), ProbeMode::Both);
        assert_eq!(p.effective(InterfaceId(4)), ProbeMode::Latency, "only the target moves");
        assert_eq!(p.overrides(), vec![ProbeDirective { interface: iface, mode: ProbeMode::Both }]);
        p.clear(iface);
        assert_eq!(p.effective(iface), ProbeMode::Latency);
        assert!(p.overrides().is_empty());
    }

    #[test]
    fn policy_every_mode_survives_the_slot_encoding() {
        let p = ProbePolicy::new(ProbeMode::Latency);
        for mode in ProbeMode::ALL {
            p.apply(ProbeDirective { interface: InterfaceId(0), mode });
            assert_eq!(p.effective(InterfaceId(0)), mode);
        }
    }

    #[test]
    fn policy_ignores_interfaces_past_the_table() {
        let p = ProbePolicy::new(ProbeMode::Cpu);
        let far = InterfaceId(PROBE_OVERRIDE_SLOTS as u32 + 7);
        p.apply(ProbeDirective { interface: far, mode: ProbeMode::Both });
        assert_eq!(p.effective(far), ProbeMode::Cpu, "out-of-table stays at base");
        assert!(p.overrides().is_empty());
        p.clear(far);
    }

    #[test]
    fn shared_policy_hot_swaps_stamping_between_calls() {
        let policy = ProbePolicy::new(ProbeMode::CausalityOnly);
        let m = Monitor::builder(ProcessId(0), NodeId(0)).policy(policy.clone()).build();
        m.begin_root();
        let out = m.stub_start(func(1), CallKind::Sync);
        m.stub_end(func(1), CallKind::Sync, Some(out.wire_ftl));

        policy.apply(ProbeDirective { interface: InterfaceId(0), mode: ProbeMode::Both });
        let out = m.stub_start(func(1), CallKind::Sync);
        m.stub_end(func(1), CallKind::Sync, Some(out.wire_ftl));

        let recs = m.store().drain();
        assert_eq!(recs.len(), 4);
        // Causality fields are identical in shape across the flip…
        assert!(recs.iter().all(|r| r.uuid == recs[0].uuid));
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<u64>>(), vec![1, 2, 3, 4]);
        // …while stamping switches exactly at the flip.
        assert!(recs[0].wall_start.is_none() && recs[0].cpu_start.is_none());
        assert!(recs[1].wall_start.is_none() && recs[1].cpu_start.is_none());
        assert!(recs[2].wall_start.is_some() && recs[2].cpu_start.is_some());
        assert!(recs[3].wall_start.is_some() && recs[3].cpu_start.is_some());
        m.begin_root();
    }

    #[test]
    fn pooled_thread_stale_ftl_is_refreshed_by_next_dispatch() {
        // Observation O2: a reused thread holds a stale FTL, but skel_start
        // always installs the incoming call's FTL before user code runs.
        let m = fresh_monitor(ProbeMode::CausalityOnly);
        m.begin_root();
        let stale = FunctionTxLog::fresh();
        tss::store(stale);
        let incoming = FunctionTxLog::fresh();
        m.skel_start(func(1), CallKind::Sync, incoming, None);
        assert_eq!(
            m.current_chain().unwrap().global_function_id,
            incoming.global_function_id
        );
        m.begin_root();
        m.store().drain();
    }
}
