//! Live monitoring: windowed streaming characterization, abnormality
//! alerting, and an embedded HTTP status/scrape endpoint.
//!
//! The paper's tooling is post-hoc: harvest after quiescence, then
//! characterize. This module keeps the same Figure-4 reconstruction (via
//! [`OnlineAnalyzer`]) but folds its event stream into *windows* so a
//! long-running system can be characterized while it serves traffic:
//!
//! * [`LiveMonitor`] — ingests probe records, maintains **tumbling** and
//!   **sliding** windows of per-(interface, method) latency (log2 streaming
//!   histograms with p50/p95/p99), call rate, busy share and abnormality
//!   rate, accumulates folded flamegraph stacks, and retains the last
//!   window's raw records for Chrome-trace export. Ingestion is **sharded
//!   by chain UUID**: each shard owns its analyzer, slice aggregates and
//!   folded-stack maps behind its own lock, records route lock-free by
//!   `uuid % shards`, and shard state merges into the window machinery at
//!   window close — output is bit-identical to a serial monitor at any
//!   shard count, because the cross-chain, order-sensitive effects are
//!   replayed under one small control lock in the batch's chain
//!   first-appearance order (the exact order a serial analyzer emits).
//! * [`crate::rules`] — every closed window steps the registered rules
//!   (threshold rules with duration and hysteresis, multi-window SLO
//!   burn-rate rules); their transitions are logged as structured
//!   [`AlertEvent`]s and drive incidents and the probe control plane.
//! * [`crate::history::WindowHistory`] — every finalized tumbling window's
//!   aggregates and folded-stack snapshot are retained in a bounded ring,
//!   so an operator can ask *when* a regression started (`/history`) and
//!   diff two windows' flamegraphs (`/flamegraph/diff?a=..&b=..`).
//! * [`crate::incident`] — when an alert transitions to firing the monitor
//!   registers an **incident** and auto-populates its add-only causal
//!   hypothesis graph from retained evidence (flamegraph-diff regressions
//!   vs a pre-breach baseline window, abnormal chains with DSCG renders,
//!   hottest stacks); automatic passes and operators eliminate hypotheses
//!   via tombstones with provenance, and `/incidents` serves the
//!   query-time surviving-cause set.
//! * [`serve`] — mounts the monitor behind [`causeway_core::httpd`]:
//!   `/metrics`, `/healthz`, `/chains`, `/latency`, `/flamegraph`,
//!   `/flamegraph/diff`, `/history`, `/dscg`, `/trace`, `/alerts`,
//!   `/incidents` (+ `POST /incidents/eliminate`) — and runs a background
//!   ticker thread so windows rotate on idle systems.
//!
//! Lock discipline: the control lock may be taken alone or **before** shard
//! locks (taken one at a time); a thread holding a shard lock never takes
//! the control lock or another shard lock. Every internal lock site
//! recovers from poisoning (a panicking handler or ingest thread must not
//! take window rotation down with it), logging once per process.
//!
//! Time is explicit: every mutating entry point has an `_at(now_ns)` variant
//! so tests are deterministic; the plain variants stamp with a monotonic
//! clock started at construction.
//!
//! Ingest cost does not grow with the open chains: one grouping pass sorts
//! a batch's record indices chain → shard → first-appearance rank, looking
//! a chain up only where consecutive records change chain; each shard feeds
//! every chain's records, read in place in the batch, through the
//! analyzer's one per-chain step loop; the analyzer's
//! gauges are O(1) counters; and flamegraph paths are interned per shard
//! (one id per distinct rendered path, keyed by parent id and series), so
//! folding a completed chain does no string work for stacks already seen —
//! strings are rendered only at window close and `/flamegraph` reads.

use crate::chrome_trace;
use crate::exemplar::{self, ExemplarConfig, ExemplarStore};
use crate::history::{diff_folded, HistoryEntry, WindowHistory};
use crate::incident::{self, HypothesisKind, Incident, IncidentStore};
use crate::online::{ChainGroups, OnlineAnalyzer, OnlineEvent, OpenChainSummary};
use crate::render::{self, CompletedCall};
use crate::rules::{parse_rule, resolve_series, AlertEvent, AlertRule, RuleState, Trigger};
use crate::window::{SeriesAgg, SeriesKey, WindowSnapshot};
use causeway_collector::db::MonitoringDb;
use causeway_collector::json::{self, Json};
use causeway_core::deploy::Deployment;
use causeway_core::httpd::{
    DEFAULT_MAX_CONNECTIONS, DEFAULT_READ_TIMEOUT, Handler, HttpServer, Request, Response,
};
use causeway_core::ids::InterfaceId;
use causeway_core::metrics::{Counter, Gauge, MetricsRegistry};
use causeway_core::monitor::{ProbeDirective, ProbeMode, ProbePolicy};
use causeway_core::names::VocabSnapshot;
use causeway_core::record::ProbeRecord;
use causeway_core::runlog::RunLog;
use causeway_core::sync::{Mutex, MutexGuard};
use causeway_core::uuid::Uuid;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Static configuration of a [`LiveMonitor`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Tumbling window length. Alerts are evaluated once per window.
    pub window: Duration,
    /// Sliding resolution: the window is divided into this many slices; the
    /// sliding view merges the most recent `slices` of them.
    pub slices: usize,
    /// Maximum raw probe records retained per window for `/trace` export.
    pub trace_capacity: usize,
    /// Maximum buffered flamegraph completion events per open chain.
    pub chain_event_capacity: usize,
    /// Maximum retained alert transition events.
    pub alert_log_capacity: usize,
    /// Finalized tumbling windows retained by the history store (ring size
    /// for `/history` and `/flamegraph?window=`).
    pub history_windows: usize,
    /// Approximate byte cap on the history store; whichever of the two
    /// caps bites first evicts the oldest window.
    pub history_max_bytes: usize,
    /// Maximum distinct stacks in the cumulative folded flamegraph map
    /// (and in each window's snapshot); beyond it the smallest-valued
    /// stack is evicted and counted.
    pub stack_capacity: usize,
    /// Spill segment path for windows evicted from the history ring; when
    /// set, `/history?from=..&to=..` and `/flamegraph?window=k` keep
    /// working past the ring. `None` (the default) drops evictions.
    pub history_spill: Option<std::path::PathBuf>,
    /// Automatic incident forensics (see [`crate::incident`]).
    pub incidents: IncidentConfig,
    /// The adaptive probe control plane (alert-driven escalation of
    /// per-interface probe modes; see [`AdaptiveConfig`]).
    pub adaptive: AdaptiveConfig,
    /// Ingestion shards: records route by `uuid % shards`, so a chain's
    /// records always land on one shard. Clamped to at least 1. Output is
    /// shard-count independent; more shards reduce ingest lock contention.
    pub shards: usize,
    /// Tail-based exemplar capture: per-series reservoirs of the chains
    /// behind the percentiles and alerts (see [`crate::exemplar`]).
    pub exemplars: ExemplarConfig,
    /// The registry the monitor and everything it builds publish to, and
    /// the one `/metrics` renders. `None` (the default) is
    /// [`MetricsRegistry::global`].
    pub metrics: Option<MetricsRegistry>,
}

/// Configuration of automatic incident forensics: how the hypothesis graph
/// is populated when an alert fires, and how the retained ring is bounded.
#[derive(Debug, Clone)]
pub struct IncidentConfig {
    /// Register an incident whenever an alert transitions to firing.
    pub enabled: bool,
    /// Retained incidents (oldest evicted beyond this).
    pub capacity: usize,
    /// Top flamegraph-diff regressions (breach vs baseline window)
    /// nominated as hypotheses.
    pub top_regressions: usize,
    /// Hottest breach-window folded stacks nominated as hypotheses.
    pub top_stacks: usize,
    /// Most recent abnormal chains nominated as hypotheses.
    pub max_abnormal: usize,
    /// The stack-floor pass eliminates hot-stack hypotheses below this
    /// fraction of the breach window's total self time (the heaviest hot
    /// stack is always spared, so the set never empties itself).
    pub stack_share_floor: f64,
}

impl Default for IncidentConfig {
    fn default() -> Self {
        IncidentConfig {
            enabled: true,
            capacity: 64,
            top_regressions: 8,
            top_stacks: 5,
            max_abnormal: 8,
            stack_share_floor: 0.02,
        }
    }
}

/// Configuration of the adaptive probe control plane.
///
/// The monitored system's shared [`ProbePolicy`] is the actuator surface:
/// when a series-targeting alert or burn rule fires, the live monitor
/// escalates that interface's probes to `escalate_mode` (or the rule's own
/// `escalate=` suffix), and de-escalates when the rule resolves. Operators
/// can override any interface over `POST /probes`, bounded by a TTL. With
/// `policy` left `None` the control plane is inert: rules still alert, but
/// nothing is actuated.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// The probe policy shared with the monitored system's dispatch
    /// substrates (e.g. `System::probe_policy()`); `None` disables
    /// actuation.
    pub policy: Option<ProbePolicy>,
    /// The mode a firing series-targeting rule escalates its interface to,
    /// unless the rule carries an explicit `escalate=` suffix.
    pub escalate_mode: ProbeMode,
    /// Default lifetime of an operator override posted without `ttl_ms`.
    pub operator_ttl: Duration,
    /// Retained probe-mode transitions (the `/probes` log ring).
    pub log_capacity: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            policy: None,
            escalate_mode: ProbeMode::Both,
            operator_ttl: Duration::from_secs(300),
            log_capacity: 256,
        }
    }
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            window: Duration::from_secs(5),
            slices: 5,
            trace_capacity: 100_000,
            chain_event_capacity: 100_000,
            alert_log_capacity: 1024,
            history_windows: 64,
            history_max_bytes: 8 << 20,
            stack_capacity: 65_536,
            history_spill: None,
            incidents: IncidentConfig::default(),
            adaptive: AdaptiveConfig::default(),
            shards: 4,
            exemplars: ExemplarConfig::default(),
            metrics: None,
        }
    }
}

/// One time slice's aggregates (a window is `slices` consecutive slices).
#[derive(Debug, Clone, Default)]
struct Slice {
    series: BTreeMap<SeriesKey, SeriesAgg>,
    completed_calls: u64,
    abnormalities: u64,
}

/// Per-chain buffered completions for flamegraph folding and streaming
/// DSCG renders, in the analyzer's post-order emission order.
type ChainCompletions = Vec<CompletedCall>;

/// Most recent abnormal chains retained as incident evidence.
const RECENT_ABNORMAL_CAP: usize = 256;

/// Distinct abnormal chains remembered per window for the re-check pass.
const WINDOW_ABNORMAL_CAP: usize = 64;

/// Exemplar references attached per alert firing and per `/latency`
/// percentile bucket.
const EXEMPLAR_REFS_MAX: usize = 4;

/// The shard a chain's records always land on: the stable `uuid mod N`
/// shard function the offline pipeline (PR 3) routes by, so a chain's
/// records are processed by exactly one shard in arrival order.
fn shard_of(chain: Uuid, shards: usize) -> usize {
    (chain.0 % shards as u128) as usize
}

/// One ingestion shard: the chains with `uuid % shards == index`, their
/// Figure-4 reconstruction state, slice aggregates, and flamegraph folding
/// — everything a chain's records touch that needs no cross-chain order.
#[derive(Debug)]
struct Shard {
    analyzer: OnlineAnalyzer,
    /// This shard's per-slice aggregates, keyed by absolute slice index.
    /// Finalization prunes slices older than the window just closed.
    slices: BTreeMap<u64, Slice>,
    /// Slice indices below this were already folded into a finalized
    /// window; a completion racing a window close lands here instead.
    floor: u64,
    chain_events: HashMap<Uuid, ChainCompletions>,
    /// This shard's share of the folded flamegraph stacks, cumulative and
    /// for the current tumbling window (both capped).
    stacks: StackTable,
}

impl Shard {
    fn new(metrics: &MetricsRegistry) -> Shard {
        Shard {
            analyzer: OnlineAnalyzer::with_metrics(metrics),
            slices: BTreeMap::new(),
            floor: 0,
            chain_events: HashMap::new(),
            stacks: StackTable::default(),
        }
    }
}

/// One probe-mode change actuated by the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeTransition {
    /// Wall-clock stamp (epoch milliseconds).
    pub at_ms: u64,
    /// Tumbling window ordinal at which the transition was actuated
    /// (`u64::MAX` before the first window closes, e.g. operator posts).
    pub window_index: u64,
    /// The interface whose probes changed mode.
    pub interface: InterfaceId,
    /// Effective mode before the transition.
    pub from: ProbeMode,
    /// Effective mode after the transition.
    pub to: ProbeMode,
    /// Who actuated it: `"alert"`, `"operator"`, or `"ttl"`.
    pub reason: &'static str,
    /// The driving rule name or operator annotation.
    pub detail: String,
}

/// Control-plane bookkeeping behind the control lock: who holds which
/// interface at which mode, standing floors, operator overrides, and the
/// transition log. The actuated state itself lives in the shared
/// [`ProbePolicy`] the dispatch substrates read.
#[derive(Debug, Default)]
struct ProbeCtl {
    /// Alert-driven holds: firing rule name → (interface, held mode).
    holds: BTreeMap<String, (InterfaceId, ProbeMode)>,
    /// Standing post-resolve modes from `deescalate=` suffixes.
    floors: BTreeMap<InterfaceId, ProbeMode>,
    /// Operator overrides: interface → (mode, expiry epoch ms).
    operator: BTreeMap<InterfaceId, (ProbeMode, u64)>,
    /// Recent transitions, oldest first, capped at the adaptive log
    /// capacity.
    log: VecDeque<ProbeTransition>,
    /// Per-interface `causeway_probe_mode{iface,mode}` gauges (one per
    /// mode; the active one reads 1), created on first transition.
    mode_gauges: HashMap<InterfaceId, [Gauge; 4]>,
}

/// The order-sensitive, cross-chain state: window machinery, alerting,
/// history, incidents and the exporters' retained evidence. One small lock
/// guards it; the expensive per-record work happens under shard locks.
#[derive(Debug)]
struct Control {
    /// Absolute index of the accumulating slice, once time has started.
    current: Option<u64>,
    /// Closed slice positions still inside the sliding window, capped at
    /// the slices-per-window count (empty positions count, matching the
    /// serial monitor's closed-slice ring).
    closed_len: u64,
    /// Raw records of the current tumbling window (capped) for `/trace`.
    window_records: Vec<ProbeRecord>,
    window_records_dropped: u64,
    last_window_records: Vec<ProbeRecord>,
    last_window: Option<WindowSnapshot>,
    /// The registered rules: threshold rules, then burn-rate rules, each
    /// in registration order — the order a window logs their events in.
    rules: Vec<RuleState>,
    alert_log: VecDeque<AlertEvent>,
    history: WindowHistory,
    /// Why the configured history spill could not be attached, if it
    /// couldn't — surfaced in `/history` so a durable-mode operator sees
    /// the monitor silently fell back to ring-only retention.
    spill_error: Option<String>,
    /// Recently completed chains' completion events, oldest first; total
    /// buffered completions bounded by `cfg.trace_capacity`.
    recent_chains: VecDeque<(Uuid, ChainCompletions)>,
    recent_chain_calls: usize,
    /// Cumulative per-series call counts — the `/latency` index view.
    known_series: BTreeMap<SeriesKey, u64>,
    total_completed: u64,
    total_abnormalities: u64,
    window_gauges: HashMap<SeriesKey, [Gauge; 5]>,
    /// The add-only causal hypothesis graphs (see [`crate::incident`]).
    incidents: IncidentStore,
    /// Chains that tripped an abnormality in the current window — the
    /// re-check pass must not tombstone a chain that misbehaved again.
    window_abnormal: Vec<Uuid>,
    /// Recent abnormal chains with their messages — the abnormal-chain
    /// evidence pool.
    recent_abnormal: RecentAbnormal,
    /// Adaptive probe control-plane bookkeeping (see [`ProbeCtl`]).
    probe_ctl: ProbeCtl,
    /// Tail-biased exemplar reservoirs: the chains behind the percentiles
    /// (see [`crate::exemplar`]). Fed in the rank-ordered replay phase, so
    /// its state is bit-identical at any shard count.
    exemplars: ExemplarStore,
}

/// The recent abnormal chains retained as incident evidence, oldest first
/// and bounded at [`RECENT_ABNORMAL_CAP`], with a per-chain entry count
/// beside the ring so membership is O(1).
#[derive(Debug, Default)]
struct RecentAbnormal {
    ring: VecDeque<(Uuid, String)>,
    count: HashMap<Uuid, usize>,
}

impl RecentAbnormal {
    fn push(&mut self, chain: Uuid, message: String) {
        self.ring.push_back((chain, message));
        *self.count.entry(chain).or_insert(0) += 1;
        while self.ring.len() > RECENT_ABNORMAL_CAP {
            let (old, _) = self.ring.pop_front().expect("ring over its cap");
            let left = self.count.get_mut(&old).expect("counted on push");
            *left -= 1;
            if *left == 0 {
                self.count.remove(&old);
            }
        }
    }

    fn contains(&self, chain: Uuid) -> bool {
        self.count.contains_key(&chain)
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = &(Uuid, String)> {
        self.ring.iter()
    }
}

/// What one chain's ingest leaves for the replay phase: the cross-chain,
/// order-sensitive effects, collected under the shard lock and replayed
/// under the control lock in batch first-appearance order — the exact
/// order a serial analyzer would have emitted them. (Completions only add
/// to commutative totals, so they are summed per batch instead.)
struct ChainGroup {
    chain: Uuid,
    /// The chain's first-appearance rank in the batch.
    rank: usize,
    /// Figure-4 reconstruction failures, in order: totals and the evidence
    /// pools.
    abnormal: Vec<String>,
    /// Set when the chain went idle this batch.
    idle: Option<IdleChain>,
}

/// An idle chain's buffered completions, with the exemplar candidate
/// computed under the shard lock: the root call's series and compensated
/// latency. The admission decision itself happens in the replay phase.
type IdleChain = (ChainCompletions, Option<(SeriesKey, u64)>);

/// The exemplar selection input for one completed chain: the slowest root
/// (depth-0) call's series and latency. Chain-local, so it is computed
/// under the shard lock; `None` for chains with no completed root.
fn exemplar_candidate(completions: &[CompletedCall]) -> Option<(SeriesKey, u64)> {
    completions
        .iter()
        .filter(|call| call.depth == 0)
        .max_by_key(|call| call.latency_ns)
        .map(|call| ((call.func.interface, call.func.method), call.latency_ns))
}

/// The live monitoring service core: windowed characterization over the
/// on-line analyzer, plus alerting and exporters. All methods take
/// `&self` — ingestion shards by chain UUID behind per-shard locks, and
/// the window/alert/incident machinery sits behind one control lock.
/// Share via `Arc` and hand to [`serve`] for the HTTP endpoints.
#[derive(Debug)]
pub struct LiveMonitor {
    cfg: LiveConfig,
    vocab: VocabSnapshot,
    deployment: Deployment,
    started: Instant,
    slice_ns: u64,
    shards: Vec<Mutex<Shard>>,
    control: Mutex<Control>,
    metrics: MetricsRegistry,
    stack_evictions: Counter,
    /// Incidents evicted at open before their hypothesis graph could be
    /// populated (capacity 0, or a tiny ring racing the open).
    incident_dropped: Counter,
    /// Analyzer gauges, republished as sums over shards after each ingest
    /// (per-shard `publish_metrics` would clobber the value with one
    /// shard's partial count).
    online_open: Gauge,
    online_buffered: Gauge,
    /// `causeway_probe_transitions_total{reason=alert|operator|ttl}`.
    probe_transitions: [Counter; 3],
}

/// Index into [`LiveMonitor::probe_transitions`] for a transition reason.
fn reason_index(reason: &str) -> usize {
    match reason {
        "alert" => 0,
        "operator" => 1,
        _ => 2,
    }
}

impl LiveMonitor {
    /// Creates a monitor. The vocabulary and deployment snapshots label the
    /// JSON/flamegraph/trace exports (take them from the live system's
    /// `SystemVocab::snapshot()` / `deployment()`).
    pub fn new(cfg: LiveConfig, vocab: VocabSnapshot, deployment: Deployment) -> LiveMonitor {
        let slice_ns =
            (cfg.window.as_nanos() as u64 / cfg.slices.max(1) as u64).max(1);
        let registry = cfg.metrics.clone().unwrap_or_else(|| MetricsRegistry::global().clone());
        let mut history =
            WindowHistory::new(cfg.history_windows, cfg.history_max_bytes, &registry);
        let spill_error = cfg.history_spill.as_ref().and_then(|path| {
            history.enable_spill(path).err().map(|e| format!("{}: {e}", path.display()))
        });
        let stack_evictions = registry.counter(
            "causeway_live_stack_evictions",
            "Folded stacks evicted from the capped flamegraph maps.",
        );
        let incident_dropped = registry.counter(
            "causeway_incident_dropped_total",
            "Incidents evicted before their hypothesis graph could be populated.",
        );
        // Same names + help as the analyzer's own registrations: the
        // registry hands back the same instruments, which the monitor sets
        // to the summed values across shards.
        let online_open = registry.gauge(
            "causeway_online_open_chains",
            "causal chains with open invocations or buffered records",
        );
        let online_buffered = registry.gauge(
            "causeway_online_resequence_buffered",
            "records buffered waiting for out-of-order predecessors",
        );
        let probe_transitions = ["alert", "operator", "ttl"].map(|reason| {
            registry.counter_with(
                "causeway_probe_transitions_total",
                "Probe-mode transitions actuated by the adaptive control plane.",
                &[("reason", reason)],
            )
        });
        let incidents = IncidentStore::new(cfg.incidents.capacity, &registry);
        let exemplars = ExemplarStore::new(cfg.exemplars.clone(), &registry);
        let shards = (0..cfg.shards.max(1)).map(|_| Mutex::new(Shard::new(&registry))).collect();
        LiveMonitor {
            cfg,
            vocab,
            deployment,
            started: Instant::now(),
            slice_ns,
            shards,
            control: Mutex::new(Control {
                current: None,
                closed_len: 0,
                window_records: Vec::new(),
                window_records_dropped: 0,
                last_window_records: Vec::new(),
                last_window: None,
                rules: Vec::new(),
                alert_log: VecDeque::new(),
                history,
                spill_error,
                recent_chains: VecDeque::new(),
                recent_chain_calls: 0,
                known_series: BTreeMap::new(),
                total_completed: 0,
                total_abnormalities: 0,
                window_gauges: HashMap::new(),
                incidents,
                window_abnormal: Vec::new(),
                recent_abnormal: RecentAbnormal::default(),
                probe_ctl: ProbeCtl::default(),
                exemplars,
            }),
            metrics: registry,
            stack_evictions,
            incident_dropped,
            online_open,
            online_buffered,
            probe_transitions,
        }
    }

    /// Nanoseconds since this monitor was created (the default time base).
    pub fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// The vocabulary snapshot the exports are labelled with.
    pub fn vocab(&self) -> &VocabSnapshot {
        &self.vocab
    }

    /// The registry this monitor publishes to and `/metrics` renders
    /// ([`LiveConfig::metrics`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The number of ingestion shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Registers a rule. A window logs its threshold rules' events before
    /// its burn-rate rules', each kind in registration order.
    pub fn add_rule(&self, rule: AlertRule) {
        let mut c = self.control.lock();
        let at = if rule.is_burn() {
            c.rules.len()
        } else {
            c.rules.partition_point(|r| !r.rule.is_burn())
        };
        c.rules.insert(at, RuleState::new(rule, &self.metrics));
    }

    /// Parses and registers a rule spec, threshold or burn-rate (see
    /// [`parse_rule`]).
    pub fn add_rule_spec(&self, spec: &str) -> Result<(), String> {
        self.add_rule(parse_rule(spec, &self.vocab)?);
        Ok(())
    }

    /// The interface display name used by `/probes` and the probe gauges.
    fn iface_name(&self, iface: InterfaceId) -> String {
        self.vocab
            .interfaces
            .get(iface.0 as usize)
            .map(|e| e.name.clone())
            .unwrap_or_else(|| format!("iface-{}", iface.0))
    }

    /// The mode the control state wants for `iface`: an unexpired operator
    /// override wins outright; otherwise the most observant of the firing
    /// rules' holds and the standing floor; `None` means base.
    fn probe_target(ctl: &ProbeCtl, iface: InterfaceId, now_ms: u64) -> Option<ProbeMode> {
        if let Some((mode, expiry)) = ctl.operator.get(&iface) {
            if *expiry > now_ms {
                return Some(*mode);
            }
        }
        let mut best = ctl.floors.get(&iface).copied();
        for (held, mode) in ctl.holds.values() {
            if *held == iface && best.is_none_or(|b| mode.rank() > b.rank()) {
                best = Some(*mode);
            }
        }
        best
    }

    /// Re-derives `iface`'s override from the control state and applies it
    /// to the shared policy. When the effective mode changes, counts the
    /// transition, updates the per-interface mode gauges, appends to the
    /// transition log, and returns the transition for incident noting.
    /// No-op without an adaptive policy.
    fn actuate_probe(
        &self,
        c: &mut Control,
        iface: InterfaceId,
        window_index: u64,
        reason: &'static str,
        detail: String,
        at_ms: u64,
    ) -> Option<ProbeTransition> {
        let policy = self.cfg.adaptive.policy.as_ref()?;
        let from = policy.effective(iface);
        match Self::probe_target(&c.probe_ctl, iface, at_ms) {
            Some(mode) => policy.apply(ProbeDirective { interface: iface, mode }),
            None => policy.clear(iface),
        }
        let to = policy.effective(iface);
        if from == to {
            return None;
        }
        self.probe_transitions[reason_index(reason)].inc();
        let name = self.iface_name(iface);
        let gauges = c.probe_ctl.mode_gauges.entry(iface).or_insert_with(|| {
            ProbeMode::ALL.map(|mode| {
                self.metrics.gauge_with(
                    "causeway_probe_mode",
                    "1 while the labelled interface's probes run at the labelled mode.",
                    &[("iface", &name), ("mode", mode.name())],
                )
            })
        });
        for mode in ProbeMode::ALL {
            gauges[mode.rank() as usize].set(i64::from(mode == to));
        }
        let transition = ProbeTransition {
            at_ms,
            window_index,
            interface: iface,
            from,
            to,
            reason,
            detail,
        };
        c.probe_ctl.log.push_back(transition.clone());
        while c.probe_ctl.log.len() > self.cfg.adaptive.log_capacity.max(1) {
            c.probe_ctl.log.pop_front();
        }
        Some(transition)
    }

    /// Drops operator overrides whose TTL has lapsed and de-escalates the
    /// interfaces they pinned (reason `"ttl"`).
    fn expire_operators_locked(&self, c: &mut Control, window_index: u64, now_ms: u64) {
        if self.cfg.adaptive.policy.is_none() {
            return;
        }
        let expired: Vec<InterfaceId> = c
            .probe_ctl
            .operator
            .iter()
            .filter(|(_, (_, expiry))| *expiry <= now_ms)
            .map(|(iface, _)| *iface)
            .collect();
        for iface in expired {
            c.probe_ctl.operator.remove(&iface);
            self.actuate_probe(
                c,
                iface,
                window_index,
                "ttl",
                "operator override expired".to_owned(),
                now_ms,
            );
        }
    }

    /// Notes a probe transition on retained incidents opened by `alert`.
    fn note_transition(c: &mut Control, ids: &[u64], t: &ProbeTransition, name: &str) {
        for id in ids {
            if let Some(incident) = c.incidents.get_mut(*id) {
                incident.note(
                    t.window_index,
                    format!("probe {name}: {} → {} ({}: {})", t.from, t.to, t.reason, t.detail),
                    t.at_ms,
                );
            }
        }
    }

    /// The retained-window history store, behind the control lock. Drop the
    /// returned guard before calling other monitor methods — holding it
    /// across them deadlocks.
    pub fn history(&self) -> HistoryRef<'_> {
        HistoryRef { guard: self.control.lock() }
    }

    /// Ingests a batch of probe records stamped with the monitor's clock.
    pub fn ingest_batch(&self, records: Vec<ProbeRecord>) {
        self.ingest_batch_at(records, self.now_ns());
    }

    /// Ingests a batch of probe records at an explicit time.
    ///
    /// Three phases. A short control-locked phase advances window time and
    /// retains raw records for `/trace`. Then one grouping pass sorts the
    /// batch's record indices chain → shard → first-appearance rank (a
    /// chain's records always land on one shard, in order, and stay in the
    /// batch; the chain is looked up only where the run of records changes
    /// chain), and each touched shard runs
    /// its chains through the Figure-4 reconstruction and absorbs slice
    /// aggregates under its own lock — concurrent batches only contend when
    /// they share a shard. Finally the cross-chain, order-sensitive effects
    /// are replayed under the control lock in the batch's chain
    /// first-appearance order — exactly the order a serial analyzer emits
    /// its event groups, which is what makes sharded output bit-identical
    /// to the serial monitor.
    pub fn ingest_batch_at(&self, records: Vec<ProbeRecord>, now_ns: u64) {
        let target = {
            let mut c = self.control.lock();
            self.roll_locked(&mut c, now_ns);
            let room = self.cfg.trace_capacity.saturating_sub(c.window_records.len());
            let kept = room.min(records.len());
            c.window_records.extend_from_slice(&records[..kept]);
            c.window_records_dropped += (records.len() - kept) as u64;
            c.current.expect("roll_locked sets current")
        };

        let grouped = ChainGroups::of(&records);
        let n = self.shards.len();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (rank, chain) in grouped.chains.iter().enumerate() {
            by_shard[shard_of(*chain, n)].push(rank);
        }
        let mut completed: BTreeMap<SeriesKey, u64> = BTreeMap::new();
        let mut groups: Vec<ChainGroup> = Vec::new();
        for (index, ranks) in by_shard.into_iter().enumerate() {
            if ranks.is_empty() {
                continue;
            }
            // Shard guards drop before the control lock below: a thread
            // holding a shard never waits on control (see module docs).
            let mut shard = self.shards[index].lock();
            // A completion racing a concurrent window close lands in the
            // first still-open slice rather than mutating a finalized window.
            let apply_at = target.max(shard.floor);
            for rank in ranks {
                groups.extend(self.absorb_chain(
                    &mut shard,
                    apply_at,
                    grouped.chains[rank],
                    rank,
                    grouped.records(rank, &records),
                    &mut completed,
                ));
            }
        }
        groups.sort_unstable_by_key(|g| g.rank);

        {
            let mut c = self.control.lock();
            let spw = self.cfg.slices.max(1) as u64;
            let window_index = c.current.map_or(0, |slice| slice / spw);
            for (key, calls) in completed {
                c.total_completed += calls;
                *c.known_series.entry(key).or_insert(0) += calls;
            }
            for group in groups {
                let abnormal_now = !group.abnormal.is_empty();
                for message in group.abnormal {
                    c.total_abnormalities += 1;
                    if !c.window_abnormal.contains(&group.chain)
                        && c.window_abnormal.len() < WINDOW_ABNORMAL_CAP
                    {
                        c.window_abnormal.push(group.chain);
                    }
                    c.recent_abnormal.push(group.chain, message);
                }
                if let Some((completions, candidate)) = group.idle {
                    // Exemplar *admission* (reservoir publication) rides
                    // the rank-ordered replay: same order as a serial
                    // monitor, so the store is shard-count independent. A
                    // chain that misbehaved in an earlier batch still
                    // counts as abnormal via the retained evidence pool.
                    if let Some((series, latency_ns)) = candidate {
                        let abnormal = abnormal_now || c.recent_abnormal.contains(group.chain);
                        c.exemplars.offer(
                            series,
                            group.chain,
                            latency_ns,
                            window_index,
                            abnormal,
                            &completions,
                        );
                    }
                    self.retain_chain(&mut c, group.chain, completions);
                }
            }
        }
        self.publish_online_gauges();
    }

    /// Advances window time with no new records (idle periods must still
    /// finalize windows so alerts can resolve).
    pub fn tick(&self) {
        self.tick_at(self.now_ns());
    }

    /// Advances window time to an explicit instant.
    pub fn tick_at(&self, now_ns: u64) {
        let mut c = self.control.lock();
        self.roll_locked(&mut c, now_ns);
    }

    /// Runs one chain's records through its shard: the Figure-4 step, the
    /// slice aggregates (completions are also summed into `completed`) and
    /// the chain's completion buffer; when the chain goes idle its state is
    /// forgotten and its calls folded into the flamegraph maps. All of that
    /// is chain-local. What must replay in batch order under the control
    /// lock comes back as the chain's group, or `None` when there is
    /// nothing to replay.
    fn absorb_chain<'a>(
        &self,
        shard: &mut Shard,
        apply_at: u64,
        chain: Uuid,
        rank: usize,
        records: impl Iterator<Item = &'a ProbeRecord>,
        completed: &mut BTreeMap<SeriesKey, u64>,
    ) -> Option<ChainGroup> {
        let Shard { analyzer, slices, chain_events, stacks, .. } = shard;
        let slice = slices.entry(apply_at).or_default();
        let mut calls = chain_events.remove(&chain);
        let mut abnormal = Vec::new();
        let mut idle = false;
        analyzer.ingest_chain(chain, records, &mut |event| match event {
            OnlineEvent::CallCompleted { func, kind, depth, latency_ns, .. } => {
                let latency = latency_ns.unwrap_or(0);
                let key = (func.interface, func.method);
                slice.series.entry(key).or_default().record(latency);
                slice.completed_calls += 1;
                *completed.entry(key).or_insert(0) += 1;
                let calls = calls.get_or_insert_with(Vec::new);
                if calls.len() < self.cfg.chain_event_capacity {
                    calls.push(CompletedCall { func, kind, depth, latency_ns: latency });
                }
            }
            OnlineEvent::Abnormality { at_seq, message, .. } => {
                slice.abnormalities += 1;
                abnormal.push(format!("seq {at_seq}: {message}"));
            }
            OnlineEvent::ChainIdle { .. } => idle = true,
        });
        if !idle {
            if let Some(calls) = calls {
                chain_events.insert(chain, calls);
            }
            let replay = !abnormal.is_empty();
            return replay.then_some(ChainGroup { chain, rank, abnormal, idle: None });
        }
        // Completed transactions must not accumulate analyzer state forever
        // in a long-running service.
        analyzer.forget_chain(chain);
        let idle = calls.map(|calls| {
            stacks.fold(&calls, &self.vocab, self.cfg.stack_capacity.max(1), &self.stack_evictions);
            // Exemplar *selection* happens here, under the shard lock: the
            // chain's root series and latency are chain-local facts.
            // Admission is deferred to the rank-ordered replay so the
            // reservoirs stay bit-identical at any shard count.
            let candidate = exemplar_candidate(&calls);
            (calls, candidate)
        });
        Some(ChainGroup { chain, rank, abnormal, idle })
    }

    /// Retains a completed chain's events for `/dscg`, evicting the oldest
    /// chains once the buffered completions exceed `cfg.trace_capacity`.
    fn retain_chain(&self, c: &mut Control, chain: Uuid, completions: ChainCompletions) {
        c.recent_chain_calls += completions.len();
        c.recent_chains.push_back((chain, completions));
        while c.recent_chains.len() > 1 && c.recent_chain_calls > self.cfg.trace_capacity {
            let (_, dropped) = c.recent_chains.pop_front().expect("len checked");
            c.recent_chain_calls -= dropped.len();
        }
    }

    /// Advances the slice/window machinery to cover `now_ns`.
    fn roll_locked(&self, c: &mut Control, now_ns: u64) {
        let target = now_ns / self.slice_ns;
        let spw = self.cfg.slices.max(1) as u64;
        let Some(mut index) = c.current else {
            c.current = Some(target);
            return;
        };
        if target <= index {
            return; // time within the current slice (or stale stamp)
        }
        // After a very long idle gap, every skipped window is empty and the
        // rule machinery converges within a rule's span of them — evaluate
        // a bounded number and jump.
        let max_catchup = spw * 64;
        if target - index > max_catchup {
            let resume = target - max_catchup;
            c.closed_len = 0;
            c.current = Some(resume);
            index = resume;
            for shard in &self.shards {
                let mut shard = shard.lock();
                shard.slices.clear();
                shard.floor = resume;
            }
        }
        while index < target {
            index += 1;
            c.current = Some(index);
            c.closed_len = (c.closed_len + 1).min(spw);
            if index % spw == 0 {
                self.finalize_window_locked(c, index / spw - 1);
            }
        }
    }

    /// Merges every shard's slices in `[lo, hi]` into a snapshot (the
    /// sliding view). Sum-merges over ordered maps commute, so the result
    /// is independent of shard count.
    fn sliding_locked(&self, c: &Control) -> WindowSnapshot {
        let mut snap = WindowSnapshot {
            index: u64::MAX,
            span_ns: 0,
            series: BTreeMap::new(),
            completed_calls: 0,
            abnormalities: 0,
        };
        let Some(current) = c.current else {
            return snap;
        };
        let lo = current.saturating_sub(c.closed_len);
        for shard in &self.shards {
            let shard = shard.lock();
            for slice in shard.slices.range(lo..=current).map(|(_, s)| s) {
                merge_slice(&mut snap, slice);
            }
        }
        snap.span_ns = (c.closed_len + 1) * self.slice_ns;
        snap
    }

    /// Closes tumbling window `window_index`: merges every shard's slices
    /// and per-window folded stacks, then runs the serial window machinery
    /// (gauges, alerts, history, burn rates, incidents) on the merged
    /// snapshot under the control lock.
    fn finalize_window_locked(&self, c: &mut Control, window_index: u64) {
        let spw = self.cfg.slices.max(1) as u64;
        let end = (window_index + 1) * spw;
        let start = end - spw;
        let mut snap = WindowSnapshot {
            index: window_index,
            span_ns: spw * self.slice_ns,
            series: BTreeMap::new(),
            completed_calls: 0,
            abnormalities: 0,
        };
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            for slice in shard.slices.range(start..end).map(|(_, s)| s) {
                merge_slice(&mut snap, slice);
            }
            // Slices older than this window can no longer appear in any
            // view; the just-closed window's slices stay for the sliding
            // view until the next finalization.
            shard.slices = shard.slices.split_off(&start);
            shard.floor = end;
            shard.stacks.close_window(&mut folded);
        }

        self.export_window_gauges(c, &snap);
        // Step every rule on the closed window. `Control.rules` keeps
        // threshold rules ahead of burn rules, which fixes the order events
        // are logged, open incidents and actuate probes in.
        let mut events: Vec<(AlertEvent, usize)> = Vec::new();
        for (i, rule) in c.rules.iter_mut().enumerate() {
            events.extend(rule.step(&snap).map(|event| (event, i)));
        }
        // Retain the closed window: aggregates + this window's folded-stack
        // delta.
        c.history.push(HistoryEntry { window: snap.clone(), folded });

        // Pin breach exemplars on every firing: the breach window's
        // slowest retained chains of the rule's series (store-wide when
        // the rule has no series target). `/alerts` surfaces the uuids and
        // `/exemplars?id=` resolves each to the concrete chain.
        for (event, i) in events.iter_mut() {
            if event.fired {
                let series = c.rules[*i].rule.series;
                event.exemplars =
                    c.exemplars.breaching(series, event.window_index, EXEMPLAR_REFS_MAX);
                // The published uuids must outlive later, faster traffic:
                // an operator following the alert hours in may still ask.
                for chain in &event.exemplars {
                    c.exemplars.pin(*chain);
                }
            }
        }

        // Incident forensics: firings register and auto-populate an
        // incident (the breach window is already in the history, so its
        // evidence resolves); resolves close the matching open incidents.
        let window_abnormal = std::mem::take(&mut c.window_abnormal);
        let mut incident_of: Vec<Vec<u64>> = vec![Vec::new(); events.len()];
        if self.cfg.incidents.enabled {
            for (i, (event, rule)) in events.iter().enumerate() {
                if event.fired {
                    let lookback = c.rules[*rule].rule.lookback();
                    incident_of[i].extend(self.open_incident(c, event, lookback));
                } else {
                    // Remember which incidents this resolve closes, so a
                    // de-escalation actuated by it lands on their timelines.
                    incident_of[i] = c
                        .incidents
                        .iter()
                        .filter(|inc| inc.is_open() && inc.alert == event.alert)
                        .map(|inc| inc.id)
                        .collect();
                    c.incidents.resolve_for_alert(
                        &event.alert,
                        event.window_index,
                        event.at_ms,
                    );
                }
            }
            self.recheck_abnormal(c, &window_abnormal, window_index);
        }

        // The probe actuator: series-targeting transitions escalate their
        // interface while firing and release the hold on resolve; `ttl`
        // sweeps expired operator overrides every window close.
        if self.cfg.adaptive.policy.is_some() {
            for (i, (event, rule)) in events.iter().enumerate() {
                let AlertRule { series, escalate, deescalate, .. } = c.rules[*rule].rule;
                let Some((iface, _)) = series else { continue };
                let transition = if event.fired {
                    let mode = escalate.unwrap_or(self.cfg.adaptive.escalate_mode);
                    c.probe_ctl.holds.insert(event.alert.clone(), (iface, mode));
                    self.actuate_probe(
                        c,
                        iface,
                        window_index,
                        "alert",
                        format!("fired: {}", event.alert),
                        event.at_ms,
                    )
                } else {
                    c.probe_ctl.holds.remove(&event.alert);
                    if let Some(floor) = deescalate {
                        c.probe_ctl.floors.insert(iface, floor);
                    }
                    self.actuate_probe(
                        c,
                        iface,
                        window_index,
                        "alert",
                        format!("resolved: {}", event.alert),
                        event.at_ms,
                    )
                };
                if let Some(t) = transition {
                    let name = self.iface_name(iface);
                    Self::note_transition(c, &incident_of[i], &t, &name);
                }
            }
            self.expire_operators_locked(c, window_index, incident::wall_clock_ms());
        }

        for (event, _) in events {
            c.alert_log.push_back(event);
            while c.alert_log.len() > self.cfg.alert_log_capacity {
                c.alert_log.pop_front();
            }
        }

        c.last_window_records = std::mem::take(&mut c.window_records);
        c.window_records_dropped = 0;
        c.last_window = Some(snap);
    }
    /// Registers an incident for a just-fired alert, populates its add-only
    /// hypothesis graph from retained evidence, and runs the automatic
    /// elimination passes that are decidable at open time. Returns the
    /// incident id, or `None` when the ring dropped it before evidence
    /// could land.
    fn open_incident(
        &self,
        c: &mut Control,
        event: &AlertEvent,
        lookback_windows: u64,
    ) -> Option<u64> {
        let cfg = self.cfg.incidents.clone();
        let breach = event.window_index;
        let at_ms = event.at_ms;
        // The baseline is the newest still-resolvable window from *before*
        // the sustained breach: `lookback` windows back, or the nearest
        // older survivor (ring or spill) when that exact ordinal aged out.
        let baseline = breach
            .checked_sub(lookback_windows)
            .and_then(|candidate| c.history.newest_at_or_before(candidate));
        let breach_entry = c.history.lookup(breach).map(|e| e.into_owned());
        let baseline_entry =
            baseline.and_then(|b| c.history.lookup(b).map(|e| e.into_owned()));
        let id = c.incidents.open(&event.alert, breach, baseline, at_ms);
        // A capacity-0 ring (or a tiny one whose eviction races this open)
        // can drop the incident before any evidence lands. Skip gracefully
        // and count it — the window-close path must never panic on it.
        if c.incidents.get(id).is_none() {
            self.incident_dropped.inc();
            c.incidents.refresh_gauges();
            return None;
        }

        // Evidence 1: top flamegraph-diff regressions, breach vs baseline.
        let mut regressions: Vec<(u64, String, i64)> = Vec::new();
        if let (Some(bl), Some(be)) = (&baseline_entry, &breach_entry) {
            let diff = diff_folded(&bl.folded, &be.folded);
            let entry = c.incidents.get_mut(id)?;
            for (stack, delta) in
                diff.into_iter().filter(|(_, d)| *d > 0).take(cfg.top_regressions)
            {
                let hyp = entry.add_hypothesis(
                    HypothesisKind::FlamegraphRegression,
                    stack.clone(),
                    format!(
                        "self time {delta:+}ns in breach window {breach} vs baseline window {}",
                        bl.window.index
                    ),
                    delta as u64,
                    breach,
                    at_ms,
                );
                regressions.push((hyp, stack, delta));
            }
        }

        // Evidence 2: recently abnormal chains, with their DSCG renders
        // when the completed-chain ring still holds them.
        let mut picked: Vec<(Uuid, String)> = Vec::new();
        for (chain, message) in c.recent_abnormal.iter().rev() {
            if picked.iter().any(|(c, _)| c == chain) {
                continue;
            }
            picked.push((*chain, message.clone()));
            if picked.len() >= cfg.max_abnormal {
                break;
            }
        }
        for (chain, message) in picked {
            let mut detail = message;
            // The trace ring first; the exemplar store keeps abnormal
            // chains long after FIFO churn, so fall back to it and mark
            // the hypothesis with its resolvable exemplar reference.
            if let Some((_, completions)) =
                c.recent_chains.iter().rev().find(|(c, _)| *c == chain)
            {
                detail.push('\n');
                detail.push_str(&render::completed_chain_ascii(chain, completions, &self.vocab));
            } else if let Some(e) = c.exemplars.get(chain) {
                detail.push('\n');
                detail.push_str(&render::completed_chain_ascii(chain, &e.completions, &self.vocab));
            }
            if c.exemplars.get(chain).is_some() {
                detail.push_str(&format!("\nexemplar {chain}"));
            }
            let Some(entry) = c.incidents.get_mut(id) else { break };
            entry.add_hypothesis(
                HypothesisKind::AbnormalChain,
                chain.to_string(),
                detail,
                0,
                breach,
                at_ms,
            );
        }

        // Evidence 3: hottest folded stacks of the breach window itself.
        let mut hot: Vec<(String, u64)> = breach_entry
            .as_ref()
            .map(|be| be.folded.iter().map(|(s, ns)| (s.clone(), *ns)).collect())
            .unwrap_or_default();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total_self_ns: u64 = hot.iter().map(|(_, ns)| ns).sum();
        let mut hot_ids: Vec<(u64, u64)> = Vec::new();
        if let Some(entry) = c.incidents.get_mut(id) {
            for (stack, self_ns) in hot.into_iter().take(cfg.top_stacks) {
                let share = if total_self_ns == 0 {
                    0.0
                } else {
                    self_ns as f64 / total_self_ns as f64
                };
                let hyp = entry.add_hypothesis(
                    HypothesisKind::HotStack,
                    stack,
                    format!(
                        "{self_ns}ns self time in breach window {breach} ({:.1}% of window self time)",
                        share * 100.0
                    ),
                    self_ns,
                    breach,
                    at_ms,
                );
                hot_ids.push((hyp, self_ns));
            }
            let populated = entry.hypotheses().len();
            entry.note(
                breach,
                format!("auto-populated {populated} hypotheses from retained evidence"),
                at_ms,
            );
            if !event.exemplars.is_empty() {
                let uuids: Vec<String> =
                    event.exemplars.iter().map(|u| u.to_string()).collect();
                entry.note(
                    breach,
                    format!("breach exemplars: {}", uuids.join(", ")),
                    at_ms,
                );
            }
        }
        c.incidents.refresh_gauges();

        // Pass 1 (baseline-presence): a "regression" whose stack already
        // spent comparable self time in the baseline window grew, it did
        // not appear — rule it out as the novel cause.
        if let Some(bl) = &baseline_entry {
            for (hyp, stack, delta) in &regressions {
                let baseline_ns = bl.folded.get(stack).copied().unwrap_or(0);
                if baseline_ns > 0 && (*delta as u64) < baseline_ns {
                    let _ = c.incidents.eliminate(
                        id,
                        *hyp,
                        incident::PASS_BASELINE,
                        &format!(
                            "regression also present in baseline window {}: {baseline_ns}ns \
                             there vs a {delta:+}ns delta",
                            bl.window.index
                        ),
                    );
                }
            }
        }

        // Pass 2 (stack-floor): hot stacks below the share floor are
        // background noise — except the heaviest one, which always survives
        // so the hot-stack evidence can never eliminate itself entirely.
        if total_self_ns > 0 {
            let heaviest = hot_ids.iter().map(|(_, ns)| *ns).max().unwrap_or(0);
            let mut spared = false;
            for (hyp, self_ns) in &hot_ids {
                if *self_ns == heaviest && !spared {
                    spared = true;
                    continue;
                }
                let share = *self_ns as f64 / total_self_ns as f64;
                if share < cfg.stack_share_floor {
                    let _ = c.incidents.eliminate(
                        id,
                        *hyp,
                        incident::PASS_STACK_FLOOR,
                        &format!(
                            "stack share {:.2}% of breach-window self time is below the \
                             {:.2}% floor",
                            share * 100.0,
                            cfg.stack_share_floor * 100.0
                        ),
                    );
                }
            }
        }
        Some(id)
    }

    /// The re-check elimination pass, run at every window close: a live
    /// abnormal-chain hypothesis whose chain has no open work left and
    /// produced no new abnormality this window completed normally after
    /// all — tombstone it. Hypotheses added this very window are spared
    /// (their evidence has not had a full window to re-prove itself).
    fn recheck_abnormal(&self, c: &mut Control, window_abnormal: &[Uuid], window_index: u64) {
        let mut targets: Vec<(u64, u64, Uuid)> = Vec::new();
        for entry in c.incidents.iter() {
            if !entry.is_open() {
                continue;
            }
            for h in entry.hypotheses() {
                if h.kind == HypothesisKind::AbnormalChain
                    && !entry.is_eliminated(h.id)
                    && h.added_window < window_index
                {
                    if let Ok(chain) = h.subject.parse::<Uuid>() {
                        targets.push((entry.id, h.id, chain));
                    }
                }
            }
        }
        if targets.is_empty() {
            return;
        }
        let mut open: Vec<Uuid> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            open.extend(shard.analyzer.open_chain_summaries().iter().map(|s| s.chain));
        }
        for (incident_id, hypothesis, chain) in targets {
            if open.contains(&chain) || window_abnormal.contains(&chain) {
                continue;
            }
            let _ = c.incidents.eliminate(
                incident_id,
                hypothesis,
                incident::PASS_CHAIN_RECHECK,
                &format!(
                    "chain completed normally on re-check at window {window_index} \
                     (no open work, no new abnormality)"
                ),
            );
        }
    }

    fn export_window_gauges(&self, c: &mut Control, snap: &WindowSnapshot) {
        let registry = &self.metrics;
        for (key, agg) in &snap.series {
            let gauges = c.window_gauges.entry(*key).or_insert_with(|| {
                let iface = self.vocab.interface_name(key.0).to_owned();
                let method = self.vocab.method_name(key.0, key.1).to_owned();
                let labels = [("iface", iface.as_str()), ("method", method.as_str())];
                [
                    registry.gauge_with(
                        "causeway_live_window_p50_ns",
                        "Median latency over the last tumbling window.",
                        &labels,
                    ),
                    registry.gauge_with(
                        "causeway_live_window_p95_ns",
                        "95th-percentile latency over the last tumbling window.",
                        &labels,
                    ),
                    registry.gauge_with(
                        "causeway_live_window_p99_ns",
                        "99th-percentile latency over the last tumbling window.",
                        &labels,
                    ),
                    registry.gauge_with(
                        "causeway_live_window_calls",
                        "Invocations completed in the last tumbling window.",
                        &labels,
                    ),
                    registry.gauge_with(
                        "causeway_live_window_busy_ns",
                        "Summed invocation latency over the last tumbling window.",
                        &labels,
                    ),
                ]
            });
            gauges[0].set(agg.hist.quantile_ns(0.50) as i64);
            gauges[1].set(agg.hist.quantile_ns(0.95) as i64);
            gauges[2].set(agg.hist.quantile_ns(0.99) as i64);
            gauges[3].set(agg.calls as i64);
            gauges[4].set(agg.latency_sum_ns as i64);
        }
        // Series absent from this window drop to zero rather than freezing
        // at their last value.
        for (key, gauges) in &c.window_gauges {
            if !snap.series.contains_key(key) {
                for gauge in gauges {
                    gauge.set(0);
                }
            }
        }
        registry
            .gauge_with(
                "causeway_live_window_abnormalities",
                "Reconstruction failures in the last tumbling window.",
                &[],
            )
            .set(snap.abnormalities as i64);
        registry
            .gauge_with(
                "causeway_live_window_completed_calls",
                "Invocations completed in the last tumbling window.",
                &[],
            )
            .set(snap.completed_calls as i64);
    }

    /// The sliding view: the most recent `cfg.slices` slices including the
    /// accumulating one, merged across shards. At slice granularity this
    /// trails the tumbling window by at most one slice.
    pub fn sliding(&self) -> WindowSnapshot {
        let c = self.control.lock();
        self.sliding_locked(&c)
    }

    /// The last finalized tumbling window, if one has completed.
    pub fn last_window(&self) -> Option<WindowSnapshot> {
        self.control.lock().last_window.clone()
    }

    /// Names of currently firing alerts (threshold and burn-rate).
    pub fn active_alerts(&self) -> Vec<String> {
        let c = self.control.lock();
        Self::active_alerts_locked(&c)
    }

    fn active_alerts_locked(c: &Control) -> Vec<String> {
        c.rules.iter().filter(|r| r.active()).map(|r| r.rule.name.clone()).collect()
    }

    /// All retained alert transitions, oldest first.
    pub fn alert_log(&self) -> Vec<AlertEvent> {
        self.control.lock().alert_log.iter().cloned().collect()
    }

    /// Invocations completed since construction.
    pub fn total_completed(&self) -> u64 {
        self.control.lock().total_completed
    }

    /// Abnormalities observed since construction.
    pub fn total_abnormalities(&self) -> u64 {
        self.control.lock().total_abnormalities
    }

    /// Summed (open chains, buffered records) across every shard's analyzer.
    fn analyzer_totals(&self) -> (usize, usize) {
        let mut open = 0;
        let mut buffered = 0;
        for shard in &self.shards {
            let shard = shard.lock();
            open += shard.analyzer.open_chains();
            buffered += shard.analyzer.buffered_records();
        }
        (open, buffered)
    }

    /// Republishes the process-global analyzer gauges as sums over shards.
    fn publish_online_gauges(&self) {
        let (open, buffered) = self.analyzer_totals();
        self.online_open.set(open as i64);
        self.online_buffered.set(buffered as i64);
    }

    /// Chains with unfinished work, merged across shards and sorted by
    /// chain id for shard-count-independent output.
    pub fn open_chain_summaries(&self) -> Vec<OpenChainSummary> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            all.extend(shard.analyzer.open_chain_summaries());
        }
        all.sort_by_key(|s| s.chain);
        all
    }

    /// Every shard's cumulative folded stacks sum-merged into one map.
    fn merged_folded(&self) -> BTreeMap<String, u64> {
        let mut merged = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock();
            shard.stacks.render_cumulative(&mut merged);
        }
        merged
    }

    /// Cumulative folded flamegraph stacks (`a;b;c self_ns` per line,
    /// inferno-compatible), sorted by stack for deterministic output.
    pub fn folded_stacks(&self) -> String {
        render_folded(&self.merged_folded())
    }

    /// The `/flamegraph[?window=k]` body: cumulative folded stacks, or one
    /// window's stacks when scoped — served from the history ring, or read
    /// back from the spill segment for ordinals that already aged out.
    pub fn flamegraph(&self, window: Option<u64>) -> Result<String, String> {
        match window {
            None => Ok(self.folded_stacks()),
            Some(index) => {
                let c = self.control.lock();
                let entry = c
                    .history
                    .lookup(index)
                    .ok_or_else(|| format!("window {index} is not retained"))?;
                Ok(render_folded(&entry.folded))
            }
        }
    }

    /// The `/flamegraph/diff?a=..&b=..` body: the folded-stack delta
    /// `b − a` between two windows (ring or spill), largest regression
    /// first (`stack +delta` / `stack -delta` per line).
    pub fn flamegraph_diff(&self, a: u64, b: u64) -> Result<String, String> {
        let c = self.control.lock();
        let wa =
            c.history.lookup(a).ok_or_else(|| format!("window {a} is not retained"))?;
        let wb =
            c.history.lookup(b).ok_or_else(|| format!("window {b} is not retained"))?;
        let mut out = String::new();
        for (stack, delta) in diff_folded(&wa.folded, &wb.folded) {
            out.push_str(&format!("{stack} {delta:+}\n"));
        }
        Ok(out)
    }

    /// The `/history[?from=..&to=..]` JSON body: store bounds, per-window
    /// summaries (oldest first), and burn-rule states. Without a range the
    /// summaries cover the in-memory ring; with one they cover the
    /// requested ordinals, reaching into the spill segment for windows that
    /// already aged out (at most [`HISTORY_RANGE_MAX`] per request).
    pub fn history_json(&self, from: Option<u64>, to: Option<u64>) -> Json {
        let c = self.control.lock();
        let windows: Vec<Json> = if from.is_some() || to.is_some() {
            // Both bounds consult the spill as well as the ring: after a
            // restart the ring starts empty while the spill still holds
            // windows, and a ring-only `newest` of 0 would hide them.
            let newest = c
                .history
                .latest()
                .map(|e| e.window.index)
                .max(c.history.spill().and_then(|s| s.max_index()))
                .unwrap_or(0);
            let oldest = c
                .history
                .spill()
                .and_then(|s| s.min_index())
                .or_else(|| c.history.iter().next().map(|e| e.window.index))
                .unwrap_or(0);
            c.history
                .range(from.unwrap_or(oldest), to.unwrap_or(newest), HISTORY_RANGE_MAX)
                .iter()
                .map(window_summary_json)
                .collect()
        } else {
            c.history.iter().map(window_summary_json).collect()
        };
        let burns = c
            .rules
            .iter()
            .filter_map(|r| {
                let Trigger::Burn { slo_percent, fast, slow, factor } = r.rule.trigger else {
                    return None;
                };
                Some(Json::obj([
                    ("rule", Json::Str(r.rule.name.clone())),
                    ("active", Json::Bool(r.active())),
                    ("slo_percent", Json::Num(slo_percent)),
                    ("fast_windows", Json::Num(fast as f64)),
                    ("slow_windows", Json::Num(slow as f64)),
                    ("factor", Json::Num(factor)),
                ]))
            })
            .collect();
        let mut fields = vec![
            ("retained_windows", Json::Num(c.history.len() as f64)),
            ("cap_windows", Json::Num(c.history.cap_windows() as f64)),
            ("cap_bytes", Json::Num(c.history.cap_bytes() as f64)),
            ("approx_bytes", Json::Num(c.history.approx_bytes() as f64)),
            ("evictions", Json::Num(c.history.evictions() as f64)),
        ];
        if let Some(spill) = c.history.spill() {
            fields.push(("spilled_windows", Json::Num(spill.len() as f64)));
            fields.push(("spill_bytes", Json::Num(spill.bytes() as f64)));
            fields.push((
                "spill_oldest",
                spill.min_index().map_or(Json::Null, |i| Json::Num(i as f64)),
            ));
            fields.push((
                "spill_errors",
                Json::Num(c.history.spill_errors() as f64),
            ));
        }
        if let Some(error) = &c.spill_error {
            fields.push(("spill_error", Json::Str(error.clone())));
        }
        fields.push(("windows", Json::Arr(windows)));
        fields.push(("burn_rules", Json::Arr(burns)));
        Json::obj(fields)
    }

    /// The `/dscg` JSON index: recently completed chains available for
    /// rendering, oldest first.
    pub fn recent_chains_json(&self) -> Json {
        let c = self.control.lock();
        let chains = c
            .recent_chains
            .iter()
            .map(|(chain, completions)| {
                Json::obj([
                    ("chain", Json::Str(chain.to_string())),
                    ("completed_calls", Json::Num(completions.len() as f64)),
                ])
            })
            .collect();
        Json::obj([("recent_chains", Json::Arr(chains))])
    }

    /// The `/dscg?chain=<uuid>[&format=dot]` body: an incremental DSCG
    /// render of one recently completed chain. The FIFO trace ring is
    /// consulted first; a chain volume already churned out of it still
    /// renders when the exemplar store holds it — eviction by sheer
    /// traffic must not sever the link from an exemplar reference to its
    /// render.
    pub fn dscg_render(&self, chain: &str, format: Option<&str>) -> Result<String, String> {
        let uuid: Uuid =
            chain.parse().map_err(|_| format!("bad chain uuid {chain:?}"))?;
        let c = self.control.lock();
        let completions = c
            .recent_chains
            .iter()
            .rev()
            .find(|(c, _)| *c == uuid)
            .map(|(_, completions)| completions)
            .or_else(|| c.exemplars.get(uuid).map(|e| &e.completions))
            .ok_or_else(|| format!("chain {chain} is not retained"))?;
        Ok(match format {
            Some("dot") => render::completed_chain_dot(uuid, completions, &self.vocab),
            _ => render::completed_chain_ascii(uuid, completions, &self.vocab),
        })
    }

    /// Chrome trace-event JSON of the last finalized window's raw records
    /// (falls back to the accumulating window before the first boundary).
    pub fn trace_json(&self) -> String {
        let records = {
            let c = self.control.lock();
            if c.last_window_records.is_empty() {
                c.window_records.clone()
            } else {
                c.last_window_records.clone()
            }
        };
        let run = RunLog::new(records, self.vocab.clone(), self.deployment.clone());
        chrome_trace::export(&MonitoringDb::from_run(run))
    }

    /// The `/latency` JSON body. With an `iface` filter: that interface's
    /// per-series windowed statistics. Without one: the index of every
    /// series seen since start (name + cumulative call count), so the
    /// endpoint tells an operator what to ask for instead of replying with
    /// an empty body on an idle window.
    pub fn latency_json(&self, iface: Option<&str>, method: Option<&str>) -> Json {
        let c = self.control.lock();
        let Some(iface) = iface else {
            return self.known_series_json_locked(&c);
        };
        let window = self.sliding_locked(&c);
        let mut series = Vec::new();
        for (key, agg) in &window.series {
            let iface_name = self.vocab.interface_name(key.0);
            let method_name = self.vocab.method_name(key.0, key.1);
            if iface != iface_name {
                continue;
            }
            if method.is_some_and(|want| want != method_name) {
                continue;
            }
            let p95 = agg.hist.quantile_ns(0.95);
            let p99 = agg.hist.quantile_ns(0.99);
            // OpenMetrics-style exemplar references on the tail buckets:
            // the retained chains at or above this window's p95, labelled
            // with the tightest bucket they still clear. The histogram
            // quantile reports its log2 bucket's *upper* bound, so members
            // of that bucket sit anywhere at or above half of it — use the
            // bucket's lower bound as the inclusive floor.
            let refs: Vec<Json> = c
                .exemplars
                .refs_at_least(*key, p95 / 2, EXEMPLAR_REFS_MAX)
                .into_iter()
                .map(|e| {
                    Json::obj([
                        ("chain", Json::Str(e.chain.to_string())),
                        ("latency_ns", Json::Num(e.latency_ns as f64)),
                        ("window_index", Json::Num(e.window_index as f64)),
                        ("verdict", Json::Str(e.verdict.name().to_owned())),
                        (
                            "bucket",
                            Json::Str(
                                if e.latency_ns >= p99 / 2 { "p99" } else { "p95" }.to_owned(),
                            ),
                        ),
                    ])
                })
                .collect();
            series.push(Json::obj([
                ("iface", Json::Str(iface_name.to_owned())),
                ("method", Json::Str(method_name.to_owned())),
                ("calls", Json::Num(agg.calls as f64)),
                ("call_rate_hz", Json::Num(window.call_rate_hz(Some(*key)))),
                (
                    "mean_ns",
                    Json::Num(if agg.calls == 0 {
                        0.0
                    } else {
                        agg.latency_sum_ns as f64 / agg.calls as f64
                    }),
                ),
                ("p50_ns", Json::Num(agg.hist.quantile_ns(0.50) as f64)),
                ("p95_ns", Json::Num(p95 as f64)),
                ("p99_ns", Json::Num(p99 as f64)),
                ("busy_share", Json::Num(window.busy_share(*key))),
                ("exemplars", Json::Arr(refs)),
            ]));
        }
        Json::obj([
            ("window_ns", Json::Num(window.span_ns as f64)),
            ("completed_calls", Json::Num(window.completed_calls as f64)),
            ("abnormality_rate_hz", Json::Num(window.abnormality_rate_hz())),
            ("series", Json::Arr(series)),
        ])
    }

    /// Every series seen since start with its cumulative call count — the
    /// unfiltered `/latency` body.
    fn known_series_json_locked(&self, c: &Control) -> Json {
        let series = c
            .known_series
            .iter()
            .map(|(key, calls)| {
                Json::obj([
                    ("iface", Json::Str(self.vocab.interface_name(key.0).to_owned())),
                    ("method", Json::Str(self.vocab.method_name(key.0, key.1).to_owned())),
                    ("calls", Json::Num(*calls as f64)),
                ])
            })
            .collect();
        Json::obj([("known_series", Json::Arr(series))])
    }

    /// The `/healthz` JSON body and HTTP status: 200 while no alert fires,
    /// 503 with the firing names otherwise. Besides liveness counters the
    /// body reports time-travel health — current window ordinal, history
    /// evictions, and spill error state — so a scraper can tell when the
    /// evidence an incident would need has started to rot.
    pub fn health_json(&self) -> (u16, Json) {
        let c = self.control.lock();
        let active = Self::active_alerts_locked(&c);
        let status = if active.is_empty() { 200 } else { 503 };
        let open_incidents = c.incidents.iter().filter(|i| i.is_open()).count();
        let (open_chains, buffered) = self.analyzer_totals();
        let body = Json::obj([
            (
                "status",
                Json::Str(if active.is_empty() { "ok" } else { "degraded" }.to_owned()),
            ),
            // What build and topology is serving: a scraper (or a human
            // mid-incident) can tell a fresh restart from a long-lived
            // monitor and a serial from a sharded deployment.
            ("uptime_ms", Json::Num(self.started.elapsed().as_millis() as f64)),
            ("version", Json::Str(env!("CARGO_PKG_VERSION").to_owned())),
            ("shards", Json::Num(self.shards.len() as f64)),
            ("active_alerts", Json::Arr(active.into_iter().map(Json::Str).collect())),
            ("open_chains", Json::Num(open_chains as f64)),
            ("buffered_records", Json::Num(buffered as f64)),
            ("completed_calls", Json::Num(c.total_completed as f64)),
            ("abnormalities", Json::Num(c.total_abnormalities as f64)),
            (
                "window_index",
                c.last_window
                    .as_ref()
                    .map_or(Json::Null, |w| Json::Num(w.index as f64)),
            ),
            ("history_evictions", Json::Num(c.history.evictions() as f64)),
            ("spill_errors", Json::Num(c.history.spill_errors() as f64)),
            (
                "spill_error",
                c.spill_error.as_ref().map_or(Json::Null, |e| Json::Str(e.clone())),
            ),
            ("open_incidents", Json::Num(open_incidents as f64)),
            (
                "escalated_interfaces",
                Json::Num(
                    self.cfg
                        .adaptive
                        .policy
                        .as_ref()
                        .map_or(0, |p| p.overrides().len()) as f64,
                ),
            ),
        ]);
        (status, body)
    }

    /// The `GET /alerts` JSON body: the bounded alert-transition log,
    /// oldest first.
    pub fn alerts_json(&self) -> Json {
        let c = self.control.lock();
        let alerts = c
            .alert_log
            .iter()
            .map(|e| {
                Json::obj([
                    ("alert", Json::Str(e.alert.clone())),
                    ("fired", Json::Bool(e.fired)),
                    ("window_index", Json::Num(e.window_index as f64)),
                    ("at_ms", Json::Num(e.at_ms as f64)),
                    ("value", Json::Num(e.value)),
                    ("threshold", Json::Num(e.threshold)),
                    (
                        "exemplars",
                        Json::Arr(
                            e.exemplars
                                .iter()
                                .map(|u| Json::Str(u.to_string()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([("alerts", Json::Arr(alerts))])
    }

    /// One exemplar's summary object (shared by the index and detail
    /// bodies).
    fn exemplar_summary_json(&self, e: &crate::exemplar::Exemplar) -> Json {
        Json::obj([
            ("id", Json::Num(e.id as f64)),
            ("chain", Json::Str(e.chain.to_string())),
            ("iface", Json::Str(self.vocab.interface_name(e.series.0).to_owned())),
            ("method", Json::Str(self.vocab.method_name(e.series.0, e.series.1).to_owned())),
            ("latency_ns", Json::Num(e.latency_ns as f64)),
            ("window_index", Json::Num(e.window_index as f64)),
            ("verdict", Json::Str(e.verdict.name().to_owned())),
            ("completed_calls", Json::Num(e.completions.len() as f64)),
        ])
    }

    /// The `GET /exemplars` index body: store totals plus every retained
    /// series' exemplars, slowest first. With `series=Iface::Name.method`,
    /// only that series. `Err` carries the HTTP status + message.
    pub fn exemplars_json(&self, series: Option<&str>) -> Result<Json, (u16, String)> {
        let want = match series {
            Some(name) => Some(
                resolve_series(&self.vocab, name)
                    .ok_or((404, format!("unknown series {name:?} (want Iface::Name.method)")))?,
            ),
            None => None,
        };
        let c = self.control.lock();
        let store = &c.exemplars;
        let series_objs: Vec<Json> = store
            .series_keys()
            .into_iter()
            .filter(|key| want.is_none_or(|w| w == *key))
            .map(|key| {
                let exemplars: Vec<Json> = store
                    .series_sorted(key)
                    .into_iter()
                    .map(|e| self.exemplar_summary_json(e))
                    .collect();
                Json::obj([
                    ("iface", Json::Str(self.vocab.interface_name(key.0).to_owned())),
                    ("method", Json::Str(self.vocab.method_name(key.0, key.1).to_owned())),
                    ("count", Json::Num(exemplars.len() as f64)),
                    ("exemplars", Json::Arr(exemplars)),
                ])
            })
            .collect();
        let cfg = store.config();
        let mut fields = vec![
            ("enabled", Json::Bool(cfg.enabled)),
            ("per_series", Json::Num(cfg.per_series as f64)),
            ("sample_per_series", Json::Num(cfg.sample_per_series as f64)),
            ("max_total", Json::Num(cfg.max_total as f64)),
            ("max_bytes", Json::Num(cfg.max_bytes as f64)),
            ("count", Json::Num(store.len() as f64)),
            ("approx_bytes", Json::Num(store.approx_bytes() as f64)),
            ("admitted", Json::Num(store.admitted() as f64)),
            ("evicted", Json::Num(store.evicted() as f64)),
            ("rejected", Json::Num(store.rejected() as f64)),
        ];
        if let Some(error) = store.spill_error() {
            fields.push(("spill_error", Json::Str(error.to_owned())));
        }
        fields.push(("series", Json::Arr(series_objs)));
        Ok(Json::obj(fields))
    }

    /// The `GET /exemplars?id=<chain-uuid>` detail body: the summary plus
    /// the full DSCG ascii and dot renders and a single-chain Chrome-trace
    /// slice view. `Err` carries the HTTP status + message.
    pub fn exemplar_detail_json(&self, id: &str) -> Result<Json, (u16, String)> {
        let uuid: Uuid =
            id.parse().map_err(|_| (400, format!("bad exemplar uuid {id:?}")))?;
        let c = self.control.lock();
        let e = c
            .exemplars
            .get(uuid)
            .ok_or((404, format!("exemplar {id} is not retained")))?;
        let mut body = self.exemplar_summary_json(e);
        if let Json::Obj(map) = &mut body {
            map.insert(
                "ascii".to_owned(),
                Json::Str(render::completed_chain_ascii(uuid, &e.completions, &self.vocab)),
            );
            map.insert(
                "dot".to_owned(),
                Json::Str(render::completed_chain_dot(uuid, &e.completions, &self.vocab)),
            );
            map.insert(
                "chrome_trace".to_owned(),
                exemplar::chrome_slice_json(e, &self.vocab),
            );
        }
        Ok(body)
    }

    /// The `GET /probes` JSON body: the control plane's base mode, every
    /// vocabulary interface's effective mode with the source of authority
    /// (`base`, `alert`, `floor`, or `operator` with its expiry), and the
    /// bounded transition log, oldest first. Expired operator TTLs are
    /// swept before rendering, so a lapsed override never shows as live.
    pub fn probes_json(&self) -> Json {
        let mut c = self.control.lock();
        let now_ms = incident::wall_clock_ms();
        let window_index = c.last_window.as_ref().map_or(u64::MAX, |w| w.index);
        self.expire_operators_locked(&mut c, window_index, now_ms);

        let policy = self.cfg.adaptive.policy.as_ref();
        let interfaces: Vec<Json> = self
            .vocab
            .interfaces
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let iface = InterfaceId(i as u32);
                let mode = policy.map_or(Json::Null, |p| Json::Str(p.effective(iface).to_string()));
                let operator = c.probe_ctl.operator.get(&iface);
                let source = if operator.is_some() {
                    "operator"
                } else if c.probe_ctl.holds.values().any(|(held, _)| *held == iface) {
                    "alert"
                } else if c.probe_ctl.floors.contains_key(&iface) {
                    "floor"
                } else {
                    "base"
                };
                Json::obj([
                    ("iface", Json::Str(entry.name.clone())),
                    ("id", Json::Num(i as f64)),
                    ("mode", mode),
                    ("source", Json::Str(source.to_owned())),
                    (
                        "expires_at_ms",
                        operator.map_or(Json::Null, |(_, expiry)| Json::Num(*expiry as f64)),
                    ),
                ])
            })
            .collect();
        let transitions: Vec<Json> = c
            .probe_ctl
            .log
            .iter()
            .map(|t| {
                Json::obj([
                    ("at_ms", Json::Num(t.at_ms as f64)),
                    (
                        "window_index",
                        if t.window_index == u64::MAX {
                            Json::Null
                        } else {
                            Json::Num(t.window_index as f64)
                        },
                    ),
                    ("iface", Json::Str(self.iface_name(t.interface))),
                    ("from", Json::Str(t.from.to_string())),
                    ("to", Json::Str(t.to.to_string())),
                    ("reason", Json::Str(t.reason.to_owned())),
                    ("detail", Json::Str(t.detail.clone())),
                ])
            })
            .collect();
        Json::obj([
            ("adaptive", Json::Bool(policy.is_some())),
            ("base", policy.map_or(Json::Null, |p| Json::Str(p.base().to_string()))),
            (
                "escalated_interfaces",
                Json::Num(policy.map_or(0, |p| p.overrides().len()) as f64),
            ),
            ("interfaces", Json::Arr(interfaces)),
            ("transitions", Json::Arr(transitions)),
        ])
    }

    /// Applies an operator probe override from a `POST /probes` body:
    /// `{"iface": "Name"|id, "mode": "both"|…|"base", "ttl_ms"?: N}`.
    /// `"base"` clears the operator override and any standing floor (live
    /// alert holds keep their escalation until they resolve). Returns the
    /// acknowledgement body, or the HTTP status + message to reject with
    /// (400 malformed, 404 unknown interface, 409 control plane disabled).
    pub fn probe_override_json(&self, body: &[u8]) -> Result<Json, (u16, String)> {
        let policy = self.cfg.adaptive.policy.as_ref().ok_or((
            409,
            "adaptive probe control is disabled (no shared policy)".to_owned(),
        ))?;
        let text = std::str::from_utf8(body)
            .map_err(|_| (400, "body must be UTF-8 JSON".to_owned()))?;
        let parsed = json::parse(text).map_err(|e| (400, format!("bad JSON body: {e}")))?;

        let iface = match parsed.get("iface") {
            Some(Json::Str(name)) => self
                .vocab
                .interfaces
                .iter()
                .position(|e| &e.name == name)
                .map(|i| InterfaceId(i as u32))
                .ok_or((404, format!("unknown interface {name:?}")))?,
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => InterfaceId(*n as u32),
            _ => return Err((400, "\"iface\" must be an interface name or id".to_owned())),
        };
        let mode_spec = match parsed.get("mode") {
            Some(Json::Str(m)) => m.clone(),
            _ => return Err((400, "\"mode\" must be a probe mode name or \"base\"".to_owned())),
        };
        let ttl_ms = match parsed.get("ttl_ms") {
            None => self.cfg.adaptive.operator_ttl.as_millis() as u64,
            Some(Json::Num(n)) if *n > 0.0 && n.fract() == 0.0 => *n as u64,
            _ => return Err((400, "\"ttl_ms\" must be a positive integer".to_owned())),
        };

        let mut c = self.control.lock();
        let now_ms = incident::wall_clock_ms();
        let window_index = c.last_window.as_ref().map_or(u64::MAX, |w| w.index);
        let expires = if mode_spec.eq_ignore_ascii_case("base") {
            c.probe_ctl.operator.remove(&iface);
            c.probe_ctl.floors.remove(&iface);
            self.actuate_probe(
                &mut c,
                iface,
                window_index,
                "operator",
                "operator cleared to base".to_owned(),
                now_ms,
            );
            None
        } else {
            let mode = mode_spec
                .parse::<ProbeMode>()
                .map_err(|e| (400, e.to_string()))?;
            let expiry = now_ms.saturating_add(ttl_ms);
            c.probe_ctl.operator.insert(iface, (mode, expiry));
            self.actuate_probe(
                &mut c,
                iface,
                window_index,
                "operator",
                format!("operator override to {mode} (ttl {ttl_ms}ms)"),
                now_ms,
            );
            Some(expiry)
        };
        Ok(Json::obj([
            ("iface", Json::Str(self.iface_name(iface))),
            ("id", Json::Num(iface.0 as f64)),
            ("mode", Json::Str(policy.effective(iface).to_string())),
            ("expires_at_ms", expires.map_or(Json::Null, |e| Json::Num(e as f64))),
        ]))
    }

    /// The retained incidents, behind the control lock. Drop the returned
    /// guard before calling other monitor methods — holding it across them
    /// deadlocks.
    pub fn incidents(&self) -> IncidentsRef<'_> {
        IncidentsRef { guard: self.control.lock() }
    }

    /// The `GET /incidents` index body.
    pub fn incidents_json(&self) -> Json {
        self.control.lock().incidents.index_json()
    }

    /// The `GET /incidents?id=N` detail body: full add-only graph
    /// (hypotheses + tombstones + timeline) and the query-time surviving
    /// set. `None` when the incident is unknown or already evicted.
    pub fn incident_json(&self, id: u64) -> Option<Json> {
        self.control.lock().incidents.get(id).map(Incident::detail_json)
    }

    /// Applies an operator tombstone from a `POST /incidents/eliminate`
    /// body: `{"incident": N, "hypothesis": M, "pass"?: "...",
    /// "reason"?: "..."}`. Returns the acknowledgement body, or the HTTP
    /// status + message to reject with (400 malformed, 404 unknown target).
    pub fn eliminate_json(&self, body: &[u8]) -> Result<Json, (u16, String)> {
        let text = std::str::from_utf8(body)
            .map_err(|_| (400, "body must be UTF-8 JSON".to_owned()))?;
        let parsed =
            json::parse(text).map_err(|e| (400, format!("bad JSON body: {e}")))?;
        let number = |key: &str| -> Result<u64, (u16, String)> {
            match parsed.get(key) {
                Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
                _ => Err((400, format!("{key:?} must be a non-negative integer"))),
            }
        };
        let incident_id = number("incident")?;
        let hypothesis = number("hypothesis")?;
        let pass = match parsed.get("pass") {
            None => incident::PASS_OPERATOR.to_owned(),
            Some(Json::Str(p))
                if !p.is_empty()
                    && p.len() <= incident::MAX_PASS_LEN
                    && p.bytes().all(|b| {
                        b.is_ascii_alphanumeric() || b == b'-' || b == b'_'
                    }) =>
            {
                p.clone()
            }
            Some(_) => {
                return Err((
                    400,
                    "\"pass\" must be a short [A-Za-z0-9_-] name".to_owned(),
                ))
            }
        };
        let reason = match parsed.get("reason") {
            None => "eliminated by operator".to_owned(),
            Some(Json::Str(r)) => r.clone(),
            Some(_) => return Err((400, "\"reason\" must be a string".to_owned())),
        };
        let surviving = self
            .control
            .lock()
            .incidents
            .eliminate(incident_id, hypothesis, &pass, &reason)
            .map_err(|e| (404, e.to_string()))?;
        Ok(Json::obj([
            ("incident", Json::Num(incident_id as f64)),
            ("hypothesis", Json::Num(hypothesis as f64)),
            ("pass", Json::Str(pass)),
            ("surviving", Json::Num(surviving as f64)),
        ]))
    }

    /// The `/chains` JSON body: every chain with unfinished work.
    pub fn chains_json(&self) -> Json {
        let chains = self
            .open_chain_summaries()
            .into_iter()
            .map(|s| {
                Json::obj([
                    ("chain", Json::Str(s.chain.to_string())),
                    ("open_calls", Json::Num(s.open_calls as f64)),
                    (
                        "innermost",
                        match s.innermost {
                            Some(func) => Json::Str(self.vocab.qualified_function(&func)),
                            None => Json::Null,
                        },
                    ),
                    ("buffered_records", Json::Num(s.buffered_records as f64)),
                    ("completed_calls", Json::Num(s.completed_calls as f64)),
                    ("processed_seq", Json::Num(s.processed_seq as f64)),
                ])
            })
            .collect();
        Json::obj([("open_chains", Json::Arr(chains))])
    }
}

/// A borrowed view of the monitor's [`WindowHistory`], holding the control
/// lock. Drop it before calling other [`LiveMonitor`] methods — holding it
/// across them deadlocks.
pub struct HistoryRef<'a> {
    guard: MutexGuard<'a, Control>,
}

impl std::ops::Deref for HistoryRef<'_> {
    type Target = WindowHistory;
    fn deref(&self) -> &WindowHistory {
        &self.guard.history
    }
}

/// A borrowed view of the monitor's [`IncidentStore`], holding the control
/// lock. Drop it before calling other [`LiveMonitor`] methods — holding it
/// across them deadlocks.
pub struct IncidentsRef<'a> {
    guard: MutexGuard<'a, Control>,
}

impl std::ops::Deref for IncidentsRef<'_> {
    type Target = IncidentStore;
    fn deref(&self) -> &IncidentStore {
        &self.guard.incidents
    }
}

impl std::ops::DerefMut for IncidentsRef<'_> {
    fn deref_mut(&mut self) -> &mut IncidentStore {
        &mut self.guard.incidents
    }
}


/// Most window summaries one `/history?from=..&to=..` request will fetch
/// (each spilled ordinal costs a disk read).
pub const HISTORY_RANGE_MAX: usize = 4096;

/// One window's `/history` summary line.
fn window_summary_json(entry: &HistoryEntry) -> Json {
    let w = &entry.window;
    Json::obj([
        ("index", Json::Num(w.index as f64)),
        ("span_ns", Json::Num(w.span_ns as f64)),
        ("completed_calls", Json::Num(w.completed_calls as f64)),
        ("abnormalities", Json::Num(w.abnormalities as f64)),
        ("call_rate_hz", Json::Num(w.call_rate_hz(None))),
        ("p95_ns", Json::Num(w.system_quantile_ns(0.95) as f64)),
        ("series", Json::Num(w.series.len() as f64)),
        ("stacks", Json::Num(entry.folded.len() as f64)),
    ])
}

/// Renders a folded-stack map as `a;b;c self_ns` lines (inferno format),
/// sorted by stack for deterministic output.
fn render_folded(folded: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, self_ns) in folded {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&self_ns.to_string());
        out.push('\n');
    }
    out
}

/// The parent of a root frame in a [`StackTable`], and of a root call in
/// its fold walk.
const NO_PARENT: usize = usize::MAX;

/// A shard's stack table is compacted to the ids its folded maps still
/// hold once it grows past this many times `stack_capacity` entries (the
/// two maps hold at most twice that).
const STACK_TABLE_SLACK: usize = 4;

/// One shard's folded flamegraph stacks, interned: every distinct rendered
/// path (`a;b;c`) has one id, found by (parent id, series) and rendered
/// once, and the cumulative and per-window folded maps are keyed by id.
/// They become `BTreeMap<String, u64>` only at window close and at
/// `/flamegraph` reads.
#[derive(Debug, Default)]
struct StackTable {
    /// (parent id or [`NO_PARENT`], series) → id.
    ids: HashMap<(usize, SeriesKey), usize>,
    /// Id → rendered path.
    paths: Vec<Arc<str>>,
    /// Rendered path → id: series whose names render alike share one id,
    /// as they shared one string key before interning.
    by_path: HashMap<Arc<str>, usize>,
    /// Cumulative folded stacks (capped).
    folded: FoldedIds,
    /// Stacks folded during the current tumbling window only (the
    /// per-window delta merged into the history store at window close).
    window: FoldedIds,
}

impl StackTable {
    /// Folds one completed chain's calls — in the analyzer's post-order,
    /// children before parents — into both maps (each capped at `cap`).
    ///
    /// No call tree is built. A forward pass links each call to the parent
    /// that adopts it, by the rule [`render::completion_forest`] uses (a
    /// call at depth `d` takes the run of depth-`d + 1` subtrees on top of
    /// the stack; orphans stay roots), and sums its children's latencies.
    /// The fold then visits the calls in reverse post-order — a parent
    /// before its children, last child first — which is the order the
    /// string fold walked its trees in, so cap evictions pick the same
    /// stacks.
    fn fold(
        &mut self,
        completions: &[CompletedCall],
        vocab: &VocabSnapshot,
        cap: usize,
        evictions: &Counter,
    ) {
        if self.size() > STACK_TABLE_SLACK * cap {
            self.compact();
        }
        // Per call: (parent call, its children's latency sum, path id).
        let mut walk: Vec<(usize, u64, usize)> = Vec::with_capacity(completions.len());
        let mut roots: Vec<usize> = Vec::new();
        for (i, call) in completions.iter().enumerate() {
            let mut child_ns = 0;
            while let Some(&top) = roots.last() {
                if completions[top].depth != call.depth + 1 {
                    break;
                }
                roots.pop();
                walk[top].0 = i;
                child_ns += completions[top].latency_ns;
            }
            roots.push(i);
            walk.push((NO_PARENT, child_ns, 0));
        }
        for (i, call) in completions.iter().enumerate().rev() {
            let (parent, child_ns, _) = walk[i];
            let parent = if parent == NO_PARENT { NO_PARENT } else { walk[parent].2 };
            let id = self.intern(parent, (call.func.interface, call.func.method), vocab);
            walk[i].2 = id;
            let self_ns = call.latency_ns.saturating_sub(child_ns);
            self.window.add(id, self_ns, cap, &self.paths, evictions);
            self.folded.add(id, self_ns, cap, &self.paths, evictions);
        }
    }

    /// The id of `parent`'s path extended by `series`' frame.
    fn intern(&mut self, parent: usize, series: SeriesKey, vocab: &VocabSnapshot) -> usize {
        if let Some(&id) = self.ids.get(&(parent, series)) {
            return id;
        }
        let iface = vocab.interface_name(series.0);
        let method = vocab.method_name(series.0, series.1);
        let path = if parent == NO_PARENT {
            format!("{iface}.{method}")
        } else {
            format!("{};{iface}.{method}", self.paths[parent])
        };
        let id = match self.by_path.get(path.as_str()) {
            Some(&id) => id,
            None => {
                let path: Arc<str> = path.into();
                self.paths.push(Arc::clone(&path));
                self.by_path.insert(path, self.paths.len() - 1);
                self.paths.len() - 1
            }
        };
        self.ids.insert((parent, series), id);
        id
    }

    /// Sum-merges the cumulative stacks into `out` by rendered path.
    fn render_cumulative(&self, out: &mut BTreeMap<String, u64>) {
        self.folded.render_into(&self.paths, out);
    }

    /// Sum-merges the current window's stacks into `out` by rendered path
    /// and starts the next window empty.
    fn close_window(&mut self, out: &mut BTreeMap<String, u64>) {
        self.window.render_into(&self.paths, out);
        self.window = FoldedIds::default();
    }

    /// Entries in the table: the larger of its two indexes.
    fn size(&self) -> usize {
        self.ids.len().max(self.paths.len())
    }

    /// Keeps only the paths a folded map holds, under dense new ids; the
    /// (parent, series) links are re-learned as folds meet them again.
    fn compact(&mut self) {
        let live: Vec<usize> = (0..self.paths.len())
            .filter(|&id| self.folded.get(id).is_some() || self.window.get(id).is_some())
            .collect();
        self.folded = self.folded.remap(&live);
        self.window = self.window.remap(&live);
        self.paths = live.iter().map(|&id| Arc::clone(&self.paths[id])).collect();
        self.by_path = self.paths.iter().enumerate().map(|(id, p)| (Arc::clone(p), id)).collect();
        self.ids.clear();
    }
}

/// A capped folded-stack map keyed by [`StackTable`] id.
#[derive(Debug, Default)]
struct FoldedIds {
    /// Self time per id; `None` while the id is not in the map.
    ns: Vec<Option<u64>>,
    len: usize,
}

impl FoldedIds {
    fn get(&self, id: usize) -> Option<u64> {
        self.ns.get(id).copied().flatten()
    }

    /// Adds `self_ns` to stack `id`'s total, keeping the map at most `cap`
    /// entries by evicting the smallest-valued stack (counted) when a *new*
    /// stack would otherwise push it over. Ties go to the smallest path, as
    /// in a string-keyed map.
    fn add(
        &mut self,
        id: usize,
        self_ns: u64,
        cap: usize,
        paths: &[Arc<str>],
        evictions: &Counter,
    ) {
        if id >= self.ns.len() {
            self.ns.resize(id + 1, None);
        }
        if let Some(total) = &mut self.ns[id] {
            *total += self_ns;
            return;
        }
        if self.len >= cap {
            // Evicting the coldest stack loses the least flamegraph area;
            // the O(n) scan only runs once the cap is hit and a new stack
            // appears.
            let coldest = self
                .ns
                .iter()
                .enumerate()
                .filter_map(|(id, ns)| ns.map(|ns| (ns, id)))
                .min_by(|a, b| a.0.cmp(&b.0).then_with(|| paths[a.1].cmp(&paths[b.1])));
            if let Some((_, coldest)) = coldest {
                self.ns[coldest] = None;
                self.len -= 1;
                evictions.inc();
            }
        }
        self.ns[id] = Some(self_ns);
        self.len += 1;
    }

    /// This map with `live[new]`'s entry at `new`.
    fn remap(&self, live: &[usize]) -> FoldedIds {
        let ns: Vec<Option<u64>> = live.iter().map(|&id| self.get(id)).collect();
        FoldedIds { len: ns.iter().flatten().count(), ns }
    }

    /// Sum-merges the stacks into `out` by rendered path.
    fn render_into(&self, paths: &[Arc<str>], out: &mut BTreeMap<String, u64>) {
        for (id, ns) in self.ns.iter().enumerate() {
            let Some(ns) = *ns else { continue };
            match out.get_mut(&*paths[id]) {
                Some(total) => *total += ns,
                None => {
                    out.insert(paths[id].to_string(), ns);
                }
            }
        }
    }
}

fn merge_slice(snap: &mut WindowSnapshot, slice: &Slice) {
    for (key, agg) in &slice.series {
        snap.series.entry(*key).or_default().merge(agg);
    }
    snap.completed_calls += slice.completed_calls;
    snap.abnormalities += slice.abnormalities;
}
/// A running live monitoring service: the embedded HTTP server plus the
/// background ticker thread that rotates windows on idle systems (so
/// alerts resolve and history accrues without any scrape traffic).
///
/// Dropping the service (or calling [`LiveService::shutdown`]) stops the
/// ticker, joins it, and stops accepting connections.
#[derive(Debug)]
pub struct LiveService {
    server: HttpServer,
    stop: Arc<AtomicBool>,
    ticker: Option<std::thread::JoinHandle<()>>,
}

impl LiveService {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Requests served since bind (see [`HttpServer::requests_served`]).
    pub fn requests_served(&self) -> u64 {
        self.server.requests_served()
    }

    /// Stops the ticker thread and the HTTP server.
    pub fn shutdown(self) {
        // Drop does the work; this name keeps call sites explicit.
    }
}

impl Drop for LiveService {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.ticker.take() {
            let _ = handle.join();
        }
        // `self.server` drops afterwards and stops accepting.
    }
}

/// Mounts a shared [`LiveMonitor`] behind the embedded HTTP server and
/// starts the window ticker thread.
///
/// Routes: `/metrics` (Prometheus exposition of the monitor's registry,
/// [`LiveMonitor::metrics`]; the server's own `causeway_httpd_*` series
/// go there too), `/healthz` (alert-aware, 503 while any alert fires),
/// `/chains`, `/latency[?iface=..&method=..]` (series index without a
/// filter), `/flamegraph[?window=k]`, `/flamegraph/diff?a=..&b=..`,
/// `/history`, `/dscg[?chain=..&format=dot]`, `/trace` (Chrome trace of
/// the last window), `/alerts` (the transition log), `/exemplars`
/// (tail-biased exemplar index, `?series=..` to filter, `?id=<chain>` for
/// DSCG + Chrome-trace detail), `/incidents` (index, or `?id=N` for the
/// full hypothesis graph) and
/// `POST /incidents/eliminate` (operator tombstones). The ticker advances
/// window time a few times per slice, so idle systems keep rotating
/// windows without relying on scrape traffic.
pub fn serve(monitor: Arc<LiveMonitor>, addr: &str) -> std::io::Result<LiveService> {
    let on = |monitor: &Arc<LiveMonitor>,
              f: fn(&LiveMonitor, &Request) -> Response|
     -> Handler {
        let monitor = Arc::clone(monitor);
        Box::new(move |req: &Request| f(&monitor, req))
    };
    let routes: Vec<(String, Handler)> = vec![
        (
            "/metrics".to_owned(),
            on(&monitor, |m, _| Response::text(200, m.metrics().render_prometheus())),
        ),
        (
            "/healthz".to_owned(),
            on(&monitor, |m, _| {
                let (status, body) = m.health_json();
                Response::json(status, body.to_string())
            }),
        ),
        (
            "/chains".to_owned(),
            on(&monitor, |m, _| Response::json(200, m.chains_json().to_string())),
        ),
        (
            "/latency".to_owned(),
            on(&monitor, |m, req| {
                let body =
                    m.latency_json(req.query_param("iface"), req.query_param("method"));
                Response::json(200, body.to_string())
            }),
        ),
        (
            "/flamegraph".to_owned(),
            on(&monitor, |m, req| {
                let window = match req.query_param("window") {
                    Some(raw) => match raw.parse::<u64>() {
                        Ok(index) => Some(index),
                        Err(_) => {
                            return Response::text(400, "window must be an ordinal\n")
                        }
                    },
                    None => None,
                };
                match m.flamegraph(window) {
                    Ok(body) => Response::text(200, body),
                    Err(err) => Response::text(404, err + "\n"),
                }
            }),
        ),
        (
            "/flamegraph/diff".to_owned(),
            on(&monitor, |m, req| {
                let ordinal =
                    |key| req.query_param(key).and_then(|raw: &str| raw.parse::<u64>().ok());
                match (ordinal("a"), ordinal("b")) {
                    (Some(a), Some(b)) => match m.flamegraph_diff(a, b) {
                        Ok(body) => Response::text(200, body),
                        Err(err) => Response::text(404, err + "\n"),
                    },
                    _ => Response::text(400, "need a=<window>&b=<window>\n"),
                }
            }),
        ),
        (
            "/history".to_owned(),
            on(&monitor, |m, req| {
                let ordinal = |key: &str| -> Result<Option<u64>, ()> {
                    match req.query_param(key) {
                        Some(raw) => raw.parse::<u64>().map(Some).map_err(|_| ()),
                        None => Ok(None),
                    }
                };
                match (ordinal("from"), ordinal("to")) {
                    (Ok(from), Ok(to)) => {
                        Response::json(200, m.history_json(from, to).to_string())
                    }
                    _ => Response::text(400, "from/to must be window ordinals\n"),
                }
            }),
        ),
        (
            "/dscg".to_owned(),
            on(&monitor, |m, req| match req.query_param("chain") {
                Some(chain) => match m.dscg_render(chain, req.query_param("format")) {
                    Ok(body) => Response::text(200, body),
                    Err(err) => Response::text(404, err + "\n"),
                },
                None => Response::json(200, m.recent_chains_json().to_string()),
            }),
        ),
        (
            "/trace".to_owned(),
            on(&monitor, |m, _| Response::json(200, m.trace_json())),
        ),
        (
            "/alerts".to_owned(),
            on(&monitor, |m, _| Response::json(200, m.alerts_json().to_string())),
        ),
        (
            "/incidents".to_owned(),
            on(&monitor, |m, req| match req.query_param("id") {
                None => Response::json(200, m.incidents_json().to_string()),
                Some(raw) => match raw.parse::<u64>() {
                    Ok(id) => match m.incident_json(id) {
                        Some(body) => Response::json(200, body.to_string()),
                        None => Response::text(404, format!("incident {id} is not retained\n")),
                    },
                    Err(_) => Response::text(400, "id must be an incident number\n"),
                },
            }),
        ),
        (
            "/exemplars".to_owned(),
            on(&monitor, |m, req| {
                let body = match req.query_param("id") {
                    Some(id) => m.exemplar_detail_json(id),
                    None => m.exemplars_json(req.query_param("series")),
                };
                match body {
                    Ok(json) => Response::json(200, json.to_string()),
                    Err((status, why)) => Response::text(status, why + "\n"),
                }
            }),
        ),
        (
            "/probes".to_owned(),
            on(&monitor, |m, req| {
                if req.method == "POST" {
                    return match m.probe_override_json(&req.body) {
                        Ok(body) => Response::json(200, body.to_string()),
                        Err((status, why)) => Response::text(status, why + "\n"),
                    };
                }
                Response::json(200, m.probes_json().to_string())
            }),
        ),
        (
            "/incidents/eliminate".to_owned(),
            on(&monitor, |m, req| {
                if req.method != "POST" {
                    return Response::text(405, "POST a JSON tombstone here\n");
                }
                match m.eliminate_json(&req.body) {
                    Ok(body) => Response::json(200, body.to_string()),
                    Err((status, why)) => Response::text(status, why + "\n"),
                }
            }),
        ),
    ];
    let server = HttpServer::bind_with_limits(
        addr,
        routes,
        DEFAULT_READ_TIMEOUT,
        DEFAULT_MAX_CONNECTIONS,
        monitor.metrics(),
    )?;

    // Tick a few times per slice (clamped to a sane wall-clock range) so
    // windows close promptly even with zero traffic and zero scrapes.
    let tick_every = Duration::from_nanos(monitor.slice_ns / 4)
        .clamp(Duration::from_millis(5), Duration::from_millis(250));
    let stop = Arc::new(AtomicBool::new(false));
    let ticker_stop = Arc::clone(&stop);
    let ticker_monitor = Arc::clone(&monitor);
    let ticker = std::thread::Builder::new()
        .name("causeway-live-ticker".to_owned())
        .spawn(move || {
            while !ticker_stop.load(Ordering::Acquire) {
                std::thread::sleep(tick_every);
                ticker_monitor.tick();
            }
        })?;
    Ok(LiveService { server, stop, ticker: Some(ticker) })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{AlertCmp, AlertMetric};
    use causeway_core::event::{CallKind, TraceEvent};
    use causeway_core::ids::{LogicalThreadId, MethodIndex, NodeId, ObjectId, ProcessId};
    use causeway_core::names::{ComponentId, InterfaceEntry, ObjectEntry};
    use causeway_core::record::{CallSite, FunctionKey};

    const SLICE_NS: u64 = 200_000_000; // 5 slices of a 1s window
    const WINDOW_NS: u64 = 1_000_000_000;

    /// Each monitor publishes to a registry of its own, so a test reads
    /// exact counts however many tests run beside it.
    fn test_config() -> LiveConfig {
        LiveConfig {
            window: Duration::from_nanos(WINDOW_NS),
            slices: 5,
            metrics: Some(MetricsRegistry::new()),
            ..LiveConfig::default()
        }
    }

    fn test_vocab() -> VocabSnapshot {
        VocabSnapshot {
            interfaces: vec![
                InterfaceEntry {
                    name: "Test::Alpha".to_owned(),
                    methods: vec!["run".to_owned(), "poll".to_owned()],
                },
                InterfaceEntry { name: "Test::Beta".to_owned(), methods: vec!["go".to_owned()] },
            ],
            components: vec![],
            cpu_types: vec![],
            objects: vec![(
                ObjectId(7),
                ObjectEntry {
                    label: "alpha-7".to_owned(),
                    interface: InterfaceId(0),
                    component: ComponentId(0),
                    process: ProcessId(0),
                },
            )],
        }
    }

    fn monitor() -> LiveMonitor {
        LiveMonitor::new(test_config(), test_vocab(), Deployment::default())
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        chain: u128,
        seq: u64,
        event: TraceEvent,
        iface: u32,
        method: u16,
        object: u64,
        start: u64,
        end: u64,
    ) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(chain),
            seq,
            event,
            kind: CallKind::Sync,
            site: CallSite { node: NodeId(0), process: ProcessId(0), thread: LogicalThreadId(0) },
            func: FunctionKey::new(InterfaceId(iface), MethodIndex(method), ObjectId(object)),
            wall_start: Some(start),
            wall_end: Some(end),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    /// A complete synchronous root call on `chain`: the compensated latency
    /// is `stub_end.wall_start − stub_start.wall_end` (no children, so no
    /// overhead subtraction) = `latency_ns + 4` with this 1ns-probe
    /// geometry — see [`compensated`].
    fn sync_call(chain: u128, iface: u32, method: u16, latency_ns: u64) -> Vec<ProbeRecord> {
        let t0 = 0;
        let send_end = t0 + 1;
        let skel_start = (send_end + 1, send_end + 2);
        let skel_end_start = skel_start.1 + latency_ns;
        let skel_end = (skel_end_start, skel_end_start + 1);
        let reply_start = skel_end.1 + 1;
        vec![
            record(chain, 1, TraceEvent::StubStart, iface, method, 7, t0, send_end),
            record(chain, 2, TraceEvent::SkelStart, iface, method, 7, skel_start.0, skel_start.1),
            record(chain, 3, TraceEvent::SkelEnd, iface, method, 7, skel_end.0, skel_end.1),
            record(chain, 4, TraceEvent::StubEnd, iface, method, 7, reply_start, reply_start + 1),
        ]
    }

    /// The compensated latency `sync_call` produces:
    /// `stub_end.wall_start − stub_start.wall_end` with the gaps the helper
    /// lays out (1ns hop each side of the skeleton window).
    fn compensated(latency_ns: u64) -> u64 {
        latency_ns + 4
    }

    #[test]
    fn windows_rotate_and_capture_series() {
        let m = monitor();
        m.ingest_batch_at(sync_call(1, 0, 0, 1000), 10);
        assert!(m.last_window().is_none(), "window not yet complete");
        let sliding = m.sliding();
        let key = (InterfaceId(0), MethodIndex(0));
        assert_eq!(sliding.series[&key].calls, 1);

        // Crossing the window boundary finalizes a tumbling snapshot.
        m.tick_at(WINDOW_NS + 1);
        let window = m.last_window().expect("finalized");
        assert_eq!(window.index, 0);
        assert_eq!(window.completed_calls, 1);
        assert_eq!(window.span_ns, WINDOW_NS);
        let q = window.quantile_ns(key, 0.5).unwrap();
        let exact = compensated(1000);
        assert!(q >= exact && q <= exact.next_power_of_two().max(2 * exact));
    }

    #[test]
    fn sliding_equals_tumbling_for_aligned_batches() {
        // Everything lands in window 0's slices; at the boundary, the
        // sliding view (before any new slice opens) must equal the tumbling
        // snapshot series-for-series.
        let m = monitor();
        for (i, latency) in [1_000u64, 50_000, 2_000_000, 900].into_iter().enumerate() {
            let at = i as u64 * SLICE_NS + 5; // one batch per slice
            m.ingest_batch_at(sync_call(i as u128 + 1, 0, 0, latency), at);
        }
        m.tick_at(WINDOW_NS); // close slice 4, finalize window 0
        let tumbling = m.last_window().expect("finalized").clone();
        let sliding = m.sliding();
        assert_eq!(sliding.completed_calls, tumbling.completed_calls);
        assert_eq!(sliding.series.len(), tumbling.series.len());
        for (key, agg) in &tumbling.series {
            let s = &sliding.series[key];
            assert_eq!(s.calls, agg.calls);
            assert_eq!(s.latency_sum_ns, agg.latency_sum_ns);
            assert_eq!(s.hist, agg.hist, "histograms must match bucket-for-bucket");
        }
    }

    #[test]
    fn hysteresis_fires_once_and_resolves_once_per_excursion() {
        let m = monitor();
        m.add_rule(AlertRule {
            name: "p50-high".to_owned(),
            metric: AlertMetric::P50,
            series: Some((InterfaceId(0), MethodIndex(0))),
            cmp: AlertCmp::Above,
            fire_threshold: 1_000_000.0,  // 1ms
            resolve_threshold: 100_000.0, // 0.1ms
            trigger: Trigger::Sustained { for_windows: 2 },
            escalate: None,
            deescalate: None,
        });

        // An oscillating series that hops between the fire threshold's far
        // side and the hysteresis band every window: slow, slow, band, slow,
        // band, then calm, calm. Without hysteresis + for=2 this would flap.
        let per_window_latency = [
            5_000_000u64, // W0 breach (pending 1)
            5_000_000,    // W1 breach → FIRES
            400_000,      // W2 inside band: stays active, no resolve progress
            5_000_000,    // W3 breach again: still active, no second fire
            400_000,      // W4 band: active
            1_000,        // W5 calm (pending 1)
            1_000,        // W6 calm → RESOLVES
        ];
        for (w, latency) in per_window_latency.into_iter().enumerate() {
            let at = w as u64 * WINDOW_NS + 5;
            m.ingest_batch_at(sync_call(w as u128 + 1, 0, 0, latency), at);
        }
        m.tick_at(8 * WINDOW_NS); // finalize W7 (empty) too

        let log: Vec<AlertEvent> = m.alert_log();
        assert_eq!(log.len(), 2, "exactly one fire + one resolve, got {log:?}");
        assert!(log[0].fired && log[0].window_index == 1, "fired at W1: {:?}", log[0]);
        assert!(!log[1].fired && log[1].window_index == 6, "resolved at W6: {:?}", log[1]);
        assert!(m.active_alerts().is_empty());
    }

    #[test]
    fn alert_gauge_tracks_active_state() {
        let m = monitor();
        m.add_rule(AlertRule {
            name: "gauge-probe".to_owned(),
            metric: AlertMetric::CallRate,
            series: None,
            cmp: AlertCmp::Above,
            fire_threshold: 0.5,
            resolve_threshold: 0.5,
            trigger: Trigger::Sustained { for_windows: 1 },
            escalate: None,
            deescalate: None,
        });
        for w in 0..3u64 {
            m.ingest_batch_at(sync_call(w as u128 + 1, 0, 0, 1000), w * WINDOW_NS + 5);
        }
        m.tick_at(3 * WINDOW_NS);
        assert_eq!(m.active_alerts(), vec!["gauge-probe".to_owned()]);
        // The rule's active gauge sits in the monitor's own registry (its
        // name is pinned in `rules`).
        let exposition = m.metrics().render_prometheus();
        assert!(
            exposition.lines().any(|l| l.ends_with("_active{alert=\"gauge-probe\"} 1")),
            "gauge missing from exposition"
        );
        let (status, _) = m.health_json();
        assert_eq!(status, 503);
    }

    #[test]
    fn rule_parser_round_trips() {
        let vocab = test_vocab();
        let rule = parse_rule("p95:Test::Alpha.run>800us;for=2;resolve=400us", &vocab).unwrap();
        assert_eq!(rule.metric, AlertMetric::P95);
        assert_eq!(rule.series, Some((InterfaceId(0), MethodIndex(0))));
        assert_eq!(rule.cmp, AlertCmp::Above);
        assert_eq!(rule.fire_threshold, 800_000.0);
        assert_eq!(rule.resolve_threshold, 400_000.0);
        assert_eq!(rule.trigger, Trigger::Sustained { for_windows: 2 });

        let rate = parse_rule("rate<0.5;for=3", &vocab).unwrap();
        assert_eq!(rate.metric, AlertMetric::CallRate);
        assert_eq!(rate.series, None);
        assert_eq!(rate.cmp, AlertCmp::Below);
        assert_eq!(rate.fire_threshold, 0.5);

        assert!(parse_rule("p95:Nope::Missing.run>1ms", &vocab).is_err());
        assert!(parse_rule("p95>1ms;resolve=2ms", &vocab).is_err(), "inverted band");
        assert!(parse_rule("bogus>1", &vocab).is_err());
        assert!(parse_rule("p95=1ms", &vocab).is_err(), "no comparison");
        // Non-finite and non-integer numbers are refused, not accepted as
        // thresholds no window can cross or counts silently truncated.
        for spec in ["p95>nan", "p95>inf", "rate<-inf", "p95>1e308s", "p95>1ms;resolve=nan"] {
            assert!(parse_rule(spec, &vocab).is_err(), "{spec}");
        }
        assert!(parse_rule("p95>1ms;for=2.5", &vocab).is_err(), "fractional for=");
        assert!(parse_rule("p95>1ms;slo=99", &vocab).is_err(), "burn option on a threshold rule");
    }

    #[test]
    fn burn_rule_parser_round_trips() {
        let vocab = test_vocab();
        let rule =
            parse_rule("burn=p95:Test::Alpha.run>400us;slo=99.9;fast=3;slow=24", &vocab).unwrap();
        assert_eq!(rule.metric, AlertMetric::P95);
        assert_eq!(rule.series, Some((InterfaceId(0), MethodIndex(0))));
        assert_eq!(rule.fire_threshold, 400_000.0);
        let Trigger::Burn { slo_percent, fast, slow, factor } = rule.trigger else {
            panic!("burn= selects the burn trigger: {:?}", rule.trigger);
        };
        assert_eq!(slo_percent, 99.9);
        assert_eq!((fast, slow), (3, 24));
        let expected = Trigger::default_factor(3, 24, 1.0 - 99.9 / 100.0);
        assert!((factor - expected).abs() < 1e-9, "{factor} vs {expected}");

        let explicit = parse_rule("burn=rate<0.5;slo=99;fast=2;slow=10;factor=3", &vocab).unwrap();
        assert!(matches!(explicit.trigger, Trigger::Burn { factor, .. } if factor == 3.0));
        assert_eq!(explicit.cmp, AlertCmp::Below);

        assert!(parse_rule("p95>1ms;slo=99;fast=1;slow=2", &vocab).is_err(), "no burn=");
        assert!(parse_rule("burn=p95>1ms;fast=3;slow=24", &vocab).is_err(), "no slo=");
        assert!(parse_rule("burn=p95>1ms;slo=101;fast=3;slow=24", &vocab).is_err());
        assert!(parse_rule("burn=p95>1ms;slo=99.9;fast=5;slow=5", &vocab).is_err());
        assert!(parse_rule("burn=p95>1ms;slo=99.9;fast=3;slow=24;x=1", &vocab).is_err());
        // Non-finite and non-integer numbers are refused: a `nan`/`inf`
        // factor or threshold could never fire, and spans are counts.
        for spec in [
            "burn=p95>1ms;slo=90;fast=3;slow=6;factor=nan",
            "burn=p95>1ms;slo=90;fast=3;slow=6;factor=inf",
            "burn=p95>inf;slo=90;fast=3;slow=6",
            "burn=p95>1ms;slo=nan;fast=3;slow=6",
            "burn=p95>1ms;slo=90;fast=2.7;slow=6",
            "burn=p95>1ms;slo=90;fast=3;slow=inf",
            "burn=p95>1ms;slo=90;fast=3;slow=6;for=2",
        ] {
            assert!(parse_rule(spec, &vocab).is_err(), "{spec}");
        }
    }

    #[test]
    fn latency_without_iface_lists_known_series() {
        let m = monitor();
        m.ingest_batch_at(sync_call(1, 0, 0, 1000), 10);
        m.ingest_batch_at(sync_call(2, 1, 0, 1000), 20);
        // Roll far ahead: windowed data ages out, but the index must not.
        m.tick_at(10 * WINDOW_NS);
        let json = m.latency_json(None, None);
        let series = json.get("known_series").and_then(Json::as_arr).expect("index");
        assert_eq!(series.len(), 2, "{json}");
        assert_eq!(series[0].get("iface").and_then(Json::as_str), Some("Test::Alpha"));
        assert_eq!(series[0].get("calls").and_then(Json::as_u64), Some(1));
        assert_eq!(series[1].get("iface").and_then(Json::as_str), Some("Test::Beta"));
    }

    #[test]
    fn history_scopes_flamegraphs_and_diffs_windows() {
        let m = monitor();
        m.ingest_batch_at(sync_call(1, 0, 0, 1_000), 10); // window 0
        m.ingest_batch_at(sync_call(2, 1, 0, 50_000), WINDOW_NS + 10); // window 1
        m.tick_at(2 * WINDOW_NS);
        assert_eq!(m.history().len(), 2);

        let w0 = m.flamegraph(Some(0)).unwrap();
        assert!(w0.contains("Test::Alpha.run "), "{w0}");
        assert!(!w0.contains("Test::Beta.go"), "window 0 must not see window 1: {w0}");
        let cumulative = m.flamegraph(None).unwrap();
        assert!(cumulative.contains("Test::Alpha.run ") && cumulative.contains("Test::Beta.go "));

        let diff = m.flamegraph_diff(0, 1).unwrap();
        let first = diff.lines().next().expect("non-empty diff");
        assert!(first.starts_with("Test::Beta.go +"), "top positive delta first: {diff}");
        assert!(diff.contains("Test::Alpha.run -"), "vanished stack goes negative: {diff}");

        assert!(m.flamegraph(Some(7)).unwrap_err().contains("not retained"));
        assert!(m.flamegraph_diff(0, 7).is_err());
    }

    #[test]
    fn history_json_reports_bounds_and_burn_rules() {
        let m = monitor();
        m.add_rule_spec("burn=p95>400us;slo=99.9;fast=3;slow=24").expect("burn spec routed");
        m.ingest_batch_at(sync_call(1, 0, 0, 1_000), 10);
        m.tick_at(WINDOW_NS);
        let json = m.history_json(None, None);
        assert_eq!(json.get("retained_windows").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("cap_windows").and_then(Json::as_u64),
            Some(LiveConfig::default().history_windows as u64)
        );
        let windows = json.get("windows").and_then(Json::as_arr).expect("windows");
        assert_eq!(windows[0].get("index").and_then(Json::as_u64), Some(0));
        assert_eq!(windows[0].get("completed_calls").and_then(Json::as_u64), Some(1));
        let burns = json.get("burn_rules").and_then(Json::as_arr).expect("burn rules");
        assert_eq!(burns.len(), 1);
        assert_eq!(burns[0].get("active").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn history_json_range_serves_spill_after_restart() {
        let path = std::env::temp_dir().join(format!(
            "causeway_live_spill_restart_{}.cwhist",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let config = LiveConfig {
            window: Duration::from_nanos(WINDOW_NS),
            slices: 5,
            history_windows: 1,
            history_spill: Some(path.clone()),
            ..LiveConfig::default()
        };
        {
            let m = LiveMonitor::new(config.clone(), test_vocab(), Deployment::default());
            for w in 0..3u64 {
                m.ingest_batch_at(sync_call(w as u128 + 1, 0, 0, 1_000), w * WINDOW_NS + 5);
            }
            m.tick_at(3 * WINDOW_NS);
            assert_eq!(m.history().len(), 1, "ring caps at one window");
            assert_eq!(m.history().spill().expect("spill attached").len(), 2);
        }
        // A restarted monitor reattaches the spill with an empty ring; a
        // range request with `to` omitted must resolve `newest` from the
        // spill, not default to 0, so the spilled windows come back.
        let m = LiveMonitor::new(config, test_vocab(), Deployment::default());
        assert!(m.history().is_empty(), "fresh ring after restart");
        let json = m.history_json(Some(0), None);
        let windows = json.get("windows").and_then(Json::as_arr).expect("windows");
        assert_eq!(windows.len(), 2, "{json}");
        assert_eq!(windows[0].get("index").and_then(Json::as_u64), Some(0));
        assert_eq!(windows[1].get("index").and_then(Json::as_u64), Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dscg_serves_recently_completed_chains() {
        let m = monitor();
        m.ingest_batch_at(sync_call(0xabc, 0, 0, 1000), 10);
        let listing = m.recent_chains_json();
        let chains = listing.get("recent_chains").and_then(Json::as_arr).expect("list");
        assert_eq!(chains.len(), 1);
        let id = chains[0].get("chain").and_then(Json::as_str).expect("uuid").to_owned();
        let ascii = m.dscg_render(&id, None).unwrap();
        assert!(ascii.contains("Test::Alpha.run@alpha-7 [sync]"), "{ascii}");
        let dot = m.dscg_render(&id, Some("dot")).unwrap();
        assert!(dot.starts_with("digraph"), "{dot}");
        assert!(m.dscg_render("not-a-uuid", None).is_err());
        assert!(m.dscg_render(&Uuid(999).to_string(), None).is_err());
    }

    #[test]
    fn folded_stack_maps_are_bounded() {
        // One shard: the per-shard stack caps must bind for three distinct
        // stacks to race a two-entry map.
        let cfg = LiveConfig { stack_capacity: 2, shards: 1, ..test_config() };
        let m = LiveMonitor::new(cfg, test_vocab(), Deployment::default());
        // Three distinct stacks against a two-entry cap.
        m.ingest_batch_at(sync_call(1, 0, 0, 1000), 10);
        m.ingest_batch_at(sync_call(2, 0, 1, 2000), 20);
        m.ingest_batch_at(sync_call(3, 1, 0, 3000), 30);
        for index in 0..m.shards.len() {
            let shard = m.shards[index].lock();
            let stacks = &shard.stacks;
            assert!(stacks.folded.len <= 2, "cumulative map capped: {:?}", stacks.folded);
            assert!(stacks.window.len <= 2, "window map capped");
        }
        let evictions = m.metrics().counter_value("causeway_live_stack_evictions");
        assert_eq!(evictions, Some(2), "one per map the third stack overflowed");
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        let m = monitor();
        // A parent (Alpha.run) wrapping one child (Beta.go): nested sync
        // calls on one chain. Parent seq 1..2, child seq 3..6, parent 7..8.
        let t = |n: u64| n * 10;
        let records = vec![
            record(1, 1, TraceEvent::StubStart, 0, 0, 7, t(0), t(0) + 1),
            record(1, 2, TraceEvent::SkelStart, 0, 0, 7, t(1), t(1) + 1),
            record(1, 3, TraceEvent::StubStart, 1, 0, 7, t(2), t(2) + 1),
            record(1, 4, TraceEvent::SkelStart, 1, 0, 7, t(3), t(3) + 1),
            record(1, 5, TraceEvent::SkelEnd, 1, 0, 7, t(4), t(4) + 1),
            record(1, 6, TraceEvent::StubEnd, 1, 0, 7, t(5), t(5) + 1),
            record(1, 7, TraceEvent::SkelEnd, 0, 0, 7, t(6), t(6) + 1),
            record(1, 8, TraceEvent::StubEnd, 0, 0, 7, t(7), t(7) + 1),
        ];
        m.ingest_batch_at(records, 10);
        let folded = m.folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "parent and child frames: {folded:?}");
        assert!(lines[0].starts_with("Test::Alpha.run "), "root first: {folded:?}");
        assert!(
            lines[1].starts_with("Test::Alpha.run;Test::Beta.go "),
            "child nested under parent: {folded:?}"
        );
        // Self time is parent latency minus child latency — strictly less
        // than the parent's total.
        let parent_self: u64 = lines[0].rsplit(' ').next().unwrap().parse().unwrap();
        let child_self: u64 = lines[1].rsplit(' ').next().unwrap().parse().unwrap();
        assert!(parent_self > 0 && child_self > 0);
        assert!(parent_self < parent_self + child_self);
    }

    #[test]
    fn idle_chains_are_forgotten() {
        let m = monitor();
        m.ingest_batch_at(sync_call(1, 0, 0, 1000), 10);
        assert_eq!(m.open_chain_summaries().len(), 0);
        let mut shard = m.shards[shard_of(Uuid(1), m.shards.len())].lock();
        assert_eq!(shard.analyzer.open_chains(), 0);
        // The chain's per-chain analyzer state is gone entirely (not just
        // filtered out of the summaries).
        assert!(!shard.analyzer.forget_chain(Uuid(1)), "state already dropped");
    }

    #[test]
    fn a_chain_with_a_duplicated_record_goes_idle_and_is_forgotten() {
        let m = monitor();
        let mut records = sync_call(1, 0, 0, 1000);
        records.insert(2, records[1].clone());
        m.ingest_batch_at(records, 10);
        assert_eq!(m.open_chain_summaries().len(), 0);
        let mut shard = m.shards[shard_of(Uuid(1), m.shards.len())].lock();
        assert_eq!(shard.analyzer.buffered_records(), 0);
        assert!(!shard.analyzer.forget_chain(Uuid(1)), "state already dropped");
    }

    #[test]
    fn ingest_never_walks_the_open_chains() {
        let m = monitor();
        // 50,000 chains left open: a long-running monitor's backlog.
        let open: Vec<ProbeRecord> = (0..50_000u128)
            .map(|chain| record(1_000 + chain, 1, TraceEvent::StubStart, 0, 0, 7, 0, 1))
            .collect();
        m.ingest_batch_at(open, 10);
        for index in 0..m.shards.len() {
            m.shards[index].lock().analyzer.walks.set(0);
        }
        for batch in 0..20u128 {
            let mut records = sync_call(batch, 0, 0, 1000);
            records.push(record(1_000 + batch, 2, TraceEvent::SkelStart, 0, 0, 7, 2, 3));
            m.ingest_batch_at(records, 20 + batch as u64);
        }
        let (_, health) = m.health_json();
        for index in 0..m.shards.len() {
            let walks = m.shards[index].lock().analyzer.walks.get();
            assert_eq!(walks, 0, "shard {index}: ingest and the gauges walked its chains");
        }
        assert_eq!(health.get("open_chains"), Some(&Json::Num(50_000.0)));
        assert_eq!(m.total_completed(), 20);
    }

    /// The string fold the interned [`StackTable`] replaced, kept as the
    /// reference it must match: rebuild the call forest, walk it threading
    /// `format!`ed paths down, fold each line into both string-keyed maps.
    fn string_fold(
        window: &mut BTreeMap<String, u64>,
        folded: &mut BTreeMap<String, u64>,
        completions: &[CompletedCall],
        vocab: &VocabSnapshot,
        cap: usize,
        evictions: &Counter,
    ) {
        let frame = |call: &CompletedCall| {
            format!(
                "{}.{}",
                vocab.interface_name(call.func.interface),
                vocab.method_name(call.func.interface, call.func.method)
            )
        };
        let forest = render::completion_forest(completions);
        let mut lines: Vec<(String, u64)> = Vec::new();
        let mut work: Vec<(&render::CompletionNode, String)> =
            forest.iter().map(|root| (root, frame(&root.call))).collect();
        while let Some((node, path)) = work.pop() {
            let child_ns: u64 = node.children.iter().map(|c| c.call.latency_ns).sum();
            let self_ns = node.call.latency_ns.saturating_sub(child_ns);
            for child in &node.children {
                work.push((child, format!("{path};{}", frame(&child.call))));
            }
            lines.push((path, self_ns));
        }
        for (path, self_ns) in lines {
            fold_into(window, cap, evictions, path.clone(), self_ns);
            fold_into(folded, cap, evictions, path, self_ns);
        }
    }

    /// [`string_fold`]'s capped insert.
    fn fold_into(
        map: &mut BTreeMap<String, u64>,
        cap: usize,
        evictions: &Counter,
        path: String,
        self_ns: u64,
    ) {
        if let Some(total) = map.get_mut(&path) {
            *total += self_ns;
            return;
        }
        if map.len() >= cap {
            if let Some(coldest) =
                map.iter().min_by_key(|(_, ns)| **ns).map(|(stack, _)| stack.clone())
            {
                map.remove(&coldest);
                evictions.inc();
            }
        }
        map.insert(path, self_ns);
    }

    /// Names that make distinct stacks render alike: `A`/`b.c` and `A.b`/`c`
    /// are both `A.b.c`; the root `X.y;Z`/`w` renders like `X.y` with a
    /// `Z.w` child; ids past the end all render as placeholders.
    fn colliding_vocab() -> VocabSnapshot {
        let iface = |name: &str, methods: &[&str]| InterfaceEntry {
            name: name.to_owned(),
            methods: methods.iter().map(|m| (*m).to_owned()).collect(),
        };
        VocabSnapshot {
            interfaces: vec![
                iface("A", &["b.c", "x"]),
                iface("A.b", &["c"]),
                iface("X", &["y"]),
                iface("Z", &["w"]),
                iface("X.y;Z", &["w"]),
            ],
            ..VocabSnapshot::default()
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The interned fold equals the string fold: the same cumulative
        /// and per-window maps, the same evictions, on irregular depth
        /// runs (orphans become extra roots), colliding names and caps of
        /// 1–3 — and the table stays bounded.
        #[test]
        fn interned_fold_matches_the_string_fold(
            chains in prop::collection::vec(
                (
                    // Small latencies, so eviction ties are common.
                    prop::collection::vec((0usize..4, 0u32..7, 0u16..2, 0u64..6), 0..16),
                    any::<bool>(),
                ),
                1..10,
            ),
            cap in 1usize..4,
        ) {
            let vocab = colliding_vocab();
            let (mut window, mut folded) = (BTreeMap::new(), BTreeMap::new());
            let mut table = StackTable::default();
            let registry = MetricsRegistry::new();
            let string_evictions = registry.counter("string_fold_evictions_total", "string fold");
            let interned_evictions = registry.counter("interned_fold_evictions_total", "interned fold");
            for (calls, close) in chains {
                let completions: Vec<CompletedCall> = calls
                    .into_iter()
                    .map(|(depth, iface, method, latency_ns)| CompletedCall {
                        func: FunctionKey::new(
                            InterfaceId(iface),
                            MethodIndex(method),
                            ObjectId(0),
                        ),
                        kind: CallKind::Sync,
                        depth,
                        latency_ns,
                    })
                    .collect();
                string_fold(&mut window, &mut folded, &completions, &vocab, cap, &string_evictions);
                table.fold(&completions, &vocab, cap, &interned_evictions);
                prop_assert!(table.size() <= STACK_TABLE_SLACK * cap + completions.len());
                let mut cumulative = BTreeMap::new();
                table.render_cumulative(&mut cumulative);
                prop_assert_eq!(render_folded(&cumulative), render_folded(&folded));
                prop_assert_eq!(interned_evictions.get(), string_evictions.get());
                if close {
                    let mut closed = BTreeMap::new();
                    table.close_window(&mut closed);
                    prop_assert_eq!(&closed, &std::mem::take(&mut window));
                }
            }
        }
    }

    #[test]
    fn long_idle_gap_fast_forwards_and_resolves_alerts() {
        let m = monitor();
        m.add_rule(AlertRule {
            name: "stuck".to_owned(),
            metric: AlertMetric::CallRate,
            series: None,
            cmp: AlertCmp::Above,
            fire_threshold: 0.5,
            resolve_threshold: 0.5,
            trigger: Trigger::Sustained { for_windows: 1 },
            escalate: None,
            deescalate: None,
        });
        m.ingest_batch_at(sync_call(1, 0, 0, 1000), 5);
        m.tick_at(WINDOW_NS + 1);
        assert_eq!(m.active_alerts().len(), 1);
        // A week of idleness later, the alert has resolved and the monitor
        // did not iterate hundreds of millions of slices to learn that.
        m.tick_at(7 * 24 * 3600 * WINDOW_NS);
        assert!(m.active_alerts().is_empty());
    }

    #[test]
    fn http_endpoints_serve_live_state() {
        let m = Arc::new(monitor());
        m.ingest_batch_at(sync_call(1, 0, 0, 50_000), 10);
        let server = serve(Arc::clone(&m), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let get = |path: &str| -> (u16, String) {
            use std::io::{Read, Write};
            let mut conn = std::net::TcpStream::connect(addr).expect("connect");
            write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .expect("send");
            let mut raw = String::new();
            conn.read_to_string(&mut raw).expect("read");
            let status: u16 =
                raw.split_whitespace().nth(1).expect("status").parse().expect("numeric");
            let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
            (status, body)
        };

        let (status, metrics) = get("/metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("causeway_online_open_chains"));

        let (status, health) = get("/healthz");
        assert_eq!(status, 200);
        let health = causeway_collector::json::parse(&health).expect("valid JSON");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

        let (status, latency) = get("/latency?iface=Test%3A%3AAlpha");
        assert_eq!(status, 200);
        let latency = causeway_collector::json::parse(&latency).expect("valid JSON");
        let series = latency.get("series").and_then(Json::as_arr).expect("series array");
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].get("method").and_then(Json::as_str), Some("run"));

        let (status, chains) = get("/chains");
        assert_eq!(status, 200);
        assert!(causeway_collector::json::parse(&chains).is_ok());

        let (status, folded) = get("/flamegraph");
        assert_eq!(status, 200);
        assert!(folded.contains("Test::Alpha.run "));

        let (status, trace) = get("/trace");
        assert_eq!(status, 200);
        assert!(causeway_collector::json::parse(&trace).is_ok());

        let (status, history) = get("/history");
        assert_eq!(status, 200);
        let history = causeway_collector::json::parse(&history).expect("valid JSON");
        assert!(history.get("retained_windows").is_some());

        let (status, dscg) = get("/dscg");
        assert_eq!(status, 200);
        let dscg = causeway_collector::json::parse(&dscg).expect("valid JSON");
        let chains =
            dscg.get("recent_chains").and_then(Json::as_arr).expect("chain list");
        assert_eq!(chains.len(), 1);
        let chain = chains[0].get("chain").and_then(Json::as_str).expect("uuid");
        let (status, tree) = get(&format!("/dscg?chain={chain}"));
        assert_eq!(status, 200);
        assert!(tree.contains("Test::Alpha.run"), "{tree}");

        // Window-scoped views 404 cleanly before any window has closed…
        let (status, _) = get("/flamegraph?window=0");
        assert_eq!(status, 404);
        let (status, _) = get("/flamegraph/diff?a=0&b=1");
        assert_eq!(status, 404);
        // …and malformed ordinals are a 400, not a panic.
        let (status, _) = get("/flamegraph?window=abc");
        assert_eq!(status, 400);
        let (status, _) = get("/flamegraph/diff?a=0");
        assert_eq!(status, 400);

        let (status, _) = get("/nope");
        assert_eq!(status, 404);
        server.shutdown();
    }

    /// Raw-socket GET against a [`LiveService`] (shared by the HTTP tests).
    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read");
        let status: u16 =
            raw.split_whitespace().nth(1).expect("status").parse().expect("numeric");
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
        (status, body)
    }

    /// The object keys of a [`Json::Obj`], for shape-stability assertions.
    fn json_keys(value: &Json) -> Vec<&str> {
        match value {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    /// Satellite regression: the completed-chain ring is strict FIFO, so a
    /// burst of fast traffic used to evict the one slow chain an operator
    /// would actually ask about. With the exemplar store as a `/dscg`
    /// fallback the slow chain keeps rendering after arbitrary churn.
    #[test]
    fn exemplar_outlives_trace_ring_churn() {
        let cfg = LiveConfig { trace_capacity: 4, ..test_config() };
        let m = LiveMonitor::new(cfg, test_vocab(), Deployment::default());
        let slow = Uuid(1).to_string();
        m.ingest_batch_at(sync_call(1, 0, 0, 9_000_000), 10);
        assert!(m.dscg_render(&slow, None).is_ok(), "present while in the ring");
        // 32 fast completions churn the 4-slot FIFO ring eight times over.
        for i in 0..32u64 {
            m.ingest_batch_at(sync_call(100 + u128::from(i), 0, 1, 1_000), 20 + i);
        }
        let recent = m.recent_chains_json().to_string();
        assert!(!recent.contains(&slow), "FIFO ring churned past the slow chain");
        let tree = m.dscg_render(&slow, None).expect("served from the exemplar store");
        assert!(tree.contains("Test::Alpha.run"), "{tree}");
        // Chains in neither the ring nor the store still 404.
        assert!(m.dscg_render(&Uuid(9_999).to_string(), None).is_err());
    }

    #[test]
    fn fired_alerts_carry_breach_exemplars_that_resolve_to_renders() {
        let m = monitor();
        m.add_rule(AlertRule {
            name: "p95-high".to_owned(),
            metric: AlertMetric::P95,
            series: Some((InterfaceId(0), MethodIndex(0))),
            cmp: AlertCmp::Above,
            fire_threshold: 1_000_000.0,
            resolve_threshold: 100_000.0,
            trigger: Trigger::Sustained { for_windows: 2 },
            escalate: None,
            deescalate: None,
        });
        let mut chain = 1u128;
        for w in 0..2u64 {
            m.ingest_batch_at(sync_call(chain, 0, 0, 10_000), w * WINDOW_NS + 5);
            chain += 1;
        }
        for w in 2..4u64 {
            m.ingest_batch_at(sync_call(chain, 0, 0, 5_000_000), w * WINDOW_NS + 5);
            chain += 1;
        }
        m.tick_at(4 * WINDOW_NS);
        let log = m.alert_log();
        let fired = log.iter().find(|e| e.fired).expect("alert fired");
        assert!(!fired.exemplars.is_empty(), "firing transitions carry exemplar refs");
        // Every referenced uuid resolves to a full detail render naming the
        // breaching operation.
        for uuid in &fired.exemplars {
            let detail = m.exemplar_detail_json(&uuid.to_string()).expect("resolves");
            let ascii = detail.get("ascii").and_then(Json::as_str).expect("ascii render");
            assert!(ascii.contains("Test::Alpha.run"), "{ascii}");
            let trace = detail.get("chrome_trace").expect("chrome trace");
            assert!(!trace.get("traceEvents").and_then(Json::as_arr).unwrap().is_empty());
        }
        // Resolve transitions stay unadorned.
        drop(log);
        for w in 4..6u64 {
            m.ingest_batch_at(sync_call(chain, 0, 0, 10_000), w * WINDOW_NS + 5);
            chain += 1;
        }
        m.tick_at(7 * WINDOW_NS);
        let log = m.alert_log();
        let resolved = log.iter().find(|e| !e.fired).expect("alert resolved");
        assert!(resolved.exemplars.is_empty());
    }

    /// Scraper-facing JSON contracts: the exact key sets of `/healthz`,
    /// `/latency` series objects (with exemplar refs), and `/exemplars`
    /// must not silently drift.
    #[test]
    fn scraper_json_shapes_are_stable() {
        let m = Arc::new(monitor());
        m.ingest_batch_at(sync_call(1, 0, 0, 5_000_000), 10);
        let server = serve(Arc::clone(&m), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let (status, health) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
        let health = causeway_collector::json::parse(&health).expect("valid JSON");
        assert_eq!(
            json_keys(&health),
            [
                "abnormalities",
                "active_alerts",
                "buffered_records",
                "completed_calls",
                "escalated_interfaces",
                "history_evictions",
                "open_chains",
                "open_incidents",
                "shards",
                "spill_error",
                "spill_errors",
                "status",
                "uptime_ms",
                "version",
                "window_index",
            ]
        );
        assert_eq!(
            health.get("shards").and_then(Json::as_u64),
            Some(test_config().shards as u64)
        );
        assert_eq!(
            health.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(health.get("uptime_ms").and_then(Json::as_u64).is_some());

        let (status, latency) = http_get(addr, "/latency?iface=Test%3A%3AAlpha");
        assert_eq!(status, 200);
        let latency = causeway_collector::json::parse(&latency).expect("valid JSON");
        let series = latency.get("series").and_then(Json::as_arr).expect("series");
        assert_eq!(
            json_keys(&series[0]),
            [
                "busy_share",
                "call_rate_hz",
                "calls",
                "exemplars",
                "iface",
                "mean_ns",
                "method",
                "p50_ns",
                "p95_ns",
                "p99_ns",
            ]
        );
        let refs = series[0].get("exemplars").and_then(Json::as_arr).expect("refs");
        assert!(!refs.is_empty(), "slow call must surface an exemplar ref");
        assert_eq!(
            json_keys(&refs[0]),
            ["bucket", "chain", "latency_ns", "verdict", "window_index"]
        );

        let (status, index) = http_get(addr, "/exemplars");
        assert_eq!(status, 200);
        let index = causeway_collector::json::parse(&index).expect("valid JSON");
        assert_eq!(
            json_keys(&index),
            [
                "admitted",
                "approx_bytes",
                "count",
                "enabled",
                "evicted",
                "max_bytes",
                "max_total",
                "per_series",
                "rejected",
                "sample_per_series",
                "series",
            ]
        );
        let per_series = index.get("series").and_then(Json::as_arr).expect("series");
        assert_eq!(json_keys(&per_series[0]), ["count", "exemplars", "iface", "method"]);
        let summary = &per_series[0].get("exemplars").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            json_keys(summary),
            [
                "chain",
                "completed_calls",
                "id",
                "iface",
                "latency_ns",
                "method",
                "verdict",
                "window_index",
            ]
        );
        let chain = summary.get("chain").and_then(Json::as_str).expect("uuid");

        let (status, detail) = http_get(addr, &format!("/exemplars?id={chain}"));
        assert_eq!(status, 200);
        let detail = causeway_collector::json::parse(&detail).expect("valid JSON");
        assert_eq!(
            json_keys(&detail),
            [
                "ascii",
                "chain",
                "chrome_trace",
                "completed_calls",
                "dot",
                "id",
                "iface",
                "latency_ns",
                "method",
                "verdict",
                "window_index",
            ]
        );
        assert!(detail.get("dot").and_then(Json::as_str).unwrap().contains("digraph"));

        // Error paths: filtered index, bad uuid, unknown uuid.
        let (status, _) = http_get(addr, "/exemplars?series=Test%3A%3AAlpha.run");
        assert_eq!(status, 200);
        let (status, _) = http_get(addr, "/exemplars?series=No%3A%3ASuch.thing");
        assert_eq!(status, 404);
        let (status, _) = http_get(addr, "/exemplars?id=not-a-uuid");
        assert_eq!(status, 400);
        let (status, _) = http_get(addr, &format!("/exemplars?id={}", Uuid(0xdead)));
        assert_eq!(status, 404);
        server.shutdown();
    }

    /// The acceptance path, end to end over HTTP: a sustained regression
    /// fires an alert whose exemplar uuid resolves at `/exemplars?id=` to a
    /// DSCG render containing the injected operation — even after the FIFO
    /// trace ring has churned far past `trace_capacity`.
    #[test]
    fn alert_exemplar_resolves_over_http_after_ring_churn() {
        let cfg = LiveConfig { trace_capacity: 4, ..test_config() };
        let m = Arc::new(LiveMonitor::new(cfg, test_vocab(), Deployment::default()));
        m.add_rule(AlertRule {
            name: "p95-high".to_owned(),
            metric: AlertMetric::P95,
            series: Some((InterfaceId(0), MethodIndex(0))),
            cmp: AlertCmp::Above,
            fire_threshold: 1_000_000.0,
            resolve_threshold: 100_000.0,
            trigger: Trigger::Sustained { for_windows: 2 },
            escalate: None,
            deescalate: None,
        });
        let mut chain = 1u128;
        for w in 0..4u64 {
            let slow = if w < 2 { 10_000 } else { 5_000_000 };
            m.ingest_batch_at(sync_call(chain, 0, 0, slow), w * WINDOW_NS + 5);
            chain += 1;
            // Fast decoy traffic churns the 4-slot FIFO ring every window.
            for i in 0..8u64 {
                m.ingest_batch_at(
                    sync_call(1000 + chain + u128::from(i), 0, 1, 1_000),
                    w * WINDOW_NS + 10 + i,
                );
            }
            chain += 8;
        }
        m.tick_at(4 * WINDOW_NS);
        // The alert has fired and published its exemplar uuids. Keep the
        // regression sustained with *even slower* chains — without the
        // alert-time pin these would displace the published exemplars from
        // the fastest-first reservoir and break the uuid the operator saw.
        for w in 4..7u64 {
            for i in 0..4u64 {
                m.ingest_batch_at(
                    sync_call(chain, 0, 0, 6_000_000 + i * 100_000),
                    w * WINDOW_NS + 5 + i,
                );
                chain += 1;
            }
        }
        m.tick_at(7 * WINDOW_NS);

        let server = serve(Arc::clone(&m), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let (status, alerts) = http_get(addr, "/alerts");
        assert_eq!(status, 200);
        let alerts = causeway_collector::json::parse(&alerts).expect("valid JSON");
        let fired = alerts
            .get("alerts")
            .and_then(Json::as_arr)
            .expect("log")
            .iter()
            .find(|e| e.get("fired").and_then(Json::as_bool) == Some(true))
            .expect("alert fired")
            .clone();
        let refs = fired.get("exemplars").and_then(Json::as_arr).expect("refs");
        let uuid = refs[0].as_str().expect("uuid string");
        // The breaching chain is long gone from the FIFO ring…
        let (_, recent) = http_get(addr, "/dscg");
        assert!(!recent.contains(uuid), "ring must have churned: {recent}");
        // …but the alert's exemplar still resolves to a full DSCG render
        // naming the regressed operation.
        let (status, detail) = http_get(addr, &format!("/exemplars?id={uuid}"));
        assert_eq!(status, 200);
        let detail = causeway_collector::json::parse(&detail).expect("valid JSON");
        let ascii = detail.get("ascii").and_then(Json::as_str).expect("render");
        assert!(ascii.contains("Test::Alpha.run"), "{ascii}");
        server.shutdown();
    }

    #[test]
    fn alert_firing_opens_incident_with_evidence_and_passes() {
        let mut m = monitor();
        m.add_rule(AlertRule {
            name: "p95-high".to_owned(),
            metric: AlertMetric::P95,
            series: Some((InterfaceId(0), MethodIndex(0))),
            cmp: AlertCmp::Above,
            fire_threshold: 1_000_000.0, // 1ms
            resolve_threshold: 1_000_000.0,
            trigger: Trigger::Sustained { for_windows: 2 },
            escalate: None,
            deescalate: None,
        });

        // W0/W1 baseline: both methods quick. W2/W3 breach: `run` regresses
        // 500×, `poll` drifts from 10µs to 12µs — a decoy regression that
        // was already present in the baseline.
        let mut chain = 1u128;
        let mut drive = |window: u64, run_ns: u64, poll_ns: u64, m: &mut LiveMonitor| {
            let at = window * WINDOW_NS + 5;
            m.ingest_batch_at(sync_call(chain, 0, 0, run_ns), at);
            m.ingest_batch_at(sync_call(chain + 1, 0, 1, poll_ns), at + 10);
            chain += 2;
        };
        for w in 0..2 {
            drive(w, 10_000, 10_000, &mut m);
        }
        for w in 2..4 {
            drive(w, 5_000_000, 12_000, &mut m);
        }
        m.tick_at(4 * WINDOW_NS); // finalize W3: for=2 satisfied, fires

        let log = m.alert_log();
        let fires: Vec<&AlertEvent> = log.iter().filter(|e| e.fired).collect();
        assert_eq!(fires.len(), 1, "exactly one firing transition");
        assert!(fires[0].at_ms > 0, "wall-clock stamp present");

        // `incidents()` holds the control lock: scope the guard so the
        // drives below can ingest again.
        let incident_id = {
        let incidents = m.incidents();
        assert_eq!(incidents.len(), 1);
        let incident = incidents.iter().next().expect("registered");
        assert!(incident.is_open());
        assert_eq!(incident.breach_window, 3);
        // for=2 lookback from W3 → baseline W1, before the excursion.
        assert_eq!(incident.baseline_window, Some(1));

        // The true regression survives as the heaviest flamegraph-diff
        // hypothesis; the decoy is tombstoned by the baseline-presence pass
        // with provenance, yet still present in the add-only graph.
        let surviving = incident.surviving();
        assert!(
            surviving.iter().any(|h| {
                h.kind == HypothesisKind::FlamegraphRegression
                    && h.subject.contains("Test::Alpha.run")
            }),
            "true cause must survive: {surviving:?}"
        );
        let decoy = incident
            .hypotheses()
            .iter()
            .find(|h| {
                h.kind == HypothesisKind::FlamegraphRegression
                    && h.subject.contains("Test::Alpha.poll")
            })
            .expect("decoy hypothesis stays in the graph");
        assert!(incident.is_eliminated(decoy.id), "decoy tombstoned");
        let tombstone = incident
            .tombstones()
            .iter()
            .find(|t| t.hypothesis == decoy.id)
            .expect("tombstone recorded");
        assert_eq!(tombstone.pass, incident::PASS_BASELINE);
        assert!(tombstone.evidence.contains("baseline window 1"), "{tombstone:?}");
        assert!(tombstone.at_ms > 0, "tombstones carry wall-clock provenance");

        incident.id
        };

        // The alert calming resolves the incident (for=2 calm windows).
        for w in 4..6 {
            drive(w, 10_000, 10_000, &mut m);
        }
        m.tick_at(7 * WINDOW_NS);
        let incidents = m.incidents();
        let incident = incidents.get(incident_id).expect("still retained");
        assert!(!incident.is_open(), "resolved with the alert");
        assert_eq!(incident.resolved_window, Some(5));
    }

    #[test]
    fn incident_http_surface_and_error_paths() {
        let m = Arc::new(monitor());
        m.ingest_batch_at(sync_call(1, 0, 0, 50_000), 10);
        let incident_id = {
            let mut incidents = m.incidents();
            let id = incidents.open("test-alert", 3, Some(1), 123);
            let entry = incidents.get_mut(id).unwrap();
            entry.add_hypothesis(
                HypothesisKind::FlamegraphRegression,
                "Test::Alpha.run".to_owned(),
                "self time +5000000ns".to_owned(),
                5_000_000,
                3,
                123,
            );
            entry.add_hypothesis(
                HypothesisKind::HotStack,
                "Test::Alpha.poll".to_owned(),
                "12000ns self time".to_owned(),
                12_000,
                3,
                123,
            );
            id
        };
        let server = serve(Arc::clone(&m), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let roundtrip = |request: String| -> (u16, String) {
            use std::io::{Read, Write};
            let mut conn = std::net::TcpStream::connect(addr).expect("connect");
            conn.write_all(request.as_bytes()).expect("send");
            let mut raw = String::new();
            conn.read_to_string(&mut raw).expect("read");
            let status: u16 =
                raw.split_whitespace().nth(1).expect("status").parse().expect("numeric");
            let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
            (status, body)
        };
        let get = |path: &str| {
            roundtrip(format!(
                "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            ))
        };
        let post = |path: &str, body: &str| {
            roundtrip(format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            ))
        };

        // The index and detail bodies.
        let (status, index) = get("/incidents");
        assert_eq!(status, 200);
        let index = causeway_collector::json::parse(&index).expect("valid JSON");
        assert_eq!(index.get("incidents").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        let (status, detail) = get(&format!("/incidents?id={incident_id}"));
        assert_eq!(status, 200);
        let detail = causeway_collector::json::parse(&detail).expect("valid JSON");
        assert_eq!(
            detail.get("surviving").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );

        // An operator tombstone shrinks the surviving set but not the graph.
        let (status, ack) = post(
            "/incidents/eliminate",
            &format!(
                "{{\"incident\": {incident_id}, \"hypothesis\": 1, \
                 \"reason\": \"known-benign poll path\"}}"
            ),
        );
        assert_eq!(status, 200, "{ack}");
        let (_, detail) = get(&format!("/incidents?id={incident_id}"));
        let detail = causeway_collector::json::parse(&detail).expect("valid JSON");
        assert_eq!(
            detail.get("surviving").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            detail.get("hypotheses").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2),
            "add-only: the graph never shrinks"
        );
        let tombstones = detail.get("tombstones").and_then(Json::as_arr).expect("array");
        assert_eq!(tombstones.len(), 1);
        assert_eq!(tombstones[0].get("pass").and_then(Json::as_str), Some("operator"));

        // Error paths stay bounded: garbage uuid, missing diff ordinal,
        // unknown incident, malformed id, bad POST targets and bodies.
        let (status, _) = get("/dscg?chain=not-a-uuid");
        assert_eq!(status, 404);
        let (status, _) = get("/flamegraph/diff?a=0");
        assert_eq!(status, 400, "one missing ordinal");
        let (status, _) = get("/incidents?id=999");
        assert_eq!(status, 404);
        let (status, _) = get("/incidents?id=abc");
        assert_eq!(status, 400);
        let (status, _) = get("/incidents/eliminate");
        assert_eq!(status, 405, "tombstones arrive by POST only");
        let (status, _) = post("/incidents/eliminate", "{\"incident\": 0}");
        assert_eq!(status, 400, "missing hypothesis id");
        let (status, _) = post("/incidents/eliminate", "not json");
        assert_eq!(status, 400);
        let (status, _) = post(
            "/incidents/eliminate",
            &format!("{{\"incident\": {incident_id}, \"hypothesis\": 99}}"),
        );
        assert_eq!(status, 404, "unknown hypothesis");

        // An oversized declared body is rejected up front with 413.
        let (status, _) = roundtrip(format!(
            "POST /incidents/eliminate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n",
            causeway_core::httpd::MAX_BODY_BYTES + 1
        ));
        assert_eq!(status, 413);
        server.shutdown();
    }

    #[test]
    fn ticker_rotates_windows_on_an_idle_system() {
        // Tight real-time windows: with zero traffic and zero scrapes, the
        // background ticker alone must finalize windows into the history.
        let cfg = LiveConfig {
            window: Duration::from_millis(50),
            slices: 2,
            ..LiveConfig::default()
        };
        let m = Arc::new(LiveMonitor::new(cfg, test_vocab(), Deployment::default()));
        let server = serve(Arc::clone(&m), "127.0.0.1:0").expect("bind");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if m.history().len() >= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "ticker never closed a window");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    fn p95_rule(name: &str) -> AlertRule {
        AlertRule {
            name: name.to_owned(),
            metric: AlertMetric::P95,
            series: Some((InterfaceId(0), MethodIndex(0))),
            cmp: AlertCmp::Above,
            fire_threshold: 1.0,
            resolve_threshold: 1.0,
            trigger: Trigger::Sustained { for_windows: 1 },
            escalate: None,
            deescalate: None,
        }
    }

    #[test]
    fn incident_ring_capacity_zero_skips_gracefully() {
        // Regression: `open_incident` used `expect("just opened")` and
        // panicked the window-close path when the ring evicted the incident
        // at open. Capacity 0 must skip gracefully and count the drop.
        let mut cfg = test_config();
        cfg.incidents.capacity = 0;
        let m = LiveMonitor::new(cfg, test_vocab(), Deployment::default());
        m.add_rule(p95_rule("p95-high"));
        m.ingest_batch_at(sync_call(1, 0, 0, 50_000), 5);
        m.tick_at(WINDOW_NS); // finalize W0: fires, incident open is dropped
        let dropped = m.metrics().counter_value("causeway_incident_dropped_total");
        assert_eq!(dropped, Some(1), "the one open is dropped and counted");
        assert!(m.alert_log().iter().any(|e| e.fired), "alert still fired");
        assert_eq!(m.incidents().len(), 0, "nothing retained at capacity 0");
    }

    #[test]
    fn incident_ring_capacity_one_retains_latest() {
        // Two rules firing in the same window against a one-slot ring: the
        // second open evicts the first incident, the just-opened one
        // survives with its evidence, and nothing panics.
        let mut cfg = test_config();
        cfg.incidents.capacity = 1;
        let m = LiveMonitor::new(cfg, test_vocab(), Deployment::default());
        m.add_rule(p95_rule("first"));
        m.add_rule(p95_rule("second"));
        m.ingest_batch_at(sync_call(1, 0, 0, 50_000), 5);
        m.tick_at(WINDOW_NS); // finalize W0: both fire
        let log = m.alert_log();
        assert_eq!(log.iter().filter(|e| e.fired).count(), 2, "{log:?}");
        let incidents = m.incidents();
        assert_eq!(incidents.len(), 1);
        let retained = incidents.iter().next().expect("one retained");
        assert_eq!(retained.alert, "second", "latest open survives");
        assert!(!retained.hypotheses().is_empty(), "evidence populated");
    }

    // ---- adaptive probe control plane ----

    fn adaptive_monitor(base: ProbeMode) -> (LiveMonitor, ProbePolicy) {
        let policy = ProbePolicy::new(base);
        let mut cfg = test_config();
        cfg.adaptive.policy = Some(policy.clone());
        (LiveMonitor::new(cfg, test_vocab(), Deployment::default()), policy)
    }

    /// Flattens the `/probes` transition log to (iface, from, to, reason).
    fn transitions_of(m: &LiveMonitor) -> Vec<(String, String, String, String)> {
        let body = m.probes_json();
        let Some(Json::Arr(items)) = body.get("transitions") else {
            panic!("no transitions array in {body:?}");
        };
        items
            .iter()
            .map(|t| {
                let s = |k: &str| match t.get(k) {
                    Some(Json::Str(v)) => v.clone(),
                    other => panic!("transition field {k}: {other:?}"),
                };
                (s("iface"), s("from"), s("to"), s("reason"))
            })
            .collect()
    }

    #[test]
    fn rule_parser_accepts_probe_escalation_suffixes() {
        let vocab = test_vocab();
        let rule = parse_rule(
            "p95:Test::Alpha.run>800us;escalate=both;deescalate=latency",
            &vocab,
        )
        .unwrap();
        assert_eq!(rule.escalate, Some(ProbeMode::Both));
        assert_eq!(rule.deescalate, Some(ProbeMode::Latency));

        let burn =
            parse_rule("burn=p95:Test::Alpha.run>400us;slo=99;fast=2;slow=12;escalate=cpu", &vocab)
                .unwrap();
        assert_eq!(burn.escalate, Some(ProbeMode::Cpu));
        assert_eq!(burn.deescalate, None);

        // The interface to actuate comes from the series target, so a
        // series-less rule cannot carry escalation.
        assert!(parse_rule("rate<0.5;escalate=both", &vocab).is_err());
        assert!(parse_rule("burn=err>0.01;slo=99;fast=2;slow=12;deescalate=cpu", &vocab).is_err());
        assert!(parse_rule("p95:Test::Alpha.run>1ms;escalate=warp", &vocab).is_err());
    }

    #[test]
    fn firing_rule_escalates_only_its_interface_and_resolve_restores_base() {
        let (m, policy) = adaptive_monitor(ProbeMode::CausalityOnly);
        m.add_rule(AlertRule {
            name: "p95-high".to_owned(),
            metric: AlertMetric::P95,
            series: Some((InterfaceId(0), MethodIndex(0))),
            cmp: AlertCmp::Above,
            fire_threshold: 1_000_000.0,  // 1ms
            resolve_threshold: 100_000.0, // 0.1ms
            trigger: Trigger::Sustained { for_windows: 1 },
            escalate: None, // falls back to AdaptiveConfig::escalate_mode (Both)
            deescalate: None,
        });
        assert_eq!(policy.effective(InterfaceId(0)), ProbeMode::CausalityOnly);

        // W0 breaches: the rule fires at window close and the hot
        // interface escalates. The unrelated interface must not move.
        m.ingest_batch_at(sync_call(1, 0, 0, 5_000_000), 5);
        m.tick_at(WINDOW_NS);
        assert_eq!(policy.effective(InterfaceId(0)), ProbeMode::Both);
        assert_eq!(policy.effective(InterfaceId(1)), ProbeMode::CausalityOnly);

        // W1 is calm: the rule resolves and the escalation is withdrawn.
        m.ingest_batch_at(sync_call(2, 0, 0, 1_000), WINDOW_NS + 5);
        m.tick_at(2 * WINDOW_NS);
        assert_eq!(policy.effective(InterfaceId(0)), ProbeMode::CausalityOnly);
        assert!(policy.overrides().is_empty(), "no standing overrides");

        let log = transitions_of(&m);
        assert_eq!(
            log,
            vec![
                (
                    "Test::Alpha".to_owned(),
                    "causality-only".to_owned(),
                    "both".to_owned(),
                    "alert".to_owned()
                ),
                (
                    "Test::Alpha".to_owned(),
                    "both".to_owned(),
                    "causality-only".to_owned(),
                    "alert".to_owned()
                ),
            ],
            "escalate then de-escalate, both alert-driven"
        );
    }

    #[test]
    fn deescalate_suffix_leaves_standing_floor() {
        let (m, policy) = adaptive_monitor(ProbeMode::CausalityOnly);
        m.add_rule_spec("p95:Test::Alpha.run>1ms;resolve=100us;escalate=both;deescalate=latency")
            .unwrap();

        m.ingest_batch_at(sync_call(1, 0, 0, 5_000_000), 5);
        m.tick_at(WINDOW_NS); // fires
        assert_eq!(policy.effective(InterfaceId(0)), ProbeMode::Both);

        m.ingest_batch_at(sync_call(2, 0, 0, 1_000), WINDOW_NS + 5);
        m.tick_at(2 * WINDOW_NS); // resolves
        assert_eq!(
            policy.effective(InterfaceId(0)),
            ProbeMode::Latency,
            "resolve lands on the deescalate= floor, not base"
        );

        let body = m.probes_json();
        let Some(Json::Arr(ifaces)) = body.get("interfaces") else {
            panic!("no interfaces in {body:?}");
        };
        let alpha = ifaces
            .iter()
            .find(|e| matches!(e.get("iface"), Some(Json::Str(n)) if n == "Test::Alpha"))
            .expect("Test::Alpha listed");
        assert!(
            matches!(alpha.get("source"), Some(Json::Str(s)) if s == "floor"),
            "{alpha:?}"
        );
    }

    #[test]
    fn operator_override_outranks_alert_hold_and_expires_by_ttl() {
        let (m, policy) = adaptive_monitor(ProbeMode::CausalityOnly);
        m.add_rule(p95_rule("hold"));
        m.ingest_batch_at(sync_call(1, 0, 0, 5_000_000), 5);
        m.tick_at(WINDOW_NS); // fires: hold escalates iface 0 to Both
        assert_eq!(policy.effective(InterfaceId(0)), ProbeMode::Both);

        // An operator pins the interface below the alert hold.
        let ack = m
            .probe_override_json(br#"{"iface": "Test::Alpha", "mode": "latency", "ttl_ms": 1}"#)
            .expect("override accepted");
        assert!(matches!(ack.get("mode"), Some(Json::Str(s)) if s == "latency"), "{ack:?}");
        assert_eq!(policy.effective(InterfaceId(0)), ProbeMode::Latency);

        // Once the TTL lapses, the next sweep (here: a /probes read)
        // re-derives the target from the still-live alert hold.
        std::thread::sleep(Duration::from_millis(5));
        let log = transitions_of(&m);
        assert_eq!(policy.effective(InterfaceId(0)), ProbeMode::Both);
        let reasons: Vec<&str> = log.iter().map(|(_, _, _, r)| r.as_str()).collect();
        assert_eq!(reasons, vec!["alert", "operator", "ttl"], "{log:?}");
        assert_eq!(log[2].1, "latency");
        assert_eq!(log[2].2, "both", "ttl expiry falls back to the hold");
    }

    #[test]
    fn operator_base_post_clears_override_and_floor() {
        let (m, policy) = adaptive_monitor(ProbeMode::CausalityOnly);
        m.probe_override_json(br#"{"iface": 1, "mode": "cpu"}"#).expect("override accepted");
        assert_eq!(policy.effective(InterfaceId(1)), ProbeMode::Cpu);
        let ack = m
            .probe_override_json(br#"{"iface": "Test::Beta", "mode": "base"}"#)
            .expect("clear accepted");
        assert!(matches!(ack.get("mode"), Some(Json::Str(s)) if s == "causality-only"), "{ack:?}");
        assert!(matches!(ack.get("expires_at_ms"), Some(Json::Null)), "{ack:?}");
        assert_eq!(policy.effective(InterfaceId(1)), ProbeMode::CausalityOnly);
        assert!(policy.overrides().is_empty());
    }

    #[test]
    fn probe_override_rejects_bad_requests() {
        let (m, _policy) = adaptive_monitor(ProbeMode::CausalityOnly);
        let status = |body: &[u8]| m.probe_override_json(body).unwrap_err().0;
        assert_eq!(status(b"not json"), 400);
        assert_eq!(status(br#"{"iface": "Nope::Missing", "mode": "cpu"}"#), 404);
        assert_eq!(status(br#"{"iface": "Test::Alpha", "mode": "warp"}"#), 400);
        assert_eq!(status(br#"{"iface": "Test::Alpha", "mode": "cpu", "ttl_ms": -3}"#), 400);

        // Without a shared policy the whole control plane is inert.
        let inert = monitor();
        assert_eq!(
            inert
                .probe_override_json(br#"{"iface": "Test::Alpha", "mode": "cpu"}"#)
                .unwrap_err()
                .0,
            409
        );
        let body = inert.probes_json();
        assert!(matches!(body.get("adaptive"), Some(Json::Bool(false))), "{body:?}");
    }

    #[test]
    fn probe_transitions_are_noted_on_incident_timelines() {
        let (m, _policy) = adaptive_monitor(ProbeMode::CausalityOnly);
        m.add_rule(p95_rule("noted"));
        m.ingest_batch_at(sync_call(1, 0, 0, 5_000_000), 5);
        m.tick_at(WINDOW_NS); // fires + escalates
        let incidents = m.incidents();
        let incident = incidents.iter().next().expect("incident opened");
        let noted = incident
            .timeline()
            .iter()
            .any(|n| n.what.contains("probe Test::Alpha") && n.what.contains("both"));
        assert!(noted, "timeline: {:?}", incident.timeline());
    }
}
