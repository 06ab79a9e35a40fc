//! Incident forensics: an add-only causal hypothesis graph over retained
//! evidence.
//!
//! The monitoring stack up to here stops at *detection*: burn-rate and
//! threshold alerts fire, flamegraph diffs and spilled history exist, but
//! nothing connects "the alert fired" to "here is the surviving causal
//! explanation". This module organizes the already-retained evidence into a
//! queryable diagnosis workflow:
//!
//! * An [`Incident`] is registered when an alert transitions to firing
//!   (see `LiveMonitor::finalize_window`). It is auto-populated with
//!   [`Hypothesis`] entries drawn from evidence the monitor already holds:
//!   the top `/flamegraph/diff` regressions between the breach window and a
//!   pre-breach baseline window (resolved through the history ring *and*
//!   its spill segment), recently abnormal chains with their DSCG renders,
//!   and the hottest folded-stack paths of the breach window.
//! * The graph is **add-only**: hypotheses are never removed or mutated.
//!   Analysis passes (and operators, over `POST /incidents/eliminate`)
//!   eliminate a hypothesis by recording a [`Tombstone`] carrying full
//!   provenance — the pass name, its evidence, and a wall-clock stamp.
//! * The **surviving-cause set is computed at query time** from
//!   `hypotheses − tombstoned`, so concurrent analysis passes and manual
//!   eliminations compose without coordination: adds and tombstones
//!   commute, exactly like a two-set (add/remove with provenance) CRDT.
//!   Tombstones are deduplicated per `(hypothesis, pass)` pair, which makes
//!   re-running a pass idempotent and bounds the graph.
//!
//! The [`IncidentStore`] retains a bounded ring of incidents and exports
//! `causeway_incident_*` metrics: opened/resolved counters and live /
//! eliminated hypothesis gauges.

use causeway_collector::json::Json;
use causeway_core::metrics::{Counter, Gauge, MetricsRegistry};
use std::collections::VecDeque;

/// Milliseconds since the Unix epoch — the wall-clock stamp carried by
/// alert events, hypotheses and tombstones. Monitors keep their own
/// monotonic `now_ns` for window arithmetic; forensics timelines need real
/// time an operator can correlate with external logs.
pub fn wall_clock_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Pass name recorded by the baseline-presence elimination pass
/// ("regression also present in baseline").
pub const PASS_BASELINE: &str = "baseline-presence";
/// Pass name recorded by the stack-share-floor elimination pass.
pub const PASS_STACK_FLOOR: &str = "stack-floor";
/// Pass name recorded by the abnormal-chain re-check elimination pass.
pub const PASS_CHAIN_RECHECK: &str = "chain-recheck";
/// Pass name recorded for operator tombstones via `POST
/// /incidents/eliminate`.
pub const PASS_OPERATOR: &str = "operator";

/// Longest accepted pass name on an operator tombstone.
pub const MAX_PASS_LEN: usize = 64;
/// Longest accepted free-text evidence/reason on an operator tombstone.
pub const MAX_EVIDENCE_LEN: usize = 1024;

/// Where a hypothesis came from — which retained evidence nominated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HypothesisKind {
    /// A folded-stack path whose self time grew between the baseline and
    /// breach windows (a `/flamegraph/diff` top regression).
    FlamegraphRegression,
    /// A chain that tripped the Figure-4 reconstruction near the breach.
    AbnormalChain,
    /// One of the hottest folded-stack paths of the breach window.
    HotStack,
}

impl HypothesisKind {
    /// The stable JSON identifier for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            HypothesisKind::FlamegraphRegression => "flamegraph-regression",
            HypothesisKind::AbnormalChain => "abnormal-chain",
            HypothesisKind::HotStack => "hot-stack",
        }
    }
}

/// One node of the causal hypothesis graph: a candidate explanation for
/// the incident, tied to the evidence that nominated it. Never mutated or
/// removed once added.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// Incident-scoped id (dense, starting at 0) — the handle eliminations
    /// reference.
    pub id: u64,
    /// Which evidence source nominated this hypothesis.
    pub kind: HypothesisKind,
    /// What is suspected: a folded stack path or a chain UUID.
    pub subject: String,
    /// Human-readable evidence (delta vs baseline, abnormality message and
    /// DSCG render, self-time share, …).
    pub detail: String,
    /// Evidence magnitude in nanoseconds (diff delta or self time) — the
    /// ranking key; 0 for abnormal chains.
    pub weight_ns: u64,
    /// Tumbling window ordinal at which the hypothesis was added.
    pub added_window: u64,
    /// Wall-clock stamp (epoch millis) of the addition.
    pub added_at_ms: u64,
}

/// An incident-scoped elimination with provenance. Tombstones are add-only
/// too: the graph records *who ruled a hypothesis out, on what grounds,
/// and when* — it never forgets that the hypothesis existed.
#[derive(Debug, Clone, PartialEq)]
pub struct Tombstone {
    /// The eliminated hypothesis's id.
    pub hypothesis: u64,
    /// The analysis pass (or `operator`) that ruled it out.
    pub pass: String,
    /// Why: the evidence the pass saw.
    pub evidence: String,
    /// Wall-clock stamp (epoch millis) of the elimination.
    pub at_ms: u64,
}

/// One narrated step of an incident's lifecycle, for the `/incidents?id=`
/// timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Wall-clock stamp (epoch millis).
    pub at_ms: u64,
    /// Tumbling window ordinal at which the step happened.
    pub window: u64,
    /// What happened.
    pub what: String,
}

/// One registered incident: the alert that opened it, its evidence windows,
/// and the add-only hypothesis graph with its tombstones.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Store-wide incident number (dense, starting at 1).
    pub id: u64,
    /// The alert rule whose firing opened this incident.
    pub alert: String,
    /// Wall-clock stamp (epoch millis) at open.
    pub opened_at_ms: u64,
    /// The tumbling window whose close fired the alert.
    pub breach_window: u64,
    /// The pre-breach comparison window, when one was still retained
    /// (ring or spill); `None` when the breach happened too early or the
    /// baseline already aged out of both tiers.
    pub baseline_window: Option<u64>,
    /// Wall-clock stamp of the alert resolving, once it has.
    pub resolved_at_ms: Option<u64>,
    /// The window whose close resolved the alert, once it has.
    pub resolved_window: Option<u64>,
    hypotheses: Vec<Hypothesis>,
    tombstones: Vec<Tombstone>,
    timeline: Vec<TimelineEvent>,
}

impl Incident {
    fn new(id: u64, alert: &str, breach_window: u64, baseline_window: Option<u64>, at_ms: u64) -> Incident {
        let baseline_note = match baseline_window {
            Some(b) => format!("baseline window {b}"),
            None => "no retained baseline window".to_owned(),
        };
        Incident {
            id,
            alert: alert.to_owned(),
            opened_at_ms: at_ms,
            breach_window,
            baseline_window,
            resolved_at_ms: None,
            resolved_window: None,
            hypotheses: Vec::new(),
            tombstones: Vec::new(),
            timeline: vec![TimelineEvent {
                at_ms,
                window: breach_window,
                what: format!("opened: alert {alert:?} fired at window {breach_window} ({baseline_note})"),
            }],
        }
    }

    /// `true` until the opening alert resolves.
    pub fn is_open(&self) -> bool {
        self.resolved_at_ms.is_none()
    }

    /// The full hypothesis graph, in addition order (add-only: eliminated
    /// hypotheses stay here forever).
    pub fn hypotheses(&self) -> &[Hypothesis] {
        &self.hypotheses
    }

    /// Every elimination recorded so far, in addition order.
    pub fn tombstones(&self) -> &[Tombstone] {
        &self.tombstones
    }

    /// The narrated lifecycle, oldest first.
    pub fn timeline(&self) -> &[TimelineEvent] {
        &self.timeline
    }

    /// Appends a timeline note.
    pub fn note(&mut self, window: u64, what: impl Into<String>, at_ms: u64) {
        self.timeline.push(TimelineEvent { at_ms, window, what: what.into() });
    }

    /// Adds a hypothesis to the graph and returns its incident-scoped id.
    pub fn add_hypothesis(
        &mut self,
        kind: HypothesisKind,
        subject: impl Into<String>,
        detail: impl Into<String>,
        weight_ns: u64,
        added_window: u64,
        at_ms: u64,
    ) -> u64 {
        let id = self.hypotheses.len() as u64;
        self.hypotheses.push(Hypothesis {
            id,
            kind,
            subject: subject.into(),
            detail: detail.into(),
            weight_ns,
            added_window,
            added_at_ms: at_ms,
        });
        id
    }

    /// Records an elimination tombstone for `hypothesis`. Idempotent per
    /// `(hypothesis, pass)` pair — re-running a pass (or re-POSTing an
    /// operator elimination) adds nothing, which keeps concurrent passes
    /// race-free and the graph bounded. Returns `true` when the hypothesis
    /// was live until now (this tombstone newly eliminated it).
    ///
    /// # Errors
    ///
    /// Rejects unknown hypothesis ids — a tombstone must reference a node
    /// that exists in the add-only graph.
    pub fn tombstone(
        &mut self,
        hypothesis: u64,
        pass: &str,
        evidence: &str,
        at_ms: u64,
    ) -> Result<bool, String> {
        if hypothesis >= self.hypotheses.len() as u64 {
            return Err(format!(
                "incident {} has no hypothesis {hypothesis} (graph holds {})",
                self.id,
                self.hypotheses.len()
            ));
        }
        if self.tombstones.iter().any(|t| t.hypothesis == hypothesis && t.pass == pass) {
            return Ok(false); // already recorded by this pass: idempotent
        }
        let newly = !self.is_eliminated(hypothesis);
        self.tombstones.push(Tombstone {
            hypothesis,
            pass: truncated(pass, MAX_PASS_LEN),
            evidence: truncated(evidence, MAX_EVIDENCE_LEN),
            at_ms,
        });
        self.timeline.push(TimelineEvent {
            at_ms,
            window: self.breach_window,
            what: format!("pass {pass:?} eliminated hypothesis {hypothesis}"),
        });
        Ok(newly)
    }

    /// `true` when at least one tombstone references `hypothesis`.
    pub fn is_eliminated(&self, hypothesis: u64) -> bool {
        self.tombstones.iter().any(|t| t.hypothesis == hypothesis)
    }

    /// The surviving-cause set, computed at query time: every hypothesis
    /// with no tombstone, heaviest evidence first.
    pub fn surviving(&self) -> Vec<&Hypothesis> {
        let mut live: Vec<&Hypothesis> =
            self.hypotheses.iter().filter(|h| !self.is_eliminated(h.id)).collect();
        live.sort_by(|a, b| b.weight_ns.cmp(&a.weight_ns).then_with(|| a.id.cmp(&b.id)));
        live
    }

    /// Marks the incident resolved (the opening alert resolved).
    pub fn resolve(&mut self, window: u64, at_ms: u64) {
        if self.resolved_at_ms.is_some() {
            return;
        }
        self.resolved_at_ms = Some(at_ms);
        self.resolved_window = Some(window);
        self.timeline.push(TimelineEvent {
            at_ms,
            window,
            what: format!("resolved: alert {:?} calmed at window {window}", self.alert),
        });
    }

    /// One `/incidents` index line: identity plus live/eliminated tallies.
    pub fn summary_json(&self) -> Json {
        let surviving = self.surviving().len();
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("alert", Json::Str(self.alert.clone())),
            ("state", Json::Str(if self.is_open() { "open" } else { "resolved" }.to_owned())),
            ("opened_at_ms", Json::Num(self.opened_at_ms as f64)),
            ("breach_window", Json::Num(self.breach_window as f64)),
            (
                "baseline_window",
                self.baseline_window.map_or(Json::Null, |b| Json::Num(b as f64)),
            ),
            ("hypotheses", Json::Num(self.hypotheses.len() as f64)),
            ("surviving", Json::Num(surviving as f64)),
            (
                "eliminated",
                Json::Num((self.hypotheses.len() - surviving) as f64),
            ),
        ])
    }

    /// The full `/incidents?id=` body: timeline, the add-only hypothesis
    /// graph (each node flagged `eliminated` but never dropped), every
    /// tombstone with provenance, and the surviving-cause id set computed
    /// at render time.
    pub fn detail_json(&self) -> Json {
        let hypotheses = self
            .hypotheses
            .iter()
            .map(|h| {
                Json::obj([
                    ("id", Json::Num(h.id as f64)),
                    ("kind", Json::Str(h.kind.as_str().to_owned())),
                    ("subject", Json::Str(h.subject.clone())),
                    ("detail", Json::Str(h.detail.clone())),
                    ("weight_ns", Json::Num(h.weight_ns as f64)),
                    ("added_window", Json::Num(h.added_window as f64)),
                    ("added_at_ms", Json::Num(h.added_at_ms as f64)),
                    ("eliminated", Json::Bool(self.is_eliminated(h.id))),
                ])
            })
            .collect();
        let tombstones = self
            .tombstones
            .iter()
            .map(|t| {
                Json::obj([
                    ("hypothesis", Json::Num(t.hypothesis as f64)),
                    ("pass", Json::Str(t.pass.clone())),
                    ("evidence", Json::Str(t.evidence.clone())),
                    ("at_ms", Json::Num(t.at_ms as f64)),
                ])
            })
            .collect();
        let timeline = self
            .timeline
            .iter()
            .map(|e| {
                Json::obj([
                    ("at_ms", Json::Num(e.at_ms as f64)),
                    ("window", Json::Num(e.window as f64)),
                    ("event", Json::Str(e.what.clone())),
                ])
            })
            .collect();
        let surviving = self.surviving().iter().map(|h| Json::Num(h.id as f64)).collect();
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("alert", Json::Str(self.alert.clone())),
            ("state", Json::Str(if self.is_open() { "open" } else { "resolved" }.to_owned())),
            ("opened_at_ms", Json::Num(self.opened_at_ms as f64)),
            ("breach_window", Json::Num(self.breach_window as f64)),
            (
                "baseline_window",
                self.baseline_window.map_or(Json::Null, |b| Json::Num(b as f64)),
            ),
            (
                "resolved_at_ms",
                self.resolved_at_ms.map_or(Json::Null, |t| Json::Num(t as f64)),
            ),
            (
                "resolved_window",
                self.resolved_window.map_or(Json::Null, |w| Json::Num(w as f64)),
            ),
            ("timeline", Json::Arr(timeline)),
            ("hypotheses", Json::Arr(hypotheses)),
            ("tombstones", Json::Arr(tombstones)),
            ("surviving", Json::Arr(surviving)),
        ])
    }
}

/// Truncates free-form operator text at a byte budget (on a char
/// boundary), marking the cut.
fn truncated(text: &str, max: usize) -> String {
    if text.len() <= max {
        return text.to_owned();
    }
    let mut cut = max.saturating_sub(1);
    while cut > 0 && !text.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &text[..cut])
}

/// Why an elimination request could not be applied (mapped to HTTP status
/// codes by the `/incidents/eliminate` handler).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EliminateError {
    /// No retained incident with that id.
    UnknownIncident(u64),
    /// The incident exists but the hypothesis id does not.
    UnknownHypothesis(String),
}

impl std::fmt::Display for EliminateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EliminateError::UnknownIncident(id) => {
                write!(f, "incident {id} is not retained")
            }
            EliminateError::UnknownHypothesis(detail) => f.write_str(detail),
        }
    }
}

/// A bounded ring of registered incidents, oldest first, with the
/// `causeway_incident_*` metric exports.
#[derive(Debug)]
pub struct IncidentStore {
    incidents: VecDeque<Incident>,
    next_id: u64,
    capacity: usize,
    open_gauge: Gauge,
    live_gauge: Gauge,
    eliminated_gauge: Gauge,
    opened_total: Counter,
    resolved_total: Counter,
    tombstones_total: Counter,
}

impl IncidentStore {
    /// Creates an empty store retaining at most `capacity` incidents. A
    /// capacity of 0 retains nothing: every open is immediately evicted
    /// (callers must treat a vanished just-opened incident as a skip, not
    /// a bug — see `causeway_incident_dropped_total`). The
    /// `causeway_incident_*` series go to `registry`.
    pub fn new(capacity: usize, registry: &MetricsRegistry) -> IncidentStore {
        IncidentStore {
            incidents: VecDeque::new(),
            next_id: 1,
            capacity,
            open_gauge: registry.gauge(
                "causeway_incident_open",
                "Registered incidents whose opening alert is still firing.",
            ),
            live_gauge: registry.gauge(
                "causeway_incident_hypotheses_live",
                "Surviving (un-tombstoned) hypotheses across retained incidents.",
            ),
            eliminated_gauge: registry.gauge(
                "causeway_incident_hypotheses_eliminated",
                "Tombstoned hypotheses across retained incidents.",
            ),
            opened_total: registry.counter(
                "causeway_incident_opened_total",
                "Incidents registered by alert firings.",
            ),
            resolved_total: registry.counter(
                "causeway_incident_resolved_total",
                "Incidents whose opening alert resolved.",
            ),
            tombstones_total: registry.counter(
                "causeway_incident_tombstones_total",
                "Hypothesis eliminations recorded (all passes and operators).",
            ),
        }
    }

    /// Registers a new incident and returns its id. The oldest incident is
    /// evicted once the ring exceeds its capacity.
    pub fn open(
        &mut self,
        alert: &str,
        breach_window: u64,
        baseline_window: Option<u64>,
        at_ms: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.incidents.push_back(Incident::new(id, alert, breach_window, baseline_window, at_ms));
        while self.incidents.len() > self.capacity {
            self.incidents.pop_front();
        }
        self.opened_total.inc();
        self.refresh_gauges();
        id
    }

    /// The retained incident with store id `id`.
    pub fn get(&self, id: u64) -> Option<&Incident> {
        self.incidents.iter().find(|i| i.id == id)
    }

    /// Mutable access to the retained incident with store id `id`.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Incident> {
        self.incidents.iter_mut().find(|i| i.id == id)
    }

    /// Retained incidents, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Incident> {
        self.incidents.iter()
    }

    /// Retained incident count.
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// `true` when no incident has been registered (or all aged out).
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Resolves every open incident opened by `alert`; returns how many
    /// resolved.
    pub fn resolve_for_alert(&mut self, alert: &str, window: u64, at_ms: u64) -> usize {
        let mut resolved = 0;
        for incident in self.incidents.iter_mut() {
            if incident.is_open() && incident.alert == alert {
                incident.resolve(window, at_ms);
                resolved += 1;
            }
        }
        self.resolved_total.add(resolved as u64);
        self.refresh_gauges();
        resolved
    }

    /// Records a tombstone on `(incident, hypothesis)` with provenance and
    /// returns the incident's surviving-cause count afterwards.
    ///
    /// # Errors
    ///
    /// [`EliminateError::UnknownIncident`] / `UnknownHypothesis` when the
    /// target does not exist (never retroactively created — the graph is
    /// add-only on both node sets).
    pub fn eliminate(
        &mut self,
        incident: u64,
        hypothesis: u64,
        pass: &str,
        evidence: &str,
    ) -> Result<usize, EliminateError> {
        let at_ms = wall_clock_ms();
        let entry = self
            .get_mut(incident)
            .ok_or(EliminateError::UnknownIncident(incident))?;
        let newly = entry
            .tombstone(hypothesis, pass, evidence, at_ms)
            .map_err(EliminateError::UnknownHypothesis)?;
        let surviving = entry.surviving().len();
        if newly {
            self.tombstones_total.inc();
        }
        self.refresh_gauges();
        Ok(surviving)
    }

    /// Recomputes the live/eliminated/open gauges from the retained ring.
    /// Mutating entries via [`IncidentStore::get_mut`] directly should be
    /// followed by a call to this.
    pub fn refresh_gauges(&self) {
        let mut open = 0i64;
        let mut live = 0i64;
        let mut eliminated = 0i64;
        for incident in &self.incidents {
            if incident.is_open() {
                open += 1;
            }
            let surviving = incident.surviving().len() as i64;
            live += surviving;
            eliminated += incident.hypotheses().len() as i64 - surviving;
        }
        self.open_gauge.set(open);
        self.live_gauge.set(live);
        self.eliminated_gauge.set(eliminated);
    }

    /// The `/incidents` index body, oldest first.
    pub fn index_json(&self) -> Json {
        Json::obj([(
            "incidents",
            Json::Arr(self.incidents.iter().map(Incident::summary_json).collect()),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_incident() -> (IncidentStore, u64) {
        let mut store = IncidentStore::new(8, &MetricsRegistry::new());
        let id = store.open("p95>1ms", 10, Some(6), 1_000);
        let incident = store.get_mut(id).unwrap();
        incident.add_hypothesis(
            HypothesisKind::FlamegraphRegression,
            "A.run;B.go",
            "self-time +5000000ns vs baseline window 6",
            5_000_000,
            10,
            1_000,
        );
        incident.add_hypothesis(
            HypothesisKind::HotStack,
            "A.run",
            "15000ns self time",
            15_000,
            10,
            1_000,
        );
        incident.add_hypothesis(
            HypothesisKind::AbnormalChain,
            "00000000-0000-0000-0000-00000000002a",
            "seq 4: gap in event numbers",
            0,
            10,
            1_000,
        );
        (store, id)
    }

    #[test]
    fn surviving_set_is_computed_at_query_time_and_graph_is_add_only() {
        let (mut store, id) = store_with_incident();
        assert_eq!(store.get(id).unwrap().surviving().len(), 3);

        let surviving = store.eliminate(id, 1, PASS_STACK_FLOOR, "0.3% < 2% floor").unwrap();
        assert_eq!(surviving, 2);
        let incident = store.get(id).unwrap();
        // Add-only: the eliminated hypothesis is still in the full graph.
        assert_eq!(incident.hypotheses().len(), 3);
        assert!(incident.is_eliminated(1));
        assert!(!incident.is_eliminated(0));
        // Surviving is ordered heaviest evidence first.
        let ids: Vec<u64> = incident.surviving().iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![0, 2]);
        // Provenance is recorded verbatim.
        let t = &incident.tombstones()[0];
        assert_eq!((t.hypothesis, t.pass.as_str()), (1, PASS_STACK_FLOOR));
        assert!(t.evidence.contains("floor"));
        assert!(t.at_ms > 0);
    }

    #[test]
    fn tombstones_are_idempotent_per_pass_and_commute() {
        let (mut store, id) = store_with_incident();
        assert_eq!(store.eliminate(id, 0, PASS_BASELINE, "seen in baseline").unwrap(), 2);
        // Same pass again: no new tombstone, same surviving set.
        assert_eq!(store.eliminate(id, 0, PASS_BASELINE, "re-run").unwrap(), 2);
        assert_eq!(store.get(id).unwrap().tombstones().len(), 1);
        // A different pass may independently eliminate the same node; the
        // surviving set is unchanged (set semantics), provenance is kept.
        assert_eq!(store.eliminate(id, 0, PASS_OPERATOR, "confirmed").unwrap(), 2);
        assert_eq!(store.get(id).unwrap().tombstones().len(), 2);
    }

    #[test]
    fn eliminate_rejects_unknown_targets() {
        let (mut store, id) = store_with_incident();
        assert_eq!(
            store.eliminate(99, 0, PASS_OPERATOR, "x"),
            Err(EliminateError::UnknownIncident(99))
        );
        assert!(matches!(
            store.eliminate(id, 99, PASS_OPERATOR, "x"),
            Err(EliminateError::UnknownHypothesis(_))
        ));
    }

    #[test]
    fn resolve_marks_open_incidents_for_the_alert_only() {
        let (mut store, id) = store_with_incident();
        let other = store.open("rate<1", 12, None, 2_000);
        assert_eq!(store.resolve_for_alert("p95>1ms", 14, 3_000), 1);
        assert!(!store.get(id).unwrap().is_open());
        assert!(store.get(other).unwrap().is_open());
        // Resolving again is a no-op.
        assert_eq!(store.resolve_for_alert("p95>1ms", 15, 4_000), 0);
        let resolved = store.get(id).unwrap();
        assert_eq!(resolved.resolved_window, Some(14));
        assert_eq!(resolved.resolved_at_ms, Some(3_000));
    }

    #[test]
    fn ring_capacity_evicts_oldest_incidents() {
        let mut store = IncidentStore::new(2, &MetricsRegistry::new());
        let a = store.open("a", 1, None, 1);
        let b = store.open("b", 2, None, 2);
        let c = store.open("c", 3, None, 3);
        assert_eq!(store.len(), 2);
        assert!(store.get(a).is_none(), "oldest evicted");
        assert!(store.get(b).is_some() && store.get(c).is_some());
        // Ids stay dense and unique across evictions.
        assert_eq!((b, c), (2, 3));
    }

    #[test]
    fn json_bodies_carry_the_full_graph_and_query_time_surviving_set() {
        let (mut store, id) = store_with_incident();
        store.eliminate(id, 2, PASS_CHAIN_RECHECK, "chain completed normally").unwrap();
        let index = store.index_json();
        let list = index.get("incidents").and_then(Json::as_arr).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].get("hypotheses").and_then(Json::as_u64), Some(3));
        assert_eq!(list[0].get("surviving").and_then(Json::as_u64), Some(2));
        assert_eq!(list[0].get("eliminated").and_then(Json::as_u64), Some(1));

        let detail = store.get(id).unwrap().detail_json();
        assert_eq!(detail.get("state").and_then(Json::as_str), Some("open"));
        let hypotheses = detail.get("hypotheses").and_then(Json::as_arr).unwrap();
        assert_eq!(hypotheses.len(), 3, "add-only: tombstoned nodes still rendered");
        assert_eq!(hypotheses[2].get("eliminated").and_then(Json::as_bool), Some(true));
        let tombstones = detail.get("tombstones").and_then(Json::as_arr).unwrap();
        assert_eq!(tombstones[0].get("pass").and_then(Json::as_str), Some(PASS_CHAIN_RECHECK));
        let surviving = detail.get("surviving").and_then(Json::as_arr).unwrap();
        assert_eq!(surviving.len(), 2);
    }

    #[test]
    fn operator_text_is_truncated_at_the_byte_budget() {
        let (mut store, id) = store_with_incident();
        let huge = "x".repeat(4 * MAX_EVIDENCE_LEN);
        store.eliminate(id, 0, PASS_OPERATOR, &huge).unwrap();
        let t = &store.get(id).unwrap().tombstones()[0];
        assert!(t.evidence.len() <= MAX_EVIDENCE_LEN + '…'.len_utf8());
        assert!(t.evidence.ends_with('…'));
    }
}
