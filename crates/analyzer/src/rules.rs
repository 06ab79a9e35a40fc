//! Rules: declared properties checked against each closed window, with
//! one type, one grammar and one state machine for every rule kind.
//!
//! An [`AlertRule`] names a windowed value (`p50|p95|p99|rate|abnormal`,
//! optionally scoped to one `Iface::Name.method` series), a comparator and
//! a fire threshold: a closed window *breaches* the rule when its value
//! crosses the threshold. The rule's [`Trigger`] says how breaching
//! windows become firing and resolving transitions:
//!
//! * [`Trigger::Sustained`] fires after `for=N` consecutive breaching
//!   windows and resolves after `N` consecutive windows back past the
//!   `resolve=` threshold; values inside that hysteresis band hold the
//!   current state, so an oscillating signal cannot flap.
//! * [`Trigger::Burn`] is a multi-window SLO burn rate: it fires when the
//!   breaching share of *both* the fast and the slow span burns the error
//!   budget `1 − slo/100` at `factor` or faster, and resolves when the fast
//!   span's burn rate drops below it. A one-window spike never fires it; a
//!   sustained regression fires it once. The spans count the rule's own
//!   windows, so the verdict does not depend on how many windows the
//!   history store retains.
//!
//! [`parse_rule`] reads both kinds (a `burn=` prefix selects the burn
//! trigger), and one state machine advances either by one closed window,
//! returning the [`AlertEvent`] the window completed.

use crate::incident::wall_clock_ms;
use crate::window::{SeriesKey, WindowSnapshot};
use causeway_core::ids::{InterfaceId, MethodIndex};
use causeway_core::metrics::{Counter, Gauge, MetricsRegistry};
use causeway_core::monitor::ProbeMode;
use causeway_core::names::VocabSnapshot;
use causeway_core::uuid::Uuid;
use std::collections::VecDeque;

/// Which windowed series an [`AlertRule`] watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertMetric {
    /// Median latency, ns.
    P50,
    /// 95th-percentile latency, ns.
    P95,
    /// 99th-percentile latency, ns.
    P99,
    /// Completed calls per second.
    CallRate,
    /// Abnormalities per second (always system-wide).
    AbnormalityRate,
}

/// Alert comparison direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertCmp {
    /// Fire when the value exceeds the threshold.
    Above,
    /// Fire when the value drops below the threshold.
    Below,
}

/// How an [`AlertRule`]'s breaching windows become transitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire after `for_windows` consecutive breaching windows; resolve
    /// after as many consecutive windows back past the resolve threshold.
    Sustained {
        /// The hold count (`for=N`), at least 1.
        for_windows: u32,
    },
    /// A multi-window SLO burn rate. The burn rate over a span of K windows
    /// is `(breaching windows / K) / budget` with the error budget
    /// `1 − slo_percent/100`. Fires when the burn rate over both spans
    /// reaches `factor`; resolves when the fast span's drops below it.
    Burn {
        /// The SLO objective in percent (e.g. `99.9`), strictly within
        /// (0, 100).
        slo_percent: f64,
        /// Fast span, in windows.
        fast: usize,
        /// Slow span, in windows (greater than `fast`).
        slow: usize,
        /// Burn-rate factor both spans must reach to fire.
        factor: f64,
    },
}

impl Trigger {
    /// The default burn factor, `fast / (slow × budget)`: fire once the
    /// slow span holds a fast span's worth of breaching windows and at
    /// least one of them is recent; resolve once the fast span is clean.
    pub fn default_factor(fast: usize, slow: usize, budget: f64) -> f64 {
        fast as f64 / (slow as f64 * budget)
    }
}

/// A declarative rule over one windowed series: a breach condition plus
/// the [`Trigger`] that turns breaching windows into alerts.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Display name, e.g. `p95:Pps::Stage.rasterize>800us`.
    pub name: String,
    /// The windowed value watched.
    pub metric: AlertMetric,
    /// Restrict to one operation; `None` watches the system-wide aggregate.
    pub series: Option<SeriesKey>,
    /// Fire direction.
    pub cmp: AlertCmp,
    /// A window whose value is past this (in `cmp`'s direction) breaches.
    pub fire_threshold: f64,
    /// Only values back past this (hysteresis band) count toward resolving
    /// a sustained rule. A burn rule resolves on its burn rate instead.
    pub resolve_threshold: f64,
    /// How breaching windows fire and resolve the rule.
    pub trigger: Trigger,
    /// Probe mode the watched interface is escalated to while this rule
    /// fires, overriding the control plane's default escalate mode. Only
    /// meaningful on series-targeting rules with an adaptive policy.
    pub escalate: Option<ProbeMode>,
    /// Standing probe mode the watched interface is left at after this rule
    /// resolves (instead of returning to the policy's base mode).
    pub deescalate: Option<ProbeMode>,
}

impl AlertRule {
    /// `true` for a burn-rate rule. A window logs its threshold rules'
    /// events before its burn rules'.
    pub(crate) fn is_burn(&self) -> bool {
        matches!(self.trigger, Trigger::Burn { .. })
    }

    /// The rule's natural baseline lookback, in windows: `for=N` for a
    /// sustained rule, the fast span for a burn rule. The incident layer
    /// resolves its pre-breach comparison window from it.
    pub(crate) fn lookback(&self) -> u64 {
        match self.trigger {
            Trigger::Sustained { for_windows } => u64::from(for_windows),
            Trigger::Burn { fast, .. } => fast as u64,
        }
    }

    fn breaches(&self, value: f64) -> bool {
        match self.cmp {
            AlertCmp::Above => value > self.fire_threshold,
            AlertCmp::Below => value < self.fire_threshold,
        }
    }

    fn calms(&self, value: f64) -> bool {
        match self.cmp {
            AlertCmp::Above => value <= self.resolve_threshold,
            AlertCmp::Below => value >= self.resolve_threshold,
        }
    }

    fn evaluate(&self, window: &WindowSnapshot) -> f64 {
        let q = match self.metric {
            AlertMetric::P50 => 0.50,
            AlertMetric::P95 => 0.95,
            AlertMetric::P99 => 0.99,
            AlertMetric::CallRate => return window.call_rate_hz(self.series),
            AlertMetric::AbnormalityRate => return window.abnormality_rate_hz(),
        };
        match self.series {
            Some(key) => window.quantile_ns(key, q).unwrap_or(0) as f64,
            None => window.system_quantile_ns(q) as f64,
        }
    }
}

/// A structured record of one alert transition.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// The rule's name.
    pub alert: String,
    /// `true` on firing, `false` on resolving.
    pub fired: bool,
    /// Tumbling window ordinal at which the transition happened.
    pub window_index: u64,
    /// Wall-clock stamp (epoch milliseconds) of the transition — incident
    /// timelines correlate with external logs through this.
    pub at_ms: u64,
    /// The windowed value that completed the transition: the rule's metric
    /// for a sustained rule, the slow (firing) or fast (resolving) burn
    /// rate for a burn rule.
    pub value: f64,
    /// The threshold it was compared against.
    pub threshold: f64,
    /// Chain uuids of retained exemplars that explain the breach (the
    /// breach window's slowest chains of the rule's series), resolvable at
    /// `/exemplars?id=`. Empty on resolves and when nothing was retained.
    pub exemplars: Vec<Uuid>,
}

/// One registered rule, its firing state and its exported series.
#[derive(Debug)]
pub(crate) struct RuleState {
    pub(crate) rule: AlertRule,
    active: bool,
    /// Sustained rules: consecutive windows toward the pending transition
    /// (breaching while calm, calm while firing).
    pending: u32,
    /// Burn rules: ordinals of the rule's breaching windows within the
    /// slow span, oldest first.
    breaching: VecDeque<u64>,
    active_gauge: Gauge,
    transitions: Counter,
    /// Burn rules: the fast- and slow-span burn-rate gauges.
    burn_gauges: Option<[Gauge; 2]>,
}

impl RuleState {
    /// Registers the rule's exported series in `registry` and starts calm.
    pub(crate) fn new(rule: AlertRule, registry: &MetricsRegistry) -> RuleState {
        let labels = [("alert", rule.name.as_str())];
        let gauge = |name, help| registry.gauge_with(name, help, &labels);
        let counter = |name, help| registry.counter_with(name, help, &labels);
        let (active_gauge, transitions, burn_gauges) = if rule.is_burn() {
            (
                gauge("causeway_live_burn_active", "1 while the named burn-rate alert is firing."),
                counter(
                    "causeway_live_burn_transitions_total",
                    "Burn-rate alert firing/resolving transitions.",
                ),
                Some([
                    gauge(
                        "causeway_live_burn_fast_milli",
                        "Fast-span SLO burn rate, in thousandths.",
                    ),
                    gauge(
                        "causeway_live_burn_slow_milli",
                        "Slow-span SLO burn rate, in thousandths.",
                    ),
                ]),
            )
        } else {
            (
                gauge("causeway_live_alert_active", "1 while the named alert is firing."),
                counter(
                    "causeway_live_alert_transitions_total",
                    "Alert firing/resolving transitions.",
                ),
                None,
            )
        };
        active_gauge.set(0);
        RuleState {
            rule,
            active: false,
            pending: 0,
            breaching: VecDeque::new(),
            active_gauge,
            transitions,
            burn_gauges,
        }
    }

    /// `true` while the excursion is unresolved.
    pub(crate) fn active(&self) -> bool {
        self.active
    }

    /// Advances the state machine by one closed window; returns the
    /// transition this window completed, if any.
    pub(crate) fn step(&mut self, window: &WindowSnapshot) -> Option<AlertEvent> {
        let value = self.rule.evaluate(window);
        let (value, threshold) = match self.rule.trigger {
            Trigger::Sustained { for_windows } => {
                let toward =
                    if self.active { self.rule.calms(value) } else { self.rule.breaches(value) };
                if !toward {
                    // Inside the hysteresis band (or re-breaching) the
                    // count starts over.
                    self.pending = 0;
                    return None;
                }
                self.pending += 1;
                if self.pending < for_windows {
                    return None;
                }
                self.pending = 0;
                let threshold = if self.active {
                    self.rule.resolve_threshold
                } else {
                    self.rule.fire_threshold
                };
                (value, threshold)
            }
            Trigger::Burn { slo_percent, fast, slow, factor } => {
                let index = window.index;
                if self.rule.breaches(value) {
                    self.breaching.push_back(index);
                }
                let age = |b: &u64| index.saturating_sub(*b);
                while self.breaching.front().is_some_and(|b| age(b) >= slow as u64) {
                    self.breaching.pop_front();
                }
                // Windows this rule has not seen count as calm: the
                // denominator is always the configured span, so a cold
                // rule under-alarms rather than over-alarms.
                let budget = 1.0 - slo_percent / 100.0;
                let burn_rate = |breaching: usize, span: usize| {
                    if budget <= 0.0 {
                        f64::INFINITY
                    } else {
                        breaching as f64 / span as f64 / budget
                    }
                };
                let in_fast =
                    self.breaching.iter().rev().take_while(|&b| age(b) < fast as u64).count();
                let burn_fast = burn_rate(in_fast, fast);
                let burn_slow = burn_rate(self.breaching.len(), slow);
                if let Some([fast_gauge, slow_gauge]) = &self.burn_gauges {
                    let milli = |burn: f64| (burn * 1000.0).min(i64::MAX as f64) as i64;
                    fast_gauge.set(milli(burn_fast));
                    slow_gauge.set(milli(burn_slow));
                }
                if !self.active && burn_fast >= factor && burn_slow >= factor {
                    (burn_slow, factor)
                } else if self.active && burn_fast < factor {
                    (burn_fast, factor)
                } else {
                    return None;
                }
            }
        };
        self.active = !self.active;
        self.active_gauge.set(i64::from(self.active));
        self.transitions.inc();
        Some(AlertEvent {
            alert: self.rule.name.clone(),
            fired: self.active,
            window_index: window.index,
            at_ms: wall_clock_ms(),
            value,
            threshold,
            exemplars: Vec::new(),
        })
    }
}

/// Parses a rule spec, threshold or burn-rate.
///
/// Grammar: `[burn=]METRIC[:IFACE.METHOD]CMP VALUE[;OPTION]...` with
/// `METRIC` ∈ `p50|p95|p99|rate|abnormal`, `CMP` ∈ `>` `<`, latency values
/// suffixed `ns|us|ms|s` (rates are plain numbers per second). The head
/// decides whether one window breaches.
///
/// * A threshold rule takes `for=N` (consecutive windows to fire and to
///   resolve, default 1) and `resolve=VALUE` (the hysteresis band's calm
///   edge, default the fire threshold). Example:
///   `p95:Pps::Stage.rasterize>800us;for=2;resolve=400us`.
/// * A `burn=` rule takes `slo=PCT` (error budget `1 − slo/100`,
///   `0 < slo < 100`), `fast=N` and `slow=M` (window spans, `0 < N < M`)
///   and optionally `factor=F` (default `fast/(slow×budget)`). Example:
///   `burn=p95>400us;slo=99.9;fast=3;slow=24`.
///
/// Either kind takes `escalate=MODE` and `deescalate=MODE` ([`ProbeMode`]
/// names), which need a series target (the escalated unit is the series'
/// interface). Numbers must be finite, and counts and spans integers.
pub fn parse_rule(spec: &str, vocab: &VocabSnapshot) -> Result<AlertRule, String> {
    let name = spec.trim();
    let (burn, body) = match name.strip_prefix("burn=") {
        Some(body) => (true, body),
        None => (false, name),
    };
    let (head, options) = body.split_once(';').unwrap_or((body, ""));
    let bad = |what: &str, v: &str| format!("bad {what} {v:?} in rule {spec:?}");
    let (mut for_windows, mut resolve, mut escalate, mut deescalate) = (1u32, None, None, None);
    let (mut slo, mut fast, mut slow, mut factor) = (None, None, None, None);
    for opt in options.split(';').map(str::trim).filter(|opt| !opt.is_empty()) {
        let (key, v) = opt.split_once('=').unwrap_or((opt, ""));
        match (burn, key) {
            (false, "for") => for_windows = v.parse().map_err(|_| bad("for= count", v))?,
            (false, "resolve") => resolve = Some(v),
            (true, "slo") => slo = Some(number(v, 1.0).ok_or_else(|| bad("slo=", v))?),
            (true, "fast") => fast = Some(v.parse().map_err(|_| bad("fast=", v))?),
            (true, "slow") => slow = Some(v.parse().map_err(|_| bad("slow=", v))?),
            (true, "factor") => factor = Some(number(v, 1.0).ok_or_else(|| bad("factor=", v))?),
            (_, "escalate") => escalate = Some(parse_probe_mode(v, spec)?),
            (_, "deescalate") => deescalate = Some(parse_probe_mode(v, spec)?),
            _ => return Err(format!("unknown option {opt:?} in rule {spec:?}")),
        }
    }

    let head = head.trim();
    let cmp_at = head
        .find(['>', '<'])
        .ok_or_else(|| format!("rule {spec:?} has no > or < comparison"))?;
    let cmp = if head.as_bytes()[cmp_at] == b'>' { AlertCmp::Above } else { AlertCmp::Below };
    let (target, value_spec) = (head[..cmp_at].trim(), head[cmp_at + 1..].trim());
    let (metric_name, series_name) = match target.split_once(':') {
        Some((m, s)) => (m.trim(), Some(s.trim())),
        None => (target, None),
    };
    let metric = match metric_name {
        "p50" => AlertMetric::P50,
        "p95" => AlertMetric::P95,
        "p99" => AlertMetric::P99,
        "rate" => AlertMetric::CallRate,
        "abnormal" => AlertMetric::AbnormalityRate,
        other => return Err(format!("unknown metric {other:?} in rule {spec:?}")),
    };
    let series = match series_name {
        None | Some("") => None,
        Some(name) => Some(
            resolve_series(vocab, name)
                .ok_or_else(|| format!("unknown operation {name:?} in rule {spec:?}"))?,
        ),
    };
    if series.is_some() && metric == AlertMetric::AbnormalityRate {
        return Err(format!("abnormal is system-wide; drop the series in rule {spec:?}"));
    }
    let latency = matches!(metric, AlertMetric::P50 | AlertMetric::P95 | AlertMetric::P99);
    let fire_threshold =
        parse_value(value_spec, latency).ok_or_else(|| bad("threshold", value_spec))?;
    let resolve_threshold = match resolve {
        Some(v) => parse_value(v, latency).ok_or_else(|| bad("resolve threshold", v))?,
        None => fire_threshold,
    };
    let band_ok = match cmp {
        AlertCmp::Above => resolve_threshold <= fire_threshold,
        AlertCmp::Below => resolve_threshold >= fire_threshold,
    };
    if !band_ok {
        return Err(format!("resolve threshold must be on the calm side in rule {spec:?}"));
    }

    let trigger = if burn {
        let slo_percent = slo.ok_or_else(|| format!("burn rule {spec:?} needs slo="))?;
        if !(0.0 < slo_percent && slo_percent < 100.0) {
            return Err(format!("slo= must be in (0, 100) in rule {spec:?}"));
        }
        let fast = fast.ok_or_else(|| format!("burn rule {spec:?} needs fast="))?;
        let slow = slow.ok_or_else(|| format!("burn rule {spec:?} needs slow="))?;
        if fast == 0 || slow <= fast {
            return Err(format!("need 0 < fast < slow in burn rule {spec:?}"));
        }
        let budget = 1.0 - slo_percent / 100.0;
        let factor = factor.unwrap_or_else(|| Trigger::default_factor(fast, slow, budget));
        if factor <= 0.0 {
            return Err(format!("factor= must be positive in burn rule {spec:?}"));
        }
        Trigger::Burn { slo_percent, fast, slow, factor }
    } else {
        if for_windows == 0 {
            return Err(format!("for=0 is meaningless in rule {spec:?}"));
        }
        Trigger::Sustained { for_windows }
    };
    if (escalate.is_some() || deescalate.is_some()) && series.is_none() {
        return Err(format!(
            "escalate=/deescalate= need a series target (METRIC:IFACE.METHOD) in rule {spec:?}"
        ));
    }
    Ok(AlertRule {
        name: name.to_owned(),
        metric,
        series,
        cmp,
        fire_threshold,
        resolve_threshold,
        trigger,
        escalate,
        deescalate,
    })
}

fn parse_probe_mode(v: &str, spec: &str) -> Result<ProbeMode, String> {
    v.parse::<ProbeMode>().map_err(|e| format!("{e} in rule {spec:?}"))
}

/// Parses a threshold: a latency takes an optional `ns|us|ms|s` unit
/// (bare numbers are ns), a rate is a plain number per second.
fn parse_value(v: &str, latency: bool) -> Option<f64> {
    let v = v.trim();
    let units = [("ns", 1.0), ("us", 1e3), ("ms", 1e6), ("s", 1e9)];
    let (num, scale) = units
        .iter()
        .filter(|_| latency)
        .find_map(|&(unit, scale)| Some((v.strip_suffix(unit)?, scale)))
        .unwrap_or((v, 1.0));
    number(num, scale)
}

/// The one number reader of the rule grammar: a decimal scaled by `scale`,
/// refused unless the result is finite (Rust's float parse accepts `nan`
/// and `inf`, which no comparison could ever satisfy or clear).
fn number(v: &str, scale: f64) -> Option<f64> {
    let x = v.trim().parse::<f64>().ok()? * scale;
    x.is_finite().then_some(x)
}

/// Resolves `Iface::Name.method` against a vocabulary snapshot.
///
/// Positions are range-checked into their id types rather than truncated:
/// a vocabulary larger than the id space must fail resolution, not silently
/// alias an unrelated series.
pub fn resolve_series(vocab: &VocabSnapshot, name: &str) -> Option<SeriesKey> {
    let (iface_name, method_name) = name.rsplit_once('.')?;
    let iface = vocab
        .interfaces
        .iter()
        .position(|e| e.name == iface_name)
        .and_then(|i| u32::try_from(i).ok())
        .map(InterfaceId)?;
    let method = vocab.interfaces[iface.0 as usize]
        .methods
        .iter()
        .position(|m| m == method_name)
        .and_then(|i| u16::try_from(i).ok())
        .map(MethodIndex)?;
    Some((iface, method))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::SeriesAgg;
    use std::collections::BTreeMap;

    fn snapshot(index: u64, latency_ns: u64) -> WindowSnapshot {
        let mut agg = SeriesAgg::default();
        for _ in 0..4 {
            agg.record(latency_ns);
        }
        let mut series = BTreeMap::new();
        series.insert((InterfaceId(0), MethodIndex(0)), agg);
        WindowSnapshot {
            index,
            span_ns: 1_000_000_000,
            series,
            completed_calls: 4,
            abnormalities: 0,
        }
    }

    fn burn_rule(fast: usize, slow: usize) -> AlertRule {
        let budget = 1.0 - 99.9 / 100.0;
        AlertRule {
            name: "burn-test".to_owned(),
            metric: AlertMetric::P95,
            series: None,
            cmp: AlertCmp::Above,
            fire_threshold: 1_000_000.0,
            resolve_threshold: 1_000_000.0,
            trigger: Trigger::Burn {
                slo_percent: 99.9,
                fast,
                slow,
                factor: Trigger::default_factor(fast, slow, budget),
            },
            escalate: None,
            deescalate: None,
        }
    }

    #[test]
    fn one_window_spike_never_fires_but_sustained_regression_does() {
        let mut state = RuleState::new(burn_rule(3, 24), &MetricsRegistry::new());
        let mut transitions = Vec::new();
        // Calm, one-window spike, calm, sustained regression, recovery.
        let profile: Vec<u64> = [10_000; 4]
            .into_iter()
            .chain([5_000_000]) // spike: a single breaching window
            .chain([10_000; 5])
            .chain([5_000_000; 6]) // regression: six breaching windows
            .chain([10_000; 6])
            .collect();
        for (i, latency) in profile.iter().enumerate() {
            if let Some(event) = state.step(&snapshot(i as u64, *latency)) {
                transitions.push(event);
            }
        }
        assert_eq!(transitions.len(), 2, "one fire + one resolve: {transitions:?}");
        assert!(transitions[0].fired);
        // Fires on the regression (ordinal 11), not on the spike (ordinal
        // 4): the spike alone never accumulates a fast-span's worth of bad
        // windows in the slow span, but its budget consumption still counts,
        // so the regression's second window completes the slow condition.
        assert_eq!(transitions[0].window_index, 11);
        assert!(!transitions[1].fired);
        // Resolves once the fast span (3 windows) is clean again.
        assert_eq!(transitions[1].window_index, 18);
        assert!(!state.active());
    }

    #[test]
    fn each_kind_exports_its_series_under_its_own_names() {
        let registry = MetricsRegistry::new();
        let threshold = AlertRule {
            name: "threshold-test".to_owned(),
            trigger: Trigger::Sustained { for_windows: 1 },
            ..burn_rule(3, 24)
        };
        let mut states =
            [RuleState::new(threshold, &registry), RuleState::new(burn_rule(3, 24), &registry)];
        for index in 0..3 {
            for state in &mut states {
                state.step(&snapshot(index, 5_000_000));
            }
        }
        assert!(states.iter().all(RuleState::active));
        let exposition = registry.render_prometheus();
        for line in [
            "# HELP causeway_live_alert_active 1 while the named alert is firing.",
            "causeway_live_alert_active{alert=\"threshold-test\"} 1",
            "# HELP causeway_live_alert_transitions_total Alert firing/resolving transitions.",
            "causeway_live_alert_transitions_total{alert=\"threshold-test\"} 1",
            "# HELP causeway_live_burn_active 1 while the named burn-rate alert is firing.",
            "causeway_live_burn_active{alert=\"burn-test\"} 1",
            "# HELP causeway_live_burn_fast_milli Fast-span SLO burn rate, in thousandths.",
            "# HELP causeway_live_burn_slow_milli Slow-span SLO burn rate, in thousandths.",
            "# HELP causeway_live_burn_transitions_total \
             Burn-rate alert firing/resolving transitions.",
            "causeway_live_burn_transitions_total{alert=\"burn-test\"} 1",
        ] {
            assert!(exposition.lines().any(|l| l == line), "{line:?} missing:\n{exposition}");
        }
        assert!(!exposition.contains("causeway_live_alert_active{alert=\"burn-test\"}"));
        assert!(!exposition.contains("causeway_live_burn_active{alert=\"threshold-test\"}"));
    }
}
