//! Self-observability: a lock-free runtime metrics registry.
//!
//! The monitor records everything about the *target* system but — before
//! this module — nothing about itself. Yet the monitor's own health (probe
//! push cost, chunk backlog, dispatch queue wait, analyzer consumption lag)
//! is exactly what a production deployment needs to watch. This module is
//! the measurement substrate: every hot path in the sink, the runtime
//! engines, and the on-line analyzer publishes counters, gauges, and
//! log-bucketed histograms here.
//!
//! Design constraints, in order:
//!
//! 1. **The instrumented path must stay lock-free.** Handles
//!    ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-wrapped atomics;
//!    updating one is a single relaxed RMW. The registry's internal lock is
//!    taken only at *registration* (once per metric per registry) and at
//!    *exposition* (when someone renders a snapshot).
//! 2. **Cheap to hold.** A subsystem resolves its handles once, when it is
//!    built, into a struct it owns; clones are reference bumps, so
//!    per-thread or per-store caching is free.
//! 3. **Always on.** Views report some counters as facts (history
//!    evictions, spill errors), so every handle update is unconditional.
//!    The perf ledger measures what that costs (`sink.push_ns` and the
//!    probe bracket rows).
//!
//! **A registry is handed down, not looked up** (`DESIGN.md` §5c). Each
//! runtime — the orb `System`, a COM domain, an EJB container — and each
//! live monitor owns a [`MetricsRegistry`] and hands it to everything it
//! builds, so a monitor's `/metrics` carries its own series and nothing
//! else the process happens to run. [`MetricsRegistry::global`] is only
//! the default of the few things a binary builds directly.
//!
//! Naming convention (see `DESIGN.md` §5c): every metric is
//! `causeway_<subsystem>_<quantity>[_<unit>][_total]` — `_total` for
//! monotonic counters, `_ns` for nanosecond histograms/sums, bare names for
//! gauges. Label sets are static and tiny (they become part of the series
//! key); unbounded cardinality (per-store, per-chain) is aggregated away
//! instead of labeled.
//!
//! # Example
//!
//! ```
//! use causeway_core::metrics::MetricsRegistry;
//! let registry = MetricsRegistry::new();
//! let pushed = registry.counter("demo_records_pushed_total", "records pushed");
//! pushed.inc();
//! pushed.add(2);
//! assert_eq!(pushed.get(), 3);
//! assert!(registry.render_prometheus().contains("demo_records_pushed_total 3"));
//! ```

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Histogram bucket count: bucket `i` holds values `v` with
/// `floor(log2(v)) + 1 == i` (bucket 0 holds `v == 0`), so the full `u64`
/// range is covered.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Push-latency sampling stride in [`Counter::inc`]-driven hot paths: time
/// one operation in [`SAMPLE_STRIDE`] rather than all of them, keeping the
/// common case a pure counter bump. Must be a power of two.
pub const SAMPLE_STRIDE: u64 = 64;

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter detached from any registry (for tests or optional wiring).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds 1, returning the *previous* value (useful for sampling: time
    /// the operation when `prev % stride == 0`).
    #[inline]
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge detached from any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds).
/// Cloning shares the cells; observation is three relaxed RMWs.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// The bucket a value falls into: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`2^i − 1`), saturating at the
/// top bucket.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 64 { u64::MAX } else { (1u64 << index) - 1 }
}

impl Histogram {
    /// A histogram detached from any registry.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        let core = &*self.0;
        core.buckets[bucket_index(value).min(HISTOGRAM_BUCKETS - 1)]
            .fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 { 0.0 } else { self.sum() as f64 / count as f64 }
    }

    /// Approximate quantile (`0.0 ..= 1.0`): the upper bound of the bucket
    /// containing the `q`-th sample, so the estimate is within 2× of the
    /// true value. Returns 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

/// One registered series' handle.
#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Series {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    help: String,
    /// Series keyed by rendered label set (`""` for the unlabeled series).
    series: BTreeMap<String, Series>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    families: Mutex<BTreeMap<String, Family>>,
}

/// A registry of named metric families. Cloning shares state.
///
/// Owned by whoever publishes into it: each runtime creates one of its own
/// and a live monitor takes one through its config (a fresh registry by
/// default); each passes it down to its parts, so two systems in one
/// process never mingle series.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

/// Renders a label set as it will appear in the exposition
/// (`key="value",…`), escaping `\`, `"`, and newlines per the Prometheus
/// text format.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out
}

fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-global registry: the default of `LiveMonitor` (whose
    /// registry `serve` publishes to) and of a standalone `LogStore::new()`,
    /// so a binary that builds only those gets one whole scrape. Runtimes
    /// and `HttpServer::bind` never publish here unless handed it.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Registers (or retrieves) an unlabeled counter.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter with a static label set.
    ///
    /// # Panics
    ///
    /// Panics when the series exists with a different kind.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, labels, || Series::Counter(Counter::default())) {
            Series::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    ///
    /// # Panics
    ///
    /// Panics when the series exists with a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a gauge with a static label set.
    ///
    /// # Panics
    ///
    /// Panics when the series exists with a different kind.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, || Series::Gauge(Gauge::default())) {
            Series::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram.
    ///
    /// # Panics
    ///
    /// Panics when the series exists with a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or retrieves) a histogram with a static label set.
    ///
    /// # Panics
    ///
    /// Panics when the series exists with a different kind.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, labels, || Series::Histogram(Histogram::default())) {
            Series::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        create: impl FnOnce() -> Series,
    ) -> Series {
        let key = label_key(labels);
        let mut families = self.inner.families.lock();
        let family = families
            .entry(name.to_owned())
            .or_insert_with(|| Family { help: help.to_owned(), series: BTreeMap::new() });
        family.series.entry(key).or_insert_with(create).clone()
    }

    /// Looks up an existing counter's current value (exposition helpers and
    /// tests; hot paths hold handles instead).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.find(name)? {
            Series::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Looks up an existing gauge's current value.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.find(name)? {
            Series::Gauge(g) => Some(g.get()),
            _ => None,
        }
    }

    /// Looks up an existing histogram handle.
    pub fn histogram_value(&self, name: &str) -> Option<Histogram> {
        match self.find(name)? {
            Series::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Looks up one labeled series of an existing counter family —
    /// [`MetricsRegistry::counter_value`] resolves only unlabeled or sole
    /// series, which is ambiguous once a family fans out over labels.
    pub fn counter_value_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find_with(name, labels)? {
            Series::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Looks up one labeled series of an existing gauge family.
    pub fn gauge_value_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.find_with(name, labels)? {
            Series::Gauge(g) => Some(g.get()),
            _ => None,
        }
    }

    fn find(&self, name: &str) -> Option<Series> {
        let families = self.inner.families.lock();
        let family = families.get(name)?;
        // Unlabeled series first, else the sole series.
        family
            .series
            .get("")
            .or_else(|| family.series.values().next())
            .cloned()
    }

    fn find_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<Series> {
        let families = self.inner.families.lock();
        families.get(name)?.series.get(&label_key(labels)).cloned()
    }

    /// Renders every family in the Prometheus text exposition format
    /// (families and series in sorted order, so output is stable).
    ///
    /// Everything is written straight into one `String`: no per-line
    /// temporaries, so the cost is the bytes written and the lock.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        // One series' `name_bucket{labels,le="` prefix, rebuilt per
        // histogram series and reused for each of its bucket lines.
        let mut bucket_prefix = String::new();
        let families = self.inner.families.lock();
        for (name, family) in families.iter() {
            let kind = match family.series.values().next() {
                Some(series) => series.kind(),
                None => continue,
            };
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            push_escaped_help(&mut out, &family.help);
            out.push_str("\n# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => push_sample(&mut out, name, "", labels, c.get()),
                    Series::Gauge(g) => push_sample(&mut out, name, "", labels, g.get()),
                    Series::Histogram(h) => {
                        bucket_prefix.clear();
                        bucket_prefix.push_str(name);
                        bucket_prefix.push_str("_bucket{");
                        if !labels.is_empty() {
                            bucket_prefix.push_str(labels);
                            bucket_prefix.push(',');
                        }
                        bucket_prefix.push_str("le=\"");
                        let mut cumulative = 0u64;
                        for (i, bucket) in h.0.buckets.iter().enumerate() {
                            let count = bucket.load(Ordering::Relaxed);
                            cumulative += count;
                            if count == 0 && i != 0 {
                                continue; // keep the exposition compact
                            }
                            out.push_str(&bucket_prefix);
                            let _ = writeln!(out, "{}\"}} {cumulative}", bucket_upper_bound(i));
                        }
                        out.push_str(&bucket_prefix);
                        let _ = writeln!(out, "+Inf\"}} {cumulative}");
                        push_sample(&mut out, name, "_sum", labels, h.sum());
                        push_sample(&mut out, name, "_count", labels, h.count());
                    }
                }
            }
        }
        drop(families);
        out
    }

    /// Renders a compact JSON snapshot: an object keyed by series name
    /// (labels appended in braces); counters and gauges as numbers,
    /// histograms as `{count, sum, mean, p50, p95, max}` using the bucket
    /// upper bounds as quantile estimates.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{");
        let families = self.inner.families.lock();
        let mut first = true;
        for (name, family) in families.iter() {
            for (labels, series) in &family.series {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{name}{}\":", braced_json(labels));
                match series {
                    Series::Counter(c) => {
                        let _ = write!(out, "{}", c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = write!(out, "{}", g.get());
                    }
                    Series::Histogram(h) => {
                        let _ = write!(
                            out,
                            "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p95\":{},\"max\":{}}}",
                            h.count(),
                            h.sum(),
                            h.mean(),
                            h.quantile(0.5),
                            h.quantile(0.95),
                            h.quantile(1.0),
                        );
                    }
                }
            }
        }
        out.push('}');
        out
    }
}

/// Dispatch-path handles shared by the runtime engines (ORB, COM, EJB),
/// owned and updated by each runtime's [`crate::engine::Gate`].
///
/// Each engine registers the same family names with an `engine` label, so
/// one Prometheus scrape compares the substrates side by side:
/// `causeway_engine_dispatch_total{engine="orb"}` vs `{engine="ejb"}`.
/// Worker utilization is derived as `rate(busy_ns) / workers / 1e9`.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Requests dispatched (entered a skeleton/up-call path).
    pub dispatch: Counter,
    /// Requests currently inside dispatch.
    pub inflight: Gauge,
    /// Total nanoseconds workers spent occupied by dispatches.
    pub busy_ns: Counter,
    /// Nanoseconds between a request's enqueue and a worker picking it up.
    pub queue_wait_ns: Histogram,
    /// Worker threads currently live for this engine.
    pub workers: Gauge,
    /// Requests shed at admission because the dispatch queue was full.
    pub shed: Counter,
}

/// RAII handle counting one live worker thread.
#[derive(Debug)]
pub struct WorkerHandle(Gauge);

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.0.dec();
    }
}

impl EngineMetrics {
    /// Marks a worker thread as live until the returned handle drops.
    pub fn worker(&self) -> WorkerHandle {
        self.workers.inc();
        WorkerHandle(self.workers.clone())
    }

    /// Registers (or retrieves) the engine-labeled dispatch series.
    pub fn register(registry: &MetricsRegistry, engine: &str) -> EngineMetrics {
        let labels = &[("engine", engine)][..];
        EngineMetrics {
            dispatch: registry.counter_with(
                "causeway_engine_dispatch_total",
                "requests dispatched by the engine",
                labels,
            ),
            inflight: registry.gauge_with(
                "causeway_engine_inflight",
                "requests currently inside dispatch",
                labels,
            ),
            busy_ns: registry.counter_with(
                "causeway_engine_busy_ns_total",
                "nanoseconds workers spent occupied by dispatches",
                labels,
            ),
            queue_wait_ns: registry.histogram_with(
                "causeway_engine_queue_wait_ns",
                "nanoseconds requests waited for a worker",
                labels,
            ),
            workers: registry.gauge_with(
                "causeway_engine_workers",
                "live worker threads",
                labels,
            ),
            shed: registry.counter_with(
                "causeway_engine_shed_total",
                "requests refused at admission because the dispatch queue was full",
                labels,
            ),
        }
    }
}

/// Per-operation dispatch series: the same dispatch counters the engines
/// keep per `engine=` label, additionally keyed by the invoked interface
/// function — the unit the paper's characterization tables (Table 2) use.
#[derive(Debug, Clone)]
pub struct OpSeries {
    /// Dispatches of this operation.
    pub dispatch: Counter,
    /// Nanoseconds the up-call (unmarshal, servant body, reply encode and
    /// send) occupied a worker, per dispatch.
    pub busy_ns: Histogram,
}

/// A lazy cache of [`OpSeries`] handles, one per (interface, method)
/// dispatched through an engine. Label cardinality is bounded by the IDL
/// (interfaces × methods), not by traffic, so the registry stays small; the
/// cache keeps the hot dispatch path at one small `HashMap` lookup under a
/// short-lived lock instead of a registry registration.
#[derive(Debug)]
pub struct OpMetrics {
    registry: MetricsRegistry,
    engine: &'static str,
    cache: Mutex<std::collections::HashMap<(crate::ids::InterfaceId, crate::ids::MethodIndex), OpSeries>>,
}

impl OpMetrics {
    /// Creates an empty cache publishing to `registry` under
    /// `engine=<engine>`.
    pub fn new(registry: &MetricsRegistry, engine: &'static str) -> OpMetrics {
        OpMetrics {
            registry: registry.clone(),
            engine,
            cache: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// The series for one operation, registering it on first sight.
    /// `names` resolves the human-readable `(interface, method)` label pair
    /// and runs only on that first registration.
    pub fn series(
        &self,
        iface: crate::ids::InterfaceId,
        method: crate::ids::MethodIndex,
        names: impl FnOnce() -> (String, String),
    ) -> OpSeries {
        let mut cache = self.cache.lock();
        cache
            .entry((iface, method))
            .or_insert_with(|| {
                let (iface_name, method_name) = names();
                let registry = &self.registry;
                let labels = &[
                    ("engine", self.engine),
                    ("iface", iface_name.as_str()),
                    ("method", method_name.as_str()),
                ][..];
                OpSeries {
                    dispatch: registry.counter_with(
                        "causeway_engine_op_dispatch_total",
                        "requests dispatched, per interface function",
                        labels,
                    ),
                    busy_ns: registry.histogram_with(
                        "causeway_engine_op_busy_ns",
                        "nanoseconds the up-call occupied a worker, per interface function",
                        labels,
                    ),
                }
            })
            .clone()
    }
}

/// Appends `# HELP` text with the exposition format's escaping:
/// backslashes and line feeds are escaped so multi-line help strings
/// cannot break the line-oriented scrape format.
fn push_escaped_help(out: &mut String, help: &str) {
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Appends one `name<suffix>{labels} value` sample line.
fn push_sample(out: &mut String, name: &str, suffix: &str, labels: &str, value: impl std::fmt::Display) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

fn braced_json(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", labels.replace('"', "'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("t_total", "a counter");
        let g = registry.gauge("t_depth", "a gauge");
        c.inc();
        c.add(4);
        g.add(3);
        g.dec();
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 2);
        assert_eq!(registry.counter_value("t_total"), Some(5));
        assert_eq!(registry.gauge_value("t_depth"), Some(2));
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn handles_are_shared_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("shared_total", "x");
        let b = registry.counter("shared_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let registry = MetricsRegistry::new();
        let a = registry.counter_with("lbl_total", "x", &[("engine", "pool")]);
        let b = registry.counter_with("lbl_total", "x", &[("engine", "sta")]);
        a.add(2);
        b.add(5);
        let text = registry.render_prometheus();
        assert!(text.contains("lbl_total{engine=\"pool\"} 2"), "{text}");
        assert!(text.contains("lbl_total{engine=\"sta\"} 5"), "{text}");
    }

    #[test]
    fn exposition_carries_type_and_escaped_help_per_family() {
        let registry = MetricsRegistry::new();
        registry.counter("shape_total", "line one\nline two with a \\ backslash").inc();
        registry.gauge("shape_depth", "plain help").set(3);
        let text = registry.render_prometheus();
        // Every family leads with its metadata, in HELP-then-TYPE order.
        assert!(
            text.contains(
                "# HELP shape_total line one\\nline two with a \\\\ backslash\n# TYPE shape_total counter\nshape_total 1\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("# HELP shape_depth plain help\n# TYPE shape_depth gauge\nshape_depth 3\n"),
            "{text}"
        );
        // Escaping keeps the exposition line-oriented: the raw newline in
        // the help string must not have produced a non-comment line.
        assert!(!text.lines().any(|l| l.starts_with("line two")), "{text}");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("kind_total", "x");
        registry.gauge("kind_total", "x");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::detached();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 0u64.wrapping_add(1 + 2 + 3 + 4 + 1000).wrapping_add(u64::MAX));
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_upper_bound(2), 3);
    }

    #[test]
    fn quantiles_use_bucket_upper_bounds() {
        let h = Histogram::detached();
        for _ in 0..99 {
            h.observe(100); // bucket 7, upper bound 127
        }
        h.observe(100_000); // bucket 17, upper bound 131071
        assert_eq!(h.quantile(0.5), 127);
        assert_eq!(h.quantile(1.0), 131_071);
        assert_eq!(Histogram::detached().quantile(0.5), 0);
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let registry = MetricsRegistry::new();
        let c = registry.counter("conc_total", "x");
        let h = registry.histogram("conc_ns", "x");
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.observe(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), THREADS * PER_THREAD);
        assert_eq!(h.count(), THREADS * PER_THREAD);
        assert_eq!(h.sum(), THREADS * (PER_THREAD * (PER_THREAD - 1) / 2));
    }

    #[test]
    fn prometheus_rendering_is_stable() {
        let registry = MetricsRegistry::new();
        registry.counter("z_total", "last").add(3);
        registry.gauge("a_depth", "first").set(2);
        let h = registry.histogram("m_ns", "middle");
        h.observe(0);
        h.observe(5);
        let expected = "\
# HELP a_depth first
a_depth 2
# HELP m_ns middle
m_ns_bucket{le=\"0\"} 1
m_ns_bucket{le=\"7\"} 2
m_ns_bucket{le=\"+Inf\"} 2
m_ns_sum 5
m_ns_count 2
# HELP z_total last
z_total 3
";
        let rendered: String = registry
            .render_prometheus()
            .lines()
            .filter(|l| !l.starts_with("# TYPE"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(rendered, expected);
        // Rendering twice without updates is byte-identical.
        assert_eq!(registry.render_prometheus(), registry.render_prometheus());
    }

    #[test]
    fn json_snapshot_is_parseable_shape() {
        let registry = MetricsRegistry::new();
        registry.counter("j_total", "x").add(7);
        let h = registry.histogram("j_ns", "x");
        h.observe(10);
        let json = registry.snapshot_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"j_total\":7"), "{json}");
        assert!(json.contains("\"j_ns\":{\"count\":1"), "{json}");
    }

    #[test]
    fn op_metrics_register_once_per_operation() {
        use crate::ids::{InterfaceId, MethodIndex};
        let registry = MetricsRegistry::new();
        let ops = OpMetrics::new(&registry, "test-op");
        let mut resolutions = 0;
        for _ in 0..3 {
            let series = ops.series(InterfaceId(1), MethodIndex(2), || {
                resolutions += 1;
                ("Pps::Stage".to_owned(), "rasterize".to_owned())
            });
            series.dispatch.inc();
            series.busy_ns.observe(100);
        }
        assert_eq!(resolutions, 1, "name resolution only on first sight");
        let text = registry.render_prometheus();
        assert!(
            text.contains(
                "causeway_engine_op_dispatch_total{engine=\"test-op\",iface=\"Pps::Stage\",method=\"rasterize\"} 3"
            ),
            "{text}"
        );
    }

    #[test]
    fn prometheus_exposition_golden() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with("g_total", "requests\nper \\ route", &[("path", "a\"b\\c\nd")])
            .add(2);
        registry.counter_with("g_total", "ignored", &[("path", "/x")]).inc();
        registry.gauge("g_depth", "depth").set(-3);
        let labeled = registry.histogram_with("g_ns", "latency", &[("engine", "orb"), ("op", "x")]);
        for v in [0, 3, 3, 100, u64::MAX] {
            labeled.observe(v);
        }
        registry.histogram("g_idle_ns", "never observed");
        let expected = "\
# HELP g_depth depth
# TYPE g_depth gauge
g_depth -3
# HELP g_idle_ns never observed
# TYPE g_idle_ns histogram
g_idle_ns_bucket{le=\"0\"} 0
g_idle_ns_bucket{le=\"+Inf\"} 0
g_idle_ns_sum 0
g_idle_ns_count 0
# HELP g_ns latency
# TYPE g_ns histogram
g_ns_bucket{engine=\"orb\",op=\"x\",le=\"0\"} 1
g_ns_bucket{engine=\"orb\",op=\"x\",le=\"3\"} 3
g_ns_bucket{engine=\"orb\",op=\"x\",le=\"127\"} 4
g_ns_bucket{engine=\"orb\",op=\"x\",le=\"9223372036854775807\"} 5
g_ns_bucket{engine=\"orb\",op=\"x\",le=\"+Inf\"} 5
g_ns_sum{engine=\"orb\",op=\"x\"} 105
g_ns_count{engine=\"orb\",op=\"x\"} 5
# HELP g_total requests\\nper \\\\ route
# TYPE g_total counter
g_total{path=\"/x\"} 1
g_total{path=\"a\\\"b\\\\c\\nd\"} 2
";
        assert_eq!(registry.render_prometheus(), expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with("esc_total", "x", &[("path", "a\"b\\c\nd")])
            .inc();
        let text = registry.render_prometheus();
        assert!(text.contains("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"), "{text}");
    }
}
