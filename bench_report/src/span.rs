//! Spans around the benchmark's calls into each layer's public functions.
//!
//! The traced run (`--trace 1`) records one span per call — name (the
//! layer's module path), start, end, the span that caused it, the trial it
//! belongs to, and how many units of work (records, calls, bytes) the call
//! handled — keeps them in memory, and writes them out when the run ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. With tracing off `span` is one branch.

use causeway_collector::json::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 when the span has no parent.
    pub parent: u32,
    pub name: &'static str,
    pub trial: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static TRIAL: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns span recording on or off, on every thread.
pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Labels the spans that follow, on every thread, with a trial number.
pub fn set_trial(trial: u32) {
    TRIAL.store(trial, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name`; `f` returns its result and the
/// units of work it handled. Spans opened by `f` on this thread become
/// children.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
    if !enabled() {
        return f().0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let start_ns = epoch().elapsed().as_nanos() as u64;
    let (out, work) = f();
    let end_ns = epoch().elapsed().as_nanos() as u64;
    CURRENT.with(|c| c.set(parent));
    let trial = TRIAL.load(Ordering::Relaxed);
    SPANS
        .lock()
        .expect("span log poisoned: a traced call panicked")
        .push(Span {
            id,
            parent,
            name,
            trial,
            start_ns,
            end_ns,
            work,
        });
    out
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span log poisoned: a traced call panicked"),
    )
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub work: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    /// Self nanoseconds per unit of work; 0 when the layer did none.
    pub fn self_ns_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.work as f64
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let cover = children
                .remove(&s.id)
                .map_or(0, |kids| covered(kids, s.start_ns, s.end_ns));
            (s.id, (s.end_ns - s.start_ns).saturating_sub(cover))
        })
        .collect()
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for span in spans {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.work += span.work;
        t.total_ns += span.end_ns - span.start_ns;
        t.self_ns += selfs[&span.id];
    }
    out
}

/// The trace file body: per-layer totals first, then every span.
pub fn to_json(spans: &[Span]) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    let layers: BTreeMap<String, Json> = totals(spans)
        .into_iter()
        .map(|(name, t)| {
            let body = Json::obj([
                ("calls", num(t.calls)),
                ("work", num(t.work)),
                ("total_ns", num(t.total_ns)),
                ("self_ns", num(t.self_ns)),
            ]);
            (name.to_owned(), body)
        })
        .collect();
    let spans = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("id", num(s.id.into())),
                ("parent", num(s.parent.into())),
                ("name", Json::Str(s.name.to_owned())),
                ("trial", num(s.trial.into())),
                ("start_ns", num(s.start_ns)),
                ("end_ns", num(s.end_ns)),
                ("work", num(s.work)),
            ])
        })
        .collect();
    Json::obj([("layers", Json::Obj(layers)), ("spans", Json::Arr(spans))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            trial: 0,
            start_ns,
            end_ns,
            work: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = [
            span_at(1, 0, "root", 0, 100),
            // Two overlapping children cover [10, 50]; a third [60, 70].
            span_at(2, 1, "a", 10, 40),
            span_at(3, 1, "b", 30, 50),
            span_at(4, 1, "a", 60, 70),
            // A grandchild takes from its parent, not from the root.
            span_at(5, 2, "c", 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&5], 10);
        let totals = totals(&spans);
        assert_eq!(totals["a"].calls, 2);
        assert_eq!(totals["a"].self_ns, 20 + 10);
        assert_eq!(totals["a"].total_ns, 30 + 10);
    }

    #[test]
    fn child_cover_is_clipped_to_the_parent() {
        // A child that outlives its parent (another thread finishing late)
        // cannot make the parent's self time negative.
        let spans = [span_at(1, 0, "root", 10, 20), span_at(2, 1, "late", 15, 90)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        enable(true);
        set_trial(7);
        let out = span("outer", || (span("inner", || (41, 3)) + 1, 1));
        assert_eq!(out, 42);
        let spans = take();
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.trial, inner.work), (7, 3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
