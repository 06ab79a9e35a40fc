//! Tail-based exemplar capture: the concrete causal chains behind every
//! percentile, alert, and incident.
//!
//! The live monitor's aggregates (`/latency` histograms, alert rules, burn
//! rates) summarize thousands of chains per window; the paper's whole
//! point is that global causality capture lets an operator go from the
//! aggregate symptom back to the concrete execution that explains it. The
//! completed-chain trace ring (`trace_capacity`) cannot serve that role —
//! it is strict FIFO, so under load the few slow or abnormal chains that
//! explain a p99 breach are evicted by sheer volume of fast ones before
//! anyone queries `/dscg`.
//!
//! [`ExemplarStore`] keeps a small, *tail-biased* reservoir per
//! (interface, method) series instead: the K slowest chains, every
//! abnormal chain, and a deterministic uniform sample, each retained with
//! its full completion events so the DSCG render and a Chrome-trace slice
//! view stay reproducible long after the FIFO ring churned. Eviction
//! within a reservoir is **fastest-first, never FIFO** — volume alone can
//! never push out the chain that made the percentile.
//!
//! Determinism contract: admission decisions depend only on the chain's
//! uuid, latency, verdict and the store's own state — never on wall-clock
//! time or ambient randomness — so a sharded monitor replaying admissions
//! in rank order produces a bit-identical store at any shard count
//! (`tests/live_sharded.rs` proves it).
//!
//! With [`ExemplarConfig::spill`] set, every admission is also appended to
//! a crash-safe frame segment (same framing as the history spill); on
//! restart the file replays through the same admission logic, so the
//! store — ids included — survives the process.

use crate::window::SeriesKey;
use crate::render::{completion_forest, CompletedCall, CompletionNode};
use causeway_collector::json::Json;
use causeway_collector::segment::FrameLog;
use causeway_core::event::CallKind;
use causeway_core::ids::{InterfaceId, MethodIndex, ObjectId};
use causeway_core::metrics::{Counter, Gauge, MetricsRegistry};
use causeway_core::names::VocabSnapshot;
use causeway_core::record::FunctionKey;
use causeway_core::rng;
use causeway_core::uuid::Uuid;
use causeway_core::wire::{put_u128, put_u16, put_u32, put_u64, Cursor};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Static configuration of an [`ExemplarStore`].
#[derive(Debug, Clone)]
pub struct ExemplarConfig {
    /// Capture exemplars at all. Disabled, every offer is a no-op and the
    /// read side serves an empty store.
    pub enabled: bool,
    /// Tail slots per series: the K slowest (plus abnormal) chains kept
    /// per (interface, method).
    pub per_series: usize,
    /// Uniform-sample slots per series, on top of the tail slots. Every
    /// chain has the same uuid-derived chance of becoming a sample
    /// candidate, independent of its latency.
    pub sample_per_series: usize,
    /// Global exemplar-count cap across all series; beyond it the least
    /// valuable exemplar store-wide (samples before slow, slow before
    /// abnormal; fastest first within a class) is evicted.
    pub max_total: usize,
    /// Approximate byte cap on retained completion events; evicts like
    /// `max_total`. A single chain costing more than the whole cap is
    /// rejected outright.
    pub max_bytes: usize,
    /// Append-only spill segment for admitted exemplars; replayed through
    /// the admission logic on restart. `None` (the default) keeps the
    /// store memory-only.
    pub spill: Option<PathBuf>,
}

impl Default for ExemplarConfig {
    fn default() -> Self {
        ExemplarConfig {
            enabled: true,
            per_series: 4,
            sample_per_series: 2,
            max_total: 512,
            max_bytes: 1 << 20,
            spill: None,
        }
    }
}

/// Why a chain was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Among the K slowest of its series.
    Slow,
    /// The chain tripped a Figure-4 reconstruction abnormality.
    Abnormal,
    /// Deterministic uniform sample (uuid-derived), kept regardless of
    /// latency so the store always holds some "normal" executions too.
    Sampled,
}

impl Verdict {
    /// The JSON/exposition name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Slow => "slow",
            Verdict::Abnormal => "abnormal",
            Verdict::Sampled => "sampled",
        }
    }

    /// Keep priority under eviction pressure: higher survives longer.
    fn keep_rank(self) -> u8 {
        match self {
            Verdict::Sampled => 0,
            Verdict::Slow => 1,
            Verdict::Abnormal => 2,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Verdict::Slow => 0,
            Verdict::Abnormal => 1,
            Verdict::Sampled => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Verdict> {
        match tag {
            0 => Some(Verdict::Slow),
            1 => Some(Verdict::Abnormal),
            2 => Some(Verdict::Sampled),
            _ => None,
        }
    }
}

/// One retained chain: the link from an aggregate (a percentile bucket, an
/// alert, an incident hypothesis) back to the concrete execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Monotonic admission ordinal (stable across a spill replay).
    pub id: u64,
    /// The chain's causality uuid — the public exemplar reference.
    pub chain: Uuid,
    /// The root call's (interface, method) series.
    pub series: SeriesKey,
    /// The root call's compensated latency, ns.
    pub latency_ns: u64,
    /// Tumbling window ordinal during which the chain completed.
    pub window_index: u64,
    /// Why it was retained.
    pub verdict: Verdict,
    /// The chain's completion events, enough to rebuild its call forest.
    pub completions: Vec<CompletedCall>,
}

/// Per-series tail-biased reservoirs of completed chains.
#[derive(Debug)]
pub struct ExemplarStore {
    cfg: ExemplarConfig,
    next_id: u64,
    rings: BTreeMap<SeriesKey, Vec<Exemplar>>,
    total: usize,
    bytes: usize,
    admitted_n: u64,
    evicted_n: u64,
    rejected_n: u64,
    spill: Option<FrameLog>,
    spill_error: Option<String>,
    spill_errors: u64,
    /// Alert-referenced chains shielded from eviction, oldest pin first.
    /// Bounded by [`PIN_CAPACITY`]; an evicted exemplar drops its pin.
    pinned: Vec<Uuid>,
    admitted: Counter,
    evicted: Counter,
    rejected: Counter,
    count_gauge: Gauge,
    bytes_gauge: Gauge,
}

/// Fixed per-exemplar accounting overhead on top of the completion events.
const EXEMPLAR_BASE_COST: usize = 64;

/// Most pins held at once: enough for several alerts' worth of breach
/// references, small enough that pins can never dominate the store.
const PIN_CAPACITY: usize = 32;

/// One in this many chains becomes a uniform-sample candidate.
const SAMPLE_MODULUS: u64 = 16;

/// `true` when the chain's uuid elects it into the uniform sample. Pure
/// function of the uuid (splitmix64 finalizer), so sharded replay and
/// restarts agree.
pub fn sampled(chain: Uuid) -> bool {
    let folded = (chain.0 as u64) ^ ((chain.0 >> 64) as u64) ^ 0x9e37_79b9_7f4a_7c15;
    rng::mix64(folded).is_multiple_of(SAMPLE_MODULUS)
}

impl ExemplarStore {
    /// Creates a store; with a spill path configured, opens (or creates)
    /// the segment and replays prior admissions through the admission
    /// logic, so the post-restart state matches the pre-restart state.
    /// A spill that cannot be attached degrades to memory-only capture,
    /// recording the error for the read side. The
    /// `causeway_live_exemplar_*` series go to `registry`.
    pub fn new(cfg: ExemplarConfig, registry: &MetricsRegistry) -> ExemplarStore {
        let mut store = ExemplarStore {
            cfg: cfg.clone(),
            next_id: 0,
            rings: BTreeMap::new(),
            total: 0,
            bytes: 0,
            admitted_n: 0,
            evicted_n: 0,
            rejected_n: 0,
            spill: None,
            spill_error: None,
            spill_errors: 0,
            pinned: Vec::new(),
            admitted: registry.counter(
                "causeway_live_exemplar_admitted_total",
                "Chains admitted into the exemplar reservoirs.",
            ),
            evicted: registry.counter(
                "causeway_live_exemplar_evicted_total",
                "Exemplars evicted under per-series, count, or byte caps.",
            ),
            rejected: registry.counter(
                "causeway_live_exemplar_rejected_total",
                "Chains offered but not worth a reservoir slot.",
            ),
            count_gauge: registry.gauge(
                "causeway_live_exemplar_count",
                "Exemplars currently retained across all series.",
            ),
            bytes_gauge: registry.gauge(
                "causeway_live_exemplar_bytes",
                "Approximate bytes retained by the exemplar store.",
            ),
        };
        if !cfg.enabled {
            return store;
        }
        if let Some(path) = &cfg.spill {
            match FrameLog::open(path, SPILL_MAGIC, decode_exemplar) {
                Ok((spill, replay)) => {
                    for (_, ex) in replay {
                        store.next_id = store.next_id.max(ex.id + 1);
                        store.place(ex);
                    }
                    store.spill = Some(spill);
                }
                Err(e) => store.spill_error = Some(format!("{}: {e}", path.display())),
            }
        }
        store
    }

    /// Offers one completed chain. Selection inputs (series, latency) are
    /// computed by the caller under the shard lock; the admission decision
    /// and any eviction happen here, under the control lock, in rank
    /// order. Returns the admitted exemplar's id.
    pub fn offer(
        &mut self,
        series: SeriesKey,
        chain: Uuid,
        latency_ns: u64,
        window_index: u64,
        abnormal: bool,
        completions: &[CompletedCall],
    ) -> Option<u64> {
        if !self.cfg.enabled || completions.is_empty() {
            return None;
        }
        let cost = Self::cost_of(completions);
        if self.cfg.max_bytes > 0 && cost > self.cfg.max_bytes {
            return self.reject();
        }
        let pinned = &self.pinned;
        let ring = self.rings.entry(series).or_default();
        let verdict = if abnormal {
            Verdict::Abnormal
        } else if Self::tail_accepts(ring, pinned, latency_ns, self.cfg.per_series) {
            Verdict::Slow
        } else if sampled(chain)
            && Self::sample_accepts(ring, pinned, latency_ns, self.cfg.sample_per_series)
        {
            Verdict::Sampled
        } else {
            return self.reject();
        };
        let id = self.next_id;
        self.next_id += 1;
        let exemplar = Exemplar {
            id,
            chain,
            series,
            latency_ns,
            window_index,
            verdict,
            completions: completions.to_vec(),
        };
        if let Some(spill) = &mut self.spill {
            if let Err(e) = spill.append(|buf| encode_exemplar(&exemplar, buf)) {
                self.spill_errors += 1;
                self.spill_error = Some(format!("{}: {e}", spill.path().display()));
                self.spill = None; // degrade to memory-only, keep capturing
            }
        }
        self.place(exemplar);
        Some(id)
    }

    /// Shields a retained chain from eviction: the uuids a fired alert
    /// publishes must keep resolving at `/exemplars?id=` for as long as an
    /// operator might follow the link, however much faster traffic arrives
    /// afterwards. Bounded FIFO — pinning past `PIN_CAPACITY` releases
    /// the oldest pin; pinning an unretained chain is a no-op. Pins are
    /// not spilled: after a restart the replayed store keeps whatever the
    /// unpinned admission order retains.
    pub fn pin(&mut self, chain: Uuid) {
        if self.pinned.contains(&chain) {
            return;
        }
        if !self.rings.values().any(|ring| ring.iter().any(|e| e.chain == chain)) {
            return;
        }
        self.pinned.push(chain);
        if self.pinned.len() > PIN_CAPACITY {
            self.pinned.remove(0);
        }
    }

    /// Would the tail (slow + abnormal) section admit this latency?
    /// Pinned members are not displaceable, so admission must beat the
    /// fastest *unpinned* slow-rank member.
    fn tail_accepts(ring: &[Exemplar], pinned: &[Uuid], latency_ns: u64, cap: usize) -> bool {
        if cap == 0 {
            return false;
        }
        let tail: Vec<&Exemplar> =
            ring.iter().filter(|e| e.verdict != Verdict::Sampled).collect();
        if tail.len() < cap {
            return true;
        }
        // Full: must strictly beat the section's eviction victim.
        tail.iter()
            .filter(|e| !pinned.contains(&e.chain))
            .map(|e| (e.verdict.keep_rank(), e.latency_ns))
            .min()
            .is_some_and(|(rank, fastest)| rank == Verdict::Slow.keep_rank() && latency_ns > fastest)
    }

    /// Would the sample section admit this latency? Pinned samples are not
    /// displaceable.
    fn sample_accepts(ring: &[Exemplar], pinned: &[Uuid], latency_ns: u64, cap: usize) -> bool {
        if cap == 0 {
            return false;
        }
        let mut n = 0usize;
        let mut fastest = u64::MAX;
        for e in ring.iter().filter(|e| e.verdict == Verdict::Sampled) {
            n += 1;
            if pinned.contains(&e.chain) {
                continue;
            }
            fastest = fastest.min(e.latency_ns);
        }
        n < cap || latency_ns > fastest
    }

    /// Inserts an exemplar and restores every bound (per-series sections,
    /// global count, global bytes) by fastest-first eviction.
    fn place(&mut self, exemplar: Exemplar) {
        let series = exemplar.series;
        let cost = Self::cost_of(&exemplar.completions);
        self.rings.entry(series).or_default().push(exemplar);
        self.total += 1;
        self.bytes += cost;
        self.admitted_n += 1;
        self.admitted.inc();
        self.shrink_sections(series);
        while self.total > self.cfg.max_total.max(1) && self.evict_global() {}
        while self.cfg.max_bytes > 0 && self.bytes > self.cfg.max_bytes && self.evict_global() {}
        self.count_gauge.set(self.total as i64);
        self.bytes_gauge.set(self.bytes as i64);
    }

    /// Restores one series' section caps: samples and the tail each evict
    /// their lowest-priority, fastest member first.
    fn shrink_sections(&mut self, series: SeriesKey) {
        loop {
            let Some(ring) = self.rings.get(&series) else { return };
            let samples = ring.iter().filter(|e| e.verdict == Verdict::Sampled).count();
            let tail = ring.len() - samples;
            let victim = if samples > self.cfg.sample_per_series {
                Self::victim_index(ring, &self.pinned, true)
            } else if tail > self.cfg.per_series {
                Self::victim_index(ring, &self.pinned, false)
            } else {
                return;
            };
            if let Some(at) = victim {
                self.remove_at(series, at);
            } else {
                return;
            }
        }
    }

    /// Index of the eviction victim within one ring, restricted to the
    /// sampled or tail section: minimum (pinned?, keep rank, latency, id)
    /// — pinned members go last, so a pin only breaks when every other
    /// member of the section is pinned too.
    fn victim_index(ring: &[Exemplar], pinned: &[Uuid], sampled_section: bool) -> Option<usize> {
        ring.iter()
            .enumerate()
            .filter(|(_, e)| (e.verdict == Verdict::Sampled) == sampled_section)
            .min_by_key(|(_, e)| {
                (pinned.contains(&e.chain), e.verdict.keep_rank(), e.latency_ns, e.id)
            })
            .map(|(at, _)| at)
    }

    /// Evicts the least valuable exemplar store-wide. `false` when empty.
    fn evict_global(&mut self) -> bool {
        let pinned = &self.pinned;
        let victim = self
            .rings
            .iter()
            .flat_map(|(series, ring)| {
                ring.iter().enumerate().map(move |(at, e)| (series, at, e))
            })
            .min_by_key(|(_, _, e)| {
                (pinned.contains(&e.chain), e.verdict.keep_rank(), e.latency_ns, e.id)
            })
            .map(|(series, at, _)| (*series, at));
        match victim {
            Some((series, at)) => {
                self.remove_at(series, at);
                true
            }
            None => false,
        }
    }

    fn remove_at(&mut self, series: SeriesKey, at: usize) {
        if let Some(ring) = self.rings.get_mut(&series) {
            let gone = ring.swap_remove(at);
            self.total -= 1;
            self.bytes = self.bytes.saturating_sub(Self::cost_of(&gone.completions));
            self.evicted_n += 1;
            self.evicted.inc();
            self.pinned.retain(|chain| *chain != gone.chain);
            if ring.is_empty() {
                self.rings.remove(&series);
            }
        }
    }

    fn reject(&mut self) -> Option<u64> {
        self.rejected_n += 1;
        self.rejected.inc();
        None
    }

    fn cost_of(completions: &[CompletedCall]) -> usize {
        EXEMPLAR_BASE_COST + std::mem::size_of_val(completions)
    }

    /// The retained exemplar for a chain uuid (the newest admission when a
    /// uuid was somehow admitted twice).
    pub fn get(&self, chain: Uuid) -> Option<&Exemplar> {
        self.rings
            .values()
            .flatten()
            .filter(|e| e.chain == chain)
            .max_by_key(|e| e.id)
    }

    /// One series' exemplars, slowest first (ties broken oldest first) —
    /// the deterministic render order.
    pub fn series_sorted(&self, series: SeriesKey) -> Vec<&Exemplar> {
        let mut out: Vec<&Exemplar> =
            self.rings.get(&series).map(|r| r.iter().collect()).unwrap_or_default();
        out.sort_by_key(|e| (std::cmp::Reverse(e.latency_ns), e.id));
        out
    }

    /// Every retained series, in key order.
    pub fn series_keys(&self) -> Vec<SeriesKey> {
        self.rings.keys().copied().collect()
    }

    /// Exemplars of one series at or above a latency floor, slowest first
    /// — the `/latency` percentile-bucket references.
    pub fn refs_at_least(&self, series: SeriesKey, floor_ns: u64, limit: usize) -> Vec<&Exemplar> {
        let mut out = self.series_sorted(series);
        out.retain(|e| e.latency_ns >= floor_ns);
        out.truncate(limit);
        out
    }

    /// The exemplar uuids to pin on a just-fired alert: chains from the
    /// breach window first, then the slowest overall, filtered to the
    /// rule's series when it targets one. Deterministic order:
    /// (breach-window membership, latency desc, id asc).
    pub fn breaching(
        &self,
        series: Option<SeriesKey>,
        window_index: u64,
        limit: usize,
    ) -> Vec<Uuid> {
        let mut candidates: Vec<&Exemplar> = self
            .rings
            .iter()
            .filter(|(key, _)| series.is_none_or(|want| want == **key))
            .flat_map(|(_, ring)| ring.iter())
            .collect();
        candidates.sort_by_key(|e| {
            (e.window_index != window_index, std::cmp::Reverse(e.latency_ns), e.id)
        });
        let mut out = Vec::new();
        for e in candidates {
            if !out.contains(&e.chain) {
                out.push(e.chain);
                if out.len() >= limit {
                    break;
                }
            }
        }
        out
    }

    /// Retained exemplar count.
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Approximate retained bytes.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Admissions since this store was created (spill replay included).
    pub fn admitted(&self) -> u64 {
        self.admitted_n
    }

    /// Evictions under any cap since this store was created.
    pub fn evicted(&self) -> u64 {
        self.evicted_n
    }

    /// Offers not worth a slot since this store was created.
    pub fn rejected(&self) -> u64 {
        self.rejected_n
    }

    /// Why the configured spill is not attached, if it isn't.
    pub fn spill_error(&self) -> Option<&str> {
        self.spill_error.as_deref()
    }

    /// Admissions lost to spill append failures.
    pub fn spill_errors(&self) -> u64 {
        self.spill_errors
    }

    /// The active configuration.
    pub fn config(&self) -> &ExemplarConfig {
        &self.cfg
    }
}

/// A Chrome trace-event ("Perfetto") slice view of one exemplar's call
/// forest. Completion events carry latencies, not wall stamps, so slice
/// timestamps are *synthesized*: roots are laid out sequentially from 0,
/// children sequentially from their parent's start — nesting and durations
/// are faithful, absolute times are not wall-clock.
pub fn chrome_slice_json(exemplar: &Exemplar, vocab: &VocabSnapshot) -> Json {
    let forest = completion_forest(&exemplar.completions);
    let mut slices: Vec<(u64, usize, String, u64, String)> = Vec::new();
    let mut work: Vec<(&CompletionNode, u64)> = Vec::new();
    let mut cursor = 0u64;
    for root in &forest {
        work.push((root, cursor));
        cursor = cursor.saturating_add(root.call.latency_ns);
    }
    while let Some((node, start)) = work.pop() {
        let name = format!(
            "{}.{}",
            vocab.interface_name(node.call.func.interface),
            vocab.method_name(node.call.func.interface, node.call.func.method)
        );
        let kind = node.call.kind.to_string();
        slices.push((start, node.call.depth, name, node.call.latency_ns, kind));
        let mut at = start;
        for child in &node.children {
            work.push((child, at));
            at = at.saturating_add(child.call.latency_ns);
        }
    }
    slices.sort();
    let events: Vec<Json> = slices
        .into_iter()
        .map(|(start, depth, name, latency_ns, kind)| {
            Json::obj([
                ("name", Json::Str(name)),
                ("cat", Json::Str("exemplar".to_owned())),
                ("ph", Json::Str("X".to_owned())),
                ("ts", Json::Num(start as f64 / 1_000.0)),
                ("dur", Json::Num(latency_ns as f64 / 1_000.0)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("chain", Json::Str(exemplar.chain.to_string())),
                        ("depth", Json::Num(depth as f64)),
                        ("kind", Json::Str(kind)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_owned())),
    ])
}

// --- spill segment ------------------------------------------------------

/// Magic prefix of an exemplar spill segment file: a [`FrameLog`] holding
/// one checksummed frame per admission (the collector's segment framing,
/// like the history spill), replayed on restart.
pub const SPILL_MAGIC: &[u8; 8] = b"CWEXMP1\n";

/// Encodes one exemplar as a spill frame payload into `buf`: scalars,
/// then each completion event in order.
fn encode_exemplar(e: &Exemplar, buf: &mut Vec<u8>) {
    put_u64(buf, e.id);
    put_u128(buf, e.chain.0);
    put_u32(buf, e.series.0 .0);
    put_u16(buf, e.series.1 .0);
    put_u64(buf, e.latency_ns);
    put_u64(buf, e.window_index);
    buf.push(e.verdict.tag());
    put_u32(buf, e.completions.len() as u32);
    for call in &e.completions {
        put_u32(buf, call.func.interface.0);
        put_u16(buf, call.func.method.0);
        put_u64(buf, call.func.object.0);
        buf.push(call.kind.tag());
        put_u32(buf, call.depth.min(u32::MAX as usize) as u32);
        put_u64(buf, call.latency_ns);
    }
}

/// Decodes a spill frame payload; `None` on short, trailing, or
/// out-of-range data (the reader treats that frame as torn).
fn decode_exemplar(payload: &[u8]) -> Option<Exemplar> {
    let mut r = Cursor::new(payload);
    let id = r.u64()?;
    let chain = Uuid(r.u128()?);
    let series = (InterfaceId(r.u32()?), MethodIndex(r.u16()?));
    let latency_ns = r.u64()?;
    let window_index = r.u64()?;
    let verdict = Verdict::from_tag(r.u8()?)?;
    let n = r.u32()? as usize;
    let mut completions = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let func = FunctionKey {
            interface: InterfaceId(r.u32()?),
            method: MethodIndex(r.u16()?),
            object: ObjectId(r.u64()?),
        };
        let kind = CallKind::from_tag(r.u8()?)?;
        let depth = r.u32()? as usize;
        let latency_ns = r.u64()?;
        completions.push(CompletedCall { func, kind, depth, latency_ns });
    }
    if !r.is_done() {
        return None; // trailing bytes: not a frame we wrote
    }
    Some(Exemplar { id, chain, series, latency_ns, window_index, verdict, completions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(latency_ns: u64) -> CompletedCall {
        CompletedCall {
            func: FunctionKey {
                interface: InterfaceId(0),
                method: MethodIndex(0),
                object: ObjectId(1),
            },
            kind: CallKind::Sync,
            depth: 0,
            latency_ns,
        }
    }

    fn series() -> SeriesKey {
        (InterfaceId(0), MethodIndex(0))
    }

    fn cfg(per_series: usize, sample: usize) -> ExemplarConfig {
        ExemplarConfig {
            per_series,
            sample_per_series: sample,
            ..ExemplarConfig::default()
        }
    }

    /// A uuid that the deterministic sampler elects, found by scan so the
    /// test does not bake in the hash constants.
    fn sampled_uuid() -> Uuid {
        (0..10_000u128).map(Uuid).find(|u| sampled(*u)).expect("some uuid samples")
    }

    fn unsampled_uuid(skip: u128) -> Uuid {
        (skip..skip + 10_000)
            .map(Uuid)
            .find(|u| !sampled(*u))
            .expect("some uuid does not sample")
    }

    #[test]
    fn eviction_is_fastest_first_never_fifo() {
        let mut store = ExemplarStore::new(cfg(2, 0), &MetricsRegistry::new());
        store.offer(series(), Uuid(1), 10, 0, false, &[call(10)]);
        store.offer(series(), Uuid(2), 30, 0, false, &[call(30)]);
        // A slower chain displaces the *fastest* retained one, not the
        // oldest: uuid 1 (latency 10) goes, uuid 2 (older than 3) stays.
        store.offer(series(), Uuid(3), 20, 1, false, &[call(20)]);
        assert!(store.get(Uuid(1)).is_none());
        assert!(store.get(Uuid(2)).is_some());
        assert!(store.get(Uuid(3)).is_some());
        // A faster chain is rejected outright.
        assert_eq!(store.offer(series(), Uuid(4), 5, 1, false, &[call(5)]), None);
        assert_eq!(store.rejected(), 1);
        assert_eq!(store.evicted(), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn pinned_exemplars_survive_eviction_by_slower_traffic() {
        let mut store = ExemplarStore::new(cfg(2, 0), &MetricsRegistry::new());
        store.offer(series(), Uuid(1), 10, 0, false, &[call(10)]);
        store.offer(series(), Uuid(2), 30, 0, false, &[call(30)]);
        // Pin the fastest — the member fastest-first eviction would take.
        store.pin(Uuid(1));
        // Admission must now beat the fastest *unpinned* member (30ns, not
        // the pinned 10ns): 20ns is rejected, 40ns displaces uuid 2.
        assert_eq!(store.offer(series(), Uuid(9), 20, 1, false, &[call(20)]), None);
        store.offer(series(), Uuid(3), 40, 1, false, &[call(40)]);
        assert!(store.get(Uuid(1)).is_some(), "pinned chain survives");
        assert!(store.get(Uuid(2)).is_none(), "unpinned 30ns chain evicted instead");
        assert!(store.get(Uuid(3)).is_some());
        // With every tail member pinned there is no displaceable victim:
        // an even slower chain is rejected rather than breaking a pin.
        store.pin(Uuid(3));
        assert_eq!(store.offer(series(), Uuid(4), 1_000, 1, false, &[call(1_000)]), None);
        assert!(store.get(Uuid(1)).is_some());
        assert!(store.get(Uuid(3)).is_some());
        // Pinning an unretained chain is a no-op, and the pin FIFO is
        // bounded: flooding it (one retained abnormal chain per fresh
        // series) releases the oldest pins, after which slower traffic can
        // displace uuid 1 again.
        store.pin(Uuid(999));
        assert!(store.get(Uuid(999)).is_none());
        for i in 0..PIN_CAPACITY as u32 {
            let chain = Uuid(u128::from(i) + 1000);
            let fresh = (InterfaceId(i + 1), MethodIndex(0));
            store.offer(fresh, chain, 5, 2, true, &[call(5)]);
            store.pin(chain);
            assert!(store.get(chain).is_some(), "retained, so genuinely pinned");
        }
        assert!(
            store.offer(series(), Uuid(5), 2_000, 3, false, &[call(2_000)]).is_some(),
            "oldest pin released once the FIFO wrapped"
        );
        assert!(store.get(Uuid(1)).is_none(), "formerly pinned 10ns chain evicted");
    }

    #[test]
    fn abnormal_chains_always_admit_and_outlive_slow_ones() {
        let mut store = ExemplarStore::new(cfg(2, 0), &MetricsRegistry::new());
        store.offer(series(), Uuid(1), 100, 0, false, &[call(100)]);
        store.offer(series(), Uuid(2), 90, 0, false, &[call(90)]);
        // An abnormal chain admits regardless of latency, evicting the
        // fastest slow chain.
        store.offer(series(), Uuid(3), 1, 0, true, &[call(1)]);
        assert!(store.get(Uuid(2)).is_none());
        assert_eq!(store.get(Uuid(3)).unwrap().verdict, Verdict::Abnormal);
        // A merely-slow chain cannot displace the abnormal one: the victim
        // would be the slow 100ns entry, which it does not beat.
        assert_eq!(store.offer(series(), Uuid(4), 95, 0, false, &[call(95)]), None);
        assert!(store.get(Uuid(3)).is_some());
    }

    #[test]
    fn uniform_sample_admits_fast_chains_deterministically() {
        let mut store = ExemplarStore::new(cfg(1, 1), &MetricsRegistry::new());
        let fast_sampled = sampled_uuid();
        let fast_plain = unsampled_uuid(fast_sampled.0 + 1);
        store.offer(series(), Uuid(u128::MAX), 1_000_000, 0, false, &[call(1_000_000)]);
        // Tail is full and both chains are far too fast for it; only the
        // uuid the sampler elects gets the sample slot.
        assert!(store.offer(series(), fast_sampled, 5, 0, false, &[call(5)]).is_some());
        assert_eq!(store.offer(series(), fast_plain, 5, 0, false, &[call(5)]), None);
        assert_eq!(store.get(fast_sampled).unwrap().verdict, Verdict::Sampled);
    }

    #[test]
    fn global_count_and_byte_caps_evict_lowest_value_first() {
        let mut config = cfg(4, 0);
        config.max_total = 2;
        let mut store = ExemplarStore::new(config, &MetricsRegistry::new());
        let other = (InterfaceId(1), MethodIndex(0));
        store.offer(series(), Uuid(1), 10, 0, false, &[call(10)]);
        store.offer(series(), Uuid(2), 30, 0, false, &[call(30)]);
        store.offer(other, Uuid(3), 20, 0, true, &[call(20)]);
        // Global cap 2: the fastest slow exemplar (uuid 1) is evicted; the
        // abnormal one survives despite being in another series.
        assert_eq!(store.len(), 2);
        assert!(store.get(Uuid(1)).is_none());
        assert!(store.get(Uuid(2)).is_some());
        assert!(store.get(Uuid(3)).is_some());

        let mut tiny = cfg(4, 0);
        tiny.max_bytes = EXEMPLAR_BASE_COST; // no room for any completions
        let mut store = ExemplarStore::new(tiny, &MetricsRegistry::new());
        assert_eq!(store.offer(series(), Uuid(9), 10, 0, false, &[call(10)]), None);
        assert_eq!(store.rejected(), 1);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn disabled_store_captures_nothing() {
        let config = ExemplarConfig { enabled: false, ..ExemplarConfig::default() };
        let mut store = ExemplarStore::new(config, &MetricsRegistry::new());
        assert_eq!(store.offer(series(), Uuid(1), 10, 0, true, &[call(10)]), None);
        assert!(store.is_empty());
        assert_eq!(store.admitted(), 0);
        assert_eq!(store.rejected(), 0);
    }

    #[test]
    fn breaching_prefers_breach_window_then_latency() {
        let mut store = ExemplarStore::new(cfg(4, 0), &MetricsRegistry::new());
        store.offer(series(), Uuid(1), 500, 3, false, &[call(500)]);
        store.offer(series(), Uuid(2), 100, 7, false, &[call(100)]);
        store.offer(series(), Uuid(3), 200, 7, false, &[call(200)]);
        let picked = store.breaching(Some(series()), 7, 2);
        assert_eq!(picked, vec![Uuid(3), Uuid(2)]);
        // Series filter: a different series yields nothing.
        assert!(store.breaching(Some((InterfaceId(9), MethodIndex(0))), 7, 2).is_empty());
        // No filter: the breach window still leads, then overall latency.
        assert_eq!(store.breaching(None, 7, 3), vec![Uuid(3), Uuid(2), Uuid(1)]);
    }

    #[test]
    fn codec_round_trips_and_rejects_every_strict_prefix() {
        let e = Exemplar {
            id: 42,
            chain: Uuid(0xdead_beef_0000_0001),
            series: (InterfaceId(3), MethodIndex(1)),
            latency_ns: 123_456,
            window_index: 9,
            verdict: Verdict::Abnormal,
            completions: vec![call(123_456), call(7)],
        };
        let mut payload = Vec::new();
        encode_exemplar(&e, &mut payload);
        assert_eq!(decode_exemplar(&payload), Some(e));
        for cut in 0..payload.len() {
            assert_eq!(decode_exemplar(&payload[..cut]), None, "prefix of {cut} bytes decoded");
        }
    }

    /// A unique temp path that cleans itself up when the test ends.
    struct TempSpill(PathBuf);

    impl TempSpill {
        fn new(tag: &str) -> TempSpill {
            TempSpill(std::env::temp_dir().join(format!(
                "causeway_exemplar_spill_{tag}_{}.cwexmp",
                std::process::id()
            )))
        }
    }

    impl Drop for TempSpill {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn spill_replay_restores_store_with_stable_ids() {
        let tmp = TempSpill::new("replay");
        let mut config = cfg(2, 0);
        config.spill = Some(tmp.0.clone());
        let mut store = ExemplarStore::new(config.clone(), &MetricsRegistry::new());
        store.offer(series(), Uuid(1), 10, 0, false, &[call(10)]);
        store.offer(series(), Uuid(2), 30, 0, false, &[call(30)]);
        store.offer(series(), Uuid(3), 20, 1, false, &[call(20)]);
        let before: Vec<(u64, Uuid)> =
            store.series_sorted(series()).iter().map(|e| (e.id, e.chain)).collect();
        drop(store);

        // Restart: the spill replays every admission through the same
        // caps, reproducing the surviving set and its ids.
        let store = ExemplarStore::new(config, &MetricsRegistry::new());
        assert!(store.spill_error().is_none());
        let after: Vec<(u64, Uuid)> =
            store.series_sorted(series()).iter().map(|e| (e.id, e.chain)).collect();
        assert_eq!(before, after);
        assert!(store.get(Uuid(1)).is_none(), "evicted exemplar must not resurrect");
    }

    #[test]
    fn spill_refuses_foreign_files_and_degrades_gracefully() {
        let tmp = TempSpill::new("foreign");
        std::fs::write(&tmp.0, b"definitely not a spill segment").unwrap();
        let config = ExemplarConfig { spill: Some(tmp.0.clone()), ..ExemplarConfig::default() };
        let mut store = ExemplarStore::new(config, &MetricsRegistry::new());
        assert!(store.spill_error().is_some(), "foreign file must be refused");
        // Capture still works memory-only.
        assert!(store.offer(series(), Uuid(1), 10, 0, false, &[call(10)]).is_some());
        // And the foreign file was left untouched.
        assert_eq!(std::fs::read(&tmp.0).unwrap(), b"definitely not a spill segment");
    }

    /// The parent-written exemplar spill fixture: six admissions covering
    /// all three verdicts and all four call kinds.
    fn fixture_exemplars() -> Vec<Exemplar> {
        let kinds = [CallKind::Sync, CallKind::Oneway, CallKind::Collocated, CallKind::CustomMarshal];
        let verdicts = [Verdict::Slow, Verdict::Abnormal, Verdict::Sampled];
        (0..6u64)
            .map(|i| Exemplar {
                id: i,
                chain: Uuid(0xfeed_0000_0000_0000_0000_0000_0000_0000 | (u128::from(i) * 0x1_0001)),
                series: (InterfaceId(i as u32 % 3), MethodIndex((i % 2) as u16)),
                latency_ns: 10_000 * (i + 1),
                window_index: 40 + i / 2,
                verdict: verdicts[i as usize % 3],
                completions: (0..=i % 4)
                    .map(|c| CompletedCall {
                        func: FunctionKey {
                            interface: InterfaceId(i as u32 % 3),
                            method: MethodIndex(c as u16),
                            object: ObjectId(100 + i * 10 + c),
                        },
                        kind: kinds[((i + c) % 4) as usize],
                        depth: c as usize,
                        latency_ns: 10_000 * (i + 1) / (c + 1),
                    })
                    .collect(),
            })
            .collect()
    }

    /// A spill file written by an earlier commit reopens to the
    /// admissions that went in, and the same admissions spill to the same
    /// bytes.
    #[test]
    fn parent_written_spill_reopens_and_rewrites_byte_identically() {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/parent_03ef50a_exemplars.cwexmp");
        let want = std::fs::read(fixture).unwrap();
        // Open a copy: open repairs what it finds, and the fixture stays
        // as it was written.
        let copy = TempSpill::new("parent_fixture");
        std::fs::write(&copy.0, &want).unwrap();
        let (log, frames) = FrameLog::open(&copy.0, SPILL_MAGIC, decode_exemplar).unwrap();
        assert_eq!(log.end(), want.len() as u64, "nothing truncated");
        let reopened: Vec<Exemplar> = frames.into_iter().map(|(_, e)| e).collect();
        assert_eq!(reopened, fixture_exemplars());
        let rewrite = TempSpill::new("parent_rewrite");
        let mut log = FrameLog::create(&rewrite.0, SPILL_MAGIC).unwrap();
        for e in fixture_exemplars() {
            log.append(|buf| encode_exemplar(&e, buf)).unwrap();
        }
        assert!(std::fs::read(&rewrite.0).unwrap() == want, "spill bytes differ from the fixture");
    }

    #[test]
    fn chrome_slices_nest_children_inside_parents() {
        let mut root = call(100);
        root.depth = 0;
        let mut child = call(40);
        child.depth = 1;
        child.func.method = MethodIndex(0);
        let e = Exemplar {
            id: 0,
            chain: Uuid(5),
            series: series(),
            latency_ns: 100,
            window_index: 0,
            verdict: Verdict::Slow,
            // Post-order: child completes before its parent.
            completions: vec![child, root],
        };
        let vocab = VocabSnapshot {
            interfaces: vec![causeway_core::names::InterfaceEntry {
                name: "T::I".to_owned(),
                methods: vec!["m".to_owned()],
            }],
            ..VocabSnapshot::default()
        };
        let json = chrome_slice_json(&e, &vocab);
        let text = json.to_string();
        assert!(text.contains("\"traceEvents\""), "{text}");
        assert!(text.contains("T::I.m"), "{text}");
        // Both slices start at ts 0 (child nested at parent start), parent
        // dur 0.1us * 1000 = 100ns → 0.1µs.
        assert!(text.contains("\"ph\":\"X\""), "{text}");
    }
}
