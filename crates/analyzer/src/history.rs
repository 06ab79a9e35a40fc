//! Retained window history — the "time-travel" layer of the live
//! monitoring service.
//!
//! [`crate::live::LiveMonitor`] keeps exactly one window of state, which
//! answers *is the system slow now* but not *when did it start drifting* or
//! *which causal path regressed*. This module retains a bounded ring of
//! finalized windows:
//!
//! * [`WindowHistory`] — every closed tumbling window's per-series
//!   aggregates plus its folded-stack snapshot, capped both by window count
//!   and by an approximate byte budget, with evictions counted in the
//!   `causeway_live_history_evictions` metric.
//! * [`diff_folded`] — the folded-stack delta between two retained windows,
//!   which renders as a differential flamegraph: the causal path that
//!   regressed between window `a` and window `b` is the top positive line.

use crate::latency::LatencyHistogram;
use crate::window::{SeriesAgg, WindowSnapshot};
use causeway_collector::segment::{FrameLog, FrameRef};
use causeway_core::ids::{InterfaceId, MethodIndex};
use causeway_core::metrics::{Counter, Gauge, MetricsRegistry};
use causeway_core::wire::{put_str, put_u16, put_u32, put_u64, Cursor};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;

/// One finalized tumbling window as retained by the history store.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// The window's per-series aggregates (shared with the live view).
    pub window: WindowSnapshot,
    /// Folded flamegraph stacks (`a;b.c` → self ns) completed *during* this
    /// window — a per-window delta, not the cumulative map.
    pub folded: BTreeMap<String, u64>,
}

impl HistoryEntry {
    /// Approximate heap footprint, for the byte cap. Counts the dominant
    /// payloads (histogram buckets per series, folded stack strings) plus a
    /// flat per-node allowance for map overhead.
    pub fn approx_bytes(&self) -> usize {
        const NODE: usize = 48; // BTreeMap bookkeeping allowance per entry
        let series = self.window.series.len()
            * (std::mem::size_of::<SeriesAgg>() + std::mem::size_of::<(u32, u16)>() + NODE);
        let folded: usize = self
            .folded
            .keys()
            .map(|stack| stack.len() + std::mem::size_of::<u64>() + NODE)
            .sum();
        std::mem::size_of::<HistoryEntry>() + series + folded
    }
}

/// A bounded ring of finalized windows, oldest first.
///
/// Two caps apply independently: at most `cap_windows` entries, and at most
/// `cap_bytes` of approximate retained heap. Whichever bites first evicts
/// from the oldest end; every eviction increments the
/// `causeway_live_history_evictions` counter so an operator can tell the
/// difference between "never happened" and "already aged out".
#[derive(Debug)]
pub struct WindowHistory {
    ring: VecDeque<HistoryEntry>,
    cap_windows: usize,
    cap_bytes: usize,
    bytes: usize,
    spill: Option<HistorySpill>,
    evictions: Counter,
    spilled: Counter,
    spill_errors: Counter,
    retained: Gauge,
    retained_bytes: Gauge,
}

impl WindowHistory {
    /// Creates an empty store capped at `cap_windows` entries and
    /// `cap_bytes` of approximate memory (both at least 1), publishing its
    /// `causeway_live_history_*` series to `registry`.
    pub fn new(cap_windows: usize, cap_bytes: usize, registry: &MetricsRegistry) -> WindowHistory {
        WindowHistory {
            ring: VecDeque::new(),
            cap_windows: cap_windows.max(1),
            cap_bytes: cap_bytes.max(1),
            bytes: 0,
            spill: None,
            evictions: registry.counter(
                "causeway_live_history_evictions",
                "History windows evicted by the count or byte cap.",
            ),
            spilled: registry.counter(
                "causeway_live_history_spilled",
                "Evicted history windows appended to the spill segment.",
            ),
            spill_errors: registry.counter(
                "causeway_live_history_spill_errors",
                "Evicted history windows lost to spill write failures.",
            ),
            retained: registry.gauge(
                "causeway_live_history_windows",
                "Finalized windows currently retained by the history store.",
            ),
            retained_bytes: registry.gauge(
                "causeway_live_history_bytes",
                "Approximate heap retained by the window history store.",
            ),
        }
    }

    /// Attaches a disk spill segment at `path`: from now on every entry
    /// evicted by [`WindowHistory::push`] is appended there before it is
    /// dropped, and [`WindowHistory::lookup`] serves spilled windows back.
    /// An existing spill file is reopened — its index is rebuilt by
    /// scanning, and a torn tail (crashed writer) is truncated away.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure when the file cannot be created, scanned,
    /// or repositioned.
    pub fn enable_spill(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        self.spill = Some(HistorySpill::open(path)?);
        Ok(())
    }

    /// The attached spill segment, if any.
    pub fn spill(&self) -> Option<&HistorySpill> {
        self.spill.as_ref()
    }

    /// Appends a finalized window, evicting from the oldest end until both
    /// caps hold again. Evicted entries are appended to the spill segment
    /// when one is attached; a failed spill write counts in
    /// `causeway_live_history_spill_errors` and the entry is dropped.
    pub fn push(&mut self, entry: HistoryEntry) {
        self.bytes += entry.approx_bytes();
        self.ring.push_back(entry);
        while self.ring.len() > self.cap_windows
            || (self.bytes > self.cap_bytes && self.ring.len() > 1)
        {
            let evicted = self.ring.pop_front().expect("len checked");
            self.bytes = self.bytes.saturating_sub(evicted.approx_bytes());
            self.evictions.inc();
            if let Some(spill) = self.spill.as_mut() {
                match spill.append(&evicted) {
                    Ok(()) => self.spilled.inc(),
                    Err(_) => self.spill_errors.inc(),
                };
            }
        }
        self.retained.set(self.ring.len() as i64);
        self.retained_bytes.set(self.bytes as i64);
    }

    /// The retained entry for tumbling window ordinal `index`, if it has
    /// closed and has not been evicted.
    pub fn get(&self, index: u64) -> Option<&HistoryEntry> {
        // Ordinals are contiguous within the ring; index from the back.
        let newest = self.ring.back()?.window.index;
        let offset = newest.checked_sub(index)?;
        if offset as usize >= self.ring.len() {
            return None;
        }
        self.ring.get(self.ring.len() - 1 - offset as usize)
    }

    /// The entry for tumbling window ordinal `index`, looking past the ring
    /// into the spill segment: retained entries are borrowed, spilled ones
    /// are read back from disk and owned. `None` when the window never
    /// closed, was evicted before a spill was attached, or its spill frame
    /// cannot be read back intact.
    pub fn lookup(&self, index: u64) -> Option<Cow<'_, HistoryEntry>> {
        if let Some(entry) = self.get(index) {
            return Some(Cow::Borrowed(entry));
        }
        self.spill.as_ref()?.get(index).map(Cow::Owned)
    }

    /// The entries for ordinals `from..=to` (oldest first, at most `max`),
    /// served from the ring and the spill segment combined. Ordinals that
    /// resolve nowhere are skipped.
    ///
    /// The bounds are clamped to the ordinals the store has ever seen and
    /// the scan itself is capped at `max` ordinals — callers pass
    /// client-supplied bounds straight in (the `/history` endpoint), and an
    /// unclamped `from..=to` over a hostile span would spin for ~2^64
    /// iterations while the caller holds the monitor lock.
    pub fn range(&self, from: u64, to: u64, max: usize) -> Vec<HistoryEntry> {
        let oldest = [
            self.ring.front().map(|e| e.window.index),
            self.spill.as_ref().and_then(|s| s.min_index()),
        ];
        let newest = [
            self.ring.back().map(|e| e.window.index),
            self.spill.as_ref().and_then(|s| s.max_index()),
        ];
        let (Some(oldest), Some(newest)) = (
            oldest.into_iter().flatten().min(),
            newest.into_iter().flatten().max(),
        ) else {
            return Vec::new();
        };
        let from = from.max(oldest);
        let to = to.min(newest);
        if from > to || max == 0 {
            return Vec::new();
        }
        let to = to.min(from.saturating_add(max as u64 - 1));
        let mut out = Vec::new();
        for index in from..=to {
            if let Some(entry) = self.lookup(index) {
                out.push(entry.into_owned());
            }
        }
        out
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<&HistoryEntry> {
        self.ring.back()
    }

    /// The newest ordinal still resolvable (ring or spill) that is at or
    /// before `ordinal` — how an incident finds its pre-breach baseline
    /// window even when the ideal candidate already aged out of the ring
    /// (or of both tiers, in which case the nearest older survivor wins).
    pub fn newest_at_or_before(&self, ordinal: u64) -> Option<u64> {
        let in_ring = self
            .ring
            .iter()
            .rev()
            .map(|e| e.window.index)
            .find(|i| *i <= ordinal);
        let in_spill = self
            .spill
            .as_ref()
            .and_then(|s| s.index.range(..=ordinal).next_back().map(|(i, _)| *i));
        in_ring.into_iter().chain(in_spill).max()
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &HistoryEntry> + ExactSizeIterator {
        self.ring.iter()
    }

    /// Retained window count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no window has closed yet (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured window-count cap.
    pub fn cap_windows(&self) -> usize {
        self.cap_windows
    }

    /// The configured approximate byte cap.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Approximate retained heap (always ≤ the byte cap after a push, save
    /// for a single over-budget entry which is retained alone).
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Windows evicted so far (count + byte cap combined).
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Evicted windows successfully appended to the spill segment.
    pub fn spilled(&self) -> u64 {
        self.spilled.get()
    }

    /// Evicted windows lost to spill write failures.
    pub fn spill_errors(&self) -> u64 {
        self.spill_errors.get()
    }
}

/// Magic prefix of a history spill segment file.
pub const SPILL_MAGIC: &[u8; 8] = b"CWHIST1\n";

/// An append-only disk segment of evicted [`HistoryEntry`] values — the
/// overflow tier under [`WindowHistory`]'s in-memory ring.
///
/// The file is a [`FrameLog`] (the collector's segment framing): an 8-byte
/// magic, then one length-prefixed CRC-checksummed frame per evicted
/// window, each payload a self-contained encoding of the entry (aggregates
/// with sparse histogram buckets, plus the folded-stack map). Every
/// append is on disk before it returns, a failed one leaves no trace, and
/// a torn tail from a crashed writer is truncated on reopen, exactly like
/// run-log recovery. An in-memory `ordinal → frame` index makes each
/// lookup one checksum-verified read through the log's open handle.
#[derive(Debug)]
pub struct HistorySpill {
    log: FrameLog,
    /// Window ordinal → where its frame sits in the log.
    index: BTreeMap<u64, FrameRef>,
}

impl HistorySpill {
    /// Creates the spill file at `path`, or reopens an existing one:
    /// complete frames are indexed, a torn tail is truncated away, and new
    /// appends continue after the last complete frame.
    ///
    /// # Errors
    ///
    /// Refuses (`InvalidData`) a path holding non-empty data that is not a
    /// spill segment — a mistyped path must not destroy an unrelated file.
    /// Only missing, empty, or magic-prefixed files are (re)created.
    /// Otherwise propagates file create/read/truncate failures.
    pub fn open(path: impl AsRef<Path>) -> io::Result<HistorySpill> {
        let (log, frames) = FrameLog::open(path, SPILL_MAGIC, decode_entry)?;
        let index = frames.into_iter().map(|(at, entry)| (entry.window.index, at)).collect();
        Ok(HistorySpill { log, index })
    }

    /// Appends one evicted entry as a checksummed frame, on disk before
    /// the in-memory copy is dropped.
    ///
    /// # Errors
    ///
    /// Propagates the write failure; the file, its end and the index are
    /// then as they were before the call.
    pub fn append(&mut self, entry: &HistoryEntry) -> io::Result<()> {
        let at = self.log.append(|buf| encode_entry(entry, buf))?;
        self.index.insert(entry.window.index, at);
        Ok(())
    }

    /// Reads one spilled window back, verifying its frame checksum. `None`
    /// when the ordinal was never spilled or the frame no longer reads back
    /// intact (truncated or damaged since).
    pub fn get(&self, window: u64) -> Option<HistoryEntry> {
        decode_entry(&self.log.read(*self.index.get(&window)?)?)
    }

    /// `true` when ordinal `window` has a spilled frame.
    pub fn contains(&self, window: u64) -> bool {
        self.index.contains_key(&window)
    }

    /// Spilled window count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when nothing has spilled yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The oldest spilled ordinal.
    pub fn min_index(&self) -> Option<u64> {
        self.index.keys().next().copied()
    }

    /// The newest spilled ordinal.
    pub fn max_index(&self) -> Option<u64> {
        self.index.keys().next_back().copied()
    }

    /// Bytes in the spill file (magic + complete frames).
    pub fn bytes(&self) -> u64 {
        self.log.end()
    }

    /// The spill file's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

// --- HistoryEntry wire codec (spill frame payloads) ---------------------

/// Encodes one entry as a spill frame payload into `buf`: window scalars,
/// then each series (key, calls, latency sum, sparse histogram buckets),
/// then the folded-stack map. All integers little-endian, strings UTF-8
/// length-prefixed — self-contained and byte-stable for a given entry.
fn encode_entry(entry: &HistoryEntry, buf: &mut Vec<u8>) {
    let w = &entry.window;
    put_u64(buf, w.index);
    put_u64(buf, w.span_ns);
    put_u64(buf, w.completed_calls);
    put_u64(buf, w.abnormalities);
    put_u32(buf, w.series.len() as u32);
    for ((iface, method), agg) in &w.series {
        put_u32(buf, iface.0);
        put_u16(buf, method.0);
        put_u64(buf, agg.calls);
        put_u64(buf, agg.latency_sum_ns);
        let occupied: Vec<(usize, u64)> = agg.hist.occupied_buckets().collect();
        buf.push(occupied.len() as u8); // at most 64 buckets
        for (i, n) in occupied {
            buf.push(i as u8);
            put_u64(buf, n);
        }
    }
    put_u32(buf, entry.folded.len() as u32);
    for (stack, self_ns) in &entry.folded {
        put_str(buf, stack);
        put_u64(buf, *self_ns);
    }
}

/// Decodes a spill frame payload written by [`encode_entry`]. `None` on
/// any structural mismatch (short payload, bad UTF-8, trailing bytes).
fn decode_entry(payload: &[u8]) -> Option<HistoryEntry> {
    let mut r = Cursor::new(payload);
    let index = r.u64()?;
    let span_ns = r.u64()?;
    let completed_calls = r.u64()?;
    let abnormalities = r.u64()?;
    let series_len = r.u32()? as usize;
    let mut series = BTreeMap::new();
    for _ in 0..series_len {
        let iface = InterfaceId(r.u32()?);
        let method = MethodIndex(r.u16()?);
        let calls = r.u64()?;
        let latency_sum_ns = r.u64()?;
        let occupied = r.u8()? as usize;
        let mut hist = LatencyHistogram::new();
        for _ in 0..occupied {
            let bucket = r.u8()? as usize;
            let count = r.u64()?;
            if bucket >= 64 || count == 0 {
                return None;
            }
            hist.add_bucket_count(bucket, count);
        }
        series.insert((iface, method), SeriesAgg { calls, latency_sum_ns, hist });
    }
    let folded_len = r.u32()? as usize;
    let mut folded = BTreeMap::new();
    for _ in 0..folded_len {
        let stack = r.str()?.to_owned();
        let self_ns = r.u64()?;
        folded.insert(stack, self_ns);
    }
    if !r.is_done() {
        return None;
    }
    Some(HistoryEntry {
        window: WindowSnapshot { index, span_ns, series, completed_calls, abnormalities },
        folded,
    })
}

/// The folded-stack delta `b − a` between two windows, largest regression
/// first (ties broken by stack name). Stacks present in only one window
/// count with the other side as zero; exact zero deltas are dropped.
///
/// Self-time totals are `u64` nanoseconds, so the true delta spans
/// ±`u64::MAX` — wider than `i64`. Deltas are accumulated and *ordered* in
/// `i128` and only saturated to `i64` at the output boundary, so an extreme
/// regression sorts first as `i64::MAX` instead of wrapping negative.
pub fn diff_folded(
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
) -> Vec<(String, i64)> {
    let mut deltas: BTreeMap<&str, i128> = BTreeMap::new();
    for (stack, &ns) in a {
        *deltas.entry(stack).or_insert(0) -= ns as i128;
    }
    for (stack, &ns) in b {
        *deltas.entry(stack).or_insert(0) += ns as i128;
    }
    let mut wide: Vec<(&str, i128)> = deltas
        .into_iter()
        .filter(|(_, delta)| *delta != 0)
        .collect();
    wide.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(y.0)));
    wide.into_iter()
        .map(|(stack, delta)| {
            let clamped = delta.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
            (stack.to_owned(), clamped)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::fs::OpenOptions;

    fn snapshot(index: u64, p_latency_ns: u64, calls: u64) -> WindowSnapshot {
        let mut series = BTreeMap::new();
        let mut agg = SeriesAgg::default();
        for _ in 0..calls {
            agg.record(p_latency_ns);
        }
        series.insert(
            (causeway_core::ids::InterfaceId(0), causeway_core::ids::MethodIndex(0)),
            agg,
        );
        WindowSnapshot {
            index,
            span_ns: 1_000_000_000,
            series,
            completed_calls: calls,
            abnormalities: 0,
        }
    }

    fn entry(index: u64, latency_ns: u64) -> HistoryEntry {
        let mut folded = BTreeMap::new();
        folded.insert(format!("root;w{index}"), latency_ns);
        HistoryEntry { window: snapshot(index, latency_ns, 4), folded }
    }

    #[test]
    fn ring_caps_by_window_count_and_counts_evictions() {
        let registry = MetricsRegistry::new();
        let mut history = WindowHistory::new(4, usize::MAX, &registry);
        for i in 0..10u64 {
            history.push(entry(i, 1000));
        }
        assert_eq!(history.len(), 4);
        assert_eq!(history.evictions(), 6);
        assert_eq!(registry.counter_value("causeway_live_history_evictions"), Some(6));
        assert_eq!(registry.gauge_value("causeway_live_history_windows"), Some(4));
        assert!(history.get(5).is_none(), "evicted ordinal");
        assert_eq!(history.get(9).unwrap().window.index, 9);
        assert_eq!(history.get(6).unwrap().window.index, 6);
        assert!(history.get(10).is_none(), "not yet closed");
    }

    #[test]
    fn ring_caps_by_bytes() {
        let one = entry(0, 1000).approx_bytes();
        // Room for roughly three entries; the count cap would allow eight.
        let mut history = WindowHistory::new(8, one * 3 + one / 2, &MetricsRegistry::new());
        for i in 0..8u64 {
            history.push(entry(i, 1000));
        }
        assert!(history.len() < 8, "byte cap bites first: {}", history.len());
        assert!(history.approx_bytes() <= history.cap_bytes());
    }

    /// A unique temp path that cleans itself up when the test ends.
    struct TempSpill(std::path::PathBuf);

    impl TempSpill {
        fn new(tag: &str) -> TempSpill {
            TempSpill(std::env::temp_dir().join(format!(
                "causeway_history_spill_{tag}_{}.cwhist",
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
    fn spill_entry_codec_round_trips() {
        let mut e = entry(42, 123_456);
        e.window.series.entry((causeway_core::ids::InterfaceId(3), causeway_core::ids::MethodIndex(1))).or_default().record(77);
        e.folded.insert("root;deep;frame".to_owned(), u64::MAX);
        let mut payload = Vec::new();
        encode_entry(&e, &mut payload);
        assert_eq!(decode_entry(&payload), Some(e));
        // Every strict prefix is structurally short — never a panic, never
        // a partially-decoded entry.
        for cut in 0..payload.len() {
            assert_eq!(decode_entry(&payload[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn eviction_spills_and_lookup_serves_past_the_ring() {
        let spill = TempSpill::new("evict");
        let registry = MetricsRegistry::new();
        let mut history = WindowHistory::new(4, usize::MAX, &registry);
        history.enable_spill(&spill.0).unwrap();
        for i in 0..10u64 {
            history.push(entry(i, 1000 + i));
        }
        assert_eq!(history.len(), 4, "ring still caps at 4");
        assert_eq!(history.spilled(), 6, "six evictions spilled");
        assert_eq!(registry.counter_value("causeway_live_history_spilled"), Some(6));
        assert_eq!(history.spill().unwrap().len(), 6);
        assert_eq!(history.spill().unwrap().min_index(), Some(0));
        assert_eq!(history.spill().unwrap().max_index(), Some(5));
        // Evicted ordinals come back from disk, identical to what went in.
        for i in 0..6u64 {
            assert!(history.get(i).is_none(), "ordinal {i} left the ring");
            let restored = history.lookup(i).expect("served from spill");
            assert_eq!(*restored, entry(i, 1000 + i), "ordinal {i}");
        }
        // Ring ordinals are still served without touching the disk.
        assert!(matches!(history.lookup(9), Some(Cow::Borrowed(_))));
        assert!(history.lookup(10).is_none(), "never closed");
        // Range queries stitch both tiers, oldest first.
        let range = history.range(0, 9, 100);
        assert_eq!(range.len(), 10);
        for (i, e) in range.iter().enumerate() {
            assert_eq!(e.window.index, i as u64);
        }
        assert_eq!(history.range(0, 9, 3).len(), 3, "max caps the fetch");
    }

    #[test]
    fn range_clamps_hostile_bounds_to_known_ordinals() {
        // An empty store answers instantly whatever the bounds.
        let empty = WindowHistory::new(4, usize::MAX, &MetricsRegistry::new());
        assert!(empty.range(0, u64::MAX, 100).is_empty());
        let spill = TempSpill::new("hostile_range");
        let mut history = WindowHistory::new(4, usize::MAX, &MetricsRegistry::new());
        history.enable_spill(&spill.0).unwrap();
        for i in 0..10u64 {
            history.push(entry(i, 1000 + i));
        }
        // The full-u64 span a client can request must finish promptly (it
        // previously iterated every ordinal in from..=to) and still serve
        // the real windows, oldest first and capped at `max`.
        let all = history.range(0, u64::MAX, 100);
        assert_eq!(all.len(), 10);
        let capped = history.range(0, u64::MAX, 5);
        assert_eq!(capped.len(), 5);
        assert_eq!(capped[0].window.index, 0);
        assert_eq!(capped[4].window.index, 4);
        // Bounds entirely outside the known ordinals resolve to nothing.
        assert!(history.range(10, u64::MAX, 100).is_empty());
        assert!(history.range(u64::MAX, 0, 100).is_empty());
    }

    #[test]
    fn range_serves_spill_only_stores_after_a_restart() {
        let spill = TempSpill::new("restart_range");
        {
            let mut s = HistorySpill::open(&spill.0).unwrap();
            for i in 3..7u64 {
                s.append(&entry(i, 4000 + i)).unwrap();
            }
        }
        // A fresh store (empty ring) reattached to the old spill file must
        // still serve the spilled ordinals through range().
        let mut history = WindowHistory::new(4, usize::MAX, &MetricsRegistry::new());
        history.enable_spill(&spill.0).unwrap();
        assert!(history.is_empty());
        let served = history.range(0, u64::MAX, 100);
        assert_eq!(served.len(), 4);
        assert_eq!(served[0].window.index, 3);
        assert_eq!(served[3].window.index, 6);
    }

    #[test]
    fn spill_open_refuses_to_overwrite_foreign_files() {
        let spill = TempSpill::new("foreign");
        std::fs::write(&spill.0, b"important unrelated data").unwrap();
        let err = HistorySpill::open(&spill.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            std::fs::read(&spill.0).unwrap(),
            b"important unrelated data",
            "the foreign file is untouched"
        );
        // Empty files are fair game — they carry nothing to destroy.
        std::fs::write(&spill.0, b"").unwrap();
        let mut s = HistorySpill::open(&spill.0).unwrap();
        s.append(&entry(0, 1)).unwrap();
        assert_eq!(s.get(0), Some(entry(0, 1)));
    }

    #[test]
    fn spill_reopen_rebuilds_index_and_truncates_torn_tail() {
        let spill = TempSpill::new("reopen");
        {
            let mut s = HistorySpill::open(&spill.0).unwrap();
            for i in 0..5u64 {
                s.append(&entry(i, 2000 + i)).unwrap();
            }
        }
        // A crashed writer leaves a torn frame at the tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&spill.0).unwrap();
            f.write_all(&[0x55, 0xAA, 0x00, 0x99, 0x12]).unwrap();
        }
        let torn_len = std::fs::metadata(&spill.0).unwrap().len();
        let reopened = HistorySpill::open(&spill.0).unwrap();
        assert_eq!(reopened.len(), 5, "all complete frames survive");
        assert_eq!(reopened.get(3), Some(entry(3, 2003)));
        assert_eq!(reopened.bytes(), torn_len - 5, "torn tail truncated");
        assert_eq!(std::fs::metadata(&spill.0).unwrap().len(), reopened.bytes());
        // And the reopened writer appends cleanly after the repair.
        let mut reopened = reopened;
        reopened.append(&entry(5, 2005)).unwrap();
        assert_eq!(reopened.get(5), Some(entry(5, 2005)));
    }

    /// Windows 3–8 of the parent-written spill fixture: one to three
    /// series each with a sparse latency histogram, and a folded map of
    /// one to four stacks.
    fn fixture_entry(index: u64) -> HistoryEntry {
        let mut series = BTreeMap::new();
        for s in 0..index % 3 + 1 {
            let mut agg = SeriesAgg::default();
            for k in 0..index + s {
                agg.record(1_000 * (k + 1) * (s + 1) * index + k * 37);
            }
            series.insert((InterfaceId(s as u32), MethodIndex((index % 2) as u16)), agg);
        }
        let mut folded = BTreeMap::new();
        for d in 0..index % 4 + 1 {
            folded.insert(format!("root;stage{d};w{index}"), index * 1_000 + d);
        }
        HistoryEntry {
            window: WindowSnapshot {
                index,
                span_ns: 1_000_000_000,
                series,
                completed_calls: index * 10,
                abnormalities: index % 2,
            },
            folded,
        }
    }

    /// A spill file written by an earlier commit reopens to the entries
    /// that went in, and the same entries spill to the same bytes.
    #[test]
    fn parent_written_spill_reopens_and_rewrites_byte_identically() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/parent_03ef50a_history.cwhist");
        let want = std::fs::read(fixture).unwrap();
        // Open a copy: open repairs what it finds, and the fixture stays
        // as it was written.
        let copy = TempSpill::new("parent_fixture");
        std::fs::write(&copy.0, &want).unwrap();
        let reopened = HistorySpill::open(&copy.0).unwrap();
        assert_eq!(reopened.len(), 6);
        assert_eq!(reopened.bytes(), want.len() as u64, "nothing truncated");
        for i in 3..=8u64 {
            assert_eq!(reopened.get(i), Some(fixture_entry(i)), "window {i}");
        }
        let rewrite = TempSpill::new("parent_rewrite");
        let mut spill = HistorySpill::open(&rewrite.0).unwrap();
        for i in 3..=8u64 {
            spill.append(&fixture_entry(i)).unwrap();
        }
        assert!(std::fs::read(&rewrite.0).unwrap() == want, "spill bytes differ from the fixture");
    }

    #[test]
    fn folded_diff_orders_regressions_first() {
        let mut a = BTreeMap::new();
        a.insert("root;fast".to_owned(), 100u64);
        a.insert("root;gone".to_owned(), 40u64);
        let mut b = BTreeMap::new();
        b.insert("root;fast".to_owned(), 5_000u64);
        b.insert("root;new".to_owned(), 70u64);
        let diff = diff_folded(&a, &b);
        assert_eq!(diff[0], ("root;fast".to_owned(), 4_900));
        assert_eq!(diff[1], ("root;new".to_owned(), 70));
        assert_eq!(diff[2], ("root;gone".to_owned(), -40));
    }

    #[test]
    fn folded_diff_saturates_instead_of_wrapping_at_the_i64_boundary() {
        // A u64::MAX-sized regression does not fit in i64; it must sort
        // first and clamp to i64::MAX, not wrap to -1.
        let mut a = BTreeMap::new();
        a.insert("root;huge".to_owned(), 0u64);
        a.insert("root;drop".to_owned(), u64::MAX);
        let mut b = BTreeMap::new();
        b.insert("root;huge".to_owned(), u64::MAX);
        b.insert("root;small".to_owned(), 3u64);
        let diff = diff_folded(&a, &b);
        assert_eq!(diff[0], ("root;huge".to_owned(), i64::MAX));
        assert_eq!(diff[1], ("root;small".to_owned(), 3));
        assert_eq!(diff[2], ("root;drop".to_owned(), i64::MIN));
        // Equal huge values cancel exactly — no residue from clamping.
        assert!(diff_folded(&b, &b).is_empty());
    }
}
