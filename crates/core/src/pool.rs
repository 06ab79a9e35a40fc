//! Scoped worker pool for the sharded offline-analysis pipeline.
//!
//! Per-chain reconstruction is embarrassingly parallel once records are
//! partitioned by causal identity — the FTL's Function UUID *is* the shard
//! key (cf. Nazarpour et al., "Monitoring Distributed Component-Based
//! Systems"). This module provides the one primitive every parallel pass
//! shares: map a work list across a small pool of `std::thread::scope`
//! workers and hand the results back **in input order**, so callers can
//! merge shard outputs deterministically and produce bit-identical results
//! at any thread count.
//!
//! No external dependencies: plain scoped threads with an atomic work
//! cursor (dynamic scheduling, so a few oversized shards — e.g. one huge
//! causal chain — do not serialize the sweep).
//!
//! The pool size defaults to the machine's available parallelism and can be
//! pinned with the `CAUSEWAY_ANALYZER_THREADS` environment variable (the
//! `causeway_analyze` CLI exposes it as `--threads`).

use crate::sync::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable pinning the analysis worker-pool size.
pub const THREADS_ENV: &str = "CAUSEWAY_ANALYZER_THREADS";

/// The machine's available parallelism (1 when it cannot be queried).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The configured worker-pool size: [`THREADS_ENV`] when set to a positive
/// integer, otherwise [`available_threads`].
pub fn configured_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(available_threads),
        Err(_) => available_threads(),
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning the
/// results in input order.
///
/// Scheduling is dynamic (an atomic cursor hands out one item at a time),
/// so skewed work lists still balance; the reassembly step restores input
/// order, which is what makes parallel analysis passes merge-deterministic.
/// With `threads <= 1` (or a single item) the map runs inline on the
/// caller's thread — no pool, no overhead.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("analysis worker panicked"))
            .collect()
    });
    // Reassemble in input order.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Like [`par_map`] but consumes the work list, handing each item to `f` by
/// value. Results come back in input order.
pub fn par_map_vec<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let taken = par_map(&slots, threads, |slot| {
        let item = slot.lock().take().expect("each slot is taken exactly once");
        f(item)
    });
    taken
}

/// Builds one partial result per contiguous range covering `0..len` — one
/// range when `threads <= 1`, otherwise about four per worker — on up to
/// `threads` workers, then folds the partials into the first with `merge`,
/// in range order. A pass whose merge appends in order therefore reproduces
/// its serial result at any thread count, while building a handful of
/// partials instead of one per item.
pub fn fold_ranges<R, F, M>(len: usize, threads: usize, part: F, mut merge: M) -> R
where
    R: Send + Default,
    F: Fn(Range<usize>) -> R + Sync,
    M: FnMut(&mut R, R),
{
    let parts = if threads <= 1 { 1 } else { (threads * 4).min(len).max(1) };
    let ranges: Vec<Range<usize>> =
        (0..parts).map(|i| i * len / parts..(i + 1) * len / parts).collect();
    let mut partials = par_map(&ranges, threads, |range| part(range.clone())).into_iter();
    let mut folded = partials.next().unwrap_or_default();
    for partial in partials {
        merge(&mut folded, partial);
    }
    folded
}

/// Runs `f` on every element of a mutable slice across up to `threads`
/// scoped workers (contiguous static partitioning — each worker owns a
/// disjoint sub-slice).
pub fn par_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        for item in items.iter_mut() {
            f(item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for part in items.chunks_mut(chunk) {
            scope.spawn(move || {
                for item in part {
                    f(item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map(&items, threads, |&i| i * 3);
            assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_vec_consumes_and_preserves_order() {
        let items: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let out = par_map_vec(items.clone(), 4, |s| format!("{s}!"));
        assert_eq!(out.len(), 100);
        assert_eq!(out[0], "0!");
        assert_eq!(out[99], "99!");
    }

    #[test]
    fn fold_ranges_covers_the_input_in_order() {
        for len in [0usize, 1, 3, 10, 257] {
            for threads in [1, 2, 3, 7] {
                let mut partials = 1;
                let folded = fold_ranges(
                    len,
                    threads,
                    |range| range.collect::<Vec<_>>(),
                    |folded, partial| {
                        partials += 1;
                        folded.extend(partial);
                    },
                );
                assert_eq!(folded, (0..len).collect::<Vec<_>>(), "{len} {threads}");
                assert_eq!(partials == 1, threads == 1 || len <= 1, "{len} {threads}");
            }
        }
    }

    #[test]
    fn par_for_each_mut_touches_every_element() {
        let mut items: Vec<u64> = vec![1; 257];
        par_for_each_mut(&mut items, 4, |v| *v += 1);
        assert!(items.iter().all(|&v| v == 2));
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&v| v).is_empty());
        assert_eq!(par_map(&[7u32], 8, |&v| v + 1), vec![8]);
        assert!(par_map_vec(Vec::<u32>::new(), 8, |v| v).is_empty());
    }

    #[test]
    fn skewed_work_still_completes() {
        // One huge item among many tiny ones (dynamic scheduling).
        let items: Vec<usize> = (0..64).map(|i| if i == 0 { 100_000 } else { 10 }).collect();
        let sums = par_map(&items, 4, |&n| (0..n as u64).sum::<u64>());
        assert_eq!(sums.len(), 64);
        assert_eq!(sums[1], 45);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
        assert!(available_threads() >= 1);
    }
}
