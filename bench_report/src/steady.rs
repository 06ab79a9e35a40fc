//! What the operator pays: an open-loop pusher at one fixed rate, the
//! `examples/online_monitor.rs` loop (drain → segment append → windowed
//! ingest) on its own thread, and one poller reading the real HTTP
//! endpoint. The only stage that crosses every live layer, disk and
//! socket included.

use crate::span::span;
use causeway_analyzer::live::{serve, LiveConfig, LiveMonitor};
use causeway_collector::json;
use causeway_collector::segment::{self, SegmentWriter};
use causeway_core::deploy::Deployment;
use causeway_core::names::VocabSnapshot;
use causeway_core::record::ProbeRecord;
use causeway_core::sink::LogStore;
use causeway_workloads::Arrivals;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the monitor thread sleeps between drains, as the example does.
pub const DRAIN_INTERVAL: Duration = Duration::from_millis(5);
/// The poller issues one GET per interval.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Longest the pusher sleeps when nothing is due.
const PUSH_TICK: Duration = Duration::from_micros(200);

/// The operator's routes. The series index comes round every second
/// request, because it is the response freshness is read from.
pub const ROUTES: [(&str, &str); 7] = [
    ("latency", "/latency"),
    ("latency_iface", "/latency?iface=Pps::Stage"),
    ("metrics", "/metrics"),
    ("healthz", "/healthz"),
    ("history", "/history"),
    ("exemplars", "/exemplars"),
    ("flamegraph", "/flamegraph"),
];
/// Span names of the poller's round trips, indexed like [`ROUTES`].
pub const ROUTE_SPANS: [&str; 7] = [
    "core::httpd GET /latency",
    "core::httpd GET /latency?iface=",
    "core::httpd GET /metrics",
    "core::httpd GET /healthz",
    "core::httpd GET /history",
    "core::httpd GET /exemplars",
    "core::httpd GET /flamegraph",
];

fn poll_cycle(i: usize) -> usize {
    if i.is_multiple_of(2) {
        0
    } else {
        1 + (i / 2) % (ROUTES.len() - 1)
    }
}

pub struct SteadyInput {
    /// Single-call chains, pushed in order, one list per segment of the
    /// stage.
    pub segments: Vec<Vec<Vec<ProbeRecord>>>,
    pub vocab: VocabSnapshot,
    pub deployment: Deployment,
}

/// What every segment run so far measured, pooled.
pub struct SteadyResult {
    /// Response receipt minus push stamp of the newest counted call, ms.
    pub freshness_ms: Vec<f64>,
    /// Round-trip samples per route, ms, indexed like [`ROUTES`].
    pub roundtrip_ms: Vec<Vec<f64>>,
    pub response_bytes: Vec<u64>,
    pub non_200: u64,
    pub polls: u64,
    /// How late each call was pushed against its schedule, ms.
    pub lateness_ms: Vec<f64>,
    /// `LogStore::len()` at every drain.
    pub backlog: Vec<f64>,
    /// Growth of that backlog over each segment, records per second.
    pub backlog_slopes: Vec<f64>,
    /// Share of each segment the monitor thread spent not sleeping.
    pub monitor_busy_shares: Vec<f64>,
    /// Chunks the monitor thread drained from the sink.
    pub chunks: u64,
    pub pushed_calls: u64,
    pub counted_calls: u64,
    pub appended_records: u64,
    pub segment_bytes: u64,
    pub problems: Vec<String>,
}

/// One `GET`; returns status and body.
pub fn http_get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        conn,
        "GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, body)| body)
        .to_owned();
    Ok((status, body))
}

/// Calls the unfiltered `/latency` body counts across `known_series`.
pub fn counted_calls(body: &str) -> Option<u64> {
    let doc = json::parse(body).ok()?;
    let series = doc.get("known_series")?.as_arr()?;
    series.iter().map(|s| s.get("calls")?.as_u64()).sum()
}

/// Staleness of a poll: when the response arrived minus when the newest
/// call it counts was pushed. `None` while nothing is counted yet.
pub fn staleness_ms(
    receipt_ns: u64,
    counted: u64,
    push_stamp_ns: impl Fn(u64) -> u64,
) -> Option<f64> {
    let newest = counted.checked_sub(1)?;
    Some(receipt_ns.saturating_sub(push_stamp_ns(newest)) as f64 / 1e6)
}

/// Least-squares slope of `(x, y)` points; 0 with fewer than two.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let var: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if var == 0.0 {
        return 0.0;
    }
    points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / var
}

pub fn live_config() -> LiveConfig {
    LiveConfig {
        window: Duration::from_millis(250),
        ..LiveConfig::default()
    }
}

pub const DEFAULT_RULE: &str = "p95>400us;resolve=200us";

impl SteadyResult {
    pub fn new() -> SteadyResult {
        SteadyResult {
            freshness_ms: Vec::new(),
            roundtrip_ms: vec![Vec::new(); ROUTES.len()],
            response_bytes: vec![0; ROUTES.len()],
            non_200: 0,
            polls: 0,
            lateness_ms: Vec::new(),
            backlog: Vec::new(),
            backlog_slopes: Vec::new(),
            monitor_busy_shares: Vec::new(),
            chunks: 0,
            pushed_calls: 0,
            counted_calls: 0,
            appended_records: 0,
            segment_bytes: 0,
            problems: Vec::new(),
        }
    }
}

/// One segment: pushes every call at `rate_per_s` into a fresh sink,
/// monitor and segment file, polls, then quiesces and checks that every
/// record pushed is on disk and counted. Adds what it measured to
/// `result`.
pub fn run(
    calls: Vec<Vec<ProbeRecord>>,
    vocab: &VocabSnapshot,
    deployment: &Deployment,
    rate_per_s: f64,
    segment_path: &Path,
    result: &mut SteadyResult,
) {
    let records_per_call = calls.first().map_or(0, Vec::len) as u64;
    let pushed_calls = calls.len() as u64;
    let schedule = Arrivals::Steady {
        rate_per_sec: rate_per_s,
        count: calls.len(),
    }
    .schedule();
    let push_stamps: Vec<AtomicU64> = (0..calls.len()).map(|_| AtomicU64::new(0)).collect();

    let store = LogStore::new();
    let monitor = Arc::new(LiveMonitor::new(
        live_config(),
        vocab.clone(),
        deployment.clone(),
    ));
    monitor
        .add_rule_spec(DEFAULT_RULE)
        .expect("the example's alert rule parses");
    let service = serve(Arc::clone(&monitor), "127.0.0.1:0").expect("bind the status endpoint");
    let addr = service.local_addr();
    let mut writer = SegmentWriter::create(segment_path, vocab, deployment, None)
        .expect("create the segment file");

    let pushing = AtomicBool::new(true);
    let draining = AtomicBool::new(true);
    result.pushed_calls += pushed_calls;
    let started = Instant::now();
    let now_ns = || started.elapsed().as_nanos() as u64;
    let mut appended = 0;

    std::thread::scope(|scope| {
        let pusher = scope.spawn(|| {
            let mut lateness_ms = Vec::with_capacity(calls.len());
            for ((due, call), stamp) in schedule.iter().zip(calls).zip(&push_stamps) {
                loop {
                    let now = started.elapsed();
                    if now >= *due {
                        break;
                    }
                    std::thread::sleep((*due - now).min(PUSH_TICK));
                }
                // No span here: one per call would be tens of thousands a
                // second.
                for record in call {
                    store.push(record);
                }
                let pushed_ns = now_ns();
                stamp.store(pushed_ns, Ordering::Release);
                lateness_ms.push(pushed_ns.saturating_sub(due.as_nanos() as u64) as f64 / 1e6);
            }
            store.flush_current_thread();
            pushing.store(false, Ordering::Release);
            lateness_ms
        });

        let monitor_thread = scope.spawn(|| {
            let mut appended = 0u64;
            let mut drained_chunks = 0u64;
            let mut busy = Duration::ZERO;
            let mut backlog = Vec::new();
            loop {
                let last = !draining.load(Ordering::Acquire);
                let round = Instant::now();
                let chunks = span("core::sink::drain_chunks", || {
                    let chunks = store.drain_chunks();
                    let n = chunks.iter().map(|c| c.len() as u64).sum();
                    (chunks, n)
                });
                backlog.push((started.elapsed().as_secs_f64(), store.len() as f64));
                let mut batch = Vec::new();
                drained_chunks += chunks.len() as u64;
                for chunk in chunks {
                    span("collector::segment::append_chunk", || {
                        writer
                            .append_chunk(&chunk)
                            .expect("append to the segment file");
                        ((), chunk.len() as u64)
                    });
                    appended += chunk.len() as u64;
                    batch.extend(chunk.records);
                }
                if batch.is_empty() {
                    span("analyzer::live::tick", || (monitor.tick(), 1));
                } else {
                    span("analyzer::live::ingest_batch", || {
                        let n = batch.len() as u64;
                        (monitor.ingest_batch(batch), n)
                    });
                }
                busy += round.elapsed();
                if last {
                    break;
                }
                std::thread::sleep(DRAIN_INTERVAL);
            }
            writer
                .finish(Some(appended))
                .expect("seal the segment file");
            (appended, drained_chunks, busy, backlog)
        });

        let mut next_poll = Duration::ZERO;
        let mut i = 0;
        while pushing.load(Ordering::Acquire) {
            let now = started.elapsed();
            if now < next_poll {
                std::thread::sleep(next_poll - now);
            }
            next_poll += POLL_INTERVAL;
            let route = poll_cycle(i);
            i += 1;
            let sent_ns = now_ns();
            let reply = span(ROUTE_SPANS[route], || {
                let reply = http_get(addr, ROUTES[route].1);
                let bytes = reply.as_ref().map_or(0, |(_, body)| body.len() as u64);
                (reply, bytes)
            });
            let receipt_ns = now_ns();
            result.polls += 1;
            let Ok((200, body)) = reply else {
                result.non_200 += 1;
                continue;
            };
            result.roundtrip_ms[route].push((receipt_ns - sent_ns) as f64 / 1e6);
            result.response_bytes[route] = body.len() as u64;
            if route == 0 {
                let stamp = |call: u64| push_stamps[call as usize].load(Ordering::Acquire);
                match counted_calls(&body) {
                    Some(counted) if counted <= push_stamps.len() as u64 => {
                        result
                            .freshness_ms
                            .extend(staleness_ms(receipt_ns, counted, stamp));
                    }
                    other => result
                        .problems
                        .push(format!("steady: /latency counted {other:?}")),
                }
            }
        }

        result
            .lateness_ms
            .extend(pusher.join().expect("pusher thread"));
        draining.store(false, Ordering::Release);
        let (segment_appended, chunks, busy, backlog) =
            monitor_thread.join().expect("monitor thread");
        appended = segment_appended;
        result.chunks += chunks;
        result
            .monitor_busy_shares
            .push(busy.as_secs_f64() / started.elapsed().as_secs_f64());
        result.backlog_slopes.push(slope(&backlog));
        result.backlog.extend(backlog.iter().map(|p| p.1));
    });
    result.appended_records += appended;

    // Quiesced: every call pushed must be counted and on disk.
    let counted = http_get(addr, ROUTES[0].1)
        .ok()
        .and_then(|(_, body)| counted_calls(&body))
        .unwrap_or(0);
    result.counted_calls += counted;
    service.shutdown();
    if counted != pushed_calls {
        result.problems.push(format!(
            "steady: pushed {pushed_calls} calls, /latency counts {counted}"
        ));
    }
    if appended != pushed_calls * records_per_call {
        result.problems.push(format!(
            "steady: pushed {} records, appended {appended}",
            pushed_calls * records_per_call
        ));
    }
    match std::fs::read(segment_path).map(|bytes| (bytes.len(), segment::read_run_log(&bytes))) {
        Ok((len, Ok(run))) if run.len() as u64 == appended => {
            result.segment_bytes += len as u64;
        }
        Ok((_, Ok(run))) => result.problems.push(format!(
            "steady: segment re-reads {} records, {appended} were appended",
            run.len()
        )),
        Ok((_, Err(e))) => result
            .problems
            .push(format!("steady: segment does not re-read clean: {e}")),
        Err(e) => result
            .problems
            .push(format!("steady: cannot read the segment back: {e}")),
    }
    let _ = std::fs::remove_file(segment_path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_is_receipt_minus_newest_counted_push() {
        let stamps = [1_000_000u64, 2_000_000, 3_000_000];
        let stamp = |call: u64| stamps[call as usize];
        // Two calls counted: the newest is call 1, pushed at 2 ms.
        assert_eq!(staleness_ms(7_500_000, 2, stamp), Some(5.5));
        assert_eq!(staleness_ms(7_500_000, 3, stamp), Some(4.5));
        // Nothing counted yet: no sample, not a zero.
        assert_eq!(staleness_ms(7_500_000, 0, stamp), None);
        // A receipt clock behind the push stamp cannot go negative.
        assert_eq!(staleness_ms(500_000, 1, stamp), Some(0.0));
    }

    #[test]
    fn counted_calls_sums_the_series_index() {
        let body = r#"{"known_series":[{"iface":"A","method":"x","calls":3},{"iface":"A","method":"y","calls":4}]}"#;
        assert_eq!(counted_calls(body), Some(7));
        assert_eq!(counted_calls(r#"{"known_series":[]}"#), Some(0));
        assert_eq!(counted_calls(r#"{"window_ns":1}"#), None);
    }

    #[test]
    fn the_series_index_is_every_second_poll() {
        let cycle: Vec<usize> = (0..14).map(poll_cycle).collect();
        assert_eq!(cycle, [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 1]);
    }

    #[test]
    fn backlog_slope() {
        assert_eq!(slope(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]), 2.0);
        assert_eq!(slope(&[(0.0, 4.0), (1.0, 4.0)]), 0.0);
        assert_eq!(slope(&[(0.0, 4.0)]), 0.0);
    }
}
