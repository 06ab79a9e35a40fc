//! The sharded-ingestion determinism contract: for any shard count, the
//! live monitor's entire observable characterization — window history,
//! flamegraph folds, latency series, alert transitions, incident
//! hypothesis graphs, trace export, totals — must be bit-identical to the
//! single-shard (serial) monitor fed the same records at the same times.
//!
//! The streams below deliberately exercise everything the shard merge has
//! to get right: chains interleaved record-by-record within one batch,
//! chains spanning shards at every tested count, injected reconstruction
//! abnormalities, a sustained latency regression that fires a burn rule
//! and auto-opens an incident, and chains left open across windows.

use causeway_analyzer::live::{LiveConfig, LiveMonitor};
use causeway_collector::json::Json;
use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::ids::{InterfaceId, LogicalThreadId, MethodIndex, NodeId, ObjectId, ProcessId};
use causeway_core::names::{InterfaceEntry, VocabSnapshot};
use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
use causeway_core::uuid::Uuid;
use std::time::Duration;

const WINDOW_NS: u64 = 1_000_000_000;
/// A synthetic epoch far beyond process uptime, so the wall-clock ticker
/// can never advance past the explicit timestamps.
const BASE_W: u64 = 1 << 30;
const WINDOWS: u64 = 12;
const CHAINS_PER_WINDOW: u64 = 6;

/// Deterministic linear congruential generator (no external RNG crates;
/// the constants are Knuth's MMIX).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn vocab() -> VocabSnapshot {
    VocabSnapshot {
        interfaces: vec![InterfaceEntry {
            name: "Svc::Api".to_owned(),
            methods: vec!["serve".to_owned(), "inject".to_owned()],
        }],
        components: vec![],
        cpu_types: vec![],
        objects: vec![],
    }
}

fn record(
    chain: u128,
    seq: u64,
    event: TraceEvent,
    method: MethodIndex,
    wall: (u64, u64),
) -> ProbeRecord {
    ProbeRecord {
        uuid: Uuid(chain),
        seq,
        event,
        kind: CallKind::Sync,
        site: CallSite { node: NodeId(0), process: ProcessId(0), thread: LogicalThreadId(0) },
        func: FunctionKey::new(InterfaceId(0), method, ObjectId(1)),
        wall_start: Some(wall.0),
        wall_end: Some(wall.1),
        cpu_start: None,
        cpu_end: None,
        oneway_child: None,
        oneway_parent: None,
    }
}

/// One chain's records: a completed sync call, optionally followed by an
/// out-of-protocol `SkelEnd` that the analyzer reports as a
/// reconstruction abnormality, or truncated after `SkelStart` so the
/// chain stays open across window closes.
fn chain_records(chain: u128, method: MethodIndex, latency_ns: u64, shape: u64) -> Vec<ProbeRecord> {
    let mut records = vec![
        record(chain, 1, TraceEvent::StubStart, method, (0, 1)),
        record(chain, 2, TraceEvent::SkelStart, method, (2, 3)),
        record(chain, 3, TraceEvent::SkelEnd, method, (3 + latency_ns, 4 + latency_ns)),
        record(chain, 4, TraceEvent::StubEnd, method, (5 + latency_ns, 6 + latency_ns)),
    ];
    match shape % 8 {
        // Injected abnormality: a second skeleton exit with nothing open.
        0 => records.push(record(
            chain,
            5,
            TraceEvent::SkelEnd,
            method,
            (7 + latency_ns, 8 + latency_ns),
        )),
        // An open chain: the reply never arrives.
        1 => records.truncate(2),
        _ => {}
    }
    records
}

/// The full deterministic run: for each window, several chains whose
/// records are interleaved record-by-record into a single batch (so one
/// `ingest_batch_at` call spans every shard), plus a sustained `inject`
/// regression in windows 5..=8 that fires the burn rule exactly once.
fn drive(monitor: &LiveMonitor) {
    monitor.add_rule_spec("burn=p95>1000us;slo=90;fast=3;slow=6").expect("burn spec");
    monitor.add_rule_spec("p95>1000us;for=1").expect("alert spec");
    let mut rng = Lcg(0x5DEECE66D);
    let mut chain = 0u128;
    for w in 0..WINDOWS {
        let at = (BASE_W + w) * WINDOW_NS + 5;
        let mut per_chain: Vec<Vec<ProbeRecord>> = Vec::new();
        for c in 0..CHAINS_PER_WINDOW {
            chain += 1;
            // Spread uuids over the residue classes of every tested shard
            // count (1, 2, 8 all divide 8).
            let uuid = chain * 8 + u128::from(rng.next() % 8);
            let regression = (5..=8).contains(&w) && c == 0;
            let method = if regression { MethodIndex(1) } else { MethodIndex(0) };
            let latency = if regression { 5_000_000 } else { 10_000 + rng.next() % 10_000 };
            per_chain.push(chain_records(uuid, method, latency, rng.next()));
        }
        // Round-robin interleave: consecutive records in the batch belong
        // to different chains (and usually different shards).
        let mut batch = Vec::new();
        let mut index = 0;
        while per_chain.iter().any(|r| index < r.len()) {
            for records in &per_chain {
                if let Some(r) = records.get(index) {
                    batch.push(r.clone());
                }
            }
            index += 1;
        }
        monitor.ingest_batch_at(batch, at);
    }
    monitor.tick_at((BASE_W + WINDOWS + 4) * WINDOW_NS);
}

/// Zeroes every `*_ms` field (wall-clock stamps taken at processing time,
/// legitimately different run to run) so the rest of the JSON must match
/// bit for bit.
fn scrub_ms(json: Json) -> Json {
    match json {
        Json::Arr(items) => Json::Arr(items.into_iter().map(scrub_ms).collect()),
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| {
                    if k.ends_with("_ms") {
                        (k, Json::Num(0.0))
                    } else {
                        (k, scrub_ms(v))
                    }
                })
                .collect(),
        ),
        other => other,
    }
}

/// Everything observable about a finished run, rendered deterministically.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    total_completed: u64,
    total_abnormalities: u64,
    folded_stacks: String,
    history: String,
    latency: String,
    trace: String,
    chains: String,
    sliding: String,
    alerts: Vec<(String, bool, u64, String, String)>,
    incidents: Vec<String>,
    /// The full exemplar index plus every retained exemplar's detail
    /// render (DSCG ascii/dot and the Chrome-trace slices) — admission,
    /// eviction, and id assignment must all replay identically.
    exemplars: String,
    exemplar_details: Vec<String>,
}

fn fingerprint(monitor: &LiveMonitor) -> Fingerprint {
    let alerts = monitor
        .alert_log()
        .into_iter()
        .map(|e| {
            // Compare floats by exact formatting: bit-identical or bust.
            (e.alert, e.fired, e.window_index, format!("{:?}", e.value), format!("{:?}", e.threshold))
        })
        .collect();
    let incident_ids: Vec<u64> = {
        let incidents = monitor.incidents();
        incidents.iter().map(|i| i.id).collect()
    };
    let incidents = incident_ids
        .into_iter()
        .map(|id| {
            scrub_ms(monitor.incident_json(id).expect("listed incident renders")).to_string()
        })
        .collect();
    let exemplar_index = monitor.exemplars_json(None).expect("no series filter");
    let exemplar_details = exemplar_index
        .get("series")
        .and_then(Json::as_arr)
        .expect("series array")
        .iter()
        .flat_map(|s| s.get("exemplars").and_then(Json::as_arr).expect("ring").iter())
        .map(|e| {
            let chain = e.get("chain").and_then(Json::as_str).expect("uuid");
            monitor.exemplar_detail_json(chain).expect("listed exemplar renders").to_string()
        })
        .collect();
    Fingerprint {
        total_completed: monitor.total_completed(),
        total_abnormalities: monitor.total_abnormalities(),
        folded_stacks: monitor.folded_stacks(),
        history: monitor.history_json(None, None).to_string(),
        latency: monitor.latency_json(None, None).to_string(),
        trace: monitor.trace_json(),
        chains: monitor.chains_json().to_string(),
        sliding: format!("{:?}", monitor.sliding()),
        alerts,
        incidents,
        exemplars: exemplar_index.to_string(),
        exemplar_details,
    }
}

fn run_at(shards: usize) -> Fingerprint {
    let monitor = LiveMonitor::new(
        LiveConfig {
            window: Duration::from_nanos(WINDOW_NS),
            shards,
            ..LiveConfig::default()
        },
        vocab(),
        causeway_core::deploy::Deployment::default(),
    );
    assert_eq!(monitor.shard_count(), shards.max(1));
    drive(&monitor);
    fingerprint(&monitor)
}

#[test]
fn sharded_monitor_is_bit_identical_to_serial_at_any_shard_count() {
    let serial = run_at(1);

    // The run exercised what it claims to: completions, abnormalities,
    // alert transitions, and an auto-opened incident.
    assert!(serial.total_completed > 50, "completions: {}", serial.total_completed);
    assert!(serial.total_abnormalities > 0, "injected abnormalities were seen");
    assert!(
        serial.alerts.iter().any(|(name, fired, ..)| name.starts_with("burn=") && *fired),
        "the sustained regression fired the burn rule: {:?}",
        serial.alerts
    );
    assert!(!serial.incidents.is_empty(), "the burn firing auto-opened an incident");
    assert!(serial.folded_stacks.contains("Svc::Api.inject"), "folds name the regression");
    assert!(!serial.exemplar_details.is_empty(), "the run retained exemplars");
    assert!(
        serial.exemplar_details.iter().any(|d| d.contains("Svc::Api.inject")),
        "the regressed chains survive as exemplars"
    );

    for shards in [2usize, 8] {
        let sharded = run_at(shards);
        assert_eq!(
            serial, sharded,
            "observable state diverged between 1 shard and {shards} shards"
        );
    }
}
