//! Live monitoring service integration: the windowed streaming
//! characterization must agree with the off-line analyzer on the same
//! records, the HTTP endpoints must serve concurrently with ingestion, and
//! an injected latency spike must fire and resolve exactly one alert.

use causeway_analyzer::dscg::Dscg;
use causeway_analyzer::latency::LatencyAnalysis;
use causeway_analyzer::live::{serve, LiveConfig, LiveMonitor};
use causeway_analyzer::rules::{AlertCmp, AlertMetric, AlertRule, Trigger};
use causeway_collector::db::MonitoringDb;
use causeway_collector::json::{self, Json};
use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::ids::{InterfaceId, LogicalThreadId, MethodIndex, NodeId, ObjectId, ProcessId};
use causeway_core::metrics::MetricsRegistry;
use causeway_core::monitor::ProbeMode;
use causeway_core::names::{InterfaceEntry, VocabSnapshot};
use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
use causeway_core::uuid::Uuid;
use causeway_workloads::{Pps, PpsConfig, PpsDeployment};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

fn small_pps() -> Pps {
    Pps::build(&PpsConfig {
        deployment: PpsDeployment::FourProcess,
        probe_mode: ProbeMode::Latency,
        work_scale: 0.05,
        pages_per_job: 2,
        ..PpsConfig::default()
    })
}

/// One tumbling window large enough to hold an entire finite run, so the
/// live quantiles summarize exactly the same population as the off-line
/// analyzer.
fn one_big_window() -> LiveConfig {
    LiveConfig { window: Duration::from_secs(3600), ..LiveConfig::default() }
}

#[test]
fn windowed_percentiles_match_offline_analysis_within_bucket_resolution() {
    let pps = small_pps();
    pps.run_jobs(6);
    let run = pps.finish();
    assert_eq!(run.missing_records(), None);

    // Live path: the same records, streamed through the windowed monitor.
    let live = LiveMonitor::new(
        one_big_window(),
        run.vocab.clone(),
        run.deployment.clone(),
    );
    live.ingest_batch_at(run.records.clone(), 10);
    let window = live.sliding();

    // Off-line path: full DSCG reconstruction and exact percentiles.
    let offline = LatencyAnalysis::compute(&Dscg::build(&MonitoringDb::from_run(run)));
    assert!(!offline.per_method.is_empty());

    for (key, stats) in &offline.per_method {
        let agg = window
            .series
            .get(key)
            .unwrap_or_else(|| panic!("live window missing series {key:?}"));
        assert_eq!(agg.calls as usize, stats.count, "call counts agree for {key:?}");
        // A streaming log2 histogram answers quantiles as the containing
        // bucket's upper bound: within (exact, 2*exact] of the off-line
        // rank-based percentile, which uses the identical rank rule.
        for (q, exact) in [(0.50, stats.p50_ns), (0.95, stats.p95_ns), (0.99, stats.p99_ns)] {
            let live_q = window.quantile_ns(*key, q).expect("series has samples");
            let exact = exact.max(1);
            assert!(
                live_q >= exact && live_q <= 2 * exact,
                "q{q}: live {live_q} vs offline {exact} for {key:?}"
            );
        }
    }
}

#[test]
fn endpoints_serve_concurrently_with_ingestion() {
    let pps = small_pps();
    let stores: Vec<_> = (0..4u16)
        .map(|p| pps.system.orb(ProcessId(p)).monitor().store().clone())
        .collect();
    let live = Arc::new(LiveMonitor::new(
        LiveConfig { window: Duration::from_millis(200), ..LiveConfig::default() },
        pps.system.vocab().snapshot(),
        pps.system.deployment().clone(),
    ));
    let server = serve(Arc::clone(&live), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Scraper: hit every endpoint continuously while jobs run.
    let scraping = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let scraper_flag = Arc::clone(&scraping);
    let scraper = std::thread::spawn(move || {
        let mut responses: Vec<(String, u16, String)> = Vec::new();
        while scraper_flag.load(std::sync::atomic::Ordering::Relaxed) {
            for path in
                ["/metrics", "/healthz", "/chains", "/latency", "/flamegraph", "/trace"]
            {
                let mut conn = std::net::TcpStream::connect(addr).expect("connect");
                write!(conn, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                    .expect("send");
                let mut raw = String::new();
                conn.read_to_string(&mut raw).expect("read");
                let status: u16 =
                    raw.split_whitespace().nth(1).expect("status line").parse().expect("code");
                let body =
                    raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
                responses.push((path.to_owned(), status, body));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        responses
    });

    // Ingestion loop on this thread while the driver runs on another.
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let driver_done = Arc::clone(&done);
    let driver = std::thread::spawn({
        let pps = pps; // move the workload into the driver thread
        move || {
            pps.run_jobs(10);
            pps.system.flush_local_logs();
            driver_done.store(true, std::sync::atomic::Ordering::Relaxed);
            pps
        }
    });
    loop {
        let finished = done.load(std::sync::atomic::Ordering::Relaxed);
        let mut batch = Vec::new();
        for store in &stores {
            batch.extend(store.drain());
        }
        if !batch.is_empty() {
            live.ingest_batch(batch);
        }
        if finished {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let pps = driver.join().expect("driver thread");
    scraping.store(false, std::sync::atomic::Ordering::Relaxed);
    let responses = scraper.join().expect("scraper thread");
    server.shutdown();
    pps.system.shutdown();

    assert!(responses.len() >= 6, "at least one full scrape cycle");
    for (path, status, body) in &responses {
        assert!(
            *status == 200 || (*status == 503 && path == "/healthz"),
            "{path} returned {status}"
        );
        // The flamegraph is legitimately empty until the first chain
        // completes; every other endpoint always has a body.
        if path != "/flamegraph" {
            assert!(!body.is_empty(), "{path} returned an empty body");
        }
        match path.as_str() {
            "/healthz" | "/chains" | "/latency" | "/trace" => {
                json::parse(body).unwrap_or_else(|e| panic!("{path} not JSON ({e:?}): {body}"));
            }
            "/metrics" => assert!(body.contains("# TYPE"), "metrics exposition: {body}"),
            _ => {}
        }
    }
    // After the full run, ingestion really reached the monitor and the
    // latency endpoint reports every pipeline stage.
    assert!(live.total_completed() > 0);
    let latency = live.latency_json(Some("Pps::Stage"), None);
    let series = latency.get("series").and_then(Json::as_arr).expect("series");
    assert!(!series.is_empty(), "windowed series after the run: {latency}");
    assert!(
        live.folded_stacks().contains("Pps::Stage.submit"),
        "flamegraph accumulated the pipeline after the run"
    );
}

/// Deterministic synthetic traffic: one operation whose latency spikes for
/// a stretch of windows, then recovers. The alert must fire exactly once
/// and resolve exactly once.
#[test]
fn injected_latency_spike_fires_and_resolves_one_alert() {
    const WINDOW_NS: u64 = 1_000_000_000;

    fn sync_call(chain: u128, latency_ns: u64) -> Vec<ProbeRecord> {
        let rec = |seq, event, wall: (u64, u64)| ProbeRecord {
            uuid: Uuid(chain),
            seq,
            event,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(0),
                thread: LogicalThreadId(0),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(1)),
            wall_start: Some(wall.0),
            wall_end: Some(wall.1),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        };
        vec![
            rec(1, TraceEvent::StubStart, (0, 1)),
            rec(2, TraceEvent::SkelStart, (2, 3)),
            rec(3, TraceEvent::SkelEnd, (3 + latency_ns, 4 + latency_ns)),
            rec(4, TraceEvent::StubEnd, (5 + latency_ns, 6 + latency_ns)),
        ]
    }

    let live = LiveMonitor::new(
        LiveConfig { window: Duration::from_nanos(WINDOW_NS), ..LiveConfig::default() },
        causeway_core::names::VocabSnapshot::default(),
        causeway_core::deploy::Deployment::default(),
    );
    live.add_rule(AlertRule {
        name: "spike".to_owned(),
        metric: AlertMetric::P95,
        series: None,
        cmp: AlertCmp::Above,
        fire_threshold: 1_000_000.0,
        resolve_threshold: 500_000.0,
        trigger: Trigger::Sustained { for_windows: 2 },
        escalate: None,
        deescalate: None,
    });

    // Baseline (2 windows), spike (4 windows), recovery (3 windows).
    let profile: [u64; 9] = [
        10_000, 10_000, // calm
        5_000_000, 5_000_000, 5_000_000, 5_000_000, // spike: fires after 2
        10_000, 10_000, 10_000, // recovery: resolves after 2
    ];
    for (w, latency) in profile.into_iter().enumerate() {
        live.ingest_batch_at(sync_call(w as u128 + 1, latency), w as u64 * WINDOW_NS + 5);
    }
    live.tick_at(10 * WINDOW_NS);

    let events = live.alert_log();
    assert_eq!(events.len(), 2, "one fire + one resolve: {events:?}");
    assert!(events[0].fired, "first transition fires: {:?}", events[0]);
    assert_eq!(events[0].window_index, 3, "fires on the spike's second window");
    assert!(!events[1].fired, "second transition resolves: {:?}", events[1]);
    assert_eq!(events[1].window_index, 7, "resolves on the recovery's second window");
    assert!(live.active_alerts().is_empty());
}

/// Synthetic one-call sync chains for the time-travel tests: `serve` is the
/// steady-state operation, `inject` is the culprit we plant.
fn synthetic_call(chain: u128, method: MethodIndex, latency_ns: u64) -> Vec<ProbeRecord> {
    let rec = |seq, event, wall: (u64, u64)| ProbeRecord {
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
    };
    vec![
        rec(1, TraceEvent::StubStart, (0, 1)),
        rec(2, TraceEvent::SkelStart, (2, 3)),
        rec(3, TraceEvent::SkelEnd, (3 + latency_ns, 4 + latency_ns)),
        rec(4, TraceEvent::StubEnd, (5 + latency_ns, 6 + latency_ns)),
    ]
}

fn two_method_vocab() -> VocabSnapshot {
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

/// Deterministic burn-rate semantics end to end: a one-window latency spike
/// that a single-window rule catches must NOT fire the multi-window burn
/// rule, while a sustained regression fires it exactly once (and resolves
/// once). Across the regression boundary, `/flamegraph/diff` names the
/// injected operation as the top positive delta.
#[test]
fn sustained_regression_fires_burn_alert_once_and_diff_names_culprit() {
    const WINDOW_NS: u64 = 1_000_000_000;
    // A synthetic epoch far beyond any real process uptime, so the server's
    // wall-clock ticker can never advance past the explicit timestamps.
    const BASE_W: u64 = 1 << 30;

    let live = LiveMonitor::new(
        LiveConfig { window: Duration::from_nanos(WINDOW_NS), ..LiveConfig::default() },
        two_method_vocab(),
        causeway_core::deploy::Deployment::default(),
    );
    // Error budget 10%; default factor fast/(slow*budget) = 3/(6*0.1) = 5:
    // fire needs >= 2 breaching windows of the last 3 AND >= 3 of the last 6.
    live.add_rule_spec("burn=p95>1000us;slo=90;fast=3;slow=6").expect("burn spec parses");
    // The naive single-window rule the burn rule is supposed to out-smart.
    live.add_rule(AlertRule {
        name: "single".to_owned(),
        metric: AlertMetric::P95,
        series: None,
        cmp: AlertCmp::Above,
        fire_threshold: 1_000_000.0,
        resolve_threshold: 500_000.0,
        trigger: Trigger::Sustained { for_windows: 1 },
        escalate: None,
        deescalate: None,
    });

    const CALM_NS: u64 = 10_000;
    const SLOW_NS: u64 = 5_000_000;
    let mut chain = 0u128;
    for w in 0..15u64 {
        let at = (BASE_W + w) * WINDOW_NS + 5;
        chain += 1;
        live.ingest_batch_at(synthetic_call(chain, MethodIndex(0), CALM_NS), at);
        // One isolated spike window (w3), then a sustained regression
        // (w7..=w10), both on the planted `inject` operation.
        if w == 3 || (7..=10).contains(&w) {
            chain += 1;
            live.ingest_batch_at(synthetic_call(chain, MethodIndex(1), SLOW_NS), at);
        }
    }
    live.tick_at((BASE_W + 16) * WINDOW_NS);

    let events = live.alert_log();
    let burn: Vec<_> = events.iter().filter(|e| e.alert.starts_with("burn=")).collect();
    let fires = burn.iter().filter(|e| e.fired).count();
    assert_eq!(fires, 1, "the sustained regression fires the burn rule exactly once: {burn:?}");
    assert_eq!(burn.len(), 2, "one fire + one resolve: {burn:?}");
    assert!(burn[0].fired && !burn[1].fired, "fire precedes resolve: {burn:?}");
    assert_eq!(
        burn[0].window_index,
        BASE_W + 8,
        "fires only once the regression is sustained, not on the w3 spike"
    );
    assert_eq!(burn[1].window_index, BASE_W + 12, "resolves after the recovery");
    // The spike WAS single-window catchable: the naive rule fired on it.
    let single: Vec<_> = events.iter().filter(|e| e.alert == "single").collect();
    assert!(
        single.iter().any(|e| e.fired && e.window_index == BASE_W + 3),
        "the naive rule catches the one-window spike: {single:?}"
    );
    assert!(live.active_alerts().is_empty(), "everything resolved by the end");

    // Differential flamegraph over HTTP across the regression boundary:
    // calm window w4 vs regressed window w8.
    let live = Arc::new(live);
    let server = serve(Arc::clone(&live), "127.0.0.1:0").expect("bind");
    let (a, b) = (BASE_W + 4, BASE_W + 8);
    let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    write!(conn, "GET /flamegraph/diff?a={a}&b={b} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200"), "diff endpoint serves retained windows: {raw}");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    let top = body.lines().next().expect("diff has at least the injected stack");
    assert!(
        top.contains("Svc::Api.inject"),
        "top positive delta names the injected operation: {body:?}"
    );
    let delta: i64 = top.rsplit(' ').next().unwrap().parse().expect("signed delta");
    assert!(delta > 0, "the injected operation regressed (positive delta): {top}");
    server.shutdown();
}

/// Feeds `windows` one-second windows from `BASE_W` on, one `serve` call
/// each, 5 ms slow in windows 7..=10 and 10 µs otherwise, then closes the
/// last window.
fn drive_regression(live: &LiveMonitor, windows: u64) {
    const WINDOW_NS: u64 = 1_000_000_000;
    const BASE_W: u64 = 1 << 30;
    for w in 0..windows {
        let latency = if (7..=10).contains(&w) { 5_000_000 } else { 10_000 };
        let at = (BASE_W + w) * WINDOW_NS + 5;
        live.ingest_batch_at(synthetic_call(u128::from(w) + 1, MethodIndex(0), latency), at);
    }
    live.tick_at((BASE_W + windows + 1) * WINDOW_NS);
}

/// A burn rule's spans count the rule's own windows, not the history
/// store's: a ring of 2 windows cannot hold the 3 breaching windows the
/// slow span needs, and the rule must still fire once and resolve once.
#[test]
fn burn_rule_verdict_does_not_depend_on_history_retention() {
    const BASE_W: u64 = 1 << 30;
    let live = LiveMonitor::new(
        LiveConfig {
            window: Duration::from_secs(1),
            history_windows: 2,
            metrics: Some(MetricsRegistry::new()),
            ..LiveConfig::default()
        },
        two_method_vocab(),
        causeway_core::deploy::Deployment::default(),
    );
    live.add_rule_spec("burn=p95>1000us;slo=90;fast=3;slow=6").expect("burn spec parses");
    drive_regression(&live, 15);

    let events = live.alert_log();
    assert_eq!(events.len(), 2, "one fire + one resolve: {events:?}");
    assert!(events[0].fired && !events[1].fired, "fire precedes resolve: {events:?}");
    // The third breaching window (w9) fills the slow span; the fast span
    // burns below the factor once it holds one breach (w12).
    assert_eq!((events[0].window_index, events[1].window_index), (BASE_W + 9, BASE_W + 12));
    assert_eq!(live.history().len(), 2, "the ring really held 2 windows");
}

/// Within one window, threshold rules log their events before burn rules,
/// whatever the registration order, and incidents open in that order.
#[test]
fn threshold_events_precede_burn_events_in_one_window() {
    const BASE_W: u64 = 1 << 30;
    let live = LiveMonitor::new(
        LiveConfig {
            window: Duration::from_secs(1),
            metrics: Some(MetricsRegistry::new()),
            ..LiveConfig::default()
        },
        two_method_vocab(),
        causeway_core::deploy::Deployment::default(),
    );
    let burn = "burn=p95>1000us;slo=90;fast=3;slow=6";
    let threshold = "p95>1000us;for=3";
    live.add_rule_spec(burn).expect("burn spec parses");
    live.add_rule_spec(threshold).expect("threshold spec parses");
    drive_regression(&live, 15);

    // Both fire on the third breaching window.
    let fired: Vec<_> = live.alert_log().into_iter().filter(|e| e.fired).collect();
    let names: Vec<&str> = fired.iter().map(|e| e.alert.as_str()).collect();
    assert_eq!(names, [threshold, burn], "{fired:?}");
    assert!(fired.iter().all(|e| e.window_index == BASE_W + 9), "{fired:?}");
    let incidents = live.incidents();
    let opened: Vec<(u64, &str)> =
        incidents.iter().map(|inc| (inc.id, inc.alert.as_str())).collect();
    assert_eq!(opened.len(), 2, "{opened:?}");
    assert!(opened[0].0 < opened[1].0, "{opened:?}");
    assert_eq!([opened[0].1, opened[1].1], [threshold, burn], "{opened:?}");
}

/// Incident forensics end to end: a sustained latency regression on the
/// planted `inject` operation fires the burn rule exactly once, which
/// auto-opens an incident whose flamegraph-diff hypotheses include the
/// injected operation; the baseline-presence pass tombstones the `serve`
/// decoy (slightly slower in the breach window, but already hot in the
/// baseline) with provenance; and `/incidents?id=N` serves the query-time
/// surviving set with the tombstoned hypotheses still present in the full
/// graph (the add-only invariant), shrinking further under an operator
/// `POST /incidents/eliminate`.
#[test]
fn incident_forensics_names_the_true_regression_over_http() {
    const WINDOW_NS: u64 = 1_000_000_000;
    const BASE_W: u64 = 1 << 30;

    let live = LiveMonitor::new(
        LiveConfig { window: Duration::from_nanos(WINDOW_NS), ..LiveConfig::default() },
        two_method_vocab(),
        causeway_core::deploy::Deployment::default(),
    );
    live.add_rule_spec("burn=p95>1000us;slo=90;fast=3;slow=6").expect("burn spec parses");

    // `serve` runs every window: 10µs calm, 15µs during the breach — a
    // decoy regression (+5µs) that the baseline already mostly contains.
    // `inject` appears only in the breach windows at 5ms — the true cause.
    const CALM_NS: u64 = 10_000;
    const DECOY_NS: u64 = 15_000;
    const SLOW_NS: u64 = 5_000_000;
    let mut chain = 0u128;
    for w in 0..15u64 {
        let at = (BASE_W + w) * WINDOW_NS + 5;
        let breach = (7..=10).contains(&w);
        chain += 1;
        let serve_ns = if breach { DECOY_NS } else { CALM_NS };
        live.ingest_batch_at(synthetic_call(chain, MethodIndex(0), serve_ns), at);
        if breach {
            chain += 1;
            live.ingest_batch_at(synthetic_call(chain, MethodIndex(1), SLOW_NS), at);
        }
    }
    live.tick_at((BASE_W + 16) * WINDOW_NS);

    // The burn rule fires exactly once, on the third sustained window
    // (2-of-3 fast AND 3-of-6 slow with this rule's budget).
    let log = live.alert_log();
    let fires: Vec<_> = log.iter().filter(|e| e.fired).collect();
    assert_eq!(fires.len(), 1, "exactly one firing transition: {fires:?}");
    assert_eq!(fires[0].window_index, BASE_W + 9);
    assert!(fires[0].at_ms > 0, "alert events carry a wall-clock stamp");

    // The firing auto-opened one incident against the pre-breach baseline
    // (fast=3 windows back from the breach).
    let incidents = live.incidents();
    assert_eq!(incidents.len(), 1);
    let incident = incidents.iter().next().expect("auto-opened");
    let incident_id = incident.id;
    assert_eq!(incident.breach_window, BASE_W + 9);
    assert_eq!(incident.baseline_window, Some(BASE_W + 6));
    assert!(!incident.is_open(), "resolved when the burn rule calmed");

    // The injected operation is a flamegraph-diff hypothesis and survives;
    // the decoy is tombstoned by the baseline-presence pass with provenance.
    assert!(
        incident.surviving().iter().any(|h| h.subject.contains("Svc::Api.inject")),
        "true cause survives: {:?}",
        incident.surviving()
    );
    let decoy_id = incident
        .hypotheses()
        .iter()
        .find(|h| {
            h.kind == causeway_analyzer::incident::HypothesisKind::FlamegraphRegression
                && h.subject.contains("Svc::Api.serve")
        })
        .expect("decoy regression hypothesis in the graph")
        .id;
    assert!(incident.is_eliminated(decoy_id));
    let tombstone = incident
        .tombstones()
        .iter()
        .find(|t| t.hypothesis == decoy_id)
        .expect("tombstone with provenance");
    assert_eq!(tombstone.pass, "baseline-presence");
    assert!(tombstone.evidence.contains("baseline window"), "{tombstone:?}");
    assert!(tombstone.at_ms > 0);
    // The guard holds the monitor's control lock; release it before serving.
    drop(incidents);

    // Over HTTP: the index, the full graph, and an operator tombstone.
    let live = Arc::new(live);
    let server = serve(Arc::clone(&live), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let roundtrip = |request: String| -> (u16, String) {
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
        roundtrip(format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"))
    };

    let (status, alerts) = get("/alerts");
    assert_eq!(status, 200);
    let alerts = json::parse(&alerts).expect("valid JSON");
    let log = alerts.get("alerts").and_then(Json::as_arr).expect("alert log");
    assert!(!log.is_empty());
    assert!(
        log.iter().all(|e| e.get("at_ms").and_then(Json::as_u64).is_some_and(|t| t > 0)),
        "every served alert carries its wall-clock stamp: {alerts}"
    );

    let (status, index) = get("/incidents");
    assert_eq!(status, 200);
    let index = json::parse(&index).expect("valid JSON");
    assert_eq!(index.get("incidents").and_then(Json::as_arr).map(<[Json]>::len), Some(1));

    let (status, detail) = get(&format!("/incidents?id={incident_id}"));
    assert_eq!(status, 200);
    let detail = json::parse(&detail).expect("valid JSON");
    let hypotheses = detail.get("hypotheses").and_then(Json::as_arr).expect("graph");
    let surviving_of = |detail: &Json| -> Vec<u64> {
        detail
            .get("surviving")
            .and_then(Json::as_arr)
            .expect("surviving ids")
            .iter()
            .map(|j| j.as_u64().expect("id"))
            .collect()
    };
    let surviving = surviving_of(&detail);
    let subject_of = |id: u64| -> &str {
        hypotheses
            .iter()
            .find(|h| h.get("id").and_then(Json::as_u64) == Some(id))
            .and_then(|h| h.get("subject"))
            .and_then(Json::as_str)
            .expect("subject")
    };
    assert!(
        surviving.iter().any(|id| subject_of(*id).contains("Svc::Api.inject")),
        "served surviving set names the true regression: {detail}"
    );
    // Add-only invariant: the tombstoned decoy is still in the full graph,
    // flagged eliminated, just not surviving.
    let served_decoy = hypotheses
        .iter()
        .find(|h| h.get("id").and_then(Json::as_u64) == Some(decoy_id))
        .expect("decoy still served in the graph");
    assert_eq!(served_decoy.get("eliminated").and_then(Json::as_bool), Some(true));
    assert!(!surviving.contains(&decoy_id));

    // An operator tombstone via POST shrinks the surviving set further.
    let victim = *surviving.last().expect("something survives");
    let body = format!(
        "{{\"incident\": {incident_id}, \"hypothesis\": {victim}, \
         \"reason\": \"ruled out by hand\"}}"
    );
    let (status, ack) = roundtrip(format!(
        "POST /incidents/eliminate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    ));
    assert_eq!(status, 200, "{ack}");
    let (_, after) = get(&format!("/incidents?id={incident_id}"));
    let after = json::parse(&after).expect("valid JSON");
    let now_surviving = surviving_of(&after);
    assert_eq!(now_surviving.len(), surviving.len() - 1);
    assert!(!now_surviving.contains(&victim));
    assert!(
        after
            .get("tombstones")
            .and_then(Json::as_arr)
            .expect("tombstones")
            .iter()
            .any(|t| t.get("hypothesis").and_then(Json::as_u64) == Some(victim)
                && t.get("pass").and_then(Json::as_str) == Some("operator")),
        "operator tombstone with provenance: {after}"
    );
    // The graph itself never shrank.
    assert_eq!(
        after.get("hypotheses").and_then(Json::as_arr).map(<[Json]>::len),
        Some(hypotheses.len())
    );

    let (status, _) = get("/incidents?id=999999");
    assert_eq!(status, 404);
    server.shutdown();
}

/// The history-memory gate: after 10x `history_windows` window closes the
/// store must still hold at most `history_windows` entries, within its byte
/// cap, with every excess window counted as an eviction.
#[test]
fn history_store_stays_bounded_after_ten_times_its_window_cap() {
    const WINDOW_NS: u64 = 1_000_000_000;
    const BASE_W: u64 = 1 << 30;
    const CAP: usize = 4;

    let live = LiveMonitor::new(
        LiveConfig {
            window: Duration::from_nanos(WINDOW_NS),
            history_windows: CAP,
            ..LiveConfig::default()
        },
        two_method_vocab(),
        causeway_core::deploy::Deployment::default(),
    );
    let closes = 10 * CAP as u64; // 10x the cap, per the acceptance gate
    for w in 0..closes {
        let at = (BASE_W + w) * WINDOW_NS + 5;
        live.ingest_batch_at(synthetic_call(w as u128 + 1, MethodIndex(0), 10_000), at);
    }
    live.tick_at((BASE_W + closes + 1) * WINDOW_NS);

    // `history()` holds the monitor's control lock: copy what the asserts
    // need and release it before calling back into the monitor below.
    let history = live.history();
    let retained = history.len();
    let evictions = history.evictions();
    assert!(retained <= CAP, "store holds {retained} > cap {CAP}");
    assert!(
        history.approx_bytes() <= history.cap_bytes(),
        "store stays within its byte cap"
    );
    assert_eq!(
        evictions,
        closes + 1 - retained as u64,
        "every closed window beyond the cap was evicted"
    );
    // The ring keeps the newest windows: the latest close is retained, the
    // oldest is long gone.
    assert_eq!(history.latest().expect("non-empty").window.index, BASE_W + closes);
    assert!(history.get(BASE_W).is_none(), "the first window was evicted");
    drop(history);
    // The JSON export agrees with the store it describes.
    let json = live.history_json(None, None);
    assert_eq!(
        json.get("evictions").and_then(Json::as_u64),
        Some(evictions),
        "history_json reports the eviction counter"
    );
    assert_eq!(
        json.get("retained_windows").and_then(Json::as_u64),
        Some(retained as u64),
        "history_json reports the retained count"
    );
}
