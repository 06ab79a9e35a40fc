//! Self-observability integration: drive a monitored ORB system end to end
//! and verify the metrics layer saw every stage of the pipeline — probe
//! pushes in the sink, dispatches in the engine, records and completions
//! in the on-line analyzer — and exposes them through the Prometheus and
//! JSON renderings.
//!
//! Every system and monitor here publishes to a registry of its own, which
//! is what lets the counts be exact while other tests run beside them, and
//! what the isolation tests check: no system or monitor in this file
//! publishes to `MetricsRegistry::global()`.

use causeway_analyzer::live::{serve, LiveConfig, LiveMonitor};
use causeway_analyzer::online::{OnlineAnalyzer, OnlineEvent};
use causeway_collector::json;
use causeway_core::deploy::Deployment;
use causeway_core::metrics::MetricsRegistry;
use causeway_core::monitor::ProbeMode;
use causeway_core::runlog::RunLog;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const IDL: &str = r#"
    module Print {
        interface Stage {
            long process(in long page);
        };
    };
"#;

/// A driver process calling `pages` root invocations on a pooled press
/// process; returns the quiesced, shut-down system and its harvest.
fn run_press(pages: usize) -> (System, RunLog) {
    let mut builder = System::builder();
    builder.probe_mode(ProbeMode::Latency);
    let node = builder.node("hp-k460", "HPUX");
    let client_p = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server_p = builder.process("press", node, ThreadingPolicy::ThreadPool(2));
    let system = builder.build();
    system.load_idl(IDL).unwrap();

    let servant: Arc<dyn Servant> = Arc::new(FnServant::new(|_ctx, _midx, args| {
        Ok(Value::I64(args[0].as_i64().unwrap_or(0) + 1))
    }));
    let press = system
        .register_servant(server_p, "Print::Stage", "Press", "press#0", servant)
        .unwrap();
    system.start();

    let client = system.client(client_p);
    for page in 0..pages {
        client.begin_root();
        let out = client.invoke(&press, "process", vec![Value::I64(page as i64)]).unwrap();
        assert_eq!(out.as_i64(), Some(page as i64 + 1));
    }
    system.quiesce(Duration::from_secs(10)).unwrap();
    system.shutdown();
    let run = system.harvest();
    assert!(!run.is_empty());
    assert_eq!(run.missing_records(), None, "quiesced harvest loses nothing");
    (system, run)
}

#[test]
fn metrics_cover_sink_engine_and_online_analyzer() {
    let pages = 5usize;
    let (system, run) = run_press(pages);
    let registry = system.metrics();

    // Stream the harvested records through an on-line analyzer publishing
    // to the system's registry, so its metrics land beside the others.
    let mut analyzer = OnlineAnalyzer::with_metrics(registry);
    let mut completed = 0usize;
    for record in run.records.iter().cloned() {
        analyzer.ingest(record, &mut |event| {
            if matches!(event, OnlineEvent::CallCompleted { .. }) {
                completed += 1;
            }
        });
    }
    let mut tail = Vec::new();
    analyzer.finish(&mut |e| tail.push(e));
    assert!(completed >= pages, "every page's root call completes");

    let total = run.len() as u64;

    // Sink: every probe record passed through a store, and every one of
    // them was drained by the harvest.
    assert_eq!(registry.counter_value("causeway_sink_records_pushed_total"), Some(total));
    assert_eq!(registry.counter_value("causeway_sink_records_drained_total"), Some(total));
    assert!(registry.counter_value("causeway_sink_chunks_sealed_total").unwrap() >= 1);
    assert_eq!(registry.gauge_value("causeway_sink_chunks_in_flight"), Some(0));

    // Engine: one dispatch per server-side invocation, none left in flight,
    // and the dispatch window cost some wall time.
    assert_eq!(registry.counter_value("causeway_engine_dispatch_total"), Some(pages as u64));
    assert_eq!(registry.gauge_value("causeway_engine_inflight"), Some(0));
    assert!(registry.counter_value("causeway_engine_busy_ns_total").unwrap() > 0);
    let queue_wait = registry.histogram_value("causeway_engine_queue_wait_ns").unwrap();
    assert_eq!(queue_wait.count(), pages as u64);
    assert_eq!(
        registry.counter_value_with(
            "causeway_engine_op_dispatch_total",
            &[("engine", "orb"), ("iface", "Print::Stage"), ("method", "process")],
        ),
        Some(pages as u64)
    );

    // On-line analyzer: saw every record, completed the calls, settled.
    assert_eq!(registry.counter_value("causeway_online_records_total"), Some(total));
    assert_eq!(
        registry.counter_value("causeway_online_calls_completed_total"),
        Some(completed as u64)
    );
    assert_eq!(registry.gauge_value("causeway_online_open_chains"), Some(0));
    assert_eq!(registry.gauge_value("causeway_online_resequence_buffered"), Some(0));

    // The exposition formats carry all three subsystems.
    let prom = registry.render_prometheus();
    for needle in [
        "# TYPE causeway_sink_records_pushed_total counter",
        "causeway_engine_dispatch_total{engine=\"orb\"}",
        "# TYPE causeway_engine_queue_wait_ns histogram",
        "causeway_online_calls_completed_total",
    ] {
        assert!(prom.contains(needle), "prometheus exposition missing {needle}:\n{prom}");
    }

    let snapshot = json::parse(&registry.snapshot_json()).expect("snapshot is valid JSON");
    assert!(snapshot.get("causeway_sink_records_pushed_total").is_some());
    assert!(
        snapshot
            .get("causeway_engine_queue_wait_ns{engine='orb'}")
            .and_then(|h| h.get("count"))
            .is_some(),
        "histograms snapshot as summary objects"
    );
}

#[test]
fn dispatches_on_one_system_move_no_series_of_another_or_the_global_registry() {
    let (a, run_a) = run_press(3);
    let (b, run_b) = run_press(2);
    let count = |system: &System, name| system.metrics().counter_value(name);
    assert_eq!(count(&a, "causeway_engine_dispatch_total"), Some(3));
    assert_eq!(count(&b, "causeway_engine_dispatch_total"), Some(2));
    assert_eq!(count(&a, "causeway_sink_records_pushed_total"), Some(run_a.len() as u64));
    assert_eq!(count(&b, "causeway_sink_records_pushed_total"), Some(run_b.len() as u64));

    let global = MetricsRegistry::global();
    assert_eq!(
        global.counter_value_with("causeway_engine_dispatch_total", &[("engine", "orb")]),
        None,
        "no system here publishes engine series to the global registry"
    );
    assert_eq!(global.counter_value("causeway_sink_records_pushed_total"), None);
}

/// One blocking GET; returns the body of a 200.
fn get(addr: SocketAddr, target: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    raw.split_once("\r\n\r\n").map(|(_, body)| body.to_owned()).unwrap_or_default()
}

fn monitor_with(registry: &MetricsRegistry, run: &RunLog) -> Arc<LiveMonitor> {
    let cfg = LiveConfig { metrics: Some(registry.clone()), ..LiveConfig::default() };
    Arc::new(LiveMonitor::new(cfg, run.vocab.clone(), Deployment::default()))
}

#[test]
fn monitors_with_their_own_registries_serve_disjoint_scrapes() {
    let (_system, run) = run_press(2);
    let (reg_a, reg_b) = (MetricsRegistry::new(), MetricsRegistry::new());
    reg_a.counter("test_only_in_a_total", "marks monitor A's registry").inc();
    reg_b.counter("test_only_in_b_total", "marks monitor B's registry").inc();
    // Registered only in the global registry: no monitor here may serve it.
    MetricsRegistry::global()
        .counter("test_only_in_global_total", "marks the global registry")
        .inc();

    let (a, b) = (monitor_with(&reg_a, &run), monitor_with(&reg_b, &run));
    a.ingest_batch(run.records.clone());
    let (serve_a, serve_b) = (
        serve(Arc::clone(&a), "127.0.0.1:0").expect("bind A"),
        serve(Arc::clone(&b), "127.0.0.1:0").expect("bind B"),
    );
    let body_a = get(serve_a.local_addr(), "/metrics");
    let body_b = get(serve_b.local_addr(), "/metrics");

    assert!(body_a.contains("test_only_in_a_total 1"), "{body_a}");
    assert!(!body_a.contains("test_only_in_b_total"), "{body_a}");
    assert!(body_b.contains("test_only_in_b_total 1"), "{body_b}");
    assert!(!body_b.contains("test_only_in_a_total"), "{body_b}");
    for body in [&body_a, &body_b] {
        assert!(!body.contains("test_only_in_global_total"), "{body}");
    }
    // Only A ingested, and each server counts its own requests.
    let records = run.len();
    assert!(body_a.contains(&format!("causeway_online_records_total {records}\n")), "{body_a}");
    assert!(body_b.contains("causeway_online_records_total 0\n"), "{body_b}");
    assert_eq!(reg_a.counter_value("causeway_httpd_requests_total"), Some(1));
    assert_eq!(reg_b.counter_value("causeway_httpd_requests_total"), Some(1));
    serve_a.shutdown();
    serve_b.shutdown();
}
