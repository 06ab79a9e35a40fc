//! Workspace integration tests: drive a monitored ORB system end-to-end and
//! verify the analyzer reconstructs exactly what the application did.

use causeway_analyzer::ccsg::Ccsg;
use causeway_analyzer::cpu::CpuAnalysis;
use causeway_analyzer::dscg::Dscg;
use causeway_analyzer::latency::LatencyAnalysis;
use causeway_analyzer::render::{AsciiOptions, ascii_tree, ccsg_xml};
use causeway_collector::db::MonitoringDb;
use causeway_collector::segment;
use causeway_core::monitor::ProbeMode;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Duration;

const IDL: &str = r#"
    module Print {
        interface Stage {
            long process(in long page);
            oneway void log_event(in string message);
        };
    };
"#;

type Slot = Arc<OnceLock<ObjRef>>;

/// A stage that burns simulated CPU, forwards to the next stage, and fires a
/// one-way log event.
fn stage_servant(next: Slot, logger: Slot, cpu_us: u64) -> Arc<dyn Servant> {
    Arc::new(FnServant::new(move |ctx, midx, args| match midx.0 {
        0 => {
            causeway_core::clock::VirtualCpuClock::credit_current_thread(cpu_us * 1_000);
            let page = args[0].as_i64().unwrap_or(0);
            if let Some(logger) = logger.get() {
                ctx.client()
                    .invoke_oneway(logger, "log_event", vec![Value::from("processing")])
                    .map_err(|e| AppError::new("LogFailed", e.to_string()))?;
            }
            let value = match next.get() {
                Some(next) => ctx
                    .client()
                    .invoke(next, "process", vec![Value::I64(page)])
                    .map_err(|e| AppError::new("Downstream", e.to_string()))?
                    .as_i64()
                    .unwrap_or(0),
                None => page,
            };
            Ok(Value::I64(value + 1))
        }
        1 => Ok(Value::Void),
        _ => Err(AppError::new("BadMethod", "unknown")),
    }))
}

struct Pipeline {
    system: System,
    head: ObjRef,
    client_p: causeway_core::ids::ProcessId,
}

fn build_pipeline(mode: ProbeMode) -> Pipeline {
    let mut builder = System::builder();
    builder.probe_mode(mode);
    let hp = builder.node("hp-k460", "HPUX");
    let nt = builder.node("nt-box", "WindowsNT");
    let client_p = builder.process("driver", hp, ThreadingPolicy::ThreadPerRequest);
    let p1 = builder.process("frontend", hp, ThreadingPolicy::ThreadPool(2));
    let p2 = builder.process("backend", nt, ThreadingPolicy::ThreadPerRequest);
    let p3 = builder.process("logsvc", nt, ThreadingPolicy::ThreadPerConnection);
    let system = builder.build();
    system.load_idl(IDL).unwrap();

    let logger_slot: Slot = Arc::new(OnceLock::new());
    let tail_slot: Slot = Arc::new(OnceLock::new());
    let head_slot: Slot = Arc::new(OnceLock::new());

    let logger = system
        .register_servant(
            p3,
            "Print::Stage",
            "LogService",
            "logger#0",
            stage_servant(Arc::new(OnceLock::new()), Arc::new(OnceLock::new()), 1),
        )
        .unwrap();
    logger_slot.set(logger).unwrap();

    let tail = system
        .register_servant(
            p2,
            "Print::Stage",
            "Backend",
            "backend#0",
            stage_servant(Arc::new(OnceLock::new()), logger_slot.clone(), 200),
        )
        .unwrap();
    tail_slot.set(tail).unwrap();

    let head = system
        .register_servant(
            p1,
            "Print::Stage",
            "Frontend",
            "frontend#0",
            stage_servant(tail_slot.clone(), Arc::new(OnceLock::new()), 100),
        )
        .unwrap();
    head_slot.set(head).unwrap();

    system.start();
    Pipeline { system, head, client_p }
}

fn run_pages(pipe: &Pipeline, pages: usize) -> MonitoringDb {
    let client = pipe.system.client(pipe.client_p);
    for page in 0..pages {
        client.begin_root();
        let out = client
            .invoke(&pipe.head, "process", vec![Value::I64(page as i64)])
            .unwrap();
        assert_eq!(out.as_i64(), Some(page as i64 + 2));
    }
    pipe.system.quiesce(Duration::from_secs(10)).unwrap();
    pipe.system.shutdown();
    assert_eq!(pipe.system.anomaly_count(), 0);
    MonitoringDb::from_run(pipe.system.harvest())
}

#[test]
fn dscg_reconstructs_the_pipeline_shape() {
    let pipe = build_pipeline(ProbeMode::Latency);
    let db = run_pages(&pipe, 3);
    let dscg = Dscg::build(&db);
    assert!(dscg.abnormalities.is_empty(), "{:?}", dscg.abnormalities);
    assert_eq!(dscg.trees.len(), 3, "one tree per page");
    for tree in &dscg.trees {
        assert_eq!(tree.roots.len(), 1);
        let head = &tree.roots[0];
        let vocab = db.vocab();
        assert_eq!(vocab.qualified_function(&head.func), "Print::Stage.process@frontend#0");
        // frontend -> backend; backend -> {oneway logger} before finishing.
        assert_eq!(head.children.len(), 1);
        let backend = &head.children[0];
        assert_eq!(vocab.qualified_function(&backend.func), "Print::Stage.process@backend#0");
        assert_eq!(backend.children.len(), 1);
        let log_call = &backend.children[0];
        assert_eq!(log_call.kind, causeway_core::event::CallKind::Oneway);
        assert_eq!(
            vocab.qualified_function(&log_call.func),
            "Print::Stage.log_event@logger#0"
        );
        // The one-way child chain was grafted: skeleton events present.
        assert!(log_call.skel_start.is_some() && log_call.skel_end.is_some());
        assert!(head.complete && backend.complete && log_call.complete);
    }
    // Rendering works and is truthful.
    let text = ascii_tree(&dscg, db.vocab(), AsciiOptions { show_latency: true, show_site: true, max_nodes_per_tree: 0 });
    assert!(text.contains("frontend#0"));
    assert!(text.contains("[oneway]"));
}

#[test]
fn latency_analysis_orders_the_pipeline() {
    let pipe = build_pipeline(ProbeMode::Latency);
    let db = run_pages(&pipe, 5);
    let dscg = Dscg::build(&db);
    let analysis = LatencyAnalysis::compute(&dscg);

    let vocab = db.vocab();
    let iface = db.records()[0].func.interface;
    let process_idx = causeway_core::ids::MethodIndex(0);
    assert_eq!(vocab.method_name(iface, process_idx), "process");

    let stats = analysis.method(iface, process_idx).unwrap();
    assert_eq!(stats.count, 10, "frontend + backend per page");
    assert!(stats.mean_ns > 0.0);
    assert!(stats.min_ns <= stats.p50_ns && stats.p50_ns <= stats.max_ns);

    // The frontend invocation must dominate the backend invocation in every
    // tree (it contains it).
    for tree in &dscg.trees {
        let head = &tree.roots[0];
        let backend = &head.children[0];
        let head_l = causeway_analyzer::latency::node_latency(head).unwrap();
        let backend_l = causeway_analyzer::latency::node_latency(backend).unwrap();
        assert!(
            head_l.latency_ns > backend_l.latency_ns,
            "parent {} must exceed child {}",
            head_l.latency_ns,
            backend_l.latency_ns
        );
    }
}

#[test]
fn cpu_analysis_propagates_across_processor_types() {
    let pipe = build_pipeline(ProbeMode::Cpu);
    let db = run_pages(&pipe, 4);
    let dscg = Dscg::build(&db);
    assert!(dscg.abnormalities.is_empty());
    let analysis = CpuAnalysis::compute(&dscg, db.deployment());

    // Two CPU types in play: HPUX (frontend) and WindowsNT (backend+logger).
    let types = db.deployment().distinct_cpu_types();
    assert_eq!(types.len(), 2);
    let (hpux, nt) = (types[0], types[1]);
    assert!(analysis.system_total.get(hpux) > 0);
    assert!(analysis.system_total.get(nt) > 0);

    // The frontend credits ~100us per page to HPUX, the backend ~200us per
    // page to NT — the NT bucket must exceed the HPUX bucket.
    assert!(
        analysis.system_total.get(nt) > analysis.system_total.get(hpux),
        "NT {} vs HPUX {}",
        analysis.system_total.get(nt),
        analysis.system_total.get(hpux)
    );

    // Roots' inclusive CPU must cover both processor types (propagation
    // across the processor boundary is the paper's headline CPU claim).
    let ccsg = Ccsg::build(&dscg, db.deployment());
    assert_eq!(ccsg.roots.len(), 1, "all pages aggregate into one root");
    let root = &ccsg.roots[0];
    assert_eq!(root.invocation_times, 4);
    assert!(root.self_cpu.get(hpux) > 0);
    assert!(root.descendant_cpu.get(nt) > 0, "descendant CPU crossed to NT");

    let xml = ccsg_xml(&ccsg, db.vocab());
    assert!(xml.contains("cpuType=\"HPUX\""));
    assert!(xml.contains("cpuType=\"WindowsNT\""));
    assert!(xml.contains("InvocationTimes=\"4\""));
}

#[test]
fn runlog_round_trips_through_segment() {
    let pipe = build_pipeline(ProbeMode::Latency);
    let db = run_pages(&pipe, 2);
    let bytes = segment::write_run_log(db.run());
    let restored = segment::read_run_log(&bytes).unwrap();
    assert_eq!(&restored, db.run());

    // The analyzer produces the identical DSCG from the re-read log.
    let dscg_a = Dscg::build(&db);
    let dscg_b = Dscg::build(&MonitoringDb::from_run(restored));
    assert_eq!(dscg_a.total_nodes(), dscg_b.total_nodes());
    assert_eq!(dscg_a.trees.len(), dscg_b.trees.len());
}

#[test]
fn scale_stats_reflect_the_run() {
    let pipe = build_pipeline(ProbeMode::CausalityOnly);
    let db = run_pages(&pipe, 2);
    let stats = db.scale_stats();
    assert_eq!(stats.calls, 6, "3 invocations per page");
    assert_eq!(stats.unique_methods, 2);
    assert_eq!(stats.unique_interfaces, 1);
    assert_eq!(stats.unique_components, 3);
    assert_eq!(stats.unique_objects, 3);
    assert_eq!(stats.unique_chains, 4, "2 roots + 2 oneway children");
    assert_eq!(stats.processes, 4);
}

#[test]
fn hotspots_and_critical_path_find_the_slow_stage() {
    let pipe = build_pipeline(ProbeMode::Latency);
    let db = run_pages(&pipe, 5);
    let dscg = Dscg::build(&db);

    // The backend burns ~200µs/page vs the frontend's ~100µs: hotspot
    // ranking must put backend.process first.
    let ranked = causeway::analyzer::hotspot::hotspots(&dscg);
    assert!(!ranked.is_empty());
    let vocab = db.vocab();
    let top_object_label = {
        // Hotspots are per (interface, method); find which object ran it by
        // checking the heaviest root-to-leaf path instead.
        let path = causeway::analyzer::hotspot::critical_path(&dscg.trees[0]);
        assert_eq!(path.len(), 2, "frontend -> backend is the critical path");
        vocab.qualified_function(&path.last().unwrap().func)
    };
    assert_eq!(top_object_label, "Print::Stage.process@backend#0");

    // The critical path's self times decompose its latency sensibly.
    let path = causeway::analyzer::hotspot::critical_path(&dscg.trees[0]);
    assert!(path[0].latency_ns >= path[1].latency_ns);
    assert!(path[1].self_ns <= path[1].latency_ns);

    // The sequence chart renders every lane.
    let chart =
        causeway::analyzer::render::sequence_chart(&dscg, db.vocab(), 80);
    assert!(chart.contains("proc1/"), "{chart}");
    assert!(chart.contains("process"), "{chart}");
}

#[test]
fn online_analyzer_matches_offline_reconstruction() {
    use causeway::analyzer::online::{OnlineAnalyzer, OnlineEvent};
    let pipe = build_pipeline(ProbeMode::Latency);
    let db = run_pages(&pipe, 4);

    // Feed the records to the online analyzer in shuffled order; it must
    // complete exactly the same set of invocations the offline DSCG finds.
    let mut records = db.records().to_vec();
    records.reverse();
    let mut analyzer = OnlineAnalyzer::new();
    let mut completed = 0usize;
    let mut abnormal = 0usize;
    for record in records {
        analyzer.ingest(record, &mut |event| match event {
            OnlineEvent::CallCompleted { .. } => completed += 1,
            OnlineEvent::Abnormality { .. } => abnormal += 1,
            OnlineEvent::ChainIdle { .. } => {}
        });
    }
    let mut tail = Vec::new();
    analyzer.finish(&mut |e| tail.push(e));

    let dscg = Dscg::build(&db);
    assert_eq!(abnormal, 0);
    assert!(tail.is_empty(), "{tail:?}");
    assert_eq!(completed, dscg.total_nodes());
    assert_eq!(analyzer.open_chains(), 0);
}
