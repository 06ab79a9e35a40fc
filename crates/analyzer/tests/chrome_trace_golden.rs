//! Golden-file test for the Chrome trace exporter.
//!
//! Builds a deterministic printing-pipeline run by hand (fixed uuids,
//! sequence numbers and wall stamps — live runs randomize all three) and
//! checks the exported trace byte-for-byte against
//! `tests/golden/printing_pipeline.trace.json`. The golden file is a real
//! Chrome trace: drop it on <https://ui.perfetto.dev> to inspect it.
//!
//! To regenerate after an intentional exporter change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p causeway-analyzer --test chrome_trace_golden
//! ```

use causeway_analyzer::chrome_trace;
use causeway_collector::db::MonitoringDb;
use causeway_collector::json::{self, Json};
use causeway_core::deploy::Deployment;
use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::ids::*;
use causeway_core::names::SystemVocab;
use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
use causeway_core::runlog::RunLog;
use causeway_core::uuid::Uuid;

const JOB_CHAIN: Uuid = Uuid(0xA11CE);
const NOTIFY_CHAIN: Uuid = Uuid(0xB0B);

#[allow(clippy::too_many_arguments)]
fn rec(
    uuid: Uuid,
    seq: u64,
    event: TraceEvent,
    kind: CallKind,
    func: FunctionKey,
    process: u16,
    node: u16,
    wall: (u64, u64),
) -> ProbeRecord {
    ProbeRecord {
        uuid,
        seq,
        event,
        kind,
        site: CallSite {
            node: NodeId(node),
            process: ProcessId(process),
            thread: LogicalThreadId(0),
        },
        func,
        wall_start: Some(wall.0),
        wall_end: Some(wall.1),
        cpu_start: None,
        cpu_end: None,
        oneway_child: None,
        oneway_parent: None,
    }
}

/// One print job through the paper's printing-pipeline system: the client
/// submits to the intake, the intake synchronously rasterizes on the RIP,
/// and the RIP fires a one-way completion notification at the press.
fn printing_pipeline_db() -> MonitoringDb {
    let vocab = SystemVocab::new();
    let intake_if = vocab.intern_interface("JobIntake", &["submit"]);
    let rip_if = vocab.intern_interface("Rip", &["rasterize"]);
    let press_if = vocab.intern_interface("Press", &["notify_done"]);
    let intake_c = vocab.intern_component("IntakeComponent");
    let rip_c = vocab.intern_component("RipComponent");
    let press_c = vocab.intern_component("PressComponent");
    let intake_obj = vocab.register_object("intake#0", intake_if, intake_c, ProcessId(1));
    let rip_obj = vocab.register_object("rip#0", rip_if, rip_c, ProcessId(2));
    let press_obj = vocab.register_object("press#0", press_if, press_c, ProcessId(3));

    let mut deployment = Deployment::new();
    let cpu = vocab.intern_cpu_type("TestCpu");
    let office = deployment.add_node("office", cpu);
    let pressroom = deployment.add_node("pressroom", cpu);
    deployment.add_process("client", office);
    deployment.add_process("intake", office);
    deployment.add_process("rip", pressroom);
    deployment.add_process("press", pressroom);

    let submit = FunctionKey::new(intake_if, MethodIndex(0), intake_obj);
    let rasterize = FunctionKey::new(rip_if, MethodIndex(0), rip_obj);
    let notify = FunctionKey::new(press_if, MethodIndex(0), press_obj);
    let sync = CallKind::Sync;
    let oneway = CallKind::Oneway;

    let mut fork = rec(
        JOB_CHAIN, 5, TraceEvent::StubStart, oneway, notify, 2, 1, (5_000, 5_100),
    );
    fork.oneway_child = Some(NOTIFY_CHAIN);
    let mut notify_head = rec(
        NOTIFY_CHAIN, 1, TraceEvent::SkelStart, oneway, notify, 3, 1, (5_500, 5_600),
    );
    notify_head.oneway_parent = Some((JOB_CHAIN, 5));

    let records = vec![
        rec(JOB_CHAIN, 1, TraceEvent::StubStart, sync, submit, 0, 0, (1_000, 1_200)),
        rec(JOB_CHAIN, 2, TraceEvent::SkelStart, sync, submit, 1, 0, (2_000, 2_200)),
        rec(JOB_CHAIN, 3, TraceEvent::StubStart, sync, rasterize, 1, 0, (3_000, 3_200)),
        rec(JOB_CHAIN, 4, TraceEvent::SkelStart, sync, rasterize, 2, 1, (4_000, 4_200)),
        fork,
        rec(JOB_CHAIN, 6, TraceEvent::StubEnd, oneway, notify, 2, 1, (5_200, 5_300)),
        rec(JOB_CHAIN, 7, TraceEvent::SkelEnd, sync, rasterize, 2, 1, (6_000, 6_200)),
        rec(JOB_CHAIN, 8, TraceEvent::StubEnd, sync, rasterize, 1, 0, (7_000, 7_200)),
        rec(JOB_CHAIN, 9, TraceEvent::SkelEnd, sync, submit, 1, 0, (8_000, 8_200)),
        rec(JOB_CHAIN, 10, TraceEvent::StubEnd, sync, submit, 0, 0, (9_000, 9_200)),
        notify_head,
        rec(NOTIFY_CHAIN, 2, TraceEvent::SkelEnd, oneway, notify, 3, 1, (5_800, 5_900)),
    ];
    MonitoringDb::from_run(RunLog::new(records, vocab.snapshot(), deployment))
}

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/printing_pipeline.trace.json");

#[test]
fn printing_pipeline_trace_matches_golden_file() {
    let exported = chrome_trace::export(&printing_pipeline_db());

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &exported).expect("write golden file");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        exported, golden,
        "exporter output drifted from the golden trace; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn golden_trace_is_loadable_chrome_json() {
    let exported = chrome_trace::export(&printing_pipeline_db());
    let parsed = json::parse(&exported).expect("valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    // Every event carries the envelope Perfetto requires of its phase.
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph");
        assert!(event.get("name").and_then(Json::as_str).is_some(), "name on {ph}");
        assert!(event.get("pid").and_then(Json::as_u64).is_some(), "pid on {ph}");
        match ph {
            "M" => {}
            "X" => {
                assert!(event.get("ts").is_some() && event.get("dur").is_some());
            }
            "b" | "e" | "s" | "f" => {
                assert!(event.get("ts").is_some() && event.get("id").is_some());
            }
            "i" => assert!(event.get("ts").is_some()),
            other => panic!("unexpected phase {other}"),
        }
    }

    // The one-way notification grafted into the job chain: its client
    // slice sits on the RIP's process, its server slice on the press's.
    let slice = |cat: &str, pid: u64| {
        events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("cat").and_then(Json::as_str) == Some(cat)
                && e.get("pid").and_then(Json::as_u64) == Some(pid)
                && e.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.contains("notify_done"))
        })
    };
    assert!(slice("stub", 2), "one-way client slice on the rip");
    assert!(slice("skel", 3), "grafted one-way server slice on the press");

    // Four process_name metadata tracks, named from the deployment.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str))
        .collect();
    assert_eq!(
        names,
        [
            "client @ office",
            "intake @ office",
            "rip @ pressroom",
            "press @ pressroom"
        ]
    );
}
