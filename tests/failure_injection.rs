//! Failure injection at the collection layer: lost process logs, corrupted
//! persistence, and measurement-mode gaps. The analyzer must degrade
//! loudly (abnormality reports) but never wrongly (surviving trees stay
//! correct) and never panic.

use causeway::analyzer::dscg::Dscg;
use causeway::analyzer::latency::LatencyAnalysis;
use causeway::collector::db::MonitoringDb;
use causeway::collector::segment;
use causeway::core::ids::ProcessId;
use causeway::core::monitor::ProbeMode;
use causeway::core::runlog::RunLog;
use causeway::workloads::{Pps, PpsConfig, PpsDeployment};

fn pps_run(mode: ProbeMode) -> RunLog {
    let config = PpsConfig {
        deployment: PpsDeployment::FourProcess,
        probe_mode: mode,
        work_scale: 0.02,
        ..PpsConfig::default()
    };
    let pps = Pps::build(&config);
    pps.run_jobs(10);
    pps.finish()
}

#[test]
fn losing_one_process_log_degrades_loudly_not_wrongly() {
    let run = pps_run(ProbeMode::CausalityOnly);
    let healthy_nodes = Dscg::build(&MonitoringDb::from_run(run.clone())).total_nodes();

    // Process 2 (ColorConverter / Halftoner / Compressor) crashed before its
    // logs were collected.
    let mut crashed = run.clone();
    crashed.records.retain(|r| r.site.process != ProcessId(2));
    let db = MonitoringDb::from_run(crashed);
    let dscg = Dscg::build(&db);

    assert!(
        !dscg.abnormalities.is_empty(),
        "missing skeleton events must be reported"
    );
    // The stub-side brackets of the lost calls survive, so the total node
    // count only drops by the invocations hosted entirely in process 2 —
    // nothing else vanishes.
    assert!(dscg.total_nodes() > healthy_nodes / 2);
    // Stages outside process 2 still form complete invocations somewhere.
    let mut complete = 0usize;
    dscg.walk(&mut |node, _| {
        if node.complete {
            complete += 1;
        }
    });
    assert!(complete > 0);
}

#[test]
fn losing_the_driver_log_orphans_chains_but_keeps_structure() {
    let run = pps_run(ProbeMode::CausalityOnly);
    let mut headless = run.clone();
    // The driver process hosts JobSource / Spooler / StatusMonitor too, so
    // dropping it removes roots: downstream subtrees must survive as
    // reconstructable fragments.
    headless.records.retain(|r| r.site.process != ProcessId(0));
    let db = MonitoringDb::from_run(headless);
    let dscg = Dscg::build(&db);
    assert!(dscg.total_nodes() > 0, "interpreter/rasterizer subtrees survive");
    assert!(!dscg.abnormalities.is_empty());
}

#[test]
fn corrupted_segment_recovers_with_lossy_reader() {
    let run = pps_run(ProbeMode::Latency);
    let mut bytes = segment::write_run_log_with_frame(&run, 16);

    // Flip one payload byte of a chunk frame in the middle of the segment
    // (frame 0 is the header, the last one the seal).
    let mut starts = Vec::new();
    let mut cursor = segment::SEGMENT_MAGIC.len();
    while let Some(frame) = segment::next_frame(&bytes, cursor) {
        starts.push(cursor);
        cursor = frame.end;
    }
    assert!(starts.len() >= 5, "enough chunk frames to damage a middle one");
    bytes[starts[starts.len() / 2] + 8 + 20] ^= 0xFF;

    assert!(segment::read_run_log(&bytes).is_err(), "strict mode refuses corruption");
    let recovery = segment::recover_run_log(&bytes).expect("lossy mode succeeds");
    let restored = recovery.run;
    assert!(restored.records.len() < run.records.len());
    assert_eq!(restored.records[..], run.records[..restored.records.len()], "a clean prefix");
    assert!(restored.missing_records().is_some_and(|missing| missing > 0));

    // The analyzer still reconstructs the undamaged chains; the damaged
    // ones are flagged.
    let dscg = Dscg::build(&MonitoringDb::from_run(restored));
    assert!(dscg.total_nodes() > 0);
    let analysis = LatencyAnalysis::compute(&dscg);
    assert!(!analysis.per_method.is_empty());
}

#[test]
fn causality_only_mode_reconstructs_without_any_stamps() {
    let run = pps_run(ProbeMode::CausalityOnly);
    assert!(run.records.iter().all(|r| r.wall_start.is_none() && r.cpu_start.is_none()));
    let db = MonitoringDb::from_run(run);
    let dscg = Dscg::build(&db);
    assert!(dscg.abnormalities.is_empty());
    assert_eq!(dscg.trees.len(), 10);
    // Latency analysis is empty but total (no panics, no fabricated data).
    let analysis = LatencyAnalysis::compute(&dscg);
    assert!(analysis.per_method.is_empty());
    let cpu = causeway::analyzer::cpu::CpuAnalysis::compute(&dscg, db.deployment());
    assert!(cpu.system_total.is_zero());
}

#[test]
fn cross_process_record_shuffling_is_harmless() {
    // Collection order across processes is arbitrary in reality; the seq
    // numbers alone must suffice.
    let mut run = pps_run(ProbeMode::Latency);
    run.records.reverse();
    let dscg = Dscg::build(&MonitoringDb::from_run(run));
    assert!(dscg.abnormalities.is_empty(), "{:?}", dscg.abnormalities);
    assert_eq!(dscg.trees.len(), 10);
}

#[test]
fn merged_runs_from_two_systems_stay_separate_chains() {
    // Two independent runs merged into one database (e.g. two collection
    // epochs): UUIDs keep them apart.
    let run_a = pps_run(ProbeMode::CausalityOnly);
    let run_b = pps_run(ProbeMode::CausalityOnly);
    let expected = {
        let a = Dscg::build(&MonitoringDb::from_run(run_a.clone()));
        let b = Dscg::build(&MonitoringDb::from_run(run_b.clone()));
        a.trees.len() + b.trees.len()
    };
    let mut merged = run_a;
    merged.merge(run_b);
    let dscg = Dscg::build(&MonitoringDb::from_run(merged));
    assert!(dscg.abnormalities.is_empty());
    assert_eq!(dscg.trees.len(), expected);
}
