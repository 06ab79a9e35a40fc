//! Ablation A1 — the event sequence number.
//!
//! "From Sections 2 and 3, it is clear that without the additional event
//! number in the FTL, the full causality relationship reconstruction into a
//! call graph is impossible."
//!
//! This ablation takes one healthy PPS run and re-analyzes it three times:
//! with the event numbers intact, with the event numbers erased (UUID-only
//! FTL), and with the event numbers replaced by local wall timestamps (the
//! best a clock-based design could do without a logical counter), under
//! both a sequential and a concurrent workload.

use causeway_bench::{banner, print_table};
use causeway_analyzer::dscg::Dscg;
use causeway_collector::db::MonitoringDb;
use causeway_core::monitor::ProbeMode;
use causeway_core::runlog::RunLog;
use causeway_core::value::Value;
use causeway_workloads::{Pps, PpsConfig, PpsDeployment, StageName};
use std::time::Duration;

fn run(concurrency: usize) -> RunLog {
    let config = PpsConfig {
        deployment: PpsDeployment::FourProcess,
        probe_mode: ProbeMode::Latency,
        work_scale: 0.02,
        ..PpsConfig::default()
    };
    let pps = Pps::build(&config);
    std::thread::scope(|scope| {
        for lane in 0..concurrency {
            let client = pps.system.client(pps.driver);
            let source = pps.stage(StageName::JobSource);
            scope.spawn(move || {
                for job in 0..8 {
                    client.begin_root();
                    client
                        .invoke(&source, "submit", vec![Value::I64((lane * 100 + job) as i64)])
                        .expect("job");
                }
            });
        }
    });
    pps.system.quiesce(Duration::from_secs(30)).expect("quiesce");
    pps.finish()
}

/// Erases the event numbers, leaving only arrival order within each thread.
fn without_seq(run: &RunLog) -> RunLog {
    let mut run = run.clone();
    for r in &mut run.records {
        r.seq = 0;
    }
    run
}

/// Replaces event numbers with local wall timestamps.
fn seq_from_clock(run: &RunLog) -> RunLog {
    let mut run = run.clone();
    for r in &mut run.records {
        r.seq = r.wall_start.unwrap_or(0);
    }
    run
}

fn analyze(label: &str, run: RunLog, rows: &mut Vec<Vec<String>>) -> usize {
    let db = MonitoringDb::from_run(run);
    let dscg = Dscg::build(&db);
    let complete = {
        let mut n = 0;
        dscg.walk(&mut |node, _| {
            if node.complete {
                n += 1;
            }
        });
        n
    };
    rows.push(vec![
        label.to_owned(),
        dscg.total_nodes().to_string(),
        complete.to_string(),
        dscg.abnormalities.len().to_string(),
    ]);
    dscg.abnormalities.len()
}

fn main() {
    banner(
        "A1",
        "ablation — reconstruction without the FTL event number",
        "without the additional event number in the FTL, the full causality \
         relationship reconstruction into a call graph is impossible",
    );

    for concurrency in [1usize, 4] {
        let run = run(concurrency);
        println!("\n--- {}x concurrent drivers, {} records ---", concurrency, run.records.len());
        let mut rows = Vec::new();
        let with = analyze("FTL = UUID + event number (the paper)", run.clone(), &mut rows);
        let erased = analyze("FTL = UUID only (seq erased)", without_seq(&run), &mut rows);
        let clocked = analyze("FTL = UUID + local wall clock", seq_from_clock(&run), &mut rows);
        print_table(&["FTL variant", "nodes", "complete", "abnormalities"], &rows);
        assert_eq!(with, 0, "full FTL reconstructs cleanly");
        assert!(erased > 0, "UUID-only FTL must fail to order events");
        // The wall clock is not a logical clock: collocated probes can share
        // a nanosecond stamp and cross-process stamps are not causally
        // ordered, so some runs break; the event number never does. We
        // report it without asserting, since a fast clock can get lucky.
        let _ = clocked;
    }

    println!(
        "\nA1 PASS: UUID-only FTLs cannot be ordered into a call graph; the \
         event number makes reconstruction exact."
    );
}
