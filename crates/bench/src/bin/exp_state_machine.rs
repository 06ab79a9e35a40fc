//! Experiment F4 — Figure 4: the reconstruction state machine, including
//! the "abnormal" transition that indicates a failure and restarts from the
//! next log record.
//!
//! Feeds the analyzer (a) a healthy mixed workload (sync, collocated,
//! one-way) and (b) the same log with injected corruption — dropped,
//! duplicated and reordered records — and reports how reconstruction
//! degrades and recovers.

use causeway_bench::{banner, print_table};
use causeway_analyzer::dscg::Dscg;
use causeway_collector::db::MonitoringDb;
use causeway_core::monitor::ProbeMode;
use causeway_core::rng::Rng;
use causeway_core::runlog::RunLog;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use causeway_workloads::{Pps, PpsConfig, PpsDeployment};
use std::collections::HashMap;
use std::time::Duration;

fn healthy_run() -> RunLog {
    let config = PpsConfig {
        deployment: PpsDeployment::FourProcess,
        probe_mode: ProbeMode::CausalityOnly,
        work_scale: 0.02,
        ..PpsConfig::default()
    };
    let pps = Pps::build(&config);
    pps.run_jobs(20);
    let mut run = pps.finish();
    canonical_order(&mut run.records);
    run
}

/// Orders records so that `corrupt` draws the same drops for the same seed
/// (uuids are time-seeded, push order is the scheduler's): root chains in
/// job order, each one-way child right after its parent at the fork's
/// `(parent, seq)`, then `seq` and event within a chain.
fn canonical_order(records: &mut [causeway_core::record::ProbeRecord]) {
    let forks: HashMap<_, _> =
        records.iter().filter_map(|r| Some((r.oneway_child?, (r.uuid, r.seq)))).collect();
    // A root chain's first record is its driver stub start; one thread
    // pushed them all, job by job, and harvest keeps a thread's order.
    let roots: HashMap<_, _> = records
        .iter()
        .filter(|r| r.seq == 1 && !forks.contains_key(&r.uuid))
        .enumerate()
        .map(|(rank, r)| (r.uuid, rank as u64))
        .collect();
    let chain = |mut uuid| {
        let mut key = Vec::new();
        while let Some(&(parent, seq)) = forks.get(&uuid) {
            key.push(seq);
            uuid = parent;
        }
        key.push(roots.get(&uuid).copied().unwrap_or(u64::MAX));
        key.reverse();
        key
    };
    records.sort_by_cached_key(|r| (chain(r.uuid), r.seq, r.event));
}

fn corrupt(run: &RunLog, drop_pct: f64, dup_pct: f64, seed: u64) -> RunLog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut records = Vec::with_capacity(run.records.len());
    for record in &run.records {
        if rng.gen_bool(drop_pct) {
            continue; // lost record
        }
        records.push(record.clone());
        if rng.gen_bool(dup_pct) {
            records.push(record.clone()); // duplicated record
        }
    }
    rng.shuffle(&mut records); // scattered logs arrive in arbitrary order
    RunLog::new(records, run.vocab.clone(), run.deployment.clone())
}

fn main() {
    banner(
        "F4",
        "Figure 4 — state machine with abnormal-transition recovery",
        "if adjacent log records follow none of the identified transition \
         patterns, the analysis will indicate the failure and restart from \
         the next log record",
    );

    let run = healthy_run();
    println!("\nworkload: PPS x20 jobs, {} records", run.records.len());

    let mut rows = Vec::new();
    for (label, drop_pct, dup_pct) in [
        ("healthy", 0.0, 0.0),
        ("0.1% dropped", 0.001, 0.0),
        ("1% dropped", 0.01, 0.0),
        ("5% dropped", 0.05, 0.0),
        ("1% duplicated", 0.0, 0.01),
        ("1% dropped + 1% duplicated", 0.01, 0.01),
    ] {
        let corrupted = corrupt(&run, drop_pct, dup_pct, 99);
        let db = MonitoringDb::from_run(corrupted);
        let dscg = Dscg::build(&db);
        let complete: usize = {
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
            db.records().len().to_string(),
            dscg.trees.len().to_string(),
            dscg.total_nodes().to_string(),
            complete.to_string(),
            dscg.abnormalities.len().to_string(),
        ]);
    }
    println!();
    print_table(
        &["corruption", "records", "trees", "nodes", "complete nodes", "abnormalities"],
        &rows,
    );

    // Sanity: the healthy log reconstructs perfectly, corrupted logs are
    // flagged but still produce mostly-complete graphs.
    let db = MonitoringDb::from_run(run.clone());
    let healthy = Dscg::build(&db);
    assert!(healthy.abnormalities.is_empty());

    let db = MonitoringDb::from_run(corrupt(&run, 0.05, 0.0, 99));
    let degraded = Dscg::build(&db);
    assert!(!degraded.abnormalities.is_empty(), "corruption must be indicated");
    assert!(
        degraded.total_nodes() > healthy.total_nodes() / 2,
        "recovery keeps most of the graph"
    );

    // Also demonstrate the timeout-shaped failure end-to-end: a stub
    // bracket whose skeleton never ran.
    let mut builder = System::builder();
    builder.reply_timeout(Duration::from_millis(100));
    builder.probe_mode(ProbeMode::CausalityOnly);
    let node = builder.node("n", "X");
    let cp = builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
    let sp = builder.process("server", node, ThreadingPolicy::ThreadPerRequest);
    let system = builder.build();
    system.load_idl("interface S { void slow(); };").unwrap();
    let obj = system
        .register_servant(
            sp,
            "S",
            "C",
            "s#0",
            std::sync::Arc::new(FnServant::new(|_, _, _| {
                std::thread::sleep(Duration::from_millis(300));
                Ok(Value::Void)
            })),
        )
        .unwrap();
    system.start();
    let client = system.client(cp);
    client.begin_root();
    let err = client.invoke(&obj, "slow", vec![]).unwrap_err();
    assert!(matches!(err, OrbError::Timeout(_)));
    system.quiesce(Duration::from_secs(5)).unwrap();
    system.shutdown();
    let db = MonitoringDb::from_run(system.harvest());
    let dscg = Dscg::build(&db);
    println!(
        "\ntimeout scenario: {} abnormalities flagged (expected > 0): {}",
        dscg.abnormalities.len(),
        dscg.abnormalities
            .first()
            .map(|a| a.message.as_str())
            .unwrap_or("-")
    );
    assert!(!dscg.abnormalities.is_empty());

    println!("\nF4 PASS: abnormal transitions are indicated and parsing restarts.");
}
