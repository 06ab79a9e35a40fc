//! The analyst's path against answers written by an older commit.
//!
//! `fixtures/parent_445ca92_analysis.cwseg` was written by `write_run_log`
//! at commit 445ca92 — before the one record table, the chain index slices,
//! the compact call nodes and the range partials — from a five-job
//! printing-pipeline run on three nodes with three CPU types, in
//! `ProbeMode::Both` (278 records). Two records were removed before writing:
//! the first skeleton end of job 2 (an abnormal chain) and the stub start of
//! job 3's first one-way fork (an orphaned one-way child chain). The other
//! one-way calls graft under their fork sites. Beside it sit that commit's
//! CCSG XML, latency table, CPU vectors, abnormality list and annotated
//! DSCG for the segment; re-reading and re-analysing it today must
//! reproduce every one of them byte for byte.
//!
//! A second test checks that latency, CPU and CCSG come out the same at
//! any worker count, with fewer and with more trees than range partials.

use causeway_analyzer::ccsg::Ccsg;
use causeway_analyzer::cpu::{CpuAnalysis, CpuVector};
use causeway_analyzer::dscg::{CallNode, CallTree, Dscg};
use causeway_analyzer::latency::{self, LatencyAnalysis};
use causeway_analyzer::render::{ascii_tree, ccsg_xml, AsciiOptions};
use causeway_collector::db::MonitoringDb;
use causeway_collector::segment::read_run_log;
use causeway_core::names::VocabSnapshot;
use std::fmt::Write as _;

const SEGMENT: &[u8] = include_bytes!("fixtures/parent_445ca92_analysis.cwseg");

fn latency_table(analysis: &LatencyAnalysis, vocab: &VocabSnapshot) -> String {
    let mut out = String::new();
    for (&(iface, method), s) in &analysis.per_method {
        writeln!(
            out,
            "{}.{} count={} mean={:?} min={} max={} p50={} p95={} p99={} mean_overhead={:?}",
            vocab.interface_name(iface),
            vocab.method_name(iface, method),
            s.count,
            s.mean_ns,
            s.min_ns,
            s.max_ns,
            s.p50_ns,
            s.p95_ns,
            s.p99_ns,
            s.mean_overhead_ns
        )
        .expect("string write");
    }
    out
}

fn cpu_vector(v: &CpuVector) -> String {
    v.iter().map(|(t, ns)| format!("{}:{ns}", t.0)).collect::<Vec<_>>().join(",")
}

fn cpu_table(cpu: &CpuAnalysis) -> String {
    let mut out = format!("system_total [{}]\n", cpu_vector(&cpu.system_total));
    for (i, node) in cpu.per_node.iter().enumerate() {
        writeln!(
            out,
            "{i} self [{}] descendant [{}]",
            cpu_vector(&node.self_cpu),
            cpu_vector(&node.descendant_cpu)
        )
        .expect("string write");
    }
    out
}

fn abnormality_list(dscg: &Dscg) -> String {
    let mut out = String::new();
    for a in &dscg.abnormalities {
        writeln!(out, "{} {:?} {}", a.chain, a.at_seq, a.message).expect("string write");
    }
    out
}

fn fixture_db() -> MonitoringDb {
    MonitoringDb::from_run(read_run_log(SEGMENT).expect("the parent's segment reads clean"))
}

#[test]
fn the_parent_commits_answers_are_reproduced_byte_for_byte() {
    let db = fixture_db();
    assert_eq!(db.records().len(), 278);
    assert_eq!(db.run().missing_records(), Some(2), "two records were removed");
    let dscg = Dscg::build(&db);
    assert_eq!(dscg, Dscg::build_serial(&db));
    let options = AsciiOptions { show_latency: true, show_site: true, max_nodes_per_tree: 0 };
    let outputs = [
        (
            "ccsg.xml",
            ccsg_xml(&Ccsg::build(&dscg, db.deployment()), db.vocab()),
            include_str!("fixtures/parent_445ca92_ccsg.xml"),
        ),
        (
            "latency.txt",
            latency_table(&LatencyAnalysis::compute(&dscg), db.vocab()),
            include_str!("fixtures/parent_445ca92_latency.txt"),
        ),
        (
            "cpu.txt",
            cpu_table(&CpuAnalysis::compute(&dscg, db.deployment())),
            include_str!("fixtures/parent_445ca92_cpu.txt"),
        ),
        (
            "abnormalities.txt",
            abnormality_list(&dscg),
            include_str!("fixtures/parent_445ca92_abnormalities.txt"),
        ),
        (
            "dscg.txt",
            ascii_tree(&dscg, db.vocab(), options),
            include_str!("fixtures/parent_445ca92_dscg.txt"),
        ),
    ];
    for (name, got, want) in outputs {
        assert!(got == want, "{name} differs from the parent's:\n{got}");
    }
    // The fixture covers what it claims to.
    let messages = abnormality_list(&dscg);
    assert!(messages.contains("stub_end out of order"), "{messages}");
    assert!(messages.contains("without a reachable fork site"), "{messages}");
    let mut grafted = 0;
    dscg.walk(&mut |node, _| {
        let forked = node.oneway_child.is_some() && node.stub_start.is_some();
        grafted += usize::from(forked && node.skel_start.is_some());
    });
    assert!(grafted > 0, "some one-way call grafted under its fork site");
    assert_eq!(db.deployment().distinct_cpu_types().len(), 3);
}

/// Every output that depends on how trees shard, as text.
fn characterization(dscg: &Dscg, db: &MonitoringDb, threads: usize) -> String {
    let latency = LatencyAnalysis::compute_with_threads(dscg, threads);
    let histograms = latency::histograms_with_threads(dscg, threads);
    let cpu = CpuAnalysis::compute_with_threads(dscg, db.deployment(), threads);
    let ccsg = Ccsg::build_with_threads(dscg, db.deployment(), threads);
    format!(
        "{}{histograms:?}\n{}{:?}\n{:?}",
        latency_table(&latency, db.vocab()),
        cpu_table(&cpu),
        ccsg.roots,
        ccsg.system_total
    )
}

/// Shifts every event number in `tree`, so copies of one tree leave
/// distinct instance markers in the CCSG.
fn renumber(tree: &mut CallTree, offset: u64) {
    let mut stack: Vec<&mut CallNode> = tree.roots.iter_mut().collect();
    while let Some(node) = stack.pop() {
        let probes =
            [&mut node.stub_start, &mut node.skel_start, &mut node.skel_end, &mut node.stub_end];
        for probe in probes.into_iter().flatten() {
            probe.seq += offset;
        }
        stack.extend(node.children.iter_mut());
    }
}

#[test]
fn characterization_is_identical_at_any_thread_count() {
    let db = fixture_db();
    let few = Dscg::build(&db);
    // More trees than the ranges seven workers split them into.
    let trees = few.trees.iter().cycle().take(100).cloned().enumerate();
    let many = Dscg::from_trees(
        trees
            .map(|(i, mut tree)| {
                renumber(&mut tree, i as u64 * 1_000);
                tree
            })
            .collect(),
    );
    for dscg in [&few, &many] {
        let serial = characterization(dscg, &db, 1);
        for threads in [2, 3, 7] {
            assert!(
                characterization(dscg, &db, threads) == serial,
                "{threads} threads over {} trees",
                dscg.trees.len()
            );
        }
    }
    let empty = Dscg::default();
    assert_eq!(characterization(&empty, &db, 7), characterization(&empty, &db, 1));
}
