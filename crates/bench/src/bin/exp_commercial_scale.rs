//! Experiment F5/E3 — Figure 5 and the §4 scalability result.
//!
//! "The largest system run ever conducted so far consisted of about 195,000
//! calls, with a total of 801 unique methods in 155 unique interfaces from
//! 176 unique components. With the current Java implementation, it took the
//! analyzer 28 minutes to compute the DSCG on a HP x4000 1.7 GHz
//! dual-processor Windows 2000 computer."
//!
//! This binary generates the synthetic commercial system at the same scale,
//! runs the full monitored workload, persists it as a segment and reads it
//! back, computes the DSCG, and prints the paper-vs-measured comparison plus
//! a Figure-5-style excerpt of the graph. It asserts that the segment
//! round-trips the run bit-identically and that the sharded DSCG build
//! equals the serial one. Pass `--small` for a quick run at reduced scale.

use causeway_bench::{banner, fmt_duration, print_table, timed};
use causeway_analyzer::dscg::Dscg;
use causeway_analyzer::render::{AsciiOptions, ascii_tree};
use causeway_collector::db::MonitoringDb;
use causeway_collector::segment;
use causeway_workloads::{CommercialConfig, CommercialSystem};

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    banner(
        "F5/E3",
        "Figure 5 — DSCG of the commercial large-scale system",
        "195,000 calls / 801 methods / 155 interfaces / 176 components / 32 \
         threads / 4 processes; DSCG computed in 28 min (Java, 2003 hardware)",
    );

    let config = if small {
        CommercialConfig::scaled(10_000, 0x1cdc_2003)
    } else {
        CommercialConfig::default()
    };

    println!("\ngenerating + starting the system…");
    let (commercial, build_time) = timed(|| CommercialSystem::build(&config));
    println!(
        "  built in {} ({} entry points, {} planned calls)",
        fmt_duration(build_time),
        commercial.entry_points.len(),
        commercial.planned_calls
    );

    println!("running the monitored workload…");
    let (roots, run_time) = timed(|| commercial.run());
    println!("  {roots} root transactions in {}", fmt_duration(run_time));

    let (db, collect_time) = timed(|| {
        let run = commercial.finish();
        let bytes = segment::write_run_log(&run);
        let decoded = segment::read_run_log(&bytes).expect("segment reads back");
        assert!(decoded == run, "segment round-trip must be bit-identical");
        MonitoringDb::from_run(decoded)
    });
    let stats = db.scale_stats();
    println!("  collected, persisted, re-read + synthesized in {}", fmt_duration(collect_time));

    let (dscg, dscg_time) = timed(|| Dscg::build_with_threads(&db, 1));
    assert!(dscg.abnormalities.is_empty(), "healthy run must be clean");
    assert!(Dscg::build_with_threads(&db, 2) == dscg, "sharded DSCG must equal the serial one");

    println!("\n--- scale statistics (paper vs. measured) ---");
    print_table(
        &["metric", "paper", "measured"],
        &[
            vec!["calls".into(), "≈195,000".into(), stats.calls.to_string()],
            vec!["unique methods".into(), "801".into(), stats.unique_methods.to_string()],
            vec![
                "unique interfaces".into(),
                "155".into(),
                stats.unique_interfaces.to_string(),
            ],
            vec![
                "unique components".into(),
                "176".into(),
                stats.unique_components.to_string(),
            ],
            vec!["threads".into(), "32".into(), stats.threads.to_string()],
            vec![
                "processes".into(),
                "4 (+driver)".into(),
                stats.processes.to_string(),
            ],
            vec![
                "DSCG computation".into(),
                "28 min".into(),
                fmt_duration(dscg_time),
            ],
            vec![
                "DSCG nodes".into(),
                "≈195,000".into(),
                dscg.total_nodes().to_string(),
            ],
            vec!["DSCG trees".into(), "-".into(), dscg.trees.len().to_string()],
        ],
    );

    println!("\n--- Figure 5 substitute: a portion of the DSCG ---");
    let excerpt = Dscg::from_trees(dscg.trees.iter().take(1).cloned().collect());
    print!(
        "{}",
        ascii_tree(
            &excerpt,
            db.vocab(),
            AsciiOptions { show_site: true, max_nodes_per_tree: 40, ..Default::default() }
        )
    );

    println!(
        "\nF5/E3 PASS: DSCG of {} calls computed in {} (paper: 28 min).",
        stats.calls,
        fmt_duration(dscg_time)
    );
}
