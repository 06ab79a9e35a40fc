//! The synthetic commercial-scale system at reduced size: generate a
//! 176-component topology, run ~20,000 monitored calls on 32 threads, and
//! characterize the result — the workflow of the paper's §4 case study.
//!
//! ```text
//! cargo run --release --example commercial_scale
//! ```

use causeway::analyzer::dscg::Dscg;
use causeway::analyzer::render::{AsciiOptions, ascii_tree};
use causeway::collector::db::MonitoringDb;
use causeway::collector::segment;
use causeway::workloads::{CommercialConfig, CommercialSystem};
use std::time::Instant;

fn main() {
    let config = CommercialConfig {
        target_calls: 20_000,
        ..CommercialConfig::default()
    };
    println!(
        "generating a {}-component / {}-interface / {}-method system…",
        config.components, config.interfaces, config.methods
    );
    let commercial = CommercialSystem::build(&config);
    println!(
        "planned workload: {} calls across {} entry points",
        commercial.planned_calls,
        commercial.entry_points.len()
    );

    let t = Instant::now();
    let roots = commercial.run();
    println!("ran {roots} root transactions in {:.2?}", t.elapsed());

    let run = commercial.finish();

    // Persist the raw monitoring data the way the paper's collector feeds
    // its relational database, then read it back.
    let bytes = segment::write_run_log(&run);
    println!("run-log segment: {:.1} MB", bytes.len() as f64 / 1e6);
    let restored = segment::read_run_log(&bytes).expect("round trip");

    let db = MonitoringDb::from_run(restored);
    let stats = db.scale_stats();
    println!(
        "\nscale: {} calls, {} methods, {} interfaces, {} components, {} threads, {} processes",
        stats.calls,
        stats.unique_methods,
        stats.unique_interfaces,
        stats.unique_components,
        stats.threads,
        stats.processes
    );

    let t = Instant::now();
    let dscg = Dscg::build(&db);
    println!(
        "DSCG: {} nodes in {} trees, computed in {:.2?} (paper's 195k-call run: 28 min)",
        dscg.total_nodes(),
        dscg.trees.len(),
        t.elapsed()
    );
    assert!(dscg.abnormalities.is_empty());

    // Show the deepest tree, like navigating to a hot spot in the viewer.
    let deepest = dscg
        .trees
        .iter()
        .max_by_key(|t| t.roots.iter().map(|r| r.depth()).max().unwrap_or(0))
        .expect("non-empty");
    println!("\ndeepest call tree:");
    let excerpt = Dscg::from_trees(vec![deepest.clone()]);
    print!(
        "{}",
        ascii_tree(
            &excerpt,
            db.vocab(),
            AsciiOptions { show_site: true, max_nodes_per_tree: 25, ..Default::default() }
        )
    );
}
