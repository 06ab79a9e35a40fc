//! `causeway-analyze` — the stand-alone off-line characterization tool.
//!
//! Reads a run log in the binary segment format of
//! `causeway_collector::segment` — what `online_monitor --segment PATH`
//! streams to disk, or `segment::write_run_log` produces — and prints the
//! requested views:
//!
//! ```text
//! causeway_analyze <runlog> [--stats] [--dscg] [--latency] [--cpu] [--ccsg]
//!                           [--dot] [--lossy] [--max-nodes N] [--threads N]
//! causeway_analyze trace <runlog> [--lossy] [--threads N]
//! ```
//!
//! With no view flags, `--stats --dscg` is assumed. `--lossy` runs crash
//! recovery: the longest clean frame prefix is analyzed and the truncation
//! is reported. The `trace` subcommand writes Chrome trace-event JSON to
//! stdout — redirect it to a file and open it in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.

use causeway_analyzer::ccsg::Ccsg;
use causeway_analyzer::chrome_trace;
use causeway_analyzer::cpu::CpuAnalysis;
use causeway_analyzer::dscg::Dscg;
use causeway_analyzer::latency::LatencyAnalysis;
use causeway_analyzer::hotspot;
use causeway_analyzer::render::{AsciiOptions, ascii_tree, ccsg_xml, dot, sequence_chart};
use causeway_collector::db::MonitoringDb;
use causeway_collector::segment;
use causeway_core::pool;
use causeway_core::runlog::RunLog;
use std::process::ExitCode;

struct Options {
    path: String,
    trace: bool,
    stats: bool,
    dscg: bool,
    latency: bool,
    cpu: bool,
    ccsg: bool,
    dot: bool,
    chart: bool,
    hotspots: bool,
    histogram: bool,
    lossy: bool,
    max_nodes: usize,
    threads: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut first_positional = true;
    let mut options = Options {
        path: String::new(),
        trace: false,
        stats: false,
        dscg: false,
        latency: false,
        cpu: false,
        ccsg: false,
        dot: false,
        chart: false,
        hotspots: false,
        histogram: false,
        lossy: false,
        max_nodes: 50,
        threads: pool::configured_threads(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stats" => options.stats = true,
            "--dscg" => options.dscg = true,
            "--latency" => options.latency = true,
            "--cpu" => options.cpu = true,
            "--ccsg" => options.ccsg = true,
            "--dot" => options.dot = true,
            "--chart" => options.chart = true,
            "--hotspots" => options.hotspots = true,
            "--histogram" => options.histogram = true,
            "--lossy" => options.lossy = true,
            "--max-nodes" => {
                options.max_nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-nodes needs a number")?;
            }
            "--threads" => {
                options.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--threads needs a positive number")?;
            }
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
            }
            "trace" if first_positional => {
                options.trace = true;
                first_positional = false;
            }
            path => {
                first_positional = false;
                if !options.path.is_empty() {
                    return Err("multiple input files given".into());
                }
                options.path = path.to_owned();
            }
        }
    }
    if options.path.is_empty() {
        return Err("no input file given".into());
    }
    if options.trace {
        return Ok(options);
    }
    if !(options.stats || options.dscg || options.latency || options.cpu || options.ccsg
        || options.dot || options.chart || options.hotspots || options.histogram)
    {
        options.stats = true;
        options.dscg = true;
    }
    Ok(options)
}

/// Loads the run from raw segment bytes, honoring `--lossy`.
fn load_run(bytes: &[u8], options: &Options) -> Result<RunLog, String> {
    if !bytes.starts_with(segment::SEGMENT_MAGIC) {
        return Err(format!(
            "{} is not a run-log segment: it does not start with the CWSEG01 magic \
             (write one with `online_monitor --segment PATH`)",
            options.path,
        ));
    }
    if options.lossy {
        let recovery = segment::recover_run_log_with_threads(bytes, options.threads)
            .map_err(|e| e.to_string())?;
        if !recovery.is_clean() {
            eprintln!(
                "warning: segment recovered, not read cleanly: {} trailing byte(s) \
                 dropped, sealed={}",
                recovery.truncated_bytes, recovery.sealed,
            );
        }
        Ok(recovery.run)
    } else {
        segment::read_run_log_with_threads(bytes, options.threads)
            .map_err(|e| format!("{e} (try --lossy to recover a damaged segment)"))
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            if message != "help" {
                eprintln!("error: {message}\n");
            }
            eprintln!(
                "usage: causeway_analyze <runlog> [--stats] [--dscg] [--latency] \
                 [--cpu] [--ccsg] [--dot] [--chart] [--hotspots] [--histogram] [--lossy] [--max-nodes N] [--threads N]\n\
                 \x20      causeway_analyze trace <runlog> [--lossy] [--threads N]   Chrome trace JSON on stdout"
            );
            return ExitCode::FAILURE;
        }
    };

    let bytes = match std::fs::read(&options.path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", options.path);
            return ExitCode::FAILURE;
        }
    };

    let run = match load_run(&bytes, &options) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    // Harvest-completeness diagnostic: the header says how many records the
    // stores held when harvested; fewer in the log means the rest were
    // lost in transit (a torn or truncated file, another consumer).
    let expected_records = run.expected_records;
    if let Some(missing) = run.missing_records() {
        eprintln!(
            "warning: {missing} record(s) missing — the log holds {} of {} buffered at \
             harvest",
            run.len(),
            expected_records.unwrap_or(0),
        );
    }

    let db = MonitoringDb::from_run_with_threads(run, options.threads);

    if options.trace {
        print!("{}", chrome_trace::export(&db));
        return ExitCode::SUCCESS;
    }

    let dscg = Dscg::build_with_threads(&db, options.threads);

    if options.stats {
        let stats = db.scale_stats();
        println!("== run statistics ==");
        println!("records:            {}", stats.total_records);
        if let Some(expected) = expected_records {
            println!("expected at harvest:{expected:>6}");
        }
        println!("calls:              {}", stats.calls);
        println!("unique methods:     {}", stats.unique_methods);
        println!("unique interfaces:  {}", stats.unique_interfaces);
        println!("unique components:  {}", stats.unique_components);
        println!("unique objects:     {}", stats.unique_objects);
        println!("causal chains:      {}", stats.unique_chains);
        println!("threads:            {}", stats.threads);
        println!("processes:          {}", stats.processes);
        println!("dscg trees:         {}", dscg.trees.len());
        println!("dscg nodes:         {}", dscg.total_nodes());
        println!("abnormalities:      {}", dscg.abnormalities.len());
        println!();
    }

    if options.dscg {
        println!("== dynamic system call graph ==");
        print!(
            "{}",
            ascii_tree(
                &dscg,
                db.vocab(),
                AsciiOptions {
                    show_latency: true,
                    show_site: true,
                    max_nodes_per_tree: options.max_nodes,
                }
            )
        );
        println!();
    }

    if options.latency {
        println!("== per-method latency ==");
        let analysis = LatencyAnalysis::compute_with_threads(&dscg, options.threads);
        for ((iface, method), stats) in &analysis.per_method {
            println!(
                "{}.{}: n={} mean={:.1}µs min={:.1}µs p50={:.1}µs p95={:.1}µs max={:.1}µs",
                db.vocab().interface_name(*iface),
                db.vocab().method_name(*iface, *method),
                stats.count,
                stats.mean_ns / 1e3,
                stats.min_ns as f64 / 1e3,
                stats.p50_ns as f64 / 1e3,
                stats.p95_ns as f64 / 1e3,
                stats.max_ns as f64 / 1e3,
            );
        }
        println!();
    }

    if options.cpu {
        println!("== system-wide CPU by processor type ==");
        let analysis = CpuAnalysis::compute_with_threads(&dscg, db.deployment(), options.threads);
        for (cpu_type, ns) in analysis.system_total.iter() {
            println!(
                "{}: {:.3} ms",
                db.vocab().cpu_type_name(cpu_type),
                ns as f64 / 1e6
            );
        }
        println!();
    }

    if options.ccsg {
        let ccsg = Ccsg::build_with_threads(&dscg, db.deployment(), options.threads);
        print!("{}", ccsg_xml(&ccsg, db.vocab()));
    }

    if options.chart {
        println!("== sequence chart ==");
        print!("{}", sequence_chart(&dscg, db.vocab(), 100));
        println!();
    }

    if options.hotspots {
        println!("== hotspots (self latency) ==");
        for ((iface, method), spot) in hotspot::hotspots(&dscg).into_iter().take(15) {
            println!(
                "{}.{}: total {:.1}µs across {} calls (max {:.1}µs)",
                db.vocab().interface_name(iface),
                db.vocab().method_name(iface, method),
                spot.total_self_ns as f64 / 1e3,
                spot.count,
                spot.max_self_ns as f64 / 1e3,
            );
        }
        println!();
    }

    if options.histogram {
        println!("== latency histograms ==");
        for ((iface, method), hist) in
            causeway_analyzer::latency::histograms_with_threads(&dscg, options.threads)
        {
            println!(
                "{}.{} (n={}):",
                db.vocab().interface_name(iface),
                db.vocab().method_name(iface, method),
                hist.count(),
            );
            print!("{}", hist.render());
            println!();
        }
    }

    if options.dot {
        print!("{}", dot(&dscg, db.vocab()));
    }

    ExitCode::SUCCESS
}
