//! Live monitoring service: windowed streaming characterization with
//! abnormality alerting and an embedded HTTP status/scrape endpoint — the
//! paper's future-work direction, implemented in
//! `causeway_analyzer::live` on top of the incremental analyzer.
//!
//! A monitor thread drains each process's probe buffers every few
//! milliseconds into a [`LiveMonitor`], which maintains tumbling/sliding
//! windows of per-operation latency percentiles, call rate and abnormality
//! rate, and steps declarative rules once per window: `--alert` threshold
//! rules (duration + hysteresis) and `--burn` multi-window SLO burn-rate
//! rules share one grammar and one state machine
//! (`causeway_analyzer::rules`). With `--listen` the monitor also serves:
//!
//! * `GET /metrics` — Prometheus exposition of the monitor's registry, here
//!   the PPS system's own, so the scrape carries the application's engine
//!   and sink series beside the monitor's
//! * `GET /healthz` — 200 while no alert fires, 503 otherwise
//! * `GET /chains` — open causal chains, JSON
//! * `GET /latency?iface=..&method=..` — windowed percentiles, JSON
//!   (without `iface`, the list of known series)
//! * `GET /flamegraph[?window=k]` — folded stacks (`a;b;c N`,
//!   inferno-compatible), cumulative or scoped to one retained window
//! * `GET /flamegraph/diff?a=..&b=..` — folded-stack delta between two
//!   retained windows, largest regression first
//! * `GET /history` — retained-window ring summary + burn-rule states, JSON
//! * `GET /dscg[?chain=UUID&format=dot]` — recently completed chains,
//!   rendered as ascii call trees or Graphviz
//! * `GET /trace` — Chrome trace of the last window
//! * `GET /alerts` — the bounded alert-transition log, JSON; firing
//!   transitions carry the breach-window exemplar uuids
//! * `GET /exemplars[?series=..|?id=UUID]` — tail-biased exemplar store:
//!   index of retained slow/abnormal/sampled chains per series, or one
//!   exemplar's DSCG ascii/dot render + Chrome-trace slice view
//! * `GET /incidents[?id=N]` — incident forensics: index, or one
//!   incident's add-only hypothesis graph (timeline + tombstones +
//!   query-time surviving set)
//! * `POST /incidents/eliminate` — operator tombstones
//!   (`{"incident":N,"hypothesis":M,"reason":"..."}`)
//! * `GET /probes` — adaptive probe control plane: per-interface effective
//!   modes, who holds them, and the transition log
//! * `POST /probes` — operator probe override with TTL
//!   (`{"iface":"Pps::Stage","mode":"both","ttl_ms":60000}`)
//!
//! The live monitor shares the system's probe policy: alert/burn rules with
//! an `escalate=MODE` suffix escalate the targeted interface's probes while
//! they fire (de-escalating on resolve), and `--probe IFACE=MODE` seeds
//! overrides at startup.
//!
//! Durable mode: `--segment PATH` streams every drained chunk into a
//! crash-safe binary segment (`causeway_collector::segment`) as it is
//! ingested, sealing it on clean shutdown — `causeway_analyze PATH` reads
//! it back, and `--lossy` recovers the clean prefix after a crash.
//! `--spill PATH` keeps evicted history windows on disk so
//! `/flamegraph?window=k` and `/history?from=..&to=..` work past the ring.
//!
//! ```text
//! cargo run --example online_monitor                 # finite 8-job run
//! cargo run --example online_monitor -- \
//!     --listen 127.0.0.1:9464 --window 2 --duration 10 \
//!     --alert 'p95>400us;resolve=200us' \
//!     --history 128 --burn 'burn=p95>400us;slo=99.9;fast=3;slow=24' \
//!     --segment /tmp/online_monitor.cwseg --spill /tmp/online_monitor.cwhist
//! ```

use causeway::analyzer::chrome_trace;
use causeway::analyzer::live::{serve, LiveConfig, LiveMonitor};
use causeway::collector::db::MonitoringDb;
use causeway::collector::segment::SegmentWriter;
use causeway::core::ids::InterfaceId;
use causeway::core::monitor::{ProbeDirective, ProbeMode};
use causeway::core::record::ProbeRecord;
use causeway::workloads::{Pps, PpsConfig, PpsDeployment};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: Option<String>,
    window: Duration,
    shards: Option<usize>,
    alerts: Vec<String>,
    burns: Vec<String>,
    history: Option<usize>,
    segment: Option<PathBuf>,
    spill: Option<PathBuf>,
    duration: Duration,
    jobs: usize,
    incidents: bool,
    incident_top: Option<usize>,
    incident_floor: Option<f64>,
    probes: Vec<(String, ProbeMode)>,
    exemplars: Option<usize>,
    exemplar_spill: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        window: Duration::from_secs(2),
        shards: None,
        alerts: Vec::new(),
        burns: Vec::new(),
        history: None,
        segment: None,
        spill: None,
        duration: Duration::from_secs(10),
        jobs: 8,
        incidents: true,
        incident_top: None,
        incident_floor: None,
        probes: Vec::new(),
        exemplars: None,
        exemplar_spill: None,
    };
    let mut argv = std::env::args().skip(1);
    let need = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--listen" => args.listen = Some(need(&mut argv, "--listen")),
            "--window" => {
                let secs: f64 = need(&mut argv, "--window").parse().unwrap_or_else(|_| {
                    eprintln!("--window takes seconds");
                    std::process::exit(2);
                });
                args.window = Duration::from_secs_f64(secs.max(0.001));
            }
            "--shards" => {
                let shards: usize = need(&mut argv, "--shards").parse().unwrap_or_else(|_| {
                    eprintln!("--shards takes an ingestion shard count");
                    std::process::exit(2);
                });
                args.shards = Some(shards.max(1));
            }
            "--alert" => args.alerts.push(need(&mut argv, "--alert")),
            "--burn" => args.burns.push(need(&mut argv, "--burn")),
            "--history" => {
                let windows: usize =
                    need(&mut argv, "--history").parse().unwrap_or_else(|_| {
                        eprintln!("--history takes a retained window count");
                        std::process::exit(2);
                    });
                args.history = Some(windows.max(1));
            }
            "--segment" => {
                args.segment = Some(PathBuf::from(need(&mut argv, "--segment")));
            }
            "--spill" => {
                args.spill = Some(PathBuf::from(need(&mut argv, "--spill")));
            }
            "--duration" => {
                let secs: f64 = need(&mut argv, "--duration").parse().unwrap_or_else(|_| {
                    eprintln!("--duration takes seconds");
                    std::process::exit(2);
                });
                args.duration = Duration::from_secs_f64(secs.max(0.1));
            }
            "--jobs" => {
                args.jobs = need(&mut argv, "--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("--jobs takes a count");
                    std::process::exit(2);
                });
            }
            "--no-incidents" => args.incidents = false,
            "--incident-top" => {
                let top: usize =
                    need(&mut argv, "--incident-top").parse().unwrap_or_else(|_| {
                        eprintln!("--incident-top takes a hypothesis count");
                        std::process::exit(2);
                    });
                args.incident_top = Some(top.max(1));
            }
            "--incident-floor" => {
                let floor: f64 =
                    need(&mut argv, "--incident-floor").parse().unwrap_or_else(|_| {
                        eprintln!("--incident-floor takes a share in [0,1)");
                        std::process::exit(2);
                    });
                args.incident_floor = Some(floor.clamp(0.0, 0.99));
            }
            "--exemplars" => {
                let k: usize = need(&mut argv, "--exemplars").parse().unwrap_or_else(|_| {
                    eprintln!("--exemplars takes a per-series tail depth (0 disables)");
                    std::process::exit(2);
                });
                args.exemplars = Some(k);
            }
            "--exemplar-spill" => {
                args.exemplar_spill = Some(PathBuf::from(need(&mut argv, "--exemplar-spill")));
            }
            "--probe" => {
                let spec = need(&mut argv, "--probe");
                let Some((iface, mode)) = spec.split_once('=') else {
                    eprintln!("--probe takes IFACE=MODE (e.g. 'Pps::Stage=both')");
                    std::process::exit(2);
                };
                let mode: ProbeMode = mode.parse().unwrap_or_else(|e| {
                    eprintln!("--probe: {e}");
                    std::process::exit(2);
                });
                args.probes.push((iface.to_owned(), mode));
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; flags: --listen ADDR --window SECS \
                     --shards N --alert RULE --burn RULE --history WINDOWS \
                     --segment PATH --spill PATH --duration SECS --jobs N \
                     --no-incidents --incident-top N --incident-floor SHARE \
                     --probe IFACE=MODE --exemplars K --exemplar-spill PATH"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let config = PpsConfig {
        deployment: PpsDeployment::FourProcess,
        probe_mode: ProbeMode::Latency,
        work_scale: 0.5,
        ..PpsConfig::default()
    };
    let pps = Pps::build(&config);

    let stores: Vec<_> = (0..4u16)
        .map(|p| {
            pps.system
                .orb(causeway::core::ids::ProcessId(p))
                .monitor()
                .store()
                .clone()
        })
        .collect();

    // The monitor publishes to the system's registry, so one scrape
    // carries the application's engine and sink series beside the
    // monitor's own.
    let mut config = LiveConfig {
        window: args.window,
        metrics: Some(pps.system.metrics().clone()),
        ..LiveConfig::default()
    };
    if let Some(shards) = args.shards {
        config.shards = shards;
    }
    if let Some(windows) = args.history {
        config.history_windows = windows;
    }
    config.history_spill = args.spill.clone();
    config.incidents.enabled = args.incidents;
    if let Some(top) = args.incident_top {
        config.incidents.top_regressions = top;
        config.incidents.top_stacks = top;
    }
    if let Some(floor) = args.incident_floor {
        config.incidents.stack_share_floor = floor;
    }
    // Tail-biased exemplar capture: `--exemplars 0` disables it entirely,
    // any other K deepens the per-series tail ring; `--exemplar-spill`
    // keeps the retained exemplars on disk across restarts.
    if let Some(k) = args.exemplars {
        if k == 0 {
            config.exemplars.enabled = false;
        } else {
            config.exemplars.per_series = k;
        }
    }
    config.exemplars.spill = args.exemplar_spill.clone();

    // The adaptive control plane shares the running system's probe policy:
    // a firing `escalate=` rule or a `POST /probes` override hot-swaps the
    // stamping mode of exactly the targeted interface while jobs run.
    config.adaptive.policy = Some(pps.system.probe_policy().clone());
    let vocab = pps.system.vocab().snapshot();
    for (name, mode) in &args.probes {
        let Some(i) = vocab.interfaces.iter().position(|e| &e.name == name) else {
            eprintln!(
                "--probe: unknown interface {name:?}; known: {:?}",
                vocab.interfaces.iter().map(|e| e.name.as_str()).collect::<Vec<_>>()
            );
            std::process::exit(2);
        };
        pps.system
            .probe_policy()
            .apply(ProbeDirective { interface: InterfaceId(i as u32), mode: *mode });
        println!("probe override: {name} starts at mode {mode}");
    }

    // Durable mode: every drained chunk is appended to a crash-safe binary
    // segment before it is handed to the in-memory monitor, so a crash
    // loses at most the records still buffered in per-thread chunks.
    let segment_writer = args.segment.as_ref().map(|path| {
        SegmentWriter::create(
            path,
            &pps.system.vocab().snapshot(),
            pps.system.deployment(),
            None, // open-ended run: the seal will carry the final count
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot create segment {}: {e}", path.display());
            std::process::exit(1);
        })
    });
    let live = LiveMonitor::new(
        config,
        pps.system.vocab().snapshot(),
        pps.system.deployment().clone(),
    );
    let mut rules = if args.alerts.is_empty() {
        vec!["p95>400us;resolve=200us".to_owned()]
    } else {
        args.alerts.clone()
    };
    rules.extend(args.burns.iter().cloned());
    for rule in &rules {
        if let Err(e) = live.add_rule_spec(rule) {
            eprintln!("bad alert/burn rule: {e}");
            std::process::exit(2);
        }
    }
    let live = Arc::new(live);

    let server = args.listen.as_ref().map(|addr| {
        let server = serve(Arc::clone(&live), addr).unwrap_or_else(|e| {
            eprintln!("cannot listen on {addr}: {e}");
            std::process::exit(1);
        });
        println!(
            "serving /metrics /healthz /chains /latency /flamegraph \
             /flamegraph/diff /history /dscg /trace /alerts /exemplars \
             /incidents /probes on http://{}",
            server.local_addr()
        );
        server
    });

    // The monitor thread: drain scattered buffers into the windowed
    // characterization, narrate alert transitions as they happen.
    let done = Arc::new(AtomicBool::new(false));
    let done_monitor = Arc::clone(&done);
    let live_monitor = Arc::clone(&live);
    let monitor_stores = stores.clone();
    let monitor = std::thread::spawn(move || {
        let mut writer = segment_writer;
        let mut segment_error: Option<String> = None;
        let mut streamed: Vec<ProbeRecord> = Vec::new();
        let mut narrated = 0usize;
        loop {
            let finished = done_monitor.load(Ordering::Relaxed);
            let mut batch = Vec::new();
            for store in &monitor_stores {
                match writer.as_mut() {
                    // Durable path: chunks hit the segment file before the
                    // in-memory monitor sees their records. An append
                    // failure (disk full, EIO) must not kill monitoring:
                    // the records still reach the in-memory monitor, and
                    // the writer is dropped below so the run degrades to
                    // in-memory mode instead of panicking mid-run.
                    Some(writer) => {
                        for chunk in store.drain_chunks() {
                            if segment_error.is_none() {
                                if let Err(e) = writer.append_chunk(&chunk) {
                                    segment_error = Some(e.to_string());
                                }
                            }
                            batch.extend(chunk.records);
                        }
                    }
                    None => batch.extend(store.drain()),
                }
            }
            if segment_error.is_some() {
                if let Some(abandoned) = writer.take() {
                    eprintln!(
                        "WARNING: segment append failed ({}); abandoning the durable \
                         segment after {} record(s) and continuing in-memory",
                        segment_error.as_deref().unwrap_or(""),
                        abandoned.records_written()
                    );
                }
            }
            streamed.extend(batch.iter().cloned());
            if batch.is_empty() {
                live_monitor.tick(); // idle windows must still rotate
            } else {
                live_monitor.ingest_batch(batch);
            }
            let log = live_monitor.alert_log();
            for event in log.iter().skip(narrated) {
                println!(
                    "[alert] {} {} (value {:.0}, threshold {:.0}, window {})",
                    if event.fired { "FIRING " } else { "resolved" },
                    event.alert,
                    event.value,
                    event.threshold,
                    event.window_index,
                );
            }
            narrated = log.len();
            if finished {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        (streamed, writer, segment_error)
    });

    let stop = Arc::new(AtomicBool::new(false));
    let jobs = if server.is_some() {
        println!(
            "driving print jobs for {:.1}s with {:.1}s windows; rules: {rules:?}\n",
            args.duration.as_secs_f64(),
            args.window.as_secs_f64()
        );
        let stop_timer = Arc::clone(&stop);
        let duration = args.duration;
        let timer = std::thread::spawn(move || {
            std::thread::sleep(duration);
            stop_timer.store(true, Ordering::Relaxed);
        });
        let jobs = pps.drive(&stop, Duration::from_millis(20));
        timer.join().expect("timer thread");
        jobs
    } else {
        println!(
            "running {} print jobs with a live monitor; rules: {rules:?}\n",
            args.jobs
        );
        pps.run_jobs(args.jobs);
        args.jobs
    };

    // The job driver is idle: the monitor's final drain pass sees the tail
    // of the run.
    done.store(true, Ordering::Relaxed);
    let (streamed, segment_writer, segment_error) = monitor.join().expect("monitor thread");

    let ingested = streamed.len() as u64;
    let mut run = pps.system.harvest();
    run.expected_records = run.expected_records.map(|left| left + ingested);
    let mut records = streamed;
    records.extend(std::mem::take(&mut run.records));
    run.records = records;

    // Seal the durable segment: the seal frame records how many records
    // made it to disk and how many the run expected, so recovery reports
    // the same shortfall causeway_analyze prints here. A failed append or
    // seal leaves an unsealed prefix behind — report the lost durability
    // instead of panicking; `--lossy` recovery still reads the prefix.
    if let Some(writer) = segment_writer {
        let written = writer.records_written();
        let path = args.segment.as_ref().expect("writer implies --segment");
        match writer.finish(run.expected_records) {
            Ok(()) => println!(
                "segment sealed: {written} record(s) in {} — analyze with \
                 `causeway_analyze {}`",
                path.display(),
                path.display()
            ),
            Err(e) => eprintln!(
                "WARNING: cannot seal segment {} ({e}); {written} record(s) remain \
                 recoverable with `causeway_analyze --lossy`",
                path.display()
            ),
        }
    } else if let Some(error) = segment_error {
        let path = args.segment.as_ref().expect("error implies --segment");
        eprintln!(
            "WARNING: durable mode was abandoned mid-run ({error}); {} holds only an \
             unsealed prefix — recover it with `causeway_analyze --lossy {}`",
            path.display(),
            path.display()
        );
    }

    let trace_path = std::env::temp_dir().join("online_monitor.trace.json");
    std::fs::write(&trace_path, chrome_trace::export(&MonitoringDb::from_run(run)))
        .expect("write chrome trace");

    println!(
        "\nlive monitor observed {} completed calls over {jobs} jobs, {} \
         abnormalities, {} alert transitions.",
        live.total_completed(),
        live.total_abnormalities(),
        live.alert_log().len()
    );
    let window = live.sliding();
    for (key, agg) in &window.series {
        println!(
            "  {:>30}.{}: {} calls, p50 {}ns p95 {}ns p99 {}ns",
            live.vocab().interface_name(key.0),
            live.vocab().method_name(key.0, key.1),
            agg.calls,
            agg.hist.quantile_ns(0.50),
            agg.hist.quantile_ns(0.95),
            agg.hist.quantile_ns(0.99),
        );
    }
    {
        // `incidents()` holds the monitor's control lock; keep the guard
        // scoped so later monitor calls cannot self-deadlock.
        let incidents = live.incidents();
        for incident in incidents.iter() {
            let surviving = incident.surviving().len();
            let total = incident.hypotheses().len();
            println!(
                "  incident #{} [{}] alert {:?}: {surviving}/{total} hypotheses \
                 surviving, {} tombstone(s)",
                incident.id,
                if incident.is_open() { "open" } else { "resolved" },
                incident.alert,
                incident.tombstones().len(),
            );
        }
    }
    assert!(live.total_completed() > 0);
    if let Some(server) = server {
        println!("served {} HTTP requests", server.requests_served());
        server.shutdown();
    }
    pps.system.shutdown();

    println!(
        "chrome trace written to {} — open it in https://ui.perfetto.dev\n",
        trace_path.display()
    );
    println!("== self-observability (prometheus exposition, buckets elided) ==");
    for line in live.metrics().render_prometheus().lines() {
        if !line.contains("_bucket") {
            println!("{line}");
        }
    }
}
