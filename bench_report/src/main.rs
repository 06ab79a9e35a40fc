//! `bench_report`: the perf ledger's harness.
//!
//! One invocation runs one workload in its own process, checks its
//! outputs, prints every metric by name with its unit, and ends with the
//! one-line JSON result the benchmark contract asks for. `--trace 1` is
//! the same run with a span around every call into a layer, plus the
//! layer probes; `--selfcheck` is the A/A test. See `README.md` beside
//! this package for the workloads, the layer table and how to read a
//! trace file.

mod affinity;
mod app;
mod env;
mod gen;
mod ingest;
mod layers;
mod offline;
mod selfcheck;
mod span;
mod stats;
mod steady;

use causeway_collector::json::Json;
use offline::Scale;
use stats::{median, percentile, supported_tail};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed used when none is given: `CommercialConfig::default().seed`,
/// so the default run analyses the paper-shaped system itself.
pub const DEFAULT_SEED: u64 = 0x1cdc_2003;
/// A seed to hold out while working on a change, for the final check.
pub const HELD_OUT_SEED: u64 = 0x5eed_0bad;
pub const DEFAULT_SECONDS: u64 = 12;
/// Set-up is repeated and its median reported.
const SETUPS: usize = 3;
/// The measured part of a run is this many rounds, each a slice of every
/// closed-loop stage, so that every median has at least this many trials
/// behind it and every metric samples the whole run: on a shared box the
/// machine's speed drifts over seconds, and a stage measured in one block
/// would report whichever regime it happened to meet.
const ROUNDS: usize = 7;
/// The open-loop stage runs in this many segments, after rounds 2, 4
/// and 6.
const STEADY_SEGMENTS: usize = 3;
/// The steady stage's fixed arrival rate, calls per second. Chosen once
/// (see README, "live_steady") and never recalibrated at run time.
const STEADY_CALLS_PER_S: f64 = 50_000.0;
/// Open chains a monitor already holds when the disordered stream
/// arrives.
const OPEN_CHAIN_BACKLOG: usize = 50_000;

/// One workload: where the measuring time goes and which input condition
/// applies. Every run walks all four stages, because every run reports
/// every end-to-end metric.
pub struct Plan {
    pub name: &'static str,
    /// Shares of `--seconds` for the app, steady, ingest and offline
    /// stages.
    shares: [f64; 4],
    /// PPS-shaped jobs in the ingest stream.
    stream_jobs: usize,
    disordered: bool,
    offline: Scale,
}

pub const PLANS: [Plan; 5] = [
    Plan {
        name: "pps_app_cost",
        shares: [0.45, 0.25, 0.15, 0.15],
        stream_jobs: 1500,
        disordered: false,
        offline: Scale::Scaled(20_000),
    },
    Plan {
        name: "live_steady",
        shares: [0.15, 0.55, 0.15, 0.15],
        stream_jobs: 1500,
        disordered: false,
        offline: Scale::Scaled(20_000),
    },
    Plan {
        name: "live_saturated",
        shares: [0.15, 0.25, 0.45, 0.15],
        stream_jobs: 5000,
        disordered: false,
        offline: Scale::Scaled(20_000),
    },
    Plan {
        name: "live_disordered",
        shares: [0.15, 0.25, 0.45, 0.15],
        stream_jobs: 5000,
        disordered: true,
        offline: Scale::Scaled(20_000),
    },
    Plan {
        name: "offline_195k",
        shares: [0.10, 0.20, 0.10, 0.60],
        stream_jobs: 1500,
        disordered: false,
        offline: Scale::Paper,
    },
];

struct Inputs {
    app: app::App,
    steady: steady::SteadyInput,
    ingest: ingest::IngestInput,
    offline: offline::OfflineInput,
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn stage_budget(seconds: u64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds as f64 * share)
}

/// Everything before the first timed trial: systems built and warmed,
/// inputs generated from the seed, the run log written to disk.
fn set_up(plan: &Plan, seed: u64, seconds: u64, all_modes: bool) -> Inputs {
    let app = app::App::build(all_modes);
    let system = app.variants[1].system();
    let vocab = system.vocab().snapshot();
    let deployment = system.deployment().clone();

    let segment_calls = (STEADY_CALLS_PER_S * stage_budget(seconds, plan.shares[1]).as_secs_f64())
        as usize
        / STEADY_SEGMENTS;
    let mut calls = gen::single_calls(seed, segment_calls * STEADY_SEGMENTS);
    let steady = steady::SteadyInput {
        segments: (0..STEADY_SEGMENTS)
            .map(|_| calls.split_off(calls.len() - segment_calls))
            .collect(),
        vocab: vocab.clone(),
        deployment: deployment.clone(),
    };

    let jobs = gen::pps_jobs(seed, plan.stream_jobs);
    let (stream, preload, expect) = if plan.disordered {
        let d = gen::disorder(seed, jobs, gen::DEPLOYED);
        let expect = ingest::Expect::disordered(&d);
        (
            d.stream,
            gen::open_chains(!seed, OPEN_CHAIN_BACKLOG),
            expect,
        )
    } else {
        let expect = ingest::Expect::clean(jobs.len() as u64);
        (jobs.into_iter().flatten().collect(), Vec::new(), expect)
    };
    let ingest = ingest::IngestInput {
        stream,
        preload,
        expect,
        vocab,
        deployment,
    };

    let offline = offline::generate(
        plan.offline,
        seed,
        &out_dir().join(format!("{}.cwseg", plan.name)),
    );
    Inputs {
        app,
        steady,
        ingest,
        offline,
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    validity: Json,
}

fn tail_json(samples: &[f64]) -> Json {
    let (q, value) = supported_tail(samples).unwrap_or((f64::NAN, f64::NAN));
    Json::obj([
        ("samples", Json::Num(samples.len() as f64)),
        ("p50", Json::Num(median(samples))),
        ("tail_q", Json::Num(q)),
        ("tail", Json::Num(value)),
    ])
}

/// Median over trials of the time spans named in `names` took, ms.
fn per_trial_ms(spans: &[span::Span], names: &[&str]) -> f64 {
    let mut by_trial: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        *by_trial.entry(s.trial).or_default() += s.end_ns - s.start_ns;
    }
    median(
        &by_trial
            .values()
            .map(|ns| *ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// What the stages of a traced run measured, for [`layer_metrics`].
struct Measured<'a> {
    app: &'a app::AppResult,
    steady: &'a steady::SteadyResult,
    ingested: &'a ingest::IngestResult,
    analyzed: &'a offline::OfflineResult,
    route_medians: &'a [f64],
    ingest_records_per_s: f64,
    trace_overhead_ratio: f64,
}

/// The per-layer metrics derived from the stages' spans and results;
/// `probes` are the layer probes already taken.
fn layer_metrics(spans: &[span::Span], m: &Measured, probes: &[Metric]) -> Vec<Metric> {
    let totals = span::totals(spans);
    let self_ns_per_work = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, span::LayerTotals::self_ns_per_work)
    };
    let live_ns = 1e9 / m.ingest_records_per_s;
    let online_ns = probes
        .iter()
        .find(|probe| probe.name == "online.step_ns")
        .map_or(f64::NAN, |probe| probe.value);
    let mut layer = Vec::new();
    for (label, us) in &m.app.by_mode_us {
        layer.push(metric(&format!("app.call_us.{label}"), *us, "us/call"));
    }
    layer.extend([
        metric(
            "app.job_p90_us",
            percentile(&m.app.job_us, 0.9).unwrap_or(f64::NAN),
            "us",
        ),
        metric("app.job_samples", m.app.job_us.len() as f64, "count"),
        metric(
            "sink.drain_ns_per_record",
            self_ns_per_work("core::sink::drain_chunks"),
            "ns",
        ),
        metric("sink.chunks_sealed", m.steady.chunks as f64, "count"),
        metric("sink.backlog_records", median(&m.steady.backlog), "count"),
        metric(
            "segment.append_ns_per_record",
            self_ns_per_work("collector::segment::append_chunk"),
            "ns",
        ),
        metric("segment.bytes", m.steady.segment_bytes as f64, "bytes"),
        metric(
            "segment.read_ms",
            per_trial_ms(spans, &["collector::segment::read_run_log"]),
            "ms",
        ),
        metric(
            "db.index_ms",
            per_trial_ms(spans, &["collector::db::from_run"]),
            "ms",
        ),
        metric(
            "dscg.build_ms",
            per_trial_ms(spans, &["analyzer::dscg::build"]),
            "ms",
        ),
        metric(
            "characterize_ms",
            per_trial_ms(
                spans,
                &[
                    "analyzer::latency::compute",
                    "analyzer::cpu::compute",
                    "analyzer::ccsg::build",
                ],
            ),
            "ms",
        ),
        metric(
            "render.ccsg_xml_ms",
            per_trial_ms(spans, &["analyzer::render::ccsg_xml"]),
            "ms",
        ),
        metric("dscg.trees", m.analyzed.trees as f64, "count"),
        metric("dscg.nodes", m.analyzed.nodes as f64, "count"),
        metric("live.ingest_ns_per_record", live_ns, "ns"),
        metric(
            "live.ingest_ns_per_record.shards1",
            1e9 / m.ingested.serial_records_per_s,
            "ns",
        ),
        metric("live.over_online_ns", live_ns - online_ns, "ns"),
        metric(
            "live.steady_ingest_ns_per_record",
            self_ns_per_work("analyzer::live::ingest_batch"),
            "ns",
        ),
        metric(
            "live.monitor_busy_share",
            median(&m.steady.monitor_busy_shares),
            "ratio",
        ),
        metric(
            "freshness.p90_ms",
            percentile(&m.steady.freshness_ms, 0.9).unwrap_or(f64::NAN),
            "ms",
        ),
        metric(
            "freshness.samples",
            m.steady.freshness_ms.len() as f64,
            "count",
        ),
        metric(
            "httpd.p90_ms",
            percentile(&m.steady.roundtrip_ms.concat(), 0.9).unwrap_or(f64::NAN),
            "ms",
        ),
        metric(
            "httpd.samples",
            m.steady.roundtrip_ms.iter().map(Vec::len).sum::<usize>() as f64,
            "count",
        ),
        metric(
            "httpd.response_bytes",
            m.steady.response_bytes.iter().sum::<u64>() as f64,
            "bytes",
        ),
        metric("httpd.non_200", m.steady.non_200 as f64, "count"),
        metric("trace_overhead_ratio", m.trace_overhead_ratio, "ratio"),
    ]);
    for ((route, _), ms) in steady::ROUTES.iter().zip(m.route_medians) {
        layer.push(metric(
            &format!("httpd.roundtrip_us.{route}"),
            ms * 1e3,
            "us",
        ));
    }
    layer
}

fn run_workload(plan: &Plan, seed: u64, seconds: u64, trace: bool) -> Outcome {
    std::fs::create_dir_all(out_dir()).expect("create the benchmark's out directory");
    // The traced run sets up once: it reports no set-up time, and its app
    // stage drives every probe mode.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(set_up(plan, seed, seconds, trace));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let Inputs {
        app,
        steady,
        ingest,
        offline,
    } = inputs.expect("set-up ran");
    if trace {
        span::enable(true);
    }

    let per_round = |stage: usize| stage_budget(seconds, plan.shares[stage]) / ROUNDS as u32;
    let mut app = app::AppStage::start(app);
    let mut ingesting = ingest::IngestStage::start(&ingest);
    let mut analyzing = offline::OfflineStage::start(&offline);
    let mut segments = steady.segments.into_iter();
    let mut steady_result = steady::SteadyResult::new();
    for round in 0..ROUNDS {
        app.round(per_round(0) / app.variants() as u32);
        ingesting.round(per_round(2));
        analyzing.round(per_round(3));
        if round % 2 == 1 {
            let calls = segments.next().expect("a steady segment per odd round");
            let file = out_dir().join(format!("{}.live.cwseg", plan.name));
            steady::run(
                calls,
                &steady.vocab,
                &steady.deployment,
                STEADY_CALLS_PER_S,
                &file,
                &mut steady_result,
            );
        }
    }
    let (app, steady, ingested, analyzed) = (
        app.finish(),
        steady_result,
        ingesting.finish(),
        analyzing.finish(),
    );

    let route_medians: Vec<f64> = steady.roundtrip_ms.iter().map(|s| median(s)).collect();
    let http_read_ms = route_medians.iter().sum::<f64>() / route_medians.len() as f64;
    let ingest_records_per_s = median(&ingested.records_per_s);
    let mut metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("app_call_us", app.call_us, "us/call"),
        metric("app_overhead_ratio", app.overhead_ratio, "ratio"),
        metric("freshness_ms", median(&steady.freshness_ms), "ms"),
        metric("http_read_ms", http_read_ms, "ms"),
        metric("ingest_records_per_s", ingest_records_per_s, "records/s"),
        metric("analyze_s", median(&analyzed.analyze_s), "s"),
        metric("peak_rss_mb", env::peak_rss_mb(), "MiB"),
    ];
    let mut problems = Vec::new();
    if let Some(bad) = metrics
        .iter()
        .find(|m| !m.value.is_finite() || m.value <= 0.0)
    {
        problems.push(format!(
            "metric {} has no measurement ({})",
            bad.name, bad.value
        ));
    }

    let mut trace_overhead_ratio = f64::NAN;
    if trace {
        // Tracing overhead where spans are densest: the ingest pass with
        // and without them, interleaved.
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        for _ in 0..3 {
            span::enable(false);
            untraced.push(ingest::pass(&ingest, None).0.as_secs_f64());
            span::enable(true);
            traced.push(ingest::pass(&ingest, None).0.as_secs_f64());
        }
        trace_overhead_ratio = median(&traced) / median(&untraced);

        let spans = span::take();
        let measured = Measured {
            app: &app,
            steady: &steady,
            ingested: &ingested,
            analyzed: &analyzed,
            route_medians: &route_medians,
            ingest_records_per_s,
            trace_overhead_ratio,
        };
        let mut layer = layers::standalone();
        layer.extend(layers::recover_and_serial_build(&offline.path));
        layer.extend(layers::online_step(&ingest));
        layer.extend(layers::window_close_and_views(&ingest));
        layer.extend(layer_metrics(&spans, &measured, &layer));
        let trace_file = out_dir().join(format!("trace_{}.json", plan.name));
        std::fs::write(&trace_file, span::to_json(&spans).to_string())
            .expect("write the trace file");
        metrics = layer;
    }
    let _ = std::fs::remove_file(&offline.path);

    // A run is invalid, not merely slow, when the open loop could not hold
    // its schedule or the monitor fell behind it. Medians, so that one
    // stall of the machine does not void a run; the tails are reported.
    let lateness_p50 = median(&steady.lateness_ms);
    if lateness_p50 > steady::DRAIN_INTERVAL.as_secs_f64() * 1e3 {
        problems.push(format!(
            "steady: median pusher lateness {lateness_p50:.3} ms exceeds one drain interval"
        ));
    }
    let pushed_per_s = STEADY_CALLS_PER_S * gen::RECORDS_PER_SINGLE_CALL as f64;
    if median(&steady.backlog_slopes) > 0.05 * pushed_per_s {
        problems.push(format!(
            "steady: the sink backlog grows ({:?} records/s per segment)",
            steady.backlog_slopes
        ));
    }
    let steady_records = steady.pushed_calls * gen::RECORDS_PER_SINGLE_CALL as u64;
    let steady_failed = if steady.problems.is_empty() {
        steady.non_200
    } else {
        steady_records + steady.polls
    };
    problems.extend(app.problems);
    problems.extend(steady.problems);
    problems.extend(ingested.problems);
    problems.extend(analyzed.problems);

    let each = |values: &[f64]| Json::Arr(values.iter().map(|v| Json::Num(*v)).collect());
    let validity = Json::obj([
        ("setup_s_each", each(&setup_s)),
        ("app_call_us_trials", each(&app.latency_call_us)),
        ("app_plain_call_us_trials", each(&app.plain_call_us)),
        ("ingest_records_per_s_trials", each(&ingested.records_per_s)),
        ("analyze_s_trials", each(&analyzed.analyze_s)),
        ("freshness_ms", tail_json(&steady.freshness_ms)),
        (
            "http_roundtrip_ms",
            tail_json(&steady.roundtrip_ms.concat()),
        ),
        ("pusher_lateness_ms", tail_json(&steady.lateness_ms)),
        ("backlog_slope_records_per_s", each(&steady.backlog_slopes)),
        ("monitor_busy_share", each(&steady.monitor_busy_shares)),
        ("steady_calls_per_s", Json::Num(STEADY_CALLS_PER_S)),
        ("offline_trees", Json::Num(analyzed.trees as f64)),
        ("offline_nodes", Json::Num(analyzed.nodes as f64)),
        (
            "ingest_completed",
            Json::Num(ingested.totals.completed as f64),
        ),
        (
            "ingest_abnormal",
            Json::Num(ingested.totals.abnormal as f64),
        ),
        (
            "ingest_open_chains",
            Json::Num(ingested.totals.open_chains as f64),
        ),
        (
            "trace_overhead_ratio",
            if trace {
                Json::Num(trace_overhead_ratio)
            } else {
                Json::Null
            },
        ),
    ]);
    Outcome {
        metrics,
        attempted: app.attempted
            + steady_records
            + steady.polls
            + ingested.attempted
            + analyzed.attempted,
        failed: app.failed + steady_failed + ingested.failed + analyzed.failed,
        problems,
        validity,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds takes 1 to 60".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_report: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck::run(args.seed, args.seconds);
    }
    let Some(plan) = PLANS.iter().find(|p| p.name == args.workload) else {
        let names: Vec<_> = PLANS.iter().map(|p| p.name).collect();
        eprintln!("bench_report: --workload takes one of {names:?}");
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned_cpu = affinity::pin_to_one_cpu();
    if let Err(e) = &pinned_cpu {
        eprintln!("bench_report: cannot confine the run to one CPU ({e}); expect unsteady numbers");
    }
    let outcome = run_workload(plan, args.seed, args.seconds, args.trace);
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    // A failed output check fails every operation of the run.
    let correct = outcome.problems.is_empty();
    let failed = if correct {
        outcome.failed
    } else {
        outcome.attempted
    };
    let failed_share = failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "workload {} seed {} seconds {} trace {}",
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("  {:<36} {:>16.6} ratio", "failed_share", failed_share);

    let metrics: BTreeMap<String, Json> = outcome
        .metrics
        .iter()
        .map(|m| {
            let body = Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_owned())),
            ]);
            (m.name.clone(), body)
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let result_line = result.to_string();
    let report = Json::obj([
        ("workload", Json::Str(plan.name.to_owned())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("failed_share", Json::Num(failed_share)),
        ("environment", env::block(nproc, pinned_cpu.ok())),
        ("validity", outcome.validity),
        ("result", result),
    ]);
    let report_file = out_dir().join(format!(
        "report_{}_trace{}.json",
        plan.name,
        u8::from(args.trace)
    ));
    std::fs::write(report_file, report.to_string()).expect("write the report file");
    println!("{result_line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
