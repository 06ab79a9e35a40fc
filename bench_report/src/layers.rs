//! Layer probes for the traced run: direct timings of one layer's public
//! functions, for the layers the four stages do not isolate. Each is the
//! median of a few short trials; none of it runs with `--trace 0`.

use crate::gen;
use crate::ingest::{IngestInput, BATCH_RECORDS};
use crate::span::span;
use crate::stats::median;
use crate::steady::{live_config, ROUTES};
use crate::{metric, Metric};
use causeway_analyzer::dscg::Dscg;
use causeway_analyzer::live::LiveMonitor;
use causeway_analyzer::online::{OnlineAnalyzer, OnlineEvent};
use causeway_collector::db::MonitoringDb;
use causeway_collector::segment;
use causeway_core::ftl::FunctionTxLog;
use causeway_core::metrics::MetricsRegistry;
use causeway_core::monitor::ProbeMode;
use causeway_core::record::ProbeRecord;
use causeway_core::sink::LogStore;
use causeway_core::value::Value;
use causeway_core::wire;
use causeway_orb::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRIALS: usize = 5;

/// Median over [`TRIALS`] of nanoseconds per iteration.
fn ns_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let trials: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&trials)
}

/// One echo servant reachable collocated and one reachable remotely, under
/// plain stubs (`None`) or one probe mode.
struct EchoRig {
    system: System,
    client: Client,
    local: ObjRef,
    remote: ObjRef,
}

impl EchoRig {
    fn build(mode: Option<ProbeMode>) -> EchoRig {
        let mut builder = System::builder();
        builder
            .instrumented(mode.is_some())
            .probe_mode(mode.unwrap_or_default());
        let node = builder.node("n", "X");
        let client_p = builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
        let server_p = builder.process("server", node, ThreadingPolicy::ThreadPool(2));
        let system = builder.build();
        system
            .load_idl("interface Echo { long id(in long x); };")
            .expect("echo IDL compiles");
        let servant = || {
            Arc::new(FnServant::new(|_, _, args: Vec<Value>| {
                Ok(args.into_iter().next().unwrap_or(Value::Void))
            }))
        };
        let local = system
            .register_servant(client_p, "Echo", "L", "l#0", servant())
            .expect("register");
        let remote = system
            .register_servant(server_p, "Echo", "R", "r#0", servant())
            .expect("register");
        system.start();
        let client = system.client(client_p);
        EchoRig {
            system,
            client,
            local,
            remote,
        }
    }

    /// Nanoseconds per call to `target`, draining the stores between
    /// trials so buffer growth stays out of the timing.
    fn call_ns(&self, target: ObjRef, calls: u64) -> f64 {
        let stores = [self.local.owner, self.remote.owner]
            .map(|p| self.system.orb(p).monitor().store().clone());
        let trials: Vec<f64> = (0..TRIALS)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..calls {
                    self.client.begin_root();
                    black_box(
                        self.client
                            .invoke(&target, "id", vec![Value::I64(1)])
                            .expect("echo"),
                    );
                }
                let ns = started.elapsed().as_nanos() as f64 / calls as f64;
                for store in &stores {
                    store.drain();
                }
                ns
            })
            .collect();
        median(&trials)
    }
}

/// `core::monitor`, `orb`: the probe bracket per mode — (instrumented −
/// plain collocated call) ÷ 4 probes — and a plain remote dispatch.
pub fn probes_and_dispatch() -> Vec<Metric> {
    let plain = EchoRig::build(None);
    let plain_ns = plain.call_ns(plain.local, 20_000);
    let mut out = vec![metric(
        "orb.dispatch_us",
        plain.call_ns(plain.remote, 2_000) / 1e3,
        "us",
    )];
    plain.system.shutdown();
    for (label, mode) in [
        ("causality_only", ProbeMode::CausalityOnly),
        ("latency", ProbeMode::Latency),
        ("cpu", ProbeMode::Cpu),
        ("both", ProbeMode::Both),
    ] {
        let rig = EchoRig::build(Some(mode));
        let bracket = (rig.call_ns(rig.local, 20_000) - plain_ns) / 4.0;
        out.push(metric(&format!("probe.bracket_ns.{label}"), bracket, "ns"));
        rig.system.shutdown();
    }
    out
}

/// `core::ftl` + `core::wire` (arguments): what carrying the hidden FTL
/// parameter adds to one remote call — appended and split off once on the
/// request and once on the reply.
pub fn ftl_marshal() -> Metric {
    let payload = wire::encode_args(&[Value::I64(1)]);
    let mut ftl = FunctionTxLog::fresh();
    let ns = ns_per_iter(200_000, || {
        for _ in 0..2 {
            ftl.next_seq();
            let framed = wire::append_ftl(payload.clone(), ftl);
            black_box(wire::split_ftl(framed).expect("an FTL just appended splits off"));
        }
    });
    metric("ftl.marshal_ns", ns, "ns")
}

/// `core::sink`: one `LogStore::push` with a collector thread streaming
/// sealed chunks out, as deployed.
pub fn sink_push(sample: &ProbeRecord) -> Metric {
    let store = LogStore::new();
    let stop = AtomicBool::new(false);
    let ns = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                black_box(store.recv_chunk_timeout(Duration::from_millis(5)));
            }
        });
        let ns = ns_per_iter(200_000, || store.push(sample.clone()));
        stop.store(true, Ordering::Release);
        ns
    });
    metric("sink.push_ns", ns, "ns")
}

/// `core::wire` (records): batch encode and decode, per record.
pub fn wire_records(records: &[ProbeRecord]) -> Vec<Metric> {
    let n = records.len() as f64;
    let bytes = wire::encode_records(records);
    let encode = ns_per_iter(3, || drop(black_box(wire::encode_records(records)))) / n;
    let decode = ns_per_iter(3, || {
        drop(black_box(wire::decode_records(&bytes).expect("round trip")))
    }) / n;
    vec![
        metric("wire.encode_ns", encode, "ns"),
        metric("wire.decode_ns", decode, "ns"),
        metric("wire.bytes_per_record", bytes.len() as f64 / n, "bytes"),
    ]
}

/// `collector::segment` recovery and the one-thread DSCG build, on the
/// offline stage's log.
pub fn recover_and_serial_build(log: &Path) -> Vec<Metric> {
    let bytes = std::fs::read(log).expect("read the run log segment");
    let mut frames = 0;
    let recover = ns_per_iter(1, || {
        let recovery = segment::recover_run_log(&bytes).expect("the segment header verifies");
        frames = recovery.chunk_frames;
        black_box(recovery);
    });
    let run = segment::read_run_log(&bytes).expect("the segment reads clean");
    drop(bytes);
    let db = MonitoringDb::from_run(run);
    let serial = ns_per_iter(1, || drop(black_box(Dscg::build_with_threads(&db, 1))));
    vec![
        metric("segment.recover_ms", recover / 1e6, "ms"),
        metric("segment.frames", frames as f64, "count"),
        metric("dscg.build_1thread_ms", serial / 1e6, "ms"),
    ]
}

/// `analyzer::online`: the bare Figure-4 machine on the ingest stream,
/// one thread, forgetting idle chains as the live monitor does.
pub fn online_step(input: &IngestInput) -> Vec<Metric> {
    let mut peak_open = 0;
    let mut peak_buffered = 0;
    let mut abnormalities = 0u64;
    let ns = ns_per_iter(1, || {
        let mut analyzer = OnlineAnalyzer::new();
        analyzer.ingest_batch_with_threads(input.preload.clone(), 1, &mut |_| {});
        abnormalities = 0;
        for batch in input.stream.chunks(BATCH_RECORDS) {
            let mut idle = Vec::new();
            analyzer.ingest_batch_with_threads(batch.to_vec(), 1, &mut |event| match event {
                OnlineEvent::ChainIdle { chain, .. } => idle.push(chain),
                OnlineEvent::Abnormality { .. } => abnormalities += 1,
                OnlineEvent::CallCompleted { .. } => {}
            });
            for chain in idle {
                analyzer.forget_chain(chain);
            }
        }
        peak_open = analyzer.open_chains();
        peak_buffered = analyzer.buffered_records();
    });
    vec![
        metric(
            "online.step_ns",
            ns / (input.preload.len() + input.stream.len()) as f64,
            "ns",
        ),
        metric("online.open_chains", peak_open as f64, "count"),
        metric("online.buffered_records", peak_buffered as f64, "count"),
        metric("online.abnormalities", abnormalities as f64, "count"),
    ]
}

/// `analyzer::live`: a `tick_at` that crosses a window boundary, and each
/// operator view rendered directly (no socket), on a monitor that has
/// ingested the stream.
pub fn window_close_and_views(input: &IngestInput) -> Vec<Metric> {
    let monitor = LiveMonitor::new(live_config(), input.vocab.clone(), input.deployment.clone());
    let window_ns = live_config().window.as_nanos() as u64;
    let batches: Vec<&[ProbeRecord]> = input.stream.chunks(BATCH_RECORDS).collect();
    // One share of the stream per window, each closed by a timed tick.
    let closes: Vec<f64> = batches
        .chunks(batches.len().div_ceil(TRIALS).max(1))
        .enumerate()
        .map(|(window, share)| {
            for batch in share {
                monitor.ingest_batch_at(batch.to_vec(), window as u64 * window_ns + 1);
            }
            let started = Instant::now();
            span("analyzer::live::tick_at", || {
                (monitor.tick_at((window as u64 + 1) * window_ns), 1)
            });
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let mut out = vec![metric("live.window_close_us", median(&closes), "us")];
    let renders: [(&str, &dyn Fn() -> usize); 7] = [
        (ROUTES[0].0, &|| {
            monitor.latency_json(None, None).to_string().len()
        }),
        (ROUTES[1].0, &|| {
            monitor
                .latency_json(Some("Pps::Stage"), None)
                .to_string()
                .len()
        }),
        (ROUTES[2].0, &|| {
            MetricsRegistry::global().render_prometheus().len()
        }),
        (ROUTES[3].0, &|| monitor.health_json().1.to_string().len()),
        (ROUTES[4].0, &|| {
            monitor.history_json(None, None).to_string().len()
        }),
        (ROUTES[5].0, &|| {
            monitor
                .exemplars_json(None)
                .map_or(0, |json| json.to_string().len())
        }),
        (ROUTES[6].0, &|| {
            monitor.flamegraph(None).map_or(0, |body| body.len())
        }),
    ];
    for (route, render) in renders {
        let ns = ns_per_iter(50, || {
            black_box(render());
        });
        out.push(metric(&format!("view.render_us.{route}"), ns / 1e3, "us"));
    }
    out
}

/// Every probe that needs no stage input.
pub fn standalone() -> Vec<Metric> {
    let mut out = probes_and_dispatch();
    out.push(ftl_marshal());
    let records: Vec<ProbeRecord> = gen::pps_jobs(1, 2_000).into_iter().flatten().collect();
    out.push(sink_push(&records[0]));
    out.extend(wire_records(&records));
    out
}
