//! Bench O1: per-call cost of the instrumentation — instrumented vs. plain
//! stubs/skeletons, remote and collocated — plus the sink fast path in
//! isolation: derived per-probe nanoseconds, chunked TLS push vs. a
//! per-record mutex baseline, and a multi-producer stress group.

use causeway_bench::sample_record;
use causeway_core::monitor::ProbeMode;
use causeway_core::sink::LogStore;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use criterion::{BenchmarkId, Criterion, black_box, criterion_group, criterion_main};
use std::sync::Arc;
use std::sync::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

struct Rig {
    system: System,
    local: ObjRef,
    remote: ObjRef,
    client_p: causeway_core::ids::ProcessId,
}

fn rig(instrumented: bool) -> Rig {
    let mut builder = System::builder();
    builder.instrumented(instrumented).probe_mode(ProbeMode::Latency);
    let node = builder.node("n", "X");
    let client_p = builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
    let server_p = builder.process("server", node, ThreadingPolicy::ThreadPool(2));
    let system = builder.build();
    system
        .load_idl("interface Echo { long id(in long x); };")
        .unwrap();
    let servant = || {
        Arc::new(FnServant::new(|_, _, args: Vec<Value>| {
            Ok(args.into_iter().next().unwrap_or(Value::Void))
        }))
    };
    let local = system
        .register_servant(client_p, "Echo", "L", "l#0", servant())
        .unwrap();
    let remote = system
        .register_servant(server_p, "Echo", "R", "r#0", servant())
        .unwrap();
    system.start();
    Rig { system, local, remote, client_p }
}

fn bench_probe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_overhead");
    for (label, instrumented) in [("plain", false), ("instrumented", true)] {
        let rig = rig(instrumented);
        let client = rig.system.client(rig.client_p);
        // Keep the log buffers bounded: drain every few thousand calls so
        // buffer reallocation does not pollute the per-call timing.
        let client_store = rig.system.orb(rig.client_p).monitor().store().clone();
        let server_store = rig
            .system
            .orb(rig.remote.owner)
            .monitor()
            .store()
            .clone();
        let since_drain = std::cell::Cell::new(0u32);
        let drain_sometimes = || {
            let n = since_drain.get() + 1;
            if n >= 4096 {
                since_drain.set(0);
                client_store.drain();
                server_store.drain();
            } else {
                since_drain.set(n);
            }
        };

        group.bench_function(format!("collocated/{label}"), |b| {
            b.iter(|| {
                client.begin_root();
                let out = client.invoke(&rig.local, "id", vec![Value::I64(1)]).unwrap();
                drain_sometimes();
                out
            })
        });
        group.bench_function(format!("remote/{label}"), |b| {
            b.iter(|| {
                client.begin_root();
                let out = client.invoke(&rig.remote, "id", vec![Value::I64(1)]).unwrap();
                drain_sometimes();
                out
            })
        });
        rig.system.orb(rig.client_p).monitor().store().drain();
        rig.system.shutdown();
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_probe_overhead,
    bench_probe_modes,
    bench_per_probe,
    bench_sink_push,
    bench_multi_producer,
);
criterion_main!(benches);

/// Derived per-probe cost: times plain vs. instrumented calls with one
/// long timed loop each and divides the per-call delta by the four probes
/// a sync call fires (stub_start, skel_start, skel_end, stub_end).
fn bench_per_probe(_c: &mut Criterion) {
    println!("\nbenchmark group: per_probe (derived)");
    for remote in [false, true] {
        let mut per_call_ns = [0.0f64; 2];
        for (slot, instrumented) in [(0usize, false), (1usize, true)] {
            let rig = rig(instrumented);
            let client = rig.system.client(rig.client_p);
            let target = if remote { rig.remote } else { rig.local };
            let client_store = rig.system.orb(rig.client_p).monitor().store().clone();
            let server_store = rig.system.orb(rig.remote.owner).monitor().store().clone();
            // Same drain cadence as the criterion groups above, so the two
            // methodologies stay comparable and the chunk channel bounded.
            let call = |n: u64| {
                for i in 0..n {
                    client.begin_root();
                    black_box(client.invoke(&target, "id", vec![Value::I64(1)]).unwrap());
                    if i % 4096 == 4095 {
                        client_store.drain();
                        server_store.drain();
                    }
                }
            };
            // Warm-up: pool threads spun up, TLS chunk slots cached.
            call(2_000);
            client_store.drain();
            server_store.drain();
            const CALLS: u64 = 20_000;
            let start = Instant::now();
            call(CALLS);
            per_call_ns[slot] = start.elapsed().as_nanos() as f64 / CALLS as f64;
            client_store.drain();
            server_store.drain();
            rig.system.shutdown();
        }
        let delta = per_call_ns[1] - per_call_ns[0];
        let kind = if remote { "remote" } else { "collocated" };
        println!(
            "  per_probe/{kind}: plain {:.1} ns/call, instrumented {:.1} ns/call, \
             delta {:.1} ns/call => {:.1} ns/probe (4 probes)",
            per_call_ns[0],
            per_call_ns[1],
            delta,
            delta / 4.0,
        );
    }
}

/// The sink fast path in isolation: one TLS chunk push per record vs. the
/// per-record `Mutex<Vec>` log the chunked design replaces. A background
/// collector streams sealed chunks off the channel concurrently, so the
/// producer is measured against live consumption — the deployment shape —
/// and channel memory stays bounded.
fn bench_sink_push(c: &mut Criterion) {
    let mut group = c.benchmark_group("sink_push");

    let store = Arc::new(LogStore::new());
    let stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let store = store.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut received = 0usize;
            loop {
                match store.recv_chunk_timeout(Duration::from_millis(20)) {
                    Some(chunk) => received += chunk.len(),
                    None if stop.load(Ordering::Acquire) => break,
                    None => {}
                }
            }
            received
        })
    };
    group.bench_function("chunked_tls", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            store.push(sample_record(seq));
        })
    });
    store.flush_current_thread();
    stop.store(true, Ordering::Release);
    let received = collector.join().expect("collector thread");
    assert!(received > 0, "collector saw no chunks");

    // Baseline: the shared-lock log that the chunked design removes. The
    // periodic clear bounds memory without a reallocation on the hot path.
    let log = Mutex::new(Vec::with_capacity(1 << 16));
    group.bench_function("mutex_vec_baseline", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            let mut guard = log.lock().expect("log mutex");
            guard.push(sample_record(seq));
            if guard.len() >= 1 << 16 {
                guard.clear();
            }
        })
    });
    group.finish();
}

/// Multi-producer stress: P client threads pushing concurrently into one
/// store while a collector thread streams chunks out the other end. Flat
/// per-record cost from 1 to 8 producers is the observable consequence of
/// having no per-record lock to contend on.
fn bench_multi_producer(c: &mut Criterion) {
    let mut group = c.benchmark_group("sink_stress");
    group.sample_size(20);
    for producers in [1u64, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("producers", producers),
            &producers,
            |b, &producers| {
                b.iter_custom(|iters| {
                    let store = Arc::new(LogStore::new());
                    let per_thread = iters.div_ceil(producers);
                    let stop = Arc::new(AtomicBool::new(false));
                    let collector = {
                        let store = store.clone();
                        let stop = stop.clone();
                        std::thread::spawn(move || {
                            loop {
                                match store.recv_chunk_timeout(Duration::from_millis(5)) {
                                    Some(chunk) => drop(black_box(chunk)),
                                    None if stop.load(Ordering::Acquire) => break,
                                    None => {}
                                }
                            }
                        })
                    };
                    let start = Instant::now();
                    let handles: Vec<_> = (0..producers)
                        .map(|t| {
                            let store = store.clone();
                            std::thread::spawn(move || {
                                for i in 0..per_thread {
                                    store.push(sample_record(t * per_thread + i));
                                }
                                store.flush_current_thread();
                            })
                        })
                        .collect();
                    for handle in handles {
                        handle.join().expect("producer thread");
                    }
                    // Producers are done; only the drain remains outside
                    // the timed region. div_ceil may add < P extra records
                    // out of a calibrated batch of thousands — noise.
                    let elapsed = start.elapsed();
                    stop.store(true, Ordering::Release);
                    collector.join().expect("collector thread");
                    elapsed
                })
            },
        );
    }
    group.finish();
}

/// Ablation: per-call cost of each probe mode (what each behavior aspect
/// adds on top of causality capture).
fn bench_probe_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_modes");
    for (label, mode) in [
        ("causality_only", ProbeMode::CausalityOnly),
        ("latency", ProbeMode::Latency),
        ("cpu", ProbeMode::Cpu),
        ("both", ProbeMode::Both),
    ] {
        let mut builder = System::builder();
        builder.instrumented(true).probe_mode(mode);
        let node = builder.node("n", "X");
        let p = builder.process("solo", node, ThreadingPolicy::ThreadPerRequest);
        let system = builder.build();
        system
            .load_idl("interface Echo { long id(in long x); };")
            .unwrap();
        let obj = system
            .register_servant(
                p,
                "Echo",
                "E",
                "e#0",
                Arc::new(FnServant::new(|_, _, args: Vec<Value>| {
                    Ok(args.into_iter().next().unwrap_or(Value::Void))
                })),
            )
            .unwrap();
        system.start();
        let client = system.client(p);
        let store = system.orb(p).monitor().store().clone();
        let since_drain = std::cell::Cell::new(0u32);
        group.bench_function(format!("collocated/{label}"), |b| {
            b.iter(|| {
                client.begin_root();
                let out = client.invoke(&obj, "id", vec![Value::I64(1)]).unwrap();
                let n = since_drain.get() + 1;
                if n >= 4096 {
                    since_drain.set(0);
                    store.drain();
                } else {
                    since_drain.set(n);
                }
                out
            })
        });
        system.shutdown();
    }
    group.finish();
}
