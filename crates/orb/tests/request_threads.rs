//! Thread-per-request engines reuse their request threads: a thread whose
//! dispatch has returned parks for the next request. These tests pin the
//! rules that make reuse invisible to tracing and to the engine's callers:
//! a reused thread starts each request in a fresh thread's state, a stop
//! wins over a park, admission counts busy threads only, and reuse really
//! happens.

use causeway_core::event::TraceEvent;
use causeway_core::ids::{LogicalThreadId, MethodIndex, ProcessId};
use causeway_core::monitor::ProbeMode;
use causeway_core::record::ProbeRecord;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const IDL: &str = "interface Reuse { long id(in long x); long hold(in long x); \
                   oneway void nap(in long x); };";

const ID: MethodIndex = MethodIndex(0);
const HOLD: MethodIndex = MethodIndex(1);

/// `id` echoes; `hold` reports it entered on `entered`, then waits for
/// `release`; `nap` sleeps a millisecond.
fn servant(entered: Sender<()>, release: Receiver<()>) -> Arc<dyn Servant> {
    let release = Mutex::new(release);
    Arc::new(FnServant::new(move |_, method, args: Vec<Value>| {
        if method == ID {
            return Ok(args[0].clone());
        }
        if method == HOLD {
            entered.send(()).unwrap();
            release.lock().unwrap().recv().unwrap();
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Value::Void)
    }))
}

fn idle_servant() -> Arc<dyn Servant> {
    let (entered, _) = bounded(1);
    let (_, release) = bounded(1);
    servant(entered, release)
}

/// A driver and a thread-per-request server holding one `Reuse` object.
fn system(builder: SystemBuilder, servant: Arc<dyn Servant>) -> (System, ProcessId, ObjRef) {
    let mut builder = builder;
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server = builder.process("server", node, ThreadingPolicy::ThreadPerRequest);
    let system = builder.build();
    system.load_idl(IDL).unwrap();
    let target = system.register_servant(server, "Reuse", "R", "r#0", servant).unwrap();
    system.start();
    (system, driver, target)
}

/// The server's `event` records, in the order the server pushed them.
fn server_records(system: &System, server: ProcessId, event: TraceEvent) -> Vec<ProbeRecord> {
    system.quiesce(Duration::from_secs(10)).unwrap();
    let mut records: Vec<ProbeRecord> = system
        .harvest()
        .records
        .into_iter()
        .filter(|r| r.site.process == server && r.event == event)
        .collect();
    records.sort_by_key(|r| r.wall_start);
    records
}

/// (a) Interceptor tracing on a reused thread. The first request of a
/// pair carries an FTL; the second carries none, so the server interceptor
/// installs nothing and its closing probe finds whatever the thread holds.
/// On a fresh thread that is nothing: the probe recovers into a new chain
/// and counts an anomaly. A reused thread must behave the same, not extend
/// the first request's chain. Pairs repeat until one lands on one thread.
#[test]
fn a_reused_thread_starts_a_request_in_a_fresh_threads_state() {
    let mut builder = System::builder();
    builder.instrumented(false).probe_mode(ProbeMode::Latency);
    let (system, driver, target) = system(builder, idle_servant());
    let tracer = |process| {
        let orb = system.orb(process);
        let tracer = Arc::new(FtlInterceptor::new(orb.monitor().clone()));
        let mut set = InterceptorSet::new();
        set.clients.push(tracer.clone());
        set.servers.push(tracer);
        orb.set_interceptors(set);
    };
    tracer(target.owner);
    let client = system.client(driver);
    for pair in 0..100 {
        tracer(driver);
        client.begin_root();
        client.invoke(&target, "id", vec![Value::I64(pair)]).unwrap();
        // The second request goes out with no FTL context.
        system.orb(driver).set_interceptors(InterceptorSet::new());
        let anomalies = system.anomaly_count();
        client.invoke(&target, "id", vec![Value::I64(pair)]).unwrap();
        assert_eq!(
            system.anomaly_count(),
            anomalies + 1,
            "the context-less close recovers, as on a fresh thread"
        );
        let ends = server_records(&system, target.owner, TraceEvent::SkelEnd);
        assert_eq!(ends.len(), 2, "{ends:?}");
        if ends[0].site.thread == ends[1].site.thread {
            assert_ne!(
                ends[1].uuid, ends[0].uuid,
                "the second request's close extended the first request's chain"
            );
            return;
        }
    }
    panic!("no second request of 100 reused the first one's thread");
}

/// (b) A request thread that finishes after the engine stopped must not
/// park, or the engine's join waits for it forever. A one-way call whose
/// servant naps is still dispatching when the stop arrives; a synchronous
/// call before it leaves a thread parked for the stop to release.
#[test]
fn a_stop_wins_over_a_park() {
    for round in 0..200 {
        let mut builder = System::builder();
        builder.probe_mode(ProbeMode::CausalityOnly);
        let (system, driver, target) = system(builder, idle_servant());
        let client = system.client(driver);
        client.begin_root();
        client.invoke(&target, "id", vec![Value::I64(round)]).unwrap();
        client.invoke_oneway(&target, "nap", vec![Value::I64(round)]).unwrap();
        drop(client);
        let (done, joined) = bounded(1);
        std::thread::spawn(move || {
            if round % 2 == 0 {
                system.shutdown();
            }
            drop(system);
            done.send(()).unwrap();
        });
        assert!(
            joined.recv_timeout(Duration::from_secs(10)).is_ok(),
            "round {round}: stopping the system did not join its engines"
        );
    }
}

/// (c) Under thread-per-request the engine's queue is the set of threads
/// serving a request. A parked thread serves none: with a capacity of one
/// it must not shed the next request, while a busy thread must.
#[test]
fn admission_counts_busy_request_threads_not_parked_ones() {
    let (entered_tx, entered) = bounded(1);
    let (release, release_rx) = bounded(1);
    let mut builder = System::builder();
    builder.probe_mode(ProbeMode::CausalityOnly).engine_queue_capacity(1);
    let (system, driver, target) = system(builder, servant(entered_tx, release_rx));
    let client = system.client(driver);
    client.begin_root();
    client.invoke(&target, "id", vec![Value::I64(1)]).unwrap();

    // The thread that served the call parks; the next call is admitted
    // once it has stopped counting as busy.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.invoke(&target, "id", vec![Value::I64(2)]) {
            Ok(_) => break,
            Err(e) if e.to_string().contains("overloaded") && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("a parked request thread made the engine shed: {e}"),
        }
    }

    std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            let client = system.client(driver);
            client.begin_root();
            client.invoke(&target, "hold", vec![Value::I64(3)])
        });
        entered.recv_timeout(Duration::from_secs(10)).expect("hold entered its servant");
        let busy = client.invoke(&target, "id", vec![Value::I64(4)]);
        release.send(()).unwrap();
        holder.join().unwrap().expect("the held call completes");
        let err = busy.expect_err("a busy request thread fills a queue of one");
        assert!(err.to_string().contains("overloaded"), "{err}");
    });
}

/// (d) Sequential calls find the previous request's thread parked, so a
/// long run is served by a handful of threads instead of one per call.
#[test]
fn sequential_requests_reuse_a_handful_of_threads() {
    const CALLS: i64 = 200;
    let mut builder = System::builder();
    builder.probe_mode(ProbeMode::CausalityOnly);
    let (system, driver, target) = system(builder, idle_servant());
    let client = system.client(driver);
    for i in 0..CALLS {
        client.begin_root();
        assert_eq!(client.invoke(&target, "id", vec![Value::I64(i)]).unwrap().as_i64(), Some(i));
    }
    let starts = server_records(&system, target.owner, TraceEvent::SkelStart);
    assert_eq!(starts.len(), CALLS as usize);
    let threads: HashSet<LogicalThreadId> = starts.iter().map(|r| r.site.thread).collect();
    assert!(
        threads.len() <= 8,
        "{CALLS} sequential requests ran on {} server threads",
        threads.len()
    );
    assert_eq!(system.anomaly_count(), 0);
}

/// (e) A stop under load joins every request thread. Four clients send
/// synchronous and one-way calls while the system shuts down: the shutdown
/// returns, every call ends in a reply or a transport error, and no
/// request thread or in-flight request is left behind.
#[test]
fn a_stop_under_load_joins_every_request_thread() {
    const CLIENTS: usize = 4;
    const CALLS: i64 = 100;
    for round in 0..50u64 {
        let mut builder = System::builder();
        builder.probe_mode(ProbeMode::CausalityOnly).reply_timeout(Duration::from_secs(10));
        let (system, driver, target) = system(builder, idle_servant());
        let system = Arc::new(system);
        let (ended, calls_ended) = bounded(CLIENTS);
        for c in 0..CLIENTS as i64 {
            let (system, ended) = (Arc::clone(&system), ended.clone());
            std::thread::spawn(move || {
                let client = system.client(driver);
                for i in 0..CALLS {
                    client.begin_root();
                    let call = if (i + c) % 4 == 0 {
                        client.invoke_oneway(&target, "nap", vec![Value::I64(i)])
                    } else {
                        client.invoke(&target, "id", vec![Value::I64(i)]).map(drop)
                    };
                    match call {
                        Ok(()) => {}
                        Err(OrbError::ProcessUnreachable(_)) => break,
                        Err(e) => panic!("round {round}: call {i} of client {c}: {e}"),
                    }
                }
                ended.send(()).unwrap();
            });
        }
        // Stop at a different point of the load each round.
        std::thread::sleep(Duration::from_micros(100 * (round % 10)));
        let (stopped, shut_down) = bounded(1);
        let stopper = Arc::clone(&system);
        std::thread::spawn(move || {
            stopper.shutdown();
            stopped.send(()).unwrap();
        });
        assert!(
            shut_down.recv_timeout(Duration::from_secs(10)).is_ok(),
            "round {round}: shutdown under load did not return"
        );
        for _ in 0..CLIENTS {
            assert!(
                calls_ended.recv_timeout(Duration::from_secs(10)).is_ok(),
                "round {round}: a call hung or failed"
            );
        }
        assert_eq!(system.tracked_workers(target.owner), 0, "round {round}");
        assert_eq!(system.in_flight(), 0, "round {round}: a request is still in flight");
    }
}
