//! The stop and admission rules every inbox-fed engine shares: shutdown
//! takes each process off the fabric before it joins any engine, so a
//! servant still busy in a stopped process fails fast on a call into a
//! stopped process; and a pool worker admits the request it took against
//! the requests still queued behind it.

use causeway_core::monitor::ProbeMode;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const IDL: &str = "interface Held { long hold(in long x); long id(in long x); };";

/// Longest wait for a state another thread brings about.
const PATIENCE: Duration = Duration::from_secs(10);

/// `hold` reports it entered on `entered`, then waits for `release`,
/// then runs `after`; `id` echoes.
fn held_servant(
    entered: Sender<()>,
    release: Receiver<()>,
    after: impl Fn() + Send + Sync + 'static,
) -> Arc<dyn Servant> {
    let release = Mutex::new(release);
    Arc::new(FnServant::new(move |_, method, args: Vec<Value>| {
        if method.0 == 0 {
            entered.send(()).unwrap();
            release.lock().unwrap().recv().unwrap();
            after();
        }
        Ok(args[0].clone())
    }))
}

/// Waits, with a short back-off, until `ready` holds or [`PATIENCE`] has
/// passed; returns whether it held.
fn wait_until(ready: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + PATIENCE;
    while !ready() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    true
}

/// A driver D, a server A and a process B, each holding a call in its
/// servant while the system shuts down. Once B has left the fabric, A's
/// servant is released and calls B: the call must fail with
/// `ProcessUnreachable` at once, not wait out the reply timeout. D's held
/// call keeps the shutdown inside the first engine join (D's) throughout,
/// so this pins that every process leaves the fabric before any engine is
/// joined.
#[test]
fn a_call_into_a_stopped_process_fails_fast() {
    const REPLY_TIMEOUT: Duration = Duration::from_secs(3);
    for policy in [
        ThreadingPolicy::ThreadPerRequest,
        ThreadingPolicy::ThreadPool(2),
    ] {
        let mut builder = System::builder();
        builder
            .probe_mode(ProbeMode::CausalityOnly)
            .reply_timeout(REPLY_TIMEOUT);
        let node = builder.node("n", "X");
        let d = builder.process("driver", node, policy);
        let a = builder.process("a", node, policy);
        let b = builder.process("b", node, policy);
        let system = builder.build();
        system.load_idl(IDL).unwrap();

        let (entered_tx, entered) = bounded(3);
        let (release_d, release_d_rx) = bounded(1);
        let (release_a, release_a_rx) = bounded(1);
        let (release_b, release_b_rx) = bounded(1);
        let on_b = system
            .register_servant(
                b,
                "Held",
                "B",
                "b#0",
                held_servant(entered_tx.clone(), release_b_rx, || {}),
            )
            .unwrap();
        let on_d = system
            .register_servant(
                d,
                "Held",
                "D",
                "d#0",
                held_servant(entered_tx.clone(), release_d_rx, || {}),
            )
            .unwrap();
        let (called, call_ended) = bounded(1);
        let a_client = system.client(a);
        let relay = move || {
            let started = Instant::now();
            let result = a_client.invoke(&on_b, "id", vec![Value::I64(2)]);
            called.send((result, started.elapsed())).unwrap();
        };
        let on_a = system
            .register_servant(
                a,
                "Held",
                "A",
                "a#0",
                held_servant(entered_tx, release_a_rx, relay),
            )
            .unwrap();
        system.start();

        std::thread::scope(|scope| {
            // Each held call comes from a process other than its target's.
            let hold = |from, target: ObjRef| {
                let system = &system;
                scope.spawn(move || {
                    let client = system.client(from);
                    client.begin_root();
                    client.invoke(&target, "hold", vec![Value::I64(1)])
                })
            };
            let held = [hold(a, on_d), hold(d, on_a), hold(d, on_b)];
            for _ in 0..3 {
                entered
                    .recv_timeout(PATIENCE)
                    .expect("every held call entered its servant");
            }

            let shutdown = scope.spawn(|| system.shutdown());
            let left = wait_until(|| system.fabric().sender(b).is_none());
            release_a.send(()).unwrap();
            let (result, took) = call_ended
                .recv_timeout(PATIENCE)
                .expect("A's call to B ended");
            release_d.send(()).unwrap();
            release_b.send(()).unwrap();
            shutdown.join().unwrap();

            assert!(
                matches!(result, Err(OrbError::ProcessUnreachable(_))),
                "{policy:?}: a call into a stopped process ended in {result:?} after {took:?}"
            );
            assert!(
                took < REPLY_TIMEOUT / 10,
                "{policy:?}: the call took {took:?}"
            );
            assert!(
                left,
                "{policy:?}: B was still on the fabric while D's engine was joined"
            );
            for call in held {
                call.join()
                    .unwrap()
                    .expect("a held call completes after the stop");
            }
        });
        assert_eq!(system.in_flight(), 0, "{policy:?}");
    }
}

/// A pool admits at take time, against the requests queued behind the one
/// taken: with one worker and a queue of one, the older of two requests
/// queued behind a held call is shed and the newer one is served.
#[test]
fn a_pool_worker_admits_the_request_it_takes() {
    let mut builder = System::builder();
    builder
        .probe_mode(ProbeMode::CausalityOnly)
        .engine_queue_capacity(1);
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server = builder.process("server", node, ThreadingPolicy::ThreadPool(1));
    let system = builder.build();
    system.load_idl(IDL).unwrap();
    let (entered_tx, entered) = bounded(1);
    let (release, release_rx) = bounded(1);
    let target = system
        .register_servant(
            server,
            "Held",
            "S",
            "s#0",
            held_servant(entered_tx, release_rx, || {}),
        )
        .unwrap();
    system.start();
    let inbox = system.fabric().sender(server).unwrap();

    std::thread::scope(|scope| {
        let call = |method, x| {
            let system = &system;
            scope.spawn(move || {
                let client = system.client(driver);
                client.begin_root();
                client.invoke(&target, method, vec![Value::I64(x)])
            })
        };
        let first = call("hold", 1);
        entered
            .recv_timeout(PATIENCE)
            .expect("request 1 entered its servant");
        let second = call("id", 2);
        // A pool has no second queue: queued requests wait in the inbox.
        assert!(
            wait_until(|| inbox.len() == 1),
            "request 2 waits in the inbox"
        );
        let third = call("id", 3);
        assert!(
            wait_until(|| inbox.len() == 2),
            "request 3 waits in the inbox"
        );
        release.send(()).unwrap();

        assert_eq!(first.join().unwrap().unwrap().as_i64(), Some(1));
        let err = second
            .join()
            .unwrap()
            .expect_err("request 2 waited longest and is shed");
        assert!(err.to_string().contains("overloaded"), "{err}");
        assert_eq!(
            third.join().unwrap().unwrap().as_i64(),
            Some(3),
            "request 3 is served"
        );
    });

    system.quiesce(PATIENCE).unwrap();
    let metrics = system.metrics();
    let orb = [("engine", "orb")];
    assert_eq!(
        metrics.counter_value_with("causeway_engine_shed_total", &orb),
        Some(1)
    );
    let dispatched = metrics.counter_value_with("causeway_engine_dispatch_total", &orb);
    assert_eq!(dispatched, Some(2));
    let queue_wait = metrics
        .histogram_value("causeway_engine_queue_wait_ns")
        .unwrap();
    assert_eq!(
        Some(queue_wait.count()),
        dispatched,
        "one queue wait per dispatch"
    );
}
