//! Open-loop bursts against a bounded engine queue: a thundering herd must
//! surface as explicit shed load (`causeway_engine_shed_total`), never as
//! an unbounded queue or a deadlock.

use causeway_core::value::Value;
use causeway_orb::prelude::*;
use causeway_workloads::{run_open_loop, Arrivals};
use std::sync::Arc;
use std::time::Duration;

const IDL: &str = "interface Slow { long work(in long x); };";

/// One pooled worker behind a 2-slot queue, hit by a 64-caller stampede:
/// most of the herd must be shed with the overload reply and the shed
/// metric must account for it. The run finishing at all is the no-deadlock
/// half of the assertion (the harness timeout is the enforcement).
#[test]
fn thundering_herd_is_shed_with_metric_not_deadlock() {
    let mut builder = System::builder();
    builder.engine_queue_capacity(2);
    // A short reply timeout keeps even a missed shed from hanging the test.
    builder.reply_timeout(Duration::from_secs(10));
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server = builder.process("server", node, ThreadingPolicy::ThreadPool(1));
    let system = builder.build();
    system.load_idl(IDL).unwrap();

    let slow = system
        .register_servant(
            server,
            "Slow",
            "S",
            "s#0",
            Arc::new(FnServant::new(|_, _, args| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(Value::I64(args[0].as_i64().unwrap_or(0)))
            })),
        )
        .unwrap();
    system.start();

    let schedule = Arrivals::ThunderingHerd {
        herds: 2,
        herd_size: 32,
        gap: Duration::from_millis(400),
    }
    .schedule();
    let report = run_open_loop(16, &schedule, |i| {
        let client = system.client(driver);
        client.begin_root();
        match client.invoke(&slow, "work", vec![Value::I64(i as i64)]) {
            Ok(_) => Ok(()),
            Err(e) => Err(e.to_string()),
        }
    });

    // The system's own registry: nothing else in the process moves it.
    let shed = system
        .metrics()
        .counter_value_with("causeway_engine_shed_total", &[("engine", "orb")])
        .unwrap_or(0);
    let dispatched = system
        .metrics()
        .counter_value_with("causeway_engine_dispatch_total", &[("engine", "orb")])
        .unwrap_or(0);

    assert_eq!(report.offered, 64);
    assert_eq!(report.ok + report.errors, 64, "every arrival was answered");
    assert!(report.ok > 0, "the queue admitted and served some of the herd");
    assert!(
        report.errors > 0,
        "a 64-call stampede against a 2-slot queue must shed: {report:?}"
    );
    assert_eq!(
        shed, report.errors as u64,
        "every overload error, and nothing else, is accounted in \
         causeway_engine_shed_total"
    );
    assert_eq!(dispatched, report.ok as u64, "every served call was dispatched once");

    system.shutdown();
}
