//! The `causeway_engine_*` series keep one shape on every runtime: the same
//! family names, help strings, types and `engine=` label whether the calls
//! went through the ORB, a COM apartment or an EJB container, with exact
//! dispatch counts read from each runtime's own registry.

use causeway_com::{ApartmentKind, ComDomain, FnComServant};
use causeway_core::ids::{NodeId, ProcessId};
use causeway_core::metrics::MetricsRegistry;
use causeway_core::value::Value;
use causeway_ejb::{Container, FnBean, SessionBean};
use causeway_orb::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const IDL: &str = "interface Echo { long echo(in long x); };";

/// Calls pushed through each runtime.
const CALLS: u64 = 5;

/// Every engine family as `(name, type, help)`, in render order.
const FAMILIES: &[(&str, &str, &str)] = &[
    (
        "causeway_engine_busy_ns_total",
        "counter",
        "nanoseconds workers spent occupied by dispatches",
    ),
    ("causeway_engine_dispatch_total", "counter", "requests dispatched by the engine"),
    ("causeway_engine_inflight", "gauge", "requests currently inside dispatch"),
    (
        "causeway_engine_op_busy_ns",
        "histogram",
        "nanoseconds the up-call occupied a worker, per interface function",
    ),
    ("causeway_engine_op_dispatch_total", "counter", "requests dispatched, per interface function"),
    ("causeway_engine_queue_wait_ns", "histogram", "nanoseconds requests waited for a worker"),
    (
        "causeway_engine_shed_total",
        "counter",
        "requests refused at admission because the dispatch queue was full",
    ),
    ("causeway_engine_workers", "gauge", "live worker threads"),
];

/// Checks one runtime's registry after `CALLS` calls of `Echo::echo`, once
/// the runtime is quiesced and shut down.
fn assert_engine_series(registry: &MetricsRegistry, engine: &str) {
    let text = registry.render_prometheus();
    let headers: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("# ") && line.contains(" causeway_engine_"))
        .collect();
    let expected: Vec<String> = FAMILIES
        .iter()
        .flat_map(|(name, kind, help)| {
            [format!("# HELP {name} {help}"), format!("# TYPE {name} {kind}")]
        })
        .collect();
    assert_eq!(headers, expected, "engine families of {engine}:\n{text}");

    let label = format!("{{engine=\"{engine}\"");
    for line in text.lines().filter(|line| line.starts_with("causeway_engine_")) {
        let labelled = line.contains(&label) || line.contains(&format!("_bucket{label}"));
        assert!(labelled, "sample without engine=\"{engine}\": {line}");
    }

    let engine_label = [("engine", engine)];
    let counter = |name| registry.counter_value_with(name, &engine_label);
    assert_eq!(counter("causeway_engine_dispatch_total"), Some(CALLS), "{engine}");
    assert_eq!(counter("causeway_engine_shed_total"), Some(0), "{engine}");
    assert_eq!(
        registry.gauge_value_with("causeway_engine_inflight", &engine_label),
        Some(0),
        "{engine}"
    );
    let queue_wait = registry.histogram_value("causeway_engine_queue_wait_ns").unwrap();
    assert_eq!(queue_wait.count(), CALLS, "{engine}: one queue wait per dispatch");
    assert_eq!(
        registry.counter_value_with(
            "causeway_engine_op_dispatch_total",
            &[("engine", engine), ("iface", "Echo"), ("method", "echo")],
        ),
        Some(CALLS),
        "{engine}"
    );
}

#[test]
fn orb_engine_series_keep_their_shape() {
    let mut builder = System::builder();
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server = builder.process("server", node, ThreadingPolicy::ThreadPool(2));
    let system = builder.build();
    system.load_idl(IDL).unwrap();
    let echo = system
        .register_servant(
            server,
            "Echo",
            "E",
            "e#0",
            Arc::new(FnServant::new(|_, _, args| Ok(args[0].clone()))),
        )
        .unwrap();
    system.start();
    let client = system.client(driver);
    for i in 0..CALLS {
        client.begin_root();
        let out = client.invoke(&echo, "echo", vec![Value::I64(i as i64)]).unwrap();
        assert_eq!(out.as_i64(), Some(i as i64));
    }
    system.quiesce(Duration::from_secs(10)).unwrap();
    system.shutdown();
    assert_eq!(system.in_flight(), 0);
    assert_engine_series(system.metrics(), "orb");
}

#[test]
fn com_engine_series_keep_their_shape() {
    let domain = ComDomain::builder(ProcessId(0), NodeId(0)).build();
    domain.load_idl(IDL).unwrap();
    let apartment = domain.create_apartment(ApartmentKind::Mta(2));
    let echo = domain
        .register_object(
            apartment,
            "Echo",
            "E",
            "e#0",
            Arc::new(FnComServant::new(|_, _, args| Ok(args[0].clone()))),
        )
        .unwrap();
    let client = domain.client();
    for i in 0..CALLS {
        client.begin_root();
        let out = client.invoke(&echo, "echo", vec![Value::I64(i as i64)]).unwrap();
        assert_eq!(out.as_i64(), Some(i as i64));
    }
    domain.quiesce(Duration::from_secs(10)).unwrap();
    domain.shutdown();
    assert_eq!(domain.in_flight(), 0);
    assert_engine_series(domain.metrics(), "com");
}

#[test]
fn ejb_engine_series_keep_their_shape() {
    let container = Container::builder(ProcessId(0), NodeId(0)).build();
    container.load_idl(IDL).unwrap();
    container
        .deploy(
            "java:global/Echo",
            "Echo",
            None,
            Arc::new(|| -> Box<dyn SessionBean> {
                Box::new(FnBean::new((), |_, _, _, args| Ok(args[0].clone())))
            }),
        )
        .unwrap();
    let client = container.client();
    for i in 0..CALLS {
        client.begin_root();
        let out = client.call("java:global/Echo", "echo", vec![Value::I64(i as i64)]).unwrap();
        assert_eq!(out.as_i64(), Some(i as i64));
    }
    container.quiesce(Duration::from_secs(10)).unwrap();
    container.shutdown();
    assert_eq!(container.in_flight(), 0);
    assert_engine_series(container.metrics(), "ejb");
}
