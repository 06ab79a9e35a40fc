//! A servant that panics must not wedge quiescence. The paper harvests its
//! logs once the system is quiescent; if one bad up-call left a request
//! counted in flight forever, no run containing it could ever be harvested.
//!
//! For each runtime: the failed call surfaces as the runtime's
//! "unreachable" error as soon as the dispatch unwinds (not as a timeout
//! after the reply deadline), nothing stays in flight, `quiesce` succeeds,
//! and the skeleton record the dispatch pushed before panicking is in the
//! harvest.

use causeway_com::{ApartmentKind, ComDomain, ComError, FnComServant};
use causeway_core::event::TraceEvent;
use causeway_core::ids::{NodeId, ProcessId};
use causeway_core::record::ProbeRecord;
use causeway_core::value::Value;
use causeway_ejb::{Container, ContainerConfig, EjbError, FnBean, SessionBean};
use causeway_orb::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const IDL: &str = "interface Boom { long go(in long x); };";

/// The reply deadline; a dropped reply must be reported long before it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on how long the failed call may take.
const PROMPT: Duration = Duration::from_secs(1);

fn skeleton_started(records: &[ProbeRecord]) -> bool {
    records.iter().any(|r| r.event == TraceEvent::SkelStart)
}

fn orb_servant_panic_releases_its_request(policy: ThreadingPolicy) {
    let mut builder = System::builder();
    builder.reply_timeout(REPLY_TIMEOUT);
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server = builder.process("server", node, policy);
    let system = builder.build();
    system.load_idl(IDL).unwrap();
    let boom = system
        .register_servant(
            server,
            "Boom",
            "B",
            "b#0",
            Arc::new(FnServant::new(|_, _, _| panic!("servant bug"))),
        )
        .unwrap();
    system.start();

    let client = system.client(driver);
    client.begin_root();
    let started = Instant::now();
    let err = client.invoke(&boom, "go", vec![Value::I64(1)]).unwrap_err();
    let waited = started.elapsed();
    assert!(matches!(err, OrbError::ProcessUnreachable(_)), "{policy:?}: {err}");
    assert!(waited < PROMPT, "{policy:?}: dropped reply reported after {waited:?}");

    assert_eq!(system.in_flight(), 0, "{policy:?}");
    system.quiesce(Duration::from_secs(1)).unwrap();
    system.shutdown();
    let run = system.harvest();
    assert!(skeleton_started(&run.records), "{policy:?}: skeleton record sealed before release");
}

#[test]
fn orb_thread_per_request_servant_panic_does_not_wedge_quiescence() {
    orb_servant_panic_releases_its_request(ThreadingPolicy::ThreadPerRequest);
}

#[test]
fn orb_thread_pool_servant_panic_does_not_wedge_quiescence() {
    orb_servant_panic_releases_its_request(ThreadingPolicy::ThreadPool(2));
}

#[test]
fn com_mta_servant_panic_does_not_wedge_quiescence() {
    let domain = ComDomain::builder(ProcessId(0), NodeId(0))
        .config(causeway_com::ComConfig { reply_timeout: REPLY_TIMEOUT, ..Default::default() })
        .build();
    domain.load_idl(IDL).unwrap();
    let apartment = domain.create_apartment(ApartmentKind::Mta(2));
    let boom = domain
        .register_object(
            apartment,
            "Boom",
            "B",
            "b#0",
            Arc::new(FnComServant::new(|_, _, _| panic!("servant bug"))),
        )
        .unwrap();

    let client = domain.client();
    client.begin_root();
    let started = Instant::now();
    let err = client.invoke(&boom, "go", vec![Value::I64(1)]).unwrap_err();
    let waited = started.elapsed();
    assert!(matches!(err, ComError::ApartmentUnreachable(_)), "{err}");
    assert!(waited < PROMPT, "dropped reply reported after {waited:?}");

    assert_eq!(domain.in_flight(), 0);
    domain.quiesce(Duration::from_secs(1)).unwrap();
    domain.shutdown();
    let run = domain.harvest_standalone("n", "X");
    assert!(skeleton_started(&run.records), "skeleton record sealed before release");
}

#[test]
fn ejb_servant_panic_does_not_wedge_quiescence() {
    let container = Container::builder(ProcessId(0), NodeId(0))
        .config(ContainerConfig { reply_timeout: REPLY_TIMEOUT, ..Default::default() })
        .build();
    container.load_idl(IDL).unwrap();
    container
        .deploy(
            "java:global/Boom",
            "Boom",
            None,
            Arc::new(|| -> Box<dyn SessionBean> {
                Box::new(FnBean::new((), |_, _, _, _| panic!("bean bug")))
            }),
        )
        .unwrap();

    let client = container.client();
    client.begin_root();
    let started = Instant::now();
    let err = client.call("java:global/Boom", "go", vec![Value::I64(1)]).unwrap_err();
    let waited = started.elapsed();
    assert!(matches!(err, EjbError::ContainerUnreachable(_)), "{err}");
    assert!(waited < PROMPT, "dropped reply reported after {waited:?}");

    assert_eq!(container.in_flight(), 0);
    container.quiesce(Duration::from_secs(1)).unwrap();
    container.shutdown();
    let run = container.harvest_standalone("n", "X");
    assert!(skeleton_started(&run.records), "skeleton record sealed before release");
}
