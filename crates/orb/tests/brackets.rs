//! Every probe bracket the ORB opens closes exactly once, however the call
//! ends. A failed call's chain carries exactly one `stub_end` (and, on the
//! collocated path, one `skel_end` before it); the thread's next call
//! continues the chain without re-issuing an event number already in the
//! log; and the Figure-4 machine reports only the abnormality the failure
//! itself explains.

use causeway_analyzer::dscg::Dscg;
use causeway_collector::db::MonitoringDb;
use causeway_core::event::TraceEvent;
use causeway_core::ids::ProcessId;
use causeway_core::value::Value;
use causeway_orb::interceptor::{
    ClientInterceptor, FtlInterceptor, InterceptorSet, RequestInfo, ServiceContexts,
};
use causeway_orb::prelude::*;
use causeway_orb::transport::{Incoming, ReplyMsg};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

const IDL: &str = "interface Hop { long go(in long x); };";

/// A process id no system in these tests builds.
const GHOST: ProcessId = ProcessId(99);

struct Rig {
    system: System,
    driver: ProcessId,
    /// The object the failing call targets.
    first: ObjRef,
    /// The object the thread's next call targets.
    second: ObjRef,
}

/// A driver and a server process. `first` lives on the driver itself
/// (collocated) when `collocated`, else on the server; `second` is always
/// on the server.
fn rig(mut builder: SystemBuilder, collocated: bool, first: Arc<dyn Servant>) -> Rig {
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server = builder.process("server", node, ThreadingPolicy::ThreadPerRequest);
    let system = builder.build();
    system.load_idl(IDL).unwrap();
    let home = if collocated { driver } else { server };
    let first = system
        .register_servant(home, "Hop", "A", "a#0", first)
        .unwrap();
    let second = system
        .register_servant(server, "Hop", "B", "b#0", echo())
        .unwrap();
    system.start();
    Rig {
        system,
        driver,
        first,
        second,
    }
}

fn echo() -> Arc<dyn Servant> {
    Arc::new(FnServant::new(|_, _, args| Ok(args[0].clone())))
}

/// Makes the thread's next call, harvests, and checks the brackets.
fn next_call_and_check(rig: Rig, skel_end: bool, abnormalities: usize) {
    let client = rig.system.client(rig.driver);
    let out = client
        .invoke(&rig.second, "go", vec![Value::I64(5)])
        .unwrap();
    assert_eq!(out.as_i64(), Some(5));
    rig.system.quiesce(Duration::from_secs(5)).unwrap();
    rig.system.shutdown();
    let db = MonitoringDb::from_run(rig.system.harvest());
    let records = db.records();

    let object = rig.first.object;
    let failed = |event| {
        records
            .iter()
            .filter(move |r| r.func.object == object && r.event == event)
    };
    let stub_ends: Vec<u64> = failed(TraceEvent::StubEnd).map(|r| r.seq).collect();
    assert_eq!(stub_ends.len(), 1, "the failed call closed its stub once");
    let skel_ends: Vec<u64> = failed(TraceEvent::SkelEnd).map(|r| r.seq).collect();
    if skel_end {
        assert_eq!(
            skel_ends.len(),
            1,
            "the failed call closed its skeleton once"
        );
        assert!(
            skel_ends[0] < stub_ends[0],
            "the skeleton closes before the stub"
        );
    } else {
        assert!(skel_ends.is_empty());
    }

    let mut seen = HashSet::new();
    for r in records {
        assert!(
            seen.insert((r.uuid, r.seq)),
            "event number re-issued: {r:?}"
        );
    }
    assert_eq!(records.len(), seen.len());
    let dscg = Dscg::build(&db);
    assert_eq!(
        dscg.abnormalities.len(),
        abnormalities,
        "{:?}",
        dscg.abnormalities
    );
}

/// (a) An uninstrumented peer answers without the FTL trailer: the reply
/// body is shorter than an FTL.
#[test]
fn a_reply_without_its_ftl_closes_the_stub() {
    let mut rig = rig(System::builder(), false, echo());
    let inbox = rig.system.fabric().register(GHOST);
    let peer = std::thread::spawn(move || {
        while let Ok(Incoming::Request(msg, _ticket)) = inbox.recv() {
            let reply = ReplyMsg {
                body: Ok(b"short".to_vec()),
                contexts: ServiceContexts::new(),
            };
            let _ = msg.reply.expect("synchronous").send(reply);
        }
    });
    rig.first = ObjRef {
        owner: GHOST,
        ..rig.first
    };

    let client = rig.system.client(rig.driver);
    client.begin_root();
    client
        .invoke(&rig.first, "go", vec![Value::I64(1)])
        .unwrap_err();
    rig.system.fabric().unregister(GHOST);
    peer.join().unwrap();
    // stub_start, then stub_end with no skeleton between: one abnormality.
    next_call_and_check(rig, false, 1);
}

struct PanicOnSend;

impl ClientInterceptor for PanicOnSend {
    fn send_request(&self, _: &RequestInfo, _: &mut ServiceContexts) {
        panic!("interceptor bug");
    }
    fn receive_reply(&self, _: &RequestInfo, _: &ServiceContexts) {
        unreachable!("no receive_reply while unwinding");
    }
}

/// (b) Instrumented stubs, and a client interceptor that panics before the
/// request is sent.
#[test]
fn a_panicking_client_interceptor_closes_the_stub() {
    let rig = rig(System::builder(), false, echo());
    let orb = rig.system.orb(rig.driver);
    let mut set = InterceptorSet::new();
    set.clients.push(Arc::new(PanicOnSend));
    orb.set_interceptors(set);

    let client = rig.system.client(rig.driver);
    client.begin_root();
    let outcome = catch_unwind(AssertUnwindSafe(|| client.invoke(&rig.first, "go", vec![])));
    assert!(outcome.is_err(), "the interceptor panicked");
    orb.set_interceptors(InterceptorSet::new());
    next_call_and_check(rig, false, 1);
}

/// (c) Interceptor tracing only (plain stubs), and a request that cannot
/// be sent: `receive_reply` still runs, so the interceptor's stub closes.
#[test]
fn a_send_failure_closes_the_interceptor_stub() {
    let mut builder = System::builder();
    builder.instrumented(false);
    builder.collocation_optimization(false);
    let mut rig = rig(builder, false, echo());
    for process in [rig.driver, rig.second.owner] {
        let orb = rig.system.orb(process);
        let tracer = Arc::new(FtlInterceptor::new(orb.monitor().clone()));
        let mut set = InterceptorSet::new();
        set.clients.push(tracer.clone());
        set.servers.push(tracer);
        orb.set_interceptors(set);
    }
    rig.first = ObjRef {
        owner: GHOST,
        ..rig.first
    };

    let client = rig.system.client(rig.driver);
    client.begin_root();
    let err = client
        .invoke(&rig.first, "go", vec![Value::I64(1)])
        .unwrap_err();
    assert!(matches!(err, OrbError::ProcessUnreachable(_)), "{err}");
    next_call_and_check(rig, false, 1);
}

/// (d) A collocated servant that panics on the caller's thread: the
/// skeleton and then the stub close as the panic unwinds.
#[test]
fn a_panicking_collocated_servant_closes_skeleton_then_stub() {
    let boom = Arc::new(FnServant::new(|_, _, _| panic!("servant bug")));
    let rig = rig(System::builder(), true, boom);
    assert_eq!(rig.first.owner, rig.driver);

    let client = rig.system.client(rig.driver);
    client.begin_root();
    let outcome = catch_unwind(AssertUnwindSafe(|| client.invoke(&rig.first, "go", vec![])));
    assert!(outcome.is_err(), "the servant panicked");
    // All four probes of the failed call fired, in order: no abnormality.
    next_call_and_check(rig, true, 0);
}
