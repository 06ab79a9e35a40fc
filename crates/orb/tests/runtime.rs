//! End-to-end tests of the ORB runtime: invocation shapes, threading
//! policies, instrumentation behavior, and failure handling.

use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::monitor::ProbeMode;
use causeway_core::uuid::Uuid;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Duration;

const PIPELINE_IDL: &str = r#"
    module Pipe {
        interface Stage {
            long run(in long x);
            oneway void notify(in string event);
        };
    };
"#;

/// A late-bound object reference: registered objects are wired into servants
/// after registration, before the first invocation.
type Slot = Arc<OnceLock<ObjRef>>;

fn forwarding_servant(next: Slot) -> Arc<dyn Servant> {
    Arc::new(FnServant::new(move |ctx, midx, args| {
        match midx.0 {
            0 => {
                let x = args[0].as_i64().unwrap_or(0);
                match next.get() {
                    Some(target) => {
                        let inner = ctx
                            .client()
                            .invoke(target, "run", vec![Value::I64(x + 1)])
                            .map_err(|e| AppError::new("Downstream", e.to_string()))?;
                        Ok(Value::I64(inner.as_i64().unwrap_or(0) + 1))
                    }
                    None => Ok(Value::I64(x * 10)),
                }
            }
            1 => Ok(Value::Void), // oneway notify
            _ => Err(AppError::new("BadMethod", format!("m{}", midx.0))),
        }
    }))
}

struct Rig {
    system: System,
    stages: Vec<ObjRef>,
    client_p: causeway_core::ids::ProcessId,
}

/// Builds client + N server processes, each hosting one pipeline stage that
/// forwards to the next.
fn pipeline_rig(
    stages: usize,
    policy: ThreadingPolicy,
    configure: impl FnOnce(&mut SystemBuilder),
) -> Rig {
    let mut builder = System::builder();
    configure(&mut builder);
    let node = builder.node("test-node", "TestCpu");
    let client_p = builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
    let server_ps: Vec<_> = (0..stages)
        .map(|i| builder.process(&format!("server{i}"), node, policy))
        .collect();
    let system = builder.build();
    system.load_idl(PIPELINE_IDL).unwrap();

    let slots: Vec<Slot> = (0..stages).map(|_| Arc::new(OnceLock::new())).collect();
    let mut refs = Vec::new();
    for (i, p) in server_ps.iter().enumerate() {
        let obj = system
            .register_servant(
                *p,
                "Pipe::Stage",
                "StageComponent",
                &format!("stage#{i}"),
                forwarding_servant(Arc::clone(&slots[i])),
            )
            .unwrap();
        refs.push(obj);
    }
    // Wire stage i -> stage i+1.
    for i in 0..stages.saturating_sub(1) {
        slots[i].set(refs[i + 1]).unwrap();
    }
    system.start();
    Rig { system, stages: refs, client_p }
}

fn finish(rig: &Rig) -> causeway_core::runlog::RunLog {
    rig.system.quiesce(Duration::from_secs(10)).unwrap();
    rig.system.shutdown();
    rig.system.harvest()
}

#[test]
fn single_remote_call_round_trips() {
    let rig = pipeline_rig(1, ThreadingPolicy::ThreadPerRequest, |_| {});
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    let out = client.invoke(&rig.stages[0], "run", vec![Value::I64(4)]).unwrap();
    assert_eq!(out.as_i64(), Some(40));
    let run = finish(&rig);
    assert_eq!(run.records.len(), 4);
    assert_eq!(rig.system.anomaly_count(), 0);
}

#[test]
fn nested_chain_spans_three_processes_under_one_uuid() {
    let rig = pipeline_rig(3, ThreadingPolicy::ThreadPerRequest, |_| {});
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    let out = client.invoke(&rig.stages[0], "run", vec![Value::I64(0)]).unwrap();
    // 0 -> (+1) -> (+1) -> *10 = 20, then +1 +1 on the way back = 22.
    assert_eq!(out.as_i64(), Some(22));

    let run = finish(&rig);
    // Three nested invocations x four probes.
    assert_eq!(run.records.len(), 12);
    let uuid = run.records[0].uuid;
    assert!(run.records.iter().all(|r| r.uuid == uuid), "one causal chain");
    // Sequence numbers are a dense permutation of 1..=12.
    let mut seqs: Vec<u64> = run.records.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=12).collect::<Vec<u64>>());
    // The records span 4 distinct processes.
    let procs: std::collections::HashSet<_> =
        run.records.iter().map(|r| r.site.process).collect();
    assert_eq!(procs.len(), 4);
}

#[test]
fn sibling_calls_continue_the_chain() {
    let rig = pipeline_rig(2, ThreadingPolicy::ThreadPerRequest, |_| {});
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    client.invoke(&rig.stages[1], "run", vec![Value::I64(1)]).unwrap();
    client.invoke(&rig.stages[1], "run", vec![Value::I64(2)]).unwrap();
    let run = finish(&rig);
    assert_eq!(run.records.len(), 8);
    let uuid = run.records[0].uuid;
    assert!(run.records.iter().all(|r| r.uuid == uuid), "siblings share the chain");
}

#[test]
fn begin_root_separates_chains() {
    let rig = pipeline_rig(1, ThreadingPolicy::ThreadPerRequest, |_| {});
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    client.invoke(&rig.stages[0], "run", vec![Value::I64(1)]).unwrap();
    client.begin_root();
    client.invoke(&rig.stages[0], "run", vec![Value::I64(2)]).unwrap();
    let run = finish(&rig);
    let uuids: std::collections::HashSet<Uuid> = run.records.iter().map(|r| r.uuid).collect();
    assert_eq!(uuids.len(), 2);
}

#[test]
fn oneway_forks_a_linked_child_chain() {
    let rig = pipeline_rig(1, ThreadingPolicy::ThreadPerRequest, |_| {});
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    client
        .invoke_oneway(&rig.stages[0], "notify", vec![Value::from("paper-out")])
        .unwrap();
    let run = finish(&rig);

    // Parent chain: stub_start + stub_end. Child chain: skel_start + skel_end.
    assert_eq!(run.records.len(), 4);
    let by_event: HashMap<TraceEvent, &causeway_core::record::ProbeRecord> =
        run.records.iter().map(|r| (r.event, r)).collect();
    let stub_start = by_event[&TraceEvent::StubStart];
    let skel_start = by_event[&TraceEvent::SkelStart];
    assert_eq!(stub_start.kind, CallKind::Oneway);
    assert_ne!(stub_start.uuid, skel_start.uuid, "child chain is fresh");
    assert_eq!(stub_start.oneway_child, Some(skel_start.uuid));
    assert_eq!(skel_start.oneway_parent, Some((stub_start.uuid, stub_start.seq)));
    assert_eq!(by_event[&TraceEvent::StubEnd].uuid, stub_start.uuid);
    assert_eq!(by_event[&TraceEvent::SkelEnd].uuid, skel_start.uuid);
}

#[test]
fn oneway_on_sync_method_is_rejected_and_vice_versa() {
    let rig = pipeline_rig(1, ThreadingPolicy::ThreadPerRequest, |_| {});
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    let err = client.invoke(&rig.stages[0], "notify", vec![Value::from("x")]).unwrap_err();
    assert!(matches!(err, OrbError::CallKindMismatch(_)));
    let err = client
        .invoke_oneway(&rig.stages[0], "run", vec![Value::I64(1)])
        .unwrap_err();
    assert!(matches!(err, OrbError::CallKindMismatch(_)));
    rig.system.shutdown();
}

#[test]
fn collocated_call_with_optimization_runs_in_caller_thread() {
    let mut builder = System::builder();
    let node = builder.node("n", "X");
    let p = builder.process("solo", node, ThreadingPolicy::ThreadPerRequest);
    let system = builder.build();
    system.load_idl(PIPELINE_IDL).unwrap();
    let obj = system
        .register_servant(p, "Pipe::Stage", "C", "s#0", forwarding_servant(Arc::new(OnceLock::new())))
        .unwrap();
    system.start();

    let client = system.client(p);
    client.begin_root();
    client.invoke(&obj, "run", vec![Value::I64(3)]).unwrap();
    system.quiesce(Duration::from_secs(5)).unwrap();
    system.shutdown();
    let run = system.harvest();

    assert_eq!(run.records.len(), 4);
    assert!(run.records.iter().all(|r| r.kind == CallKind::Collocated));
    let threads: std::collections::HashSet<_> =
        run.records.iter().map(|r| r.site.thread).collect();
    assert_eq!(threads.len(), 1, "degenerate probes stay on the caller thread");
}

#[test]
fn collocated_call_without_optimization_goes_remote() {
    let mut builder = System::builder();
    builder.collocation_optimization(false);
    let node = builder.node("n", "X");
    let p = builder.process("solo", node, ThreadingPolicy::ThreadPerRequest);
    let system = builder.build();
    system.load_idl(PIPELINE_IDL).unwrap();
    let obj = system
        .register_servant(p, "Pipe::Stage", "C", "s#0", forwarding_servant(Arc::new(OnceLock::new())))
        .unwrap();
    system.start();

    let client = system.client(p);
    client.begin_root();
    client.invoke(&obj, "run", vec![Value::I64(3)]).unwrap();
    system.quiesce(Duration::from_secs(5)).unwrap();
    system.shutdown();
    let run = system.harvest();

    assert!(run.records.iter().all(|r| r.kind == CallKind::Sync));
    let threads: std::collections::HashSet<_> =
        run.records.iter().map(|r| r.site.thread).collect();
    assert_eq!(threads.len(), 2, "skeleton runs on a server thread");
}

#[test]
fn custom_marshal_runs_remote_object_in_caller_thread() {
    let rig = pipeline_rig(1, ThreadingPolicy::ThreadPerRequest, |_| {});
    // Register an extra custom-marshal object in the server process.
    let obj = rig
        .system
        .register_custom_marshal_servant(
            rig.stages[0].owner,
            "Pipe::Stage",
            "ByValue",
            "value#0",
            forwarding_servant(Arc::new(OnceLock::new())),
        )
        .unwrap();
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    let out = client.invoke(&obj, "run", vec![Value::I64(2)]).unwrap();
    assert_eq!(out.as_i64(), Some(20));
    let run = finish(&rig);
    assert!(run.records.iter().all(|r| r.kind == CallKind::CustomMarshal));
    assert!(
        run.records
            .iter()
            .all(|r| r.site.process == rig.client_p),
        "custom marshalling executes in the client's process/thread"
    );
}

#[test]
fn application_exception_propagates_and_chain_survives() {
    let mut builder = System::builder();
    let node = builder.node("n", "X");
    let cp = builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
    let sp = builder.process("server", node, ThreadingPolicy::ThreadPerRequest);
    let system = builder.build();
    system.load_idl(PIPELINE_IDL).unwrap();
    let obj = system
        .register_servant(
            sp,
            "Pipe::Stage",
            "C",
            "s#0",
            Arc::new(FnServant::new(|_, _, _| {
                Err(AppError::new("Offline", "device is offline"))
            })),
        )
        .unwrap();
    system.start();

    let client = system.client(cp);
    client.begin_root();
    let err = client.invoke(&obj, "run", vec![Value::I64(1)]).unwrap_err();
    match err {
        OrbError::Application(app) => {
            assert_eq!(app.exception, "Offline");
            assert_eq!(app.message, "device is offline");
        }
        other => panic!("expected application error, got {other}"),
    }
    system.quiesce(Duration::from_secs(5)).unwrap();
    system.shutdown();
    let run = system.harvest();
    // All four probes fired despite the exception; the chain is intact.
    assert_eq!(run.records.len(), 4);
    let mut seqs: Vec<u64> = run.records.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![1, 2, 3, 4]);
}

#[test]
fn unknown_object_and_method_fail_cleanly() {
    let rig = pipeline_rig(1, ThreadingPolicy::ThreadPerRequest, |_| {});
    let client = rig.system.client(rig.client_p);
    client.begin_root();

    let bogus = ObjRef {
        object: causeway_core::ids::ObjectId(999),
        interface: rig.stages[0].interface,
        owner: rig.stages[0].owner,
    };
    let err = client.invoke(&bogus, "run", vec![Value::I64(1)]).unwrap_err();
    assert!(matches!(err, OrbError::UnknownObject(_)), "{err}");

    let err = client.invoke(&rig.stages[0], "no_such_method", vec![]).unwrap_err();
    assert!(matches!(err, OrbError::UnknownMethod(_)));
    rig.system.quiesce(Duration::from_secs(5)).unwrap();
    rig.system.shutdown();
}

#[test]
fn uninstrumented_system_records_nothing_and_still_works() {
    let mut rig_builder = System::builder();
    rig_builder.instrumented(false);
    let node = rig_builder.node("n", "X");
    let cp = rig_builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
    let sp = rig_builder.process("server", node, ThreadingPolicy::ThreadPool(2));
    let system = rig_builder.build();
    system.load_idl(PIPELINE_IDL).unwrap();
    let obj = system
        .register_servant(sp, "Pipe::Stage", "C", "s#0", forwarding_servant(Arc::new(OnceLock::new())))
        .unwrap();
    system.start();
    let client = system.client(cp);
    let out = client.invoke(&obj, "run", vec![Value::I64(5)]).unwrap();
    assert_eq!(out.as_i64(), Some(50));
    system.quiesce(Duration::from_secs(5)).unwrap();
    system.shutdown();
    assert!(system.harvest().is_empty());
}

#[test]
fn thread_pool_policy_serves_nested_and_concurrent_calls() {
    let rig = pipeline_rig(3, ThreadingPolicy::ThreadPool(4), |_| {});
    let clients: Vec<_> = (0..4).map(|_| rig.system.client(rig.client_p)).collect();
    let handles: Vec<_> = clients
        .into_iter()
        .map(|client| {
            let head = rig.stages[0];
            std::thread::spawn(move || {
                client.begin_root();
                client.invoke(&head, "run", vec![Value::I64(0)]).unwrap().as_i64()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), Some(22));
    }
    let run = finish(&rig);
    assert_eq!(run.records.len(), 4 * 12);
    let uuids: std::collections::HashSet<Uuid> = run.records.iter().map(|r| r.uuid).collect();
    assert_eq!(uuids.len(), 4, "four concurrent chains stay distinct");
    // Each chain individually has dense numbering.
    for uuid in uuids {
        let mut seqs: Vec<u64> = run
            .records
            .iter()
            .filter(|r| r.uuid == uuid)
            .map(|r| r.seq)
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=12).collect::<Vec<u64>>());
    }
}

#[test]
fn thread_per_connection_policy_works() {
    let rig = pipeline_rig(2, ThreadingPolicy::ThreadPerConnection, |_| {});
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    let out = client.invoke(&rig.stages[0], "run", vec![Value::I64(0)]).unwrap();
    // 0 -> (+1) -> *10 = 10, then +1 on the way back = 11.
    assert_eq!(out.as_i64(), Some(11));
    let run = finish(&rig);
    assert_eq!(run.records.len(), 8);
    assert_eq!(rig.system.anomaly_count(), 0);
}

#[test]
fn network_delay_inflates_remote_latency() {
    let rig = pipeline_rig(1, ThreadingPolicy::ThreadPerRequest, |b| {
        b.probe_mode(ProbeMode::Latency);
    });
    rig.system.fabric().set_default_delay(Duration::from_millis(3));
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    client.invoke(&rig.stages[0], "run", vec![Value::I64(1)]).unwrap();
    let run = finish(&rig);
    let stub_start = run
        .records
        .iter()
        .find(|r| r.event == TraceEvent::StubStart)
        .unwrap();
    let stub_end = run
        .records
        .iter()
        .find(|r| r.event == TraceEvent::StubEnd)
        .unwrap();
    let elapsed = stub_end.wall_start.unwrap() - stub_start.wall_end.unwrap();
    assert!(
        elapsed >= 6_000_000,
        "round trip should include 2x 3ms delay, got {elapsed} ns"
    );
}

#[test]
fn quiesce_times_out_when_work_is_stuck() {
    let mut builder = System::builder();
    let node = builder.node("n", "X");
    let cp = builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
    let sp = builder.process("server", node, ThreadingPolicy::ThreadPerRequest);
    builder.reply_timeout(Duration::from_millis(200));
    let system = builder.build();
    system.load_idl(PIPELINE_IDL).unwrap();
    let obj = system
        .register_servant(
            sp,
            "Pipe::Stage",
            "C",
            "s#0",
            Arc::new(FnServant::new(|_, _, _| {
                std::thread::sleep(Duration::from_millis(600));
                Ok(Value::Void)
            })),
        )
        .unwrap();
    system.start();
    let client = system.client(cp);
    client.begin_root();
    // The client times out before the servant finishes.
    let err = client.invoke(&obj, "run", vec![Value::I64(1)]).unwrap_err();
    assert!(matches!(err, OrbError::Timeout(_)));
    // Quiesce with a tiny budget reports the still-running dispatch…
    assert!(system.quiesce(Duration::from_millis(50)).is_err());
    // …and succeeds once it drains.
    system.quiesce(Duration::from_secs(5)).unwrap();
    system.shutdown();
}

/// A worker's records are visible to a drain while its dispatch still
/// runs: nothing waits for the dispatch to end to hand them over.
#[test]
fn a_running_dispatchs_records_drain_before_it_ends() {
    for policy in [ThreadingPolicy::ThreadPerRequest, ThreadingPolicy::ThreadPool(1)] {
        let mut builder = System::builder();
        let node = builder.node("n", "X");
        let cp = builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
        let sp = builder.process("server", node, policy);
        let system = builder.build();
        system.load_idl(PIPELINE_IDL).unwrap();
        let (running_tx, running) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let obj = system
            .register_servant(
                sp,
                "Pipe::Stage",
                "C",
                "s#0",
                Arc::new(FnServant::new(move |_, _, _| {
                    running_tx.send(()).unwrap();
                    // Bounded, so a failed assertion below cannot wedge
                    // the system's shutdown.
                    let _ = release_rx.lock().unwrap().recv_timeout(Duration::from_secs(5));
                    Ok(Value::I64(0))
                })),
            )
            .unwrap();
        system.start();
        let client = system.client(cp);
        let caller = std::thread::spawn(move || {
            client.begin_root();
            client.invoke(&obj, "run", vec![Value::I64(1)]).map(|_| ())
        });
        running.recv().unwrap();
        assert_eq!(system.in_flight(), 1, "{policy:?}: the dispatch is running");
        let events = |p| -> Vec<TraceEvent> {
            system.orb(p).monitor().store().drain().iter().map(|r| r.event).collect()
        };
        assert_eq!(events(sp), [TraceEvent::SkelStart], "{policy:?}: the worker's record");
        assert_eq!(events(cp), [TraceEvent::StubStart], "{policy:?}: the caller's record");
        release.send(()).unwrap();
        caller.join().unwrap().unwrap();
        system.quiesce(Duration::from_secs(5)).unwrap();
        assert_eq!(events(sp), [TraceEvent::SkelEnd], "{policy:?}");
        assert_eq!(events(cp), [TraceEvent::StubEnd], "{policy:?}");
        system.shutdown();
    }
}

#[test]
fn harvest_reports_vocab_and_deployment() {
    let rig = pipeline_rig(2, ThreadingPolicy::ThreadPerRequest, |_| {});
    let client = rig.system.client(rig.client_p);
    client.begin_root();
    client.invoke(&rig.stages[0], "run", vec![Value::I64(1)]).unwrap();
    let run = finish(&rig);
    assert_eq!(run.deployment.processes.len(), 3);
    assert_eq!(run.deployment.nodes.len(), 1);
    let rec = &run.records[0];
    assert_eq!(run.vocab.interface_name(rec.func.interface), "Pipe::Stage");
    assert_eq!(run.vocab.method_name(rec.func.interface, rec.func.method), "run");
    assert!(run.vocab.object(rec.func.object).is_some());
}
