//! Stress and boundary tests for the ORB runtime: deep chains, wide sibling
//! fans, large payloads, and mixed invocation shapes under load.

use causeway_analyzer::dscg::Dscg;
use causeway_collector::db::MonitoringDb;
use causeway_core::monitor::ProbeMode;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Duration;

const IDL: &str = r#"
    interface Deep {
        long dive(in long depth);
        string bounce(in sequence<octet> blob);
    };
"#;

/// Two processes ping-ponging a recursive call to the requested depth.
#[test]
fn fifty_level_deep_chain_reconstructs_exactly() {
    let mut builder = System::builder();
    builder.probe_mode(ProbeMode::CausalityOnly);
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let pa = builder.process("a", node, ThreadingPolicy::ThreadPerRequest);
    let pb = builder.process("b", node, ThreadingPolicy::ThreadPerRequest);
    let system = builder.build();
    system.load_idl(IDL).unwrap();

    let a_slot: Arc<OnceLock<ObjRef>> = Arc::new(OnceLock::new());
    let b_slot: Arc<OnceLock<ObjRef>> = Arc::new(OnceLock::new());

    let make_servant = |next: Arc<OnceLock<ObjRef>>| -> Arc<dyn Servant> {
        Arc::new(FnServant::new(move |ctx, _, args: Vec<Value>| {
            let depth = args[0].as_i64().unwrap_or(0);
            if depth <= 1 {
                return Ok(Value::I64(0));
            }
            let inner = ctx
                .client()
                .invoke(next.get().expect("wired"), "dive", vec![Value::I64(depth - 1)])
                .map_err(|e| AppError::new("Downstream", e.to_string()))?;
            Ok(Value::I64(inner.as_i64().unwrap_or(0) + 1))
        }))
    };

    let a = system
        .register_servant(pa, "Deep", "A", "a#0", make_servant(b_slot.clone()))
        .unwrap();
    a_slot.set(a).unwrap();
    let b = system
        .register_servant(pb, "Deep", "B", "b#0", make_servant(a_slot.clone()))
        .unwrap();
    b_slot.set(b).unwrap();

    system.start();
    let client = system.client(driver);
    client.begin_root();
    let out = client.invoke(&a, "dive", vec![Value::I64(50)]).unwrap();
    assert_eq!(out.as_i64(), Some(49));
    system.quiesce(Duration::from_secs(30)).unwrap();
    system.shutdown();

    let db = MonitoringDb::from_run(system.harvest());
    let dscg = Dscg::build(&db);
    assert!(dscg.abnormalities.is_empty(), "{:?}", dscg.abnormalities);
    assert_eq!(dscg.trees.len(), 1);
    assert_eq!(dscg.total_nodes(), 50);
    assert_eq!(dscg.trees[0].roots[0].depth(), 50);
    // Dense numbering over 200 events, no clock involved.
    let mut seqs: Vec<u64> = db.records().iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=200).collect::<Vec<u64>>());
}

#[test]
fn two_hundred_siblings_on_one_chain() {
    let mut builder = System::builder();
    builder.probe_mode(ProbeMode::CausalityOnly);
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server = builder.process("server", node, ThreadingPolicy::ThreadPool(2));
    let system = builder.build();
    system.load_idl(IDL).unwrap();
    let obj = system
        .register_servant(
            server,
            "Deep",
            "S",
            "s#0",
            Arc::new(FnServant::new(|_, _, _| Ok(Value::I64(0)))),
        )
        .unwrap();
    system.start();
    let client = system.client(driver);
    client.begin_root();
    for depth in 0..200 {
        client.invoke(&obj, "dive", vec![Value::I64(depth)]).unwrap();
    }
    system.quiesce(Duration::from_secs(30)).unwrap();
    system.shutdown();

    let db = MonitoringDb::from_run(system.harvest());
    let dscg = Dscg::build(&db);
    assert!(dscg.abnormalities.is_empty());
    assert_eq!(dscg.trees.len(), 1, "all siblings share one chain");
    assert_eq!(dscg.trees[0].roots.len(), 200);
    assert!(dscg.trees[0].roots.iter().all(|r| r.children.is_empty() && r.complete));
}

#[test]
fn megabyte_payload_round_trips_with_the_hidden_parameter() {
    let mut builder = System::builder();
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server = builder.process("server", node, ThreadingPolicy::ThreadPerRequest);
    let system = builder.build();
    system.load_idl(IDL).unwrap();
    let obj = system
        .register_servant(
            server,
            "Deep",
            "S",
            "s#0",
            Arc::new(FnServant::new(|_, _, args: Vec<Value>| {
                let blob = args[0].as_blob().map(<[u8]>::len).unwrap_or(0);
                Ok(Value::Str(format!("got {blob} bytes")))
            })),
        )
        .unwrap();
    system.start();
    let client = system.client(driver);
    client.begin_root();
    let payload = vec![0xAB_u8; 1_000_000];
    let out = client.invoke(&obj, "bounce", vec![Value::Blob(payload)]).unwrap();
    assert_eq!(out.as_str(), Some("got 1000000 bytes"));
    system.quiesce(Duration::from_secs(10)).unwrap();
    system.shutdown();
    let db = MonitoringDb::from_run(system.harvest());
    assert_eq!(db.records().len(), 4, "the FTL still rode along");
    assert!(Dscg::build(&db).abnormalities.is_empty());
}

#[test]
fn concurrent_mixed_shapes_stay_untangled() {
    // 8 driver threads, each issuing 20 roots that mix sync, sibling and
    // one-way calls; every chain must reconstruct cleanly.
    let mut builder = System::builder();
    builder.probe_mode(ProbeMode::CausalityOnly);
    let node = builder.node("n", "X");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let server = builder.process("server", node, ThreadingPolicy::ThreadPool(6));
    let system = builder.build();
    system
        .load_idl("interface M { long work(in long x); oneway void note(in long x); };")
        .unwrap();
    let obj = system
        .register_servant(
            server,
            "M",
            "S",
            "s#0",
            Arc::new(FnServant::new(|_, midx, args: Vec<Value>| {
                if midx.0 == 0 {
                    Ok(Value::I64(args[0].as_i64().unwrap_or(0) + 1))
                } else {
                    Ok(Value::Void)
                }
            })),
        )
        .unwrap();
    system.start();

    std::thread::scope(|scope| {
        for lane in 0..8 {
            let client = system.client(driver);
            let system = &system;
            scope.spawn(move || {
                for i in 0..20 {
                    client.begin_root();
                    client.invoke(&obj, "work", vec![Value::I64(lane * 100 + i)]).unwrap();
                    client.invoke_oneway(&obj, "note", vec![Value::I64(i)]).unwrap();
                    client.invoke(&obj, "work", vec![Value::I64(i)]).unwrap();
                }
                // `scope` may return before this thread's exit-time flush
                // has run: seal its records while it is live.
                system.flush_local_logs();
            });
        }
    });
    system.quiesce(Duration::from_secs(30)).unwrap();
    system.shutdown();
    assert_eq!(system.anomaly_count(), 0);

    let db = MonitoringDb::from_run(system.harvest());
    let dscg = Dscg::build(&db);
    assert!(dscg.abnormalities.is_empty(), "{:?}", dscg.abnormalities);
    assert_eq!(dscg.trees.len(), 8 * 20);
    for tree in &dscg.trees {
        assert_eq!(tree.roots.len(), 3, "work + oneway note + work");
    }
}
