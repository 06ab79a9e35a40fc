//! End-to-end tests of the EJB container: pooled dispatch, tracing through
//! the business proxy, cross-container chains, interceptor ordering, and
//! the hybrid CORBA→EJB tunnel.

use causeway_analyzer::dscg::Dscg;
use causeway_collector::db::MonitoringDb;
use causeway_core::ids::{NodeId, ProcessId};
use causeway_core::value::Value;
use causeway_ejb::{
    BeanCtx, Container, ContainerConfig, ContainerInterceptor, EjbError, FnBean, InvocationInfo,
};
use std::sync::Arc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const IDL: &str = r#"
    module Shop {
        interface Cart {
            long add(in long item);
            long checkout(in long cart);
        };
    };
"#;

fn simple_bean() -> Arc<dyn Fn() -> Box<dyn causeway_ejb::SessionBean> + Send + Sync> {
    Arc::new(|| {
        Box::new(FnBean::new(0i64, |state, _ctx, midx, args| {
            let x = args.first().and_then(Value::as_i64).unwrap_or(0);
            match midx.0 {
                0 => {
                    *state += x;
                    Ok(Value::I64(*state))
                }
                1 => Ok(Value::I64(x * 100)),
                _ => Err(("BadMethod".into(), String::new())),
            }
        }))
    })
}

#[test]
fn business_call_round_trips_with_four_probes() {
    let container = Container::builder(ProcessId(0), NodeId(0)).build();
    container.load_idl(IDL).unwrap();
    container
        .deploy("java:global/Cart", "Shop::Cart", None, simple_bean())
        .unwrap();
    let client = container.client();
    client.begin_root();
    let out = client.call("java:global/Cart", "add", vec![Value::I64(7)]).unwrap();
    assert_eq!(out.as_i64(), Some(7));
    container.quiesce(Duration::from_secs(5)).unwrap();
    container.shutdown();

    let db = MonitoringDb::from_run(container.harvest_standalone("appserver", "JvmHost"));
    assert_eq!(db.records().len(), 4, "the business proxy carries all four probes");
    let dscg = Dscg::build(&db);
    assert!(dscg.abnormalities.is_empty());
    assert_eq!(dscg.total_nodes(), 1);
}

#[test]
fn nested_cross_container_chain_stays_on_one_uuid() {
    let front = Container::builder(ProcessId(0), NodeId(0)).build();
    front.load_idl(IDL).unwrap();
    let back = Container::builder(ProcessId(1), NodeId(0)).join(&front).build();

    back.deploy("java:global/Inventory", "Shop::Cart", None, simple_bean())
        .unwrap();
    front
        .deploy(
            "java:global/Cart",
            "Shop::Cart",
            None,
            Arc::new(|| {
                Box::new(FnBean::new((), |_state, ctx: &BeanCtx, midx, args| {
                    if midx.0 == 0 {
                        // add -> checks inventory in the other container.
                        let inner = ctx
                            .client()
                            .call("java:global/Inventory", "checkout", args)
                            .map_err(|e| ("Downstream".to_owned(), e.to_string()))?;
                        Ok(Value::I64(inner.as_i64().unwrap_or(0) + 1))
                    } else {
                        Ok(Value::Void)
                    }
                }))
            }),
        )
        .unwrap();

    let client = front.client();
    client.begin_root();
    let out = client.call("java:global/Cart", "add", vec![Value::I64(3)]).unwrap();
    assert_eq!(out.as_i64(), Some(301));
    front.quiesce(Duration::from_secs(5)).unwrap();
    back.quiesce(Duration::from_secs(5)).unwrap();
    front.shutdown();
    back.shutdown();

    let mut run = front.harvest_standalone("appserver", "JvmHost");
    run.merge(causeway_core::runlog::RunLog::new(
        back.drain_records(),
        run.vocab.clone(),
        run.deployment.clone(),
    ));
    let db = MonitoringDb::from_run(run);
    let dscg = Dscg::build(&db);
    assert!(dscg.abnormalities.is_empty(), "{:?}", dscg.abnormalities);
    assert_eq!(dscg.trees.len(), 1, "one chain across both containers");
    assert_eq!(dscg.total_nodes(), 2);
    assert_eq!(dscg.trees[0].roots[0].children.len(), 1);
    // Dense event numbering across the container boundary.
    let mut seqs: Vec<u64> = db.records().iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=8).collect::<Vec<u64>>());
}

#[test]
fn pool_bound_limits_concurrent_instances() {
    let container = Container::builder(ProcessId(0), NodeId(0))
        .config(ContainerConfig { dispatch_threads: 8, ..ContainerConfig::default() })
        .build();
    container.load_idl(IDL).unwrap();
    let live = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let (live2, peak2) = (Arc::clone(&live), Arc::clone(&peak));
    container
        .deploy(
            "java:global/Slow",
            "Shop::Cart",
            Some(2), // at most 2 instances
            Arc::new(move || {
                let live = Arc::clone(&live2);
                let peak = Arc::clone(&peak2);
                Box::new(FnBean::new((live, peak), |state, _, _, args| {
                    let now = state.0.fetch_add(1, Ordering::SeqCst) + 1;
                    state.1.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    state.0.fetch_sub(1, Ordering::SeqCst);
                    Ok(args.into_iter().next().unwrap_or(Value::Void))
                }))
            }),
        )
        .unwrap();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let client = container.client();
            std::thread::spawn(move || {
                client.begin_root();
                client.call("java:global/Slow", "add", vec![Value::I64(i)]).unwrap()
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    container.shutdown();
    assert!(
        peak.load(Ordering::SeqCst) <= 2,
        "pool bound exceeded: peak {}",
        peak.load(Ordering::SeqCst)
    );
}

#[test]
fn interceptor_chain_wraps_every_business_call() {
    struct Recorder {
        calls: Arc<AtomicUsize>,
        failures: Arc<AtomicUsize>,
    }
    impl ContainerInterceptor for Recorder {
        fn before(&self, _: &InvocationInfo) {
            self.calls.fetch_add(1, Ordering::SeqCst);
        }
        fn after(&self, _: &InvocationInfo, succeeded: bool) {
            if !succeeded {
                self.failures.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    let container = Container::builder(ProcessId(0), NodeId(0)).build();
    container.load_idl(IDL).unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let failures = Arc::new(AtomicUsize::new(0));
    container.add_interceptor(Arc::new(Recorder {
        calls: Arc::clone(&calls),
        failures: Arc::clone(&failures),
    }));
    container
        .deploy(
            "java:global/Flaky",
            "Shop::Cart",
            None,
            Arc::new(|| {
                Box::new(FnBean::new((), |_, _, _, args| {
                    if args.first().and_then(Value::as_i64) == Some(13) {
                        Err(("Unlucky".into(), "13".into()))
                    } else {
                        Ok(Value::Void)
                    }
                }))
            }),
        )
        .unwrap();
    let client = container.client();
    client.begin_root();
    client.call("java:global/Flaky", "add", vec![Value::I64(1)]).unwrap();
    let err = client.call("java:global/Flaky", "add", vec![Value::I64(13)]).unwrap_err();
    assert!(matches!(err, EjbError::Application(e, _) if e == "Unlucky"));
    container.shutdown();
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    assert_eq!(failures.load(Ordering::SeqCst), 1);
}

#[test]
fn naming_failures_and_unknown_methods() {
    let container = Container::builder(ProcessId(0), NodeId(0)).build();
    container.load_idl(IDL).unwrap();
    container
        .deploy("java:global/Cart", "Shop::Cart", None, simple_bean())
        .unwrap();
    let client = container.client();
    assert!(matches!(
        client.call("java:global/Nope", "add", vec![]),
        Err(EjbError::NameNotFound(_))
    ));
    assert!(matches!(
        client.call("java:global/Cart", "refund", vec![]),
        Err(EjbError::UnknownMethod(_))
    ));
    assert_eq!(container.jndi().names(), vec!["java:global/Cart".to_owned()]);
    container.shutdown();
}

#[test]
fn stateless_instances_recycle_state_across_calls() {
    // The same pooled instance serves sequential calls: its &mut state
    // accumulates — exactly why stateless beans must not assume a fresh
    // instance per call.
    let container = Container::builder(ProcessId(0), NodeId(0))
        .config(ContainerConfig { dispatch_threads: 1, ..ContainerConfig::default() })
        .build();
    container.load_idl(IDL).unwrap();
    container
        .deploy("java:global/Acc", "Shop::Cart", Some(1), simple_bean())
        .unwrap();
    let client = container.client();
    client.begin_root();
    assert_eq!(
        client.call("java:global/Acc", "add", vec![Value::I64(5)]).unwrap().as_i64(),
        Some(5)
    );
    assert_eq!(
        client.call("java:global/Acc", "add", vec![Value::I64(5)]).unwrap().as_i64(),
        Some(10),
        "the single pooled instance accumulated"
    );
    container.shutdown();
}

#[test]
fn containers_publish_to_their_own_registry_and_joiners_share_the_peer_s() {
    let front = Container::builder(ProcessId(0), NodeId(0)).build();
    let back = Container::builder(ProcessId(1), NodeId(0)).join(&front).build();
    let alone = Container::builder(ProcessId(2), NodeId(0)).build();
    for container in [&back, &alone] {
        container.load_idl(IDL).unwrap();
        let name = format!("java:global/Cart{}", container.process().0);
        container.deploy(&name, "Shop::Cart", None, simple_bean()).unwrap();
    }
    for (container, calls) in [(&back, 3), (&alone, 2)] {
        let client = container.client();
        for i in 0..calls {
            client.begin_root();
            let name = format!("java:global/Cart{}", container.process().0);
            client.call(&name, "add", vec![Value::I64(i)]).unwrap();
        }
        container.quiesce(Duration::from_secs(5)).unwrap();
    }
    let dispatched = |c: &Container| {
        c.metrics().counter_value_with("causeway_engine_dispatch_total", &[("engine", "ejb")])
    };
    assert_eq!(dispatched(&back), Some(3));
    assert_eq!(dispatched(&front), Some(3), "a joined container shares its peer's registry");
    assert_eq!(dispatched(&alone), Some(2), "a lone container keeps its own");
    for container in [&front, &back, &alone] {
        container.shutdown();
    }
}

/// An uninstrumented front sends no FTL, so the instrumented back's
/// skeleton never starts and must not end either: no `SkelEnd` on the
/// pooled worker's stale chain, no anomaly, no FTL in the reply.
#[test]
fn uninstrumented_caller_leaves_no_skeleton_record_at_an_instrumented_callee() {
    let plain = ContainerConfig { instrumented: false, ..ContainerConfig::default() };
    let front = Container::builder(ProcessId(0), NodeId(0)).config(plain).build();
    front.load_idl(IDL).unwrap();
    let one_worker = ContainerConfig { dispatch_threads: 1, ..ContainerConfig::default() };
    let back = Container::builder(ProcessId(1), NodeId(0)).config(one_worker).join(&front).build();
    back.deploy("java:global/Inventory", "Shop::Cart", None, simple_bean()).unwrap();

    // A traced call leaves its chain in the back worker's TSS.
    let traced = back.client();
    traced.begin_root();
    traced.call("java:global/Inventory", "add", vec![Value::I64(1)]).unwrap();
    back.quiesce(Duration::from_secs(5)).unwrap();
    assert_eq!(back.drain_records().len(), 4);

    let out = front.client().call("java:global/Inventory", "checkout", vec![Value::I64(2)]);
    assert_eq!(out.unwrap().as_i64(), Some(200));
    back.quiesce(Duration::from_secs(5)).unwrap();
    front.shutdown();
    back.shutdown();
    assert_eq!(back.drain_records(), Vec::new(), "no skeleton started, so none ends");
    assert_eq!(back.monitor().anomaly_count(), 0);
    assert!(front.drain_records().is_empty());
}
