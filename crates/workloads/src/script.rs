//! Scripted servants: declarative component behaviors.
//!
//! Every workload in this crate builds its components out of
//! [`ScriptedServant`]s — a servant whose methods each execute a fixed list
//! of [`Action`]s. Targets of child calls are *wired* after registration
//! (components are registered before the objects they call may exist), and
//! a [`ManualProbe`] can be attached around any call site to reproduce the
//! paper's manual-measurement methodology.

use causeway_core::clock::VirtualCpuClock;
use causeway_core::ids::MethodIndex;
use causeway_core::manual::ManualProbe;
use causeway_core::sync::RwLock;
use causeway_core::value::Value;
use causeway_orb::servant::{MethodResult, Servant, ServerCtx};
use causeway_orb::{AppError, ObjRef};
use std::sync::Arc;
use std::time::Duration;

/// One step of a method's behavior.
#[derive(Debug, Clone)]
pub enum Action {
    /// Credit `cpu_us` microseconds of CPU to the executing thread (models
    /// pure computation without slowing the run down).
    Compute {
        /// Microseconds of CPU to credit.
        cpu_us: u64,
    },
    /// Sleep `wall_us` of wall time and credit `cpu_us` of CPU (models work
    /// with both latency and CPU cost).
    Work {
        /// Microseconds of wall time to spend.
        wall_us: u64,
        /// Microseconds of CPU to credit.
        cpu_us: u64,
    },
    /// Synchronously invoke a wired target.
    Call {
        /// Index into the servant's wired-target table.
        target: usize,
        /// Method name on the target's interface.
        method: &'static str,
        /// Manual-measurement bracket around this call site, when attached.
        manual: Option<Arc<ManualProbe>>,
    },
    /// Fire a one-way invocation at a wired target.
    CallOneway {
        /// Index into the servant's wired-target table.
        target: usize,
        /// Method name on the target's interface.
        method: &'static str,
    },
    /// Raise an application exception, aborting the remaining actions.
    Raise {
        /// Exception name.
        exception: &'static str,
        /// Detail message.
        message: &'static str,
    },
}

/// The behavior of one method: its action list.
#[derive(Debug, Clone, Default)]
pub struct MethodScript {
    /// Steps executed in order.
    pub actions: Vec<Action>,
}

impl MethodScript {
    /// A script from actions.
    pub fn new(actions: Vec<Action>) -> MethodScript {
        MethodScript { actions }
    }
}

/// A servant whose methods run fixed scripts.
#[derive(Debug)]
pub struct ScriptedServant {
    methods: Vec<MethodScript>,
    targets: RwLock<Vec<Option<ObjRef>>>,
}

impl ScriptedServant {
    /// Creates a servant with one script per method (index order must match
    /// the interface's method declaration order).
    pub fn new(methods: Vec<MethodScript>) -> Arc<ScriptedServant> {
        Arc::new(ScriptedServant { methods, targets: RwLock::new(Vec::new()) })
    }

    /// Wires the call-target table slot `index` to `target`. Slots may be
    /// wired in any order; unwired slots fail at call time.
    pub fn wire(&self, index: usize, target: ObjRef) {
        let mut targets = self.targets.write();
        if targets.len() <= index {
            targets.resize(index + 1, None);
        }
        targets[index] = Some(target);
    }

    fn run_action(&self, ctx: &ServerCtx, action: &Action) -> Result<(), AppError> {
        match action {
            Action::Compute { cpu_us } => {
                VirtualCpuClock::credit_current_thread(cpu_us * 1_000);
                Ok(())
            }
            Action::Work { wall_us, cpu_us } => {
                std::thread::sleep(Duration::from_micros(*wall_us));
                VirtualCpuClock::credit_current_thread(cpu_us * 1_000);
                Ok(())
            }
            Action::Call { target, method, manual } => {
                let target = self.target(*target)?;
                let invoke = || {
                    ctx.client()
                        .invoke(&target, method, vec![Value::I64(0)])
                        .map_err(|e| AppError::new("Downstream", e.to_string()))
                };
                match manual {
                    Some(probe) => probe.measure(invoke).map(drop),
                    None => invoke().map(drop),
                }
            }
            Action::CallOneway { target, method } => {
                let target = self.target(*target)?;
                ctx.client()
                    .invoke_oneway(&target, method, vec![Value::I64(0)])
                    .map_err(|e| AppError::new("Downstream", e.to_string()))
            }
            Action::Raise { exception, message } => Err(AppError::new(*exception, *message)),
        }
    }

    fn target(&self, index: usize) -> Result<ObjRef, AppError> {
        self.targets
            .read()
            .get(index)
            .copied()
            .flatten()
            .ok_or_else(|| AppError::new("Unwired", format!("target slot {index}")))
    }
}

impl Servant for ScriptedServant {
    fn dispatch(&self, ctx: &ServerCtx, method: MethodIndex, _args: Vec<Value>) -> MethodResult {
        let script = self
            .methods
            .get(method.0 as usize)
            .ok_or_else(|| AppError::new("BadMethod", format!("{method}")))?;
        for action in &script.actions {
            self.run_action(ctx, action)?;
        }
        Ok(Value::I64(script.actions.len() as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::monitor::ProbeMode;
    use causeway_orb::prelude::*;
    use std::time::Duration;

    const IDL: &str = r#"
        interface Node {
            long go(in long x);
            oneway void fire(in long x);
        };
    "#;

    #[test]
    fn scripted_pipeline_runs_and_raises() {
        let mut builder = System::builder();
        builder.probe_mode(ProbeMode::Cpu);
        let node = builder.node("n", "X");
        let p = builder.process("app", node, ThreadingPolicy::ThreadPerRequest);
        let system = builder.build();
        system.load_idl(IDL).unwrap();

        let leaf = ScriptedServant::new(vec![
            MethodScript::new(vec![Action::Compute { cpu_us: 50 }]),
            MethodScript::new(vec![]),
        ]);
        let leaf_ref = system
            .register_servant(p, "Node", "Leaf", "leaf#0", leaf.clone())
            .unwrap();

        let root = ScriptedServant::new(vec![
            MethodScript::new(vec![
                Action::Compute { cpu_us: 10 },
                Action::Call { target: 0, method: "go", manual: None },
                Action::CallOneway { target: 0, method: "fire" },
            ]),
            MethodScript::new(vec![]),
        ]);
        root.wire(0, leaf_ref);
        let root_ref = system
            .register_servant(p, "Node", "Root", "root#0", root.clone())
            .unwrap();

        let failing = ScriptedServant::new(vec![
            MethodScript::new(vec![Action::Raise { exception: "Jam", message: "paper jam" }]),
            MethodScript::new(vec![]),
        ]);
        let failing_ref = system
            .register_servant(p, "Node", "Failing", "fail#0", failing)
            .unwrap();

        system.start();
        let client = system.client(p);
        client.begin_root();
        let out = client.invoke(&root_ref, "go", vec![Value::I64(1)]).unwrap();
        assert_eq!(out.as_i64(), Some(3), "three actions ran");

        let err = client.invoke(&failing_ref, "go", vec![Value::I64(1)]).unwrap_err();
        assert!(matches!(err, OrbError::Application(app) if app.exception == "Jam"));

        system.quiesce(Duration::from_secs(5)).unwrap();
        system.shutdown();
        let records = system.harvest().records;
        assert!(!records.is_empty());
    }

    #[test]
    fn unwired_target_raises() {
        let mut builder = System::builder();
        let node = builder.node("n", "X");
        let p = builder.process("app", node, ThreadingPolicy::ThreadPerRequest);
        let system = builder.build();
        system.load_idl(IDL).unwrap();
        let servant = ScriptedServant::new(vec![
            MethodScript::new(vec![Action::Call { target: 3, method: "go", manual: None }]),
            MethodScript::new(vec![]),
        ]);
        let obj = system.register_servant(p, "Node", "C", "c#0", servant).unwrap();
        system.start();
        let err = system
            .client(p)
            .invoke(&obj, "go", vec![Value::I64(0)])
            .unwrap_err();
        assert!(matches!(err, OrbError::Application(app) if app.exception == "Unwired"));
        system.shutdown();
    }

    #[test]
    fn manual_probes_collect_samples() {
        let mut builder = System::builder();
        builder.instrumented(false); // manual runs use plain stubs
        let node = builder.node("n", "X");
        let p = builder.process("app", node, ThreadingPolicy::ThreadPerRequest);
        let system = builder.build();
        system.load_idl(IDL).unwrap();

        let leaf = ScriptedServant::new(vec![
            MethodScript::new(vec![Action::Work { wall_us: 500, cpu_us: 100 }]),
            MethodScript::new(vec![]),
        ]);
        let leaf_ref = system.register_servant(p, "Node", "L", "l#0", leaf).unwrap();

        let probe = Arc::new(ManualProbe::new(
            Arc::new(causeway_core::clock::SystemClock::new()),
            Arc::new(causeway_core::clock::VirtualCpuClock::new()),
        ));
        let root = ScriptedServant::new(vec![
            MethodScript::new(vec![Action::Call {
                target: 0,
                method: "go",
                manual: Some(probe.clone()),
            }]),
            MethodScript::new(vec![]),
        ]);
        root.wire(0, leaf_ref);
        let root_ref = system.register_servant(p, "Node", "R", "r#0", root).unwrap();
        system.start();
        let client = system.client(p);
        for _ in 0..3 {
            client.invoke(&root_ref, "go", vec![Value::I64(0)]).unwrap();
        }
        system.shutdown();
        let samples = probe.samples();
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|s| s.wall_ns >= 500_000));
    }
}
