//! Test-harness generation from observed behavior — the paper's final
//! future-work item: "to automate or semi-automate test harness generation
//! for multithreaded and distributed systems testing".
//!
//! [`derive()`] turns a reconstructed DSCG back into an executable workload
//! specification: the same call trees, the same process placement, the same
//! invocation kinds, and (optionally) the same per-invocation self latency
//! as timed `Work` actions. [`execute`] then replays that specification on
//! a fresh system — so a trace captured in production becomes a regression
//! harness: replay it, reconstruct it, and diff the graphs.

use crate::script::{Action, MethodScript, ScriptedServant};
use causeway_analyzer::dscg::{CallNode, Dscg, Visit, walk_pre_post};
use causeway_analyzer::hotspot::self_latency;
use causeway_collector::db::MonitoringDb;
use causeway_core::ids::ProcessId;
use causeway_core::monitor::ProbeMode;
use causeway_core::runlog::RunLog;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// One invocation in the derived harness.
///
/// `Clone`, `PartialEq` and `Drop` are hand-written iteratively: a harness
/// derived from a paper-scale chain is as deep as the chain itself, and the
/// derived / compiler-generated versions recurse once per level.
#[derive(Debug)]
pub struct ReplayNode {
    /// Label carried over from the original object (for diffing).
    pub label: String,
    /// Index into the harness's process list.
    pub process: usize,
    /// `true` replays as a one-way call.
    pub oneway: bool,
    /// Self latency to reproduce as busy wall time, µs (0 = none).
    pub work_us: u64,
    /// Child invocations in call order.
    pub children: Vec<ReplayNode>,
}

impl ReplayNode {
    /// Total invocations in this subtree.
    pub fn size(&self) -> usize {
        let mut count = 0;
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            count += 1;
            stack.extend(node.children.iter());
        }
        count
    }
}

impl Clone for ReplayNode {
    fn clone(&self) -> ReplayNode {
        enum Step<'a> {
            Enter(&'a ReplayNode),
            Exit,
        }
        fn shallow(node: &ReplayNode) -> ReplayNode {
            ReplayNode {
                label: node.label.clone(),
                process: node.process,
                oneway: node.oneway,
                work_us: node.work_us,
                children: Vec::with_capacity(node.children.len()),
            }
        }
        let mut building: Vec<ReplayNode> = Vec::new();
        let mut done: Option<ReplayNode> = None;
        let mut stack = vec![Step::Enter(self)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(node) => {
                    building.push(shallow(node));
                    stack.push(Step::Exit);
                    for child in node.children.iter().rev() {
                        stack.push(Step::Enter(child));
                    }
                }
                Step::Exit => {
                    let finished = building.pop().expect("Enter pushed a copy");
                    match building.last_mut() {
                        Some(parent) => parent.children.push(finished),
                        None => done = Some(finished),
                    }
                }
            }
        }
        done.expect("root Exit ran")
    }
}

impl PartialEq for ReplayNode {
    fn eq(&self, other: &ReplayNode) -> bool {
        let mut stack = vec![(self, other)];
        while let Some((a, b)) = stack.pop() {
            if a.label != b.label
                || a.process != b.process
                || a.oneway != b.oneway
                || a.work_us != b.work_us
                || a.children.len() != b.children.len()
            {
                return false;
            }
            stack.extend(a.children.iter().zip(b.children.iter()));
        }
        true
    }
}

impl Eq for ReplayNode {}

impl Drop for ReplayNode {
    fn drop(&mut self) {
        // Harnesses derived from paper-scale chains are as deep as the
        // chains themselves: flatten so the drop glue never recurses.
        if self.children.is_empty() {
            return;
        }
        let mut scratch = std::mem::take(&mut self.children);
        let mut next = 0;
        while next < scratch.len() {
            let grandchildren = std::mem::take(&mut scratch[next].children);
            scratch.extend(grandchildren);
            next += 1;
        }
    }
}

/// One causal chain of the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTree {
    /// Top-level sibling invocations.
    pub roots: Vec<ReplayNode>,
}

/// A complete derived harness.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySpec {
    /// Number of server processes the harness needs.
    pub processes: usize,
    /// The trees to replay, in original chain order.
    pub trees: Vec<ReplayTree>,
}

impl ReplaySpec {
    /// Total invocations across all trees.
    pub fn total_calls(&self) -> usize {
        self.trees
            .iter()
            .map(|t| t.roots.iter().map(ReplayNode::size).sum::<usize>())
            .sum()
    }
}

/// Options for harness derivation.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeriveOptions {
    /// Reproduce each invocation's self latency as a timed `Work` action,
    /// scaled by this factor (0.0 disables timing replay).
    pub work_scale: f64,
}

/// Derives a replay harness from a monitoring database.
pub fn derive(db: &MonitoringDb, options: DeriveOptions) -> ReplaySpec {
    let dscg = Dscg::build(db);
    derive_from_dscg(&dscg, db, options)
}

/// Derives a replay harness from an already-built DSCG.
pub fn derive_from_dscg(dscg: &Dscg, db: &MonitoringDb, options: DeriveOptions) -> ReplaySpec {
    // Map original process ids to dense harness indexes.
    let mut process_index: BTreeMap<ProcessId, usize> = BTreeMap::new();
    dscg.walk(&mut |node, _| {
        if let Some(p) = execution_process(node) {
            let next = process_index.len();
            process_index.entry(p).or_insert(next);
        }
    });

    let shallow = |node: &CallNode| -> ReplayNode {
        let process = execution_process(node)
            .and_then(|p| process_index.get(&p).copied())
            .unwrap_or(0);
        let work_us = if options.work_scale > 0.0 {
            self_latency(node)
                .map(|ns| ((ns as f64) * options.work_scale / 1_000.0).round() as u64)
                .unwrap_or(0)
        } else {
            0
        };
        ReplayNode {
            label: db
                .vocab()
                .object(node.func.object)
                .map(|o| o.label.clone())
                .unwrap_or_else(|| node.func.object.to_string()),
            process,
            oneway: node.kind == causeway_core::event::CallKind::Oneway,
            work_us,
            children: Vec::with_capacity(node.children.len()),
        }
    };
    // Iterative two-phase conversion on the shared traversal helper: Enter
    // pushes a childless ReplayNode, Exit pops it into its parent.
    let convert_roots = |roots: &[CallNode]| -> Vec<ReplayNode> {
        let mut building: Vec<ReplayNode> = Vec::new();
        let mut out: Vec<ReplayNode> = Vec::new();
        walk_pre_post(roots, &mut |node, _, visit| match visit {
            Visit::Enter => building.push(shallow(node)),
            Visit::Exit => {
                let finished = building.pop().expect("Enter pushed a node");
                match building.last_mut() {
                    Some(parent) => parent.children.push(finished),
                    None => out.push(finished),
                }
            }
        });
        out
    };

    ReplaySpec {
        processes: process_index.len().max(1),
        trees: dscg
            .trees
            .iter()
            .map(|tree| ReplayTree { roots: convert_roots(&tree.roots) })
            .collect(),
    }
}

/// The process an invocation executed in (skeleton side preferred).
fn execution_process(node: &CallNode) -> Option<ProcessId> {
    node.skel_start.or(node.stub_start).map(|probe| probe.site.process)
}

/// Replays a harness on a fresh system, returning the new run's log.
///
/// # Panics
///
/// Panics if the replayed system misbehaves — the harness is valid by
/// construction, so failures indicate runtime bugs.
pub fn execute(spec: &ReplaySpec, probe_mode: ProbeMode) -> RunLog {
    let mut builder = System::builder();
    builder.probe_mode(probe_mode);
    let node = builder.node("replay", "ReplayCpu");
    let driver = builder.process("replay-driver", node, ThreadingPolicy::ThreadPerRequest);
    let ps: Vec<ProcessId> = (0..spec.processes)
        .map(|i| builder.process(&format!("replay-{i}"), node, ThreadingPolicy::ThreadPerRequest))
        .collect();
    let system = builder.build();
    system
        .load_idl("interface Replay { long go(in long x); oneway void fire(in long x); };")
        .expect("static IDL");

    // Iterative two-phase registration (replay trees are as deep as the
    // chains they reproduce): Enter assigns the pre-order object index,
    // Exit registers the servant once all child references exist.
    fn register(
        root: &ReplayNode,
        system: &System,
        ps: &[ProcessId],
        counter: &mut usize,
    ) -> ObjRef {
        enum Step<'a> {
            Enter(&'a ReplayNode),
            Exit(&'a ReplayNode, usize),
        }
        // Child object references collected per open node.
        let mut frames: Vec<Vec<ObjRef>> = vec![Vec::new()];
        let mut stack = vec![Step::Enter(root)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(node) => {
                    let my_index = *counter;
                    *counter += 1;
                    frames.push(Vec::new());
                    stack.push(Step::Exit(node, my_index));
                    for child in node.children.iter().rev() {
                        stack.push(Step::Enter(child));
                    }
                }
                Step::Exit(node, my_index) => {
                    let wires = frames.pop().expect("Enter pushed a frame");
                    let mut actions = Vec::new();
                    if node.work_us > 0 {
                        actions.push(Action::Work { wall_us: node.work_us, cpu_us: node.work_us });
                    }
                    for (slot, child) in node.children.iter().enumerate() {
                        if child.oneway {
                            actions.push(Action::CallOneway { target: slot, method: "fire" });
                        } else {
                            actions.push(Action::Call { target: slot, method: "go", manual: None });
                        }
                    }
                    let script = MethodScript::new(actions);
                    let servant = ScriptedServant::new(vec![script.clone(), script]);
                    let obj = system
                        .register_servant(
                            ps[node.process.min(ps.len() - 1)],
                            "Replay",
                            &format!("Replay{my_index}"),
                            &node.label,
                            servant.clone(),
                        )
                        .expect("registration succeeds");
                    for (slot, target) in wires.into_iter().enumerate() {
                        servant.wire(slot, target);
                    }
                    frames.last_mut().expect("root frame").push(obj);
                }
            }
        }
        frames
            .pop()
            .and_then(|mut refs| refs.pop())
            .expect("root registered")
    }

    // Register every tree's objects, then replay tree by tree.
    let mut counter = 0usize;
    let plans: Vec<Vec<(ObjRef, bool)>> = spec
        .trees
        .iter()
        .map(|tree| {
            tree.roots
                .iter()
                .map(|root| (register(root, &system, &ps, &mut counter), root.oneway))
                .collect()
        })
        .collect();

    system.start();
    let client = system.client(driver);
    for plan in &plans {
        client.begin_root();
        for (obj, oneway) in plan {
            if *oneway {
                client.invoke_oneway(obj, "fire", vec![Value::I64(0)]).expect("replay oneway");
            } else {
                client.invoke(obj, "go", vec![Value::I64(0)]).expect("replay call");
            }
        }
    }
    system.quiesce(Duration::from_secs(60)).expect("replay quiesces");
    system.shutdown();
    system.harvest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pps::{Pps, PpsConfig, PpsDeployment};
    use causeway_analyzer::cpu::CpuAnalysis;
    use causeway_analyzer::dscg::Dscg;

    fn shape(dscg: &Dscg, db: &MonitoringDb) -> Vec<Vec<String>> {
        // Per tree: the pre-order label/kind sequence.
        dscg.trees
            .iter()
            .map(|tree| {
                let mut out = Vec::new();
                for root in &tree.roots {
                    root.walk(&mut |node, depth| {
                        let label = db
                            .vocab()
                            .object(node.func.object)
                            .map(|o| o.label.clone())
                            .unwrap_or_default();
                        out.push(format!("{depth}:{label}:{}", node.kind));
                    });
                }
                out
            })
            .collect()
    }

    #[test]
    fn replayed_pps_reproduces_the_call_graph_shape() {
        let config = PpsConfig {
            deployment: PpsDeployment::FourProcess,
            probe_mode: ProbeMode::CausalityOnly,
            work_scale: 0.02,
            ..PpsConfig::default()
        };
        let pps = Pps::build(&config);
        pps.run_jobs(3);
        let db = MonitoringDb::from_run(pps.finish());
        let original = Dscg::build(&db);

        let spec = derive(&db, DeriveOptions::default());
        assert_eq!(spec.total_calls(), original.total_nodes());
        assert_eq!(spec.processes, 4);

        let replay_run = execute(&spec, ProbeMode::CausalityOnly);
        let replay_db = MonitoringDb::from_run(replay_run);
        let replayed = Dscg::build(&replay_db);
        assert!(replayed.abnormalities.is_empty(), "{:?}", replayed.abnormalities);

        // Identical shape: same per-tree pre-order label/kind sequences.
        // (Collocated-vs-sync may differ because the replay places the
        // driver in its own process; compare labels and structure.)
        let strip = |shapes: Vec<Vec<String>>| -> Vec<Vec<String>> {
            shapes
                .into_iter()
                .map(|tree| {
                    tree.into_iter()
                        .map(|s| s.rsplit_once(':').map(|(a, _)| a.to_owned()).unwrap_or(s))
                        .collect()
                })
                .collect()
        };
        assert_eq!(
            strip(shape(&replayed, &replay_db)),
            strip(shape(&original, &db)),
            "replayed trees must match the originals"
        );
        // One-way calls stayed one-way.
        let count_oneway = |dscg: &Dscg| {
            let mut n = 0;
            dscg.walk(&mut |node, _| {
                if node.kind == causeway_core::event::CallKind::Oneway {
                    n += 1;
                }
            });
            n
        };
        assert_eq!(count_oneway(&replayed), count_oneway(&original));
    }

    #[test]
    fn work_replay_reproduces_latency_magnitudes() {
        let config = PpsConfig {
            deployment: PpsDeployment::FourProcess,
            probe_mode: ProbeMode::Latency,
            work_scale: 0.05,
            ..PpsConfig::default()
        };
        let pps = Pps::build(&config);
        pps.run_jobs(2);
        let db = MonitoringDb::from_run(pps.finish());

        let spec = derive(&db, DeriveOptions { work_scale: 1.0 });
        // The busiest stage (rasterize, scaled 0.05 of 400µs = ~20µs self)
        // must carry nonzero replay work.
        let has_work = spec
            .trees
            .iter()
            .flat_map(|t| &t.roots)
            .any(tree_has_work);
        assert!(has_work, "derived harness carries timing actions");

        let replay_run = execute(&spec, ProbeMode::Both);
        let replay_db = MonitoringDb::from_run(replay_run);
        let replayed = Dscg::build(&replay_db);
        // The replay's root CPU is in the same order of magnitude as the
        // original's root latency: both are dominated by the stages' work,
        // which the replay credits to its virtual CPU clock exactly, so
        // the replayed side does not depend on how loaded the host is.
        let original = Dscg::build(&db);
        let a = causeway_analyzer::latency::node_latency(&original.trees[0].roots[0])
            .map(|l| l.latency_ns)
            .unwrap_or(0) as f64;
        let cpu = CpuAnalysis::compute(&replayed, replay_db.deployment());
        let b = cpu.per_node[0].inclusive().total() as f64;
        assert!(b > a * 0.3 && b < a * 3.0, "original {a} ns vs replay root CPU {b} ns");
    }

    fn tree_has_work(node: &ReplayNode) -> bool {
        node.work_us > 0 || node.children.iter().any(tree_has_work)
    }
}
