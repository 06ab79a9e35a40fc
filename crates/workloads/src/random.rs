//! Seeded random call-tree workloads.
//!
//! Generates an arbitrary invocation tree (mixed synchronous/one-way calls
//! across several processes), executes it on the real runtime, and knows
//! its own shape — so callers can assert the analyzer reconstructed exactly
//! what ran. The property-based tests drive the same machinery through
//! proptest; this module offers a plain seeded generator for stress tests
//! and benches.

use crate::script::{Action, MethodScript, ScriptedServant};
use causeway_core::ids::ProcessId;
use causeway_core::monitor::ProbeMode;
use causeway_core::runlog::RunLog;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use causeway_core::rng::Rng;
use std::time::Duration;

/// Parameters for the random tree generator.
#[derive(Debug, Clone)]
pub struct RandomTreeConfig {
    /// Maximum tree depth (root = depth 1).
    pub max_depth: usize,
    /// Maximum children per node.
    pub max_fanout: usize,
    /// Probability that a call is one-way.
    pub oneway_probability: f64,
    /// Number of simulated server processes (the driver is extra).
    pub processes: usize,
    /// Base probe mode for the run (canonical names: `causality-only`,
    /// `latency`, `cpu`, `both` — see [`ProbeMode`]'s `FromStr`).
    pub probe_mode: ProbeMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomTreeConfig {
    fn default() -> Self {
        RandomTreeConfig {
            max_depth: 4,
            max_fanout: 3,
            oneway_probability: 0.2,
            processes: 3,
            probe_mode: ProbeMode::CausalityOnly,
            seed: 1,
        }
    }
}

/// One node of the generated specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomNode {
    /// `true` for a one-way invocation.
    pub oneway: bool,
    /// Index of the hosting process (0-based among server processes).
    pub process: usize,
    /// Child invocations in call order.
    pub children: Vec<RandomNode>,
}

impl RandomNode {
    /// Total invocations in this subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(RandomNode::size).sum::<usize>()
    }

    /// Depth of this subtree.
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(RandomNode::depth).max().unwrap_or(0)
    }
}

/// Generates a random tree specification.
pub fn generate(config: &RandomTreeConfig) -> RandomNode {
    let mut rng = Rng::seed_from_u64(config.seed);
    gen_node(&mut rng, config, 1, false)
}

fn gen_node(
    rng: &mut Rng,
    config: &RandomTreeConfig,
    depth: usize,
    force_leafward: bool,
) -> RandomNode {
    let oneway = rng.gen_bool(config.oneway_probability);
    let process = rng.gen_range(0..config.processes.max(1));
    let children = if depth >= config.max_depth || force_leafward {
        Vec::new()
    } else {
        let fanout = rng.gen_range(0..=config.max_fanout);
        (0..fanout)
            .map(|_| {
                // Thin out deep subtrees to keep sizes moderate.
                let force = rng.gen_bool(0.3);
                gen_node(rng, config, depth + 1, force)
            })
            .collect()
    };
    RandomNode { oneway, process, children }
}

/// The outcome of executing a random tree.
#[derive(Debug)]
pub struct RandomRun {
    /// The specification that was executed.
    pub spec: RandomNode,
    /// The harvested monitoring data.
    pub run: RunLog,
}

/// Builds the system for `spec`, executes one root transaction, quiesces
/// and harvests.
///
/// # Panics
///
/// Panics when the runtime misbehaves (registration or invocation failure)
/// — the generated workload is valid by construction, so any failure is a
/// harness bug worth crashing on.
pub fn execute(config: &RandomTreeConfig, spec: &RandomNode) -> RandomRun {
    let mut builder = System::builder();
    builder.probe_mode(config.probe_mode);
    let node = builder.node("rnd", "RndCpu");
    let driver = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
    let ps: Vec<ProcessId> = (0..config.processes.max(1))
        .map(|i| builder.process(&format!("p{i}"), node, ThreadingPolicy::ThreadPerRequest))
        .collect();
    let system = builder.build();
    system
        .load_idl("interface R { long go(in long x); oneway void fire(in long x); };")
        .expect("static IDL");

    fn register(
        spec: &RandomNode,
        system: &System,
        ps: &[ProcessId],
        counter: &mut usize,
    ) -> ObjRef {
        let my_index = *counter;
        *counter += 1;
        let mut actions = Vec::new();
        let mut wires: Vec<ObjRef> = Vec::new();
        for child in &spec.children {
            let child_ref = register(child, system, ps, counter);
            let slot = wires.len();
            wires.push(child_ref);
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
                ps[spec.process],
                "R",
                &format!("C{my_index}"),
                &format!("rnd{my_index}"),
                servant.clone(),
            )
            .expect("registration succeeds");
        for (slot, target) in wires.into_iter().enumerate() {
            servant.wire(slot, target);
        }
        obj
    }

    let mut counter = 0usize;
    let root_ref = register(spec, &system, &ps, &mut counter);
    system.start();
    let client = system.client(driver);
    client.begin_root();
    if spec.oneway {
        client
            .invoke_oneway(&root_ref, "fire", vec![Value::I64(0)])
            .expect("root oneway");
    } else {
        client.invoke(&root_ref, "go", vec![Value::I64(0)]).expect("root call");
    }
    system.quiesce(Duration::from_secs(30)).expect("quiesce");
    system.shutdown();
    assert_eq!(system.anomaly_count(), 0, "random workloads are anomaly-free");
    RandomRun { spec: spec.clone(), run: system.harvest() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_analyzer::dscg::Dscg;
    use causeway_collector::db::MonitoringDb;

    #[test]
    fn generation_is_deterministic() {
        let config = RandomTreeConfig::default();
        assert_eq!(generate(&config), generate(&config));
        let other = RandomTreeConfig { seed: 2, ..config };
        // Extremely unlikely to coincide.
        assert_ne!(generate(&RandomTreeConfig::default()), generate(&other));
    }

    #[test]
    fn executed_tree_reconstructs_to_spec_size() {
        for seed in 0..6 {
            let config = RandomTreeConfig { seed, ..RandomTreeConfig::default() };
            let spec = generate(&config);
            let outcome = execute(&config, &spec);
            let db = MonitoringDb::from_run(outcome.run);
            let dscg = Dscg::build(&db);
            assert!(dscg.abnormalities.is_empty(), "seed {seed}: {:?}", dscg.abnormalities);
            assert_eq!(dscg.total_nodes(), spec.size(), "seed {seed}");
            assert_eq!(dscg.trees.len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn depth_and_fanout_respect_bounds() {
        let config = RandomTreeConfig { max_depth: 3, max_fanout: 2, seed: 9, ..Default::default() };
        for seed in 0..20 {
            let spec = generate(&RandomTreeConfig { seed, ..config.clone() });
            assert!(spec.depth() <= 3);
            fn check(node: &RandomNode) {
                assert!(node.children.len() <= 2);
                node.children.iter().for_each(check);
            }
            check(&spec);
        }
    }
}
