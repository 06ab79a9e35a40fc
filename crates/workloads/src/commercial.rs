//! A synthetic stand-in for the paper's commercial large-scale embedded
//! system.
//!
//! The original is proprietary (">1 million lines of code", "partitioned
//! into 32 threads in a single-processor 4 processes configuration", whose
//! largest run "consisted of about 195,000 calls, with a total of 801
//! unique methods in 155 unique interfaces from 176 unique components").
//! Since the analyzer's scalability depends only on the *shape* of the
//! monitoring data, a seeded generator reproducing those shape statistics
//! preserves the experiment (DESIGN.md §2).
//!
//! The generator emits real IDL (exercising the compiler at scale), places
//! component objects level-by-level across the 4 processes, and wires an
//! acyclic call graph whose levels map 1:1 to processes — a chain holds at
//! most one pool worker per process at a time, so fixed pools of 7 workers
//! (4 × 7 server threads + 4 driver threads = 32) can never deadlock.

use crate::script::{Action, MethodScript, ScriptedServant};
use causeway_core::monitor::ProbeMode;
use causeway_core::runlog::RunLog;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use causeway_core::rng::Rng;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Shape parameters for the synthetic system.
#[derive(Debug, Clone)]
pub struct CommercialConfig {
    /// Number of components (the paper: 176).
    pub components: usize,
    /// Number of interfaces (the paper: 155).
    pub interfaces: usize,
    /// Total methods across all interfaces (the paper: 801).
    pub methods: usize,
    /// Target number of invocations (the paper: ~195,000).
    pub target_calls: usize,
    /// Driver threads issuing root transactions (4 drivers + 4×7 pool
    /// workers = the paper's 32 threads).
    pub driver_threads: usize,
    /// Pool size per server process.
    pub pool_size: usize,
    /// Base probe mode for every interface (canonical names:
    /// `causality-only`, `latency`, `cpu`, `both` — see
    /// [`ProbeMode`]'s `FromStr`). A shared [`causeway_core::monitor::ProbePolicy`]
    /// can override it per interface at runtime.
    pub probe_mode: ProbeMode,
    /// RNG seed — same seed, same system, same workload.
    pub seed: u64,
}

impl Default for CommercialConfig {
    fn default() -> Self {
        CommercialConfig {
            components: 176,
            interfaces: 155,
            methods: 801,
            target_calls: 195_000,
            driver_threads: 4,
            pool_size: 7,
            probe_mode: ProbeMode::CausalityOnly,
            seed: 0x1cdc_2003,
        }
    }
}

impl CommercialConfig {
    /// A scaled-down variant for tests (same topology rules, ~`calls`
    /// invocations).
    pub fn scaled(calls: usize, seed: u64) -> CommercialConfig {
        CommercialConfig {
            components: 24,
            interfaces: 16,
            methods: 64,
            target_calls: calls,
            driver_threads: 2,
            pool_size: 4,
            seed,
            ..CommercialConfig::default()
        }
    }
}

const LEVELS: usize = 4;

/// The generated, started system plus its workload plan.
pub struct CommercialSystem {
    /// The underlying ORB system.
    pub system: System,
    /// Level-0 entry points: (object, root method name, exact invocations a
    /// root transaction through it produces).
    pub entry_points: Vec<(ObjRef, String, usize)>,
    /// Total invocations the planned workload will produce.
    pub planned_calls: usize,
    roots_plan: Vec<usize>, // indexes into entry_points
    driver_threads: usize,
}

impl std::fmt::Debug for CommercialSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommercialSystem")
            .field("entry_points", &self.entry_points.len())
            .field("planned_calls", &self.planned_calls)
            .finish()
    }
}

fn method_name(i: usize) -> String {
    format!("m{i}")
}

impl CommercialSystem {
    /// Generates, wires and starts the system.
    pub fn build(config: &CommercialConfig) -> CommercialSystem {
        let mut rng = Rng::seed_from_u64(config.seed);

        // --- Interfaces: distribute `methods` over `interfaces`, skewed
        // (a few fat interfaces, many small ones). ---
        let interfaces = config.interfaces.max(1);
        let mut methods_per_iface = vec![1usize; interfaces];
        let mut remaining = config.methods.saturating_sub(interfaces);
        while remaining > 0 {
            let idx = rng.gen_range(0..interfaces);
            let grab = remaining.min(rng.gen_range(1..=3));
            methods_per_iface[idx] += grab;
            remaining -= grab;
        }

        // Emit genuine IDL text and load it through the real compiler.
        let mut idl = String::from("module Commercial {\n");
        let mut next_method = 0usize;
        // iface_methods[j] = global method ids declared on interface j.
        let mut iface_methods: Vec<Vec<usize>> = Vec::with_capacity(interfaces);
        for (j, &count) in methods_per_iface.iter().enumerate() {
            writeln!(idl, "  interface I{j} {{").expect("string write");
            let mut mine = Vec::with_capacity(count);
            for _ in 0..count {
                writeln!(idl, "    long {}(in long x);", method_name(next_method))
                    .expect("string write");
                mine.push(next_method);
                next_method += 1;
            }
            idl.push_str("  };\n");
            iface_methods.push(mine);
        }
        idl.push_str("};\n");

        // --- System: one node, a driver process + 4 pooled server
        // processes (levels). ---
        let mut builder = System::builder();
        builder.probe_mode(config.probe_mode);
        let node = builder.node("embedded-cpu", "PA-RISC");
        let _driver_p = builder.process("driver", node, ThreadingPolicy::ThreadPerRequest);
        let server_ps: Vec<_> = (0..LEVELS)
            .map(|i| {
                builder.process(
                    &format!("server-{i}"),
                    node,
                    ThreadingPolicy::ThreadPool(config.pool_size),
                )
            })
            .collect();
        let system = builder.build();
        system.load_idl(&idl).expect("generated IDL compiles");

        // --- Components: level = index mod LEVELS; each implements one
        // randomly chosen interface. ---
        let component_count = config.components.max(LEVELS).max(interfaces);
        let comp_level: Vec<usize> = (0..component_count).map(|c| c % LEVELS).collect();
        // Round-robin interface assignment so every interface (and hence
        // every method) is implemented by at least one component — the
        // paper's largest run touched all 801 methods of all 155 interfaces.
        let comp_iface: Vec<usize> = (0..component_count).map(|c| c % interfaces).collect();
        let by_level: Vec<Vec<usize>> = (0..LEVELS)
            .map(|l| (0..component_count).filter(|&c| comp_level[c] == l).collect())
            .collect();

        // --- Call graph: (component, method slot) at level L calls targets
        // at level L+1. Two passes: a coverage pass guaranteeing that every
        // method below level 0 has at least one caller (so a full run
        // exercises all `methods` unique methods, as the paper's largest
        // run did), then random extra fan-out. ---
        let mut children: Vec<Vec<Vec<(usize, usize)>>> = (0..component_count)
            .map(|c| vec![Vec::new(); iface_methods[comp_iface[c]].len()])
            .collect();
        for level in 1..LEVELS {
            for &c in &by_level[level] {
                let callers = &by_level[level - 1];
                if callers.is_empty() {
                    continue;
                }
                for mslot in 0..iface_methods[comp_iface[c]].len() {
                    let caller = callers[rng.gen_range(0..callers.len())];
                    let caller_slots = iface_methods[comp_iface[caller]].len();
                    let caller_slot = rng.gen_range(0..caller_slots);
                    children[caller][caller_slot].push((c, mslot));
                }
            }
        }
        for c in 0..component_count {
            if comp_level[c] + 1 >= LEVELS {
                continue;
            }
            let next = &by_level[comp_level[c] + 1];
            if next.is_empty() {
                continue;
            }
            let method_count = iface_methods[comp_iface[c]].len();
            for slot in children[c].iter_mut().take(method_count) {
                for _ in 0..rng.gen_range(0..=2) {
                    let target = next[rng.gen_range(0..next.len())];
                    let t_slots = iface_methods[comp_iface[target]].len();
                    slot.push((target, rng.gen_range(0..t_slots)));
                }
            }
        }

        // --- Scripts + registration, then a wiring pass. ---
        let mut servants: Vec<Arc<ScriptedServant>> = Vec::with_capacity(component_count);
        let mut wires: Vec<Vec<usize>> = Vec::with_capacity(component_count);
        let mut objs: Vec<ObjRef> = Vec::with_capacity(component_count);
        for c in 0..component_count {
            let mut my_wires: Vec<usize> = Vec::new();
            let scripts: Vec<MethodScript> = children[c]
                .iter()
                .map(|slot_calls| {
                    let mut actions = vec![Action::Compute { cpu_us: 5 }];
                    for &(target_comp, target_mslot) in slot_calls {
                        let wire_slot = my_wires.len();
                        my_wires.push(target_comp);
                        let target_method = iface_methods[comp_iface[target_comp]][target_mslot];
                        actions.push(Action::Call {
                            target: wire_slot,
                            method: Box::leak(method_name(target_method).into_boxed_str()),
                            manual: None,
                        });
                    }
                    MethodScript::new(actions)
                })
                .collect();
            let servant = ScriptedServant::new(scripts);
            let obj = system
                .register_servant(
                    server_ps[comp_level[c]],
                    &format!("Commercial::I{}", comp_iface[c]),
                    &format!("Component{c}"),
                    &format!("comp{c}#0"),
                    servant.clone(),
                )
                .expect("registration");
            servants.push(servant);
            wires.push(my_wires);
            objs.push(obj);
        }
        for c in 0..component_count {
            for (slot, &target_comp) in wires[c].iter().enumerate() {
                servants[c].wire(slot, objs[target_comp]);
            }
        }

        // --- Workload plan: exact tree size per (component, method slot);
        // accumulate level-0 roots until the target call count. ---
        let mut memo: Vec<Vec<Option<usize>>> = (0..component_count)
            .map(|c| vec![None; iface_methods[comp_iface[c]].len()])
            .collect();
        fn tree_size(
            comp: usize,
            mslot: usize,
            children: &[Vec<Vec<(usize, usize)>>],
            memo: &mut [Vec<Option<usize>>],
        ) -> usize {
            if let Some(size) = memo[comp][mslot] {
                return size;
            }
            let mut size = 1;
            for i in 0..children[comp][mslot].len() {
                let (tc, tm) = children[comp][mslot][i];
                size += tree_size(tc, tm, children, memo);
            }
            memo[comp][mslot] = Some(size);
            size
        }

        let mut entry_points = Vec::new();
        for &c in &by_level[0] {
            for (mslot, &mid) in iface_methods[comp_iface[c]].iter().enumerate() {
                let size = tree_size(c, mslot, &children, &mut memo);
                entry_points.push((objs[c], method_name(mid), size));
            }
        }

        let mut roots_plan = Vec::new();
        let mut planned = 0usize;
        let mut idx = 0usize;
        while planned < config.target_calls && !entry_points.is_empty() {
            let ep = idx % entry_points.len();
            roots_plan.push(ep);
            planned += entry_points[ep].2;
            idx += 1;
        }

        system.start();
        CommercialSystem {
            system,
            entry_points,
            planned_calls: planned,
            roots_plan,
            driver_threads: config.driver_threads.max(1),
        }
    }

    /// Executes the planned workload with the configured driver threads,
    /// then quiesces. Returns the number of root transactions issued.
    pub fn run(&self) -> usize {
        let mut chunks = vec![Vec::new(); self.driver_threads];
        for (i, &ep) in self.roots_plan.iter().enumerate() {
            chunks[i % self.driver_threads].push(ep);
        }
        let driver_p = causeway_core::ids::ProcessId(0);
        std::thread::scope(|scope| {
            for chunk in &chunks {
                let client = self.system.client(driver_p);
                let entry_points = &self.entry_points;
                scope.spawn(move || {
                    for &ep in chunk {
                        let (obj, method, _) = &entry_points[ep];
                        client.begin_root();
                        client
                            .invoke(obj, method, vec![Value::I64(0)])
                            .expect("commercial workload call");
                    }
                });
            }
        });
        self.system
            .quiesce(Duration::from_secs(60))
            .expect("commercial system quiesces");
        self.roots_plan.len()
    }

    /// Stops the system and returns the run log.
    pub fn finish(self) -> RunLog {
        self.system.shutdown();
        self.system.harvest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_analyzer::dscg::Dscg;
    use causeway_collector::db::MonitoringDb;

    #[test]
    fn scaled_system_hits_its_call_target() {
        let config = CommercialConfig::scaled(2_000, 42);
        let commercial = CommercialSystem::build(&config);
        let planned = commercial.planned_calls;
        assert!(planned >= 2_000);
        let roots = commercial.run();
        assert!(roots > 0);
        let db = MonitoringDb::from_run(commercial.finish());
        let stats = db.scale_stats();
        assert_eq!(stats.calls, planned, "the plan predicted the call count exactly");
        assert_eq!(stats.total_records, 4 * planned, "4 probe records per call");
        assert_eq!(stats.processes, 5, "driver + 4 servers record probes");
        let dscg = Dscg::build(&db);
        assert!(dscg.abnormalities.is_empty(), "{:?}", dscg.abnormalities);
        assert_eq!(dscg.total_nodes(), planned);
        assert_eq!(dscg.trees.len(), roots);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = CommercialSystem::build(&CommercialConfig::scaled(500, 7));
        let b = CommercialSystem::build(&CommercialConfig::scaled(500, 7));
        assert_eq!(a.planned_calls, b.planned_calls);
        assert_eq!(a.entry_points.len(), b.entry_points.len());
        let c = CommercialSystem::build(&CommercialConfig::scaled(500, 8));
        let sizes = |s: &CommercialSystem| s.entry_points.iter().map(|e| e.2).collect::<Vec<_>>();
        assert_ne!(sizes(&a), sizes(&c), "different seed, different topology");
        a.system.shutdown();
        b.system.shutdown();
        c.system.shutdown();
    }

    /// The topology the seed produced before the workspace owned its
    /// generator: every entry point's object, root method and tree size,
    /// and the planned call count. A changed RNG stream moves these.
    #[test]
    fn seeded_topology_matches_the_pinned_digest() {
        let s = CommercialSystem::build(&CommercialConfig::scaled(500, 7));
        let digest: Vec<String> = s
            .entry_points
            .iter()
            .map(|(obj, method, size)| format!("{}:{method}:{size}", obj.object.0))
            .collect();
        assert_eq!(
            digest.join(" "),
            "0:m0:41 4:m13:12 4:m14:18 4:m15:18 4:m16:45 8:m31:10 8:m32:8 8:m33:28 8:m34:6 \
             12:m46:25 12:m47:23 12:m48:10 12:m49:5 16:m0:39 20:m13:26 20:m14:2 20:m15:34 20:m16:19"
        );
        assert_eq!(s.planned_calls, 503);
        assert_eq!(s.roots_plan.len(), 23);
        s.system.shutdown();
    }

    #[test]
    fn full_shape_defaults_match_the_paper() {
        let config = CommercialConfig::default();
        assert_eq!(config.components, 176);
        assert_eq!(config.interfaces, 155);
        assert_eq!(config.methods, 801);
        assert_eq!(config.target_calls, 195_000);
        assert_eq!(config.driver_threads + LEVELS * config.pool_size, 32);
    }
}
