//! The Printing Pipeline Simulator (PPS).
//!
//! "The PPS system is ORBlite based and consists of 11 components. It has
//! been flexibly configured into multiple processes hosted by different
//! platforms that include HPUX, Windows and VxWorks."
//!
//! Per job, the pipeline runs:
//!
//! ```text
//! JobSource.submit
//! └─ Spooler.enqueue
//!    └─ Interpreter.interpret
//!       ├─ LayoutEngine.layout
//!       ├─ ColorConverter.convert
//!       │  └─ Halftoner.halftone
//!       ├─ Compressor.compress
//!       └─ Rasterizer.rasterize
//!          ├─ MarkingEngine.mark   (once per page)
//!          └─ Finisher.finish
//! ```
//!
//! with one-way `StatusMonitor.report` events fired from the spooler, the
//! rasterizer and the finisher.

use crate::script::{Action, MethodScript, ScriptedServant};
use causeway_core::ids::ProcessId;
use causeway_core::manual::ManualProbe;
use causeway_core::monitor::ProbeMode;
use causeway_core::runlog::RunLog;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The 11 components of the PPS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageName {
    /// Accepts jobs from the driver.
    JobSource,
    /// Queues jobs.
    Spooler,
    /// Interprets the page description language.
    Interpreter,
    /// Computes page layout.
    LayoutEngine,
    /// Converts color spaces.
    ColorConverter,
    /// Applies halftoning.
    Halftoner,
    /// Compresses the raster.
    Compressor,
    /// Produces the final raster.
    Rasterizer,
    /// Drives the print engine.
    MarkingEngine,
    /// Staples/collates.
    Finisher,
    /// Receives one-way status events.
    StatusMonitor,
}

impl StageName {
    /// All stages in pipeline order.
    pub const ALL: [StageName; 11] = [
        StageName::JobSource,
        StageName::Spooler,
        StageName::Interpreter,
        StageName::LayoutEngine,
        StageName::ColorConverter,
        StageName::Halftoner,
        StageName::Compressor,
        StageName::Rasterizer,
        StageName::MarkingEngine,
        StageName::Finisher,
        StageName::StatusMonitor,
    ];

    /// The component's display name.
    pub fn as_str(self) -> &'static str {
        match self {
            StageName::JobSource => "JobSource",
            StageName::Spooler => "Spooler",
            StageName::Interpreter => "Interpreter",
            StageName::LayoutEngine => "LayoutEngine",
            StageName::ColorConverter => "ColorConverter",
            StageName::Halftoner => "Halftoner",
            StageName::Compressor => "Compressor",
            StageName::Rasterizer => "Rasterizer",
            StageName::MarkingEngine => "MarkingEngine",
            StageName::Finisher => "Finisher",
            StageName::StatusMonitor => "StatusMonitor",
        }
    }
}

/// How the PPS is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PpsDeployment {
    /// Everything in one process on one HPUX node, driven by a single
    /// thread — the paper's "monolithic single-thread configuration".
    Monolithic,
    /// The paper's "single-processor 4-process" configuration (all HPUX).
    #[default]
    FourProcess,
    /// Three nodes with different CPU types (HPUX, WindowsNT, VxWorks),
    /// four processes.
    MultiNode,
}

/// PPS configuration.
#[derive(Debug, Clone)]
pub struct PpsConfig {
    /// Deployment shape.
    pub deployment: PpsDeployment,
    /// Base probe mode for every interface (canonical names:
    /// `causality-only`, `latency`, `cpu`, `both` — see
    /// [`ProbeMode`]'s `FromStr`). A shared [`causeway_core::monitor::ProbePolicy`]
    /// can override it per interface at runtime.
    pub probe_mode: ProbeMode,
    /// Instrumented or plain stubs (plain for manual-measurement runs).
    pub instrumented: bool,
    /// Collocation optimization (the paper's latency experiment ran with it
    /// turned off so in-process calls still cross the full stub/skeleton
    /// path).
    pub collocation_optimization: bool,
    /// Pages per job (each page is one `MarkingEngine.mark` call).
    pub pages_per_job: usize,
    /// Scales every stage's work (1.0 = the defaults below; use smaller in
    /// unit tests).
    pub work_scale: f64,
    /// Manual-measurement probes to install around call sites at build time
    /// (`(caller stage, callee method, probe)`), reproducing the paper's
    /// "one probe for one target function in one system run".
    pub manual_call_probes: Vec<(StageName, &'static str, Arc<ManualProbe>)>,
}

impl Default for PpsConfig {
    fn default() -> Self {
        PpsConfig {
            deployment: PpsDeployment::FourProcess,
            probe_mode: ProbeMode::Latency,
            instrumented: true,
            collocation_optimization: false,
            pages_per_job: 2,
            work_scale: 1.0,
            manual_call_probes: Vec::new(),
        }
    }
}

/// The IDL all stages share.
pub const PPS_IDL: &str = r#"
    module Pps {
        interface Stage {
            long submit(in long job);
            long enqueue(in long job);
            long interpret(in long job);
            long layout(in long job);
            long convert(in long job);
            long halftone(in long job);
            long compress(in long job);
            long rasterize(in long job);
            long mark(in long page);
            long finish(in long job);
            oneway void report(in long code);
        };
    };
"#;

/// Per-stage work parameters (wall µs, cpu µs) at scale 1.0.
fn stage_work(stage: StageName) -> (u64, u64) {
    match stage {
        StageName::JobSource => (20, 10),
        StageName::Spooler => (40, 20),
        StageName::Interpreter => (300, 250),
        StageName::LayoutEngine => (150, 120),
        StageName::ColorConverter => (180, 150),
        StageName::Halftoner => (120, 100),
        StageName::Compressor => (90, 80),
        StageName::Rasterizer => (400, 350),
        StageName::MarkingEngine => (200, 60),
        StageName::Finisher => (80, 40),
        StageName::StatusMonitor => (10, 5),
    }
}

/// A built PPS instance.
pub struct Pps {
    /// The underlying system.
    pub system: System,
    /// Stage object references, indexed by [`StageName::ALL`] order.
    pub stages: Vec<ObjRef>,
    /// Stage servants (for attaching manual probes), same order.
    pub servants: Vec<Arc<ScriptedServant>>,
    /// The process the driver issues jobs from.
    pub driver: ProcessId,
}

impl std::fmt::Debug for Pps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pps").field("stages", &self.stages.len()).finish()
    }
}

impl Pps {
    /// Builds and starts a PPS.
    pub fn build(config: &PpsConfig) -> Pps {
        let mut builder = System::builder();
        builder
            .probe_mode(config.probe_mode)
            .instrumented(config.instrumented)
            .collocation_optimization(config.collocation_optimization);

        // Nodes and processes per deployment.
        let (processes, driver) = match config.deployment {
            PpsDeployment::Monolithic => {
                let hp = builder.node("hpux-1", "HPUX");
                let p = builder.process("pps", hp, ThreadingPolicy::ThreadPerRequest);
                (vec![p; 4], p)
            }
            PpsDeployment::FourProcess => {
                let hp = builder.node("hpux-1", "HPUX");
                let ps: Vec<ProcessId> = (0..4)
                    .map(|i| {
                        builder.process(&format!("pps-{i}"), hp, ThreadingPolicy::ThreadPerRequest)
                    })
                    .collect();
                let driver = ps[0];
                (ps, driver)
            }
            PpsDeployment::MultiNode => {
                let hp = builder.node("hpux-1", "HPUX");
                let nt = builder.node("nt-1", "WindowsNT");
                let vx = builder.node("vxworks-1", "VxWorks");
                let p0 = builder.process("frontend", hp, ThreadingPolicy::ThreadPerRequest);
                let p1 = builder.process("imaging", nt, ThreadingPolicy::ThreadPerRequest);
                let p2 = builder.process("raster", nt, ThreadingPolicy::ThreadPerRequest);
                let p3 = builder.process("engine", vx, ThreadingPolicy::ThreadPerRequest);
                (vec![p0, p1, p2, p3], p0)
            }
        };

        let system = builder.build();
        system.load_idl(PPS_IDL).expect("PPS IDL is well-formed");

        // Stage → process assignment (matching the paper's 4-process split).
        let placement = |stage: StageName| -> ProcessId {
            match stage {
                StageName::JobSource | StageName::Spooler | StageName::StatusMonitor => {
                    processes[0]
                }
                StageName::Interpreter | StageName::LayoutEngine => processes[1],
                StageName::ColorConverter | StageName::Halftoner | StageName::Compressor => {
                    processes[2]
                }
                StageName::Rasterizer | StageName::MarkingEngine | StageName::Finisher => {
                    processes[3]
                }
            }
        };

        let scale = |us: u64| -> u64 { ((us as f64) * config.work_scale).round() as u64 };

        // Wired-slot layout per stage (slot indexes into each servant):
        //   JobSource:     0 = Spooler
        //   Spooler:       0 = Interpreter, 1 = StatusMonitor
        //   Interpreter:   0 = LayoutEngine, 1 = ColorConverter,
        //                  2 = Compressor, 3 = Rasterizer
        //   ColorConverter:0 = Halftoner
        //   Rasterizer:    0 = MarkingEngine, 1 = Finisher, 2 = StatusMonitor
        //   Finisher:      0 = StatusMonitor
        let scripts = |stage: StageName| -> Vec<MethodScript> {
            let (wall, cpu) = stage_work(stage);
            let work = Action::Work { wall_us: scale(wall), cpu_us: scale(cpu) };
            // One script per method in PPS_IDL declaration order; a stage
            // implements "its" method and leaves the others empty.
            let mut methods = vec![MethodScript::default(); 11];
            let set = |methods: &mut Vec<MethodScript>, idx: usize, actions: Vec<Action>| {
                methods[idx] = MethodScript::new(actions);
            };
            match stage {
                StageName::JobSource => set(
                    &mut methods,
                    0, // submit
                    vec![work, Action::Call { target: 0, method: "enqueue", manual: None }],
                ),
                StageName::Spooler => set(
                    &mut methods,
                    1, // enqueue
                    vec![
                        work,
                        Action::CallOneway { target: 1, method: "report" },
                        Action::Call { target: 0, method: "interpret", manual: None },
                    ],
                ),
                StageName::Interpreter => set(
                    &mut methods,
                    2, // interpret
                    vec![
                        work,
                        Action::Call { target: 0, method: "layout", manual: None },
                        Action::Call { target: 1, method: "convert", manual: None },
                        Action::Call { target: 2, method: "compress", manual: None },
                        Action::Call { target: 3, method: "rasterize", manual: None },
                    ],
                ),
                StageName::LayoutEngine => set(&mut methods, 3, vec![work]),
                StageName::ColorConverter => set(
                    &mut methods,
                    4, // convert
                    vec![work, Action::Call { target: 0, method: "halftone", manual: None }],
                ),
                StageName::Halftoner => set(&mut methods, 5, vec![work]),
                StageName::Compressor => set(&mut methods, 6, vec![work]),
                StageName::Rasterizer => {
                    let mut actions = vec![work];
                    for _ in 0..config.pages_per_job {
                        actions.push(Action::Call { target: 0, method: "mark", manual: None });
                    }
                    actions.push(Action::CallOneway { target: 2, method: "report" });
                    actions.push(Action::Call { target: 1, method: "finish", manual: None });
                    set(&mut methods, 7, actions);
                }
                StageName::MarkingEngine => set(&mut methods, 8, vec![work]),
                StageName::Finisher => set(
                    &mut methods,
                    9, // finish
                    vec![work, Action::CallOneway { target: 0, method: "report" }],
                ),
                StageName::StatusMonitor => set(&mut methods, 10, vec![work]),
            }
            // Install any configured manual probes on this stage's call
            // sites.
            for script in &mut methods {
                for action in &mut script.actions {
                    if let Action::Call { method, manual, .. } = action {
                        if manual.is_none() {
                            *manual = config
                                .manual_call_probes
                                .iter()
                                .find(|(s, m, _)| *s == stage && m == method)
                                .map(|(_, _, p)| Arc::clone(p));
                        }
                    }
                }
            }
            methods
        };

        // Register all stages.
        let mut stages = Vec::new();
        let mut servants = Vec::new();
        for stage in StageName::ALL {
            let servant = ScriptedServant::new(scripts(stage));
            let obj = system
                .register_servant(
                    placement(stage),
                    "Pps::Stage",
                    stage.as_str(),
                    &format!("{}#0", stage.as_str()),
                    servant.clone(),
                )
                .expect("PPS registration");
            stages.push(obj);
            servants.push(servant);
        }

        let obj_of = |stage: StageName| stages[StageName::ALL.iter().position(|s| *s == stage).expect("stage in ALL")];
        let servant_of = |stage: StageName| {
            &servants[StageName::ALL.iter().position(|s| *s == stage).expect("stage in ALL")]
        };

        servant_of(StageName::JobSource).wire(0, obj_of(StageName::Spooler));
        servant_of(StageName::Spooler).wire(0, obj_of(StageName::Interpreter));
        servant_of(StageName::Spooler).wire(1, obj_of(StageName::StatusMonitor));
        servant_of(StageName::Interpreter).wire(0, obj_of(StageName::LayoutEngine));
        servant_of(StageName::Interpreter).wire(1, obj_of(StageName::ColorConverter));
        servant_of(StageName::Interpreter).wire(2, obj_of(StageName::Compressor));
        servant_of(StageName::Interpreter).wire(3, obj_of(StageName::Rasterizer));
        servant_of(StageName::ColorConverter).wire(0, obj_of(StageName::Halftoner));
        servant_of(StageName::Rasterizer).wire(0, obj_of(StageName::MarkingEngine));
        servant_of(StageName::Rasterizer).wire(1, obj_of(StageName::Finisher));
        servant_of(StageName::Rasterizer).wire(2, obj_of(StageName::StatusMonitor));
        servant_of(StageName::Finisher).wire(0, obj_of(StageName::StatusMonitor));

        system.start();
        Pps { system, stages, servants, driver }
    }

    /// The object reference of a stage.
    pub fn stage(&self, stage: StageName) -> ObjRef {
        self.stages[StageName::ALL.iter().position(|s| *s == stage).expect("stage in ALL")]
    }

    /// The servant of a stage (for manual probes).
    pub fn servant(&self, stage: StageName) -> &Arc<ScriptedServant> {
        &self.servants[StageName::ALL.iter().position(|s| *s == stage).expect("stage in ALL")]
    }

    /// Runs `jobs` print jobs sequentially from the driver, one causal chain
    /// per job.
    ///
    /// # Panics
    ///
    /// Panics if any job fails — the PPS scripts are infallible by
    /// construction, so a failure is a harness bug.
    pub fn run_jobs(&self, jobs: usize) {
        let client = self.system.client(self.driver);
        let source = self.stage(StageName::JobSource);
        for job in 0..jobs {
            client.begin_root();
            client
                .invoke(&source, "submit", vec![Value::I64(job as i64)])
                .expect("PPS job");
        }
        self.system
            .quiesce(Duration::from_secs(30))
            .expect("PPS quiesces");
    }

    /// Drives jobs continuously until `stop` is raised, pacing one job per
    /// `pace` (zero paces as fast as the pipeline completes), then quiesces
    /// so every submitted job's records are pushed. Returns the number of
    /// jobs submitted — the long-running load behind the live monitoring
    /// service.
    pub fn drive(&self, stop: &std::sync::atomic::AtomicBool, pace: Duration) -> usize {
        use std::sync::atomic::Ordering;
        let client = self.system.client(self.driver);
        let source = self.stage(StageName::JobSource);
        let mut jobs = 0usize;
        while !stop.load(Ordering::Relaxed) {
            client.begin_root();
            client
                .invoke(&source, "submit", vec![Value::I64(jobs as i64)])
                .expect("PPS job");
            jobs += 1;
            if !pace.is_zero() {
                std::thread::sleep(pace);
            }
        }
        self.system
            .quiesce(Duration::from_secs(30))
            .expect("PPS quiesces");
        jobs
    }

    /// Stops the system and returns its run log.
    pub fn finish(self) -> RunLog {
        self.system.shutdown();
        self.system.harvest()
    }

    /// Number of synchronous invocations each job produces (including the
    /// root `submit`): 9 fixed stages + one `mark` per page.
    pub fn sync_calls_per_job(config: &PpsConfig) -> usize {
        9 + config.pages_per_job
    }

    /// Number of one-way invocations each job produces.
    pub const ONEWAY_CALLS_PER_JOB: usize = 3;
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_analyzer::dscg::Dscg;
    use causeway_collector::db::MonitoringDb;

    fn small(deployment: PpsDeployment) -> PpsConfig {
        PpsConfig {
            deployment,
            work_scale: 0.05,
            pages_per_job: 2,
            ..PpsConfig::default()
        }
    }

    #[test]
    fn four_process_pps_produces_clean_chains() {
        let config = small(PpsDeployment::FourProcess);
        let pps = Pps::build(&config);
        pps.run_jobs(3);
        assert_eq!(pps.system.anomaly_count(), 0);
        let db = MonitoringDb::from_run(pps.finish());
        let dscg = Dscg::build(&db);
        assert!(dscg.abnormalities.is_empty(), "{:?}", dscg.abnormalities);
        assert_eq!(dscg.trees.len(), 3);
        let per_job = Pps::sync_calls_per_job(&config) + Pps::ONEWAY_CALLS_PER_JOB;
        assert_eq!(dscg.total_nodes(), 3 * per_job);
        // All 11 components appear.
        let stats = db.scale_stats();
        assert_eq!(stats.unique_components, 11);
        assert_eq!(stats.processes, 4);
    }

    #[test]
    fn monolithic_pps_is_single_process_collocated() {
        let mut config = small(PpsDeployment::Monolithic);
        config.collocation_optimization = true;
        let pps = Pps::build(&config);
        pps.run_jobs(2);
        let db = MonitoringDb::from_run(pps.finish());
        let stats = db.scale_stats();
        assert_eq!(stats.processes, 1);
        // Synchronous pipeline stages ran collocated; only the one-way
        // status events cross threads.
        let sync_kinds: std::collections::HashSet<_> = db
            .records()
            .iter()
            .filter(|r| r.kind != causeway_core::event::CallKind::Oneway)
            .map(|r| r.kind)
            .collect();
        assert_eq!(
            sync_kinds,
            std::iter::once(causeway_core::event::CallKind::Collocated).collect()
        );
    }

    #[test]
    fn multi_node_pps_spans_three_cpu_types() {
        let pps = Pps::build(&small(PpsDeployment::MultiNode));
        pps.run_jobs(2);
        let db = MonitoringDb::from_run(pps.finish());
        assert_eq!(db.deployment().distinct_cpu_types().len(), 3);
        let dscg = Dscg::build(&db);
        assert!(dscg.abnormalities.is_empty());
    }
}
