//! The analyst's batch job: a sealed segment file on disk to a complete
//! characterization (DSCG, latency, CPU, CCSG, one rendered view).

use crate::span::span;
use causeway_analyzer::ccsg::Ccsg;
use causeway_analyzer::cpu::CpuAnalysis;
use causeway_analyzer::dscg::Dscg;
use causeway_analyzer::latency::LatencyAnalysis;
use causeway_analyzer::render::ccsg_xml;
use causeway_collector::db::MonitoringDb;
use causeway_collector::segment;
use causeway_core::monitor::ProbeMode;
use causeway_workloads::{CommercialConfig, CommercialSystem};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which commercial system set-up runs to produce the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's system: 176 components, 801 methods, ~195,000 calls.
    Paper,
    /// Same topology rules, ~`0` calls over 24 components.
    Scaled(usize),
}

pub struct OfflineInput {
    pub path: PathBuf,
    /// Invocations the generator planned, one DSCG node each.
    pub planned_calls: usize,
    /// Root transactions issued, one DSCG tree each.
    pub roots: usize,
}

/// Runs the monitored commercial system and writes its log to `path`.
pub fn generate(scale: Scale, seed: u64, path: &Path) -> OfflineInput {
    let shape = match scale {
        Scale::Paper => CommercialConfig {
            seed,
            ..CommercialConfig::default()
        },
        Scale::Scaled(calls) => CommercialConfig::scaled(calls, seed),
    };
    // Both stamp families, so the latency and CPU passes have data to
    // characterize (the shape's default records causality only).
    let commercial = CommercialSystem::build(&CommercialConfig {
        probe_mode: ProbeMode::Both,
        ..shape
    });
    let planned_calls = commercial.planned_calls;
    let roots = commercial.run();
    let run = commercial.finish();
    let bytes = segment::write_run_log(&run);
    std::fs::write(path, &bytes).expect("write the run log segment");
    OfflineInput {
        path: path.to_owned(),
        planned_calls,
        roots,
    }
}

pub struct OfflineResult {
    pub analyze_s: Vec<f64>,
    pub trees: usize,
    pub nodes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// What one analysis built, for the output checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    trees: usize,
    nodes: usize,
    abnormalities: usize,
    /// `false` only when checked and found unequal.
    equals_serial_build: bool,
}

/// One analysis, file to rendered view. With `check_serial` it goes on,
/// untimed by the caller's clock, to compare the DSCG with the one-thread
/// build; nothing it built outlives the call.
fn analyze(path: &Path, check_serial: bool) -> (f64, Shape) {
    let started = Instant::now();
    let bytes = span("std::fs::read", || {
        let bytes = std::fs::read(path).expect("read the run log segment");
        let n = bytes.len() as u64;
        (bytes, n)
    });
    let run = span("collector::segment::read_run_log", || {
        let run = segment::read_run_log(&bytes).expect("the segment written in set-up reads clean");
        let n = run.len() as u64;
        (run, n)
    });
    drop(bytes);
    let records = run.len() as u64;
    let db = span("collector::db::from_run", || {
        (MonitoringDb::from_run(run), records)
    });
    let dscg = span("analyzer::dscg::build", || {
        let dscg = Dscg::build(&db);
        let n = dscg.total_nodes() as u64;
        (dscg, n)
    });
    let nodes = dscg.total_nodes() as u64;
    let latency = span("analyzer::latency::compute", || {
        (LatencyAnalysis::compute(&dscg), nodes)
    });
    let cpu = span("analyzer::cpu::compute", || {
        (CpuAnalysis::compute(&dscg, db.deployment()), nodes)
    });
    let ccsg = span("analyzer::ccsg::build", || {
        (Ccsg::build(&dscg, db.deployment()), nodes)
    });
    let xml = span("analyzer::render::ccsg_xml", || {
        let xml = ccsg_xml(&ccsg, db.vocab());
        let n = xml.len() as u64;
        (xml, n)
    });
    black_box((latency, cpu, xml));
    let seconds = started.elapsed().as_secs_f64();
    let shape = Shape {
        trees: dscg.trees.len(),
        nodes: dscg.total_nodes(),
        abnormalities: dscg.abnormalities.len(),
        equals_serial_build: !check_serial || Dscg::build_with_threads(&db, 1) == dscg,
    };
    (seconds, shape)
}

/// The stage while it runs.
pub struct OfflineStage<'a> {
    input: &'a OfflineInput,
    analyze_s: Vec<f64>,
    shapes: Vec<Shape>,
}

impl<'a> OfflineStage<'a> {
    pub fn start(input: &'a OfflineInput) -> OfflineStage<'a> {
        OfflineStage {
            input,
            analyze_s: Vec::new(),
            shapes: Vec::new(),
        }
    }

    /// Analyses for about `budget`, at least one. The first analysis of
    /// the run also checks the DSCG against the serial build.
    pub fn round(&mut self, budget: Duration) {
        let started = Instant::now();
        loop {
            crate::span::set_trial(self.analyze_s.len() as u32);
            let first = self.shapes.is_empty();
            let (seconds, shape) =
                span("offline::analyze", || (analyze(&self.input.path, first), 1));
            self.analyze_s.push(seconds);
            self.shapes.push(shape);
            if started.elapsed() >= budget {
                return;
            }
        }
    }

    /// Checks every graph built against the generator's plan.
    pub fn finish(self) -> OfflineResult {
        let OfflineStage {
            input,
            analyze_s,
            shapes,
        } = self;
        let planned = Shape {
            trees: input.roots,
            nodes: input.planned_calls,
            abnormalities: 0,
            equals_serial_build: true,
        };
        let mut problems = Vec::new();
        if let Some(wrong) = shapes.iter().find(|shape| **shape != planned) {
            problems.push(format!(
                "offline: an analysis built {wrong:?}, the generator planned {planned:?}"
            ));
        }
        let attempted = analyze_s.len() as u64;
        OfflineResult {
            analyze_s,
            trees: planned.trees,
            nodes: planned.nodes,
            attempted,
            failed: if problems.is_empty() { 0 } else { attempted },
            problems,
        }
    }
}
