//! What monitoring costs the application: the same PPS print jobs through
//! plain stubs and through instrumented stubs, closed loop from one
//! driver, with a collector thread streaming sealed chunks out of every
//! process's `LogStore` as a deployment would.

use crate::span::span;
use crate::stats::median;
use causeway_core::ids::ProcessId;
use causeway_core::monitor::ProbeMode;
use causeway_core::sink::LogStore;
use causeway_core::value::Value;
use causeway_workloads::{Pps, PpsConfig, PpsDeployment, StageName};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the collector sweeps the stores, as a live monitor would.
const COLLECT_INTERVAL: Duration = Duration::from_millis(5);

fn config(mode: Option<ProbeMode>) -> PpsConfig {
    PpsConfig {
        deployment: PpsDeployment::FourProcess,
        probe_mode: mode.unwrap_or_default(),
        instrumented: mode.is_some(),
        pages_per_job: 2,
        // No scripted sleeps: middleware and probes are all the work.
        work_scale: 0.0,
        ..PpsConfig::default()
    }
}

/// Invocations one job makes (11 synchronous + 3 one-way).
fn calls_per_job() -> u64 {
    (Pps::sync_calls_per_job(&config(None)) + Pps::ONEWAY_CALLS_PER_JOB) as u64
}

/// Records one instrumented job leaves: four per synchronous call, and
/// four per one-way call (stub start/end in the caller's chain, skeleton
/// start/end in the child chain).
fn records_per_job() -> u64 {
    4 * calls_per_job()
}

/// One PPS under one probe setting (`None` = plain stubs).
pub struct Variant {
    pub label: &'static str,
    mode: Option<ProbeMode>,
    pps: Pps,
    jobs: u64,
    /// Microseconds per invocation, one entry per trial.
    pub call_us: Vec<f64>,
    /// Microseconds per job, every job of every trial.
    pub job_us: Vec<f64>,
}

impl Variant {
    fn build(label: &'static str, mode: Option<ProbeMode>) -> Variant {
        let pps = Pps::build(&config(mode));
        // Warm-up: engine threads started, vocabulary and TLS slots cached.
        pps.run_jobs(20);
        Variant {
            label,
            mode,
            pps,
            jobs: 20,
            call_us: Vec::new(),
            job_us: Vec::new(),
        }
    }

    pub fn system(&self) -> &causeway_orb::System {
        &self.pps.system
    }

    fn stores(&self) -> Vec<LogStore> {
        (0..4)
            .map(|p| self.pps.system.orb(ProcessId(p)).monitor().store().clone())
            .collect()
    }

    /// Runs jobs back to back for `budget`, then lets the pipeline drain.
    fn trial(&mut self, budget: Duration) {
        crate::span::set_trial(self.call_us.len() as u32);
        let client = self.pps.system.client(self.pps.driver);
        let source = self.pps.stage(StageName::JobSource);
        let started = Instant::now();
        let mut jobs = 0u64;
        let mut job_started = started;
        while job_started.duration_since(started) < budget {
            span("orb::client::invoke", || {
                client.begin_root();
                let reply = client.invoke(&source, "submit", vec![Value::I64(jobs as i64)]);
                black_box(reply).expect("PPS scripts cannot fail");
                ((), calls_per_job())
            });
            jobs += 1;
            let now = Instant::now();
            self.job_us
                .push(now.duration_since(job_started).as_secs_f64() * 1e6);
            job_started = now;
        }
        let elapsed = job_started.duration_since(started);
        self.pps
            .system
            .quiesce(Duration::from_secs(30))
            .expect("PPS quiesces");
        self.pps.system.flush_local_logs();
        self.jobs += jobs;
        self.call_us
            .push(elapsed.as_secs_f64() * 1e6 / (jobs * calls_per_job()) as f64);
    }
}

/// The systems the stage drives, built during set-up.
pub struct App {
    pub variants: Vec<Variant>,
}

impl App {
    /// Plain and `latency` always; every probe mode when `all_modes`.
    pub fn build(all_modes: bool) -> App {
        let mut variants = vec![
            Variant::build("plain", None),
            Variant::build("latency", Some(ProbeMode::Latency)),
        ];
        if all_modes {
            variants.push(Variant::build(
                "causality_only",
                Some(ProbeMode::CausalityOnly),
            ));
            variants.push(Variant::build("cpu", Some(ProbeMode::Cpu)));
            variants.push(Variant::build("both", Some(ProbeMode::Both)));
        }
        App { variants }
    }
}

pub struct AppResult {
    /// Median over trials of the `latency` variant.
    pub call_us: f64,
    /// Median over trials of `latency` ÷ plain, paired trial by trial.
    pub overhead_ratio: f64,
    /// Median µs per call of every variant, by label.
    pub by_mode_us: Vec<(&'static str, f64)>,
    /// Every job of the `latency` variant, µs.
    pub job_us: Vec<f64>,
    /// Per-trial µs per call of the plain and `latency` variants.
    pub plain_call_us: Vec<f64>,
    pub latency_call_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// The stage while it runs: the systems, and a collector thread
/// streaming chunks out of every store between and during trials.
pub struct AppStage {
    variants: Vec<Variant>,
    stop: Arc<AtomicBool>,
    collector: JoinHandle<Vec<u64>>,
}

impl AppStage {
    pub fn start(app: App) -> AppStage {
        let stop = Arc::new(AtomicBool::new(false));
        let stores: Vec<Vec<LogStore>> = app.variants.iter().map(Variant::stores).collect();
        let stopping = Arc::clone(&stop);
        let collector = std::thread::spawn(move || {
            let mut collected = vec![0u64; stores.len()];
            loop {
                // Read the flag first: a final sweep after it is raised
                // sees everything pushed before it.
                let last = stopping.load(Ordering::Acquire);
                for (variant, stores) in stores.iter().enumerate() {
                    for store in stores {
                        collected[variant] += store
                            .drain_chunks()
                            .iter()
                            .map(|c| c.len() as u64)
                            .sum::<u64>();
                    }
                }
                if last {
                    return collected;
                }
                std::thread::sleep(COLLECT_INTERVAL);
            }
        });
        AppStage {
            variants: app.variants,
            stop,
            collector,
        }
    }

    pub fn variants(&self) -> usize {
        self.variants.len()
    }

    /// One trial of every variant, `per_variant` long each, interleaved.
    pub fn round(&mut self, per_variant: Duration) {
        for variant in &mut self.variants {
            variant.trial(per_variant);
        }
    }

    /// Stops the collector and checks it saw every record, and only
    /// records of instrumented systems.
    pub fn finish(self) -> AppResult {
        self.stop.store(true, Ordering::Release);
        let collected = self.collector.join().expect("collector thread");
        let mut problems = Vec::new();
        let mut failed = 0;
        for (variant, collected) in self.variants.iter().zip(&collected) {
            let expected = if variant.mode.is_some() {
                variant.jobs * records_per_job()
            } else {
                0
            };
            if *collected != expected {
                failed += collected.abs_diff(expected);
                problems.push(format!(
                    "app/{}: collected {collected} records over {} jobs, expected {expected}",
                    variant.label, variant.jobs
                ));
            }
            variant.pps.system.shutdown();
        }
        let mut variants = self.variants;
        let plain = std::mem::take(&mut variants[0].call_us);
        let latency = std::mem::take(&mut variants[1].call_us);
        let ratios: Vec<f64> = latency.iter().zip(&plain).map(|(l, p)| l / p).collect();
        let mut by_mode_us = vec![("plain", median(&plain)), ("latency", median(&latency))];
        by_mode_us.extend(variants[2..].iter().map(|v| (v.label, median(&v.call_us))));
        AppResult {
            call_us: median(&latency),
            overhead_ratio: median(&ratios),
            by_mode_us,
            job_us: std::mem::take(&mut variants[1].job_us),
            plain_call_us: plain,
            latency_call_us: latency,
            attempted: variants.iter().map(|v| v.jobs * calls_per_job()).sum(),
            failed,
            problems,
        }
    }
}
