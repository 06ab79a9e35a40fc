//! Closed-loop rate through `LiveMonitor::ingest_batch_at`: the stream is
//! fed in 1024-record batches as fast as the call returns. No sink, disk
//! or HTTP — windows, exemplars, flamegraph fold and history do all the
//! work.

use crate::gen::{self, Disordered};
use crate::span::span;
use crate::steady::live_config;
use causeway_analyzer::live::{LiveConfig, LiveMonitor};
use causeway_core::deploy::Deployment;
use causeway_core::names::VocabSnapshot;
use causeway_core::record::ProbeRecord;
use std::time::{Duration, Instant};

pub const BATCH_RECORDS: usize = 1024;
/// Window time advanced per batch: real time at about a million records
/// per second, so a 250 ms window closes every ~250 batches at any speed.
const BATCH_NS: u64 = 1_000_000;

pub struct IngestInput {
    pub stream: Vec<ProbeRecord>,
    /// Open-call records ingested, untimed, before each trial: the chains a
    /// long-running monitor already holds open.
    pub preload: Vec<ProbeRecord>,
    /// What the generator knows must come out.
    pub expect: Expect,
    pub vocab: VocabSnapshot,
    pub deployment: Deployment,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    pub completed_min: u64,
    pub completed_max: u64,
    pub abnormal_min: u64,
    /// `None` when faults make the abnormality count unknowable.
    pub abnormal_max: Option<u64>,
}

impl Expect {
    /// Every call of every job completes and nothing is abnormal.
    pub fn clean(jobs: u64) -> Expect {
        let completed = jobs * gen::COMPLETIONS_PER_JOB;
        Expect {
            completed_min: completed,
            completed_max: completed,
            abnormal_min: 0,
            abnormal_max: Some(0),
        }
    }

    /// Untouched jobs complete in full; a job whose only fault is a
    /// wrong-method record raises at least one abnormality.
    pub fn disordered(d: &Disordered) -> Expect {
        Expect {
            completed_min: d.clean_jobs * gen::COMPLETIONS_PER_JOB,
            completed_max: d.jobs * gen::COMPLETIONS_PER_JOB,
            abnormal_min: d.mutated_only_jobs,
            abnormal_max: None,
        }
    }
}

/// What one pass left in the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub completed: u64,
    pub abnormal: u64,
    pub open_chains: u64,
}

pub struct IngestResult {
    pub records_per_s: Vec<f64>,
    /// The one-shard reference pass.
    pub serial_records_per_s: f64,
    pub totals: Totals,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

fn monitor(input: &IngestInput, shards: Option<usize>) -> LiveMonitor {
    let mut config: LiveConfig = live_config();
    if let Some(shards) = shards {
        config.shards = shards;
    }
    LiveMonitor::new(config, input.vocab.clone(), input.deployment.clone())
}

/// One pass of the whole stream through a fresh monitor; returns the timed
/// part and what the monitor then holds.
pub fn pass(input: &IngestInput, shards: Option<usize>) -> (Duration, Totals) {
    let monitor = monitor(input, shards);
    if !input.preload.is_empty() {
        monitor.ingest_batch_at(input.preload.clone(), 0);
    }
    let batches: Vec<Vec<ProbeRecord>> = input
        .stream
        .chunks(BATCH_RECORDS)
        .map(<[_]>::to_vec)
        .collect();
    let name = match shards {
        None => "analyzer::live::ingest_batch_at",
        Some(_) => "analyzer::live::ingest_batch_at[shards=1]",
    };
    let started = Instant::now();
    for (i, batch) in batches.into_iter().enumerate() {
        span(name, || {
            let n = batch.len() as u64;
            (monitor.ingest_batch_at(batch, (i as u64 + 1) * BATCH_NS), n)
        });
    }
    let elapsed = started.elapsed();
    let totals = Totals {
        completed: monitor.total_completed(),
        abnormal: monitor.total_abnormalities(),
        open_chains: monitor.open_chain_summaries().len() as u64,
    };
    (elapsed, totals)
}

/// The stage while it runs.
pub struct IngestStage<'a> {
    input: &'a IngestInput,
    records_per_s: Vec<f64>,
    totals: Option<Totals>,
    problems: Vec<String>,
}

impl<'a> IngestStage<'a> {
    pub fn start(input: &'a IngestInput) -> IngestStage<'a> {
        IngestStage {
            input,
            records_per_s: Vec::new(),
            totals: None,
            problems: Vec::new(),
        }
    }

    /// Passes at the default shard count for about `budget`, at least one.
    pub fn round(&mut self, budget: Duration) {
        let started = Instant::now();
        loop {
            crate::span::set_trial(self.records_per_s.len() as u32);
            let (elapsed, now) = pass(self.input, None);
            self.records_per_s
                .push(self.input.stream.len() as f64 / elapsed.as_secs_f64());
            if *self.totals.get_or_insert(now) != now {
                self.problems.push(format!(
                    "ingest: totals differ between trials: {:?} vs {now:?}",
                    self.totals
                ));
            }
            if started.elapsed() >= budget {
                return;
            }
        }
    }

    /// One more pass at one shard, the reference the totals must match,
    /// then the generator's own expectations.
    pub fn finish(self) -> IngestResult {
        let IngestStage {
            input,
            records_per_s,
            totals,
            mut problems,
        } = self;
        let totals = totals.expect("at least one round ran");
        let (serial_elapsed, serial) = pass(input, Some(1));
        if serial != totals {
            problems.push(format!(
                "ingest: shards=1 gives {serial:?}, default shards {totals:?}"
            ));
        }
        let e = input.expect;
        if totals.completed < e.completed_min || totals.completed > e.completed_max {
            problems.push(format!(
                "ingest: {} calls completed, generator expects {}..={}",
                totals.completed, e.completed_min, e.completed_max
            ));
        }
        if totals.abnormal < e.abnormal_min
            || e.abnormal_max.is_some_and(|max| totals.abnormal > max)
        {
            problems.push(format!(
                "ingest: {} abnormalities, generator expects at least {} (at most {:?})",
                totals.abnormal, e.abnormal_min, e.abnormal_max
            ));
        }
        if totals.open_chains < input.preload.len() as u64 {
            problems.push(format!(
                "ingest: {} chains open, {} were opened and never closed",
                totals.open_chains,
                input.preload.len()
            ));
        }
        let attempted = input.stream.len() as u64 * records_per_s.len() as u64;
        IngestResult {
            records_per_s,
            serial_records_per_s: input.stream.len() as f64 / serial_elapsed.as_secs_f64(),
            totals,
            attempted,
            failed: if problems.is_empty() { 0 } else { attempted },
            problems,
        }
    }
}
