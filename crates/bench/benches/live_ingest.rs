//! `live_ingest`: one 1024-record batch through
//! `LiveMonitor::ingest_batch_at`, the live monitor's hot path, on a clean
//! in-order stream of PPS-sized jobs (one root call over 13 children, 56
//! records), and the same with 50,000 chains already open. Re-measures the
//! per-batch cost without the ledger (`bench_report/`); the two rows should
//! match, because per-batch cost must not grow with the open chains.

use causeway_bench::sample_record;
use causeway_analyzer::live::{LiveConfig, LiveMonitor};
use causeway_core::deploy::Deployment;
use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::ids::{InterfaceId, MethodIndex, ObjectId};
use causeway_core::names::{InterfaceEntry, VocabSnapshot};
use causeway_core::record::{FunctionKey, ProbeRecord};
use causeway_core::uuid::Uuid;
use criterion::{Criterion, criterion_group, criterion_main};
use std::time::{Duration, Instant};

const BATCH_RECORDS: usize = 1024;
/// Window time per batch, as in the ledger: 250 ms windows close every
/// 250 batches.
const BATCH_NS: u64 = 1_000_000;
const CHILDREN: u16 = 13;
const OPEN_CHAINS: u128 = 50_000;
/// Chain ids of the open backlog, clear of the jobs' ids.
const OPEN_BASE: u128 = 1 << 100;

fn vocab() -> VocabSnapshot {
    VocabSnapshot {
        interfaces: vec![InterfaceEntry {
            name: "Pps::Stage".to_owned(),
            methods: (0..=CHILDREN).map(|m| format!("m{m}")).collect(),
        }],
        ..VocabSnapshot::default()
    }
}

/// Endless in-order jobs cut into batches; a job may straddle two.
struct Feed {
    next_chain: u128,
    clock_ns: u64,
    pending: Vec<ProbeRecord>,
}

impl Feed {
    fn push(&mut self, chain: u128, seq: &mut u64, event: TraceEvent, method: u16) {
        *seq += 1;
        self.clock_ns += 1_000;
        self.pending.push(ProbeRecord {
            uuid: Uuid(chain),
            seq: *seq,
            event,
            kind: CallKind::Sync,
            func: FunctionKey::new(InterfaceId(0), MethodIndex(method), ObjectId(u64::from(method))),
            wall_start: Some(self.clock_ns),
            wall_end: Some(self.clock_ns + 100),
            ..sample_record(0)
        });
    }

    fn job(&mut self) {
        let (chain, mut seq) = (self.next_chain, 0);
        self.next_chain += 1;
        self.push(chain, &mut seq, TraceEvent::StubStart, 0);
        self.push(chain, &mut seq, TraceEvent::SkelStart, 0);
        for child in 1..=CHILDREN {
            for event in TraceEvent::ALL {
                self.push(chain, &mut seq, event, child);
            }
        }
        self.push(chain, &mut seq, TraceEvent::SkelEnd, 0);
        self.push(chain, &mut seq, TraceEvent::StubEnd, 0);
    }

    fn batch(&mut self) -> Vec<ProbeRecord> {
        while self.pending.len() < BATCH_RECORDS {
            self.job();
        }
        let rest = self.pending.split_off(BATCH_RECORDS);
        std::mem::replace(&mut self.pending, rest)
    }
}

fn bench_live_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("live_ingest");
    for (name, open) in [("1024-records/clean", 0), ("1024-records/50k-open", OPEN_CHAINS)] {
        let config = LiveConfig { window: Duration::from_millis(250), ..LiveConfig::default() };
        let monitor = LiveMonitor::new(config, vocab(), Deployment::new());
        let backlog: Vec<ProbeRecord> = (0..open)
            .map(|i| ProbeRecord { uuid: Uuid(OPEN_BASE + i), seq: 1, ..sample_record(1) })
            .collect();
        monitor.ingest_batch_at(backlog, 0);
        let mut feed = Feed { next_chain: 0, clock_ns: 0, pending: Vec::new() };
        let mut now_ns = 0;
        group.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let batches: Vec<Vec<ProbeRecord>> = (0..iters).map(|_| feed.batch()).collect();
                let started = Instant::now();
                for batch in batches {
                    now_ns += BATCH_NS;
                    monitor.ingest_batch_at(batch, now_ns);
                }
                started.elapsed()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_live_ingest);
criterion_main!(benches);
