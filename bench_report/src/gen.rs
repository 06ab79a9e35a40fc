//! Seeded input generators. Everything the live stages ingest is made
//! here from `--seed`, so the same seed gives bit-identical streams and
//! the program under test sees only generated inputs.
//!
//! The record shapes mirror what a FourProcess Printing Pipeline
//! Simulator emits for one job (`causeway_workloads::pps`): 11
//! synchronous calls and 3 one-way status reports, 56 probe records in
//! four chains, using the PPS vocabulary's ids so the monitor's JSON views
//! resolve real names.

use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::ids::{InterfaceId, LogicalThreadId, MethodIndex, NodeId, ObjectId, ProcessId};
use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
use causeway_core::uuid::Uuid;
use std::collections::HashMap;

/// Steele, Lea & Flood's SplitMix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0); the modulo bias is below 2⁻⁴⁰ for the
    /// small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `per_mille` / 1000.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }

    fn uuid(&mut self) -> Uuid {
        Uuid((u128::from(self.next_u64()) << 64) | u128::from(self.next_u64()))
    }
}

/// One node of the per-job call tree.
struct Call {
    method: u16,
    process: u16,
    oneway: bool,
    children: &'static [Call],
}

const fn sync(method: u16, process: u16, children: &'static [Call]) -> Call {
    Call {
        method,
        process,
        oneway: false,
        children,
    }
}

/// `StatusMonitor.report`, the PPS's one-way status event.
const REPORT: Call = Call {
    method: 10,
    process: 0,
    oneway: true,
    children: &[],
};

/// `JobSource.submit` and everything under it, two pages per job; methods
/// index `PPS_IDL` in declaration order and processes follow the paper's
/// four-process placement.
const PPS_JOB: Call = sync(
    0,
    0,
    &[sync(
        1,
        0,
        &[
            REPORT,
            sync(
                2,
                1,
                &[
                    sync(3, 1, &[]),
                    sync(4, 2, &[sync(5, 2, &[])]),
                    sync(6, 2, &[]),
                    sync(
                        7,
                        3,
                        &[
                            sync(8, 3, &[]),
                            sync(8, 3, &[]),
                            REPORT,
                            sync(9, 3, &[REPORT]),
                        ],
                    ),
                ],
            ),
        ],
    )],
);

/// One bare `submit` with nothing under it: the single-series chain.
const SINGLE_CALL: Call = sync(0, 0, &[]);

#[cfg(test)]
const RECORDS_PER_JOB: usize = 56;
/// Completions the monitor counts per job: 11 synchronous calls, plus
/// each of the 3 one-way reports once, on its skeleton side (the stub
/// side only confirms the send).
pub const COMPLETIONS_PER_JOB: u64 = 14;
pub const RECORDS_PER_SINGLE_CALL: usize = 4;
/// Threads each synthetic process rotates its requests over.
const THREADS_PER_PROCESS: u32 = 8;

struct JobWriter<'a> {
    rng: &'a mut SplitMix64,
    out: Vec<ProbeRecord>,
    clock_ns: u64,
    next_thread: [u32; 4],
}

impl JobWriter<'_> {
    fn fresh_site(&mut self, process: u16) -> CallSite {
        let slot = &mut self.next_thread[usize::from(process)];
        *slot = (*slot + 1) % THREADS_PER_PROCESS;
        CallSite {
            node: NodeId(0),
            process: ProcessId(process),
            // Thread 0 of process 0 is the driver.
            thread: LogicalThreadId(1 + *slot),
        }
    }

    fn push(
        &mut self,
        chain: Uuid,
        seq: &mut u64,
        event: TraceEvent,
        kind: CallKind,
        site: CallSite,
        method: u16,
    ) -> &mut ProbeRecord {
        *seq += 1;
        self.clock_ns += 200 + self.rng.below(1800);
        let wall_start = self.clock_ns;
        self.clock_ns += 100 + self.rng.below(200);
        self.out.push(ProbeRecord {
            uuid: chain,
            seq: *seq,
            event,
            kind,
            site,
            func: FunctionKey::new(
                InterfaceId(0),
                MethodIndex(method),
                ObjectId(u64::from(method)),
            ),
            wall_start: Some(wall_start),
            wall_end: Some(self.clock_ns),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        });
        self.out.last_mut().expect("record just pushed")
    }

    fn emit(&mut self, call: &Call, chain: Uuid, seq: &mut u64, caller: CallSite) {
        let callee = self.fresh_site(call.process);
        if call.oneway {
            let child = self.rng.uuid();
            self.push(
                chain,
                seq,
                TraceEvent::StubStart,
                CallKind::Oneway,
                caller,
                call.method,
            )
            .oneway_child = Some(child);
            let parent_seq = *seq;
            self.push(
                chain,
                seq,
                TraceEvent::StubEnd,
                CallKind::Oneway,
                caller,
                call.method,
            );
            let mut child_seq = 0;
            self.push(
                child,
                &mut child_seq,
                TraceEvent::SkelStart,
                CallKind::Oneway,
                callee,
                call.method,
            )
            .oneway_parent = Some((chain, parent_seq));
            self.push(
                child,
                &mut child_seq,
                TraceEvent::SkelEnd,
                CallKind::Oneway,
                callee,
                call.method,
            );
            return;
        }
        self.push(
            chain,
            seq,
            TraceEvent::StubStart,
            CallKind::Sync,
            caller,
            call.method,
        );
        self.push(
            chain,
            seq,
            TraceEvent::SkelStart,
            CallKind::Sync,
            callee,
            call.method,
        );
        for child in call.children {
            self.emit(child, chain, seq, callee);
        }
        self.push(
            chain,
            seq,
            TraceEvent::SkelEnd,
            CallKind::Sync,
            callee,
            call.method,
        );
        self.push(
            chain,
            seq,
            TraceEvent::StubEnd,
            CallKind::Sync,
            caller,
            call.method,
        );
    }
}

fn chains(seed: u64, count: usize, shape: &Call) -> Vec<Vec<ProbeRecord>> {
    let mut rng = SplitMix64::new(seed);
    let driver = CallSite {
        node: NodeId(0),
        process: ProcessId(0),
        thread: LogicalThreadId(0),
    };
    let mut clock_ns = 0;
    let mut next_thread = [0; 4];
    (0..count)
        .map(|_| {
            let root = rng.uuid();
            let mut writer = JobWriter {
                rng: &mut rng,
                out: Vec::new(),
                clock_ns,
                next_thread,
            };
            writer.emit(shape, root, &mut 0, driver);
            clock_ns = writer.clock_ns;
            next_thread = writer.next_thread;
            writer.out
        })
        .collect()
}

/// `jobs` PPS-shaped print jobs, each in the order its probes fired.
pub fn pps_jobs(seed: u64, jobs: usize) -> Vec<Vec<ProbeRecord>> {
    chains(seed, jobs, &PPS_JOB)
}

/// `calls` single-call chains, all on one series (`Pps::Stage.submit`).
pub fn single_calls(seed: u64, calls: usize) -> Vec<Vec<ProbeRecord>> {
    chains(seed, calls, &SINGLE_CALL)
}

/// `count` chains that open one call and never finish it: the backlog of
/// open chains a long-running monitor carries.
pub fn open_chains(seed: u64, count: usize) -> Vec<ProbeRecord> {
    single_calls(seed, count)
        .into_iter()
        .map(|mut chain| chain.swap_remove(0))
        .collect()
}

/// What a real deployment does to the stream between probe and monitor.
#[derive(Debug, Clone, Copy)]
pub struct Disorder {
    /// Jobs in flight at once (their records interleave).
    pub concurrency: usize,
    /// Records lost, per mille.
    pub drop_per_mille: u64,
    /// Records delivered twice, per mille.
    pub dup_per_mille: u64,
    /// Jobs cut off at a random record (the chain never completes), per
    /// mille.
    pub truncate_per_mille: u64,
    /// Jobs with one skeleton-start stamped with the wrong method (an
    /// illegal Figure-4 transition with dense event numbers), per mille.
    pub mutate_per_mille: u64,
    /// A thread's open chunk is sealed after this many stream records at
    /// the latest (the collector's flush request).
    pub flush_every: usize,
    /// Upper bound on how far, in stream records, a sealed chunk may be
    /// delivered behind its seal position.
    pub max_delay: u64,
}

pub const DEPLOYED: Disorder = Disorder {
    concurrency: 4,
    drop_per_mille: 10,
    dup_per_mille: 10,
    truncate_per_mille: 20,
    mutate_per_mille: 10,
    flush_every: 2048,
    max_delay: 4096,
};

/// A disordered stream plus the generator's own count of what it did.
#[derive(Debug, Clone, PartialEq)]
pub struct Disordered {
    pub stream: Vec<ProbeRecord>,
    pub jobs: u64,
    /// Jobs no fault touched: every one of their calls must complete.
    pub clean_jobs: u64,
    /// Jobs whose only fault is the wrong-method skeleton-start: each must
    /// raise at least one abnormality.
    pub mutated_only_jobs: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub truncated_jobs: u64,
}

/// Largest chunk a producer thread seals on its own
/// (`causeway_core::sink::CHUNK_CAPACITY`).
const CHUNK_RECORDS: usize = causeway_core::sink::CHUNK_CAPACITY;

/// Applies `how` to `jobs`: injects the faults, interleaves concurrent
/// jobs, cuts each thread's records into chunks and delivers the chunks
/// out of order within the delay bound.
pub fn disorder(seed: u64, jobs: Vec<Vec<ProbeRecord>>, how: Disorder) -> Disordered {
    let mut rng = SplitMix64::new(seed ^ 0xd150_4de4);
    let mut out = Disordered {
        stream: Vec::new(),
        jobs: jobs.len() as u64,
        clean_jobs: 0,
        mutated_only_jobs: 0,
        dropped: 0,
        duplicated: 0,
        truncated_jobs: 0,
    };

    // Faults, job by job; `None` marks a dropped record.
    let mut faulted: Vec<Vec<(Option<ProbeRecord>, bool)>> = Vec::with_capacity(jobs.len());
    for mut job in jobs {
        let mut touched = false;
        if rng.chance(how.truncate_per_mille) {
            job.truncate(1 + rng.below(job.len() as u64 - 1) as usize);
            out.truncated_jobs += 1;
            touched = true;
        }
        let skel_starts: Vec<usize> = (0..job.len())
            .filter(|&i| job[i].event == TraceEvent::SkelStart && job[i].kind == CallKind::Sync)
            .collect();
        // A job cut off before its first skeleton-start has none to mutate.
        let mutated = !skel_starts.is_empty() && rng.chance(how.mutate_per_mille);
        if mutated {
            let at = skel_starts[rng.below(skel_starts.len() as u64) as usize];
            job[at].func.method = MethodIndex(job[at].func.method.0 ^ 1);
        }
        let mut records = Vec::with_capacity(job.len());
        for record in job {
            if rng.chance(how.drop_per_mille) {
                out.dropped += 1;
                touched = true;
                records.push((None, false));
                continue;
            }
            let dup = rng.chance(how.dup_per_mille);
            if dup {
                out.duplicated += 1;
                touched = true;
            }
            records.push((Some(record), dup));
        }
        match (touched, mutated) {
            (false, false) => out.clean_jobs += 1,
            (false, true) => out.mutated_only_jobs += 1,
            _ => {}
        }
        faulted.push(records);
    }

    // Interleave `concurrency` jobs record by record, file each record
    // under its thread, seal chunks, and give each chunk a delivery key.
    let mut lanes: HashMap<(ProcessId, LogicalThreadId), Vec<ProbeRecord>> = HashMap::new();
    let mut chunks: Vec<(u64, Vec<ProbeRecord>)> = Vec::new();
    let mut position = 0u64;
    let mut seal = |chunk: Vec<ProbeRecord>, position: u64, rng: &mut SplitMix64| {
        chunks.push((position + rng.below(how.max_delay.max(1)), chunk));
    };
    for group in faulted.chunks_mut(how.concurrency.max(1)) {
        let longest = group.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for job in group.iter_mut() {
                let Some((record, dup)) = job.get_mut(i) else {
                    continue;
                };
                position += 1;
                if let Some(record) = record.take() {
                    let lane = lanes
                        .entry((record.site.process, record.site.thread))
                        .or_default();
                    if *dup {
                        lane.push(record.clone());
                    }
                    lane.push(record);
                    if lane.len() >= CHUNK_RECORDS {
                        seal(std::mem::take(lane), position, &mut rng);
                    }
                }
                if position.is_multiple_of(how.flush_every.max(1) as u64) {
                    // Sorted, because HashMap order differs between runs.
                    let mut open: Vec<_> =
                        lanes.iter_mut().filter(|(_, l)| !l.is_empty()).collect();
                    open.sort_by_key(|(site, _)| **site);
                    for (_, lane) in open {
                        seal(std::mem::take(lane), position, &mut rng);
                    }
                }
            }
        }
    }
    let mut open: Vec<_> = lanes.into_iter().filter(|(_, l)| !l.is_empty()).collect();
    open.sort_by_key(|(site, _)| *site);
    for (_, lane) in open {
        seal(lane, position, &mut rng);
    }
    chunks.sort_by_key(|(key, _)| *key);
    out.stream = chunks.into_iter().flat_map(|(_, chunk)| chunk).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn a_job_has_the_pps_shape() {
        let jobs = pps_jobs(7, 3);
        assert_eq!(jobs.len(), 3);
        for job in &jobs {
            assert_eq!(job.len(), RECORDS_PER_JOB);
            let root = job[0].uuid;
            let in_root: Vec<_> = job.iter().filter(|r| r.uuid == root).collect();
            assert_eq!(in_root.len(), 50);
            assert!(in_root
                .iter()
                .enumerate()
                .all(|(i, r)| r.seq == i as u64 + 1));
            let children: Vec<_> = job.iter().filter_map(|r| r.oneway_child).collect();
            assert_eq!(children.len(), 3);
            for child in children {
                assert_eq!(job.iter().filter(|r| r.uuid == child).count(), 2);
            }
        }
        assert_eq!(single_calls(7, 2)[1].len(), RECORDS_PER_SINGLE_CALL);
    }

    #[test]
    fn streams_repeat_from_the_seed() {
        assert_eq!(pps_jobs(42, 20), pps_jobs(42, 20));
        assert_ne!(pps_jobs(42, 20), pps_jobs(43, 20));
        let a = disorder(42, pps_jobs(42, 400), DEPLOYED);
        assert_eq!(a, disorder(42, pps_jobs(42, 400), DEPLOYED));
        assert_ne!(a.stream, disorder(43, pps_jobs(42, 400), DEPLOYED).stream);
    }

    #[test]
    fn disorder_accounts_for_every_record() {
        let jobs = pps_jobs(9, 1000);
        let total: u64 = jobs.iter().map(|j| j.len() as u64).sum();
        let d = disorder(9, jobs, DEPLOYED);
        let cut: u64 = total + d.duplicated - d.dropped - d.stream.len() as u64;
        // What is missing beyond the drops was cut off by truncation.
        assert!(d.truncated_jobs > 0 && cut > 0 && cut < d.truncated_jobs * RECORDS_PER_JOB as u64);
        assert!(d.dropped > 0 && d.duplicated > 0 && d.mutated_only_jobs > 0);
        assert!(d.clean_jobs > 0 && d.clean_jobs < d.jobs);
        // Delivery really is out of order within a chain.
        let mut last_seq = HashMap::new();
        let reordered = d.stream.iter().any(|r| {
            last_seq
                .insert(r.uuid, r.seq)
                .is_some_and(|last| last > r.seq)
        });
        assert!(reordered);
    }

    #[test]
    fn no_fault_leaves_the_records_intact() {
        let gentle = Disorder {
            drop_per_mille: 0,
            dup_per_mille: 0,
            truncate_per_mille: 0,
            mutate_per_mille: 0,
            ..DEPLOYED
        };
        let jobs = pps_jobs(5, 50);
        let mut flat: Vec<ProbeRecord> = jobs.iter().flatten().cloned().collect();
        let d = disorder(5, jobs, gentle);
        assert_eq!((d.clean_jobs, d.dropped, d.duplicated), (50, 0, 0));
        let mut delivered = d.stream;
        let key = |r: &ProbeRecord| (r.uuid, r.seq);
        flat.sort_by_key(key);
        delivered.sort_by_key(key);
        assert_eq!(flat, delivered);
    }
}
