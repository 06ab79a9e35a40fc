//! The relational monitoring database.

use causeway_core::deploy::Deployment;
use causeway_core::event::TraceEvent;
use causeway_core::names::VocabSnapshot;
use causeway_core::pool;
use causeway_core::record::ProbeRecord;
use causeway_core::runlog::RunLog;
use causeway_core::uuid::Uuid;
use std::collections::{HashMap, HashSet};

/// Scale statistics of a run — the shape numbers the paper reports for its
/// commercial system ("about 195,000 calls, with a total of 801 unique
/// methods in 155 unique interfaces from 176 unique components … 32
/// threads … 4 processes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScaleStats {
    /// Total probe records.
    pub total_records: usize,
    /// Number of invocations (stub-start events).
    pub calls: usize,
    /// Distinct (interface, method) pairs invoked.
    pub unique_methods: usize,
    /// Distinct interfaces invoked.
    pub unique_interfaces: usize,
    /// Distinct components owning invoked objects.
    pub unique_components: usize,
    /// Distinct objects invoked.
    pub unique_objects: usize,
    /// Distinct causal chains (Function UUIDs).
    pub unique_chains: usize,
    /// Distinct (process, logical thread) pairs that recorded probes.
    pub threads: usize,
    /// Distinct processes that recorded probes.
    pub processes: usize,
}

/// The synthesized relational store over one run's records.
#[derive(Debug, Clone)]
pub struct MonitoringDb {
    run: RunLog,
    /// Chains in first-appearance order, for deterministic iteration.
    uuid_order: Vec<Uuid>,
    /// Each chain's position in `uuid_order`.
    positions: HashMap<Uuid, u32>,
    /// Record indexes grouped by chain in `uuid_order` order, each group
    /// sorted by ascending event number (the paper's "second query").
    by_chain: Vec<u32>,
    /// Chain `c`'s group is `by_chain[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
}

impl MonitoringDb {
    /// Synthesizes the database from a harvested run, sorting per-chain
    /// indexes on [`pool::configured_threads`] workers.
    pub fn from_run(run: RunLog) -> MonitoringDb {
        MonitoringDb::from_run_with_threads(run, pool::configured_threads())
    }

    /// Like [`MonitoringDb::from_run`] with an explicit worker count. The
    /// per-chain sorts are independent, so the result is identical at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics when the run holds more than `u32::MAX` records.
    pub fn from_run_with_threads(run: RunLog, threads: usize) -> MonitoringDb {
        let records = &run.records;
        assert!(
            u32::try_from(records.len()).is_ok(),
            "a monitoring database indexes at most u32::MAX records"
        );
        // Each record's chain position. Consecutive records mostly share a
        // chain, so the map is consulted only where the chain changes.
        let mut positions: HashMap<Uuid, u32> = HashMap::new();
        let mut uuid_order = Vec::new();
        let mut chain_of = Vec::with_capacity(records.len());
        let mut current: Option<(Uuid, u32)> = None;
        for record in records {
            let position = match current {
                Some((uuid, position)) if uuid == record.uuid => position,
                _ => {
                    let next = uuid_order.len() as u32;
                    let position = *positions.entry(record.uuid).or_insert_with(|| {
                        uuid_order.push(record.uuid);
                        next
                    });
                    current = Some((record.uuid, position));
                    position
                }
            };
            chain_of.push(position);
        }

        // Group by chain (a counting sort), keyed for the per-chain sort by
        // ascending event number; ties (which only occur in corrupted logs)
        // break by probe order then record index for determinism.
        let mut starts = vec![0u32; uuid_order.len() + 1];
        for &position in &chain_of {
            starts[position as usize + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut keys = vec![0u128; records.len()];
        let mut next = starts.clone();
        for (index, (record, &position)) in records.iter().zip(&chain_of).enumerate() {
            let slot = &mut next[position as usize];
            keys[*slot as usize] = (u128::from(record.seq) << 64)
                | (u128::from(record.event.probe_number()) << 32)
                | index as u128;
            *slot += 1;
        }
        drop(chain_of);
        let mut groups: Vec<&mut [u128]> = Vec::with_capacity(uuid_order.len());
        let mut rest = keys.as_mut_slice();
        for bounds in starts.windows(2) {
            let (group, tail) = rest.split_at_mut((bounds[1] - bounds[0]) as usize);
            groups.push(group);
            rest = tail;
        }
        pool::par_for_each_mut(&mut groups, threads, |group| group.sort_unstable());
        drop(groups);
        let by_chain = keys.into_iter().map(|key| key as u32).collect();
        MonitoringDb { run, uuid_order, positions, by_chain, starts }
    }

    /// The full record table.
    pub fn records(&self) -> &[ProbeRecord] {
        &self.run.records
    }

    /// The name dimension tables.
    pub fn vocab(&self) -> &VocabSnapshot {
        &self.run.vocab
    }

    /// The deployment dimension table.
    pub fn deployment(&self) -> &Deployment {
        &self.run.deployment
    }

    /// The underlying run (for re-export).
    pub fn run(&self) -> &RunLog {
        &self.run
    }

    /// The set of unique Function UUIDs ever created, in first-appearance
    /// order — the analyzer's first query.
    pub fn unique_uuids(&self) -> &[Uuid] {
        &self.uuid_order
    }

    /// The events of the chain at `position` in [`MonitoringDb::unique_uuids`],
    /// sorted by ascending event number — the analyzer's second query,
    /// read straight off the index.
    ///
    /// # Panics
    ///
    /// Panics when `position` is out of range.
    pub fn chain_events(&self, position: usize) -> impl ExactSizeIterator<Item = &ProbeRecord> {
        let group = self.starts[position] as usize..self.starts[position + 1] as usize;
        self.by_chain[group].iter().map(|&i| &self.run.records[i as usize])
    }

    /// The events of one chain sorted by ascending event number — the
    /// analyzer's second query, by UUID.
    pub fn events_for(&self, uuid: Uuid) -> Vec<&ProbeRecord> {
        self.positions
            .get(&uuid)
            .map(|&position| self.chain_events(position as usize).collect())
            .unwrap_or_default()
    }

    /// Scale statistics over the whole run.
    pub fn scale_stats(&self) -> ScaleStats {
        let mut methods = HashSet::new();
        let mut interfaces = HashSet::new();
        let mut objects = HashSet::new();
        let mut threads = HashSet::new();
        let mut processes = HashSet::new();
        let mut calls = 0usize;
        for r in &self.run.records {
            if r.event == TraceEvent::StubStart {
                calls += 1;
            }
            methods.insert(r.func.method_key());
            interfaces.insert(r.func.interface);
            objects.insert(r.func.object);
            threads.insert((r.site.process, r.site.thread));
            processes.insert(r.site.process);
        }
        // One vocabulary lookup per distinct object, not per record.
        let components: HashSet<_> = objects
            .iter()
            .filter_map(|&object| self.run.vocab.object(object))
            .map(|entry| entry.component)
            .collect();
        ScaleStats {
            total_records: self.run.records.len(),
            calls,
            unique_methods: methods.len(),
            unique_interfaces: interfaces.len(),
            unique_components: components.len(),
            unique_objects: objects.len(),
            unique_chains: self.uuid_order.len(),
            threads: threads.len(),
            processes: processes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::event::CallKind;
    use causeway_core::ids::*;
    use causeway_core::record::{CallSite, FunctionKey};

    fn rec(uuid: u128, seq: u64, event: TraceEvent) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(uuid),
            seq,
            event,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(0),
                thread: LogicalThreadId(0),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(0)),
            wall_start: None,
            wall_end: None,
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    fn db_from(records: Vec<ProbeRecord>) -> MonitoringDb {
        MonitoringDb::from_run(RunLog::new(records, VocabSnapshot::default(), Deployment::new()))
    }

    #[test]
    fn events_are_sorted_by_seq_per_uuid() {
        // Insert out of order, as scattered multi-thread logs would be.
        let db = db_from(vec![
            rec(1, 3, TraceEvent::SkelEnd),
            rec(2, 1, TraceEvent::StubStart),
            rec(1, 1, TraceEvent::StubStart),
            rec(1, 4, TraceEvent::StubEnd),
            rec(1, 2, TraceEvent::SkelStart),
            rec(2, 2, TraceEvent::StubEnd),
        ]);
        assert_eq!(db.unique_uuids(), &[Uuid(1), Uuid(2)]);
        let events: Vec<u64> = db.events_for(Uuid(1)).iter().map(|r| r.seq).collect();
        assert_eq!(events, vec![1, 2, 3, 4]);
        let events: Vec<u64> = db.events_for(Uuid(2)).iter().map(|r| r.seq).collect();
        assert_eq!(events, vec![1, 2]);
        assert!(db.events_for(Uuid(99)).is_empty());
    }

    #[test]
    fn duplicate_seq_ties_break_by_probe_order() {
        let db = db_from(vec![
            rec(1, 1, TraceEvent::SkelStart),
            rec(1, 1, TraceEvent::StubStart),
        ]);
        let events: Vec<TraceEvent> = db.events_for(Uuid(1)).iter().map(|r| r.event).collect();
        assert_eq!(events, vec![TraceEvent::StubStart, TraceEvent::SkelStart]);
    }

    #[test]
    fn scale_stats_count_distinct_dimensions() {
        let mut records = vec![
            rec(1, 1, TraceEvent::StubStart),
            rec(1, 2, TraceEvent::SkelStart),
            rec(1, 3, TraceEvent::SkelEnd),
            rec(1, 4, TraceEvent::StubEnd),
            rec(2, 1, TraceEvent::StubStart),
        ];
        records[4].func = FunctionKey::new(InterfaceId(1), MethodIndex(3), ObjectId(9));
        records[4].site.process = ProcessId(2);
        let db = db_from(records);
        let stats = db.scale_stats();
        assert_eq!(stats.total_records, 5);
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.unique_methods, 2);
        assert_eq!(stats.unique_interfaces, 2);
        assert_eq!(stats.unique_objects, 2);
        assert_eq!(stats.unique_chains, 2);
        assert_eq!(stats.processes, 2);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn scale_stats_resolve_each_object_to_its_component() {
        use causeway_core::names::{ComponentId, ObjectEntry};
        let mut vocab = VocabSnapshot::default();
        vocab.components.push("Shared".into());
        for object in [1, 2] {
            vocab.objects.push((
                ObjectId(object),
                ObjectEntry {
                    label: format!("shared#{object}"),
                    interface: InterfaceId(0),
                    component: ComponentId(0),
                    process: ProcessId(0),
                },
            ));
        }
        // Objects 1 and 2 share a component; object 3 is unknown to the
        // vocabulary and contributes none.
        let records: Vec<ProbeRecord> = [1, 2, 3, 1, 2]
            .into_iter()
            .enumerate()
            .map(|(i, object)| {
                let mut r = rec(1, i as u64 + 1, TraceEvent::StubStart);
                r.func.object = ObjectId(object);
                r
            })
            .collect();
        let db = MonitoringDb::from_run(RunLog::new(records, vocab, Deployment::new()));
        let stats = db.scale_stats();
        assert_eq!(stats.unique_objects, 3);
        assert_eq!(stats.unique_components, 1);
    }

    #[test]
    fn chain_events_read_each_group_in_event_order() {
        // Chains interleave and change on almost every record.
        let db = db_from(vec![
            rec(2, 2, TraceEvent::StubEnd),
            rec(1, 2, TraceEvent::SkelStart),
            rec(2, 1, TraceEvent::StubStart),
            rec(1, 1, TraceEvent::StubStart),
            rec(1, 1, TraceEvent::StubStart),
            rec(3, 7, TraceEvent::SkelEnd),
        ]);
        assert_eq!(db.unique_uuids(), &[Uuid(2), Uuid(1), Uuid(3)]);
        let seqs = |position| db.chain_events(position).map(|r| r.seq).collect::<Vec<_>>();
        assert_eq!(seqs(0), vec![1, 2]);
        assert_eq!(seqs(1), vec![1, 1, 2]);
        assert_eq!(seqs(2), vec![7]);
        for (position, &uuid) in db.unique_uuids().iter().enumerate() {
            assert_eq!(db.chain_events(position).collect::<Vec<_>>(), db.events_for(uuid));
        }
    }

    #[test]
    fn empty_db_is_well_behaved() {
        let db = db_from(vec![]);
        assert!(db.unique_uuids().is_empty());
        assert_eq!(db.scale_stats(), ScaleStats::default());
    }

    #[test]
    fn parallel_synthesis_matches_serial() {
        let records = vec![
            rec(1, 3, TraceEvent::SkelEnd),
            rec(2, 1, TraceEvent::StubStart),
            rec(1, 1, TraceEvent::StubStart),
            rec(3, 1, TraceEvent::StubStart),
            rec(1, 4, TraceEvent::StubEnd),
            rec(1, 2, TraceEvent::SkelStart),
            rec(2, 2, TraceEvent::StubEnd),
            rec(3, 2, TraceEvent::StubEnd),
        ];
        let run = RunLog::new(records, VocabSnapshot::default(), Deployment::new());
        let serial = MonitoringDb::from_run_with_threads(run.clone(), 1);
        for threads in [2, 4, 7] {
            let parallel = MonitoringDb::from_run_with_threads(run.clone(), threads);
            assert_eq!(serial.unique_uuids(), parallel.unique_uuids());
            for &uuid in serial.unique_uuids() {
                assert_eq!(serial.events_for(uuid), parallel.events_for(uuid));
            }
        }
    }
}
