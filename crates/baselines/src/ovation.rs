//! An OVATION-style interceptor view of the monitoring data.
//!
//! OVATION's interceptor "provides four different timing anchors: client
//! pre-invoke and post-invoke, servant pre-invoke and post-invoke", renders
//! calls on a time axis with their runtime entities, but "does not provide
//! global causality capture. As a result, for each method invocation …
//! the tool cannot determine how this particular invocation is related to
//! the rest of method invocations."
//!
//! To quantify that, [`OvationAnalysis::evaluate`] gives OVATION its best
//! shot: for every server-side invocation it applies the strongest
//! causality-free heuristic available — *innermost temporal containment*
//! (the smallest client-side window that covers the servant window is
//! presumed to be the caller) — and scores it against the ground truth the
//! Function UUIDs provide. Sequential workloads attribute perfectly; as
//! soon as similar invocations overlap in time, attribution goes ambiguous
//! or silently wrong, while the UUID-based DSCG stays exact by
//! construction.

use causeway_analyzer::dscg::Dscg;
use causeway_collector::db::MonitoringDb;
use causeway_core::ids::{LogicalThreadId, ProcessId};

/// A client-side window as OVATION sees it: anchors plus the entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClientWindow {
    /// Identity for scoring only (not available to the heuristic).
    node_id: usize,
    pre: u64,
    post: u64,
    entity: (ProcessId, LogicalThreadId),
}

/// Outcome of scoring the containment heuristic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OvationAnalysis {
    /// Server-side invocations evaluated.
    pub total: usize,
    /// The innermost containing window was unique and was the true caller.
    pub correct: usize,
    /// Multiple windows tied for innermost — the tool cannot decide.
    pub ambiguous: usize,
    /// A unique innermost window existed but was the *wrong* caller —
    /// silent misattribution, the worst failure mode.
    pub wrong: usize,
    /// No containing window at all (e.g. anchors lost).
    pub unattributed: usize,
}

impl OvationAnalysis {
    /// Scores the containment heuristic over a latency-mode run.
    pub fn evaluate(db: &MonitoringDb) -> OvationAnalysis {
        let dscg = Dscg::build(db);

        // Gather every client window with its node identity (pre-order).
        let mut windows: Vec<ClientWindow> = Vec::new();
        let mut node_id = 0usize;
        dscg.walk(&mut |node, _| {
            if let (Some(start), Some(end)) = (node.stub_start, node.stub_end) {
                if let (Some(pre), Some(post)) = (start.wall_start(), end.wall_end()) {
                    windows.push(ClientWindow {
                        node_id,
                        pre,
                        post,
                        entity: (start.site.process, start.site.thread),
                    });
                }
            }
            node_id += 1;
        });

        // Evaluate each server-side window.
        let mut analysis = OvationAnalysis::default();
        let mut node_id = 0usize;
        dscg.walk(&mut |node, _| {
            let my_id = node_id;
            node_id += 1;
            let (Some(skel_start), Some(skel_end)) = (node.skel_start, node.skel_end) else {
                return;
            };
            let (Some(s_start), Some(s_end)) = (skel_start.wall_start(), skel_end.wall_end()) else {
                return;
            };
            // Collocated executions share the caller's entity; OVATION pairs
            // those locally without trouble, so evaluate only the calls that
            // actually crossed entities.
            let servant_entity = (skel_start.site.process, skel_start.site.thread);
            let has_remote_stub = node
                .stub_start
                .is_some_and(|probe| (probe.site.process, probe.site.thread) != servant_entity);
            if !has_remote_stub {
                return;
            }
            analysis.total += 1;

            let mut best: Option<(u64, usize, usize)> = None; // (span, count, node_id)
            for w in &windows {
                if w.entity == servant_entity || w.pre > s_start || w.post < s_end {
                    continue;
                }
                let span = w.post - w.pre;
                match &mut best {
                    None => best = Some((span, 1, w.node_id)),
                    Some((best_span, count, best_id)) => {
                        if span < *best_span {
                            *best_span = span;
                            *count = 1;
                            *best_id = w.node_id;
                        } else if span == *best_span {
                            *count += 1;
                        }
                    }
                }
            }
            match best {
                None => analysis.unattributed += 1,
                Some((_, count, _)) if count > 1 => analysis.ambiguous += 1,
                Some((_, _, best_id)) if best_id == my_id => analysis.correct += 1,
                Some(_) => analysis.wrong += 1,
            }
        });
        analysis
    }

    /// Fraction of evaluated invocations OVATION failed to attribute
    /// correctly (ambiguous + wrong + unattributed).
    pub fn failure_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.total - self.correct) as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::deploy::Deployment;
    use causeway_core::event::{CallKind, TraceEvent};
    use causeway_core::ids::*;
    use causeway_core::names::VocabSnapshot;
    use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
    use causeway_core::runlog::RunLog;
    use causeway_core::uuid::Uuid;

    fn rec(
        uuid: u128,
        seq: u64,
        process: u16,
        thread: u32,
        event: TraceEvent,
        object: u64,
        t: u64,
    ) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(uuid),
            seq,
            event,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(process),
                thread: LogicalThreadId(thread),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(object)),
            wall_start: Some(t),
            wall_end: Some(t),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    fn db(records: Vec<ProbeRecord>) -> MonitoringDb {
        MonitoringDb::from_run(RunLog::new(records, VocabSnapshot::default(), Deployment::new()))
    }

    /// One remote call: client p0/t0 → servant p1/t0, times 10..40.
    fn sequential_call(uuid: u128, base: u64, thread: u32) -> Vec<ProbeRecord> {
        vec![
            rec(uuid, 1, 0, thread, TraceEvent::StubStart, 5, base),
            rec(uuid, 2, 1, thread, TraceEvent::SkelStart, 5, base + 10),
            rec(uuid, 3, 1, thread, TraceEvent::SkelEnd, 5, base + 20),
            rec(uuid, 4, 0, thread, TraceEvent::StubEnd, 5, base + 30),
        ]
    }

    #[test]
    fn sequential_workload_attributes_correctly() {
        let mut records = sequential_call(1, 0, 0);
        records.extend(sequential_call(2, 100, 0));
        let analysis = OvationAnalysis::evaluate(&db(records));
        assert_eq!(analysis.total, 2);
        assert_eq!(analysis.correct, 2);
        assert_eq!(analysis.failure_rate(), 0.0);
    }

    #[test]
    fn overlapping_identical_calls_confuse_the_heuristic() {
        // Two clients on different threads, perfectly symmetric overlapping
        // windows around both servant executions.
        let records = vec![
            rec(1, 1, 0, 0, TraceEvent::StubStart, 5, 10),
            rec(2, 1, 0, 1, TraceEvent::StubStart, 5, 10),
            rec(1, 2, 1, 0, TraceEvent::SkelStart, 5, 20),
            rec(1, 3, 1, 0, TraceEvent::SkelEnd, 5, 25),
            rec(2, 2, 1, 1, TraceEvent::SkelStart, 5, 21),
            rec(2, 3, 1, 1, TraceEvent::SkelEnd, 5, 26),
            rec(2, 4, 0, 1, TraceEvent::StubEnd, 5, 50),
            rec(1, 4, 0, 0, TraceEvent::StubEnd, 5, 50),
        ];
        let analysis = OvationAnalysis::evaluate(&db(records));
        assert_eq!(analysis.total, 2);
        assert_eq!(analysis.correct, 0);
        assert_eq!(analysis.ambiguous, 2, "symmetric windows tie");
        assert_eq!(analysis.failure_rate(), 1.0);
    }

    #[test]
    fn asymmetric_overlap_misattributes_silently() {
        // Client A's window is tighter around B's servant execution than
        // B's own window — the innermost heuristic confidently picks the
        // wrong caller.
        let records = vec![
            // Chain 2: wide client window [5, 60], servant on (p1, t1).
            rec(2, 1, 0, 1, TraceEvent::StubStart, 5, 5),
            rec(2, 2, 1, 1, TraceEvent::SkelStart, 5, 20),
            rec(2, 3, 1, 1, TraceEvent::SkelEnd, 5, 25),
            rec(2, 4, 0, 1, TraceEvent::StubEnd, 5, 60),
            // Chain 1: tight client window [18, 30], servant on (p2, t0).
            rec(1, 1, 0, 0, TraceEvent::StubStart, 5, 18),
            rec(1, 2, 2, 0, TraceEvent::SkelStart, 5, 19),
            rec(1, 3, 2, 0, TraceEvent::SkelEnd, 5, 29),
            rec(1, 4, 0, 0, TraceEvent::StubEnd, 5, 30),
        ];
        let analysis = OvationAnalysis::evaluate(&db(records));
        // Chain 2's servant window [20,25] is contained by chain 1's client
        // window [18,30] (span 12) and by its true window [5,60] (span 55);
        // innermost picks chain 1 — confidently wrong. Chain 1's own servant
        // window [19,29] resolves correctly to its own tight window.
        assert_eq!(analysis.total, 2);
        assert_eq!(analysis.correct, 1);
        assert_eq!(analysis.wrong, 1);
    }

    #[test]
    fn empty_data_is_trivially_fine() {
        let analysis = OvationAnalysis::evaluate(&db(vec![]));
        assert_eq!(analysis.failure_rate(), 0.0);
        assert_eq!(analysis.total, 0);
    }
}
