//! The CPU Consumption Summarization Graph (Figure 6).
//!
//! Phase 3 of the CPU characterization: synthesize the per-invocation
//! self/descendant CPU with the DSCG into an aggregated graph. Nodes with
//! the same (object, function) under the same aggregated parent are merged;
//! each CCSG node reports the object identifier, invocation count, the
//! included function instances, and the summed self and descendant CPU —
//! the exact fields visible in the paper's XML viewer snapshot.

use crate::cpu::{CpuVector, self_cpu_of};
use crate::dscg::{CallNode, Dscg};
use causeway_core::deploy::Deployment;
use causeway_core::pool;
use causeway_core::record::FunctionKey;
use std::collections::BTreeMap;

/// One aggregated node of the CCSG.
///
/// `Clone` and `Drop` are hand-written iteratively — an aggregated chain is
/// as deep as the deepest call chain it summarizes, and the derived /
/// compiler-generated versions would recurse once per level.
#[derive(Debug)]
pub struct CcsgNode {
    /// The aggregated (interface, method, object).
    pub func: FunctionKey,
    /// `InvocationTimes`: how many DSCG nodes were merged here.
    pub invocation_times: usize,
    /// `IncludedFunctionInstances`: the chain-local identities of the merged
    /// instances, as (chain seq of stub-start or skel-start) markers.
    pub included_instances: Vec<u64>,
    /// Summed `SelfCPUConsumption`.
    pub self_cpu: CpuVector,
    /// Summed `DescendentCPUConsumption`.
    pub descendant_cpu: CpuVector,
    /// Aggregated children, keyed by their (interface, method, object).
    pub children: Vec<CcsgNode>,
}

impl CcsgNode {
    /// Total nodes in this aggregated subtree.
    pub fn size(&self) -> usize {
        let mut count = 0;
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            count += 1;
            stack.extend(node.children.iter());
        }
        count
    }
}

impl Clone for CcsgNode {
    fn clone(&self) -> CcsgNode {
        enum Step<'a> {
            Enter(&'a CcsgNode),
            Exit,
        }
        fn shallow(node: &CcsgNode) -> CcsgNode {
            CcsgNode {
                func: node.func,
                invocation_times: node.invocation_times,
                included_instances: node.included_instances.clone(),
                self_cpu: node.self_cpu.clone(),
                descendant_cpu: node.descendant_cpu.clone(),
                children: Vec::with_capacity(node.children.len()),
            }
        }
        // Two-phase build: Enter pushes a childless copy, Exit pops it into
        // its parent (or out as the finished root).
        let mut building: Vec<CcsgNode> = Vec::new();
        let mut done: Option<CcsgNode> = None;
        let mut stack = vec![Step::Enter(self)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(node) => {
                    building.push(shallow(node));
                    stack.push(Step::Exit);
                    for child in node.children.iter().rev() {
                        stack.push(Step::Enter(child));
                    }
                }
                Step::Exit => {
                    let finished = building.pop().expect("Enter pushed a copy");
                    match building.last_mut() {
                        Some(parent) => parent.children.push(finished),
                        None => done = Some(finished),
                    }
                }
            }
        }
        done.expect("root Exit ran")
    }
}

impl Drop for CcsgNode {
    fn drop(&mut self) {
        // Flatten the subtree so every node drops with empty children (see
        // `Drop for CallNode`).
        if self.children.is_empty() {
            return;
        }
        let mut scratch = std::mem::take(&mut self.children);
        let mut next = 0;
        while next < scratch.len() {
            let grandchildren = std::mem::take(&mut scratch[next].children);
            scratch.extend(grandchildren);
            next += 1;
        }
    }
}

/// The CPU Consumption Summarization Graph.
#[derive(Debug, Clone, Default)]
pub struct Ccsg {
    /// Aggregated top-level invocations.
    pub roots: Vec<CcsgNode>,
    /// System-wide self-CPU total by processor type.
    pub system_total: CpuVector,
}

impl Ccsg {
    /// Builds the CCSG from a DSCG and the deployment's CPU-type map on the
    /// configured worker pool.
    pub fn build(dscg: &Dscg, deployment: &Deployment) -> Ccsg {
        Self::build_with_threads(dscg, deployment, pool::configured_threads())
    }

    /// Builds the CCSG using up to `threads` worker threads.
    ///
    /// Each contiguous range of trees aggregates into its own partial
    /// scaffold on the pool; the partials then merge in tree order, so every
    /// aggregated node's instance list accumulates in exactly the serial
    /// absorb order and the output is bit-identical at any thread count.
    pub fn build_with_threads(dscg: &Dscg, deployment: &Deployment, threads: usize) -> Ccsg {
        let builder = pool::fold_ranges(
            dscg.trees.len(),
            threads,
            |range| {
                let mut partial = Aggregate::default();
                for tree in &dscg.trees[range] {
                    partial.absorb_tree(&tree.roots, deployment);
                }
                partial
            },
            Aggregate::merge,
        );
        let mut system_total = CpuVector::new();
        let roots = builder.finish(&mut system_total);
        Ccsg { roots, system_total }
    }

    /// Total aggregated nodes.
    pub fn size(&self) -> usize {
        self.roots.iter().map(CcsgNode::size).sum()
    }
}

/// Aggregation scaffold: merges call nodes by function key level by level.
///
/// Entries live in a flat arena indexed by `usize` — parent/child structure
/// is index maps, not owned nesting — so absorbing, merging, finishing and
/// dropping the scaffold never recurse, regardless of chain depth.
#[derive(Debug, Default)]
struct Aggregate {
    entries: Vec<AggregateEntry>,
    roots: BTreeMap<FunctionKey, usize>,
}

#[derive(Debug, Default)]
struct AggregateEntry {
    invocation_times: usize,
    included_instances: Vec<u64>,
    self_cpu: CpuVector,
    children: BTreeMap<FunctionKey, usize>,
}

impl Aggregate {
    /// The arena index for `func` under `parent` (`None` = top level),
    /// allocating a fresh entry on first sight.
    fn entry_index(&mut self, parent: Option<usize>, func: FunctionKey) -> usize {
        let existing = match parent {
            Some(p) => self.entries[p].children.get(&func).copied(),
            None => self.roots.get(&func).copied(),
        };
        if let Some(index) = existing {
            return index;
        }
        let index = self.entries.len();
        self.entries.push(AggregateEntry::default());
        match parent {
            Some(p) => self.entries[p].children.insert(func, index),
            None => self.roots.insert(func, index),
        };
        index
    }

    /// Absorbs one tree's invocations, pre-order, with an explicit stack.
    fn absorb_tree(&mut self, roots: &[CallNode], deployment: &Deployment) {
        enum Step<'a> {
            Enter(&'a CallNode),
            Exit,
        }
        let mut steps: Vec<Step> = roots.iter().rev().map(Step::Enter).collect();
        // The aggregate entry each open DSCG node merged into.
        let mut path: Vec<usize> = Vec::new();
        while let Some(step) = steps.pop() {
            match step {
                Step::Enter(node) => {
                    let index = self.entry_index(path.last().copied(), node.func);
                    let entry = &mut self.entries[index];
                    entry.invocation_times += 1;
                    let instance_marker =
                        node.stub_start.or(node.skel_start).map_or(0, |probe| probe.seq);
                    entry.included_instances.push(instance_marker);
                    entry.self_cpu.add_vector(&self_cpu_of(node, deployment));
                    path.push(index);
                    steps.push(Step::Exit);
                    for child in node.children.iter().rev() {
                        steps.push(Step::Enter(child));
                    }
                }
                Step::Exit => {
                    path.pop();
                }
            }
        }
    }

    /// Merges another scaffold into this one. Each (path, function) entry
    /// merges independently; the caller merges partials in tree order so
    /// instance lists concatenate in the serial absorb order.
    fn merge(&mut self, mut other: Aggregate) {
        let mut stack: Vec<(FunctionKey, usize, Option<usize>)> = other
            .roots
            .iter()
            .map(|(&func, &index)| (func, index, None))
            .collect();
        while let Some((func, other_index, parent)) = stack.pop() {
            let entry = std::mem::take(&mut other.entries[other_index]);
            let self_index = self.entry_index(parent, func);
            let target = &mut self.entries[self_index];
            target.invocation_times += entry.invocation_times;
            target.included_instances.extend(entry.included_instances);
            target.self_cpu.add_vector(&entry.self_cpu);
            for (&child_func, &child_index) in &entry.children {
                stack.push((child_func, child_index, Some(self_index)));
            }
        }
    }

    /// Converts the scaffold into CCSG nodes, computing descendant CPU
    /// bottom-up and accumulating the system-wide self-CPU total — one
    /// iterative two-phase pass (no recursion).
    fn finish(mut self, system_total: &mut CpuVector) -> Vec<CcsgNode> {
        enum Step {
            Enter(FunctionKey, usize),
            Exit,
        }
        let mut result: Vec<CcsgNode> = Vec::new();
        let mut building: Vec<CcsgNode> = Vec::new();
        let mut stack: Vec<Step> = self
            .roots
            .iter()
            .rev()
            .map(|(&func, &index)| Step::Enter(func, index))
            .collect();
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(func, index) => {
                    let entry = std::mem::take(&mut self.entries[index]);
                    system_total.add_vector(&entry.self_cpu);
                    stack.push(Step::Exit);
                    for (&child_func, &child_index) in entry.children.iter().rev() {
                        stack.push(Step::Enter(child_func, child_index));
                    }
                    building.push(CcsgNode {
                        func,
                        invocation_times: entry.invocation_times,
                        included_instances: entry.included_instances,
                        self_cpu: entry.self_cpu,
                        descendant_cpu: CpuVector::new(),
                        children: Vec::with_capacity(entry.children.len()),
                    });
                }
                Step::Exit => {
                    let mut node = building.pop().expect("Enter pushed a node");
                    let mut descendant = CpuVector::new();
                    for child in &node.children {
                        descendant.add_vector(&child.self_cpu);
                        descendant.add_vector(&child.descendant_cpu);
                    }
                    node.descendant_cpu = descendant;
                    match building.last_mut() {
                        Some(parent) => parent.children.push(node),
                        None => result.push(node),
                    }
                }
            }
        }
        result
    }
}

/// Formats nanoseconds in the paper's `[second, microsecond]` style.
pub fn format_sec_usec(ns: u64) -> String {
    let seconds = ns / 1_000_000_000;
    let micros = (ns % 1_000_000_000) / 1_000;
    format!("[{seconds} second, {micros} microsecond]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dscg::{CallTree, NodeProbe};
    use causeway_core::event::{CallKind, TraceEvent};
    use causeway_core::ids::*;
    use causeway_core::record::{CallSite, ProbeRecord};
    use causeway_core::uuid::Uuid;

    fn stamped(event: TraceEvent, cpu: (u64, u64)) -> NodeProbe {
        NodeProbe::from(&ProbeRecord {
            uuid: Uuid(1),
            seq: 1,
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
            cpu_start: Some(cpu.0),
            cpu_end: Some(cpu.1),
            oneway_child: None,
            oneway_parent: None,
        })
    }

    fn leaf(object: u64, self_ns: u64) -> CallNode {
        CallNode {
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(object)),
            kind: CallKind::Sync,
            chain: Uuid(1),
            stub_start: Some(stamped(TraceEvent::StubStart, (0, 0))),
            skel_start: Some(stamped(TraceEvent::SkelStart, (0, 100))),
            skel_end: Some(stamped(TraceEvent::SkelEnd, (100 + self_ns, 100 + self_ns))),
            stub_end: Some(stamped(TraceEvent::StubEnd, (0, 0))),
            oneway_child: None,
            children: Vec::new(),
            complete: true,
        }
    }

    fn deployment() -> Deployment {
        let mut d = Deployment::new();
        let n = d.add_node("box", CpuTypeId(0));
        d.add_process("p", n);
        d
    }

    #[test]
    fn repeated_invocations_merge_into_one_ccsg_node() {
        let trees = vec![
            CallTree { chain: Uuid(1), roots: vec![leaf(7, 50), leaf(7, 70)] },
            CallTree { chain: Uuid(2), roots: vec![leaf(7, 30)] },
        ];
        let dscg = Dscg::from_trees(trees);
        let ccsg = Ccsg::build(&dscg, &deployment());
        assert_eq!(ccsg.roots.len(), 1);
        let node = &ccsg.roots[0];
        assert_eq!(node.invocation_times, 3);
        assert_eq!(node.included_instances.len(), 3);
        assert_eq!(node.self_cpu.get(CpuTypeId(0)), 150);
        assert!(node.descendant_cpu.is_zero());
        assert_eq!(ccsg.system_total.total(), 150);
    }

    #[test]
    fn hierarchy_is_preserved_and_descendants_summed() {
        let mut parent = leaf(1, 100);
        parent.children.push(leaf(2, 40));
        parent.children.push(leaf(2, 60));
        let dscg = Dscg::from_trees(vec![CallTree { chain: Uuid(1), roots: vec![parent] }]);
        let ccsg = Ccsg::build(&dscg, &deployment());
        assert_eq!(ccsg.roots.len(), 1);
        let root = &ccsg.roots[0];
        assert_eq!(root.children.len(), 1, "both child instances merged");
        assert_eq!(root.children[0].invocation_times, 2);
        assert_eq!(root.children[0].self_cpu.get(CpuTypeId(0)), 100);
        assert_eq!(root.descendant_cpu.get(CpuTypeId(0)), 100);
        assert_eq!(ccsg.size(), 2);
    }

    #[test]
    fn distinct_objects_stay_distinct() {
        let trees = vec![CallTree { chain: Uuid(1), roots: vec![leaf(1, 10), leaf(2, 20)] }];
        let dscg = Dscg::from_trees(trees);
        let ccsg = Ccsg::build(&dscg, &deployment());
        assert_eq!(ccsg.roots.len(), 2);
    }

    #[test]
    fn sec_usec_formatting_matches_figure_6() {
        assert_eq!(format_sec_usec(0), "[0 second, 0 microsecond]");
        assert_eq!(format_sec_usec(1_500_000), "[0 second, 1500 microsecond]");
        assert_eq!(
            format_sec_usec(2_000_456_000),
            "[2 second, 456 microsecond]"
        );
    }
}
