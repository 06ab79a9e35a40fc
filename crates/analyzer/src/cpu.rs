//! System-wide CPU consumption (§3.2, second half).
//!
//! Three phases, exactly as the paper structures them:
//!
//! 1. **Self CPU** of each invocation:
//!    `SC_F = (P_{F,3,start} − P_{F,2,end}) − Σ_i (P_{i,4,end} − P_{i,1,start})`
//!    on per-thread CPU stamps — the skeleton window minus each immediate
//!    child's caller-side window (all of which ran on F's thread).
//! 2. **Descendant CPU** propagated along the caller/callee relationship:
//!    `DC_F = Σ_{f ∈ children} (SC_f + DC_f)`, represented as a vector
//!    `<C_1 … C_M>` with one component per processor type.
//! 3. Synthesis with the DSCG into the CCSG (see [`crate::ccsg`]).

use crate::dscg::{CallNode, Dscg, Visit, walk_pre_post};
use causeway_core::deploy::Deployment;
use causeway_core::ids::CpuTypeId;
use causeway_core::pool;

/// CPU nanoseconds bucketed by processor type — the paper's `<C1..CM>`.
///
/// A deployment has a handful of processor types and most vectors carry one
/// or two, so the components live in a small sorted array that moves to the
/// heap only past two. A component added with zero nanoseconds is present
/// (it iterates, and a vector holding it differs from one without it).
#[derive(Clone, Default)]
pub struct CpuVector {
    buckets: Buckets,
}

/// Components a [`CpuVector`] holds before it moves to the heap.
const INLINE_CPU_TYPES: usize = 2;

#[derive(Clone)]
enum Buckets {
    Inline(u8, [(CpuTypeId, u64); INLINE_CPU_TYPES]),
    Spilled(Vec<(CpuTypeId, u64)>),
}

impl Default for Buckets {
    fn default() -> Buckets {
        Buckets::Inline(0, [(CpuTypeId(0), 0); INLINE_CPU_TYPES])
    }
}

impl CpuVector {
    /// The empty vector.
    pub fn new() -> CpuVector {
        CpuVector::default()
    }

    /// A vector with a single component.
    pub fn single(cpu_type: CpuTypeId, ns: u64) -> CpuVector {
        let mut v = CpuVector::new();
        v.add(cpu_type, ns);
        v
    }

    /// The components, in cpu-type order.
    fn components(&self) -> &[(CpuTypeId, u64)] {
        match &self.buckets {
            Buckets::Inline(len, slots) => &slots[..usize::from(*len)],
            Buckets::Spilled(spilled) => spilled,
        }
    }

    /// Adds `ns` to one component.
    pub fn add(&mut self, cpu_type: CpuTypeId, ns: u64) {
        let at = self.components().partition_point(|&(t, _)| t < cpu_type);
        let component = (cpu_type, ns);
        match &mut self.buckets {
            Buckets::Inline(len, slots) => {
                let held = usize::from(*len);
                if at < held && slots[at].0 == cpu_type {
                    slots[at].1 += ns;
                } else if held < INLINE_CPU_TYPES {
                    slots.copy_within(at..held, at + 1);
                    slots[at] = component;
                    *len += 1;
                } else {
                    let mut spilled = slots.to_vec();
                    spilled.insert(at, component);
                    self.buckets = Buckets::Spilled(spilled);
                }
            }
            Buckets::Spilled(spilled) => match spilled.get_mut(at) {
                Some(existing) if existing.0 == cpu_type => existing.1 += ns,
                _ => spilled.insert(at, component),
            },
        }
    }

    /// Component-wise addition.
    pub fn add_vector(&mut self, other: &CpuVector) {
        for &(cpu_type, ns) in other.components() {
            self.add(cpu_type, ns);
        }
    }

    /// One component's value.
    pub fn get(&self, cpu_type: CpuTypeId) -> u64 {
        self.components().iter().find(|&&(t, _)| t == cpu_type).map_or(0, |&(_, ns)| ns)
    }

    /// Sum across all components.
    pub fn total(&self) -> u64 {
        self.components().iter().map(|&(_, ns)| ns).sum()
    }

    /// Iterates (cpu type, ns) in cpu-type order.
    pub fn iter(&self) -> impl Iterator<Item = (CpuTypeId, u64)> + '_ {
        self.components().iter().copied()
    }

    /// `true` when every component is zero or absent.
    pub fn is_zero(&self) -> bool {
        self.total() == 0
    }
}

impl PartialEq for CpuVector {
    fn eq(&self, other: &CpuVector) -> bool {
        self.components() == other.components()
    }
}

impl Eq for CpuVector {}

impl std::fmt::Debug for CpuVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Self and descendant CPU for one invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeCpu {
    /// `SC_F` — the exclusive portion, attributed to the executing node's
    /// CPU type.
    pub self_cpu: CpuVector,
    /// `DC_F` — the inclusive portion contributed by descendants.
    pub descendant_cpu: CpuVector,
}

impl NodeCpu {
    /// `SC_F + DC_F`, the inclusive (total) consumption.
    pub fn inclusive(&self) -> CpuVector {
        let mut v = self.self_cpu.clone();
        v.add_vector(&self.descendant_cpu);
        v
    }
}

/// The CPU characterization of a whole DSCG: a parallel tree of [`NodeCpu`]
/// values, pre-order aligned with [`Dscg::walk`].
#[derive(Debug, Clone, Default)]
pub struct CpuAnalysis {
    /// Pre-order `NodeCpu` per invocation, aligned with `Dscg::walk` order.
    pub per_node: Vec<NodeCpu>,
    /// Grand total self CPU across the system, by processor type.
    pub system_total: CpuVector,
}

impl CpuAnalysis {
    /// Runs phases 1 and 2 over the DSCG on the configured worker pool.
    pub fn compute(dscg: &Dscg, deployment: &Deployment) -> CpuAnalysis {
        Self::compute_with_threads(dscg, deployment, pool::configured_threads())
    }

    /// Runs phases 1 and 2 using up to `threads` worker threads.
    ///
    /// Every tree's `SC`/`DC` roll-up is independent, so contiguous ranges
    /// of trees shard across the pool; per-range pre-order slices
    /// concatenate in tree order, which is exactly the serial `Dscg::walk`
    /// alignment.
    pub fn compute_with_threads(dscg: &Dscg, deployment: &Deployment, threads: usize) -> CpuAnalysis {
        let (per_node, system_total) = pool::fold_ranges(
            dscg.trees.len(),
            threads,
            |range| {
                let mut per_node = Vec::new();
                let mut total = CpuVector::new();
                for tree in &dscg.trees[range] {
                    compute_tree(&tree.roots, deployment, &mut per_node, &mut total);
                }
                (per_node, total)
            },
            |(per_node, system_total), (slice, total)| {
                per_node.extend(slice);
                system_total.add_vector(&total);
            },
        );
        CpuAnalysis { per_node, system_total }
    }
}

/// Computes `SC` and `DC` for every node under `roots`, appending pre-order.
///
/// One iterative pre/post pass: Enter reserves the node's pre-order slot and
/// opens an inclusive-sum frame; Exit fills the slot and folds the node's
/// inclusive vector into its parent's frame — no recursion, so paper-scale
/// chain depths cost heap instead of call stack.
fn compute_tree(
    roots: &[CallNode],
    deployment: &Deployment,
    out: &mut Vec<NodeCpu>,
    system_total: &mut CpuVector,
) {
    // Frame per open node: (pre-order slot, Σ children's inclusive vectors).
    let mut frames: Vec<(usize, CpuVector)> = Vec::new();
    walk_pre_post(roots, &mut |node, _, visit| match visit {
        Visit::Enter => {
            frames.push((out.len(), CpuVector::new()));
            out.push(NodeCpu::default());
        }
        Visit::Exit => {
            let (my_index, descendant) = frames.pop().expect("Enter pushed a frame");
            let self_cpu = self_cpu_of(node, deployment);
            system_total.add_vector(&self_cpu);
            let entry = NodeCpu { self_cpu, descendant_cpu: descendant };
            let inclusive = entry.inclusive();
            out[my_index] = entry;
            if let Some((_, parent_sum)) = frames.last_mut() {
                parent_sum.add_vector(&inclusive);
            }
        }
    });
}

/// Phase 1: `SC_F` on per-thread CPU stamps, attributed to the CPU type of
/// the node where the skeleton ran. Returns the zero vector when CPU stamps
/// are absent (CPU probing was off or the invocation is incomplete).
pub fn self_cpu_of(node: &CallNode, deployment: &Deployment) -> CpuVector {
    let (Some(skel_start), Some(skel_end)) = (&node.skel_start, &node.skel_end) else {
        return CpuVector::new();
    };
    let (Some(window_start), Some(window_end)) = (skel_start.cpu_end(), skel_end.cpu_start()) else {
        return CpuVector::new();
    };
    let mut window = window_end.saturating_sub(window_start);

    for child in &node.children {
        // The child's caller-side bracket ran on F's thread: probes 1 and 4
        // exist for every child kind, and for collocated children the whole
        // execution sits inside the bracket (it is re-added via DC).
        // For a grafted one-way child the bracket is its stub side.
        let start = child.stub_start.and_then(|probe| probe.cpu_start());
        let end = child.stub_end.and_then(|probe| probe.cpu_end());
        if let (Some(start), Some(end)) = (start, end) {
            window = window.saturating_sub(end.saturating_sub(start));
        }
    }

    let cpu_type = deployment
        .cpu_type_of_node(skel_start.site.node)
        .unwrap_or(CpuTypeId(u16::MAX));
    CpuVector::single(cpu_type, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dscg::{CallTree, NodeProbe};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use causeway_core::event::{CallKind, TraceEvent};
    use causeway_core::ids::*;
    use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
    use causeway_core::uuid::Uuid;

    fn record_on(event: TraceEvent, node_id: u16, start: u64, end: u64) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(1),
            seq: 0,
            event,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(node_id),
                process: ProcessId(node_id),
                thread: LogicalThreadId(0),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(0)),
            wall_start: None,
            wall_end: None,
            cpu_start: Some(start),
            cpu_end: Some(end),
            oneway_child: None,
            oneway_parent: None,
        }
    }

    fn cpu_stamp(event: TraceEvent, node_id: u16, start: u64, end: u64) -> NodeProbe {
        NodeProbe::from(&record_on(event, node_id, start, end))
    }

    /// A sync node whose skeleton ran on `node_id`, with the given cpu
    /// stamps for probes (1, 2, 3, 4): each pair (start, end).
    fn node_on(
        node_id: u16,
        p1: (u64, u64),
        p2: (u64, u64),
        p3: (u64, u64),
        p4: (u64, u64),
    ) -> CallNode {
        CallNode {
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(node_id as u64)),
            kind: CallKind::Sync,
            chain: Uuid(1),
            stub_start: Some(cpu_stamp(TraceEvent::StubStart, 0, p1.0, p1.1)),
            skel_start: Some(cpu_stamp(TraceEvent::SkelStart, node_id, p2.0, p2.1)),
            skel_end: Some(cpu_stamp(TraceEvent::SkelEnd, node_id, p3.0, p3.1)),
            stub_end: Some(cpu_stamp(TraceEvent::StubEnd, 0, p4.0, p4.1)),
            oneway_child: None,
            children: Vec::new(),
            complete: true,
        }
    }

    fn two_type_deployment() -> Deployment {
        let mut d = Deployment::new();
        let a = d.add_node("hpux-box", CpuTypeId(0));
        let b = d.add_node("nt-box", CpuTypeId(1));
        d.add_process("p0", a);
        d.add_process("p1", b);
        d
    }

    #[test]
    fn leaf_self_cpu_is_the_skeleton_window() {
        let d = two_type_deployment();
        // Skeleton window on the server thread: 100 (P2 end) .. 400 (P3 start).
        let node = node_on(0, (0, 5), (95, 100), (400, 405), (410, 415));
        let sc = self_cpu_of(&node, &d);
        assert_eq!(sc.get(CpuTypeId(0)), 300);
        assert_eq!(sc.total(), 300);
    }

    #[test]
    fn child_windows_are_excluded_from_self_cpu() {
        let d = two_type_deployment();
        let mut parent = node_on(0, (0, 5), (95, 100), (400, 405), (410, 415));
        // Child bracket on the parent's thread: cpu 150..250 (100 ns).
        let child = node_on(1, (150, 160), (0, 10), (80, 90), (240, 250));
        parent.children.push(child);
        let sc = self_cpu_of(&parent, &d);
        assert_eq!(sc.get(CpuTypeId(0)), 300 - 100);
    }

    #[test]
    fn descendant_cpu_propagates_as_a_vector_per_cpu_type() {
        let d = two_type_deployment();
        // Parent skeleton on node 0 (HPUX); child skeleton on node 1 (NT).
        let mut parent = node_on(0, (0, 5), (95, 100), (400, 405), (410, 415));
        let child = node_on(1, (150, 160), (1000, 1010), (1090, 1100), (240, 250));
        parent.children.push(child);
        let dscg = Dscg::from_trees(vec![CallTree { chain: Uuid(1), roots: vec![parent] }]);
        let analysis = CpuAnalysis::compute(&dscg, &d);
        assert_eq!(analysis.per_node.len(), 2);
        let parent_cpu = &analysis.per_node[0];
        let child_cpu = &analysis.per_node[1];
        // Child self: 1010..1090 = 80 on NT.
        assert_eq!(child_cpu.self_cpu.get(CpuTypeId(1)), 80);
        assert!(child_cpu.descendant_cpu.is_zero());
        // Parent self: 300 − child bracket 100 = 200 on HPUX.
        assert_eq!(parent_cpu.self_cpu.get(CpuTypeId(0)), 200);
        // Parent descendant: the child's inclusive 80 on NT.
        assert_eq!(parent_cpu.descendant_cpu.get(CpuTypeId(1)), 80);
        assert_eq!(parent_cpu.descendant_cpu.get(CpuTypeId(0)), 0);
        // Inclusive = <200 HPUX, 80 NT>.
        let inc = parent_cpu.inclusive();
        assert_eq!(inc.get(CpuTypeId(0)), 200);
        assert_eq!(inc.get(CpuTypeId(1)), 80);
        // System total = sum of self CPUs.
        assert_eq!(analysis.system_total.get(CpuTypeId(0)), 200);
        assert_eq!(analysis.system_total.get(CpuTypeId(1)), 80);
        assert_eq!(analysis.system_total.total(), 280);
    }

    #[test]
    fn three_level_propagation_sums_transitively() {
        let d = two_type_deployment();
        let mut top = node_on(0, (0, 0), (0, 1000), (2000, 2000), (0, 0));
        let mut mid = node_on(1, (1100, 1100), (0, 100), (700, 700), (1200, 1200));
        let leaf = node_on(0, (200, 200), (5000, 5000), (5400, 5400), (300, 300));
        mid.children.push(leaf);
        top.children.push(mid);
        let dscg = Dscg::from_trees(vec![CallTree { chain: Uuid(1), roots: vec![top] }]);
        let analysis = CpuAnalysis::compute(&dscg, &d);
        // leaf self = 400 (HPUX); mid self = 600−100 = 500 (NT);
        // top self = 1000−100 = 900 (HPUX).
        assert_eq!(analysis.per_node[2].self_cpu.get(CpuTypeId(0)), 400);
        assert_eq!(analysis.per_node[1].self_cpu.get(CpuTypeId(1)), 500);
        assert_eq!(analysis.per_node[0].self_cpu.get(CpuTypeId(0)), 900);
        // top descendant = mid inclusive = <400 HPUX, 500 NT>.
        let dc = &analysis.per_node[0].descendant_cpu;
        assert_eq!(dc.get(CpuTypeId(0)), 400);
        assert_eq!(dc.get(CpuTypeId(1)), 500);
    }

    #[test]
    fn missing_cpu_stamps_yield_zero_vector() {
        let d = two_type_deployment();
        let mut node = node_on(0, (0, 0), (0, 0), (0, 0), (0, 0));
        let unstamped = ProbeRecord { cpu_end: None, ..record_on(TraceEvent::SkelStart, 0, 0, 0) };
        node.skel_start = Some(NodeProbe::from(&unstamped));
        assert!(self_cpu_of(&node, &d).is_zero());
        node.skel_start = None;
        assert!(self_cpu_of(&node, &d).is_zero());
    }

    /// One step of a `CpuVector` / `BTreeMap` comparison: add to one
    /// component, or add a vector built from `(type, ns)` pairs.
    #[derive(Debug, Clone)]
    enum Op {
        Add(u16, u64),
        AddVector(Vec<(u16, u64)>),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Five cpu types (past the inline capacity), and a share of
        // zero-nanosecond additions.
        let ns = prop_oneof![Just(0u64), 0u64..1_000_000];
        let pair = (0u16..5, ns);
        prop_oneof![
            pair.clone().prop_map(|(t, ns)| Op::Add(t, ns)),
            proptest::collection::vec(pair, 0..6).prop_map(Op::AddVector),
        ]
    }

    fn apply(ops: &[Op]) -> (CpuVector, BTreeMap<CpuTypeId, u64>) {
        let mut vector = CpuVector::new();
        let mut reference = BTreeMap::new();
        for op in ops {
            match op {
                Op::Add(t, ns) => {
                    vector.add(CpuTypeId(*t), *ns);
                    *reference.entry(CpuTypeId(*t)).or_insert(0) += ns;
                }
                Op::AddVector(pairs) => {
                    let mut other = CpuVector::new();
                    for &(t, ns) in pairs {
                        other.add(CpuTypeId(t), ns);
                        *reference.entry(CpuTypeId(t)).or_insert(0) += ns;
                    }
                    vector.add_vector(&other);
                }
            }
        }
        (vector, reference)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn cpu_vector_matches_a_btreemap(
            a in proptest::collection::vec(op(), 0..12),
            b in proptest::collection::vec(op(), 0..12),
        ) {
            let (va, ra) = apply(&a);
            let (vb, rb) = apply(&b);
            let entries = |m: &BTreeMap<CpuTypeId, u64>| -> Vec<(CpuTypeId, u64)> {
                m.iter().map(|(&t, &ns)| (t, ns)).collect()
            };
            prop_assert_eq!(va.iter().collect::<Vec<_>>(), entries(&ra));
            for t in 0..6 {
                prop_assert_eq!(va.get(CpuTypeId(t)), ra.get(&CpuTypeId(t)).copied().unwrap_or(0));
            }
            prop_assert_eq!(va.total(), ra.values().sum::<u64>());
            prop_assert_eq!(va.is_zero(), ra.values().all(|&ns| ns == 0));
            prop_assert_eq!(va == vb, ra == rb);
            // Summing the two either way round matches the reference sum.
            let mut sum = va.clone();
            sum.add_vector(&vb);
            let mut reverse = vb.clone();
            reverse.add_vector(&va);
            let mut reference = ra.clone();
            for (t, ns) in rb {
                *reference.entry(t).or_insert(0) += ns;
            }
            prop_assert_eq!(sum.iter().collect::<Vec<_>>(), entries(&reference));
            prop_assert!(sum == reverse);
        }
    }

    #[test]
    fn zero_components_are_present() {
        let mut v = CpuVector::single(CpuTypeId(3), 0);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(CpuTypeId(3), 0)]);
        assert_ne!(v, CpuVector::new(), "a present zero differs from absence");
        assert!(v.is_zero());
        for t in [2, 0, 4, 1] {
            v.add(CpuTypeId(t), u64::from(t));
        }
        let types: Vec<u16> = v.iter().map(|(t, _)| t.0).collect();
        assert_eq!(types, vec![0, 1, 2, 3, 4], "sorted past the inline capacity");
        assert_eq!(v.total(), 1 + 2 + 4);
    }

    #[test]
    fn cpu_vector_arithmetic() {
        let mut a = CpuVector::single(CpuTypeId(0), 10);
        a.add(CpuTypeId(1), 5);
        let b = CpuVector::single(CpuTypeId(1), 7);
        a.add_vector(&b);
        assert_eq!(a.get(CpuTypeId(0)), 10);
        assert_eq!(a.get(CpuTypeId(1)), 12);
        assert_eq!(a.total(), 22);
        assert_eq!(a.iter().count(), 2);
        assert!(!a.is_zero());
        assert!(CpuVector::new().is_zero());
    }
}
