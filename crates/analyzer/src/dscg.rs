//! Dynamic System Call Graph reconstruction.
//!
//! For each unique Function UUID the analyzer reads the chain's events in
//! ascending event-number order off the database index and feeds them to
//! the Figure-4 machine (the private `figure4` module), keeping each probe's
//! event number, site and stamps in its frames: each closed frame becomes a
//! [`CallNode`]. A synchronous invocation contributes the pattern
//! `F.stub_start … F.skel_start … (children) … F.skel_end … F.stub_end`; a
//! one-way invocation contributes `F.stub_start F.stub_end` on the parent
//! chain and `F.skel_start … (children) … F.skel_end` at the head of a fresh
//! child chain, which is grafted back under its fork site (grafting is
//! off-line only).
//!
//! When adjacent records follow none of the legal transitions, the machine
//! "indicates the failure and restarts from the next log record" — each such
//! failure is reported as an [`Abnormality`].

use crate::figure4::{Close, Consumer, Frame, Machine, Probe, Step};
use crate::latency::Stamps;
use causeway_collector::db::MonitoringDb;
use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::pool;
use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
use causeway_core::uuid::Uuid;
use std::collections::{HashMap, HashSet};

/// What a call node keeps of one probe record: its event number, where it
/// fired, and whichever of its four stamps were recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeProbe {
    /// The event number issued on the record's chain.
    pub seq: u64,
    /// Where the probe fired.
    pub site: CallSite,
    /// Wall start, wall end, CPU start, CPU end; zero where not recorded.
    stamps: [u64; 4],
    /// Bit `i` set: `stamps[i]` was recorded.
    recorded: u8,
}

impl NodeProbe {
    fn stamp(&self, i: usize) -> Option<u64> {
        (self.recorded & (1 << i) != 0).then_some(self.stamps[i])
    }

    /// Wall stamp when the probe began, ns (latency mode only).
    pub fn wall_start(&self) -> Option<u64> {
        self.stamp(0)
    }

    /// Wall stamp when the probe finished, ns (latency mode only).
    pub fn wall_end(&self) -> Option<u64> {
        self.stamp(1)
    }

    /// CPU counter when the probe began, ns (CPU mode only).
    pub fn cpu_start(&self) -> Option<u64> {
        self.stamp(2)
    }

    /// CPU counter when the probe finished, ns (CPU mode only).
    pub fn cpu_end(&self) -> Option<u64> {
        self.stamp(3)
    }
}

impl From<&ProbeRecord> for NodeProbe {
    fn from(record: &ProbeRecord) -> NodeProbe {
        let stamps = [record.wall_start, record.wall_end, record.cpu_start, record.cpu_end];
        let mut recorded = 0;
        for (i, stamp) in stamps.iter().enumerate() {
            recorded |= u8::from(stamp.is_some()) << i;
        }
        let stamps = stamps.map(|stamp| stamp.unwrap_or(0));
        NodeProbe { seq: record.seq, site: record.site, stamps, recorded }
    }
}

impl Probe for NodeProbe {
    fn of(record: &ProbeRecord) -> NodeProbe {
        NodeProbe::from(record)
    }

    fn stamps(&self) -> Stamps {
        Stamps { wall_start: self.wall_start(), wall_end: self.wall_end() }
    }
}

/// One reconstructed invocation in the call graph.
///
/// `Clone`, `PartialEq` and `Drop` are hand-written iteratively: the derived
/// (or compiler-generated) versions recurse once per tree level and overflow
/// the stack on paper-scale chain depths.
#[derive(Debug)]
pub struct CallNode {
    /// What was invoked.
    pub func: FunctionKey,
    /// How it was invoked.
    pub kind: CallKind,
    /// The chain whose records this node was built from — for a grafted
    /// one-way call, the chain of its stub side.
    pub chain: Uuid,
    /// Probe 1 (client side), when observed.
    pub stub_start: Option<NodeProbe>,
    /// Probe 2 (server side), when observed.
    pub skel_start: Option<NodeProbe>,
    /// Probe 3 (server side), when observed.
    pub skel_end: Option<NodeProbe>,
    /// Probe 4 (client side), when observed.
    pub stub_end: Option<NodeProbe>,
    /// For a one-way call's stub side: the fresh chain its stub start
    /// spawned for the callee, grafted under this node when found.
    pub oneway_child: Option<Uuid>,
    /// Child invocations in call order (one-way children included after
    /// grafting).
    pub children: Vec<CallNode>,
    /// `false` when the parser had to force-close this invocation (missing
    /// events — e.g. a crashed process's lost log).
    pub complete: bool,
}

impl CallNode {
    /// Total number of nodes in this subtree (including self).
    pub fn size(&self) -> usize {
        let mut count = 0;
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            count += 1;
            stack.extend(node.children.iter());
        }
        count
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        let mut max = 0;
        let mut stack = vec![(self, 1usize)];
        while let Some((node, depth)) = stack.pop() {
            max = max.max(depth);
            stack.extend(node.children.iter().map(|c| (c, depth + 1)));
        }
        max
    }

    /// Depth-first pre-order traversal.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a CallNode, usize)) {
        walk_nodes(std::slice::from_ref(self), f);
    }
}

/// Which side of a node's subtree a [`walk_pre_post`] visit is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Before the node's children.
    Enter,
    /// After all of the node's children.
    Exit,
}

/// Iterative depth-first pre-order traversal over sibling roots.
///
/// The callback sees each node with its depth (roots are depth 0) in exactly
/// the order the old per-level recursion produced, but with an explicit work
/// stack — deep chains cost heap, not call-stack frames.
pub fn walk_nodes<'a>(roots: &'a [CallNode], f: &mut impl FnMut(&'a CallNode, usize)) {
    let mut stack: Vec<(&'a CallNode, usize)> = roots.iter().rev().map(|r| (r, 0)).collect();
    while let Some((node, depth)) = stack.pop() {
        f(node, depth);
        for child in node.children.iter().rev() {
            stack.push((child, depth + 1));
        }
    }
}

/// Iterative depth-first traversal delivering both [`Visit::Enter`] (before a
/// node's children) and [`Visit::Exit`] (after all of them).
///
/// This is the one traversal shape every recursive analyzer pass shares —
/// CPU roll-up, CCSG aggregation, XML rendering, replay-spec derivation —
/// expressed without per-level stack frames. Roots are depth 0.
pub fn walk_pre_post<'a>(roots: &'a [CallNode], f: &mut impl FnMut(&'a CallNode, usize, Visit)) {
    let mut stack: Vec<(&'a CallNode, usize, Visit)> =
        roots.iter().rev().map(|r| (r, 0, Visit::Enter)).collect();
    while let Some((node, depth, visit)) = stack.pop() {
        match visit {
            Visit::Enter => {
                f(node, depth, Visit::Enter);
                stack.push((node, depth, Visit::Exit));
                for child in node.children.iter().rev() {
                    stack.push((child, depth + 1, Visit::Enter));
                }
            }
            Visit::Exit => f(node, depth, Visit::Exit),
        }
    }
}

impl Clone for CallNode {
    fn clone(&self) -> CallNode {
        fn shallow(node: &CallNode) -> CallNode {
            CallNode {
                func: node.func,
                kind: node.kind,
                chain: node.chain,
                stub_start: node.stub_start,
                skel_start: node.skel_start,
                skel_end: node.skel_end,
                stub_end: node.stub_end,
                oneway_child: node.oneway_child,
                children: Vec::with_capacity(node.children.len()),
                complete: node.complete,
            }
        }
        // Two-phase build: on Enter push a childless copy, on Exit pop it
        // into its parent (or out as the finished root).
        let mut building: Vec<CallNode> = Vec::new();
        let mut done: Option<CallNode> = None;
        walk_pre_post(std::slice::from_ref(self), &mut |node, _, visit| match visit {
            Visit::Enter => building.push(shallow(node)),
            Visit::Exit => {
                let finished = building.pop().expect("Enter pushed a copy");
                match building.last_mut() {
                    Some(parent) => parent.children.push(finished),
                    None => done = Some(finished),
                }
            }
        });
        done.expect("root Exit ran")
    }
}

impl PartialEq for CallNode {
    fn eq(&self, other: &CallNode) -> bool {
        let mut stack = vec![(self, other)];
        while let Some((a, b)) = stack.pop() {
            if a.func != b.func
                || a.kind != b.kind
                || a.chain != b.chain
                || a.oneway_child != b.oneway_child
                || a.complete != b.complete
                || a.stub_start != b.stub_start
                || a.skel_start != b.skel_start
                || a.skel_end != b.skel_end
                || a.stub_end != b.stub_end
                || a.children.len() != b.children.len()
            {
                return false;
            }
            stack.extend(a.children.iter().zip(b.children.iter()));
        }
        true
    }
}

impl Eq for CallNode {}

impl Drop for CallNode {
    fn drop(&mut self) {
        // Flatten the subtree into a scratch list first, so every node
        // reaches the compiler-generated drop glue with empty children.
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

/// One causal chain unfolded into a tree (the paper's `T_i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallTree {
    /// The chain's Function UUID.
    pub chain: Uuid,
    /// Top-level sibling invocations of the chain, in call order.
    pub roots: Vec<CallNode>,
}

impl CallTree {
    /// Total nodes across all roots.
    pub fn size(&self) -> usize {
        self.roots.iter().map(CallNode::size).sum()
    }
}

/// A reconstruction failure: adjacent records followed none of the legal
/// Figure-4 transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Abnormality {
    /// The chain on which the failure occurred.
    pub chain: Uuid,
    /// The event number of the offending record (`None` for end-of-stream
    /// failures such as never-closed invocations).
    pub at_seq: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

/// The Dynamic System Call Graph: the grouping of every chain's tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dscg {
    /// Root trees in chain-first-appearance order. One-way child chains are
    /// grafted under their fork sites and do not appear here separately.
    pub trees: Vec<CallTree>,
    /// All reconstruction failures encountered.
    pub abnormalities: Vec<Abnormality>,
}

impl Dscg {
    /// Wraps already-reconstructed trees in a graph with no abnormalities —
    /// the shape every synthetic-tree test and exporter fixture needs.
    pub fn from_trees(trees: Vec<CallTree>) -> Dscg {
        Dscg { trees, abnormalities: Vec::new() }
    }

    /// Reconstructs the DSCG from a monitoring database on the configured
    /// worker pool (see [`causeway_core::pool::configured_threads`]).
    pub fn build(db: &MonitoringDb) -> Dscg {
        Self::build_with_threads(db, pool::configured_threads())
    }

    /// Reconstructs the DSCG on the caller's thread only — the reference
    /// the parallel build is checked against.
    pub fn build_serial(db: &MonitoringDb) -> Dscg {
        Self::build_with_threads(db, 1)
    }

    /// Reconstructs the DSCG using up to `threads` worker threads.
    ///
    /// Chains are sharded by Function UUID — causal identity — so every
    /// chain parses independently off its slice of the database index;
    /// per-chain trees and abnormality lists then merge back in the existing
    /// chain-first-appearance order, which makes the output bit-identical at
    /// any thread count. The grafting of one-way child chains is a
    /// cross-chain fix-up and stays serial (it is O(nodes moved), a small
    /// fraction of parse cost).
    pub fn build_with_threads(db: &MonitoringDb, threads: usize) -> Dscg {
        let uuids = db.unique_uuids();
        // Parse every chain independently on the pool; each shard returns
        // its tree, the abnormalities it alone observed, and the one-way
        // links its records carry.
        let positions: Vec<usize> = (0..uuids.len()).collect();
        let shards = pool::par_map(&positions, threads, |&position| {
            let mut builder = TreeBuilder::new(uuids[position]);
            let mut machine = Machine::default();
            for record in db.chain_events(position) {
                if let Some(child) = record.oneway_child {
                    builder.forks.push(child);
                }
                builder.links = (record.oneway_child, record.oneway_parent.is_some());
                machine.step(Step::of(record), &mut builder);
            }
            machine.finish(&mut builder);
            builder
        });

        // A chain is a child when some record forked it, or when one of its
        // own one-way heads carried a parent marker.
        let mut abnormalities = Vec::new();
        let mut child_chains: HashSet<Uuid> = HashSet::new();
        let mut parsed: HashMap<Uuid, Vec<CallNode>> = HashMap::with_capacity(shards.len());
        for (&uuid, chain) in uuids.iter().zip(shards) {
            abnormalities.extend(chain.abnormalities);
            child_chains.extend(chain.forks);
            if chain.has_parent_marker {
                child_chains.insert(uuid);
            }
            parsed.insert(uuid, chain.roots);
        }

        // Extract child chains from the map so they can be moved into their
        // parents. Chains forming cycles (corruption) degrade to roots.
        let mut children_by_id: HashMap<Uuid, Vec<CallNode>> = HashMap::new();
        for child in child_chains {
            if let Some(chain) = parsed.remove(&child) {
                children_by_id.insert(child, chain);
            }
        }

        // Build final trees: graft child chains into parsed chains with an
        // explicit work stack (deep trees must not recurse). Each popped
        // node is grafted if it is a fork site, then its children — the
        // freshly grafted subtree included — are pushed, so nested one-way
        // chains attach transitively exactly as the old recursion did.
        fn graft_into(
            roots: &mut [CallNode],
            children_by_id: &mut HashMap<Uuid, Vec<CallNode>>,
            abnormalities: &mut Vec<Abnormality>,
        ) {
            let mut stack: Vec<&mut CallNode> = roots.iter_mut().collect();
            while let Some(node) = stack.pop() {
                if node.kind == CallKind::Oneway {
                    if let Some(child_id) = node.oneway_child {
                        if let Some(mut chain) = children_by_id.remove(&child_id) {
                            match chain.len() {
                                0 => {
                                    // The message never arrived (lost one-way):
                                    // nothing to graft; the node stays skel-less.
                                }
                                1 => {
                                    let mut root = chain.pop().expect("len checked");
                                    node.skel_start = root.skel_start.take();
                                    node.skel_end = root.skel_end.take();
                                    node.children = std::mem::take(&mut root.children);
                                    node.complete = node.complete && root.complete;
                                }
                                n => {
                                    abnormalities.push(Abnormality {
                                        chain: child_id,
                                        at_seq: None,
                                        message: format!(
                                            "one-way child chain has {n} roots, expected 1"
                                        ),
                                    });
                                    // Keep them all as children of the fork node.
                                    node.children.append(&mut chain);
                                }
                            }
                        }
                    }
                }
                stack.extend(node.children.iter_mut());
            }
        }

        let mut trees = Vec::new();
        for &uuid in uuids {
            let Some(mut roots) = parsed.remove(&uuid) else { continue };
            graft_into(&mut roots, &mut children_by_id, &mut abnormalities);
            trees.push(CallTree { chain: uuid, roots });
        }

        // Orphaned child chains (their fork record was lost): surface them
        // as their own trees plus an abnormality.
        let mut orphans: Vec<(Uuid, Vec<CallNode>)> = children_by_id.into_iter().collect();
        orphans.sort_by_key(|&(uuid, _)| uuid);
        for (uuid, roots) in orphans {
            abnormalities.push(Abnormality {
                chain: uuid,
                at_seq: None,
                message: "one-way child chain without a reachable fork site".into(),
            });
            trees.push(CallTree { chain: uuid, roots });
        }

        Dscg { trees, abnormalities }
    }

    /// Total invocations across all trees.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(CallTree::size).sum()
    }

    /// Depth-first pre-order traversal over every tree.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a CallNode, usize)) {
        for tree in &self.trees {
            for root in &tree.roots {
                root.walk(f);
            }
        }
    }
}

/// One chain's tree, built from the Figure-4 machine's decisions: each
/// closed frame becomes a node under its parent frame, or a root. Beside
/// the tree it collects the one-way links the chain's records carry.
struct TreeBuilder {
    chain: Uuid,
    roots: Vec<CallNode>,
    abnormalities: Vec<Abnormality>,
    /// Per open frame, innermost last: the chain its opening stub start
    /// forked.
    open_forks: Vec<Option<Uuid>>,
    /// Every chain a record of this chain forked.
    forks: Vec<Uuid>,
    /// Some one-way head of this chain named a parent chain.
    has_parent_marker: bool,
    /// The one-way links of the record being stepped: the chain it forks,
    /// and whether it names a parent chain.
    links: (Option<Uuid>, bool),
}

impl TreeBuilder {
    fn new(chain: Uuid) -> TreeBuilder {
        TreeBuilder {
            chain,
            roots: Vec::new(),
            abnormalities: Vec::new(),
            open_forks: Vec::new(),
            forks: Vec::new(),
            has_parent_marker: false,
            links: (None, false),
        }
    }
}

impl Consumer<NodeProbe, Vec<CallNode>> for TreeBuilder {
    fn opened(&mut self, step: &Step<NodeProbe>) {
        let (child, names_parent) = self.links;
        let fork = match step.event {
            TraceEvent::StubStart if step.kind == CallKind::Oneway => child,
            TraceEvent::StubStart => None,
            // The head of a one-way child chain.
            _ => {
                self.has_parent_marker |= names_parent;
                None
            }
        };
        self.open_forks.push(fork);
    }

    fn closed(
        &mut self,
        frame: Frame<NodeProbe, Vec<CallNode>>,
        how: Close,
        parent: Option<&mut Frame<NodeProbe, Vec<CallNode>>>,
        _depth: usize,
    ) {
        let node = CallNode {
            func: frame.func,
            kind: frame.kind,
            chain: self.chain,
            stub_start: frame.stub_start,
            skel_start: frame.skel_start,
            skel_end: frame.skel_end,
            stub_end: frame.stub_end,
            oneway_child: self.open_forks.pop().expect("every open frame has a fork slot"),
            children: frame.children,
            complete: matches!(how, Close::Completed | Close::Sent),
        };
        match parent {
            Some(parent) => parent.children.push(node),
            None => self.roots.push(node),
        }
    }

    fn abnormal(&mut self, at_seq: Option<u64>, message: String) {
        self.abnormalities.push(Abnormality { chain: self.chain, at_seq, message });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::deploy::Deployment;
    use causeway_core::event::TraceEvent;
    use causeway_core::ids::*;
    use causeway_core::names::VocabSnapshot;
    use causeway_core::record::CallSite;
    use causeway_core::runlog::RunLog;

    fn func(object: u64) -> FunctionKey {
        FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(object))
    }

    fn rec(uuid: u128, seq: u64, event: TraceEvent, kind: CallKind, object: u64) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(uuid),
            seq,
            event,
            kind,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(0),
                thread: LogicalThreadId(0),
            },
            func: func(object),
            wall_start: None,
            wall_end: None,
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    fn build(records: Vec<ProbeRecord>) -> Dscg {
        let db = MonitoringDb::from_run(RunLog::new(
            records,
            VocabSnapshot::default(),
            Deployment::new(),
        ));
        Dscg::build(&db)
    }

    /// `main { F(); G(); }` — the sibling pattern of Table 1.
    #[test]
    fn sibling_pattern_reconstructs_two_roots() {
        let mut records = Vec::new();
        let mut seq = 0;
        for object in [1u64, 2] {
            for event in TraceEvent::ALL {
                seq += 1;
                records.push(rec(7, seq, event, CallKind::Sync, object));
            }
        }
        let dscg = build(records);
        assert!(dscg.abnormalities.is_empty());
        assert_eq!(dscg.trees.len(), 1);
        let tree = &dscg.trees[0];
        assert_eq!(tree.roots.len(), 2, "F and G are siblings");
        assert_eq!(tree.roots[0].func, func(1));
        assert_eq!(tree.roots[1].func, func(2));
        assert!(tree.roots.iter().all(|r| r.children.is_empty() && r.complete));
    }

    /// `F { G { H } }` — the parent/child pattern of Table 1.
    #[test]
    fn nested_pattern_reconstructs_parent_child() {
        let records = vec![
            rec(7, 1, TraceEvent::StubStart, CallKind::Sync, 1),
            rec(7, 2, TraceEvent::SkelStart, CallKind::Sync, 1),
            rec(7, 3, TraceEvent::StubStart, CallKind::Sync, 2),
            rec(7, 4, TraceEvent::SkelStart, CallKind::Sync, 2),
            rec(7, 5, TraceEvent::StubStart, CallKind::Sync, 3),
            rec(7, 6, TraceEvent::SkelStart, CallKind::Sync, 3),
            rec(7, 7, TraceEvent::SkelEnd, CallKind::Sync, 3),
            rec(7, 8, TraceEvent::StubEnd, CallKind::Sync, 3),
            rec(7, 9, TraceEvent::SkelEnd, CallKind::Sync, 2),
            rec(7, 10, TraceEvent::StubEnd, CallKind::Sync, 2),
            rec(7, 11, TraceEvent::SkelEnd, CallKind::Sync, 1),
            rec(7, 12, TraceEvent::StubEnd, CallKind::Sync, 1),
        ];
        let dscg = build(records);
        assert!(dscg.abnormalities.is_empty());
        assert_eq!(dscg.trees.len(), 1);
        let f = &dscg.trees[0].roots[0];
        assert_eq!(f.func, func(1));
        assert_eq!(f.children.len(), 1);
        let g = &f.children[0];
        assert_eq!(g.func, func(2));
        assert_eq!(g.children.len(), 1);
        assert_eq!(g.children[0].func, func(3));
        assert_eq!(f.size(), 3);
        assert_eq!(f.depth(), 3);
        assert_eq!(dscg.total_nodes(), 3);
    }

    #[test]
    fn oneway_child_chain_grafts_under_fork_site() {
        let mut fork = rec(1, 1, TraceEvent::StubStart, CallKind::Oneway, 5);
        fork.oneway_child = Some(Uuid(2));
        let mut child_head = rec(2, 1, TraceEvent::SkelStart, CallKind::Oneway, 5);
        child_head.oneway_parent = Some((Uuid(1), 1));
        let records = vec![
            fork,
            rec(1, 2, TraceEvent::StubEnd, CallKind::Oneway, 5),
            child_head,
            // The one-way implementation makes a nested sync call.
            rec(2, 2, TraceEvent::StubStart, CallKind::Sync, 6),
            rec(2, 3, TraceEvent::SkelStart, CallKind::Sync, 6),
            rec(2, 4, TraceEvent::SkelEnd, CallKind::Sync, 6),
            rec(2, 5, TraceEvent::StubEnd, CallKind::Sync, 6),
            rec(2, 6, TraceEvent::SkelEnd, CallKind::Oneway, 5),
        ];
        let dscg = build(records);
        assert!(dscg.abnormalities.is_empty(), "{:?}", dscg.abnormalities);
        assert_eq!(dscg.trees.len(), 1, "child chain was grafted, not rooted");
        let root = &dscg.trees[0].roots[0];
        assert_eq!(root.func, func(5));
        assert!(root.stub_start.is_some() && root.stub_end.is_some());
        assert!(root.skel_start.is_some() && root.skel_end.is_some());
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].func, func(6));
    }

    #[test]
    fn orphan_child_chain_becomes_root_with_abnormality() {
        let mut head = rec(2, 1, TraceEvent::SkelStart, CallKind::Oneway, 5);
        head.oneway_parent = Some((Uuid(1), 1)); // parent chain never logged
        let records = vec![head, rec(2, 2, TraceEvent::SkelEnd, CallKind::Oneway, 5)];
        let dscg = build(records);
        assert_eq!(dscg.trees.len(), 1);
        assert_eq!(dscg.abnormalities.len(), 1);
        assert!(dscg.abnormalities[0].message.contains("fork site"));
    }

    #[test]
    fn missing_skeleton_events_are_abnormal_but_recovered() {
        // A lost request: stub_start then stub_end with nothing in between
        // (the failure shape `Client::invoke` produces on timeouts).
        let records = vec![
            rec(1, 1, TraceEvent::StubStart, CallKind::Sync, 1),
            rec(1, 2, TraceEvent::StubEnd, CallKind::Sync, 1),
            // A healthy sibling afterwards.
            rec(1, 3, TraceEvent::StubStart, CallKind::Sync, 2),
            rec(1, 4, TraceEvent::SkelStart, CallKind::Sync, 2),
            rec(1, 5, TraceEvent::SkelEnd, CallKind::Sync, 2),
            rec(1, 6, TraceEvent::StubEnd, CallKind::Sync, 2),
        ];
        let dscg = build(records);
        assert_eq!(dscg.abnormalities.len(), 1);
        let tree = &dscg.trees[0];
        assert_eq!(tree.roots.len(), 2, "parser re-synchronized after the failure");
        assert!(!tree.roots[0].complete);
        assert!(tree.roots[1].complete);
    }

    #[test]
    fn truncated_chain_reports_incomplete_invocation() {
        let records = vec![
            rec(1, 1, TraceEvent::StubStart, CallKind::Sync, 1),
            rec(1, 2, TraceEvent::SkelStart, CallKind::Sync, 1),
            // skel_end / stub_end lost in a crash.
        ];
        let dscg = build(records);
        assert_eq!(dscg.abnormalities.len(), 1);
        assert!(dscg.abnormalities[0].message.contains("never completed"));
        assert_eq!(dscg.trees[0].roots.len(), 1);
        assert!(!dscg.trees[0].roots[0].complete);
    }

    #[test]
    fn stray_skel_events_are_flagged() {
        let records = vec![
            rec(1, 1, TraceEvent::SkelEnd, CallKind::Sync, 1),
            rec(1, 2, TraceEvent::SkelStart, CallKind::Sync, 1),
        ];
        let dscg = build(records);
        assert_eq!(dscg.abnormalities.len(), 2);
        assert!(dscg.trees[0].roots.is_empty());
    }

    #[test]
    fn collocated_pattern_parses_like_sync() {
        let records: Vec<ProbeRecord> = TraceEvent::ALL
            .iter()
            .enumerate()
            .map(|(i, &event)| rec(3, (i + 1) as u64, event, CallKind::Collocated, 9))
            .collect();
        let dscg = build(records);
        assert!(dscg.abnormalities.is_empty());
        assert_eq!(dscg.trees[0].roots[0].kind, CallKind::Collocated);
    }

    #[test]
    fn call_nodes_stay_compact() {
        // Four probe slots of event number, site and stamps — not four
        // whole records (880 B a node when they were).
        assert!(std::mem::size_of::<CallNode>() <= 400, "{}", std::mem::size_of::<CallNode>());
        assert!(std::mem::size_of::<Option<NodeProbe>>() <= 64);
    }

    #[test]
    fn node_probes_keep_exactly_the_recorded_stamps() {
        let mut record = rec(1, 5, TraceEvent::SkelStart, CallKind::Sync, 1);
        record.wall_start = Some(0);
        record.cpu_end = Some(u64::MAX);
        let probe = NodeProbe::from(&record);
        assert_eq!((probe.seq, probe.site), (5, record.site));
        assert_eq!(probe.wall_start(), Some(0), "a zero stamp is still a stamp");
        assert_eq!((probe.wall_end(), probe.cpu_start()), (None, None));
        assert_eq!(probe.cpu_end(), Some(u64::MAX));
        record.wall_start = None;
        assert_ne!(NodeProbe::from(&record), probe);
    }

    #[test]
    fn empty_db_builds_empty_dscg() {
        let dscg = build(vec![]);
        assert!(dscg.trees.is_empty());
        assert_eq!(dscg.total_nodes(), 0);
    }
}
