//! Hotspot and critical-path analysis — the "richer end-to-end system
//! behavior characterization" the paper lists as future work, and the
//! automated version of what its authors did by hand ("by navigating the
//! DSCG … within minutes, developers were able to identify certain code
//! implementation inefficiency").
//!
//! * **Self latency** of an invocation: `L(F)` minus the latency of its
//!   synchronous children — the wall time attributable to the function's
//!   own body (plus runtime transport for remote calls). Summed per
//!   (interface, method), this ranks where end-to-end time is actually
//!   spent.
//! * **Critical path** of a tree: from the root downwards, repeatedly
//!   descend into the synchronous child with the largest latency. The
//!   resulting path is where an optimizer should look first.

use crate::dscg::{CallNode, CallTree, Dscg};
use crate::latency::node_latency;
use causeway_core::event::CallKind;
use causeway_core::ids::{InterfaceId, MethodIndex};
use std::collections::BTreeMap;

/// Aggregated self-latency for one (interface, method).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Hotspot {
    /// Invocations contributing.
    pub count: usize,
    /// Total self latency, ns.
    pub total_self_ns: u64,
    /// Largest single-invocation self latency, ns.
    pub max_self_ns: u64,
}

/// Self latency of one node: `L(F)` minus synchronous children's `L`.
/// One-way children cost the caller only their send window, which the `O_F`
/// compensation already handles, so they are not subtracted.
pub fn self_latency(node: &CallNode) -> Option<u64> {
    let own = node_latency(node)?.latency_ns;
    let children: u64 = node
        .children
        .iter()
        .filter(|c| c.kind != CallKind::Oneway)
        .filter_map(|c| node_latency(c).map(|l| l.latency_ns))
        .sum();
    Some(own.saturating_sub(children))
}

/// Ranks methods by total self latency across the whole DSCG, descending.
pub fn hotspots(dscg: &Dscg) -> Vec<((InterfaceId, MethodIndex), Hotspot)> {
    let mut map: BTreeMap<(InterfaceId, MethodIndex), Hotspot> = BTreeMap::new();
    dscg.walk(&mut |node, _| {
        if let Some(self_ns) = self_latency(node) {
            let entry = map.entry(node.func.method_key()).or_default();
            entry.count += 1;
            entry.total_self_ns += self_ns;
            entry.max_self_ns = entry.max_self_ns.max(self_ns);
        }
    });
    let mut out: Vec<_> = map.into_iter().collect();
    out.sort_by_key(|e| std::cmp::Reverse(e.1.total_self_ns));
    out
}

/// One step of a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The invocation at this step.
    pub func: causeway_core::record::FunctionKey,
    /// Its end-to-end latency `L(F)`, ns.
    pub latency_ns: u64,
    /// Its self latency, ns.
    pub self_ns: u64,
}

/// The critical path of one tree (rooted at its first root): descend into
/// the synchronous child with the largest latency until reaching a leaf.
/// Returns an empty path when no latency data exists.
pub fn critical_path(tree: &CallTree) -> Vec<PathStep> {
    let mut path = Vec::new();
    let Some(mut node) = tree.roots.first() else {
        return path;
    };
    while let Some(latency) = node_latency(node) {
        path.push(PathStep {
            func: node.func,
            latency_ns: latency.latency_ns,
            self_ns: self_latency(node).unwrap_or(0),
        });
        let next = node
            .children
            .iter()
            .filter(|c| c.kind != CallKind::Oneway)
            .filter_map(|c| node_latency(c).map(|l| (c, l.latency_ns)))
            .max_by_key(|(_, l)| *l);
        match next {
            Some((child, _)) => node = child,
            None => break,
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dscg::NodeProbe;
    use causeway_core::event::TraceEvent;
    use causeway_core::ids::*;
    use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
    use causeway_core::uuid::Uuid;

    fn stamp(event: TraceEvent, start: u64, end: u64) -> ProbeRecord {
        ProbeRecord {
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
            wall_start: Some(start),
            wall_end: Some(end),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    /// A sync node spanning `[start, end]` on the wall (zero-width probes).
    fn node(object: u64, method: u16, start: u64, end: u64) -> CallNode {
        let func = FunctionKey::new(InterfaceId(0), MethodIndex(method), ObjectId(object));
        let make = |event, t| Some(NodeProbe::from(&stamp(event, t, t)));
        CallNode {
            func,
            kind: CallKind::Sync,
            chain: Uuid(1),
            stub_start: make(TraceEvent::StubStart, start),
            skel_start: make(TraceEvent::SkelStart, start + 1),
            skel_end: make(TraceEvent::SkelEnd, end - 1),
            stub_end: make(TraceEvent::StubEnd, end),
            oneway_child: None,
            children: vec![],
            complete: true,
        }
    }

    #[test]
    fn self_latency_subtracts_sync_children() {
        let mut parent = node(1, 0, 0, 1000);
        parent.children.push(node(2, 1, 100, 400)); // L = 300
        parent.children.push(node(3, 2, 500, 900)); // L = 400
        assert_eq!(self_latency(&parent), Some(1000 - 300 - 400));
    }

    #[test]
    fn oneway_children_are_not_subtracted() {
        let mut parent = node(1, 0, 0, 1000);
        let mut oneway = node(2, 1, 100, 400);
        oneway.kind = CallKind::Oneway;
        parent.children.push(oneway);
        assert_eq!(self_latency(&parent), Some(1000));
    }

    #[test]
    fn hotspots_rank_by_total_self_latency() {
        let mut parent = node(1, 0, 0, 1000);
        parent.children.push(node(2, 1, 100, 900)); // hot child: self 800
        let dscg = Dscg::from_trees(vec![CallTree { chain: Uuid(1), roots: vec![parent] }]);
        let ranked = hotspots(&dscg);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].0, (InterfaceId(0), MethodIndex(1)), "child is hottest");
        assert_eq!(ranked[0].1.total_self_ns, 800);
        assert_eq!(ranked[1].1.total_self_ns, 200);
        assert_eq!(ranked[0].1.count, 1);
        assert_eq!(ranked[0].1.max_self_ns, 800);
    }

    #[test]
    fn critical_path_follows_the_slowest_child() {
        let mut root = node(1, 0, 0, 1000);
        let mut slow = node(2, 1, 100, 900); // L = 800
        slow.children.push(node(4, 3, 200, 450)); // L = 250
        let fast = node(3, 2, 910, 950); // L = 40
        root.children.push(fast);
        root.children.push(slow);
        let tree = CallTree { chain: Uuid(1), roots: vec![root] };
        let path = critical_path(&tree);
        let methods: Vec<u16> = path.iter().map(|s| s.func.method.0).collect();
        assert_eq!(methods, vec![0, 1, 3], "root -> slow -> its child");
        assert_eq!(path[0].latency_ns, 1000);
        assert_eq!(path[1].latency_ns, 800);
    }

    #[test]
    fn empty_tree_has_empty_path() {
        let tree = CallTree { chain: Uuid(1), roots: vec![] };
        assert!(critical_path(&tree).is_empty());
        let dscg = Dscg::default();
        assert!(hotspots(&dscg).is_empty());
    }
}
