//! Deployment model: nodes (processors) and processes.
//!
//! The paper characterizes CPU propagation "in a distributed cross-thread,
//! cross-process and cross-processor environment", and reports descendant
//! CPU consumption as a vector `<C1, C2, … CM>` with one component per
//! processor *type*. The deployment model records which process runs on
//! which node and which CPU type each node has, so the analyzer can bucket
//! CPU consumption accordingly.

use crate::ids::{CpuTypeId, NodeId, ProcessId};

/// One processor in the deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Display name, e.g. `"hp-k460"`.
    pub name: String,
    /// The node's CPU type (interned in the vocabulary).
    pub cpu_type: CpuTypeId,
}

/// One operating-system process in the deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessInfo {
    /// Display name, e.g. `"render-server"`.
    pub name: String,
    /// The node hosting this process.
    pub node: NodeId,
}

/// The static topology of a run: nodes and processes.
///
/// # Example
///
/// ```
/// use causeway_core::deploy::Deployment;
/// use causeway_core::ids::CpuTypeId;
/// let mut d = Deployment::new();
/// let n = d.add_node("hpux-box", CpuTypeId(0));
/// let p = d.add_process("server", n);
/// assert_eq!(d.node_of(p), Some(n));
/// assert_eq!(d.cpu_type_of_process(p), Some(CpuTypeId(0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Deployment {
    /// Nodes in id order.
    pub nodes: Vec<NodeInfo>,
    /// Processes in id order.
    pub processes: Vec<ProcessInfo>,
}

impl Deployment {
    /// Creates an empty deployment.
    pub fn new() -> Deployment {
        Deployment::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, name: &str, cpu_type: CpuTypeId) -> NodeId {
        let id = NodeId(self.nodes.len() as u16);
        self.nodes.push(NodeInfo { name: name.to_owned(), cpu_type });
        id
    }

    /// Adds a process on `node`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `node` has not been added.
    pub fn add_process(&mut self, name: &str, node: NodeId) -> ProcessId {
        assert!(
            (node.0 as usize) < self.nodes.len(),
            "process {name} placed on unknown {node}"
        );
        let id = ProcessId(self.processes.len() as u16);
        self.processes.push(ProcessInfo { name: name.to_owned(), node });
        id
    }

    /// The node a process runs on.
    pub fn node_of(&self, process: ProcessId) -> Option<NodeId> {
        self.processes.get(process.0 as usize).map(|p| p.node)
    }

    /// The CPU type of the node a process runs on.
    pub fn cpu_type_of_process(&self, process: ProcessId) -> Option<CpuTypeId> {
        let node = self.node_of(process)?;
        self.nodes.get(node.0 as usize).map(|n| n.cpu_type)
    }

    /// The CPU type of a node.
    pub fn cpu_type_of_node(&self, node: NodeId) -> Option<CpuTypeId> {
        self.nodes.get(node.0 as usize).map(|n| n.cpu_type)
    }

    /// Number of distinct CPU types actually used by nodes (the `M` in the
    /// paper's `<C1..CM>` descendant-CPU vector).
    pub fn distinct_cpu_types(&self) -> Vec<CpuTypeId> {
        let mut types: Vec<CpuTypeId> = self.nodes.iter().map(|n| n.cpu_type).collect();
        types.sort();
        types.dedup();
        types
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_queries() {
        let mut d = Deployment::new();
        let hpux = d.add_node("hp1", CpuTypeId(0));
        let nt = d.add_node("nt1", CpuTypeId(1));
        let p0 = d.add_process("a", hpux);
        let p1 = d.add_process("b", nt);
        let p2 = d.add_process("c", nt);
        assert_eq!(d.node_of(p0), Some(hpux));
        assert_eq!(d.node_of(p2), Some(nt));
        assert_eq!(d.cpu_type_of_process(p1), Some(CpuTypeId(1)));
        assert_eq!(d.cpu_type_of_node(hpux), Some(CpuTypeId(0)));
        assert_eq!(d.distinct_cpu_types(), vec![CpuTypeId(0), CpuTypeId(1)]);
    }

    #[test]
    fn distinct_cpu_types_dedups() {
        let mut d = Deployment::new();
        d.add_node("a", CpuTypeId(3));
        d.add_node("b", CpuTypeId(3));
        assert_eq!(d.distinct_cpu_types(), vec![CpuTypeId(3)]);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn process_on_unknown_node_panics() {
        let mut d = Deployment::new();
        d.add_process("orphan", NodeId(5));
    }

    #[test]
    fn lookups_on_unknown_ids_return_none() {
        let d = Deployment::new();
        assert_eq!(d.node_of(ProcessId(0)), None);
        assert_eq!(d.cpu_type_of_process(ProcessId(0)), None);
        assert_eq!(d.cpu_type_of_node(NodeId(0)), None);
    }
}
