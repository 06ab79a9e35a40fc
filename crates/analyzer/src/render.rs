//! Renderers: textual views of the DSCG and CCSG.
//!
//! The paper inspected the DSCG in a hyperbolic tree viewer (Figure 5) and
//! the CCSG in an XML viewer (Figure 6). The data products are identical
//! here; the views are an ASCII tree, Graphviz DOT, and XML, which are
//! inspectable without a 2003-era licensed viewer.

use crate::ccsg::{Ccsg, CcsgNode, format_sec_usec};
use crate::dscg::{CallNode, Dscg};
use crate::latency::node_latency;
use causeway_core::event::CallKind;
use causeway_core::names::VocabSnapshot;
use causeway_core::record::FunctionKey;
use causeway_core::uuid::Uuid;
use std::fmt::Write as _;

/// Options for the ASCII DSCG view.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsciiOptions {
    /// Annotate nodes with `L(F)` when wall stamps are present.
    pub show_latency: bool,
    /// Annotate nodes with the executing process.
    pub show_site: bool,
    /// Truncate each tree after this many nodes (0 = no limit) — Figure 5
    /// likewise shows "a portion of the DSCG".
    pub max_nodes_per_tree: usize,
}

/// Renders the DSCG as an indented ASCII tree.
pub fn ascii_tree(dscg: &Dscg, vocab: &VocabSnapshot, options: AsciiOptions) -> String {
    let mut out = String::new();
    for (i, tree) in dscg.trees.iter().enumerate() {
        writeln!(out, "chain {} ({} nodes)", tree.chain, tree.size()).expect("string write");
        let mut printed = 0usize;
        let mut truncated = false;
        // Explicit pre-order stack: deep trees must not recurse.
        let mut stack: Vec<(&CallNode, usize)> = tree.roots.iter().rev().map(|r| (r, 1)).collect();
        while let Some((node, depth)) = stack.pop() {
            if options.max_nodes_per_tree > 0 && printed >= options.max_nodes_per_tree {
                truncated = true;
                break;
            }
            render_ascii_node(node, vocab, options, depth, &mut printed, &mut out);
            for child in node.children.iter().rev() {
                stack.push((child, depth + 1));
            }
        }
        if truncated {
            writeln!(out, "  … ({} more nodes)", tree.size() - printed).expect("string write");
        }
        if i + 1 < dscg.trees.len() {
            out.push('\n');
        }
    }
    if !dscg.abnormalities.is_empty() {
        writeln!(out, "\n{} abnormalities:", dscg.abnormalities.len()).expect("string write");
        for a in &dscg.abnormalities {
            writeln!(out, "  chain {}: {}", a.chain, a.message).expect("string write");
        }
    }
    out
}

fn render_ascii_node(
    node: &CallNode,
    vocab: &VocabSnapshot,
    options: AsciiOptions,
    depth: usize,
    printed: &mut usize,
    out: &mut String,
) {
    *printed += 1;
    let indent = "  ".repeat(depth);
    let name = vocab.qualified_function(&node.func);
    write!(out, "{indent}{name} [{}]", node.kind).expect("string write");
    if !node.complete {
        out.push_str(" [INCOMPLETE]");
    }
    if options.show_latency {
        if let Some(lat) = node_latency(node) {
            write!(out, " L={}us", lat.latency_ns / 1_000).expect("string write");
        }
    }
    if options.show_site {
        if let Some(skel) = &node.skel_start {
            write!(out, " @{}", skel.site).expect("string write");
        } else if let Some(stub) = &node.stub_start {
            write!(out, " @{}", stub.site).expect("string write");
        }
    }
    out.push('\n');
}

/// Renders the DSCG as Graphviz DOT (one cluster per chain).
pub fn dot(dscg: &Dscg, vocab: &VocabSnapshot) -> String {
    let mut out = String::from("digraph dscg {\n  node [shape=box, fontsize=9];\n");
    let mut next_id = 0usize;
    for (i, tree) in dscg.trees.iter().enumerate() {
        writeln!(out, "  subgraph cluster_{i} {{").expect("string write");
        writeln!(out, "    label=\"chain {}\";", tree.chain).expect("string write");
        // Explicit pre-order stack (node, parent id); ids are assigned in
        // pop order, which matches the old recursion's DFS numbering.
        let mut stack: Vec<(&CallNode, Option<usize>)> =
            tree.roots.iter().rev().map(|r| (r, None)).collect();
        while let Some((node, parent)) = stack.pop() {
            let id = next_id;
            next_id += 1;
            let label = vocab.qualified_function(&node.func).replace('"', "'");
            writeln!(out, "    n{id} [label=\"{label}\\n{}\"];", node.kind).expect("string write");
            if let Some(parent) = parent {
                writeln!(out, "    n{parent} -> n{id};").expect("string write");
            }
            for child in node.children.iter().rev() {
                stack.push((child, Some(id)));
            }
        }
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

/// Renders the CCSG as the Figure-6-style XML document.
pub fn ccsg_xml(ccsg: &Ccsg, vocab: &VocabSnapshot) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n<CPUConsumptionSummarizationGraph>\n");
    for (cpu_type, total) in ccsg.system_total.iter() {
        writeln!(
            out,
            "  <SystemTotal cpuType=\"{}\" consumption=\"{}\"/>",
            xml_escape(vocab.cpu_type_name(cpu_type)),
            format_sec_usec(total)
        )
        .expect("string write");
    }
    // Open/close tags need both sides of each subtree: an explicit
    // enter/exit stack replaces the old per-level recursion.
    enum Step<'a> {
        Enter(&'a CcsgNode, usize),
        Exit(usize),
    }
    let mut stack: Vec<Step> = ccsg.roots.iter().rev().map(|r| Step::Enter(r, 1)).collect();
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(node, depth) => {
                ccsg_xml_open(node, vocab, depth, &mut out);
                stack.push(Step::Exit(depth));
                for child in node.children.iter().rev() {
                    stack.push(Step::Enter(child, depth + 1));
                }
            }
            Step::Exit(depth) => {
                writeln!(out, "{}</Function>", "  ".repeat(depth)).expect("string write");
            }
        }
    }
    out.push_str("</CPUConsumptionSummarizationGraph>\n");
    out
}

fn ccsg_xml_open(node: &CcsgNode, vocab: &VocabSnapshot, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let iface = xml_escape(vocab.interface_name(node.func.interface));
    let method = xml_escape(vocab.method_name(node.func.interface, node.func.method));
    writeln!(
        out,
        "{indent}<Function interface=\"{iface}\" name=\"{method}\" ObjectID=\"{}\" InvocationTimes=\"{}\">",
        node.func.object, node.invocation_times
    )
    .expect("string write");
    writeln!(
        out,
        "{indent}  <IncludedFunctionInstances count=\"{}\"/>",
        node.included_instances.len()
    )
    .expect("string write");
    for (cpu_type, ns) in node.self_cpu.iter() {
        writeln!(
            out,
            "{indent}  <SelfCPUConsumption cpuType=\"{}\">{}</SelfCPUConsumption>",
            xml_escape(vocab.cpu_type_name(cpu_type)),
            format_sec_usec(ns)
        )
        .expect("string write");
    }
    for (cpu_type, ns) in node.descendant_cpu.iter() {
        writeln!(
            out,
            "{indent}  <DescendentCPUConsumption cpuType=\"{}\">{}</DescendentCPUConsumption>",
            xml_escape(vocab.cpu_type_name(cpu_type)),
            format_sec_usec(ns)
        )
        .expect("string write");
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// One completed invocation as streamed by the on-line analyzer: enough to
/// rebuild the chain's call tree without retaining raw probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedCall {
    /// The invoked function.
    pub func: FunctionKey,
    /// How it was invoked (sync, one-way, collocated, …).
    pub kind: CallKind,
    /// Nesting depth within the chain (roots at 0).
    pub depth: usize,
    /// Compensated latency, ns (0 when wall stamps were absent).
    pub latency_ns: u64,
}

/// A node of a reconstructed completed-call tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionNode {
    /// The completed invocation.
    pub call: CompletedCall,
    /// Child invocations in call order.
    pub children: Vec<CompletionNode>,
}

/// Rebuilds a chain's call forest from its completion events.
///
/// The analyzer emits completions in post-order (children before parents)
/// with depths, which uniquely determines the tree: scanning in order, a
/// completion at depth `d` adopts the contiguous run of already-built
/// subtrees of depth `d + 1` at the top of the stack. Orphans whose parent
/// never completed surface as extra roots rather than disappearing.
pub fn completion_forest(completions: &[CompletedCall]) -> Vec<CompletionNode> {
    let mut stack: Vec<CompletionNode> = Vec::new();
    for &call in completions {
        let mut children = Vec::new();
        while stack.last().is_some_and(|n| n.call.depth == call.depth + 1) {
            children.push(stack.pop().expect("checked last"));
        }
        children.reverse(); // popped newest-first; restore call order
        stack.push(CompletionNode { call, children });
    }
    stack
}

/// Renders one completed chain as an indented ASCII tree (the streaming
/// DSCG view: same shape as [`ascii_tree`], fed from completion events).
pub fn completed_chain_ascii(
    chain: Uuid,
    completions: &[CompletedCall],
    vocab: &VocabSnapshot,
) -> String {
    let forest = completion_forest(completions);
    let mut out = String::new();
    writeln!(out, "chain {chain} ({} completed calls)", completions.len())
        .expect("string write");
    let mut stack: Vec<(&CompletionNode, usize)> =
        forest.iter().rev().map(|r| (r, 1)).collect();
    while let Some((node, indent)) = stack.pop() {
        writeln!(
            out,
            "{}{} [{}] L={}us",
            "  ".repeat(indent),
            vocab.qualified_function(&node.call.func),
            node.call.kind,
            node.call.latency_ns / 1_000
        )
        .expect("string write");
        for child in node.children.iter().rev() {
            stack.push((child, indent + 1));
        }
    }
    out
}

/// Renders one completed chain as Graphviz DOT (single cluster).
pub fn completed_chain_dot(
    chain: Uuid,
    completions: &[CompletedCall],
    vocab: &VocabSnapshot,
) -> String {
    let forest = completion_forest(completions);
    let mut out = String::from("digraph dscg {\n  node [shape=box, fontsize=9];\n");
    writeln!(out, "  subgraph cluster_0 {{\n    label=\"chain {chain}\";")
        .expect("string write");
    let mut next_id = 0usize;
    let mut stack: Vec<(&CompletionNode, Option<usize>)> =
        forest.iter().rev().map(|r| (r, None)).collect();
    while let Some((node, parent)) = stack.pop() {
        let id = next_id;
        next_id += 1;
        let label = vocab.qualified_function(&node.call.func).replace('"', "'");
        writeln!(
            out,
            "    n{id} [label=\"{label}\\n{} {}us\"];",
            node.call.kind,
            node.call.latency_ns / 1_000
        )
        .expect("string write");
        if let Some(parent) = parent {
            writeln!(out, "    n{parent} -> n{id};").expect("string write");
        }
        for child in node.children.iter().rev() {
            stack.push((child, Some(id)));
        }
    }
    out.push_str("  }\n}\n");
    out
}

/// Renders an OVATION-style sequence chart: one lane per (process, thread)
/// entity, invocations plotted against wall time. This is the view OVATION
/// offered *without* causality — shown here both for ad-hoc inspection and
/// to make the baselines comparison tangible (the lanes show *when*, the
/// DSCG shows *why*).
pub fn sequence_chart(dscg: &Dscg, vocab: &VocabSnapshot, width: usize) -> String {
    use causeway_core::ids::{LogicalThreadId, ProcessId};
    struct Span {
        entity: (ProcessId, LogicalThreadId),
        start: u64,
        end: u64,
        label: String,
    }
    let mut spans: Vec<Span> = Vec::new();
    dscg.walk(&mut |node, _| {
        // Prefer the servant-side window (where the work happened).
        let (record_start, record_end) = match (&node.skel_start, &node.skel_end) {
            (Some(s), Some(e)) => (s, e),
            _ => match (&node.stub_start, &node.stub_end) {
                (Some(s), Some(e)) => (s, e),
                _ => return,
            },
        };
        if let (Some(start), Some(end)) = (record_start.wall_start(), record_end.wall_end()) {
            spans.push(Span {
                entity: (record_start.site.process, record_start.site.thread),
                start,
                end,
                label: vocab
                    .method_name(node.func.interface, node.func.method)
                    .to_owned(),
            });
        }
    });
    if spans.is_empty() {
        return String::from("(no timed invocations)\n");
    }
    let t_min = spans.iter().map(|s| s.start).min().expect("non-empty");
    let t_max = spans.iter().map(|s| s.end).max().expect("non-empty").max(t_min + 1);
    let width = width.max(20);
    let scale = |t: u64| -> usize {
        ((t - t_min) as u128 * (width - 1) as u128 / (t_max - t_min) as u128) as usize
    };

    let mut entities: Vec<(ProcessId, LogicalThreadId)> =
        spans.iter().map(|s| s.entity).collect();
    entities.sort();
    entities.dedup();

    let mut out = String::new();
    writeln!(
        out,
        "time: {} .. {} ({} µs span)",
        t_min,
        t_max,
        (t_max - t_min) / 1_000
    )
    .expect("string write");
    for entity in entities {
        let mut lane = vec![b' '; width];
        let mut labels: Vec<(usize, String)> = Vec::new();
        for span in spans.iter().filter(|s| s.entity == entity) {
            let a = scale(span.start);
            let b = scale(span.end).max(a);
            for cell in lane.iter_mut().take(b + 1).skip(a) {
                *cell = b'=';
            }
            lane[a] = b'[';
            lane[b] = b']';
            labels.push((a, span.label.clone()));
        }
        writeln!(
            out,
            "{}/{:<6} |{}|",
            entity.0,
            entity.1.to_string(),
            String::from_utf8_lossy(&lane)
        )
        .expect("string write");
        // One label line, best effort (labels may overlap; first wins).
        let mut label_line = vec![b' '; width];
        for (pos, label) in labels {
            let bytes = label.as_bytes();
            if label_line[pos.min(width - 1)] == b' ' {
                for (i, &c) in bytes.iter().enumerate() {
                    if pos + i < width && label_line[pos + i] == b' ' {
                        label_line[pos + i] = c;
                    } else {
                        break;
                    }
                }
            }
        }
        writeln!(
            out,
            "{:w$}  {}",
            "",
            String::from_utf8_lossy(&label_line).trim_end(),
            w = 11
        )
        .expect("string write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccsg::Ccsg;
    use crate::dscg::{CallTree, Dscg, NodeProbe};
    use causeway_core::deploy::Deployment;
    use causeway_core::event::{CallKind, TraceEvent};
    use causeway_core::ids::*;
    use causeway_core::names::{InterfaceEntry, VocabSnapshot};
    use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
    use causeway_core::uuid::Uuid;

    fn vocab() -> VocabSnapshot {
        let mut v = VocabSnapshot::default();
        v.interfaces.push(InterfaceEntry {
            name: "Pipe::Stage".into(),
            methods: vec!["run".into()],
        });
        v.cpu_types.push("HPUX".into());
        v
    }

    fn rec(event: TraceEvent) -> NodeProbe {
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
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(3)),
            wall_start: Some(0),
            wall_end: Some(10),
            cpu_start: Some(0),
            cpu_end: Some(10),
            oneway_child: None,
            oneway_parent: None,
        })
    }

    fn simple_dscg() -> Dscg {
        let node = CallNode {
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(3)),
            kind: CallKind::Sync,
            chain: Uuid(1),
            stub_start: Some(rec(TraceEvent::StubStart)),
            skel_start: Some(rec(TraceEvent::SkelStart)),
            skel_end: Some(rec(TraceEvent::SkelEnd)),
            stub_end: Some(rec(TraceEvent::StubEnd)),
            oneway_child: None,
            children: vec![],
            complete: true,
        };
        Dscg::from_trees(vec![CallTree { chain: Uuid(1), roots: vec![node] }])
    }

    #[test]
    fn ascii_tree_names_functions() {
        let text = ascii_tree(&simple_dscg(), &vocab(), AsciiOptions::default());
        assert!(text.contains("Pipe::Stage.run@obj3"), "{text}");
        assert!(text.contains("chain"));
        assert!(text.contains("[sync]"));
    }

    #[test]
    fn ascii_tree_truncates() {
        let mut dscg = simple_dscg();
        let extra = dscg.trees[0].roots[0].clone();
        for _ in 0..5 {
            dscg.trees[0].roots.push(extra.clone());
        }
        let text = ascii_tree(
            &dscg,
            &vocab(),
            AsciiOptions { max_nodes_per_tree: 2, ..Default::default() },
        );
        assert!(text.contains("more nodes"), "{text}");
    }

    #[test]
    fn ascii_tree_reports_abnormalities() {
        let mut dscg = simple_dscg();
        dscg.abnormalities.push(crate::dscg::Abnormality {
            chain: Uuid(1),
            at_seq: Some(4),
            message: "unexpected stub_end".into(),
        });
        let text = ascii_tree(&dscg, &vocab(), AsciiOptions::default());
        assert!(text.contains("1 abnormalities"));
        assert!(text.contains("unexpected stub_end"));
    }

    #[test]
    fn dot_output_is_wellformed() {
        let text = dot(&simple_dscg(), &vocab());
        assert!(text.starts_with("digraph dscg {"));
        assert!(text.contains("subgraph cluster_0"));
        assert!(text.contains("Pipe::Stage.run@obj3"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn ccsg_xml_contains_figure_6_fields() {
        let dscg = simple_dscg();
        let mut deployment = Deployment::new();
        let n = deployment.add_node("hp", CpuTypeId(0));
        deployment.add_process("p0", n);
        let ccsg = Ccsg::build(&dscg, &deployment);
        let xml = ccsg_xml(&ccsg, &vocab());
        assert!(xml.contains("<CPUConsumptionSummarizationGraph>"));
        assert!(xml.contains("ObjectID=\"obj3\""));
        assert!(xml.contains("InvocationTimes=\"1\""));
        assert!(xml.contains("SelfCPUConsumption"));
        assert!(xml.contains("microsecond"));
        assert!(xml.contains("cpuType=\"HPUX\""));
    }

    #[test]
    fn xml_escaping() {
        assert_eq!(xml_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }

    fn completed(iface: u32, depth: usize, latency_us: u64) -> CompletedCall {
        CompletedCall {
            func: FunctionKey::new(InterfaceId(iface), MethodIndex(0), ObjectId(3)),
            kind: CallKind::Sync,
            depth,
            latency_ns: latency_us * 1_000,
        }
    }

    #[test]
    fn completion_forest_rebuilds_post_order_tree() {
        // Post-order: child (depth 1), sibling (depth 1), then parent
        // (depth 0), plus a second root.
        let events =
            vec![completed(0, 1, 10), completed(0, 1, 20), completed(0, 0, 50), completed(0, 0, 5)];
        let forest = completion_forest(&events);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].children.len(), 2);
        assert_eq!(forest[0].children[0].call.latency_ns, 10_000, "call order kept");
        assert_eq!(forest[0].children[1].call.latency_ns, 20_000);
        assert!(forest[1].children.is_empty());
    }

    #[test]
    fn completion_forest_surfaces_orphans_as_roots() {
        // A depth-2 completion whose depth-1 parent never completed must
        // still be visible.
        let events = vec![completed(0, 2, 10), completed(0, 0, 50)];
        let forest = completion_forest(&events);
        assert_eq!(forest.len(), 2);
    }

    #[test]
    fn completed_chain_renders_are_wellformed() {
        let events = vec![completed(0, 1, 10), completed(0, 0, 50)];
        let ascii = completed_chain_ascii(Uuid(7), &events, &vocab());
        assert!(ascii.starts_with("chain"), "{ascii}");
        assert!(ascii.contains("Pipe::Stage.run@obj3 [sync] L=50us"), "{ascii}");
        assert!(ascii.contains("    Pipe::Stage.run@obj3 [sync] L=10us"), "nested: {ascii}");

        let dot = completed_chain_dot(Uuid(7), &events, &vocab());
        assert!(dot.starts_with("digraph dscg {"), "{dot}");
        assert!(dot.contains("n0 -> n1;"), "{dot}");
        assert!(dot.trim_end().ends_with('}'), "{dot}");
    }
}

#[cfg(test)]
mod sequence_chart_tests {
    use super::*;
    use crate::dscg::{CallNode, CallTree, Dscg, NodeProbe};
    use causeway_core::event::{CallKind, TraceEvent};
    use causeway_core::ids::*;
    use causeway_core::names::{InterfaceEntry, VocabSnapshot};
    use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
    use causeway_core::uuid::Uuid;

    fn stamped(event: TraceEvent, process: u16, t: u64) -> NodeProbe {
        NodeProbe::from(&ProbeRecord {
            uuid: Uuid(1),
            seq: 1,
            event,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(process),
                thread: LogicalThreadId(0),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(1)),
            wall_start: Some(t),
            wall_end: Some(t),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        })
    }

    fn vocab() -> VocabSnapshot {
        let mut v = VocabSnapshot::default();
        v.interfaces.push(InterfaceEntry {
            name: "I".into(),
            methods: vec!["run".into()],
        });
        v
    }

    #[test]
    fn chart_draws_one_lane_per_entity() {
        let node = CallNode {
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(1)),
            kind: CallKind::Sync,
            chain: Uuid(1),
            stub_start: Some(stamped(TraceEvent::StubStart, 0, 0)),
            skel_start: Some(stamped(TraceEvent::SkelStart, 1, 100)),
            skel_end: Some(stamped(TraceEvent::SkelEnd, 1, 900)),
            stub_end: Some(stamped(TraceEvent::StubEnd, 0, 1000)),
            oneway_child: None,
            children: vec![],
            complete: true,
        };
        let dscg = Dscg::from_trees(vec![CallTree { chain: Uuid(1), roots: vec![node] }]);
        let chart = sequence_chart(&dscg, &vocab(), 60);
        assert!(chart.contains("proc1/thr0"), "{chart}");
        assert!(chart.contains('['), "{chart}");
        assert!(chart.contains("run"), "{chart}");
    }

    #[test]
    fn empty_dscg_yields_placeholder() {
        let chart = sequence_chart(&Dscg::default(), &vocab(), 60);
        assert!(chart.contains("no timed invocations"));
    }
}
