//! Chrome `trace_event` export: open any captured run in Perfetto.
//!
//! Bespoke renderers (see [`crate::render`]) answer the paper's own
//! questions, but the ecosystem already has excellent trace UIs. This
//! module converts a [`MonitoringDb`] — any collection of probe records
//! with wall stamps — into the Chrome trace-event JSON format, which loads
//! directly in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`:
//!
//! * every reconstructed invocation becomes a **client slice** (`stub_start
//!   → stub_end`, category `stub`) on the calling thread's track and a
//!   **server slice** (`skel_start → skel_end`, category `skel`) on the
//!   dispatching thread's track — tracks are (process, logical thread)
//!   pairs, exactly the paper's scattered-log coordinates;
//! * every invocation also opens an **async span** (`b`/`e`, category
//!   `invocation`) covering its full client-visible window, so nesting
//!   survives even across thread hops;
//! * the causal edges the FTL carried — request (`stub_start → skel_start`)
//!   and reply (`skel_end → stub_end`) whenever the two sides ran on
//!   different tracks, which includes grafted one-way children — become
//!   **flow arrows** (`s`/`f`);
//! * reconstruction [`Abnormality`](crate::dscg::Abnormality) reports become **instant events** at
//!   the offending record's stamp;
//! * process names from the deployment become `process_name` metadata.
//!
//! Records without wall stamps (probe mode [`ProbeMode::CausalityOnly`] or
//! [`ProbeMode::Cpu`]) carry no time axis, so invocations whose endpoints
//! are unstamped contribute no slices — capture with `Latency` or `Both`
//! to get a useful trace.
//!
//! [`ProbeMode::CausalityOnly`]: causeway_core::monitor::ProbeMode
//! [`ProbeMode::Cpu`]: causeway_core::monitor::ProbeMode

use crate::dscg::{CallNode, Dscg, NodeProbe};
use causeway_collector::db::MonitoringDb;
use causeway_collector::json::Json;
use causeway_core::event::CallKind;
use causeway_core::names::VocabSnapshot;
use causeway_core::record::CallSite;

/// Microsecond timestamp (the trace-event unit) from a nanosecond stamp.
/// Sub-microsecond precision is kept as a fraction, which the format
/// allows.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

/// The common envelope of one trace event.
fn event(name: &str, ph: &str, cat: &str, ts_ns: u64, site: CallSite) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::Str(name.to_owned())),
        ("ph", Json::Str(ph.to_owned())),
        ("cat", Json::Str(cat.to_owned())),
        ("ts", us(ts_ns)),
        ("pid", Json::Num(site.process.0 as f64)),
        ("tid", Json::Num(site.thread.0 as f64)),
    ]
}

struct Exporter<'a> {
    vocab: &'a VocabSnapshot,
    events: Vec<Json>,
    /// Monotonic id shared by an invocation's async span and flow arrows.
    next_id: u64,
}

impl Exporter<'_> {
    fn push(&mut self, fields: Vec<(&'static str, Json)>) {
        self.events.push(Json::obj(fields));
    }

    /// Emits the events of a whole subtree, pre-order, with an explicit
    /// stack — the per-node recursion this replaces overflowed on deep
    /// chains.
    fn node(&mut self, root: &CallNode) {
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            self.emit_invocation(node);
            for child in node.children.iter().rev() {
                stack.push(child);
            }
        }
    }

    /// Emits the events of one invocation (no descent).
    fn emit_invocation(&mut self, node: &CallNode) {
        let name = self.vocab.qualified_function(&node.func);
        let id = self.next_id;
        self.next_id += 1;

        // Client slice: the caller-observed window.
        if let (Some(start), Some(end)) = (node.stub_start, node.stub_end) {
            if let (Some(ts), Some(te)) = (start.wall_start(), end.wall_end()) {
                let mut fields = event(&name, "X", "stub", ts, start.site);
                fields.push(("dur", us(te.saturating_sub(ts))));
                fields.push(("args", node_args(node)));
                self.push(fields);
            }
        }
        // Server slice: the dispatch window.
        if let (Some(start), Some(end)) = (node.skel_start, node.skel_end) {
            if let (Some(ts), Some(te)) = (start.wall_start(), end.wall_end()) {
                let mut fields = event(&name, "X", "skel", ts, start.site);
                fields.push(("dur", us(te.saturating_sub(ts))));
                fields.push(("args", node_args(node)));
                self.push(fields);
            }
        }

        // Async span over the full client-visible window (server window for
        // grafted one-way children, which have no client side).
        let (span_open, span_close) = match (node.stub_start, node.stub_end) {
            (Some(open), Some(close)) => (Some(open), Some(close)),
            _ => (node.skel_start, node.skel_end),
        };
        if let (Some(open), Some(close)) = (span_open, span_close) {
            if let (Some(ts), Some(te)) = (open.wall_start(), close.wall_end()) {
                let mut fields = event(&name, "b", "invocation", ts, open.site);
                fields.push(("id", Json::Str(format!("{id}"))));
                self.push(fields);
                let mut fields = event(&name, "e", "invocation", te, close.site);
                fields.push(("id", Json::Str(format!("{id}"))));
                self.push(fields);
            }
        }

        // Flow arrows for the causal edges that crossed tracks. The request
        // edge exists for synchronous and one-way calls alike (the FTL on
        // the wire); the reply edge only when a reply actually flowed.
        self.flow(&name, id, "request", node.stub_start, node.skel_start);
        if node.kind != CallKind::Oneway {
            self.flow(&name, id, "reply", node.skel_end, node.stub_end);
        }
    }

    /// One flow arrow (`s` at the source probe, `f` at the destination
    /// probe), emitted only when both sides are stamped and the edge really
    /// crossed tracks — same-track edges are visible as nesting already.
    fn flow(
        &mut self,
        name: &str,
        id: u64,
        edge: &str,
        from: Option<NodeProbe>,
        to: Option<NodeProbe>,
    ) {
        let (Some(from), Some(to)) = (from, to) else { return };
        if from.site.process == to.site.process && from.site.thread == to.site.thread {
            return;
        }
        let (Some(ts_from), Some(ts_to)) = (from.wall_end(), to.wall_start()) else { return };
        let flow_name = format!("{edge} {name}");
        let mut fields = event(&flow_name, "s", "causality", ts_from, from.site);
        fields.push(("id", Json::Str(format!("{edge}-{id}"))));
        self.push(fields);
        let mut fields = event(&flow_name, "f", "causality", ts_to, to.site);
        fields.push(("id", Json::Str(format!("{edge}-{id}"))));
        fields.push(("bp", Json::Str("e".to_owned())));
        self.push(fields);
    }
}

/// Per-slice argument payload shown in the UI's detail pane.
fn node_args(node: &CallNode) -> Json {
    Json::obj([
        ("kind", Json::Str(format!("{:?}", node.kind))),
        ("chain", Json::Str(node.chain.to_string())),
        ("complete", Json::Bool(node.complete)),
    ])
}

/// Converts a monitoring database into Chrome trace-event JSON.
///
/// The output is deterministic for a given database (object keys are
/// sorted, events follow the DSCG's stable traversal order), which is what
/// the golden-file test relies on.
pub fn export(db: &MonitoringDb) -> String {
    let dscg = Dscg::build(db);
    let vocab = db.vocab();
    let mut exporter = Exporter { vocab, events: Vec::new(), next_id: 0 };

    // Process-name metadata first, so the UI labels tracks properly.
    for (pid, process) in db.deployment().processes.iter().enumerate() {
        let node_name = db
            .deployment()
            .nodes
            .get(process.node.0 as usize)
            .map(|n| n.name.as_str())
            .unwrap_or("?");
        exporter.push(vec![
            ("name", Json::Str("process_name".to_owned())),
            ("ph", Json::Str("M".to_owned())),
            ("pid", Json::Num(pid as f64)),
            (
                "args",
                Json::obj([("name", Json::Str(format!("{} @ {}", process.name, node_name)))]),
            ),
        ]);
    }

    for tree in &dscg.trees {
        for root in &tree.roots {
            exporter.node(root);
        }
    }

    // Abnormalities as instant events at the offending record's stamp.
    for abnormality in &dscg.abnormalities {
        let record = abnormality.at_seq.and_then(|seq| {
            db.events_for(abnormality.chain).into_iter().find(|r| r.seq == seq).cloned()
        });
        let Some(record) = record else { continue };
        let Some(ts) = record.wall_start else { continue };
        let mut fields = event(&abnormality.message, "i", "abnormality", ts, record.site);
        fields.push(("s", Json::Str("p".to_owned())));
        exporter.push(fields);
    }

    let trace = Json::obj([
        ("traceEvents", Json::Arr(exporter.events)),
        ("displayTimeUnit", Json::Str("ms".to_owned())),
        ("otherData", Json::obj([("exporter", Json::Str("causeway_analyze trace".to_owned()))])),
    ]);
    format!("{trace}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_collector::json;
    use causeway_core::deploy::Deployment;
    use causeway_core::event::TraceEvent;
    use causeway_core::ids::*;
    use causeway_core::names::SystemVocab;
    use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
    use causeway_core::runlog::RunLog;
    use causeway_core::uuid::Uuid;

    fn rec(
        seq: u64,
        event: TraceEvent,
        process: u16,
        thread: u32,
        wall: (u64, u64),
    ) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(42),
            seq,
            event,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(process),
                thread: LogicalThreadId(thread),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(0)),
            wall_start: Some(wall.0),
            wall_end: Some(wall.1),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    fn tiny_db() -> MonitoringDb {
        let vocab = SystemVocab::new();
        let iface = vocab.intern_interface("Printer", &["print"]);
        let comp = vocab.intern_component("PrinterComponent");
        vocab.register_object("printer#0", iface, comp, ProcessId(1));
        let mut deployment = Deployment::new();
        let cpu = vocab.intern_cpu_type("TestCpu");
        let node = deployment.add_node("box", cpu);
        deployment.add_process("client", node);
        deployment.add_process("server", node);
        let records = vec![
            rec(1, TraceEvent::StubStart, 0, 0, (1_000, 2_000)),
            rec(2, TraceEvent::SkelStart, 1, 0, (5_000, 6_000)),
            rec(3, TraceEvent::SkelEnd, 1, 0, (20_000, 21_000)),
            rec(4, TraceEvent::StubEnd, 0, 0, (25_000, 26_000)),
        ];
        MonitoringDb::from_run(RunLog::new(records, vocab.snapshot(), deployment))
    }

    #[test]
    fn export_is_valid_json_with_expected_phases() {
        let text = export(&tiny_db());
        let parsed = json::parse(&text).expect("exporter emits valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        // 2 process_name metadata, client+server slices, async b/e, and
        // 2 flow arrows per crossing edge × 2 edges.
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "b").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "e").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "s").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "f").count(), 2);
    }

    #[test]
    fn slices_carry_microsecond_timestamps() {
        let text = export(&tiny_db());
        let parsed = json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let client_slice = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("cat").and_then(Json::as_str) == Some("stub")
            })
            .expect("client slice");
        assert_eq!(client_slice.get("ts").and_then(Json::as_u64), Some(1)); // 1000 ns
        assert_eq!(client_slice.get("dur").and_then(Json::as_u64), Some(25)); // 26000−1000 ns
        assert_eq!(client_slice.get("pid").and_then(Json::as_u64), Some(0));
        let name = client_slice.get("name").and_then(Json::as_str).unwrap();
        assert!(name.contains("print"), "{name}");
    }

    #[test]
    fn unstamped_records_produce_no_slices() {
        let vocab = SystemVocab::new();
        vocab.intern_interface("I", &["m"]);
        let mut deployment = Deployment::new();
        let node = deployment.add_node("box", vocab.intern_cpu_type("T"));
        deployment.add_process("p", node);
        let mut records = vec![
            rec(1, TraceEvent::StubStart, 0, 0, (0, 0)),
            rec(2, TraceEvent::SkelStart, 0, 0, (0, 0)),
            rec(3, TraceEvent::SkelEnd, 0, 0, (0, 0)),
            rec(4, TraceEvent::StubEnd, 0, 0, (0, 0)),
        ];
        for record in &mut records {
            record.wall_start = None;
            record.wall_end = None;
        }
        let db = MonitoringDb::from_run(RunLog::new(records, vocab.snapshot(), deployment));
        let parsed = json::parse(&export(&db)).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(
            events
                .iter()
                .all(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
            "causality-only records have no time axis"
        );
    }
}
