//! The Universal Delegator's Trace Object (Brown, MSJ 1999).
//!
//! The Trace Object "logs call information verbosely" and "concatenates log
//! info during call progression" — every invocation appends an entry, and
//! the whole accumulated object migrates with the call. Two consequences
//! the paper calls out, both reproduced here:
//!
//! 1. the wire payload grows linearly in chain length (vs. the FTL's
//!    constant 24 bytes) — see [`TraceObject::wire_size`] and the
//!    `exp_payload_growth` experiment;
//! 2. the entry list alone cannot determine the *hierarchical* call graph:
//!    a cascading pattern (`F(); G();`) and a nesting pattern (`F{ G() }`)
//!    concatenate the *same* entries — see
//!    [`TraceObject::from_call_tree`] and the ambiguity tests.

use causeway_analyzer::dscg::CallNode;
use causeway_core::record::FunctionKey;
use causeway_core::wire::{put_str, put_u16, put_u32, put_u64};

/// One concatenated entry: the verbose call information the Universal
/// Delegator logged (function identity plus a free-form detail string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceObjectEntry {
    /// The invoked function.
    pub func: FunctionKey,
    /// Verbose call detail (arguments rendered, timestamps, …).
    pub detail: String,
}

/// The migrating, concatenating trace object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceObject {
    /// Entries in call order.
    pub entries: Vec<TraceObjectEntry>,
}

impl TraceObject {
    /// An empty trace object.
    pub fn new() -> TraceObject {
        TraceObject::default()
    }

    /// Appends an entry — what the interceptor does on every call.
    pub fn record(&mut self, func: FunctionKey, detail: impl Into<String>) {
        self.entries.push(TraceObjectEntry { func, detail: detail.into() });
    }

    /// The call-order entry list a call tree would produce: one entry per
    /// invocation, appended as the call progresses (pre-order). Both the
    /// sibling and the nested arrangement of the same functions produce the
    /// same list — the information loss at the heart of the paper's
    /// critique.
    pub fn from_call_tree(roots: &[CallNode]) -> TraceObject {
        let mut to = TraceObject::new();
        fn walk(node: &CallNode, to: &mut TraceObject) {
            to.record(node.func, "call");
            for child in &node.children {
                walk(child, to);
            }
        }
        for root in roots {
            walk(root, &mut to);
        }
        to
    }

    /// Marshals the whole object — the payload that would ride with the
    /// *next* call of the chain.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size());
        put_u32(&mut buf, self.entries.len() as u32);
        for entry in &self.entries {
            put_u32(&mut buf, entry.func.interface.0);
            put_u16(&mut buf, entry.func.method.0);
            put_u64(&mut buf, entry.func.object.0);
            put_str(&mut buf, &entry.detail);
        }
        buf
    }

    /// Current marshalled size in bytes.
    pub fn wire_size(&self) -> usize {
        4 + self
            .entries
            .iter()
            .map(|e| 4 + 2 + 8 + 4 + e.detail.len())
            .sum::<usize>()
    }

    /// Simulates a chain of `depth` nested calls, each appending one entry
    /// with `detail_len` bytes of verbose detail, returning the trace
    /// object as it arrives at the deepest callee.
    pub fn simulate_chain(depth: usize, detail_len: usize) -> TraceObject {
        let mut to = TraceObject::new();
        let detail = "x".repeat(detail_len);
        for i in 0..depth {
            to.record(
                FunctionKey::new(
                    causeway_core::ids::InterfaceId(0),
                    causeway_core::ids::MethodIndex((i % 8) as u16),
                    causeway_core::ids::ObjectId(i as u64),
                ),
                detail.clone(),
            );
        }
        to
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::event::CallKind;
    use causeway_core::ftl::FTL_WIRE_LEN;
    use causeway_core::ids::{InterfaceId, MethodIndex, ObjectId};

    fn leaf(object: u64) -> CallNode {
        CallNode {
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(object)),
            kind: CallKind::Sync,
            chain: causeway_core::uuid::Uuid(1),
            stub_start: None,
            skel_start: None,
            skel_end: None,
            stub_end: None,
            oneway_child: None,
            children: vec![],
            complete: true,
        }
    }

    #[test]
    fn wire_size_grows_linearly_with_chain_length() {
        let shallow = TraceObject::simulate_chain(10, 16);
        let deep = TraceObject::simulate_chain(10_000, 16);
        assert_eq!(shallow.wire_size(), shallow.to_wire().len());
        assert_eq!(deep.wire_size(), deep.to_wire().len());
        let ratio = deep.wire_size() as f64 / shallow.wire_size() as f64;
        assert!(ratio > 900.0, "1000x deeper should be ~1000x bigger, was {ratio}");
        // The FTL stays constant no matter the depth.
        assert_eq!(FTL_WIRE_LEN, 24);
        assert!(deep.wire_size() > 10_000 * FTL_WIRE_LEN);
    }

    #[test]
    fn sibling_and_nested_patterns_are_indistinguishable() {
        // Table 1's two patterns over the same functions F and G.
        let siblings = vec![leaf(1), leaf(2)];
        let mut nested_parent = leaf(1);
        nested_parent.children.push(leaf(2));
        let nested = vec![nested_parent];

        let to_siblings = TraceObject::from_call_tree(&siblings);
        let to_nested = TraceObject::from_call_tree(&nested);
        assert_eq!(
            to_siblings, to_nested,
            "the trace object cannot tell cascading from nesting"
        );
    }

    #[test]
    fn record_appends_in_order() {
        let mut to = TraceObject::new();
        to.record(leaf(1).func, "a");
        to.record(leaf(2).func, "b");
        assert_eq!(to.entries.len(), 2);
        assert_eq!(to.entries[0].detail, "a");
        assert_eq!(to.entries[1].func.object, ObjectId(2));
    }
}
