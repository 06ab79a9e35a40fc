//! ORPC channel hooks.
//!
//! COM's Object RPC lets registered channel hooks append extension headers
//! to outgoing messages and read them on receipt; both the Universal
//! Delegator's tracer and the paper's COM port use them to move tracing
//! context. [`FtlChannelHook`] is the hook that carries the FTL.

use causeway_core::ftl::FunctionTxLog;
use std::collections::BTreeMap;

/// An extension header: a tagged blob attached to an ORPC message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Extensions {
    entries: BTreeMap<String, Vec<u8>>,
}

impl Extensions {
    /// No extensions.
    pub fn new() -> Extensions {
        Extensions::default()
    }

    /// Attaches a blob under a hook tag (replacing any previous one).
    pub fn set(&mut self, tag: &str, payload: Vec<u8>) {
        self.entries.insert(tag.to_owned(), payload);
    }

    /// Reads a hook's blob.
    pub fn get(&self, tag: &str) -> Option<&[u8]> {
        self.entries.get(tag).map(Vec::as_slice)
    }

    /// Number of attached extensions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no extensions are attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A channel hook: invoked on send and on receive for every ORPC message.
pub trait ChannelHook: Send + Sync {
    /// The hook's extension tag.
    fn tag(&self) -> &str;
    /// Called before a message leaves the sender.
    fn on_send(&self, extensions: &mut Extensions);
    /// Called after a message arrives at the receiver.
    fn on_receive(&self, extensions: &Extensions);
}

/// The tag under which the FTL travels.
pub const FTL_EXTENSION_TAG: &str = "causeway.ftl";

/// The tag carrying the parent-chain marker of a posted (fire-and-forget)
/// call, mirroring the one-way hidden parameters of the CORBA side.
pub const PARENT_EXTENSION_TAG: &str = "causeway.ftl.parent";

/// Writes a parent-chain marker (UUID + fork event number).
pub fn attach_parent(extensions: &mut Extensions, parent: (causeway_core::uuid::Uuid, u64)) {
    let marker = FunctionTxLog::new(parent.0, parent.1);
    extensions.set(PARENT_EXTENSION_TAG, marker.to_wire().to_vec());
}

/// Reads a parent-chain marker.
pub fn extract_parent(extensions: &Extensions) -> Option<(causeway_core::uuid::Uuid, u64)> {
    extensions
        .get(PARENT_EXTENSION_TAG)
        .and_then(FunctionTxLog::from_wire)
        .map(|ftl| (ftl.global_function_id, ftl.event_seq_no))
}

/// Helper: writes an FTL into an extension set.
pub fn attach_ftl(extensions: &mut Extensions, ftl: FunctionTxLog) {
    extensions.set(FTL_EXTENSION_TAG, ftl.to_wire().to_vec());
}

/// Helper: reads an FTL from an extension set.
pub fn extract_ftl(extensions: &Extensions) -> Option<FunctionTxLog> {
    extensions.get(FTL_EXTENSION_TAG).and_then(FunctionTxLog::from_wire)
}

/// The paper's tracing hook: moves the calling thread's FTL across the
/// ORPC boundary without touching the user-visible method signature (the
/// COM-side equivalent of the IDL compiler's hidden parameter).
#[derive(Debug, Default)]
pub struct FtlChannelHook;

impl ChannelHook for FtlChannelHook {
    fn tag(&self) -> &str {
        FTL_EXTENSION_TAG
    }

    fn on_send(&self, extensions: &mut Extensions) {
        if let Some(ftl) = causeway_core::tss::peek() {
            attach_ftl(extensions, ftl);
        }
    }

    fn on_receive(&self, extensions: &Extensions) {
        if let Some(ftl) = extract_ftl(extensions) {
            causeway_core::tss::store(ftl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::uuid::Uuid;

    #[test]
    fn ftl_round_trips_through_extensions() {
        let mut ext = Extensions::new();
        assert!(ext.is_empty());
        let ftl = FunctionTxLog::new(Uuid(77), 9);
        attach_ftl(&mut ext, ftl);
        assert_eq!(ext.len(), 1);
        assert_eq!(extract_ftl(&ext), Some(ftl));
    }

    #[test]
    fn missing_or_corrupt_extension_reads_none() {
        let mut ext = Extensions::new();
        assert_eq!(extract_ftl(&ext), None);
        ext.set(FTL_EXTENSION_TAG, vec![1, 2, 3]);
        assert_eq!(extract_ftl(&ext), None);
    }

    #[test]
    fn hook_moves_tss_across_the_boundary() {
        causeway_core::tss::clear();
        let hook = FtlChannelHook;
        let ftl = FunctionTxLog::new(Uuid(5), 2);
        causeway_core::tss::store(ftl);
        let mut ext = Extensions::new();
        hook.on_send(&mut ext);
        causeway_core::tss::clear();
        hook.on_receive(&ext);
        assert_eq!(causeway_core::tss::peek(), Some(ftl));
        causeway_core::tss::clear();
    }

    #[test]
    fn hook_without_chain_sends_nothing() {
        causeway_core::tss::clear();
        let hook = FtlChannelHook;
        let mut ext = Extensions::new();
        hook.on_send(&mut ext);
        assert!(ext.is_empty());
    }
}
