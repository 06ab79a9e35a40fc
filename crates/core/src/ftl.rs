//! The Function-Transportable Log (FTL).
//!
//! The FTL is the *only* data that rides the virtual tunnel (Figure 2 of the
//! paper): a Function UUID naming the causal chain, plus an event sequence
//! number that is incremented each time a tracing event is encountered along
//! the chain. Because every probe merely *updates* the FTL — no log
//! concatenation occurs as the call progresses — the wire payload is a
//! constant 24 bytes regardless of call depth. (Contrast with the
//! Universal-Delegator "Trace Object" baseline in `causeway-baselines`,
//! which concatenates and therefore grows linearly.)

use crate::uuid::Uuid;
use std::fmt;

/// The paper's `Probe::FunctionTxLogType`: `{ UUID global_function_id;
/// unsigned long event_seq_no; }`.
///
/// # Example
///
/// ```
/// use causeway_core::ftl::FunctionTxLog;
/// let mut ftl = FunctionTxLog::fresh();
/// assert_eq!(ftl.event_seq_no, 0);
/// assert_eq!(ftl.next_seq(), 1);
/// assert_eq!(ftl.next_seq(), 2);
/// let wire = ftl.to_wire();
/// assert_eq!(FunctionTxLog::from_wire(&wire).unwrap(), ftl);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionTxLog {
    /// Names the causal chain this activity belongs to.
    pub global_function_id: Uuid,
    /// The last event number issued on this chain. Monotonically increasing;
    /// there is exactly one locus of control per chain, so no two events on
    /// one chain ever share a number — which is why the analyzer can totally
    /// order a chain's events without synchronized clocks.
    pub event_seq_no: u64,
}

/// Size of the FTL on the wire: 16-byte UUID + 8-byte sequence number.
pub const FTL_WIRE_LEN: usize = 24;

impl FunctionTxLog {
    /// Starts a brand-new causal chain with a fresh Function UUID.
    pub fn fresh() -> FunctionTxLog {
        FunctionTxLog {
            global_function_id: Uuid::new(),
            event_seq_no: 0,
        }
    }

    /// Creates an FTL for a known chain, e.g. when restoring from the wire.
    pub fn new(id: Uuid, seq: u64) -> FunctionTxLog {
        FunctionTxLog {
            global_function_id: id,
            event_seq_no: seq,
        }
    }

    /// Issues the next event number on this chain (increment-then-read).
    pub fn next_seq(&mut self) -> u64 {
        self.event_seq_no += 1;
        self.event_seq_no
    }

    /// Encodes to the fixed 24-byte wire representation appended to every
    /// instrumented request/reply as the hidden `inout` parameter.
    pub fn to_wire(self) -> [u8; FTL_WIRE_LEN] {
        let mut out = [0u8; FTL_WIRE_LEN];
        out[..16].copy_from_slice(&self.global_function_id.to_bytes());
        out[16..].copy_from_slice(&self.event_seq_no.to_le_bytes());
        out
    }

    /// Decodes the wire representation.
    ///
    /// Returns `None` when the slice is not exactly [`FTL_WIRE_LEN`] bytes.
    pub fn from_wire(bytes: &[u8]) -> Option<FunctionTxLog> {
        if bytes.len() != FTL_WIRE_LEN {
            return None;
        }
        let mut id = [0u8; 16];
        id.copy_from_slice(&bytes[..16]);
        let mut seq = [0u8; 8];
        seq.copy_from_slice(&bytes[16..]);
        Some(FunctionTxLog {
            global_function_id: Uuid::from_bytes(id),
            event_seq_no: u64::from_le_bytes(seq),
        })
    }
}

impl fmt::Display for FunctionTxLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.global_function_id, self.event_seq_no)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_chains_have_distinct_ids() {
        assert_ne!(
            FunctionTxLog::fresh().global_function_id,
            FunctionTxLog::fresh().global_function_id
        );
    }

    #[test]
    fn next_seq_is_increment_then_read() {
        let mut ftl = FunctionTxLog::new(Uuid(7), 10);
        assert_eq!(ftl.next_seq(), 11);
        assert_eq!(ftl.event_seq_no, 11);
    }

    #[test]
    fn wire_round_trip() {
        let ftl = FunctionTxLog::new(Uuid::new(), 123_456_789);
        let wire = ftl.to_wire();
        assert_eq!(wire.len(), FTL_WIRE_LEN);
        assert_eq!(FunctionTxLog::from_wire(&wire), Some(ftl));
    }

    #[test]
    fn from_wire_rejects_wrong_length() {
        assert_eq!(FunctionTxLog::from_wire(&[0u8; 23]), None);
        assert_eq!(FunctionTxLog::from_wire(&[0u8; 25]), None);
        assert_eq!(FunctionTxLog::from_wire(&[]), None);
    }

    #[test]
    fn payload_is_constant_size() {
        // The headline property: the tunnel payload does not grow with call
        // depth. Simulate a 100_000-deep chain.
        let mut ftl = FunctionTxLog::fresh();
        for _ in 0..100_000 {
            ftl.next_seq();
        }
        assert_eq!(ftl.to_wire().len(), FTL_WIRE_LEN);
    }

    #[test]
    fn display_shows_id_and_seq() {
        let ftl = FunctionTxLog::new(Uuid(0xabcd), 5);
        let s = ftl.to_string();
        assert!(s.ends_with("#5"), "{s}");
    }
}
