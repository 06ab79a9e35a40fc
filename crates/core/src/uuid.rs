//! The *Function Universally Unique Identifier* (Function UUID).
//!
//! A fresh UUID is minted at the root of every causal chain (the first
//! cross-component invocation issued by a thread whose thread-specific
//! storage is empty, or the fork point of a one-way call). Every probe record
//! produced along that chain carries the same UUID, which is what lets the
//! analyzer re-assemble scattered per-thread logs into one call tree without
//! any global clock synchronization.
//!
//! Minting draws 128 bits from a per-thread [`crate::rng::Rng`], the
//! workspace's one generator, seeded once per thread through its
//! splitmix64 expansion.

use crate::rng::Rng;
use std::cell::RefCell;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// A 128-bit random identifier, equivalent to a version-4 UUID.
///
/// # Example
///
/// ```
/// use causeway_core::uuid::Uuid;
/// let a = Uuid::new();
/// let b = Uuid::new();
/// assert_ne!(a, b);
/// let text = a.to_string();
/// assert_eq!(text.parse::<Uuid>().unwrap(), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uuid(pub u128);

/// Salt mixed into every per-thread generator so that two threads seeded in
/// the same nanosecond still diverge.
static THREAD_SALT: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

thread_local! {
    static THREAD_RNG: RefCell<Rng> = RefCell::new({
        let salt = THREAD_SALT.fetch_add(0x2545_f491_4f6c_dd1d, Ordering::Relaxed);
        let time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64 ^ ((d.as_nanos() >> 64) as u64))
            .unwrap_or(0x5bd1_e995);
        // Low-cost extra entropy: the address of a stack local differs
        // between threads (and, under ASLR, between processes).
        let stack_probe = &salt as *const u64 as u64;
        // splitmix64 expansion makes every seed bit depend on every input bit.
        Rng::seed_from_u64(salt ^ time.rotate_left(17) ^ stack_probe.rotate_left(43))
    });
}

impl Uuid {
    /// The all-zero UUID, used as a sentinel for "no chain".
    pub const NIL: Uuid = Uuid(0);

    /// Mints a fresh random UUID.
    ///
    /// Generation is lock-free: each thread owns a small PRNG seeded from a
    /// global salt, the wall clock and the stack address. A probe mints at
    /// most one UUID per root invocation, so quality far exceeds need.
    pub fn new() -> Uuid {
        THREAD_RNG.with(|rng| {
            let mut rng = rng.borrow_mut();
            let hi = rng.next_u64();
            let lo = rng.next_u64();
            let mut v = ((hi as u128) << 64) | lo as u128;
            if v == 0 {
                v = 1; // never collide with NIL
            }
            Uuid(v)
        })
    }

    /// Returns `true` if this is the [`Uuid::NIL`] sentinel.
    pub fn is_nil(&self) -> bool {
        self.0 == 0
    }

    /// Serializes to the 16-byte little-endian wire form.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Deserializes from the 16-byte little-endian wire form.
    pub fn from_bytes(bytes: [u8; 16]) -> Uuid {
        Uuid(u128::from_le_bytes(bytes))
    }
}

impl Default for Uuid {
    fn default() -> Self {
        Uuid::NIL
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render in the familiar 8-4-4-4-12 grouping.
        let b = self.0.to_be_bytes();
        write!(
            f,
            "{:02x}{:02x}{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}{:02x}{:02x}{:02x}{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11], b[12],
            b[13], b[14], b[15]
        )
    }
}

/// Error produced when parsing a [`Uuid`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUuidError;

impl fmt::Display for ParseUuidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid uuid syntax")
    }
}

impl std::error::Error for ParseUuidError {}

impl FromStr for Uuid {
    type Err = ParseUuidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex: String = s.chars().filter(|c| *c != '-').collect();
        if hex.len() != 32 {
            return Err(ParseUuidError);
        }
        let v = u128::from_str_radix(&hex, 16).map_err(|_| ParseUuidError)?;
        Ok(Uuid(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fresh_uuids_are_unique() {
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(Uuid::new()));
        }
    }

    #[test]
    fn uuids_are_unique_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| (0..1000).map(|_| Uuid::new()).collect::<Vec<_>>()))
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for u in h.join().unwrap() {
                assert!(seen.insert(u));
            }
        }
    }

    #[test]
    fn display_round_trips() {
        let u = Uuid::new();
        let s = u.to_string();
        assert_eq!(s.len(), 36);
        assert_eq!(s.parse::<Uuid>().unwrap(), u);
    }

    #[test]
    fn bytes_round_trip() {
        let u = Uuid::new();
        assert_eq!(Uuid::from_bytes(u.to_bytes()), u);
    }

    #[test]
    fn nil_is_nil() {
        assert!(Uuid::NIL.is_nil());
        assert!(!Uuid::new().is_nil());
        assert_eq!(Uuid::default(), Uuid::NIL);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("not-a-uuid".parse::<Uuid>().is_err());
        assert!("".parse::<Uuid>().is_err());
        assert!("zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz".parse::<Uuid>().is_err());
    }
}
