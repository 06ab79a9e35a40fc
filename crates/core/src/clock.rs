//! Wall-clock and per-thread CPU clocks.
//!
//! The paper's probes read two local quantities: a wall timestamp (for
//! latency) and a per-thread CPU counter (for CPU-consumption accounting, as
//! provided by HP-UX 11). Neither requires global synchronization — the
//! *event sequence number* of the FTL, not the clocks, orders events across
//! machines.
//!
//! Because the allowed dependency set has no `libc`, per-thread CPU time is
//! provided by [`VirtualCpuClock`]: every on-CPU region of the runtime
//! (servant bodies, probe bodies, marshalling) runs inside a *charge scope*
//! that accumulates measured wall time into a thread-local counter (a probe
//! charges the span its two wall stamps bound, [`CpuClock::charge`]). This is
//! the same additive "time this thread spent executing" quantity the kernel
//! counter exposes, including the probe contamination the paper's accuracy
//! experiments quantify. The substitution is documented in `DESIGN.md` §2.
//!
//! For deterministic tests, [`ManualClock`] and [`ManualCpuClock`] advance
//! only when told to, letting a test script exact timings.

use crate::sync::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// A source of wall-clock timestamps, in nanoseconds since an arbitrary
/// per-clock epoch. Probes on the *same* machine compare stamps from the
/// same clock; stamps are never compared across clocks.
pub trait WallClock: Send + Sync + fmt::Debug {
    /// Current wall time in nanoseconds.
    fn now(&self) -> u64;
}

/// A source of per-thread CPU counters.
///
/// `thread_cpu_now` reads the counter *of the calling thread*. `charge`
/// adds a span the caller measured to it, as a probe does with its own two
/// stamps, and `region_begin` / `region_end` measure and charge an on-CPU
/// region (a no-op for manual clocks, which are advanced explicitly).
pub trait CpuClock: Send + Sync + fmt::Debug {
    /// The calling thread's accumulated CPU time in nanoseconds.
    fn thread_cpu_now(&self) -> u64;
    /// Charges `ns` of measured on-CPU time to the calling thread.
    fn charge(&self, ns: u64);
    /// Opens an on-CPU accounting region; returns an opaque token.
    fn region_begin(&self) -> u64 {
        monotonic_ns()
    }
    /// Closes the region opened with the matching token, charging the
    /// elapsed time to the calling thread.
    fn region_end(&self, token: u64) {
        self.charge(monotonic_ns().saturating_sub(token));
    }
}

fn global_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process-wide epoch (first use).
pub fn monotonic_ns() -> u64 {
    global_epoch().elapsed().as_nanos() as u64
}

/// The real monotonic wall clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl SystemClock {
    /// Creates a system wall clock.
    pub fn new() -> SystemClock {
        SystemClock
    }
}

impl WallClock for SystemClock {
    fn now(&self) -> u64 {
        monotonic_ns()
    }
}

thread_local! {
    static THREAD_CPU_NS: Cell<u64> = const { Cell::new(0) };
}

/// Per-thread virtual CPU counter (see module docs for the substitution
/// rationale).
///
/// # Example
///
/// ```
/// use causeway_core::clock::{CpuClock, VirtualCpuClock};
/// let cpu = VirtualCpuClock::new();
/// let before = cpu.thread_cpu_now();
/// let t = cpu.region_begin();
/// let mut acc = 0u64; // some actual work
/// for i in 0..10_000 { acc = acc.wrapping_add(i); }
/// cpu.region_end(t);
/// assert!(cpu.thread_cpu_now() >= before);
/// # let _ = acc;
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct VirtualCpuClock;

impl VirtualCpuClock {
    /// Creates a virtual per-thread CPU clock.
    pub fn new() -> VirtualCpuClock {
        VirtualCpuClock
    }

    /// Directly credits `ns` of CPU time to the calling thread. Workload
    /// bodies use this to model computation of a known cost.
    pub fn credit_current_thread(ns: u64) {
        THREAD_CPU_NS.with(|c| c.set(c.get() + ns));
    }
}

impl CpuClock for VirtualCpuClock {
    fn thread_cpu_now(&self) -> u64 {
        THREAD_CPU_NS.with(|c| c.get())
    }

    fn charge(&self, ns: u64) {
        THREAD_CPU_NS.with(|c| c.set(c.get() + ns));
    }
}

/// A wall clock that advances only when told to — the backbone of the
/// deterministic tests, where a test scripts exact timings and then asserts
/// exact latency results.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// Creates a manual clock at time zero.
    pub fn new() -> ManualClock {
        ManualClock { now: AtomicU64::new(0) }
    }

    /// Creates a manual clock starting at `ns`.
    pub fn starting_at(ns: u64) -> ManualClock {
        ManualClock { now: AtomicU64::new(ns) }
    }

    /// Advances the clock by `ns` nanoseconds, returning the new time.
    pub fn advance(&self, ns: u64) -> u64 {
        self.now.fetch_add(ns, Ordering::SeqCst) + ns
    }

    /// Sets the clock to an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `ns` would move the clock backwards.
    pub fn set(&self, ns: u64) {
        let prev = self.now.swap(ns, Ordering::SeqCst);
        assert!(prev <= ns, "manual clock moved backwards: {prev} -> {ns}");
    }
}

impl WallClock for ManualClock {
    fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// A per-thread CPU clock that advances only when told to.
///
/// Each thread has its own counter; [`ManualCpuClock::advance_current`]
/// credits CPU time to the calling thread.
#[derive(Debug, Default)]
pub struct ManualCpuClock {
    per_thread: Mutex<HashMap<ThreadId, u64>>,
}

impl ManualCpuClock {
    /// Creates a manual CPU clock with all threads at zero.
    pub fn new() -> ManualCpuClock {
        ManualCpuClock { per_thread: Mutex::new(HashMap::new()) }
    }

    /// Credits `ns` of CPU time to the calling thread, returning its new
    /// counter value.
    pub fn advance_current(&self, ns: u64) -> u64 {
        let mut map = self.per_thread.lock();
        let slot = map.entry(std::thread::current().id()).or_insert(0);
        *slot += ns;
        *slot
    }
}

impl CpuClock for ManualCpuClock {
    fn thread_cpu_now(&self) -> u64 {
        *self
            .per_thread
            .lock()
            .get(&std::thread::current().id())
            .unwrap_or(&0)
    }

    fn charge(&self, _ns: u64) {}
}

/// Spins for approximately `dur` of wall time while charging the spin to the
/// calling thread's CPU counter. This is how workload bodies model real
/// computation when running against the real clocks.
pub fn busy_work(cpu: &dyn CpuClock, dur: Duration) {
    let token = cpu.region_begin();
    let start = Instant::now();
    while start.elapsed() < dur {
        std::hint::spin_loop();
    }
    cpu.region_end(token);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_exactly() {
        let c = ManualClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        c.set(100);
        assert_eq!(c.now(), 100);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn manual_clock_rejects_backwards_set() {
        let c = ManualClock::starting_at(50);
        c.set(10);
    }

    #[test]
    fn manual_cpu_clock_is_per_thread() {
        let cpu = Arc::new(ManualCpuClock::new());
        cpu.advance_current(100);
        let cpu2 = Arc::clone(&cpu);
        let other = std::thread::spawn(move || {
            cpu2.advance_current(7);
            cpu2.thread_cpu_now()
        })
        .join()
        .unwrap();
        assert_eq!(other, 7);
        assert_eq!(cpu.thread_cpu_now(), 100);
    }

    #[test]
    fn virtual_cpu_clock_charges_regions() {
        let cpu = VirtualCpuClock::new();
        let before = cpu.thread_cpu_now();
        busy_work(&cpu, Duration::from_micros(200));
        let after = cpu.thread_cpu_now();
        assert!(after - before >= 200_000, "charged {} ns", after - before);
    }

    #[test]
    fn virtual_cpu_clock_is_per_thread() {
        let cpu = VirtualCpuClock::new();
        VirtualCpuClock::credit_current_thread(1_000);
        let mine = cpu.thread_cpu_now();
        let other = std::thread::spawn(move || cpu.thread_cpu_now()).join().unwrap();
        // The spawned thread never charged anything in this test, while this
        // thread has at least the explicit credit.
        assert!(mine >= 1_000);
        assert!(other < mine);
    }

    #[test]
    fn credit_adds_exactly() {
        let cpu = VirtualCpuClock::new();
        let before = cpu.thread_cpu_now();
        VirtualCpuClock::credit_current_thread(12_345);
        assert_eq!(cpu.thread_cpu_now() - before, 12_345);
    }
}
