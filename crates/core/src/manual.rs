//! Manual measurement — the reference methodology of the paper's accuracy
//! experiments.
//!
//! "The manual counterpart was carried out by having one probe for one
//! target function in one system run. This probe retrieves time stamps at
//! the beginning and end of the target function." [`ManualProbe`] implements
//! exactly that: a single bracket around one chosen function, active while
//! the automatic instrumentation is disabled, collecting per-invocation
//! latency and CPU samples.

use crate::clock::{CpuClock, WallClock};
use crate::sync::Mutex;
use std::sync::Arc;

/// One sample from a manual bracket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManualSample {
    /// Wall-clock duration of the bracketed execution, ns.
    pub wall_ns: u64,
    /// Per-thread CPU consumed by the bracketed execution, ns.
    pub cpu_ns: u64,
}

/// An open bracket; produced by [`ManualProbe::begin`], consumed by
/// [`ManualProbe::end`].
#[derive(Debug)]
pub struct ManualGuard {
    wall_start: u64,
    cpu_start: u64,
}

/// The single hand-placed probe of the paper's "manual measurement" runs.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use causeway_core::clock::{ManualClock, ManualCpuClock};
/// use causeway_core::manual::ManualProbe;
///
/// let wall = Arc::new(ManualClock::new());
/// let cpu = Arc::new(ManualCpuClock::new());
/// let probe = ManualProbe::new(wall.clone(), cpu.clone());
///
/// let guard = probe.begin();
/// wall.advance(1_000);
/// cpu.advance_current(400);
/// probe.end(guard);
///
/// let samples = probe.samples();
/// assert_eq!(samples[0].wall_ns, 1_000);
/// assert_eq!(samples[0].cpu_ns, 400);
/// ```
#[derive(Debug)]
pub struct ManualProbe {
    wall: Arc<dyn WallClock>,
    cpu: Arc<dyn CpuClock>,
    samples: Mutex<Vec<ManualSample>>,
}

impl ManualProbe {
    /// Creates a manual probe reading the given clocks.
    pub fn new(wall: Arc<dyn WallClock>, cpu: Arc<dyn CpuClock>) -> ManualProbe {
        ManualProbe {
            wall,
            cpu,
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Opens a bracket at the beginning of the target function.
    pub fn begin(&self) -> ManualGuard {
        ManualGuard {
            wall_start: self.wall.now(),
            cpu_start: self.cpu.thread_cpu_now(),
        }
    }

    /// Closes the bracket at the end of the target function, recording one
    /// sample. Must be called on the same thread as [`ManualProbe::begin`]
    /// for the CPU reading to be meaningful.
    pub fn end(&self, guard: ManualGuard) {
        let sample = ManualSample {
            wall_ns: self.wall.now().saturating_sub(guard.wall_start),
            cpu_ns: self.cpu.thread_cpu_now().saturating_sub(guard.cpu_start),
        };
        self.samples.lock().push(sample);
    }

    /// Runs `f` inside a bracket, recording one sample.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> R {
        let guard = self.begin();
        let result = f();
        self.end(guard);
        result
    }

    /// All samples collected so far.
    pub fn samples(&self) -> Vec<ManualSample> {
        self.samples.lock().clone()
    }

    /// Mean wall latency across samples, ns. `None` when no samples exist.
    pub fn mean_wall_ns(&self) -> Option<f64> {
        let samples = self.samples.lock();
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().map(|s| s.wall_ns as f64).sum::<f64>() / samples.len() as f64)
    }

    /// Mean CPU consumption across samples, ns. `None` when no samples exist.
    pub fn mean_cpu_ns(&self) -> Option<f64> {
        let samples = self.samples.lock();
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().map(|s| s.cpu_ns as f64).sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ManualClock, ManualCpuClock};

    fn probe() -> (ManualProbe, Arc<ManualClock>, Arc<ManualCpuClock>) {
        let wall = Arc::new(ManualClock::new());
        let cpu = Arc::new(ManualCpuClock::new());
        (ManualProbe::new(wall.clone(), cpu.clone()), wall, cpu)
    }

    #[test]
    fn bracket_measures_exact_durations() {
        let (p, wall, cpu) = probe();
        let g = p.begin();
        wall.advance(500);
        cpu.advance_current(200);
        p.end(g);
        assert_eq!(p.samples(), vec![ManualSample { wall_ns: 500, cpu_ns: 200 }]);
    }

    #[test]
    fn measure_wraps_a_closure() {
        let (p, wall, _) = probe();
        let out = p.measure(|| {
            wall.advance(42);
            "result"
        });
        assert_eq!(out, "result");
        assert_eq!(p.samples()[0].wall_ns, 42);
    }

    #[test]
    fn means_across_samples() {
        let (p, wall, cpu) = probe();
        for ns in [100u64, 300] {
            let g = p.begin();
            wall.advance(ns);
            cpu.advance_current(ns / 2);
            p.end(g);
        }
        assert_eq!(p.mean_wall_ns(), Some(200.0));
        assert_eq!(p.mean_cpu_ns(), Some(100.0));
    }

    #[test]
    fn means_are_none_without_samples() {
        let (p, _, _) = probe();
        assert_eq!(p.mean_wall_ns(), None);
        assert_eq!(p.mean_cpu_ns(), None);
    }
}
