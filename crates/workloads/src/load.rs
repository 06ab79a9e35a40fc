//! Open-loop load generation: fixed arrival schedules, free of
//! coordinated omission.
//!
//! A closed-loop driver (issue a call, wait for the reply, issue the next)
//! measures a server that is never behind: every stall pauses the load,
//! so the latency a slow window inflicts on the requests that *would have
//! arrived* during it is silently omitted. An open-loop driver fixes the
//! arrival times up front — [`Arrivals::schedule`] — and charges every
//! request's latency from its **scheduled** arrival, whether or not a
//! worker was free to issue it on time. Queueing delay during a stall
//! therefore lands in the percentiles instead of disappearing.
//!
//! The schedules pair with the engines' bounded dispatch queues: a
//! [`Arrivals::ThunderingHerd`] against a small queue capacity must show
//! up as explicit shed load (`causeway_engine_shed_total`), never as an
//! unbounded queue or a deadlock.

use causeway_core::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// An open-loop arrival pattern, rendered to concrete offsets by
/// [`Arrivals::schedule`].
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Evenly spaced arrivals at a fixed rate.
    Steady {
        /// Arrivals per second.
        rate_per_sec: f64,
        /// Total arrivals.
        count: usize,
    },
    /// A baseline rate with periodic bursts: within each `period`, the
    /// first `duty` fraction arrives at `burst_rate_per_sec`, the rest at
    /// `base_rate_per_sec`.
    Burst {
        /// Arrivals per second outside bursts.
        base_rate_per_sec: f64,
        /// Arrivals per second inside bursts.
        burst_rate_per_sec: f64,
        /// Length of one base+burst cycle.
        period: Duration,
        /// Fraction of each period spent bursting, clamped to `0.0..=1.0`.
        duty: f64,
        /// Total arrivals.
        count: usize,
    },
    /// `herds` groups of `herd_size` simultaneous arrivals, `gap` apart —
    /// the synchronized-client stampede (cache expiry, retry storm).
    ThunderingHerd {
        /// Number of stampedes.
        herds: usize,
        /// Simultaneous arrivals per stampede.
        herd_size: usize,
        /// Quiet time between stampedes.
        gap: Duration,
    },
}

impl Arrivals {
    /// Renders the pattern into sorted arrival offsets from the run start.
    /// The schedule is computed before any load is issued, so a slow
    /// server cannot push arrivals later (the open-loop property).
    pub fn schedule(&self) -> Vec<Duration> {
        match *self {
            Arrivals::Steady { rate_per_sec, count } => {
                let interval = interval_of(rate_per_sec);
                (0..count).map(|i| interval * i as u32).collect()
            }
            Arrivals::Burst {
                base_rate_per_sec,
                burst_rate_per_sec,
                period,
                duty,
                count,
            } => {
                let duty = duty.clamp(0.0, 1.0);
                let period_s = period.as_secs_f64().max(1e-9);
                let mut offsets = Vec::with_capacity(count);
                let mut t = 0.0f64;
                for _ in 0..count {
                    offsets.push(Duration::from_secs_f64(t));
                    let phase = (t / period_s).fract();
                    let rate = if phase < duty { burst_rate_per_sec } else { base_rate_per_sec };
                    t += interval_of(rate).as_secs_f64();
                }
                offsets
            }
            Arrivals::ThunderingHerd { herds, herd_size, gap } => {
                let mut offsets = Vec::with_capacity(herds * herd_size);
                for herd in 0..herds {
                    let at = gap * herd as u32;
                    offsets.extend(std::iter::repeat_n(at, herd_size));
                }
                offsets
            }
        }
    }
}

/// Seconds-per-arrival for a rate, clamped away from zero and infinity.
fn interval_of(rate_per_sec: f64) -> Duration {
    let rate = rate_per_sec.clamp(1e-3, 1e9);
    Duration::from_secs_f64(1.0 / rate)
}

/// What one open-loop run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Arrivals in the schedule (every one was issued).
    pub offered: usize,
    /// Operations that returned `Ok`.
    pub ok: usize,
    /// Operations that returned `Err` — under a bounded engine queue,
    /// typically shed load.
    pub errors: usize,
    /// Per-arrival latency from **scheduled** arrival to completion,
    /// nanoseconds, sorted ascending. Includes the wait for a free worker,
    /// so queueing under overload is charged, not omitted.
    pub latencies_ns: Vec<u64>,
    /// Wall time from run start to the last completion.
    pub elapsed: Duration,
}

impl LoadReport {
    /// The `q`-quantile (0.0..=1.0) of schedule-relative latency, using
    /// the nearest-rank rule. `None` on an empty report.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.latencies_ns.len() as f64).ceil() as usize)
            .clamp(1, self.latencies_ns.len());
        Some(self.latencies_ns[rank - 1])
    }
}

/// Issues `schedule` through `op` from `workers` threads, open-loop.
///
/// Workers pull the next arrival index from a shared cursor. Each arrival
/// waits until its scheduled time if the worker is early, and is issued
/// immediately (already late) otherwise; either way its latency is charged
/// from the scheduled time. `op` receives the arrival index and reports
/// success or failure (a shed or refused call is a failure — it still
/// counts as offered load).
pub fn run_open_loop<F>(workers: usize, schedule: &[Duration], op: F) -> LoadReport
where
    F: Fn(usize) -> Result<(), String> + Sync,
{
    let workers = workers.max(1);
    let next = AtomicUsize::new(0);
    let results: Mutex<(usize, usize, Vec<u64>)> = Mutex::new((0, 0, Vec::new()));
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut ok = 0usize;
                let mut errors = 0usize;
                let mut latencies = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&offset) = schedule.get(i) else { break };
                    let scheduled = epoch + offset;
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    match op(i) {
                        Ok(()) => ok += 1,
                        Err(_) => errors += 1,
                    }
                    // From the *schedule*, not from issue: the wait for
                    // this worker is part of the request's latency.
                    latencies.push(scheduled.elapsed().as_nanos() as u64);
                }
                let mut merged = results.lock();
                merged.0 += ok;
                merged.1 += errors;
                merged.2.extend(latencies);
            });
        }
    });
    let elapsed = epoch.elapsed();
    let (ok, errors, mut latencies_ns) = results.into_inner();
    latencies_ns.sort_unstable();
    LoadReport { offered: schedule.len(), ok, errors, latencies_ns, elapsed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_schedule_is_evenly_spaced() {
        let schedule = Arrivals::Steady { rate_per_sec: 1000.0, count: 5 }.schedule();
        assert_eq!(schedule.len(), 5);
        assert_eq!(schedule[0], Duration::ZERO);
        for pair in schedule.windows(2) {
            assert_eq!(pair[1] - pair[0], Duration::from_millis(1));
        }
    }

    #[test]
    fn thundering_herd_schedules_simultaneous_arrivals() {
        let schedule = Arrivals::ThunderingHerd {
            herds: 3,
            herd_size: 4,
            gap: Duration::from_millis(10),
        }
        .schedule();
        assert_eq!(schedule.len(), 12);
        for herd in 0..3u32 {
            let at = Duration::from_millis(10) * herd;
            assert!(schedule.iter().filter(|&&o| o == at).count() == 4);
        }
    }

    #[test]
    fn burst_schedule_is_denser_inside_the_burst() {
        let schedule = Arrivals::Burst {
            base_rate_per_sec: 100.0,
            burst_rate_per_sec: 10_000.0,
            period: Duration::from_millis(100),
            duty: 0.5,
            count: 200,
        }
        .schedule();
        assert_eq!(schedule.len(), 200);
        assert!(schedule.windows(2).all(|p| p[0] <= p[1]), "monotone offsets");
        // The first half-period bursts at 100x the base rate: far more
        // than half the arrivals land inside it.
        let in_burst = schedule
            .iter()
            .filter(|o| (o.as_secs_f64() / 0.1).fract() < 0.5)
            .count();
        assert!(in_burst > 150, "{in_burst} of 200 arrivals in burst windows");
    }

    #[test]
    fn latency_is_charged_from_the_schedule_not_from_issue() {
        // Two arrivals at t=0, one worker, a 20 ms operation: the second
        // arrival is issued ~20 ms late and its latency must say so.
        let schedule = vec![Duration::ZERO, Duration::ZERO];
        let report = run_open_loop(1, &schedule, |_| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(())
        });
        assert_eq!(report.offered, 2);
        assert_eq!(report.ok, 2);
        assert_eq!(report.errors, 0);
        let worst = *report.latencies_ns.last().expect("two samples");
        assert!(
            worst >= 35_000_000,
            "queue wait omitted from open-loop latency: worst {worst} ns"
        );
        assert!(report.quantile_ns(1.0) == Some(worst));
    }

    #[test]
    fn failures_count_as_offered_load() {
        let schedule = Arrivals::Steady { rate_per_sec: 1e6, count: 10 }.schedule();
        let report =
            run_open_loop(4, &schedule, |i| if i % 2 == 0 { Ok(()) } else { Err("shed".into()) });
        assert_eq!(report.offered, 10);
        assert_eq!(report.ok, 5);
        assert_eq!(report.errors, 5);
        assert_eq!(report.latencies_ns.len(), 10);
    }
}
