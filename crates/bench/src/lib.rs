//! # causeway-bench
//!
//! Experiment harness: one binary per table/figure of the paper's
//! evaluation (see `DESIGN.md` §5 for the index). Each binary asserts the
//! bound the paper states and exits non-zero when it does not hold; the
//! per-layer timings live in the perf ledger (`bench_report/`).
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `exp_table1` | Table 1 — event chaining patterns |
//! | `exp_idl_translation` | Figure 3 — the IDL compiler's internal translation |
//! | `exp_state_machine` | Figure 4 — reconstruction incl. abnormal recovery |
//! | `exp_commercial_scale` | Figure 5 / §4 — the 195k-call commercial system |
//! | `exp_ccsg` | Figure 6 — the CCSG XML view of the PPS |
//! | `exp_latency_accuracy` | §4 — automatic vs. manual latency (≤60%) |
//! | `exp_cpu_accuracy` | §4 — CPU accuracy (≤10% / ≤40%) |
//! | `exp_payload_growth` | §5 — FTL vs. Trace-Object payload growth |
//! | `exp_baseline_gprof` | §5 — gprof's cross-boundary blindness |
//! | `exp_baseline_ovation` | §5 — OVATION's causal ambiguity |
//! | `exp_sta_mingling` | §2.2 — STA causal mingling and the fix |

use std::time::{Duration, Instant};

/// Formats a duration in adaptive human units.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 60 {
        format!("{:.1} min", d.as_secs_f64() / 60.0)
    } else if d.as_secs() >= 1 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.2} µs", d.as_secs_f64() * 1e6)
    }
}

/// Times a closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Percentage difference `|a − b| / b * 100`, the paper's accuracy metric.
pub fn pct_diff(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        return if a == 0.0 { 0.0 } else { f64::INFINITY };
    }
    ((a - b) / b).abs() * 100.0
}

/// Prints a fixed-width table with a header rule.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>());
    println!("{}", widths.iter().map(|w| "-".repeat(*w + 2)).collect::<String>());
    for row in rows {
        line(row);
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_diff_is_symmetric_in_magnitude() {
        assert_eq!(pct_diff(110.0, 100.0), pct_diff(90.0, 100.0));
        assert_eq!(pct_diff(0.0, 0.0), 0.0);
        assert!(pct_diff(1.0, 0.0).is_infinite());
    }

    #[test]
    fn durations_format_adaptively() {
        assert!(fmt_duration(Duration::from_nanos(1500)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(20)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).contains("s"));
        assert!(fmt_duration(Duration::from_secs(120)).contains("min"));
    }

    #[test]
    fn timed_returns_result() {
        let (v, d) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
