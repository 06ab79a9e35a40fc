//! The A/A test: the full workload set twice on the same build, each
//! workload in its own process, failing if any end-to-end metric differs
//! between the two sets by more than the bound `BENCHMARK.json` gives it.
//! Both sets, plus one traced set, are written out as a ledger entry.

use crate::{out_dir, DEFAULT_SEED, HELD_OUT_SEED, PLANS};
use causeway_collector::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn benchmark_json() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Each end-to-end metric's bound.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = benchmark_json();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {}", path.display(), e.message))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("an end_to_end metric has no name")?;
            match m.get("bound") {
                Some(Json::Num(bound)) => Ok((name.to_owned(), *bound)),
                _ => Err(format!("end_to_end metric {name} has no bound")),
            }
        })
        .collect()
}

/// Runs one workload in a child process and returns the report it wrote.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let status = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !status.success() {
        return Err(format!(
            "the {workload} run failed its output checks ({status})"
        ));
    }
    let file = out_dir().join(format!("report_{workload}_trace{}.json", u8::from(trace)));
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {}", file.display(), e.message))
}

fn value_of(report: &Json, name: &str) -> Option<f64> {
    match report
        .get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
    {
        Json::Num(value) => Some(*value),
        _ => None,
    }
}

/// `|b − a| ÷ a` for every metric × workload, with its bound.
fn differences(
    a: &BTreeMap<String, Json>,
    b: &BTreeMap<String, Json>,
    bounds: &BTreeMap<String, f64>,
) -> Vec<(String, String, f64, f64)> {
    let mut out = Vec::new();
    for (workload, first) in a {
        for (name, bound) in bounds {
            let (x, y) = (
                value_of(first, name),
                b.get(workload).and_then(|second| value_of(second, name)),
            );
            let gap = match (x, y) {
                (Some(x), Some(y)) => (y - x).abs() / x.abs(),
                _ => f64::INFINITY,
            };
            out.push((workload.clone(), name.clone(), gap, *bound));
        }
    }
    out
}

fn whole(seed: u64, seconds: u64) -> Result<bool, String> {
    let bounds = bounds()?;
    let set = |trace: bool| -> Result<BTreeMap<String, Json>, String> {
        PLANS
            .iter()
            .map(|p| Ok((p.name.to_owned(), child(p.name, seed, seconds, trace)?)))
            .collect()
    };
    let (a, b) = (set(false)?, set(false)?);
    let traced = set(true)?;

    let gaps = differences(&a, &b, &bounds);
    println!("\nA/A: |second − first| ÷ first, against each metric's bound");
    for (workload, name, gap, bound) in &gaps {
        let verdict = if gap <= bound { "ok" } else { "DIFFERS" };
        println!("  {workload:<16} {name:<22} {gap:>8.4}  bound {bound:<5} {verdict}");
    }
    let pass = gaps.iter().all(|(_, _, gap, bound)| gap <= bound);

    let ledger = Json::obj([
        ("claim", Json::Null),
        ("default_seed", Json::Num(DEFAULT_SEED as f64)),
        ("held_out_seed", Json::Num(HELD_OUT_SEED as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("selfcheck_pass", Json::Bool(pass)),
        (
            "runs",
            Json::obj([("a", Json::Obj(a)), ("b", Json::Obj(b))]),
        ),
        ("layers", Json::Obj(traced)),
    ]);
    let file = out_dir().join("BENCH.json");
    std::fs::write(&file, ledger.to_string()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("ledger entry written to {}", file.display());
    Ok(pass)
}

pub fn run(seed: u64, seconds: u64) -> ExitCode {
    match whole(seed, seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_report: two runs of the same build differ by more than a bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(value: f64) -> Json {
        json::parse(&format!(
            r#"{{"result":{{"metrics":{{"analyze_s":{{"value":{value},"unit":"s"}}}}}}}}"#
        ))
        .expect("test JSON parses")
    }

    #[test]
    fn a_gap_is_relative_to_the_first_run_and_missing_values_fail() {
        let bounds = BTreeMap::from([("analyze_s".to_owned(), 0.1), ("setup_s".to_owned(), 0.25)]);
        let a = BTreeMap::from([("w".to_owned(), report(2.0))]);
        let b = BTreeMap::from([("w".to_owned(), report(2.1))]);
        let gaps = differences(&a, &b, &bounds);
        assert_eq!(gaps.len(), 2);
        assert!((gaps[0].2 - 0.05).abs() < 1e-12 && gaps[0].3 == 0.1);
        assert!(gaps[1].2.is_infinite(), "setup_s is in neither report");
    }
}
