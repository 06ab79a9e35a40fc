//! Where a result was measured: the facts a reader needs before comparing
//! two ledger entries.

use causeway_collector::json::Json;
use std::process::Command;

/// The checked-out commit, read from `.git` in the working directory
/// only — a checkout that is not a repository reports "unknown" instead
/// of searching the directories above it.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_owned()
    } else {
        rev.to_owned()
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `nproc` is the CPU count before the run confined itself to
/// `pinned_cpu`.
pub fn block(nproc: usize, pinned_cpu: Option<usize>) -> Json {
    Json::obj([
        ("git_rev", Json::Str(git_rev())),
        ("rustc", Json::Str(rustc_version())),
        ("nproc", Json::Num(nproc as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
        ),
        ("cpu_model", Json::Str(cpu_model())),
    ])
}
