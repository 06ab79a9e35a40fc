//! The `causeway_analyze` binary end to end: what it prints for a segment
//! written by an older commit, how it refuses a file that is not a
//! segment, and how `--lossy` reads a torn one.

use std::path::PathBuf;
use std::process::{Command, Output};

const SEGMENT: &[u8] = include_bytes!("fixtures/parent_445ca92_analysis.cwseg");
const CCSG_XML: &str = include_str!("fixtures/parent_445ca92_ccsg.xml");

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_causeway_analyze"))
        .args(args)
        .output()
        .expect("causeway_analyze runs")
}

/// Writes `bytes` to a per-test file in the temp directory.
fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("causeway_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, bytes).expect("temp file written");
    path
}

#[test]
fn ccsg_of_the_parent_segment_matches_the_parent_xml() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/parent_445ca92_analysis.cwseg"
    );
    let output = analyze(&[fixture, "--ccsg"]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stdout) == CCSG_XML,
        "CCSG XML drifted"
    );
}

#[test]
fn a_non_segment_file_is_refused_naming_the_magic() {
    let path = temp_file("not_a_segment.jsonl", b"{\"records\": []}\n");
    let output = analyze(&[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("CWSEG01"), "{stderr}");
    assert!(stderr.contains("online_monitor --segment"), "{stderr}");
}

#[test]
fn lossy_reads_a_torn_segment_with_a_warning() {
    let path = temp_file("torn.cwseg", &SEGMENT[..SEGMENT.len() - 40]);
    let strict = analyze(&[path.to_str().unwrap(), "--stats"]);
    let lossy = analyze(&[path.to_str().unwrap(), "--stats", "--lossy"]);
    let _ = std::fs::remove_file(&path);
    assert!(
        !strict.status.success(),
        "strict read accepted a torn segment"
    );
    assert!(
        lossy.status.success(),
        "{}",
        String::from_utf8_lossy(&lossy.stderr)
    );
    let stderr = String::from_utf8_lossy(&lossy.stderr);
    assert!(stderr.contains("warning: segment recovered"), "{stderr}");
    assert!(String::from_utf8_lossy(&lossy.stdout).contains("== run statistics =="));
}
