//! Crash-safe segment recovery across a *real* process kill, not just an
//! in-memory truncation.
//!
//! The test re-executes its own test binary as a child that runs only the
//! ignored `writer_child` entry: with [`CHILD_ENV`] naming a path, the
//! child streams seeded records into a segment there, frame by frame,
//! declaring the full expected count in the header. The parent SIGKILLs it
//! once the file has grown past [`KILL_BYTES`], recovers the torn file and
//! demands:
//!
//! * an unsealed segment with a frame-aligned record prefix,
//! * every recovered record bit-identical to the regenerated sequence
//!   (same seed, same derivation; no clock or RNG state crosses processes),
//! * the header's expectation kept and
//!   [`causeway_core::runlog::RunLog::missing_records`] equal to the exact
//!   shortfall,
//! * strict [`segment::read_run_log`] refusing the torn file,
//! * shaving more bytes off the tail still recovering a clean, shorter
//!   prefix: truncation degrades, never corrupts.

use causeway_collector::segment::{self, SegmentWriter};
use causeway_core::deploy::Deployment;
use causeway_core::ids::{CpuTypeId, InterfaceId, LogicalThreadId, ObjectId, ProcessId};
use causeway_core::names::{ComponentId, InterfaceEntry, ObjectEntry, VocabSnapshot};
use causeway_core::record::ProbeRecord;
use common::synth_record;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

mod common;

/// Names the segment the child writes; unset in every other run.
const CHILD_ENV: &str = "CAUSEWAY_CRASH_RECOVERY_CHILD";
const SEED: u64 = 0xC4A5_E00D;
/// Records per chunk frame the child appends.
const FRAME_RECORDS: u64 = 128;
/// Records the child declares (and would write, were it not killed); large
/// enough that the kill always lands mid-run.
const TOTAL_RECORDS: u64 = 4_000_000;
/// The parent kills the child once the segment file reaches this size.
const KILL_BYTES: u64 = 192 * 1024;
/// Give up if the child never reaches [`KILL_BYTES`] within this long.
const SPAWN_DEADLINE: Duration = Duration::from_secs(60);

fn vocab() -> VocabSnapshot {
    let mut vocab = VocabSnapshot::default();
    vocab.interfaces.push(InterfaceEntry {
        name: format!("Iface::Crash{SEED}"),
        methods: vec!["a".into(), "b".into(), "c".into()],
    });
    vocab.components.push("CrashComponent".into());
    vocab.cpu_types.push("HPUX".into());
    vocab.objects.push((
        ObjectId(SEED),
        ObjectEntry {
            label: format!("crash#{SEED}"),
            interface: InterfaceId(0),
            component: ComponentId(0),
            process: ProcessId(0),
        },
    ));
    vocab
}

fn deployment() -> Deployment {
    let mut deployment = Deployment::new();
    let node = deployment.add_node("hp1", CpuTypeId(0));
    deployment.add_process("victim", node);
    deployment
}

/// The child's side: streams frames until killed. Does nothing unless
/// [`CHILD_ENV`] is set, so `cargo test -- --ignored` alone is harmless.
#[test]
#[ignore = "the writer process of killed_writer_recovers_a_verified_prefix"]
fn writer_child() {
    let Some(path) = std::env::var_os(CHILD_ENV) else {
        return;
    };
    let mut writer =
        SegmentWriter::create(&path, &vocab(), &deployment(), Some(TOTAL_RECORDS)).unwrap();
    for first in (0..TOTAL_RECORDS).step_by(FRAME_RECORDS as usize) {
        let frame: Vec<ProbeRecord> = (first..first + FRAME_RECORDS)
            .map(|i| synth_record(SEED, i))
            .collect();
        let thread = LogicalThreadId((first / FRAME_RECORDS % 4) as u32);
        writer.append_records(thread, &frame).unwrap();
        // Pace the writer so the parent's size poll catches it mid-run
        // rather than racing a burst to completion.
        std::thread::sleep(Duration::from_millis(1));
    }
    writer.finish(Some(TOTAL_RECORDS)).unwrap();
}

/// Recovers `bytes` and checks every recovered record against the seeded
/// sequence. Returns the recovered record count.
fn check_prefix(bytes: &[u8], label: &str) -> u64 {
    let recovery = segment::recover_run_log(bytes)
        .unwrap_or_else(|e| panic!("{label}: recovery failed outright: {e}"));
    assert!(
        !recovery.sealed,
        "{label}: torn segment recovered as sealed"
    );
    let n = recovery.run.len() as u64;
    assert_eq!(
        n % FRAME_RECORDS,
        0,
        "{label}: {n} recovered records is not frame-aligned"
    );
    for (i, record) in recovery.run.records.iter().enumerate() {
        assert!(
            *record == synth_record(SEED, i as u64),
            "{label}: record {i} differs from the seeded sequence"
        );
    }
    assert_eq!(recovery.run.vocab, vocab(), "{label}");
    assert_eq!(
        recovery.run.expected_records,
        Some(TOTAL_RECORDS),
        "{label}: header expectation"
    );
    assert_eq!(
        recovery.run.missing_records(),
        Some(TOTAL_RECORDS - n),
        "{label}: shortfall"
    );
    n
}

#[test]
fn killed_writer_recovers_a_verified_prefix() {
    let path = std::env::temp_dir().join(format!("causeway_crash_{}.cwseg", std::process::id()));
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["writer_child", "--exact", "--ignored", "--test-threads=1"])
        .env(CHILD_ENV, &path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the segment to grow past the kill threshold, then kill the
    // writer without any chance to flush or seal.
    let started = Instant::now();
    loop {
        if std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) >= KILL_BYTES {
            break;
        }
        let exited = child.try_wait().unwrap();
        if exited.is_some() || started.elapsed() > SPAWN_DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&path);
            panic!("child never reached {KILL_BYTES} bytes (exit status {exited:?})");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    // The torn file recovers a verified prefix with an exact shortfall and
    // is refused by the strict reader.
    assert!(
        check_prefix(&bytes, "kill") > 0,
        "nothing recovered from {} bytes",
        bytes.len()
    );
    assert!(
        segment::read_run_log(&bytes).is_err(),
        "strict read accepted a torn segment"
    );

    // Chop progressively more off the tail: recovery keeps returning clean,
    // possibly shorter, verified prefixes.
    for cut in [1usize, 3, 9, 77, 4096] {
        check_prefix(&bytes[..bytes.len() - cut], &format!("cut-{cut}"));
    }
}
