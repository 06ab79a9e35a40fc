//! Property tests for the durable segment format: round-trips are
//! bit-identical, and truncation at *every* byte offset either recovers a
//! clean record prefix with an exact reported shortfall or fails cleanly —
//! never panics, never returns garbage records.

use causeway_collector::segment::{
    next_frame, read_run_log, recover_run_log, write_run_log, write_run_log_with_frame,
    SEGMENT_MAGIC,
};
use causeway_core::deploy::Deployment;
use causeway_core::ids::*;
use causeway_core::names::{ComponentId, InterfaceEntry, ObjectEntry, VocabSnapshot};
use causeway_core::runlog::RunLog;
use common::synth_record;
use proptest::prelude::*;

mod common;

fn synth_run(seed: u64, records: usize, declare_expected: bool) -> RunLog {
    let mut vocab = VocabSnapshot::default();
    vocab.interfaces.push(InterfaceEntry {
        name: format!("Iface::Gen{seed}"),
        methods: vec!["a".into(), "b".into(), "c".into()],
    });
    vocab.components.push("GenComponent".into());
    vocab.cpu_types.push("HPUX".into());
    vocab.cpu_types.push("WindowsNT".into());
    vocab.objects.push((
        ObjectId(seed),
        ObjectEntry {
            label: format!("gen#{seed}"),
            interface: InterfaceId(0),
            component: ComponentId(0),
            process: ProcessId(0),
        },
    ));
    let mut deployment = Deployment::new();
    let n0 = deployment.add_node("hp1", CpuTypeId(0));
    let n1 = deployment.add_node("nt1", CpuTypeId(1));
    deployment.add_process("client", n0);
    deployment.add_process("server", n1);
    let mut run = RunLog::new(
        (0..records as u64).map(|i| synth_record(seed, i)).collect(),
        vocab,
        deployment,
    );
    run.expected_records = declare_expected.then_some(records as u64);
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn round_trips_bit_identically(
        seed in 0u64..u64::MAX,
        records in 0usize..200,
        frame in 1usize..40,
    ) {
        let run = synth_run(seed, records, seed % 2 == 0);
        let bytes = write_run_log_with_frame(&run, frame);
        let restored = read_run_log(&bytes).expect("clean segment reads strictly");
        prop_assert_eq!(&restored, &run);
        // Canonical form: re-serializing at the same framing is identical.
        prop_assert_eq!(write_run_log_with_frame(&restored, frame), bytes);
        // Framing is a storage choice, not a semantic one.
        prop_assert_eq!(read_run_log(&write_run_log(&run)).expect("default framing"), run);
    }

    #[test]
    fn random_cuts_recover_a_prefix_or_fail_cleanly(
        seed in 0u64..u64::MAX,
        records in 1usize..120,
        frame in 1usize..20,
        cut_sel in 0u64..u64::MAX,
    ) {
        let run = synth_run(seed, records, true);
        let bytes = write_run_log_with_frame(&run, frame);
        let cut = (cut_sel % bytes.len() as u64) as usize;
        check_cut(&run, &bytes, cut);
    }
}

/// The contract for one truncation point: recovery never panics; before
/// the end of the header frame it fails cleanly; after it, it returns an
/// exact chunk-aligned prefix and an exact reported shortfall.
fn check_cut(run: &RunLog, bytes: &[u8], cut: usize) {
    let header_end = next_frame(bytes, SEGMENT_MAGIC.len())
        .expect("intact segment has a header frame")
        .end;
    let truncated = &bytes[..cut];
    match recover_run_log(truncated) {
        Err(_) => {
            assert!(
                cut < header_end,
                "cut at {cut} (header ends at {header_end}) must recover, not fail"
            );
        }
        Ok(recovery) => {
            assert!(
                cut >= header_end,
                "cut at {cut} inside the header (ends {header_end}) must fail, not recover"
            );
            let got = recovery.run.records.len();
            assert!(got <= run.records.len());
            assert_eq!(
                recovery.run.records,
                run.records[..got],
                "cut at {cut}: recovered records must be a clean prefix"
            );
            assert_eq!(recovery.run.vocab, run.vocab, "cut at {cut}");
            assert_eq!(recovery.run.deployment, run.deployment, "cut at {cut}");
            let total = run.records.len() as u64;
            assert_eq!(recovery.run.expected_records, Some(total), "cut at {cut}");
            let expected_missing = total - got as u64;
            let reported = recovery.run.missing_records().unwrap_or(0);
            assert_eq!(
                reported, expected_missing,
                "cut at {cut}: shortfall must be exact"
            );
            if cut == bytes.len() {
                assert!(recovery.is_clean(), "full file recovers clean");
            } else {
                assert!(!recovery.sealed, "a cut file cannot still be sealed");
            }
        }
    }
}

/// The exhaustive acceptance case: truncate one segment at *every* byte
/// offset, 0 through the full length inclusive.
#[test]
fn truncation_at_every_byte_offset_recovers_prefix_or_reports_shortfall() {
    let run = synth_run(0xC0FFEE, 61, true);
    let bytes = write_run_log_with_frame(&run, 7);
    for cut in 0..=bytes.len() {
        check_cut(&run, &bytes, cut);
    }
}

/// Without a declared expectation the shortfall is unknowable — recovery
/// must still produce clean prefixes and must not invent a number.
#[test]
fn truncation_without_declared_expectation_stays_silent() {
    let run = synth_run(42, 30, false);
    let bytes = write_run_log_with_frame(&run, 7);
    let header_end = next_frame(&bytes, SEGMENT_MAGIC.len()).unwrap().end;
    for cut in (header_end..bytes.len()).step_by(11) {
        let recovery = recover_run_log(&bytes[..cut]).expect("recovers past header");
        let got = recovery.run.records.len();
        assert_eq!(recovery.run.records, run.records[..got]);
        assert_eq!(recovery.run.expected_records, None);
        assert_eq!(recovery.run.missing_records(), None);
    }
    // The seal carries the expectation of a *clean* close even when the
    // header had none.
    let full = recover_run_log(&bytes).unwrap();
    assert!(full.is_clean());
    assert_eq!(full.run, run);
}

/// Byte corruption (not just truncation) anywhere past the header either
/// truncates to a clean prefix or — when it hits redundant bytes like a
/// length word's high zeros — leaves the decoded run untouched.
#[test]
fn flipped_bits_never_yield_garbage_records() {
    let run = synth_run(7, 40, true);
    let bytes = write_run_log_with_frame(&run, 7);
    let header_end = next_frame(&bytes, SEGMENT_MAGIC.len()).unwrap().end;
    for target in (header_end..bytes.len()).step_by(13) {
        let mut mutated = bytes.clone();
        mutated[target] ^= 0x80;
        match recover_run_log(&mutated) {
            Ok(recovery) => {
                let got = recovery.run.records.len();
                assert_eq!(
                    recovery.run.records,
                    run.records[..got],
                    "flip at {target}: records must stay a clean prefix"
                );
            }
            Err(_) => {
                // Acceptable only if the flip destroyed framing so badly
                // that nothing past the header was scannable — still not
                // a panic and not garbage.
            }
        }
    }
}

/// Bytes are the parent's bytes: a segment written by `write_run_log` at
/// commit d28141a — before the sliced CRC, the stack-array record codec
/// and in-place frames — from a 100-call commercial system run in
/// `ProbeMode::Both` (404 records). It must still read strictly, and
/// re-encoding what was read must reproduce the file exactly.
#[test]
fn segment_written_by_the_parent_commit_reads_clean_and_re_encodes_identically() {
    let fixture: &[u8] = include_bytes!("fixtures/parent_d28141a_write_run_log.cwseg");
    let run = read_run_log(fixture).expect("the parent's segment verifies and decodes");
    assert_eq!(run.len(), 404);
    assert_eq!(run.expected_records, Some(404));
    assert!(write_run_log(&run) == fixture, "re-encoded bytes differ from the parent's");
}
