//! The log's write path, one row per saving, so each can be re-measured
//! without the full ledger (`bench_report/`): the frame checksum over a
//! megabyte, one 256-record chunk appended to a segment file, and the seal
//! a server worker performs after every dispatch.

use causeway_bench::sample_record;
use causeway_collector::segment::SegmentWriter;
use causeway_core::deploy::Deployment;
use causeway_core::ids::LogicalThreadId;
use causeway_core::names::VocabSnapshot;
use causeway_core::sink::{CHUNK_CAPACITY, Chunk, LogStore};
use causeway_core::wire;
use criterion::{Criterion, black_box, criterion_group, criterion_main};
use std::time::{Duration, Instant};

/// `crc32/1MiB`: ns per MiB checksummed.
fn bench_crc32(c: &mut Criterion) {
    let mut state = 0x1cdc_2003u64;
    let buf: Vec<u8> = (0..1 << 20)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect();
    let mut group = c.benchmark_group("crc32");
    group.bench_function("1MiB", |b| b.iter(|| wire::crc32(black_box(&buf))));
    group.finish();
}

/// `segment_append/256`: ns per full sink chunk encoded, checksummed and
/// written through to the OS.
fn bench_segment_append(c: &mut Criterion) {
    // Appends per file before it is recreated (truncated): bounds the file
    // at ~32 MB however many iterations the harness asks for.
    const APPENDS_PER_FILE: u64 = 1024;
    let path = std::env::temp_dir()
        .join(format!("causeway_bench_write_path_{}.cwseg", std::process::id()));
    let chunk = Chunk {
        thread: LogicalThreadId(0),
        records: (0..CHUNK_CAPACITY as u64).map(sample_record).collect(),
    };
    let mut group = c.benchmark_group("segment_append");
    group.bench_function("256", |b| {
        b.iter_custom(|iters| {
            let mut elapsed = Duration::ZERO;
            let mut left = iters;
            while left > 0 {
                let appends = left.min(APPENDS_PER_FILE);
                let mut writer = SegmentWriter::create(
                    &path,
                    &VocabSnapshot::default(),
                    &Deployment::new(),
                    None,
                )
                .expect("create the segment file");
                let started = Instant::now();
                for _ in 0..appends {
                    writer.append_chunk(black_box(&chunk)).expect("append");
                }
                elapsed += started.elapsed();
                left -= appends;
            }
            elapsed
        })
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

/// `sink_seal/2-records`: ns per dispatch-shaped seal — two pushes, the
/// idle-point flush, and the collector's receive.
fn bench_sink_seal(c: &mut Criterion) {
    let store = LogStore::new();
    let mut group = c.benchmark_group("sink_seal");
    group.bench_function("2-records", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 2;
            store.push(sample_record(seq));
            store.push(sample_record(seq + 1));
            store.flush_current_thread();
            black_box(store.try_recv_chunk())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_crc32, bench_segment_append, bench_sink_seal);
criterion_main!(benches);
