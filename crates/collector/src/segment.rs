//! Durable, crash-safe log segments — the binary storage spine.
//!
//! A segment is an append-only file of length-prefixed, CRC-checksummed
//! *frames*. The first frame is a header carrying the run's dimension
//! tables (vocabulary, deployment) and the pre-declared
//! `expected_records` count; every following frame carries one sealed
//! sink [`Chunk`] in the fixed-width record encoding of
//! [`causeway_core::wire`]; a final *seal* frame records the totals of a
//! clean shutdown. A process can therefore stream its chunks to disk as
//! producers seal them, and a crash loses at most the chunks that were
//! never appended — Magpie logs events durably for exactly this reason,
//! and Chukwa-style collectors use the same append-segment shape.
//!
//! ## Frame layout
//!
//! ```text
//! file  := magic frame*
//! magic := "CWSEG01\n"                      (8 bytes)
//! frame := len:u32le crc:u32le payload      (crc = CRC-32/IEEE of payload)
//! payload[0] — frame kind:
//!   0 HEADER  version:u16  expected:opt-u64  vocab  deployment
//!   1 CHUNK   thread:u32   count:u32  count × 121-byte records
//!   2 SEAL    records:u64  expected:opt-u64
//! ```
//!
//! ## Recovery rules
//!
//! [`recover_run_log`] trusts the longest clean prefix: it verifies each
//! frame's checksum in order and **truncates at the first torn or
//! bad-checksum frame** — everything after it is discarded, even frames
//! that would verify, because an interior tear means the writer's
//! append-only discipline was violated. The header frame is the one
//! non-negotiable part: a segment whose header cannot be verified has no
//! dimension tables and recovery fails outright. The recovered
//! [`RunLog`] carries the header's (or seal's) `expected_records`, so
//! the shortfall of a crashed run surfaces through
//! [`RunLog::missing_records`] exactly like a stranded-chunk harvest.
//!
//! Checksum verification is sharded across [`pool`] workers
//! frame-by-frame — without serde and without per-line scanning, since the
//! fixed record width makes every split point pure arithmetic. The records
//! of the verified prefix then decode in order straight into one table,
//! sized once from the frames' record counts, so each record is written
//! exactly once.
//!
//! ## Write path
//!
//! A chunk frame is built in place: the 8 header bytes are reserved, the
//! records are encoded straight into the output buffer, and length and
//! checksum are back-patched — [`write_run_log`] does so on its output
//! buffer, [`SegmentWriter`] on a frame buffer it reuses, followed by one
//! unbuffered write per frame. [`put_frame`] and [`write_frame`] frame an
//! already-built payload and serve everything that is not a chunk frame:
//! header, seal, and the analyzer's history and exemplar spills.

use bytes::BufMut;
use causeway_core::deploy::{Deployment, NodeInfo, ProcessInfo};
use causeway_core::ids::{CpuTypeId, InterfaceId, LogicalThreadId, NodeId, ObjectId, ProcessId};
use causeway_core::names::{ComponentId, InterfaceEntry, ObjectEntry, VocabSnapshot};
use causeway_core::pool;
use causeway_core::record::ProbeRecord;
use causeway_core::runlog::RunLog;
use causeway_core::sink::Chunk;
use causeway_core::wire::{self, RECORD_WIRE_LEN};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

/// The 8-byte file magic opening every segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CWSEG01\n";

const KIND_HEADER: u8 = 0;
const KIND_CHUNK: u8 = 1;
const KIND_SEAL: u8 = 2;

const HEADER_VERSION: u16 = 1;

/// Sanity bound on one frame's payload. The reader rejects larger length
/// words as corruption, so the writer must never produce one: frames over
/// this size would be written successfully and then dropped (along with
/// everything after them) as a torn tail on recovery.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Most records one chunk frame can carry without its payload exceeding
/// [`MAX_FRAME_BYTES`] (9 bytes of chunk framing precede the records).
pub const MAX_CHUNK_RECORDS: usize = (MAX_FRAME_BYTES - 9) / RECORD_WIRE_LEN;
const _: () = assert!(9 + MAX_CHUNK_RECORDS * RECORD_WIRE_LEN <= MAX_FRAME_BYTES);

/// Records per chunk frame when serializing a flat [`RunLog`] (the live
/// writer instead frames whatever the sink sealed).
pub const DEFAULT_FRAME_RECORDS: usize = 4096;

/// Errors produced by the segment reader and writer.
#[derive(Debug)]
#[non_exhaustive]
pub enum SegmentError {
    /// An I/O operation failed.
    Io(io::Error),
    /// The bytes are not a recoverable segment (bad magic, unverifiable
    /// header, or — in strict mode — any torn frame or trailing garbage).
    Corrupt(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o failed: {e}"),
            SegmentError::Corrupt(msg) => write!(f, "corrupt segment: {msg}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> SegmentError {
        SegmentError::Io(e)
    }
}

fn corrupt(message: impl Into<String>) -> SegmentError {
    SegmentError::Corrupt(message.into())
}

// ---------------------------------------------------------------------------
// Frame primitives (shared with the analyzer's history and exemplar spills).
// ---------------------------------------------------------------------------

/// Appends one `[len][crc][payload]` frame to `buf`.
///
/// # Panics
///
/// Panics when `payload` exceeds [`MAX_FRAME_BYTES`] — such a frame could
/// never be read back (use [`write_frame`] for a fallible check).
pub fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "frame payload of {} bytes exceeds MAX_FRAME_BYTES and would be unreadable",
        payload.len()
    );
    buf.put_u32_le(payload.len() as u32);
    buf.put_u32_le(wire::crc32(payload));
    buf.put_slice(payload);
}

/// Writes one frame to an output stream.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] when `payload` exceeds
/// [`MAX_FRAME_BYTES`] — the reader treats oversized frames as torn, so
/// writing one would silently discard it (and everything after it) on
/// recovery. Otherwise propagates the underlying I/O error.
pub fn write_frame(out: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame bound",
                payload.len()
            ),
        ));
    }
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&wire::crc32(payload).to_le_bytes())?;
    out.write_all(payload)
}

/// One frame lifted out of a byte stream by [`next_frame`].
#[derive(Debug, Clone, Copy)]
pub struct RawFrame<'a> {
    /// The checksummed payload (first byte is the frame kind).
    pub payload: &'a [u8],
    /// Offset of the first byte past this frame.
    pub end: usize,
    /// The stored checksum — compare against `wire::crc32(payload)`;
    /// deferred so bulk verification can run on pool workers.
    pub crc: u32,
}

/// Lifts the frame starting at `offset` out of `bytes` without verifying
/// its checksum. Returns `None` at clean end-of-input **and** on a torn
/// frame (not enough bytes for the declared length) — recovery treats
/// both as "the log ends here".
pub fn next_frame(bytes: &[u8], offset: usize) -> Option<RawFrame<'_>> {
    let rest = bytes.get(offset..)?;
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES || rest.len() < 8 + len {
        return None;
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    Some(RawFrame { payload: &rest[8..8 + len], end: offset + 8 + len, crc })
}

/// What [`open_frame_log`] returns: the append handle, the offset one past
/// the last intact frame, and each intact frame's `(offset, frame length,
/// decoded payload)`.
pub type OpenedFrameLog<T> = (BufWriter<File>, u64, Vec<(u64, u32, T)>);

/// Opens or creates a frame-log file — `magic`, then [`write_frame`] frames
/// — the open path shared by the analyzer's history and exemplar spills.
///
/// An existing file is read frame by frame with [`next_frame`]. The scan
/// stops at the first frame that is torn, fails its checksum or is rejected
/// by `decode`; the file is truncated there and appends continue after the
/// last intact frame. A missing or empty file, or one holding only part of
/// `magic` (an interrupted create), is created afresh.
///
/// # Errors
///
/// Refuses (`InvalidData`) a file holding any other data — a mistyped path
/// must not destroy an unrelated file. Otherwise propagates file
/// read/create/truncate failures.
pub fn open_frame_log<T>(
    path: &Path,
    magic: &[u8],
    mut decode: impl FnMut(&[u8]) -> Option<T>,
) -> io::Result<OpenedFrameLog<T>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    if !bytes.starts_with(magic) {
        if !magic.starts_with(&bytes) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} exists but is not a {} segment; refusing to overwrite it",
                    path.display(),
                    String::from_utf8_lossy(magic).trim_end()
                ),
            ));
        }
        let mut file = File::create(path)?;
        file.write_all(magic)?;
        return Ok((BufWriter::new(file), magic.len() as u64, Vec::new()));
    }
    let mut frames = Vec::new();
    let mut at = magic.len();
    while let Some(frame) = next_frame(&bytes, at) {
        if wire::crc32(frame.payload) != frame.crc {
            break;
        }
        let Some(value) = decode(frame.payload) else {
            break;
        };
        frames.push((at as u64, (frame.end - at) as u32, value));
        at = frame.end;
    }
    let mut file = OpenOptions::new().write(true).open(path)?;
    file.set_len(at as u64)?; // drop the torn tail, if any
    file.seek(SeekFrom::End(0))?;
    Ok((BufWriter::new(file), at as u64, frames))
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

/// Bounded little-endian reader over a frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SegmentError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt("frame payload truncated"))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SegmentError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SegmentError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, SegmentError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SegmentError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String, SegmentError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_BYTES {
            return Err(corrupt("string length exceeds sanity bound"));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| corrupt("invalid utf-8 in header string"))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SegmentError> {
        let present = self.u8()?;
        let value = self.u64()?;
        match present {
            0 => Ok(None),
            1 => Ok(Some(value)),
            other => Err(corrupt(format!("bad option flag {other}"))),
        }
    }

    fn done(&self) -> Result<(), SegmentError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing payload bytes", self.bytes.len() - self.pos)))
        }
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    buf.put_u8(v.is_some() as u8);
    buf.put_u64_le(v.unwrap_or(0));
}

fn encode_header(
    vocab: &VocabSnapshot,
    deployment: &Deployment,
    expected_records: Option<u64>,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024);
    buf.put_u8(KIND_HEADER);
    buf.put_u16_le(HEADER_VERSION);
    put_opt_u64(&mut buf, expected_records);
    buf.put_u32_le(vocab.interfaces.len() as u32);
    for iface in &vocab.interfaces {
        put_str(&mut buf, &iface.name);
        buf.put_u32_le(iface.methods.len() as u32);
        for method in &iface.methods {
            put_str(&mut buf, method);
        }
    }
    buf.put_u32_le(vocab.components.len() as u32);
    for c in &vocab.components {
        put_str(&mut buf, c);
    }
    buf.put_u32_le(vocab.cpu_types.len() as u32);
    for c in &vocab.cpu_types {
        put_str(&mut buf, c);
    }
    buf.put_u32_le(vocab.objects.len() as u32);
    for (id, entry) in &vocab.objects {
        buf.put_u64_le(id.0);
        put_str(&mut buf, &entry.label);
        buf.put_u32_le(entry.interface.0);
        buf.put_u32_le(entry.component.0);
        buf.put_u16_le(entry.process.0);
    }
    buf.put_u32_le(deployment.nodes.len() as u32);
    for node in &deployment.nodes {
        put_str(&mut buf, &node.name);
        buf.put_u16_le(node.cpu_type.0);
    }
    buf.put_u32_le(deployment.processes.len() as u32);
    for process in &deployment.processes {
        put_str(&mut buf, &process.name);
        buf.put_u16_le(process.node.0);
    }
    buf
}

struct Header {
    vocab: VocabSnapshot,
    deployment: Deployment,
    expected_records: Option<u64>,
}

fn decode_header(payload: &[u8]) -> Result<Header, SegmentError> {
    let mut r = Reader::new(payload);
    if r.u8()? != KIND_HEADER {
        return Err(corrupt("first frame is not a header"));
    }
    let version = r.u16()?;
    if version != HEADER_VERSION {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }
    let expected_records = r.opt_u64()?;
    let mut vocab = VocabSnapshot::default();
    let bounded = |n: u32| -> Result<usize, SegmentError> {
        let n = n as usize;
        if n > MAX_FRAME_BYTES { Err(corrupt("count exceeds sanity bound")) } else { Ok(n) }
    };
    for _ in 0..bounded(r.u32()?)? {
        let name = r.str()?;
        let mut methods = Vec::new();
        for _ in 0..bounded(r.u32()?)? {
            methods.push(r.str()?);
        }
        vocab.interfaces.push(InterfaceEntry { name, methods });
    }
    for _ in 0..bounded(r.u32()?)? {
        vocab.components.push(r.str()?);
    }
    for _ in 0..bounded(r.u32()?)? {
        vocab.cpu_types.push(r.str()?);
    }
    for _ in 0..bounded(r.u32()?)? {
        let id = ObjectId(r.u64()?);
        let label = r.str()?;
        let interface = InterfaceId(r.u32()?);
        let component = ComponentId(r.u32()?);
        let process = ProcessId(r.u16()?);
        vocab.objects.push((id, ObjectEntry { label, interface, component, process }));
    }
    let mut deployment = Deployment::new();
    for _ in 0..bounded(r.u32()?)? {
        let name = r.str()?;
        let cpu_type = CpuTypeId(r.u16()?);
        deployment.nodes.push(NodeInfo { name, cpu_type });
    }
    for _ in 0..bounded(r.u32()?)? {
        let name = r.str()?;
        let node = NodeId(r.u16()?);
        deployment.processes.push(ProcessInfo { name, node });
    }
    r.done()?;
    Ok(Header { vocab, deployment, expected_records })
}

/// Appends one whole chunk frame — `[len][crc]` and the chunk payload —
/// to `buf`, encoding the records straight into place: the 8 header bytes
/// are reserved first and back-patched once the payload they describe has
/// been written, so no record is copied after it is encoded.
///
/// # Panics
///
/// Panics when the payload would exceed [`MAX_FRAME_BYTES`], as
/// [`put_frame`] does; callers split batches at [`MAX_CHUNK_RECORDS`].
fn put_chunk_frame(buf: &mut Vec<u8>, thread: LogicalThreadId, records: &[ProbeRecord]) {
    let payload_len = 9 + records.len() * RECORD_WIRE_LEN;
    assert!(
        payload_len <= MAX_FRAME_BYTES,
        "chunk frame of {} records exceeds MAX_FRAME_BYTES and would be unreadable",
        records.len()
    );
    let frame = buf.len();
    buf.reserve(8 + payload_len);
    buf.put_slice(&[0u8; 8]);
    buf.put_u8(KIND_CHUNK);
    buf.put_u32_le(thread.0);
    buf.put_u32_le(records.len() as u32);
    for record in records {
        wire::encode_record(record, buf);
    }
    let crc = wire::crc32(&buf[frame + 8..]);
    buf[frame..frame + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
}

/// The chunk payload built on its own — the reference the tests frame
/// with [`put_frame`]/[`write_frame`] and compare [`put_chunk_frame`] to.
#[cfg(test)]
fn encode_chunk(thread: LogicalThreadId, records: &[ProbeRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9 + records.len() * RECORD_WIRE_LEN);
    buf.put_u8(KIND_CHUNK);
    buf.put_u32_le(thread.0);
    buf.put_u32_le(records.len() as u32);
    for record in records {
        wire::encode_record(record, &mut buf);
    }
    buf
}

/// A chunk payload's encoded records, once its framing checks out.
fn chunk_records(payload: &[u8]) -> Result<&[u8], SegmentError> {
    let mut r = Reader::new(payload);
    if r.u8()? != KIND_CHUNK {
        return Err(corrupt("not a chunk frame"));
    }
    let _thread = r.u32()?;
    let count = r.u32()? as usize;
    let body = r.take(
        count
            .checked_mul(RECORD_WIRE_LEN)
            .ok_or_else(|| corrupt("chunk record count overflows"))?,
    )?;
    r.done()?;
    Ok(body)
}

fn encode_seal(records: u64, expected_records: Option<u64>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18);
    buf.put_u8(KIND_SEAL);
    buf.put_u64_le(records);
    put_opt_u64(&mut buf, expected_records);
    buf
}

fn decode_seal(payload: &[u8]) -> Result<(u64, Option<u64>), SegmentError> {
    let mut r = Reader::new(payload);
    if r.u8()? != KIND_SEAL {
        return Err(corrupt("not a seal frame"));
    }
    let records = r.u64()?;
    let expected = r.opt_u64()?;
    r.done()?;
    Ok((records, expected))
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Streams a run's sealed chunks to an append-only segment file.
///
/// The header frame is written on creation, so even a process killed
/// immediately afterwards leaves a recoverable — if empty — segment
/// behind. Every appended chunk is encoded in place into one frame buffer
/// the writer reuses — length and checksum back-patched in front of the
/// records — and handed to the OS with a single unbuffered `write_all`
/// before `append_chunk` returns: a crash loses only chunks the sink had
/// not yet sealed, never bytes buffered inside this writer, and a frame
/// is never split across writes.
///
/// # Example
///
/// ```
/// use causeway_collector::segment::{self, SegmentWriter};
/// use causeway_core::{deploy::Deployment, names::VocabSnapshot, sink::Chunk};
/// use causeway_core::ids::LogicalThreadId;
///
/// let path = std::env::temp_dir().join("segment_doc_example.cwseg");
/// let mut writer =
///     SegmentWriter::create(&path, &VocabSnapshot::default(), &Deployment::new(), Some(0))
///         .unwrap();
/// writer.append_chunk(&Chunk { thread: LogicalThreadId(0), records: vec![] }).unwrap();
/// writer.finish(Some(0)).unwrap();
/// let recovery = segment::recover_run_log(&std::fs::read(&path).unwrap()).unwrap();
/// assert!(recovery.sealed);
/// # std::fs::remove_file(&path).ok();
/// ```
#[derive(Debug)]
pub struct SegmentWriter {
    out: File,
    /// The frame being built; kept between appends so a steady stream of
    /// chunks encodes into the same allocation.
    frame: Vec<u8>,
    records_written: u64,
    sealed: bool,
}

impl SegmentWriter {
    /// Creates (truncating) a segment file and writes its header frame.
    ///
    /// `expected_records` is the pre-declared record count, when the
    /// workload knows it up front — it is what lets recovery of a crashed
    /// run report an exact shortfall. Pass `None` for open-ended runs and
    /// declare the final expectation at [`SegmentWriter::finish`].
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn create(
        path: impl AsRef<Path>,
        vocab: &VocabSnapshot,
        deployment: &Deployment,
        expected_records: Option<u64>,
    ) -> io::Result<SegmentWriter> {
        let mut out = File::create(path)?;
        let mut frame = SEGMENT_MAGIC.to_vec();
        write_frame(&mut frame, &encode_header(vocab, deployment, expected_records))?;
        out.write_all(&frame)?;
        Ok(SegmentWriter { out, frame, records_written: 0, sealed: false })
    }

    /// Appends one sealed sink chunk as a checksummed frame, written
    /// through to the OS before returning.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_chunk(&mut self, chunk: &Chunk) -> io::Result<()> {
        self.append_records(chunk.thread, &chunk.records)
    }

    /// Appends an explicit record batch as chunk frames, each written
    /// through to the OS before returning. A batch larger than
    /// [`MAX_CHUNK_RECORDS`] is split across several
    /// frames, so no frame ever exceeds the [`MAX_FRAME_BYTES`] bound the
    /// reader enforces.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_records(
        &mut self,
        thread: LogicalThreadId,
        records: &[ProbeRecord],
    ) -> io::Result<()> {
        self.append_records_capped(thread, records, MAX_CHUNK_RECORDS)
    }

    fn append_records_capped(
        &mut self,
        thread: LogicalThreadId,
        records: &[ProbeRecord],
        records_per_frame: usize,
    ) -> io::Result<()> {
        let records_per_frame = records_per_frame.clamp(1, MAX_CHUNK_RECORDS);
        let mut rest = records;
        // At least one frame, so an empty chunk is still on record.
        loop {
            let (batch, tail) = rest.split_at(rest.len().min(records_per_frame));
            self.frame.clear();
            put_chunk_frame(&mut self.frame, thread, batch);
            self.out.write_all(&self.frame)?;
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        self.records_written += records.len() as u64;
        Ok(())
    }

    /// Records appended so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Writes the seal frame and syncs the file to stable storage.
    ///
    /// `expected_records` supersedes the header's declaration (an
    /// open-ended run learns its expectation only at shutdown).
    ///
    /// # Errors
    ///
    /// Propagates write and sync errors.
    pub fn finish(mut self, expected_records: Option<u64>) -> io::Result<()> {
        self.frame.clear();
        put_frame(&mut self.frame, &encode_seal(self.records_written, expected_records));
        self.out.write_all(&self.frame)?;
        self.sealed = true;
        self.out.sync_all()
    }
}

/// Serializes a whole run log to segment bytes with the default framing.
pub fn write_run_log(run: &RunLog) -> Vec<u8> {
    write_run_log_with_frame(run, DEFAULT_FRAME_RECORDS)
}

/// Serializes a run log, packing `records_per_frame` records into each
/// chunk frame (smaller frames recover at finer granularity and shard
/// wider; the tests use tiny frames to exercise many boundaries). The
/// count is clamped to `1..=`[`MAX_CHUNK_RECORDS`] so every frame stays
/// within the reader's [`MAX_FRAME_BYTES`] bound.
pub fn write_run_log_with_frame(run: &RunLog, records_per_frame: usize) -> Vec<u8> {
    let records_per_frame = records_per_frame.clamp(1, MAX_CHUNK_RECORDS);
    let mut buf = Vec::with_capacity(
        16 + run.records.len() * (RECORD_WIRE_LEN + 2) + 1024,
    );
    buf.put_slice(SEGMENT_MAGIC);
    put_frame(&mut buf, &encode_header(&run.vocab, &run.deployment, run.expected_records));
    for batch in run.records.chunks(records_per_frame) {
        let thread = batch.first().map(|r| r.site.thread).unwrap_or(LogicalThreadId(0));
        put_chunk_frame(&mut buf, thread, batch);
    }
    put_frame(&mut buf, &encode_seal(run.records.len() as u64, run.expected_records));
    buf
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

/// The outcome of [`recover_run_log`].
#[derive(Debug)]
pub struct Recovery {
    /// The recovered run: the longest clean frame prefix, with
    /// `expected_records` restored from the header (or seal) so
    /// [`RunLog::missing_records`] reports the crash's shortfall.
    pub run: RunLog,
    /// `true` when a valid seal frame closed the segment — a clean
    /// shutdown, not a crash.
    pub sealed: bool,
    /// Chunk frames recovered.
    pub chunk_frames: usize,
    /// Bytes discarded after the last verifiable frame (0 for a clean
    /// file).
    pub truncated_bytes: u64,
}

impl Recovery {
    /// `true` when the segment was complete: sealed, nothing discarded.
    pub fn is_clean(&self) -> bool {
        self.sealed && self.truncated_bytes == 0
    }
}

/// Body of one verified non-header frame.
enum FrameBody<'a> {
    /// A chunk frame's records, still encoded.
    Chunk(&'a [u8]),
    Seal { records: u64, expected: Option<u64> },
}

fn verify_frame<'a>(frame: &RawFrame<'a>) -> Result<FrameBody<'a>, SegmentError> {
    if wire::crc32(frame.payload) != frame.crc {
        return Err(corrupt("frame checksum mismatch"));
    }
    match frame.payload.first() {
        Some(&KIND_CHUNK) => chunk_records(frame.payload).map(FrameBody::Chunk),
        Some(&KIND_SEAL) => {
            decode_seal(frame.payload).map(|(records, expected)| FrameBody::Seal { records, expected })
        }
        Some(&KIND_HEADER) => Err(corrupt("header frame repeated mid-segment")),
        Some(&kind) => Err(corrupt(format!("unknown frame kind {kind}"))),
        None => Err(corrupt("empty frame")),
    }
}

/// Recovers a run log from segment bytes, truncating at the first torn
/// or bad-checksum frame, on [`pool::configured_threads`] workers.
///
/// # Errors
///
/// Returns [`SegmentError::Corrupt`] only when the magic or the header
/// frame itself cannot be verified — past the header, damage truncates
/// instead of failing.
pub fn recover_run_log(bytes: &[u8]) -> Result<Recovery, SegmentError> {
    recover_run_log_with_threads(bytes, pool::configured_threads())
}

/// Like [`recover_run_log`] with an explicit worker count. Results are
/// identical at any thread count.
///
/// # Errors
///
/// Returns [`SegmentError::Corrupt`] when the magic or header frame is
/// unverifiable.
pub fn recover_run_log_with_threads(
    bytes: &[u8],
    threads: usize,
) -> Result<Recovery, SegmentError> {
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(corrupt("missing segment magic"));
    }
    let header_frame = next_frame(bytes, SEGMENT_MAGIC.len())
        .ok_or_else(|| corrupt("header frame torn"))?;
    if wire::crc32(header_frame.payload) != header_frame.crc {
        return Err(corrupt("header frame checksum mismatch"));
    }
    let header = decode_header(header_frame.payload)?;

    // Serial scan: frame boundaries only (length hops — no checksums yet).
    let mut frames: Vec<RawFrame<'_>> = Vec::new();
    let mut cursor = header_frame.end;
    while let Some(frame) = next_frame(bytes, cursor) {
        cursor = frame.end;
        frames.push(frame);
    }

    // Parallel checksum verification; the fold below truncates at the
    // first frame that fails, exactly as a serial scan would.
    let verified = pool::par_map(&frames, threads, verify_frame);

    // The chunk frames of the clean prefix, each with the end offset of
    // its frame.
    let mut chunks: Vec<(&[u8], usize)> = Vec::new();
    let mut rows = 0usize;
    let mut seal = None;
    for (frame, body) in frames.iter().zip(verified) {
        match body {
            // A chunk after the seal means the writer was violated; the
            // seal stays authoritative and the rest is discarded.
            Ok(FrameBody::Chunk(records)) if seal.is_none() => {
                chunks.push((records, frame.end));
                rows += records.len() / RECORD_WIRE_LEN;
            }
            Ok(FrameBody::Seal { records, expected }) if seal.is_none() => {
                if records != rows as u64 {
                    // The seal disagrees with what precedes it: trust the
                    // verified chunks, drop the seal.
                    break;
                }
                seal = Some((expected, frame.end));
            }
            _ => break,
        }
    }

    // One record table, sized from the verified frames' counts, which each
    // frame's records decode straight into, in order. A frame whose records
    // do not decode ends the clean prefix (and with it the seal) just as a
    // bad checksum does.
    let mut table = Vec::with_capacity(rows);
    for (i, &(records, _)) in chunks.iter().enumerate() {
        let first_row = table.len();
        let decoded = records
            .chunks_exact(RECORD_WIRE_LEN)
            .try_for_each(|bytes| wire::decode_record(bytes).map(|record| table.push(record)));
        if decoded.is_err() {
            table.truncate(first_row);
            chunks.truncate(i);
            seal = None;
            break;
        }
    }
    let good_end = match (seal, chunks.last()) {
        (Some((_, end)), _) | (None, Some(&(_, end))) => end,
        (None, None) => header_frame.end,
    };
    let mut run = RunLog::new(table, header.vocab, header.deployment);
    run.expected_records = match seal {
        Some((expected, _)) => expected,
        None => header.expected_records,
    };
    Ok(Recovery {
        run,
        sealed: seal.is_some(),
        chunk_frames: chunks.len(),
        truncated_bytes: (bytes.len() - good_end) as u64,
    })
}

/// Strictly reads a *complete* segment: sealed, checksums verified,
/// nothing truncated, on [`pool::configured_threads`] workers.
///
/// # Errors
///
/// Returns [`SegmentError::Corrupt`] for anything [`recover_run_log`]
/// would have had to repair.
pub fn read_run_log(bytes: &[u8]) -> Result<RunLog, SegmentError> {
    read_run_log_with_threads(bytes, pool::configured_threads())
}

/// Like [`read_run_log`] with an explicit worker count.
///
/// # Errors
///
/// Returns [`SegmentError::Corrupt`] on any damage or incompleteness.
pub fn read_run_log_with_threads(bytes: &[u8], threads: usize) -> Result<RunLog, SegmentError> {
    let recovery = recover_run_log_with_threads(bytes, threads)?;
    if !recovery.sealed {
        return Err(corrupt("segment is not sealed (crashed writer?)"));
    }
    if recovery.truncated_bytes != 0 {
        return Err(corrupt(format!(
            "{} bytes of damaged or trailing frames",
            recovery.truncated_bytes
        )));
    }
    Ok(recovery.run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::event::{CallKind, TraceEvent};
    use causeway_core::ids::MethodIndex;
    use causeway_core::record::{CallSite, FunctionKey};
    use causeway_core::uuid::Uuid;
    use proptest::prelude::*;

    fn rec(seq: u64) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(seq as u128 + 7),
            seq,
            event: TraceEvent::ALL[(seq % 4) as usize],
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId((seq % 3) as u16),
                thread: LogicalThreadId((seq % 5) as u32),
            },
            func: FunctionKey::new(InterfaceId(1), MethodIndex(0), ObjectId(seq)),
            wall_start: Some(seq * 10),
            wall_end: Some(seq * 10 + 5),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    fn sample_run(records: usize) -> RunLog {
        let mut vocab = VocabSnapshot::default();
        vocab.interfaces.push(InterfaceEntry {
            name: "Pipe::Stage".into(),
            methods: vec!["run".into(), "notify".into()],
        });
        vocab.components.push("StageComponent".into());
        vocab.cpu_types.push("HPUX".into());
        vocab.objects.push((
            ObjectId(0),
            ObjectEntry {
                label: "stage#0".into(),
                interface: InterfaceId(0),
                component: ComponentId(0),
                process: ProcessId(1),
            },
        ));
        let mut deployment = Deployment::new();
        let n = deployment.add_node("hp1", CpuTypeId(0));
        deployment.add_process("client", n);
        deployment.add_process("server", n);
        let mut run =
            RunLog::new((0..records as u64).map(rec).collect(), vocab, deployment);
        run.expected_records = Some(records as u64);
        run
    }

    #[test]
    fn round_trips_bit_identically() {
        let run = sample_run(100);
        let bytes = write_run_log(&run);
        let restored = read_run_log(&bytes).unwrap();
        assert_eq!(restored, run);
        // And re-serialization is byte-identical: the format is canonical.
        assert_eq!(write_run_log(&restored), bytes);
    }

    #[test]
    fn empty_run_round_trips() {
        let run = sample_run(0);
        let recovery = recover_run_log(&write_run_log(&run)).unwrap();
        assert!(recovery.is_clean());
        assert_eq!(recovery.run, run);
    }

    #[test]
    fn recovery_truncates_at_a_flipped_bit() {
        let run = sample_run(64);
        let mut bytes = write_run_log_with_frame(&run, 16);
        // Flip one record byte inside the third chunk frame.
        let target = bytes.len() - 200;
        bytes[target] ^= 0x40;
        let recovery = recover_run_log(&bytes).unwrap();
        assert!(!recovery.is_clean());
        assert!(recovery.chunk_frames < 4);
        assert_eq!(
            recovery.run.records,
            run.records[..recovery.run.records.len()],
            "recovered records are a clean prefix"
        );
        assert_eq!(
            recovery.run.missing_records(),
            Some(64 - recovery.run.records.len() as u64),
            "shortfall is exact"
        );
        assert!(read_run_log(&bytes).is_err(), "strict mode refuses damage");
    }

    /// A middle frame damaged three ways — torn length word, bad checksum,
    /// a record that will not decode under a valid checksum — truncates to
    /// the same clean prefix with the same reported shortfall.
    #[test]
    fn damage_in_a_middle_frame_truncates_to_the_same_prefix() {
        let run = sample_run(128);
        let bytes = write_run_log_with_frame(&run, 16);
        let mut starts = Vec::new();
        let mut at = next_frame(&bytes, SEGMENT_MAGIC.len()).unwrap().end;
        while let Some(frame) = next_frame(&bytes, at) {
            starts.push(at);
            at = frame.end;
        }
        assert_eq!(starts.len(), 8 + 1, "eight chunk frames and the seal");
        let damaged = starts[3];
        let torn = {
            let mut b = bytes.clone();
            b[damaged..damaged + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            b
        };
        let bad_crc = {
            let mut b = bytes.clone();
            b[damaged + 4] ^= 1;
            b
        };
        let undecodable = {
            let mut b = bytes.clone();
            let payload = damaged + 8;
            let len = u32::from_le_bytes(b[damaged..damaged + 4].try_into().unwrap()) as usize;
            b[payload + 9 + RECORD_WIRE_LEN + 24] = 9; // an unknown event tag
            let crc = wire::crc32(&b[payload..payload + len]);
            b[damaged + 4..damaged + 8].copy_from_slice(&crc.to_le_bytes());
            b
        };
        for (how, bytes) in [("torn", torn), ("bad crc", bad_crc), ("undecodable", undecodable)] {
            let recovery = recover_run_log(&bytes).unwrap();
            assert_eq!(recovery.chunk_frames, 3, "{how}");
            assert_eq!(recovery.run.records, run.records[..48], "{how}");
            assert_eq!(recovery.run.missing_records(), Some(128 - 48), "{how}");
            assert!(!recovery.sealed, "{how}");
            assert_eq!(recovery.truncated_bytes, (bytes.len() - damaged) as u64, "{how}");
        }
    }

    #[test]
    fn unsealed_segment_recovers_but_fails_strict_read() {
        let run = sample_run(32);
        let full = write_run_log_with_frame(&run, 8);
        // Drop the seal frame (1 + 8 + 9 payload + 8 framing = 26 bytes).
        let seal_len = 8 + 18;
        let bytes = &full[..full.len() - seal_len];
        let recovery = recover_run_log(bytes).unwrap();
        assert!(!recovery.sealed);
        assert_eq!(recovery.run.records, run.records);
        assert_eq!(recovery.run.expected_records, Some(32), "header expectation survives");
        assert!(read_run_log(bytes).is_err());
    }

    #[test]
    fn bad_magic_and_torn_header_fail_outright() {
        assert!(recover_run_log(b"").is_err());
        assert!(recover_run_log(b"NOTSEG!\n rest").is_err());
        let bytes = write_run_log(&sample_run(4));
        // Cut inside the header frame.
        assert!(recover_run_log(&bytes[..SEGMENT_MAGIC.len() + 6]).is_err());
        // Corrupt the header payload.
        let mut broken = bytes.clone();
        broken[SEGMENT_MAGIC.len() + 12] ^= 0xFF;
        assert!(recover_run_log(&broken).is_err());
    }

    #[test]
    fn frames_after_the_seal_are_discarded() {
        let run = sample_run(8);
        let mut bytes = write_run_log_with_frame(&run, 8);
        put_frame(&mut bytes, &encode_chunk(LogicalThreadId(9), &[rec(99)]));
        let recovery = recover_run_log(&bytes).unwrap();
        assert!(recovery.sealed);
        assert_eq!(recovery.run.records, run.records);
        assert!(recovery.truncated_bytes > 0);
        assert!(read_run_log(&bytes).is_err());
    }

    #[test]
    fn recovery_is_thread_count_invariant() {
        let run = sample_run(200);
        let mut bytes = write_run_log_with_frame(&run, 16);
        let target = bytes.len() - 500;
        bytes[target] ^= 1;
        let serial = recover_run_log_with_threads(&bytes, 1).unwrap();
        for threads in [2, 4, 7] {
            let parallel = recover_run_log_with_threads(&bytes, threads).unwrap();
            assert_eq!(parallel.run, serial.run);
            assert_eq!(parallel.truncated_bytes, serial.truncated_bytes);
            assert_eq!(parallel.chunk_frames, serial.chunk_frames);
        }
    }

    #[test]
    fn write_frame_refuses_payloads_the_reader_would_drop() {
        let payload = vec![0u8; MAX_FRAME_BYTES + 1];
        let err = write_frame(&mut Vec::new(), &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // At the bound itself the frame is still writable and readable.
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload[..MAX_FRAME_BYTES]).unwrap();
        assert!(next_frame(&buf, 0).is_some());
    }

    #[test]
    fn oversized_batches_split_into_multiple_recoverable_frames() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("segment_split_test_{}.cwseg", std::process::id()));
        let run = sample_run(10);
        {
            let mut writer =
                SegmentWriter::create(&path, &run.vocab, &run.deployment, Some(10)).unwrap();
            // A tiny per-frame cap stands in for MAX_CHUNK_RECORDS: one
            // append call, several frames, nothing dropped.
            writer
                .append_records_capped(run.records[0].site.thread, &run.records, 3)
                .unwrap();
            assert_eq!(writer.records_written(), 10);
            writer.finish(Some(10)).unwrap();
        }
        let recovery = recover_run_log(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(recovery.is_clean());
        assert_eq!(recovery.chunk_frames, 4, "10 records at 3 per frame");
        assert_eq!(recovery.run.records, run.records);
    }

    /// A record with every optional field present or absent independently
    /// (one `present` bit each), so the in-place encoder is compared on
    /// all 64 flag combinations.
    fn arbitrary_record() -> impl Strategy<Value = ProbeRecord> {
        let stamps = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>());
        let ids =
            (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u16>(), any::<u64>());
        let oneway = (any::<u128>(), any::<u128>(), any::<u64>());
        (any::<u128>(), any::<u64>(), 0usize..16, 0u8..64, stamps, ids, oneway).prop_map(
            |(uuid, seq, tags, present, stamps, ids, oneway)| {
                let opt = |bit: u8| present & (1 << bit) != 0;
                ProbeRecord {
                    uuid: Uuid(uuid),
                    seq,
                    event: TraceEvent::ALL[tags % 4],
                    kind: [
                        CallKind::Sync,
                        CallKind::Oneway,
                        CallKind::Collocated,
                        CallKind::CustomMarshal,
                    ][tags / 4],
                    site: CallSite {
                        node: NodeId(ids.0),
                        process: ProcessId(ids.1),
                        thread: LogicalThreadId(ids.2),
                    },
                    func: FunctionKey::new(InterfaceId(ids.3), MethodIndex(ids.4), ObjectId(ids.5)),
                    wall_start: opt(0).then_some(stamps.0),
                    wall_end: opt(1).then_some(stamps.1),
                    cpu_start: opt(2).then_some(stamps.2),
                    cpu_end: opt(3).then_some(stamps.3),
                    oneway_child: opt(4).then_some(Uuid(oneway.0)),
                    oneway_parent: opt(5).then_some((Uuid(oneway.1), oneway.2)),
                }
            },
        )
    }

    /// The frame `put_chunk_frame` must reproduce: the payload built on
    /// its own, then framed.
    fn reference_chunk_frame(thread: LogicalThreadId, records: &[ProbeRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_frame(&mut buf, &encode_chunk(thread, records));
        buf
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn in_place_chunk_frames_equal_the_framed_payload(
            pool in proptest::collection::vec(arbitrary_record(), 1..24),
            thread in any::<u32>(),
            prefix in proptest::collection::vec(any::<u8>(), 0..20),
        ) {
            let thread = LogicalThreadId(thread);
            for count in [0usize, 1, 255, 256] {
                let records: Vec<ProbeRecord> =
                    pool.iter().cycle().take(count).cloned().collect();
                // Appended after whatever the buffer already holds.
                let mut got = prefix.clone();
                put_chunk_frame(&mut got, thread, &records);
                let mut want = prefix.clone();
                want.extend(reference_chunk_frame(thread, &records));
                prop_assert!(got == want, "frames differ at {} records", count);
            }
        }
    }

    #[test]
    fn in_place_chunk_frame_equals_the_framed_payload_at_the_frame_bound() {
        let records: Vec<ProbeRecord> = (0..MAX_CHUNK_RECORDS as u64).map(rec).collect();
        let mut got = Vec::new();
        put_chunk_frame(&mut got, LogicalThreadId(3), &records);
        assert!(got == reference_chunk_frame(LogicalThreadId(3), &records));
        assert!(next_frame(&got, 0).is_some(), "the largest frame is still readable");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_BYTES")]
    fn in_place_chunk_frame_refuses_one_record_too_many() {
        let records = vec![rec(0); MAX_CHUNK_RECORDS + 1];
        put_chunk_frame(&mut Vec::new(), LogicalThreadId(0), &records);
    }

    #[test]
    fn writer_file_is_byte_identical_to_reference_frames() {
        let path = std::env::temp_dir()
            .join(format!("segment_identity_test_{}.cwseg", std::process::id()));
        let run = sample_run(700);
        // Chunk shapes a sink produces: a dispatch's few records, an empty
        // chunk, a full one, and a batch the writer must split (cap 3
        // stands in for MAX_CHUNK_RECORDS).
        let (few, rest) = run.records.split_at(2);
        let (full, rest) = rest.split_at(256);
        let (split, tail) = rest.split_at(10);
        let mut want = SEGMENT_MAGIC.to_vec();
        write_frame(&mut want, &encode_header(&run.vocab, &run.deployment, None)).unwrap();
        {
            let mut writer =
                SegmentWriter::create(&path, &run.vocab, &run.deployment, None).unwrap();
            for (thread, batch) in [(0, few), (1, &[][..]), (2, full), (4, tail)] {
                let thread = LogicalThreadId(thread);
                writer.append_chunk(&Chunk { thread, records: batch.to_vec() }).unwrap();
                write_frame(&mut want, &encode_chunk(thread, batch)).unwrap();
            }
            writer.append_records_capped(LogicalThreadId(3), split, 3).unwrap();
            for batch in split.chunks(3) {
                write_frame(&mut want, &encode_chunk(LogicalThreadId(3), batch)).unwrap();
            }
            assert_eq!(writer.records_written(), 700);
            writer.finish(Some(700)).unwrap();
            write_frame(&mut want, &encode_seal(700, Some(700))).unwrap();
        }
        let got = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(got == want, "writer bytes differ from the reference framing");
        let recovery = recover_run_log(&got).unwrap();
        assert!(recovery.is_clean());
        assert_eq!(recovery.chunk_frames, 4 + 4, "four appends plus 10 records at 3 per frame");
    }

    #[test]
    fn writer_streams_chunks_and_survives_a_missing_seal() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("segment_writer_test_{}.cwseg", std::process::id()));
        let run = sample_run(40);
        {
            let mut writer =
                SegmentWriter::create(&path, &run.vocab, &run.deployment, Some(40)).unwrap();
            for batch in run.records.chunks(16) {
                writer
                    .append_records(batch[0].site.thread, batch)
                    .unwrap();
            }
            assert_eq!(writer.records_written(), 40);
            // No finish(): simulate a crash before the seal.
        }
        let recovery = recover_run_log(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!recovery.sealed);
        assert_eq!(recovery.run.records, run.records);
        assert_eq!(recovery.run.expected_records, Some(40));
        assert_eq!(recovery.run.missing_records(), None, "nothing was lost");
    }
}
