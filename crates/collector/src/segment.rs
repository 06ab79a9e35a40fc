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
//! ## Frame primitives
//!
//! Every file built from frames — this segment and the analyzer's history
//! and exemplar spills — is a [`FrameLog`]: `magic`, then frames, on one
//! handle opened once. An append builds its frame in place in a buffer the
//! log reuses (the 8 header bytes reserved, the payload written after
//! them, length and checksum back-patched) and hands it to the OS in one
//! `write_all`; a failed append truncates the file back to the last intact
//! frame and keeps no bytes, so the file never holds a frame its owner
//! does not know about. Reads go through the same handle and verify the
//! checksum. [`FrameLog::open`] and [`recover_run_log`] share one scan:
//! hop over frame boundaries with [`next_frame`], check checksums and
//! decode payloads on [`pool`] workers, cut at the first failure.
//! Payloads are read with `core::wire`'s bounds-checked [`Cursor`] and
//! written with its `put_*` helpers, the codec marshalled values use too.
//! [`write_run_log`] frames a whole run the same way into one output
//! buffer.

use causeway_core::deploy::{Deployment, NodeInfo, ProcessInfo};
use causeway_core::ids::{CpuTypeId, InterfaceId, LogicalThreadId, NodeId, ObjectId, ProcessId};
use causeway_core::names::{ComponentId, InterfaceEntry, ObjectEntry, VocabSnapshot};
use causeway_core::pool;
use causeway_core::record::ProbeRecord;
use causeway_core::runlog::RunLog;
use causeway_core::sink::Chunk;
use causeway_core::wire::{self, put_str, put_u16, put_u32, put_u64, Cursor, RECORD_WIRE_LEN};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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

/// Panic message of a frame whose payload size its caller bounds.
const UNREADABLE: &str = "frame payload exceeds MAX_FRAME_BYTES and would be unreadable";

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

/// Appends one `[len][crc][payload]` frame to `buf`, its payload written in
/// place by `build`: the 8 header bytes are reserved first and back-patched
/// once the payload they describe is written, so the payload is never
/// copied. Returns the payload length.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`], and leaves `buf` as it was,
/// when the payload exceeds [`MAX_FRAME_BYTES`] — the reader treats such a
/// frame as torn, so writing it would silently discard it (and everything
/// after it) on recovery.
fn put_frame_with(buf: &mut Vec<u8>, build: impl FnOnce(&mut Vec<u8>)) -> io::Result<u32> {
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    build(buf);
    let len = buf.len() - start - 8;
    if len > MAX_FRAME_BYTES {
        buf.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte frame bound"),
        ));
    }
    let crc = wire::crc32(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(len as u32)
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

/// Where one intact frame sits in its file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef {
    /// Offset of the frame's length word.
    pub offset: u64,
    /// Payload length (the frame is 8 bytes longer).
    pub len: u32,
}

impl FrameRef {
    /// Offset of the first byte past this frame.
    pub fn end(self) -> u64 {
        self.offset + 8 + u64::from(self.len)
    }
}

/// The clean frame prefix of `bytes` from offset `start`, each frame with
/// its decoded payload. Frame boundaries are hopped serially with
/// [`next_frame`]; every frame's checksum and `decode` then run on
/// `threads` [`pool`] workers, and the prefix ends at the first frame that
/// is torn, fails its checksum or is rejected by `decode` — the same cut
/// at any thread count.
fn scan_frames<'a, T: Send>(
    bytes: &'a [u8],
    start: usize,
    threads: usize,
    decode: impl Fn(&'a [u8]) -> Option<T> + Sync,
) -> Vec<(FrameRef, T)> {
    let mut frames = Vec::new();
    let mut at = start;
    while let Some(frame) = next_frame(bytes, at) {
        at = frame.end;
        frames.push(frame);
    }
    let decoded = pool::par_map(&frames, threads, |frame| {
        (wire::crc32(frame.payload) == frame.crc).then(|| decode(frame.payload)).flatten()
    });
    frames
        .iter()
        .zip(decoded)
        .map_while(|(frame, value)| {
            let len = frame.payload.len();
            Some((FrameRef { offset: (frame.end - 8 - len) as u64, len: len as u32 }, value?))
        })
        .collect()
}

/// An append-only file of frames behind a magic: the segment a
/// [`SegmentWriter`] writes, and the analyzer's history and exemplar
/// spills. See the module doc's "Frame primitives".
#[derive(Debug)]
pub struct FrameLog {
    path: PathBuf,
    /// Opened once, readable and in append mode, so every write lands at
    /// the end whatever position the last read left.
    file: File,
    /// The frame being built; kept between appends so a steady stream of
    /// frames encodes into the same allocation. Cleared before each use.
    frame: Vec<u8>,
    /// Offset one past the last intact frame.
    end: u64,
}

impl FrameLog {
    fn handle(path: &Path) -> io::Result<File> {
        OpenOptions::new().read(true).append(true).create(true).open(path)
    }

    /// Empties `file` and writes `magic` as its only content.
    fn start(path: &Path, file: File, magic: &[u8]) -> io::Result<FrameLog> {
        file.set_len(0)?;
        (&file).write_all(magic)?;
        Ok(FrameLog { path: path.to_path_buf(), file, frame: Vec::new(), end: magic.len() as u64 })
    }

    /// Creates (truncating) a frame log holding only `magic`.
    ///
    /// # Errors
    ///
    /// Propagates file create/truncate/write failures.
    pub fn create(path: impl AsRef<Path>, magic: &[u8]) -> io::Result<FrameLog> {
        let path = path.as_ref();
        FrameLog::start(path, FrameLog::handle(path)?, magic)
    }

    /// Opens a frame log, or creates one, returning it with each intact
    /// frame's place and decoded payload, in file order.
    ///
    /// An existing file is scanned as [`recover_run_log`] scans a segment
    /// (on [`pool::configured_threads`] workers): the scan stops at the
    /// first frame that is torn, fails its checksum or is rejected by
    /// `decode`, the file is truncated there, and appends continue after
    /// the last intact frame. A missing or empty file, or one holding only
    /// part of `magic` (an interrupted create), is created afresh.
    ///
    /// # Errors
    ///
    /// Refuses (`InvalidData`) a file holding any other data — a mistyped
    /// path must not destroy an unrelated file. Otherwise propagates file
    /// open/read/truncate failures.
    pub fn open<T: Send>(
        path: impl AsRef<Path>,
        magic: &[u8],
        decode: impl Fn(&[u8]) -> Option<T> + Sync,
    ) -> io::Result<(FrameLog, Vec<(FrameRef, T)>)> {
        let path = path.as_ref();
        let mut file = FrameLog::handle(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
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
            return Ok((FrameLog::start(path, file, magic)?, Vec::new()));
        }
        let frames = scan_frames(&bytes, magic.len(), pool::configured_threads(), decode);
        let end = frames.last().map_or(magic.len() as u64, |(at, _)| at.end());
        file.set_len(end)?; // drop the torn tail, if any
        Ok((FrameLog { path: path.to_path_buf(), file, frame: Vec::new(), end }, frames))
    }

    /// Appends one frame whose payload `build` writes in place, handed to
    /// the OS in a single `write_all` before returning; returns where the
    /// frame sits.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput`, writing nothing, when the payload exceeds
    /// [`MAX_FRAME_BYTES`]. A failed write truncates the file back to the
    /// last intact frame: the log's end does not move and no byte of the
    /// frame is kept for a later append.
    pub fn append(&mut self, build: impl FnOnce(&mut Vec<u8>)) -> io::Result<FrameRef> {
        self.frame.clear();
        let len = put_frame_with(&mut self.frame, build)?;
        if let Err(e) = (&self.file).write_all(&self.frame) {
            // A partial write must not stay behind as a torn frame that
            // later appends would bury mid-file.
            self.file.set_len(self.end).ok();
            return Err(e);
        }
        let at = FrameRef { offset: self.end, len };
        self.end = at.end();
        Ok(at)
    }

    /// The checksum-verified payload of the frame at `at`, read through
    /// the log's own handle; `None` when it no longer reads back intact.
    /// Reads move the handle's shared cursor, so concurrent readers must be
    /// serialized by the log's owner (appends are unaffected: they always
    /// land at the end).
    pub fn read(&self, at: FrameRef) -> Option<Vec<u8>> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(at.offset)).ok()?;
        let mut buf = vec![0; 8 + at.len as usize];
        file.read_exact(&mut buf).ok()?;
        let frame = next_frame(&buf, 0)?;
        if frame.end != buf.len() || wire::crc32(frame.payload) != frame.crc {
            return None;
        }
        buf.drain(..8);
        Some(buf)
    }

    /// Offset one past the last intact frame: the file's length, magic
    /// included.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Syncs the file to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

/// A presence byte (0 or 1) and a `u64` slot, as `put_opt_u64` writes.
fn opt_u64(r: &mut Cursor<'_>) -> Option<Option<u64>> {
    let present = r.u8()?;
    let value = r.u64()?;
    match present {
        0 => Some(None),
        1 => Some(Some(value)),
        _ => None,
    }
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    buf.push(v.is_some() as u8);
    put_u64(buf, v.unwrap_or(0));
}

fn put_header(
    buf: &mut Vec<u8>,
    vocab: &VocabSnapshot,
    deployment: &Deployment,
    expected_records: Option<u64>,
) {
    buf.push(KIND_HEADER);
    put_u16(buf, HEADER_VERSION);
    put_opt_u64(buf, expected_records);
    put_u32(buf, vocab.interfaces.len() as u32);
    for iface in &vocab.interfaces {
        put_str(buf, &iface.name);
        put_u32(buf, iface.methods.len() as u32);
        for method in &iface.methods {
            put_str(buf, method);
        }
    }
    put_u32(buf, vocab.components.len() as u32);
    for c in &vocab.components {
        put_str(buf, c);
    }
    put_u32(buf, vocab.cpu_types.len() as u32);
    for c in &vocab.cpu_types {
        put_str(buf, c);
    }
    put_u32(buf, vocab.objects.len() as u32);
    for (id, entry) in &vocab.objects {
        put_u64(buf, id.0);
        put_str(buf, &entry.label);
        put_u32(buf, entry.interface.0);
        put_u32(buf, entry.component.0);
        put_u16(buf, entry.process.0);
    }
    put_u32(buf, deployment.nodes.len() as u32);
    for node in &deployment.nodes {
        put_str(buf, &node.name);
        put_u16(buf, node.cpu_type.0);
    }
    put_u32(buf, deployment.processes.len() as u32);
    for process in &deployment.processes {
        put_str(buf, &process.name);
        put_u16(buf, process.node.0);
    }
}

struct Header {
    vocab: VocabSnapshot,
    deployment: Deployment,
    expected_records: Option<u64>,
}

fn decode_header(payload: &[u8]) -> Result<Header, SegmentError> {
    let mut r = Cursor::new(payload);
    if r.u8() != Some(KIND_HEADER) {
        return Err(corrupt("first frame is not a header"));
    }
    match r.u16() {
        Some(HEADER_VERSION) => {}
        Some(version) => return Err(corrupt(format!("unsupported segment version {version}"))),
        None => return Err(corrupt("malformed header frame")),
    }
    header_tables(&mut r)
        .filter(|_| r.is_done())
        .ok_or_else(|| corrupt("malformed header frame"))
}

/// The header's expectation and dimension tables, after kind and version.
fn header_tables(r: &mut Cursor<'_>) -> Option<Header> {
    let expected_records = opt_u64(r)?;
    let mut vocab = VocabSnapshot::default();
    for _ in 0..r.u32()? {
        let name = r.str()?.to_owned();
        let mut methods = Vec::new();
        for _ in 0..r.u32()? {
            methods.push(r.str()?.to_owned());
        }
        vocab.interfaces.push(InterfaceEntry { name, methods });
    }
    for _ in 0..r.u32()? {
        vocab.components.push(r.str()?.to_owned());
    }
    for _ in 0..r.u32()? {
        vocab.cpu_types.push(r.str()?.to_owned());
    }
    for _ in 0..r.u32()? {
        let id = ObjectId(r.u64()?);
        let label = r.str()?.to_owned();
        let interface = InterfaceId(r.u32()?);
        let component = ComponentId(r.u32()?);
        let process = ProcessId(r.u16()?);
        vocab.objects.push((id, ObjectEntry { label, interface, component, process }));
    }
    let mut deployment = Deployment::new();
    for _ in 0..r.u32()? {
        let name = r.str()?.to_owned();
        let cpu_type = CpuTypeId(r.u16()?);
        deployment.nodes.push(NodeInfo { name, cpu_type });
    }
    for _ in 0..r.u32()? {
        let name = r.str()?.to_owned();
        let node = NodeId(r.u16()?);
        deployment.processes.push(ProcessInfo { name, node });
    }
    Some(Header { vocab, deployment, expected_records })
}

/// Writes one chunk payload, encoding the records straight into `buf`.
fn put_chunk(buf: &mut Vec<u8>, thread: LogicalThreadId, records: &[ProbeRecord]) {
    buf.reserve(9 + records.len() * RECORD_WIRE_LEN);
    buf.push(KIND_CHUNK);
    put_u32(buf, thread.0);
    put_u32(buf, records.len() as u32);
    for record in records {
        wire::encode_record(record, buf);
    }
}

/// Appends one whole chunk frame — `[len][crc]` and the chunk payload —
/// to `buf`, encoding the records straight into place, so no record is
/// copied after it is encoded.
///
/// # Panics
///
/// Panics when the payload would exceed [`MAX_FRAME_BYTES`]; callers
/// split batches at [`MAX_CHUNK_RECORDS`].
fn put_chunk_frame(buf: &mut Vec<u8>, thread: LogicalThreadId, records: &[ProbeRecord]) {
    put_frame_with(buf, |b| put_chunk(b, thread, records)).expect(UNREADABLE);
}

fn put_seal(buf: &mut Vec<u8>, records: u64, expected_records: Option<u64>) {
    buf.push(KIND_SEAL);
    put_u64(buf, records);
    put_opt_u64(buf, expected_records);
}

/// Body of one verified non-header frame.
enum FrameBody<'a> {
    /// A chunk frame's records, still encoded.
    Chunk(&'a [u8]),
    Seal { records: u64, expected: Option<u64> },
}

/// Parses a non-header frame's payload; `None` for a malformed chunk or
/// seal, a repeated header, or an unknown kind.
fn frame_body(payload: &[u8]) -> Option<FrameBody<'_>> {
    let mut r = Cursor::new(payload);
    let body = match r.u8()? {
        KIND_CHUNK => {
            let _thread = r.u32()?;
            let count = r.u32()? as usize;
            FrameBody::Chunk(r.take(count.checked_mul(RECORD_WIRE_LEN)?)?)
        }
        KIND_SEAL => FrameBody::Seal { records: r.u64()?, expected: opt_u64(&mut r)? },
        _ => return None,
    };
    r.is_done().then_some(body)
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Streams a run's sealed chunks to an append-only segment file.
///
/// The header frame is written on creation, so even a process killed
/// immediately afterwards leaves a recoverable — if empty — segment
/// behind. Every appended chunk is encoded in place into the frame buffer
/// of the writer's [`FrameLog`] — length and checksum back-patched in
/// front of the records — and handed to the OS with a single unbuffered
/// `write_all` before `append_chunk` returns: a crash loses only chunks
/// the sink had not yet sealed, never bytes buffered inside this writer,
/// and a frame is never split across writes.
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
    log: FrameLog,
    records_written: u64,
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
        let mut log = FrameLog::create(path, SEGMENT_MAGIC)?;
        log.append(|buf| put_header(buf, vocab, deployment, expected_records))?;
        Ok(SegmentWriter { log, records_written: 0 })
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
            self.log.append(|buf| put_chunk(buf, thread, batch))?;
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
        self.log.append(|buf| put_seal(buf, self.records_written, expected_records))?;
        self.log.sync()
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
///
/// # Panics
///
/// Panics when the header's tables alone exceed [`MAX_FRAME_BYTES`].
pub fn write_run_log_with_frame(run: &RunLog, records_per_frame: usize) -> Vec<u8> {
    let records_per_frame = records_per_frame.clamp(1, MAX_CHUNK_RECORDS);
    let mut buf = Vec::with_capacity(
        16 + run.records.len() * (RECORD_WIRE_LEN + 2) + 1024,
    );
    buf.extend_from_slice(SEGMENT_MAGIC);
    put_frame_with(&mut buf, |b| put_header(b, &run.vocab, &run.deployment, run.expected_records))
        .expect(UNREADABLE);
    for batch in run.records.chunks(records_per_frame) {
        let thread = batch.first().map(|r| r.site.thread).unwrap_or(LogicalThreadId(0));
        put_chunk_frame(&mut buf, thread, batch);
    }
    put_frame_with(&mut buf, |b| put_seal(b, run.records.len() as u64, run.expected_records))
        .expect(UNREADABLE);
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
    if !bytes.starts_with(SEGMENT_MAGIC) {
        return Err(corrupt("missing segment magic"));
    }
    let header_frame = next_frame(bytes, SEGMENT_MAGIC.len())
        .ok_or_else(|| corrupt("header frame torn"))?;
    if wire::crc32(header_frame.payload) != header_frame.crc {
        return Err(corrupt("header frame checksum mismatch"));
    }
    let header = decode_header(header_frame.payload)?;

    // The chunk frames of the clean prefix, each with the end offset of
    // its frame. The scan has cut at the first torn, bad-checksum or
    // malformed frame; the seal rules cut here.
    let mut chunks: Vec<(&[u8], u64)> = Vec::new();
    let mut rows = 0usize;
    let mut seal = None;
    for (at, body) in scan_frames(bytes, header_frame.end, threads, frame_body) {
        match body {
            // A chunk after the seal means the writer was violated; the
            // seal stays authoritative and the rest is discarded.
            FrameBody::Chunk(records) if seal.is_none() => {
                chunks.push((records, at.end()));
                rows += records.len() / RECORD_WIRE_LEN;
            }
            FrameBody::Seal { records, expected } if seal.is_none() => {
                if records != rows as u64 {
                    // The seal disagrees with what precedes it: trust the
                    // verified chunks, drop the seal.
                    break;
                }
                seal = Some((expected, at.end()));
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
        (None, None) => header_frame.end as u64,
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
        truncated_bytes: bytes.len() as u64 - good_end,
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

    /// Appends one frame around an already-built payload: the reference
    /// framing the in-place writers are compared to.
    fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
        put_frame_with(buf, |b| b.extend_from_slice(payload)).expect(UNREADABLE);
    }

    fn encode_header(
        vocab: &VocabSnapshot,
        deployment: &Deployment,
        expected_records: Option<u64>,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        put_header(&mut buf, vocab, deployment, expected_records);
        buf
    }

    /// The chunk payload built on its own.
    fn encode_chunk(thread: LogicalThreadId, records: &[ProbeRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_chunk(&mut buf, thread, records);
        buf
    }

    fn encode_seal(records: u64, expected_records: Option<u64>) -> Vec<u8> {
        let mut buf = Vec::new();
        put_seal(&mut buf, records, expected_records);
        buf
    }

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

    /// A unique temp path that cleans itself up when the test ends.
    struct TempLog(std::path::PathBuf);

    impl TempLog {
        fn new(tag: &str) -> TempLog {
            TempLog(std::env::temp_dir().join(format!(
                "causeway_frame_log_{tag}_{}.cwlog",
                std::process::id()
            )))
        }
    }

    impl Drop for TempLog {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    const LOG_MAGIC: &[u8; 8] = b"CWTEST1\n";

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn frame_log_append_refuses_payloads_the_reader_would_drop() {
        let tmp = TempLog::new("oversize");
        let mut log = FrameLog::create(&tmp.0, LOG_MAGIC).unwrap();
        let payload = vec![7u8; MAX_FRAME_BYTES + 1];
        let err = log.append(|buf| buf.extend_from_slice(&payload)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(log.end(), LOG_MAGIC.len() as u64, "nothing appended");
        assert_eq!(file_len(&tmp.0), log.end(), "nothing written");
        // At the bound itself the frame is still writable and readable.
        let at = log.append(|buf| buf.extend_from_slice(&payload[..MAX_FRAME_BYTES])).unwrap();
        assert_eq!(at, FrameRef { offset: LOG_MAGIC.len() as u64, len: MAX_FRAME_BYTES as u32 });
        assert!(log.read(at).unwrap() == payload[..MAX_FRAME_BYTES]);
    }

    /// A failed append leaves no trace: the file keeps its length, the
    /// log its end, and the appends after it land where a reader and a
    /// reopen expect them.
    #[test]
    fn failed_frame_log_append_leaves_no_trace() {
        let tmp = TempLog::new("failed_append");
        let mut log = FrameLog::create(&tmp.0, LOG_MAGIC).unwrap();
        let first = log.append(|buf| buf.extend_from_slice(b"first")).unwrap();
        let end = log.end();
        // A handle that cannot write stands in for a full or failing disk.
        log.file = File::open(&tmp.0).unwrap();
        assert!(log.append(|buf| buf.extend_from_slice(b"lost window")).is_err());
        assert_eq!(log.end(), end);
        assert_eq!(file_len(&tmp.0), end);
        log.file = OpenOptions::new().read(true).append(true).open(&tmp.0).unwrap();
        let second = log.append(|buf| buf.extend_from_slice(b"second")).unwrap();
        let third = log.append(|buf| buf.extend_from_slice(b"the third")).unwrap();
        assert_eq!(second.offset, end, "no stale bytes ahead of the next frame");
        for (at, want) in [(first, &b"first"[..]), (second, b"second"), (third, b"the third")] {
            assert_eq!(log.read(at).as_deref(), Some(want));
        }
        drop(log);
        let (log, frames) = FrameLog::open(&tmp.0, LOG_MAGIC, |p| Some(p.to_vec())).unwrap();
        assert_eq!(
            frames,
            vec![
                (first, b"first".to_vec()),
                (second, b"second".to_vec()),
                (third, b"the third".to_vec())
            ]
        );
        assert_eq!(log.end(), third.end());
    }

    /// Reopen keeps the frames before the first one `decode` rejects, cuts
    /// the file there, and appends after them; a file holding part of the
    /// magic is created afresh.
    #[test]
    fn frame_log_open_cuts_at_the_first_rejected_frame() {
        let tmp = TempLog::new("reject");
        let mut log = FrameLog::create(&tmp.0, LOG_MAGIC).unwrap();
        for payload in [&b"keep 1"[..], b"keep 2", b"drop 3", b"keep 4"] {
            log.append(|buf| buf.extend_from_slice(payload)).unwrap();
        }
        drop(log);
        let keep = |p: &[u8]| p.starts_with(b"keep").then(|| p.to_vec());
        let (mut log, frames) = FrameLog::open(&tmp.0, LOG_MAGIC, keep).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(file_len(&tmp.0), frames[1].0.end(), "cut after the second frame");
        let at = log.append(|buf| buf.extend_from_slice(b"keep 5")).unwrap();
        assert_eq!(log.read(at).as_deref(), Some(&b"keep 5"[..]));
        drop(log);
        std::fs::write(&tmp.0, &LOG_MAGIC[..3]).unwrap();
        let (log, frames) = FrameLog::open(&tmp.0, LOG_MAGIC, keep).unwrap();
        assert!(frames.is_empty());
        assert_eq!(std::fs::read(&tmp.0).unwrap(), LOG_MAGIC);
        assert_eq!(log.end(), LOG_MAGIC.len() as u64);
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
        put_frame(&mut want, &encode_header(&run.vocab, &run.deployment, None));
        {
            let mut writer =
                SegmentWriter::create(&path, &run.vocab, &run.deployment, None).unwrap();
            for (thread, batch) in [(0, few), (1, &[][..]), (2, full), (4, tail)] {
                let thread = LogicalThreadId(thread);
                writer.append_chunk(&Chunk { thread, records: batch.to_vec() }).unwrap();
                put_frame(&mut want, &encode_chunk(thread, batch));
            }
            writer.append_records_capped(LogicalThreadId(3), split, 3).unwrap();
            for batch in split.chunks(3) {
                put_frame(&mut want, &encode_chunk(LogicalThreadId(3), batch));
            }
            assert_eq!(writer.records_written(), 700);
            writer.finish(Some(700)).unwrap();
            put_frame(&mut want, &encode_seal(700, Some(700)));
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
