//! Marshalling: a compact CDR-like binary encoding for [`Value`]s and the
//! hidden FTL parameter, the fixed-width probe-record codec, and the frame
//! checksum.
//!
//! One little-endian codec serves every byte format in the workspace:
//! [`Cursor`] reads and the `put_*` helpers write both marshalled values
//! and the payloads of every frame file (segments, history and exemplar
//! spills). Payloads are plain `Vec<u8>`s: the FTL is appended and split
//! off in place.
//!
//! The instrumented stub appends the 24-byte FTL to every request buffer and
//! the instrumented skeleton splits it back off — the byte-level equivalent
//! of the IDL compiler's internal translation in Figure 3, where every
//! method signature silently gains an `inout Probe::FunctionTxLogType log`
//! parameter.

use crate::error::CoreError;
use crate::event::{CallKind, TraceEvent};
use crate::ftl::{FTL_WIRE_LEN, FunctionTxLog};
use crate::ids::{InterfaceId, LogicalThreadId, MethodIndex, NodeId, ObjectId, ProcessId};
use crate::record::{CallSite, FunctionKey, ProbeRecord};
use crate::uuid::Uuid;
use crate::value::Value;

const TAG_VOID: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_I32: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BLOB: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_STRUCT: u8 = 8;

/// Maximum marshalled collection length accepted by the decoder — a sanity
/// bound against corrupted buffers.
const MAX_LEN: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Little-endian codec: one bounds-checked reader and the `put_*` writers,
// shared by the value codec below and every frame payload
// (`collector::segment`, the history and exemplar spills).
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader: every accessor returns `None` past
/// the end, so a short or malformed buffer decodes to `None`, never a
/// panic.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.bytes.len())?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        self.array().map(u128::from_le_bytes)
    }

    /// A `u32`-length-prefixed UTF-8 string, as [`put_str`] writes it.
    pub fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` once every byte has been read.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u128`.
pub fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` length and the string's UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_blob(buf, s.as_bytes());
}

fn put_blob(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

// ---------------------------------------------------------------------------
// Value and argument codec.
// ---------------------------------------------------------------------------

/// Encodes one value into `buf`.
pub fn encode_value(value: &Value, buf: &mut Vec<u8>) {
    match value {
        Value::Void => buf.push(TAG_VOID),
        Value::Bool(b) => buf.extend_from_slice(&[TAG_BOOL, *b as u8]),
        Value::I32(v) => {
            buf.push(TAG_I32);
            put_u32(buf, *v as u32);
        }
        Value::I64(v) => {
            buf.push(TAG_I64);
            put_u64(buf, *v as u64);
        }
        Value::F64(v) => {
            buf.push(TAG_F64);
            put_u64(buf, v.to_bits());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_str(buf, s);
        }
        Value::Blob(b) => {
            buf.push(TAG_BLOB);
            put_blob(buf, b);
        }
        Value::Seq(items) => {
            buf.push(TAG_SEQ);
            put_u32(buf, items.len() as u32);
            for item in items {
                encode_value(item, buf);
            }
        }
        Value::Struct(fields) => {
            buf.push(TAG_STRUCT);
            put_u32(buf, fields.len() as u32);
            for (name, v) in fields {
                put_str(buf, name);
                encode_value(v, buf);
            }
        }
    }
}

fn truncated() -> CoreError {
    CoreError::WireDecode("truncated buffer".into())
}

/// A `u32` collection length, checked against the sanity bound.
fn get_len(r: &mut Cursor<'_>) -> Result<usize, CoreError> {
    let len = r.u32().ok_or_else(truncated)? as usize;
    if len > MAX_LEN {
        return Err(CoreError::WireDecode(format!("length {len} exceeds sanity bound")));
    }
    Ok(len)
}

fn get_string(r: &mut Cursor<'_>, what: &str) -> Result<String, CoreError> {
    let len = get_len(r)?;
    let bytes = r.take(len).ok_or_else(truncated)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| CoreError::WireDecode(format!("invalid utf-8 in {what}")))
}

/// Decodes one value from `r`.
///
/// # Errors
///
/// Returns [`CoreError::WireDecode`] when the buffer is truncated, a tag is
/// unknown, a string is not UTF-8, or a length exceeds the sanity bound.
pub fn decode_value(r: &mut Cursor<'_>) -> Result<Value, CoreError> {
    let tag = r.u8().ok_or_else(|| CoreError::WireDecode("empty buffer".into()))?;
    match tag {
        TAG_VOID => Ok(Value::Void),
        TAG_BOOL => Ok(Value::Bool(r.u8().ok_or_else(truncated)? != 0)),
        TAG_I32 => Ok(Value::I32(r.u32().ok_or_else(truncated)? as i32)),
        TAG_I64 => Ok(Value::I64(r.u64().ok_or_else(truncated)? as i64)),
        TAG_F64 => Ok(Value::F64(f64::from_bits(r.u64().ok_or_else(truncated)?))),
        TAG_STR => get_string(r, "string").map(Value::Str),
        TAG_BLOB => {
            let len = get_len(r)?;
            Ok(Value::Blob(r.take(len).ok_or_else(truncated)?.to_vec()))
        }
        TAG_SEQ => {
            let len = get_len(r)?;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(decode_value(r)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_STRUCT => {
            let len = get_len(r)?;
            let mut fields = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                let name = get_string(r, "field name")?;
                fields.push((name, decode_value(r)?));
            }
            Ok(Value::Struct(fields))
        }
        other => Err(CoreError::WireDecode(format!("unknown tag {other}"))),
    }
}

/// Marshals an argument list (in declaration order).
pub fn encode_args(args: &[Value]) -> Vec<u8> {
    encode_args_with_ftls(args, &[])
}

/// Marshals an argument list followed by hidden FTL parameters, in order —
/// what an instrumented stub sends (a one-way request carries the child
/// FTL, then the parent marker) and an instrumented skeleton replies. The
/// bytes equal [`encode_args`] with each FTL [`append_ftl`]ed, but are
/// written into one buffer instead of grown once per FTL.
pub fn encode_args_with_ftls(args: &[Value], ftls: &[FunctionTxLog]) -> Vec<u8> {
    let size = args.iter().map(Value::wire_size_hint).sum::<usize>() + 8;
    let mut buf = Vec::with_capacity(size + ftls.len() * FTL_WIRE_LEN);
    put_u32(&mut buf, args.len() as u32);
    for arg in args {
        encode_value(arg, &mut buf);
    }
    for ftl in ftls {
        buf.extend_from_slice(&ftl.to_wire());
    }
    buf
}

/// Unmarshals an argument list.
///
/// # Errors
///
/// Returns [`CoreError::WireDecode`] on malformed input.
pub fn decode_args(bytes: &[u8]) -> Result<Vec<Value>, CoreError> {
    let mut r = Cursor::new(bytes);
    let len = get_len(&mut r)?;
    let mut args = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        args.push(decode_value(&mut r)?);
    }
    if !r.is_done() {
        return Err(CoreError::WireDecode(format!(
            "{} trailing bytes after argument list",
            r.remaining()
        )));
    }
    Ok(args)
}

/// Appends the hidden FTL parameter to a marshalled payload, in place —
/// what the instrumented stub does just before sending.
pub fn append_ftl(mut payload: Vec<u8>, ftl: FunctionTxLog) -> Vec<u8> {
    payload.extend_from_slice(&ftl.to_wire());
    payload
}

/// Splits the hidden FTL parameter back off a marshalled payload, in
/// place — what the instrumented skeleton does on receipt. Returns the
/// bare payload and the FTL.
///
/// # Errors
///
/// Returns [`CoreError::WireDecode`] when the buffer is shorter than an FTL.
pub fn split_ftl(mut payload: Vec<u8>) -> Result<(Vec<u8>, FunctionTxLog), CoreError> {
    let at = payload
        .len()
        .checked_sub(FTL_WIRE_LEN)
        .ok_or_else(|| CoreError::WireDecode("payload shorter than FTL".into()))?;
    let ftl = FunctionTxLog::from_wire(&payload[at..])
        .ok_or_else(|| CoreError::WireDecode("malformed FTL".into()))?;
    payload.truncate(at);
    Ok((payload, ftl))
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — the frame checksum used by durable log segments.
// Hand-rolled tables so the storage spine adds no dependency.
//
// Slicing-by-8: table k maps a byte to its CRC contribution after k further
// zero bytes, so eight input bytes fold into the running value with eight
// independent lookups instead of eight dependent ones. Same polynomial and
// the same values as the one-step-per-byte loop it replaced (the tests keep
// a bit-at-a-time reference), so every frame ever written still verifies.
// ---------------------------------------------------------------------------

const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
///
/// Used as the per-frame checksum in `causeway-collector`'s durable log
/// segments; exposed here because the record codec and the frame format
/// belong to the same wire layer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Fixed-width ProbeRecord codec.
//
// Every record occupies exactly RECORD_WIRE_LEN bytes: absent optional
// fields are written as zeros and masked off by the flags byte. Fixed width
// is what makes segment ingest shardable — a chunk payload splits into
// records by pure arithmetic, no per-line scanning and no serde.
// ---------------------------------------------------------------------------

/// Exact encoded size of one [`ProbeRecord`] in the binary log format.
pub const RECORD_WIRE_LEN: usize = 121;

const FLAG_WALL_START: u8 = 1 << 0;
const FLAG_WALL_END: u8 = 1 << 1;
const FLAG_CPU_START: u8 = 1 << 2;
const FLAG_CPU_END: u8 = 1 << 3;
const FLAG_ONEWAY_CHILD: u8 = 1 << 4;
const FLAG_ONEWAY_PARENT: u8 = 1 << 5;
const FLAG_KNOWN: u8 = FLAG_WALL_START
    | FLAG_WALL_END
    | FLAG_CPU_START
    | FLAG_CPU_END
    | FLAG_ONEWAY_CHILD
    | FLAG_ONEWAY_PARENT;

fn event_tag(event: TraceEvent) -> u8 {
    match event {
        TraceEvent::StubStart => 0,
        TraceEvent::SkelStart => 1,
        TraceEvent::SkelEnd => 2,
        TraceEvent::StubEnd => 3,
    }
}

/// Appends one record's fixed-width encoding to `buf`.
///
/// The record is laid out in a stack array at constant offsets (the same
/// ones [`decode_record`] reads) and appended with one copy, so the output
/// vector is length-checked once per record rather than once per field.
pub fn encode_record(r: &ProbeRecord, buf: &mut Vec<u8>) {
    let mut flags = 0u8;
    if r.wall_start.is_some() {
        flags |= FLAG_WALL_START;
    }
    if r.wall_end.is_some() {
        flags |= FLAG_WALL_END;
    }
    if r.cpu_start.is_some() {
        flags |= FLAG_CPU_START;
    }
    if r.cpu_end.is_some() {
        flags |= FLAG_CPU_END;
    }
    if r.oneway_child.is_some() {
        flags |= FLAG_ONEWAY_CHILD;
    }
    if r.oneway_parent.is_some() {
        flags |= FLAG_ONEWAY_PARENT;
    }
    let (parent_uuid, parent_seq) = r.oneway_parent.map(|(u, s)| (u.0, s)).unwrap_or((0, 0));
    let mut out = [0u8; RECORD_WIRE_LEN];
    out[0..16].copy_from_slice(&r.uuid.0.to_le_bytes());
    out[16..24].copy_from_slice(&r.seq.to_le_bytes());
    out[24] = event_tag(r.event);
    out[25] = r.kind.tag();
    out[26] = flags;
    out[27..29].copy_from_slice(&r.site.node.0.to_le_bytes());
    out[29..31].copy_from_slice(&r.site.process.0.to_le_bytes());
    out[31..35].copy_from_slice(&r.site.thread.0.to_le_bytes());
    out[35..39].copy_from_slice(&r.func.interface.0.to_le_bytes());
    out[39..41].copy_from_slice(&r.func.method.0.to_le_bytes());
    out[41..49].copy_from_slice(&r.func.object.0.to_le_bytes());
    out[49..57].copy_from_slice(&r.wall_start.unwrap_or(0).to_le_bytes());
    out[57..65].copy_from_slice(&r.wall_end.unwrap_or(0).to_le_bytes());
    out[65..73].copy_from_slice(&r.cpu_start.unwrap_or(0).to_le_bytes());
    out[73..81].copy_from_slice(&r.cpu_end.unwrap_or(0).to_le_bytes());
    out[81..97].copy_from_slice(&r.oneway_child.map(|u| u.0).unwrap_or(0).to_le_bytes());
    out[97..113].copy_from_slice(&parent_uuid.to_le_bytes());
    out[113..121].copy_from_slice(&parent_seq.to_le_bytes());
    buf.extend_from_slice(&out);
}

#[inline]
fn rd<const N: usize>(bytes: &[u8], off: usize) -> [u8; N] {
    // Callers pre-check `bytes.len() >= RECORD_WIRE_LEN`, so the slice op
    // cannot fail.
    bytes[off..off + N].try_into().expect("bounds pre-checked")
}

/// Decodes one record from the first [`RECORD_WIRE_LEN`] bytes of `bytes`.
///
/// # Errors
///
/// Returns [`CoreError::WireDecode`] when the slice is short or an
/// event/kind/flags tag is out of range — corrupted frames must surface as
/// errors, never as plausible-looking records.
pub fn decode_record(bytes: &[u8]) -> Result<ProbeRecord, CoreError> {
    if bytes.len() < RECORD_WIRE_LEN {
        return Err(CoreError::WireDecode(format!(
            "truncated record: need {RECORD_WIRE_LEN} bytes, have {}",
            bytes.len()
        )));
    }
    let event = match bytes[24] {
        0 => TraceEvent::StubStart,
        1 => TraceEvent::SkelStart,
        2 => TraceEvent::SkelEnd,
        3 => TraceEvent::StubEnd,
        other => return Err(CoreError::WireDecode(format!("unknown event tag {other}"))),
    };
    let kind = CallKind::from_tag(bytes[25]).ok_or_else(|| {
        CoreError::WireDecode(format!("unknown kind tag {}", bytes[25]))
    })?;
    let flags = bytes[26];
    if flags & !FLAG_KNOWN != 0 {
        return Err(CoreError::WireDecode(format!("unknown record flags {flags:#04x}")));
    }
    let opt = |flag: u8, value: u64| (flags & flag != 0).then_some(value);
    Ok(ProbeRecord {
        uuid: Uuid(u128::from_le_bytes(rd::<16>(bytes, 0))),
        seq: u64::from_le_bytes(rd::<8>(bytes, 16)),
        event,
        kind,
        site: CallSite {
            node: NodeId(u16::from_le_bytes(rd::<2>(bytes, 27))),
            process: ProcessId(u16::from_le_bytes(rd::<2>(bytes, 29))),
            thread: LogicalThreadId(u32::from_le_bytes(rd::<4>(bytes, 31))),
        },
        func: FunctionKey {
            interface: InterfaceId(u32::from_le_bytes(rd::<4>(bytes, 35))),
            method: MethodIndex(u16::from_le_bytes(rd::<2>(bytes, 39))),
            object: ObjectId(u64::from_le_bytes(rd::<8>(bytes, 41))),
        },
        wall_start: opt(FLAG_WALL_START, u64::from_le_bytes(rd::<8>(bytes, 49))),
        wall_end: opt(FLAG_WALL_END, u64::from_le_bytes(rd::<8>(bytes, 57))),
        cpu_start: opt(FLAG_CPU_START, u64::from_le_bytes(rd::<8>(bytes, 65))),
        cpu_end: opt(FLAG_CPU_END, u64::from_le_bytes(rd::<8>(bytes, 73))),
        oneway_child: (flags & FLAG_ONEWAY_CHILD != 0)
            .then(|| Uuid(u128::from_le_bytes(rd::<16>(bytes, 81)))),
        oneway_parent: (flags & FLAG_ONEWAY_PARENT != 0).then(|| {
            (
                Uuid(u128::from_le_bytes(rd::<16>(bytes, 97))),
                u64::from_le_bytes(rd::<8>(bytes, 113)),
            )
        }),
    })
}

/// Encodes a batch of records back-to-back (fixed stride, no separators).
pub fn encode_records(records: &[ProbeRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records.len() * RECORD_WIRE_LEN);
    for r in records {
        encode_record(r, &mut buf);
    }
    buf
}

/// Decodes a back-to-back batch of records.
///
/// # Errors
///
/// Returns [`CoreError::WireDecode`] when `bytes` is not a whole number of
/// records or any record fails to decode.
pub fn decode_records(bytes: &[u8]) -> Result<Vec<ProbeRecord>, CoreError> {
    if !bytes.len().is_multiple_of(RECORD_WIRE_LEN) {
        return Err(CoreError::WireDecode(format!(
            "record batch of {} bytes is not a multiple of {RECORD_WIRE_LEN}",
            bytes.len()
        )));
    }
    bytes.chunks_exact(RECORD_WIRE_LEN).map(decode_record).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uuid::Uuid;

    fn round_trip(v: Value) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let decoded = decode_value(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(Value::Void);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        round_trip(Value::I32(-5));
        round_trip(Value::I64(i64::MAX));
        round_trip(Value::F64(3.25));
        round_trip(Value::Str("héllo wörld".into()));
        round_trip(Value::Blob(vec![0, 255, 128]));
    }

    #[test]
    fn composites_round_trip() {
        round_trip(Value::Seq(vec![
            Value::I32(1),
            Value::Str("two".into()),
            Value::Seq(vec![Value::Bool(true)]),
        ]));
        round_trip(Value::Struct(vec![
            ("job".into(), Value::I64(99)),
            ("data".into(), Value::Blob(vec![7; 64])),
        ]));
        round_trip(Value::Seq(vec![]));
        round_trip(Value::Struct(vec![]));
    }

    #[test]
    fn args_round_trip() {
        let args = vec![Value::I32(1), Value::from("x"), Value::F64(0.5)];
        let encoded = encode_args(&args);
        assert_eq!(decode_args(&encoded).unwrap(), args);
        assert_eq!(decode_args(&encode_args(&[])).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn decode_rejects_truncation() {
        let args = vec![Value::Str("hello".into())];
        let encoded = encode_args(&args);
        for cut in 1..encoded.len() {
            assert!(decode_args(&encoded[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode_args(&[Value::I32(1)]);
        bytes.push(0xFF);
        assert!(decode_args(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert!(decode_value(&mut Cursor::new(&[42])).is_err());
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let mut buf = vec![TAG_STR];
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(decode_value(&mut Cursor::new(&buf)).is_err());
    }

    #[test]
    fn decode_rejects_absurd_length() {
        let mut buf = vec![TAG_SEQ];
        put_u32(&mut buf, u32::MAX);
        assert!(decode_value(&mut Cursor::new(&buf)).is_err());
    }

    #[test]
    fn ftl_append_split_round_trip() {
        let payload = encode_args(&[Value::from("body")]);
        let ftl = FunctionTxLog::new(Uuid::new(), 17);
        let on_wire = append_ftl(payload.clone(), ftl);
        assert_eq!(on_wire.len(), payload.len() + FTL_WIRE_LEN);
        let (bare, got) = split_ftl(on_wire).unwrap();
        assert_eq!(bare, payload);
        assert_eq!(got, ftl);
    }

    #[test]
    fn ftls_marshalled_in_place_match_appended_ones() {
        let args = [Value::from("body"), Value::I64(-3)];
        let child = FunctionTxLog::new(Uuid::new(), 17);
        let parent = FunctionTxLog::new(Uuid::new(), 4);
        // A synchronous request: one FTL.
        assert_eq!(encode_args_with_ftls(&args, &[child]), append_ftl(encode_args(&args), child));
        // A one-way request: the child FTL, then the parent marker.
        assert_eq!(
            encode_args_with_ftls(&args, &[child, parent]),
            append_ftl(append_ftl(encode_args(&args), child), parent)
        );
        assert_eq!(encode_args_with_ftls(&args, &[]), encode_args(&args));
    }

    #[test]
    fn split_ftl_rejects_short_payloads() {
        assert!(split_ftl(vec![0u8; 10]).is_err());
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The reference the sliced implementation must equal: the polynomial
    /// applied one bit at a time, sharing no table with [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bitwise_reference_at_every_length_and_offset() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        // SplitMix64 bytes: every length 0..=300 (all tail lengths, many
        // whole 8-byte words) from every start offset within a word.
        let mut state = 0x1cdc_2003u64;
        let buf: Vec<u8> = std::iter::repeat_with(|| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)).to_le_bytes()
        })
        .take(40)
        .flatten()
        .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let slice = &buf[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "offset {offset} len {len}");
            }
        }
    }

    fn full_record() -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(0x0123_4567_89AB_CDEF_1122_3344_5566_7788),
            seq: u64::MAX - 3,
            event: TraceEvent::SkelEnd,
            kind: CallKind::Oneway,
            site: CallSite {
                node: NodeId(u16::MAX),
                process: ProcessId(7),
                thread: LogicalThreadId(u32::MAX - 1),
            },
            func: FunctionKey::new(
                InterfaceId(u32::MAX),
                MethodIndex(513),
                ObjectId(u64::MAX),
            ),
            wall_start: Some(0),
            wall_end: Some(u64::MAX),
            cpu_start: None,
            cpu_end: Some(42),
            oneway_child: Some(Uuid(u128::MAX)),
            oneway_parent: Some((Uuid(9), 77)),
        }
    }

    #[test]
    fn record_round_trips_at_fixed_width() {
        for r in [
            full_record(),
            ProbeRecord {
                wall_start: None,
                wall_end: None,
                cpu_end: None,
                oneway_child: None,
                oneway_parent: None,
                event: TraceEvent::StubStart,
                kind: CallKind::CustomMarshal,
                ..full_record()
            },
        ] {
            let mut buf = Vec::new();
            encode_record(&r, &mut buf);
            assert_eq!(buf.len(), RECORD_WIRE_LEN);
            assert_eq!(decode_record(&buf).unwrap(), r);
        }
    }

    #[test]
    fn record_batches_round_trip() {
        let records = vec![full_record(); 5];
        let bytes = encode_records(&records);
        assert_eq!(bytes.len(), 5 * RECORD_WIRE_LEN);
        assert_eq!(decode_records(&bytes).unwrap(), records);
        assert!(decode_records(&bytes[..bytes.len() - 1]).is_err(), "ragged batch");
    }

    #[test]
    fn record_decode_rejects_truncation_and_bad_tags() {
        let mut buf = Vec::new();
        encode_record(&full_record(), &mut buf);
        assert!(decode_record(&buf[..RECORD_WIRE_LEN - 1]).is_err());
        let mut bad_event = buf.clone();
        bad_event[24] = 9;
        assert!(decode_record(&bad_event).is_err());
        let mut bad_kind = buf.clone();
        bad_kind[25] = 200;
        assert!(decode_record(&bad_kind).is_err());
        let mut bad_flags = buf;
        bad_flags[26] = 0xC0;
        assert!(decode_record(&bad_flags).is_err());
    }
}
