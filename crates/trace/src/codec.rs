//! Compact binary trace format and parser.
//!
//! Traces are expensive to regenerate for long experiments, and the paper's
//! methodology is trace-driven, so the crate provides a self-describing
//! binary format for instruction traces:
//!
//! * a 16-byte header (`magic`, version, record count),
//! * per record: a flags byte, a varint PC *delta* (PCs are strongly
//!   local, so deltas compress well), and, for branches, a varint target
//!   delta.
//!
//! All integers use LEB128 variable-length encoding with zig-zag for signed
//! deltas. The codec round-trips exactly and fails loudly on corrupt input.
//!
//! A second section of the format family — the *miss-trace* codec
//! ([`write_symbol_sections`] / [`read_symbol_sections`]) — carries the
//! per-core `u64` symbol sequences the on-disk trace store
//! ([`crate::store`]) persists: a `TIFM` header with its own version, the
//! owning [`crate::store::TraceKey`] fingerprint, a length-prefixed
//! delta-varint body, and a trailing FNV-1a checksum, so truncated,
//! bit-flipped, or mismatched entries surface a [`CodecError`] instead of
//! a wrong trace.

use std::io::{self, Read, Write};

use crate::record::{BranchInfo, BranchKind, FetchRecord, MemClass};
use crate::types::Addr;

/// Magic bytes identifying a TIFS trace file.
pub const MAGIC: [u8; 4] = *b"TIFS";
/// Current format version.
pub const VERSION: u32 = 1;

/// Errors produced by the trace codec.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the TIFS magic.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u32),
    /// A varint ran past its maximum length or the stream ended inside a
    /// record.
    Corrupt(&'static str),
    /// A miss-trace entry carries a different key fingerprint than the one
    /// requested (hash-collision or misplaced file).
    KeyMismatch {
        /// The fingerprint the caller asked for.
        expected: u128,
        /// The fingerprint stored in the entry header.
        found: u128,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:?}, expected \"TIFS\""),
            CodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            CodecError::KeyMismatch { expected, found } => write!(
                f,
                "trace entry key mismatch: expected {expected:032x}, found {found:032x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

// Flags byte layout:
//   bits 0-2: mem class (0=None 1=LoadL1 2=LoadL2 3=LoadMem 4=Store)
//   bit  3:   trap
//   bit  4:   has branch
//   bits 5-6: branch kind (0=Cond 1=Jump 2=Call 3=Return)
//   bit  7:   branch taken
// inner_loop is folded into a second flags bit via mem-class space:
//   value 5 in bits 0-2 is unused, so inner_loop rides bit 3 of the
//   *branch extension byte* written only for branches.
// flush (context switch after this instruction) rides bit 5 of the flags
// byte for non-branch records (bits 5-7 were previously always zero
// there) and bit 1 of the branch extension byte for branches. Both bits
// are zero in every pre-flush stream, so flush-free traces are
// byte-identical to format v1 files written before the field existed.

fn mem_to_bits(m: MemClass) -> u8 {
    match m {
        MemClass::None => 0,
        MemClass::LoadL1 => 1,
        MemClass::LoadL2 => 2,
        MemClass::LoadMem => 3,
        MemClass::Store => 4,
    }
}

fn bits_to_mem(b: u8) -> Result<MemClass, CodecError> {
    Ok(match b {
        0 => MemClass::None,
        1 => MemClass::LoadL1,
        2 => MemClass::LoadL2,
        3 => MemClass::LoadMem,
        4 => MemClass::Store,
        _ => return Err(CodecError::Corrupt("invalid mem class")),
    })
}

fn kind_to_bits(k: BranchKind) -> u8 {
    match k {
        BranchKind::Conditional => 0,
        BranchKind::Jump => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
    }
}

fn bits_to_kind(b: u8) -> BranchKind {
    match b & 3 {
        0 => BranchKind::Conditional,
        1 => BranchKind::Jump,
        2 => BranchKind::Call,
        _ => BranchKind::Return,
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Converts a decoded count to `usize`, rejecting values a 32-bit
/// target cannot address instead of silently truncating them.
fn usize_count(v: u64) -> Result<usize, CodecError> {
    usize::try_from(v).map_err(|_| CodecError::Corrupt("count overflows the address space"))
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        // tifs-lint: allow(narrowing-cast) — `& 0x7F` bounds the value
        // to 7 bits; the cast cannot lose information.
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)
            .map_err(|_| CodecError::Corrupt("truncated varint"))?;
        let b = buf[0];
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint too long"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Writes a complete trace (header + records). A mutable reference works
/// anywhere a `W: Write` is expected.
pub fn write_trace<W: Write>(w: &mut W, records: &[FetchRecord]) -> Result<(), CodecError> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(records.len() as u64).to_le_bytes())?;
    let mut prev_pc: u64 = 0;
    for r in records {
        let mut flags = mem_to_bits(r.mem);
        if r.trap {
            flags |= 1 << 3;
        }
        if let Some(b) = r.branch {
            flags |= 1 << 4;
            flags |= kind_to_bits(b.kind) << 5;
            if b.taken {
                flags |= 1 << 7;
            }
        } else if r.flush {
            flags |= 1 << 5;
        }
        w.write_all(&[flags])?;
        write_varint(w, zigzag(r.pc.0 as i64 - prev_pc as i64))?;
        prev_pc = r.pc.0;
        if let Some(b) = r.branch {
            let mut ext = u8::from(b.inner_loop);
            if r.flush {
                ext |= 1 << 1;
            }
            w.write_all(&[ext])?;
            write_varint(w, zigzag(b.target.0 as i64 - r.pc.0 as i64))?;
        }
    }
    Ok(())
}

/// Reads a complete trace written by [`write_trace`]. A mutable reference
/// works anywhere an `R: Read` is expected.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed magic, version, or truncated input.
pub fn read_trace<R: Read>(r: &mut R) -> Result<Vec<FetchRecord>, CodecError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let mut v4 = [0u8; 4];
    r.read_exact(&mut v4)?;
    let version = u32::from_le_bytes(v4);
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let mut c8 = [0u8; 8];
    r.read_exact(&mut c8)?;
    let count = usize_count(u64::from_le_bytes(c8))?;

    let mut out = Vec::with_capacity(count.min(1 << 24));
    let mut prev_pc: u64 = 0;
    for _ in 0..count {
        let mut fb = [0u8; 1];
        r.read_exact(&mut fb)
            .map_err(|_| CodecError::Corrupt("truncated record"))?;
        let flags = fb[0];
        let mem = bits_to_mem(flags & 0x7)?;
        let trap = flags & (1 << 3) != 0;
        let delta = unzigzag(read_varint(r)?);
        let pc = Addr((prev_pc as i64 + delta) as u64);
        prev_pc = pc.0;
        let mut flush = flags & (1 << 5) != 0 && flags & (1 << 4) == 0;
        let branch = if flags & (1 << 4) != 0 {
            let mut ext = [0u8; 1];
            r.read_exact(&mut ext)
                .map_err(|_| CodecError::Corrupt("truncated branch ext"))?;
            flush = ext[0] & (1 << 1) != 0;
            let tdelta = unzigzag(read_varint(r)?);
            Some(BranchInfo {
                kind: bits_to_kind(flags >> 5),
                taken: flags & (1 << 7) != 0,
                target: Addr((pc.0 as i64 + tdelta) as u64),
                inner_loop: ext[0] & 1 != 0,
            })
        } else {
            None
        };
        out.push(FetchRecord {
            pc,
            branch,
            mem,
            trap,
            flush,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Miss-trace sections — the on-disk trace store's entry format.
// ---------------------------------------------------------------------------
//
// Layout:
//   4 B  MISS_MAGIC "TIFM"
//   4 B  MISS_TRACE_VERSION (u32 LE)
//  16 B  owning TraceKey fingerprint (u128 LE)
//   8 B  body length in bytes (u64 LE)
//   .. B body: varint section count, then per section a varint length and
//        zig-zag varint deltas between consecutive symbols
//   8 B  FNV-1a 64 checksum of the body (u64 LE)
//
// The explicit body length makes truncation detectable before parsing, and
// the checksum catches bit flips that would still parse (e.g. a flipped
// symbol-delta bit). Every failure path is a `CodecError`; the codec never
// returns a trace that differs from what was written.

/// Magic bytes identifying a TIFS miss-trace store entry.
pub const MISS_MAGIC: [u8; 4] = *b"TIFM";
/// Current miss-trace entry format version.
pub const MISS_TRACE_VERSION: u32 = 1;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Writes per-core `u64` symbol sections as one store entry owned by the
/// key fingerprint `key`.
pub fn write_symbol_sections<W: Write>(
    w: &mut W,
    key: u128,
    sections: &[Vec<u64>],
) -> Result<(), CodecError> {
    let mut body = Vec::new();
    write_varint(&mut body, sections.len() as u64)?;
    for section in sections {
        write_varint(&mut body, section.len() as u64)?;
        let mut prev: u64 = 0;
        for &v in section {
            // Wrapping difference round-trips the full u64 range.
            write_varint(&mut body, zigzag(v.wrapping_sub(prev) as i64))?;
            prev = v;
        }
    }
    w.write_all(&MISS_MAGIC)?;
    w.write_all(&MISS_TRACE_VERSION.to_le_bytes())?;
    w.write_all(&key.to_le_bytes())?;
    w.write_all(&(body.len() as u64).to_le_bytes())?;
    w.write_all(&body)?;
    w.write_all(&fnv1a64(&body).to_le_bytes())?;
    Ok(())
}

/// Reads a store entry written by [`write_symbol_sections`], verifying the
/// magic, version, checksum, and (when given) the owning key fingerprint.
///
/// # Errors
///
/// Returns [`CodecError`] on any malformed input: wrong magic or version,
/// truncation anywhere, a checksum mismatch, trailing garbage, or an entry
/// owned by a different key. A wrong trace is never returned.
pub fn read_symbol_sections<R: Read>(
    r: &mut R,
    expected_key: Option<u128>,
) -> Result<Vec<Vec<u64>>, CodecError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MISS_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let mut v4 = [0u8; 4];
    r.read_exact(&mut v4)
        .map_err(|_| CodecError::Corrupt("truncated version"))?;
    let version = u32::from_le_bytes(v4);
    if version != MISS_TRACE_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let mut k16 = [0u8; 16];
    r.read_exact(&mut k16)
        .map_err(|_| CodecError::Corrupt("truncated key"))?;
    let found = u128::from_le_bytes(k16);
    if let Some(expected) = expected_key {
        if expected != found {
            return Err(CodecError::KeyMismatch { expected, found });
        }
    }
    let mut l8 = [0u8; 8];
    r.read_exact(&mut l8)
        .map_err(|_| CodecError::Corrupt("truncated body length"))?;
    let body_len = u64::from_le_bytes(l8);
    // `take` bounds the read so a corrupt length cannot trigger an
    // unbounded allocation; a short read is caught by the length check.
    let mut body = Vec::new();
    r.take(body_len)
        .read_to_end(&mut body)
        .map_err(CodecError::Io)?;
    if body.len() as u64 != body_len {
        return Err(CodecError::Corrupt("truncated body"));
    }
    let mut c8 = [0u8; 8];
    r.read_exact(&mut c8)
        .map_err(|_| CodecError::Corrupt("truncated checksum"))?;
    if fnv1a64(&body) != u64::from_le_bytes(c8) {
        return Err(CodecError::Corrupt("checksum mismatch"));
    }

    let mut br = body.as_slice();
    let n_sections = usize_count(read_varint(&mut br)?)?;
    let mut out = Vec::with_capacity(n_sections.min(1 << 10));
    for _ in 0..n_sections {
        let n = usize_count(read_varint(&mut br)?)?;
        let mut section = Vec::with_capacity(n.min(1 << 24));
        let mut prev: u64 = 0;
        for _ in 0..n {
            let delta = unzigzag(read_varint(&mut br)?) as u64;
            let v = prev.wrapping_add(delta);
            section.push(v);
            prev = v;
        }
        out.push(section);
    }
    if !br.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes in body"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Report sections — the on-disk report store's entry format.
// ---------------------------------------------------------------------------
//
// Same container discipline as the miss-trace section (magic, version,
// owning key, explicit body length, trailing checksum), but the body is an
// opaque canonical payload produced by a higher layer — the simulator's
// `SimReport` encoding lives in `tifs_sim`, which this crate cannot depend
// on. The framing alone guarantees that truncation, bit flips, stale
// versions, and misplaced keys surface a [`CodecError`] before a single
// payload byte reaches the caller.

/// Magic bytes identifying a TIFS report store entry.
pub const REPORT_MAGIC: [u8; 4] = *b"TIFR";
/// Current report entry format version. Bump this when the frame layout
/// or the canonical `SimReport` payload encoding changes *incompatibly*:
/// stale entries then fail loudly with [`CodecError::BadVersion`] and
/// are evicted, never misdecoded. Backward-compatible payload growth
/// does not bump it — each trailing payload section carries its own
/// version tag (`SIM_REPORT_FLUSH_LAYOUT_VERSION` in `tifs_sim::stats`)
/// and is emitted only when nonempty, so layout-1 entries stay decodable
/// and warm.
pub const REPORT_VERSION: u32 = 1;

/// Writes an opaque report payload as one store entry owned by the key
/// fingerprint `key`, framed exactly like a miss-trace section.
pub fn write_report_section<W: Write>(w: &mut W, key: u128, body: &[u8]) -> Result<(), CodecError> {
    w.write_all(&REPORT_MAGIC)?;
    w.write_all(&REPORT_VERSION.to_le_bytes())?;
    w.write_all(&key.to_le_bytes())?;
    w.write_all(&(body.len() as u64).to_le_bytes())?;
    w.write_all(body)?;
    w.write_all(&fnv1a64(body).to_le_bytes())?;
    Ok(())
}

/// Reads a report entry written by [`write_report_section`], verifying
/// magic, version, checksum, and (when given) the owning key fingerprint,
/// and returns the payload bytes.
///
/// # Errors
///
/// Returns [`CodecError`] on any malformed input: wrong magic or version,
/// truncation anywhere, a checksum mismatch, or an entry owned by a
/// different key. A wrong payload is never returned.
pub fn read_report_section<R: Read>(
    r: &mut R,
    expected_key: Option<u128>,
) -> Result<Vec<u8>, CodecError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != REPORT_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let mut v4 = [0u8; 4];
    r.read_exact(&mut v4)
        .map_err(|_| CodecError::Corrupt("truncated version"))?;
    let version = u32::from_le_bytes(v4);
    if version != REPORT_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let mut k16 = [0u8; 16];
    r.read_exact(&mut k16)
        .map_err(|_| CodecError::Corrupt("truncated key"))?;
    let found = u128::from_le_bytes(k16);
    if let Some(expected) = expected_key {
        if expected != found {
            return Err(CodecError::KeyMismatch { expected, found });
        }
    }
    let mut l8 = [0u8; 8];
    r.read_exact(&mut l8)
        .map_err(|_| CodecError::Corrupt("truncated body length"))?;
    let body_len = u64::from_le_bytes(l8);
    // `take` bounds the read so a corrupt length cannot trigger an
    // unbounded allocation; a short read is caught by the length check.
    let mut body = Vec::new();
    r.take(body_len)
        .read_to_end(&mut body)
        .map_err(CodecError::Io)?;
    if body.len() as u64 != body_len {
        return Err(CodecError::Corrupt("truncated body"));
    }
    let mut c8 = [0u8; 8];
    r.read_exact(&mut c8)
        .map_err(|_| CodecError::Corrupt("truncated checksum"))?;
    if fnv1a64(&body) != u64::from_le_bytes(c8) {
        return Err(CodecError::Corrupt("checksum mismatch"));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<FetchRecord> {
        vec![
            FetchRecord::plain(Addr(0x1000)),
            FetchRecord {
                pc: Addr(0x1004),
                branch: Some(BranchInfo {
                    kind: BranchKind::Conditional,
                    taken: true,
                    target: Addr(0x0FC0),
                    inner_loop: true,
                }),
                mem: MemClass::LoadL2,
                trap: false,
                flush: true,
            },
            FetchRecord {
                pc: Addr(0x0FC0),
                branch: Some(BranchInfo {
                    kind: BranchKind::Return,
                    taken: true,
                    target: Addr(0x9_0000),
                    inner_loop: false,
                }),
                mem: MemClass::Store,
                trap: true,
                flush: false,
            },
        ]
    }

    #[test]
    fn roundtrip_exact() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn roundtrip_empty() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_records()).unwrap();
        buf[0] = b'X';
        match read_trace(&mut buf.as_slice()) {
            Err(CodecError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_records()).unwrap();
        buf[4] = 0xFF;
        match read_trace(&mut buf.as_slice()) {
            Err(CodecError::BadVersion(_)) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn hostile_record_count_errors_instead_of_truncating() {
        // The record count decodes through `usize_count` (try_from,
        // never `as`), so a hostile u64 is an error on every target
        // width; with no payload behind it, it surfaces as Corrupt.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        match read_trace(&mut buf.as_slice()) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_records()).unwrap();
        buf.truncate(buf.len() - 2);
        match read_trace(&mut buf.as_slice()) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn sample_sections() -> Vec<Vec<u64>> {
        vec![
            vec![10, 11, 12, 400, 401, 3],
            vec![],
            vec![u64::MAX, 0, 7, u64::MAX / 2],
        ]
    }

    #[test]
    fn symbol_sections_roundtrip() {
        let sections = sample_sections();
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 0xABCD, &sections).unwrap();
        let back = read_symbol_sections(&mut buf.as_slice(), Some(0xABCD)).unwrap();
        assert_eq!(back, sections);
        // Key verification is optional.
        let back = read_symbol_sections(&mut buf.as_slice(), None).unwrap();
        assert_eq!(back, sections);
    }

    #[test]
    fn symbol_sections_reject_wrong_key() {
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 1, &sample_sections()).unwrap();
        match read_symbol_sections(&mut buf.as_slice(), Some(2)) {
            Err(CodecError::KeyMismatch { expected, found }) => {
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("expected KeyMismatch, got {other:?}"),
        }
    }

    #[test]
    fn symbol_sections_reject_checksum_flip() {
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 1, &sample_sections()).unwrap();
        // Flip one bit inside the body (after the 32-byte header).
        buf[33] ^= 0x40;
        match read_symbol_sections(&mut buf.as_slice(), Some(1)) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn symbol_sections_reject_bad_magic_and_version() {
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 1, &sample_sections()).unwrap();
        let mut m = buf.clone();
        m[0] = b'X';
        assert!(matches!(
            read_symbol_sections(&mut m.as_slice(), Some(1)),
            Err(CodecError::BadMagic(_))
        ));
        let mut v = buf.clone();
        v[4] = 0xEE;
        assert!(matches!(
            read_symbol_sections(&mut v.as_slice(), Some(1)),
            Err(CodecError::BadVersion(_))
        ));
    }

    #[test]
    fn symbol_sections_reject_truncation_and_trailing() {
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 1, &sample_sections()).unwrap();
        for cut in [buf.len() - 1, buf.len() - 9, 20, 5, 0] {
            assert!(
                read_symbol_sections(&mut buf[..cut].as_ref(), Some(1)).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn report_section_roundtrip() {
        let body: Vec<u8> = (0..200u16).map(|i| (i * 7) as u8).collect();
        let mut buf = Vec::new();
        write_report_section(&mut buf, 0x1234, &body).unwrap();
        assert_eq!(
            read_report_section(&mut buf.as_slice(), Some(0x1234)).unwrap(),
            body
        );
        // Key verification is optional.
        assert_eq!(
            read_report_section(&mut buf.as_slice(), None).unwrap(),
            body
        );
        // Empty payloads frame fine.
        let mut empty = Vec::new();
        write_report_section(&mut empty, 9, &[]).unwrap();
        assert!(read_report_section(&mut empty.as_slice(), Some(9))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn report_section_rejects_faults() {
        let mut buf = Vec::new();
        write_report_section(&mut buf, 5, b"payload bytes").unwrap();
        // Wrong key.
        assert!(matches!(
            read_report_section(&mut buf.as_slice(), Some(6)),
            Err(CodecError::KeyMismatch {
                expected: 6,
                found: 5
            })
        ));
        // Bad magic / stale version.
        let mut m = buf.clone();
        m[0] = b'X';
        assert!(matches!(
            read_report_section(&mut m.as_slice(), Some(5)),
            Err(CodecError::BadMagic(_))
        ));
        let mut v = buf.clone();
        v[4] = 0xEE;
        assert!(matches!(
            read_report_section(&mut v.as_slice(), Some(5)),
            Err(CodecError::BadVersion(_))
        ));
        // Body bit flip breaks the checksum.
        let mut c = buf.clone();
        c[33] ^= 0x04;
        assert!(matches!(
            read_report_section(&mut c.as_slice(), Some(5)),
            Err(CodecError::Corrupt("checksum mismatch"))
        ));
        // Every strict prefix fails.
        for cut in [buf.len() - 1, buf.len() - 9, 33, 20, 5, 0] {
            assert!(
                read_report_section(&mut buf[..cut].as_ref(), Some(5)).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn report_and_trace_magics_are_disjoint() {
        // A report entry renamed into the trace store (or vice versa) must
        // be rejected at the magic, not misparsed.
        let mut report = Vec::new();
        write_report_section(&mut report, 1, b"abc").unwrap();
        assert!(matches!(
            read_symbol_sections(&mut report.as_slice(), Some(1)),
            Err(CodecError::BadMagic(_))
        ));
        let mut trace = Vec::new();
        write_symbol_sections(&mut trace, 1, &[vec![1, 2]]).unwrap();
        assert!(matches!(
            read_report_section(&mut trace.as_slice(), Some(1)),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn delta_encoding_is_compact() {
        // Sequential PCs should cost ~2-3 bytes per record.
        let records: Vec<FetchRecord> = (0..1000)
            .map(|i| FetchRecord::plain(Addr(0x10_0000 + i * 4)))
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        assert!(
            buf.len() < 16 + 1000 * 3,
            "encoding too large: {} bytes",
            buf.len()
        );
    }
}
