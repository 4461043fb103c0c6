//! The append-only write-ahead log of committed versions.
//!
//! One [`DurableEngine`](crate::DurableEngine) owns a directory of
//! numbered segment files (`wal-<seq>.log`). Every committed version is
//! appended to the active segment as one self-checking record:
//!
//! ```text
//! record  := len(varint) ++ body ++ crc32(body, 4 bytes LE)
//! body    := key value_len value_bytes ut_phys ut_log tx_dc tx_part tx_seq src
//! segment := magic(4) format(2) record*
//! ```
//!
//! All integer fields ride the same LEB128 varints as the `wire2` frame
//! codec ([`paris_proto::varint`]), so the zero-heavy logical clocks and
//! small ids of background traffic cost one byte each. The trailing CRC
//! makes replay **torn-tail-safe**: a crash mid-append leaves a record
//! whose length, body or CRC cannot check out, replay stops at the last
//! good record and the tail is truncated away. A group of records goes
//! out in one `write`, so a crash mid-group recovers a record-prefix of
//! the group, never part of a record. Declared lengths are
//! validated against the bytes actually present before any allocation,
//! so a garbage segment can never cause an oversized allocation — the
//! same discipline as the wire decoders.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes};
use paris_proto::varint;
use paris_proto::wire::DecodeError;
use paris_types::{DcId, Key, PartitionId, Timestamp, TxId, Value, Version};

use crate::durable::DurableError;

/// First four bytes of every WAL segment file.
pub const WAL_MAGIC: [u8; 4] = *b"PWAL";

/// WAL record format version.
pub const WAL_FORMAT: u16 = 1;

/// Segment header: magic + little-endian format word.
pub const SEGMENT_HEADER_LEN: usize = WAL_MAGIC.len() + 2;

/// Upper bound on one record's body length. Values in this reproduction
/// are at most a few KiB; anything claiming more than this is garbage
/// and is rejected before allocating.
pub const MAX_RECORD_LEN: usize = 1 << 20;

// ---------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), the checksum
/// used by gzip/zlib. Table-driven; the table is built at compile time
/// so no runtime init or external crate is needed.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (IEEE, as used by gzip).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

// --------------------------------------------------------------- records

fn put_ts(buf: &mut Vec<u8>, ts: Timestamp) {
    varint::put(buf, ts.physical_micros());
    varint::put(buf, u64::from(ts.logical()));
}

fn get_ts(buf: &mut Bytes) -> Result<Timestamp, DecodeError> {
    let physical = varint::get(buf)?;
    if physical >= 1 << 48 {
        return Err(DecodeError::BadLength);
    }
    let logical = varint::get_u16(buf)?;
    Ok(Timestamp::from_parts(physical, logical))
}

/// Exact encoded size of `v`'s record body, so the length prefix can be
/// written before the body without a scratch buffer.
fn body_len(v: &Version) -> usize {
    varint::len(v.key.0)
        + varint::len(v.value.len() as u64)
        + v.value.len()
        + varint::len(v.ut.physical_micros())
        + varint::len(u64::from(v.ut.logical()))
        + varint::len(u64::from(v.tx.dc.0))
        + varint::len(u64::from(v.tx.partition.0))
        + varint::len(v.tx.seq)
        + varint::len(u64::from(v.src.0))
}

fn decode_body(mut buf: Bytes) -> Result<Version, DecodeError> {
    let key = Key(varint::get(&mut buf)?);
    let vlen = usize::try_from(varint::get(&mut buf)?).map_err(|_| DecodeError::BadLength)?;
    if buf.remaining() < vlen {
        return Err(DecodeError::BadLength);
    }
    let mut value = vec![0u8; vlen];
    buf.copy_to_slice(&mut value);
    let ut = get_ts(&mut buf)?;
    let dc = DcId(varint::get_u16(&mut buf)?);
    let partition = PartitionId(varint::get_u32(&mut buf)?);
    let seq = varint::get(&mut buf)?;
    let src = DcId(varint::get_u16(&mut buf)?);
    if buf.remaining() != 0 {
        return Err(DecodeError::BadLength);
    }
    Ok(Version {
        key,
        value: Value(value),
        ut,
        tx: TxId { dc, partition, seq },
        src,
    })
}

/// Appends one version to `buf` as a framed WAL record (length, body,
/// CRC) and returns the framed size. Allocates only if `buf` must grow.
pub(crate) fn encode_record_into(buf: &mut Vec<u8>, v: &Version) -> usize {
    let start = buf.len();
    let len = body_len(v);
    buf.reserve(varint::len(len as u64) + len + 4);
    varint::put(buf, len as u64);
    let body = buf.len();
    varint::put(buf, v.key.0);
    varint::put(buf, v.value.len() as u64);
    buf.put_slice(v.value.as_bytes());
    put_ts(buf, v.ut);
    varint::put(buf, u64::from(v.tx.dc.0));
    varint::put(buf, u64::from(v.tx.partition.0));
    varint::put(buf, v.tx.seq);
    varint::put(buf, u64::from(v.src.0));
    // The length prefix is already written: a mismatch would log a
    // record that replay rejects as torn.
    assert_eq!(buf.len() - body, len, "body_len is exact");
    let crc = crc32(&buf[body..]);
    buf.put_u32_le(crc);
    buf.len() - start
}

/// Encodes one version as a standalone framed WAL record.
pub fn encode_record(v: &Version) -> Bytes {
    let mut buf = Vec::new();
    encode_record_into(&mut buf, v);
    Bytes::from(buf)
}

/// One decode step over a segment's record stream.
enum Step {
    /// A record checked out; the version and the bytes consumed.
    Record(Box<Version>, usize),
    /// The stream ends cleanly here (no bytes left).
    Eof,
    /// The bytes from this offset on do not form a whole good record.
    Torn,
}

/// Decodes the record starting at `bytes`, without panicking on any
/// input and without allocating more than `bytes.len()`.
fn decode_step(bytes: &[u8]) -> Step {
    if bytes.is_empty() {
        return Step::Eof;
    }
    let mut buf = Bytes::copy_from_slice(&bytes[..bytes.len().min(varint::MAX_VARINT_LEN)]);
    let before = buf.remaining();
    let Ok(len) = varint::get(&mut buf) else {
        return Step::Torn;
    };
    let len_bytes = before - buf.remaining();
    let Ok(len) = usize::try_from(len) else {
        return Step::Torn;
    };
    if len > MAX_RECORD_LEN || bytes.len() < len_bytes + len + 4 {
        return Step::Torn;
    }
    let body = &bytes[len_bytes..len_bytes + len];
    let crc = u32::from_le_bytes(
        bytes[len_bytes + len..len_bytes + len + 4]
            .try_into()
            .expect("4-byte slice"),
    );
    if crc32(body) != crc {
        return Step::Torn;
    }
    match decode_body(Bytes::copy_from_slice(body)) {
        Ok(v) => Step::Record(Box::new(v), len_bytes + len + 4),
        Err(_) => Step::Torn,
    }
}

/// Outcome of replaying one segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReplay {
    /// Every whole, checksummed record, in log order.
    pub versions: Vec<Version>,
    /// Byte offset just past the last good record (torn-tail truncation
    /// point). Equal to the input length when the segment is clean.
    pub good_len: usize,
}

/// Replays a segment's full byte content (header included).
///
/// # Errors
///
/// [`DurableError::Corrupt`] if the header is missing or from a
/// different format — a garbage *segment* is rejected outright, while a
/// garbage *tail* after good records is reported via
/// [`SegmentReplay::good_len`] so the caller can truncate it.
pub fn replay_segment(bytes: &[u8]) -> Result<SegmentReplay, DurableError> {
    if bytes.len() < SEGMENT_HEADER_LEN || bytes[..4] != WAL_MAGIC {
        return Err(DurableError::corrupt("WAL segment missing magic"));
    }
    let format = u16::from_le_bytes([bytes[4], bytes[5]]);
    if format != WAL_FORMAT {
        return Err(DurableError::corrupt("WAL segment format unknown"));
    }
    let mut versions = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    while let Step::Record(v, used) = decode_step(&bytes[offset..]) {
        versions.push(*v);
        offset += used;
    }
    Ok(SegmentReplay {
        versions,
        good_len: offset,
    })
}

// -------------------------------------------------------------- segments

/// Path of WAL segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:020}.log"))
}

/// Parses a segment sequence number out of a file name, if it is one.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// Group-buffer capacity kept between groups: steady-state groups (a few
/// records per apply tick or replication frame) fit; a larger group (a
/// bulk load) grows the buffer for its own write, then gives the excess
/// back so a server does not hold its largest group forever.
const GROUP_RETAIN_BYTES: usize = 4 * 1024;

/// Fsyncs directory `dir`, so that an entry just created or renamed in
/// it — a new segment, a checkpoint moved into place — survives power
/// loss, not only the file's data.
pub fn sync_dir(dir: &Path) -> Result<(), DurableError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The active (appendable) WAL segment.
///
/// Records are encoded into one reusable group buffer and written to the
/// file with one `write` per group ([`SegmentWriter::stage`] then
/// [`SegmentWriter::write_group`]; [`SegmentWriter::append`] is a group
/// of one). They land in the OS page cache when the group is written —
/// nothing stays in the process between groups — so a SIGKILL'd server
/// loses at most what the fsync policy allows (nothing the OS accepted),
/// not an application buffer full of applied versions.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    /// Largest update timestamp appended to this segment.
    max_ut: Timestamp,
    bytes: u64,
    /// Framed records staged for the next [`SegmentWriter::write_group`].
    group: Vec<u8>,
}

impl SegmentWriter {
    /// Creates segment `seq` under `dir` and writes its header.
    pub fn create(dir: &Path, seq: u64) -> Result<SegmentWriter, DurableError> {
        let path = segment_path(dir, seq);
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&WAL_FORMAT.to_le_bytes())?;
        Ok(SegmentWriter {
            file,
            path,
            seq,
            max_ut: Timestamp::ZERO,
            bytes: SEGMENT_HEADER_LEN as u64,
            group: Vec::new(),
        })
    }

    /// Appends one version record (one `write` to the OS). Returns the
    /// framed record size.
    pub fn append(&mut self, v: &Version) -> Result<u64, DurableError> {
        self.stage(v);
        self.write_group()
    }

    /// Encodes one version record into the pending group without any
    /// I/O. Returns the framed record size.
    pub fn stage(&mut self, v: &Version) -> u64 {
        self.max_ut = self.max_ut.max(v.ut);
        encode_record_into(&mut self.group, v) as u64
    }

    /// Writes every staged record with one `write` to the OS and empties
    /// the group. Returns the bytes written (0 for an empty group, which
    /// issues no I/O).
    pub fn write_group(&mut self) -> Result<u64, DurableError> {
        if self.group.is_empty() {
            return Ok(0);
        }
        let written = self.file.write_all(&self.group);
        let len = self.group.len() as u64;
        self.group.clear();
        self.group.shrink_to(GROUP_RETAIN_BYTES);
        written?;
        self.bytes += len;
        Ok(len)
    }

    /// Fsyncs the segment file (power-loss durability).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// This segment's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Largest update timestamp appended so far.
    pub fn max_ut(&self) -> Timestamp {
        self.max_ut
    }

    /// Bytes written to this segment (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Closes the segment and reports it as a closed segment record for
    /// the pruning bookkeeping.
    pub fn close(self) -> ClosedSegment {
        ClosedSegment {
            path: self.path,
            seq: self.seq,
            max_ut: self.max_ut,
        }
    }
}

/// A sealed WAL segment awaiting truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedSegment {
    /// Segment file path.
    pub path: PathBuf,
    /// Segment sequence number.
    pub seq: u64,
    /// Largest update timestamp any record in the segment carries; the
    /// segment may be deleted once a checkpoint covers this stamp.
    pub max_ut: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::ServerId;
    use proptest::prelude::*;

    fn version(key: u64, val: &[u8], ut: u64, seq: u64, src: u16) -> Version {
        Version::new(
            Key(key),
            Value(val.to_vec()),
            Timestamp::from_physical_micros(ut),
            TxId::new(ServerId::new(DcId(src), PartitionId(0)), seq),
            DcId(src),
        )
    }

    fn segment_bytes(versions: &[Version]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_FORMAT.to_le_bytes());
        for v in versions {
            bytes.extend_from_slice(&encode_record(v));
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_roundtrips() {
        let v = version(7, b"hello", 1234, 9, 2);
        let bytes = segment_bytes(std::slice::from_ref(&v));
        let replay = replay_segment(&bytes).unwrap();
        assert_eq!(replay.versions, vec![v]);
        assert_eq!(replay.good_len, bytes.len());
    }

    #[test]
    fn record_bytes_are_format_1() {
        // Frozen bytes of one record: segments written by any earlier
        // encoder must keep replaying.
        let v = Version::new(
            Key(300),
            Value(b"golden".to_vec()),
            Timestamp::from_parts(1_700_000_000_123, 7),
            TxId::new(ServerId::new(DcId(2), PartitionId(5)), 99_999),
            DcId(2),
        );
        let golden = [
            22, 172, 2, 6, 103, 111, 108, 100, 101, 110, 251, 208, 149, 255, 188, 49, 7, 2, 5, 159,
            141, 6, 2, 95, 127, 228, 28,
        ];
        assert_eq!(encode_record(&v).to_vec(), golden);
        let mut group = b"prefix".to_vec();
        assert_eq!(encode_record_into(&mut group, &v), golden.len());
        assert_eq!(&group[6..], &golden);
        let replay = replay_segment(&segment_bytes(std::slice::from_ref(&v))).unwrap();
        assert_eq!(replay.versions, vec![v]);
    }

    #[test]
    fn missing_magic_or_format_is_rejected() {
        assert!(replay_segment(b"").is_err());
        assert!(replay_segment(b"PWA").is_err());
        assert!(replay_segment(b"JUNKxxxx").is_err());
        let mut wrong_format = segment_bytes(&[]);
        wrong_format[4] = 0xEE;
        assert!(replay_segment(&wrong_format).is_err());
    }

    #[test]
    fn torn_tail_keeps_whole_prefix() {
        let a = version(1, b"aa", 10, 1, 0);
        let b = version(2, b"bb", 20, 2, 1);
        let full = segment_bytes(&[a.clone(), b]);
        let first_len = segment_bytes(std::slice::from_ref(&a)).len();
        // Cut one byte into the second record: only the first survives,
        // and the truncation point is exactly the end of it.
        let replay = replay_segment(&full[..first_len + 1]).unwrap();
        assert_eq!(replay.versions, vec![a]);
        assert_eq!(replay.good_len, first_len);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let a = version(1, b"aa", 10, 1, 0);
        let b = version(2, b"bb", 20, 2, 1);
        let mut bytes = segment_bytes(&[a.clone(), b]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let replay = replay_segment(&bytes).unwrap();
        assert_eq!(replay.versions, vec![a]);
    }

    #[test]
    fn oversized_length_claim_is_torn_not_allocated() {
        let mut bytes = segment_bytes(&[]);
        // A varint claiming u64::MAX bytes of body.
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        let replay = replay_segment(&bytes).unwrap();
        assert!(replay.versions.is_empty());
        assert_eq!(replay.good_len, SEGMENT_HEADER_LEN);
    }

    #[test]
    fn segment_name_roundtrip() {
        let dir = Path::new("/tmp/x");
        let p = segment_path(dir, 42);
        let name = p.file_name().unwrap().to_str().unwrap();
        assert_eq!(parse_segment_name(name), Some(42));
        assert_eq!(parse_segment_name("wal-.log"), None);
        assert_eq!(parse_segment_name("ckpt-1.seg"), None);
    }

    fn arb_version() -> impl Strategy<Value = Version> {
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64),
            0u64..(1 << 48),
            any::<u16>(),
            any::<u64>(),
            any::<u16>(),
            any::<u32>(),
        )
            .prop_map(|(key, val, phys, logical, seq, dc, part)| {
                Version::new(
                    Key(key),
                    Value(val),
                    Timestamp::from_parts(phys, logical),
                    TxId::new(ServerId::new(DcId(dc), PartitionId(part)), seq),
                    DcId(dc),
                )
            })
    }

    proptest! {
        #[test]
        fn prop_records_roundtrip(versions in proptest::collection::vec(arb_version(), 0..8)) {
            let bytes = segment_bytes(&versions);
            let replay = replay_segment(&bytes).unwrap();
            prop_assert_eq!(replay.versions, versions);
            prop_assert_eq!(replay.good_len, bytes.len());
        }

        #[test]
        fn prop_truncation_at_every_byte_is_safe(
            versions in proptest::collection::vec(arb_version(), 1..5),
            cut_frac in 0.0f64..1.0,
        ) {
            let bytes = segment_bytes(&versions);
            let body = bytes.len() - SEGMENT_HEADER_LEN;
            let cut = SEGMENT_HEADER_LEN + ((body as f64) * cut_frac) as usize;
            let replay = replay_segment(&bytes[..cut]).unwrap();
            // The replayed versions are exactly a prefix of the input,
            // and the truncation point never exceeds the cut.
            prop_assert!(replay.versions.len() <= versions.len());
            prop_assert_eq!(
                &replay.versions[..],
                &versions[..replay.versions.len()]
            );
            prop_assert!(replay.good_len <= cut);
        }

        #[test]
        fn prop_garbage_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Raw garbage: either rejected (bad header) or replayed as
            // a (possibly empty) prefix — never a panic.
            let _ = replay_segment(&garbage);
            // Garbage after a valid header: always an Ok replay that
            // stops at the first bad record.
            let mut framed = Vec::with_capacity(garbage.len() + SEGMENT_HEADER_LEN);
            framed.extend_from_slice(&WAL_MAGIC);
            framed.extend_from_slice(&WAL_FORMAT.to_le_bytes());
            framed.extend_from_slice(&garbage);
            let replay = replay_segment(&framed).unwrap();
            prop_assert!(replay.good_len <= framed.len());
        }
    }
}
