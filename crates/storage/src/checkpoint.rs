//! Immutable checkpoints of the ≤ UST stable prefix.
//!
//! The key PaRiS-specific observation (borrowed from reth's static-file
//! model) is that the prefix of the version history at or below the
//! universal stable time is **immutable**: every DC has already received
//! it and no snapshot read below it can start once GC passes. Freezing
//! exactly that prefix therefore needs no coordination — the
//! `StableFrontier` the stabilization protocol already maintains *is*
//! the checkpoint barrier.
//!
//! A checkpoint is one compact segment file:
//!
//! ```text
//! checkpoint := magic(4) format(2) ust(8 LE) s_old(8 LE) crc(4 LE) record*
//! ```
//!
//! The header CRC covers everything before it, so a corrupted frontier
//! stamp is caught just like a corrupted record.
//!
//! where each record is a framed WAL record ([`crate::wal`]) for one
//! retained version with `ut ≤ ust`. Files are written to a temp name
//! and atomically renamed into place, so a crash mid-write never leaves
//! a half checkpoint under the real name; any decode error on load
//! rejects the whole file (the loader then falls back to an older
//! checkpoint or a plain WAL replay). The file name carries the frozen
//! frontier (`ckpt-<ust>.seg`) so recovery can order checkpoints without
//! opening them.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use paris_types::{Timestamp, Version};

use crate::durable::DurableError;
use crate::wal;

/// First four bytes of every checkpoint segment file.
pub const CKPT_MAGIC: [u8; 4] = *b"PCKP";

/// Checkpoint format version.
pub const CKPT_FORMAT: u16 = 1;

/// Fixed header: magic, format, frozen UST, frozen S_old, header CRC.
pub const CKPT_HEADER_LEN: usize = CKPT_MAGIC.len() + 2 + 8 + 8 + 4;

/// The frontier a checkpoint froze, read back from its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Universal stable time at freeze: every record has `ut ≤ ust`.
    pub ust: Timestamp,
    /// GC horizon at freeze (recovery re-seeds the frontier with it).
    pub s_old: Timestamp,
}

/// Path of the checkpoint frozen at `ust` under `dir`.
pub fn checkpoint_path(dir: &Path, ust: Timestamp) -> PathBuf {
    dir.join(format!("ckpt-{:020}.seg", ust.as_u64()))
}

/// Parses the frozen UST out of a checkpoint file name, if it is one.
pub fn parse_checkpoint_name(name: &str) -> Option<Timestamp> {
    let rest = name.strip_prefix("ckpt-")?.strip_suffix(".seg")?;
    rest.parse().ok().map(Timestamp::from_u64)
}

/// Writes a checkpoint of `versions` frozen at `meta` into `dir`,
/// atomically (temp file + rename). `sync` additionally fsyncs before
/// the rename so the checkpoint survives power loss, not just a crash.
///
/// Returns the final path and the file size in bytes.
///
/// # Errors
///
/// Any I/O failure surfaces as [`DurableError::Io`]; the temp file is
/// left behind only on failure (and harmlessly ignored by the loader).
pub fn write_checkpoint(
    dir: &Path,
    meta: CheckpointMeta,
    versions: &[Version],
    sync: bool,
) -> Result<(PathBuf, u64), DurableError> {
    let final_path = checkpoint_path(dir, meta.ust);
    let tmp_path = final_path.with_extension("tmp");
    let mut bytes = 0u64;
    {
        let mut file = BufWriter::new(File::create(&tmp_path)?);
        let mut header = Vec::with_capacity(CKPT_HEADER_LEN);
        header.extend_from_slice(&CKPT_MAGIC);
        header.extend_from_slice(&CKPT_FORMAT.to_le_bytes());
        header.extend_from_slice(&meta.ust.as_u64().to_le_bytes());
        header.extend_from_slice(&meta.s_old.as_u64().to_le_bytes());
        let crc = wal::crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        file.write_all(&header)?;
        bytes += CKPT_HEADER_LEN as u64;
        for v in versions {
            let record = wal::encode_record(v);
            file.write_all(&record)?;
            bytes += record.len() as u64;
        }
        file.flush()?;
        if sync {
            file.get_ref().sync_data()?;
        }
    }
    fs::rename(&tmp_path, &final_path)?;
    if sync {
        wal::sync_dir(dir)?;
    }
    Ok((final_path, bytes))
}

/// Loads a checkpoint file in full.
///
/// # Errors
///
/// [`DurableError::Corrupt`] for a bad header **or** any bad record —
/// unlike the WAL, a checkpoint admits no torn tail: it was renamed into
/// place whole, so any damage rejects the entire file.
pub fn load_checkpoint(path: &Path) -> Result<(CheckpointMeta, Vec<Version>), DurableError> {
    let bytes = fs::read(path)?;
    if bytes.len() < CKPT_HEADER_LEN || bytes[..4] != CKPT_MAGIC {
        return Err(DurableError::corrupt("checkpoint missing magic"));
    }
    if u16::from_le_bytes([bytes[4], bytes[5]]) != CKPT_FORMAT {
        return Err(DurableError::corrupt("checkpoint format unknown"));
    }
    let declared = u32::from_le_bytes(bytes[22..26].try_into().expect("4-byte slice"));
    if wal::crc32(&bytes[..22]) != declared {
        return Err(DurableError::corrupt("checkpoint header CRC mismatch"));
    }
    let ust = Timestamp::from_u64(u64::from_le_bytes(
        bytes[6..14].try_into().expect("8-byte slice"),
    ));
    let s_old = Timestamp::from_u64(u64::from_le_bytes(
        bytes[14..22].try_into().expect("8-byte slice"),
    ));
    // Reuse the WAL record stream parser, but demand it consumed the
    // whole file: a torn tail here means a corrupt checkpoint.
    let mut framed = Vec::with_capacity(bytes.len() - CKPT_HEADER_LEN + wal::SEGMENT_HEADER_LEN);
    framed.extend_from_slice(&wal::WAL_MAGIC);
    framed.extend_from_slice(&wal::WAL_FORMAT.to_le_bytes());
    framed.extend_from_slice(&bytes[CKPT_HEADER_LEN..]);
    let replay = wal::replay_segment(&framed)?;
    if replay.good_len != framed.len() {
        return Err(DurableError::corrupt("checkpoint has a torn record"));
    }
    Ok((CheckpointMeta { ust, s_old }, replay.versions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{DcId, Key, PartitionId, ServerId, TxId, Value};

    fn version(key: u64, ut: u64) -> Version {
        Version::new(
            Key(key),
            Value::filled(8, ut),
            Timestamp::from_physical_micros(ut),
            TxId::new(ServerId::new(DcId(0), PartitionId(0)), ut),
            DcId(0),
        )
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("paris-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpoint_roundtrips() {
        let dir = tmpdir("roundtrip");
        let meta = CheckpointMeta {
            ust: Timestamp::from_physical_micros(30),
            s_old: Timestamp::from_physical_micros(10),
        };
        let versions = vec![version(1, 10), version(2, 20), version(1, 30)];
        let (path, bytes) = write_checkpoint(&dir, meta, &versions, true).unwrap();
        assert_eq!(bytes, fs::metadata(&path).unwrap().len());
        let (meta2, versions2) = load_checkpoint(&path).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(versions2, versions);
        assert_eq!(
            parse_checkpoint_name(path.file_name().unwrap().to_str().unwrap()),
            Some(meta.ust)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_checkpoint_is_rejected_whole() {
        let dir = tmpdir("damaged");
        let meta = CheckpointMeta {
            ust: Timestamp::from_physical_micros(5),
            s_old: Timestamp::ZERO,
        };
        let (path, _) = write_checkpoint(&dir, meta, &[version(1, 5)], false).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(load_checkpoint(&path).is_err());
        // Truncation (a "torn tail") also rejects the whole file.
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load_checkpoint(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_names_sort_by_frontier() {
        assert_eq!(parse_checkpoint_name("ckpt-x.seg"), None);
        assert_eq!(parse_checkpoint_name("wal-1.log"), None);
        let a = checkpoint_path(Path::new("/d"), Timestamp::from_physical_micros(1));
        let b = checkpoint_path(Path::new("/d"), Timestamp::from_physical_micros(2));
        assert!(a < b, "zero-padded names sort numerically");
    }
}
