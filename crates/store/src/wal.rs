//! Placement write-ahead log: fsync-on-ack durability for served writes.
//!
//! A partition store directory may carry a `wal.tlpw` file recording every
//! online placement acknowledged since the last flush. The format is an
//! 8-byte magic followed by fixed-size records:
//!
//! ```text
//! +--------+--------+------------+---------------------+
//! | u: u32 | v: u32 | pid: u32   | checksum: u64 (FNV) |
//! +--------+--------+------------+---------------------+
//! ```
//!
//! all little-endian, the checksum covering the 12 payload bytes before
//! it. Appends go through [`FaultFile`] and are fsynced before the caller
//! acknowledges, so an acknowledged placement survives a SIGKILL at any
//! I/O operation.
//!
//! The reader mirrors the JSONL observer's torn-tail contract: a partial
//! *trailing* record is tolerated and dropped (the append that produced it
//! failed before its ack, so nothing acknowledged is lost), while a full
//! record whose checksum disagrees with its payload is a typed
//! [`StoreError::ChecksumMismatch`] — mid-file corruption is never
//! silently replayed. [`PlacementWal::open`] truncates a torn tail through
//! [`atomic_write`] before handing back an appender, and
//! [`PlacementWal::truncate`] resets the log the same way after a
//! successful store flush (the flushed records are then part of the base
//! graph, so even a crash between flush and truncate only causes
//! idempotent replays).

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::atomic::atomic_write;
use crate::faults::FaultFile;
use crate::format::{check_magic, checksummed, le_u32, seal};
use crate::StoreError;

/// Name of the placement WAL inside a partition store directory.
pub const WAL_NAME: &str = "wal.tlpw";
/// Magic bytes opening a WAL file (name + format version).
pub const WAL_MAGIC: [u8; 8] = *b"TLPWAL\x00\x01";
/// On-disk size of one record: three `u32` fields + a `u64` checksum.
pub const WAL_RECORD_LEN: usize = 20;

/// One acknowledged placement: canonical endpoints + assigned partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Canonical source endpoint (`u < v`).
    pub u: u32,
    /// Canonical target endpoint.
    pub v: u32,
    /// The partition the placer assigned.
    pub partition: u32,
}

impl WalRecord {
    /// Serializes the record (payload + trailing FNV-1a checksum).
    pub fn encode(&self) -> [u8; WAL_RECORD_LEN] {
        let mut out = [0u8; WAL_RECORD_LEN];
        out[0..4].copy_from_slice(&self.u.to_le_bytes());
        out[4..8].copy_from_slice(&self.v.to_le_bytes());
        out[8..12].copy_from_slice(&self.partition.to_le_bytes());
        seal(&mut out);
        out
    }

    /// Deserializes one full record, verifying its checksum.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] if `bytes` is shorter than a record;
    /// [`StoreError::ChecksumMismatch`] if the stored checksum disagrees
    /// with the payload (a flipped byte anywhere in the record).
    pub fn decode(bytes: &[u8]) -> Result<WalRecord, StoreError> {
        let record = bytes
            .get(..WAL_RECORD_LEN)
            .ok_or(StoreError::Truncated { what: "wal record" })?;
        let payload = checksummed(record, "wal record")?;
        Ok(WalRecord {
            u: le_u32(payload, 0),
            v: le_u32(payload, 4),
            partition: le_u32(payload, 8),
        })
    }
}

/// What a WAL read recovered: the acknowledged records plus how many
/// torn trailing bytes (an append cut short before its ack) were dropped.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every fully-written, checksum-verified record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of a partial trailing record (or partial header) that were
    /// discarded. Zero for a cleanly-closed log.
    pub torn_tail_bytes: usize,
}

/// Reads a WAL file without opening it for appending. A missing file is
/// an empty log (the store predates its first served write).
///
/// # Errors
///
/// [`StoreError::BadMagic`] if the file exists but is not a WAL;
/// [`StoreError::ChecksumMismatch`] for a corrupt full record;
/// [`StoreError::Io`] for underlying read failures.
pub fn read_wal(path: &Path) -> Result<WalReplay, StoreError> {
    let mut file = match FaultFile::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(StoreError::from)?;
    if bytes.len() < WAL_MAGIC.len() {
        // The creating write itself was cut short: no record was ever
        // appended, let alone acknowledged. Treat as an empty torn log.
        return Ok(WalReplay {
            records: Vec::new(),
            torn_tail_bytes: bytes.len(),
        });
    }
    check_magic(&bytes, &WAL_MAGIC)?;
    let body = bytes[WAL_MAGIC.len()..].chunks_exact(WAL_RECORD_LEN);
    let torn_tail_bytes = body.remainder().len();
    Ok(WalReplay {
        records: body.map(WalRecord::decode).collect::<Result<_, _>>()?,
        torn_tail_bytes,
    })
}

/// Appender over a partition store's placement WAL.
///
/// All I/O goes through [`FaultFile`], so the crash-point sweep can place
/// a fault at every append, sync, and truncate operation.
#[derive(Debug)]
pub struct PlacementWal {
    path: PathBuf,
    file: FaultFile,
    depth: u64,
    group_commit: u64,
    unsynced: u64,
}

impl PlacementWal {
    /// Opens (creating if needed) the WAL inside `dir`, recovering its
    /// acknowledged records and truncating any torn tail so subsequent
    /// appends start from a clean record boundary.
    ///
    /// # Errors
    ///
    /// Propagates [`read_wal`] errors plus I/O failures re-establishing
    /// the file.
    pub fn open(dir: &Path) -> Result<(PlacementWal, WalReplay), StoreError> {
        let path = dir.join(WAL_NAME);
        let replay = read_wal(&path)?;
        if replay.torn_tail_bytes > 0 || !path.exists() {
            // Rewrite header + surviving records atomically: the recovery
            // point is durable before any new append lands after it.
            atomic_write(&path, |out| {
                out.write_all(&WAL_MAGIC).map_err(StoreError::Io)?;
                for record in &replay.records {
                    out.write_all(&record.encode()).map_err(StoreError::Io)?;
                }
                Ok(())
            })?;
        }
        let file = FaultFile::append(&path).map_err(StoreError::Io)?;
        Ok((
            PlacementWal {
                path,
                file,
                depth: replay.records.len() as u64,
                group_commit: 1,
                unsynced: 0,
            },
            replay,
        ))
    }

    /// Sets the group-commit interval: fsync after every `every`-th append
    /// instead of every append. `1` (the default) is fsync-on-ack; larger
    /// values trade the durability of up to `every - 1` most-recent acks
    /// for latency (the measured trade-off lives in EXPERIMENTS.md).
    pub fn set_group_commit(&mut self, every: u64) {
        self.group_commit = every.max(1);
    }

    /// Records appended since the last truncate (the replay backlog).
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// The file the log lives in.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record. With the default group-commit of 1 the record
    /// is on stable storage when this returns — the caller may ack.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the write or sync fails; the record must then
    /// be treated as not durable (do not ack).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        self.file
            .write_all(&record.encode())
            .map_err(StoreError::from)?;
        self.depth += 1;
        self.unsynced += 1;
        if self.unsynced >= self.group_commit {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces any group-committed tail to stable storage.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on fsync failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced > 0 {
            self.file.sync_all().map_err(StoreError::from)?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Resets the log to empty (magic only) after a successful store
    /// flush, through the same atomic-write path as every other durable
    /// artifact. On failure the old log (and handle) may be stale; the
    /// caller must stop appending until a truncate succeeds.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the rewrite or the append-handle reopen
    /// fails.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        atomic_write(&self.path, |out| {
            out.write_all(&WAL_MAGIC).map_err(StoreError::Io)
        })?;
        self.depth = 0;
        self.unsynced = 0;
        // The rename replaced the inode the append handle points at.
        self.file = FaultFile::append(&self.path).map_err(StoreError::Io)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::faults;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn records(n: u32) -> Vec<WalRecord> {
        (0..n)
            .map(|i| WalRecord {
                u: i,
                v: i + 1,
                partition: i % 4,
            })
            .collect()
    }

    #[test]
    fn append_and_reopen_replays_in_order() {
        let _guard = faults::test_lock();
        let dir = temp_dir("rt");
        let (mut wal, replay) = PlacementWal::open(&dir).unwrap();
        assert!(replay.records.is_empty());
        for record in records(5) {
            wal.append(&record).unwrap();
        }
        assert_eq!(wal.depth(), 5);
        drop(wal);

        let (wal, replay) = PlacementWal::open(&dir).unwrap();
        assert_eq!(replay.records, records(5));
        assert_eq!(replay.torn_tail_bytes, 0);
        assert_eq!(wal.depth(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let _guard = faults::test_lock();
        let dir = temp_dir("torn");
        let (mut wal, _) = PlacementWal::open(&dir).unwrap();
        for record in records(3) {
            wal.append(&record).unwrap();
        }
        drop(wal);
        // Simulate a crash mid-append: a partial fourth record.
        let path = dir.join(WAL_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &bytes).unwrap();

        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records, records(3));
        assert_eq!(replay.torn_tail_bytes, 7);

        // Opening for append truncates the tail on disk.
        let (wal, replay) = PlacementWal::open(&dir).unwrap();
        assert_eq!(replay.records, records(3));
        drop(wal);
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(len, WAL_MAGIC.len() + 3 * WAL_RECORD_LEN);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_in_full_record_is_a_typed_error() {
        let _guard = faults::test_lock();
        let dir = temp_dir("flip");
        let (mut wal, _) = PlacementWal::open(&dir).unwrap();
        for record in records(3) {
            wal.append(&record).unwrap();
        }
        drop(wal);
        let path = dir.join(WAL_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the middle record.
        bytes[WAL_MAGIC.len() + WAL_RECORD_LEN + 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_wal(&path),
            Err(StoreError::ChecksumMismatch {
                section: "wal record",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let _guard = faults::test_lock();
        let dir = temp_dir("magic");
        let path = dir.join(WAL_NAME);
        std::fs::write(&path, b"NOTAWAL!plus more").unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::BadMagic { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_resets_the_log() {
        let _guard = faults::test_lock();
        let dir = temp_dir("trunc");
        let (mut wal, _) = PlacementWal::open(&dir).unwrap();
        for record in records(4) {
            wal.append(&record).unwrap();
        }
        wal.truncate().unwrap();
        assert_eq!(wal.depth(), 0);
        // The handle stays usable after the truncate's inode swap.
        wal.append(&WalRecord {
            u: 9,
            v: 10,
            partition: 1,
        })
        .unwrap();
        drop(wal);
        let (_, replay) = PlacementWal::open(&dir).unwrap();
        assert_eq!(
            replay.records,
            vec![WalRecord {
                u: 9,
                v: 10,
                partition: 1
            }]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_defers_the_sync() {
        let _guard = faults::test_lock();
        let dir = temp_dir("group");
        let (mut wal, _) = PlacementWal::open(&dir).unwrap();
        wal.set_group_commit(4);
        let (_, ops_grouped) = faults::count_ops(|| {
            for record in records(4) {
                wal.append(&record).unwrap();
            }
        });
        // 4 writes + exactly one sync (on the 4th append).
        assert_eq!(ops_grouped, 5);
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = PlacementWal::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
