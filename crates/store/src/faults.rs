//! Deterministic fault injection for store I/O.
//!
//! Every file the store opens for reading or writing goes through
//! [`FaultFile`], a thin wrapper that consults a process-global injector
//! before each read/write operation. Unarmed (the default) the wrapper is a
//! single relaxed atomic load per operation; armed, it counts operations
//! and fires one scheduled [`FaultKind`] at the configured index:
//!
//! * **fail-stop faults** ([`FaultKind::Crash`], [`FaultKind::ShortWrite`],
//!   [`FaultKind::Enospc`]) — the operation (and every store I/O operation
//!   after it) fails, modelling a process killed or a disk running full
//!   mid-write. `ShortWrite` additionally lets a prefix of the buffer reach
//!   the file first, modelling a torn write.
//! * **silent corruption** ([`FaultKind::BitFlip`]) — one bit of the
//!   operation's buffer is flipped (position derived deterministically from
//!   the schedule seed) and the operation *succeeds*, modelling media
//!   corruption that only checksums can catch.
//!
//! Schedules are deterministic: the same [`FaultSchedule`] against the same
//! I/O sequence always fires at the same byte. The crash-point sweep test
//! uses this to place a fault at *every* operation index in turn and assert
//! that no torn or corrupt file is ever read back silently.
//!
//! The injector is process-global, so tests that arm it must serialize
//! (see [`test_lock`]).

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// What the injector does when the scheduled operation index is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright (as do all later ones): a fail-stop
    /// crash between two I/O operations.
    Crash,
    /// Half the buffer is written, then the operation fails (as do all
    /// later ones): a torn write followed by a crash.
    ShortWrite,
    /// The operation fails with `ENOSPC` (as do all later ones): the disk
    /// filled up mid-write.
    Enospc,
    /// One bit of the buffer is flipped and the operation succeeds: silent
    /// media corruption. Applies to both writes and reads.
    BitFlip,
}

/// A deterministic one-shot fault: fire `kind` at the `at_op`-th store I/O
/// operation (0-based), with `seed` choosing the flipped bit for
/// [`FaultKind::BitFlip`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSchedule {
    /// 0-based index of the operation the fault fires at.
    pub at_op: u64,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Seed for fault-internal randomness (bit position of a flip).
    pub seed: u64,
}

/// Injector state: armed flag + op counter + the schedule.
static ARMED: AtomicBool = AtomicBool::new(false);
static FAILED: AtomicBool = AtomicBool::new(false);
static OPS: AtomicU64 = AtomicU64::new(0);
static SCHEDULE: Mutex<Option<FaultSchedule>> = Mutex::new(None);

/// Serializes tests that arm the injector (it is process-global).
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Lock held by tests while the injector is armed, so concurrently running
/// tests do not observe each other's faults.
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms the injector with `schedule`, resetting the operation counter.
pub fn arm(schedule: FaultSchedule) {
    *SCHEDULE.lock().unwrap_or_else(|e| e.into_inner()) = Some(schedule);
    OPS.store(0, Ordering::SeqCst);
    FAILED.store(false, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the injector and returns the number of I/O operations observed
/// while armed.
pub fn disarm() -> u64 {
    ARMED.store(false, Ordering::SeqCst);
    FAILED.store(false, Ordering::SeqCst);
    *SCHEDULE.lock().unwrap_or_else(|e| e.into_inner()) = None;
    OPS.load(Ordering::SeqCst)
}

/// Counts the I/O operations `work` performs, without injecting anything.
/// Used by sweep tests to size their fault-index range.
pub fn count_ops<T>(work: impl FnOnce() -> T) -> (T, u64) {
    arm(FaultSchedule {
        at_op: u64::MAX,
        kind: FaultKind::Crash,
        seed: 0,
    });
    let out = work();
    (out, disarm())
}

/// SplitMix64 finalizer for deterministic in-fault randomness.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The action [`FaultFile`] must take for the current operation.
enum Action {
    /// Proceed normally.
    Pass,
    /// Flip the bit at this index (mod buffer length) and proceed.
    Flip(u64),
    /// Write only this many bytes, then fail.
    Short,
    /// Fail with this error.
    Fail(io::Error),
}

fn injected_error(kind: FaultKind) -> io::Error {
    match kind {
        // 28 = ENOSPC on every Unix the suite runs on.
        FaultKind::Enospc => io::Error::from_raw_os_error(28),
        _ => io::Error::other("injected fault: simulated crash"),
    }
}

/// Consults the injector for the next operation.
fn next_action() -> Action {
    if !ARMED.load(Ordering::Relaxed) {
        return Action::Pass;
    }
    if FAILED.load(Ordering::SeqCst) {
        // A fail-stop fault already fired: everything after it fails too.
        return Action::Fail(io::Error::other("injected fault: I/O after crash point"));
    }
    let op = OPS.fetch_add(1, Ordering::SeqCst);
    let Some(schedule) = *SCHEDULE.lock().unwrap_or_else(|e| e.into_inner()) else {
        return Action::Pass;
    };
    if op != schedule.at_op {
        return Action::Pass;
    }
    match schedule.kind {
        FaultKind::BitFlip => Action::Flip(mix(schedule.seed ^ op)),
        FaultKind::ShortWrite => {
            FAILED.store(true, Ordering::SeqCst);
            Action::Short
        }
        kind => {
            FAILED.store(true, Ordering::SeqCst);
            Action::Fail(injected_error(kind))
        }
    }
}

/// Consults the injector for an operation that moves no bytes (open,
/// create, sync): it can only pass or fail-stop.
fn gate() -> io::Result<()> {
    match next_action() {
        Action::Fail(e) => Err(e),
        // A torn-write schedule landing on a non-write operation still
        // fail-stops there (there is no buffer to tear).
        Action::Short => Err(io::Error::other("injected fault: simulated crash")),
        Action::Pass | Action::Flip(_) => Ok(()),
    }
}

/// A [`File`] that routes every read and write through the fault injector.
///
/// All store I/O (graph writer/reader, edge streams, partition segments,
/// checkpoints) is constructed through [`FaultFile::create`] /
/// [`FaultFile::open`], so a single armed schedule covers the whole
/// subsystem.
#[derive(Debug)]
pub struct FaultFile {
    inner: File,
}

impl FaultFile {
    /// Creates (truncating) a file for writing through the injector.
    ///
    /// # Errors
    ///
    /// Propagates [`File::create`] errors; an armed fail-stop schedule can
    /// also fail the creation itself (it counts as an operation).
    pub fn create(path: &Path) -> io::Result<FaultFile> {
        gate()?;
        Ok(FaultFile {
            inner: File::create(path)?,
        })
    }

    /// Opens (creating if absent) a file for appending through the
    /// injector. Used by the placement WAL, whose records must land after
    /// whatever already survived a crash.
    ///
    /// # Errors
    ///
    /// Propagates [`std::fs::OpenOptions::open`] errors; an armed
    /// fail-stop schedule can also fail the open itself.
    pub fn append(path: &Path) -> io::Result<FaultFile> {
        gate()?;
        Ok(FaultFile {
            inner: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        })
    }

    /// Opens a file for reading through the injector.
    ///
    /// # Errors
    ///
    /// Propagates [`File::open`] errors; an armed fail-stop schedule can
    /// also fail the open itself.
    pub fn open(path: &Path) -> io::Result<FaultFile> {
        gate()?;
        Ok(FaultFile {
            inner: File::open(path)?,
        })
    }

    /// Flushes file contents (and metadata) to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` errors; counts as an injectable operation.
    pub fn sync_all(&self) -> io::Result<()> {
        gate()?;
        tlp_obs::counter("store.fsync", 1);
        self.inner.sync_all()
    }

    /// Metadata of the underlying file.
    ///
    /// # Errors
    ///
    /// Propagates [`File::metadata`] errors.
    pub fn metadata(&self) -> io::Result<std::fs::Metadata> {
        self.inner.metadata()
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match next_action() {
            Action::Pass => self.inner.write(buf),
            Action::Flip(at) => {
                if buf.is_empty() {
                    return self.inner.write(buf);
                }
                let mut copy = buf.to_vec();
                let bit = (at % (copy.len() as u64 * 8)) as usize;
                copy[bit / 8] ^= 1 << (bit % 8);
                self.inner.write_all(&copy)?;
                Ok(buf.len())
            }
            Action::Short => {
                let half = buf.len() / 2;
                self.inner.write_all(&buf[..half])?;
                Err(io::Error::other("injected fault: torn write"))
            }
            Action::Fail(e) => Err(e),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Read for FaultFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match next_action() {
            Action::Pass => self.inner.read(buf),
            Action::Flip(at) => {
                let got = self.inner.read(buf)?;
                if got > 0 {
                    let bit = (at % (got as u64 * 8)) as usize;
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(got)
            }
            // Reads have no torn variant; a short schedule behaves as a
            // crash at this point.
            Action::Short | Action::Fail(_) => {
                Err(io::Error::other("injected fault: simulated crash"))
            }
        }
    }
}

impl Seek for FaultFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn temp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-faults-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn unarmed_files_behave_normally() {
        let _guard = test_lock();
        let dir = temp("plain");
        let path = dir.join("f");
        let mut f = FaultFile::create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.flush().unwrap();
        drop(f);
        let mut back = Vec::new();
        FaultFile::open(&path)
            .unwrap()
            .read_to_end(&mut back)
            .unwrap();
        assert_eq!(back, b"hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_fault_fails_the_scheduled_and_later_ops() {
        let _guard = test_lock();
        let dir = temp("crash");
        let path = dir.join("f");
        arm(FaultSchedule {
            at_op: 2, // create = op 0, first write = op 1
            kind: FaultKind::Crash,
            seed: 0,
        });
        let mut f = FaultFile::create(&path).unwrap();
        f.write_all(b"aa").unwrap();
        assert!(f.write_all(b"bb").is_err());
        assert!(f.write_all(b"cc").is_err(), "ops after the crash must fail");
        drop(f);
        let ops = disarm();
        assert!(ops >= 3);
        assert_eq!(std::fs::read(&path).unwrap(), b"aa");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_leaves_a_prefix() {
        let _guard = test_lock();
        let dir = temp("short");
        let path = dir.join("f");
        arm(FaultSchedule {
            at_op: 1,
            kind: FaultKind::ShortWrite,
            seed: 0,
        });
        let mut f = FaultFile::create(&path).unwrap();
        assert!(f.write_all(b"abcdefgh").is_err());
        drop(f);
        disarm();
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_fault_carries_the_os_error() {
        let _guard = test_lock();
        let dir = temp("enospc");
        let path = dir.join("f");
        arm(FaultSchedule {
            at_op: 1,
            kind: FaultKind::Enospc,
            seed: 0,
        });
        let mut f = FaultFile::create(&path).unwrap();
        let err = f.write_all(b"x").unwrap_err();
        disarm();
        assert_eq!(err.raw_os_error(), Some(28));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit_and_succeeds() {
        let _guard = test_lock();
        let dir = temp("flip");
        let path = dir.join("f");
        arm(FaultSchedule {
            at_op: 1,
            kind: FaultKind::BitFlip,
            seed: 7,
        });
        let mut f = FaultFile::create(&path).unwrap();
        f.write_all(&[0u8; 16]).unwrap();
        drop(f);
        disarm();
        let back = std::fs::read(&path).unwrap();
        let ones: u32 = back.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit must differ");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn count_ops_reports_and_injects_nothing() {
        let _guard = test_lock();
        let dir = temp("count");
        let path = dir.join("f");
        let (result, ops) = count_ops(|| {
            let mut f = FaultFile::create(&path)?;
            f.write_all(b"abc")?;
            f.write_all(b"def")?;
            Ok::<(), io::Error>(())
        });
        result.unwrap();
        assert_eq!(ops, 3); // create + 2 writes
        assert_eq!(std::fs::read(&path).unwrap(), b"abcdef");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_bit_flip_corrupts_the_read_buffer() {
        let _guard = test_lock();
        let dir = temp("rflip");
        let path = dir.join("f");
        std::fs::write(&path, [0u8; 8]).unwrap();
        arm(FaultSchedule {
            at_op: 1, // open = op 0
            kind: FaultKind::BitFlip,
            seed: 3,
        });
        let mut buf = [0u8; 8];
        let mut f = FaultFile::open(&path).unwrap();
        f.read_exact(&mut buf).unwrap();
        disarm();
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
