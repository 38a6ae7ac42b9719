//! On-disk persistence of engine checkpoints (`checkpoint.tlpc`).
//!
//! One fixed-layout little-endian binary file per checkpoint directory,
//! replaced atomically after every completed round:
//!
//! ```text
//! magic      8 bytes  "TLPCKPT\x02"
//! seed       u64
//! partitions u64
//! next_round u32      (+ 4 reserved bytes)
//! rng_state  4 x u64
//! vertices   u64
//! edges      u64      = m
//! graph      u64      fingerprint of the edge list
//! switch     u8       0 modularity, 1 edge ratio, 2 Stage I only, 3 Stage II only
//! reseed     u8       0 reseed, 1 break (+ 6 reserved bytes)
//! ratio      f64      the edge ratio R (0 for the other switches)
//! assignment m x u32
//! allocated  ceil(m/8) bytes, bit e = edge e assigned (LSB-first)
//! checksum   u64      FNV-1a over everything above
//! ```
//!
//! The assignment array alone cannot distinguish "edge unassigned" from
//! "edge in partition 0", hence the separate allocated bitmap. Writes go
//! through [`crate::atomic_write`], so a crash mid-checkpoint leaves the
//! previous round's file; a torn or flipped file fails the trailing
//! checksum and surfaces as a typed [`StoreError`], never as a bogus
//! resume state.
//!
//! Format 1 (`TLPCKPT\x01`) did not record the stage switch, the reseed
//! policy or the graph fingerprint, so nothing could check that a resume
//! ran under the snapshot's own rules. Such files are rejected with
//! [`StoreError::UnsupportedVersion`] `{ found: 1 }`: a checkpoint only
//! shortens one interrupted run, and restarting that run is always sound.

use crate::atomic::atomic_write;
use crate::faults::FaultFile;
use crate::format::{check_magic, checksummed, le_u32, le_u64, seal};
use crate::StoreError;
use std::io::{Read, Write};
use std::path::Path;
use tlp_core::{EngineCheckpoint, ReseedPolicy, StageSwitch};

/// File name of the checkpoint inside a checkpoint directory.
pub const CHECKPOINT_NAME: &str = "checkpoint.tlpc";

/// Magic prefix of a checkpoint file.
const CHECKPOINT_MAGIC: [u8; 8] = *b"TLPCKPT\x02";

/// Magic prefix of a format-1 checkpoint file, which is no longer read.
const CHECKPOINT_MAGIC_V1: [u8; 8] = *b"TLPCKPT\x01";

/// Fixed-size prefix before the assignment array.
const FIXED_LEN: usize = 8 + 8 + 8 + 4 + 4 + 32 + 8 + 8 + 8 + 8 + 8;

/// The on-disk `(switch tag, ratio)` of a stage switch.
fn encode_switch(switch: StageSwitch) -> (u8, f64) {
    match switch {
        StageSwitch::Modularity => (0, 0.0),
        StageSwitch::EdgeRatio(ratio) => (1, ratio),
        StageSwitch::StageOneOnly => (2, 0.0),
        StageSwitch::StageTwoOnly => (3, 0.0),
    }
}

fn decode_switch(tag: u8, ratio: f64) -> Result<StageSwitch, StoreError> {
    Ok(match tag {
        0 => StageSwitch::Modularity,
        1 => StageSwitch::EdgeRatio(ratio),
        2 => StageSwitch::StageOneOnly,
        3 => StageSwitch::StageTwoOnly,
        _ => {
            return Err(StoreError::Corrupt(format!(
                "checkpoint stage switch tag {tag}"
            )))
        }
    })
}

fn decode_reseed(tag: u8) -> Result<ReseedPolicy, StoreError> {
    match tag {
        0 => Ok(ReseedPolicy::Reseed),
        1 => Ok(ReseedPolicy::Break),
        _ => Err(StoreError::Corrupt(format!(
            "checkpoint reseed policy tag {tag}"
        ))),
    }
}

/// Serialized byte length of `ckpt`.
fn encoded_len(num_edges: usize) -> usize {
    FIXED_LEN + 4 * num_edges + num_edges.div_ceil(8) + 8
}

/// Writes `ckpt` to `dir/checkpoint.tlpc`, atomically replacing any
/// previous checkpoint.
///
/// # Errors
///
/// [`StoreError::Io`] on write failures (the previous checkpoint, if any,
/// survives them).
pub fn write_checkpoint(dir: &Path, ckpt: &EngineCheckpoint) -> Result<(), StoreError> {
    tlp_obs::counter("checkpoint.write", 1);
    std::fs::create_dir_all(dir).map_err(StoreError::Io)?;
    let mut bytes = Vec::with_capacity(encoded_len(ckpt.num_edges));
    bytes.extend_from_slice(&CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&ckpt.seed.to_le_bytes());
    bytes.extend_from_slice(&(ckpt.num_partitions as u64).to_le_bytes());
    bytes.extend_from_slice(&ckpt.next_round.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 4]);
    for word in ckpt.rng_state {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes.extend_from_slice(&(ckpt.num_vertices as u64).to_le_bytes());
    bytes.extend_from_slice(&(ckpt.num_edges as u64).to_le_bytes());
    bytes.extend_from_slice(&ckpt.graph_fingerprint.to_le_bytes());
    let (switch, ratio) = encode_switch(ckpt.stage_switch);
    let reseed = match ckpt.reseed_policy {
        ReseedPolicy::Reseed => 0u8,
        ReseedPolicy::Break => 1,
    };
    bytes.extend_from_slice(&[switch, reseed, 0, 0, 0, 0, 0, 0]);
    bytes.extend_from_slice(&ratio.to_bits().to_le_bytes());
    for &pid in &ckpt.assignment {
        bytes.extend_from_slice(&pid.to_le_bytes());
    }
    let mut bitmap = vec![0u8; ckpt.num_edges.div_ceil(8)];
    for (e, &alloc) in ckpt.allocated.iter().enumerate() {
        if alloc {
            bitmap[e / 8] |= 1 << (e % 8);
        }
    }
    bytes.extend_from_slice(&bitmap);
    bytes.extend_from_slice(&[0u8; 8]);
    seal(&mut bytes);

    atomic_write(&dir.join(CHECKPOINT_NAME), |out| {
        out.write_all(&bytes).map_err(StoreError::Io)
    })
}

/// Reads the checkpoint in `dir`, if one exists.
///
/// Returns `Ok(None)` when no checkpoint file is present (a fresh run).
///
/// # Errors
///
/// [`StoreError::BadMagic`], [`StoreError::Truncated`],
/// [`StoreError::ChecksumMismatch`], or [`StoreError::Corrupt`] for a
/// damaged file; [`StoreError::UnsupportedVersion`] for a format-1 file;
/// [`StoreError::Io`] for unreadable ones.
pub fn read_checkpoint(dir: &Path) -> Result<Option<EngineCheckpoint>, StoreError> {
    let path = dir.join(CHECKPOINT_NAME);
    let mut file = match FaultFile::open(&path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(StoreError::Io)?;

    if bytes.starts_with(&CHECKPOINT_MAGIC_V1) {
        return Err(StoreError::UnsupportedVersion { found: 1 });
    }
    if bytes.len() < FIXED_LEN + 8 {
        return Err(StoreError::Truncated { what: "checkpoint" });
    }
    check_magic(&bytes, &CHECKPOINT_MAGIC)?;
    checksummed(&bytes, "checkpoint")?;

    let num_edges = le_u64(&bytes, 72) as usize;
    if bytes.len() != encoded_len(num_edges) {
        return Err(StoreError::Corrupt(format!(
            "checkpoint is {} bytes, {} edges imply {}",
            bytes.len(),
            num_edges,
            encoded_len(num_edges)
        )));
    }
    let bitmap = &bytes[FIXED_LEN + 4 * num_edges..bytes.len() - 8];
    Ok(Some(EngineCheckpoint {
        seed: le_u64(&bytes, 8),
        stage_switch: decode_switch(bytes[88], f64::from_bits(le_u64(&bytes, 96)))?,
        reseed_policy: decode_reseed(bytes[89])?,
        num_partitions: le_u64(&bytes, 16) as usize,
        next_round: le_u32(&bytes, 24),
        rng_state: std::array::from_fn(|i| le_u64(&bytes, 32 + 8 * i)),
        assignment: bytes[FIXED_LEN..FIXED_LEN + 4 * num_edges]
            .chunks_exact(4)
            .map(|pid| le_u32(pid, 0))
            .collect(),
        allocated: (0..num_edges)
            .map(|e| bitmap[e / 8] & (1 << (e % 8)) != 0)
            .collect(),
        num_vertices: le_u64(&bytes, 64) as usize,
        num_edges,
        graph_fingerprint: le_u64(&bytes, 80),
    }))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::faults;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> EngineCheckpoint {
        EngineCheckpoint {
            seed: 99,
            stage_switch: StageSwitch::EdgeRatio(0.3),
            reseed_policy: ReseedPolicy::Break,
            num_partitions: 8,
            next_round: 3,
            rng_state: [11, 22, 33, 44],
            assignment: vec![0, 2, 1, 0, 2, 1, 0, 0, 1],
            allocated: vec![true, true, true, false, true, true, false, false, true],
            num_vertices: 12,
            num_edges: 9,
            graph_fingerprint: 0x0123_4567_89ab_cdef,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let _guard = faults::test_lock();
        let dir = temp_dir("rt");
        let ckpt = sample();
        write_checkpoint(&dir, &ckpt).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap().unwrap(), ckpt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_stage_switch_and_reseed_policy_roundtrips() {
        let _guard = faults::test_lock();
        let dir = temp_dir("switch");
        let mut ckpt = sample();
        for switch in [
            StageSwitch::Modularity,
            StageSwitch::EdgeRatio(0.0),
            StageSwitch::EdgeRatio(0.7),
            StageSwitch::StageOneOnly,
            StageSwitch::StageTwoOnly,
        ] {
            for reseed in [ReseedPolicy::Reseed, ReseedPolicy::Break] {
                ckpt.stage_switch = switch;
                ckpt.reseed_policy = reseed;
                write_checkpoint(&dir, &ckpt).unwrap();
                assert_eq!(read_checkpoint(&dir).unwrap().unwrap(), ckpt);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let _guard = faults::test_lock();
        let dir = temp_dir("none");
        assert!(read_checkpoint(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let _guard = faults::test_lock();
        let dir = temp_dir("flip");
        write_checkpoint(&dir, &sample()).unwrap();
        let path = dir.join(CHECKPOINT_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&dir).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_typed() {
        let _guard = faults::test_lock();
        let dir = temp_dir("trunc");
        write_checkpoint(&dir, &sample()).unwrap();
        let path = dir.join(CHECKPOINT_NAME);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = read_checkpoint(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::ChecksumMismatch { .. }
            ),
            "unexpected error {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_previous_checkpoint() {
        let _guard = faults::test_lock();
        let dir = temp_dir("rw");
        let mut ckpt = sample();
        write_checkpoint(&dir, &ckpt).unwrap();
        ckpt.next_round = 4;
        ckpt.allocated[3] = true;
        ckpt.assignment[3] = 3;
        write_checkpoint(&dir, &ckpt).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap().unwrap(), ckpt);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
