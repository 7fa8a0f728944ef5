//! Crash-safe pipeline checkpoints, replicated next to the MetaStore.
//!
//! The pipeline executor (`datanet-analytics`) persists one checkpoint per
//! completed stage as one [`WritePlan`], the write path streaming-ingest
//! epochs ([`crate::CommitPlan`]) and store saves share:
//!
//! 1. the stage's **payload** (`stage-NNNN.json`, the serialized working
//!    state, CRC-32 checksummed),
//! 2. the **immutable per-stage manifest**
//!    (`pipeline-manifest-eNNNN.json`, carrying
//!    `last_completed_operation` + the payload CRC),
//! 3. the **live manifest** (`pipeline.json`) — written LAST.
//!
//! A crash after any prefix of the writes leaves the previous stage fully
//! durable: the live manifest still points at it, and its payload +
//! immutable manifest are untouched.

use crate::store::{crc32, nothing_durable, read_manifest, StoreError, WritePlan};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// Checkpoint format version (independent of the MetaStore shard format).
pub(crate) const CHECKPOINT_VERSION: u32 = 1;

/// Name of the live manifest — the commit point of every checkpoint.
pub(crate) const LIVE_MANIFEST: &str = "pipeline.json";

/// Payload file of stage `seq` (the serialized working state after it ran).
pub(crate) fn payload_file(seq: u64) -> String {
    format!("stage-{seq:04}.json")
}

/// Immutable manifest of stage `seq` (never rewritten once durable; the
/// audit ledger for the checkpoint-monotonicity oracle).
pub(crate) fn manifest_file(seq: u64) -> String {
    format!("pipeline-manifest-e{seq:04}.json")
}

/// Durable record of one completed pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Pipeline this checkpoint belongs to (mismatch ⇒ refuse to resume).
    pub pipeline: String,
    /// Index of the last stage whose output is durable (0-based).
    pub last_completed_operation: u64,
    /// Human-readable stage label (`filter(s=3)`, `aggregate(WordCount)`…).
    pub label: String,
    /// CRC-32 of the stage payload file.
    pub payload_crc: u32,
    /// Checkpoint format version.
    pub version: u32,
}

/// A stage's serialized working state and its CRC-32, made together: a
/// stage that leaves the state alone re-commits the previous stage's
/// payload, bytes and checksum both, without a copy or a second pass.
#[derive(Debug, Clone)]
pub struct Payload {
    bytes: Arc<Vec<u8>>,
    crc: u32,
}

impl Payload {
    /// CRC-32 of the bytes.
    pub fn crc(&self) -> u32 {
        self.crc
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Self {
            crc: crc32(&bytes),
            bytes: Arc::new(bytes),
        }
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// One stage checkpoint: the payload, then the immutable per-stage
/// manifest, then the live `pipeline.json`.
pub type CheckpointPlan = WritePlan<CheckpointManifest, Payload>;

impl CheckpointPlan {
    /// Plan the checkpoint for stage `seq` of `pipeline`, with the stage's
    /// serialized working state as payload.
    pub fn new(pipeline: &str, seq: u64, label: &str, payload: impl Into<Payload>) -> Self {
        let payload = payload.into();
        let manifest = CheckpointManifest {
            pipeline: pipeline.to_string(),
            last_completed_operation: seq,
            label: label.to_string(),
            payload_crc: payload.crc,
            version: CHECKPOINT_VERSION,
        };
        let data = vec![(payload_file(seq), payload)];
        WritePlan::of(manifest, data, Some(manifest_file(seq)), LIVE_MANIFEST)
    }

    /// Stage index this plan commits.
    pub fn seq(&self) -> u64 {
        self.manifest().last_completed_operation
    }
}

/// Read the live manifest and its payload, failing over across replicas and
/// verifying the payload CRC. `Ok(None)` means no checkpoint was ever
/// committed (no replica has a live manifest) — the pipeline starts fresh,
/// exactly like [`crate::ingest::Ingestor::resume`] on a store that crashed
/// before its first commit.
///
/// # Errors
/// [`StoreError::FutureVersion`] as soon as a replica's live manifest is
/// newer than this build; otherwise `Corrupt` when no replica yields a
/// manifest whose payload verifies.
pub fn resume(dirs: &[&Path]) -> Result<Option<(CheckpointManifest, Vec<u8>)>, StoreError> {
    if nothing_durable(dirs, LIVE_MANIFEST) {
        return Ok(None);
    }
    let mut last = String::from("no replica tried");
    for dir in dirs {
        let manifest: CheckpointManifest =
            match read_manifest(&dir.join(LIVE_MANIFEST), CHECKPOINT_VERSION) {
                Ok(m) => m,
                Err(e @ StoreError::FutureVersion { .. }) => return Err(e),
                Err(e) => {
                    last = format!("{}: {e}", dir.join(LIVE_MANIFEST).display());
                    continue;
                }
            };
        let payload = payload_file(manifest.last_completed_operation);
        for pdir in dirs {
            match fs::read(pdir.join(&payload)) {
                Ok(bytes) if crc32(&bytes) == manifest.payload_crc => {
                    return Ok(Some((manifest, bytes)));
                }
                Ok(_) => {
                    last = format!(
                        "{}: payload checksum mismatch",
                        pdir.join(&payload).display()
                    );
                }
                Err(e) => last = format!("{}: {e}", pdir.join(&payload).display()),
            }
        }
    }
    Err(StoreError::Corrupt {
        path: dirs
            .first()
            .map(|d| d.join(LIVE_MANIFEST))
            .unwrap_or_default(),
        detail: format!("no replica yields a consistent checkpoint: {last}"),
    })
}

/// The durable audit ledger: every immutable per-stage manifest found on any
/// replica, deduplicated and sorted by stage index. Used by the
/// checkpoint-monotonicity oracle — after an uninterrupted or resumed run
/// the ledger must be exactly `0..stages`, each CRC matching its payload.
pub fn ledger(dirs: &[&Path]) -> Result<Vec<CheckpointManifest>, StoreError> {
    let mut found: std::collections::BTreeMap<u64, CheckpointManifest> =
        std::collections::BTreeMap::new();
    for dir in dirs {
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("pipeline-manifest-e") || !name.ends_with(".json") {
                continue;
            }
            let m: CheckpointManifest = read_manifest(&entry.path(), CHECKPOINT_VERSION)?;
            found.entry(m.last_completed_operation).or_insert(m);
        }
    }
    Ok(found.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdirs(name: &str, n: usize) -> Vec<PathBuf> {
        (0..n)
            .map(|i| {
                let d = std::env::temp_dir().join(format!(
                    "datanet-ckpt-{}-{}-{}",
                    std::process::id(),
                    name,
                    i
                ));
                let _ = fs::remove_dir_all(&d);
                fs::create_dir_all(&d).unwrap();
                d
            })
            .collect()
    }

    fn refs(dirs: &[PathBuf]) -> Vec<&Path> {
        dirs.iter().map(PathBuf::as_path).collect()
    }

    #[test]
    fn fresh_dirs_resume_to_none() {
        let dirs = tmpdirs("fresh", 2);
        assert!(resume(&refs(&dirs)).unwrap().is_none());
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn full_apply_then_resume_restores_payload() {
        let dirs = tmpdirs("full", 2);
        let plan = CheckpointPlan::new("demo", 0, "filter(s=1)", b"state-0".to_vec());
        plan.apply(&refs(&dirs)).unwrap();
        let (m, payload) = resume(&refs(&dirs)).unwrap().unwrap();
        assert_eq!(m.last_completed_operation, 0);
        assert_eq!(m.pipeline, "demo");
        assert_eq!(payload, b"state-0");
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn every_crash_prefix_leaves_previous_stage_durable() {
        for prefix in 0..=3usize {
            let dirs = tmpdirs(&format!("prefix{prefix}"), 2);
            let r = refs(&dirs);
            CheckpointPlan::new("demo", 0, "filter", b"state-0".to_vec())
                .apply(&r)
                .unwrap();
            let plan1 = CheckpointPlan::new("demo", 1, "aggregate", b"state-1".to_vec());
            assert_eq!(plan1.writes(), 3);
            plan1.apply_prefix(&r, prefix).unwrap();
            let (m, payload) = resume(&r).unwrap().unwrap();
            if prefix == plan1.writes() {
                assert_eq!(m.last_completed_operation, 1);
                assert_eq!(payload, b"state-1");
            } else {
                assert_eq!(m.last_completed_operation, 0, "prefix {prefix}");
                assert_eq!(payload, b"state-0");
            }
            for d in &dirs {
                let _ = fs::remove_dir_all(d);
            }
        }
    }

    #[test]
    fn corrupt_payload_fails_over_to_healthy_replica() {
        let dirs = tmpdirs("failover", 2);
        let r = refs(&dirs);
        CheckpointPlan::new("demo", 0, "filter", b"state-0".to_vec())
            .apply(&r)
            .unwrap();
        fs::write(dirs[0].join(payload_file(0)), b"bitrot").unwrap();
        let (_, payload) = resume(&r).unwrap().unwrap();
        assert_eq!(payload, b"state-0");
        // Both replicas corrupt: resume must error, not return bad bytes.
        fs::write(dirs[1].join(payload_file(0)), b"bitrot").unwrap();
        assert!(resume(&r).is_err());
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn ledger_lists_stages_in_order_with_matching_crcs() {
        let dirs = tmpdirs("ledger", 2);
        let r = refs(&dirs);
        for seq in 0..3u64 {
            CheckpointPlan::new("demo", seq, "stage", format!("state-{seq}").into_bytes())
                .apply(&r)
                .unwrap();
        }
        let led = ledger(&r).unwrap();
        assert_eq!(led.len(), 3);
        for (i, m) in led.iter().enumerate() {
            assert_eq!(m.last_completed_operation, i as u64);
            let bytes = fs::read(dirs[0].join(payload_file(i as u64))).unwrap();
            assert_eq!(crc32(&bytes), m.payload_crc);
        }
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    /// A newer manifest is `FutureVersion`, never `Corrupt` — also when its
    /// fields are ones this build cannot decode, and in the ledger too.
    #[test]
    fn future_version_is_rejected() {
        let dirs = tmpdirs("future", 1);
        let r = refs(&dirs);
        let m = CheckpointManifest {
            pipeline: "demo".into(),
            last_completed_operation: 0,
            label: "x".into(),
            payload_crc: 0,
            version: CHECKPOINT_VERSION + 1,
        };
        let future = format!(
            r#"{{"version": {}, "pipeline": {{"id": 7}}, "stages": []}}"#,
            CHECKPOINT_VERSION + 1
        );
        for bytes in [serde_json::to_vec(&m).unwrap(), future.into_bytes()] {
            fs::write(dirs[0].join(LIVE_MANIFEST), &bytes).unwrap();
            fs::write(dirs[0].join(manifest_file(0)), &bytes).unwrap();
            let want = CHECKPOINT_VERSION + 1;
            match resume(&r) {
                Err(StoreError::FutureVersion { found, supported }) => {
                    assert_eq!((found, supported), (want, CHECKPOINT_VERSION))
                }
                other => panic!("expected FutureVersion, got {other:?}"),
            }
            assert!(matches!(
                ledger(&r),
                Err(StoreError::FutureVersion { found, .. }) if found == want
            ));
        }
        let _ = fs::remove_dir_all(&dirs[0]);
    }
}
