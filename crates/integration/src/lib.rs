//! Cross-crate integration tests live in `/tests`; runnable examples in
//! `/examples`. This crate wires them into the workspace build and hosts
//! the shared scaffolding they all lean on.

pub mod testkit {
    //! Shared scaffolding for the durable-store tests.
    //!
    //! Both the checkpointed-pipeline sweep (`tests/pipeline.rs`) and the
    //! streaming-ingest sweep (`tests/ingest.rs`) exercise the same shape
    //! of property: a commit plan of N ordered writes is interrupted
    //! after every prefix, and recovery must land in exactly the state
    //! the durable prefix implies. The prefix enumeration and the
    //! resume-point derivation used to be re-derived in each file; they
    //! live here once now.

    use datanet::store::{crc32, BlockSummary, Manifest};
    use datanet::{ElasticMap, Separation};
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Self-cleaning replica directories for one checkpoint or metadata
    /// store. Unique per instantiation (pid + sequence), removed on drop
    /// including the unwinding path, so a failing assertion leaks
    /// nothing into the temp dir.
    pub struct ReplicaDirs {
        base: PathBuf,
        dirs: Vec<PathBuf>,
    }

    impl ReplicaDirs {
        pub fn new(tag: &str, replicas: usize) -> Self {
            let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let base =
                std::env::temp_dir().join(format!("datanet-it-{tag}-{}-{seq}", std::process::id()));
            let _ = fs::remove_dir_all(&base);
            let dirs = (0..replicas)
                .map(|i| base.join(format!("replica-{i}")))
                .collect();
            Self { base, dirs }
        }

        pub fn paths(&self) -> Vec<&Path> {
            self.dirs.iter().map(PathBuf::as_path).collect()
        }
    }

    impl Drop for ReplicaDirs {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.base);
        }
    }

    /// Every crash point of a `writes`-write durable plan, in order:
    /// nothing landed, each proper prefix, and all writes landed. Sweep
    /// tests iterate this instead of hand-rolling `0..=n` bounds.
    pub fn write_prefixes(writes: usize) -> impl Iterator<Item = usize> {
        0..=writes
    }

    /// Where a checkpointed pipeline resumes after a crash `applied` of
    /// `planned` writes into `stage`: the full plan makes the crashed
    /// stage durable; any shorter prefix rolls back to the previous
    /// stage, or to a fresh run when the first stage was interrupted.
    pub fn expected_resume_from(stage: usize, applied: usize, planned: usize) -> Option<u64> {
        if applied == planned {
            Some(stage as u64)
        } else if stage > 0 {
            Some(stage as u64 - 1)
        } else {
            None
        }
    }

    /// What a format-version-3 ingestor left in `dirs` after committing
    /// `maps` as epoch 1, for the tests that read old stores: the payloads
    /// are JSON arrays — `shard-`/`summary-` files for the complete shards,
    /// the partial tail in `epoch-0001.json` (+ summary) — under the same
    /// `version: 3` manifest twice (`manifest-e0001.json`, `manifest.json`).
    pub fn write_v3_ingest_store(
        dirs: &[&Path],
        maps: &[ElasticMap],
        policy: &Separation,
        shard_blocks: usize,
    ) {
        let mut manifest = Manifest {
            blocks: maps.len(),
            shard_blocks,
            policy: policy.clone(),
            version: 3,
            shard_crc: Vec::new(),
            summary_crc: Vec::new(),
            epoch: 1,
            tail_crc: None,
            tail_summary_crc: None,
        };
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for (i, chunk) in maps.chunks(shard_blocks).enumerate() {
            let summaries: Vec<BlockSummary> = chunk.iter().map(BlockSummary::of).collect();
            let shard = serde_json::to_vec(&chunk).expect("serialise");
            let summary = serde_json::to_vec(&summaries).expect("serialise");
            if chunk.len() == shard_blocks {
                manifest.shard_crc.push(crc32(&shard));
                manifest.summary_crc.push(crc32(&summary));
                files.push((format!("shard-{i:04}.json"), shard));
                files.push((format!("summary-{i:04}.json"), summary));
            } else {
                manifest.tail_crc = Some(crc32(&shard));
                manifest.tail_summary_crc = Some(crc32(&summary));
                files.push(("epoch-0001.json".to_string(), shard));
                files.push(("epoch-0001-summary.json".to_string(), summary));
            }
        }
        let bytes = serde_json::to_vec_pretty(&manifest).expect("serialise");
        files.push(("manifest-e0001.json".to_string(), bytes.clone()));
        files.push(("manifest.json".to_string(), bytes));
        for dir in dirs {
            fs::create_dir_all(dir).expect("mkdir");
            for (name, bytes) in &files {
                fs::write(dir.join(name), bytes).expect("write");
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn prefix_sweep_covers_every_crash_point() {
            assert_eq!(write_prefixes(3).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
            assert_eq!(write_prefixes(0).collect::<Vec<_>>(), vec![0]);
        }

        #[test]
        fn resume_point_matches_the_durability_rule() {
            assert_eq!(expected_resume_from(2, 3, 3), Some(2));
            assert_eq!(expected_resume_from(2, 1, 3), Some(1));
            assert_eq!(expected_resume_from(0, 0, 3), None);
            assert_eq!(expected_resume_from(0, 3, 3), Some(0));
        }

        #[test]
        fn replica_dirs_clean_up_after_themselves() {
            let base;
            {
                let dirs = ReplicaDirs::new("selftest", 2);
                base = dirs.paths()[0].parent().unwrap().to_path_buf();
                for p in dirs.paths() {
                    fs::create_dir_all(p).unwrap();
                }
                assert!(base.exists());
            }
            assert!(!base.exists(), "drop must remove the tree");
        }
    }
}
