//! Old and mixed stores. Format version 3 wrote its shard payloads as JSON
//! arrays; this build writes them binary under a version-4 manifest and
//! tells the two apart per file. An ingest store resumed across the
//! upgrade therefore holds both — immutable JSON files from the old epochs
//! beside binary ones from the new — and every epoch must keep answering.
//! (`tests/compat.rs` holds the committed golden v2 store.)

use datanet::store::StoreError;
use datanet::{ElasticMapArray, IngestConfig, Ingestor, MetaStore, Separation};
use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_integration::testkit::{write_v3_ingest_store, ReplicaDirs};
use std::collections::BTreeMap;
use std::path::Path;

const SHARD_BLOCKS: usize = 4;
/// First bytes of a binary payload (`datanet::store`'s layout table).
const MAGIC: &[u8] = b"\x89DN4";

fn policy() -> Separation {
    Separation::Alpha(0.35)
}

fn sample_dfs() -> Dfs {
    let recs = (0..2_400u64).map(|i| {
        let s = if i % 5 == 0 { i % 3 } else { 11 + i % 29 };
        Record::new(SubDatasetId(s), i, 80 + (i % 13) as u32 * 25, i)
    });
    let cfg = DfsConfig {
        block_size: 8_000,
        replication: 2,
        topology: Topology::single_rack(6),
        seed: 43,
    };
    Dfs::write_random(cfg, recs)
}

fn files_of(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("replica directory")
        .map(|entry| {
            let entry = entry.expect("dirent");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read"))
        })
        .collect()
}

#[test]
fn v3_ingest_store_resumed_by_this_build_mixes_encodings_and_answers_at_every_epoch() {
    let dfs = sample_dfs();
    let batch = ElasticMapArray::build(&dfs, &policy());
    let cut = dfs.block_count() / 2 / SHARD_BLOCKS * SHARD_BLOCKS + 1;
    assert!(cut > SHARD_BLOCKS && cut + SHARD_BLOCKS < dfs.block_count());
    let dirs = ReplicaDirs::new("upgrade", 2);
    let refs = dirs.paths();
    let maps = batch.to_maps();
    write_v3_ingest_store(&refs, &maps[..cut], &policy(), SHARD_BLOCKS);
    let before = files_of(refs[0]);
    assert!(before.contains_key("epoch-0001.json") && before.contains_key("shard-0000.json"));

    let ids: Vec<SubDatasetId> = (0..45).chain([900, u64::MAX]).map(SubDatasetId).collect();
    let at_epoch_1 = ElasticMapArray::from_maps(maps[..cut].to_vec(), policy()).views(&ids);
    let mut old = MetaStore::open_replicated(&refs, 2).expect("v3 store opens");
    assert_eq!(old.manifest().version, 3);
    assert_eq!(old.views(&ids).expect("v3 views"), at_epoch_1);

    let cfg = IngestConfig {
        policy: policy(),
        compact_every: 5,
        shard_blocks: SHARD_BLOCKS,
    };
    let mut ing = Ingestor::resume(cfg, &refs).expect("resume the v3 store");
    assert_eq!(ing.stats().resumed_blocks, cut as u64);
    for b in &dfs.blocks()[cut..] {
        ing.append(b, 0);
    }
    assert_eq!(ing.commit(&refs).expect("commit"), 2);

    // One v4 manifest over both encodings: nothing old was rewritten,
    // everything new is binary.
    let after = files_of(refs[0]);
    let mut new_payloads = 0;
    for (name, bytes) in &after {
        match before.get(name) {
            Some(old) if name != "manifest.json" => assert!(old == bytes, "{name} was rewritten"),
            None if !name.starts_with("manifest") => {
                assert!(bytes.starts_with(MAGIC), "{name} is not binary");
                new_payloads += 1;
            }
            _ => {}
        }
    }
    assert!(new_payloads >= 4, "new shards, summaries and an epoch tail");
    assert!(before["shard-0000.json"].starts_with(b"[{"));

    let mut live = MetaStore::open_replicated(&refs, 2).expect("reopen");
    assert_eq!((live.manifest().version, live.manifest().epoch), (4, 2));
    assert_eq!(live.manifest().blocks, dfs.block_count());
    assert_eq!(
        live.views(&ids).expect("mixed views"),
        ing.snapshot().views(&ids)
    );
    assert_eq!(ing.snapshot().views(&ids), batch.views(&ids));
    let report = live.scrub();
    assert_eq!((report.repaired, report.summaries_repaired), (0, 0));
    assert!(report.quarantined.is_empty() && report.summaries_lost.is_empty());
    assert_eq!(live.health().checksum_failures, 0);

    // The pre-upgrade epoch still answers, JSON tail and all.
    let mut frozen = MetaStore::open_replicated_at_epoch(&refs, 1, 2).expect("epoch 1");
    assert_eq!(
        (frozen.manifest().version, frozen.manifest().blocks),
        (3, cut)
    );
    assert_eq!(frozen.views(&ids).expect("epoch 1 views"), at_epoch_1);

    // A manifest from a later build is refused by version, not as corrupt.
    let v5 = String::from_utf8(after["manifest.json"].clone())
        .expect("manifests are JSON")
        .replace("\"version\": 4", "\"version\": 5");
    for dir in &refs {
        std::fs::write(dir.join("manifest.json"), &v5).expect("write");
    }
    match MetaStore::open_replicated(&refs, 2) {
        Err(StoreError::FutureVersion {
            found: 5,
            supported: 4,
        }) => {}
        other => panic!("expected FutureVersion 5 > 4, got {other:?}"),
    }
}
