//! Equivalence guarantees behind the hot-path performance pass: every
//! fast path must be *indistinguishable* from the slow path it replaced.
//!
//! - `query_batch` / batched views answer bit-identically to N single
//!   queries, driven by the same seed corpus the simulation-check
//!   harness gates on (`tests/corpus/seeds.txt`);
//! - the store's binary shard and summary decode yields exactly the maps
//!   that were encoded, and exactly what the JSON decode of the same maps
//!   yields, on every shard of that corpus.

use datanet::store::BlockSummary;
use datanet::{ElasticMapArray, MetaStore, Separation};
use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_integration::testkit::{write_v3_ingest_store, ReplicaDirs};
use std::path::Path;

/// A deterministic dataset whose shape (records, sub-dataset skew, block
/// size, cluster) is derived from `seed` — small enough to build in
/// milliseconds, varied enough to exercise shard boundaries, dominant/tail
/// splits and absent ids.
fn dataset(seed: u64) -> Dfs {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let records = 1500 + (next() % 2500) as usize;
    let spread = 20 + (next() % 120);
    let recs: Vec<Record> = (0..records as u64)
        .map(|i| {
            // Quadratic residues give a skewed, clustered id distribution.
            let s = (i.wrapping_mul(i).wrapping_add(next() % 7)) % spread;
            Record::new(SubDatasetId(s), i, (80 + (next() % 200)) as u32, i)
        })
        .collect();
    let cfg = DfsConfig {
        block_size: 4_000 + (next() % 12_000),
        replication: 2,
        topology: Topology::single_rack(3 + (next() % 6) as u32),
        seed: next(),
    };
    Dfs::write_random(cfg, recs)
}

fn corpus_seeds() -> Vec<u64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/seeds.txt");
    std::fs::read_to_string(path)
        .expect("sim-check corpus present")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus seed"))
        .collect()
}

#[test]
fn batched_views_match_single_views_across_the_simcheck_corpus() {
    let seeds = corpus_seeds();
    assert!(seeds.len() >= 50, "corpus unexpectedly small");
    for &seed in &seeds {
        let dfs = dataset(seed);
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        // Present ids (dense low range), absent ids, duplicates, and an
        // unsorted order: everything the batched merge-join must handle.
        let mut ids: Vec<SubDatasetId> = (0..24).map(SubDatasetId).collect();
        ids.push(SubDatasetId(u64::MAX - seed));
        ids.push(SubDatasetId(3));
        ids.reverse();
        let batched = arr.views(&ids);
        assert_eq!(batched.len(), ids.len());
        for (s, view) in ids.iter().zip(&batched) {
            let single = arr.view(*s);
            let a = serde_json::to_string(view).expect("serialise");
            let b = serde_json::to_string(&single).expect("serialise");
            assert_eq!(a, b, "seed {seed}: batched view for {s} diverges");
        }
    }
}

#[test]
fn per_block_query_batch_matches_single_queries_across_the_corpus() {
    // One level below views: the raw membership/size primitive.
    for &seed in corpus_seeds().iter().take(20) {
        let dfs = dataset(seed);
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        let mut ids: Vec<SubDatasetId> = (0..40).map(|i| SubDatasetId(i * 3 % 50)).collect();
        ids.push(SubDatasetId(u64::MAX));
        for b in 0..arr.len() {
            let b = datanet_dfs::BlockId(b as u32);
            let batch = arr.query_batch(b, &ids);
            for (s, got) in ids.iter().zip(&batch) {
                assert_eq!(
                    *got,
                    arr.query(b, *s),
                    "seed {seed}: block {b} id {s} diverges"
                );
            }
        }
    }
}

#[test]
fn store_shard_decode_matches_the_tree_decode_across_the_corpus() {
    let text = |v: serde_json::Result<String>| v.expect("serialise");
    for &seed in &corpus_seeds() {
        let dfs = dataset(seed);
        let policy = match seed % 3 {
            0 => Separation::Alpha(0.3),
            1 => Separation::Threshold { min_bytes: 600 },
            _ => Separation::All,
        };
        let arr = ElasticMapArray::build(&dfs, &policy);
        let shard_blocks = 1 + (seed % 5) as usize;
        // The store as this build writes it, and the same maps as format
        // version 3 wrote them: JSON arrays under a `version: 3` manifest.
        let dirs = ReplicaDirs::new("binary-json", 2);
        let (binary, json) = (dirs.paths()[0], dirs.paths()[1]);
        MetaStore::save(&arr, binary, shard_blocks).expect("save");
        write_v3_ingest_store(&[json], arr.maps(), &policy, shard_blocks);
        let first = |dir: &Path| std::fs::read(dir.join("shard-0000.json")).expect("shard 0");
        assert!(first(json).starts_with(b"[") && !first(binary).starts_with(b"["));

        // decode(encode(x)) = x = from_slice(to_vec(x)), in canonical JSON.
        let mut stores = [("binary", binary), ("json", json)]
            .map(|(encoding, dir)| (encoding, MetaStore::open(dir, 1).expect("open")));
        for (i, chunk) in arr.maps().chunks(shard_blocks).enumerate() {
            let summaries: Vec<BlockSummary> = chunk.iter().map(BlockSummary::of).collect();
            let want = (
                text(serde_json::to_string(&chunk)),
                text(serde_json::to_string(&summaries)),
            );
            for (encoding, store) in &mut stores {
                let got = (
                    text(serde_json::to_string(
                        &store.shard(i).expect("shard decode"),
                    )),
                    text(serde_json::to_string(
                        &store.summary(i).expect("summary decode"),
                    )),
                );
                assert!(
                    got == want,
                    "seed {seed}: {encoding} shard or summary {i} decodes differently"
                );
            }
        }
    }
}
