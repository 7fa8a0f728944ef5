//! Streaming-ingest integration: the incremental path must be
//! indistinguishable from a batch build no matter how blocks arrive, and
//! a store interrupted mid-ingest must resume from its last durable epoch
//! without redoing any work. (`tests/upgrade.rs` resumes a store an older
//! format version wrote.)

use datanet::{ElasticMapArray, IngestConfig, Ingestor, MetaStore, Separation};
use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_integration::testkit::{write_prefixes, ReplicaDirs};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const ALPHA: f64 = 0.35;

fn sample_dfs(seed: u64) -> Dfs {
    // Skewed sub-dataset mix across ~60 blocks: small ids dominate, the
    // tail exercises the bloom side of the separation.
    let recs = (0..2_400u64).map(|i| {
        let s = if i % 5 == 0 { i % 3 } else { 11 + i % 29 };
        Record::new(SubDatasetId(s), i, 80 + (i % 13) as u32 * 25, i)
    });
    Dfs::write_random(
        DfsConfig {
            block_size: 8_000,
            replication: 2,
            topology: Topology::single_rack(6),
            seed,
        },
        recs,
    )
}

fn cfg(compact_every: usize) -> IngestConfig {
    IngestConfig {
        policy: Separation::Alpha(ALPHA),
        compact_every,
        shard_blocks: 4,
    }
}

/// Property: any two arrival orders — with different compaction cadences —
/// produce query-identical (in fact byte-identical) maps once the stream
/// is fully compacted.
#[test]
fn arrival_order_is_immaterial_after_final_compaction() {
    let dfs = sample_dfs(41);
    assert!(dfs.block_count() >= 20, "need a real stream");
    let batch =
        serde_json::to_string(&ElasticMapArray::build(&dfs, &Separation::Alpha(ALPHA))).unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    for (trial, compact_every) in [(0u64, 1usize), (1, 3), (2, 7), (3, 1000)] {
        let mut order: Vec<usize> = (0..dfs.block_count()).collect();
        order.shuffle(&mut rng);
        let mut ing = Ingestor::new(cfg(compact_every));
        for (k, &i) in order.iter().enumerate() {
            ing.append(&dfs.blocks()[i], k as u64 * 100);
        }
        ing.compact();
        assert_eq!(
            ing.snapshot().len(),
            ing.blocks(),
            "trial {trial}: stream not drained"
        );
        assert_eq!(
            serde_json::to_string(&ing.snapshot()).unwrap(),
            batch,
            "trial {trial} (compact_every {compact_every}) diverged from the batch build"
        );
        // Spot-check the query surface too, not just the serialized form.
        for s in [0u64, 1, 2, 15, 900] {
            let s = SubDatasetId(s);
            assert_eq!(
                ing.view(s),
                ElasticMapArray::build(&dfs, &Separation::Alpha(ALPHA)).view(s),
                "trial {trial}: view({s}) diverged"
            );
        }
    }
}

/// A store left mid-ingest reopens at its last durable epoch and resumes
/// without re-summarizing any durable block.
#[test]
fn store_resumes_mid_ingest_without_resummarizing() {
    let dfs = sample_dfs(42);
    let dirs = ReplicaDirs::new("ingest-resume", 2);
    let refs = dirs.paths();
    let cut = dfs.block_count() * 2 / 3;

    let mut first = Ingestor::new(cfg(5));
    for b in &dfs.blocks()[..cut] {
        first.append(b, 0);
    }
    let epoch = first.commit(&refs).unwrap();
    assert_eq!(epoch, 1);
    drop(first); // the "crash": everything not committed is gone

    // The store on disk is a plain current-format store.
    let mut store = MetaStore::open_replicated(&refs, 2).unwrap();
    assert_eq!(store.manifest().version, 4, "the current format");
    assert_eq!(store.manifest().epoch, 1);
    assert_eq!(store.manifest().blocks, cut);
    store.view(SubDatasetId(0)).unwrap();

    // Resume adopts every durable block as-is.
    let mut resumed = Ingestor::resume(cfg(5), &refs).unwrap();
    assert_eq!(resumed.stats().resumed_blocks, cut as u64);
    assert_eq!(resumed.stats().summaries_built, 0, "work was redone");
    assert_eq!(resumed.blocks(), cut);
    for b in &dfs.blocks()[cut..] {
        resumed.append(b, 0);
    }
    assert_eq!(resumed.commit(&refs).unwrap(), 2);
    // Only the re-fed tail was summarized this session.
    assert_eq!(
        resumed.stats().summaries_built,
        (dfs.block_count() - cut) as u64
    );
    assert_eq!(
        serde_json::to_string(&resumed.snapshot()).unwrap(),
        serde_json::to_string(&ElasticMapArray::build(&dfs, &Separation::Alpha(ALPHA))).unwrap(),
        "resume lost equivalence with the batch build"
    );
}

/// Crash-prefix sweep, ingest side: a commit interrupted after *every*
/// write prefix of its plan resumes from whatever stayed durable, and
/// re-feeding the swallowed arrivals always converges back to the batch
/// build — the same sweep shape as the pipeline's checkpoint test, via
/// the shared `testkit` helpers.
#[test]
fn commit_crash_at_every_write_prefix_resumes_to_batch_equivalence() {
    let dfs = sample_dfs(44);
    let cut = dfs.block_count() / 2;
    let batch =
        serde_json::to_string(&ElasticMapArray::build(&dfs, &Separation::Alpha(ALPHA))).unwrap();

    // One probe commit to learn the plan width for this stream shape.
    let plan_writes = {
        let mut ing = Ingestor::new(cfg(5));
        for b in &dfs.blocks()[..cut] {
            ing.append(b, 0);
        }
        ing.commit_plan()
            .expect("pending work plans writes")
            .writes()
    };
    assert!(plan_writes >= 2, "sweep needs a multi-write plan");

    for prefix in write_prefixes(plan_writes) {
        let dirs = ReplicaDirs::new("ingest-sweep", 2);
        let refs = dirs.paths();
        let mut ing = Ingestor::new(cfg(5));
        for b in &dfs.blocks()[..cut] {
            ing.append(b, 0);
        }
        let plan = ing.commit_plan().expect("pending work plans writes");
        assert_eq!(plan.writes(), plan_writes, "plan width is deterministic");
        plan.apply_prefix(&refs, prefix).unwrap();
        drop(ing); // the "crash": nothing past the prefix survives

        let mut resumed = Ingestor::resume(cfg(5), &refs).unwrap();
        assert_eq!(
            resumed.stats().summaries_built,
            0,
            "prefix {prefix}: resume redid summary work"
        );
        assert!(
            resumed.blocks() <= cut,
            "prefix {prefix}: resume adopted more blocks than were fed"
        );
        for b in &dfs.blocks()[resumed.blocks()..] {
            resumed.append(b, 0);
        }
        resumed.commit(&refs).unwrap();
        assert_eq!(
            serde_json::to_string(&resumed.snapshot()).unwrap(),
            batch,
            "prefix {prefix}: resumed stream diverged from the batch build"
        );
    }
}

/// Committed epochs stay queryable through the store's time-travel entry
/// point after later epochs land, and answer with the views they froze.
#[test]
fn committed_epochs_time_travel_through_the_store() {
    let dfs = sample_dfs(43);
    let dirs = ReplicaDirs::new("ingest-travel", 2);
    let refs = dirs.paths();
    let target = SubDatasetId(1);
    let mut ing = Ingestor::new(cfg(4));
    let mut frozen = Vec::new();
    for (k, b) in dfs.blocks().iter().enumerate() {
        ing.append(b, k as u64 * 100);
        if (k + 1) % 8 == 0 {
            ing.compact();
            let epoch = ing.commit(&refs).unwrap();
            frozen.push((epoch, ing.blocks(), ing.view(target)));
        }
    }
    ing.commit(&refs).unwrap();
    assert!(frozen.len() >= 3, "need several epochs");
    for (epoch, blocks, want) in &frozen {
        let mut store = MetaStore::open_replicated_at_epoch(&refs, *epoch, 2).unwrap();
        assert_eq!(store.manifest().epoch, *epoch);
        assert_eq!(store.manifest().blocks, *blocks);
        assert_eq!(
            &store.view(target).unwrap(),
            want,
            "epoch {epoch} answers a different view than it froze"
        );
    }
}
