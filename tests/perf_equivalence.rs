//! Equivalence guarantees behind the hot-path performance pass: every
//! fast path must be *indistinguishable* from the slow path it replaced.
//!
//! - batched views answer bit-identically to N single views, and the
//!   array's pools to the maps copied out of them, driven by the same seed
//!   corpus the simulation-check harness gates on (`tests/corpus/seeds.txt`);
//! - the store's binary shard and summary decode yields exactly the maps
//!   that were encoded, and exactly what the JSON decode of the same maps
//!   yields, on every shard of that corpus;
//! - what the DFS derives at write time — each block's size table, the
//!   per-block range profile — answers exactly like the record scan it
//!   replaced, and a query path given nothing else gives the same answers;
//! - compact JSON appended straight to the buffer (`Serialize::write_json`)
//!   is, for every product type whose bytes are checksummed, digested or
//!   compared, the compact print of the value's tree.

use datanet::store::BlockSummary;
use datanet::{
    checkpoint, plan_balanced_batch, ElasticMapArray, FordFulkersonPlanner, MetaStore, Separation,
    SubDatasetView,
};
use datanet_analytics::{word_count_profile, Pipeline, PipelineEnv, ShuffleParams, WorkingState};
use datanet_check::Scenario;
use datanet_dfs::{key_range_of, Block, Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_integration::testkit::{write_v3_ingest_store, ReplicaDirs};
use datanet_mapreduce::{
    apportion, range_matrix_estimate, range_matrix_truth, run_analysis_shuffled, run_selection,
    AnalysisConfig, DataNetScheduler, LocalityScheduler, SelectionConfig, ShufflePlanner,
};
use datanet_obs::Recorder;
use datanet_serve::{
    generate_stream, serve, ScriptedEvent, ServeConfig, ServeEvent, StreamConfig, TenantMix, World,
};
use serde::Serialize;
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
        // unsorted order: everything the batched chain walk must handle.
        let mut ids: Vec<SubDatasetId> = (0..24).map(SubDatasetId).collect();
        ids.push(SubDatasetId(u64::MAX - seed));
        ids.push(SubDatasetId(3));
        ids.reverse();
        let batched = arr.views(&ids);
        assert_eq!(batched.len(), ids.len());
        for (s, view) in ids.iter().zip(&batched) {
            let single = arr.view(*s);
            assert_eq!(view, &single, "seed {seed}: batched view for {s} diverges");
        }
    }
}

#[test]
fn per_block_query_batch_matches_single_queries_across_the_corpus() {
    // One level below views: the raw membership/size primitive, on the
    // array's pools and on the block's own map.
    for &seed in corpus_seeds().iter().take(20) {
        let dfs = dataset(seed);
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        let mut ids: Vec<SubDatasetId> = (0..40).map(|i| SubDatasetId(i * 3 % 50)).collect();
        ids.push(SubDatasetId(u64::MAX));
        for b in 0..arr.len() {
            let b = datanet_dfs::BlockId(b as u32);
            let map = arr.map(b);
            for &s in &ids {
                assert_eq!(
                    arr.query(b, s),
                    map.query(s),
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
        let maps = arr.to_maps();
        write_v3_ingest_store(&[json], &maps, &policy, shard_blocks);
        let first = |dir: &Path| std::fs::read(dir.join("shard-0000.json")).expect("shard 0");
        assert!(first(json).starts_with(b"[") && !first(binary).starts_with(b"["));

        // decode(encode(x)) = x = from_slice(to_vec(x)), in canonical JSON.
        let mut stores = [("binary", binary), ("json", json)]
            .map(|(encoding, dir)| (encoding, MetaStore::open(dir, 1).expect("open")));
        for (i, chunk) in maps.chunks(shard_blocks).enumerate() {
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

/// The records of `s` in `block`, read without its size table.
fn scan(block: &Block, s: SubDatasetId) -> impl Iterator<Item = &Record> {
    block.records().iter().filter(move |r| r.subdataset == s)
}

/// `range_matrix_truth` as it was before it read through `Block::filter`:
/// every record of every block.
fn all_records_truth(dfs: &Dfs, s: SubDatasetId, ranges: usize) -> Vec<Vec<u64>> {
    let mut matrix = vec![vec![0u64; ranges]; dfs.namenode().node_count()];
    for block in dfs.blocks() {
        let home = dfs.replicas(block.id())[0].index();
        for r in scan(block, s) {
            matrix[home][key_range_of(r.timestamp, ranges)] += u64::from(r.size);
        }
    }
    matrix
}

/// Every `(block, id)` lookup of the write-time size table against the
/// filter-and-sum over the block's records, for every id present in the
/// DFS plus absent ones; the two `Dfs` entry points built on it; and the
/// two record scans that skip the blocks it does not list (`Block::filter`
/// and `range_matrix_truth`) against the scans that read every record.
fn assert_tables_match_scans(dfs: &Dfs, what: &str) {
    let mut ids: Vec<SubDatasetId> = dfs
        .blocks()
        .iter()
        .flat_map(|b| b.records().iter().map(|r| r.subdataset))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let present = ids.len();
    ids.extend([u64::MAX, u64::MAX / 3, ids.len() as u64 + 1_000_000].map(SubDatasetId));
    let mut listed = 0;
    for block in dfs.blocks() {
        let table = block.subdataset_sizes();
        assert!(
            table.windows(2).all(|w| w[0].0 < w[1].0),
            "{what}: ids ascend"
        );
        listed += table.len();
        for &s in &ids {
            let scanned: u64 = scan(block, s).map(|r| u64::from(r.size)).sum();
            assert_eq!(
                block.subdataset_bytes(s),
                scanned,
                "{what}: {} {s}",
                block.id()
            );
            assert_eq!(table.iter().any(|&(id, _)| id == s), scanned > 0);
            assert!(
                block.filter(s).eq(scan(block, s)),
                "{what}: {} filters {s} differently",
                block.id()
            );
        }
    }
    for &s in ids.iter().take(present.min(12)).chain(&ids[present..]) {
        let scanned: Vec<u64> = dfs
            .blocks()
            .iter()
            .map(|b| scan(b, s).map(|r| u64::from(r.size)).sum())
            .collect();
        assert_eq!(dfs.subdataset_distribution(s), scanned, "{what}: {s}");
        assert_eq!(dfs.subdataset_total(s), scanned.iter().sum::<u64>());
    }
    for &s in &ids {
        for ranges in [7, 32] {
            assert_eq!(
                range_matrix_truth(dfs, s, ranges),
                all_records_truth(dfs, s, ranges),
                "{what}: sub-dataset {s} at {ranges} ranges"
            );
        }
    }
    assert!(listed >= dfs.block_count(), "{what}: no block is empty");
}

/// `range_matrix_estimate` as it was before the profile was kept: every
/// query re-buckets every record of every block the view weighs.
fn rebucketed_estimate(dfs: &Dfs, view: &SubDatasetView, ranges: usize) -> Vec<Vec<u64>> {
    let mut matrix = vec![vec![0u64; ranges]; dfs.namenode().node_count()];
    for block in dfs.blocks() {
        let weight = view.weight(block.id());
        if weight == 0 {
            continue;
        }
        let mut profile = vec![0u64; ranges];
        for r in block.records() {
            profile[key_range_of(r.timestamp, ranges)] += u64::from(r.size);
        }
        let home = dfs.replicas(block.id())[0].index();
        for (g, bytes) in apportion(weight, &profile).into_iter().enumerate() {
            matrix[home][g] += bytes;
        }
    }
    matrix
}

/// Split a DFS into the one written in a batch from its first half and the
/// records of the blocks still to be appended to it.
fn first_half(dfs: &Dfs) -> (Dfs, Vec<Vec<Record>>) {
    let half = dfs.block_count() / 2;
    let head = dfs.blocks()[..half]
        .iter()
        .flat_map(|b| b.records().to_vec());
    let tail = dfs.blocks()[half..].iter().map(|b| b.records().to_vec());
    let short = Dfs::write_random(dfs.config().clone(), head.collect::<Vec<_>>());
    assert_eq!(short.block_count(), half, "blocks re-seal where they did");
    (short, tail.collect())
}

#[test]
fn write_time_tables_and_range_profiles_match_the_record_scans() {
    let scenario_worlds = corpus_seeds().into_iter().step_by(4).map(|seed| {
        (
            format!("scenario {seed}"),
            Scenario::from_seed(seed).build_dfs(),
        )
    });
    let random_worlds = (0..6u64).map(|seed| (format!("dataset {seed}"), dataset(seed)));
    for (what, whole) in scenario_worlds.chain(random_worlds) {
        assert_tables_match_scans(&whole, &what);
        let (mut dfs, tail) = first_half(&whole);
        assert_tables_match_scans(&dfs, &what);

        let policy = Separation::Alpha(0.3);
        let ids: Vec<SubDatasetId> = (0..5).map(SubDatasetId).collect();
        let check = |dfs: &Dfs, when: &str| {
            for view in ElasticMapArray::build(dfs, &policy).views(&ids) {
                for ranges in [7, 32] {
                    assert_eq!(
                        range_matrix_estimate(dfs, &view, ranges),
                        rebucketed_estimate(dfs, &view, ranges),
                        "{what}, {when}: sub-dataset {} at {ranges} ranges",
                        view.id()
                    );
                }
            }
        };
        check(&dfs, "before the appends");
        // Both profiles exist now; the clone shares them and must keep
        // answering for the shorter DFS while the original grows.
        let short = dfs.clone();
        for records in tail {
            dfs.append_block(records);
        }
        assert_tables_match_scans(&dfs, &what);
        check(&dfs, "after the appends");
        check(&short, "on the clone taken before them");
        assert_tables_match_scans(&short, &what);
        assert_eq!(dfs.block_count(), whole.block_count());
        assert!(short.block_count() < dfs.block_count());
    }
}

/// ROADMAP item 2's `records_touched_per_op = 0`, as a product test: once
/// the write path has run (size tables, one range profile), the paper's
/// core request gives the same answers on a DFS whose payloads are gone.
#[test]
fn the_query_path_reads_no_record() {
    const RANGES: usize = 32;
    for seed in [1u64, 2, 3] {
        let dfs = dataset(seed);
        let array = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        dfs.range_profile(RANGES);
        let mut bare = dfs.clone();
        bare.drop_payloads();
        assert!(bare.blocks().iter().all(|b| b.records().is_empty()));
        assert_eq!(bare.total_bytes(), dfs.total_bytes());

        let ids: Vec<SubDatasetId> = (0..8).map(SubDatasetId).collect();
        let views = array.views(&ids);
        let (sel, ana, job) = (
            SelectionConfig::default(),
            AnalysisConfig::default(),
            word_count_profile(),
        );
        let request = |dfs: &Dfs| {
            let plans = plan_balanced_batch(dfs, &array, &ids);
            let target = &views[0];
            let optimal = FordFulkersonPlanner::new(dfs, target).plan();
            let truth = dfs.subdataset_distribution(ids[0]);
            let with = run_selection(dfs, &truth, &mut DataNetScheduler::new(dfs, target), &sel);
            let without = run_selection(dfs, &truth, &mut LocalityScheduler::new(dfs), &sel);
            let matrix = range_matrix_estimate(dfs, target, RANGES);
            let shuffle = ShufflePlanner::new(1.25).plan(&matrix);
            let report = run_analysis_shuffled(&matrix, &job, &ana, &shuffle);
            format!("{plans:?}|{optimal:?}|{truth:?}|{with:?}|{without:?}|{matrix:?}|{shuffle:?}|{report:?}")
        };
        assert_eq!(request(&bare), request(&dfs), "seed {seed}");
        assert!(
            dfs.subdataset_total(ids[0]) > 0,
            "seed {seed}: the target exists"
        );
    }
}

/// `to_string(x)` appends `x`'s JSON directly; it must be the compact print
/// of `x`'s tree, or a field type without a `write_json` of its own has
/// slipped in and every CRC and digest over the type has drifted with it.
fn assert_written_equals_built<T: Serialize>(x: &T, what: &str) {
    assert_eq!(
        serde_json::to_string(x).expect("written"),
        serde_json::to_string(&x.to_value()).expect("built"),
        "{what}: written JSON differs from the tree's"
    );
}

#[test]
fn product_types_write_the_json_their_trees_print() {
    for seed in corpus_seeds().into_iter().take(16) {
        let sc = Scenario::from_seed(seed);
        assert_written_equals_built(&sc, &format!("seed {seed}: Scenario"));
        let dfs = sc.build_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
        let ids: Vec<SubDatasetId> = (0..sc.subdatasets).map(SubDatasetId).collect();
        for (id, plan) in ids.iter().zip(plan_balanced_batch(&dfs, &arr, &ids)) {
            assert_written_equals_built(&plan, &format!("seed {seed}: Assignment of {id:?}"));
        }

        let pipe = Pipeline::new(sc.pipeline_spec());
        for rec in [Recorder::off(), Recorder::new()] {
            let what = format!("seed {seed}, recorder on: {}", rec.is_enabled());
            let mut env = PipelineEnv::new(&dfs, &arr);
            env.faults = sc.has_faults().then(|| sc.fault_config());
            env.shuffle = Some(ShuffleParams::default());
            let dirs = ReplicaDirs::new("written-built", 2);
            let report = pipe.run(&mut env, &dirs.paths(), &rec).expect("run");
            assert!(report
                .stages
                .iter()
                .all(|s| s.obs.is_some() == rec.is_enabled()));
            assert_written_equals_built(&report, &format!("{what}: PipelineReport"));
            for manifest in checkpoint::ledger(&dirs.paths()).expect("ledger") {
                assert_written_equals_built(&manifest, &format!("{what}: CheckpointManifest"));
            }
            let (_, payload) = checkpoint::resume(&dirs.paths())
                .expect("resume")
                .expect("the run committed");
            let state: WorkingState = serde_json::from_slice(&payload).expect("payload decodes");
            assert_written_equals_built(&state, &format!("{what}: WorkingState"));
            assert_eq!(
                serde_json::to_vec(&state).expect("written"),
                payload,
                "{what}"
            );
        }
    }

    let world = World::new(dataset(3), 20, Separation::Alpha(0.4), 3);
    let stream = generate_stream(&StreamConfig {
        tenants: 3,
        queries: 40,
        gap_us: 400,
        subdatasets: 20,
        mix: TenantMix::ALL[0],
        seed: 3,
    });
    let commit = ScriptedEvent {
        at_query: 20,
        event: ServeEvent::IngestCommit { blocks: 2 },
    };
    let cfg = ServeConfig::default();
    let answers = serve(world, &stream, &[commit], &cfg, &Recorder::off()).answers;
    assert!(answers.cache_misses > 0, "the stream must get plans served");
    assert_written_equals_built(&answers, "ServeAnswers");
}
