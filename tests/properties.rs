//! Property-style tests over the core data structures and algorithms:
//! invariants that must hold for *any* input, not just the calibrated
//! experiment datasets. Cases are generated from seeded RNG loops so runs
//! are deterministic and need no external property-testing framework.

use datanet::planner::BalancePolicy;
use datanet::{
    plan_aggregation, uniform_baseline_traffic, Algorithm1, BloomFilter, ElasticMap,
    ElasticMapArray, FordFulkersonPlanner, IngestConfig, Ingestor, MetaStore, Separation,
    ShardSource, SizeInfo, SubDatasetView,
};
use datanet_dfs::{Block, BlockId, Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_stats::GammaDist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// A random small block of records.
fn gen_block(rng: &mut StdRng) -> Block {
    let len = rng.gen_range(1..200);
    let records = (0..len)
        .map(|i| {
            Record::new(
                SubDatasetId(rng.gen_range(0u64..40)),
                i as u64,
                rng.gen_range(1u32..5_000),
                rng.gen::<u64>(),
            )
        })
        .collect();
    Block::new(BlockId(0), records)
}

/// A random tiny DFS.
fn gen_dfs(rng: &mut StdRng) -> Dfs {
    let record_count = rng.gen_range(20..400);
    let nodes = rng.gen_range(2u32..12);
    let replication = rng.gen_range(1usize..4);
    let seed = rng.gen::<u64>();
    let records: Vec<Record> = (0..record_count)
        .map(|i| {
            Record::new(
                SubDatasetId(rng.gen_range(0u64..20)),
                i as u64,
                rng.gen_range(50u32..500),
                i as u64,
            )
        })
        .collect();
    Dfs::write_random(
        DfsConfig {
            block_size: 2_000,
            replication,
            topology: Topology::single_rack(nodes),
            seed,
        },
        records,
    )
}

#[test]
fn bloom_filter_has_no_false_negatives() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + case);
        let len = rng.gen_range(1..500);
        let ids: std::collections::HashSet<u64> = (0..len).map(|_| rng.gen::<u64>()).collect();
        let mut f = BloomFilter::with_rate(ids.len(), 0.01);
        for &id in &ids {
            f.insert(SubDatasetId(id));
        }
        for &id in &ids {
            assert!(f.contains(SubDatasetId(id)), "case {case}: lost {id}");
        }
    }
}

#[test]
fn elasticmap_never_reports_present_as_absent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000 + case);
        let block = gen_block(&mut rng);
        let alpha = rng.gen_range(0.0f64..1.0);
        let map = ElasticMap::build(&block, &Separation::Alpha(alpha));
        for &(id, size) in block.subdataset_sizes().iter() {
            assert!(size > 0);
            assert_ne!(map.query(id), SizeInfo::Absent, "case {case}: lost {id}");
        }
    }
}

#[test]
fn elasticmap_exact_entries_are_ground_truth() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000 + case);
        let block = gen_block(&mut rng);
        let alpha = rng.gen_range(0.0f64..1.0);
        let map = ElasticMap::build(&block, &Separation::Alpha(alpha));
        for (id, size) in map.exact_entries() {
            let scanned: u64 = block
                .records()
                .iter()
                .filter(|r| r.subdataset == id)
                .map(|r| u64::from(r.size))
                .sum();
            assert_eq!(scanned, size, "case {case}");
        }
    }
}

#[test]
fn elasticmap_achieves_requested_alpha() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4000 + case);
        let block = gen_block(&mut rng);
        let alpha = rng.gen_range(0.0f64..1.0);
        let map = ElasticMap::build(&block, &Separation::Alpha(alpha));
        assert!(map.achieved_alpha() >= alpha - 1e-9, "case {case}");
        assert_eq!(
            map.distinct(),
            block.subdataset_sizes().len(),
            "case {case}"
        );
    }
}

#[test]
fn equation6_estimate_includes_all_exact_mass() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6000 + case);
        let dfs = gen_dfs(&mut rng);
        let s = rng.gen_range(0u64..20);
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        let view = arr.view(SubDatasetId(s));
        let exact_sum: u64 = view.exact().iter().map(|&(_, b)| b).sum();
        assert!(view.estimated_total() >= exact_sum, "case {case}");
        // Every τ1/τ2 block must really be a block of the DFS.
        for b in view.blocks() {
            assert!(b.index() < dfs.block_count(), "case {case}");
        }
    }
}

#[test]
fn algorithm1_assigns_scope_exactly_once() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7000 + case);
        let dfs = gen_dfs(&mut rng);
        let s = rng.gen_range(0u64..20);
        let literal = rng.gen_bool(0.5);
        let arr = ElasticMapArray::build(&dfs, &Separation::All);
        let view = arr.view(SubDatasetId(s));
        let policy = if literal {
            BalancePolicy::BestFitTerminal
        } else {
            BalancePolicy::PacedGreedy
        };
        let plan = Algorithm1::with_policy(dfs.namenode(), &view, policy).plan_balanced();
        assert_eq!(plan.assigned_blocks(), view.block_count(), "case {case}");
        let mut seen = std::collections::HashSet::new();
        for n in 0..plan.node_count() {
            for &b in plan.tasks_of(datanet_dfs::NodeId(n as u32)) {
                assert!(seen.insert(b), "case {case}: block {b:?} assigned twice");
            }
        }
        assert_eq!(
            plan.workloads().iter().sum::<u64>(),
            view.estimated_total(),
            "case {case}"
        );
    }
}

#[test]
fn ford_fulkerson_plans_are_local_and_complete() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x8000 + case);
        let dfs = gen_dfs(&mut rng);
        let s = rng.gen_range(0u64..20);
        let arr = ElasticMapArray::build(&dfs, &Separation::All);
        let view = arr.view(SubDatasetId(s));
        let plan = FordFulkersonPlanner::new(&dfs, &view).plan();
        assert_eq!(plan.assigned_blocks(), view.block_count(), "case {case}");
        for n in 0..plan.node_count() {
            for &b in plan.tasks_of(datanet_dfs::NodeId(n as u32)) {
                assert!(
                    dfs.namenode().is_local(b, datanet_dfs::NodeId(n as u32)),
                    "case {case}"
                );
            }
        }
        // Fractional optimum is a valid lower bound.
        let t = FordFulkersonPlanner::new(&dfs, &view).fractional_optimum();
        assert!(
            plan.max_workload() >= t || view.block_count() == 0,
            "case {case}"
        );
    }
}

#[test]
fn gamma_cdf_is_monotone_and_bounded() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9000 + case);
        let shape = rng.gen_range(0.1f64..20.0);
        let scale = rng.gen_range(0.1f64..50.0);
        let g = GammaDist::new(shape, scale);
        let mut prev = 0.0;
        for i in 0..50 {
            let x = i as f64 * scale;
            let c = g.cdf(x);
            assert!((0.0..=1.0).contains(&c), "case {case}");
            assert!(c >= prev - 1e-12, "case {case}");
            prev = c;
        }
    }
}

#[test]
fn aggregation_plan_is_valid_and_never_worse_than_uniform() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xa000 + case);
        let len = rng.gen_range(2..40);
        let outputs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..5_000_000)).collect();
        let reducer_frac = rng.gen_range(0.1f64..1.0);
        let skew = rng.gen_range(1.0f64..4.0);
        let reducers = ((outputs.len() as f64 * reducer_frac) as usize).clamp(1, outputs.len());
        let plan = plan_aggregation(&outputs, reducers, skew);
        plan.validate();
        assert!(plan.reduce_imbalance() <= skew + 1e-6, "case {case}");
        // Placement on the richest nodes can't lose to canonical placement
        // at the same reducer count with uniform shares.
        let naive = uniform_baseline_traffic(&outputs, reducers);
        let placed_uniform = plan_aggregation(&outputs, reducers, 1.0);
        assert!(placed_uniform.est_traffic <= naive, "case {case}");
        // Weighted shares can't exceed the placed-uniform traffic by more
        // than rounding.
        assert!(
            plan.est_traffic <= placed_uniform.est_traffic + reducers as u64,
            "case {case}"
        );
    }
}

#[test]
fn metastore_roundtrips_any_array() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xb000 + case);
        let dfs = gen_dfs(&mut rng);
        let shard = rng.gen_range(1usize..20);
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        let dir = std::env::temp_dir().join(format!("datanet-prop-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        MetaStore::save(&arr, &dir, shard).expect("save");
        let mut store = MetaStore::open(&dir, 2).expect("open");
        assert_eq!(store.manifest().blocks, arr.len(), "case {case}");
        for s in 0..20u64 {
            assert_eq!(
                store.view(SubDatasetId(s)).expect("view"),
                arr.view(SubDatasetId(s)),
                "case {case}"
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn replicated_store_answers_every_query_like_memory() {
    // save_replicated → open_replicated is a faithful round-trip: the
    // persisted store answers *every* membership and size query — all
    // blocks × all sub-datasets — identically to the in-memory array, and
    // every assembled view is equal too. Replication factor, shard size
    // and cache pressure vary per case; none may change an answer.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xe000 + case);
        let dfs = gen_dfs(&mut rng);
        let shard = rng.gen_range(1usize..20);
        let replicas = rng.gen_range(1usize..4);
        let cache = rng.gen_range(0usize..4);
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        let base =
            std::env::temp_dir().join(format!("datanet-repl-prop-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dirs: Vec<std::path::PathBuf> =
            (0..replicas).map(|i| base.join(format!("r{i}"))).collect();
        let refs: Vec<&std::path::Path> = dirs.iter().map(|d| d.as_path()).collect();
        MetaStore::save_replicated(&arr, &refs, shard).expect("save");
        let mut store = MetaStore::open_replicated(&refs, cache).expect("open");
        assert_eq!(store.manifest().blocks, arr.len(), "case {case}");
        for s in 0..20u64 {
            let s = SubDatasetId(s);
            for i in 0..arr.len() {
                let b = BlockId(i as u32);
                assert_eq!(
                    store.query(b, s).expect("query"),
                    arr.query(b, s),
                    "case {case}: query({i}, {s:?}) diverged after the round-trip"
                );
            }
            assert_eq!(store.view(s).expect("view"), arr.view(s), "case {case}");
        }
        // Every holder folds the same views, batched or one at a time:
        // random id batches with repeats and absent ids (≥ 20).
        for _ in 0..4 {
            let ids: Vec<SubDatasetId> = (0..rng.gen_range(0usize..9))
                .map(|_| SubDatasetId(rng.gen_range(0u64..26)))
                .collect();
            let single: Vec<SubDatasetView> = ids.iter().map(|&s| arr.view(s)).collect();
            assert_eq!(arr.views(&ids), single, "case {case}: {ids:?}");
            assert_eq!(store.views(&ids).expect("views"), single, "case {case}");
            let degraded = store.views_degraded(&ids);
            assert_eq!(degraded.len(), ids.len());
            for (d, v) in degraded.iter().zip(&single) {
                assert_eq!(d.view(), v, "case {case}: {ids:?}");
                assert!(d.unknown_blocks().is_empty());
                assert_eq!(d.shard_sources().len(), store.manifest().shard_count());
                assert!(d
                    .shard_sources()
                    .iter()
                    .all(|&src| src == ShardSource::Full));
            }
        }
        // The store never had to repair, fail over or degrade anything.
        assert!(!store.health().any(), "case {case}: {:?}", store.health());
        std::fs::remove_dir_all(&base).expect("cleanup");

        // The ingestor's live view over the same blocks, one of them held
        // back so later arrivals park as out-of-order deltas: the sealed
        // prefix answers like its snapshot, each pending delta exactly.
        let held = rng.gen_range(0..arr.len());
        let mut ing = Ingestor::new(IngestConfig {
            compact_every: rng.gen_range(1usize..5),
            ..IngestConfig::new(Separation::Alpha(0.3))
        });
        for b in dfs.blocks().iter().filter(|b| b.id().index() != held) {
            ing.append(b, 0);
        }
        ing.compact();
        let sealed = ing.snapshot();
        assert_eq!(
            sealed.len(),
            held,
            "case {case}: nothing past the gap seals"
        );
        assert_eq!(ing.pending_blocks(), arr.len() - held - 1);
        for s in (0..26u64).map(SubDatasetId) {
            let prefix = sealed.view(s);
            let mut exact = prefix.exact().to_vec();
            for b in &dfs.blocks()[held + 1..] {
                if b.subdataset_bytes(s) > 0 {
                    exact.push((b.id(), b.subdataset_bytes(s)));
                }
            }
            let want = SubDatasetView::new(s, exact, prefix.bloom().to_vec(), prefix.delta());
            assert_eq!(
                ing.view(s),
                want,
                "case {case}: {s:?} with block {held} held back"
            );
        }
        ing.append(&dfs.blocks()[held], 0);
        ing.compact();
        let full = ing.snapshot();
        for s in (0..26u64).map(SubDatasetId) {
            assert_eq!(ing.view(s), full.view(s), "case {case}");
            assert_eq!(full.view(s), arr.view(s), "case {case}");
        }
    }
}

#[test]
fn degraded_bloom_estimates_respect_equation6_envelope() {
    // Degradation-ladder rung 2: when a shard's full copy is lost and the
    // bloom-only summary answers instead, the Equation 6 estimate
    // `Z = Σ_{τ₁}|s∩b| + δ·|τ₂|` must stay within the per-block envelope
    // `|Z − T| ≤ Σ_{b∈τ₂} |truth_b − δ|` — the identity that holds whenever
    // τ₁ entries are ground truth and τ₂ has no false negatives.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xd000 + case);
        // Seeded Zipf workload: skewed sub-dataset popularity, the regime
        // the paper's α-separation is designed for.
        let subdatasets = rng.gen_range(10usize..30);
        let zipf = datanet_stats::Zipf::new(subdatasets, rng.gen_range(0.8f64..1.6));
        let record_count = rng.gen_range(100..500);
        let records: Vec<Record> = (0..record_count)
            .map(|i| {
                Record::new(
                    SubDatasetId(zipf.sample(&mut rng) as u64 - 1),
                    i as u64,
                    rng.gen_range(50u32..500),
                    i as u64,
                )
            })
            .collect();
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 2_000,
                replication: 2,
                topology: Topology::single_rack(rng.gen_range(2u32..8)),
                seed: rng.gen::<u64>(),
            },
            records,
        );
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        let dir = std::env::temp_dir().join(format!("datanet-rung2-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        MetaStore::save(&arr, &dir, 2).expect("save");
        let mut store = MetaStore::open(&dir, 4).expect("open");
        // Lose every other shard's full copy; summaries stay intact, so
        // those shards answer from rung 2.
        for i in (0..store.manifest().shard_count()).step_by(2) {
            std::fs::write(dir.join(format!("shard-{i:04}.json")), b"corrupt").unwrap();
        }
        for s in 0..subdatasets as u64 {
            let s = SubDatasetId(s);
            let deg = store.view_degraded(s);
            assert!(
                deg.unknown_blocks().is_empty(),
                "case {case}: summaries keep every shard off rung 3"
            );
            let truth = dfs.subdataset_distribution(s);
            // No false negatives through the summary path: every block
            // really holding `s` is somewhere in the view.
            for b in dfs.blocks() {
                if truth[b.id().index()] > 0 {
                    assert!(
                        deg.rung_of(b.id()).is_some(),
                        "case {case}: block {:?} with {} bytes of {s:?} dropped",
                        b.id(),
                        truth[b.id().index()]
                    );
                }
            }
            // τ₁ must still be ground truth under degradation.
            for &(b, sz) in deg.view().exact() {
                assert_eq!(sz, truth[b.index()], "case {case}");
            }
            let z = deg.view().estimated_total() as i128;
            let t = dfs.subdataset_total(s) as i128;
            let delta = deg.view().delta() as i128;
            let envelope: i128 = deg
                .view()
                .bloom()
                .iter()
                .map(|b| (truth[b.index()] as i128 - delta).abs())
                .sum();
            assert!(
                (z - t).abs() <= envelope,
                "case {case}, {s:?}: |Z−T| = {} exceeds Σ|truth−δ| = {envelope}",
                (z - t).abs()
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn dfs_write_preserves_bytes_and_order() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xc000 + case);
        let dfs = gen_dfs(&mut rng);
        // Total bytes conserved and timestamps non-decreasing across blocks.
        let mut last_ts = 0;
        let mut total = 0u64;
        for b in dfs.blocks() {
            for r in b.records() {
                assert!(r.timestamp >= last_ts, "case {case}");
                last_ts = r.timestamp;
                total += r.size as u64;
            }
        }
        assert_eq!(total, dfs.total_bytes(), "case {case}");
    }
}
