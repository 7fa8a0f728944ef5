//! Property-style tests over the core data structures and algorithms:
//! invariants that must hold for *any* input, not just the calibrated
//! experiment datasets. Cases are generated from seeded RNG loops so runs
//! are deterministic and need no external property-testing framework.

use datanet::planner::BalancePolicy;
use datanet::{
    Algorithm1, ElasticMap, ElasticMapArray, FordFulkersonPlanner, MetaStore, Separation, SizeInfo,
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
