//! `query_cold` — the store-backed read path with a working set larger
//! than the cache: every session opens the replicated store afresh, so all
//! 17 shards are read, checksummed and decoded through a 4-shard cache, and
//! two shards fail over from a corrupted first replica.
//!
//! Why: shard read + CRC + JSON decode + failover dominate. This is where a
//! shard format, cache policy or summary-first pruning change shows, and
//! where planner changes should not.

use super::{within_eq6_envelope, zipf_stratified};
use crate::data;
use crate::harness::{fold, Check, OpOutcome, Workload};
use crate::metrics::Values;
use crate::quality;
use crate::stats::SplitMix64;
use crate::trace::{Layer, Tracer};
use datanet::{Algorithm1, ElasticMapArray, MetaStore, SubDatasetView};
use datanet_dfs::{Dfs, Record, SubDatasetId};
use datanet_mapreduce::{run_selection, DataNetScheduler, SelectionConfig};
use std::path::{Path, PathBuf};

pub const BLOCKS: u64 = 129;
pub const NODES: u32 = 16;
pub const OPS: usize = 100;
pub const REPLAYS: usize = 8;
pub const IDS_PER_OP: usize = 4;
pub const SHARD_BLOCKS: usize = 8;
/// The 130 blocks the dataset fills, in shards of 8: the paper-scale
/// store's shard count at half its blocks. (Shards of 16 decode 2.5 times
/// slower per block.)
pub const SHARDS: usize = 17;
pub const CACHE_SHARDS: usize = 4;
/// Shards whose first-replica copy is corrupted.
pub const CORRUPT_SHARDS: usize = 2;

pub struct QueryCold {
    records: Vec<Record>,
    ranked: Vec<SubDatasetId>,
    ops: Vec<[SubDatasetId; IDS_PER_OP]>,
    corrupt: [usize; CORRUPT_SHARDS],
}

pub struct Base {
    dfs: Dfs,
    array: ElasticMapArray,
    dirs: [PathBuf; 2],
    /// What the healthy array answers for each op, computed outside the
    /// timed path so the inline check is a comparison.
    expected: Vec<Vec<SubDatasetView>>,
    health: [usize; 3],
}

pub fn op_list(seed: u64, ranked: &[SubDatasetId]) -> Vec<[SubDatasetId; IDS_PER_OP]> {
    let mut rng = SplitMix64(seed ^ 0x7175_6572_795F_636F);
    zipf_stratified(ranked.len(), 1.1, OPS, IDS_PER_OP, &mut rng)
        .iter()
        .map(|c| std::array::from_fn(|k| ranked[c[k]]))
        .collect()
}

/// Two distinct shard indices drawn from the seed.
fn corrupt_shards(seed: u64, shards: usize) -> [usize; CORRUPT_SHARDS] {
    let mut rng = SplitMix64(seed ^ 0x636F_7272_7570_7421);
    let a = rng.below(shards as u64) as usize;
    let b = (a + 1 + rng.below(shards as u64 - 1) as usize) % shards;
    [a, b]
}

/// Flip one byte in the middle of a shard file: its CRC no longer matches.
fn corrupt(dir: &Path, shard: usize) {
    let path = dir.join(format!("shard-{shard:04}.json"));
    let mut bytes = std::fs::read(&path).expect("shard file to corrupt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&path, bytes).expect("rewrite the corrupted shard");
}

impl QueryCold {
    pub fn new(seed: u64, tr: &mut Tracer, v: &mut Values) -> Self {
        let (records, ranked) = data::generate(BLOCKS, tr, v);
        Self {
            ops: op_list(seed, &ranked),
            corrupt: corrupt_shards(seed, SHARDS),
            records,
            ranked,
        }
    }
}

impl Workload for QueryCold {
    type Base = Base;

    const NAME: &'static str = "query_cold";
    const OPS: usize = OPS;
    const REPLAYS: usize = REPLAYS;

    fn setup(&self, dir: &Path, tr: &mut Tracer) -> Base {
        let (dfs, array) = data::write_and_build(NODES, &self.records, tr);
        assert_eq!(dfs.block_count().div_ceil(SHARD_BLOCKS), SHARDS);
        let dirs = [dir.join("replica-0"), dir.join("replica-1")];
        // 70 file creates: their cost is the host filesystem's and moves by
        // half between runs, so they stay out of `setup_s` like every other
        // file write (README, flush policy); `store.save_ms` reports them.
        tr.untimed(Layer::Store, "store.save", || {
            MetaStore::save_replicated(&array, &[&dirs[0], &dirs[1]], SHARD_BLOCKS)
        })
        .expect("save the replicated store");
        for &s in &self.corrupt {
            corrupt(&dirs[0], s);
        }
        let expected = self.ops.iter().map(|ids| array.views(ids)).collect();
        Base {
            dfs,
            array,
            dirs,
            expected,
            health: [0; 3],
        }
    }

    fn op(&self, b: &mut Base, i: usize, tr: &mut Tracer) -> OpOutcome {
        let ids = &self.ops[i];
        let dirs: [&Path; 2] = [&b.dirs[0], &b.dirs[1]];
        let Ok(mut store) = tr.call(Layer::Store, "store.open", 1, || {
            MetaStore::open_replicated(&dirs, CACHE_SHARDS)
        }) else {
            return OpOutcome { ok: false, work: 0 };
        };
        let Ok(views) = tr.call(Layer::Store, "store.views", 1, || store.views(ids)) else {
            return OpOutcome { ok: false, work: 1 };
        };
        let dfs = &b.dfs;
        let sel_cfg = SelectionConfig::default();
        let mut work = 0;
        for view in &views {
            let plan = tr.call(Layer::Planner, "planner.greedy", 1, || {
                Algorithm1::new(dfs, view).plan_balanced()
            });
            let truth = tr.call(Layer::Dfs, "dfs.subdataset_distribution", 1, || {
                dfs.subdataset_distribution(view.id())
            });
            let sel = tr.call(Layer::Engine, "engine.selection", 1, || {
                run_selection(dfs, &truth, &mut DataNetScheduler::new(dfs, view), &sel_cfg)
            });
            work = fold(work, plan.max_workload() ^ sel.bytes_read);
        }
        let h = store.health();
        b.health[0] += h.checksum_failures;
        b.health[1] += h.retries;
        b.health[2] += h.failovers;
        work = fold(work, (h.checksum_failures + h.retries + h.failovers) as u64);
        OpOutcome {
            ok: views == b.expected[i],
            work,
        }
    }

    fn finish(&self, b: Base, dir: &Path, tr: &mut Tracer, v: &mut Values) -> Vec<Check> {
        v.set("dfs.blocks", b.dfs.block_count() as f64);
        // A fresh handle whose cache is smaller than the store decodes
        // every shard once per batched `views` call.
        v.set("store.shard_loads_per_op", SHARDS as f64);
        v.set(
            "store.checksum_failures_per_op",
            b.health[0] as f64 / OPS as f64,
        );
        v.set("store.retries_per_op", b.health[1] as f64 / OPS as f64);
        v.set("store.failovers_per_op", b.health[2] as f64 / OPS as f64);

        let ids = quality::probe_ids(&self.ranked);
        let healthy = b.array.views(&ids);
        let dirs: [&Path; 2] = [&b.dirs[0], &b.dirs[1]];
        let mut store = MetaStore::open_replicated(&dirs, CACHE_SHARDS).expect("reopen the store");
        let disk_bytes = store.disk_bytes().expect("read the store directory");

        // With one healthy replica left, the degraded path still answers
        // exactly.
        let failover = tr.call(Layer::Store, "store.views_degraded", 1, || {
            store.views_degraded(&ids)
        });
        let failover_exact = failover
            .iter()
            .zip(&healthy)
            .all(|(d, h)| d.is_healthy() && d.view() == h);

        // Lose the second copy of one shard too: it degrades to its bloom
        // summary, and the estimate must stay inside the Equation 6
        // envelope.
        corrupt(&b.dirs[1], self.corrupt[0]);
        let mut store = MetaStore::open_replicated(&dirs, CACHE_SHARDS).expect("reopen the store");
        let degraded = tr.call(Layer::Store, "store.views_degraded", 1, || {
            store.views_degraded(&ids)
        });
        let in_envelope = degraded.iter().all(|d| {
            let truth = b.dfs.subdataset_distribution(d.view().id());
            !d.is_healthy() && within_eq6_envelope(d.view(), &truth, d.unknown_blocks())
        });
        let scrub = tr.call(Layer::Store, "store.scrub", 1, || store.scrub());
        std::hint::black_box(scrub);

        quality::measure(&b.dfs, &b.array, &ids, Some(disk_bytes), dir, tr, v);
        vec![
            Check {
                name: "views through failover equal the array's",
                ok: failover_exact,
            },
            Check {
                name: "degraded views stay inside the Equation 6 envelope",
                ok: in_envelope,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_and_corruption_are_functions_of_the_seed() {
        let ranked: Vec<SubDatasetId> = (0..8000).map(SubDatasetId).collect();
        assert_eq!(op_list(3, &ranked), op_list(3, &ranked));
        assert_ne!(op_list(3, &ranked), op_list(4, &ranked));
        assert_eq!(op_list(3, &ranked).len(), OPS);
        for seed in 0..50 {
            let [a, b] = corrupt_shards(seed, SHARDS);
            assert!(a != b && a < SHARDS && b < SHARDS);
            assert_eq!(corrupt_shards(seed, SHARDS), [a, b]);
        }
    }
}
