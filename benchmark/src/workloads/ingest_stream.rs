//! `ingest_stream` — the write side only: the movie log arrives block by
//! block and every eight blocks become one durable epoch on two replicas.
//!
//! Why: scan/ElasticMap/Bloom build and store writes do all the work, the
//! planner and engine none. This is HAIL's upload cost, which a read-side
//! format change must not inflate.

use super::band_targets;
use crate::data;
use crate::harness::{fold, Check, OpOutcome, Workload};
use crate::metrics::Values;
use crate::quality;
use crate::stats::SplitMix64;
use crate::trace::{Layer, Tracer};
use datanet::{CommitPlan, ElasticMapArray, IngestConfig, Ingestor, MetaStore};
use datanet_dfs::{BlockId, Dfs, Record, SubDatasetId};
use std::path::{Path, PathBuf};

pub const BLOCKS: u64 = 1024;
pub const NODES: u32 = 16;
pub const OPS: usize = 128;
pub const REPLAYS: usize = 200;
/// Blocks per commit epoch, and per persisted shard: every epoch seals
/// exactly one shard, so all commits write the same shape.
pub const EPOCH_BLOCKS: usize = 8;

/// One commit epoch: the arrival order of its blocks (offsets into the
/// epoch) and the sub-dataset whose live view is read after the commit.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    arrival: [u8; EPOCH_BLOCKS],
    probe_rank: usize,
}

pub struct IngestStream {
    records: Vec<Record>,
    ranked: Vec<SubDatasetId>,
    ops: Vec<Epoch>,
}

pub struct Base {
    dfs: Dfs,
    /// The batch path over the same blocks: what the stream must equal.
    reference: ElasticMapArray,
    ingestor: Ingestor,
    dirs: [PathBuf; 2],
    /// The replay's commit plans, landed on the replicas after the ops.
    plans: Vec<CommitPlan>,
}

/// Blocks arrive out of order within an epoch (the ingestor parks them in
/// an id-ordered pending set); the seed draws each epoch's arrival order
/// and which sub-dataset is read back.
pub fn op_list(seed: u64) -> Vec<Epoch> {
    let mut rng = SplitMix64(seed ^ 0x696E_6765_7374_5F73);
    let probes = band_targets(OPS, &mut rng);
    probes
        .into_iter()
        .map(|probe_rank| {
            let mut arrival: [u8; EPOCH_BLOCKS] = std::array::from_fn(|k| k as u8);
            rng.shuffle(&mut arrival);
            Epoch {
                arrival,
                probe_rank,
            }
        })
        .collect()
}

impl IngestStream {
    pub fn new(seed: u64, tr: &mut Tracer, v: &mut Values) -> Self {
        let (records, ranked) = data::generate(BLOCKS, tr, v);
        Self {
            records,
            ranked,
            ops: op_list(seed),
        }
    }
}

impl Workload for IngestStream {
    type Base = Base;

    const NAME: &'static str = "ingest_stream";
    const OPS: usize = OPS;
    const REPLAYS: usize = REPLAYS;

    fn setup(&self, dir: &Path, tr: &mut Tracer) -> Base {
        let (dfs, reference) = data::write_and_build(NODES, &self.records, tr);
        assert!(dfs.block_count() >= OPS * EPOCH_BLOCKS);
        let ingestor = Ingestor::new(IngestConfig {
            policy: data::policy(),
            // Compaction is the op's own explicit step.
            compact_every: usize::MAX,
            shard_blocks: EPOCH_BLOCKS,
        });
        Base {
            dfs,
            reference,
            ingestor,
            dirs: [dir.join("replica-0"), dir.join("replica-1")],
            plans: Vec::with_capacity(OPS),
        }
    }

    fn op(&self, b: &mut Base, i: usize, tr: &mut Tracer) -> OpOutcome {
        let epoch = &self.ops[i];
        let first = i * EPOCH_BLOCKS;
        let (dfs, ing) = (&b.dfs, &mut b.ingestor);
        for &k in &epoch.arrival {
            let block = dfs.block(BlockId((first + k as usize) as u32));
            tr.call(Layer::Ingest, "ingest.append", 1, || {
                ing.append(block, first as u64)
            });
        }
        // The dataset's last, partial block rides with the final epoch.
        if i + 1 == OPS {
            for id in first + EPOCH_BLOCKS..dfs.block_count() {
                let block = dfs.block(BlockId(id as u32));
                tr.call(Layer::Ingest, "ingest.append", 1, || {
                    ing.append(block, first as u64)
                });
            }
        }
        let folded = tr.call(Layer::Ingest, "ingest.compact", 1, || ing.compact());
        let Some(plan) = tr.call(Layer::Ingest, "ingest.commit_plan", 1, || ing.commit_plan())
        else {
            return OpOutcome { ok: false, work: 0 };
        };
        // The plan holds the epoch's serialised, checksummed files. Landing
        // them on the replicas is eight file writes whose cost the host's
        // filesystem sets (README, flush policy); that happens once, after
        // the last replay, and is timed there.
        tr.call(Layer::Ingest, "ingest.mark_durable", 1, || {
            ing.mark_durable(&plan)
        });
        let probe = self.ranked[epoch.probe_rank];
        let view = tr.call(Layer::Ingest, "ingest.live_view", 1, || ing.view(probe));
        let outcome = OpOutcome {
            ok: plan.epoch() == i as u64 + 1 && ing.blocks() >= first + folded,
            work: fold(
                fold(view.estimated_total(), view.block_count() as u64),
                fold(plan.writes() as u64, ing.blocks() as u64),
            ),
        };
        b.plans.push(plan);
        outcome
    }

    fn finish(&self, b: Base, dir: &Path, tr: &mut Tracer, v: &mut Values) -> Vec<Check> {
        v.set("dfs.blocks", b.dfs.block_count() as f64);
        v.set("ingest.demotions", b.ingestor.stats().redominated as f64);
        let files: usize = b.plans.iter().map(CommitPlan::writes).sum();
        v.set("ingest.files_per_commit", files as f64 / OPS as f64);

        let snapshot = tr.call(Layer::Ingest, "ingest.snapshot", 1, || {
            b.ingestor.snapshot()
        });
        let same_array = serde_json::to_string(&snapshot).expect("arrays serialise")
            == serde_json::to_string(&b.reference).expect("arrays serialise");

        let ids = quality::probe_ids(&self.ranked);
        let dirs: [&Path; 2] = [&b.dirs[0], &b.dirs[1]];
        let landed = b.plans.iter().all(|plan| {
            tr.call(Layer::Ingest, "ingest.commit_apply", 1, || {
                plan.apply(&dirs)
            })
            .is_ok()
        });
        let mut store = tr
            .call(Layer::Store, "store.open", 1, || {
                MetaStore::open_replicated(&dirs, 4)
            })
            .expect("reopen the ingested store");
        let stored = tr.call(Layer::Store, "store.views", 1, || store.views(&ids));
        let same_views = stored.is_ok_and(|s| s == b.reference.views(&ids));
        let disk_bytes = store.disk_bytes().expect("read the store directory");
        v.set("ingest.bytes_per_commit", disk_bytes as f64 / OPS as f64);

        quality::measure(&b.dfs, &b.reference, &ids, Some(disk_bytes), dir, tr, v);
        vec![
            Check {
                name: "every epoch's files landed on both replicas",
                ok: landed,
            },
            Check {
                name: "final snapshot equals the batch build",
                ok: same_array,
            },
            Check {
                name: "reopened store answers the probe views like the batch build",
                ok: same_views,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_is_a_function_of_the_seed() {
        assert_eq!(op_list(11), op_list(11));
        assert_ne!(op_list(11), op_list(12));
        let ops = op_list(11);
        assert_eq!(ops.len(), OPS);
        for e in &ops {
            let mut a = e.arrival;
            a.sort_unstable();
            assert_eq!(a, [0, 1, 2, 3, 4, 5, 6, 7], "each block arrives once");
        }
    }
}
