//! Seed → world expansion.
//!
//! A [`Scenario`] is the fully-expanded description of one simulated
//! world: dataset shape, cluster size, fault schedule, metadata
//! corruption and detection mode. It is a plain serialisable value —
//! the shrinker mutates it field by field, and a repro file embeds it
//! verbatim so a failure replays without the original seed stream.
//!
//! [`Scenario::from_seed`] is the only place randomness enters the
//! harness; everything downstream (dataset bytes, placement, fault
//! times) derives deterministically from the expanded fields.

use datanet_analytics::{AggJob, PipelineSpec, StageOp};
use datanet_cluster::{FaultPlan, SimTime};
use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_mapreduce::FaultConfig;
use datanet_stats::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A scripted fail-stop crash of one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// Crashing node (never 0 — the namenode host stays up).
    pub node: usize,
    /// Crash instant, microseconds on the simulated clock.
    pub at_us: u64,
}

/// A transient slow-node window (degraded disk/CPU).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowEvent {
    pub node: usize,
    pub from_us: u64,
    pub until_us: u64,
    /// Task-duration stretch factor (≥ 1).
    pub factor: f64,
}

/// A permanent NIC degradation on one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NicEvent {
    pub node: usize,
    /// Remaining fraction of NIC bandwidth, in `(0, 1]`.
    pub fraction: f64,
}

/// Which metadata files get corrupted on disk before the degraded runs.
///
/// Corruption hits every replica directory, so replica failover cannot
/// mask it — that is the point: it forces the store down the degradation
/// ladder (shard lost → summary rung 2; summary also lost → rung 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Corruption {
    /// Metadata untouched: the degraded view must stay rung 1 everywhere.
    None,
    /// Every `stride`-th shard file corrupted in all replicas → those
    /// shards fall back to their summary sidecars (rung 2).
    Shards { stride: usize },
    /// Every `stride`-th shard *and* its summary corrupted in all
    /// replicas → those blocks become unknown (rung 3).
    Total { stride: usize },
}

/// Streaming-ingest schedule: how the scenario's blocks arrive over the
/// simulated clock, how often the ingestor compacts, and where a
/// mid-commit crash (if any) hits the write plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestPlan {
    /// Compact after this many contiguous arrivals.
    pub compact_every: usize,
    /// Simulated microseconds between block arrivals.
    pub gap_us: u64,
    /// Crash during the n-th commit (1-based); `None` for a clean stream.
    pub crash_commit: Option<u64>,
    /// Raw draw selecting how many of the interrupted commit's plan writes
    /// land before the crash (the harness takes it modulo plan length + 1).
    pub crash_write: u64,
}

/// One extra pipeline stage between the leading filter and the trailing
/// output (PR 7's checkpointed-pipeline axis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PipeOp {
    /// Append sub-dataset `rank % subdatasets`.
    Append(u64),
    /// Semi-join against sub-dataset `rank % subdatasets`.
    Join(u64),
    /// Aggregate with job selector `% 4` (word count / moving average /
    /// histogram / top-k).
    Aggregate(u64),
}

/// Multi-stage pipeline schedule: the stage list plus a scripted
/// mid-checkpoint crash point for the resume-equivalence oracle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinePlan {
    /// Stages between the leading `Filter(target)` and trailing `Output`.
    pub ops: Vec<PipeOp>,
    /// Crash during stage `raw % stage_count`'s checkpoint; `None` runs
    /// the pipeline uninterrupted only.
    pub crash_stage: Option<u64>,
    /// Raw draw selecting how many of the interrupted checkpoint's plan
    /// writes land (the harness takes it modulo plan length + 1).
    pub crash_write: u64,
}

/// Distribution-aware shuffle axis: how finely the shuffle planner
/// prices the key space, the heavy-key split threshold factor, and the
/// fragment-arrival permutation the split-merge oracle replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShuffleAxis {
    /// Key ranges the planner prices (Equation 6 evaluated per range).
    pub key_ranges: usize,
    /// Heavy-key split threshold factor (≥ 1; 1 splits most eagerly).
    pub split_factor: f64,
    /// Seed for the fragment arrival permutation in the
    /// `split-merge-equivalence` oracle.
    pub permutation_seed: u64,
}

/// One scripted world mutation in the serving axis, in raw drawn form:
/// node indices and anchor positions are reduced modulo the live ranges
/// at use, so shrinking `nodes` or `queries` keeps the plan well-formed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServeEventPlan {
    /// An ingest batch commits `blocks` (reduced to `1..=4`) immediately
    /// before stream position `at_query`.
    Ingest { at_query: u32, blocks: u32 },
    /// Node `node % nodes` fail-stops immediately before stream position
    /// `at_query`.
    NodeLoss { at_query: u32, node: u32 },
}

impl ServeEventPlan {
    /// The stream position the event fires before.
    pub(crate) fn at_query(&self) -> u32 {
        let (Self::Ingest { at_query, .. } | Self::NodeLoss { at_query, .. }) = *self;
        at_query
    }
}

/// Multi-tenant serving axis (PR 10): the query-stream shape, the
/// admission/quota knobs of the `datanet-serve` frontend, and the
/// scripted world mutations the epoch-keyed plan cache must track.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServePlan {
    /// Tenants issuing queries (≥ 1).
    pub tenants: u32,
    /// Queries in the stream (≥ 1).
    pub queries: u32,
    /// Simulated microseconds between arrivals (also the DRR round
    /// length).
    pub gap_us: u64,
    /// Bounded admission-queue capacity.
    pub queue_cap: usize,
    /// DRR quantum in KiB (≥ 1).
    pub quantum_kb: u64,
    /// Raw tenant-mix selector (`% 3` picks uniform / skewed /
    /// adversarial).
    pub mix: u64,
    /// Execution-pool workers (≥ 1; answers must not depend on it).
    pub workers: u32,
    /// Load-shedding budget in whole rounds.
    pub max_wait_rounds: u32,
    /// Worker tie-break seed (answers must not depend on it).
    pub schedule_seed: u64,
    /// Scripted world mutations, anchored to stream positions.
    pub events: Vec<ServeEventPlan>,
}

/// One fully-expanded simulated world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Seed for the dataset/placement RNG (not the scenario seed — the
    /// shrinker keeps this fixed while it shrinks the structure).
    pub seed: u64,
    /// Number of distinct sub-datasets (Zipf support).
    pub subdatasets: u64,
    /// Zipf popularity exponent for record→sub-dataset assignment.
    pub zipf_exponent: f64,
    /// Records written into the DFS.
    pub records: usize,
    /// Cluster size.
    pub nodes: u32,
    /// DFS replication factor (≤ nodes).
    pub replication: usize,
    /// DFS block size in bytes.
    pub block_size: u64,
    /// ElasticMap separation threshold α (Section III-B).
    pub alpha: f64,
    /// The sub-dataset under analysis (a popular Zipf rank, so the view
    /// is non-empty and stays non-empty while shrinking).
    pub target: u64,
    /// Blocks per metadata shard file.
    pub shard_blocks: usize,
    /// Scripted crashes (distinct nodes, never node 0).
    pub crashes: Vec<CrashEvent>,
    /// Transient slow windows.
    pub slow: Vec<SlowEvent>,
    /// NIC degradations.
    pub nic: Vec<NicEvent>,
    /// Metadata corruption pattern.
    pub corruption: Corruption,
    /// `true` → crashes are learned through the heartbeat failure
    /// detector; `false` → the PR 1 oracle notifies at the crash instant.
    pub detection: bool,
    /// Re-execution budget per block.
    pub max_retries: u32,
    /// Streaming-ingest arrival schedule and mid-commit crash point.
    pub ingest: IngestPlan,
    /// Multi-stage pipeline schedule and mid-checkpoint crash point.
    pub pipeline: PipelinePlan,
    /// Distribution-aware shuffle planning knobs.
    pub shuffle: ShuffleAxis,
    /// Multi-tenant serving-plane axis.
    pub serve: ServePlan,
}

impl Scenario {
    /// Expand `seed` into a world. Deterministic: same seed, same world.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_BEEF);
        let nodes = rng.gen_range(2u32..10);
        let subdatasets = rng.gen_range(4u64..18);
        let records = rng.gen_range(80usize..700);
        let replication = rng.gen_range(1usize..=3).min(nodes as usize);
        let zipf_exponent = rng.gen_range(0.8..1.6);
        let alpha = rng.gen_range(0.2..0.6);
        let target = rng.gen_range(0..subdatasets.min(4));
        let shard_blocks = rng.gen_range(2usize..16);

        // Crashes: distinct nodes, node 0 exempt so the cluster never
        // loses its namenode host and at least one node survives.
        let crash_count = rng.gen_range(0usize..=2).min(nodes as usize - 1);
        let mut pool: Vec<usize> = (1..nodes as usize).collect();
        let mut crashes = Vec::new();
        for _ in 0..crash_count {
            let i = rng.gen_range(0..pool.len());
            crashes.push(CrashEvent {
                node: pool.swap_remove(i),
                at_us: rng.gen_range(2_000u64..400_000),
            });
        }
        crashes.sort_by_key(|c| (c.at_us, c.node));

        let slow = if rng.gen_bool(0.35) {
            let node = rng.gen_range(0..nodes as usize);
            let from_us = rng.gen_range(0u64..200_000);
            vec![SlowEvent {
                node,
                from_us,
                until_us: from_us + rng.gen_range(10_000u64..300_000),
                factor: rng.gen_range(1.5..4.0),
            }]
        } else {
            Vec::new()
        };
        let nic = if rng.gen_bool(0.3) {
            vec![NicEvent {
                node: rng.gen_range(0..nodes as usize),
                fraction: rng.gen_range(0.3..0.9),
            }]
        } else {
            Vec::new()
        };

        let corruption = match rng.gen_range(0u32..5) {
            0..=2 => Corruption::None,
            3 => Corruption::Shards {
                stride: rng.gen_range(2usize..4),
            },
            _ => Corruption::Total {
                stride: rng.gen_range(2usize..4),
            },
        };

        // The two in-literal draws below predate the ingest axis; they are
        // pulled out in their original order so every new draw appends to
        // the END of the seed stream — existing seeds (the whole corpus)
        // expand to exactly the world they always did.
        let dataset_seed = rng.gen();
        let detection = rng.gen_bool(0.4);
        let ingest = IngestPlan {
            compact_every: rng.gen_range(1usize..6),
            gap_us: rng.gen_range(500u64..5_000),
            crash_commit: if rng.gen_bool(0.5) {
                Some(rng.gen_range(1u64..4))
            } else {
                None
            },
            crash_write: rng.gen(),
        };

        // Pipeline draws append after the ingest draws — again at the END
        // of the seed stream, so the whole corpus still expands to exactly
        // the world it always did (plus a pipeline axis).
        let pipeline = {
            let extra = rng.gen_range(1usize..4);
            let mut ops = Vec::with_capacity(extra);
            for _ in 0..extra {
                ops.push(match rng.gen_range(0u32..4) {
                    0 => PipeOp::Append(rng.gen_range(0..subdatasets)),
                    1 => PipeOp::Join(rng.gen_range(0..subdatasets)),
                    _ => PipeOp::Aggregate(rng.gen_range(0u64..4)),
                });
            }
            PipelinePlan {
                ops,
                crash_stage: if rng.gen_bool(0.6) {
                    Some(rng.gen_range(0u64..8))
                } else {
                    None
                },
                crash_write: rng.gen(),
            }
        };

        // Shuffle draws append after the pipeline draws — again at the
        // END of the seed stream, so the whole corpus still expands to
        // exactly the world it always did (plus a shuffle axis).
        let shuffle = ShuffleAxis {
            key_ranges: rng.gen_range(8usize..48),
            split_factor: rng.gen_range(1.0..1.6),
            permutation_seed: rng.gen(),
        };

        // Serving-plane draws append after the shuffle draws — again at
        // the END of the seed stream, so the whole corpus still expands to
        // exactly the world it always did (plus a serving axis).
        let serve = {
            let queries = rng.gen_range(8u32..40);
            let ingest_events = rng.gen_range(0usize..=2);
            let mut events = Vec::new();
            for _ in 0..ingest_events {
                events.push(ServeEventPlan::Ingest {
                    at_query: rng.gen_range(0..=queries),
                    blocks: rng.gen_range(1u32..=4),
                });
            }
            if rng.gen_bool(0.4) {
                events.push(ServeEventPlan::NodeLoss {
                    at_query: rng.gen_range(0..=queries),
                    node: rng.gen(),
                });
            }
            events.sort_by_key(ServeEventPlan::at_query);
            ServePlan {
                tenants: rng.gen_range(1u32..=4),
                queries,
                gap_us: rng.gen_range(200u64..2_000),
                queue_cap: rng.gen_range(4usize..24),
                quantum_kb: rng.gen_range(1u64..48),
                mix: rng.gen(),
                workers: rng.gen_range(1u32..=4),
                max_wait_rounds: rng.gen_range(2u32..12),
                schedule_seed: rng.gen(),
                events,
            }
        };

        Self {
            seed: dataset_seed,
            subdatasets,
            zipf_exponent,
            records,
            nodes,
            replication,
            block_size: 2_000,
            alpha,
            target,
            shard_blocks,
            crashes,
            slow,
            nic,
            corruption,
            detection,
            max_retries: 3,
            ingest,
            pipeline,
            shuffle,
            serve,
        }
    }

    /// Whether a scenario that did not come out of [`Scenario::from_seed`]
    /// — one read back from a repro file — describes a world the harness
    /// can build: everything `from_seed` and the shrinker guarantee by
    /// construction and the builders below would otherwise assert.
    ///
    /// # Errors
    /// One line naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        fn ensure(ok: bool, field: &str, want: &str) -> Result<(), String> {
            if ok {
                return Ok(());
            }
            Err(format!("scenario field `{field}` must be {want}"))
        }
        let nodes = self.nodes as usize;
        ensure(self.nodes >= 2, "nodes", "at least 2")?;
        ensure(self.subdatasets >= 1, "subdatasets", "at least 1")?;
        ensure(self.records >= 1, "records", "at least 1")?;
        ensure(self.block_size >= 1, "block_size", "at least 1")?;
        ensure(self.shard_blocks >= 1, "shard_blocks", "at least 1")?;
        ensure(
            (1..=nodes).contains(&self.replication),
            "replication",
            "between 1 and `nodes`",
        )?;
        ensure(
            self.target < self.subdatasets,
            "target",
            "below `subdatasets`",
        )?;
        ensure((0.0..=1.0).contains(&self.alpha), "alpha", "in [0, 1]")?;
        ensure(
            (0.0..f64::INFINITY).contains(&self.zipf_exponent),
            "zipf_exponent",
            "finite and non-negative",
        )?;
        for c in &self.crashes {
            // Node 0 hosts the namenode and never crashes, so a node survives.
            ensure(
                (1..nodes).contains(&c.node),
                "crashes.node",
                "a node of the cluster other than 0",
            )?;
        }
        for s in &self.slow {
            ensure(s.node < nodes, "slow.node", "a node of the cluster")?;
            ensure(s.from_us < s.until_us, "slow.until_us", "after `from_us`")?;
            ensure(
                (1.0..f64::INFINITY).contains(&s.factor),
                "slow.factor",
                "finite and at least 1",
            )?;
        }
        for n in &self.nic {
            ensure(n.node < nodes, "nic.node", "a node of the cluster")?;
            ensure(
                n.fraction > 0.0 && n.fraction <= 1.0,
                "nic.fraction",
                "in (0, 1]",
            )?;
        }
        // The sub-plans: only what their builders assert.
        ensure(
            self.ingest.compact_every >= 1,
            "ingest.compact_every",
            "at least 1",
        )?;
        ensure(
            self.shuffle.key_ranges >= 1,
            "shuffle.key_ranges",
            "at least 1",
        )?;
        ensure(
            (1.0..f64::INFINITY).contains(&self.shuffle.split_factor),
            "shuffle.split_factor",
            "finite and at least 1",
        )?;
        ensure(self.serve.tenants >= 1, "serve.tenants", "at least 1")?;
        ensure(self.serve.quantum_kb >= 1, "serve.quantum_kb", "at least 1")?;
        ensure(self.serve.workers >= 1, "serve.workers", "at least 1")?;
        // `serve` fires events in list order, and asserts the order.
        ensure(
            (self.serve.events.windows(2)).all(|w| w[0].at_query() <= w[1].at_query()),
            "serve.events",
            "sorted by `at_query`",
        )
    }

    /// The scenario's pipeline spec: `Filter(target)`, then the drawn ops
    /// (sub-dataset ranks and job selectors reduced modulo the live
    /// ranges, so shrinking `subdatasets` keeps the spec well-formed),
    /// then an `Output`.
    pub fn pipeline_spec(&self) -> PipelineSpec {
        let mut seq = vec![StageOp::Filter(self.target)];
        for op in &self.pipeline.ops {
            seq.push(match op {
                PipeOp::Append(rank) => StageOp::Append(rank % self.subdatasets),
                PipeOp::Join(rank) => StageOp::Join(rank % self.subdatasets),
                PipeOp::Aggregate(job) => StageOp::Aggregate(match job % 4 {
                    0 => AggJob::WordCount,
                    1 => AggJob::MovingAverage(86_400),
                    2 => AggJob::Histogram,
                    _ => AggJob::TopK,
                }),
            });
        }
        seq.push(StageOp::Output("check".into()));
        PipelineSpec {
            name: "scenario-pipeline".into(),
            seq,
        }
    }

    /// Materialise the scenario's DFS: `records` Zipf-distributed records
    /// written with random placement. Deterministic in `self`.
    pub fn build_dfs(&self) -> Dfs {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.subdatasets as usize, self.zipf_exponent);
        let records: Vec<Record> = (0..self.records)
            .map(|i| {
                let s = SubDatasetId(zipf.sample(&mut rng) as u64 - 1);
                let size = rng.gen_range(50u32..500);
                Record::new(s, i as u64, size, i as u64)
            })
            .collect();
        Dfs::write_random(
            DfsConfig {
                block_size: self.block_size,
                replication: self.replication,
                topology: Topology::single_rack(self.nodes),
                seed: rng.gen(),
            },
            records,
        )
    }

    /// The scripted [`FaultPlan`] for this world.
    pub(crate) fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none(self.nodes as usize);
        for c in &self.crashes {
            plan = plan.crash(c.node, SimTime::from_micros(c.at_us));
        }
        for s in &self.slow {
            plan = plan.slow(
                s.node,
                SimTime::from_micros(s.from_us),
                SimTime::from_micros(s.until_us),
                s.factor,
            );
        }
        for n in &self.nic {
            plan = plan.degrade_nic(n.node, n.fraction);
        }
        plan
    }

    /// The engine-facing [`FaultConfig`] (oracle or detector-driven).
    pub fn fault_config(&self) -> FaultConfig {
        FaultConfig {
            max_retries: self.max_retries,
            detection: self.detection,
            ..FaultConfig::new(self.fault_plan())
        }
    }

    /// Whether any fault is scripted at all.
    pub fn has_faults(&self) -> bool {
        !self.crashes.is_empty() || !self.slow.is_empty() || !self.nic.is_empty()
    }

    /// The sub-dataset under analysis.
    pub fn target_id(&self) -> SubDatasetId {
        SubDatasetId(self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic() {
        for seed in 0..40 {
            assert_eq!(Scenario::from_seed(seed), Scenario::from_seed(seed));
        }
    }

    #[test]
    fn expanded_scenarios_are_well_formed() {
        for seed in 0..200 {
            let sc = Scenario::from_seed(seed);
            assert_eq!(sc.validate(), Ok(()));
            let distinct: std::collections::HashSet<usize> =
                sc.crashes.iter().map(|c| c.node).collect();
            assert_eq!(distinct.len(), sc.crashes.len(), "crash nodes distinct");
            assert!(sc.ingest.gap_us > 0);
            if let Some(c) = sc.ingest.crash_commit {
                assert!(c >= 1);
            }
            assert!(!sc.pipeline.ops.is_empty());
            assert!(sc.shuffle.key_ranges >= 2, "planner needs ≥ 2 key ranges");
            assert!(sc.serve.tenants <= 4);
            assert!(sc.serve.queries >= 1);
            assert!(sc.serve.gap_us > 0);
            assert!(sc.serve.queue_cap >= 1);
            assert!(sc.serve.max_wait_rounds >= 1);
            assert!(sc.serve.events.len() <= 3);
            let spec = sc.pipeline_spec();
            assert!(matches!(spec.seq[0], StageOp::Filter(_)));
            assert!(spec.seq.len() == sc.pipeline.ops.len() + 2);
            for op in &spec.seq {
                if let Some(s) = op.subdataset() {
                    assert!(s.0 < sc.subdatasets, "pipeline names a live sub-dataset");
                }
            }
        }
    }

    #[test]
    fn dfs_build_is_deterministic_and_non_trivial() {
        let sc = Scenario::from_seed(7);
        let a = sc.build_dfs();
        let b = sc.build_dfs();
        assert_eq!(a.block_count(), b.block_count());
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert!(a.block_count() > 1);
    }

    #[test]
    fn scenario_json_roundtrips() {
        let sc = Scenario::from_seed(3);
        let json = serde_json::to_string(&sc).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sc);
    }
}
