//! `serve_mixed` — reads beside writes on one metadata plane: each op is
//! one multi-tenant query segment served with the plan cache on, while two
//! ingest commits and a node loss land in the middle of it.
//!
//! Why: plan-cache hits and post-commit array rebuilds (`World::apply`) sit
//! on the same path, so a gain for one that costs the other shows in the op
//! latency, while `query_hot` (pure read) and `ingest_stream` (pure write)
//! bracket it. An epoch-stamped metadata plane should move this workload
//! and not those.

use crate::data;
use crate::harness::{fold, Check, OpOutcome, Workload};
use crate::metrics::Values;
use crate::quality;
use crate::stats::SplitMix64;
use crate::trace::{Layer, Tracer};
use datanet_dfs::{Record, SubDatasetId};
use datanet_obs::Recorder;
use datanet_serve::{
    generate_stream, serve, Disposition, QuerySpec, ScriptedEvent, ServeConfig, ServeEvent,
    ServeReport, StreamConfig, TenantMix, World,
};
use std::hash::Hasher;
use std::path::Path;

pub const BLOCKS: u64 = 128;
pub const NODES: u32 = 16;
pub const OPS: usize = 100;
pub const REPLAYS: usize = 16;
pub const SUBDATASETS: u64 = 16;
pub const TENANTS: u32 = 8;
pub const QUERIES: u32 = 240;

pub struct Segment {
    stream: Vec<QuerySpec>,
    events: [ScriptedEvent; 3],
}

pub struct ServeMixed {
    records: Vec<Record>,
    ranked: Vec<SubDatasetId>,
    ops: Vec<Segment>,
    cfg: ServeConfig,
}

pub struct Base {
    world: World,
    totals: Totals,
}

#[derive(Default)]
struct Totals {
    completed: u64,
    shed: u64,
    rejected: u64,
    cache_hits: u64,
    cache_misses: u64,
    sim_p50_us: u64,
    sim_p99_us: u64,
}

/// Every segment has its own stream seed, and its three events land at
/// seed-drawn positions inside fixed windows: a commit in each of the first
/// two thirds, the node loss in the last.
pub fn op_list(seed: u64) -> Vec<Segment> {
    let mut rng = SplitMix64(seed ^ 0x7365_7276_655F_6D78);
    (0..OPS)
        .map(|_| {
            let stream = generate_stream(&StreamConfig {
                tenants: TENANTS,
                queries: QUERIES,
                gap_us: 300,
                subdatasets: SUBDATASETS,
                mix: TenantMix::Skewed,
                seed: rng.next_u64(),
            });
            let third = QUERIES as u64 / 3;
            let mut at = |window: u64| (window * third + third / 4 + rng.below(third / 2)) as u32;
            let events = [
                ScriptedEvent {
                    at_query: at(0),
                    event: ServeEvent::IngestCommit { blocks: 2 },
                },
                ScriptedEvent {
                    at_query: at(1),
                    event: ServeEvent::IngestCommit { blocks: 2 },
                },
                ScriptedEvent {
                    at_query: at(2),
                    event: ServeEvent::NodeLoss {
                        node: rng.below(NODES as u64) as u32,
                    },
                },
            ];
            Segment { stream, events }
        })
        .collect()
}

fn digest(report: &ServeReport) -> u64 {
    let mut h = datanet::FxHasher64::default();
    h.write(report.answers.canonical_json().as_bytes());
    h.finish()
}

impl ServeMixed {
    pub fn new(seed: u64, tr: &mut Tracer, v: &mut Values) -> Self {
        let (records, ranked) = data::generate(BLOCKS, tr, v);
        Self {
            records,
            ranked,
            ops: op_list(seed),
            cfg: ServeConfig {
                workers: 4,
                queue_cap: 64,
                // Wide enough that the hottest sub-dataset's Equation 6
                // estimate fits one grant: the workload measures planning
                // beside ingest, not quota pressure.
                quantum_bytes: 64 << 20,
                ..ServeConfig::default()
            },
        }
    }
}

impl Workload for ServeMixed {
    type Base = Base;

    const NAME: &'static str = "serve_mixed";
    const OPS: usize = OPS;
    const REPLAYS: usize = REPLAYS;

    fn setup(&self, _dir: &Path, tr: &mut Tracer) -> Base {
        let dfs = data::write_dfs(NODES, &self.records, tr);
        let world = tr.call(
            Layer::Serve,
            "serve.world_new",
            dfs.block_count() as u64,
            || World::new(dfs, SUBDATASETS, data::policy(), 0x5EED),
        );
        Base {
            world,
            totals: Totals::default(),
        }
    }

    fn op(&self, b: &mut Base, i: usize, tr: &mut Tracer) -> OpOutcome {
        let seg = &self.ops[i];
        // Every segment starts from its own copy of the set-up world; the
        // copy is not the product's work.
        let world = tr.untimed(Layer::Harness, "harness.world_clone", || b.world.clone());
        let report = tr.call(Layer::Serve, "serve.call", seg.stream.len() as u64, || {
            serve(world, &seg.stream, &seg.events, &self.cfg, &Recorder::off())
        });
        // Serialising the answers is the harness checking them, not the
        // tenant waiting for them.
        let answers = tr.untimed(Layer::Harness, "harness.answers_digest", || digest(&report));
        let t = &mut b.totals;
        for o in &report.answers.outcomes {
            match o.disposition {
                Disposition::Completed { .. } => t.completed += 1,
                Disposition::Shed { .. } => t.shed += 1,
                Disposition::Rejected { .. } => t.rejected += 1,
            }
        }
        t.cache_hits += report.answers.cache_hits;
        t.cache_misses += report.answers.cache_misses;
        t.sim_p50_us += report.timing.p50_latency_us;
        t.sim_p99_us += report.timing.p99_latency_us;
        OpOutcome {
            ok: report.answers.outcomes.len() == seg.stream.len(),
            work: fold(answers, report.answers.cache_hits),
        }
    }

    fn finish(&self, b: Base, dir: &Path, tr: &mut Tracer, v: &mut Values) -> Vec<Check> {
        let t = &b.totals;
        let queries = (OPS as u64 * QUERIES as u64) as f64;
        v.set("dfs.blocks", b.world.dfs().block_count() as f64);
        v.set("serve.queries_per_call", QUERIES as f64);
        v.set("serve.completed_frac", t.completed as f64 / queries);
        v.set("serve.shed_frac", t.shed as f64 / queries);
        v.set("serve.rejected_frac", t.rejected as f64 / queries);
        v.set(
            "serve.cache_hit_frac",
            t.cache_hits as f64 / (t.cache_hits + t.cache_misses).max(1) as f64,
        );
        v.set(
            "serve.sim_p50_latency_ms",
            t.sim_p50_us as f64 / 1e3 / OPS as f64,
        );
        v.set(
            "serve.sim_p99_latency_ms",
            t.sim_p99_us as f64 / 1e3 / OPS as f64,
        );

        // A coherent cache changes where plans come from, never what they
        // are: segment 0 with the cache off answers the same.
        let seg = &self.ops[0];
        let off = ServeConfig {
            cache: false,
            ..self.cfg
        };
        let cached = serve(
            b.world.clone(),
            &seg.stream,
            &seg.events,
            &self.cfg,
            &Recorder::off(),
        );
        let uncached = serve(
            b.world.clone(),
            &seg.stream,
            &seg.events,
            &off,
            &Recorder::off(),
        );
        let coherent = cached.answers.normalized() == uncached.answers.normalized();

        // What `serve` hides, standalone on the same world.
        let mut world = b.world.clone();
        let subs: Vec<SubDatasetId> = (0..SUBDATASETS).map(SubDatasetId).collect();
        tr.call(Layer::Serve, "serve.plan_batch", 1, || {
            world.plan_batch(&subs, false)
        });
        tr.call(Layer::Serve, "serve.world_apply_commit", 1, || {
            world.apply(&ServeEvent::IngestCommit { blocks: 2 })
        });
        let mut dfs = b.world.dfs().clone();
        let block: Vec<Record> = dfs.blocks()[0].records().to_vec();
        tr.call(Layer::Dfs, "dfs.append_block", 1, || {
            dfs.append_block(block)
        });

        let ids = quality::probe_ids(&self.ranked);
        let roundtrip = quality::measure(b.world.dfs(), b.world.array(), &ids, None, dir, tr, v);
        vec![
            Check {
                name: "answers equal a cache-off twin after normalisation",
                ok: coherent,
            },
            Check {
                name: "saved store answers the probe views like the array",
                ok: roundtrip,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_is_a_function_of_the_seed() {
        let key = |ops: &[Segment]| -> Vec<(Vec<QuerySpec>, [ScriptedEvent; 3])> {
            ops.iter().map(|s| (s.stream.clone(), s.events)).collect()
        };
        assert_eq!(key(&op_list(31)), key(&op_list(31)));
        assert_ne!(key(&op_list(31)), key(&op_list(32)));
        let ops = op_list(31);
        assert_eq!(ops.len(), OPS);
        for s in &ops {
            assert_eq!(s.stream.len(), QUERIES as usize);
            assert!(s.events.windows(2).all(|w| w[0].at_query < w[1].at_query));
            assert!(s.events[2].at_query < QUERIES);
        }
    }
}
