//! Integration properties for the multi-tenant serving plane
//! (`datanet-serve`).
//!
//! Two properties anchor this file:
//!
//! 1. **Concurrent ≡ sequential** — the canonical answers section of a
//!    serve report is byte-identical across any worker count and any
//!    schedule seed, for ≥ 20 stream seeds × all three tenant mixes. The
//!    decision plane never consults the execution plane, so concurrency
//!    can move *when* work runs but never what it produces.
//! 2. **Cache-invalidation crash sweep** — one or two ingest commits and
//!    node losses injected at *every* stream position (the same prefix
//!    enumeration the durable-store sweeps use, via
//!    [`testkit::write_prefixes`]) never yield a stale cached plan, with
//!    either planner: every completed query's served digest equals a
//!    fresh plan's digest at the epoch the outcome claims.
//!
//! A last test pins what the plan cache does under multi-tenant load on
//! a larger world: one miss per sub-dataset and a served outcome that
//! cache off reproduces exactly.

use datanet::{ElasticMapArray, Separation};
use datanet_check::{Scenario, ServeEventPlan};
use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_integration::testkit;
use datanet_obs::Recorder;
use datanet_serve::{
    generate_stream, plan_digest, serve, Disposition, QuerySpec, ScriptedEvent, ServeConfig,
    ServeEvent, StreamConfig, TenantMix, World,
};

const SUBDATASETS: u64 = 5;

fn build_world(seed: u64) -> World {
    let records: Vec<Record> = (0..150)
        .map(|i| Record::new(SubDatasetId(i % SUBDATASETS), i, 260, seed ^ i))
        .collect();
    let dfs = Dfs::write_random(
        DfsConfig {
            block_size: 2_000,
            replication: 2,
            topology: Topology::single_rack(4),
            seed,
        },
        records,
    );
    World::new(dfs, SUBDATASETS, Separation::Alpha(0.4), seed)
}

fn build_stream(mix: TenantMix, seed: u64, queries: u32) -> Vec<QuerySpec> {
    generate_stream(&StreamConfig {
        tenants: 3,
        queries,
        gap_us: 400,
        subdatasets: SUBDATASETS,
        mix,
        seed,
    })
}

/// Property 1: any seeded worker interleaving produces the sequential
/// run's answers, byte for byte, across ≥ 20 seeds × all tenant mixes.
#[test]
fn concurrent_answers_equal_sequential_over_seeds_and_mixes() {
    for seed in 0..20u64 {
        for mix in TenantMix::ALL {
            let stream = build_stream(mix, seed, 30);
            let sequential = serve(
                build_world(seed),
                &stream,
                &[],
                &ServeConfig {
                    workers: 1,
                    schedule_seed: 0,
                    ..ServeConfig::default()
                },
                &Recorder::off(),
            );
            for (workers, schedule_seed) in [(3, seed ^ 0xABCD), (8, seed.rotate_left(17))] {
                let concurrent = serve(
                    build_world(seed),
                    &stream,
                    &[],
                    &ServeConfig {
                        workers,
                        schedule_seed,
                        ..ServeConfig::default()
                    },
                    &Recorder::off(),
                );
                assert_eq!(
                    concurrent.answers.canonical_json(),
                    sequential.answers.canonical_json(),
                    "seed {seed} mix {} workers {workers}: concurrent answers \
                     diverged from sequential",
                    mix.as_str()
                );
            }
        }
    }
}

/// Property 2: the epoch-keyed cache never serves a stale plan, wherever
/// world mutations land in the stream. For each script of one or two
/// events (an ingest commit, a node loss, each order of the two, and the
/// loss of a second node after a first), inject the events before every
/// ordered pair of stream positions (and after the last arrival), with
/// both planners, then check every completed outcome's digest against a
/// fresh plan computed on a replayed world at the claimed epoch.
#[test]
fn cache_invalidation_sweep_never_serves_a_stale_plan() {
    let queries = 12u32;
    let seed = 23u64;
    let stream = build_stream(TenantMix::Uniform, seed, queries);
    let ingest = ServeEvent::IngestCommit { blocks: 2 };
    let loss = |node| ServeEvent::NodeLoss { node };
    let scripts: [&[ServeEvent]; 5] = [
        &[ingest],
        &[loss(1)],
        &[ingest, loss(1)],
        &[loss(1), ingest],
        &[loss(1), loss(2)],
    ];
    // Same crash-point enumeration as the durable-store sweeps: nothing
    // before an event, each proper prefix, everything; a later event
    // never fires before an earlier one.
    let placements = |events: usize| -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        for _ in 0..events {
            out = (out.iter())
                .flat_map(|prefix| {
                    let from = prefix.last().map_or(0, |&p| p as usize);
                    (testkit::write_prefixes(queries as usize).skip(from)).map(move |at| {
                        let mut next = prefix.clone();
                        next.push(at as u32);
                        next
                    })
                })
                .collect();
        }
        out
    };
    for maxflow in [false, true] {
        let cfg = ServeConfig {
            maxflow,
            ..ServeConfig::default()
        };
        for script in scripts {
            // Replay each event prefix to rebuild every reachable world.
            let mut worlds = vec![build_world(seed)];
            for event in script {
                let mut next = worlds.last().expect("the initial world").clone();
                next.apply(event);
                worlds.push(next);
            }
            let mut seen = vec![false; worlds.len()];
            for at in placements(script.len()) {
                let events: Vec<ScriptedEvent> = (at.iter().zip(script))
                    .map(|(&at_query, &event)| ScriptedEvent { at_query, event })
                    .collect();
                let report = serve(build_world(seed), &stream, &events, &cfg, &Recorder::off());
                for o in &report.answers.outcomes {
                    let Disposition::Completed {
                        sub,
                        epoch,
                        plan_digest: served,
                        ..
                    } = o.disposition
                    else {
                        continue;
                    };
                    let w =
                        (worlds.iter().position(|w| w.epoch_key() == epoch)).unwrap_or_else(|| {
                            panic!("events at {at:?}: query {} claims unreachable epoch", o.id)
                        });
                    let fresh =
                        plan_digest(&worlds[w].plan_batch(&[SubDatasetId(sub)], maxflow)[0]);
                    assert_eq!(
                        served, fresh,
                        "{script:?} at {at:?}, maxflow {maxflow}: query {} (sub-dataset \
                         {sub}) was served a stale cached plan",
                        o.id
                    );
                    seen[w] = true;
                }
                assert!(
                    (report.answers.outcomes.iter())
                        .any(|o| matches!(o.disposition, Disposition::Completed { .. })),
                    "events at {at:?}: the sweep must complete queries to be meaningful"
                );
            }
            // The sweep completed queries at every epoch the script
            // reaches — otherwise the property above is vacuous there.
            assert!(
                seen.iter().all(|&s| s),
                "{script:?}, maxflow {maxflow}: sweep observed only epochs {seen:?}"
            );
        }
    }
}

/// The cache is not a bystander in these sweeps: with the mutation
/// mid-stream, repeated sub-dataset requests must hit on both sides of
/// the epoch boundary.
#[test]
fn sweep_runs_actually_exercise_the_cache() {
    let stream = build_stream(TenantMix::Adversarial, 31, 16);
    let events = [ScriptedEvent {
        at_query: 8,
        event: ServeEvent::IngestCommit { blocks: 2 },
    }];
    let report = serve(
        build_world(31),
        &stream,
        &events,
        &ServeConfig::default(),
        &Recorder::off(),
    );
    assert!(
        report.answers.cache_hits > 0,
        "an adversarial mix hammering one sub-dataset must produce cache hits"
    );
    assert!(
        report.answers.cache_misses >= 2,
        "the epoch bump must force at least one fresh plan per side"
    );
}

/// Delta ≡ rebuild on sim-check worlds: after every scripted event of a
/// corpus scenario with at least two ingest commits and a node loss, the
/// array `World::apply` grew by pushing the new blocks' maps is — bytes and
/// symbol table — the from-scratch build over the world's DFS.
#[test]
fn world_array_grown_by_commits_equals_a_rebuild_on_corpus_worlds() {
    let mut covered = 0;
    for seed in include_str!("corpus/seeds.txt")
        .lines()
        .filter_map(|l| l.trim().parse::<u64>().ok())
    {
        let sc = Scenario::from_seed(seed);
        let commits = (sc.serve.events.iter())
            .filter(|e| matches!(e, ServeEventPlan::Ingest { .. }))
            .count();
        if commits < 2 || commits == sc.serve.events.len() {
            continue;
        }
        covered += 1;
        let policy = Separation::Alpha(sc.alpha);
        let mut world = World::new(sc.build_dfs(), sc.subdatasets, policy.clone(), sc.seed);
        for (k, e) in sc.serve.events.iter().enumerate() {
            world.apply(&match *e {
                ServeEventPlan::Ingest { blocks, .. } => ServeEvent::IngestCommit { blocks },
                ServeEventPlan::NodeLoss { node, .. } => ServeEvent::NodeLoss {
                    node: node % sc.nodes,
                },
            });
            let rebuilt = ElasticMapArray::build(world.dfs(), &policy);
            assert_eq!(
                serde_json::to_string(world.array()).expect("arrays serialise"),
                serde_json::to_string(&rebuilt).expect("arrays serialise"),
                "seed {seed}: delta diverged from rebuild after event {k}"
            );
            assert_eq!(world.array().symbols(), rebuilt.symbols(), "seed {seed}");
        }
    }
    assert!(
        covered > 0,
        "no corpus seed scripts 2 commits and a node loss"
    );
}

/// The plan cache under multi-tenant load, on the
/// [`datanet_integration::serve`] world at 8 000 records (8 sub-datasets,
/// 10 nodes) and a 720-query skewed stream at 1, 8 and 64 tenants. Cache
/// off, it is never consulted; cache on, it plans each sub-dataset at most
/// once and changes nothing the tenants see. The cache-on outcome
/// `(completed, rejected, shed, p50 µs, p99 µs, misses)` is pinned: every
/// field is simulated, so any drift is a behaviour change of the planner
/// or the serving plane.
#[test]
fn plan_cache_plans_each_subdataset_once_and_pins_the_served_outcome() {
    use datanet_integration::serve::{self as load, Outcome};
    const PINNED: [(u32, Outcome); 3] = [
        (1, (234, 292, 194, 18_027_297, 34_818_875, 8)),
        (8, (682, 0, 38, 51_825_823, 101_858_461, 8)),
        (64, (720, 0, 0, 54_248_642, 107_287_546, 8)),
    ];
    let world = load::world(8_000);
    for (tenants, pinned) in PINNED {
        let (on, off) = (
            load::run(&world, tenants, 720, true),
            load::run(&world, tenants, 720, false),
        );
        assert_eq!(
            (off.answers.cache_hits, off.answers.cache_misses),
            (0, 0),
            "{tenants} tenants: a disabled cache was consulted"
        );
        assert!(
            on.answers.cache_hits > 0 && on.answers.cache_misses <= load::SUBDATASETS,
            "{tenants} tenants: {} hits, {} misses over {} sub-datasets",
            on.answers.cache_hits,
            on.answers.cache_misses,
            load::SUBDATASETS
        );
        assert!(
            on.answers.normalized() == off.answers.normalized() && on.timing == off.timing,
            "{tenants} tenants: the cache changed what was served or when"
        );
        assert_eq!(
            load::outcome(&on),
            pinned,
            "{tenants} tenants: served outcome drifted"
        );
    }
}
