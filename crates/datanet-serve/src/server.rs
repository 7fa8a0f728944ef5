//! The serving plane: admission control, deficit-round-robin fair-share
//! quotas, the plan cache, and a seeded worker pool.
//!
//! # Decision plane vs execution plane
//!
//! The run is split in two:
//!
//! 1. **Decision plane** — a single-threaded pass over the arrival
//!    timeline. It admits, queues, sheds, rejects, plans (through the
//!    cache) and prices every query, in scheduling rounds on the simulated
//!    clock. Nothing here depends on worker count or worker interleaving,
//!    so the canonical [`ServeAnswers`] section of the report is provably
//!    byte-identical across any concurrency level — the property
//!    `tests/serve.rs` checks seed by seed.
//! 2. **Execution plane** — a pool of workers drains the admitted queries
//!    in admission order. Each query's execution *cost* was already fixed
//!    by the decision plane (the engine's closed-form
//!    `planned_makespan`), so interleaving only moves *when* and *where*
//!    work runs, never what it produces. Worker choice on ties is drawn
//!    from the schedule seed; everything it can influence lands in
//!    [`ServeTiming`], outside the canonical section.
//!
//! # Fair-share invariants (the fairness oracle's contract)
//!
//! Deficit round robin grants each backlogged tenant `quantum_bytes` of
//! estimated plan bytes (Equation 6) per round and serves its queue while
//! the head fits the accumulated deficit. Grant a tenant cannot use (its
//! queue empties) is *forfeited*, never banked. The following follow from
//! the loop structure alone — no tuning — and are checked for **every**
//! seed by the `serve-fairness` oracle:
//!
//! * `granted == rounds_backlogged × quantum` — grants accrue exactly one
//!   quantum per backlogged round, nothing else;
//! * `served + forfeited == granted` — every granted byte is either spent
//!   on admissions or explicitly returned, so `served ≤ granted`: no
//!   tenant is ever served past its share;
//! * `forfeited ≤ busy_periods × (quantum + max_est)` — grant is only
//!   returned when a backlog drains, at most once per backlog episode and
//!   bounded by one quantum plus one query estimate. So a *continuously*
//!   backlogged tenant (one busy period, no drain) is served to within
//!   `quantum + max_est` of its full grant — the calibrated deviation
//!   bound on admitted-bytes shares.

use crate::stream::QuerySpec;
use crate::world::{plan_digest, EpochKey, ScriptedEvent, World};
use datanet::{Assignment, FastMap, SubDatasetView};
use datanet_dfs::SubDatasetId;
use datanet_mapreduce::{planned_makespan, SelectionConfig};
use datanet_obs::{Category, Domain, QueryCtx, Recorder, SpanCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;

/// Knobs of one serve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Execution workers (≥ 1). Affects timing only, never answers.
    pub workers: u32,
    /// Bounded admission queue: total queries queued across all tenants.
    /// Arrivals past the bound get a typed [`RejectReason::QueueFull`].
    pub queue_cap: usize,
    /// DRR quantum: estimated plan bytes granted per tenant per round (≥ 1).
    pub quantum_bytes: u64,
    /// Simulated microseconds per scheduling round.
    pub round_us: u64,
    /// Shed a queued query once it has waited this many whole rounds
    /// without being admitted (load shedding; 0 sheds anything not
    /// admitted in its arrival round).
    pub max_wait_rounds: u32,
    /// Consult the epoch-keyed plan cache.
    pub cache: bool,
    /// Plan with the max-flow optimal planner instead of the greedy
    /// balancer.
    pub maxflow: bool,
    /// Seed for worker tie-breaking in the execution plane.
    pub schedule_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_cap: 32,
            quantum_bytes: 64 * 1024,
            round_us: 2_000,
            max_wait_rounds: 16,
            cache: true,
            maxflow: false,
            schedule_seed: 0,
        }
    }
}

/// Why an arrival was turned away at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RejectReason {
    /// The bounded admission queue was full.
    QueueFull,
}

/// What finally happened to one query. Exactly one disposition per stream
/// query — the conservation oracle's unit of account.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Disposition {
    /// Admitted, planned and executed.
    Completed {
        /// Requested sub-dataset.
        sub: u64,
        /// Epoch the plan was served at.
        epoch: EpochKey,
        /// Whether the plan came out of the cache.
        cache_hit: bool,
        /// Digest of the served plan's wire form ([`plan_digest`]).
        plan_digest: u64,
        /// Equation-6 estimate charged against the tenant's quota.
        est_bytes: u64,
        /// Blocks in the served plan.
        assigned_blocks: usize,
        /// Scheduling round of admission.
        round: u64,
    },
    /// Turned away at arrival.
    Rejected {
        /// The typed reason.
        reason: RejectReason,
    },
    /// Queued, then dropped by load shedding.
    Shed {
        /// Whole rounds the query waited before being dropped.
        waited_rounds: u64,
    },
}

/// One query's final record in the canonical answers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueryOutcome {
    /// Stream query id.
    pub id: u64,
    /// Issuing tenant.
    pub tenant: u32,
    /// The disposition.
    pub disposition: Disposition,
}

/// Per-tenant fair-share accounting (the fairness oracle's inputs).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TenantStats {
    /// Tenant index.
    pub tenant: u32,
    /// Estimated bytes granted by DRR: exactly one quantum per backlogged
    /// round.
    pub granted_bytes: u64,
    /// Estimated bytes of admitted queries.
    pub served_bytes: u64,
    /// Grant returned unused when the tenant's backlog drained (and any
    /// residue at run end). `served + forfeited == granted` always.
    pub forfeited_bytes: u64,
    /// Largest single-query estimate that entered this tenant's queue.
    pub max_est_bytes: u64,
    /// Rounds in which this tenant was backlogged at its DRR turn.
    pub rounds_backlogged: u64,
    /// Backlog episodes: transitions of this tenant's queue from empty to
    /// non-empty.
    pub busy_periods: u32,
    /// Queries admitted (and therefore completed).
    pub admitted: u32,
    /// Queries rejected at the door.
    pub rejected: u32,
    /// Queries shed after queuing.
    pub shed: u32,
}

/// The canonical section of a serve report: everything the decision plane
/// determined. Byte-identical across worker counts and schedule seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeAnswers {
    /// One outcome per stream query, in stream order.
    pub outcomes: Vec<QueryOutcome>,
    /// Per-tenant quota accounting.
    pub tenants: Vec<TenantStats>,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// The DRR quantum the run used.
    pub quantum_bytes: u64,
}

impl ServeAnswers {
    /// The canonical wire form — what the concurrent ≡ sequential
    /// property compares.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("answers always serialise")
    }

    /// A copy with every cache-visible field cleared (`cache_hit` flags
    /// and hit/miss counters), for comparing cache-on and cache-off runs:
    /// a coherent cache may change *where* plans come from, never what
    /// they are.
    pub fn normalized(&self) -> ServeAnswers {
        let mut c = self.clone();
        c.cache_hits = 0;
        c.cache_misses = 0;
        for o in &mut c.outcomes {
            if let Disposition::Completed { cache_hit, .. } = &mut o.disposition {
                *cache_hit = false;
            }
        }
        c
    }
}

/// The timing section: everything the execution plane (worker count,
/// schedule seed) can influence.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeTiming {
    /// Worker-pool size of the run.
    pub workers: u32,
    /// Tie-break seed of the run.
    pub schedule_seed: u64,
    /// When the last execution finished (simulated µs).
    pub makespan_us: u64,
    /// Median completed-query latency (arrival → execution end, sim µs).
    pub p50_latency_us: u64,
    /// 99th-percentile completed-query latency (sim µs).
    pub p99_latency_us: u64,
    /// Completed queries per simulated second.
    pub throughput_qps: f64,
    /// Busy µs accumulated per worker.
    pub worker_busy_us: Vec<u64>,
}

/// A full serve run's result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Decision-plane section (canonical).
    pub answers: ServeAnswers,
    /// Execution-plane section (worker-dependent).
    pub timing: ServeTiming,
}

struct Queued {
    idx: usize,
    est: u64,
    entered_round: u64,
}

struct ExecItem {
    idx: usize,
    ready_us: u64,
    duration_us: u64,
}

/// A plan as it is served: the digest of its wire form and its execution
/// price (`planned_makespan` for the sub-dataset it was made for, µs, ≥ 1),
/// both taken once, where the plan is made.
struct Served {
    plan: Assignment,
    digest: u64,
    duration_us: u64,
}

impl Served {
    fn new(world: &World, sub: SubDatasetId, plan: Assignment, sel: &SelectionConfig) -> Arc<Self> {
        let digest = plan_digest(&plan);
        let duration_us = planned_makespan(world.dfs(), sub, &plan, sel).as_micros();
        Arc::new(Self {
            plan,
            digest,
            duration_us: duration_us.max(1),
        })
    }
}

/// One sub-dataset at one data epoch (NameNode epoch, ingest epoch): the
/// key a view depends on. A node loss moves neither.
struct Entry {
    view: SubDatasetView,
    /// The view's Equation-6 estimate (≥ 1), charged against quotas.
    est: u64,
    /// The alive-blind plan (`World::plan_view`), made by the first miss
    /// and re-patched by every miss after a node loss.
    blind: Option<Arc<Served>>,
    /// The plan last served, with the cluster epoch it was served at.
    served: Option<(u64, Arc<Served>)>,
}

impl Entry {
    fn new(view: SubDatasetView) -> Self {
        let est = view.estimated_total().max(1);
        Self {
            view,
            est,
            blind: None,
            served: None,
        }
    }
}

/// Run the serving plane over `stream` against `world`, applying the
/// scripted `events` at their anchored stream positions. Consumes the
/// world (it mutates under events); clone the initial world first if you
/// need to replay prefixes afterwards.
///
/// # Panics
/// Panics on a zero quantum, zero workers, a zero round length, a stream
/// not sorted by arrival, or events not sorted by `at_query`.
pub fn serve(
    world: World,
    stream: &[QuerySpec],
    events: &[ScriptedEvent],
    cfg: &ServeConfig,
    rec: &Recorder,
) -> ServeReport {
    serve_inner(world, stream, events, cfg, rec, false)
}

fn serve_inner(
    mut world: World,
    stream: &[QuerySpec],
    events: &[ScriptedEvent],
    cfg: &ServeConfig,
    rec: &Recorder,
    plant_staleness: bool,
) -> ServeReport {
    assert!(cfg.quantum_bytes >= 1, "quantum must be positive");
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(cfg.round_us >= 1, "rounds must advance the clock");
    assert!(
        stream
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us),
        "stream must be sorted by arrival"
    );
    assert!(
        events.windows(2).all(|w| w[0].at_query <= w[1].at_query),
        "events must be sorted by at_query"
    );
    let tenants = stream
        .iter()
        .map(|q| q.tenant)
        .max()
        .map_or(1, |m| m as usize + 1);
    let sel_cfg = SelectionConfig::default();

    let mut queues: Vec<VecDeque<Queued>> = (0..tenants).map(|_| VecDeque::new()).collect();
    let mut queued_total = 0usize;
    let mut outcomes: Vec<Option<Disposition>> = vec![None; stream.len()];
    let mut exec: Vec<ExecItem> = Vec::new();

    let mut stats: Vec<TenantStats> = (0..tenants)
        .map(|t| TenantStats {
            tenant: t as u32,
            ..TenantStats::default()
        })
        .collect();
    let mut deficit = vec![0u64; tenants];

    // The plan cache: one entry per sub-dataset and data epoch, filled by
    // the arrival estimate or by a round's batched view walk. A lookup hits
    // when the entry has served a plan at the current cluster epoch; epochs
    // only move forward, so an entry never serves a plan from another epoch.
    let mut table: FastMap<(u64, u64, u64), Entry> = FastMap::default();
    let slot = |sub: u64, key: EpochKey| (sub, key.namenode, key.ingest);
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);

    let mut next_arrival = 0usize;
    let mut next_event = 0usize;
    let mut round: u64 = 0;

    while next_arrival < stream.len() || queued_total > 0 {
        let now = round * cfg.round_us;

        // 1. Arrivals up to this round's instant, with scripted events
        // firing immediately before their anchored arrival.
        while next_arrival < stream.len() && stream[next_arrival].arrival_us <= now {
            while next_event < events.len()
                && (events[next_event].at_query as usize) <= next_arrival
            {
                world.apply(&events[next_event].event);
                next_event += 1;
            }
            let q = &stream[next_arrival];
            let ts = &mut stats[q.tenant as usize];
            if queued_total >= cfg.queue_cap {
                outcomes[next_arrival] = Some(Disposition::Rejected {
                    reason: RejectReason::QueueFull,
                });
                ts.rejected += 1;
                query_scope(rec, q).add("serve_rejected_total", 1);
            } else {
                let est = (table.entry(slot(q.sub.0, world.epoch_key())))
                    .or_insert_with(|| Entry::new(world.array().view(q.sub)))
                    .est;
                ts.max_est_bytes = ts.max_est_bytes.max(est);
                let queue = &mut queues[q.tenant as usize];
                if queue.is_empty() {
                    ts.busy_periods += 1;
                }
                queue.push_back(Queued {
                    idx: next_arrival,
                    est,
                    entered_round: round,
                });
                queued_total += 1;
            }
            next_arrival += 1;
        }
        // Events anchored past the end of the stream fire once every
        // arrival is in.
        if next_arrival >= stream.len() {
            while next_event < events.len() {
                world.apply(&events[next_event].event);
                next_event += 1;
            }
        }
        rec.gauge("serve_queue_depth", Domain::Sim, now, queued_total as f64);

        // 2. Deficit round robin: grant each backlogged tenant a quantum,
        // admit from its queue head while the head fits the deficit.
        let mut batch: Vec<Queued> = Vec::new();
        for (t, ts) in stats.iter_mut().enumerate() {
            if queues[t].is_empty() {
                // Backlog drained: whatever deficit is left is unused
                // grant — forfeit it. A tenant with nothing queued holds
                // no claim on future rounds.
                ts.forfeited_bytes += deficit[t];
                deficit[t] = 0;
                continue;
            }
            ts.rounds_backlogged += 1;
            deficit[t] += cfg.quantum_bytes;
            ts.granted_bytes += cfg.quantum_bytes;
            while let Some(head) = queues[t].front() {
                if head.est <= deficit[t] {
                    deficit[t] -= head.est;
                    ts.served_bytes += head.est;
                    batch.push(queues[t].pop_front().unwrap());
                    queued_total -= 1;
                } else {
                    break;
                }
            }
        }

        // 3. Load shedding: queue heads that have waited out their budget.
        for (queue, ts) in queues.iter_mut().zip(&mut stats) {
            while let Some(head) = queue.front() {
                if round >= head.entered_round + cfg.max_wait_rounds as u64 {
                    let waited = round - head.entered_round;
                    let idx = head.idx;
                    queue.pop_front();
                    queued_total -= 1;
                    outcomes[idx] = Some(Disposition::Shed {
                        waited_rounds: waited,
                    });
                    ts.shed += 1;
                    query_scope(rec, &stream[idx]).add("serve_shed_total", 1);
                } else {
                    break;
                }
            }
        }

        // 4. Plan the admitted batch through the cache. Sub-datasets not
        // yet resolved at this data epoch share one batched view walk.
        if !batch.is_empty() {
            let key = world.epoch_key();
            let mut subs: Vec<u64> = batch.iter().map(|b| stream[b.idx].sub.0).collect();
            subs.sort_unstable();
            subs.dedup();
            let unresolved: Vec<SubDatasetId> = (subs.iter())
                .filter(|&&s| !table.contains_key(&slot(s, key)))
                .map(|&s| SubDatasetId(s))
                .collect();
            if !unresolved.is_empty() {
                for (id, view) in unresolved.iter().zip(world.array().views(&unresolved)) {
                    table.insert(slot(id.0, key), Entry::new(view));
                }
            }
            // Each sub-dataset's served plan, and whether the cache
            // answered: a hit copies a pointer.
            let mut plans: FastMap<u64, (Arc<Served>, bool)> = FastMap::default();
            for &s in &subs {
                let hit = if !cfg.cache {
                    None
                } else if plant_staleness {
                    // Planted bug: any epoch matches, so the sub-dataset's
                    // first served plan is served forever.
                    (table.iter())
                        .filter(|((sub, ..), _)| *sub == s)
                        .find_map(|(_, e)| e.served.as_ref())
                        .map(|(_, p)| Arc::clone(p))
                } else {
                    (table[&slot(s, key)].served.as_ref())
                        .filter(|(cluster, _)| *cluster == key.cluster)
                        .map(|(_, p)| Arc::clone(p))
                };
                if let Some(planned) = hit {
                    cache_hits += 1;
                    plans.insert(s, (planned, true));
                    continue;
                }
                cache_misses += u64::from(cfg.cache);
                let id = SubDatasetId(s);
                let e = table.get_mut(&slot(s, key)).expect("resolved above");
                if !cfg.cache {
                    // Cache off: every admitted batch walks the planner.
                    e.blind = None;
                }
                let blind = e.blind.get_or_insert_with(|| {
                    Served::new(&world, id, world.plan_view(&e.view, cfg.maxflow), &sel_cfg)
                });
                // A node loss patches the alive-blind plan; it never re-plans.
                let planned = match world.patch_dead(&e.view, &blind.plan) {
                    Some(patched) => Served::new(&world, id, patched, &sel_cfg),
                    None => Arc::clone(blind),
                };
                e.served = Some((key.cluster, Arc::clone(&planned)));
                plans.insert(s, (planned, false));
            }
            for item in batch {
                let q = &stream[item.idx];
                let (ref planned, cache_hit) = plans[&q.sub.0];
                outcomes[item.idx] = Some(Disposition::Completed {
                    sub: q.sub.0,
                    epoch: key,
                    cache_hit,
                    plan_digest: planned.digest,
                    est_bytes: item.est,
                    assigned_blocks: planned.plan.assigned_blocks(),
                    round,
                });
                stats[q.tenant as usize].admitted += 1;
                query_scope(rec, q).add("serve_admitted_total", 1);
                exec.push(ExecItem {
                    idx: item.idx,
                    ready_us: now,
                    duration_us: planned.duration_us,
                });
            }
        }
        round += 1;
    }

    // Final settlement: the run ends with every queue empty, so residual
    // deficits are unused grant — forfeit them. After this,
    // `served + forfeited == granted` holds exactly for every tenant.
    for (ts, d) in stats.iter_mut().zip(deficit) {
        ts.forfeited_bytes += d;
    }

    rec.add("serve_cache_hits_total", cache_hits);
    rec.add("serve_cache_misses_total", cache_misses);

    // 5. Execution plane: drain admitted queries in admission order over
    // the worker pool. Ties on the earliest-free worker break by the
    // schedule seed — by construction this can only relabel *which*
    // worker runs a query at the same instant, so answers and even
    // latencies are independent of the seed.
    let workers = cfg.workers as usize;
    let mut rng = StdRng::seed_from_u64(cfg.schedule_seed ^ 0x5E4E_57EA_0000_0002);
    let mut free = vec![0u64; workers];
    let mut busy = vec![0u64; workers];
    let mut makespan_us = 0u64;
    let mut latencies: Vec<u64> = Vec::with_capacity(exec.len());
    for item in &exec {
        let min_free = *free.iter().min().unwrap();
        let ties: Vec<usize> = (0..workers).filter(|&w| free[w] == min_free).collect();
        let w = ties[rng.gen_range(0..ties.len())];
        let q = &stream[item.idx];
        let start = item.ready_us.max(free[w]);
        let end = start + item.duration_us;
        free[w] = end;
        busy[w] += item.duration_us;
        makespan_us = makespan_us.max(end);
        let latency = end - q.arrival_us;
        latencies.push(latency);
        let scoped = query_scope(rec, q);
        let span = scoped.begin(
            Category::Serve,
            "execute",
            Domain::Sim,
            start,
            SpanCtx::default().sub(q.sub.0).node(w),
        );
        scoped.end(span, end);
        scoped.observe_at("serve_latency_us", end, latency);
    }

    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let timing = ServeTiming {
        workers: cfg.workers,
        schedule_seed: cfg.schedule_seed,
        makespan_us,
        p50_latency_us: percentile(&sorted, 50),
        p99_latency_us: percentile(&sorted, 99),
        throughput_qps: if makespan_us == 0 {
            0.0
        } else {
            exec.len() as f64 / (makespan_us as f64 / 1e6)
        },
        worker_busy_us: busy,
    };

    let answers = ServeAnswers {
        outcomes: outcomes
            .into_iter()
            .enumerate()
            .map(|(i, d)| QueryOutcome {
                id: stream[i].id,
                tenant: stream[i].tenant,
                disposition: d.expect("every query gets exactly one disposition"),
            })
            .collect(),
        tenants: stats,
        cache_hits,
        cache_misses,
        quantum_bytes: cfg.quantum_bytes,
    };
    ServeReport { answers, timing }
}

/// `serve` with the cache-staleness fault planted in the plan cache: every
/// lookup ignores the epochs and serves the sub-dataset's first served
/// plan (the sim-check harness's self-test). Never call outside tests.
#[doc(hidden)]
pub fn serve_with_planted_staleness(
    world: World,
    stream: &[QuerySpec],
    events: &[ScriptedEvent],
    cfg: &ServeConfig,
    rec: &Recorder,
) -> ServeReport {
    serve_inner(world, stream, events, cfg, rec, true)
}

/// `rec` stamping `q`'s id and tenant on what it records — or `rec` as it
/// is when every plane is off and nothing would read the scope.
fn query_scope(rec: &Recorder, q: &QuerySpec) -> Recorder {
    if rec.is_enabled() || rec.is_metering() || rec.has_flight() {
        rec.scoped(QueryCtx::new(q.id).tenant(format!("t{}", q.tenant)))
    } else {
        rec.clone()
    }
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{generate_stream, StreamConfig, TenantMix};
    use crate::world::ServeEvent;
    use datanet::Separation;
    use datanet_dfs::{Dfs, DfsConfig, NodeId, Record, SubDatasetId, Topology};

    fn small_world(seed: u64) -> World {
        let records: Vec<Record> = (0..120)
            .map(|i| Record::new(SubDatasetId(i % 5), i, 280, seed ^ i))
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
        World::new(dfs, 5, Separation::Alpha(0.4), seed)
    }

    fn small_stream(mix: TenantMix, seed: u64) -> Vec<QuerySpec> {
        generate_stream(&StreamConfig {
            tenants: 3,
            queries: 40,
            gap_us: 500,
            subdatasets: 5,
            mix,
            seed,
        })
    }

    fn run(cfg: &ServeConfig, mix: TenantMix, seed: u64) -> ServeReport {
        serve(
            small_world(seed),
            &small_stream(mix, seed),
            &[],
            cfg,
            &Recorder::off(),
        )
    }

    #[test]
    fn every_query_gets_exactly_one_disposition_and_counts_balance() {
        for mix in TenantMix::ALL {
            let report = run(&ServeConfig::default(), mix, 3);
            let a = &report.answers;
            assert_eq!(a.outcomes.len(), 40);
            for (i, o) in a.outcomes.iter().enumerate() {
                assert_eq!(o.id, i as u64, "outcomes stay in stream order");
            }
            for ts in &a.tenants {
                let of_tenant = a.outcomes.iter().filter(|o| o.tenant == ts.tenant);
                let (mut c, mut r, mut s) = (0u32, 0u32, 0u32);
                for o in of_tenant {
                    match o.disposition {
                        Disposition::Completed { .. } => c += 1,
                        Disposition::Rejected { .. } => r += 1,
                        Disposition::Shed { .. } => s += 1,
                    }
                }
                assert_eq!((c, r, s), (ts.admitted, ts.rejected, ts.shed));
            }
        }
    }

    #[test]
    fn drr_invariants_hold_for_every_tenant() {
        for mix in TenantMix::ALL {
            // A tight quantum forces multi-round backlogs so the
            // invariants are exercised, not vacuous.
            let cfg = ServeConfig {
                quantum_bytes: 4 * 1024,
                queue_cap: 8,
                max_wait_rounds: 4,
                ..ServeConfig::default()
            };
            let report = run(&cfg, mix, 5);
            for ts in &report.answers.tenants {
                assert_eq!(
                    ts.granted_bytes,
                    ts.rounds_backlogged * cfg.quantum_bytes,
                    "grant accrues exactly one quantum per backlogged round"
                );
                assert_eq!(
                    ts.served_bytes + ts.forfeited_bytes,
                    ts.granted_bytes,
                    "every granted byte is spent or returned"
                );
                assert!(
                    ts.forfeited_bytes
                        <= ts.busy_periods as u64 * (cfg.quantum_bytes + ts.max_est_bytes),
                    "forfeit is bounded per backlog episode"
                );
            }
        }
    }

    #[test]
    fn answers_are_identical_across_worker_counts_and_schedule_seeds() {
        let base = run(&ServeConfig::default(), TenantMix::Skewed, 7);
        for (workers, schedule_seed) in [(1, 0), (4, 9), (16, 1234)] {
            let other = run(
                &ServeConfig {
                    workers,
                    schedule_seed,
                    ..ServeConfig::default()
                },
                TenantMix::Skewed,
                7,
            );
            assert_eq!(
                base.answers.canonical_json(),
                other.answers.canonical_json(),
                "decision plane must not see the execution plane"
            );
        }
    }

    #[test]
    fn cache_on_and_cache_off_agree_after_normalisation() {
        let events = [
            ScriptedEvent {
                at_query: 12,
                event: ServeEvent::IngestCommit { blocks: 2 },
            },
            ScriptedEvent {
                at_query: 25,
                event: ServeEvent::NodeLoss { node: 1 },
            },
        ];
        for mix in TenantMix::ALL {
            let on = serve(
                small_world(11),
                &small_stream(mix, 11),
                &events,
                &ServeConfig::default(),
                &Recorder::off(),
            );
            let off = serve(
                small_world(11),
                &small_stream(mix, 11),
                &events,
                &ServeConfig {
                    cache: false,
                    ..ServeConfig::default()
                },
                &Recorder::off(),
            );
            assert!(on.answers.cache_hits > 0, "the cache should be exercised");
            assert_eq!(off.answers.cache_hits, 0);
            assert_eq!(
                on.answers.normalized(),
                off.answers.normalized(),
                "a coherent cache changes where plans come from, never what they are"
            );
        }
    }

    #[test]
    fn a_node_loss_repatches_without_running_the_planner() {
        use crate::world::PLANNER_RUNS;
        let stream = small_stream(TenantMix::Uniform, 29);
        let loss = [ScriptedEvent {
            at_query: 20,
            event: ServeEvent::NodeLoss { node: 2 },
        }];
        // Planner runs and cache misses of one run.
        let runs = |events: &[ScriptedEvent], cache: bool| {
            let before = PLANNER_RUNS.with(|r| r.get());
            let cfg = ServeConfig {
                cache,
                ..ServeConfig::default()
            };
            let report = serve(small_world(29), &stream, events, &cfg, &Recorder::off());
            let runs = PLANNER_RUNS.with(|r| r.get()) - before;
            (runs, report.answers.cache_misses)
        };
        let (on_steady, misses_steady) = runs(&[], true);
        let (on_loss, misses_loss) = runs(&loss, true);
        assert!(
            misses_loss > misses_steady,
            "the loss must force plan misses to be meaningful"
        );
        assert_eq!(on_loss, on_steady, "a node loss re-patches, never re-plans");
        let (off_steady, _) = runs(&[], false);
        let (off_loss, _) = runs(&loss, false);
        assert_eq!(off_loss, off_steady, "cache off plans every admitted batch");
        assert!(off_steady > on_steady);
    }

    #[test]
    fn a_full_queue_rejects_and_stale_waiters_shed() {
        let cfg = ServeConfig {
            queue_cap: 4,
            quantum_bytes: 1, // nearly nothing admits per round
            max_wait_rounds: 2,
            ..ServeConfig::default()
        };
        let report = run(&cfg, TenantMix::Adversarial, 13);
        let a = &report.answers;
        let rejected = a
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.disposition,
                    Disposition::Rejected {
                        reason: RejectReason::QueueFull
                    }
                )
            })
            .count();
        let shed = a
            .outcomes
            .iter()
            .filter(|o| matches!(o.disposition, Disposition::Shed { .. }))
            .count();
        assert!(rejected > 0, "the bounded queue must reject under flood");
        assert!(shed > 0, "waiters past the budget must shed");
        for o in &a.outcomes {
            if let Disposition::Shed { waited_rounds } = o.disposition {
                assert!(waited_rounds >= cfg.max_wait_rounds as u64);
            }
        }
    }

    #[test]
    fn planted_staleness_serves_an_old_plan_across_an_ingest_commit() {
        let events = [ScriptedEvent {
            at_query: 10,
            event: ServeEvent::IngestCommit { blocks: 3 },
        }];
        let cfg = ServeConfig::default();
        let stream = small_stream(TenantMix::Adversarial, 17);
        let clean = serve(small_world(17), &stream, &events, &cfg, &Recorder::off());
        let buggy =
            serve_with_planted_staleness(small_world(17), &stream, &events, &cfg, &Recorder::off());
        // Find a query completed after the commit in both runs: the buggy
        // run must hand back the pre-commit digest.
        let mut diverged = false;
        for (c, b) in clean.answers.outcomes.iter().zip(&buggy.answers.outcomes) {
            if let (
                Disposition::Completed {
                    epoch: ce,
                    plan_digest: cd,
                    ..
                },
                Disposition::Completed {
                    epoch: be,
                    plan_digest: bd,
                    ..
                },
            ) = (&c.disposition, &b.disposition)
            {
                if ce.ingest > 0 && be.ingest > 0 && cd != bd {
                    diverged = true;
                }
            }
        }
        assert!(
            diverged,
            "the planted fault must observably serve a stale plan"
        );
    }

    /// `n` queries from one tenant, one per round, on the given sub-datasets.
    fn one_per_round(subs: &[u64]) -> Vec<QuerySpec> {
        (subs.iter().enumerate())
            .map(|(i, &s)| QuerySpec {
                id: i as u64,
                tenant: 0,
                sub: SubDatasetId(s),
                arrival_us: i as u64 * ServeConfig::default().round_us,
            })
            .collect()
    }

    /// `(cache_hit, epoch, plan_digest)` of every completed query.
    fn served(report: &ServeReport) -> Vec<(bool, EpochKey, u64)> {
        (report.answers.outcomes.iter())
            .map(|o| match o.disposition {
                Disposition::Completed {
                    cache_hit,
                    epoch,
                    plan_digest,
                    ..
                } => (cache_hit, epoch, plan_digest),
                ref other => panic!("query {} was not served: {other:?}", o.id),
            })
            .collect()
    }

    #[test]
    fn an_ingest_commit_or_a_node_loss_alone_turns_the_next_lookup_into_a_miss() {
        let stream = one_per_round(&[0, 0, 1, 0, 0]);
        for event in [
            ServeEvent::IngestCommit { blocks: 1 },
            ServeEvent::NodeLoss { node: 1 },
        ] {
            let events = [ScriptedEvent { at_query: 3, event }];
            let report = serve(
                small_world(23),
                &stream,
                &events,
                &ServeConfig::default(),
                &Recorder::off(),
            );
            let got = served(&report);
            let hits: Vec<bool> = got.iter().map(|g| g.0).collect();
            // Another sub-dataset at the same epoch misses too.
            assert_eq!(hits, [false, true, false, false, true], "{event:?}");
            assert_eq!(
                (report.answers.cache_hits, report.answers.cache_misses),
                (2, 3)
            );
            let (before, after) = (got[1].1, got[3].1);
            let data_moved = (before.namenode, before.ingest) != (after.namenode, after.ingest);
            let cluster_moved = before.cluster != after.cluster;
            match event {
                ServeEvent::IngestCommit { .. } => assert!(data_moved && !cluster_moved),
                ServeEvent::NodeLoss { .. } => assert!(!data_moved && cluster_moved),
            }
        }
    }

    #[test]
    fn planted_staleness_serves_the_first_plan_across_an_ingest_commit_and_a_node_loss() {
        let ingest = ServeEvent::IngestCommit { blocks: 2 };
        // Lose a node the post-commit plan uses, so the loss moves the plan.
        let mut committed = small_world(31);
        committed.apply(&ingest);
        let plan = committed.plan_batch(&[SubDatasetId(0)], false).remove(0);
        let node = (0..4u32)
            .find(|&n| !plan.tasks_of(NodeId(n)).is_empty())
            .expect("the plan uses a node");
        let events = [
            ScriptedEvent {
                at_query: 2,
                event: ingest,
            },
            ScriptedEvent {
                at_query: 4,
                event: ServeEvent::NodeLoss { node },
            },
        ];
        let stream = one_per_round(&[0; 6]);
        let cfg = ServeConfig::default();
        let clean = served(&serve(
            small_world(31),
            &stream,
            &events,
            &cfg,
            &Recorder::off(),
        ));
        let digests: Vec<u64> = clean.iter().map(|c| c.2).collect();
        assert_ne!(digests[2], digests[0], "the commit moves the plan");
        assert_ne!(digests[4], digests[2], "the loss moves the plan");
        let buggy = served(&serve_with_planted_staleness(
            small_world(31),
            &stream,
            &events,
            &cfg,
            &Recorder::off(),
        ));
        for (i, (b, c)) in buggy.iter().zip(&clean).enumerate() {
            assert_eq!(b.1, c.1, "query {i} is served at the same epoch");
            assert_eq!((b.0, b.2), (i > 0, digests[0]), "query {i}");
        }
    }

    #[test]
    fn two_subdatasets_with_one_plan_each_pay_their_own_price() {
        // Every block: sub-dataset 0 dominates, 1 and 2 are one record
        // each, so under a small α both sit in the Bloom filter of the same
        // blocks — one view, one plan — while their true bytes differ.
        let records = (0..16u64).flat_map(|b| {
            [(0, 1_550), (1, 50), (2, 400)]
                .map(|(s, size)| Record::new(SubDatasetId(s), b * 3 + s, size, b ^ s))
        });
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 2_000,
                replication: 2,
                topology: Topology::single_rack(4),
                seed: 5,
            },
            records,
        );
        let world = World::new(dfs, 3, Separation::Alpha(0.1), 5);
        let subs = [SubDatasetId(1), SubDatasetId(2)];
        let plans = world.plan_batch(&subs, false);
        assert_eq!(plans[0], plans[1], "one view, one plan");
        let prices: Vec<u64> = (subs.iter().zip(&plans))
            .map(|(&s, p)| {
                let makespan = planned_makespan(world.dfs(), s, p, &SelectionConfig::default());
                makespan.as_micros().max(1)
            })
            .collect();
        assert_ne!(prices[0], prices[1], "two prices");
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        for order in [[1, 2], [2, 1]] {
            let report = serve(
                world.clone(),
                &one_per_round(&order),
                &[],
                &cfg,
                &Recorder::off(),
            );
            assert_eq!(served(&report).len(), 2);
            assert_eq!(
                report.timing.worker_busy_us,
                [prices[0] + prices[1]],
                "each query executes for its own sub-dataset's price"
            );
        }
    }

    #[test]
    #[should_panic(expected = "events must be sorted by at_query")]
    fn unsorted_events_are_refused() {
        let events = [
            ScriptedEvent {
                at_query: 5,
                event: ServeEvent::NodeLoss { node: 1 },
            },
            ScriptedEvent {
                at_query: 2,
                event: ServeEvent::IngestCommit { blocks: 1 },
            },
        ];
        serve(
            small_world(3),
            &one_per_round(&[0; 8]),
            &events,
            &ServeConfig::default(),
            &Recorder::off(),
        );
    }

    #[test]
    fn timing_varies_with_workers_while_answers_do_not() {
        let one = run(
            &ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            TenantMix::Uniform,
            19,
        );
        let four = run(
            &ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            },
            TenantMix::Uniform,
            19,
        );
        assert_eq!(one.answers, four.answers);
        assert_eq!(one.timing.worker_busy_us.len(), 1);
        assert_eq!(four.timing.worker_busy_us.len(), 4);
        assert!(
            four.timing.makespan_us <= one.timing.makespan_us,
            "more workers never lengthen the schedule"
        );
        assert!(one.timing.throughput_qps > 0.0);
    }
}
