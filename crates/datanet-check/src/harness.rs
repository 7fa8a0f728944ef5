//! The invariant oracles, and the driver that runs one scenario through
//! the whole stack and checks all of them.
//!
//! Every oracle is a property that must hold for *any* scenario —
//! healthy, slow, crashing or metadata-corrupted. The catalog is
//! documented oracle-by-oracle in DESIGN.md §11 with the paper equation
//! or section each one enforces.

use crate::scenario::{Corruption, Scenario, ServeEventPlan};
use datanet::planner::{Algorithm1, Assignment, FordFulkersonPlanner};
use datanet::{
    checkpoint, ElasticMapArray, IngestConfig, Ingestor, MetaStore, RetryPolicy, Separation,
    SizeInfo, SubDatasetView,
};
use datanet_analytics::{
    word_count_profile, AggJob, CrashPoint, MetaPlane, Pipeline, PipelineEnv, ShuffleParams,
    StageOp,
};
use datanet_dfs::{BlockId, Dfs, NodeId, Record, SubDatasetId};
use datanet_mapreduce::{
    apportion, planned_load_bound, range_matrix_estimate, range_matrix_truth, AnalysisConfig,
    DataNetScheduler, DelayScheduler, Exec, LocalityScheduler, MapScheduler, PlannedScheduler,
    SelectionConfig, SelectionOutcome, ShufflePlan, ShufflePlanner,
};
use datanet_obs::{Recorder, TraceData};
use datanet_serve::{
    generate_stream, plan_digest, serve, serve_with_planted_staleness, Disposition, ScriptedEvent,
    ServeConfig, ServeEvent, StreamConfig, TenantMix, World,
};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Makespan-order tolerance: the max-flow plan may exceed the greedy
/// makespan by this factor (plus [`MAKESPAN_SLACK_TASKS`] task overheads
/// and the task-count slack below). The plan minimises the *byte*
/// bottleneck but is blind to per-task overhead, so on worlds of many
/// light blocks a byte-optimal assignment piles tasks onto one node and
/// loses wall-clock time to overhead the oracle prices separately: the
/// plan's excess max-tasks-per-node over greedy's, charged at one
/// `task_overhead` each (seed 2017 — 97 light blocks on 4 nodes, a 2×
/// makespan from pure task-count imbalance — is exactly this shape).
/// With that overhead cost accounted, the residual ratio measures byte
/// scheduling quality alone. Calibrated: worst observed residual over
/// seeds 0..600 and 1900..2100 is 0.8630 (seed 418; see
/// `calibrate_makespan_tolerances`).
pub const MAKESPAN_TOL_FF_VS_GREEDY: f64 = 1.05;

/// Makespan-order tolerance: greedy may exceed the locality baseline by
/// this factor. The baseline scans *every* block, so it almost always
/// loses big; the slack only matters on worlds where the target
/// sub-dataset covers nearly all blocks and remote balancing reads cost
/// greedy more than the baseline's extra scans. Calibrated: worst
/// observed ratio over seeds 0..600 and 1900..2100 is 0.8554.
pub const MAKESPAN_TOL_GREEDY_VS_LOCALITY: f64 = 1.05;

/// Additive slack for the makespan-order oracles, in units of
/// `SelectionConfig::task_overhead` (absorbs ±1-task granularity on
/// tiny worlds where a single 6 ms overhead dominates the makespan).
pub const MAKESPAN_SLACK_TASKS: f64 = 8.0;

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Stable oracle name (the shrinker matches failures by this).
    pub oracle: String,
    /// Human-readable specifics: expected vs actual.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &str, detail: String) -> Self {
        Self {
            oracle: oracle.to_string(),
            detail,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Knobs that change the *system under test*, not the scenario. Used by
/// the harness's self-test to plant bugs and prove the oracles catch
/// them; always default in production checking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckOptions {
    /// Extra bytes credited per greedy assignment (see
    /// `Algorithm1::plant_credit_skew`). Non-zero must trip the
    /// `greedy-conservation` oracle.
    pub credit_skew: u64,
    /// Collapse the shuffle planner onto one reducer (see
    /// `ShufflePlanner::plant_reducer_overload`). `true` must trip the
    /// `reduce-skew` oracle.
    pub overload_reducer: bool,
    /// Make the serving plane's plan cache ignore epoch keys (see
    /// `PlanCache::plant_staleness`). `true` must trip the
    /// `serve-cache-coherence` oracle on any scenario whose serve axis
    /// crosses a world mutation.
    pub stale_serve_cache: bool,
}

/// Verdict for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Every violated oracle (empty = scenario passed).
    pub violations: Vec<Violation>,
    /// World size, for shrink reporting.
    pub blocks: usize,
    /// Cluster size, for shrink reporting.
    pub nodes: u32,
}

impl CheckOutcome {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The set of violated oracle names.
    pub fn oracle_names(&self) -> HashSet<String> {
        self.violations.iter().map(|v| v.oracle.clone()).collect()
    }
}

/// Check one scenario against the full oracle catalog.
pub fn check_scenario(sc: &Scenario) -> CheckOutcome {
    check_scenario_with(sc, &CheckOptions::default())
}

/// Unique on-disk scratch space per store instantiation — the harness may
/// run from many test threads at once, and shrinking re-checks mutated
/// copies of the same scenario, so directory names must never collide.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Replica directories for one simulated metadata plane; removed on drop
/// (including the unwinding path, so a panicking oracle leaks nothing).
struct ReplicaDirs {
    base: PathBuf,
    dirs: Vec<PathBuf>,
}

impl ReplicaDirs {
    fn new(replicas: usize) -> Self {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let base =
            std::env::temp_dir().join(format!("datanet-check-{}-{}", std::process::id(), seq));
        let dirs = (0..replicas)
            .map(|i| base.join(format!("replica-{i}")))
            .collect();
        Self { base, dirs }
    }

    fn paths(&self) -> Vec<&Path> {
        self.dirs.iter().map(PathBuf::as_path).collect()
    }
}

impl Drop for ReplicaDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// Check one scenario with planted-bug options (self-test entry point).
pub fn check_scenario_with(sc: &Scenario, opts: &CheckOptions) -> CheckOutcome {
    check_scenario_instrumented(sc, opts, &Recorder::off())
}

/// [`check_scenario_with`] with an observability [`Recorder`] attached:
/// the healthy engine runs record through it (metrics flow into any
/// attached registry), and every oracle violation is appended to any
/// attached flight ring — so a dump taken right after a failing check
/// ends with the violations, preceded by the last significant events of
/// the run that produced them.
pub fn check_scenario_instrumented(
    sc: &Scenario,
    opts: &CheckOptions,
    rec: &Recorder,
) -> CheckOutcome {
    let mut v = Vec::new();
    let dfs = sc.build_dfs();
    let target = sc.target_id();
    let truth = dfs.subdataset_distribution(target);
    let total = dfs.subdataset_total(target);
    let sep = Separation::Alpha(sc.alpha);

    // ---- Equation 6 on the healthy view ------------------------------
    let arr = ElasticMapArray::build(&dfs, &sep);
    let view = arr.view(target);
    eq6_oracles(&mut v, "healthy", &view, &truth, &HashSet::new());

    // ---- MetaStore round-trip ----------------------------------------
    let dirs = ReplicaDirs::new(2);
    if let Err(e) = MetaStore::save_replicated(&arr, &dirs.paths(), sc.shard_blocks) {
        v.push(Violation::new("store-save", format!("{e}")));
        return CheckOutcome {
            violations: v,
            blocks: dfs.block_count(),
            nodes: sc.nodes,
        };
    }
    let shard_count = match MetaStore::open_replicated(&dirs.paths(), 4) {
        Ok(mut store) => {
            store_roundtrip_oracles(&mut v, &arr, &mut store, sc);
            store.manifest().shard_count()
        }
        Err(e) => {
            v.push(Violation::new("store-open", format!("{e}")));
            0
        }
    };

    // ---- corruption, degraded view, Equation 6 per rung --------------
    apply_corruption(sc, &dirs, shard_count);
    let degraded_unknown: HashSet<BlockId> = match MetaStore::open_replicated(&dirs.paths(), 4) {
        Ok(mut store) => {
            store.set_recorder(rec.clone());
            let deg = store.view_degraded(target);
            let unknown: HashSet<BlockId> = deg.unknown_blocks().iter().copied().collect();
            eq6_oracles(&mut v, "degraded", deg.view(), &truth, &unknown);
            match sc.corruption {
                Corruption::None => {
                    if !deg.is_healthy() || !unknown.is_empty() {
                        v.push(Violation::new(
                            "rung-classification",
                            format!(
                                "uncorrupted store produced a degraded view \
                                 ({} unknown blocks)",
                                unknown.len()
                            ),
                        ));
                    }
                    if deg.view() != &view {
                        v.push(Violation::new(
                            "rung-classification",
                            "uncorrupted degraded view differs from the in-memory view".to_string(),
                        ));
                    }
                }
                Corruption::Shards { .. } | Corruption::Total { .. } => {
                    if shard_count > 0 && deg.is_healthy() {
                        v.push(Violation::new(
                            "rung-classification",
                            "store reported a fully-healthy view off corrupted replicas"
                                .to_string(),
                        ));
                    }
                }
            }
            unknown
        }
        Err(e) => {
            v.push(Violation::new("store-open", format!("degraded open: {e}")));
            HashSet::new()
        }
    };

    // ---- planners -----------------------------------------------------
    greedy_oracles(&mut v, &dfs, &view, opts.credit_skew);
    let plan = ff_oracles(&mut v, &dfs, &view);

    // ---- healthy engine: all four schedulers -------------------------
    let cfg = SelectionConfig::default();
    let exec = Exec::default().rec(rec);
    let loc = exec.selection(&dfs, &truth, &mut LocalityScheduler::new(&dfs), &cfg);
    let del = exec.selection(&dfs, &truth, &mut DelayScheduler::new(&dfs, 2), &cfg);
    let dn = exec.selection(&dfs, &truth, &mut DataNetScheduler::new(&dfs, &view), &cfg);
    let ff = exec.selection(
        &dfs,
        &truth,
        &mut PlannedScheduler::new(&plan, dfs.namenode()),
        &cfg,
    );
    for out in [&loc, &del, &dn, &ff] {
        conservation_oracle(&mut v, "healthy-conservation", out, &truth, total);
    }
    if dn.bytes_read > loc.bytes_read || ff.bytes_read > loc.bytes_read {
        v.push(Violation::new(
            "bytes-read-order",
            format!(
                "metadata-aware runs read more than the scan-everything baseline: \
                 datanet={} maxflow={} locality={}",
                dn.bytes_read, ff.bytes_read, loc.bytes_read
            ),
        ));
    }
    makespan_oracle(&mut v, &cfg, &loc, &dn, &ff);

    // ---- engine under faults, recorder off vs on -----------------------
    if sc.has_faults() {
        let fc = sc.fault_config();
        for name in ["locality", "datanet", "planned"] {
            // A fresh scheduler per run: the two runs must not share state.
            let (out, _) = recorder_transparency(&mut v, name, |rec| {
                let mut sched: Box<dyn MapScheduler> = match name {
                    "locality" => Box::new(LocalityScheduler::new(&dfs)),
                    "datanet" => Box::new(DataNetScheduler::new(&dfs, &view)),
                    _ => Box::new(PlannedScheduler::new(&plan, dfs.namenode())),
                };
                Exec::default()
                    .rec(rec)
                    .faults(&fc)
                    .selection(&dfs, &truth, sched.as_mut(), &cfg)
            });
            conservation_oracle(&mut v, "fault-conservation", &out, &truth, total);
            dead_zero_credit_oracle(&mut v, &out);
        }
    }

    // ---- resilient engine off the (possibly corrupted) store ---------
    resilient_oracles(&mut v, sc, &dfs, &dirs, &truth, total, &degraded_unknown);

    // ---- full pipeline, recorder off vs on + obs closure --------------
    pipeline_oracles(&mut v, sc, &dfs, &view);

    // ---- checkpointed pipeline executor: crash + resume ≡ run --------
    let plain = pipeline_exec_oracles(&mut v, sc, &dfs, &arr);

    // ---- distribution-aware shuffle: skew, conservation, merge -------
    shuffle_oracles(&mut v, sc, &dfs, &view, &arr, plain, opts);

    // ---- streaming ingest: incremental ≡ rebuild at every prefix -----
    ingest_oracles(&mut v, sc, &dfs, &sep);

    // ---- multi-tenant serving plane: conservation, fairness, cache ----
    serve_oracles(&mut v, sc, &sep, opts);

    // Violations close out the flight ring: a dump taken now reads as
    // "…recent events, then what the oracles concluded about them".
    for violation in &v {
        rec.flight(
            datanet_obs::FlightKind::OracleViolation,
            datanet_obs::Domain::Wall,
            rec.wall_us(),
            None,
            format!("{}: {}", violation.oracle, violation.detail),
        );
    }

    CheckOutcome {
        violations: v,
        blocks: dfs.block_count(),
        nodes: sc.nodes,
    }
}

/// Equation 6 (Section III-C) on one view: τ₁ entries are ground truth,
/// no in-scope block is missed, and the estimate sits inside the analytic
/// envelope `|Z − T| ≤ Σ_{b∈τ₂} |truth_b − δ|` over the known blocks.
fn eq6_oracles(
    v: &mut Vec<Violation>,
    label: &str,
    view: &SubDatasetView,
    truth: &[u64],
    unknown: &HashSet<BlockId>,
) {
    for &(b, size) in view.exact() {
        if size != truth[b.index()] {
            v.push(Violation::new(
                "tau1-ground-truth",
                format!(
                    "{label}: τ₁ says block {} holds {} bytes, truth is {}",
                    b.0,
                    size,
                    truth[b.index()]
                ),
            ));
        }
    }
    let known: HashSet<BlockId> = view.blocks().collect();
    for (i, &t) in truth.iter().enumerate() {
        let b = BlockId(i as u32);
        if t > 0 && !known.contains(&b) && !unknown.contains(&b) {
            v.push(Violation::new(
                "no-false-negative",
                format!("{label}: block {i} holds {t} bytes but the view skips it"),
            ));
        }
    }
    let delta = view.delta() as i128;
    let z = view.estimated_total() as i128;
    let t_known: i128 = truth
        .iter()
        .enumerate()
        .filter(|(i, _)| !unknown.contains(&BlockId(*i as u32)))
        .map(|(_, &t)| t as i128)
        .sum();
    let envelope: i128 = view
        .bloom()
        .iter()
        .map(|b| (truth[b.index()] as i128 - delta).abs())
        .sum();
    if (z - t_known).abs() > envelope {
        v.push(Violation::new(
            "eq6-envelope",
            format!(
                "{label}: |Z − T| = |{z} − {t_known}| exceeds the Equation 6 \
                 envelope {envelope}"
            ),
        ));
    }
}

/// Persisted metadata answers every query the in-memory array answers.
fn store_roundtrip_oracles(
    v: &mut Vec<Violation>,
    arr: &ElasticMapArray,
    store: &mut MetaStore,
    sc: &Scenario,
) {
    for s in 0..sc.subdatasets {
        let s = SubDatasetId(s);
        match store.view(s) {
            Ok(view) if view == arr.view(s) => {}
            Ok(_) => v.push(Violation::new(
                "store-roundtrip",
                format!(
                    "persisted view of sub-dataset {} differs from in-memory",
                    s.0
                ),
            )),
            Err(e) => v.push(Violation::new(
                "store-roundtrip",
                format!("view({}) failed on a healthy store: {e}", s.0),
            )),
        }
    }
    let target = sc.target_id();
    for i in 0..arr.len() {
        let b = BlockId(i as u32);
        match store.query(b, target) {
            Ok(info) if info == arr.query(b, target) => {}
            Ok(_) => v.push(Violation::new(
                "store-roundtrip",
                format!("persisted query({i}) differs from in-memory"),
            )),
            Err(e) => v.push(Violation::new(
                "store-roundtrip",
                format!("query({i}) failed on a healthy store: {e}"),
            )),
        }
    }
}

/// Overwrite metadata files per the scenario's corruption pattern — in
/// *every* replica directory, so failover cannot mask it.
fn apply_corruption(sc: &Scenario, dirs: &ReplicaDirs, shard_count: usize) {
    let (stride, summaries_too) = match sc.corruption {
        Corruption::None => return,
        Corruption::Shards { stride } => (stride.max(1), false),
        Corruption::Total { stride } => (stride.max(1), true),
    };
    for i in (0..shard_count).step_by(stride) {
        for dir in &dirs.dirs {
            let _ = std::fs::write(dir.join(format!("shard-{i:04}.json")), b"simcheck-garbage");
            if summaries_too {
                let _ = std::fs::write(
                    dir.join(format!("summary-{i:04}.json")),
                    b"simcheck-garbage",
                );
            }
        }
    }
}

/// Algorithm 1 credit conservation: drain the greedy balancer with
/// round-robin pull requests; every in-scope block must be handed out
/// exactly once and the credited workloads must sum to the Equation 6
/// estimate it balanced against. This is the oracle the planted
/// `credit_skew` bug must trip.
fn greedy_oracles(v: &mut Vec<Violation>, dfs: &Dfs, view: &SubDatasetView, skew: u64) {
    let mut alg = Algorithm1::new(dfs, view);
    if skew > 0 {
        alg.plant_credit_skew(skew);
    }
    let m = dfs.config().topology.len();
    let mut seen = HashSet::new();
    let mut served = 0usize;
    let mut i = 0usize;
    while let Some((block, _local)) = alg.next_task_for(NodeId((i % m) as u32)) {
        if !seen.insert(block) {
            v.push(Violation::new(
                "greedy-unique",
                format!("block {} handed out twice", block.0),
            ));
            break;
        }
        served += 1;
        i += 1;
        if served > view.block_count() {
            break;
        }
    }
    if served != view.block_count() {
        v.push(Violation::new(
            "greedy-coverage",
            format!(
                "greedy served {served} tasks for a {}-block view",
                view.block_count()
            ),
        ));
    }
    let credited: u64 = alg.workloads().iter().sum();
    if credited != view.estimated_total() {
        v.push(Violation::new(
            "greedy-conservation",
            format!(
                "credited workloads sum to {credited}, Equation 6 total is {}",
                view.estimated_total()
            ),
        ));
    }
}

/// Ford–Fulkerson plan oracles: full coverage, every assignment data-local
/// (the max-flow network has no remote edges), and the makespan witness
/// `max_workload ≥ fractional_optimum` (nothing beats the fluid bound).
fn ff_oracles(v: &mut Vec<Violation>, dfs: &Dfs, view: &SubDatasetView) -> Assignment {
    let planner = FordFulkersonPlanner::new(dfs, view);
    let plan = planner.plan();
    if plan.assigned_blocks() != view.block_count() {
        v.push(Violation::new(
            "maxflow-coverage",
            format!(
                "plan covers {} of {} in-scope blocks",
                plan.assigned_blocks(),
                view.block_count()
            ),
        ));
    }
    for n in 0..plan.node_count() {
        let node = NodeId(n as u32);
        for &b in plan.tasks_of(node) {
            if !dfs.replicas(b).contains(&node) {
                v.push(Violation::new(
                    "maxflow-locality",
                    format!("block {} planned onto non-replica node {n}", b.0),
                ));
            }
        }
    }
    if view.block_count() > 0 && plan.max_workload() < planner.fractional_optimum() {
        v.push(Violation::new(
            "maxflow-lower-bound",
            format!(
                "max workload {} beats the fractional optimum {}",
                plan.max_workload(),
                planner.fractional_optimum()
            ),
        ));
    }
    plan
}

/// Byte conservation: every target byte is either credited to a live node
/// or accounted as lost with the blocks that carried it.
fn conservation_oracle(
    v: &mut Vec<Violation>,
    oracle: &str,
    out: &SelectionOutcome,
    truth: &[u64],
    total: u64,
) {
    let lost: HashSet<BlockId> = out
        .faults
        .unrecoverable_blocks
        .iter()
        .chain(out.faults.abandoned_blocks.iter())
        .copied()
        .collect();
    let lost_bytes: u64 = lost.iter().map(|b| truth[b.index()]).sum();
    let processed: u64 = out.per_node_bytes.iter().sum();
    if processed + lost_bytes != total {
        v.push(Violation::new(
            oracle,
            format!(
                "{}: processed {} + lost {} ≠ input {}",
                out.scheduler, processed, lost_bytes, total
            ),
        ));
    }
}

/// A crashed node keeps no credit: its partitions died with it.
fn dead_zero_credit_oracle(v: &mut Vec<Violation>, out: &SelectionOutcome) {
    for &n in &out.faults.crashed_nodes {
        if out.per_node_bytes[n] != 0 {
            v.push(Violation::new(
                "dead-zero-credit",
                format!(
                    "{}: crashed node {n} still credited {} bytes",
                    out.scheduler, out.per_node_bytes[n]
                ),
            ));
        }
    }
}

/// The recorder may watch but never steer: `run` under a live recorder
/// returns exactly what it returns under `Recorder::off()`, and the live
/// run closes every span it opened. Hands back the recorder-off result
/// and what the live recorder saw.
fn recorder_transparency<O: PartialEq>(
    v: &mut Vec<Violation>,
    name: &str,
    run: impl Fn(&Recorder) -> O,
) -> (O, TraceData) {
    let off = run(&Recorder::off());
    let rec = Recorder::new();
    if run(&rec) != off {
        v.push(Violation::new(
            "recorder-transparency",
            format!("{name}: run under a live recorder diverged from the recorder-off run"),
        ));
    }
    let data = rec.take();
    if data.unclosed_spans() != 0 {
        v.push(Violation::new(
            "unclosed-spans",
            format!("{name}: {} spans never closed", data.unclosed_spans()),
        ));
    }
    (off, data)
}

/// How many more tasks `a`'s busiest node runs than `b`'s busiest node
/// (0 when `a` is no more concentrated).
fn excess_peak_tasks(a: &SelectionOutcome, b: &SelectionOutcome) -> usize {
    let peak = |o: &SelectionOutcome| o.tasks_per_node.iter().copied().max().unwrap_or(0);
    peak(a).saturating_sub(peak(b))
}

/// Makespan ordering (Section IV-B, Figures 5/10): max-flow ≲ greedy ≲
/// locality baseline, with documented tolerances for per-task overhead.
fn makespan_oracle(
    v: &mut Vec<Violation>,
    cfg: &SelectionConfig,
    loc: &SelectionOutcome,
    dn: &SelectionOutcome,
    ff: &SelectionOutcome,
) {
    let slack = cfg.task_overhead.as_secs_f64() * MAKESPAN_SLACK_TASKS;
    let (loc_end, dn_end, ff_end) = (
        loc.end.as_secs_f64(),
        dn.end.as_secs_f64(),
        ff.end.as_secs_f64(),
    );
    // The plan optimises the byte bottleneck and is blind to per-task
    // overhead; charge its excess task concentration (vs greedy's) at
    // one `task_overhead` per extra task on the busiest node, so the
    // tolerance below measures byte scheduling quality alone.
    let count_slack = cfg.task_overhead.as_secs_f64() * excess_peak_tasks(ff, dn) as f64;
    if ff_end > dn_end * MAKESPAN_TOL_FF_VS_GREEDY + slack + count_slack {
        v.push(Violation::new(
            "makespan-order",
            format!("max-flow makespan {ff_end:.4}s ≫ greedy {dn_end:.4}s"),
        ));
    }
    if dn_end > loc_end * MAKESPAN_TOL_GREEDY_VS_LOCALITY + slack {
        v.push(Violation::new(
            "makespan-order",
            format!("greedy makespan {dn_end:.4}s ≫ locality baseline {loc_end:.4}s"),
        ));
    }
}

/// The degradation ladder end-to-end: resilient selection off the
/// corrupted store conserves bytes, reports a finite estimator error, and
/// a live recorder (on a fresh store handle, same files) changes nothing.
fn resilient_oracles(
    v: &mut Vec<Violation>,
    sc: &Scenario,
    dfs: &Dfs,
    dirs: &ReplicaDirs,
    truth: &[u64],
    total: u64,
    unknown: &HashSet<BlockId>,
) {
    let fc = sc.has_faults().then(|| sc.fault_config());
    let open = |v: &mut Vec<Violation>| match MetaStore::open_replicated(&dirs.paths(), 4) {
        Ok(store) => Some(store),
        Err(e) => {
            v.push(Violation::new("store-open", format!("resilient open: {e}")));
            None
        }
    };
    // One fresh handle per run: reads warm a handle's shard cache.
    let (Some(store_a), Some(store_b)) = (open(v), open(v)) else {
        return;
    };
    let handles = RefCell::new(vec![store_a, store_b]);
    let cfg = SelectionConfig::default();
    let (off, _) = recorder_transparency(v, "resilient", |rec| {
        let mut store = handles.borrow_mut().pop().expect("one handle per run");
        Exec::default()
            .rec(rec)
            .faults(fc.as_ref())
            .selection_resilient(dfs, sc.target_id(), &mut store, &cfg)
    });
    conservation_oracle(v, "resilient-conservation", &off, truth, total);
    dead_zero_credit_oracle(v, &off);
    if !off.meta.est_error.is_finite() || off.meta.est_error < 0.0 {
        v.push(Violation::new(
            "degraded-estimate",
            format!(
                "estimator error {} is not a finite ratio",
                off.meta.est_error
            ),
        ));
    }
    // The ladder never *invents* blocks: rung-3 fallback may add unknown
    // blocks to the schedule, never drop known in-scope ones — so with no
    // unknown blocks the resilient run conserves exactly like a healthy
    // one (checked above) and the rung counts must cover the view.
    if unknown.is_empty() && off.meta.rungs.fallback > 0 {
        v.push(Violation::new(
            "rung-classification",
            format!(
                "no unknown blocks, yet {} blocks scheduled at the fallback rung",
                off.meta.rungs.fallback
            ),
        ));
    }
}

/// Full selection→analysis pipeline: the recorder is transparent, spans close, and
/// the crash lifecycle is fully chained (crash → suspicion) for every
/// crashed node.
fn pipeline_oracles(v: &mut Vec<Violation>, sc: &Scenario, dfs: &Dfs, view: &SubDatasetView) {
    let job = word_count_profile();
    let sel_cfg = SelectionConfig::default();
    let ana_cfg = AnalysisConfig::default();
    let fc = sc.has_faults().then(|| sc.fault_config());
    let (off, data) = recorder_transparency(v, "pipeline", |rec| {
        let mut sched = DataNetScheduler::new(dfs, view);
        Exec::default().rec(rec).faults(fc.as_ref()).pipeline(
            dfs,
            sc.target_id(),
            &mut sched,
            &job,
            &sel_cfg,
            &ana_cfg,
        )
    });
    let chains = data.crash_chains();
    let crashed = &off.selection.faults.crashed_nodes;
    if chains.len() != crashed.len() {
        v.push(Violation::new(
            "crash-chain",
            format!(
                "{} crash chains in the trace for {} crashed nodes",
                chains.len(),
                crashed.len()
            ),
        ));
    }
    for chain in &chains {
        if chain.suspected_us.is_none() {
            v.push(Violation::new(
                "crash-chain",
                format!("node {} crashed but was never suspected", chain.node),
            ));
        }
    }
}

/// The environment the scenario's pipeline runs in, over the in-memory
/// array, with the scenario's faults and retry seed.
fn pipeline_env<'a>(
    sc: &Scenario,
    dfs: &'a Dfs,
    arr: &'a ElasticMapArray,
    shuffle: Option<ShuffleParams>,
) -> PipelineEnv<'a> {
    PipelineEnv {
        dfs,
        meta: MetaPlane::Array(arr),
        faults: sc.has_faults().then(|| sc.fault_config()),
        selection: SelectionConfig::default(),
        analysis: AnalysisConfig::default(),
        retry: RetryPolicy::default(),
        retry_seed: sc.seed,
        shuffle,
    }
}

/// Checkpointed pipeline executor oracles (DESIGN.md §15): the scenario's
/// drawn multi-stage pipeline runs end-to-end with every stage
/// checkpointed; per-stage record accounting matches each op's contract;
/// the durable checkpoint ledger is exactly the stage sequence with the
/// CRCs the run reported; and a scripted mid-checkpoint crash followed by
/// [`Pipeline::resume`] reproduces the uninterrupted run's data product
/// and ledger bit for bit.
///
/// Returns the uninterrupted run's data fingerprint, or its error, for
/// [`shuffle_oracles`] to compare the shuffle-routed run against.
fn pipeline_exec_oracles(
    v: &mut Vec<Violation>,
    sc: &Scenario,
    dfs: &Dfs,
    arr: &ElasticMapArray,
) -> Result<String, String> {
    let pipe = Pipeline::new(sc.pipeline_spec());
    let mut env = pipeline_env(sc, dfs, arr, None);
    let dirs_a = ReplicaDirs::new(2);
    let report = match pipe.run(&mut env, &dirs_a.paths(), &Recorder::off()) {
        Ok(r) => r,
        Err(e) => {
            v.push(Violation::new(
                "pipeline-run",
                format!("uninterrupted run failed: {e}"),
            ));
            return Err(e.to_string());
        }
    };
    let fingerprint = report.data_fingerprint();

    // Record accounting per stage: filter replaces, append unions, join
    // only narrows, aggregate/output never touch the record set.
    let count = |s: SubDatasetId| -> u64 {
        dfs.blocks()
            .iter()
            .map(|b| b.filter(s).count() as u64)
            .sum()
    };
    for st in &report.stages {
        let ok = match &pipe.spec().seq[st.index as usize] {
            StageOp::Filter(s) => st.records_out == count(SubDatasetId(*s)),
            StageOp::Append(s) => st.records_out == st.records_in + count(SubDatasetId(*s)),
            StageOp::Join(_) => st.records_out <= st.records_in,
            StageOp::Aggregate(_) | StageOp::Output(_) => st.records_out == st.records_in,
        };
        if !ok {
            v.push(Violation::new(
                "pipeline-stage-conservation",
                format!(
                    "stage {} ({}): {} records in, {} out",
                    st.index, st.label, st.records_in, st.records_out
                ),
            ));
        }
    }

    // Checkpoint monotonicity: the durable ledger is exactly stages
    // 0..n−1, in order, each carrying the payload CRC its stage reported.
    let ledger_a = match checkpoint::ledger(&dirs_a.paths()) {
        Ok(l) => l,
        Err(e) => {
            v.push(Violation::new(
                "pipeline-checkpoint-monotonicity",
                format!("ledger unreadable after a clean run: {e}"),
            ));
            return Ok(fingerprint);
        }
    };
    if ledger_a.len() != pipe.len()
        || ledger_a
            .iter()
            .enumerate()
            .any(|(k, m)| m.last_completed_operation != k as u64)
    {
        v.push(Violation::new(
            "pipeline-checkpoint-monotonicity",
            format!(
                "{}-stage pipeline left ledger epochs [{}]",
                pipe.len(),
                ledger_a
                    .iter()
                    .map(|m| m.last_completed_operation.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
    }
    for st in &report.stages {
        match ledger_a.get(st.index as usize) {
            Some(m) if m.payload_crc == st.checkpoint_crc && m.label == st.label => {}
            _ => v.push(Violation::new(
                "pipeline-checkpoint-monotonicity",
                format!(
                    "stage {} ({}) is not in the durable ledger with CRC {:#010x}",
                    st.index, st.label, st.checkpoint_crc
                ),
            )),
        }
    }

    // Scripted mid-checkpoint crash, then resume: the tentpole property.
    let Some(raw) = sc.pipeline.crash_stage else {
        return Ok(fingerprint);
    };
    let crash = CrashPoint {
        stage: (raw % pipe.len() as u64) as usize,
        write_prefix: sc.pipeline.crash_write,
    };
    let dirs_b = ReplicaDirs::new(2);
    let int = match pipe.run_interrupted(&mut env, &dirs_b.paths(), crash, &Recorder::off()) {
        Ok(i) => i,
        Err(e) => {
            v.push(Violation::new(
                "pipeline-run",
                format!("interrupted run failed before its crash point: {e}"),
            ));
            return Ok(fingerprint);
        }
    };
    let rec = Recorder::new();
    let resumed = match pipe.resume(&mut env, &dirs_b.paths(), &rec) {
        Ok(r) => r,
        Err(e) => {
            v.push(Violation::new(
                "pipeline-resume-equivalence",
                format!(
                    "resume failed after a crash {} of {} writes into stage {}: {e}",
                    int.applied_writes, int.plan_writes, int.crash_stage
                ),
            ));
            return Ok(fingerprint);
        }
    };
    let data = rec.take();
    if data.unclosed_spans() != 0 {
        v.push(Violation::new(
            "unclosed-spans",
            format!(
                "pipeline resume: {} spans never closed",
                data.unclosed_spans()
            ),
        ));
    }
    // The resume point is fully determined by how many of the interrupted
    // checkpoint's writes landed: all of them ⇒ the crashed stage is
    // durable; fewer ⇒ the previous stage (or a fresh run at stage 0).
    let expected_from = if int.applied_writes == int.plan_writes {
        Some(int.crash_stage as u64)
    } else {
        (int.crash_stage > 0).then(|| int.crash_stage as u64 - 1)
    };
    if resumed.resumed_from != expected_from {
        v.push(Violation::new(
            "pipeline-resume-equivalence",
            format!(
                "crash {} of {} writes into stage {} should resume from {:?}, resumed from {:?}",
                int.applied_writes,
                int.plan_writes,
                int.crash_stage,
                expected_from,
                resumed.resumed_from
            ),
        ));
    }
    if resumed.data_fingerprint() != fingerprint {
        v.push(Violation::new(
            "pipeline-resume-equivalence",
            format!(
                "resumed data product diverged from the uninterrupted run \
                 (crash {} of {} writes into stage {})",
                int.applied_writes, int.plan_writes, int.crash_stage
            ),
        ));
    }
    match checkpoint::ledger(&dirs_b.paths()) {
        Ok(ledger_b) if ledger_b == ledger_a => {}
        Ok(_) => v.push(Violation::new(
            "pipeline-resume-equivalence",
            "resumed checkpoint ledger differs from the uninterrupted run's".to_string(),
        )),
        Err(e) => v.push(Violation::new(
            "pipeline-resume-equivalence",
            format!("resumed ledger unreadable: {e}"),
        )),
    }
    Ok(fingerprint)
}

/// Distribution-aware shuffle oracles (DESIGN.md §17).
///
/// * `reduce-skew` — the planner's promise: no reducer is assigned more
///   estimated bytes than `fair + max(split_threshold, ⌈max_range/m⌉)`
///   (plus per-range rounding), and the bytes each reducer *actually*
///   receives under the truth matrix stay inside the same bound scaled
///   to output units plus the estimate's L1 error — so a planner that
///   funnels load onto one reducer (the planted overload) is caught by
///   arithmetic, not by timing.
/// * `shuffle-byte-conservation` — every mapper output byte arrives at
///   exactly one reducer: Σ received == Σ map_output_bytes(row), and the
///   network/local split partitions it, for the aware and hash plans.
/// * `split-merge-equivalence` — the routed data plane is byte-identical
///   to the unrouted job for any plan and any fragment arrival order:
///   `run_routed` under a seeded permutation of the fragments equals
///   `AggJob::run`, and a full pipeline run with shuffle routing enabled
///   reproduces `plain`, the unrouted pipeline's `data_fingerprint` that
///   [`pipeline_exec_oracles`] returned, bit for bit.
///
/// The shuffled run is also checked under the `recorder-transparency`/
/// `unclosed-spans` oracles.
fn shuffle_oracles(
    v: &mut Vec<Violation>,
    sc: &Scenario,
    dfs: &Dfs,
    view: &SubDatasetView,
    arr: &ElasticMapArray,
    plain: Result<String, String>,
    opts: &CheckOptions,
) {
    let target = sc.target_id();
    let ranges = sc.shuffle.key_ranges;
    let sf = sc.shuffle.split_factor;
    let truth = range_matrix_truth(dfs, target, ranges);
    let est = range_matrix_estimate(dfs, view, ranges);
    let m = truth.len();
    let mut planner = ShufflePlanner::new(sf);
    if opts.overload_reducer {
        planner.plant_reducer_overload();
    }
    let aware = planner.plan(&est);
    let hash = ShufflePlan::hash(ranges, (0..m as u32).map(NodeId).collect());

    // Planner-side skew: the aware plan's estimated per-reducer load
    // respects the analytic bound (± one byte of largest-remainder
    // rounding per range).
    let est_ranges: Vec<u64> = (0..ranges)
        .map(|r| est.iter().map(|row| row[r]).sum())
        .collect();
    let bound = planned_load_bound(&est_ranges, m, sf) + ranges as u64;
    let max_planned = aware.planned_load().into_iter().max().unwrap_or(0);
    if max_planned > bound {
        v.push(Violation::new(
            "reduce-skew",
            format!(
                "planner assigned {max_planned} estimated bytes to one reducer, \
                 bound {bound} (fair share of {} over {m} reducers)",
                est_ranges.iter().sum::<u64>()
            ),
        ));
    }

    // Engine runs: conservation and recorder transparency, both plans.
    let job = word_count_profile();
    let cfg = AnalysisConfig::default();
    let expected: u64 = truth
        .iter()
        .map(|row| job.map_output_bytes(row.iter().sum()))
        .sum();
    let mut aware_out = None;
    for (name, plan) in [("aware", &aware), ("hash", &hash)] {
        let (off, _) = recorder_transparency(v, &format!("shuffled {name}"), |rec| {
            Exec::default()
                .rec(rec)
                .analysis_shuffled(&truth, &job, &cfg, plan)
        });
        let received: u64 = off.received.iter().sum();
        if received != expected {
            v.push(Violation::new(
                "shuffle-byte-conservation",
                format!("{name} plan: reducers received {received} bytes of {expected} mapped"),
            ));
        }
        if off.network_bytes + off.local_bytes != expected {
            v.push(Violation::new(
                "shuffle-byte-conservation",
                format!(
                    "{name} plan: network {} + local {} ≠ {expected} mapped",
                    off.network_bytes, off.local_bytes
                ),
            ));
        }
        if name == "aware" {
            aware_out = Some(off);
        }
    }

    // Received-side skew: what the aware plan's reducers actually took
    // in, measured against the planner bound translated to output units.
    // The estimate is allowed to be wrong — the bound absorbs exactly
    // its L1 error against the truth distribution plus the integer
    // apportioning slack — so only genuine routing skew trips this.
    let total_e: u64 = est_ranges.iter().sum();
    if let Some(out) = &aware_out {
        if expected > 0 && total_e > 0 {
            let scale = expected as f64 / total_e as f64;
            let mut truth_ranges = vec![0u64; ranges];
            for row in &truth {
                let cells = apportion(job.map_output_bytes(row.iter().sum()), row);
                for (r, c) in cells.iter().enumerate() {
                    truth_ranges[r] += c;
                }
            }
            let l1: f64 = (0..ranges)
                .map(|r| (scale * est_ranges[r] as f64 - truth_ranges[r] as f64).abs())
                .sum();
            let slack = (ranges * (m + 2)) as f64;
            let bound_r = scale * planned_load_bound(&est_ranges, m, sf) as f64 + l1 + slack;
            let max_recv = out.received.iter().copied().max().unwrap_or(0) as f64;
            if max_recv > bound_r {
                v.push(Violation::new(
                    "reduce-skew",
                    format!(
                        "one reducer received {max_recv} bytes of {expected}; \
                         bound {bound_r:.0} (estimate L1 error {l1:.0})"
                    ),
                ));
            }
        }
    }

    // Data plane: routed ≡ unrouted for every aggregate job the scenario
    // pipeline draws (word count always included), both plans, under the
    // scenario's fragment arrival permutation.
    let records: Vec<Record> = dfs
        .blocks()
        .iter()
        .flat_map(|b| b.filter(target).cloned().collect::<Vec<_>>())
        .collect();
    let mut aggs = vec![AggJob::WordCount];
    for op in &sc.pipeline_spec().seq {
        if let StageOp::Aggregate(a) = op {
            if !aggs.contains(a) {
                aggs.push(*a);
            }
        }
    }
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut prng = rand::rngs::StdRng::seed_from_u64(sc.shuffle.permutation_seed);
    for agg in &aggs {
        let baseline = agg.run(&records);
        for (name, plan) in [("aware", &aware), ("hash", &hash)] {
            let mut frags = agg.map_fragments(&records, plan);
            frags.shuffle(&mut prng);
            if agg.merge_fragments(&frags) != baseline {
                v.push(Violation::new(
                    "split-merge-equivalence",
                    format!(
                        "{} routed through the {name} plan diverged from the \
                         unrouted job under a shuffled arrival order",
                        agg.label()
                    ),
                ));
            }
        }
    }

    // Pipeline surface: turning shuffle routing on must not change the
    // data product of the scenario's own pipeline.
    let shuffle = ShuffleParams {
        key_ranges: ranges,
        split_factor: sf,
        aware: true,
    };
    let dirs = ReplicaDirs::new(2);
    let routed = Pipeline::new(sc.pipeline_spec())
        .run(
            &mut pipeline_env(sc, dfs, arr, Some(shuffle)),
            &dirs.paths(),
            &Recorder::off(),
        )
        .map(|r| r.data_fingerprint())
        .map_err(|e| e.to_string());
    match (routed, plain) {
        (Ok(a), Ok(b)) if a == b => {}
        (Ok(_), Ok(_)) => v.push(Violation::new(
            "split-merge-equivalence",
            "shuffle-routed pipeline produced a different data fingerprint".to_string(),
        )),
        (Err(e), _) | (_, Err(e)) => v.push(Violation::new(
            "split-merge-equivalence",
            format!("pipeline run failed: {e}"),
        )),
    }
}

/// Streaming-ingest oracles: replay the scenario's blocks as a stream
/// through an [`Ingestor`] on the arrival schedule in `sc.ingest`, and
/// enforce, at **every** prefix of the arrival sequence, that the
/// incremental snapshot is byte-identical (serialized) to a from-scratch
/// batch build over the same blocks — including across the scripted
/// mid-commit crash (`crash_commit`/`crash_write`), which tears the
/// ingestor down after an arbitrary write prefix of the commit plan and
/// resumes from whatever epoch stayed durable.
fn ingest_oracles(v: &mut Vec<Violation>, sc: &Scenario, dfs: &Dfs, sep: &Separation) {
    let cfg = IngestConfig {
        policy: sep.clone(),
        compact_every: sc.ingest.compact_every,
        shard_blocks: sc.shard_blocks,
    };
    let target = sc.target_id();
    let dirs = ReplicaDirs::new(2);
    let mut ing = Ingestor::new(cfg.clone());
    let mut live = Dfs::empty(dfs.config().clone());
    // NameNode clone taken mid-stream: CoW registration on append must
    // leave the clone frozen at the block count it saw.
    let mut frozen: Option<(datanet_dfs::NameNode, usize)> = None;
    // Epochs recorded from *successful* commits only, with the snapshot
    // they froze — replayed through the store at the end.
    let mut epochs: Vec<(u64, usize, String)> = Vec::new();
    let mut commits = 0u64;
    let mut crashed = false;
    let mut equivalence_ok = true;

    for (k, b) in dfs.blocks().iter().enumerate() {
        let id = live.append_block(b.records().to_vec());
        let blk = live.block(id);
        ing.append(blk, k as u64 * sc.ingest.gap_us);
        if frozen.is_none() {
            frozen = Some((live.namenode().clone(), live.namenode().block_count()));
        }

        // Just-arrived block: exact answer while pending, never a false
        // negative once sealed.
        let truth_b = blk.subdataset_bytes(target);
        match ing.query(id, target) {
            SizeInfo::Exact(sz) if sz != truth_b => v.push(Violation::new(
                "ingest-pending-exact",
                format!("block {}: exact answer {sz}, truth {truth_b}", id.0),
            )),
            SizeInfo::Absent if truth_b > 0 => v.push(Violation::new(
                "ingest-pending-exact",
                format!(
                    "block {}: holds {truth_b} target bytes but answers Absent",
                    id.0
                ),
            )),
            _ => {}
        }

        // Incremental ≡ rebuild at this prefix (first divergence only —
        // later prefixes inherit the same corruption).
        if equivalence_ok {
            let inc = serde_json::to_string(&ing.snapshot()).expect("snapshot serialises");
            let batch = serde_json::to_string(&ElasticMapArray::build(&live, sep))
                .expect("batch serialises");
            if inc != batch {
                equivalence_ok = false;
                v.push(Violation::new(
                    "ingest-equivalence",
                    format!(
                        "incremental snapshot diverged from the batch build at \
                         prefix {} of {}",
                        k + 1,
                        dfs.block_count()
                    ),
                ));
            }
        }

        // Commit cadence: one durable epoch per compaction batch. The
        // scripted crash hits the `crash_commit`-th attempt, landing only
        // a prefix of the plan's writes before the process "dies".
        if (k + 1) % sc.ingest.compact_every == 0 {
            commits += 1;
            if !crashed && sc.ingest.crash_commit == Some(commits) {
                crashed = true;
                let mut landed = 0usize;
                if let Some(plan) = ing.commit_plan() {
                    let n = (sc.ingest.crash_write % (plan.writes() as u64 + 1)) as usize;
                    landed = n;
                    if let Err(e) = plan.apply_prefix(&dirs.paths(), n) {
                        v.push(Violation::new(
                            "ingest-crash-resume",
                            format!("prefix apply failed: {e}"),
                        ));
                        return;
                    }
                }
                // Tear down and resume from whatever epoch is durable. A
                // store that crashed before its first commit resumes as a
                // fresh epoch-0 ingestor — `Ingestor::resume` owns that
                // edge now, so any error here is a real violation.
                ing = match Ingestor::resume(cfg.clone(), &dirs.paths()) {
                    Ok(resumed) => resumed,
                    Err(e) => {
                        v.push(Violation::new(
                            "ingest-crash-resume",
                            format!("resume failed after a durable-prefix crash: {e}"),
                        ));
                        return;
                    }
                };
                if ing.stats().summaries_built != 0 {
                    v.push(Violation::new(
                        "ingest-crash-resume",
                        "resume re-summarized durable blocks".to_string(),
                    ));
                }
                // Re-feed the arrivals the crash swallowed.
                for rb in &live.blocks()[ing.blocks()..] {
                    ing.append(rb, k as u64 * sc.ingest.gap_us);
                }
                let inc = serde_json::to_string(&ing.snapshot()).expect("snapshot serialises");
                let batch = serde_json::to_string(&ElasticMapArray::build(&live, sep))
                    .expect("batch serialises");
                if inc != batch {
                    v.push(Violation::new(
                        "ingest-crash-resume",
                        format!(
                            "resumed snapshot diverged from the batch build after a \
                             crash {landed} writes into commit {commits}'s plan"
                        ),
                    ));
                }
            } else {
                match ing.commit(&dirs.paths()) {
                    Ok(epoch) => epochs.push((
                        epoch,
                        ing.blocks(),
                        serde_json::to_string(&ing.snapshot()).expect("snapshot serialises"),
                    )),
                    Err(e) => v.push(Violation::new(
                        "ingest-commit",
                        format!("commit {commits} failed: {e}"),
                    )),
                }
            }
        }
    }

    // Final commit so the whole stream is durable.
    match ing.commit(&dirs.paths()) {
        Ok(epoch) => epochs.push((
            epoch,
            ing.blocks(),
            serde_json::to_string(&ing.snapshot()).expect("snapshot serialises"),
        )),
        Err(e) => v.push(Violation::new(
            "ingest-commit",
            format!("final commit failed: {e}"),
        )),
    }
    epochs.dedup_by_key(|(e, _, _)| *e);

    // Every committed epoch replays exactly the snapshot it froze.
    for (epoch, blocks, want) in &epochs {
        match MetaStore::open_replicated_at_epoch(&dirs.paths(), *epoch, 2) {
            Ok(mut store) => {
                if store.manifest().blocks != *blocks {
                    v.push(Violation::new(
                        "epoch-time-travel",
                        format!(
                            "epoch {epoch} manifest says {} blocks, committed {blocks}",
                            store.manifest().blocks
                        ),
                    ));
                    continue;
                }
                let mut maps = Vec::new();
                let mut ok = true;
                for i in 0..store.manifest().shard_count() {
                    match store.shard(i) {
                        Ok(s) => maps.extend_from_slice(s),
                        Err(e) => {
                            v.push(Violation::new(
                                "epoch-time-travel",
                                format!("epoch {epoch} shard {i} unreadable: {e}"),
                            ));
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let arr = ElasticMapArray::from_maps(maps, store.manifest().policy.clone());
                    if &serde_json::to_string(&arr).expect("array serialises") != want {
                        v.push(Violation::new(
                            "epoch-time-travel",
                            format!("epoch {epoch} does not replay the snapshot it froze"),
                        ));
                    }
                }
            }
            Err(e) => v.push(Violation::new(
                "epoch-time-travel",
                format!("epoch {epoch} failed to open: {e}"),
            )),
        }
    }

    // The live store agrees with the in-memory ingestor on the target view.
    match MetaStore::open_replicated(&dirs.paths(), 2) {
        Ok(mut store) => match store.view(target) {
            Ok(view) if view == ing.snapshot().view(target) => {}
            Ok(_) => v.push(Violation::new(
                "ingest-store-view",
                "final persisted view differs from the ingestor's snapshot".to_string(),
            )),
            Err(e) => v.push(Violation::new(
                "ingest-store-view",
                format!("final view failed: {e}"),
            )),
        },
        Err(e) => v.push(Violation::new(
            "ingest-store-view",
            format!("final open failed: {e}"),
        )),
    }

    // CoW: the namenode clone taken after the first arrival never saw the
    // later registrations.
    if let Some((nn, count)) = frozen {
        if nn.block_count() != count {
            v.push(Violation::new(
                "namenode-cow-append",
                format!(
                    "mid-stream namenode clone drifted from {count} to {} blocks",
                    nn.block_count()
                ),
            ));
        }
        if live.namenode().block_count() != live.block_count() {
            v.push(Violation::new(
                "namenode-cow-append",
                format!(
                    "live namenode tracks {} blocks for a {}-block DFS",
                    live.namenode().block_count(),
                    live.block_count()
                ),
            ));
        }
    }
}

/// Multi-tenant serving-plane oracles (DESIGN.md §18).
///
/// * `serve-conservation` — every stream query gets exactly one
///   disposition (the harness relies on `serve`'s own internal
///   completeness assert for the "at least one" half, and checks the
///   counts here): per tenant, `admitted + rejected + shed` equals the
///   queries that tenant issued, and the per-tenant counters match the
///   outcome list.
/// * `serve-fairness` — the three deficit-round-robin invariants that
///   hold for *any* stream by loop structure alone:
///   `granted == rounds_backlogged × quantum`,
///   `served + forfeited == granted`, and
///   `forfeited ≤ busy_periods × (quantum + max_est)`.
/// * `serve-cache-coherence` — for every completed query, rebuild the
///   world at the epoch the outcome claims (replaying the scripted event
///   prefix against a fresh world — `World::apply` is a pure function, so
///   this is exact) and recompute the plan from scratch: the served
///   plan's digest must match the fresh plan's, byte for byte. This is
///   the oracle the planted `stale_serve_cache` bug must trip.
/// * `serve-interleaving` — a second run with a different worker count
///   and schedule seed must produce a byte-identical canonical answers
///   section, and a cache-off run on the same workers and schedule seed
///   must agree after normalisation and have an identical timing section
///   (a coherent cache changes where plans come from, never what they are
///   or when they run).
fn serve_oracles(v: &mut Vec<Violation>, sc: &Scenario, sep: &Separation, opts: &CheckOptions) {
    let sp = &sc.serve;
    let stream = generate_stream(&StreamConfig {
        tenants: sp.tenants,
        queries: sp.queries,
        gap_us: sp.gap_us,
        subdatasets: sc.subdatasets,
        mix: TenantMix::ALL[(sp.mix % 3) as usize],
        seed: sc.seed,
    });
    let events: Vec<ScriptedEvent> = sp
        .events
        .iter()
        .map(|e| match *e {
            ServeEventPlan::Ingest { at_query, blocks } => ScriptedEvent {
                at_query: at_query.min(sp.queries),
                event: ServeEvent::IngestCommit {
                    blocks: blocks.clamp(1, 4),
                },
            },
            ServeEventPlan::NodeLoss { at_query, node } => ScriptedEvent {
                at_query: at_query.min(sp.queries),
                event: ServeEvent::NodeLoss {
                    node: node % sc.nodes,
                },
            },
        })
        .collect();
    let world = || World::new(sc.build_dfs(), sc.subdatasets, sep.clone(), sc.seed);
    let cfg = ServeConfig {
        workers: sp.workers,
        queue_cap: sp.queue_cap,
        quantum_bytes: sp.quantum_kb * 1024,
        round_us: sp.gap_us.max(1),
        max_wait_rounds: sp.max_wait_rounds,
        cache: true,
        maxflow: false,
        schedule_seed: sp.schedule_seed,
    };
    let run = if opts.stale_serve_cache {
        serve_with_planted_staleness
    } else {
        serve
    };
    let report = run(world(), &stream, &events, &cfg, &Recorder::off());
    let answers = &report.answers;

    // Conservation: dispositions partition the stream, counters agree.
    if answers.outcomes.len() != stream.len() {
        v.push(Violation::new(
            "serve-conservation",
            format!(
                "{} outcomes for a {}-query stream",
                answers.outcomes.len(),
                stream.len()
            ),
        ));
    }
    for ts in &answers.tenants {
        let issued = stream.iter().filter(|q| q.tenant == ts.tenant).count() as u32;
        let (mut c, mut r, mut s) = (0u32, 0u32, 0u32);
        for o in answers.outcomes.iter().filter(|o| o.tenant == ts.tenant) {
            match o.disposition {
                Disposition::Completed { .. } => c += 1,
                Disposition::Rejected { .. } => r += 1,
                Disposition::Shed { .. } => s += 1,
            }
        }
        if c + r + s != issued || (c, r, s) != (ts.admitted, ts.rejected, ts.shed) {
            v.push(Violation::new(
                "serve-conservation",
                format!(
                    "tenant {}: issued {issued}, outcomes {c}+{r}+{s}, \
                     stats {}+{}+{}",
                    ts.tenant, ts.admitted, ts.rejected, ts.shed
                ),
            ));
        }
    }

    // Fairness: the three DRR invariants, per tenant.
    for ts in &answers.tenants {
        if ts.granted_bytes != ts.rounds_backlogged * cfg.quantum_bytes {
            v.push(Violation::new(
                "serve-fairness",
                format!(
                    "tenant {}: granted {} ≠ {} backlogged rounds × quantum {}",
                    ts.tenant, ts.granted_bytes, ts.rounds_backlogged, cfg.quantum_bytes
                ),
            ));
        }
        if ts.served_bytes + ts.forfeited_bytes != ts.granted_bytes {
            v.push(Violation::new(
                "serve-fairness",
                format!(
                    "tenant {}: served {} + forfeited {} ≠ granted {}",
                    ts.tenant, ts.served_bytes, ts.forfeited_bytes, ts.granted_bytes
                ),
            ));
        }
        let bound = ts.busy_periods as u64 * (cfg.quantum_bytes + ts.max_est_bytes);
        if ts.forfeited_bytes > bound {
            v.push(Violation::new(
                "serve-fairness",
                format!(
                    "tenant {}: forfeited {} exceeds {} busy periods × \
                     (quantum + max est {})",
                    ts.tenant, ts.forfeited_bytes, ts.busy_periods, ts.max_est_bytes
                ),
            ));
        }
    }

    // Cache coherence: replay every event prefix to rebuild the world at
    // each reachable epoch, then demand the served digest equal a fresh
    // plan's digest at the epoch the outcome claims.
    let mut worlds = vec![world()];
    for ev in &events {
        let mut w = worlds.last().expect("never empty").clone();
        w.apply(&ev.event);
        worlds.push(w);
    }
    let mut fresh: std::collections::HashMap<(u64, datanet::EpochKey), Option<u64>> =
        std::collections::HashMap::new();
    for o in &answers.outcomes {
        let Disposition::Completed {
            sub,
            epoch,
            plan_digest: served,
            ..
        } = o.disposition
        else {
            continue;
        };
        let want = *fresh.entry((sub, epoch)).or_insert_with(|| {
            worlds
                .iter()
                .find(|w| w.epoch_key() == epoch)
                .map(|w| plan_digest(&w.plan_batch(&[SubDatasetId(sub)], cfg.maxflow)[0]))
        });
        match want {
            None => v.push(Violation::new(
                "serve-cache-coherence",
                format!(
                    "query {} completed at epoch {epoch:?}, which no event \
                     prefix reaches",
                    o.id
                ),
            )),
            Some(want) if want != served => v.push(Violation::new(
                "serve-cache-coherence",
                format!(
                    "query {} (sub-dataset {sub}) served plan digest \
                     {served:#018x} at epoch {epoch:?}; a fresh plan at that \
                     epoch digests to {want:#018x} — a stale cached plan",
                    o.id
                ),
            )),
            Some(_) => {}
        }
    }

    // Interleaving determinism: the canonical answers must not see the
    // execution plane; and a cache-off run must agree after normalisation.
    let other = run(
        world(),
        &stream,
        &events,
        &ServeConfig {
            workers: sp.workers + 3,
            schedule_seed: sp.schedule_seed.wrapping_add(0x9E37_79B9),
            ..cfg
        },
        &Recorder::off(),
    );
    if other.answers.canonical_json() != answers.canonical_json() {
        v.push(Violation::new(
            "serve-interleaving",
            format!(
                "answers changed between {} and {} workers",
                cfg.workers,
                sp.workers + 3
            ),
        ));
    }
    let uncached = run(
        world(),
        &stream,
        &events,
        &ServeConfig {
            cache: false,
            ..cfg
        },
        &Recorder::off(),
    );
    if uncached.answers.normalized() != answers.normalized() {
        v.push(Violation::new(
            "serve-interleaving",
            "cache-on and cache-off runs disagree after normalisation".to_string(),
        ));
    }
    if uncached.timing != report.timing {
        v.push(Violation::new(
            "serve-interleaving",
            format!(
                "the plan cache moved the simulated timing: cache on {:?}, cache off {:?}",
                report.timing, uncached.timing
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_mapreduce::run_selection;

    /// Tolerance calibration sweep: prints the worst observed makespan
    /// ratios (net of the same slacks the oracle grants) and any
    /// violations over a wide seed range, including the 1900..2100
    /// family where seed 2017's light-block worlds live. Run with
    /// `cargo test -p datanet-check --release -- --ignored calibrate`
    /// when re-tuning `MAKESPAN_TOL_*`.
    #[test]
    #[ignore = "calibration sweep, minutes of runtime"]
    fn calibrate_makespan_tolerances() {
        let mut worst_ff = (0.0f64, 0u64);
        let mut worst_dn = (0.0f64, 0u64);
        let mut failures = Vec::new();
        for seed in (0..600u64).chain(1900..2100) {
            let sc = Scenario::from_seed(seed);
            let dfs = sc.build_dfs();
            let target = sc.target_id();
            let truth = dfs.subdataset_distribution(target);
            let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
            let view = arr.view(target);
            let cfg = SelectionConfig::default();
            let loc = run_selection(&dfs, &truth, &mut LocalityScheduler::new(&dfs), &cfg);
            let dn = run_selection(&dfs, &truth, &mut DataNetScheduler::new(&dfs, &view), &cfg);
            let plan = FordFulkersonPlanner::new(&dfs, &view).plan();
            let ff = run_selection(
                &dfs,
                &truth,
                &mut PlannedScheduler::new(&plan, dfs.namenode()),
                &cfg,
            );
            let slack = cfg.task_overhead.as_secs_f64() * MAKESPAN_SLACK_TASKS;
            let count_slack = cfg.task_overhead.as_secs_f64() * excess_peak_tasks(&ff, &dn) as f64;
            let r_ff = ff.end.as_secs_f64() / (dn.end.as_secs_f64() + slack + count_slack);
            let r_dn = dn.end.as_secs_f64() / (loc.end.as_secs_f64() + slack);
            if r_ff > worst_ff.0 {
                worst_ff = (r_ff, seed);
            }
            if r_dn > worst_dn.0 {
                worst_dn = (r_dn, seed);
            }
            let out = check_scenario(&sc);
            if !out.passed() {
                failures.push((seed, out.violations));
            }
        }
        println!(
            "worst ff/greedy ratio:      {:.4} (seed {})",
            worst_ff.0, worst_ff.1
        );
        println!(
            "worst greedy/locality ratio: {:.4} (seed {})",
            worst_dn.0, worst_dn.1
        );
        for (seed, vs) in &failures {
            println!("seed {seed} FAILED:");
            for v in vs {
                println!("  {v}");
            }
        }
        assert!(failures.is_empty(), "{} seeds failed", failures.len());
    }
}
