//! The execution engine: selection phase, analysis phase, full pipeline.
//!
//! ### Selection (Section V-A: "we first launch map tasks to filter out our
//! target sub-dataset and store them locally")
//!
//! Demand-driven: each node has one task slot; the node whose slot frees
//! earliest asks the scheduler for its next block. A task scans a whole
//! block (disk read + CPU scan; plus a NIC hop for non-local blocks) and
//! appends the matching records to a local partition. The *actual* filtered
//! bytes credited to a node come from the DFS ground truth — schedulers that
//! plan with approximate ElasticMap weights therefore show exactly the
//! residual imbalance the paper measures at low α (Figure 10).
//!
//! ### Analysis (map → shuffle → reduce over the filtered partitions)
//!
//! Each node runs one map task over its partition (disk + job CPU), then
//! sends `1/R` of its map output to every other reducer over the simulated
//! NICs (its own share stays local). A reducer's shuffle time spans from the
//! *first* map completion to its last received byte — Hadoop's definition,
//! and the reason imbalanced maps inflate shuffle times 4–5× in Figure 7.
//!
//! ### One engine, optional inputs
//!
//! There is one selection loop and one analysis driver. What a run may be
//! given beyond its data and cost models — a [`Recorder`], a
//! [`FaultConfig`], a clock base — travels in one [`Exec`] value whose
//! default is "none of them"; [`run_selection`], [`run_analysis`] and
//! [`run_analysis_shuffled`] are that default spelled as free functions.

use crate::job::JobProfile;
use crate::report::{ExecutionReport, FaultStats, JobReport, SelectionOutcome, ShuffleOutcome};
use crate::scheduler::{MapScheduler, ResilientScheduler};
use crate::shuffle::{self, ShufflePlan};
use datanet::store::MetaStore;
use datanet::{AggregationPlan, Assignment, RetryBudget};
use datanet_cluster::{
    suspicion_schedule, DetectorConfig, EventQueue, FaultPlan, NodeSpec, SimCluster, SimTime,
};
use datanet_dfs::{BlockId, Dfs, NodeId, SubDatasetId};
use datanet_obs::{Category, Domain, FlightKind, Recorder, SpanCtx, SpanId};
use std::sync::OnceLock;

/// Fixed per-task cost (scheduling heartbeat, JVM reuse, commit) — Hadoop
/// charges ~1 s per task; scaled here by the same 256× factor as the
/// data volume (see DESIGN.md), giving 6 ms.
const DEFAULT_TASK_OVERHEAD: SimTime = SimTime::from_millis(6);

/// Parameters of the selection phase.
#[derive(Debug, Clone, Copy)]
pub struct SelectionConfig {
    /// Node hardware.
    pub spec: NodeSpec,
    /// CPU work per scanned byte (multiple of the baseline scan rate).
    pub scan_factor: f64,
    /// Cost per *filtered* byte, as a multiple of the disk rate: matching
    /// records are parsed, sorted and spilled to the local partition
    /// (Hadoop's map-side sort/spill), so hot blocks cost real extra time.
    pub filtered_cost_factor: f64,
    /// Fixed per-map-task overhead (startup + commit).
    pub task_overhead: SimTime,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        Self {
            spec: NodeSpec::marmot(),
            scan_factor: 1.0,
            filtered_cost_factor: 1.0,
            task_overhead: DEFAULT_TASK_OVERHEAD,
        }
    }
}

/// Parameters of the analysis phase.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisConfig {
    /// Node hardware.
    pub spec: NodeSpec,
    /// Fixed per-task overhead applied to each map and reduce task.
    pub task_overhead: SimTime,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            spec: NodeSpec::marmot(),
            task_overhead: DEFAULT_TASK_OVERHEAD,
        }
    }
}

/// Fault-injection parameters for a selection run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The scripted fault schedule.
    pub plan: FaultPlan,
    /// How many times a block may be *re*-executed after crashes before the
    /// engine gives up on it (Hadoop's `mapreduce.map.maxattempts` − 1).
    pub max_retries: u32,
    /// `Some` switches crash notification from the PR 1 oracle (the engine
    /// reacts at the exact crash instant) to heartbeat-driven *suspicion*:
    /// recovery starts only once the failure detector's EWMA deadline
    /// passes, and every action in between is charged realistically — work
    /// "completing" on a dead-but-unsuspected node is void.
    pub detection: Option<DetectorConfig>,
}

impl FaultConfig {
    /// A plan with the default Hadoop-like retry budget of 3 and oracle
    /// crash notification (PR 1 semantics).
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            max_retries: 3,
            detection: None,
        }
    }

    /// Same, but crashes are learned through the failure detector.
    pub fn with_detection(plan: FaultPlan, detector: DetectorConfig) -> Self {
        Self {
            detection: Some(detector),
            ..Self::new(plan)
        }
    }
}

/// The optional inputs of a run: everything the engine accepts beyond the
/// data and the cost models. `Exec::default()` is a plain run — recorder
/// off, no faults, clock at zero — and each setter turns one input on:
///
/// ```text
/// Exec::default().rec(&rec).faults(&fc).selection(&dfs, &truth, &mut sched, &cfg)
/// ```
///
/// The recorder may watch but never steer: every run method returns the
/// same value whatever `rec` is. `faults: None` is not "an empty fault
/// plan" but *no fault model*: no crash events, NIC and slow factors of 1,
/// and nothing fault-specific recorded (no zero-valued `crashes` counter,
/// the plain `selection plan` flight line).
#[derive(Debug, Clone, Copy)]
pub struct Exec<'a> {
    /// Where spans, counters, histograms and flight lines go.
    pub rec: &'a Recorder,
    /// Scripted faults for the selection phase.
    pub faults: Option<&'a FaultConfig>,
    /// Start of the analysis phase on the caller's simulated timeline. An
    /// analysis job runs on its own clock from zero; every span it emits
    /// is shifted by `base` (pass the selection end so both phases line up
    /// on one timeline — [`Exec::pipeline`] does). Never changes a result.
    pub base: SimTime,
}

impl Default for Exec<'_> {
    fn default() -> Self {
        static OFF: OnceLock<Recorder> = OnceLock::new();
        Self {
            rec: OFF.get_or_init(Recorder::off),
            faults: None,
            base: SimTime::ZERO,
        }
    }
}

/// Run the selection phase.
///
/// * `truth` — ground-truth bytes of the target sub-dataset per block
///   (`dfs.subdataset_distribution(s)`), credited to whichever node scans
///   the block.
/// * `scheduler` — decides block→node placement on demand.
///
/// # Panics
/// Panics if `truth.len() != dfs.block_count()`.
pub fn run_selection(
    dfs: &Dfs,
    truth: &[u64],
    scheduler: &mut dyn MapScheduler,
    cfg: &SelectionConfig,
) -> SelectionOutcome {
    Exec::default().selection(dfs, truth, scheduler, cfg)
}

/// Run one analysis job over per-node filtered partitions with the Hadoop
/// default reducer layout: one reducer per node, uniform partition shares.
///
/// Every node with a non-empty partition runs one map task starting at t=0
/// (the job is launched after selection completes).
pub fn run_analysis(filtered: &[u64], profile: &JobProfile, cfg: &AnalysisConfig) -> JobReport {
    let plan = AggregationPlan::uniform(filtered.len());
    Exec::default().analysis(filtered, profile, cfg, &plan, None)
}

/// Run one analysis job routed by a [`ShufflePlan`] over a per-(node,
/// key-range) byte matrix (one row per node — see
/// [`crate::shuffle::range_matrix_truth`]). Map timing matches
/// [`run_analysis`] on the row sums; the shuffle sends each mapper's
/// output to the plan's per-range reducers (fragments of split ranges
/// spread by their shares, all integer splits largest-remainder exact),
/// and each reducer processes exactly what it received rather than a
/// uniform share.
pub fn run_analysis_shuffled(
    matrix: &[Vec<u64>],
    profile: &JobProfile,
    cfg: &AnalysisConfig,
    plan: &ShufflePlan,
) -> ShuffleOutcome {
    Exec::default().analysis_shuffled(matrix, profile, cfg, plan)
}

/// Cost of one selection map task: disk read of the whole block, a NIC hop
/// for non-local reads (degraded by `nic_fraction` under fault injection),
/// scan CPU over the block, and the sort/spill of the filtered bytes.
fn map_task_duration(
    dfs: &Dfs,
    block: BlockId,
    local: bool,
    filtered: u64,
    cfg: &SelectionConfig,
    nic_fraction: f64,
) -> SimTime {
    let block_bytes = dfs.block(block).bytes();
    let mut dur = cfg.task_overhead + SimTime::for_bytes(block_bytes, cfg.spec.disk_bps);
    if !local {
        let rate = ((cfg.spec.nic_bps as f64) * nic_fraction).max(1.0) as u64;
        dur += SimTime::for_bytes(block_bytes, rate);
    }
    dur += SimTime::for_bytes(
        (block_bytes as f64 * cfg.scan_factor).ceil() as u64,
        cfg.spec.cpu_bps,
    );
    dur += SimTime::for_bytes(
        (filtered as f64 * cfg.filtered_cost_factor).ceil() as u64,
        cfg.spec.disk_bps,
    );
    dur
}

/// Closed-form makespan of executing an already-planned assignment: each
/// node runs its planned blocks back to back in its one map slot at the
/// engine's exact per-task cost, so the result equals [`run_selection`]
/// driven by a `PlannedScheduler` — without paying for the event queue. The serving
/// plane (`datanet-serve`) prices every admitted query's execution with
/// this, which keeps per-query cost a pure function of the plan: worker
/// interleaving can reorder queries but never change what one costs.
///
/// A task's filtered bytes of sub-dataset `s` come from its block's size
/// table (`Block::subdataset_bytes`), so a price reads only the blocks the
/// plan assigns.
pub fn planned_makespan(
    dfs: &Dfs,
    s: SubDatasetId,
    plan: &Assignment,
    cfg: &SelectionConfig,
) -> SimTime {
    let mut makespan = SimTime::ZERO;
    for n in 0..plan.node_count() {
        let node = NodeId(n as u32);
        let mut end = SimTime::ZERO;
        for &b in plan.tasks_of(node) {
            let local = dfs.namenode().is_local(b, node);
            let filtered = dfs.block(b).subdataset_bytes(s);
            end += map_task_duration(dfs, b, local, filtered, cfg, 1.0);
        }
        makespan = makespan.max(end);
    }
    makespan
}

/// Stretch a duration by a slowdown factor (≥ 1).
fn stretch(dur: SimTime, factor: f64) -> SimTime {
    if factor == 1.0 {
        dur
    } else {
        SimTime::from_micros((dur.as_micros() as f64 * factor).ceil() as u64)
    }
}

/// Effective map throughput of a node for a given job, in bytes/second:
/// the harmonic combination of its disk rate and its job-adjusted CPU rate
/// (a map task reads then computes, so per-byte costs add). This is the
/// "computing capability" to feed Section IV-B's proportional targets
/// (`Algorithm1::with_capabilities`).
pub fn capability_of(spec: &NodeSpec, profile: &JobProfile) -> f64 {
    spec.validate();
    profile.validate();
    let per_byte = 1.0 / spec.disk_bps as f64 + profile.map_compute_factor / spec.cpu_bps as f64;
    1.0 / per_byte
}

/// Events driving the selection loop.
enum SlotEvent {
    /// A map slot on this node freed up (task completion or initial token).
    Free(NodeId),
    /// The engine learns that a node crashed (at the crash instant under
    /// the oracle, at the suspicion instant under detection).
    Crash(NodeId),
}

/// How a mapper's output reaches the reducers — the one thing the two
/// analysis forms differ in.
#[derive(Clone, Copy)]
enum Routing<'a> {
    /// Mapper `i` sends `share_r · out_i` to reducer `r`, and reducer `r`
    /// processes `share_r` of the total map output.
    Shares(&'a AggregationPlan),
    /// Mapper `i`'s output is apportioned over its own key-range row, each
    /// range's cell split over the plan's fragments (largest-remainder at
    /// both levels, so inflows sum exactly to the total map output), and a
    /// reducer processes exactly what it received.
    Ranges(&'a [Vec<u64>], &'a ShufflePlan),
}

impl<'a> Exec<'a> {
    /// Record through `rec`.
    pub fn rec(self, rec: &'a Recorder) -> Self {
        Self { rec, ..self }
    }

    /// Run the selection phase under `faults` (a `&FaultConfig`, or an
    /// `Option` of one).
    pub fn faults(self, faults: impl Into<Option<&'a FaultConfig>>) -> Self {
        Self {
            faults: faults.into(),
            ..self
        }
    }

    /// Shift emitted analysis spans by `base`.
    pub fn base(self, base: SimTime) -> Self {
        Self { base, ..self }
    }

    /// The selection phase ([`run_selection`] documents the arguments).
    ///
    /// One event loop serves every run. Filtered bytes are credited at task
    /// **completion**, so under a [`FaultConfig`] the fail-stop model falls
    /// out of the same bookkeeping:
    ///
    /// * when a node crashes, its in-flight tasks *and* its completed
    ///   filtered partitions are lost. Every affected block with a
    ///   surviving replica is re-enqueued via [`MapScheduler::node_lost`]
    ///   and re-executed (charged full re-read cost); blocks whose replicas
    ///   all died are reported in [`FaultStats::unrecoverable_blocks`], and
    ///   blocks exceeding the retry budget in
    ///   [`FaultStats::abandoned_blocks`];
    /// * transient slow-node windows stretch task durations; NIC
    ///   degradation slows remote reads;
    /// * nodes that went idle (scheduler drained) are woken again when a
    ///   crash requeues work.
    ///
    /// Recorded, on the simulated clock: one `select` task span per granted
    /// block (node/block attributes, `attempt N` on re-executions, closed
    /// with a `lost` note if its node dies first), a `selection` phase
    /// span, a `task_us` histogram and locality counters; under faults also
    /// the crash lifecycle — a `crash` instant at the physical failure, a
    /// `suspect` instant when the engine learns of it, a `replan` instant
    /// from [`MapScheduler::record_replan`] — and the fault counters.
    ///
    /// The run is deterministic for a fixed `FaultPlan` and scheduler state.
    ///
    /// # Panics
    /// Panics if `truth.len() != dfs.block_count()` or the fault plan is
    /// sized for another cluster.
    pub fn selection(
        &self,
        dfs: &Dfs,
        truth: &[u64],
        scheduler: &mut dyn MapScheduler,
        cfg: &SelectionConfig,
    ) -> SelectionOutcome {
        let rec = self.rec;
        assert_eq!(
            truth.len(),
            dfs.block_count(),
            "ground-truth vector must cover every block"
        );
        cfg.spec.validate();
        let m = dfs.config().topology.len();
        let plan = self.faults.map(|f| &f.plan);
        let detection = self.faults.and_then(|f| f.detection);

        let mut per_node_bytes = vec![0u64; m];
        let mut tasks_per_node = vec![0usize; m];
        let mut per_node_end = vec![SimTime::ZERO; m];
        let mut local_tasks = 0usize;
        let mut total_tasks = 0usize;
        let mut bytes_read = 0u64;
        let mut stats = FaultStats::default();

        let mut alive = vec![true; m];
        let readable =
            |b: BlockId, alive: &[bool]| dfs.replicas(b).iter().any(|n| alive[n.index()]);
        // Blocks whose filtered output currently lives on node n.
        let mut done: Vec<Vec<BlockId>> = vec![Vec::new(); m];
        // Tasks running on node n: (block, was_local, completes_at, span).
        let mut in_flight: Vec<Vec<(BlockId, bool, SimTime, SpanId)>> = vec![Vec::new(); m];
        // Slot tokens parked because the scheduler had nothing left; a crash
        // that requeues work revives them.
        let mut parked = vec![0u32; m];
        // Executions started per block (first run + retries), capped by the
        // shared retry budget (datanet::retry).
        let mut budget =
            RetryBudget::new(dfs.block_count(), self.faults.map_or(0, |f| f.max_retries));
        let mut first_crash: Option<SimTime> = None;

        let mut events: EventQueue<SlotEvent> = EventQueue::new();
        let mut plan_line = format!(
            "selection plan: {} tasks over {m} nodes",
            scheduler.remaining()
        );
        if let Some(plan) = plan {
            assert_eq!(plan.nodes(), m, "fault plan sized for another cluster");
            plan_line = format!("faulty {plan_line}, {} planned crashes", plan.crash_count());
        }
        rec.flight(FlightKind::Plan, Domain::Sim, 0, None, plan_line);
        // Under detection, the engine learns of a crash at the *suspicion*
        // instant; under the oracle model, at the crash instant itself.
        let notifications = match (plan, detection) {
            (Some(plan), Some(det)) => suspicion_schedule(plan, det, rec),
            (Some(plan), None) => plan.crash_events(),
            (None, _) => Vec::new(),
        };
        // `done` is only ever read by a crash.
        let may_crash = !notifications.is_empty();
        for (t, node) in notifications {
            events.push(t, SlotEvent::Crash(NodeId(node as u32)));
        }
        // Every node's one map slot is free at t=0. FIFO tie-break keeps
        // node order deterministic.
        for n in 0..m {
            events.push(SimTime::ZERO, SlotEvent::Free(NodeId(n as u32)));
        }

        while let Some((now, event)) = events.pop() {
            match event {
                SlotEvent::Crash(dead) => {
                    alive[dead.index()] = false;
                    let crashed_at = plan.and_then(|p| p.crash_time(dead.index())).unwrap_or(now);
                    first_crash.get_or_insert(crashed_at);
                    stats.crashed_nodes.push(dead.index());
                    rec.instant(
                        Category::Detection,
                        "crash",
                        Domain::Sim,
                        crashed_at.as_micros(),
                        SpanCtx::default().node(dead.index()),
                    );
                    if detection.is_some() {
                        stats
                            .detection_latency_secs
                            .push((now.saturating_sub(crashed_at)).as_secs_f64());
                    } else {
                        // Oracle notification: suspicion is instantaneous, but
                        // the chain still gets its `suspect` marker so crash
                        // timelines read uniformly across both modes.
                        rec.instant(
                            Category::Detection,
                            "suspect",
                            Domain::Sim,
                            now.as_micros(),
                            SpanCtx::default().node(dead.index()).note("oracle"),
                        );
                    }
                    per_node_end[dead.index()] = crashed_at;
                    // Everything the node produced or was producing is gone.
                    per_node_bytes[dead.index()] = 0;
                    tasks_per_node[dead.index()] = 0;
                    // Tasks still in flight died with the node: their spans end
                    // at the physical crash, not at the (later) suspicion.
                    for &(_, _, _, span) in &in_flight[dead.index()] {
                        rec.end_with_note(span, crashed_at.as_micros(), "lost");
                    }
                    let casualties: Vec<BlockId> = done[dead.index()]
                        .drain(..)
                        .chain(in_flight[dead.index()].drain(..).map(|(b, _, _, _)| b))
                        .collect();
                    // Triage: re-enqueue what survivors can serve, report the rest.
                    let mut requeue = Vec::new();
                    for b in casualties {
                        if !readable(b, &alive) {
                            stats.unrecoverable_blocks.push(b);
                        } else if budget.exhausted(b.index()) {
                            stats.abandoned_blocks.push(b);
                        } else {
                            requeue.push(b);
                        }
                    }
                    stats.requeued_tasks += requeue.len();
                    scheduler.node_lost(dead, &requeue);
                    scheduler.record_replan(rec, now.as_micros(), dead, requeue.len());
                    // Wake idle survivors: new work just appeared.
                    if !requeue.is_empty() {
                        for (n, tokens) in parked.iter_mut().enumerate() {
                            for _ in 0..*tokens {
                                events.push(now, SlotEvent::Free(NodeId(n as u32)));
                            }
                            *tokens = 0;
                        }
                    }
                }
                SlotEvent::Free(node) => {
                    if !alive[node.index()] {
                        // The token belonged to a node that died; drop it.
                        continue;
                    }
                    if plan.is_some_and(|p| !p.is_alive(node.index(), now)) {
                        // Physically dead but not yet *suspected* (detection
                        // mode): the node emits nothing. Its completed work and
                        // credits are reaped when suspicion fires.
                        continue;
                    }
                    // Complete the task this token was running, if any.
                    if let Some(pos) = in_flight[node.index()]
                        .iter()
                        .position(|&(_, _, e, _)| e == now)
                    {
                        let (block, local, _, span) = in_flight[node.index()].remove(pos);
                        rec.end(span, now.as_micros());
                        if may_crash {
                            done[node.index()].push(block);
                        }
                        per_node_bytes[node.index()] += truth[block.index()];
                        tasks_per_node[node.index()] += 1;
                        bytes_read += dfs.block(block).bytes();
                        total_tasks += 1;
                        if local {
                            local_tasks += 1;
                        }
                        per_node_end[node.index()] = now;
                    }
                    // Ask for the next task.
                    let Some((block, local)) = scheduler.next_task(node) else {
                        if scheduler.remaining() > 0 {
                            // The scheduler deferred this node (e.g. delay
                            // scheduling waiting for a local slot): retry on
                            // the next heartbeat.
                            events.push(
                                now + cfg.task_overhead.max(SimTime::from_millis(1)),
                                SlotEvent::Free(node),
                            );
                        } else {
                            // Nothing left anywhere: the node stops requesting.
                            per_node_end[node.index()] = per_node_end[node.index()].max(now);
                            parked[node.index()] += 1;
                        }
                        continue;
                    };
                    if !stats.crashed_nodes.is_empty() && !readable(block, &alive) {
                        // Every replica died while the block sat in the pool:
                        // nothing can serve the read. Report it and keep the
                        // token cycling (next_task advanced, so this terminates).
                        stats.unrecoverable_blocks.push(block);
                        events.push(now, SlotEvent::Free(node));
                        continue;
                    }
                    if budget.tried(block.index()) {
                        stats.reexecuted_tasks += 1;
                        stats.wasted_bytes_read += dfs.block(block).bytes();
                    }
                    let attempt = budget.record(block.index());
                    let dur = map_task_duration(
                        dfs,
                        block,
                        local,
                        truth[block.index()],
                        cfg,
                        plan.map_or(1.0, |p| p.nic_fraction(node.index())),
                    );
                    let dur = stretch(dur, plan.map_or(1.0, |p| p.slow_factor(node.index(), now)));
                    let end = now + dur;
                    let mut ctx = SpanCtx::default()
                        .node(node.index())
                        .block(block.index() as u64);
                    if attempt > 1 {
                        ctx = ctx.note(format!("attempt {attempt}"));
                    }
                    let span =
                        rec.begin(Category::Task, "select", Domain::Sim, now.as_micros(), ctx);
                    rec.observe("task_us", dur.as_micros());
                    in_flight[node.index()].push((block, local, end, span));
                    events.push(end, SlotEvent::Free(node));
                }
            }
        }
        debug_assert!(
            scheduler.remaining() == 0 || alive.iter().all(|&a| !a),
            "engine drained the scheduler or lost every node"
        );

        let end = per_node_end.iter().copied().max().unwrap_or(SimTime::ZERO);
        stats.recovery_secs = first_crash
            .map(|c| end.saturating_sub(c).as_secs_f64())
            .unwrap_or(0.0);
        let phase = rec.begin(
            Category::Phase,
            "selection",
            Domain::Sim,
            0,
            SpanCtx::default(),
        );
        rec.end(phase, end.as_micros());
        rec.add("tasks_executed", total_tasks as u64);
        rec.add("local_tasks", local_tasks as u64);
        rec.add("remote_tasks", (total_tasks - local_tasks) as u64);
        rec.add("bytes_read", bytes_read);
        if plan.is_some() {
            rec.add("crashes", stats.crashed_nodes.len() as u64);
            rec.add("requeued_tasks", stats.requeued_tasks as u64);
            rec.add("reexecuted_tasks", stats.reexecuted_tasks as u64);
            rec.add("wasted_bytes_read", stats.wasted_bytes_read);
            rec.add(
                "unrecoverable_blocks",
                stats.unrecoverable_blocks.len() as u64,
            );
            rec.add("abandoned_blocks", stats.abandoned_blocks.len() as u64);
        }
        SelectionOutcome {
            scheduler: scheduler.name().to_string(),
            per_node_bytes,
            tasks_per_node,
            per_node_end,
            end,
            local_tasks,
            total_tasks,
            bytes_read,
            faults: stats,
            meta: datanet::MetaHealth::default(),
        }
    }

    /// The selection phase straight off a (possibly degraded) [`MetaStore`]
    /// — the full degradation ladder, end to end:
    ///
    /// 1. [`MetaStore::view_degraded`] assembles the best available view,
    ///    with retry, replica failover and quarantine along the way (its
    ///    shard loads and scrubs land in this run's recorder; the store's
    ///    own recorder is put back before returning);
    /// 2. a [`ResilientScheduler`] places rung-1/2 blocks with Algorithm 1
    ///    and rung-3 blocks (shard *and* summary lost) with the locality
    ///    baseline;
    /// 3. [`Exec::selection`] runs it;
    /// 4. the outcome's [`SelectionOutcome::meta`] records the store's
    ///    health counters, the per-rung block counts, and the relative
    ///    error of the degraded Equation 6 estimate against ground truth.
    ///
    /// # Panics
    /// Panics if the store's manifest does not cover `dfs`'s blocks.
    pub fn selection_resilient(
        &self,
        dfs: &Dfs,
        s: SubDatasetId,
        store: &mut MetaStore,
        cfg: &SelectionConfig,
    ) -> SelectionOutcome {
        assert_eq!(
            store.manifest().blocks,
            dfs.block_count(),
            "metadata store describes a different DFS"
        );
        let callers = store.set_recorder(self.rec.clone());
        let degraded = store.view_degraded(s);
        store.set_recorder(callers);
        let truth = dfs.subdataset_distribution(s);
        let mut scheduler = ResilientScheduler::new(dfs, &degraded);
        let mut out = self.selection(dfs, &truth, &mut scheduler, cfg);
        let mut meta = store.health().clone();
        meta.rungs = degraded.rung_counts();
        let actual = dfs.subdataset_total(s);
        if actual > 0 {
            let est = degraded.view().estimated_total();
            meta.est_error = (est as f64 - actual as f64).abs() / actual as f64;
        }
        out.meta = meta;
        out
    }

    /// One analysis job over per-node filtered partitions, with reducers
    /// placed and weighted by `plan`: [`AggregationPlan::uniform`] is the
    /// Hadoop default ([`run_analysis`]), [`AggregationPlan::uniform_over`]
    /// keeps reducers off dead nodes, `datanet::plan_aggregation` is the
    /// traffic-aware extension of Section IV-B. `specs` (one per node)
    /// runs the job on a heterogeneous cluster — the environment where
    /// Section IV-B's capability-proportional targets matter — instead of
    /// `cfg.spec` everywhere.
    ///
    /// Recorded: `map`/`reduce` task spans and per-reducer `shuffle` spans
    /// under one `analysis` phase span, all shifted by [`Exec::base`];
    /// `map_us`/`reduce_us` histograms; a `shuffle_bytes` counter.
    ///
    /// # Panics
    /// Panics on an empty partition list, a reducer outside the cluster, or
    /// `specs` not matching the partitions.
    pub fn analysis(
        &self,
        filtered: &[u64],
        profile: &JobProfile,
        cfg: &AnalysisConfig,
        plan: &AggregationPlan,
        specs: Option<&[NodeSpec]>,
    ) -> JobReport {
        let m = filtered.len();
        assert!(m > 0, "need at least one partition");
        plan.validate();
        let cluster = match specs {
            Some(specs) => {
                assert_eq!(m, specs.len(), "one spec per partition/node");
                SimCluster::heterogeneous(specs)
            }
            None => SimCluster::homogeneous(m, cfg.spec),
        };
        self.job(filtered, profile, cfg, cluster, Routing::Shares(plan))
            .report
    }

    /// [`run_analysis_shuffled`] with this value's recorder and base; emits
    /// the same span vocabulary as [`Exec::analysis`].
    pub fn analysis_shuffled(
        &self,
        matrix: &[Vec<u64>],
        profile: &JobProfile,
        cfg: &AnalysisConfig,
        plan: &ShufflePlan,
    ) -> ShuffleOutcome {
        plan.validate();
        let m = matrix.len();
        assert!(m > 0, "need at least one node");
        let ranges = plan.key_ranges();
        assert!(
            matrix.iter().all(|row| row.len() == ranges),
            "matrix width must match the plan's key ranges"
        );
        assert_eq!(plan.reducers.len(), m, "one reducer slot per node expected");
        let filtered: Vec<u64> = matrix.iter().map(|row| row.iter().sum()).collect();
        let cluster = SimCluster::homogeneous(m, cfg.spec);
        self.job(
            &filtered,
            profile,
            cfg,
            cluster,
            Routing::Ranges(matrix, plan),
        )
    }

    /// The analysis phase over a prepared cluster: map, shuffle as
    /// `routing` directs, reduce, report.
    fn job(
        &self,
        filtered: &[u64],
        profile: &JobProfile,
        cfg: &AnalysisConfig,
        mut cluster: SimCluster,
        routing: Routing<'_>,
    ) -> ShuffleOutcome {
        let (rec, base) = (self.rec, self.base);
        // A closed span on the job-local clock, shifted onto the caller's.
        let span = |cat, name: &str, start: SimTime, end: SimTime, ctx| {
            let id = rec.begin(cat, name, Domain::Sim, (base + start).as_micros(), ctx);
            rec.end(id, (base + end).as_micros());
        };
        profile.validate();
        let m = filtered.len();
        let reducers: &[NodeId] = match routing {
            Routing::Shares(plan) => &plan.reducers,
            Routing::Ranges(_, plan) => &plan.reducers,
        };
        assert!(
            reducers.iter().all(|r| r.index() < m),
            "reducer outside the cluster"
        );

        // --- Map phase: read partition + job CPU. One map task per node.
        let mut map_end = vec![SimTime::ZERO; m];
        let mut map_secs = Vec::with_capacity(m);
        for (i, &bytes) in filtered.iter().enumerate() {
            let (_, read_end) = cluster.node_mut(i).read_disk(cfg.task_overhead, bytes);
            let (_, cpu_end) =
                cluster
                    .node_mut(i)
                    .compute(read_end, bytes, profile.map_compute_factor);
            map_end[i] = cpu_end;
            map_secs.push(cpu_end.as_secs_f64());
            let node = SpanCtx::default().node(i);
            span(Category::Task, "map", SimTime::ZERO, cpu_end, node);
            rec.observe("map_us", cpu_end.as_micros());
        }
        let first_map_end = map_end.iter().copied().min().unwrap_or(SimTime::ZERO);

        // --- Shuffle: when its map finishes, mapper i sends each reducer
        // slot what `routing` says, everything bound for one slot batched
        // into a single transfer; a slot on the mapper's own node keeps its
        // bytes local. Reducer r's shuffle spans first_map_end → its last
        // arrival.
        let r_count = reducers.len();
        let mut last_arrival = vec![first_map_end; r_count];
        let mut received = vec![0u64; r_count];
        let mut network_bytes = 0u64;
        let mut local_bytes = 0u64;
        let mut total_out = 0u64;
        let mut send = vec![0u64; r_count];
        for i in 0..m {
            let out = profile.map_output_bytes(filtered[i]);
            total_out += out;
            if out == 0 {
                continue;
            }
            match routing {
                Routing::Shares(plan) => {
                    for (bytes, &share) in send.iter_mut().zip(&plan.shares) {
                        *bytes = (out as f64 * share) as u64;
                    }
                }
                Routing::Ranges(matrix, plan) => {
                    send.fill(0);
                    let cells = crate::skewtune::apportion(out, &matrix[i]);
                    for (g, &cell) in cells.iter().enumerate() {
                        if cell == 0 {
                            continue;
                        }
                        let frags = &plan.assignments[g];
                        if frags.len() == 1 {
                            send[frags[0].reducer] += cell;
                        } else {
                            let shares: Vec<f64> = frags.iter().map(|f| f.share).collect();
                            let split = shuffle::apportion_shares(cell, &shares);
                            for (f, bytes) in frags.iter().zip(split) {
                                send[f.reducer] += bytes;
                            }
                        }
                    }
                }
            }
            for (ri, &bytes) in send.iter().enumerate() {
                if bytes == 0 {
                    continue;
                }
                received[ri] += bytes;
                let rnode = reducers[ri];
                if rnode.index() == i {
                    local_bytes += bytes;
                    last_arrival[ri] = last_arrival[ri].max(map_end[i]);
                } else {
                    let (_, arr) = cluster.transfer(i, rnode.index(), map_end[i], bytes);
                    network_bytes += bytes;
                    last_arrival[ri] = last_arrival[ri].max(arr);
                }
            }
        }
        let shuffle_secs: Vec<f64> = last_arrival
            .iter()
            .map(|&t| t.saturating_sub(first_map_end).as_secs_f64())
            .collect();
        for (ri, &rnode) in reducers.iter().enumerate() {
            let node = SpanCtx::default().node(rnode.index());
            span(
                Category::Phase,
                "shuffle",
                first_map_end,
                last_arrival[ri],
                node,
            );
        }
        rec.add("shuffle_bytes", network_bytes);

        // --- Reduce: each reducer processes its inflow and writes the
        // reduce output file.
        let mut reduce_secs = Vec::with_capacity(r_count);
        let mut makespan = map_end.iter().copied().max().unwrap_or(SimTime::ZERO);
        for (ri, &rnode) in reducers.iter().enumerate() {
            let inflow = match routing {
                Routing::Shares(plan) => (total_out as f64 * plan.shares[ri]) as u64,
                Routing::Ranges(..) => received[ri],
            };
            let ready = last_arrival[ri];
            let end = if inflow == 0 || profile.reduce_compute_factor == 0.0 {
                ready
            } else {
                let ready = ready + cfg.task_overhead;
                let (_, cpu_end) = cluster.node_mut(rnode.index()).compute(
                    ready,
                    inflow,
                    profile.reduce_compute_factor,
                );
                let (_, w_end) = cluster.node_mut(rnode.index()).write_disk(cpu_end, inflow);
                w_end
            };
            reduce_secs.push((end.saturating_sub(ready)).as_secs_f64());
            makespan = makespan.max(end);
            let node = SpanCtx::default().node(rnode.index());
            span(Category::Task, "reduce", ready, end, node);
            rec.observe("reduce_us", end.saturating_sub(ready).as_micros());
        }
        let job = SpanCtx::default().note(profile.name.clone());
        span(Category::Phase, "analysis", SimTime::ZERO, makespan, job);

        let cpu_util = (0..m)
            .map(|i| cluster.node(i).cpu().utilisation(makespan))
            .collect();
        ShuffleOutcome {
            report: JobReport {
                job: profile.name.clone(),
                map_secs,
                shuffle_secs,
                reduce_secs,
                makespan_secs: makespan.as_secs_f64(),
                shuffle_bytes: network_bytes,
                cpu_util,
            },
            received,
            network_bytes,
            local_bytes,
        }
    }

    /// Full pipeline on one simulated clock: selection of `subdataset`
    /// under `scheduler`, then `job` over the filtered partitions, based at
    /// the selection end, with one uniform reducer per node that survived
    /// the selection.
    pub fn pipeline(
        &self,
        dfs: &Dfs,
        subdataset: SubDatasetId,
        scheduler: &mut dyn MapScheduler,
        job: &JobProfile,
        sel_cfg: &SelectionConfig,
        ana_cfg: &AnalysisConfig,
    ) -> ExecutionReport {
        let truth = dfs.subdataset_distribution(subdataset);
        let selection = self.selection(dfs, &truth, scheduler, sel_cfg);
        let parts = &selection.per_node_bytes;
        let reducers = AggregationPlan::uniform_over(parts, &selection.faults.crashed_nodes);
        let job = self
            .base(selection.end)
            .analysis(parts, job, ana_cfg, &reducers, None);
        ExecutionReport {
            selection,
            job,
            obs: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{DataNetScheduler, LocalityScheduler};
    use datanet::{ElasticMapArray, Separation};
    use datanet_dfs::{DfsConfig, Record, Topology};

    /// Clustered dataset in the paper's regime: the per-block share of
    /// sub-dataset 0 follows a skewed Gamma law (Section II-B's model), so
    /// block weights are lumpy but no single block exceeds the per-node
    /// target.
    fn clustered_dfs(nodes: u32) -> Dfs {
        use datanet_stats::GammaDist;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let blocks = 160usize;
        let mut rng = StdRng::seed_from_u64(42);
        let g = GammaDist::new(0.5, 1.0);
        let shares: Vec<u64> = (0..blocks)
            .map(|_| (g.sample(&mut rng) * 25.0).min(90.0) as u64)
            .collect();
        let mut recs = Vec::new();
        for i in 0..(blocks as u64 * 100) {
            let block = (i / 100) as usize;
            let within = i % 100;
            let s = if within < shares[block] {
                0
            } else {
                1 + i % 25
            };
            recs.push(Record::new(SubDatasetId(s), i, 1000, i));
        }
        Dfs::write_random(
            DfsConfig {
                block_size: 100_000,
                replication: 3,
                topology: Topology::single_rack(nodes),
                seed: 1234,
            },
            recs,
        )
    }

    fn test_job() -> JobProfile {
        JobProfile::new("test", 3.0, 0.4, 1.0)
    }

    #[test]
    fn selection_credits_all_subdataset_bytes() {
        let dfs = clustered_dfs(8);
        let s = SubDatasetId(0);
        let truth = dfs.subdataset_distribution(s);
        let mut sched = LocalityScheduler::new(&dfs);
        let out = run_selection(&dfs, &truth, &mut sched, &SelectionConfig::default());
        assert_eq!(
            out.per_node_bytes.iter().sum::<u64>(),
            dfs.subdataset_total(s)
        );
        assert_eq!(out.total_tasks, dfs.block_count());
        assert_eq!(out.bytes_read, dfs.total_bytes());
        assert!(out.end > SimTime::ZERO);
    }

    #[test]
    fn planned_makespan_matches_the_event_driven_engine() {
        use crate::scheduler::PlannedScheduler;
        use datanet::{Algorithm1, Assignment};
        let dfs = clustered_dfs(8);
        let s = SubDatasetId(0);
        let truth = dfs.subdataset_distribution(s);
        let view = ElasticMapArray::build(&dfs, &Separation::All).view(s);
        let plan = Algorithm1::new(&dfs, &view).plan_balanced();
        let cfg = SelectionConfig::default(); // 1 slot per node
        let mut sched = PlannedScheduler::new(&plan, dfs.namenode());
        let out = run_selection(&dfs, &truth, &mut sched, &cfg);
        assert_eq!(
            planned_makespan(&dfs, s, &plan, &cfg),
            out.end,
            "closed form must reproduce the event-driven makespan exactly"
        );
        // An empty plan costs nothing.
        let empty = Assignment::new(8);
        assert_eq!(planned_makespan(&dfs, s, &empty, &cfg), SimTime::ZERO);
    }

    #[test]
    fn locality_scheduler_is_mostly_local_but_imbalanced() {
        let dfs = clustered_dfs(8);
        let s = SubDatasetId(0);
        let truth = dfs.subdataset_distribution(s);
        let mut sched = LocalityScheduler::new(&dfs);
        let out = run_selection(&dfs, &truth, &mut sched, &SelectionConfig::default());
        assert!(
            out.locality_fraction() > 0.8,
            "got {}",
            out.locality_fraction()
        );
        assert!(
            out.imbalance() > 1.2,
            "clustered data should imbalance the blind scheduler, got {}",
            out.imbalance()
        );
    }

    #[test]
    fn datanet_scheduler_balances_and_reads_less() {
        let dfs = clustered_dfs(8);
        let s = SubDatasetId(0);
        let truth = dfs.subdataset_distribution(s);
        let view = ElasticMapArray::build(&dfs, &Separation::All).view(s);

        let mut base = LocalityScheduler::new(&dfs);
        let without = run_selection(&dfs, &truth, &mut base, &SelectionConfig::default());
        let mut dn = DataNetScheduler::new(&dfs, &view);
        let with = run_selection(&dfs, &truth, &mut dn, &SelectionConfig::default());

        assert!(
            with.imbalance() < without.imbalance(),
            "datanet {} vs locality {}",
            with.imbalance(),
            without.imbalance()
        );
        assert!(
            with.bytes_read <= without.bytes_read,
            "block skipping must not read more"
        );
        assert_eq!(
            with.per_node_bytes.iter().sum::<u64>(),
            without.per_node_bytes.iter().sum::<u64>()
        );
    }

    #[test]
    fn analysis_makespan_tracks_slowest_map() {
        let balanced = vec![1_000_000u64; 8];
        let mut skewed = vec![500_000u64; 8];
        skewed[0] = 4_500_000; // same total, one straggler
        let cfg = AnalysisConfig::default();
        let jb = run_analysis(&balanced, &test_job(), &cfg);
        let js = run_analysis(&skewed, &test_job(), &cfg);
        assert!(
            js.makespan_secs > jb.makespan_secs,
            "skewed {} vs balanced {}",
            js.makespan_secs,
            jb.makespan_secs
        );
        // Map spread mirrors the partition spread.
        assert!(js.map_summary().max() / js.map_summary().min() > 5.0);
        assert!(jb.map_summary().max() / jb.map_summary().min() < 1.05);
        // Under skew, the idle nodes' CPU utilisation craters while the
        // straggler's stays high.
        assert!(js.util_summary().min() < 0.3 * js.util_summary().max());
        assert!(jb.util_summary().min() > 0.7 * jb.util_summary().max());
    }

    #[test]
    fn imbalance_inflates_shuffle_times() {
        // Figure 7's mechanism: reducers wait for the straggler map.
        let balanced = vec![1_000_000u64; 8];
        let mut skewed = vec![500_000u64; 8];
        skewed[0] = 4_500_000;
        let cfg = AnalysisConfig::default();
        let jb = run_analysis(&balanced, &test_job(), &cfg);
        let js = run_analysis(&skewed, &test_job(), &cfg);
        assert!(
            js.shuffle_summary().max() > 2.0 * jb.shuffle_summary().max(),
            "skewed shuffle {} vs balanced {}",
            js.shuffle_summary().max(),
            jb.shuffle_summary().max()
        );
    }

    #[test]
    fn zero_output_job_skips_shuffle_and_reduce() {
        let parts = vec![1_000_000u64; 4];
        let job = JobProfile::new("scanonly", 1.0, 0.0, 0.0);
        let r = run_analysis(&parts, &job, &AnalysisConfig::default());
        assert!(r.shuffle_secs.iter().all(|&s| s == 0.0));
        assert!(r.reduce_secs.iter().all(|&s| s == 0.0));
        assert!(r.makespan_secs > 0.0);
    }

    #[test]
    fn pipeline_composes_selection_and_job() {
        let dfs = clustered_dfs(4);
        let s = SubDatasetId(0);
        let mut sched = LocalityScheduler::new(&dfs);
        let rep = Exec::default().pipeline(
            &dfs,
            s,
            &mut sched,
            &test_job(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
        );
        assert!(rep.total_secs() > rep.job.makespan_secs);
        assert_eq!(
            rep.selection.per_node_bytes.iter().sum::<u64>(),
            dfs.subdataset_total(s)
        );
    }

    #[test]
    fn deterministic_pipeline() {
        let dfs = clustered_dfs(4);
        let s = SubDatasetId(0);
        let run = || {
            let mut sched = LocalityScheduler::new(&dfs);
            Exec::default().pipeline(
                &dfs,
                s,
                &mut sched,
                &test_job(),
                &SelectionConfig::default(),
                &AnalysisConfig::default(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn capability_aware_partitions_beat_uniform_on_hetero_cluster() {
        // 4 fast nodes (2x CPU) + 4 slow. Equal partitions leave the slow
        // nodes straggling; capability-proportional partitions equalise
        // completion.
        let fast = NodeSpec {
            cpu_bps: 400_000_000,
            ..NodeSpec::marmot()
        };
        let slow = NodeSpec {
            cpu_bps: 200_000_000,
            ..NodeSpec::marmot()
        };
        let specs: Vec<NodeSpec> = (0..8).map(|i| if i < 4 { fast } else { slow }).collect();
        let total = 8_000_000u64;
        let uniform = vec![total / 8; 8];
        let job = test_job();
        // Proportional to effective map throughput (disk + job CPU).
        let cap_fast = capability_of(&fast, &job);
        let cap_slow = capability_of(&slow, &job);
        let cap_sum = 4.0 * (cap_fast + cap_slow);
        let proportional: Vec<u64> = (0..8)
            .map(|i| {
                let c = if i < 4 { cap_fast } else { cap_slow };
                (total as f64 * c / cap_sum) as u64
            })
            .collect();
        let cfg = AnalysisConfig::default();
        let reducers = AggregationPlan::uniform(8);
        let run = |parts| Exec::default().analysis(parts, &job, &cfg, &reducers, Some(&specs));
        let ju = run(&uniform);
        let jp = run(&proportional);
        assert!(
            jp.makespan_secs < ju.makespan_secs,
            "proportional {} !< uniform {}",
            jp.makespan_secs,
            ju.makespan_secs
        );
        // Uniform partitions: fast maps finish ~2x sooner than slow.
        let u_ratio = ju.map_summary().max() / ju.map_summary().min();
        let p_ratio = jp.map_summary().max() / jp.map_summary().min();
        assert!(u_ratio > 1.2, "got {u_ratio}");
        assert!(p_ratio < u_ratio, "{p_ratio} !< {u_ratio}");
    }

    #[test]
    fn aggregation_plan_reduces_shuffle_bytes() {
        // Concentrated map output: placing reducers on the data-rich nodes
        // with skewed shares must cut network traffic without changing
        // results semantics.
        let mut filtered = vec![50_000u64; 8];
        filtered[2] = 2_000_000;
        filtered[5] = 1_500_000;
        let job = test_job();
        let cfg = AnalysisConfig::default();
        let default_run = run_analysis(&filtered, &job, &cfg);
        let plan = datanet::plan_aggregation(
            &filtered
                .iter()
                .map(|&b| job.map_output_bytes(b))
                .collect::<Vec<_>>(),
            2,
            2.0,
        );
        let planned_run = Exec::default().analysis(&filtered, &job, &cfg, &plan, None);
        assert!(
            planned_run.shuffle_bytes < default_run.shuffle_bytes,
            "planned {} !< default {}",
            planned_run.shuffle_bytes,
            default_run.shuffle_bytes
        );
        assert_eq!(planned_run.shuffle_secs.len(), 2);
        assert_eq!(planned_run.reduce_secs.len(), 2);
    }

    #[test]
    fn default_analysis_matches_uniform_plan() {
        let filtered = vec![100_000u64, 300_000, 50_000, 250_000];
        let job = test_job();
        let cfg = AnalysisConfig::default();
        let a = run_analysis(&filtered, &job, &cfg);
        let plan = datanet::AggregationPlan {
            reducers: (0..4).map(datanet_dfs::NodeId).collect(),
            shares: vec![0.25; 4],
            est_traffic: 0,
        };
        let b = Exec::default().analysis(&filtered, &job, &cfg, &plan, None);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn aggregation_reducer_outside_cluster_panics() {
        let plan = datanet::AggregationPlan {
            reducers: vec![datanet_dfs::NodeId(9)],
            shares: vec![1.0],
            est_traffic: 0,
        };
        Exec::default().analysis(
            &[1_000, 1_000],
            &test_job(),
            &AnalysisConfig::default(),
            &plan,
            None,
        );
    }

    #[test]
    #[should_panic]
    fn truth_length_mismatch_panics() {
        let dfs = clustered_dfs(4);
        let mut sched = LocalityScheduler::new(&dfs);
        run_selection(&dfs, &[1, 2, 3], &mut sched, &SelectionConfig::default());
    }

    /// `faults: None` ≡ `Some(FaultPlan::none)`: same outcome, and the same
    /// recorded trace once the fault-only counters (present, all zero,
    /// under a plan; absent without one) are set aside.
    #[test]
    fn fault_free_plan_matches_healthy_engine() {
        let dfs = clustered_dfs(8);
        let truth = dfs.subdataset_distribution(SubDatasetId(0));
        let cfg = SelectionConfig::default();
        let empty = FaultConfig::new(datanet_cluster::FaultPlan::none(8));
        let run = |faults: Option<&FaultConfig>| {
            let rec = Recorder::new();
            let mut sched = LocalityScheduler::new(&dfs);
            let out = Exec::default()
                .rec(&rec)
                .faults(faults)
                .selection(&dfs, &truth, &mut sched, &cfg);
            (out, rec.take())
        };
        let (healthy, healthy_trace) = run(None);
        let (faulty, mut faulty_trace) = run(Some(&empty));
        assert_eq!(healthy, faulty, "empty fault plan must not perturb a run");
        for fault_only in [
            "crashes",
            "requeued_tasks",
            "reexecuted_tasks",
            "wasted_bytes_read",
            "unrecoverable_blocks",
            "abandoned_blocks",
        ] {
            assert!(!healthy_trace.counters.contains_key(fault_only));
            assert_eq!(faulty_trace.counters.remove(fault_only), Some(0));
        }
        assert_eq!(healthy_trace, faulty_trace);
    }

    #[test]
    fn crash_mid_selection_credits_bytes_exactly_once() {
        let dfs = clustered_dfs(8);
        let s = SubDatasetId(0);
        let truth = dfs.subdataset_distribution(s);
        let cfg = SelectionConfig::default();
        let mut probe = LocalityScheduler::new(&dfs);
        let healthy = run_selection(&dfs, &truth, &mut probe, &cfg);
        let crash_at = SimTime::from_micros(healthy.end.as_micros() / 2);

        let plan = datanet_cluster::FaultPlan::none(8).crash(3, crash_at);
        let mut sched = LocalityScheduler::new(&dfs);
        let out = Exec::default()
            .faults(&FaultConfig::new(plan))
            .selection(&dfs, &truth, &mut sched, &cfg);
        assert_eq!(out.faults.crashed_nodes, vec![3]);
        assert_eq!(out.per_node_bytes[3], 0, "the dead node keeps nothing");
        assert_eq!(out.tasks_per_node[3], 0);
        assert_eq!(
            out.per_node_bytes.iter().sum::<u64>(),
            dfs.subdataset_total(s),
            "every sub-dataset byte is credited exactly once despite the crash"
        );
        assert!(out.faults.requeued_tasks > 0, "mid-phase crash loses work");
        assert_eq!(out.faults.reexecuted_tasks, out.faults.requeued_tasks);
        assert!(out.faults.wasted_bytes_read > 0);
        assert!(
            out.faults.unrecoverable_blocks.is_empty(),
            "3-way replication"
        );
        assert!(out.faults.recovery_secs > 0.0);
        assert!(out.end > healthy.end, "recovery costs time");
    }

    #[test]
    fn faulty_run_is_deterministic_for_fixed_seed() {
        let dfs = clustered_dfs(8);
        let truth = dfs.subdataset_distribution(SubDatasetId(0));
        let cfg = SelectionConfig::default();
        let run = || {
            let plan = datanet_cluster::FaultPlan::random(8, 0xF417, 0.3, SimTime::from_secs(2));
            let mut sched = LocalityScheduler::new(&dfs);
            Exec::default()
                .faults(&FaultConfig::new(plan))
                .selection(&dfs, &truth, &mut sched, &cfg)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn datanet_scheduler_survives_crashes_too() {
        let dfs = clustered_dfs(8);
        let s = SubDatasetId(0);
        let truth = dfs.subdataset_distribution(s);
        let view = ElasticMapArray::build(&dfs, &Separation::All).view(s);
        let cfg = SelectionConfig::default();
        let mut probe = DataNetScheduler::new(&dfs, &view);
        let healthy = run_selection(&dfs, &truth, &mut probe, &cfg);
        let crash_at = SimTime::from_micros(healthy.end.as_micros() / 2);
        let plan = datanet_cluster::FaultPlan::none(8).crash(5, crash_at);
        let mut sched = DataNetScheduler::new(&dfs, &view);
        let out = Exec::default()
            .faults(&FaultConfig::new(plan))
            .selection(&dfs, &truth, &mut sched, &cfg);
        assert_eq!(
            out.per_node_bytes.iter().sum::<u64>(),
            dfs.subdataset_total(s),
            "DataNet re-plan recovers all bytes"
        );
        assert_eq!(out.per_node_bytes[5], 0);
    }

    #[test]
    fn slow_window_stretches_the_phase() {
        let dfs = clustered_dfs(8);
        let truth = dfs.subdataset_distribution(SubDatasetId(0));
        let cfg = SelectionConfig::default();
        let mut a = LocalityScheduler::new(&dfs);
        let base = Exec::default()
            .faults(&FaultConfig::new(datanet_cluster::FaultPlan::none(8)))
            .selection(&dfs, &truth, &mut a, &cfg);
        let plan = datanet_cluster::FaultPlan::none(8).slow(
            0,
            SimTime::ZERO,
            SimTime::from_secs(3600),
            4.0,
        );
        let mut b = LocalityScheduler::new(&dfs);
        let slowed = Exec::default()
            .faults(&FaultConfig::new(plan))
            .selection(&dfs, &truth, &mut b, &cfg);
        assert!(
            slowed.end > base.end,
            "a 4x-slowed node must lengthen the phase: {:?} !> {:?}",
            slowed.end,
            base.end
        );
        assert_eq!(
            slowed.per_node_bytes.iter().sum::<u64>(),
            base.per_node_bytes.iter().sum::<u64>(),
            "slowness never loses data"
        );
    }

    #[test]
    fn unreplicated_blocks_die_with_their_node() {
        // Replication 1: node 1's blocks exist nowhere else, so killing it
        // makes them unrecoverable — reported, not silently dropped.
        let recs = (0..400u64).map(|i| Record::new(SubDatasetId(i % 3), i, 100, i));
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 2_000,
                replication: 1,
                topology: Topology::single_rack(2),
                seed: 9,
            },
            recs,
        );
        let s = SubDatasetId(0);
        let truth = dfs.subdataset_distribution(s);
        let cfg = SelectionConfig::default();
        let plan = datanet_cluster::FaultPlan::none(2).crash(1, SimTime::from_millis(20));
        let mut sched = LocalityScheduler::new(&dfs);
        let out = Exec::default()
            .faults(&FaultConfig::new(plan))
            .selection(&dfs, &truth, &mut sched, &cfg);
        assert!(
            !out.faults.unrecoverable_blocks.is_empty(),
            "unreplicated blocks on the dead node must be reported lost"
        );
        let lost_bytes: u64 = out
            .faults
            .unrecoverable_blocks
            .iter()
            .map(|&b| truth[b.index()])
            .sum();
        assert_eq!(
            out.per_node_bytes.iter().sum::<u64>() + lost_bytes,
            dfs.subdataset_total(s),
            "credited + reported-lost covers the whole sub-dataset"
        );
    }

    #[test]
    fn retry_budget_zero_abandons_lost_work() {
        let dfs = clustered_dfs(8);
        let s = SubDatasetId(0);
        let truth = dfs.subdataset_distribution(s);
        let cfg = SelectionConfig::default();
        let mut probe = LocalityScheduler::new(&dfs);
        let healthy = run_selection(&dfs, &truth, &mut probe, &cfg);
        let crash_at = SimTime::from_micros(healthy.end.as_micros() / 2);
        let plan = datanet_cluster::FaultPlan::none(8).crash(2, crash_at);
        let mut sched = LocalityScheduler::new(&dfs);
        let faults = FaultConfig {
            max_retries: 0,
            ..FaultConfig::new(plan)
        };
        let out = Exec::default()
            .faults(&faults)
            .selection(&dfs, &truth, &mut sched, &cfg);
        assert!(
            !out.faults.abandoned_blocks.is_empty(),
            "with no retry budget, executed-then-lost blocks are abandoned"
        );
        assert_eq!(out.faults.requeued_tasks, 0);
        assert!(
            out.per_node_bytes.iter().sum::<u64>() < dfs.subdataset_total(s),
            "abandoned work leaves a gap, and the stats say exactly where"
        );
    }

    #[test]
    fn faulty_pipeline_places_reducers_on_survivors() {
        let dfs = clustered_dfs(8);
        let s = SubDatasetId(0);
        let truth = dfs.subdataset_distribution(s);
        let cfg = SelectionConfig::default();
        let mut probe = LocalityScheduler::new(&dfs);
        let healthy = run_selection(&dfs, &truth, &mut probe, &cfg);
        let crash_at = SimTime::from_micros(healthy.end.as_micros() / 2);
        let plan = datanet_cluster::FaultPlan::none(8).crash(6, crash_at);
        let mut sched = LocalityScheduler::new(&dfs);
        let rep = Exec::default().faults(&FaultConfig::new(plan)).pipeline(
            &dfs,
            s,
            &mut sched,
            &test_job(),
            &cfg,
            &AnalysisConfig::default(),
        );
        assert!(rep.faults().any());
        assert_eq!(
            rep.job.shuffle_secs.len(),
            7,
            "one reducer per surviving node"
        );
        assert_eq!(
            rep.selection.per_node_bytes.iter().sum::<u64>(),
            dfs.subdataset_total(s)
        );
    }
}
