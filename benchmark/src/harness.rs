//! The replay loop and its estimator.
//!
//! Closed loop, one client thread, one process: the product is
//! single-threaded today (the vendored `rayon` is sequential and
//! `datanet-serve`'s workers are simulated). A workload expands `--seed`
//! into a fixed op list; the harness replays the whole list R times, each
//! replay from a fresh set-up, and estimates each op's latency as its
//! minimum over the replays (see [`crate::stats::min_per_op`]). R is a
//! constant of the workload, never a time box: a varying repetition count
//! is itself a noise source.

use crate::metrics::Values;
use crate::stats::{self, SplitMix64};
use crate::trace::{self, Layer, Phase, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Replays of a traced run: three bare and three traced, interleaved so
/// both see the same host phases; their throughput ratio is the tracing
/// overhead.
pub const TRACED_REPLAYS: usize = 3;

pub struct OpOutcome {
    /// The product returned `Ok` and the op's inline check passed.
    pub ok: bool,
    /// Digest of the op's deterministic work counts. It must not change
    /// between replays, otherwise the minimum compares different work.
    pub work: u64,
}

/// Fold one count into a work digest.
pub fn fold(acc: u64, x: u64) -> u64 {
    SplitMix64(acc ^ x).next_u64()
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
}

pub trait Workload {
    /// What one set-up produces and the ops of one replay run against.
    type Base;

    const NAME: &'static str;
    /// N: ops in the list.
    const OPS: usize;
    /// R: replays of an untraced run.
    const REPLAYS: usize;

    /// Build a fresh initial state under `dir`. Every product call goes
    /// through `tr.call`, which is what `setup_s` sums; generating inputs
    /// and copying them is not set-up.
    fn setup(&self, dir: &Path, tr: &mut Tracer) -> Self::Base;
    /// One op. Its latency is the wall time of this call minus what it
    /// spent inside `tr.untimed`.
    fn op(&self, base: &mut Self::Base, i: usize, tr: &mut Tracer) -> OpOutcome;
    /// After the last replay, on its state: the workload's correctness
    /// checks, the probes of calls its ops hide, the deterministic metrics.
    fn finish(&self, base: Self::Base, dir: &Path, tr: &mut Tracer, v: &mut Values) -> Vec<Check>;
}

pub struct Ctx {
    pub trace: bool,
    /// Scales R: `--seconds` over the declared `run_seconds`.
    pub replay_scale: f64,
    /// Where temp dirs live; removed when the run ends.
    pub scratch: PathBuf,
}

pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Digest over every op's work digest.
    pub work_digest: u64,
    pub ops: usize,
    pub replays: usize,
    /// Untraced Σ per-op minimum, seconds.
    pub pass_secs: f64,
    pub setup_samples: Vec<f64>,
    /// Wall time of each untraced replay's ops, seconds.
    pub replay_secs: Vec<f64>,
    pub calib_ms: (f64, f64),
    pub spans_jsonl: Option<String>,
}

/// A fixed SplitMix64 loop, timed. Run before and after the measured phase
/// so a slow phase of the host is visible next to the results.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut g = SplitMix64(0xCA11_B8A7E);
    let mut acc = 0u64;
    for _ in 0..20_000_000u32 {
        acc ^= g.next_u64();
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// CPU time this thread has been scheduled for, from
/// `/proc/self/schedstat` (ns); 0 where procfs lacks it.
fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run<W: Workload>(w: &W, ctx: &Ctx, mut values: Values, mut tr: Tracer) -> Outcome {
    let n = W::OPS;
    // false = bare replay, true = traced replay.
    let plan: Vec<bool> = if ctx.trace {
        (0..2 * TRACED_REPLAYS).map(|r| r % 2 == 1).collect()
    } else {
        let r = (W::REPLAYS as f64 * ctx.replay_scale).round() as usize;
        vec![false; r.max(3)]
    };

    let calib_before = calibrate();
    let mut samples: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    let mut setup_samples = Vec::new();
    let mut work: Vec<u64> = Vec::new();
    let (mut attempted, mut failed, mut cpu) = (0u64, 0u64, 0u64);
    let mut base: Option<W::Base> = None;
    let replay_dir = |r: usize| ctx.scratch.join(format!("replay-{r}"));

    for (r, &traced) in plan.iter().enumerate() {
        // The previous replay's state goes first, so peak memory holds one
        // world, not two. Its files stay until the run ends: every replay
        // gets an empty directory of its own, and nothing is deleted or
        // truncated while the run measures (a freed block costs a journal
        // entry and a discard, which land on whatever runs next).
        drop(base.take());
        let dir = replay_dir(r);
        std::fs::create_dir_all(&dir).expect("create a temp dir under --out");
        tr.set_on(ctx.trace);
        tr.set_context(Phase::Setup, r as u32, None);
        tr.start_clock();
        let mut b = w.setup(&dir, &mut tr);
        setup_samples.push(tr.stop_clock());
        tr.take_untimed_ns();

        tr.set_on(traced);
        let mut lat = Vec::with_capacity(n);
        let cpu0 = cpu_ns();
        for i in 0..n {
            tr.set_context(Phase::Op, r as u32, Some(i as u32));
            let t = Instant::now();
            let span = tr.open(Layer::Harness, "op");
            let out = w.op(&mut b, i, &mut tr);
            tr.close(span);
            let wall = t.elapsed().as_nanos() as u64;
            lat.push(wall.saturating_sub(tr.take_untimed_ns()) as f64 / 1e9);
            attempted += 1;
            if r == 0 {
                work.push(out.work);
            }
            if !out.ok || work[i] != out.work {
                failed += 1;
            }
        }
        if !traced {
            cpu += cpu_ns() - cpu0;
        }
        samples[traced as usize].push(lat);
        base = Some(b);
    }
    let calib_after = calibrate();

    let bare = &samples[0];
    let per_op = stats::min_per_op(bare);
    let sum = stats::summarize(&per_op);
    values.set(
        "setup_s",
        setup_samples.iter().copied().fold(f64::INFINITY, f64::min),
    );
    values.set("throughput_ops_s", n as f64 / sum.total);
    values.set("latency_p50_ms", sum.p50 * 1e3);
    values.set("latency_p90_ms", sum.p90 * 1e3);
    values.set("ok_ops_frac", 1.0 - failed as f64 / attempted as f64);
    values.set("harness.tail_ratio", sum.p90 / sum.p50);
    values.set("harness.rep_spread_frac", stats::rep_spread(bare, 2));
    values.set(
        "harness.cpu_ms_per_op",
        cpu as f64 / 1e6 / (bare.len() * n) as f64,
    );
    values.set("harness.calib_ms", (calib_before + calib_after) / 2.0);
    if ctx.trace {
        let traced = stats::summarize(&stats::min_per_op(&samples[1]));
        values.set(
            "harness.trace_overhead_frac",
            1.0 - sum.total / traced.total,
        );
    }

    tr.set_on(ctx.trace);
    tr.set_context(Phase::Probe, plan.len() as u32, None);
    let checks = w.finish(
        base.take().expect("at least one replay"),
        &replay_dir(plan.len() - 1),
        &mut tr,
        &mut values,
    );
    values.set("peak_rss_mb", peak_rss_mb());

    let mut spans_jsonl = None;
    if ctx.trace {
        let a = trace::attribute(tr.spans());
        for (layer, frac) in &a.layer_frac {
            values.set(self_frac_name(*layer), *frac);
        }
        values.set("unattributed_frac", a.unattributed_frac);
        values.set("harness.spans_recorded", tr.spans().len() as f64);
        values.set_from_spans(&tr.by_name());
        spans_jsonl = Some(tr.to_jsonl());
    }

    Outcome {
        values,
        attempted,
        failed,
        checks,
        work_digest: work.iter().fold(0, |acc, &x| fold(acc, x)),
        ops: n,
        replays: bare.len(),
        pass_secs: sum.total,
        setup_samples,
        replay_secs: bare.iter().map(|lat| lat.iter().sum()).collect(),
        calib_ms: (calib_before, calib_after),
        spans_jsonl,
    }
}

fn self_frac_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Workloads => "self_frac.workloads",
        Layer::Dfs => "self_frac.dfs",
        Layer::Scan => "self_frac.scan",
        Layer::Ingest => "self_frac.ingest",
        Layer::Store => "self_frac.store",
        Layer::Planner => "self_frac.planner",
        Layer::Engine => "self_frac.engine",
        Layer::Shuffle => "self_frac.shuffle",
        Layer::Analytics => "self_frac.analytics",
        Layer::Checkpoint => "self_frac.checkpoint",
        Layer::Serve => "self_frac.serve",
        Layer::Harness => "unattributed_frac",
    }
}
