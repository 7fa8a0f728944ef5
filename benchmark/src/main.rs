//! One repeatable end-to-end benchmark of the DataNet reproduction.
//!
//! `--workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--out <dir>]`
//! runs one workload and prints every metric by name with its unit, then one
//! JSON line. The exit code is non-zero when a correctness check failed.
//! See `benchmark/README.md`.

mod data;
mod harness;
mod metrics;
mod quality;
mod stats;
mod trace;
mod workloads;

use harness::{Ctx, Outcome, Workload};
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{ingest_stream, pipeline_shuffle, query_cold, query_hot, serve_mixed};

/// `run_seconds` of `BENCHMARK.json`: the measured phase every workload's
/// N, R and sizes were calibrated to. `--seconds` scales R against it.
const RUN_SECONDS: f64 = 20.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// Removes the run's temp dirs when the run ends, also on a panic.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload<W: Workload>(
    make: impl FnOnce(u64, &mut Tracer, &mut Values) -> W,
    args: &Args,
    ctx: &Ctx,
) -> (&'static str, Outcome) {
    let mut values = Values::default();
    let mut tr = Tracer::new(ctx.trace, 1 << 16);
    let w = make(args.seed, &mut tr, &mut values);
    (W::NAME, harness::run(&w, ctx, values, tr))
}

fn json_metrics(defs: &[MetricDef], v: &Values) -> String {
    let mut s = String::from("{");
    for (i, m) in defs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            v.get(m.name),
            m.unit
        );
    }
    s.push('}');
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("datanet-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = Scratch(args.out.join(format!("tmp-{}", std::process::id())));
    let ctx = Ctx {
        trace: args.trace,
        replay_scale: args.seconds / RUN_SECONDS,
        scratch: scratch.0.clone(),
    };
    let (name, out) = match args.workload.as_str() {
        "ingest_stream" => run_workload(ingest_stream::IngestStream::new, &args, &ctx),
        "query_cold" => run_workload(query_cold::QueryCold::new, &args, &ctx),
        "query_hot" => run_workload(query_hot::QueryHot::new, &args, &ctx),
        "pipeline_shuffle" => run_workload(pipeline_shuffle::PipelineShuffle::new, &args, &ctx),
        "serve_mixed" => run_workload(serve_mixed::ServeMixed::new, &args, &ctx),
        other => {
            eprintln!(
                "datanet-benchmark: --workload `{other}` is not one of ingest_stream, \
                 query_cold, query_hot, pipeline_shuffle, serve_mixed"
            );
            return ExitCode::from(2);
        }
    };
    drop(scratch);

    if let Some(jsonl) = &out.spans_jsonl {
        let path = args.out.join(format!("trace-{name}-{}.jsonl", args.seed));
        match std::fs::write(&path, jsonl) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => eprintln!("datanet-benchmark: cannot write {}: {e}", path.display()),
        }
    }

    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {name} seed {} ops {} replays {} samples_per_op {} pass_s {:.4}",
        args.seed, out.ops, out.replays, out.replays, out.pass_secs
    );
    println!("work_digest {:016x}", out.work_digest);
    println!(
        "setup_samples_s {}",
        out.setup_samples
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "replay_pass_s {}",
        out.replay_secs
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "calib_ms before {:.2} after {:.2}",
        out.calib_ms.0, out.calib_ms.1
    );
    for m in defs {
        let better = if m.higher { "higher" } else { "lower" };
        let bound = if args.trace {
            String::new()
        } else {
            format!(", bound {}%", m.bound * 100.0)
        };
        println!(
            "{:<34} {:>16.6} {:<8} ({better} is better{bound})",
            m.name,
            out.values.get(m.name),
            m.unit
        );
    }
    if out.values.get("harness.tail_ratio") > 4.0 {
        println!("warning: p90 / p50 > 4 — the op list mixes op kinds and should be re-drawn");
    }
    let mut correct = out.failed == 0;
    for c in &out.checks {
        println!("check {}: {}", if c.ok { "ok" } else { "FAILED" }, c.name);
        correct &= c.ok;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(defs, &out.values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
