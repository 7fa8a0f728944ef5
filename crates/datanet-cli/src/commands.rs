//! CLI command implementations. Each command takes parsed [`Args`] and
//! writes human-readable output to the given writer (injected for testing).

use crate::args::{ArgError, Args};
use crate::dataset::DatasetFile;
use datanet::{
    Algorithm1, ElasticMapArray, FordFulkersonPlanner, IngestConfig, Ingestor, MetaStore,
    Separation, StoreError,
};
use datanet_analytics::profiles::{
    histogram_profile, moving_average_profile, top_k_profile, word_count_profile,
};
use datanet_analytics::{
    histogram_pipeline, join_word_count_pipeline, moving_average_pipeline, top_k_pipeline,
    word_count_pipeline, Pipeline, PipelineEnv, ShuffleParams,
};
use datanet_bench::{Table, SECTIONS};
use datanet_dfs::{DfsConfig, NodeId, SubDatasetId, Topology};
use datanet_mapreduce::{
    range_matrix_estimate, range_matrix_truth, run_analysis_shuffled, AnalysisConfig,
    DataNetScheduler, Exec, JobProfile, LocalityScheduler, SelectionConfig, ShufflePlan,
    ShufflePlanner,
};
use datanet_obs::Recorder;
use datanet_workloads::{GithubConfig, MoviesConfig, WorldCupConfig};
use serde::Value;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Top-level error: argument problems, I/O, or failed invariant checks.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage.
    Args(ArgError),
    /// Filesystem/serialisation problems.
    Io(std::io::Error),
    /// Metadata-store problems (corruption, version, exhausted replicas).
    Store(StoreError),
    /// `datanet check` found invariant violations (details already
    /// printed; this carries the one-line verdict for the exit path).
    Check(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "usage error: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Store(e) => write!(f, "metadata error: {e}"),
            CliError::Check(e) => write!(f, "check failed: {e}"),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        CliError::Store(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
datanet — sub-dataset distribution-aware analysis (DataNet, IPDPS'16)

USAGE:
  datanet gen <movies|github|worldcup> --out FILE
              [--records N] [--nodes N] [--block-kb N] [--seed N]
  datanet scan --dataset FILE --meta DIR[,DIR...] [--alpha F] [--shard-blocks N]
              [--trace OUT.json]
  datanet ingest --dataset FILE --meta DIR[,DIR...] [--alpha F] [--shard-blocks N]
              [--compact-every N] [--commit-every N] [--resume] [--trace OUT.json]
  datanet query --dataset FILE --meta DIR[,DIR...] --subdataset ID [--epoch N]
              [--trace OUT.json]
  datanet plan --dataset FILE --meta DIR[,DIR...] --subdataset ID [--planner alg1|maxflow]
              [--trace OUT.json]
  datanet scrub --meta DIR[,DIR...]
  datanet simulate --dataset FILE --subdataset ID
              [--job movingaverage|wordcount|histogram|topk] [--alpha F]
              [--shuffle off|aware|hash] [--key-ranges N] [--split-factor F]
              [--trace OUT.json]
  datanet pipeline --dataset FILE --subdataset ID --ckpt DIR[,DIR...]
              [--job wordcount|movingaverage|histogram|topk|join] [--with ID]
              [--window-secs N] [--alpha F] [--resume] [--json OUT.json]
              [--shuffle off|aware|hash] [--key-ranges N] [--split-factor F]
              [--trace OUT.json]
  datanet serve [--dataset FILE] [--tenants N] [--queries N] [--qps N | --gap-us N]
              [--mix uniform|skewed|adversarial] [--workers N] [--queue-cap N]
              [--quantum-kb N] [--max-wait-rounds N] [--no-cache]
              [--planner alg1|maxflow] [--ingest-at N[,N...]] [--lose-node I@N]
              [--round-us N] [--schedule-seed N] [--ingest-blocks N] [--alpha F]
              [--subdatasets N] [--records N] [--nodes N] [--block-kb N]
              [--seed N] [--json OUT.json] [--trace OUT.json]
  datanet trace TRACE.json
  datanet top SNAPSHOT.json [--flight FLIGHT.json]
  datanet check [--seeds N] [--seed-start N] [--corpus FILE] [--shrink]
              [--repro-dir DIR] [--trace OUT.json]
  datanet check --repro FILE
  datanet repro [fig1] [fig2] [table1] [fig5] [fig6] [fig7] [fig8] [table2] [fig9]
              [fig10] [migration] [ablation] [aggregation] [hetero] [speculation]
              [amortization] [io_savings] [faults]
  datanet gate [--quick] [--json OUT]
  datanet help

`--trace OUT.json` records the run on the observability plane and writes a
Chrome trace_event file, loadable at https://ui.perfetto.dev. `datanet
trace` prints a terminal summary of such a file.

Every command that takes `--trace` also takes the always-on metrics plane
flags: `--metrics OUT.json` freezes the windowed metrics registry into a
snapshot (`.jsonl` for the line-per-series export), `--openmetrics
OUT.txt` writes the Prometheus/OpenMetrics exposition of the same
snapshot, `--metrics-window-ms N` sets the aggregation window (default
1000), `--flight OUT.json` dumps the bounded flight recorder (last
`--flight-events` significant events, default 256), and `--query-id N`
[`--tenant NAME`] stamps a causal query id on every recorded event.
`datanet top SNAPSHOT.json` renders a terminal dashboard from a metrics
snapshot: per-node utilisation, per-query latency percentiles,
retry/failover pressure, and EWMA anomaly alerts (add `--flight` for the
degradation-rung mix and recent significant events).

`datanet check` runs the deterministic simulation harness: each seed
expands into a full scenario (workload, cluster, faults, metadata
corruption) checked against every invariant oracle. `--corpus FILE` adds
fixed seeds (one per line, `#` comments); `--shrink` minimises failures
and writes self-contained repro files into `--repro-dir` (default `.`);
`--repro FILE` replays such a file.

`datanet repro` prints the paper record: every section (`repro_output.txt`
byte for byte) or the named ones. `datanet gate` fails when every attempt
finds the metrics or trace plane over its per-span cap (DESIGN.md §16);
`--quick` runs fewer paired reps; `--json` writes the report.

`datanet pipeline` runs one of the analysis jobs as a checkpointed
multi-stage pipeline: every completed stage commits a checksummed,
epoch-stamped checkpoint into the `--ckpt` replica directories under the
crash-safe write order. After a crash, re-run with `--resume` to restore
the last durable stage and execute only the remainder (`--job join`
semi-joins `--subdataset` against `--with` before counting words).

`--shuffle aware` routes aggregate stages through the distribution-aware
reduce-side partitioner: the intermediate key space is hashed into
`--key-ranges` ranges, Equation 6 prices each range from the ElasticMap,
and reducers are placed heaviest-range-first on the nodes already holding
the bytes, splitting any range heavier than `--split-factor` fair shares
across reducers (merged back deterministically, so answers never change).
`--shuffle hash` selects the classic skew- and locality-blind
`hash(key) % reducers` baseline. Both print an aware-vs-hash comparison:
network bytes, locality fraction, reduce imbalance and makespan.

`datanet serve` runs the multi-tenant serving plane over a seeded query
stream on the simulated clock: a bounded admission queue with typed
rejections and load shedding, per-tenant fair-share quotas (deficit round
robin over Equation 6 byte estimates, `--quantum-kb` per round), and a
plan cache with one entry per sub-dataset and data epoch, each plan
reused only at the cluster epoch it was served at, so it invalidates
itself on ingest commits (`--ingest-at`, `--ingest-blocks` blocks each)
and node loss (`--lose-node I@N` fails node I, one of the world's nodes,
before query N). The canonical answers section is independent of
`--workers` by construction — only the printed latency/throughput
section moves. `--json` writes the full report.

`datanet ingest` streams the dataset's blocks through the incremental
ingestor instead of a batch scan: per-block summaries at write time,
compaction every `--compact-every` arrivals, a durable epoch committed
every `--commit-every` blocks. `--resume` reopens an existing store and
continues from its last durable epoch (policy and shard size come from
the manifest). `datanet query --epoch N` answers from the frozen
epoch-N snapshot instead of the live manifest.
";

/// The observability flags every recording command shares (read by
/// [`recorder`]); each takes a value.
const OBS_FLAGS: &str =
    "trace metrics openmetrics metrics-window-ms flight flight-events query-id tenant";

type Handler = fn(&Args, &mut dyn Write) -> Result<(), CliError>;

/// What one command accepts: `(name, handler, positional arguments after
/// the name, flags that take a value, flags that stand alone, whether it
/// also takes OBS_FLAGS)`, flag names space-separated without dashes.
type Command = (
    &'static str,
    Handler,
    usize,
    &'static str,
    &'static str,
    bool,
);

/// Every command, in [`USAGE`] order. [`dispatch`] holds the command line
/// to the command's row before its handler runs, so a flag the handler
/// would never read is a usage error, not a silently applied default.
const COMMANDS: &[Command] = &[
    (
        "gen",
        cmd_gen,
        1,
        "out records nodes block-kb seed",
        "",
        false,
    ),
    (
        "scan",
        cmd_scan,
        0,
        "dataset meta alpha shard-blocks",
        "",
        true,
    ),
    (
        "ingest",
        cmd_ingest,
        0,
        "dataset meta alpha shard-blocks compact-every commit-every",
        "resume",
        true,
    ),
    (
        "query",
        cmd_query,
        0,
        "dataset meta subdataset epoch",
        "",
        true,
    ),
    (
        "plan",
        cmd_plan,
        0,
        "dataset meta subdataset planner",
        "",
        true,
    ),
    ("scrub", cmd_scrub, 0, "meta", "", false),
    (
        "simulate",
        cmd_simulate,
        0,
        "dataset subdataset job alpha shuffle key-ranges split-factor",
        "",
        true,
    ),
    (
        "pipeline",
        cmd_pipeline,
        0,
        "dataset subdataset ckpt job with window-secs alpha json shuffle key-ranges split-factor",
        "resume",
        true,
    ),
    (
        "serve",
        cmd_serve,
        0,
        "dataset tenants queries qps gap-us mix workers queue-cap quantum-kb max-wait-rounds \
         planner ingest-at lose-node round-us schedule-seed ingest-blocks alpha subdatasets \
         records nodes block-kb seed json",
        "no-cache",
        true,
    ),
    ("trace", cmd_trace, 1, "", "", false),
    ("top", cmd_top, 1, "flight", "", false),
    (
        "check",
        cmd_check,
        0,
        "seeds seed-start corpus repro-dir repro",
        "shrink",
        true,
    ),
    ("repro", cmd_repro, SECTIONS.len(), "", "", false),
    ("gate", cmd_gate, 0, "json", "quick", false),
    ("help", cmd_help, 0, "", "", false),
];

/// Dispatch a command line (tokens exclude the program name; the command
/// comes first, none means `help`).
///
/// # Errors
/// Usage or I/O failures; the caller prints them and exits non-zero.
pub fn dispatch(tokens: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let name = tokens.first().map_or("help", String::as_str).to_string();
    let &(_, run, positionals, values, switches, obs) = (COMMANDS.iter())
        .find(|row| row.0 == name)
        .ok_or_else(|| ArgError(format!("unknown command `{name}`; try `datanet help`")))?;
    let values = format!("{values} {}", if obs { OBS_FLAGS } else { "" });
    let args = Args::parse(tokens, &values, switches)?;
    if args.positional_len() > 1 + positionals {
        return Err(ArgError(format!(
            "`datanet {name}` takes {positionals} positional argument(s), got {}",
            args.positional_len() - 1
        ))
        .into());
    }
    run(&args, out)
}

/// What the binary prints to stderr for `e` before it exits with status 2.
/// Usage only helps with usage mistakes; invariant violations from
/// `datanet check` would scroll their repro pointers off the screen.
pub fn error_text(e: &CliError) -> String {
    match e {
        CliError::Args(_) => format!("datanet: {e}\n{USAGE}"),
        _ => format!("datanet: {e}\n"),
    }
}

fn cmd_help(_args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    write!(out, "{USAGE}")?;
    Ok(())
}

/// A numeric flag that must be at least 1; `default` when absent.
fn positive<T>(args: &Args, key: &str, default: T) -> Result<T, CliError>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
    T::Err: std::fmt::Display,
{
    let value = args.get_or(key, default)?;
    if value < T::from(1) {
        return Err(ArgError(format!("--{key} must be positive")).into());
    }
    Ok(value)
}

/// `--alpha`, the fraction of a block's sub-datasets kept exact: a number
/// in [0, 1], 0.3 when absent.
fn alpha(args: &Args) -> Result<f64, CliError> {
    let alpha: f64 = args.get_or("alpha", 0.3)?;
    if !(0.0..=1.0).contains(&alpha) {
        return Err(ArgError(format!("--alpha must be in [0, 1], got {alpha}")).into());
    }
    Ok(alpha)
}

/// The DFS layout flags `gen` and `serve` share: `--nodes` and
/// `--block-kb`, each positive, over the command's defaults, and `--seed`.
fn dfs_config(
    args: &Args,
    nodes: u32,
    block_kb: u64,
    replication: usize,
) -> Result<DfsConfig, CliError> {
    Ok(DfsConfig {
        block_size: positive(args, "block-kb", block_kb)? * 1024,
        replication,
        topology: Topology::single_rack(positive(args, "nodes", nodes)?),
        seed: args.get_or("seed", 0xDA7A)?,
    })
}

fn cmd_gen(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let kind = args.require_positional(1, "generator")?;
    let records: usize = positive(args, "records", 100_000)?;
    let config = dfs_config(args, 16, 256, 3)?;
    let seed = config.seed;
    let records = match kind {
        "movies" => {
            MoviesConfig {
                records,
                seed,
                ..Default::default()
            }
            .generate()
            .0
        }
        "github" => GithubConfig {
            records,
            seed,
            ..Default::default()
        }
        .generate(),
        "worldcup" => WorldCupConfig {
            records,
            seed,
            ..Default::default()
        }
        .generate(),
        other => return Err(ArgError(format!("unknown generator `{other}`")).into()),
    };
    let ds = DatasetFile {
        generator: kind.to_string(),
        config,
        records,
    };
    let path = args.require("out")?;
    ds.save(Path::new(path))?;
    let dfs = ds.to_dfs();
    writeln!(
        out,
        "wrote {} records ({} blocks, {} nodes) to {path}",
        ds.records.len(),
        dfs.block_count(),
        ds.config.topology.len()
    )?;
    Ok(())
}

/// A replica-list flag (`--meta`, `--ckpt`): comma-separated directories,
/// the first the primary, every shard or checkpoint replicated across all
/// of them.
fn replicas<'a>(args: &'a Args, key: &str) -> Result<Vec<&'a Path>, CliError> {
    let dirs: Vec<&Path> = (args.require(key)?.split(','))
        .filter(|s| !s.is_empty())
        .map(Path::new)
        .collect();
    if dirs.is_empty() {
        return Err(ArgError(format!("--{key} needs at least one directory")).into());
    }
    Ok(dirs)
}

/// A sub-dataset id flag (`--subdataset`, `--with`).
fn subdataset(args: &Args, key: &str) -> Result<SubDatasetId, CliError> {
    let id = (args.require(key)?.parse()).map_err(|e| ArgError(format!("--{key}: {e}")))?;
    Ok(SubDatasetId(id))
}

fn open_store(args: &Args, cache_shards: usize) -> Result<MetaStore, CliError> {
    let dirs = replicas(args, "meta")?;
    Ok(MetaStore::open_replicated(&dirs, cache_shards)?)
}

/// Where the observability planes requested on the command line should be
/// written when the command finishes.
struct ObsOutputs {
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    openmetrics: Option<PathBuf>,
    flight: Option<PathBuf>,
}

impl ObsOutputs {
    /// Drain every requested plane of `rec` to its output file.
    fn finish(&self, rec: &Recorder, out: &mut dyn Write) -> Result<(), CliError> {
        if let Some(path) = &self.trace {
            write_trace(rec, path, out)?;
        }
        if self.metrics.is_some() || self.openmetrics.is_some() {
            let snap = rec.metrics_snapshot().expect("metrics plane attached");
            if let Some(path) = &self.metrics {
                // `.jsonl` gets the line-per-series export; anything else
                // the snapshot document `datanet top` reads.
                let body = if path.extension().is_some_and(|e| e == "jsonl") {
                    datanet_obs::to_jsonl(&snap)
                } else {
                    serde_json::to_string_pretty(&snap)
                        .map_err(|e| ArgError(format!("cannot serialise snapshot: {e}")))?
                };
                std::fs::write(path, body)?;
                writeln!(
                    out,
                    "wrote metrics snapshot to {} ({} series) — inspect with `datanet top`",
                    path.display(),
                    snap.counters.len() + snap.hists.len() + snap.gauges.len()
                )?;
            }
            if let Some(path) = &self.openmetrics {
                std::fs::write(path, datanet_obs::to_openmetrics(&snap))?;
                writeln!(out, "wrote OpenMetrics exposition to {}", path.display())?;
            }
        }
        if let Some(path) = &self.flight {
            let dump = rec.flight_dump().expect("flight plane attached");
            let json = serde_json::to_string_pretty(&dump)
                .map_err(|e| ArgError(format!("cannot serialise flight dump: {e}")))?;
            std::fs::write(path, json)?;
            writeln!(
                out,
                "wrote flight dump to {} ({} of {} event(s) kept)",
                path.display(),
                dump.events.len(),
                dump.recorded
            )?;
        }
        Ok(())
    }
}

/// Default flight-ring capacity for `--flight` without `--flight-events`.
const FLIGHT_CAPACITY: usize = 256;

/// Assemble the observability recorder from the shared flags:
/// `--trace OUT.json` (unbounded Chrome trace), `--metrics OUT.json[l]`
/// plus `--openmetrics OUT.txt` (windowed aggregates,
/// `--metrics-window-ms` wide), `--flight OUT.json` (last
/// `--flight-events` significant events), and `--query-id N` /
/// `--tenant NAME` (stamp a causal query scope on every event recorded).
/// With none of them the recorder is off and every instrumented call is a
/// no-op.
fn recorder(args: &Args) -> Result<(Recorder, ObsOutputs), CliError> {
    let outputs = ObsOutputs {
        trace: args.get("trace").map(PathBuf::from),
        metrics: args.get("metrics").map(PathBuf::from),
        openmetrics: args.get("openmetrics").map(PathBuf::from),
        flight: args.get("flight").map(PathBuf::from),
    };
    let mut rec = if outputs.trace.is_some() {
        Recorder::new()
    } else {
        Recorder::off()
    };
    if outputs.metrics.is_some() || outputs.openmetrics.is_some() {
        let window_ms: u64 = positive(args, "metrics-window-ms", 1_000)?;
        rec = rec.with_metrics(window_ms * 1_000);
    }
    if outputs.flight.is_some() {
        rec = rec.with_flight(positive(args, "flight-events", FLIGHT_CAPACITY)?);
    }
    if let Some(q) = args.get("query-id") {
        let id: u64 = q
            .parse()
            .map_err(|e| ArgError(format!("--query-id: {e}")))?;
        let mut ctx = datanet_obs::QueryCtx::new(id);
        if let Some(t) = args.get("tenant") {
            ctx = ctx.tenant(t);
        }
        rec = rec.scoped(ctx);
    } else if let Some(t) = args.get("tenant") {
        return Err(ArgError(format!("--tenant {t} needs --query-id")).into());
    }
    Ok((rec, outputs))
}

/// Drain the recorder into a Chrome `trace_event` file and tell the user
/// where it went.
fn write_trace(rec: &Recorder, path: &Path, out: &mut dyn Write) -> Result<(), CliError> {
    let data = rec.take();
    std::fs::write(path, data.to_chrome_json())?;
    writeln!(
        out,
        "wrote Chrome trace to {} ({} spans, {} instants, {} unclosed) \
         — open it at https://ui.perfetto.dev",
        path.display(),
        data.spans.len(),
        data.instants.len(),
        data.unclosed_spans()
    )?;
    Ok(())
}

fn cmd_scan(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = DatasetFile::load(Path::new(args.require("dataset")?))?;
    let alpha = alpha(args)?;
    let shard_blocks: usize = positive(args, "shard-blocks", 64)?;
    let dfs = ds.to_dfs();
    let (rec, obs) = recorder(args)?;
    let arr = ElasticMapArray::build_traced(&dfs, &Separation::Alpha(alpha), &rec);
    let dirs = replicas(args, "meta")?;
    MetaStore::save_replicated(&arr, &dirs, shard_blocks)?;
    let store = MetaStore::open_replicated(&dirs, 1)?;
    writeln!(
        out,
        "scanned {} blocks at alpha={alpha}: {} bytes of meta-data on disk \
         ({}x smaller than the raw data), {} replica(s), accuracy chi = {:.1}%",
        arr.len(),
        store.disk_bytes()?,
        dfs.total_bytes() / store.disk_bytes()?.max(1),
        dirs.len(),
        arr.accuracy(&dfs) * 100.0
    )?;
    obs.finish(&rec, out)?;
    Ok(())
}

fn cmd_scrub(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut store = open_store(args, 1)?;
    let report = store.scrub();
    writeln!(
        out,
        "scrubbed {} shards: {} shard copies repaired, {} summaries repaired, \
         {} manifests repaired, {} quarantined",
        report.scrubbed,
        report.repaired,
        report.summaries_repaired,
        report.manifests_repaired,
        report.quarantined.len()
    )?;
    for shard in &report.quarantined {
        writeln!(
            out,
            "  shard {shard}: no healthy copy on any replica — quarantined \
             (blocks degrade to {})",
            if report.summaries_lost.contains(shard) {
                "rung 3, summary also lost"
            } else {
                "rung 2 via the bloom summary"
            }
        )?;
    }
    Ok(())
}

/// `datanet ingest` — stream the dataset's blocks through the incremental
/// [`Ingestor`] instead of a batch scan, committing durable epoch-stamped
/// snapshots along the way.
fn cmd_ingest(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = DatasetFile::load(Path::new(args.require("dataset")?))?;
    let alpha = alpha(args)?;
    let shard_blocks: usize = positive(args, "shard-blocks", 64)?;
    let compact_every: usize = positive(args, "compact-every", 64)?;
    let commit_every: usize = positive(args, "commit-every", compact_every)?;
    let dirs = replicas(args, "meta")?;
    let cfg = IngestConfig {
        policy: Separation::Alpha(alpha),
        compact_every,
        shard_blocks,
    };
    let (rec, obs) = recorder(args)?;
    let dfs = ds.to_dfs();
    let mut ing = if args.flag("resume") {
        Ingestor::resume(cfg, &dirs)?
    } else {
        Ingestor::new(cfg)
    };
    ing.set_recorder(rec.clone());
    let start = ing.blocks();
    for (k, b) in dfs.blocks().iter().enumerate().skip(start) {
        ing.append(b, k as u64 * 1_000);
        if (k + 1) % commit_every == 0 {
            ing.commit(&dirs)?;
        }
    }
    let epoch = ing.commit(&dirs)?;
    let st = ing.stats();
    writeln!(
        out,
        "ingested {} blocks ({} records, {} bytes) into {} replica(s){}",
        st.appended_blocks,
        st.appended_records,
        st.appended_bytes,
        dirs.len(),
        if st.resumed_blocks > 0 {
            format!(" after resuming {} durable blocks", st.resumed_blocks)
        } else {
            String::new()
        }
    )?;
    writeln!(
        out,
        "  {} compaction(s), {} re-dominance demotion(s), {} epoch(s) committed \
         — durable epoch {epoch}; time-travel with `datanet query --epoch E`",
        st.compactions, st.redominated, st.epochs_committed
    )?;
    obs.finish(&rec, out)?;
    Ok(())
}

fn cmd_query(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = DatasetFile::load(Path::new(args.require("dataset")?))?;
    let mut store = match args.get("epoch") {
        None => open_store(args, 4)?,
        Some(e) => {
            let epoch: u64 = e.parse().map_err(|e| ArgError(format!("--epoch: {e}")))?;
            MetaStore::open_replicated_at_epoch(&replicas(args, "meta")?, epoch, 4)?
        }
    };
    let (rec, obs) = recorder(args)?;
    store.set_recorder(rec.clone());
    let s = subdataset(args, "subdataset")?;
    let view = store.view(s)?;
    let dfs = ds.to_dfs();
    let label = match args.get("epoch") {
        Some(e) => format!("sub-dataset {s} @ epoch {e}"),
        None => format!("sub-dataset {s}"),
    };
    writeln!(
        out,
        "{label}: {} blocks ({} exact + {} bloom), estimated {} bytes, \
         actual {} bytes, delta = {}",
        view.block_count(),
        view.exact().len(),
        view.bloom().len(),
        view.estimated_total(),
        dfs.subdataset_total(s),
        view.delta()
    )?;
    obs.finish(&rec, out)?;
    Ok(())
}

fn cmd_plan(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = DatasetFile::load(Path::new(args.require("dataset")?))?;
    let mut store = open_store(args, 4)?;
    let (rec, obs) = recorder(args)?;
    store.set_recorder(rec.clone());
    let view = store.view(subdataset(args, "subdataset")?)?;
    let dfs = ds.to_dfs();
    let planner = args.get("planner").unwrap_or("alg1");
    let plan = match planner {
        "alg1" => Algorithm1::new(&dfs, &view).plan_balanced(),
        "maxflow" => FordFulkersonPlanner::new(&dfs, &view).plan(),
        other => return Err(ArgError(format!("unknown planner `{other}`")).into()),
    };
    writeln!(
        out,
        "{planner} plan: {} tasks over {} nodes, imbalance {:.3}, locality {:.0}%",
        plan.assigned_blocks(),
        plan.node_count(),
        plan.imbalance(),
        plan.locality_fraction() * 100.0
    )?;
    for n in 0..plan.node_count() {
        writeln!(
            out,
            "  node {n}: {} blocks, {} bytes",
            plan.tasks_of(datanet_dfs::NodeId(n as u32)).len(),
            plan.workloads()[n]
        )?;
    }
    obs.finish(&rec, out)?;
    Ok(())
}

fn job_by_name(name: &str) -> Result<JobProfile, CliError> {
    Ok(match name {
        "movingaverage" => moving_average_profile(),
        "wordcount" => word_count_profile(),
        "histogram" => histogram_profile(),
        "topk" => top_k_profile(),
        other => return Err(ArgError(format!("unknown job `{other}`")).into()),
    })
}

/// The distribution-aware shuffle flags `simulate` and `pipeline` share:
/// `--shuffle off|aware|hash` picks the reduce-side partitioner (`off`,
/// the default, keeps the legacy unrouted reduce), `--key-ranges N` sets
/// the intermediate key-space granularity and `--split-factor F` the
/// heavy-key split threshold in fair shares.
fn shuffle_args(args: &Args) -> Result<Option<ShuffleParams>, CliError> {
    let key_ranges: usize = args.get_or("key-ranges", 32)?;
    let split_factor: f64 = args.get_or("split-factor", 1.25)?;
    if key_ranges < 2 {
        return Err(ArgError("--key-ranges must be at least 2".into()).into());
    }
    if !split_factor.is_finite() || split_factor < 1.0 {
        return Err(ArgError("--split-factor must be a finite value >= 1".into()).into());
    }
    let aware = match args.get("shuffle").unwrap_or("off") {
        "off" => return Ok(None),
        "aware" => true,
        "hash" => false,
        other => {
            return Err(ArgError(format!(
                "--shuffle must be off, aware or hash, got `{other}`"
            ))
            .into())
        }
    };
    Ok(Some(ShuffleParams {
        key_ranges,
        split_factor,
        aware,
    }))
}

/// The aware-vs-hash shuffle comparison both commands print when a
/// partitioner is selected: the aware plan is built from the ElasticMap
/// *estimate* (what the planner would see in production), then both plans
/// replay against the *true* per-(node, key-range) byte matrix.
fn print_shuffle_comparison(
    out: &mut dyn Write,
    dfs: &datanet_dfs::Dfs,
    view: &datanet::SubDatasetView,
    s: SubDatasetId,
    job: &JobProfile,
    p: &ShuffleParams,
    ana: &AnalysisConfig,
) -> Result<(), CliError> {
    let est = range_matrix_estimate(dfs, view, p.key_ranges);
    let truth = range_matrix_truth(dfs, s, p.key_ranges);
    let m = truth.len();
    let aware = ShufflePlanner::new(p.split_factor).plan(&est);
    let hash = ShufflePlan::hash(p.key_ranges, (0..m as u32).map(NodeId).collect());
    let splits = aware
        .assignments
        .iter()
        .filter(|frags| frags.len() > 1)
        .count();
    let a = run_analysis_shuffled(&truth, job, ana, &aware);
    let h = run_analysis_shuffled(&truth, job, ana, &hash);
    writeln!(
        out,
        "  shuffle [{}]: {} key range(s), split factor {:.2}, {} range(s) split",
        if p.aware { "aware" } else { "hash" },
        p.key_ranges,
        p.split_factor,
        splits
    )?;
    for (name, o) in [("hash ", &h), ("aware", &a)] {
        writeln!(
            out,
            "    {name}: {} byte(s) over the network (locality {:.0}%), \
             reduce imbalance {:.2}, makespan {:.3}s",
            o.network_bytes,
            100.0 * o.locality_fraction(),
            o.reduce_imbalance(),
            o.report.makespan_secs
        )?;
    }
    if a.network_bytes > 0 {
        writeln!(
            out,
            "    network bytes cut {:.2}x vs hash partitioning",
            h.network_bytes as f64 / a.network_bytes as f64
        )?;
    } else {
        writeln!(
            out,
            "    aware plan kept the entire shuffle node-local \
             (hash moved {} byte(s))",
            h.network_bytes
        )?;
    }
    Ok(())
}

fn cmd_simulate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = DatasetFile::load(Path::new(args.require("dataset")?))?;
    let s = subdataset(args, "subdataset")?;
    let job = job_by_name(args.get("job").unwrap_or("wordcount"))?;
    let alpha = alpha(args)?;
    let dfs = ds.to_dfs();
    let sel = SelectionConfig::default();
    let ana = AnalysisConfig::default();

    // Only the DataNet side of the comparison is traced: it is the run the
    // user wants a timeline of, and the baseline stays untouched.
    let (rec, obs) = recorder(args)?;
    let mut base = LocalityScheduler::new(&dfs);
    let without = Exec::default().pipeline(&dfs, s, &mut base, &job, &sel, &ana);
    let view = ElasticMapArray::build_traced(&dfs, &Separation::Alpha(alpha), &rec).view(s);
    let mut dn = DataNetScheduler::new(&dfs, &view);
    let mut with = Exec::default()
        .rec(&rec)
        .pipeline(&dfs, s, &mut dn, &job, &sel, &ana);
    if rec.is_enabled() {
        with.obs = Some(rec.snapshot().summary(None));
    }

    writeln!(out, "{} over sub-dataset {s}:", job.name)?;
    writeln!(
        out,
        "  without DataNet: selection {:.3}s + job {:.3}s = {:.3}s (imbalance {:.2})",
        without.selection.end.as_secs_f64(),
        without.job.makespan_secs,
        without.total_secs(),
        without.selection.imbalance()
    )?;
    writeln!(
        out,
        "  with DataNet   : selection {:.3}s + job {:.3}s = {:.3}s (imbalance {:.2})",
        with.selection.end.as_secs_f64(),
        with.job.makespan_secs,
        with.total_secs(),
        with.selection.imbalance()
    )?;
    writeln!(
        out,
        "  improvement: {:.1}%",
        100.0 * (1.0 - with.total_secs() / without.total_secs())
    )?;
    if let Some(p) = shuffle_args(args)? {
        print_shuffle_comparison(out, &dfs, &view, s, &job, &p, &ana)?;
    }
    if let Some(obs) = &with.obs {
        writeln!(
            out,
            "  traced: {} spans over {:.3}s, {} straggler(s), {} idler(s)",
            obs.spans,
            obs.sim_end_us as f64 / 1e6,
            obs.stragglers.len(),
            obs.idlers.len()
        )?;
    }
    obs.finish(&rec, out)?;
    Ok(())
}

/// `datanet pipeline` — run an analysis job as a checkpointed multi-stage
/// pipeline: each completed stage commits a durable, checksummed
/// checkpoint into the `--ckpt` replicas under the crash-safe write order;
/// `--resume` restores the newest durable stage and executes only the
/// remainder.
fn cmd_pipeline(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = DatasetFile::load(Path::new(args.require("dataset")?))?;
    let s = subdataset(args, "subdataset")?;
    let alpha = alpha(args)?;
    let spec = match args.get("job").unwrap_or("wordcount") {
        "wordcount" => word_count_pipeline(s),
        "movingaverage" => moving_average_pipeline(s, args.get_or("window-secs", 86_400)?),
        "histogram" => histogram_pipeline(s),
        "topk" => top_k_pipeline(s),
        "join" => join_word_count_pipeline(s, subdataset(args, "with")?),
        other => return Err(ArgError(format!("unknown job `{other}`")).into()),
    };
    let dirs = replicas(args, "ckpt")?;
    let dfs = ds.to_dfs();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(alpha));
    let mut env = PipelineEnv::new(&dfs, &arr);
    env.shuffle = shuffle_args(args)?;
    let (rec, obs) = recorder(args)?;
    let pipe = Pipeline::new(spec);
    let report = if args.flag("resume") {
        pipe.resume(&mut env, &dirs, &rec)?
    } else {
        pipe.run(&mut env, &dirs, &rec)?
    };
    match report.resumed_from {
        Some(k) => writeln!(
            out,
            "pipeline {}: resumed after durable stage {k}, {} of {} stage(s) re-executed",
            report.pipeline,
            report.stages.len(),
            pipe.len()
        )?,
        None => writeln!(
            out,
            "pipeline {}: {} stage(s) executed from scratch",
            report.pipeline,
            report.stages.len()
        )?,
    }
    for st in &report.stages {
        writeln!(
            out,
            "  stage {} {}: {} -> {} record(s), {} aggregate(s), {:.3}s sim, \
             checkpoint crc {:#010x}",
            st.index,
            st.label,
            st.records_in,
            st.records_out,
            st.aggregates_out,
            st.sim_secs,
            st.checkpoint_crc
        )?;
    }
    writeln!(
        out,
        "output: {} record(s), {} aggregate(s), digest {:#010x} — checkpoints \
         in {} replica(s)",
        report.output.records,
        report.output.aggregates.len(),
        report.output.digest,
        dirs.len()
    )?;
    if let Some(p) = &env.shuffle {
        // The join pipeline's aggregate stage is a word count, so the
        // comparison prices every job the pipeline can run.
        let profile = match args.get("job").unwrap_or("wordcount") {
            "join" => word_count_profile(),
            name => job_by_name(name)?,
        };
        let view = arr.view(s);
        print_shuffle_comparison(out, &dfs, &view, s, &profile, p, &env.analysis)?;
    }
    if let Some(path) = args.get("json") {
        let bytes = serde_json::to_vec_pretty(&report)
            .map_err(|e| ArgError(format!("cannot serialise report: {e}")))?;
        std::fs::write(path, bytes)?;
        writeln!(out, "wrote JSON report to {path}")?;
    }
    obs.finish(&rec, out)?;
    Ok(())
}

/// `datanet check` — the deterministic simulation-check harness from the
/// command line: expand seeds into scenarios, run the full pipeline per
/// scenario, check every invariant oracle, optionally shrink failures to
/// minimal repro files.
fn cmd_check(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use datanet_check::{check_scenario_instrumented, shrink, CheckOptions, Repro, Scenario};

    // Replay mode: a repro file is the whole input.
    if let Some(path) = args.get("repro") {
        let repro = Repro::load(Path::new(path))?;
        let outcome = repro.replay();
        if outcome.passed() {
            writeln!(
                out,
                "repro {path} (originally seed {}) now passes all {} recorded oracle(s)",
                repro.original_seed,
                repro.violations.len()
            )?;
            return Ok(());
        }
        writeln!(
            out,
            "repro {path} (originally seed {}) still fails, {} blocks / {} nodes:",
            repro.original_seed, outcome.blocks, outcome.nodes
        )?;
        for v in &outcome.violations {
            writeln!(out, "  {v}")?;
        }
        if let Some(dump) = repro.flight_dump() {
            writeln!(
                out,
                "embedded flight recording: {} event(s) from the shrunk failing run \
                 (last: {})",
                dump.events.len(),
                dump.events
                    .last()
                    .map(|e| format!("{} — {}", e.kind.as_str(), e.detail))
                    .unwrap_or_else(|| "none".into())
            )?;
        }
        let mut oracles: Vec<String> = outcome.oracle_names().into_iter().collect();
        oracles.sort();
        writeln!(out, "violated oracle set: {}", oracles.join(", "))?;
        return Err(CliError::Check(format!(
            "{} violation(s) replaying {path}",
            outcome.violations.len()
        )));
    }

    // Seed set: fixed corpus lines plus a fresh batch.
    let mut seeds: Vec<u64> = Vec::new();
    if let Some(corpus) = args.get("corpus") {
        for line in std::fs::read_to_string(corpus)?.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            seeds.push(
                line.parse()
                    .map_err(|e| ArgError(format!("{corpus}: bad seed `{line}`: {e}")))?,
            );
        }
    }
    let fresh: u64 = args.get_or("seeds", if seeds.is_empty() { 50 } else { 0 })?;
    let start: u64 = args.get_or("seed-start", 0)?;
    seeds.extend(start..start.saturating_add(fresh));
    if seeds.is_empty() {
        return Err(
            ArgError("nothing to check: give --seeds N and/or --corpus FILE".into()).into(),
        );
    }

    let do_shrink = args.flag("shrink");
    let repro_dir = PathBuf::from(args.get("repro-dir").unwrap_or("."));
    // `--metrics`/`--openmetrics`/`--flight` meter the whole seed sweep;
    // the snapshot/dump covers every scenario checked.
    let (rec, obs) = recorder(args)?;
    let mut failed = 0usize;
    for &seed in &seeds {
        let outcome =
            check_scenario_instrumented(&Scenario::from_seed(seed), &CheckOptions::default(), &rec);
        if outcome.passed() {
            continue;
        }
        failed += 1;
        writeln!(
            out,
            "seed {seed} VIOLATED {} oracle(s) ({} blocks / {} nodes):",
            outcome.violations.len(),
            outcome.blocks,
            outcome.nodes
        )?;
        for v in &outcome.violations {
            writeln!(out, "  {v}")?;
        }
        if do_shrink {
            let sc = Scenario::from_seed(seed);
            if let Some(min) = shrink(&sc, &CheckOptions::default()) {
                std::fs::create_dir_all(&repro_dir)?;
                let path = repro_dir.join(format!("repro-seed-{seed}.json"));
                // One instrumented re-run of the *shrunk* scenario, so
                // the repro carries the flight recording of the minimal
                // failing world (not the original large one).
                let frec = Recorder::off().with_flight(FLIGHT_CAPACITY);
                check_scenario_instrumented(&min.scenario, &CheckOptions::default(), &frec);
                let flight = frec
                    .flight_dump()
                    .map(|d| d.to_value())
                    .unwrap_or(Value::Null);
                Repro {
                    original_seed: seed,
                    scenario: min.scenario,
                    options: CheckOptions::default(),
                    violations: min.outcome.violations.clone(),
                    flight,
                }
                .save(&path)?;
                writeln!(
                    out,
                    "  shrunk to {} blocks / {} nodes → {}",
                    min.outcome.blocks,
                    min.outcome.nodes,
                    path.display()
                )?;
            }
        }
    }
    // Write the observability outputs before deciding the exit path: a
    // failing sweep is exactly when the flight dump matters most.
    obs.finish(&rec, out)?;
    if failed > 0 {
        return Err(CliError::Check(format!(
            "{failed} of {} seed(s) violated invariants",
            seeds.len()
        )));
    }
    writeln!(
        out,
        "checked {} seed(s): every invariant oracle held",
        seeds.len()
    )?;
    Ok(())
}

/// `datanet repro` — the paper record: every section of
/// [`SECTIONS`], or the named ones; a word that is no section is a usage
/// error, raised before any section runs.
fn cmd_repro(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let wanted: Vec<&str> = (1..).map_while(|i| args.positional(i)).collect();
    datanet_bench::repro(&wanted, out).map_err(|e| match e.kind() {
        std::io::ErrorKind::InvalidInput => ArgError(e.to_string()).into(),
        _ => CliError::Io(e),
    })
}

/// `datanet gate` — the recorder-overhead gate ([`datanet_bench::gate`]).
fn cmd_gate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    if !datanet_bench::gate(args.flag("quick"), args.get("json").map(Path::new), out)? {
        let verdict = "obs gate: every attempt broke a cap";
        return Err(CliError::Check(verdict.into()));
    }
    Ok(())
}

fn val_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::U64(n)) => *n,
        Some(Value::I64(n)) if *n >= 0 => *n as u64,
        Some(Value::F64(f)) if *f >= 0.0 => *f as u64,
        _ => 0,
    }
}

fn val_str(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// `datanet serve` — run the multi-tenant serving plane over a seeded
/// query stream: bounded admission, deficit-round-robin fair-share
/// quotas, the plan cache, and a seeded worker pool on the
/// simulated clock. The printed answers section is a pure function of
/// the stream and the scripted events; only the timing line moves with
/// `--workers`.
fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use datanet_serve::{
        generate_stream, serve, Disposition, ScriptedEvent, ServeConfig, ServeEvent, StreamConfig,
        TenantMix, World,
    };

    let seed: u64 = args.get_or("seed", 0xDA7A)?;
    let subdatasets: u64 = positive(args, "subdatasets", 8)?;
    let alpha = alpha(args)?;
    let dfs = match args.get("dataset") {
        Some(p) => DatasetFile::load(Path::new(p))?.to_dfs(),
        None => {
            // Synthetic world from the same knobs `datanet gen` takes, so
            // `datanet serve` works standalone.
            let records: u64 = positive(args, "records", 2_000)?;
            datanet_dfs::Dfs::write_random(
                dfs_config(args, 8, 4, 2)?,
                (0..records).map(|i| {
                    datanet_dfs::Record::new(SubDatasetId(i % subdatasets), i, 260, seed ^ i)
                }),
            )
        }
    };
    let world = World::new(dfs, subdatasets, Separation::Alpha(alpha), seed);

    let tenants: u32 = positive(args, "tenants", 4)?;
    let queries: u32 = positive(args, "queries", 64)?;
    // Arrival cadence: `--gap-us` wins; otherwise derived from `--qps`.
    let gap_us: u64 = if args.get("gap-us").is_some() {
        positive(args, "gap-us", 1)?
    } else {
        (1_000_000 / positive::<u64>(args, "qps", 500)?).max(1)
    };
    let mix_s = args.get("mix").unwrap_or("skewed");
    let mix = TenantMix::parse(mix_s).ok_or_else(|| {
        ArgError(format!(
            "unknown mix `{mix_s}` (want uniform, skewed or adversarial)"
        ))
    })?;
    let stream = generate_stream(&StreamConfig {
        tenants,
        queries,
        gap_us,
        subdatasets,
        mix,
        seed,
    });

    let maxflow = match args.get("planner").unwrap_or("alg1") {
        "alg1" => false,
        "maxflow" => true,
        other => return Err(ArgError(format!("unknown planner `{other}`")).into()),
    };
    let cfg = ServeConfig {
        workers: positive(args, "workers", 4)?,
        queue_cap: args.get_or("queue-cap", 32)?,
        quantum_bytes: positive::<u64>(args, "quantum-kb", 64)? * 1024,
        round_us: positive(args, "round-us", 2_000)?,
        max_wait_rounds: args.get_or("max-wait-rounds", 16)?,
        cache: !args.flag("no-cache"),
        maxflow,
        schedule_seed: args.get_or("schedule-seed", 0)?,
    };

    // Scripted world mutations, anchored to stream positions.
    let mut events: Vec<ScriptedEvent> = Vec::new();
    let blocks: u32 = positive(args, "ingest-blocks", 2)?;
    if let Some(list) = args.get("ingest-at") {
        for part in list.split(',').filter(|s| !s.is_empty()) {
            let at: u32 = part
                .parse()
                .map_err(|e| ArgError(format!("--ingest-at: {e}")))?;
            events.push(ScriptedEvent {
                at_query: at,
                event: ServeEvent::IngestCommit { blocks },
            });
        }
    }
    if let Some(spec) = args.get("lose-node") {
        let (node, at) = spec
            .split_once('@')
            .ok_or_else(|| ArgError(format!("--lose-node wants NODE@QUERY, got `{spec}`")))?;
        let node: u32 = node
            .parse()
            .map_err(|e| ArgError(format!("--lose-node index: {e}")))?;
        let nodes = world.alive().len();
        if node as usize >= nodes {
            return Err(ArgError(format!(
                "--lose-node index {node} is out of range for {nodes} node(s)"
            ))
            .into());
        }
        events.push(ScriptedEvent {
            at_query: at
                .parse()
                .map_err(|e| ArgError(format!("--lose-node position: {e}")))?,
            event: ServeEvent::NodeLoss { node },
        });
    }
    events.sort_by_key(|e| e.at_query);

    let (rec, obs) = recorder(args)?;
    let report = serve(world, &stream, &events, &cfg, &rec);

    let a = &report.answers;
    let completed = a
        .outcomes
        .iter()
        .filter(|o| matches!(o.disposition, Disposition::Completed { .. }))
        .count();
    let rejected: u32 = a.tenants.iter().map(|t| t.rejected).sum();
    let shed: u32 = a.tenants.iter().map(|t| t.shed).sum();
    writeln!(
        out,
        "served {} query(ies) from {} tenant(s), {} mix, {} event(s): \
         {completed} completed, {rejected} rejected, {shed} shed",
        stream.len(),
        tenants,
        mix.as_str(),
        events.len()
    )?;
    writeln!(
        out,
        "plan cache: {} hit(s), {} miss(es){}",
        a.cache_hits,
        a.cache_misses,
        if cfg.cache { "" } else { " (cache off)" }
    )?;
    let kib = |b: u64| format!("{:.1}", b as f64 / 1024.0);
    let mut t = Table::new([
        "tenant",
        "admitted",
        "rejected",
        "shed",
        "granted KiB",
        "served KiB",
        "forfeited KiB",
    ]);
    for ts in &a.tenants {
        t.row([
            format!("t{}", ts.tenant),
            ts.admitted.to_string(),
            ts.rejected.to_string(),
            ts.shed.to_string(),
            kib(ts.granted_bytes),
            kib(ts.served_bytes),
            kib(ts.forfeited_bytes),
        ]);
    }
    write!(out, "{}", t.render())?;
    let ti = &report.timing;
    writeln!(
        out,
        "timing ({} worker(s)): makespan {:.3}s, latency p50 {:.3}ms / p99 {:.3}ms, \
         {:.1} queries/s",
        ti.workers,
        ti.makespan_us as f64 / 1e6,
        ti.p50_latency_us as f64 / 1e3,
        ti.p99_latency_us as f64 / 1e3,
        ti.throughput_qps
    )?;
    if let Some(path) = args.get("json") {
        let bytes = serde_json::to_vec_pretty(&report)
            .map_err(|e| ArgError(format!("cannot serialise report: {e}")))?;
        std::fs::write(path, bytes)?;
        writeln!(out, "wrote JSON report to {path}")?;
    }
    obs.finish(&rec, out)?;
    Ok(())
}

/// `datanet trace TRACE.json` — terminal summary of a Chrome trace written
/// by `--trace`: span counts and time per category, the busiest nodes on
/// the simulated clock, counter totals, and the unclosed-span count the CI
/// smoke job gates on.
fn cmd_trace(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional(1, "TRACE.json")?;
    let bytes = std::fs::read(path)?;
    let doc = serde_json::parse_value(&bytes)
        .map_err(|e| ArgError(format!("{path}: not a Chrome trace: {e}")))?;
    let events = match doc.get("traceEvents") {
        Some(Value::Array(events)) => events,
        _ => return Err(ArgError(format!("{path}: missing traceEvents array")).into()),
    };

    // Per-category and per-sim-node rollups over the complete ("X") spans.
    let mut cats: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    let mut nodes: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
    let mut instants = 0u64;
    for e in events {
        match val_str(e.get("ph")) {
            Some("X") => {
                let cat = val_str(e.get("cat")).unwrap_or("?").to_string();
                let dur = val_u64(e.get("dur"));
                let c = cats.entry(cat).or_insert((0, 0));
                c.0 += 1;
                c.1 += dur;
                let tid = val_u64(e.get("tid"));
                if val_u64(e.get("pid")) == 0 && tid > 0 {
                    let n = nodes.entry(tid - 1).or_insert((0, 0));
                    n.0 += 1;
                    n.1 += dur;
                }
            }
            Some("i") => instants += 1,
            _ => {}
        }
    }

    let mut t = Table::new(["category", "spans", "total ms"]);
    for (cat, (count, dur)) in &cats {
        t.row([
            cat.clone(),
            count.to_string(),
            format!("{:.3}", *dur as f64 / 1e3),
        ]);
    }
    write!(out, "{}", t.render())?;

    if !nodes.is_empty() {
        writeln!(out)?;
        let mut t = Table::new(["node", "spans", "busy ms"]);
        for (node, (count, dur)) in &nodes {
            t.row([
                format!("node {node}"),
                count.to_string(),
                format!("{:.3}", *dur as f64 / 1e3),
            ]);
        }
        write!(out, "{}", t.render())?;
    }

    if let Some(Value::Object(counters)) = doc.get("otherData").and_then(|o| o.get("counters")) {
        if !counters.is_empty() {
            writeln!(out)?;
            let mut t = Table::new(["counter", "total"]);
            for (name, v) in counters {
                t.row([name.clone(), val_u64(Some(v)).to_string()]);
            }
            write!(out, "{}", t.render())?;
        }
    }

    let unclosed = val_u64(doc.get("otherData").and_then(|o| o.get("unclosed_spans")));
    writeln!(
        out,
        "\n{} instants, {unclosed} unclosed span(s){}",
        instants,
        if unclosed == 0 {
            ""
        } else {
            " — BROKEN TRACE"
        }
    )?;
    Ok(())
}

/// The value of one label inside a canonical series key, e.g.
/// `label_of("spans{cat=\"task\",query=\"7\"}", "query")` → `Some("7")`.
/// Dashboard-grade parsing: escaped quotes inside label values are rare
/// enough in practice that the first `"` terminates the value.
fn label_of(series: &str, label: &str) -> Option<String> {
    let needle = format!("{label}=\"");
    let labels = series.find('{').map(|i| &series[i..])?;
    let start = labels.find(&needle)? + needle.len();
    let rest = &labels[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// A 20-cell utilisation bar for the dashboard.
fn util_bar(fraction: f64) -> String {
    let cells = (fraction.clamp(0.0, 1.0) * 20.0).round() as usize;
    format!("[{}{}]", "#".repeat(cells), ".".repeat(20 - cells))
}

/// `datanet top SNAPSHOT.json` — terminal dashboard over a metrics
/// snapshot written by `--metrics`: per-node utilisation, per-query span
/// counts and latency percentiles, retry/failover pressure, EWMA anomaly
/// alerts, and (with `--flight FLIGHT.json`) the degradation-rung mix and
/// the last significant events.
fn cmd_top(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use datanet_obs::{detect_anomalies, split_series, FlightDump, MetricsSnapshot};

    let path = args.require_positional(1, "SNAPSHOT.json")?;
    let raw = std::fs::read_to_string(path)?;
    let snap: MetricsSnapshot = serde_json::from_str(&raw)
        .map_err(|e| ArgError(format!("{path}: not a metrics snapshot: {e}")))?;

    // The simulated horizon: the end of the latest window any series
    // touched (utilisation denominators need *some* notion of "the run").
    let horizon_us = snap
        .windowed
        .values()
        .flat_map(|w| w.iter().map(|&(start, _)| start + snap.window_us))
        .chain(
            snap.win_hists
                .values()
                .flat_map(|w| w.iter().map(|(start, _)| *start + snap.window_us)),
        )
        .max()
        .unwrap_or(0);
    writeln!(
        out,
        "datanet top — window {} ms, horizon {:.3} s, {} series",
        snap.window_us / 1_000,
        horizon_us as f64 / 1e6,
        snap.counters.len() + snap.hists.len() + snap.gauges.len()
    )?;

    // ---- per-node utilisation ----------------------------------------
    let mut busy: Vec<(String, u64)> = snap
        .counters
        .iter()
        .filter(|(k, _)| split_series(k).0 == "node_busy_us")
        .filter_map(|(k, &v)| label_of(k, "node").map(|n| (n, v)))
        .collect();
    // Node labels are numeric strings; sort numerically so node 10
    // lands after node 2, not after node 1.
    busy.sort_by_key(|(n, _)| n.parse::<u64>().unwrap_or(u64::MAX));
    if !busy.is_empty() && horizon_us > 0 {
        writeln!(out, "\nnode utilisation (busy / horizon):")?;
        for (node, busy_us) in &busy {
            let f = *busy_us as f64 / horizon_us as f64;
            writeln!(
                out,
                "  node {node:>3} {} {:5.1}% ({:.3}s busy)",
                util_bar(f),
                f * 100.0,
                *busy_us as f64 / 1e6
            )?;
        }
    }

    // ---- per-query latency -------------------------------------------
    // Group sim-clock span histograms by (query, tenant); unscoped spans
    // fall into the "-" row.
    let mut queries: std::collections::BTreeMap<(String, String), (u64, u64, u64, u64)> =
        Default::default();
    for (key, h) in &snap.hists {
        if split_series(key).0 != "span_us" || label_of(key, "clock").as_deref() != Some("sim") {
            continue;
        }
        let q = label_of(key, "query").unwrap_or_else(|| "-".into());
        let t = label_of(key, "tenant").unwrap_or_else(|| "-".into());
        let e = queries.entry((q, t)).or_insert((0, 0, 0, 0));
        e.0 += h.count;
        e.1 += h.sum;
        e.2 = e.2.max(h.p95);
        e.3 = e.3.max(h.p99);
    }
    if !queries.is_empty() {
        writeln!(out)?;
        let mut t = Table::new(["query", "tenant", "spans", "total ms", "p95 ms", "p99 ms"]);
        for ((q, tenant), (count, sum, p95, p99)) in &queries {
            t.row([
                q.clone(),
                tenant.clone(),
                count.to_string(),
                format!("{:.3}", *sum as f64 / 1e3),
                format!("{:.3}", *p95 as f64 / 1e3),
                format!("{:.3}", *p99 as f64 / 1e3),
            ]);
        }
        write!(out, "{}", t.render())?;
    }

    // ---- serving plane (per tenant) ----------------------------------
    // Group the serving-plane counters and latency histograms by tenant
    // label; a snapshot without them (no `datanet serve` run) skips the
    // section entirely.
    let mut serving: std::collections::BTreeMap<String, (u64, u64, u64, u64, u64)> =
        Default::default();
    for (k, &v) in &snap.counters {
        let slot = match split_series(k).0 {
            "serve_admitted_total" => 0,
            "serve_rejected_total" => 1,
            "serve_shed_total" => 2,
            _ => continue,
        };
        let t = label_of(k, "tenant").unwrap_or_else(|| "-".into());
        let e = serving.entry(t).or_insert((0, 0, 0, 0, 0));
        match slot {
            0 => e.0 += v,
            1 => e.1 += v,
            _ => e.2 += v,
        }
    }
    for (k, h) in &snap.hists {
        if split_series(k).0 != "serve_latency_us" {
            continue;
        }
        let t = label_of(k, "tenant").unwrap_or_else(|| "-".into());
        let e = serving.entry(t).or_insert((0, 0, 0, 0, 0));
        e.3 += h.count;
        e.4 = e.4.max(h.p99);
    }
    if !serving.is_empty() {
        let total = |name: &str| -> u64 {
            snap.counters
                .iter()
                .filter(|(k, _)| split_series(k).0 == name)
                .map(|(_, &v)| v)
                .sum()
        };
        writeln!(
            out,
            "\nserving plane: {} cache hit(s), {} miss(es)",
            total("serve_cache_hits_total"),
            total("serve_cache_misses_total")
        )?;
        let mut t = Table::new(["tenant", "admitted", "rejected", "shed", "latency p99 ms"]);
        for (tenant, (adm, rej, shed, lats, p99)) in &serving {
            t.row([
                tenant.clone(),
                adm.to_string(),
                rej.to_string(),
                shed.to_string(),
                if *lats == 0 {
                    "-".into()
                } else {
                    format!("{:.3}", *p99 as f64 / 1e3)
                },
            ]);
        }
        write!(out, "{}", t.render())?;
    }

    // ---- retry / failover pressure -----------------------------------
    let pressure: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter(|(k, _)| {
            matches!(
                split_series(k).0,
                "meta_retries" | "meta_failovers" | "tasks_retried"
            )
        })
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    let replans: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| {
            split_series(k).0 == "events" && label_of(k, "cat").as_deref() == Some("replan")
        })
        .map(|(_, &v)| v)
        .sum();
    if !pressure.is_empty() || replans > 0 {
        writeln!(out, "\nretry/backoff pressure:")?;
        for (k, v) in &pressure {
            writeln!(out, "  {k}: {v}")?;
        }
        if replans > 0 {
            writeln!(out, "  replans: {replans}")?;
        }
    }

    // ---- EWMA anomaly alerts -----------------------------------------
    let alerts = detect_anomalies(&snap);
    if alerts.is_empty() {
        writeln!(
            out,
            "\nno anomalies: every windowed series within EWMA bounds"
        )?;
    } else {
        writeln!(out, "\nALERTS ({}):", alerts.len())?;
        for a in &alerts {
            writeln!(
                out,
                "  {} @ window {}ms: {:.0} vs EWMA {:.1} ({:.1}x)",
                a.series,
                a.window_us / 1_000,
                a.value,
                a.ewma,
                a.ratio
            )?;
        }
    }

    // ---- flight recorder ---------------------------------------------
    if let Some(fp) = args.get("flight") {
        let raw = std::fs::read_to_string(fp)?;
        let dump: FlightDump = serde_json::from_str(&raw)
            .map_err(|e| ArgError(format!("{fp}: not a flight dump: {e}")))?;
        let mut kinds: std::collections::BTreeMap<&str, u64> = Default::default();
        for e in &dump.events {
            *kinds.entry(e.kind.as_str()).or_insert(0) += 1;
        }
        writeln!(
            out,
            "\nflight recorder: {} of {} event(s) kept ({} dropped)",
            dump.events.len(),
            dump.recorded,
            dump.dropped
        )?;
        for (kind, n) in &kinds {
            writeln!(out, "  {kind}: {n}")?;
        }
        let rungs = dump
            .events
            .iter()
            .filter(|e| e.kind == datanet_obs::FlightKind::RungChange)
            .count();
        if rungs > 0 {
            writeln!(out, "degradation-rung changes ({rungs}):")?;
            for e in dump
                .events
                .iter()
                .filter(|e| e.kind == datanet_obs::FlightKind::RungChange)
                .rev()
                .take(5)
            {
                writeln!(out, "  seq {}: {}", e.seq, e.detail)?;
            }
        }
        if let Some(last) = dump.events.last() {
            writeln!(out, "last event: {} — {}", last.kind.as_str(), last.detail)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmd: &str) -> Result<String, CliError> {
        let mut out = Vec::new();
        dispatch(cmd.split_whitespace().map(String::from).collect(), &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("datanet-cli-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let s = run("help").unwrap();
        assert!(s.contains("USAGE"));
        let s = run("").unwrap();
        assert!(s.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run("frobnicate").is_err());
    }

    /// Regression: `scan --shard-blocs 8` used to write one 64-block shard
    /// and `scan --meta --alpha 0.3` a store in `./true`, both with exit 0.
    #[test]
    fn every_command_rejects_what_its_row_does_not_declare() {
        for &(name, _, positionals, values, _, obs) in COMMANDS {
            let err = run(&format!("{name} --no-such-flag 1")).unwrap_err();
            assert!(matches!(&err, CliError::Args(e) if e.0.contains("--no-such-flag")));
            let own = values.split_whitespace().next();
            for flag in own.into_iter().chain(obs.then_some("tenant")) {
                let err = run(&format!("{name} --{flag}")).unwrap_err();
                let want = format!("--{flag} needs a value");
                assert!(matches!(&err, CliError::Args(e) if e.0 == want), "{err}");
            }
            let words = "x ".repeat(positionals + 1);
            let err = run(&format!("{name} {words}")).unwrap_err();
            assert!(matches!(&err, CliError::Args(e) if e.0.contains("positional")));
        }
        let err = run("scan --dataset d.json --meta m --shard-blocs 8").unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --shard-blocs"),
            "{err}"
        );
        assert!(err.to_string().contains("--shard-blocks"), "{err}");
        let err = run("scan --dataset d.json --meta --alpha 0.3").unwrap_err();
        assert!(err.to_string().contains("--meta needs a value"), "{err}");
    }

    /// The synopsis block of `USAGE` and `COMMANDS` declare the same
    /// commands, positionals, value flags and switches (`--trace` standing
    /// for the whole observability set).
    #[test]
    fn usage_and_the_command_table_agree() {
        use std::collections::{BTreeMap, BTreeSet};
        type Row<'a> = (usize, BTreeSet<&'a str>, BTreeSet<&'a str>);
        let synopsis = USAGE.split("USAGE:\n").nth(1).unwrap();
        let synopsis = synopsis.split("\n\n").next().unwrap();
        let mut usage: BTreeMap<&str, Row> = BTreeMap::new();
        let mut name = "";
        let mut words = synopsis.split_whitespace();
        while let Some(word) = words.next() {
            if word == "datanet" {
                name = words.next().unwrap();
                usage.entry(name).or_default();
                continue;
            }
            let row = usage.get_mut(name).unwrap();
            match word.trim_start_matches('[').strip_prefix("--") {
                Some(switch) if switch.ends_with(']') => {
                    row.2.insert(switch.trim_end_matches(']'));
                }
                Some(flag) => {
                    row.1.insert(flag);
                    words.next().expect("a value flag names its value");
                }
                None if word == "|" => {}
                None => row.0 += 1,
            }
        }
        let table: BTreeMap<&str, Row> = (COMMANDS.iter())
            .map(|&(name, _, positionals, values, switches, obs)| {
                let values = values.split_whitespace().chain(obs.then_some("trace"));
                let row = (
                    positionals,
                    values.collect(),
                    switches.split_whitespace().collect(),
                );
                (name, row)
            })
            .collect();
        assert_eq!(table.len(), COMMANDS.len(), "a command is listed twice");
        assert_eq!(usage, table);
        // `repro`'s positionals are its sections, each named in the synopsis.
        let repro = synopsis.split("datanet repro").nth(1).unwrap();
        let named: Vec<&str> = (repro.split("datanet ").next().unwrap().split_whitespace())
            .map(|word| word.trim_matches(['[', ']']))
            .collect();
        let sections: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
        assert_eq!(named, sections);
        // The shared set is spelled out once, in the paragraph under it.
        for flag in OBS_FLAGS.split_whitespace() {
            assert!(USAGE.contains(&format!("`--{flag}")), "--{flag}");
        }
    }

    /// `datanet repro` prints what the paper-record library writes; a word
    /// that is no section (the library's check) or a flag (the row's) is a
    /// usage error raised before any section runs.
    #[test]
    fn repro_prints_the_record_and_rejects_unknown_sections_and_flags() {
        let mut fig2 = Vec::new();
        datanet_bench::repro(&["fig2"], &mut fig2).unwrap();
        assert!(run("repro fig2").unwrap().as_bytes() == fig2);
        for (bad, problem) in [
            ("nosuch", "no section `nosuch`"),
            ("--quick", "unknown flag"),
        ] {
            let mut out = Vec::new();
            let line = ["repro", "fig2", bad].map(String::from).to_vec();
            let err = dispatch(line, &mut out).unwrap_err();
            assert!(
                matches!(&err, CliError::Args(e) if e.0.contains(problem)),
                "{err}"
            );
            assert!(out.is_empty(), "repro fig2 {bad} printed a section");
            assert!(error_text(&err).contains("USAGE:"), "{bad}");
        }
    }

    /// A gate command line that is not fully understood fails before
    /// anything is measured, so this test takes no time.
    #[test]
    fn gate_rejects_bad_command_lines_before_measuring() {
        let cases = [
            // One typo must not turn the gate off...
            ("gate --quick --jsn out.json", "unknown flag --jsn"),
            // ...nor a path flag that lost its value...
            ("gate --quick --json", "--json needs a value"),
            // ...nor a word the gate does not take.
            ("gate obs --quick", "takes 0 positional argument(s), got 1"),
        ];
        for (line, problem) in cases {
            let mut out = Vec::new();
            let err = dispatch(
                line.split_whitespace().map(String::from).collect(),
                &mut out,
            );
            let err = err.unwrap_err();
            assert!(
                matches!(&err, CliError::Args(e) if e.0.contains(problem)),
                "{line}: {err}"
            );
            assert!(out.is_empty(), "{line} measured before failing");
            assert!(error_text(&err).contains("USAGE:"), "{line}");
        }
    }

    #[test]
    fn full_workflow_gen_scan_query_plan_simulate() {
        let ds = tmp("ds.json");
        let meta = tmp("meta");
        let s = run(&format!(
            "gen movies --records 20000 --nodes 8 --block-kb 64 --out {ds}"
        ))
        .unwrap();
        assert!(s.contains("wrote 20000 records"), "{s}");

        let s = run(&format!("scan --dataset {ds} --meta {meta} --alpha 0.3")).unwrap();
        assert!(s.contains("meta-data"), "{s}");

        let s = run(&format!(
            "query --dataset {ds} --meta {meta} --subdataset 0"
        ))
        .unwrap();
        assert!(s.contains("sub-dataset s0"), "{s}");

        let s = run(&format!("plan --dataset {ds} --meta {meta} --subdataset 0")).unwrap();
        assert!(s.contains("alg1 plan"), "{s}");
        let s = run(&format!(
            "plan --dataset {ds} --meta {meta} --subdataset 0 --planner maxflow"
        ))
        .unwrap();
        assert!(s.contains("maxflow plan"), "{s}");

        let s = run(&format!(
            "simulate --dataset {ds} --subdataset 0 --job topk"
        ))
        .unwrap();
        assert!(s.contains("improvement"), "{s}");

        let _ = std::fs::remove_file(&ds);
        let _ = std::fs::remove_dir_all(&meta);
    }

    /// Regression: a dataset file with no nodes, a zero block size or
    /// replication hit a library assert (exit 101), and a zero-byte record
    /// was accepted. Each is now an I/O error before any work.
    #[test]
    fn scan_rejects_a_dataset_file_no_dfs_can_be_built_from() {
        let ds = tmp("bad-ds.json");
        let meta = tmp("bad-meta");
        run(&format!(
            "gen movies --records 500 --nodes 8 --block-kb 4 --out {ds}"
        ))
        .unwrap();
        let good = std::fs::read_to_string(&ds).unwrap();
        let first_size = &good[good.find(r#""size":"#).unwrap()..];
        let first_size = &first_size[..first_size.find(',').unwrap()];
        for (from, to) in [
            (r#""nodes":8"#, r#""nodes":0"#),
            (r#""block_size":4096"#, r#""block_size":0"#),
            (r#""replication":3"#, r#""replication":0"#),
            (first_size, r#""size":0"#),
        ] {
            assert!(good.contains(from), "{from}");
            std::fs::write(&ds, good.replacen(from, to, 1)).unwrap();
            let err = run(&format!("scan --dataset {ds} --meta {meta}")).unwrap_err();
            assert!(
                matches!(&err, CliError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData),
                "{to}: {err}"
            );
            assert!(err.to_string().starts_with("io error: "), "{err}");
            assert!(!Path::new(&meta).exists(), "{to}: scan wrote a store");
        }
        let _ = std::fs::remove_file(&ds);
    }

    #[test]
    fn replicated_scan_scrub_heals_corruption() {
        let ds = tmp("repl-ds.json");
        let meta_a = tmp("repl-a");
        let meta_b = tmp("repl-b");
        run(&format!(
            "gen movies --records 20000 --nodes 8 --block-kb 64 --out {ds}"
        ))
        .unwrap();
        let s = run(&format!(
            "scan --dataset {ds} --meta {meta_a},{meta_b} --shard-blocks 8"
        ))
        .unwrap();
        assert!(s.contains("2 replica(s)"), "{s}");

        // Corrupt a shard in the primary; scrub repairs it from the second.
        std::fs::write(
            std::path::Path::new(&meta_a).join("shard-0000.json"),
            b"rot",
        )
        .unwrap();
        let s = run(&format!("scrub --meta {meta_a},{meta_b}")).unwrap();
        assert!(s.contains("1 shard copies repaired"), "{s}");
        assert!(s.contains("0 quarantined"), "{s}");

        // The primary alone is whole again.
        let s = run(&format!(
            "query --dataset {ds} --meta {meta_a} --subdataset 0"
        ))
        .unwrap();
        assert!(s.contains("sub-dataset s0"), "{s}");

        let _ = std::fs::remove_file(&ds);
        let _ = std::fs::remove_dir_all(&meta_a);
        let _ = std::fs::remove_dir_all(&meta_b);
    }

    #[test]
    fn trace_flag_writes_chrome_trace_and_trace_command_reads_it() {
        let ds = tmp("trace-ds.json");
        let meta = tmp("trace-meta");
        let trace = tmp("trace.json");
        run(&format!(
            "gen movies --records 20000 --nodes 8 --block-kb 64 --out {ds}"
        ))
        .unwrap();

        let s = run(&format!(
            "scan --dataset {ds} --meta {meta} --trace {trace}"
        ))
        .unwrap();
        assert!(s.contains("wrote Chrome trace"), "{s}");
        assert!(s.contains("0 unclosed"), "{s}");
        let raw = std::fs::read_to_string(&trace).unwrap();
        assert!(raw.contains("traceEvents"), "not a Chrome trace: {raw}");

        let s = run(&format!("trace {trace}")).unwrap();
        assert!(s.contains("category"), "{s}");
        assert!(s.contains("scan"), "{s}");
        assert!(s.contains("0 unclosed span(s)"), "{s}");

        // A traced simulate emits the engine spans and the obs summary.
        let s = run(&format!(
            "simulate --dataset {ds} --subdataset 0 --trace {trace}"
        ))
        .unwrap();
        assert!(s.contains("traced:"), "{s}");
        assert!(s.contains("wrote Chrome trace"), "{s}");
        let s = run(&format!("trace {trace}")).unwrap();
        assert!(s.contains("task"), "{s}");
        assert!(s.contains("node 0"), "{s}");

        // Untraced runs never mention the observability plane.
        let s = run(&format!("simulate --dataset {ds} --subdataset 0")).unwrap();
        assert!(!s.contains("traced:"), "{s}");

        let _ = std::fs::remove_file(&ds);
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_dir_all(&meta);
    }

    /// `--metrics OUT.jsonl` writes the line-per-series export: a `meta`
    /// line first, then one JSON object per series — the same series the
    /// snapshot document of an identical run holds.
    #[test]
    fn metrics_jsonl_lists_the_snapshot_series() {
        use datanet_obs::MetricsSnapshot;
        use std::collections::BTreeSet;
        let ds = tmp("jsonl-ds.json");
        // The extension picks the format, so it must end the path.
        let jsonl = format!("{}.jsonl", tmp("metrics"));
        let json = format!("{}.json", tmp("metrics"));
        run(&format!(
            "gen movies --records 5000 --nodes 4 --block-kb 64 --out {ds}"
        ))
        .unwrap();
        for path in [&jsonl, &json] {
            let s = run(&format!(
                "simulate --dataset {ds} --subdataset 0 --metrics {path}"
            ))
            .unwrap();
            assert!(s.contains("wrote metrics snapshot"), "{s}");
        }

        let text = std::fs::read_to_string(&jsonl).unwrap();
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::parse_value(l.as_bytes()).unwrap())
            .collect();
        let str_at = |v: &Value, k: &str| match v.get(k) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        assert_eq!(str_at(&lines[0], "type"), "meta");
        let from_lines: BTreeSet<(String, String)> = lines[1..]
            .iter()
            .map(|l| (str_at(l, "type"), str_at(l, "series")))
            .collect();
        assert_eq!(from_lines.len(), lines.len() - 1, "a series listed twice");

        let snap: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let mut from_snap = BTreeSet::new();
        for (kind, keys) in [
            ("counter", snap.counters.keys().collect::<Vec<_>>()),
            ("histogram", snap.hists.keys().collect()),
            ("gauge", snap.gauges.keys().collect()),
        ] {
            from_snap.extend(keys.into_iter().map(|k| (kind.to_string(), k.clone())));
        }
        assert!(!from_snap.is_empty());
        assert_eq!(from_lines, from_snap);

        for path in [&ds, &jsonl, &json] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn trace_command_rejects_garbage() {
        let bogus = tmp("bogus.json");
        std::fs::write(&bogus, b"not json").unwrap();
        assert!(run(&format!("trace {bogus}")).is_err());
        std::fs::write(&bogus, b"{\"no\":\"events\"}").unwrap();
        assert!(run(&format!("trace {bogus}")).is_err());
        let _ = std::fs::remove_file(&bogus);
    }

    #[test]
    fn gen_rejects_unknown_generator() {
        assert!(run("gen pigeons --out /tmp/x.json").is_err());
    }

    #[test]
    fn check_passes_on_fresh_seeds() {
        let s = run("check --seeds 3").unwrap();
        assert!(s.contains("checked 3 seed(s)"), "{s}");
        assert!(s.contains("every invariant oracle held"), "{s}");
    }

    #[test]
    fn check_reads_a_corpus_file() {
        let corpus = tmp("corpus.txt");
        std::fs::write(&corpus, "# two known-good seeds\n0\n1\n").unwrap();
        let s = run(&format!("check --corpus {corpus} --seeds 1 --seed-start 7")).unwrap();
        assert!(s.contains("checked 3 seed(s)"), "{s}");
        let _ = std::fs::remove_file(&corpus);
    }

    #[test]
    fn check_with_no_work_is_a_usage_error() {
        assert!(matches!(run("check --seeds 0"), Err(CliError::Args(_))));
    }

    #[test]
    fn check_replays_a_failing_repro_file() {
        use datanet_check::{shrink, CheckOptions, Repro, Scenario};
        // Build a genuinely failing repro with the planted-bug hook, then
        // make sure the CLI replays it to the same verdict and exits
        // through the Check error path (non-zero, no usage spam).
        let opts = CheckOptions {
            credit_skew: 1,
            ..CheckOptions::default()
        };
        let min = shrink(&Scenario::from_seed(5), &opts).expect("planted bug fails");
        let path = tmp("repro.json");
        Repro {
            original_seed: 5,
            scenario: min.scenario,
            options: opts,
            violations: min.outcome.violations,
            flight: Value::Null,
        }
        .save(Path::new(&path))
        .unwrap();
        let err = run(&format!("check --repro {path}")).unwrap_err();
        assert!(matches!(err, CliError::Check(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ingest_streams_commits_epochs_and_time_travels() {
        let ds = tmp("ing-ds.json");
        let meta = tmp("ing-meta");
        let _ = std::fs::remove_dir_all(&meta);
        run(&format!(
            "gen movies --records 20000 --nodes 8 --block-kb 64 --out {ds}"
        ))
        .unwrap();

        let s = run(&format!(
            "ingest --dataset {ds} --meta {meta} --shard-blocks 8 \
             --compact-every 4 --commit-every 8"
        ))
        .unwrap();
        assert!(s.contains("epoch(s) committed"), "{s}");
        assert!(!s.contains("after resuming"), "{s}");

        // The live store answers, and epoch 1 time-travels to the first
        // committed snapshot.
        let s = run(&format!(
            "query --dataset {ds} --meta {meta} --subdataset 0"
        ))
        .unwrap();
        assert!(s.contains("sub-dataset s0"), "{s}");
        let s = run(&format!(
            "query --dataset {ds} --meta {meta} --subdataset 0 --epoch 1"
        ))
        .unwrap();
        assert!(s.contains("@ epoch 1"), "{s}");

        // Resuming with nothing new appends nothing and keeps the epoch.
        let s = run(&format!("ingest --dataset {ds} --meta {meta} --resume")).unwrap();
        assert!(s.contains("ingested 0 blocks"), "{s}");
        assert!(s.contains("after resuming"), "{s}");

        let _ = std::fs::remove_file(&ds);
        let _ = std::fs::remove_dir_all(&meta);
    }

    #[test]
    fn pipeline_runs_checkpoints_and_resumes() {
        let ds = tmp("pipe-ds.json");
        let ckpt_a = tmp("pipe-ckpt-a");
        let ckpt_b = tmp("pipe-ckpt-b");
        let json = tmp("pipe-report.json");
        let _ = std::fs::remove_dir_all(&ckpt_a);
        let _ = std::fs::remove_dir_all(&ckpt_b);
        run(&format!(
            "gen movies --records 20000 --nodes 8 --block-kb 64 --out {ds}"
        ))
        .unwrap();

        let s = run(&format!(
            "pipeline --dataset {ds} --subdataset 0 --ckpt {ckpt_a},{ckpt_b} --json {json}"
        ))
        .unwrap();
        assert!(s.contains("executed from scratch"), "{s}");
        assert!(s.contains("stage 0 filter(s=0)"), "{s}");
        assert!(s.contains("output:"), "{s}");
        assert!(s.contains("2 replica(s)"), "{s}");
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"digest\""), "{report}");

        // Resuming over a fully-durable store re-executes nothing and
        // reproduces the same output digest.
        let digest = s
            .split("digest ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .to_string();
        let s = run(&format!(
            "pipeline --dataset {ds} --subdataset 0 --ckpt {ckpt_a},{ckpt_b} --resume"
        ))
        .unwrap();
        assert!(s.contains("resumed after durable stage"), "{s}");
        assert!(s.contains(&digest), "{s}");

        // The multi-stage join pipeline needs its right-hand side.
        let err = run(&format!(
            "pipeline --dataset {ds} --subdataset 0 --ckpt {ckpt_a} --job join"
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Args(_)), "{err}");
        let s = run(&format!(
            "pipeline --dataset {ds} --subdataset 0 --with 1 --ckpt {ckpt_a} --job join"
        ))
        .unwrap();
        assert!(s.contains("join(s=1)"), "{s}");

        let _ = std::fs::remove_file(&ds);
        let _ = std::fs::remove_file(&json);
        let _ = std::fs::remove_dir_all(&ckpt_a);
        let _ = std::fs::remove_dir_all(&ckpt_b);
    }

    #[test]
    fn repro_replay_prints_the_violated_oracle_set() {
        use datanet_check::{shrink, CheckOptions, Repro, Scenario};
        let opts = CheckOptions {
            credit_skew: 1,
            ..CheckOptions::default()
        };
        let min = shrink(&Scenario::from_seed(5), &opts).expect("planted bug fails");
        let path = tmp("repro-oracles.json");
        Repro {
            original_seed: 5,
            scenario: min.scenario,
            options: opts,
            violations: min.outcome.violations,
            flight: Value::Null,
        }
        .save(Path::new(&path))
        .unwrap();
        let mut out = Vec::new();
        let err = dispatch(
            format!("check --repro {path}")
                .split_whitespace()
                .map(String::from)
                .collect(),
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Check(_)), "{err}");
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("violated oracle set: "), "{s}");
        assert!(s.contains("greedy-conservation"), "{s}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_prints_the_shuffle_comparison_when_enabled() {
        let ds = tmp("shuf-sim-ds.json");
        run(&format!(
            "gen movies --records 20000 --nodes 8 --block-kb 64 --out {ds}"
        ))
        .unwrap();

        // Off by default: no shuffle section.
        let s = run(&format!("simulate --dataset {ds} --subdataset 0")).unwrap();
        assert!(!s.contains("shuffle ["), "{s}");

        let s = run(&format!(
            "simulate --dataset {ds} --subdataset 0 --shuffle aware \
             --key-ranges 16 --split-factor 1.1"
        ))
        .unwrap();
        assert!(s.contains("shuffle [aware]: 16 key range(s)"), "{s}");
        assert!(s.contains("hash :"), "{s}");
        assert!(s.contains("aware:"), "{s}");
        assert!(s.contains("reduce imbalance"), "{s}");

        // Bad flag values die before the simulation runs.
        for bad in [
            "--shuffle sideways",
            "--shuffle aware --key-ranges 1",
            "--shuffle aware --split-factor 0.5",
        ] {
            let err = run(&format!("simulate --dataset {ds} --subdataset 0 {bad}")).unwrap_err();
            assert!(matches!(err, CliError::Args(_)), "{bad}: {err}");
        }
        let _ = std::fs::remove_file(&ds);
    }

    #[test]
    fn pipeline_routes_through_the_partitioner_without_changing_answers() {
        let ds = tmp("shuf-pipe-ds.json");
        let ckpt_off = tmp("shuf-pipe-off");
        let ckpt_aware = tmp("shuf-pipe-aware");
        let ckpt_hash = tmp("shuf-pipe-hash");
        for d in [&ckpt_off, &ckpt_aware, &ckpt_hash] {
            let _ = std::fs::remove_dir_all(d);
        }
        run(&format!(
            "gen movies --records 20000 --nodes 8 --block-kb 64 --out {ds}"
        ))
        .unwrap();

        let digest_of = |s: &str| {
            s.split("digest ")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .to_string()
        };
        let off = run(&format!(
            "pipeline --dataset {ds} --subdataset 0 --ckpt {ckpt_off}"
        ))
        .unwrap();
        assert!(!off.contains("shuffle ["), "{off}");
        let aware = run(&format!(
            "pipeline --dataset {ds} --subdataset 0 --ckpt {ckpt_aware} --shuffle aware"
        ))
        .unwrap();
        assert!(
            aware.contains("shuffle [aware]: 32 key range(s)"),
            "{aware}"
        );
        let hash = run(&format!(
            "pipeline --dataset {ds} --subdataset 0 --ckpt {ckpt_hash} --shuffle hash"
        ))
        .unwrap();
        assert!(hash.contains("shuffle [hash]"), "{hash}");
        // Routing may move bytes, never answers: all three digests agree.
        assert_eq!(digest_of(&off), digest_of(&aware));
        assert_eq!(digest_of(&off), digest_of(&hash));

        let _ = std::fs::remove_file(&ds);
        for d in [&ckpt_off, &ckpt_aware, &ckpt_hash] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn simulate_rejects_unknown_job() {
        let ds = tmp("dsx.json");
        run(&format!(
            "gen github --records 5000 --nodes 4 --block-kb 64 --out {ds}"
        ))
        .unwrap();
        let err = run(&format!(
            "simulate --dataset {ds} --subdataset 1 --job bogus"
        ));
        assert!(err.is_err());
        let _ = std::fs::remove_file(&ds);
    }

    #[test]
    fn serve_runs_standalone_and_feeds_the_dashboard() {
        let json = tmp("serve-report.json");
        let snap = tmp("serve-metrics.json");
        let s = run(&format!(
            "serve --tenants 3 --queries 24 --records 400 --nodes 4 --subdatasets 4 \
             --seed 7 --ingest-at 8 --lose-node 2@12 --json {json} --metrics {snap}"
        ))
        .unwrap();
        assert!(
            s.contains("served 24 query(ies) from 3 tenant(s), skewed mix, 2 event(s)"),
            "{s}"
        );
        assert!(s.contains("plan cache:"), "{s}");
        assert!(s.contains("tenant"), "{s}");
        assert!(s.contains("timing ("), "{s}");

        // The JSON report is the full ServeReport: one outcome per query.
        let doc = serde_json::parse_value(&std::fs::read(&json).unwrap()).unwrap();
        let outcomes = doc
            .get("answers")
            .and_then(|a| a.get("outcomes"))
            .expect("answers.outcomes present");
        assert!(
            matches!(outcomes, Value::Array(o) if o.len() == 24),
            "{doc:?}"
        );

        // The metrics snapshot surfaces per-tenant rows in `datanet top`.
        let top = run(&format!("top {snap}")).unwrap();
        assert!(top.contains("serving plane:"), "{top}");
        assert!(top.contains("t0"), "{top}");
        assert!(top.contains("admitted"), "{top}");

        let _ = std::fs::remove_file(&json);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn serve_answers_are_worker_independent_and_flags_validate() {
        let j1 = tmp("serve-w1.json");
        let j2 = tmp("serve-w6.json");
        let common = "serve --tenants 2 --queries 16 --records 300 --nodes 4 \
                      --subdatasets 3 --seed 11 --mix adversarial";
        run(&format!("{common} --workers 1 --json {j1}")).unwrap();
        run(&format!(
            "{common} --workers 6 --schedule-seed 99 --json {j2}"
        ))
        .unwrap();
        let a1 = serde_json::parse_value(&std::fs::read(&j1).unwrap()).unwrap();
        let a2 = serde_json::parse_value(&std::fs::read(&j2).unwrap()).unwrap();
        assert_eq!(
            a1.get("answers"),
            a2.get("answers"),
            "canonical answers moved with worker count"
        );
        assert_ne!(a1.get("timing"), a2.get("timing"));

        for bad in [
            "serve --mix sideways",
            "serve --qps 0",
            "serve --quantum-kb 0",
            "serve --lose-node 2",
            "serve --planner bogus",
            "serve --ingest-at 3 --ingest-blocks 0",
            "serve --nodes 4 --lose-node 4@3",
        ] {
            let err = run(bad).unwrap_err();
            assert!(matches!(err, CliError::Args(_)), "{bad}: {err}");
        }

        let _ = std::fs::remove_file(&j1);
        let _ = std::fs::remove_file(&j2);
    }

    /// Regression: each of these reached a library assert and exited 101
    /// instead of printing a usage error. Every command that declares one
    /// of the flags is run, on an otherwise valid command line, with each
    /// out-of-range value.
    #[test]
    fn out_of_range_numeric_flags_are_usage_errors() {
        let ds = tmp("range-ds.json");
        let meta = tmp("range-meta");
        let ckpt = tmp("range-ckpt");
        run(&format!(
            "gen movies --records 2000 --nodes 4 --block-kb 16 --out {ds}"
        ))
        .unwrap();
        let valid = |name: &str| match name {
            "gen" => format!("gen movies --records 500 --out {}", tmp("range-gen.json")),
            "scan" | "ingest" => format!("{name} --dataset {ds} --meta {meta}"),
            "simulate" => format!("simulate --dataset {ds} --subdataset 0"),
            "pipeline" => format!("pipeline --dataset {ds} --subdataset 0 --ckpt {ckpt}"),
            "serve" => "serve --tenants 1 --queries 2 --records 300 --nodes 4".to_string(),
            other => panic!("give `{other}` a valid command line here"),
        };
        let bad = [
            ("shard-blocks", &["0"][..]),
            ("nodes", &["0"]),
            ("block-kb", &["0"]),
            ("records", &["0"]),
            ("alpha", &["7", "nan", "-1"]),
        ];
        let mut runs = 0;
        for &(name, _, _, values, _, _) in COMMANDS {
            for &(flag, wrong) in &bad {
                if !values.split_whitespace().any(|v| v == flag) {
                    continue;
                }
                for value in wrong {
                    let line = format!("{} --{flag} {value}", valid(name));
                    match run(&line) {
                        Err(CliError::Args(e)) => assert!(e.0.contains(flag), "{line}: {e}"),
                        other => panic!("{line}: expected a usage error, got {other:?}"),
                    }
                    runs += 1;
                }
            }
        }
        assert_eq!(runs, 23, "a command gained or lost one of the flags");
        for path in [&meta, &ckpt] {
            assert!(!Path::new(path).exists(), "{path} was written");
        }
        let _ = std::fs::remove_file(&ds);
    }
}
