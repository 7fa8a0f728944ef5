//! Fault-injection sweep: how gracefully each scheduler degrades as nodes
//! crash mid-selection, and how the metadata plane degrades as ElasticMap
//! shards are corrupted or lost.
//!
//! **Crash sweep.** For each failure rate, random fault plans (node 0
//! always survives) are injected into the selection phase under the
//! locality baseline, DataNet with oracle crash notification, and DataNet
//! with the EWMA failure detector. Reported per rate, averaged over seeds:
//!
//! * bytes recovered (credited / sub-dataset total — < 100% only when every
//!   replica of some block died or the retry budget ran out);
//! * post-failure workload imbalance across the *survivors*;
//! * phase end, recovery time (first crash → completion) and mean
//!   crash→suspicion detection latency (detector rows only);
//! * re-executed tasks and wasted re-read bytes.
//!
//! **Corruption sweep.** For each corruption rate, a fraction of shards is
//! damaged in a freshly persisted 2-replica store: some lose only their
//! primary copy (scrub repairs them), some lose every full copy but keep
//! summaries (rung 2), and some lose everything (rung 3, quarantined). The
//! run then selects through `Exec::selection_resilient` and reports the
//! degradation-ladder rung mix, the Equation 6 estimate error and the bytes
//! recovered.
//!
//! ```text
//! faults [--quick] [--json OUT] [--trace OUT]
//! ```
//!
//! `--quick` shrinks both sweeps (two rates, two seeds) for CI.
//! `--json PATH` additionally writes both sweeps as a JSON report (the CI
//! degraded-mode smoke job uploads this as an artifact). `--trace PATH`
//! re-runs one representative detector run (highest crash rate, seed 0)
//! with the observability recorder attached, writes the Chrome trace for
//! Perfetto, and embeds the condensed `ObsSummary` in the JSON report (the
//! CI trace-smoke job gates on both).

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use datanet::store::MetaStore;
use datanet_bench::{usage_error, Fixtures, Flags, Table, NODES};
use datanet_cluster::{DetectorConfig, FaultPlan, SimTime};
use datanet_mapreduce::{
    DataNetScheduler, Exec, FaultConfig, LocalityScheduler, MapScheduler, SelectionConfig,
    SelectionOutcome,
};
use datanet_obs::{ObsSummary, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

const USAGE: &str = "faults [--quick] [--json OUT] [--trace OUT]";

const SHARD_BLOCKS: usize = 4;

fn survivor_imbalance(out: &SelectionOutcome) -> f64 {
    let survivors: Vec<f64> = out
        .per_node_bytes
        .iter()
        .enumerate()
        .filter(|(n, _)| !out.faults.crashed_nodes.contains(n))
        .map(|(_, &b)| b as f64)
        .collect();
    let mean = survivors.iter().sum::<f64>() / survivors.len() as f64;
    if mean == 0.0 {
        return 1.0;
    }
    survivors.iter().cloned().fold(0.0, f64::max) / mean
}

#[derive(Default, Serialize)]
struct CrashRow {
    rate: f64,
    scheduler: String,
    recovered: f64,
    survivor_imbalance: f64,
    phase_secs: f64,
    recovery_secs: f64,
    detection_secs: f64,
    reexecuted: f64,
    wasted_mb: f64,
}

#[derive(Default, Serialize)]
struct CorruptionRow {
    rate: f64,
    shards: usize,
    repaired: f64,
    quarantined: f64,
    rung_exact: f64,
    rung_bloom: f64,
    rung_fallback: f64,
    est_error: f64,
    recovered: f64,
    phase_secs: f64,
}

struct FaultsReport {
    nodes: u32,
    seeds: u64,
    crash_sweep: Vec<CrashRow>,
    corruption_sweep: Vec<CorruptionRow>,
    obs: Option<ObsSummary>,
}

// Hand-written so `obs: None` is omitted entirely: without `--trace` the
// JSON report must stay byte-identical to what pre-observability CI
// archived (the vendored serde derive would emit `"obs":null`).
impl Serialize for FaultsReport {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("nodes".to_string(), self.nodes.to_value()),
            ("seeds".to_string(), self.seeds.to_value()),
            ("crash_sweep".to_string(), self.crash_sweep.to_value()),
            (
                "corruption_sweep".to_string(),
                self.corruption_sweep.to_value(),
            ),
        ];
        if let Some(obs) = &self.obs {
            entries.push(("obs".to_string(), obs.to_value()));
        }
        Value::Object(entries)
    }
}

/// Damage `count` shards of a freshly saved 2-replica store. Fate cycles
/// deterministically: primary-copy corruption (repairable), all-replica
/// full-copy loss (rung 2) and full loss including summaries (rung 3).
fn damage_shards(dirs: &[PathBuf], shards: usize, count: usize, rng: &mut StdRng) {
    let mut chosen = BTreeSet::new();
    while chosen.len() < count.min(shards) {
        chosen.insert(rng.gen_range(0..shards));
    }
    for (k, &i) in chosen.iter().enumerate() {
        let shard = format!("shard-{i:04}.json");
        match k % 3 {
            0 => {
                // Repairable: primary copy only, replica stays healthy.
                fs::write(dirs[0].join(&shard), b"bitrot").unwrap();
            }
            1 => {
                // Rung 2: every full copy gone, summaries intact.
                for d in dirs {
                    let _ = fs::remove_file(d.join(&shard));
                }
            }
            _ => {
                // Rung 3: nothing left of this shard anywhere.
                for d in dirs {
                    let _ = fs::remove_file(d.join(&shard));
                    let _ = fs::remove_file(d.join(format!("summary-{i:04}.json")));
                }
            }
        }
    }
}

fn main() {
    let flags = Flags::from_env(USAGE, &["quick"], &["json", "trace"]);
    if let [stray, ..] = flags.positional() {
        usage_error(USAGE, &format!("unexpected argument `{stray}`"));
    }
    let f = Fixtures::default();
    let (dfs, hot, truth, array, view) = (f.dfs(), f.hot(), f.truth(), f.array(), f.view());
    let total = dfs.subdataset_total(hot) as f64;
    let sel = SelectionConfig::default();

    // Fault horizon: crashes land inside the healthy phase.
    let horizon = SimTime::from_micros(f.without().end.as_micros().max(1));

    let (rates, seeds): (&[f64], u64) = if flags.switch("quick") {
        (&[0.0, 0.25], 2)
    } else {
        (&[0.0, 0.1, 0.2, 0.3, 0.4, 0.5], 5)
    };

    let run = |rate: f64,
               name: &str,
               detect: bool,
               mk: &mut dyn FnMut() -> Box<dyn MapScheduler>|
     -> CrashRow {
        let mut acc = CrashRow {
            rate,
            scheduler: name.to_string(),
            ..CrashRow::default()
        };
        let mut detections = 0usize;
        for seed in 0..seeds {
            let plan = FaultPlan::random(NODES as usize, 0xFA01 + seed, rate, horizon);
            let faults = if detect {
                FaultConfig::with_detection(plan, DetectorConfig::default())
            } else {
                FaultConfig::new(plan)
            };
            let mut sched = mk();
            let out = Exec::default()
                .faults(&faults)
                .selection(dfs, truth, sched.as_mut(), &sel);
            acc.recovered += out.per_node_bytes.iter().sum::<u64>() as f64 / total;
            acc.survivor_imbalance += survivor_imbalance(&out);
            acc.phase_secs += out.end.as_secs_f64();
            acc.recovery_secs += out.faults.recovery_secs;
            acc.reexecuted += out.faults.reexecuted_tasks as f64;
            acc.wasted_mb += out.faults.wasted_bytes_read as f64 / (1024.0 * 1024.0);
            acc.detection_secs += out.faults.detection_latency_secs.iter().sum::<f64>();
            detections += out.faults.detection_latency_secs.len();
        }
        let n = seeds as f64;
        acc.recovered /= n;
        acc.survivor_imbalance /= n;
        acc.phase_secs /= n;
        acc.recovery_secs /= n;
        acc.reexecuted /= n;
        acc.wasted_mb /= n;
        acc.detection_secs = if detections == 0 {
            0.0
        } else {
            acc.detection_secs / detections as f64
        };
        acc
    };

    println!("== Fault sweep: crash rate vs recovery ({NODES} nodes, {seeds} seeds/rate) ==");
    let mut t = Table::new([
        "crash rate",
        "sched",
        "recovered",
        "survivor max/avg",
        "phase (s)",
        "recovery (s)",
        "detect (s)",
        "re-exec tasks",
        "wasted MB",
    ]);
    let mut crash_sweep = Vec::new();
    for &rate in rates {
        let rows = [
            run(rate, "locality", false, &mut || {
                Box::new(LocalityScheduler::new(dfs))
            }),
            run(rate, "datanet", false, &mut || {
                Box::new(DataNetScheduler::new(dfs, view))
            }),
            run(rate, "datanet-det", true, &mut || {
                Box::new(DataNetScheduler::new(dfs, view))
            }),
        ];
        for a in rows {
            t.row([
                format!("{rate:.2}"),
                a.scheduler.clone(),
                format!("{:.1}%", a.recovered * 100.0),
                format!("{:.3}", a.survivor_imbalance),
                format!("{:.2}", a.phase_secs),
                format!("{:.2}", a.recovery_secs),
                format!("{:.3}", a.detection_secs),
                format!("{:.1}", a.reexecuted),
                format!("{:.1}", a.wasted_mb),
            ]);
            crash_sweep.push(a);
        }
    }
    t.print();

    println!("\n== Metadata corruption sweep: shard damage vs degradation ladder ==");
    let mut t = Table::new([
        "corrupt rate",
        "shards",
        "repaired",
        "quarantined",
        "rung1 blocks",
        "rung2 blocks",
        "rung3 blocks",
        "est err",
        "recovered",
        "phase (s)",
    ]);
    let mut corruption_sweep = Vec::new();
    for &rate in rates {
        let mut acc = CorruptionRow {
            rate,
            ..CorruptionRow::default()
        };
        for seed in 0..seeds {
            let dirs: Vec<PathBuf> = (0..2)
                .map(|r| {
                    let d = std::env::temp_dir().join(format!(
                        "datanet-faults-{}-{rate}-{seed}-r{r}",
                        std::process::id()
                    ));
                    let _ = fs::remove_dir_all(&d);
                    d
                })
                .collect();
            MetaStore::save_replicated(array, &[&dirs[0], &dirs[1]], SHARD_BLOCKS).unwrap();
            let mut store = MetaStore::open_replicated(&[&dirs[0], &dirs[1]], 8).unwrap();
            let shards = store.manifest().shard_count();
            acc.shards = shards;
            let mut rng = StdRng::seed_from_u64(0xC0FF + seed);
            damage_shards(
                &dirs,
                shards,
                (rate * shards as f64).ceil() as usize,
                &mut rng,
            );

            let scrubbed = store.scrub();
            let out = Exec::default().selection_resilient(dfs, hot, &mut store, &sel);
            acc.repaired += scrubbed.repaired as f64;
            acc.quarantined += scrubbed.quarantined.len() as f64;
            acc.rung_exact += out.meta.rungs.exact as f64;
            acc.rung_bloom += out.meta.rungs.bloom as f64;
            acc.rung_fallback += out.meta.rungs.fallback as f64;
            acc.est_error += out.meta.est_error;
            acc.recovered += out.per_node_bytes.iter().sum::<u64>() as f64 / total;
            acc.phase_secs += out.end.as_secs_f64();
            for d in &dirs {
                let _ = fs::remove_dir_all(d);
            }
        }
        let n = seeds as f64;
        acc.repaired /= n;
        acc.quarantined /= n;
        acc.rung_exact /= n;
        acc.rung_bloom /= n;
        acc.rung_fallback /= n;
        acc.est_error /= n;
        acc.recovered /= n;
        acc.phase_secs /= n;
        t.row([
            format!("{rate:.2}"),
            format!("{}", acc.shards),
            format!("{:.1}", acc.repaired),
            format!("{:.1}", acc.quarantined),
            format!("{:.1}", acc.rung_exact),
            format!("{:.1}", acc.rung_bloom),
            format!("{:.1}", acc.rung_fallback),
            format!("{:.4}", acc.est_error),
            format!("{:.1}%", acc.recovered * 100.0),
            format!("{:.2}", acc.phase_secs),
        ]);
        corruption_sweep.push(acc);
    }
    t.print();
    println!(
        "\nDataNet re-plans lost work by ElasticMap weight: its survivor imbalance stays\n\
         near the fault-free optimum while the locality baseline degrades with luck of\n\
         the surviving replicas. The detector rows pay a crash→suspicion latency but\n\
         match the oracle's recovery guarantees. Under shard damage the ladder steps\n\
         down — repairable copies are scrubbed back to rung 1, summary-only shards\n\
         answer on rung 2 and quarantined shards fall back to a rung-3 locality scan —\n\
         and every byte is still credited exactly once."
    );

    // One representative run under the recorder: the detector scheduler at
    // the highest swept crash rate, seed 0 — the full
    // crash → suspicion → re-plan lifecycle on one Perfetto timeline.
    let mut obs = None;
    if let Some(path) = flags.path_flag("trace") {
        let rate = rates.last().copied().unwrap_or(0.5).max(0.25);
        let plan = FaultPlan::random(NODES as usize, 0xFA01, rate, horizon);
        let faults = FaultConfig::with_detection(plan, DetectorConfig::default());
        let rec = Recorder::new();
        let mut sched = DataNetScheduler::new(dfs, view);
        let out = Exec::default()
            .rec(&rec)
            .faults(&faults)
            .selection(dfs, truth, &mut sched, &sel);
        let data = rec.take();
        let summary = data.summary(None);
        fs::write(path, data.to_chrome_json()).unwrap();
        println!(
            "\nwrote Chrome trace to {} ({} spans, {} crash chain(s), {} unclosed, \
             {} straggler(s) / {} idler(s) over {} survivors)",
            path.display(),
            summary.spans,
            summary.crash_chains.len(),
            summary.unclosed_spans,
            summary.stragglers.len(),
            summary.idlers.len(),
            NODES as usize - out.faults.crashed_nodes.len(),
        );
        obs = Some(summary);
    }

    if let Some(path) = flags.path_flag("json") {
        let report = FaultsReport {
            nodes: NODES,
            seeds,
            crash_sweep,
            corruption_sweep,
            obs,
        };
        fs::write(path, serde_json::to_vec_pretty(&report).unwrap()).unwrap();
        println!("\nwrote JSON report to {}", path.display());
    }
}
