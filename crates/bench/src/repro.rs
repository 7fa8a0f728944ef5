//! The paper record: every table and figure of Section V plus the
//! extension studies, one section each, in paper order, and the fault
//! sweeps last.
//!
//! [`repro`] with no section named writes every section of [`SECTIONS`]
//! under a `######## name ########` header; that output, which `datanet
//! repro` prints, is `repro_output.txt`, byte for byte
//! (`crates/bench/tests/repro.rs`). Naming sections writes exactly those
//! slices of it. The sections share one [`Fixtures`] value, so the movie
//! dataset, its meta-data and the two selections the figures compare are
//! each built once per run.

use crate::{github_dataset, Fixtures, Table, NODES};
use datanet::planner::BalancePolicy;
use datanet::store::MetaStore;
use datanet::{
    plan_aggregation, AggregationPlan, Algorithm1, ElasticMap, ElasticMapArray,
    FordFulkersonPlanner, MemoryModel, Separation,
};
use datanet_analytics::profiles::{
    histogram_profile, moving_average_profile, top_k_profile, word_count_profile,
};
use datanet_cluster::{DetectorConfig, FaultPlan, NodeSpec, SimTime};
use datanet_mapreduce::{
    capability_of, rebalance, run_analysis, run_selection, speculative_map_phase,
    speculative_map_phase_with_slowdowns, total_secs, AnalysisConfig, DataNetScheduler,
    DelayScheduler, Exec, FaultConfig, LocalityScheduler, MapScheduler, PlannedScheduler,
    SelectionConfig, SelectionOutcome, SpeculationConfig,
};
use datanet_stats::{GammaDist, ImbalanceModel};
use datanet_workloads::EventType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

/// `(name, what it reproduces, body)`.
pub type Section = (
    &'static str,
    &'static str,
    fn(&Fixtures, &mut dyn Write) -> io::Result<()>,
);

/// Paper order, extension studies after the paper's own, the fault sweeps
/// last. EXPERIMENTS.md indexes exactly these names.
pub const SECTIONS: [Section; 18] = [
    ("fig1", "Figure 1: the motivating imbalance", fig1),
    ("fig2", "Figure 2: the Gamma tail-probability model", fig2),
    (
        "table1",
        "Table I: sub-dataset sizes within one block",
        table1,
    ),
    (
        "fig5",
        "Figure 5: the four jobs with and without DataNet",
        fig5,
    ),
    ("fig6", "Figure 6: map execution times", fig6),
    ("fig7", "Figure 7: shuffle execution times", fig7),
    ("fig8", "Figure 8: the GitHub event log", fig8),
    ("table2", "Table II: ElasticMap accuracy vs memory", table2),
    ("fig9", "Figure 9: per-sub-dataset estimate accuracy", fig9),
    ("fig10", "Figure 10: balance vs alpha", fig10),
    ("migration", "Section V-A-4: dynamic migration", migration),
    (
        "ablation",
        "extension: scheduler x meta-data grid",
        ablation,
    ),
    (
        "aggregation",
        "extension: aggregation planning",
        aggregation,
    ),
    ("hetero", "extension: heterogeneous clusters", hetero),
    (
        "speculation",
        "extension: speculative execution vs skew",
        speculation,
    ),
    (
        "amortization",
        "extension: one scan vs per-job migration",
        amortization,
    ),
    (
        "io_savings",
        "extension: I/O saved by block skipping",
        io_savings,
    ),
    (
        "faults",
        "extension: node crashes and shard corruption",
        faults,
    ),
];

/// Write the sections named in `wanted` (every section when it is empty)
/// in [`SECTIONS`] order, each under its header.
///
/// # Errors
/// An [`io::ErrorKind::InvalidInput`] error, before anything is written,
/// when a name in `wanted` is no section: it names that word, then every
/// section and what it reproduces. Otherwise only what writing to `out`
/// returns.
pub fn repro(wanted: &[&str], out: &mut dyn Write) -> io::Result<()> {
    if let Some(unknown) = (wanted.iter()).find(|w| !SECTIONS.iter().any(|(name, ..)| name == *w)) {
        let mut problem = format!("no section `{unknown}`; the sections are:");
        for (name, what, _) in SECTIONS {
            problem.push_str(&format!("\n  {name:<14}{what}"));
        }
        return Err(io::Error::new(io::ErrorKind::InvalidInput, problem));
    }
    let fixtures = Fixtures::default();
    for (name, _, section) in SECTIONS {
        if wanted.is_empty() || wanted.contains(&name) {
            writeln!(out, "\n######## {name} ########\n")?;
            section(&fixtures, out)?;
        }
    }
    Ok(())
}

/// A `block`/`kB` series table of the first `shown` blocks.
fn print_block_series(dist: &[u64], shown: usize, out: &mut dyn Write) -> io::Result<()> {
    let mut t = Table::new(["block", "kB"]);
    for (i, b) in dist.iter().take(shown).enumerate() {
        t.row([i.to_string(), format!("{:.1}", *b as f64 / 1024.0)]);
    }
    write!(out, "{}", t.render())
}

/// A per-node `without DataNet`/`with DataNet` workload table in kB.
fn print_node_workloads(
    without: &SelectionOutcome,
    with: &SelectionOutcome,
    out: &mut dyn Write,
) -> io::Result<()> {
    let mut t = Table::new(["node", "without DataNet", "with DataNet"]);
    for n in 0..NODES as usize {
        t.row([
            n.to_string(),
            format!("{:.1}", without.per_node_bytes[n] as f64 / 1024.0),
            format!("{:.1}", with.per_node_bytes[n] as f64 / 1024.0),
        ]);
    }
    write!(out, "{}", t.render())
}

/// Figure 1 — the motivating observation.
///
/// (a) Distribution of one movie's data over the first 128 HDFS blocks:
///     content clustering puts most of it in a contiguous minority of
///     blocks.
/// (b) Filtered-workload distribution over a 32-node cluster under
///     Hadoop's default block-locality scheduling: heavily imbalanced.
fn fig1(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (hot, dist) = (f.hot(), f.truth());

    writeln!(
        out,
        "== Figure 1(a): sub-dataset distribution over HDFS blocks =="
    )?;
    writeln!(out, "(movie {hot}, bytes per block, first 128 blocks)")?;
    print_block_series(dist, 128, out)?;
    let total: u64 = dist.iter().sum();
    let mut sorted = dist.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top30: u64 = sorted.iter().take(30).sum();
    writeln!(
        out,
        "top-30 blocks hold {:.1}% of the sub-dataset ({} blocks total)\n",
        100.0 * top30 as f64 / total as f64,
        dist.len()
    )?;

    writeln!(
        out,
        "== Figure 1(b): workload distribution over cluster nodes =="
    )?;
    writeln!(
        out,
        "(bytes of movie {hot} filtered onto each of {NODES} nodes, locality scheduling)"
    )?;
    let without = f.without();
    let mut t = Table::new(["node", "kB"]);
    for (n, b) in without.per_node_bytes.iter().enumerate() {
        t.row([n.to_string(), format!("{:.1}", *b as f64 / 1024.0)]);
    }
    write!(out, "{}", t.render())?;
    let s = without.workload_summary();
    writeln!(
        out,
        "min {:.1} kB  avg {:.1} kB  max {:.1} kB  (max/min = {:.1}x, max/avg = {:.2}x)",
        s.min() / 1024.0,
        s.mean() / 1024.0,
        s.max() / 1024.0,
        s.spread_ratio().unwrap_or(f64::INFINITY),
        without.imbalance()
    )
}

/// Figure 2 — the probability model of workload imbalance (Section II-B).
///
/// Left: tail probabilities P(Z < E/3), P(Z < E/2), P(Z > 2E), P(Z > 3E)
/// as the cluster grows (k = 1.2, θ = 7, n = 512 blocks).
/// Right: the Γ(k=1.2, θ=7) per-block density.
///
/// Also prints the expected node counts at m = 128 that the paper quotes.
fn fig2(_: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let model = ImbalanceModel::paper_example();

    writeln!(
        out,
        "== Figure 2 (left): tail probabilities vs cluster size =="
    )?;
    writeln!(out, "(Z ~ Γ(nk/m, θ), k=1.2, θ=7, n=512)")?;
    let sizes = [2, 4, 8, 16, 32, 64, 96, 128, 192, 256, 384, 512];
    let mut t = Table::new(["nodes", "P(Z<E/3)", "P(Z<E/2)", "P(Z>2E)", "P(Z>3E)"]);
    for row in model.series(sizes) {
        t.row([
            row.nodes.to_string(),
            format!("{:.4}", row.p_below_third),
            format!("{:.4}", row.p_below_half),
            format!("{:.4}", row.p_above_twice),
            format!("{:.4}", row.p_above_thrice),
        ]);
    }
    write!(out, "{}", t.render())?;

    writeln!(out, "\n== Figure 2 (right): Γ(1.2, 7) density ==")?;
    let g = GammaDist::new(1.2, 7.0);
    let mut t = Table::new(["x", "pdf"]);
    for i in 0..=30 {
        let x = i as f64;
        t.row([format!("{x:.0}"), format!("{:.4}", g.pdf(x))]);
    }
    write!(out, "{}", t.render())?;

    writeln!(out, "\n== Expected node counts at m = 128 ==")?;
    writeln!(
        out,
        "below E/3: {:.1} nodes   below E/2: {:.1} nodes   above 2E: {:.1} nodes   above 3E: {:.2} nodes",
        model.expected_nodes_below(128, 1.0 / 3.0),
        model.expected_nodes_below(128, 0.5),
        model.expected_nodes_above(128, 2.0),
        model.expected_nodes_above(128, 3.0),
    )?;
    writeln!(
        out,
        "(paper quotes 3.9 / 1.5 / 4.0; our E/3 and 2E values match 3.9 and 4.0 —\n\
         see EXPERIMENTS.md for the label discrepancy in the paper's text)"
    )
}

/// Table I — "The size information of movies within a block file": the
/// per-sub-dataset sizes an ElasticMap records for one block, largest
/// first.
fn table1(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let block = f.dfs().block(datanet_dfs::BlockId(0));
    let map = ElasticMap::build(block, &Separation::All);

    writeln!(out, "== Table I: movie sizes within block b0 ==")?;
    let mut entries: Vec<_> = map.exact_entries().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut t = Table::new(["movie id", "bytes", "# reviews (approx)"]);
    for (id, bytes) in entries.iter().take(15) {
        t.row([
            id.to_string(),
            bytes.to_string(),
            format!("{}", bytes / 600),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "... {} distinct movies in this one {} kB block",
        map.distinct(),
        block.bytes() / 1024
    )
}

/// Figure 5 — the headline comparison on the 32-node cluster.
///
/// (a) Overall execution time of the four analysis jobs with and without
///     DataNet (paper improvements: MovingAverage 20%, WordCount 39.1%,
///     Histogram 40.6%, TopKSearch 42%).
/// (b) Size of the target sub-dataset over HDFS blocks.
/// (c) Filtered workload over the 32 nodes, with and without DataNet.
fn fig5(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (without, with) = (f.without(), f.with());

    writeln!(
        out,
        "== Figure 5(a): overall execution time (s) of the four jobs =="
    )?;
    let ana = AnalysisConfig::default();
    let jobs = [
        moving_average_profile(),
        word_count_profile(),
        histogram_profile(),
        top_k_profile(),
    ];
    let mut t = Table::new([
        "job",
        "without DataNet",
        "with DataNet",
        "improvement",
        "cpu util (w/o -> w/)",
    ]);
    for job in &jobs {
        let jw = run_analysis(&without.per_node_bytes, job, &ana);
        let jd = run_analysis(&with.per_node_bytes, job, &ana);
        let impr = 100.0 * (1.0 - jd.makespan_secs / jw.makespan_secs);
        t.row([
            job.name.clone(),
            format!("{:.2}", jw.makespan_secs),
            format!("{:.2}", jd.makespan_secs),
            format!("{impr:.1}%"),
            format!(
                "{:.0}% -> {:.0}%",
                jw.util_summary().mean() * 100.0,
                jd.util_summary().mean() * 100.0
            ),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out, "(paper: 20% / 39.1% / 40.6% / 42%)\n")?;

    writeln!(
        out,
        "== Figure 5(b): size of data over HDFS blocks (kB, first 64 blocks) =="
    )?;
    print_block_series(f.truth(), 64, out)?;

    writeln!(
        out,
        "\n== Figure 5(c): workload after selection (kB per node) =="
    )?;
    print_node_workloads(without, with, out)?;
    writeln!(
        out,
        "imbalance (max/avg): without = {:.2}, with = {:.2}",
        without.imbalance(),
        with.imbalance()
    )?;
    writeln!(
        out,
        "blocks scanned: without = {} (all), with = {} (ElasticMap skips empty blocks)",
        without.total_tasks, with.total_tasks
    )
}

/// Figure 6 — map execution times on the filtered sub-dataset.
///
/// (a) Per-node Top-K Search map times on 32 nodes (paper: 5 s … 64 s
///     without DataNet).
/// (b) Moving Average min/avg/max map time.
/// (c) Word Count min/avg/max map time — a larger min–max gap than Moving
///     Average because "with greater computational requirements, the issue
///     of imbalance becomes more serious".
fn fig6(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (without, with) = (f.without(), f.with());
    let ana = AnalysisConfig::default();

    writeln!(out, "== Figure 6(a): Top-K Search map time per node (s) ==")?;
    let tw = run_analysis(&without.per_node_bytes, &top_k_profile(), &ana);
    let td = run_analysis(&with.per_node_bytes, &top_k_profile(), &ana);
    let mut t = Table::new(["node", "without DataNet", "with DataNet"]);
    for n in 0..NODES as usize {
        t.row([
            n.to_string(),
            format!("{:.3}", tw.map_secs[n]),
            format!("{:.3}", td.map_secs[n]),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "slowest/fastest map without DataNet: {:.3}s / {:.3}s ({:.1}x)",
        tw.map_summary().max(),
        tw.map_summary().min(),
        tw.map_summary().max() / tw.map_summary().min()
    )?;

    writeln!(out, "\n== Figure 6(b)(c): min/avg/max map time (s) ==")?;
    let mut t = Table::new(["job", "variant", "min", "avg", "max", "max-min gap"]);
    for profile in [moving_average_profile(), word_count_profile()] {
        for (name, filtered) in [
            ("without DataNet", &without.per_node_bytes),
            ("with DataNet", &with.per_node_bytes),
        ] {
            let rep = run_analysis(filtered, &profile, &ana);
            let s = rep.map_summary();
            t.row([
                profile.name.clone(),
                name.to_string(),
                format!("{:.3}", s.min()),
                format!("{:.3}", s.mean()),
                format!("{:.3}", s.max()),
                format!("{:.3}", s.max() - s.min()),
            ]);
        }
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "(the WordCount gap exceeds the MovingAverage gap — heavier compute\n\
         amplifies the same byte imbalance, as in the paper)"
    )
}

/// Figure 7 — shuffle-phase execution times.
///
/// "The shuffle phase starts whenever a map task is finished and ends when
/// all map tasks have been executed." With imbalanced maps, reducers sit
/// waiting for the straggler, so shuffle tasks take 4–5× longer without
/// DataNet.
fn fig7(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (without, with) = (f.without(), f.with());
    let ana = AnalysisConfig::default();

    writeln!(
        out,
        "== Figure 7: shuffle execution time (s), min/avg/max =="
    )?;
    let mut t = Table::new(["job", "variant", "min", "avg", "max"]);
    let mut ratios = Vec::new();
    for profile in [word_count_profile(), top_k_profile()] {
        let jw = run_analysis(&without.per_node_bytes, &profile, &ana);
        let jd = run_analysis(&with.per_node_bytes, &profile, &ana);
        for (name, rep) in [("without DataNet", &jw), ("with DataNet", &jd)] {
            let s = rep.shuffle_summary();
            t.row([
                profile.name.clone(),
                name.to_string(),
                format!("{:.3}", s.min()),
                format!("{:.3}", s.mean()),
                format!("{:.3}", s.max()),
            ]);
        }
        ratios.push((
            profile.name.clone(),
            jw.shuffle_summary().max() / jd.shuffle_summary().max().max(1e-9),
        ));
    }
    write!(out, "{}", t.render())?;
    for (job, r) in ratios {
        writeln!(
            out,
            "{job}: shuffle max without/with = {r:.1}x (paper: 4-5x)"
        )?;
    }
    Ok(())
}

/// Figure 8 — the GitHub event-log experiment (Section V-A-4).
///
/// (a) `IssueEvent` distribution over the first 128 blocks: imbalanced but
///     *not* content-clustered.
/// (b) Per-node workload under locality scheduling.
///
/// Plus the paper's headline numbers for this dataset: the longest Top-K
/// map time drops from 125 s to 107 s (a much smaller win than on the movie
/// data, because the distribution is less skewed).
fn fig8(_: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let dfs = github_dataset(NODES);
    let issue = EventType::Issue.id();
    let truth = dfs.subdataset_distribution(issue);

    writeln!(
        out,
        "== Figure 8(a): IssueEvent bytes over the first 128 blocks (kB) =="
    )?;
    print_block_series(&truth, 128, out)?;
    let nonzero = truth.iter().filter(|&&b| b > 0).count();
    writeln!(
        out,
        "present in {nonzero}/{} blocks (no content clustering, but imbalanced)\n",
        truth.len()
    )?;

    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(issue);
    let sel = SelectionConfig::default();
    let mut base = LocalityScheduler::new(&dfs);
    let without = run_selection(&dfs, &truth, &mut base, &sel);
    let mut dn = DataNetScheduler::new(&dfs, &view);
    let with = run_selection(&dfs, &truth, &mut dn, &sel);

    writeln!(out, "== Figure 8(b): IssueEvent workload per node (kB) ==")?;
    print_node_workloads(&without, &with, out)?;

    let ana = AnalysisConfig::default();
    let tw = run_analysis(&without.per_node_bytes, &top_k_profile(), &ana);
    let td = run_analysis(&with.per_node_bytes, &top_k_profile(), &ana);
    writeln!(
        out,
        "\nTop-K Search longest map: without = {:.3}s, with = {:.3}s ({:.1}% better)",
        tw.map_summary().max(),
        td.map_summary().max(),
        100.0 * (1.0 - td.map_summary().max() / tw.map_summary().max())
    )?;
    writeln!(
        out,
        "(paper: 125s -> 107s, i.e. 14.4% — \"the overall improvement is much\n\
         less than that of the movie dataset\" because IssueEvent is far less\n\
         clustered; imbalance comes only from mix drift)"
    )
}

/// Table II — efficiency of the ElasticMap: the α ↔ accuracy ↔
/// representation-ratio trade-off, measured on real structures and on the
/// Equation 5 model.
///
/// Paper row set: α ∈ {51, 40, 31, 25, 21}% → accuracy {97, 93, 88, 83,
/// 80}% and raw:meta ratios {1857 … 3497}. Ratios depend on the
/// records-per-block scale (the paper's 64 MB blocks hold 256× more
/// records than our scaled 256 kB blocks), so we print both the measured
/// scaled ratio and the Equation 5 model evaluated at the paper's block
/// size.
fn table2(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let dfs = f.dfs();
    let model = MemoryModel::default();

    writeln!(out, "== Table II: efficiency of ElasticMap ==")?;
    let mut t = Table::new([
        "alpha(req)",
        "alpha(achieved)",
        "accuracy chi",
        "ratio (measured, scaled)",
        "ratio (Eq.5 model @64MB)",
    ]);
    for &alpha in &[0.51, 0.40, 0.31, 0.25, 0.21] {
        let arr = ElasticMapArray::build(dfs, &Separation::Alpha(alpha));
        let maps = arr.to_maps();
        let achieved: f64 = maps.iter().map(|m| m.achieved_alpha()).sum::<f64>() / arr.len() as f64;
        let chi = arr.accuracy(dfs);
        let measured = arr.representation_ratio(dfs);
        // Equation 5 model at paper scale: 64 MB block; sub-dataset count
        // per block scaled up by the same 256× as the data volume.
        let mean_distinct: f64 =
            maps.iter().map(|m| m.distinct() as f64).sum::<f64>() / arr.len() as f64;
        let model_ratio =
            model.representation_ratio(64 * 1024 * 1024, (mean_distinct * 256.0) as usize, alpha);
        t.row([
            format!("{:.0}%", alpha * 100.0),
            format!("{:.0}%", achieved * 100.0),
            format!("{:.1}%", chi * 100.0),
            format!("{measured:.0}"),
            format!("{model_ratio:.0}"),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\ntrends to compare with the paper: accuracy falls and the\n\
         representation ratio rises as alpha decreases."
    )
}

/// Figure 9 — per-sub-dataset accuracy of the ElasticMap estimate.
///
/// For movies ordered by (descending) size: the Equation 6 estimate vs the
/// actual size. Large sub-datasets are dominant in most blocks (recorded
/// exactly) so their estimates are tight; sub-datasets below the ~32 MB
/// analogue live mostly in bloom filters and deviate more — yet "as these
/// sub-datasets have little data, there will be a lower probability for
/// them to cause imbalanced computing".
fn fig9(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (dfs, arr) = (f.dfs(), f.array());
    let ranked = f.catalog().by_size_desc();

    writeln!(
        out,
        "== Figure 9: estimate vs actual per movie, ordered by size =="
    )?;
    writeln!(
        out,
        "(top 30 movies, then every 50th rank into the long tail)"
    )?;
    let mut t = Table::new(["rank", "movie", "actual kB", "estimated kB", "accuracy"]);
    let mut large_accs = Vec::new();
    let mut small_accs = Vec::new();
    for rank in (0..30).chain((30..ranked.len()).step_by(50)) {
        let (movie, actual) = ranked[rank];
        if actual == 0 {
            continue;
        }
        let view = arr.view(movie);
        let est = view.estimated_total();
        let acc = view.accuracy(dfs).expect("movie exists");
        t.row([
            (rank + 1).to_string(),
            movie.to_string(),
            format!("{:.1}", actual as f64 / 1024.0),
            format!("{:.1}", est as f64 / 1024.0),
            format!("{:.1}%", acc * 100.0),
        ]);
        // Scaled analogue of the paper's 32 MB threshold: 32 MB / 256 = 128 kB.
        if actual >= 128 * 1024 {
            large_accs.push(acc);
        } else {
            small_accs.push(acc);
        }
    }
    write!(out, "{}", t.render())?;

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    writeln!(
        out,
        "\nmean accuracy: movies >= 128 kB (paper's 32 MB analogue): {:.1}%  |  smaller movies: {:.1}%",
        mean(&large_accs) * 100.0,
        mean(&small_accs) * 100.0
    )?;
    writeln!(
        out,
        "(the paper's trend: accuracy degrades below the size threshold)"
    )
}

/// Figure 10 — degree of balanced computing vs α.
///
/// Sweeps the hash-map fraction α from 10% to 100% and reports the
/// max/min/avg per-node workload (normalised by the maximum) plus the
/// standard deviation. The paper's finding: "with only about 15% of the
/// sub-datasets recorded in the hash map, DataNet is able to achieve a
/// satisfactory workload balance … changing the percentage from 15 to 100
/// will have little effect".
fn fig10(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (dfs, hot, truth) = (f.dfs(), f.hot(), f.truth());
    let sel = SelectionConfig::default();

    writeln!(
        out,
        "== Figure 10: workload balance vs alpha (normalised by max) =="
    )?;
    let mut t = Table::new(["alpha", "max", "min", "avg", "std dev"]);
    for pct in (10..=100).step_by(5) {
        let alpha = pct as f64 / 100.0;
        let view = ElasticMapArray::build(dfs, &Separation::Alpha(alpha)).view(hot);
        let mut dn = DataNetScheduler::new(dfs, &view);
        let selected = run_selection(dfs, truth, &mut dn, &sel);
        let s = selected.workload_summary();
        let norm = s.max();
        t.row([
            format!("{pct}%"),
            format!("{:.2}", s.max() / norm),
            format!("{:.2}", s.min() / norm),
            format!("{:.2}", s.mean() / norm),
            format!("{:.3}", s.std_dev() / norm),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "(compare the paper: max ~0.9, min ~0.7, flat from alpha = 15% upward;\n\
         normalisation here is by each row's max)"
    )
}

/// Section V-A-4 — the dynamic-migration (SkewTune-like) alternative.
///
/// "With the example without DataNet in Figure 5(c), we find that almost
/// every cluster node will transfer or receive sub-datasets and the overall
/// percentage of data migration is more than 30%."
///
/// Rebalances the locality scheduler's skewed partitions by migration,
/// reports the migrated fraction and time, and compares the end-to-end
/// path against DataNet's proactive balancing.
fn migration(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (without, with) = (f.without(), f.with());
    let ana = AnalysisConfig::default();

    let mig = rebalance(&without.per_node_bytes, &NodeSpec::marmot());
    writeln!(out, "== Dynamic migration after an imbalanced selection ==")?;
    writeln!(
        out,
        "migrated bytes: {} of {} ({:.1}%), touching {} of {NODES} nodes",
        mig.moved_bytes,
        without.per_node_bytes.iter().sum::<u64>(),
        mig.fraction * 100.0,
        mig.nodes_touched,
    )?;
    writeln!(out, "migration wall time: {:.3}s", mig.migration_secs)?;
    writeln!(
        out,
        "(paper: \"more than 30%\" of the data migrates, touching almost every node)\n"
    )?;

    // End-to-end WordCount comparison across the three strategies.
    let job = word_count_profile();
    let j_without = run_analysis(&without.per_node_bytes, &job, &ana);
    let j_migrated = run_analysis(&mig.balanced, &job, &ana);
    let j_with = run_analysis(&with.per_node_bytes, &job, &ana);

    let mut t = Table::new([
        "strategy",
        "selection (s)",
        "extra (s)",
        "job (s)",
        "total (s)",
    ]);
    let rows = [
        (
            "locality (no fix)",
            without.end.as_secs_f64(),
            0.0,
            j_without.makespan_secs,
        ),
        (
            "locality + migration",
            without.end.as_secs_f64(),
            mig.migration_secs,
            j_migrated.makespan_secs,
        ),
        (
            "DataNet (proactive)",
            with.end.as_secs_f64(),
            0.0,
            j_with.makespan_secs,
        ),
    ];
    for (name, sel_s, extra, job_s) in rows {
        t.row([
            name.to_string(),
            format!("{sel_s:.3}"),
            format!("{extra:.3}"),
            format!("{job_s:.3}"),
            format!("{:.3}", sel_s + extra + job_s),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nDataNet foresees the imbalance and avoids both the migration traffic\n\
         and the runtime monitoring the reactive approach needs."
    )
}

/// Ablation: where does DataNet's balance come from, and what does each
/// design choice cost?
///
/// Compares, on the Figure 5 workload:
/// * Hadoop locality scheduling (baseline);
/// * Algorithm 1 with perfect meta-data (`Separation::All`);
/// * Algorithm 1 with the paper's α = 0.3 ElasticMap;
/// * Algorithm 1 with bloom-only meta-data (α = 0);
/// * the Ford–Fulkerson optimal plan with perfect meta-data.
fn ablation(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (dfs, hot, truth) = (f.dfs(), f.hot(), f.truth());
    let cfg = SelectionConfig::default();

    let mut t = Table::new([
        "scheduler",
        "meta-data",
        "imbalance (max/avg)",
        "max/min",
        "gini",
        "locality",
        "blocks read",
    ]);

    let mut report = |name: &str, meta: &str, out: &SelectionOutcome| {
        let s = out.workload_summary();
        t.row([
            name.to_string(),
            meta.to_string(),
            format!("{:.3}", out.imbalance()),
            format!("{:.2}", s.spread_ratio().unwrap_or(f64::INFINITY)),
            format!("{:.3}", out.gini()),
            format!("{:.0}%", out.locality_fraction() * 100.0),
            out.total_tasks.to_string(),
        ]);
    };

    report("locality (Hadoop)", "none", f.without());

    // Delay scheduling fixes locality, not distribution: same imbalance.
    let mut delay = DelayScheduler::new(dfs, 3);
    let o = run_selection(dfs, truth, &mut delay, &cfg);
    report("delay scheduling", "none", &o);

    let exact = ElasticMapArray::build(dfs, &Separation::All).view(hot);
    let bloom_only = ElasticMapArray::build(dfs, &Separation::BloomOnly).view(hot);
    for (label, view) in [
        ("exact (All)", &exact),
        ("alpha=0.3", f.view()),
        ("bloom-only", &bloom_only),
    ] {
        let mut dn = DataNetScheduler::new(dfs, view);
        let o = run_selection(dfs, truth, &mut dn, &cfg);
        report("algorithm 1 (paced)", label, &o);
    }

    // The paper's literal best-fit-to-terminal-target rule, for contrast.
    let mut literal = DataNetScheduler::with_policy(dfs, f.view(), BalancePolicy::BestFitTerminal);
    let o = run_selection(dfs, truth, &mut literal, &cfg);
    report("algorithm 1 (best-fit literal)", "alpha=0.3", &o);

    let plan = FordFulkersonPlanner::new(dfs, &exact).plan();
    let mut ff = PlannedScheduler::new(&plan, dfs.namenode());
    let o = run_selection(dfs, truth, &mut ff, &cfg);
    report("ford-fulkerson", "exact (All)", &o);

    write!(out, "{}", t.render())
}

/// Aggregation-traffic extension (the future work of Section IV-B, built):
/// with the sub-dataset distribution known, reducer *placement* and
/// partition *shares* can be chosen to minimise shuffle traffic.
///
/// Compares, for WordCount over the hot movie:
/// * Hadoop default — one reducer per node, uniform hash shares;
/// * placement only — R reducers on the data-richest nodes, uniform shares;
/// * placement + weighted shares (bounded reduce-side skew).
fn aggregation(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    // Use the *imbalanced* locality selection: aggregation planning pays
    // off exactly when intermediate data is concentrated on a few nodes
    // (after DataNet's balanced selection there is little to win — both
    // plans are evaluated in `tests/` for that case).
    let selection = f.without();
    let job = word_count_profile();
    let cfg = AnalysisConfig::default();
    let outputs: Vec<u64> = selection
        .per_node_bytes
        .iter()
        .map(|&b| job.map_output_bytes(b))
        .collect();

    let reducers = 8usize;
    let default_plan = AggregationPlan::uniform(NODES as usize);
    let placed = plan_aggregation(&outputs, reducers, 1.0);
    let weighted = plan_aggregation(&outputs, reducers, 2.0);

    writeln!(
        out,
        "== Aggregation planning: shuffle traffic and job time =="
    )?;
    let mut t = Table::new([
        "strategy",
        "reducers",
        "shuffle kB",
        "shuffle max (s)",
        "job makespan (s)",
    ]);
    for (name, plan) in [
        ("hadoop default (uniform)", &default_plan),
        ("placement only", &placed),
        ("placement + weighted shares", &weighted),
    ] {
        let rep = Exec::default().analysis(&selection.per_node_bytes, &job, &cfg, plan, None);
        t.row([
            name.to_string(),
            plan.reducers.len().to_string(),
            format!("{:.1}", rep.shuffle_bytes as f64 / 1024.0),
            format!("{:.4}", rep.shuffle_summary().max()),
            format!("{:.4}", rep.makespan_secs),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nreduce-side skew accepted by the weighted plan: {:.2}x uniform",
        weighted.reduce_imbalance()
    )
}

/// Heterogeneous clusters — Section IV-B's "according to the computing
/// capability of computational nodes, we can calculate the amount of
/// sub-datasets to be assigned to each node", made concrete.
///
/// Half the cluster runs 2× faster CPUs (a realistic mixed-generation
/// fleet). Three schedules for the Top-K job over the hot movie:
/// * Hadoop locality (content- and capability-oblivious);
/// * DataNet with uniform targets (balances bytes — wrong goal here);
/// * DataNet with capability-proportional targets (balances *time*).
fn hetero(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (dfs, truth, view) = (f.dfs(), f.truth(), f.view());
    let job = top_k_profile();

    // Mixed fleet: nodes 0..16 fast (2x CPU), 16..32 stock Marmot.
    let fast = NodeSpec {
        cpu_bps: 2 * NodeSpec::marmot().cpu_bps,
        ..NodeSpec::marmot()
    };
    let slow = NodeSpec::marmot();
    let specs: Vec<NodeSpec> = (0..NODES)
        .map(|i| if i < NODES / 2 { fast } else { slow })
        .collect();
    let caps: Vec<f64> = specs.iter().map(|s| capability_of(s, &job)).collect();

    let sel = SelectionConfig::default();
    let ana = AnalysisConfig::default();

    // 1. Locality baseline.
    let mut rows = vec![("locality (oblivious)", f.without().per_node_bytes.clone())];

    // 2. DataNet, uniform byte targets.
    let uniform_plan = Algorithm1::new(dfs, view).plan_balanced();
    let mut s2 = PlannedScheduler::new(&uniform_plan, dfs.namenode());
    let selected = run_selection(dfs, truth, &mut s2, &sel);
    rows.push(("datanet (uniform targets)", selected.per_node_bytes));

    // 3. DataNet, capability-proportional targets.
    let cap_plan =
        Algorithm1::with_capabilities(dfs.namenode(), view, BalancePolicy::PacedGreedy, &caps)
            .plan_balanced();
    let mut s3 = PlannedScheduler::new(&cap_plan, dfs.namenode());
    let selected = run_selection(dfs, truth, &mut s3, &sel);
    rows.push(("datanet (capability targets)", selected.per_node_bytes));

    writeln!(
        out,
        "== Heterogeneous cluster (16 fast + 16 stock nodes), Top-K Search =="
    )?;
    let mut t = Table::new([
        "schedule",
        "byte imbalance",
        "map min (s)",
        "map max (s)",
        "job makespan (s)",
    ]);
    for (name, filtered) in &rows {
        let uniform = AggregationPlan::uniform(filtered.len());
        let rep = Exec::default().analysis(filtered, &job, &ana, &uniform, Some(&specs));
        let total: u64 = filtered.iter().sum();
        let mean = total as f64 / filtered.len() as f64;
        let max = *filtered.iter().max().expect("non-empty") as f64;
        t.row([
            name.to_string(),
            format!("{:.2}", max / mean),
            format!("{:.4}", rep.map_summary().min()),
            format!("{:.4}", rep.map_summary().max()),
            format!("{:.4}", rep.makespan_secs),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\ncapability targets deliberately *unbalance bytes* (fast nodes get more)\n\
         so that completion times equalise — the makespan win over uniform targets."
    )
}

/// Speculative execution vs data skew — why Hadoop's built-in straggler
/// mitigation does not solve the paper's problem.
///
/// Two scenarios over the movie workload's filtered partitions:
/// * **data skew** (the content-clustering case): backups are launched but
///   cannot beat the originals — improvement ≈ 0, work duplicated;
/// * **slow node** (what speculation was designed for): a degraded node's
///   balanced partition is rescued.
fn speculation(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let selection = f.without();
    let job = top_k_profile();
    let cfg = SpeculationConfig::default();
    let spec = NodeSpec::marmot();

    writeln!(
        out,
        "== Speculative execution vs the two kinds of straggler =="
    )?;
    let mut t = Table::new([
        "scenario",
        "backups",
        "duplicated kB",
        "map makespan (s)",
        "vs no speculation",
    ]);

    // Data-skew stragglers: the locality selection's imbalanced partitions.
    let skew = speculative_map_phase(&selection.per_node_bytes, &job, &spec, &cfg);
    t.row([
        "data skew (clustering)".to_string(),
        skew.backups.to_string(),
        format!("{:.0}", skew.duplicated_bytes as f64 / 1024.0),
        format!("{:.4}", skew.makespan_secs),
        format!("{:.1}%", skew.improvement() * 100.0),
    ]);

    // Slow-node straggler: balanced partitions, one node 4x degraded.
    let total: u64 = selection.per_node_bytes.iter().sum();
    let balanced = vec![total / NODES as u64; NODES as usize];
    let mut slowdowns = vec![1.0; NODES as usize];
    slowdowns[7] = 4.0;
    let slow = speculative_map_phase_with_slowdowns(&balanced, &job, &spec, &cfg, &slowdowns);
    t.row([
        "slow node (4x degraded)".to_string(),
        slow.backups.to_string(),
        format!("{:.0}", slow.duplicated_bytes as f64 / 1024.0),
        format!("{:.4}", slow.makespan_secs),
        format!("{:.1}%", slow.improvement() * 100.0),
    ]);
    write!(out, "{}", t.render())?;

    writeln!(
        out,
        "\nspeculation rescues machine-level stragglers but not content-clustering\n\
         skew: a backup of the same oversized partition, launched later and fed\n\
         over the network, cannot beat the original. DataNet prevents the skew\n\
         instead of racing it."
    )
}

/// Meta-data amortization — Section V-A-4's closing argument: "DataNet will
/// scan the raw data once to build all sub-dataset distributions, while the
/// method of dynamic adjustment will migrate the workload for each
/// sub-dataset analysis during runtime."
///
/// Analyses the top-K movies back to back and accounts the one-off scan
/// cost against the per-job migration cost it replaces.
fn amortization(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let dfs = f.dfs();
    let jobs = 6usize;
    let job = word_count_profile();
    let sel = SelectionConfig::default();
    let ana = AnalysisConfig::default();

    // One-off: build the meta-data for ALL sub-datasets in a single scan.
    // Scan cost ≈ one pass over every block at disk+scan speed, parallel
    // over nodes — the same cost as one content-oblivious selection pass.
    let scan_cost_secs = {
        let bytes_per_node = dfs.total_bytes() / NODES as u64;
        let spec = NodeSpec::marmot();
        bytes_per_node as f64 / spec.disk_bps as f64 + bytes_per_node as f64 / spec.cpu_bps as f64
    };
    let maps = f.array();

    let mut datanet_total = scan_cost_secs;
    let mut migration_total = 0.0;
    let mut t = Table::new([
        "movie",
        "DataNet job (s)",
        "migrate: fraction",
        "migrate+job (s)",
    ]);
    for (m, _) in f.catalog().by_size_desc().into_iter().take(jobs) {
        let truth = dfs.subdataset_distribution(m);

        // DataNet path: balanced selection + job.
        let mut dn = DataNetScheduler::new(dfs, &maps.view(m));
        let with = run_selection(dfs, &truth, &mut dn, &sel);
        let jd = run_analysis(&with.per_node_bytes, &job, &ana);
        let dn_secs = total_secs(with.end, jd.makespan_secs);
        datanet_total += dn_secs;

        // Reactive path: oblivious selection, then migrate, then job.
        let mut base = LocalityScheduler::new(dfs);
        let without = run_selection(dfs, &truth, &mut base, &sel);
        let mig = rebalance(&without.per_node_bytes, &NodeSpec::marmot());
        let jm = run_analysis(&mig.balanced, &job, &ana);
        let mig_secs = total_secs(without.end, mig.migration_secs + jm.makespan_secs);
        migration_total += mig_secs;

        t.row([
            m.to_string(),
            format!("{dn_secs:.3}"),
            format!("{:.1}%", mig.fraction * 100.0),
            format!("{mig_secs:.3}"),
        ]);
    }
    writeln!(
        out,
        "== One scan vs per-job migration, {jobs} sub-dataset analyses =="
    )?;
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\ntotals: DataNet = {scan_cost_secs:.3}s scan + jobs = {datanet_total:.3}s;  \
         migration path = {migration_total:.3}s"
    )?;
    writeln!(
        out,
        "the single scan amortises across every subsequent analysis, while the\n\
         reactive path pays selection + migration for each one."
    )?;
    assert!(
        datanet_total < migration_total,
        "amortization should win over {jobs} jobs"
    );
    Ok(())
}

/// I/O savings from block skipping — Section V-B-1: "with the knowledge of
/// ElasticMap, we can reduce the I/O cost, since we don't need to process
/// blocks that don't contain our target data (no records in the hash map
/// and bloom filter)."
///
/// The saving grows as the target sub-dataset shrinks: a blockbuster touches
/// every block, a niche movie only a handful.
fn io_savings(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    let (dfs, maps) = (f.dfs(), f.array());
    let ranked = f.catalog().by_size_desc();
    let sel = SelectionConfig::default();
    let total_blocks = dfs.block_count();

    writeln!(out, "== I/O savings from ElasticMap block skipping ==")?;
    let mut t = Table::new([
        "movie rank",
        "movie size kB",
        "blocks read (locality)",
        "blocks read (DataNet)",
        "bytes saved",
    ]);
    for rank in [0usize, 4, 19, 99, 499, 1999] {
        let Some(&(movie, size)) = ranked.get(rank) else {
            continue;
        };
        if size == 0 {
            continue;
        }
        let truth = dfs.subdataset_distribution(movie);
        let mut base = LocalityScheduler::new(dfs);
        let without = run_selection(dfs, &truth, &mut base, &sel);
        let mut dn = DataNetScheduler::new(dfs, &maps.view(movie));
        let with = run_selection(dfs, &truth, &mut dn, &sel);
        assert_eq!(without.total_tasks, total_blocks);
        t.row([
            format!("#{}", rank + 1),
            format!("{:.1}", size as f64 / 1024.0),
            without.total_tasks.to_string(),
            with.total_tasks.to_string(),
            format!(
                "{:.1} MB ({:.0}%)",
                (without.bytes_read - with.bytes_read) as f64 / 1_048_576.0,
                100.0 * (1.0 - with.bytes_read as f64 / without.bytes_read as f64)
            ),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nthe oblivious scheduler must scan all {total_blocks} blocks for every\n\
         query; ElasticMap restricts the scan to blocks that (may) hold the\n\
         target — bloom false positives cost at most a handful of extra reads."
    )
}

/// Max/avg bytes over the nodes that survived the selection.
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
            // Repairable: primary copy only, replica stays healthy.
            0 => fs::write(dirs[0].join(&shard), b"bitrot").expect("temp dir writable"),
            // Rung 2: every full copy gone, summaries intact.
            1 => {
                for d in dirs {
                    let _ = fs::remove_file(d.join(&shard));
                }
            }
            // Rung 3: nothing left of this shard anywhere.
            _ => {
                for d in dirs {
                    let _ = fs::remove_file(d.join(&shard));
                    let _ = fs::remove_file(d.join(format!("summary-{i:04}.json")));
                }
            }
        }
    }
}

/// Fault injection — how gracefully each scheduler degrades as nodes crash
/// mid-selection, and how the metadata plane degrades as ElasticMap shards
/// are corrupted or lost. Every row averages five seeds.
///
/// **Crash sweep.** Random fault plans (node 0 always survives) strike the
/// selection phase under the locality baseline, DataNet with oracle crash
/// notification, and DataNet with the EWMA failure detector. Per rate:
/// bytes recovered (< 100 % only when every replica of some block died or
/// the retry budget ran out), survivor imbalance, phase end, recovery time
/// (first crash → completion), mean crash → suspicion latency (detector
/// rows only), re-executed tasks and wasted re-read bytes.
///
/// **Corruption sweep.** A fraction of the shards of a freshly persisted
/// 2-replica store is damaged: some lose only their primary copy (scrub
/// repairs them), some every full copy but keep summaries (rung 2), some
/// everything (rung 3, quarantined). Selection then runs through
/// `Exec::selection_resilient`; the rows give the degradation-ladder rung
/// mix, the Equation 6 estimate error and the bytes recovered.
fn faults(f: &Fixtures, out: &mut dyn Write) -> io::Result<()> {
    const RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    const SEEDS: u64 = 5;
    const SHARD_BLOCKS: usize = 4;
    let (dfs, hot, truth, array, view) = (f.dfs(), f.hot(), f.truth(), f.array(), f.view());
    let total = dfs.subdataset_total(hot) as f64;
    let sel = SelectionConfig::default();
    let mean = |sums: &mut [f64]| sums.iter_mut().for_each(|s| *s /= SEEDS as f64);

    // Fault horizon: crashes land inside the healthy phase.
    let horizon = SimTime::from_micros(f.without().end.as_micros().max(1));

    writeln!(
        out,
        "== Fault sweep: crash rate vs recovery ({NODES} nodes, {SEEDS} seeds/rate) =="
    )?;
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
    for rate in RATES {
        for (name, detect) in [
            ("locality", false),
            ("datanet", false),
            ("datanet-det", true),
        ] {
            // recovered, survivor max/avg, phase, recovery, re-exec, wasted MB
            let mut sums = [0.0; 6];
            let (mut detect_secs, mut detections) = (0.0, 0usize);
            for seed in 0..SEEDS {
                let plan = FaultPlan::random(NODES as usize, 0xFA01 + seed, rate, horizon);
                let faults = if detect {
                    FaultConfig::with_detection(plan, DetectorConfig::default())
                } else {
                    FaultConfig::new(plan)
                };
                let mut sched: Box<dyn MapScheduler> = if name == "locality" {
                    Box::new(LocalityScheduler::new(dfs))
                } else {
                    Box::new(DataNetScheduler::new(dfs, view))
                };
                let selected =
                    Exec::default()
                        .faults(&faults)
                        .selection(dfs, truth, sched.as_mut(), &sel);
                let row = [
                    selected.per_node_bytes.iter().sum::<u64>() as f64 / total,
                    survivor_imbalance(&selected),
                    selected.end.as_secs_f64(),
                    selected.faults.recovery_secs,
                    selected.faults.reexecuted_tasks as f64,
                    selected.faults.wasted_bytes_read as f64 / (1024.0 * 1024.0),
                ];
                sums.iter_mut().zip(row).for_each(|(s, v)| *s += v);
                detect_secs += selected.faults.detection_latency_secs.iter().sum::<f64>();
                detections += selected.faults.detection_latency_secs.len();
            }
            mean(&mut sums);
            if detections > 0 {
                detect_secs /= detections as f64;
            }
            let [recovered, imbalance, phase, recovery, reexecuted, wasted_mb] = sums;
            t.row([
                format!("{rate:.2}"),
                name.to_string(),
                format!("{:.1}%", recovered * 100.0),
                format!("{imbalance:.3}"),
                format!("{phase:.2}"),
                format!("{recovery:.2}"),
                format!("{detect_secs:.3}"),
                format!("{reexecuted:.1}"),
                format!("{wasted_mb:.1}"),
            ]);
        }
    }
    write!(out, "{}", t.render())?;

    writeln!(
        out,
        "\n== Metadata corruption sweep: shard damage vs degradation ladder =="
    )?;
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
    for rate in RATES {
        // repaired, quarantined, rung 1/2/3 blocks, est err, recovered, phase
        let mut sums = [0.0; 8];
        let mut shards = 0;
        for seed in 0..SEEDS {
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
            let replicas = [dirs[0].as_path(), dirs[1].as_path()];
            MetaStore::save_replicated(array, &replicas, SHARD_BLOCKS).expect("store saves");
            let mut store = MetaStore::open_replicated(&replicas, 8).expect("store opens");
            shards = store.manifest().shard_count();
            let mut rng = StdRng::seed_from_u64(0xC0FF + seed);
            let damaged = (rate * shards as f64).ceil() as usize;
            damage_shards(&dirs, shards, damaged, &mut rng);

            let scrubbed = store.scrub();
            let selected = Exec::default().selection_resilient(dfs, hot, &mut store, &sel);
            let row = [
                scrubbed.repaired as f64,
                scrubbed.quarantined.len() as f64,
                selected.meta.rungs.exact as f64,
                selected.meta.rungs.bloom as f64,
                selected.meta.rungs.fallback as f64,
                selected.meta.est_error,
                selected.per_node_bytes.iter().sum::<u64>() as f64 / total,
                selected.end.as_secs_f64(),
            ];
            sums.iter_mut().zip(row).for_each(|(s, v)| *s += v);
            for d in &dirs {
                let _ = fs::remove_dir_all(d);
            }
        }
        mean(&mut sums);
        let [repaired, quarantined, exact, bloom, fallback, est_error, recovered, phase] = sums;
        t.row([
            format!("{rate:.2}"),
            shards.to_string(),
            format!("{repaired:.1}"),
            format!("{quarantined:.1}"),
            format!("{exact:.1}"),
            format!("{bloom:.1}"),
            format!("{fallback:.1}"),
            format!("{est_error:.4}"),
            format!("{:.1}%", recovered * 100.0),
            format!("{phase:.2}"),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nDataNet re-plans lost work by ElasticMap weight: its survivor imbalance stays\n\
         near the fault-free optimum while the locality baseline degrades with luck of\n\
         the surviving replicas. The detector rows pay a crash→suspicion latency but\n\
         match the oracle's recovery guarantees. Under shard damage the ladder steps\n\
         down — repairable copies are scrubbed back to rung 1, summary-only shards\n\
         answer on rung 2 and quarantined shards fall back to a rung-3 locality scan —\n\
         and every byte is still credited exactly once."
    )
}
