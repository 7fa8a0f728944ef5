//! Aggregation-traffic extension (the future work of Section IV-B, built):
//! with the sub-dataset distribution known, reducer *placement* and
//! partition *shares* can be chosen to minimise shuffle traffic.
//!
//! Compares, for WordCount over the hot movie:
//! * Hadoop default — one reducer per node, uniform hash shares;
//! * placement only — R reducers on the data-richest nodes, uniform shares;
//! * placement + weighted shares (bounded reduce-side skew).

use datanet::{plan_aggregation, AggregationPlan, ElasticMapArray, Separation};
use datanet_analytics::profiles::word_count_profile;
use datanet_bench::{movie_dataset, Table, NODES};
use datanet_mapreduce::{run_selection, AnalysisConfig, Exec, LocalityScheduler, SelectionConfig};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    // Use the *imbalanced* locality selection: aggregation planning pays
    // off exactly when intermediate data is concentrated on a few nodes
    // (after DataNet's balanced selection there is little to win — both
    // plans are evaluated in `tests/` for that case).
    let _ = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let mut base = LocalityScheduler::new(&dfs);
    let selection = run_selection(&dfs, &truth, &mut base, &SelectionConfig::default());
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

    println!("== Aggregation planning: shuffle traffic and job time ==");
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
    t.print();
    println!(
        "\nreduce-side skew accepted by the weighted plan: {:.2}x uniform",
        weighted.reduce_imbalance()
    );
}
