//! Heterogeneous clusters — Section IV-B's "according to the computing
//! capability of computational nodes, we can calculate the amount of
//! sub-datasets to be assigned to each node", made concrete.
//!
//! Half the cluster runs 2× faster CPUs (a realistic mixed-generation
//! fleet). Three schedules for the Top-K job over the hot movie:
//! * Hadoop locality (content- and capability-oblivious);
//! * DataNet with uniform targets (balances bytes — wrong goal here);
//! * DataNet with capability-proportional targets (balances *time*).

use datanet::planner::BalancePolicy;
use datanet::{AggregationPlan, Algorithm1, ElasticMapArray, Separation};
use datanet_analytics::profiles::top_k_profile;
use datanet_bench::{movie_dataset, Table, NODES};
use datanet_cluster::NodeSpec;
use datanet_mapreduce::{
    capability_of, run_selection, AnalysisConfig, Exec, LocalityScheduler, PlannedScheduler,
    SelectionConfig,
};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
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

    let mut rows = Vec::new();
    // 1. Locality baseline.
    let mut base = LocalityScheduler::new(&dfs);
    let out = run_selection(&dfs, &truth, &mut base, &sel);
    rows.push(("locality (oblivious)", out.per_node_bytes.clone()));

    // 2. DataNet, uniform byte targets.
    let uniform_plan = Algorithm1::new(&dfs, &view).plan_balanced();
    let mut s2 = PlannedScheduler::new(&uniform_plan, dfs.namenode());
    let out = run_selection(&dfs, &truth, &mut s2, &sel);
    rows.push(("datanet (uniform targets)", out.per_node_bytes.clone()));

    // 3. DataNet, capability-proportional targets.
    let cap_plan =
        Algorithm1::with_capabilities(dfs.namenode(), &view, BalancePolicy::PacedGreedy, &caps)
            .plan_balanced();
    let mut s3 = PlannedScheduler::new(&cap_plan, dfs.namenode());
    let out = run_selection(&dfs, &truth, &mut s3, &sel);
    rows.push(("datanet (capability targets)", out.per_node_bytes.clone()));

    println!("== Heterogeneous cluster (16 fast + 16 stock nodes), Top-K Search ==");
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
    t.print();
    println!(
        "\ncapability targets deliberately *unbalance bytes* (fast nodes get more)\n\
         so that completion times equalise — the makespan win over uniform targets."
    );
}
