//! Cross-scheduler integration tests: coverage, disjointness, policy
//! comparisons and the migration baseline.

use datanet::planner::BalancePolicy;
use datanet::{Algorithm1, ElasticMapArray, FordFulkersonPlanner, Separation};
use datanet_cluster::NodeSpec;
use datanet_dfs::BlockId;
use datanet_mapreduce::{
    rebalance, run_selection, DataNetScheduler, LocalityScheduler, MapScheduler, PlannedScheduler,
    SelectionConfig,
};
use datanet_workloads::{movie_dataset, NODES};
use std::collections::HashSet;

#[test]
fn every_scheduler_covers_its_scope_exactly_once() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);

    let drain = |sched: &mut dyn MapScheduler| {
        let mut seen: HashSet<BlockId> = HashSet::new();
        let mut node = 0u32;
        loop {
            let mut progressed = false;
            for _ in 0..NODES {
                node = (node + 1) % NODES;
                if let Some((b, _)) = sched.next_task(datanet_dfs::NodeId(node)) {
                    assert!(seen.insert(b), "block {b} issued twice");
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        seen
    };

    let mut locality = LocalityScheduler::new(&dfs);
    assert_eq!(drain(&mut locality).len(), dfs.block_count());

    let mut dn = DataNetScheduler::new(&dfs, &view);
    assert_eq!(drain(&mut dn).len(), view.block_count());

    let plan = FordFulkersonPlanner::new(&dfs, &view).plan();
    let mut planned = PlannedScheduler::new(&plan, dfs.namenode());
    assert_eq!(drain(&mut planned).len(), view.block_count());
}

#[test]
fn paced_policy_beats_literal_best_fit() {
    // The deviation documented in DESIGN.md, quantified: under live pulls
    // the paced policy balances markedly better than the paper's literal
    // argmin rule.
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let sel = SelectionConfig::default();

    let mut paced = DataNetScheduler::new(&dfs, &view);
    let p = run_selection(&dfs, &truth, &mut paced, &sel);
    let mut literal = DataNetScheduler::with_policy(&dfs, &view, BalancePolicy::BestFitTerminal);
    let l = run_selection(&dfs, &truth, &mut literal, &sel);
    assert!(
        p.imbalance() < l.imbalance(),
        "paced {} !< literal {}",
        p.imbalance(),
        l.imbalance()
    );
}

#[test]
fn ford_fulkerson_respects_locality_and_balances() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let view = ElasticMapArray::build(&dfs, &Separation::All).view(hot);
    let planner = FordFulkersonPlanner::new(&dfs, &view);
    let plan = planner.plan();
    assert_eq!(plan.locality_fraction(), 1.0);
    assert_eq!(plan.assigned_blocks(), view.block_count());
    // Within 50% of the fractional lower bound (rounding + locality).
    let t = planner.fractional_optimum();
    assert!(
        plan.max_workload() as f64 <= t as f64 * 1.5,
        "max {} vs fractional optimum {t}",
        plan.max_workload()
    );
}

#[test]
fn algorithm1_plans_match_their_scheduler_runs_in_total() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let view = ElasticMapArray::build(&dfs, &Separation::All).view(hot);
    let plan = Algorithm1::new(&dfs, &view).plan_balanced();
    assert_eq!(plan.workloads().iter().sum::<u64>(), view.estimated_total());
}

#[test]
fn migration_baseline_reproduces_the_papers_cost() {
    // Section V-A-4: rebalancing the locality outcome moves a substantial
    // fraction of the data and touches most nodes.
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let mut base = LocalityScheduler::new(&dfs);
    let without = run_selection(&dfs, &truth, &mut base, &SelectionConfig::default());
    let mig = rebalance(&without.per_node_bytes, &NodeSpec::marmot());
    assert!(
        mig.fraction > 0.15,
        "expected substantial migration, got {:.3}",
        mig.fraction
    );
    assert!(
        mig.nodes_touched as u32 > NODES / 2,
        "migration should touch most nodes, got {}",
        mig.nodes_touched
    );
    // Post-migration partitions are balanced.
    let max = *mig.balanced.iter().max().unwrap();
    let mean = mig.balanced.iter().sum::<u64>() / mig.balanced.len() as u64;
    assert!((max as f64) < mean as f64 * 1.05);
}

#[test]
fn low_alpha_costs_balance() {
    // Figure 10's left edge: bloom-only meta-data cannot distinguish block
    // weights, so balance degrades toward the baseline.
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let sel = SelectionConfig::default();
    let good = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let poor = ElasticMapArray::build(&dfs, &Separation::BloomOnly).view(hot);
    let mut dn_good = DataNetScheduler::new(&dfs, &good);
    let g = run_selection(&dfs, &truth, &mut dn_good, &sel);
    let mut dn_poor = DataNetScheduler::new(&dfs, &poor);
    let p = run_selection(&dfs, &truth, &mut dn_poor, &sel);
    assert!(
        g.imbalance() < p.imbalance(),
        "alpha=0.3 {} !< bloom-only {}",
        g.imbalance(),
        p.imbalance()
    );
}
