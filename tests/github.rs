//! The GitHub experiment's distinctive properties (Section V-A-4 /
//! Figure 8): an imbalanced but unclustered sub-dataset still benefits from
//! DataNet, just less than the clustered movie data.

use datanet::{ElasticMapArray, Separation};
use datanet_analytics::profiles::top_k_profile;
use datanet_mapreduce::{
    run_analysis, run_selection, AnalysisConfig, DataNetScheduler, LocalityScheduler,
    SelectionConfig,
};
use datanet_workloads::{github_dataset, movie_dataset, EventType, NODES};

#[test]
fn issue_events_are_spread_not_clustered() {
    let dfs = github_dataset(NODES);
    let dist = dfs.subdataset_distribution(EventType::Issue.id());
    let total: u64 = dist.iter().sum();
    assert!(total > 0);
    // No 30-block window may dominate the way the movie burst does.
    let window: u64 = dist.windows(30).map(|w| w.iter().sum()).max().unwrap();
    assert!(
        (window as f64) < 0.5 * total as f64,
        "IssueEvent clustered: best 30-block window holds {window}/{total}"
    );
}

#[test]
fn issue_distribution_is_still_imbalanced_over_blocks() {
    let dfs = github_dataset(NODES);
    let dist = dfs.subdataset_distribution(EventType::Issue.id());
    let nonzero: Vec<u64> = dist.iter().copied().filter(|&b| b > 0).collect();
    let max = *nonzero.iter().max().unwrap();
    let min = *nonzero.iter().min().unwrap();
    assert!(
        max > 3 * min,
        "per-block IssueEvent sizes too uniform: {min}..{max}"
    );
}

#[test]
fn datanet_still_helps_but_less_than_on_movies() {
    let improvement = |dfs: &datanet_dfs::Dfs, s: datanet_dfs::SubDatasetId| {
        let truth = dfs.subdataset_distribution(s);
        let sel = SelectionConfig::default();
        let ana = AnalysisConfig::default();
        let mut base = LocalityScheduler::new(dfs);
        let without = run_selection(dfs, &truth, &mut base, &sel);
        let view = ElasticMapArray::build(dfs, &Separation::Alpha(0.3)).view(s);
        let mut dn = DataNetScheduler::new(dfs, &view);
        let with = run_selection(dfs, &truth, &mut dn, &sel);
        let jw = run_analysis(&without.per_node_bytes, &top_k_profile(), &ana);
        let jd = run_analysis(&with.per_node_bytes, &top_k_profile(), &ana);
        1.0 - jd.map_summary().max() / jw.map_summary().max()
    };

    let gh = github_dataset(NODES);
    let gh_improvement = improvement(&gh, EventType::Issue.id());
    let (movies, catalog) = movie_dataset(NODES);
    let movie_improvement = improvement(&movies, catalog.most_reviewed());

    assert!(
        gh_improvement > 0.0,
        "DataNet should still shorten the longest map, got {gh_improvement}"
    );
    assert!(
        movie_improvement > gh_improvement,
        "clustered data should benefit more: movies {movie_improvement} vs github {gh_improvement}"
    );
}

#[test]
fn event_type_mix_is_heavy_tailed() {
    let dfs = github_dataset(NODES);
    let push: u64 = dfs.subdataset_total(EventType::Push.id());
    let fork_apply: u64 = dfs.subdataset_total(EventType::ForkApply.id());
    assert!(
        push > 50 * fork_apply.max(1),
        "push {push} vs forkapply {fork_apply}"
    );
}
