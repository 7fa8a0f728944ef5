//! Integration tests for the meta-data quality claims: Table II (memory vs
//! accuracy), Figure 9 (per-size accuracy) and the Equation 5 model.

use datanet::{ElasticMapArray, Separation};
use datanet_workloads::{movie_dataset, NODES};

#[test]
fn table2_accuracy_falls_as_alpha_drops() {
    let (dfs, _) = movie_dataset(NODES);
    let alphas = [0.51, 0.40, 0.31, 0.25, 0.21];
    let accs: Vec<f64> = alphas
        .iter()
        .map(|&a| ElasticMapArray::build(&dfs, &Separation::Alpha(a)).accuracy(&dfs))
        .collect();
    for w in accs.windows(2) {
        assert!(
            w[0] >= w[1] - 0.01,
            "accuracy should not rise as alpha drops: {accs:?}"
        );
    }
    // Paper's range at the endpoints: 97% at α=51%, 80% at α=21% — ours
    // must at least stay in a credible band.
    assert!(accs[0] > 0.90, "alpha=0.51 accuracy {}", accs[0]);
    assert!(accs[4] > 0.60, "alpha=0.21 accuracy {}", accs[4]);
    assert!(accs[4] <= 1.0 + 1e-9);
}

#[test]
fn table2_representation_ratio_rises_as_alpha_drops() {
    let (dfs, _) = movie_dataset(NODES);
    let alphas = [0.51, 0.40, 0.31, 0.25, 0.21];
    let ratios: Vec<f64> = alphas
        .iter()
        .map(|&a| ElasticMapArray::build(&dfs, &Separation::Alpha(a)).representation_ratio(&dfs))
        .collect();
    for w in ratios.windows(2) {
        assert!(
            w[1] >= w[0] * 0.99,
            "ratio should not fall as alpha drops: {ratios:?}"
        );
    }
    assert!(ratios[0] > 50.0, "meta-data should be compact: {ratios:?}");
}

#[test]
fn figure9_large_subdatasets_estimate_better() {
    let (dfs, catalog) = movie_dataset(NODES);
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let ranked = catalog.by_size_desc();
    let acc_of = |idx: usize| {
        let (movie, _) = ranked[idx];
        arr.view(movie).accuracy(&dfs)
    };
    // Mean accuracy of the 20 largest vs 20 movies deep in the tail.
    let large: f64 = (0..20).filter_map(acc_of).sum::<f64>() / 20.0;
    let tail_start = ranked.len() - 400;
    let small: f64 = (tail_start..tail_start + 20)
        .filter_map(acc_of)
        .sum::<f64>()
        / 20.0;
    assert!(
        large > small,
        "large movies should estimate better: large {large} vs small {small}"
    );
    assert!(large > 0.9, "top movies should be near-exact, got {large}");
}

#[test]
fn elasticmap_never_loses_a_present_subdataset() {
    // No false negatives end-to-end: every movie with data must be visible
    // in its view.
    let (dfs, catalog) = movie_dataset(NODES);
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.2));
    for (movie, bytes) in catalog.by_size_desc() {
        if bytes == 0 {
            continue;
        }
        assert!(
            !arr.view(movie).is_empty(),
            "movie {movie} with {bytes} bytes invisible to the meta-data"
        );
    }
}

#[test]
fn estimate_upper_bounded_by_exact_plus_bloom_term() {
    // Equation 6 structure: estimate = Σ exact + δ·|τ2| exactly.
    let (dfs, catalog) = movie_dataset(NODES);
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let hot = catalog.most_reviewed();
    let v = arr.view(hot);
    let exact_sum: u64 = v.exact().iter().map(|&(_, s)| s).sum();
    assert_eq!(
        v.estimated_total(),
        exact_sum + v.delta() * v.bloom().len() as u64
    );
    assert!(v.estimated_total() >= exact_sum);
}
