//! Validation of the Section II-B probability model against the simulator:
//! when per-block sub-dataset sizes really are `Γ(k, θ)` and blocks are
//! placed and scheduled content-obliviously, the per-node workloads should
//! follow `Γ(nk/m, θ)` — the model and the machine must agree.

use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_mapreduce::{run_selection, LocalityScheduler, SelectionConfig};
use datanet_stats::{GammaDist, ImbalanceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BLOCKS: usize = 512;
const NODES: u32 = 32;
const UNIT: f64 = 1024.0; // bytes per model unit

/// A DFS whose blocks each hold exactly one record of Γ(1.2, 7)·1 kB bytes
/// — the paper's model made literal.
fn gamma_dfs(seed: u64) -> Dfs {
    let g = GammaDist::new(1.2, 7.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<Record> = (0..BLOCKS as u64)
        .map(|i| {
            let bytes = (g.sample(&mut rng) * UNIT).max(1.0) as u32;
            Record::new(SubDatasetId(0), i, bytes, i)
        })
        .collect();
    Dfs::write_random(
        DfsConfig {
            block_size: 1, // every record seals its own block
            replication: 3,
            topology: Topology::single_rack(NODES),
            seed,
        },
        records,
    )
}

/// Node workloads from one content-oblivious selection run.
fn node_workloads(seed: u64) -> Vec<f64> {
    let dfs = gamma_dfs(seed);
    assert_eq!(dfs.block_count(), BLOCKS);
    let truth = dfs.subdataset_distribution(SubDatasetId(0));
    let mut sched = LocalityScheduler::new(&dfs);
    let out = run_selection(&dfs, &truth, &mut sched, &SelectionConfig::default());
    out.per_node_bytes
        .iter()
        .map(|&b| b as f64 / UNIT)
        .collect()
}

#[test]
fn simulated_node_workloads_match_gamma_model() {
    let model = ImbalanceModel::new(1.2, 7.0, BLOCKS);
    // E(Z) = nkθ/m: n blocks of mean kθ over m nodes.
    let expected_mean = GammaDist::new(1.2, 7.0).mean() * BLOCKS as f64 / NODES as f64;

    // Pool node workloads across placements for a decent sample.
    let mut samples = Vec::new();
    for seed in 0..25u64 {
        samples.extend(node_workloads(seed));
    }
    let n = samples.len() as f64;

    // Mean within 3% of nkθ/m.
    let mean = samples.iter().sum::<f64>() / n;
    assert!(
        (mean - expected_mean).abs() / expected_mean < 0.03,
        "mean {mean} vs model {expected_mean}"
    );

    // Tail probabilities within ±0.05 of the analytic Γ(nk/m, θ) values.
    for frac in [0.5, 0.75, 1.25, 1.5, 2.0] {
        let threshold = frac * expected_mean;
        let empirical = samples.iter().filter(|&&w| w < threshold).count() as f64 / n;
        let analytic = model.expected_nodes_below(NODES as usize, frac) / NODES as f64;
        assert!(
            (empirical - analytic).abs() < 0.05,
            "P(Z < {frac}·E): empirical {empirical} vs model {analytic}"
        );
    }
}

#[test]
fn imbalance_grows_with_cluster_size_in_simulation_too() {
    // Figure 2's qualitative claim checked on the machine: the same data on
    // a bigger cluster shows a larger max/avg imbalance.
    let spread = |nodes: u32| {
        let g = GammaDist::new(1.2, 7.0);
        let mut rng = StdRng::seed_from_u64(7);
        let records: Vec<Record> = (0..BLOCKS as u64)
            .map(|i| {
                let bytes = (g.sample(&mut rng) * UNIT).max(1.0) as u32;
                Record::new(SubDatasetId(0), i, bytes, i)
            })
            .collect();
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 1,
                replication: 3,
                topology: Topology::single_rack(nodes),
                seed: 7,
            },
            records,
        );
        let truth = dfs.subdataset_distribution(SubDatasetId(0));
        let mut sched = LocalityScheduler::new(&dfs);
        run_selection(&dfs, &truth, &mut sched, &SelectionConfig::default()).imbalance()
    };
    let small = spread(8);
    let large = spread(128);
    assert!(
        large > small,
        "m=128 imbalance {large} should exceed m=8 imbalance {small}"
    );
}
