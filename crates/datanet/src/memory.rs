//! The ElasticMap memory-cost model — Equation 5 of the paper:
//!
//! ```text
//! Cost(memory) = m·(1−α)·(−ln ε)/ln²2  +  m·α·k/δ      [bits]
//! ```
//!
//! where `m` is the number of sub-datasets in a block, `α` the fraction
//! stored in the hash map, `ε` the bloom false-positive rate, `k` the bit
//! width of one hash-map record and `δ` the hash-map load factor.

/// Parameters of the Equation 5 model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Bloom false-positive rate `ε`.
    pub epsilon: f64,
    /// Bits per hash-map record `k`. The paper's "85 bits" per-entry figure
    /// corresponds to a 64-bit id + ~21 bits of size/overhead.
    pub record_bits: f64,
    /// Hash-map load factor `δ` ∈ (0, 1].
    pub load_factor: f64,
}

impl Default for MemoryModel {
    /// The paper's typical configuration: ε = 1% (≈10 bits/element bloom),
    /// 85-bit hash-map records at load factor 1 (so 85 bits each, matching
    /// the Section III-A example).
    fn default() -> Self {
        Self {
            epsilon: 0.01,
            record_bits: 85.0,
            load_factor: 1.0,
        }
    }
}

impl MemoryModel {
    /// Create a model.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn new(epsilon: f64, record_bits: f64, load_factor: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0,1), got {epsilon}"
        );
        assert!(record_bits > 0.0, "record bits must be positive");
        assert!(
            load_factor > 0.0 && load_factor <= 1.0,
            "load factor must be in (0,1], got {load_factor}"
        );
        Self {
            epsilon,
            record_bits,
            load_factor,
        }
    }

    /// Bits per bloom-filter element: `−ln ε / ln² 2` (≈ 9.6 at ε = 1%).
    pub(crate) fn bloom_bits_per_item(&self) -> f64 {
        let ln2 = std::f64::consts::LN_2;
        -self.epsilon.ln() / (ln2 * ln2)
    }

    /// Bits per hash-map element: `k / δ`.
    pub(crate) fn map_bits_per_item(&self) -> f64 {
        self.record_bits / self.load_factor
    }

    /// Equation 5: total bits for one block holding `m` sub-datasets with
    /// fraction `alpha` in the hash map.
    ///
    /// # Panics
    /// Panics unless `alpha ∈ [0, 1]`.
    pub fn cost_bits(&self, m: usize, alpha: f64) -> f64 {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        let m = m as f64;
        m * (1.0 - alpha) * self.bloom_bits_per_item() + m * alpha * self.map_bits_per_item()
    }

    /// Equation 5 in bytes.
    pub(crate) fn cost_bytes(&self, m: usize, alpha: f64) -> f64 {
        self.cost_bits(m, alpha) / 8.0
    }

    /// The raw-data-to-meta-data "representation ratio" of Table II:
    /// block bytes divided by modelled meta-data bytes.
    pub fn representation_ratio(&self, block_bytes: u64, m: usize, alpha: f64) -> f64 {
        let meta = self.cost_bytes(m, alpha);
        assert!(meta > 0.0, "meta-data size must be positive");
        block_bytes as f64 / meta
    }

    /// Largest `alpha` whose Equation 5 cost fits a byte budget — how the
    /// "elastic" split point is chosen under a memory constraint.
    /// Returns 0 when even the all-bloom layout exceeds the budget.
    pub fn max_alpha_for_budget(&self, m: usize, budget_bytes: f64) -> f64 {
        let floor = self.cost_bytes(m, 0.0);
        let ceil = self.cost_bytes(m, 1.0);
        if budget_bytes <= floor {
            return 0.0;
        }
        if budget_bytes >= ceil {
            return 1.0;
        }
        // Cost is linear in alpha: solve directly.
        (budget_bytes - floor) / (ceil - floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ElasticMapArray, Separation};
    use datanet_workloads::{movie_dataset, NODES};

    #[test]
    fn paper_bits_per_item_figures() {
        // Section III-A: "storing a sub-dataset's information ... in a
        // HashMap will cost 85 bits while using a bloom filter will cost
        // 10 bits" — the defaults reproduce both.
        let m = MemoryModel::default();
        assert!((m.map_bits_per_item() - 85.0).abs() < 1e-9);
        assert!((m.bloom_bits_per_item() - 9.585).abs() < 0.01);
    }

    #[test]
    fn cost_is_linear_and_monotone_in_alpha() {
        let m = MemoryModel::default();
        let c0 = m.cost_bits(1000, 0.0);
        let c5 = m.cost_bits(1000, 0.5);
        let c1 = m.cost_bits(1000, 1.0);
        assert!(c0 < c5 && c5 < c1);
        assert!(((c0 + c1) / 2.0 - c5).abs() < 1e-6, "linearity");
    }

    #[test]
    fn extremes_match_components() {
        let m = MemoryModel::default();
        assert!((m.cost_bits(100, 0.0) - 100.0 * m.bloom_bits_per_item()).abs() < 1e-9);
        assert!((m.cost_bits(100, 1.0) - 100.0 * m.map_bits_per_item()).abs() < 1e-9);
    }

    #[test]
    fn budget_solver_inverts_cost() {
        let m = MemoryModel::default();
        for &alpha in &[0.0, 0.21, 0.31, 0.51, 1.0] {
            let budget = m.cost_bytes(5000, alpha);
            let solved = m.max_alpha_for_budget(5000, budget);
            assert!(
                (solved - alpha).abs() < 1e-9,
                "alpha {alpha} → budget → {solved}"
            );
        }
        assert_eq!(m.max_alpha_for_budget(5000, 0.0), 0.0);
        assert_eq!(m.max_alpha_for_budget(5000, f64::MAX), 1.0);
    }

    #[test]
    fn representation_ratio_grows_as_alpha_shrinks() {
        // Table II's trend: smaller α → larger raw:meta ratio.
        let m = MemoryModel::default();
        let block = 64 * 1024 * 1024u64;
        let subs = 100_000;
        let r21 = m.representation_ratio(block, subs, 0.21);
        let r31 = m.representation_ratio(block, subs, 0.31);
        let r51 = m.representation_ratio(block, subs, 0.51);
        assert!(r21 > r31 && r31 > r51);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_epsilon() {
        MemoryModel::new(0.0, 85.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_alpha_above_one() {
        MemoryModel::default().cost_bits(10, 1.01);
    }

    #[test]
    fn equation5_model_brackets_measured_memory() {
        // The Eq. 5 model with our actual record width should land within a
        // small factor of the measured ElasticMap footprint.
        let (dfs, _) = movie_dataset(NODES);
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        // Our hash-map entries serialise at 12 B = 96 bits, ε = 1%.
        let model = MemoryModel::new(0.01, 96.0, 1.0);
        let modeled: f64 = arr
            .to_maps()
            .iter()
            .map(|m| model.cost_bytes(m.distinct(), m.achieved_alpha()))
            .sum();
        let measured = arr.memory_bytes() as f64;
        let ratio = measured / modeled;
        assert!(
            (0.5..2.0).contains(&ratio),
            "measured {measured} vs modeled {modeled} (ratio {ratio})"
        );
    }
}
