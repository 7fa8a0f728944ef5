//! Per-sub-dataset distribution views and the Equation 6 size estimator.
//!
//! Querying the ElasticMap array for one sub-dataset `s` yields:
//!
//! * **τ₁** — blocks whose hash map records `|s ∩ b|` exactly;
//! * **τ₂** — blocks whose bloom filter reports `s` present (size unknown);
//! * **δ** — the approximate per-block size for τ₂ blocks ("the smallest
//!   size value of |s∩b_j|", Section IV-B).
//!
//! Total size estimate (Equation 6): `Z = Σ_{b∈τ₁} |s∩b| + δ·|τ₂|`.

use datanet_dfs::{BlockId, Dfs, SubDatasetId};

/// The distribution of one sub-dataset over the block space, as known to
/// DataNet's meta-data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubDatasetView {
    id: SubDatasetId,
    /// τ₁: `(block, exact bytes)`, block order.
    exact: Vec<(BlockId, u64)>,
    /// τ₂: bloom-only blocks, block order.
    bloom: Vec<BlockId>,
    /// δ: approximate bytes per τ₂ block.
    delta: u64,
}

impl SubDatasetView {
    /// Assemble a view. `delta_hint` is the per-block bloom bound collected
    /// during the array query; the effective δ follows the paper: the
    /// smallest recorded `|s∩b|` in τ₁ when τ₁ is non-empty, otherwise the
    /// hint.
    pub fn new(
        id: SubDatasetId,
        exact: Vec<(BlockId, u64)>,
        bloom: Vec<BlockId>,
        delta_hint: u64,
    ) -> Self {
        let delta = exact
            .iter()
            .map(|&(_, s)| s)
            .min()
            .unwrap_or(if delta_hint == u64::MAX {
                0
            } else {
                delta_hint
            });
        Self {
            id,
            exact,
            bloom,
            delta,
        }
    }

    /// The sub-dataset this view describes.
    pub fn id(&self) -> SubDatasetId {
        self.id
    }

    /// τ₁: blocks with exact sizes.
    pub fn exact(&self) -> &[(BlockId, u64)] {
        &self.exact
    }

    /// τ₂: bloom-only blocks.
    pub fn bloom(&self) -> &[BlockId] {
        &self.bloom
    }

    /// δ: the per-block size approximation for τ₂ blocks.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// All blocks known to (possibly) contain the sub-dataset, τ₁ ∪ τ₂.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.exact
            .iter()
            .map(|&(b, _)| b)
            .chain(self.bloom.iter().copied())
    }

    /// τ₁ ∪ τ₂ merged into block order, each block with its weight (the
    /// exact size, or δ) — the scope a planner plans over. The two lists
    /// are each in block order and disjoint.
    pub(crate) fn scope(&self) -> impl Iterator<Item = (BlockId, u64)> + '_ {
        let mut exact = self.exact.iter().copied().peekable();
        let mut bloom = self.bloom.iter().map(|&b| (b, self.delta)).peekable();
        std::iter::from_fn(move || match (exact.peek(), bloom.peek()) {
            (Some(e), Some(t)) if t.0 < e.0 => bloom.next(),
            (Some(_), _) => exact.next(),
            (None, _) => bloom.next(),
        })
    }

    /// Number of blocks in the view.
    pub fn block_count(&self) -> usize {
        self.exact.len() + self.bloom.len()
    }

    /// Whether the meta-data saw the sub-dataset anywhere.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.bloom.is_empty()
    }

    /// The weight DataNet assumes block `b` contributes: the exact size for
    /// τ₁ blocks, δ for τ₂ blocks, 0 otherwise. This is the edge weight of
    /// the bipartite graph (Section IV-A).
    pub fn weight(&self, b: BlockId) -> u64 {
        if let Ok(i) = self.exact.binary_search_by_key(&b, |&(blk, _)| blk) {
            return self.exact[i].1;
        }
        if self.bloom.binary_search(&b).is_ok() {
            return self.delta;
        }
        0
    }

    /// Equation 6: estimated total size `Z = Σ_{τ₁}|s∩b| + δ·|τ₂|`.
    pub fn estimated_total(&self) -> u64 {
        let exact: u64 = self.exact.iter().map(|&(_, s)| s).sum();
        exact + self.delta * self.bloom.len() as u64
    }

    /// Per-sub-dataset estimation accuracy against ground truth (the
    /// Figure 9 metric): `1 − |estimate − actual| / actual`. Returns `None`
    /// when the sub-dataset does not exist in the DFS.
    pub fn accuracy(&self, dfs: &Dfs) -> Option<f64> {
        let actual = dfs.subdataset_total(self.id);
        if actual == 0 {
            return None;
        }
        let est = self.estimated_total() as f64;
        Some(1.0 - (est - actual as f64).abs() / actual as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> SubDatasetView {
        SubDatasetView::new(
            SubDatasetId(1),
            vec![(BlockId(0), 1000), (BlockId(2), 400), (BlockId(5), 600)],
            vec![BlockId(1), BlockId(7)],
            u64::MAX,
        )
    }

    #[test]
    fn delta_is_min_exact_size() {
        let v = view();
        assert_eq!(v.delta(), 400);
    }

    #[test]
    fn delta_falls_back_to_hint_without_exact() {
        let v = SubDatasetView::new(SubDatasetId(1), vec![], vec![BlockId(0)], 123);
        assert_eq!(v.delta(), 123);
        let v = SubDatasetView::new(SubDatasetId(1), vec![], vec![BlockId(0)], u64::MAX);
        assert_eq!(v.delta(), 0);
    }

    #[test]
    fn equation_six() {
        let v = view();
        // Σ τ1 = 2000, δ·|τ2| = 400·2 = 800.
        assert_eq!(v.estimated_total(), 2800);
    }

    #[test]
    fn weights() {
        let v = view();
        assert_eq!(v.weight(BlockId(0)), 1000);
        assert_eq!(v.weight(BlockId(2)), 400);
        assert_eq!(v.weight(BlockId(1)), 400); // δ
        assert_eq!(v.weight(BlockId(3)), 0); // absent
    }

    #[test]
    fn block_iteration_and_counts() {
        let v = view();
        assert_eq!(v.block_count(), 5);
        assert_eq!(v.blocks().count(), 5);
        assert!(!v.is_empty());
    }

    #[test]
    fn empty_view() {
        let v = SubDatasetView::new(SubDatasetId(9), vec![], vec![], u64::MAX);
        assert!(v.is_empty());
        assert_eq!(v.estimated_total(), 0);
        assert_eq!(v.delta(), 0);
    }
}
