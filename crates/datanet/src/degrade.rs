//! The metadata degradation ladder: what schedulers fall back to when a
//! block's ElasticMap is unreadable.
//!
//! The paper's scheduler is only as good as its meta-data (Section V-B-1
//! anticipates it "distributed among multiple machines" — exactly where
//! loss and corruption live). Rather than fail the whole selection when a
//! shard dies, DataNet steps down a ladder, per block:
//!
//! 1. **Exact** — the shard is readable; τ₁ blocks carry exact
//!    `|s ∩ b|` sizes (Equation 6's first term).
//! 2. **Bloom** — only approximate membership is known: either the block
//!    sat on the bloom side of a healthy shard (normal τ₂ operation), or
//!    the full shard is lost and a bloom-only *summary sidecar* answered
//!    instead. Weighted by δ (Equation 6's `δ·|τ₂|` term).
//! 3. **Fallback** — shard *and* summary are gone: membership itself is
//!    unknown, so the block cannot be skipped and is scheduled by the
//!    locality baseline.
//!
//! [`MetaHealth`] carries the accounting into execution reports: every
//! quarantined shard and every rung-2/rung-3 block shows up there, never
//! silently.

use crate::distribution::SubDatasetView;
use datanet_dfs::BlockId;
use serde::{Deserialize, Serialize};

/// Where each shard's metadata came from when assembling a degraded view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSource {
    /// The full shard was readable (possibly after replica failover).
    Full,
    /// Every full copy failed; the bloom-only summary sidecar answered.
    Summary,
    /// Shard and summary both lost: its blocks dropped to rung 3.
    Lost,
}

/// Per-rung block counts, the `Report` breakdown the ladder promises.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RungCounts {
    /// Blocks with exact sizes (rung 1).
    pub exact: usize,
    /// Blocks with bloom-only membership (rung 2).
    pub bloom: usize,
    /// Blocks with no metadata at all (rung 3).
    pub fallback: usize,
}

impl RungCounts {
    /// Total blocks the ladder had to place.
    pub fn total(&self) -> usize {
        self.exact + self.bloom + self.fallback
    }

    /// Whether any block fell below rung 1.
    pub fn any_degraded(&self) -> bool {
        self.bloom > 0 || self.fallback > 0
    }
}

/// A sub-dataset view assembled under metadata failures.
///
/// The inner [`SubDatasetView`] holds everything rungs 1–2 know (τ₁ exact
/// sizes, τ₂ bloom membership, δ); `unknown` lists the rung-3 blocks whose
/// shards were irrecoverable — membership there is unknowable, so a correct
/// selection must still scan them.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedView {
    view: SubDatasetView,
    unknown: Vec<BlockId>,
    pub(crate) sources: Vec<ShardSource>,
}

impl DegradedView {
    /// Assemble from the parts a degraded store read produced.
    pub fn new(view: SubDatasetView, mut unknown: Vec<BlockId>, sources: Vec<ShardSource>) -> Self {
        unknown.sort_unstable();
        unknown.dedup();
        Self {
            view,
            unknown,
            sources,
        }
    }

    /// The rung-1/rung-2 view (τ₁ + τ₂ + δ).
    pub fn view(&self) -> &SubDatasetView {
        &self.view
    }

    /// Rung-3 blocks: shards lost beyond repair, membership unknown.
    pub fn unknown_blocks(&self) -> &[BlockId] {
        &self.unknown
    }

    /// Block counts per rung.
    pub fn rung_counts(&self) -> RungCounts {
        RungCounts {
            exact: self.view.exact().len(),
            bloom: self.view.bloom().len(),
            fallback: self.unknown.len(),
        }
    }

    /// Whether every shard answered in full (pure rung-1 view).
    pub fn is_healthy(&self) -> bool {
        self.sources.iter().all(|s| *s == ShardSource::Full)
    }
}

/// Metadata-plane health accounting, carried into execution reports.
///
/// All-zero ([`MetaHealth::default`]) means the metadata plane never
/// degraded: every shard read exactly, nothing scrubbed, repaired or
/// quarantined.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetaHealth {
    /// Shards examined by `scrub()` passes.
    pub shards_scrubbed: usize,
    /// Bad shard copies rewritten from a healthy replica.
    pub shards_repaired: usize,
    /// Shards with no healthy full copy anywhere (reads fail fast).
    pub shards_quarantined: usize,
    /// Bad summary sidecar copies rewritten from a healthy replica.
    pub summaries_repaired: usize,
    /// Reads rejected by CRC verification.
    pub checksum_failures: usize,
    /// Reads that failed at the I/O or decode layer.
    pub io_failures: usize,
    /// Back-off rounds: re-reads of a file after every replica failed.
    pub retries: usize,
    /// Fail-overs to another replica directory.
    pub failovers: usize,
    /// Blocks scheduled per ladder rung during the last selection.
    pub rungs: RungCounts,
    /// `|estimate − actual| / actual` of the (possibly degraded) Equation 6
    /// estimate driving the scheduler; compare against a healthy run's
    /// error to isolate the degradation-attributable part.
    pub est_error: f64,
}

impl MetaHealth {
    /// Whether the metadata plane saw any trouble at all.
    pub fn any(&self) -> bool {
        self.shards_repaired > 0
            || self.shards_quarantined > 0
            || self.summaries_repaired > 0
            || self.checksum_failures > 0
            || self.io_failures > 0
            || self.retries > 0
            || self.failovers > 0
            || self.rungs.any_degraded()
    }
}

/// Which rung of the degradation ladder served a block's metadata.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// Rung 1: exact hash-map size (τ₁).
    Exact,
    /// Rung 2: bloom membership only, weighted by δ (τ₂) — from a healthy
    /// shard's bloom side or a summary sidecar of a lost shard.
    Bloom,
    /// Rung 3: metadata unavailable; locality-baseline placement.
    Fallback,
}

#[cfg(test)]
impl DegradedView {
    /// Which rung a block's metadata came from; `None` when the block is
    /// known not to contain the sub-dataset (skippable).
    pub(crate) fn rung_of(&self, b: BlockId) -> Option<Rung> {
        if self
            .view
            .exact()
            .binary_search_by_key(&b, |&(blk, _)| blk)
            .is_ok()
        {
            return Some(Rung::Exact);
        }
        if self.view.bloom().binary_search(&b).is_ok() {
            return Some(Rung::Bloom);
        }
        if self.unknown.binary_search(&b).is_ok() {
            return Some(Rung::Fallback);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::SubDatasetId;

    fn degraded() -> DegradedView {
        let view = SubDatasetView::new(
            SubDatasetId(1),
            vec![(BlockId(0), 500), (BlockId(2), 900)],
            vec![BlockId(4), BlockId(5)],
            u64::MAX,
        );
        DegradedView::new(
            view,
            vec![BlockId(7), BlockId(6), BlockId(7)],
            vec![ShardSource::Full, ShardSource::Summary, ShardSource::Lost],
        )
    }

    #[test]
    fn rung_classification() {
        let d = degraded();
        assert_eq!(d.rung_of(BlockId(0)), Some(Rung::Exact));
        assert_eq!(d.rung_of(BlockId(2)), Some(Rung::Exact));
        assert_eq!(d.rung_of(BlockId(4)), Some(Rung::Bloom));
        assert_eq!(d.rung_of(BlockId(6)), Some(Rung::Fallback));
        assert_eq!(d.rung_of(BlockId(7)), Some(Rung::Fallback));
        assert_eq!(d.rung_of(BlockId(1)), None, "known-absent is skippable");
        assert!(!d.is_healthy());
    }

    #[test]
    fn unknown_blocks_are_deduped_and_sorted() {
        let d = degraded();
        assert_eq!(d.unknown_blocks(), &[BlockId(6), BlockId(7)]);
        let c = d.rung_counts();
        assert_eq!((c.exact, c.bloom, c.fallback), (2, 2, 2));
        assert_eq!(c.total(), 6);
        assert!(c.any_degraded());
    }

    #[test]
    fn serde_roundtrip() {
        let h = MetaHealth {
            shards_quarantined: 1,
            est_error: 0.25,
            rungs: RungCounts {
                exact: 5,
                bloom: 2,
                fallback: 1,
            },
            ..MetaHealth::default()
        };
        let json = serde_json::to_string(&h).unwrap();
        let back: MetaHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
