//! HDFS block files.
//!
//! The DFS splits an incoming record stream into fixed-capacity blocks in
//! arrival order — exactly how HDFS chunks a chronologically-written log
//! file. A block therefore contains "many sub-datasets", and one sub-dataset
//! spans many blocks (Section I of the paper).

use crate::ids::{BlockId, SubDatasetId};
use crate::record::Record;
use std::sync::Arc;

/// A sealed block file holding records.
///
/// Not serializable on purpose: `sizes` is derived from `records`, and a
/// block read from bytes we did not write could carry a table that
/// disagrees with its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    id: BlockId,
    records: Vec<Record>,
    bytes: u64,
    /// `(sub-dataset, bytes)` for every sub-dataset present, id ascending:
    /// the paper's Table I, accumulated by the one pass [`Block::new`]
    /// makes over the records. Shared, so the ingest path's pending delta
    /// holds this allocation instead of a copy.
    sizes: Arc<[(SubDatasetId, u64)]>,
}

impl Block {
    /// Build a block from records; `bytes` and the per-sub-dataset size
    /// table are derived here, in one pass over the record sizes.
    pub fn new(id: BlockId, records: Vec<Record>) -> Self {
        let (bytes, sizes) = size_table(&records);
        Self {
            id,
            records,
            bytes,
            sizes: sizes.into(),
        }
    }

    /// The block id.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Records in write order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Total payload bytes stored in this block.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Bytes in this block belonging to sub-dataset `s` — the paper's
    /// `|b_i ∩ s_j|`: a binary search of [`Block::subdataset_sizes`], 0 for
    /// an absent id. This is ground truth, the simulator's stand-in for
    /// reading the data — what the engine executes against and what the
    /// accuracy evaluation (Figure 9) compares the ElasticMap with — not
    /// metadata a planner may consult.
    pub fn subdataset_bytes(&self, s: SubDatasetId) -> u64 {
        match self.sizes.binary_search_by_key(&s, |&(id, _)| id) {
            Ok(i) => self.sizes[i].1,
            Err(_) => 0,
        }
    }

    /// Exact per-sub-dataset byte sizes within this block, id ascending:
    /// the ground-truth version of Table I, computed once at write time.
    /// The ElasticMap build and the ingest delta both start from it.
    pub fn subdataset_sizes(&self) -> &Arc<[(SubDatasetId, u64)]> {
        &self.sizes
    }

    /// Forget the records, keeping `bytes` and the size table — what is
    /// left is everything a query path may read (see
    /// [`crate::Dfs::drop_payloads`]).
    pub(crate) fn drop_records(&mut self) {
        self.records = Vec::new();
    }

    /// Iterator over records of one sub-dataset in write order (the filter
    /// step of every sub-dataset analysis job). Reads no record of a block
    /// whose size table lacks `s` (a listed id has non-zero bytes, as every
    /// record has at least one: [`Record::new`]).
    pub fn filter(&self, s: SubDatasetId) -> impl Iterator<Item = &Record> {
        let held: &[Record] = if self.subdataset_bytes(s) > 0 {
            &self.records
        } else {
            &[]
        };
        held.iter().filter(move |r| r.subdataset == s)
    }
}

/// Total bytes of `records`, and bytes per sub-dataset, id ascending (a
/// per-sub-dataset size saturates at `u64::MAX`). One pass accumulates
/// into first-appearance order through a small open-addressed index (at
/// most half full, linear probing; a slot holds an entry's position + 1),
/// then only the distinct entries are sorted — sorting every record
/// instead doubled the cost of a DFS write.
fn size_table(records: &[Record]) -> (u64, Vec<(SubDatasetId, u64)>) {
    let mask = (records.len() * 2).next_power_of_two() - 1;
    let mut slots = vec![0usize; mask + 1];
    let mut sizes: Vec<(SubDatasetId, u64)> = Vec::new();
    let mut bytes = 0u64;
    for r in records {
        bytes += u64::from(r.size);
        let mut i = (r.subdataset.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while slots[i] != 0 && sizes[slots[i] - 1].0 != r.subdataset {
            i = (i + 1) & mask;
        }
        if slots[i] == 0 {
            sizes.push((r.subdataset, 0));
            slots[i] = sizes.len();
        }
        let size = &mut sizes[slots[i] - 1].1;
        *size = size.saturating_add(u64::from(r.size));
    }
    sizes.sort_unstable_by_key(|&(s, _)| s);
    (bytes, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Block {
        Block::new(
            BlockId(0),
            vec![
                Record::new(SubDatasetId(1), 0, 100, 1),
                Record::new(SubDatasetId(2), 1, 50, 2),
                Record::new(SubDatasetId(1), 2, 25, 3),
            ],
        )
    }

    #[test]
    fn byte_accounting() {
        let b = block();
        assert_eq!(b.bytes(), 175);
        assert_eq!(b.len(), 3);
        assert_eq!(b.subdataset_bytes(SubDatasetId(1)), 125);
        assert_eq!(b.subdataset_bytes(SubDatasetId(2)), 50);
        assert_eq!(b.subdataset_bytes(SubDatasetId(3)), 0);
    }

    #[test]
    fn sizes_table_matches_per_subdataset_query() {
        let b = block();
        let sizes = b.subdataset_sizes();
        assert_eq!(sizes[..], [(SubDatasetId(1), 125), (SubDatasetId(2), 50)]);
        for &(s, bytes) in sizes.iter() {
            assert_eq!(b.subdataset_bytes(s), bytes);
        }
        let total: u64 = sizes.iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(total, b.bytes());
    }

    #[test]
    fn filter_returns_matching_records() {
        let b = block();
        let got: Vec<_> = b.filter(SubDatasetId(1)).collect();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|r| r.subdataset == SubDatasetId(1)));
    }

    #[test]
    fn empty_block() {
        let b = Block::new(BlockId(9), vec![]);
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
        assert!(b.subdataset_sizes().is_empty());
    }
}
