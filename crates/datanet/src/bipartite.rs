//! The bipartite distribution graph `G = (CN, B, E)` of Section IV-A.
//!
//! Vertices are cluster nodes and block files; an edge `(cn_i, b_j)` exists
//! iff node `cn_i` holds a replica of `b_j`, weighted by `|b_j ∩ s|` — the
//! sub-dataset bytes the ElasticMap attributes to that block. Algorithm 1
//! consumes the graph destructively: assigning a block removes all of its
//! edges.

use crate::distribution::SubDatasetView;
use datanet_dfs::{BlockId, NameNode, NodeId};

/// The `span` length of a block that is not in the graph.
const ABSENT: u32 = u32::MAX;

/// Mutable bipartite graph between cluster nodes and (not-yet-assigned)
/// blocks, weighted by sub-dataset content.
#[derive(Debug, Clone)]
pub struct DistributionGraph {
    /// `local_desc[n]` = blocks adjacent to node `n`, heaviest first (ties
    /// → lowest id). Removed blocks stay in place and are skipped on read.
    local_desc: Vec<Vec<BlockId>>,
    /// `fit_from[n]`: every entry of `local_desc[n]` before it is removed
    /// or heavier than the headroom node `n` last asked with — see
    /// [`DistributionGraph::largest_local_fit`].
    fit_from: Vec<usize>,
    /// The same adjacency lightest first (ties → lowest id);
    /// `light_from[n]` skips the removed prefix.
    local_asc: Vec<Vec<BlockId>>,
    light_from: Vec<usize>,
    /// Every in-scope block's holders, back to back; `span[b]` is block
    /// `b`'s `(start, len)` in it, `len == ABSENT` once removed or never in scope.
    pool: Vec<NodeId>,
    span: Vec<(u32, u32)>,
    /// `weight[b]` = `|b ∩ s|` as known to the meta-data.
    weight: Vec<u64>,
    /// Scope blocks sorted lightest-first (weight asc, ties → lowest id).
    /// Removed blocks stay in place; `cur_asc` skips past them lazily, so
    /// [`DistributionGraph::lightest`] is amortized O(1) over a plan where
    /// a full `remaining_blocks()` scan was O(total blocks) per request.
    order_asc: Vec<(u64, u32)>,
    cur_asc: usize,
    /// The same blocks sorted heaviest-first (weight desc, ties → lowest
    /// id), consumed by `cur_desc` for [`DistributionGraph::heaviest`].
    order_desc: Vec<(u64, u32)>,
    cur_desc: usize,
    /// Blocks still in the graph.
    remaining: usize,
}

impl DistributionGraph {
    /// Build the graph for the blocks in `view` (τ₁ ∪ τ₂), using the
    /// NameNode's replica map for edges and the view's weights.
    pub fn from_view(namenode: &NameNode, view: &SubDatasetView) -> Self {
        let bloom = view.bloom().iter().map(|&b| (b, view.delta()));
        Self::build(namenode, view.exact().iter().copied().chain(bloom))
    }

    /// Build the graph over an explicit `(block, weight)` scope. Blocks
    /// must be distinct.
    pub fn build(namenode: &NameNode, scope: impl IntoIterator<Item = (BlockId, u64)>) -> Self {
        let total_blocks = namenode.block_count();
        let mut pool = Vec::new();
        let mut degree = vec![0usize; namenode.node_count()];
        let mut span = vec![(0, ABSENT); total_blocks];
        let mut weight = vec![0u64; total_blocks];
        let mut order_asc = Vec::new();
        for (b, w) in scope {
            assert!(b.index() < total_blocks, "block {b} unknown to NameNode");
            assert!(span[b.index()].1 == ABSENT, "duplicate block {b} in scope");
            let replicas = namenode.replicas(b);
            span[b.index()] = (pool.len() as u32, replicas.len() as u32);
            pool.extend_from_slice(replicas);
            for n in replicas {
                degree[n.index()] += 1;
            }
            weight[b.index()] = w;
            order_asc.push((w, b.0));
        }
        let remaining = order_asc.len();
        order_asc.sort_unstable();
        // Heaviest first keeps ids ascending inside a run of equal weights,
        // so it is the runs that reverse, not the entries.
        let mut order_desc = Vec::with_capacity(order_asc.len());
        for run in order_asc.chunk_by(|a, b| a.0 == b.0).rev() {
            order_desc.extend_from_slice(run);
        }
        // Dealing each global order out to the holders leaves every node's
        // list, sized by its degree, in that order, with no per-node sort.
        let deal = |order: &[(u64, u32)]| {
            let mut local: Vec<Vec<_>> = degree.iter().map(|&d| Vec::with_capacity(d)).collect();
            for &(_, b) in order {
                for n in &pool[run(span[b as usize])] {
                    local[n.index()].push(BlockId(b));
                }
            }
            local
        };
        Self {
            local_desc: deal(&order_desc),
            fit_from: vec![0; degree.len()],
            local_asc: deal(&order_asc),
            light_from: vec![0; degree.len()],
            pool,
            span,
            weight,
            order_asc,
            cur_asc: 0,
            order_desc,
            cur_desc: 0,
            remaining,
        }
    }

    /// Blocks still unassigned that are local to `n` — the paper's `d_i` —
    /// heaviest first (ties → lowest id).
    pub fn local_blocks(&self, n: NodeId) -> impl Iterator<Item = BlockId> + '_ {
        self.local_desc[n.index()]
            .iter()
            .copied()
            .filter(|b| self.contains(*b))
    }

    /// The heaviest block local to `n` that weighs at most `headroom`
    /// (ties → lowest id), amortized O(1): the first such entry of the
    /// heaviest-first list, found by a cursor that never steps back. That
    /// is only right while `headroom` does not grow from one call for `n`
    /// to the next — a node's headroom shrinks as it is assigned work —
    /// so whatever may raise it ([`DistributionGraph::remove_node`],
    /// [`DistributionGraph::reinsert`], after which targets are recomputed)
    /// rewinds the cursors.
    pub(crate) fn largest_local_fit(&mut self, n: NodeId, headroom: f64) -> Option<BlockId> {
        let from = &mut self.fit_from[n.index()];
        while let Some(&b) = self.local_desc[n.index()].get(*from) {
            if self.span[b.index()].1 != ABSENT && self.weight[b.index()] as f64 <= headroom {
                return Some(b);
            }
            *from += 1;
        }
        None
    }

    /// The lightest block local to `n` (ties → lowest id), amortized O(1).
    pub(crate) fn lightest_local(&mut self, n: NodeId) -> Option<BlockId> {
        let from = &mut self.light_from[n.index()];
        while let Some(&b) = self.local_asc[n.index()].get(*from) {
            if self.span[b.index()].1 != ABSENT {
                return Some(b);
            }
            *from += 1;
        }
        None
    }

    /// Nodes holding block `b`, if it is still in the graph.
    pub fn holders(&self, b: BlockId) -> Option<&[NodeId]> {
        let span = self.span[b.index()];
        (span.1 != ABSENT).then(|| &self.pool[run(span)])
    }

    /// Whether block `b` is still unassigned and in scope.
    pub fn contains(&self, b: BlockId) -> bool {
        self.span[b.index()].1 != ABSENT
    }

    /// The weight `|b ∩ s|` of a block (0 if out of scope).
    pub fn weight(&self, b: BlockId) -> u64 {
        self.weight[b.index()]
    }

    /// Number of blocks still in the graph.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// All blocks still in the graph.
    pub fn remaining_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.span
            .iter()
            .enumerate()
            .filter(|(_, s)| s.1 != ABSENT)
            .map(|(i, _)| BlockId(i as u32))
    }

    /// Total weight still unassigned.
    pub fn remaining_weight(&self) -> u64 {
        self.remaining_blocks().map(|b| self.weight(b)).sum()
    }

    /// The heaviest remaining block (ties → lowest id), amortized O(1) —
    /// the per-request "global heaviest" candidate of Algorithm 1's paced
    /// policy, which would otherwise rescan every block per assignment.
    /// `&mut` because the skip-cursor advances past removed entries.
    pub fn heaviest(&mut self) -> Option<BlockId> {
        while let Some(&(_, b)) = self.order_desc.get(self.cur_desc) {
            if self.span[b as usize].1 != ABSENT {
                return Some(BlockId(b));
            }
            self.cur_desc += 1;
        }
        None
    }

    /// The lightest remaining block (ties → lowest id), amortized O(1) —
    /// the overshoot-minimising fallback pick of Algorithm 1.
    pub fn lightest(&mut self) -> Option<BlockId> {
        while let Some(&(_, b)) = self.order_asc.get(self.cur_asc) {
            if self.span[b as usize].1 != ABSENT {
                return Some(BlockId(b));
            }
            self.cur_asc += 1;
        }
        None
    }

    /// Number of cluster nodes.
    pub fn node_count(&self) -> usize {
        self.local_desc.len()
    }

    /// Remove block `b` and all of its edges (lines 18–20 of Algorithm 1).
    ///
    /// # Panics
    /// Panics if `b` was already removed or never in scope.
    pub fn remove_block(&mut self, b: BlockId) {
        let len = &mut self.span[b.index()].1;
        assert!(*len != ABSENT, "block {b} not in graph");
        *len = ABSENT;
        // The pool and the weight-order vectors, global and per node, are
        // untouched: the skip-cursors step over the dead entry the next
        // time they reach it.
        self.remaining -= 1;
    }

    /// Put a previously removed block back, with an explicit holder set —
    /// fault recovery re-enqueues a crashed node's blocks against their
    /// *surviving* replicas. The block's weight is retained from the
    /// original scope.
    ///
    /// # Panics
    /// Panics if `b` is still in the graph or `holders` is empty.
    pub fn reinsert(&mut self, b: BlockId, holders: Vec<NodeId>) {
        assert!(!self.contains(b), "block {b} is already in the graph");
        assert!(!holders.is_empty(), "a reinserted block needs a holder");
        let w = self.weight[b.index()];
        // The new holder set is authoritative: stale adjacency entries from
        // the original build would otherwise pass the `contains` filter
        // again and revive edges to nodes that lost their replica. A stale
        // entry of a surviving holder is already where its weight puts it.
        for n in 0..self.local_desc.len() {
            let holds = holders.iter().any(|h| h.index() == n);
            let (desc, asc) = (&mut self.local_desc[n], &mut self.local_asc[n]);
            if !holds {
                desc.retain(|&x| x != b);
                asc.retain(|&x| x != b);
            } else if !desc.contains(&b) {
                let key = |x: &BlockId| (self.weight[x.index()], x.0);
                let at = desc.partition_point(|x| {
                    let (xw, xid) = key(x);
                    xw > w || (xw == w && xid < b.0)
                });
                desc.insert(at, b);
                let at = asc.partition_point(|x| key(x) < (w, b.0));
                asc.insert(at, b);
            }
        }
        self.span[b.index()] = (self.pool.len() as u32, holders.len() as u32);
        self.pool.extend_from_slice(&holders);
        // Make sure the order vectors cover the block (they always do when
        // it came from the original scope), then rewind the skip-cursors:
        // the revived entry may sit before any of them. Reinsertion is a
        // rare fault-recovery path, so the O(n) re-skip is irrelevant.
        if let Err(pos) = self.order_asc.binary_search(&(w, b.0)) {
            self.order_asc.insert(pos, (w, b.0));
            let pos = self
                .order_desc
                .binary_search_by(|e| e.0.cmp(&w).reverse().then(e.1.cmp(&b.0)))
                .unwrap_err();
            self.order_desc.insert(pos, (w, b.0));
        }
        self.rewind();
        self.remaining += 1;
    }

    fn rewind(&mut self) {
        self.cur_asc = 0;
        self.cur_desc = 0;
        self.fit_from.fill(0);
        self.light_from.fill(0);
    }

    /// Drop every edge to node `n` (it crashed): blocks whose only holder
    /// was `n` stay in the graph but become remote-only.
    pub fn remove_node(&mut self, n: NodeId) {
        self.local_desc[n.index()].clear();
        self.local_asc[n.index()].clear();
        for span in self.span.iter_mut().filter(|s| s.1 != ABSENT) {
            let holders = &mut self.pool[run(*span)];
            if let Some(p) = holders.iter().position(|&h| h == n) {
                holders[p..].rotate_left(1);
                span.1 -= 1;
            }
        }
        self.rewind();
    }
}

/// The `pool` range a live `(start, len)` span covers.
fn run((start, len): (u32, u32)) -> std::ops::Range<usize> {
    start as usize..(start + len) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::SubDatasetId;

    fn namenode() -> NameNode {
        let mut nn = NameNode::new(3);
        nn.register(BlockId(0), vec![NodeId(0), NodeId(1)]);
        nn.register(BlockId(1), vec![NodeId(1), NodeId(2)]);
        nn.register(BlockId(2), vec![NodeId(0), NodeId(2)]);
        nn.register(BlockId(3), vec![NodeId(2)]);
        nn
    }

    fn graph() -> DistributionGraph {
        DistributionGraph::build(
            &namenode(),
            vec![(BlockId(0), 100), (BlockId(1), 50), (BlockId(3), 10)],
        )
    }

    #[test]
    fn scope_controls_membership() {
        let g = graph();
        assert!(g.contains(BlockId(0)));
        assert!(!g.contains(BlockId(2))); // not in scope
        assert_eq!(g.remaining(), 3);
        assert_eq!(g.remaining_weight(), 160);
        assert_eq!(g.weight(BlockId(2)), 0);
    }

    #[test]
    fn adjacency_mirrors_replicas() {
        let g = graph();
        let d0: Vec<_> = g.local_blocks(NodeId(0)).collect();
        assert_eq!(d0, vec![BlockId(0)]);
        let d2: Vec<_> = g.local_blocks(NodeId(2)).collect();
        assert_eq!(d2, vec![BlockId(1), BlockId(3)]);
        assert_eq!(g.holders(BlockId(1)).unwrap(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn removal_deletes_all_edges() {
        let mut g = graph();
        g.remove_block(BlockId(1));
        assert!(!g.contains(BlockId(1)));
        assert_eq!(g.remaining(), 2);
        assert!(g.local_blocks(NodeId(1)).all(|b| b != BlockId(1)));
        assert!(g.local_blocks(NodeId(2)).all(|b| b != BlockId(1)));
        assert!(g.holders(BlockId(1)).is_none());
    }

    #[test]
    fn from_view_uses_view_weights() {
        let nn = namenode();
        let view = SubDatasetView::new(
            SubDatasetId(5),
            vec![(BlockId(0), 777)],
            vec![BlockId(3)],
            u64::MAX,
        );
        let g = DistributionGraph::from_view(&nn, &view);
        assert_eq!(g.weight(BlockId(0)), 777);
        assert_eq!(g.weight(BlockId(3)), 777); // δ = min exact = 777
        assert!(!g.contains(BlockId(1)));
    }

    #[test]
    fn reinsert_restores_block_with_surviving_holders() {
        let mut g = graph();
        g.remove_block(BlockId(0));
        assert!(!g.contains(BlockId(0)));
        // Back with only node 1 surviving.
        g.reinsert(BlockId(0), vec![NodeId(1)]);
        assert!(g.contains(BlockId(0)));
        assert_eq!(g.remaining(), 3);
        assert_eq!(g.weight(BlockId(0)), 100, "weight survives the round trip");
        assert_eq!(g.holders(BlockId(0)).unwrap(), &[NodeId(1)]);
        // Node 1 sees it locally; node 0 no longer does.
        assert!(g.local_blocks(NodeId(1)).any(|b| b == BlockId(0)));
        assert!(g.local_blocks(NodeId(0)).all(|b| b != BlockId(0)));
    }

    #[test]
    fn remove_node_strips_edges_but_keeps_blocks() {
        let mut g = graph();
        g.remove_node(NodeId(2));
        assert_eq!(g.remaining(), 3, "blocks are not lost with the node");
        assert_eq!(g.local_blocks(NodeId(2)).count(), 0);
        assert_eq!(g.holders(BlockId(1)).unwrap(), &[NodeId(1)]);
        assert!(
            g.holders(BlockId(3)).unwrap().is_empty(),
            "block 3 lived only on node 2"
        );
    }

    /// The per-node cursors answer like a full walk of the node's list,
    /// through removals, a node loss and reinsertions, as long as each
    /// node's headroom only shrinks between rewinds; and the holder pool
    /// answers like one list per block, `None` once removed or never in
    /// scope.
    #[test]
    fn local_cursors_match_a_full_walk() {
        // Tiny xorshift: the test needs arbitrary, not good, numbers.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let (nodes, blocks) = (5u32, 60u32);
        let mut nn = NameNode::new(nodes as usize);
        for b in 0..blocks {
            let first = next(nodes as u64) as u32;
            nn.register(
                BlockId(b),
                vec![NodeId(first), NodeId((first + 1 + b % 3) % nodes)],
            );
        }
        // Few distinct weights, so ties are the common case; every seventh
        // block stays out of scope.
        let scope: Vec<(BlockId, u64)> = (0..blocks)
            .filter(|b| b % 7 != 3)
            .map(|b| (BlockId(b), 10 * next(6)))
            .collect();
        let mut holders: Vec<Option<Vec<NodeId>>> = vec![None; blocks as usize];
        for &(b, _) in &scope {
            holders[b.index()] = Some(nn.replicas(b).to_vec());
        }
        let mut g = DistributionGraph::build(&nn, scope);
        let mut headroom = vec![70.0f64; nodes as usize];
        let mut removed: Vec<BlockId> = Vec::new();
        let mut alive = vec![true; nodes as usize];
        for step in 0..200 {
            for b in (0..blocks).map(BlockId) {
                assert_eq!(
                    g.holders(b),
                    holders[b.index()].as_deref(),
                    "step {step}, {b}"
                );
            }
            for n in (0..nodes).map(NodeId) {
                let walk: Vec<(u64, BlockId)> =
                    g.local_blocks(n).map(|b| (g.weight(b), b)).collect();
                let lightest = walk.iter().min().map(|&(_, b)| b);
                assert_eq!(g.lightest_local(n), lightest, "step {step}, node {n}");
                let room = headroom[n.index()];
                let fit = (walk.iter().filter(|&&(w, _)| w as f64 <= room))
                    .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                    .map(|&(_, b)| b);
                assert_eq!(g.largest_local_fit(n, room), fit, "step {step}, node {n}");
            }
            match next(10) {
                0 if alive.iter().filter(|&&a| a).count() > 2 => {
                    let dead = next(nodes as u64) as usize;
                    alive[dead] = false;
                    g.remove_node(NodeId(dead as u32));
                    for h in holders.iter_mut().flatten() {
                        h.retain(|n| n.index() != dead);
                    }
                    headroom.fill(70.0);
                }
                1 | 2 if !removed.is_empty() => {
                    let b = removed.swap_remove(next(removed.len() as u64) as usize);
                    let survivors = nn.surviving_replicas(b, &alive);
                    if !survivors.is_empty() {
                        holders[b.index()] = Some(survivors.clone());
                        g.reinsert(b, survivors);
                        headroom.fill(70.0);
                    }
                }
                _ => {
                    let k = next(blocks as u64) as usize % g.remaining().max(1);
                    let pick = g.remaining_blocks().nth(k);
                    if let Some(b) = pick {
                        g.remove_block(b);
                        holders[b.index()] = None;
                        removed.push(b);
                    }
                    let n = next(nodes as u64) as usize;
                    headroom[n] = (headroom[n] - 7.0).max(0.0);
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn reinsert_of_live_block_panics() {
        let mut g = graph();
        g.reinsert(BlockId(0), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic]
    fn double_removal_panics() {
        let mut g = graph();
        g.remove_block(BlockId(0));
        g.remove_block(BlockId(0));
    }

    #[test]
    #[should_panic]
    fn duplicate_scope_panics() {
        DistributionGraph::build(&namenode(), vec![(BlockId(0), 1), (BlockId(0), 2)]);
    }
}
