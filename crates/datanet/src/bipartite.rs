//! The bipartite distribution graph `G = (CN, B, E)` of Section IV-A.
//!
//! Vertices are cluster nodes and block files; an edge `(cn_i, b_j)` exists
//! iff node `cn_i` holds a replica of `b_j`, weighted by `|b_j ∩ s|` — the
//! sub-dataset bytes the ElasticMap attributes to that block. Algorithm 1
//! consumes the graph destructively: assigning a block removes all of its
//! edges.
//!
//! The graph costs its view, not the DFS: every array it keeps is indexed
//! by *slot* — a block's position among the scope's blocks in id order —
//! so nothing it allocates or walks grows with the NameNode's block count.
//! The [`BlockId`] methods find a block's slot by binary search.

use crate::distribution::SubDatasetView;
use datanet_dfs::{BlockId, NameNode, NodeId};

/// The `span` length of a slot that is no longer in the graph.
const ABSENT: u32 = u32::MAX;

/// Mutable bipartite graph between cluster nodes and (not-yet-assigned)
/// blocks, weighted by sub-dataset content.
#[derive(Debug, Clone)]
pub(crate) struct DistributionGraph {
    /// `scope[slot]` = the block in that slot and its weight `|b ∩ s|` as
    /// known to the meta-data; block ids ascending.
    scope: Vec<(BlockId, u64)>,
    /// Every slot's holders, back to back; `span[slot]` is its
    /// `(start, len)` in it, `len == ABSENT` once removed.
    pool: Vec<NodeId>,
    span: Vec<(u32, u32)>,
    /// Slots lightest first (weight asc, ties → lowest id). Removed slots
    /// stay in place; `cur_asc` skips past them lazily, so
    /// `DistributionGraph::lightest` is amortized O(1) where a full scan of
    /// the remaining blocks was O(scope) per request.
    order_asc: Vec<u32>,
    cur_asc: usize,
    /// The same slots heaviest first (weight desc, ties → lowest id),
    /// consumed by `cur_desc` for `DistributionGraph::heaviest`.
    order_desc: Vec<u32>,
    cur_desc: usize,
    /// Node `n`'s adjacency is `local_desc[bounds[n]..bounds[n + 1]]`,
    /// heaviest first, and the same range of `local_asc`, lightest first
    /// (ties → lowest id in both). Removed slots stay in place and are
    /// skipped on read.
    bounds: Vec<u32>,
    local_desc: Vec<u32>,
    local_asc: Vec<u32>,
    /// `fit_from[n]`: every entry of node `n`'s heaviest-first range before
    /// this position is removed or heavier than the headroom `n` last asked
    /// with — see `DistributionGraph::largest_local_fit`.
    fit_from: Vec<u32>,
    /// `light_from[n]` skips the removed prefix of `n`'s lightest-first range.
    light_from: Vec<u32>,
    /// Blocks still in the graph.
    remaining: usize,
}

impl DistributionGraph {
    /// Build the graph for the blocks in `view` (τ₁ ∪ τ₂), using the
    /// NameNode's replica map for edges and the view's weights.
    pub(crate) fn from_view(namenode: &NameNode, view: &SubDatasetView) -> Self {
        // Merged in block order, the scope is one `build` need not sort.
        let mut scope = Vec::with_capacity(view.block_count());
        scope.extend(view.scope());
        Self::build(namenode, scope)
    }

    /// Build the graph over an explicit `(block, weight)` scope. Blocks
    /// must be distinct.
    pub(crate) fn build(
        namenode: &NameNode,
        scope: impl IntoIterator<Item = (BlockId, u64)>,
    ) -> Self {
        let mut scope: Vec<(BlockId, u64)> = scope.into_iter().collect();
        if !scope.is_sorted_by_key(|e| e.0) {
            scope.sort_unstable_by_key(|e| e.0);
        }
        for pair in scope.windows(2) {
            assert!(
                pair[0].0 != pair[1].0,
                "duplicate block {} in scope",
                pair[0].0
            );
        }
        if let Some(&(last, _)) = scope.last() {
            assert!(
                last.index() < namenode.block_count(),
                "block {last} unknown to NameNode"
            );
        }
        let holders = scope.iter().map(|e| namenode.replicas(e.0).len()).sum();
        let mut pool = Vec::with_capacity(holders);
        let mut span = Vec::with_capacity(scope.len());
        for &(b, _) in &scope {
            let replicas = namenode.replicas(b);
            span.push((pool.len() as u32, replicas.len() as u32));
            pool.extend_from_slice(replicas);
        }
        // One sort, on a packed `weight << 32 | slot` key. Slots are in id
        // order, so a tie on weight falls to the lower id.
        let mut keys: Vec<u128> = (scope.iter().enumerate())
            .map(|(slot, e)| (u128::from(e.1) << 32) | slot as u128)
            .collect();
        keys.sort_unstable();
        let order_asc: Vec<u32> = keys.into_iter().map(|k| k as u32).collect();
        // Heaviest first keeps ids ascending inside a run of equal weights,
        // so it is the runs that reverse, not the entries.
        let mut order_desc = Vec::with_capacity(order_asc.len());
        let same_weight = |a: &u32, b: &u32| scope[*a as usize].1 == scope[*b as usize].1;
        for run in order_asc.chunk_by(same_weight).rev() {
            order_desc.extend_from_slice(run);
        }
        let nodes = namenode.node_count();
        let mut graph = Self {
            remaining: scope.len(),
            scope,
            pool,
            span,
            order_asc,
            cur_asc: 0,
            order_desc,
            cur_desc: 0,
            bounds: vec![0; nodes + 1],
            local_desc: Vec::new(),
            local_asc: Vec::new(),
            fit_from: vec![0; nodes],
            light_from: vec![0; nodes],
        };
        graph.deal();
        graph
    }

    /// Deal the two global orders out to the live slots' holders, which
    /// leaves every node's ranges, sized by its degree, in those orders
    /// with no per-node sort; then rewind every cursor.
    fn deal(&mut self) {
        let nodes = self.fit_from.len();
        self.bounds.fill(0);
        for &span in self.span.iter().filter(|s| s.1 != ABSENT) {
            for n in &self.pool[run(span)] {
                self.bounds[n.index() + 1] += 1;
            }
        }
        for n in 0..nodes {
            self.bounds[n + 1] += self.bounds[n];
        }
        let edges = self.bounds[nodes] as usize;
        for (order, local, next) in [
            (&self.order_desc, &mut self.local_desc, &mut self.fit_from),
            (&self.order_asc, &mut self.local_asc, &mut self.light_from),
        ] {
            local.clear();
            local.resize(edges, 0);
            next.copy_from_slice(&self.bounds[..nodes]);
            for &slot in order {
                let span = self.span[slot as usize];
                if span.1 == ABSENT {
                    continue;
                }
                for n in &self.pool[run(span)] {
                    local[next[n.index()] as usize] = slot;
                    next[n.index()] += 1;
                }
            }
        }
        self.rewind();
    }

    /// The live slots local to `n`, heaviest first (ties → lowest id).
    pub(crate) fn local_slots(&self, n: NodeId) -> impl Iterator<Item = usize> + '_ {
        let range = self.bounds[n.index()] as usize..self.bounds[n.index() + 1] as usize;
        (self.local_desc[range].iter())
            .map(|&slot| slot as usize)
            .filter(|&slot| self.is_live(slot))
    }

    /// The heaviest slot local to `n` that weighs at most `headroom` (ties
    /// → lowest id), amortized O(1): the first such entry of the
    /// heaviest-first range, found by a cursor that never steps back. That
    /// is only right while `headroom` does not grow from one call for `n`
    /// to the next — a node's headroom shrinks as it is assigned work —
    /// so whatever may raise it ([`DistributionGraph::remove_node`],
    /// [`DistributionGraph::reinsert`], after which targets are recomputed)
    /// rewinds the cursors.
    pub(crate) fn largest_local_fit(&mut self, n: NodeId, headroom: f64) -> Option<usize> {
        let end = self.bounds[n.index() + 1];
        let from = &mut self.fit_from[n.index()];
        while *from < end {
            let slot = self.local_desc[*from as usize] as usize;
            if self.span[slot].1 != ABSENT && self.scope[slot].1 as f64 <= headroom {
                return Some(slot);
            }
            *from += 1;
        }
        None
    }

    /// The lightest slot local to `n` (ties → lowest id), amortized O(1).
    pub(crate) fn lightest_local(&mut self, n: NodeId) -> Option<usize> {
        let end = self.bounds[n.index() + 1];
        let from = &mut self.light_from[n.index()];
        while *from < end {
            let slot = self.local_asc[*from as usize] as usize;
            if self.span[slot].1 != ABSENT {
                return Some(slot);
            }
            *from += 1;
        }
        None
    }

    /// The slot of block `b`, if `b` was in scope.
    fn slot_of(&self, b: BlockId) -> Option<usize> {
        self.scope.binary_search_by_key(&b, |e| e.0).ok()
    }

    fn is_live(&self, slot: usize) -> bool {
        self.span[slot].1 != ABSENT
    }

    /// The block in `slot`.
    pub(crate) fn block(&self, slot: usize) -> BlockId {
        self.scope[slot].0
    }

    /// The weight of the block in `slot`, kept after it is removed.
    pub(crate) fn slot_weight(&self, slot: usize) -> u64 {
        self.scope[slot].1
    }

    /// Nodes holding the block in a live `slot`.
    pub(crate) fn slot_holders(&self, slot: usize) -> &[NodeId] {
        &self.pool[run(self.span[slot])]
    }

    /// Number of blocks still in the graph.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// The live slots, in block order.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.scope.len()).filter(|&slot| self.is_live(slot))
    }

    /// Total weight still unassigned.
    pub(crate) fn remaining_weight(&self) -> u64 {
        self.live_slots().map(|slot| self.scope[slot].1).sum()
    }

    /// The heaviest remaining slot (ties → lowest id), amortized O(1) —
    /// the per-request "global heaviest" candidate of Algorithm 1's paced
    /// policy, which would otherwise rescan every block per assignment.
    /// `&mut` because the skip-cursor advances past removed entries.
    pub(crate) fn heaviest(&mut self) -> Option<usize> {
        while let Some(&slot) = self.order_desc.get(self.cur_desc) {
            if self.is_live(slot as usize) {
                return Some(slot as usize);
            }
            self.cur_desc += 1;
        }
        None
    }

    /// The lightest remaining slot (ties → lowest id), amortized O(1) —
    /// the overshoot-minimising fallback pick of Algorithm 1.
    pub(crate) fn lightest(&mut self) -> Option<usize> {
        while let Some(&slot) = self.order_asc.get(self.cur_asc) {
            if self.is_live(slot as usize) {
                return Some(slot as usize);
            }
            self.cur_asc += 1;
        }
        None
    }

    /// Remove the block in a live `slot` and all of its edges (lines 18–20
    /// of Algorithm 1). The pool and the order arrays,
    /// global and per node, are untouched: the skip-cursors step over the
    /// dead entry the next time they reach it.
    pub(crate) fn remove_slot(&mut self, slot: usize) {
        self.span[slot].1 = ABSENT;
        self.remaining -= 1;
    }

    /// Put a previously removed block back, with an explicit holder set —
    /// fault recovery re-enqueues a crashed node's blocks against their
    /// *surviving* replicas. The block's weight is retained from the
    /// original scope.
    ///
    /// # Panics
    /// Panics if `b` is still in the graph or was never in scope, or
    /// `holders` is empty.
    pub(crate) fn reinsert(&mut self, b: BlockId, holders: Vec<NodeId>) {
        let slot = self.slot_of(b);
        assert!(slot.is_some(), "block {b} was never in scope");
        assert!(
            !slot.is_some_and(|slot| self.is_live(slot)),
            "block {b} is already in the graph"
        );
        assert!(!holders.is_empty(), "a reinserted block needs a holder");
        let Some(slot) = slot else { return };
        self.span[slot] = (self.pool.len() as u32, holders.len() as u32);
        self.pool.extend_from_slice(&holders);
        self.remaining += 1;
        // The new holder set is authoritative, so the per-node ranges are
        // dealt again; the revived entry may also sit before any cursor.
        // Reinsertion is a rare fault-recovery path, so the O(scope) re-deal
        // is irrelevant.
        self.deal();
    }

    fn rewind(&mut self) {
        self.cur_asc = 0;
        self.cur_desc = 0;
        let nodes = self.fit_from.len();
        self.fit_from.copy_from_slice(&self.bounds[..nodes]);
        self.light_from.copy_from_slice(&self.bounds[..nodes]);
    }

    /// Drop every edge to node `n` (it crashed): blocks whose only holder
    /// was `n` stay in the graph but become remote-only.
    pub(crate) fn remove_node(&mut self, n: NodeId) {
        for span in self.span.iter_mut().filter(|s| s.1 != ABSENT) {
            let holders = &mut self.pool[run(*span)];
            if let Some(p) = holders.iter().position(|&h| h == n) {
                holders[p..].rotate_left(1);
                span.1 -= 1;
            }
        }
        self.deal();
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

    // What the planner reads through slots, asked by block id.
    fn live(g: &DistributionGraph, b: BlockId) -> Option<usize> {
        g.slot_of(b).filter(|&slot| g.is_live(slot))
    }

    fn contains(g: &DistributionGraph, b: BlockId) -> bool {
        live(g, b).is_some()
    }

    fn holders_of(g: &DistributionGraph, b: BlockId) -> Option<&[NodeId]> {
        live(g, b).map(|slot| g.slot_holders(slot))
    }

    fn weight(g: &DistributionGraph, b: BlockId) -> u64 {
        g.slot_of(b).map_or(0, |slot| g.slot_weight(slot))
    }

    fn local_blocks(g: &DistributionGraph, n: NodeId) -> impl Iterator<Item = BlockId> + '_ {
        g.local_slots(n).map(|slot| g.block(slot))
    }

    fn remaining_blocks(g: &DistributionGraph) -> impl Iterator<Item = BlockId> + '_ {
        g.live_slots().map(|slot| g.block(slot))
    }

    fn remove_block(g: &mut DistributionGraph, b: BlockId) {
        let slot = live(g, b).expect("block in graph");
        g.remove_slot(slot);
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
        assert!(contains(&g, BlockId(0)));
        assert!(!contains(&g, BlockId(2))); // not in scope
        assert_eq!(g.remaining(), 3);
        assert_eq!(g.remaining_weight(), 160);
        assert_eq!(weight(&g, BlockId(2)), 0);
    }

    #[test]
    fn adjacency_mirrors_replicas() {
        let g = graph();
        let d0: Vec<_> = local_blocks(&g, NodeId(0)).collect();
        assert_eq!(d0, vec![BlockId(0)]);
        let d2: Vec<_> = local_blocks(&g, NodeId(2)).collect();
        assert_eq!(d2, vec![BlockId(1), BlockId(3)]);
        assert_eq!(holders_of(&g, BlockId(1)).unwrap(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn removal_deletes_all_edges() {
        let mut g = graph();
        remove_block(&mut g, BlockId(1));
        assert!(!contains(&g, BlockId(1)));
        assert_eq!(g.remaining(), 2);
        assert!(local_blocks(&g, NodeId(1)).all(|b| b != BlockId(1)));
        assert!(local_blocks(&g, NodeId(2)).all(|b| b != BlockId(1)));
        assert!(holders_of(&g, BlockId(1)).is_none());
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
        assert_eq!(weight(&g, BlockId(0)), 777);
        assert_eq!(weight(&g, BlockId(3)), 777); // δ = min exact = 777
        assert!(!contains(&g, BlockId(1)));
    }

    #[test]
    fn reinsert_restores_block_with_surviving_holders() {
        let mut g = graph();
        remove_block(&mut g, BlockId(0));
        assert!(!contains(&g, BlockId(0)));
        // Back with only node 1 surviving.
        g.reinsert(BlockId(0), vec![NodeId(1)]);
        assert!(contains(&g, BlockId(0)));
        assert_eq!(g.remaining(), 3);
        assert_eq!(
            weight(&g, BlockId(0)),
            100,
            "weight survives the round trip"
        );
        assert_eq!(holders_of(&g, BlockId(0)).unwrap(), &[NodeId(1)]);
        // Node 1 sees it locally; node 0 no longer does.
        assert!(local_blocks(&g, NodeId(1)).any(|b| b == BlockId(0)));
        assert!(local_blocks(&g, NodeId(0)).all(|b| b != BlockId(0)));
    }

    #[test]
    fn remove_node_strips_edges_but_keeps_blocks() {
        let mut g = graph();
        g.remove_node(NodeId(2));
        assert_eq!(g.remaining(), 3, "blocks are not lost with the node");
        assert_eq!(local_blocks(&g, NodeId(2)).count(), 0);
        assert_eq!(holders_of(&g, BlockId(1)).unwrap(), &[NodeId(1)]);
        assert!(
            holders_of(&g, BlockId(3)).unwrap().is_empty(),
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
                    holders_of(&g, b),
                    holders[b.index()].as_deref(),
                    "step {step}, {b}"
                );
            }
            for n in (0..nodes).map(NodeId) {
                let walk: Vec<(u64, BlockId)> =
                    local_blocks(&g, n).map(|b| (weight(&g, b), b)).collect();
                let lightest = walk.iter().min().map(|&(_, b)| b);
                let light = g.lightest_local(n).map(|slot| g.block(slot));
                assert_eq!(light, lightest, "step {step}, node {n}");
                let room = headroom[n.index()];
                let fit = (walk.iter().filter(|&&(w, _)| w as f64 <= room))
                    .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                    .map(|&(_, b)| b);
                let largest = g.largest_local_fit(n, room).map(|slot| g.block(slot));
                assert_eq!(largest, fit, "step {step}, node {n}");
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
                    let pick = remaining_blocks(&g).nth(k);
                    if let Some(b) = pick {
                        remove_block(&mut g, b);
                        holders[b.index()] = None;
                        removed.push(b);
                    }
                    let n = next(nodes as u64) as usize;
                    headroom[n] = (headroom[n] - 7.0).max(0.0);
                }
            }
        }
    }

    /// No vector of the graph is sized by the NameNode: three blocks of a
    /// hundred thousand build a graph whose every array is bounded by the
    /// scope and the node count, and a node loss and a reinsertion keep it
    /// so.
    #[test]
    fn the_graph_costs_its_view() {
        let nodes = 4;
        let mut nn = NameNode::new(nodes);
        for b in 0..100_000u32 {
            let first = b % nodes as u32;
            nn.register(
                BlockId(b),
                vec![NodeId(first), NodeId((first + 1) % nodes as u32)],
            );
        }
        let scope = [(BlockId(99_999), 7), (BlockId(5), 3), (BlockId(50_000), 3)];
        let mut g = DistributionGraph::build(&nn, scope);
        let bound = scope.len() * nodes + nodes + 1;
        let longest = |g: &DistributionGraph| {
            [
                g.scope.len(),
                g.pool.len(),
                g.span.len(),
                g.order_asc.len(),
                g.order_desc.len(),
                g.bounds.len(),
                g.local_desc.len(),
                g.local_asc.len(),
                g.fit_from.len(),
                g.light_from.len(),
            ]
            .into_iter()
            .max()
        };
        assert!(longest(&g) <= Some(bound), "{:?} > {bound}", longest(&g));
        assert_eq!(
            remaining_blocks(&g).collect::<Vec<_>>(),
            [BlockId(5), BlockId(50_000), BlockId(99_999)]
        );
        assert_eq!(weight(&g, BlockId(50_000)), 3);
        assert_eq!(weight(&g, BlockId(6)), 0, "out of scope");
        assert_eq!(g.heaviest().map(|s| g.block(s)), Some(BlockId(99_999)));
        assert_eq!(g.lightest().map(|s| g.block(s)), Some(BlockId(5)));
        remove_block(&mut g, BlockId(5));
        g.remove_node(NodeId(1));
        g.reinsert(BlockId(5), vec![NodeId(0)]);
        assert!(longest(&g) <= Some(bound), "{:?} > {bound}", longest(&g));
        assert_eq!(g.remaining_weight(), 13);
    }

    /// Weights past 32 bits still order by weight, ties to the lower id.
    #[test]
    fn wide_weights_order_by_weight_then_id() {
        let heavy = u64::from(u32::MAX) + 1;
        let scope = [
            (BlockId(0), heavy),
            (BlockId(1), 50),
            (BlockId(2), u64::MAX),
            (BlockId(3), heavy),
        ];
        let drain = |pick: fn(&mut DistributionGraph) -> Option<usize>| {
            let mut g = DistributionGraph::build(&namenode(), scope);
            let mut order = Vec::new();
            while let Some(slot) = pick(&mut g) {
                order.push(g.block(slot).0);
                g.remove_slot(slot);
            }
            order
        };
        assert_eq!(drain(DistributionGraph::heaviest), [2, 0, 3, 1]);
        assert_eq!(drain(DistributionGraph::lightest), [1, 0, 3, 2]);
    }

    #[test]
    #[should_panic]
    fn reinsert_of_live_block_panics() {
        let mut g = graph();
        g.reinsert(BlockId(0), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic]
    fn duplicate_scope_panics() {
        DistributionGraph::build(&namenode(), vec![(BlockId(0), 1), (BlockId(0), 2)]);
    }
}
