//! Greedy scenario shrinking: turn a failing world into the smallest
//! world that still fails the *same* oracles.
//!
//! Classic property-testing shrinking, specialised to [`Scenario`]:
//! candidates are ordered most-aggressive-first (halve the dataset,
//! halve the cluster) down to single-event removals, and a candidate is
//! accepted only if it still violates at least one of the oracle names
//! the original failure violated — shrinking must never wander onto a
//! *different* bug. The loop re-runs until no candidate is accepted, so
//! the result is a local minimum under all the moves below.

use crate::harness::{check_scenario_with, CheckOptions, CheckOutcome};
use crate::scenario::{Corruption, Scenario};
use std::collections::HashSet;

/// A minimised failing scenario and its (still-failing) verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Shrunk {
    pub scenario: Scenario,
    pub outcome: CheckOutcome,
}

/// Shrink a failing scenario to a local minimum that trips the same
/// oracle(s). Returns `None` when `sc` does not fail at all.
pub fn shrink(sc: &Scenario, opts: &CheckOptions) -> Option<Shrunk> {
    let first = check_scenario_with(sc, opts);
    if first.passed() {
        return None;
    }
    let oracles = first.oracle_names();
    let mut cur = sc.clone();
    let mut cur_out = first;
    loop {
        let mut improved = false;
        for cand in candidates(&cur) {
            let out = check_scenario_with(&cand, opts);
            if out.oracle_names().intersection(&oracles).next().is_some() {
                cur = cand;
                cur_out = out;
                improved = true;
                break;
            }
        }
        if !improved {
            return Some(Shrunk {
                scenario: cur,
                outcome: cur_out,
            });
        }
    }
}

/// Every one-step reduction of `sc`, most aggressive first. All
/// candidates keep the scenario well-formed (events on live nodes,
/// replication ≤ nodes, target < subdatasets).
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut push = |c: Scenario| {
        if c != *sc {
            out.push(c);
        }
    };

    // Halve, then decrement, the dataset.
    if sc.records > 16 {
        let mut c = sc.clone();
        c.records = (sc.records / 2).max(16);
        push(c);
    }
    if sc.records > 8 {
        let mut c = sc.clone();
        c.records = sc.records - 1;
        push(c);
    }

    // Halve, then decrement, the cluster.
    if sc.nodes > 2 {
        push(with_nodes(sc, (sc.nodes / 2).max(2)));
        push(with_nodes(sc, sc.nodes - 1));
    }

    // Fewer sub-datasets (keep the target in range).
    if sc.subdatasets > 2 {
        let mut c = sc.clone();
        c.subdatasets = (sc.subdatasets / 2).max(2);
        c.target = c.target.min(c.subdatasets - 1);
        push(c);
    }

    // Less replication.
    if sc.replication > 1 {
        let mut c = sc.clone();
        c.replication -= 1;
        push(c);
    }

    // Drop fault events, one list at a time.
    if !sc.crashes.is_empty() {
        let mut c = sc.clone();
        c.crashes.pop();
        push(c);
    }
    if !sc.slow.is_empty() {
        let mut c = sc.clone();
        c.slow.pop();
        push(c);
    }
    if !sc.nic.is_empty() {
        let mut c = sc.clone();
        c.nic.pop();
        push(c);
    }

    // Step down the corruption ladder.
    match sc.corruption {
        Corruption::Total { stride } => {
            let mut c = sc.clone();
            c.corruption = Corruption::Shards { stride };
            push(c);
        }
        Corruption::Shards { .. } => {
            let mut c = sc.clone();
            c.corruption = Corruption::None;
            push(c);
        }
        Corruption::None => {}
    }

    // Simpler failure semantics: the oracle notifier instead of the
    // heartbeat detector.
    if sc.detection {
        let mut c = sc.clone();
        c.detection = false;
        push(c);
    }

    // Coarser metadata sharding (fewer files in the repro).
    if sc.shard_blocks < 64 {
        let mut c = sc.clone();
        c.shard_blocks = sc.shard_blocks * 2;
        push(c);
    }

    // Simpler ingest: drop the mid-commit crash, then compact per arrival
    // (the smallest commit plans, so the crash point is easiest to read).
    if sc.ingest.crash_commit.is_some() {
        let mut c = sc.clone();
        c.ingest.crash_commit = None;
        push(c);
    }
    if sc.ingest.compact_every > 1 {
        let mut c = sc.clone();
        c.ingest.compact_every = 1;
        push(c);
    }

    // Simpler pipeline: drop the mid-checkpoint crash, then shed stages
    // from the back (the spec always keeps its leading filter and
    // trailing output, so any prefix of the drawn ops is well-formed).
    if sc.pipeline.crash_stage.is_some() {
        let mut c = sc.clone();
        c.pipeline.crash_stage = None;
        push(c);
    }
    if !sc.pipeline.ops.is_empty() {
        let mut c = sc.clone();
        c.pipeline.ops.pop();
        push(c);
    }

    // Simpler shuffle: coarser key space first, then the eagerest split
    // threshold (factor 1.0 splits at exactly the fair share, the
    // easiest plan to read in a repro).
    if sc.shuffle.key_ranges > 2 {
        let mut c = sc.clone();
        c.shuffle.key_ranges = (sc.shuffle.key_ranges / 2).max(2);
        push(c);
    }
    if sc.shuffle.split_factor != 1.0 {
        let mut c = sc.clone();
        c.shuffle.split_factor = 1.0;
        push(c);
    }

    // Simpler serving axis: shorter stream first (the biggest win for a
    // repro), then fewer tenants, then drop scripted events from the
    // back, then collapse the worker pool (a one-worker repro reads as a
    // sequential trace).
    if sc.serve.queries > 4 {
        let mut c = sc.clone();
        c.serve.queries = (sc.serve.queries / 2).max(4);
        for e in &mut c.serve.events {
            match e {
                crate::scenario::ServeEventPlan::Ingest { at_query, .. }
                | crate::scenario::ServeEventPlan::NodeLoss { at_query, .. } => {
                    *at_query = (*at_query).min(c.serve.queries);
                }
            }
        }
        push(c);
    }
    if sc.serve.tenants > 1 {
        let mut c = sc.clone();
        c.serve.tenants -= 1;
        push(c);
    }
    if !sc.serve.events.is_empty() {
        let mut c = sc.clone();
        c.serve.events.pop();
        push(c);
    }
    if sc.serve.workers > 1 {
        let mut c = sc.clone();
        c.serve.workers = 1;
        push(c);
    }

    out
}

/// Shrink the cluster to `nodes`, dropping fault events that referenced
/// removed nodes and clamping replication.
fn with_nodes(sc: &Scenario, nodes: u32) -> Scenario {
    let mut c = sc.clone();
    c.nodes = nodes;
    c.replication = c.replication.min(nodes as usize);
    c.crashes.retain(|e| e.node < nodes as usize);
    c.slow.retain(|e| e.node < nodes as usize);
    c.nic.retain(|e| e.node < nodes as usize);
    // Crash nodes must stay distinct and non-zero — retain preserves both.
    let distinct: HashSet<usize> = c.crashes.iter().map(|e| e.node).collect();
    debug_assert_eq!(distinct.len(), c.crashes.len());
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_stay_well_formed() {
        for seed in 0..60 {
            let sc = Scenario::from_seed(seed);
            for c in candidates(&sc) {
                assert_eq!(c.validate(), Ok(()));
                assert!(c.records >= 8);
                assert!(c.shuffle.key_ranges >= 2);
                assert!(c.serve.queries >= 4);
            }
        }
    }

    /// The shrinker can never minimise into a file `Repro::load` would
    /// refuse: every candidate it tries on a failing case validates.
    #[test]
    fn every_scenario_a_shrink_visits_validates() {
        let opts = CheckOptions {
            credit_skew: 1,
            ..CheckOptions::default()
        };
        let start = Scenario::from_seed(5);
        let oracles = check_scenario_with(&start, &opts).oracle_names();
        // `shrink`'s walk, looking at every candidate on the way.
        let mut cur = start.clone();
        loop {
            let cands = candidates(&cur);
            for c in &cands {
                assert_eq!(c.validate(), Ok(()), "{c:?}");
            }
            let still_fails = |c: &Scenario| {
                !check_scenario_with(c, &opts)
                    .oracle_names()
                    .is_disjoint(&oracles)
            };
            match cands.into_iter().find(still_fails) {
                Some(next) => cur = next,
                None => break,
            }
        }
        let shrunk = shrink(&start, &opts).expect("planted bug fails");
        assert_eq!(shrunk.scenario, cur, "the walk above is shrink's own");
    }

    #[test]
    fn passing_scenario_does_not_shrink() {
        let sc = Scenario::from_seed(0);
        assert!(shrink(&sc, &CheckOptions::default()).is_none());
    }
}
