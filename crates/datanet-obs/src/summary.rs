//! Derived views: utilisation timelines, straggler/idler classification
//! and crash→suspicion→re-plan latency chains, condensed into the
//! [`ObsSummary`] that rides along in reports.

use crate::recorder::{Category, Domain};
use crate::trace::TraceData;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a node's busy time compares to the expected per-node workload.
///
/// Thresholds follow the paper's Section II-B reading of the Gamma
/// imbalance model (`datanet_stats::ImbalanceModel`): a node is a
/// straggler above `2·E(Z)` and an idler below `E(Z)/2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeClass {
    /// Busy time within `[E/2, 2E]`.
    Normal,
    /// Busy time above twice the expectation — the node everyone waits on.
    Straggler,
    /// Busy time below half the expectation — capacity the imbalance
    /// wasted.
    Idler,
}

/// One node's utilisation over a traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeUtil {
    /// Node id.
    pub node: u64,
    /// Simulated microseconds spent in task spans.
    pub busy_us: u64,
    /// Task spans executed on this node.
    pub tasks: u64,
    /// `busy_us` over the traced makespan (0..=1).
    pub utilisation: f64,
    /// Classification against the expected workload.
    pub class: NodeClass,
}

/// The crash→suspicion→re-plan latency chain for one crashed node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashChain {
    /// The node that crashed.
    pub node: u64,
    /// Simulated microsecond of the crash.
    pub crash_us: u64,
    /// When the failure detector suspected the node (equals `crash_us`
    /// under the oracle model; `None` if never suspected).
    pub suspected_us: Option<u64>,
    /// When the scheduler finished re-planning the node's work (`None` if
    /// no re-plan was recorded).
    pub replanned_us: Option<u64>,
}

/// Condensed per-run observability summary, attached to reports as
/// `obs: Option<ObsSummary>` when a recorder was active.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSummary {
    /// Spans recorded.
    pub spans: usize,
    /// Spans never closed (0 after a healthy run).
    pub unclosed_spans: usize,
    /// Traced makespan on the simulated clock, microseconds.
    pub sim_end_us: u64,
    /// Expected per-node busy microseconds the classification used
    /// (`E(Z)` from the Gamma model when the caller supplied it, the
    /// empirical mean otherwise).
    pub expected_busy_us: f64,
    /// Per-node utilisation, sorted by node id.
    pub node_util: Vec<NodeUtil>,
    /// Nodes classified as stragglers.
    pub stragglers: Vec<u64>,
    /// Nodes classified as idlers.
    pub idlers: Vec<u64>,
    /// One chain per crash instant, in crash order.
    pub crash_chains: Vec<CrashChain>,
    /// Final counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Last recorded value of every gauge.
    pub gauges: BTreeMap<String, f64>,
}

impl TraceData {
    /// Classify every node that executed tasks against an expected busy
    /// time. `expected_busy_us = None` uses the empirical mean over
    /// participating nodes (the natural estimator of the Gamma model's
    /// `E(Z) = nkθ/m`).
    pub(crate) fn classify_nodes(&self, expected_busy_us: Option<f64>) -> (f64, Vec<NodeUtil>) {
        let busy = self.node_busy_us();
        if busy.is_empty() {
            return (expected_busy_us.unwrap_or(0.0), Vec::new());
        }
        let mean = busy.values().map(|&(b, _)| b as f64).sum::<f64>() / busy.len() as f64;
        let expected = expected_busy_us.unwrap_or(mean);
        let makespan = self.sim_end_us().max(1) as f64;
        let utils = busy
            .into_iter()
            .map(|(node, (busy_us, tasks))| {
                let b = busy_us as f64;
                let class = if expected > 0.0 && b > 2.0 * expected {
                    NodeClass::Straggler
                } else if b < expected / 2.0 {
                    NodeClass::Idler
                } else {
                    NodeClass::Normal
                };
                NodeUtil {
                    node,
                    busy_us,
                    tasks,
                    utilisation: b / makespan,
                    class,
                }
            })
            .collect();
        (expected, utils)
    }

    /// Extract the crash→suspicion→re-plan chain for every `crash`
    /// instant: the first `suspect` instant and the first `replan` event
    /// for the same node at or after the crash.
    pub fn crash_chains(&self) -> Vec<CrashChain> {
        let find = |cat: Category, name: &str, node: u64, from: u64| -> Option<u64> {
            self.instants
                .iter()
                .filter(|i| {
                    i.cat == cat && i.name == name && i.ctx.node == Some(node) && i.at_us >= from
                })
                .map(|i| i.at_us)
                .min()
        };
        self.instants
            .iter()
            .filter(|i| {
                i.cat == Category::Detection && i.name == "crash" && i.domain == Domain::Sim
            })
            .filter_map(|c| {
                let node = c.ctx.node?;
                Some(CrashChain {
                    node,
                    crash_us: c.at_us,
                    suspected_us: find(Category::Detection, "suspect", node, c.at_us),
                    replanned_us: find(Category::Replan, "replan", node, c.at_us),
                })
            })
            .collect()
    }

    /// Build the condensed summary. `expected_busy_us` is `E(Z)` in
    /// simulated microseconds when the caller has a Gamma model for the
    /// run, `None` to classify against the empirical mean.
    pub fn summary(&self, expected_busy_us: Option<f64>) -> ObsSummary {
        let (expected, node_util) = self.classify_nodes(expected_busy_us);
        let stragglers = node_util
            .iter()
            .filter(|u| u.class == NodeClass::Straggler)
            .map(|u| u.node)
            .collect();
        let idlers = node_util
            .iter()
            .filter(|u| u.class == NodeClass::Idler)
            .map(|u| u.node)
            .collect();
        ObsSummary {
            spans: self.spans.len(),
            unclosed_spans: self.unclosed_spans(),
            sim_end_us: self.sim_end_us(),
            expected_busy_us: expected,
            node_util,
            stragglers,
            idlers,
            crash_chains: self.crash_chains(),
            counters: self.counters.clone(),
            gauges: self.gauge_finals(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, SpanCtx};

    /// Three nodes: 100 µs, 700 µs and 2000 µs of work. Against the
    /// empirical mean (~933 µs) node 2 is a straggler and node 0 an
    /// idler.
    fn skewed_trace() -> TraceData {
        let rec = Recorder::new();
        for (node, dur) in [(0u64, 100u64), (1, 700), (2, 2000)] {
            let s = rec.begin(
                Category::Task,
                "map",
                Domain::Sim,
                0,
                SpanCtx::default().node(node as usize),
            );
            rec.end(s, dur);
        }
        rec.take()
    }

    #[test]
    fn classification_against_empirical_mean() {
        let t = skewed_trace();
        let s = t.summary(None);
        assert_eq!(s.stragglers, vec![2]);
        assert_eq!(s.idlers, vec![0]);
        assert_eq!(s.node_util.len(), 3);
        assert_eq!(s.node_util[1].class, NodeClass::Normal);
        assert!((s.expected_busy_us - 2800.0 / 3.0).abs() < 1e-9);
        // Node 2 is busy for the whole 2000 µs makespan.
        assert!((s.node_util[2].utilisation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn classification_against_model_expectation() {
        let t = skewed_trace();
        // With E(Z) = 150 µs, 700 and 2000 both exceed 2E.
        let s = t.summary(Some(150.0));
        assert_eq!(s.stragglers, vec![1, 2]);
        assert!(s.idlers.is_empty());
        assert_eq!(s.expected_busy_us, 150.0);
    }

    #[test]
    fn crash_chain_extraction() {
        let rec = Recorder::new();
        let ctx = || SpanCtx::default().node(3);
        rec.instant(Category::Detection, "crash", Domain::Sim, 1000, ctx());
        rec.instant(Category::Detection, "suspect", Domain::Sim, 1500, ctx());
        rec.instant(Category::Replan, "replan", Domain::Sim, 1600, ctx());
        // Unrelated node crash with no follow-up.
        rec.instant(
            Category::Detection,
            "crash",
            Domain::Sim,
            2000,
            SpanCtx::default().node(7),
        );
        let chains = rec.take().crash_chains();
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].node, 3);
        assert_eq!(chains[0].suspected_us, Some(1500));
        assert_eq!(chains[0].replanned_us, Some(1600));
        assert_eq!(chains[0].suspected_us.unwrap() - chains[0].crash_us, 500);
        assert_eq!(chains[1].node, 7);
        assert_eq!(chains[1].suspected_us, None);
        assert_eq!(chains[1].replanned_us, None);
    }

    #[test]
    fn suspicion_before_crash_is_not_chained() {
        let rec = Recorder::new();
        let ctx = || SpanCtx::default().node(1);
        rec.instant(Category::Detection, "suspect", Domain::Sim, 500, ctx());
        rec.instant(Category::Detection, "crash", Domain::Sim, 1000, ctx());
        let chains = rec.take().crash_chains();
        assert_eq!(chains[0].suspected_us, None);
    }

    #[test]
    fn summary_roundtrips_through_serde() {
        let t = skewed_trace();
        let s = t.summary(None);
        let json = serde_json::to_string(&s).unwrap();
        let back: ObsSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_trace_summary_is_default_shaped() {
        let s = TraceData::default().summary(None);
        assert_eq!(s.spans, 0);
        assert_eq!(s.node_util.len(), 0);
        assert_eq!(s.crash_chains.len(), 0);
    }
}
