//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] scripts every failure of a run up front — node crashes at
//! fixed instants, transient slow-node windows (degraded disk/CPU, the
//! "limping node" failure mode), and permanent NIC degradation — so a
//! faulty execution is exactly as reproducible as a healthy one: the same
//! plan plus the same scheduler always yields bit-identical reports.
//!
//! Plans are either scripted explicitly (unit tests, targeted experiments)
//! or drawn from a seeded RNG ([`FaultPlan::random`]) for failure-rate
//! sweeps. The plan is pure data: the execution engine queries it and the
//! event queue carries its crash events; nothing here mutates during a run.

use crate::time::SimTime;

/// A transient slowdown window on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SlowWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Multiplier (> 1) applied to task durations started in the window.
    pub factor: f64,
}

/// A scripted set of failures for one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// `crash[n]` = the instant node `n` dies (fail-stop), if ever.
    crash: Vec<Option<SimTime>>,
    /// Transient slow windows per node.
    slow: Vec<Vec<SlowWindow>>,
    /// `nic[n]` = fraction of nominal NIC bandwidth node `n` actually
    /// delivers (1.0 = healthy, 0.25 = badly degraded link).
    nic: Vec<f64>,
}

impl FaultPlan {
    /// A fault-free plan for `nodes` nodes.
    pub fn none(nodes: usize) -> Self {
        Self {
            crash: vec![None; nodes],
            slow: vec![Vec::new(); nodes],
            nic: vec![1.0; nodes],
        }
    }

    /// Script a fail-stop crash of `node` at `at`. Later calls override
    /// earlier ones for the same node.
    ///
    /// # Panics
    /// Panics if `node` is outside the plan.
    pub fn crash(mut self, node: usize, at: SimTime) -> Self {
        self.crash[node] = Some(at);
        self
    }

    /// Script a transient slowdown of `node`: tasks *started* in
    /// `[from, until)` take `factor`× as long.
    ///
    /// # Panics
    /// Panics on an empty window or a factor below 1.
    pub fn slow(mut self, node: usize, from: SimTime, until: SimTime, factor: f64) -> Self {
        assert!(from < until, "empty slow window");
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slowdown factor must be >= 1, got {factor}"
        );
        self.slow[node].push(SlowWindow {
            from,
            until,
            factor,
        });
        self
    }

    /// Script a permanently degraded NIC on `node`: transfers involving it
    /// run at `fraction` of nominal bandwidth.
    ///
    /// # Panics
    /// Panics unless `0 < fraction <= 1`.
    pub fn degrade_nic(mut self, node: usize, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "NIC fraction must be in (0, 1], got {fraction}"
        );
        self.nic[node] = fraction;
        self
    }

    /// A seeded random plan: each node crashes with probability
    /// `crash_rate`, at an instant uniform over `[0, horizon)`. Node 0 is
    /// never crashed so a run always retains at least one survivor.
    ///
    /// # Panics
    /// Panics if `crash_rate` is outside `[0, 1]` or `horizon` is zero.
    pub fn random(nodes: usize, seed: u64, crash_rate: f64, horizon: SimTime) -> Self {
        assert!(
            (0.0..=1.0).contains(&crash_rate),
            "crash rate must be a probability, got {crash_rate}"
        );
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        let mut plan = Self::none(nodes);
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || -> u64 {
            // SplitMix64: tiny, seedable, and good enough for scripting
            // failure times — keeps this crate free of the rand dependency.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for n in 1..nodes {
            let u = (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if u < crash_rate {
                let at = ((next() as u128 * horizon.as_micros() as u128) >> 64) as u64;
                plan.crash[n] = Some(SimTime::from_micros(at));
            }
        }
        plan
    }

    /// Number of nodes the plan covers.
    pub fn nodes(&self) -> usize {
        self.crash.len()
    }

    /// When `node` crashes, if ever.
    pub fn crash_time(&self, node: usize) -> Option<SimTime> {
        self.crash[node]
    }

    /// Whether `node` is still up at `t` (crashing exactly at `t` counts as
    /// down — the crash event fires first).
    pub fn is_alive(&self, node: usize, t: SimTime) -> bool {
        self.crash[node].is_none_or(|c| t < c)
    }

    /// Duration multiplier for a task started on `node` at `t`:
    /// the product of every slow window covering `t` (1.0 when healthy).
    pub fn slow_factor(&self, node: usize, t: SimTime) -> f64 {
        self.slow[node]
            .iter()
            .filter(|w| w.from <= t && t < w.until)
            .map(|w| w.factor)
            .product()
    }

    /// Fraction of nominal NIC bandwidth `node` delivers.
    pub fn nic_fraction(&self, node: usize) -> f64 {
        self.nic[node]
    }

    /// All scripted crashes as `(time, node)` pairs, in time order (ties by
    /// node id) — ready to seed an event queue.
    pub fn crash_events(&self) -> Vec<(SimTime, usize)> {
        let mut ev: Vec<(SimTime, usize)> = self
            .crash
            .iter()
            .enumerate()
            .filter_map(|(n, c)| c.map(|t| (t, n)))
            .collect();
        ev.sort();
        ev
    }

    /// Number of scripted crashes.
    pub fn crash_count(&self) -> usize {
        self.crash.iter().filter(|c| c.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_plan_is_inert() {
        let p = FaultPlan::none(4);
        assert_eq!(p.nodes(), 4);
        assert_eq!(p.crash_count(), 0);
        assert!(p.crash_events().is_empty());
        for n in 0..4 {
            assert!(p.is_alive(n, SimTime::from_secs(1_000)));
            assert_eq!(p.slow_factor(n, SimTime::ZERO), 1.0);
            assert_eq!(p.nic_fraction(n), 1.0);
        }
    }

    #[test]
    fn crash_boundary_is_exclusive() {
        let p = FaultPlan::none(2).crash(1, SimTime::from_secs(5));
        assert!(p.is_alive(1, SimTime::from_micros(4_999_999)));
        assert!(!p.is_alive(1, SimTime::from_secs(5)));
        assert_eq!(p.crash_time(1), Some(SimTime::from_secs(5)));
        assert_eq!(p.crash_time(0), None);
        assert_eq!(p.crash_events(), vec![(SimTime::from_secs(5), 1)]);
    }

    #[test]
    fn slow_windows_compound() {
        let p = FaultPlan::none(1)
            .slow(0, SimTime::from_secs(1), SimTime::from_secs(3), 2.0)
            .slow(0, SimTime::from_secs(2), SimTime::from_secs(4), 3.0);
        assert_eq!(p.slow_factor(0, SimTime::ZERO), 1.0);
        assert_eq!(p.slow_factor(0, SimTime::from_secs(1)), 2.0);
        assert_eq!(p.slow_factor(0, SimTime::from_secs(2)), 6.0);
        assert_eq!(p.slow_factor(0, SimTime::from_secs(3)), 3.0);
        assert_eq!(p.slow_factor(0, SimTime::from_secs(4)), 1.0);
    }

    #[test]
    fn random_plan_is_deterministic_and_spares_node_zero() {
        let h = SimTime::from_secs(100);
        let a = FaultPlan::random(16, 7, 0.5, h);
        let b = FaultPlan::random(16, 7, 0.5, h);
        assert_eq!(a, b);
        let c = FaultPlan::random(16, 8, 0.5, h);
        assert_ne!(a, c, "different seeds should differ");
        assert!(a.crash_time(0).is_none(), "node 0 must survive");
        for (t, _) in a.crash_events() {
            assert!(t < h);
        }
    }

    #[test]
    fn random_rate_extremes() {
        let h = SimTime::from_secs(10);
        assert_eq!(FaultPlan::random(8, 1, 0.0, h).crash_count(), 0);
        assert_eq!(FaultPlan::random(8, 1, 1.0, h).crash_count(), 7);
    }

    #[test]
    fn overlapping_slow_windows_compose_order_independently() {
        // Same windows, opposite insertion order: the factor at every
        // instant must agree — composition is a product, not a stack.
        let a = FaultPlan::none(1)
            .slow(0, SimTime::from_secs(1), SimTime::from_secs(5), 2.0)
            .slow(0, SimTime::from_secs(3), SimTime::from_secs(7), 1.5)
            .slow(0, SimTime::from_secs(4), SimTime::from_secs(6), 4.0);
        let b = FaultPlan::none(1)
            .slow(0, SimTime::from_secs(4), SimTime::from_secs(6), 4.0)
            .slow(0, SimTime::from_secs(3), SimTime::from_secs(7), 1.5)
            .slow(0, SimTime::from_secs(1), SimTime::from_secs(5), 2.0);
        for us in (0..8_000_000u64).step_by(250_000) {
            let t = SimTime::from_micros(us);
            assert_eq!(a.slow_factor(0, t), b.slow_factor(0, t), "at {t}");
        }
        // Triple overlap at t=4s: 2.0 × 1.5 × 4.0.
        assert_eq!(a.slow_factor(0, SimTime::from_secs(4)), 12.0);
        // Window ends are exclusive, starts inclusive, even when nested.
        assert_eq!(a.slow_factor(0, SimTime::from_secs(5)), 6.0);
        assert_eq!(a.slow_factor(0, SimTime::from_micros(6_999_999)), 1.5);
        assert_eq!(a.slow_factor(0, SimTime::from_secs(7)), 1.0);
    }

    #[test]
    fn identical_duplicate_windows_square_the_factor() {
        let p = FaultPlan::none(1)
            .slow(0, SimTime::from_secs(1), SimTime::from_secs(2), 3.0)
            .slow(0, SimTime::from_secs(1), SimTime::from_secs(2), 3.0);
        assert_eq!(p.slow_factor(0, SimTime::from_secs(1)), 9.0);
    }

    #[test]
    fn random_rate_extremes_are_deterministic_across_seeds() {
        let h = SimTime::from_secs(10);
        for seed in [0, 1, 7, u64::MAX] {
            // Rate 0 crashes nobody; rate 1 crashes everyone but node 0.
            assert_eq!(FaultPlan::random(8, seed, 0.0, h).crash_count(), 0);
            let all = FaultPlan::random(8, seed, 1.0, h);
            assert_eq!(all.crash_count(), 7);
            assert!(all.crash_time(0).is_none(), "node 0 spared at rate 1");
            for (t, _) in all.crash_events() {
                assert!(t < h, "crash {t} beyond horizon");
            }
        }
        // Degenerate cluster sizes don't panic.
        assert_eq!(FaultPlan::random(1, 3, 1.0, h).crash_count(), 0);
        assert_eq!(FaultPlan::random(0, 3, 1.0, h).nodes(), 0);
    }

    #[test]
    fn is_alive_at_exact_crash_instant_is_dead_everywhere() {
        // The exclusive boundary holds at t=0 and at the horizon edge too:
        // a node crashing at the exact instant a query is made is already
        // down (crash events fire before same-time work events).
        let p = FaultPlan::none(3)
            .crash(1, SimTime::ZERO)
            .crash(2, SimTime::from_micros(1));
        assert!(!p.is_alive(1, SimTime::ZERO), "t=0 crash is immediate");
        assert!(p.is_alive(2, SimTime::ZERO));
        assert!(!p.is_alive(2, SimTime::from_micros(1)));
        assert_eq!(
            p.crash_events(),
            vec![(SimTime::ZERO, 1), (SimTime::from_micros(1), 2)]
        );
        // Re-scripting a crash overrides, never accumulates.
        let p = p.crash(2, SimTime::from_secs(9));
        assert!(p.is_alive(2, SimTime::from_micros(1)));
        assert_eq!(p.crash_count(), 2);
    }

    #[test]
    #[should_panic]
    fn sub_unity_slow_factor_rejected() {
        let _ = FaultPlan::none(1).slow(0, SimTime::ZERO, SimTime::from_secs(1), 0.5);
    }

    #[test]
    #[should_panic]
    fn zero_nic_fraction_rejected() {
        let _ = FaultPlan::none(1).degrade_nic(0, 0.0);
    }
}
