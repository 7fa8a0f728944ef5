//! Heartbeat-driven failure detection — suspicion instead of oracles.
//!
//! PR 1's fault engine told schedulers about crashes at the *exact* crash
//! instant, an oracle no real cluster has. Real masters learn about dead
//! workers the way Hadoop's JobTracker does: workers heartbeat on an
//! interval, the master keeps a per-worker estimate of the expected gap,
//! and a worker silent for several expected gaps becomes *suspected* and is
//! treated as dead. This module models that:
//!
//! * `FailureDetector` — per-node online detector: an EWMA of heartbeat
//!   inter-arrival times (the adaptive part of Chen et al.'s and the
//!   φ-accrual family of detectors, reduced to a deterministic threshold)
//!   with suspicion at `last + multiplier · EWMA`.
//! * [`suspicion_schedule`] — pure function from a [`FaultPlan`] to the
//!   times each crashed node becomes *suspected*, with heartbeats stretched
//!   by the plan's slow windows. Under detection the engine's selection
//!   loop handles a crash at these times instead of the oracle crash
//!   instants, so every recovery action pays a realistic detection latency.
//!
//! Everything is integer-time deterministic: same plan → same schedule,
//! bit for bit.

use crate::fault::FaultPlan;
use crate::time::SimTime;
use datanet_obs::{Category, Domain, Recorder, SpanCtx};

/// Nominal heartbeat interval workers aim for.
const HEARTBEAT: SimTime = SimTime::from_millis(100);
/// Silence tolerated before suspicion, in units of the expected gap.
const MULTIPLIER: f64 = 3.0;
/// EWMA smoothing factor for inter-arrival times: higher adapts faster but
/// is jumpier.
const ALPHA: f64 = 0.2;

/// Online per-node failure detector: feed it heartbeats, ask it who is
/// suspect. Suspicion is *unstable* by design — a late heartbeat clears it,
/// exactly like a worker rejoining after a GC pause.
#[derive(Debug, Clone)]
pub(crate) struct FailureDetector {
    last: Option<SimTime>,
    /// EWMA of inter-arrival gaps, microseconds. 0 until the first gap.
    ewma_micros: f64,
    gaps: usize,
}

impl FailureDetector {
    /// A detector that has seen no heartbeats yet.
    pub(crate) fn new() -> Self {
        Self {
            last: None,
            ewma_micros: 0.0,
            gaps: 0,
        }
    }

    /// Record a heartbeat at `at`.
    ///
    /// # Panics
    /// Panics if heartbeats arrive out of order — event delivery in the
    /// simulator is totally ordered, so that is always a harness bug.
    pub(crate) fn heartbeat(&mut self, at: SimTime) {
        if let Some(last) = self.last {
            assert!(at >= last, "heartbeats must arrive in time order");
            let gap = (at - last).as_micros() as f64;
            self.ewma_micros = if self.gaps == 0 {
                gap
            } else {
                ALPHA * gap + (1.0 - ALPHA) * self.ewma_micros
            };
            self.gaps += 1;
        }
        self.last = Some(at);
    }

    /// Current expected inter-arrival gap: the EWMA once at least one gap
    /// was observed, the nominal heartbeat interval before that.
    pub(crate) fn expected_gap(&self) -> SimTime {
        if self.gaps == 0 {
            HEARTBEAT
        } else {
            SimTime::from_micros((self.ewma_micros.round() as u64).max(1))
        }
    }

    /// Instant at which continued silence turns into suspicion:
    /// `last + multiplier · expected_gap` (from time zero when no heartbeat
    /// was ever seen).
    pub(crate) fn suspicion_deadline(&self) -> SimTime {
        let horizon = SimTime::from_secs_f64(MULTIPLIER * self.expected_gap().as_secs_f64());
        self.last.unwrap_or(SimTime::ZERO) + horizon
    }
}

/// When each crashed node of `plan` becomes *suspected*, sorted by time
/// (node index breaks ties). Pure and deterministic.
///
/// Each node heartbeats from `t = 0` at the nominal interval stretched by
/// the plan's slow windows (a struggling worker heartbeats late — which
/// also teaches the EWMA a longer gap, delaying suspicion: the classic
/// detection-latency vs. false-positive trade-off). The node's suspicion
/// instant is its detector's deadline after the final pre-crash heartbeat,
/// never earlier than the crash itself.
///
/// Recorded through `rec`: one [`Category::Detection`] span per crashed
/// node covering the crash → suspicion window, a `suspect` instant at its
/// close, and the detection latency in the `detection_us` histogram. The
/// schedule is the same whatever `rec` is.
pub fn suspicion_schedule(plan: &FaultPlan, rec: &Recorder) -> Vec<(SimTime, usize)> {
    let mut schedule = Vec::new();
    for node in 0..plan.nodes() {
        let Some(crash) = plan.crash_time(node) else {
            continue;
        };
        let mut det = FailureDetector::new();
        let mut t = SimTime::ZERO;
        while plan.is_alive(node, t) {
            det.heartbeat(t);
            let stretched = HEARTBEAT.as_secs_f64() * plan.slow_factor(node, t);
            t += SimTime::from_secs_f64(stretched).max(SimTime::from_micros(1));
        }
        let suspected = det.suspicion_deadline().max(crash);
        let span = rec.begin(
            Category::Detection,
            "detect",
            Domain::Sim,
            crash.as_micros(),
            SpanCtx::default().node(node),
        );
        rec.end(span, suspected.as_micros());
        rec.instant(
            Category::Detection,
            "suspect",
            Domain::Sim,
            suspected.as_micros(),
            SpanCtx::default().node(node),
        );
        rec.observe("detection_us", (suspected - crash).as_micros());
        schedule.push((suspected, node));
    }
    schedule.sort();
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the node is suspected dead at `now`.
    fn suspects(det: &FailureDetector, now: SimTime) -> bool {
        now >= det.suspicion_deadline()
    }

    #[test]
    fn steady_heartbeats_keep_trust() {
        let mut det = FailureDetector::new();
        for i in 0..20u64 {
            det.heartbeat(SimTime::from_millis(100 * i));
        }
        let last = SimTime::from_millis(1900);
        assert!(!suspects(&det, last + SimTime::from_millis(100)));
        assert!(!suspects(&det, last + SimTime::from_millis(299)));
        // Three expected gaps of silence → suspect.
        assert!(suspects(&det, last + SimTime::from_millis(300)));
        assert_eq!(det.expected_gap(), SimTime::from_millis(100));
    }

    #[test]
    fn no_heartbeat_node_is_suspected_from_nominal_interval() {
        let det = FailureDetector::new();
        assert!(!suspects(&det, SimTime::from_millis(299)));
        assert!(suspects(&det, SimTime::from_millis(300)));
    }

    #[test]
    fn ewma_adapts_to_slower_cadence() {
        let mut det = FailureDetector::new();
        det.heartbeat(SimTime::ZERO);
        det.heartbeat(SimTime::from_millis(100));
        assert_eq!(det.expected_gap(), SimTime::from_millis(100));
        // The cadence drops to 200 ms; the estimate moves toward it.
        let mut t = SimTime::from_millis(100);
        for _ in 0..40 {
            t += SimTime::from_millis(200);
            det.heartbeat(t);
        }
        let gap = det.expected_gap();
        assert!(gap > SimTime::from_millis(180), "gap {gap} too small");
        assert!(gap <= SimTime::from_millis(200), "gap {gap} overshoot");
    }

    #[test]
    fn late_heartbeat_clears_suspicion() {
        let mut det = FailureDetector::new();
        det.heartbeat(SimTime::ZERO);
        det.heartbeat(SimTime::from_millis(100));
        let silent = SimTime::from_millis(100) + SimTime::from_millis(350);
        assert!(suspects(&det, silent), "long silence suspected");
        // The worker was only paused: its next heartbeat rehabilitates it
        // (and the EWMA remembers the scare as a longer expected gap).
        det.heartbeat(silent);
        assert!(!suspects(&det, silent + SimTime::from_millis(100)));
        assert!(det.expected_gap() > SimTime::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_heartbeat_panics() {
        let mut det = FailureDetector::new();
        det.heartbeat(SimTime::from_millis(200));
        det.heartbeat(SimTime::from_millis(100));
    }

    #[test]
    fn schedule_pays_detection_latency_after_each_crash() {
        let plan = FaultPlan::none(6)
            .crash(2, SimTime::from_secs(3))
            .crash(4, SimTime::from_secs(1));
        let schedule = suspicion_schedule(&plan, &Recorder::off());
        assert_eq!(schedule.len(), 2);
        // Sorted by suspicion time, and every suspicion strictly follows
        // its crash (silence must accumulate first).
        assert_eq!(schedule[0].1, 4);
        assert_eq!(schedule[1].1, 2);
        for &(suspected, node) in &schedule {
            let crash = plan.crash_time(node).unwrap();
            assert!(suspected > crash, "node {node} suspected before dying");
            // With steady 100 ms heartbeats the latency is ~3 gaps.
            let latency = suspected - crash;
            assert!(latency <= SimTime::from_millis(400), "latency {latency}");
        }
        // Determinism: same plan, same schedule.
        assert_eq!(schedule, suspicion_schedule(&plan, &Recorder::off()));
    }

    #[test]
    fn crash_at_time_zero_is_still_detected() {
        let plan = FaultPlan::none(3).crash(1, SimTime::ZERO);
        let schedule = suspicion_schedule(&plan, &Recorder::off());
        // Never a single heartbeat: suspicion fires after the nominal
        // grace period from time zero.
        assert_eq!(schedule, vec![(SimTime::from_millis(300), 1)]);
    }

    #[test]
    fn slow_window_before_crash_delays_suspicion() {
        let crash = SimTime::from_secs(4);
        let baseline = FaultPlan::none(4).crash(1, crash);
        let slowed = FaultPlan::none(4).crash(1, crash).slow(
            1,
            SimTime::from_secs(2),
            SimTime::from_secs(4),
            4.0,
        );
        let t_base = suspicion_schedule(&baseline, &Recorder::off())[0].0;
        let t_slow = suspicion_schedule(&slowed, &Recorder::off())[0].0;
        // Stretched heartbeats teach the EWMA a longer gap, so the detector
        // waits longer before declaring the node dead.
        assert!(t_slow > t_base, "{t_slow} vs {t_base}");
    }

    #[test]
    fn healthy_plan_yields_empty_schedule() {
        assert!(suspicion_schedule(&FaultPlan::none(8), &Recorder::off()).is_empty());
    }
}
