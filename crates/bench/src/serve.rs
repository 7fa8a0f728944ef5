//! The `serve` benchmark behind `BENCH_serve.json` and the CI
//! `serve-gate` job.
//!
//! ## Methodology (DESIGN.md §18)
//!
//! The question the gate answers: what does the epoch-keyed plan cache
//! buy the serving plane under multi-tenant load, and does caching ever
//! change what tenants are served?
//!
//! The workload is a synthetic serving world ([`SERVE_SUBDATASETS`]
//! sub-datasets striped over [`SERVE_NODES`] nodes) under a skewed query
//! stream, swept over [`SERVE_TENANT_POINTS`] concurrent tenants with the
//! plan cache on and off. Per point the report records two kinds of
//! numbers:
//!
//! * **simulated** — completed/rejected/shed counts and the p50/p99
//!   admission-to-completion latency on the simulated clock. These are
//!   deterministic functions of the stream, so they are gated as *exact*
//!   equalities: against the cache-off twin (a coherent cache may change
//!   where plans come from, never what they are) and against the
//!   committed baseline (a drift means the planner or the serving plane
//!   changed — re-commit the baseline deliberately).
//! * **wall-clock** — how long the serve call itself takes, best of
//!   several repetitions. The cache's entire job is to skip planner
//!   walks, so the gate demands cache-on decision throughput at least
//!   [`SERVE_CACHE_SPEEDUP_FLOOR`]× cache-off at the
//!   [`SERVE_GATE_TENANTS`]-tenant point.

use crate::table::Table;
use datanet::Separation;
use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_obs::Recorder;
use datanet_serve::{
    generate_stream, serve, Disposition, ServeConfig, StreamConfig, TenantMix, World,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Tenant counts of the sweep.
pub const SERVE_TENANT_POINTS: [u32; 3] = [1, 8, 64];

/// The tenant count the cache-speedup gate reads.
pub const SERVE_GATE_TENANTS: u32 = 64;

/// Minimum cache-on / cache-off wall-clock throughput ratio at the gate
/// point (acceptance criterion): the cache must at least double decision
/// throughput once many tenants hammer a bounded set of sub-datasets.
pub const SERVE_CACHE_SPEEDUP_FLOOR: f64 = 2.0;

/// Sub-datasets in the serving world.
pub const SERVE_SUBDATASETS: u64 = 8;

/// Nodes in the serving world.
pub const SERVE_NODES: u32 = 10;

/// One (tenant count, cache flag) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchRow {
    /// Concurrent tenants of the point.
    pub tenants: u32,
    /// Whether the epoch-keyed plan cache was consulted.
    pub cache: bool,
    /// Queries admitted and completed (simulated, deterministic).
    pub completed: u32,
    /// Queries rejected at the door (simulated, deterministic).
    pub rejected: u32,
    /// Queries shed after queuing (simulated, deterministic).
    pub shed: u32,
    /// Plan-cache hits (0 with the cache off).
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Median arrival-to-completion latency, simulated µs.
    pub sim_p50_latency_us: u64,
    /// 99th-percentile arrival-to-completion latency, simulated µs.
    pub sim_p99_latency_us: u64,
    /// Completed queries per simulated second.
    pub sim_throughput_qps: f64,
    /// Best-of-repetitions wall-clock of the serve call, milliseconds.
    pub wall_ms: f64,
    /// Completed queries per wall-clock second at `wall_ms`.
    pub wall_qps: f64,
}

/// One `BENCH_serve.json` measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Whether the run was invoked with `--quick` (smaller world, fewer
    /// queries, fewer wall-clock repetitions; every gated ratio keeps its
    /// meaning).
    pub quick: bool,
    /// Nodes in the serving world.
    pub nodes: u32,
    /// Sub-datasets in the serving world.
    pub subdatasets: u64,
    /// Blocks in the serving world.
    pub blocks: usize,
    /// Queries per sweep point.
    pub queries: u32,
    /// The sweep: [`SERVE_TENANT_POINTS`] × {cache on, cache off}.
    pub rows: Vec<ServeBenchRow>,
}

/// The synthetic serving world: records striped round-robin over the
/// sub-datasets, written through the DFS placement policy.
fn build_world(records: u64, seed: u64) -> World {
    let dfs = Dfs::write_random(
        DfsConfig {
            block_size: 2_000,
            replication: 2,
            topology: Topology::single_rack(SERVE_NODES),
            seed,
        },
        (0..records).map(|i| Record::new(SubDatasetId(i % SERVE_SUBDATASETS), i, 280, seed ^ i)),
    );
    World::new(dfs, SERVE_SUBDATASETS, Separation::Alpha(0.3), seed)
}

/// Run the serve benchmark sweep. Every simulated number is deterministic;
/// only the `wall_*` fields move with the machine.
pub fn run_serve_bench(quick: bool) -> ServeBenchReport {
    let records: u64 = if quick { 2_000 } else { 8_000 };
    let queries: u32 = if quick { 240 } else { 720 };
    let iters = if quick { 3 } else { 5 };
    let seed = 0xBE4C_u64;

    let proto = build_world(records, seed);
    let blocks = proto.dfs().block_count();
    let mut rows = Vec::new();
    for tenants in SERVE_TENANT_POINTS {
        let stream = generate_stream(&StreamConfig {
            tenants,
            queries,
            gap_us: 300,
            subdatasets: SERVE_SUBDATASETS,
            mix: TenantMix::Skewed,
            seed,
        });
        for cache in [true, false] {
            let cfg = ServeConfig {
                workers: 4,
                queue_cap: 64,
                // Generous quantum: the bench measures planning cost, not
                // quota pressure, so every arrival should admit promptly
                // at every tenant count.
                quantum_bytes: 512 * 1024,
                cache,
                ..ServeConfig::default()
            };
            let mut report = None;
            let mut best = f64::INFINITY;
            for _ in 0..iters {
                let world = proto.clone();
                let t0 = Instant::now();
                let r = serve(world, &stream, &[], &cfg, &Recorder::off());
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                report = Some(r);
            }
            let r = report.expect("at least one repetition ran");
            let a = &r.answers;
            let completed = a
                .outcomes
                .iter()
                .filter(|o| matches!(o.disposition, Disposition::Completed { .. }))
                .count() as u32;
            rows.push(ServeBenchRow {
                tenants,
                cache,
                completed,
                rejected: a.tenants.iter().map(|t| t.rejected).sum(),
                shed: a.tenants.iter().map(|t| t.shed).sum(),
                cache_hits: a.cache_hits,
                cache_misses: a.cache_misses,
                sim_p50_latency_us: r.timing.p50_latency_us,
                sim_p99_latency_us: r.timing.p99_latency_us,
                sim_throughput_qps: r.timing.throughput_qps,
                wall_ms: best,
                wall_qps: if best > 0.0 {
                    completed as f64 / (best / 1e3)
                } else {
                    0.0
                },
            });
        }
    }
    ServeBenchReport {
        quick,
        nodes: SERVE_NODES,
        subdatasets: SERVE_SUBDATASETS,
        blocks,
        queries,
        rows,
    }
}

impl ServeBenchReport {
    /// The row at a sweep point.
    fn row_at(&self, tenants: u32, cache: bool) -> Option<&ServeBenchRow> {
        self.rows
            .iter()
            .find(|r| r.tenants == tenants && r.cache == cache)
    }

    /// Cache-on / cache-off wall-clock throughput ratio at a tenant point.
    pub fn cache_speedup(&self, tenants: u32) -> Option<f64> {
        let on = self.row_at(tenants, true)?;
        let off = self.row_at(tenants, false)?;
        (on.wall_qps > 0.0).then(|| on.wall_qps / off.wall_qps.max(f64::MIN_POSITIVE))
    }

    /// The human-readable summary table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "== serving-plane bench: {} nodes, {} sub-datasets, {} blocks, \
             {} queries/point{} ==\n",
            self.nodes,
            self.subdatasets,
            self.blocks,
            self.queries,
            if self.quick { " (quick)" } else { "" }
        );
        let mut t = Table::new([
            "tenants",
            "cache",
            "completed",
            "shed",
            "hits/misses",
            "sim p50 ms",
            "sim p99 ms",
            "wall ms",
            "wall q/s",
        ]);
        for r in &self.rows {
            t.row([
                r.tenants.to_string(),
                if r.cache { "on" } else { "off" }.into(),
                r.completed.to_string(),
                r.shed.to_string(),
                format!("{}/{}", r.cache_hits, r.cache_misses),
                format!("{:.3}", r.sim_p50_latency_us as f64 / 1e3),
                format!("{:.3}", r.sim_p99_latency_us as f64 / 1e3),
                format!("{:.2}", r.wall_ms),
                format!("{:.0}", r.wall_qps),
            ]);
        }
        s.push_str(&t.render());
        for tenants in SERVE_TENANT_POINTS {
            if let Some(x) = self.cache_speedup(tenants) {
                s.push_str(&format!(
                    "cache speedup at {tenants:>2} tenant(s): {x:.2}x decision throughput\n"
                ));
            }
        }
        s
    }

    /// The serve gate. Returns every violated check, empty = pass.
    pub fn gate_against(&self, baseline: &ServeBenchReport) -> Vec<String> {
        let mut violations = Vec::new();

        // 1. Cache coherence inside the measurement: at every point the
        // cache may only move wall-clock, never the simulated outcome.
        for tenants in SERVE_TENANT_POINTS {
            match (self.row_at(tenants, true), self.row_at(tenants, false)) {
                (Some(on), Some(off)) => {
                    if (on.completed, on.rejected, on.shed)
                        != (off.completed, off.rejected, off.shed)
                        || on.sim_p50_latency_us != off.sim_p50_latency_us
                        || on.sim_p99_latency_us != off.sim_p99_latency_us
                    {
                        violations.push(format!(
                            "cache changed the simulated outcome at {tenants} tenant(s): \
                             on ({}, {}, {}, p50 {}, p99 {}) vs off ({}, {}, {}, p50 {}, p99 {})",
                            on.completed,
                            on.rejected,
                            on.shed,
                            on.sim_p50_latency_us,
                            on.sim_p99_latency_us,
                            off.completed,
                            off.rejected,
                            off.shed,
                            off.sim_p50_latency_us,
                            off.sim_p99_latency_us
                        ));
                    }
                }
                _ => violations.push(format!("sweep is missing the {tenants}-tenant point")),
            }
        }

        // 2. The speedup floor at the gate point.
        match self.cache_speedup(SERVE_GATE_TENANTS) {
            Some(x) if x < SERVE_CACHE_SPEEDUP_FLOOR => violations.push(format!(
                "cache speedup below floor at {SERVE_GATE_TENANTS} tenants: \
                 {x:.2}x < {SERVE_CACHE_SPEEDUP_FLOOR:.1}x"
            )),
            Some(_) => {}
            None => violations.push(format!(
                "no {SERVE_GATE_TENANTS}-tenant rows to compute the cache speedup"
            )),
        }

        // 3. Simulated numbers must match the committed baseline exactly —
        // they are deterministic, so any drift is a real behaviour change.
        // Quick and full mode run different worlds, so the comparison only
        // makes sense between like modes.
        if self.quick != baseline.quick {
            violations.push(format!(
                "quick-mode mismatch: measurement quick={} vs baseline quick={} — run the \
                 gate in the baseline's mode or regenerate the baseline",
                self.quick, baseline.quick
            ));
            return violations;
        }
        for tenants in SERVE_TENANT_POINTS {
            match (self.row_at(tenants, true), baseline.row_at(tenants, true)) {
                (Some(cur), Some(base)) => {
                    if (cur.completed, cur.rejected, cur.shed)
                        != (base.completed, base.rejected, base.shed)
                        || cur.sim_p50_latency_us != base.sim_p50_latency_us
                        || cur.sim_p99_latency_us != base.sim_p99_latency_us
                        || cur.cache_misses != base.cache_misses
                    {
                        violations.push(format!(
                            "simulated outcome drifted from baseline at {tenants} tenant(s) \
                             — re-commit BENCH_serve_baseline.json if the serving plane or \
                             the planner changed deliberately"
                        ));
                    }
                }
                _ => violations.push(format!(
                    "no {tenants}-tenant cache-on row in the measurement or the baseline"
                )),
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_point_and_caches_pay_off() {
        let r = run_serve_bench(true);
        assert_eq!(r.rows.len(), SERVE_TENANT_POINTS.len() * 2);
        for tenants in SERVE_TENANT_POINTS {
            let on = r.row_at(tenants, true).unwrap();
            let off = r.row_at(tenants, false).unwrap();
            assert!(on.completed > 0, "{tenants} tenants completed nothing");
            assert!(on.cache_hits > 0, "{tenants} tenants never hit the cache");
            // Cache off means the cache is never consulted at all.
            assert_eq!((off.cache_hits, off.cache_misses), (0, 0));
            // A coherent cache never changes the simulated outcome.
            assert_eq!(on.completed, off.completed);
            assert_eq!(on.sim_p50_latency_us, off.sim_p50_latency_us);
            assert_eq!(on.sim_p99_latency_us, off.sim_p99_latency_us);
            // Hot-path sanity: the cache-on run plans each sub-dataset once.
            assert!(
                on.cache_misses <= SERVE_SUBDATASETS,
                "{tenants} tenants: {} misses over {} sub-datasets",
                on.cache_misses,
                SERVE_SUBDATASETS
            );
        }
    }

    #[test]
    fn simulated_fields_are_deterministic_across_runs() {
        let a = run_serve_bench(true);
        let b = run_serve_bench(true);
        // Wall-clock moves run to run; everything gated must not.
        assert!(a.gate_against(&b).is_empty(), "{:?}", a.gate_against(&b));
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!((x.tenants, x.cache), (y.tenants, y.cache));
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.cache_hits, y.cache_hits);
            assert_eq!(x.cache_misses, y.cache_misses);
            assert_eq!(x.sim_p50_latency_us, y.sim_p50_latency_us);
            assert_eq!(x.sim_p99_latency_us, y.sim_p99_latency_us);
        }
    }

    #[test]
    fn gate_flags_speedup_misses_coherence_breaks_and_baseline_drift() {
        let base = run_serve_bench(true);

        // Equal cache-on/off throughputs = 1.0x speedup, under the floor.
        let mut slow = base.clone();
        let off_qps = slow
            .rows
            .iter()
            .find(|x| x.tenants == SERVE_GATE_TENANTS && !x.cache)
            .unwrap()
            .wall_qps;
        slow.rows
            .iter_mut()
            .find(|x| x.tenants == SERVE_GATE_TENANTS && x.cache)
            .unwrap()
            .wall_qps = off_qps;
        let v = slow.gate_against(&base);
        assert!(v.iter().any(|m| m.contains("below floor")), "{v:?}");

        let mut incoherent = base.clone();
        incoherent
            .rows
            .iter_mut()
            .find(|x| x.tenants == 8 && x.cache)
            .unwrap()
            .completed += 1;
        let v = incoherent.gate_against(&base);
        assert!(
            v.iter()
                .any(|m| m.contains("cache changed the simulated outcome")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|m| m.contains("drifted from baseline")),
            "{v:?}"
        );
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = run_serve_bench(true);
        let json = serde_json::to_string(&r).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), r.rows.len());
        assert!(back.gate_against(&r).is_empty());
    }
}
