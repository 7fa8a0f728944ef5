//! Deterministic simulation checking for the DataNet stack — the
//! FoundationDB idea applied to this workspace: a seed is a whole world.
//!
//! One `u64` seed expands into a [`Scenario`] (Zipf workload shape, block
//! count, cluster size, fault plan, shard-corruption pattern, detection
//! config). The harness drives the full pipeline for that world — scan →
//! [`datanet::ElasticMapArray`] → [`datanet::MetaStore`] round-trip → all
//! four schedulers → faulty/resilient/recorded execution — and checks a
//! catalog of invariant oracles after every run:
//!
//! * **byte conservation** — `processed + lost == input` per
//!   `FaultStats`, for every scheduler, healthy or crashing;
//! * **Equation 6 envelope** — `|Z − T| ≤ Σ_{b∈τ₂} |truth_b − δ|` at
//!   every degradation rung, plus τ₁-is-ground-truth and
//!   no-false-negatives;
//! * **planner bounds** — greedy credit conservation, Ford–Fulkerson
//!   all-locality and the fractional-optimum lower bound, and the
//!   makespan ordering FF ≤ greedy ≤ locality (with a documented
//!   task-overhead tolerance);
//! * **recorder transparency** — every engine run returns bit-identical
//!   results with a live recorder and with `Recorder::off()`
//!   (`recorder-transparency`), and no observability span is left
//!   unclosed;
//! * **streaming ingest** — replaying the world's blocks as a stream
//!   through [`datanet::Ingestor`] yields a snapshot byte-identical to a
//!   from-scratch rebuild at every arrival prefix, including across a
//!   scripted mid-commit crash (resume from the last durable epoch), and
//!   every committed epoch time-travels to exactly the snapshot it froze;
//! * **distribution-aware shuffle** — the reduce-side partitioner's
//!   planned and received loads stay under the provable LPT bound
//!   (`reduce-skew`), every shuffled byte is conserved local-plus-network
//!   for the aware *and* hash plans (`shuffle-byte-conservation`), and
//!   heavy-key split fragments merge to the unrouted job's exact output
//!   under seeded arrival permutations, with a routed pipeline run
//!   fingerprint-identical to an unrouted one
//!   (`split-merge-equivalence`);
//! * **multi-tenant serving** — every stream query gets exactly one
//!   disposition with per-tenant counters to match
//!   (`serve-conservation`), the deficit-round-robin grant accounting
//!   balances exactly (`serve-fairness`), every completed query's served
//!   plan is byte-identical to a fresh plan at the epoch it claims —
//!   rebuilt by replaying the scripted event prefix
//!   (`serve-cache-coherence`), the workers are busy for exactly the
//!   served plans' prices, each for its own sub-dataset (`serve-price`) —
//!   and the canonical answers are identical across worker counts,
//!   schedule seeds and cache on/off, and the simulated timing across
//!   cache on/off (`serve-interleaving`).
//!
//! On a violation, [`shrink()`] reduces the failing scenario to a minimal
//! repro (fewer records, nodes, fault events, less corruption) that still
//! trips the same oracle, and [`Repro`] serialises it to a self-contained
//! JSON file that `datanet check --repro FILE` replays.
//!
//! Everything is deterministic: same seed → same scenario → same verdict,
//! bit for bit. The fixed-seed corpus under `tests/corpus/` plus a fresh
//! batch run in CI (`build-and-test` job).

pub mod harness;
pub mod repro;
pub mod scenario;
pub mod shrink;

pub use harness::{check_scenario_instrumented, CheckOptions, CheckOutcome, Violation};
pub use repro::Repro;
pub use scenario::{
    Corruption, CrashEvent, IngestPlan, NicEvent, Scenario, ServeEventPlan, ServePlan, ShuffleAxis,
    SlowEvent,
};
pub use shrink::{shrink, Shrunk};
