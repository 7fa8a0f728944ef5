//! Integration tests for the deterministic simulation-check harness
//! (`datanet-check`): the fixed-seed corpus, the planted-bug self-test
//! the acceptance criteria demand, repro round-trips, and determinism
//! of the checker itself.

use datanet_check::{
    check_scenario_instrumented, shrink, CheckOptions, CheckOutcome, Repro, Scenario,
};
use datanet_obs::Recorder;

/// What `datanet check` runs per scenario (unmetered), with `opts`
/// planted.
fn check_planted(sc: &Scenario, opts: &CheckOptions) -> CheckOutcome {
    check_scenario_instrumented(sc, opts, &Recorder::off())
}

/// What `datanet check` runs per scenario.
fn check(sc: &Scenario) -> CheckOutcome {
    check_planted(sc, &CheckOptions::default())
}

/// Parse `tests/corpus/seeds.txt`: one integer seed per line, `#`
/// comments and blank lines ignored.
fn corpus_seeds() -> Vec<u64> {
    include_str!("corpus/seeds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus lines are u64 seeds"))
        .collect()
}

/// Every corpus seed expands into a world that passes the full oracle
/// catalog. This is the regression net: a future PR that breaks byte
/// conservation, the Equation 6 envelope, planner bounds or recorder
/// transparency fails here with the offending seed named.
#[test]
fn fixed_seed_corpus_passes() {
    let seeds = corpus_seeds();
    assert!(seeds.len() >= 48, "corpus should stay substantial");
    for seed in seeds {
        let sc = Scenario::from_seed(seed);
        let out = check(&sc);
        assert!(
            out.passed(),
            "corpus seed {seed} violated: {:#?}",
            out.violations
        );
        // ... and one `Repro::load` would take back from a file.
        assert_eq!(sc.validate(), Ok(()), "corpus seed {seed}");
    }
}

/// The checker is itself deterministic: same seed, same verdict,
/// violation for violation — a prerequisite for seeds being shareable
/// bug reports.
#[test]
fn checker_is_deterministic() {
    for seed in [3u64, 17, 29] {
        let sc = Scenario::from_seed(seed);
        assert_eq!(check(&sc), check(&sc));
    }
}

/// Acceptance self-test: an off-by-one planted in Algorithm 1's credit
/// accounting (behind the test-only `plant_credit_skew` hook) must be
/// caught by the `greedy-conservation` oracle and shrunk to a world of
/// ≤ 8 blocks on ≤ 3 nodes that still exhibits it.
#[test]
fn planted_credit_bug_is_caught_and_shrunk() {
    let seed = 5u64;
    let sc = Scenario::from_seed(seed);
    assert!(
        check(&sc).passed(),
        "seed {seed} must be clean without the planted bug"
    );

    let opts = CheckOptions {
        credit_skew: 1,
        ..CheckOptions::default()
    };
    let out = check_planted(&sc, &opts);
    assert!(
        out.violations
            .iter()
            .any(|v| v.oracle == "greedy-conservation"),
        "planted off-by-one not caught: {:#?}",
        out.violations
    );

    let shrunk = shrink(&sc, &opts).expect("a failing scenario must shrink");
    assert!(
        shrunk
            .outcome
            .violations
            .iter()
            .any(|v| v.oracle == "greedy-conservation"),
        "shrinking wandered off the original oracle"
    );
    assert!(
        shrunk.outcome.blocks <= 8,
        "repro still has {} blocks",
        shrunk.outcome.blocks
    );
    assert!(
        shrunk.outcome.nodes <= 3,
        "repro still has {} nodes",
        shrunk.outcome.nodes
    );
    assert!(shrunk.scenario.records <= sc.records);
    assert!(shrunk.scenario.nodes <= sc.nodes);
}

/// Acceptance self-test for the shuffle axis: a planted planner bug that
/// funnels every key range onto reducer 0 (behind the test-only
/// `plant_reducer_overload` hook) must be caught by the `reduce-skew`
/// oracle and shrunk to a world of ≤ 8 blocks on ≤ 3 nodes — three
/// reducers is the arithmetic floor where an all-on-one plan still
/// exceeds the fair-share bound.
#[test]
fn planted_reducer_overload_is_caught_and_shrunk() {
    let seed = 5u64;
    let sc = Scenario::from_seed(seed);
    assert!(
        check(&sc).passed(),
        "seed {seed} must be clean without the planted bug"
    );

    let opts = CheckOptions {
        overload_reducer: true,
        ..CheckOptions::default()
    };
    let out = check_planted(&sc, &opts);
    assert!(
        out.violations.iter().any(|v| v.oracle == "reduce-skew"),
        "planted reducer overload not caught: {:#?}",
        out.violations
    );

    let shrunk = shrink(&sc, &opts).expect("a failing scenario must shrink");
    assert!(
        shrunk
            .outcome
            .violations
            .iter()
            .any(|v| v.oracle == "reduce-skew"),
        "shrinking wandered off the original oracle"
    );
    assert!(
        shrunk.outcome.blocks <= 8,
        "repro still has {} blocks",
        shrunk.outcome.blocks
    );
    assert!(
        shrunk.outcome.nodes <= 3,
        "repro still has {} nodes",
        shrunk.outcome.nodes
    );
}

/// Acceptance self-test for the serving axis: a planted cache-staleness
/// bug that makes the plan cache ignore epochs and serve each
/// sub-dataset's first served plan (behind the test-only
/// `serve_with_planted_staleness` hook) must be caught by the
/// `serve-cache-coherence` oracle — a query completed after a scripted
/// ingest commit or node loss gets handed the pre-mutation plan, whose
/// digest no longer matches a fresh plan at the epoch the outcome claims
/// — and shrunk to a world of ≤ 8 blocks serving ≤ 3 tenants that still
/// exhibits it.
#[test]
fn planted_cache_staleness_bug_is_caught_and_shrunk() {
    let seed = 0u64;
    let sc = Scenario::from_seed(seed);
    assert!(
        check(&sc).passed(),
        "seed {seed} must be clean without the planted bug"
    );

    let opts = CheckOptions {
        stale_serve_cache: true,
        ..CheckOptions::default()
    };
    let out = check_planted(&sc, &opts);
    assert!(
        out.violations
            .iter()
            .any(|v| v.oracle == "serve-cache-coherence"),
        "planted cache staleness not caught: {:#?}",
        out.violations
    );

    let shrunk = shrink(&sc, &opts).expect("a failing scenario must shrink");
    assert!(
        shrunk
            .outcome
            .violations
            .iter()
            .any(|v| v.oracle == "serve-cache-coherence"),
        "shrinking wandered off the original oracle"
    );
    assert!(
        shrunk.outcome.blocks <= 8,
        "repro still has {} blocks",
        shrunk.outcome.blocks
    );
    assert!(
        shrunk.scenario.serve.tenants <= 3,
        "repro still serves {} tenants",
        shrunk.scenario.serve.tenants
    );
    assert!(
        !shrunk.scenario.serve.events.is_empty(),
        "staleness needs at least one world mutation to be observable"
    );
}

/// A shrunk failure round-trips through a repro file and replays to the
/// same violations on a fresh process — the file alone is the bug report.
#[test]
fn repro_file_replays_identically() {
    let sc = Scenario::from_seed(5);
    let opts = CheckOptions {
        credit_skew: 1,
        ..CheckOptions::default()
    };
    let shrunk = shrink(&sc, &opts).expect("planted bug must fail");
    let repro = Repro {
        original_seed: 5,
        scenario: shrunk.scenario.clone(),
        options: opts,
        violations: shrunk.outcome.violations.clone(),
        flight: serde_json::Value::Null,
    };
    let path = std::env::temp_dir().join(format!(
        "datanet-simcheck-repro-{}.json",
        std::process::id()
    ));
    repro.save(&path).expect("save repro");
    let back = Repro::load(&path).expect("load repro");
    std::fs::remove_file(&path).ok();
    assert_eq!(back, repro);
    let replayed = back.replay();
    assert_eq!(replayed.violations, repro.violations);
}

/// With all-default options the harness finds nothing to shrink on a
/// passing seed — `shrink` refuses rather than minimising a non-failure.
#[test]
fn clean_seed_has_nothing_to_shrink() {
    let sc = Scenario::from_seed(11);
    assert!(shrink(&sc, &CheckOptions::default()).is_none());
}
