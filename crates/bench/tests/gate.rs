//! The gate driver's contract with CI: a command line it does not fully
//! understand, or a baseline it cannot load, fails before anything is
//! measured; a loaded baseline decides the exit code.

use datanet_bench::ShuffleBenchReport;
use std::process::{Command, Output};

const GATE: &str = env!("CARGO_BIN_EXE_gate");
const FAULTS: &str = env!("CARGO_BIN_EXE_faults");

fn run(exe: &str, line: &str) -> Output {
    Command::new(exe)
        .args(line.split_whitespace())
        .output()
        .expect("binary launches")
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("datanet-bench-gate-{name}-{}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn shuffle_baseline() -> String {
    format!(
        "{}/../../BENCH_shuffle_baseline.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn bench_fails_fast_on_bad_flags_and_baselines() {
    let bogus = tmp("bogus-baseline.json");
    std::fs::write(&bogus, b"not json").unwrap();
    let baseline = shuffle_baseline();
    // Every case trips before the measurement loop runs (nothing reaches
    // stdout), so this test is milliseconds, not a bench run.
    let cases = [
        (GATE, "shuffle --quik".to_string(), "--quik"),
        (
            GATE,
            "shuffle --baseline /nonexistent/base.json".to_string(),
            "cannot read baseline",
        ),
        (
            GATE,
            format!("shuffle --baseline {bogus}"),
            "cannot parse baseline",
        ),
        // One typo must not turn the gate off...
        (
            GATE,
            format!("shuffle --quick --basline {baseline}"),
            "--basline",
        ),
        // ...nor a path flag that lost its value...
        (GATE, "shuffle --quick --baseline".to_string(), "--baseline"),
        // ...nor another gate's baseline.
        (
            GATE,
            format!("ingest --baseline {baseline}"),
            "cannot parse baseline",
        ),
        (GATE, "core".to_string(), "no gate `core`"),
        (GATE, String::new(), "exactly one gate"),
        (FAULTS, "--bogus".to_string(), "--bogus"),
        (FAULTS, "--quick --json".to_string(), "--json"),
    ];
    for (exe, args, problem) in &cases {
        let out = run(exe, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} measured before failing");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(problem), "{args:?}: {err}");
        assert!(err.contains("usage: "), "{args:?}: {err}");
    }
    let _ = std::fs::remove_file(&bogus);
}

/// The shuffle sweep is simulated, so its gate is deterministic: the
/// committed baseline passes, and a baseline whose gated ratio sits
/// outside the tolerance band fails with exit code 1.
#[test]
fn a_loaded_baseline_decides_the_exit_code() {
    let json = tmp("BENCH_shuffle.json");
    let baseline = shuffle_baseline();
    let out = run(
        GATE,
        &format!("shuffle --quick --json {json} --baseline {baseline}"),
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("shuffle gate: PASS against"), "{stdout}");

    // What it wrote is a report; drift it and gate against that.
    let raw = std::fs::read_to_string(&json).unwrap();
    let mut drifted: ShuffleBenchReport = serde_json::from_str(&raw).unwrap();
    for row in &mut drifted.rows {
        row.bytes_reduction *= 2.0;
    }
    std::fs::write(&json, serde_json::to_vec_pretty(&drifted).unwrap()).unwrap();
    let out = run(GATE, &format!("shuffle --quick --baseline {json}"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("shuffle gate: FAIL against"), "{err}");
    assert!(err.contains("drifted"), "{err}");
    let _ = std::fs::remove_file(&json);
}
