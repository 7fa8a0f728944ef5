//! The bench binaries' contract with CI: a command line they do not fully
//! understand fails with exit status 2 before anything is measured.

use std::process::Command;

const GATE: &str = env!("CARGO_BIN_EXE_gate");
const FAULTS: &str = env!("CARGO_BIN_EXE_faults");

#[test]
fn bench_binaries_fail_fast_on_bad_command_lines() {
    // Every case trips before the measurement loop runs (nothing reaches
    // stdout), so this test is milliseconds, not a bench run.
    let cases = [
        // One typo must not turn the gate off...
        (GATE, "--quick --jsn out.json", "--jsn"),
        // ...nor a path flag that lost its value...
        (GATE, "--quick --json", "--json"),
        // ...nor a word the binary does not take.
        (GATE, "obs --quick", "unexpected argument `obs`"),
        (FAULTS, "--bogus", "--bogus"),
        (FAULTS, "--quick --json", "--json"),
        (FAULTS, "--quick sweep", "unexpected argument `sweep`"),
    ];
    for (exe, args, problem) in cases {
        let out = Command::new(exe)
            .args(args.split_whitespace())
            .output()
            .expect("binary launches");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} measured before failing");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(problem), "{args:?}: {err}");
        assert!(err.contains("usage: "), "{args:?}: {err}");
    }
}
