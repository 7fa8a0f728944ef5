//! The one driver of the within-run bench gates.
//!
//! ```text
//! gate <ingest|shuffle|serve|obs> [--quick] [--json OUT] [--baseline FILE]
//! ```
//!
//! Every gate measures live product code against a baseline run inside
//! the same process (rebuild-per-commit, hash partitioning, cache off,
//! recorder off — see the module of each for its methodology and rules).
//! `--json` writes the measurement; `--baseline` compares it against a
//! committed `BENCH_<gate>_baseline.json` and exits non-zero on a
//! violation — the CI `ingest-gate`, `shuffle-gate`, `serve-gate` and
//! `trace-smoke` jobs are exactly this invocation. The command line and
//! the baseline are checked *before* anything is measured, so a typo
//! fails in milliseconds instead of silently skipping the gate.

use datanet_bench::{
    run_ingest_bench, run_obs_bench, run_serve_bench, run_shuffle_bench, usage_error, Flags,
    IngestBenchReport, ObsBenchReport, ServeBenchReport, ShuffleBenchReport,
};
use serde::{Deserialize, Serialize};
use std::fs;
use std::process::ExitCode;

const USAGE: &str = "gate <ingest|shuffle|serve|obs> [--quick] [--json OUT] [--baseline FILE]";

/// A gate's name and [`drive`] instantiated for its report type.
type Gate = (&'static str, fn(&Flags) -> ExitCode);

/// A row of [`GATES`], written `(name, run, report type, attempts)`. The four report
/// types share `render` and `gate_against` by name only, so the row is a
/// macro rather than a value.
macro_rules! gate {
    ($name:literal, $run:path, $report:ty, $attempts:literal) => {
        ($name, |flags| {
            let (render, check) = (<$report>::render, <$report>::gate_against);
            drive(flags, $name, $attempts, $run, render, check)
        })
    };
}

/// `obs` alone gets three attempts: its caps are absolute fractions of a
/// ~4 ms workload, and noise on a shared host can only inflate such a
/// measurement, never hide real overhead — a genuine regression fails
/// every attempt, a noise spike rarely survives one. The other gates
/// compare two sides timed in the same run (or simulated numbers), which
/// a slow host moves together.
const GATES: [Gate; 4] = [
    gate!("ingest", run_ingest_bench, IngestBenchReport, 1),
    gate!("shuffle", run_shuffle_bench, ShuffleBenchReport, 1),
    gate!("serve", run_serve_bench, ServeBenchReport, 1),
    gate!("obs", run_obs_bench, ObsBenchReport, 3),
];

fn main() -> ExitCode {
    let flags = Flags::from_env(USAGE, &["quick"], &["json", "baseline"]);
    let [name] = flags.positional() else {
        usage_error(USAGE, "name exactly one gate");
    };
    let Some((_, run)) = GATES.iter().find(|(n, _)| n == name) else {
        usage_error(USAGE, &format!("no gate `{name}`"));
    };
    run(&flags)
}

/// Load the baseline → measure → print → write JSON → gate, re-measuring
/// a failed gate while attempts remain.
fn drive<R: Serialize + Deserialize>(
    flags: &Flags,
    name: &str,
    attempts: usize,
    measure: fn(bool) -> R,
    render: fn(&R) -> String,
    check: fn(&R, &R) -> Vec<String>,
) -> ExitCode {
    let baseline = flags.path_flag("baseline").map(|path| {
        let raw = fs::read_to_string(path).unwrap_or_else(|e| {
            usage_error(
                USAGE,
                &format!("cannot read baseline {}: {e}", path.display()),
            )
        });
        let report: R = serde_json::from_str(&raw).unwrap_or_else(|e| {
            usage_error(
                USAGE,
                &format!("cannot parse baseline {}: {e}", path.display()),
            )
        });
        (path, report)
    });

    for attempt in 1..=attempts {
        let report = measure(flags.switch("quick"));
        print!("{}", render(&report));
        if let Some(path) = flags.path_flag("json") {
            let json = serde_json::to_vec_pretty(&report).expect("a report serialises");
            if let Err(e) = fs::write(path, json) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote JSON report to {}", path.display());
        }
        let Some((path, baseline)) = &baseline else {
            return ExitCode::SUCCESS;
        };
        let violations = check(&report, baseline);
        if violations.is_empty() {
            println!("{name} gate: PASS against {}", path.display());
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "{name} gate: FAIL against {} (attempt {attempt}/{attempts})",
            path.display()
        );
        for v in &violations {
            eprintln!("  - {v}");
        }
    }
    ExitCode::FAILURE
}
