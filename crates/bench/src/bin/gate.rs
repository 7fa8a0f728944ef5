//! The recorder-overhead gate.
//!
//! ```text
//! gate [--quick] [--json OUT]
//! ```
//!
//! Measures the untraced workload against itself with the always-on
//! metrics plane and with the full trace recorder (see `obs.rs` for the
//! methodology) and exits non-zero when either exceeds its constant cap —
//! metrics ≤ 2 %, trace ≤ 5 % — on every one of three attempts. `--json`
//! writes the last measurement. The command line is checked *before*
//! anything is measured, so a typo fails in milliseconds.

use datanet_bench::{run_obs_bench, usage_error, Flags};
use std::fs;
use std::process::ExitCode;

const USAGE: &str = "gate [--quick] [--json OUT]";

/// The caps are absolute fractions of a workload of about a millisecond,
/// and noise on a shared host can only inflate such a measurement, never
/// hide real overhead: a genuine regression fails every attempt, a noise
/// spike rarely survives one.
const ATTEMPTS: usize = 3;

fn main() -> ExitCode {
    let flags = Flags::from_env(USAGE, &["quick"], &["json"]);
    if let [stray, ..] = flags.positional() {
        usage_error(USAGE, &format!("unexpected argument `{stray}`"));
    }
    for attempt in 1..=ATTEMPTS {
        let report = run_obs_bench(flags.switch("quick"));
        print!("{}", report.render());
        if let Some(path) = flags.path_flag("json") {
            let json = serde_json::to_vec_pretty(&report).expect("a report serialises");
            if let Err(e) = fs::write(path, json) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote JSON report to {}", path.display());
        }
        let violations = report.violations();
        if violations.is_empty() {
            println!("obs gate: PASS");
            return ExitCode::SUCCESS;
        }
        eprintln!("obs gate: FAIL (attempt {attempt}/{ATTEMPTS})");
        for v in &violations {
            eprintln!("  - {v}");
        }
    }
    ExitCode::FAILURE
}
