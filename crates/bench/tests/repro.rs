//! The record is the output: `repro_output.txt` is what `datanet repro`
//! prints, byte for byte, and EXPERIMENTS.md indexes exactly the sections
//! it runs.

use datanet_bench::{repro, SECTIONS};
use std::io::ErrorKind;
use std::sync::OnceLock;

/// What [`repro`] writes for `wanted`.
fn run(wanted: &[&str]) -> String {
    let mut out = Vec::new();
    repro(wanted, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("utf8 output")
}

/// One full record, shared by the tests below.
fn full_output() -> &'static str {
    static OUT: OnceLock<String> = OnceLock::new();
    OUT.get_or_init(|| run(&[]))
}

fn committed(file: &str) -> String {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `(name, header + body)` of every section in `output`, in order. A
/// header is `\n######## name ########\n\n`; the slice starts at its
/// leading blank line.
fn sections(output: &str) -> Vec<(&str, &str)> {
    const MARK: &str = "\n######## ";
    let starts: Vec<usize> = output.match_indices(MARK).map(|(at, _)| at).collect();
    let ends = starts.iter().skip(1).copied().chain([output.len()]);
    starts
        .iter()
        .zip(ends)
        .map(|(&at, end)| {
            let name = output[at + MARK.len()..].split(' ').next().expect("a name");
            (name, &output[at..end])
        })
        .collect()
}

#[test]
fn committed_record_is_the_output_byte_for_byte() {
    assert!(
        full_output() == committed("repro_output.txt"),
        "repro_output.txt is stale; regenerate it with \
         `cargo run --release -q --bin datanet-cli -- repro > repro_output.txt` \
         and update the numbers EXPERIMENTS.md quotes from it"
    );
}

#[test]
fn sections_are_exactly_the_experiments_index() {
    // EXPERIMENTS.md names a section in the last column of its table and
    // in each bullet of its extension-study list.
    let experiments = committed("EXPERIMENTS.md");
    let mut indexed: Vec<&str> = Vec::new();
    let mut heading = "";
    for line in experiments.lines() {
        if let Some(h) = line.strip_prefix("## ") {
            heading = h;
        }
        let cell = if line.starts_with('|') {
            line.trim_end_matches('|').rsplit('|').next()
        } else if heading.starts_with("Extension studies") && line.starts_with("* `") {
            Some(line)
        } else {
            None
        };
        if let Some(name) = cell.and_then(|c| c.split('`').nth(1)) {
            if !indexed.contains(&name) {
                indexed.push(name);
            }
        }
    }
    let printed: Vec<&str> = sections(full_output()).iter().map(|&(n, _)| n).collect();
    assert_eq!(
        printed, indexed,
        "repro's sections vs EXPERIMENTS.md's index"
    );
}

#[test]
fn named_sections_print_exactly_their_slices() {
    let all = sections(full_output());
    let slice = |name: &str| all.iter().find(|(n, _)| *n == name).expect("section").1;
    let expected = format!("{}{}", slice("fig5"), slice("fig7"));
    assert!(run(&["fig5", "fig7"]) == expected);
}

/// A word that is no section, flag-shaped or not, fails before any
/// section is written, naming every section and what it reproduces.
#[test]
fn unknown_sections_and_flags_fail_naming_the_valid_sections() {
    for bad in ["nosuch", "--quick"] {
        let mut out = Vec::new();
        let err = repro(&["fig2", bad], &mut out).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        assert!(out.is_empty(), "repro fig2 {bad} wrote a section");
        let err = err.to_string();
        assert!(err.contains(&format!("`{bad}`")), "{err}");
        for (name, what, _) in SECTIONS {
            assert!(
                err.contains(name) && err.contains(what),
                "`{name}` missing from: {err}"
            );
        }
    }
}
