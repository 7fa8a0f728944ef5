//! The one command-line parser of the bench binaries (`repro`, `gate`,
//! `faults`). Each binary declares the switches and path flags it takes;
//! anything else is an error, so a typo cannot silently turn a gate off.

use std::path::{Path, PathBuf};

/// A parsed command line: positional words, `--switch`es and
/// `--flag PATH` pairs.
#[derive(Debug, Default)]
pub struct Flags {
    positional: Vec<String>,
    switches: Vec<String>,
    paths: Vec<(String, PathBuf)>,
}

impl Flags {
    /// Parse `args` (program name excluded) against the `--switch` and
    /// `--flag PATH` names (without dashes) the binary takes.
    ///
    /// # Errors
    /// An undeclared `--flag`, or a path flag with no value after it.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        path_flags: &[&str],
    ) -> Result<Self, String> {
        let mut flags = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                None => flags.positional.push(arg),
                Some(name) if switches.contains(&name) => flags.switches.push(name.to_string()),
                Some(name) if path_flags.contains(&name) => match args.next() {
                    Some(path) if !path.starts_with("--") => {
                        flags.paths.push((name.to_string(), PathBuf::from(path)));
                    }
                    _ => return Err(format!("`{arg}` needs a path after it")),
                },
                Some(_) => return Err(format!("unknown flag `{arg}`")),
            }
        }
        Ok(flags)
    }

    /// [`Flags::parse`] over the process arguments; a bad command line
    /// ends the process through [`usage_error`].
    pub fn from_env(usage: &str, switches: &[&str], path_flags: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), switches, path_flags)
            .unwrap_or_else(|e| usage_error(usage, &e))
    }

    /// The words that are not flags, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether `--<name>` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Value of `--<name> PATH`, if given.
    pub fn path_flag(&self, name: &str) -> Option<&Path> {
        self.paths
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_path())
    }
}

/// Print `problem` and the usage line to stderr and exit with status 2 —
/// before anything is measured, so a bad command line fails in
/// milliseconds.
pub fn usage_error(usage: &str, problem: &str) -> ! {
    eprintln!("error: {problem}\nusage: {usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Flags, String> {
        Flags::parse(
            line.split_whitespace().map(String::from),
            &["quick"],
            &["json", "trace"],
        )
    }

    #[test]
    fn declared_flags_round_trip_in_any_order() {
        let f = parse("fig5 --trace t.json --quick --json out.json").unwrap();
        assert_eq!(f.positional(), ["fig5"]);
        assert!(f.switch("quick"));
        assert_eq!(f.path_flag("json"), Some(Path::new("out.json")));
        assert_eq!(f.path_flag("trace"), Some(Path::new("t.json")));
        let f = parse("fig5").unwrap();
        assert!(!f.switch("quick"));
        assert_eq!(f.path_flag("json"), None);
    }

    #[test]
    fn typos_and_missing_values_are_errors() {
        assert!(parse("--jsn out.json").unwrap_err().contains("--jsn"));
        assert!(parse("--quik").unwrap_err().contains("--quik"));
        assert!(parse("--json").unwrap_err().contains("--json"));
        assert!(parse("--json --quick").unwrap_err().contains("--json"));
    }
}
