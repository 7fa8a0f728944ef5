//! A small, dependency-free command-line argument parser: `--key value`
//! flags plus positional arguments, with typed accessors and helpful
//! errors.

use std::collections::HashMap;
use std::fmt;

/// Parsed arguments: positionals in order plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
}

/// A parse or lookup failure, rendered for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a raw token stream (no program name) against the flags the
    /// command declares, each a space-separated list of names without
    /// dashes: one of `values` takes the next token, one of `switches`
    /// stands alone, and every other token is a positional.
    ///
    /// # Errors
    /// An undeclared `--flag` (a typo fails loudly instead of being silently
    /// ignored), or a value flag followed by another `--flag` or nothing.
    pub(crate) fn parse(
        tokens: impl IntoIterator<Item = String>,
        values: &str,
        switches: &str,
    ) -> Result<Self, ArgError> {
        let declared = |list: &str, key: &str| list.split_whitespace().any(|name| name == key);
        let mut args = Self::default();
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                args.positional.push(tok);
                continue;
            };
            let value = if declared(switches, key) {
                "true".to_string()
            } else if declared(values, key) {
                (it.next().filter(|v| !v.starts_with("--")))
                    .ok_or_else(|| ArgError(format!("{tok} needs a value")))?
            } else {
                let accepted: Vec<_> = (values.split_whitespace())
                    .chain(switches.split_whitespace())
                    .map(|name| format!("--{name}"))
                    .collect();
                return Err(ArgError(format!(
                    "unknown flag {tok}; accepted flags: {}",
                    accepted.join(", ")
                )));
            };
            args.options.insert(key.to_string(), value);
        }
        Ok(args)
    }

    /// Positional argument `i`, if present.
    pub(crate) fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Required positional argument `i`.
    ///
    /// # Errors
    /// Missing positional.
    pub(crate) fn require_positional(&self, i: usize, name: &str) -> Result<&str, ArgError> {
        self.positional(i)
            .ok_or_else(|| ArgError(format!("missing <{name}> argument")))
    }

    /// Optional string flag.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    /// Missing flag.
    pub(crate) fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required --{key} <value>")))
    }

    /// Whether the switch `--key` was given.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Typed flag with a default.
    ///
    /// # Errors
    /// Unparsable value.
    pub(crate) fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| ArgError(format!("--{key} {raw}: {e}"))),
        }
    }

    /// Number of positional arguments.
    pub(crate) fn positional_len(&self) -> usize {
        self.positional.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, values: &str, switches: &str) -> Result<Args, ArgError> {
        Args::parse(line.split_whitespace().map(String::from), values, switches)
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(
            "gen movies --records 100 --seed 7 out.json",
            "records seed",
            "",
        )
        .unwrap();
        assert_eq!(a.positional(0), Some("gen"));
        assert_eq!(a.positional(1), Some("movies"));
        assert_eq!(a.positional(2), Some("out.json"));
        assert_eq!(a.positional_len(), 3);
        assert_eq!(a.get("records"), Some("100"));
        assert_eq!(a.get_or("records", 5usize).unwrap(), 100);
        assert_eq!(a.get_or("missing", 5usize).unwrap(), 5);
        assert_eq!(a.require("seed").unwrap(), "7");
    }

    #[test]
    fn valueless_flag_is_a_boolean_switch() {
        let a = parse(
            "check --shrink --seeds 10 --verbose",
            "seeds",
            "shrink verbose",
        )
        .unwrap();
        assert!(a.flag("shrink"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("absent"));
        assert_eq!(a.get_or("seeds", 0usize).unwrap(), 10);
        // A switch takes nothing: what follows it is a positional.
        let a = parse("check --shrink false", "", "shrink").unwrap();
        assert!(a.flag("shrink"));
        assert_eq!(a.positional(1), Some("false"));
    }

    #[test]
    fn bad_typed_value_is_an_error() {
        let a = parse("--records nope", "records", "").unwrap();
        assert!(a.get_or("records", 1usize).is_err());
    }

    #[test]
    fn missing_required_is_an_error() {
        let a = parse("gen", "alpha", "").unwrap();
        assert!(a.require("alpha").is_err());
        assert!(a.require_positional(3, "file").is_err());
    }

    #[test]
    fn bench_switches_round_trip() {
        let bench = |line| parse(line, "json baseline", "quick").unwrap();
        let a = bench("bench --quick --json out.json --baseline BENCH_baseline.json");
        assert_eq!(a.positional(0), Some("bench"));
        assert!(a.flag("quick"));
        assert_eq!(a.get("json"), Some("out.json"));
        assert_eq!(a.get("baseline"), Some("BENCH_baseline.json"));
        // Flag order must not matter.
        let b = bench("bench --baseline BENCH_baseline.json --quick");
        assert!(b.flag("quick"));
        assert_eq!(b.get("baseline"), Some("BENCH_baseline.json"));
        assert_eq!(b.get("json"), None);
    }

    #[test]
    fn unknown_flag_is_rejected_with_the_accepted_list() {
        let err = parse("bench --quik", "json baseline", "quick").unwrap_err();
        assert!(err.0.contains("--quik"), "{err}");
        assert!(err.0.contains("--baseline, --quick"), "{err}");
        // Nothing is declared by default, the bare `--` included.
        assert!(parse("help --", "", "").is_err());
    }

    #[test]
    fn a_value_flag_needs_its_value() {
        let scan = |line| parse(line, "dataset meta alpha", "resume");
        let err = scan("scan --dataset d.json --meta --alpha 0.3").unwrap_err();
        assert_eq!(err.0, "--meta needs a value");
        let err = scan("scan --dataset d.json --alpha").unwrap_err();
        assert_eq!(err.0, "--alpha needs a value");
        assert_eq!(
            scan("scan --alpha -0.3").unwrap().get("alpha"),
            Some("-0.3")
        );
    }
}
