//! A small, dependency-free command-line argument parser: `--key value`
//! flags plus positional arguments, with typed accessors and helpful
//! errors.

use std::collections::HashMap;
use std::fmt;

/// Parsed arguments: positionals in order plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
}

/// A parse or lookup failure, rendered for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a raw token stream (no program name). A `--flag` followed by
    /// another `--option` or the end of the stream is a boolean switch and
    /// stores the value `"true"` (see [`Args::flag`]).
    ///
    /// # Errors
    /// None today; the `Result` is kept so callers are ready for stricter
    /// parses (duplicate detection, unknown-flag rejection).
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut positional = Vec::new();
        let mut options = HashMap::new();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().expect("just peeked"),
                    _ => "true".to_string(),
                };
                options.insert(key.to_string(), value);
            } else {
                positional.push(tok);
            }
        }
        Ok(Self {
            positional,
            options,
        })
    }

    /// Positional argument `i`, if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Required positional argument `i`.
    ///
    /// # Errors
    /// Missing positional.
    pub fn require_positional(&self, i: usize, name: &str) -> Result<&str, ArgError> {
        self.positional(i)
            .ok_or_else(|| ArgError(format!("missing <{name}> argument")))
    }

    /// Optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    /// Missing flag.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required --{key} <value>")))
    }

    /// Boolean switch: `--key` alone (or `--key true`) turns it on;
    /// absent, `--key false` or `--key 0` leave it off.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false" && v != "0")
    }

    /// Typed flag with a default.
    ///
    /// # Errors
    /// Unparsable value.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
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
    #[allow(dead_code)] // exercised by tests; kept for API symmetry
    pub fn positional_len(&self) -> usize {
        self.positional.len()
    }

    /// Reject any option outside `allowed` — commands with a closed flag
    /// set call this so a typo (`--quik`) fails loudly instead of being
    /// silently ignored.
    ///
    /// # Errors
    /// Names the first unknown flag and lists the accepted ones.
    #[allow(dead_code)] // its one caller, `datanet bench`, is gone; exercised by tests
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ArgError> {
        let mut unknown: Vec<&str> = self
            .options
            .keys()
            .map(String::as_str)
            .filter(|k| !allowed.contains(k))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            None => Ok(()),
            Some(flag) => Err(ArgError(format!(
                "unknown flag --{flag}; accepted flags: {}",
                allowed
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).expect("parses")
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse("gen movies --records 100 --seed 7 out.json");
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
        let a = parse("check --shrink --seeds 10 --verbose");
        assert!(a.flag("shrink"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("absent"));
        assert_eq!(a.get("shrink"), Some("true"));
        assert_eq!(a.get_or("seeds", 0usize).unwrap(), 10);
        let a = parse("check --shrink false");
        assert!(!a.flag("shrink"));
    }

    #[test]
    fn bad_typed_value_is_an_error() {
        let a = parse("--records nope");
        assert!(a.get_or("records", 1usize).is_err());
    }

    #[test]
    fn missing_required_is_an_error() {
        let a = parse("gen");
        assert!(a.require("alpha").is_err());
        assert!(a.require_positional(3, "file").is_err());
    }

    #[test]
    fn bench_switches_round_trip() {
        let a = parse("bench --quick --json out.json --baseline BENCH_baseline.json");
        assert_eq!(a.positional(0), Some("bench"));
        assert!(a.flag("quick"));
        assert_eq!(a.get("json"), Some("out.json"));
        assert_eq!(a.get("baseline"), Some("BENCH_baseline.json"));
        a.reject_unknown(&["quick", "json", "baseline"]).unwrap();
        // Flag order must not matter.
        let b = parse("bench --baseline BENCH_baseline.json --quick");
        assert!(b.flag("quick"));
        assert_eq!(b.get("baseline"), Some("BENCH_baseline.json"));
        assert_eq!(b.get("json"), None);
    }

    #[test]
    fn unknown_flag_is_rejected_with_the_accepted_list() {
        let a = parse("bench --quik");
        let err = a
            .reject_unknown(&["quick", "json", "baseline"])
            .unwrap_err();
        assert!(err.0.contains("--quik"), "{err}");
        assert!(err.0.contains("--baseline"), "{err}");
    }
}
