//! Minimal flag/value argument parsing.

use std::collections::HashMap;

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation — print usage, exit 1.
    Usage(String),
    /// Valid invocation that failed at runtime (I/O, bad data).
    Runtime(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed `--flag value` / `--switch` arguments.
#[derive(Debug, Default)]
pub struct ArgMap {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

/// Boolean switches (no value follows).
const SWITCHES: [&str; 6] = [
    "--no-moa",
    "--conf",
    "--no-prune",
    "--buying",
    "--all",
    "--no-compact",
];

impl ArgMap {
    /// Parse a flat argument list.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut map = ArgMap::default();
        let mut i = 0;
        while i < args.len() {
            let flag = &args[i];
            if !flag.starts_with("--") {
                return Err(CliError::Usage(format!("unexpected argument {flag:?}")));
            }
            if SWITCHES.contains(&flag.as_str()) {
                if map.switches.iter().any(|s| s == flag) {
                    return Err(CliError::Usage(format!("{flag} given more than once")));
                }
                map.switches.push(flag.clone());
            } else {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
                // A silently-winning later duplicate hides typos in long
                // invocations (`--seed 1 … --seed 2`); reject instead.
                if map.values.insert(flag.clone(), value.clone()).is_some() {
                    return Err(CliError::Usage(format!("{flag} given more than once")));
                }
            }
            i += 1;
        }
        Ok(map)
    }

    /// A required string value.
    pub fn require(&self, flag: &str) -> Result<&str, CliError> {
        self.values
            .get(flag)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required {flag}")))
    }

    /// An optional string value.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// An optional parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.values.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("{flag}: cannot parse {v:?}"))),
        }
    }

    /// Is a boolean switch present?
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// Reject every flag `verb` does not read (`allowed`, in groups).
    pub fn only(&self, verb: &str, allowed: &[&[&str]]) -> Result<(), CliError> {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .chain(&self.switches)
            .map(String::as_str)
            .filter(|f| !allowed.iter().any(|group| group.contains(f)))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        Err(CliError::Usage(format!(
            "{verb} does not take {}",
            unknown.join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let _guard = pm_store::faults::test_lock();
        let a = ArgMap::parse(&v(&["--out", "x.json", "--no-moa", "--txns", "100"])).unwrap();
        assert_eq!(a.require("--out").unwrap(), "x.json");
        assert!(a.switch("--no-moa"));
        assert!(!a.switch("--conf"));
        assert_eq!(a.get_or("--txns", 0usize).unwrap(), 100);
        assert_eq!(a.get_or("--seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn errors() {
        let _guard = pm_store::faults::test_lock();
        assert!(ArgMap::parse(&v(&["positional"])).is_err());
        assert!(ArgMap::parse(&v(&["--out"])).is_err());
        let a = ArgMap::parse(&v(&["--txns", "abc"])).unwrap();
        assert!(a.get_or("--txns", 0usize).is_err());
        assert!(a.require("--missing").is_err());
    }

    #[test]
    fn only_rejects_unread_flags() {
        let _guard = pm_store::faults::test_lock();
        let a = ArgMap::parse(&v(&["--out", "x", "--all", "--mode", "fast"])).unwrap();
        assert!(a.only("gen", &[&["--out", "--all", "--mode"]]).is_ok());
        let CliError::Usage(msg) = a.only("gen", &[&["--out"], &["--seed"]]).unwrap_err() else {
            panic!("expected a usage error");
        };
        assert_eq!(msg, "gen does not take --all, --mode");
    }

    #[test]
    fn duplicate_flags_are_rejected_not_overwritten() {
        let _guard = pm_store::faults::test_lock();
        let err = ArgMap::parse(&v(&["--seed", "1", "--txns", "5", "--seed", "2"])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("expected a usage error");
        };
        assert!(msg.contains("--seed"), "{msg}");
        assert!(msg.contains("more than once"), "{msg}");
        // Repeated switches are rejected too.
        assert!(ArgMap::parse(&v(&["--all", "--all"])).is_err());
        // Distinct flags still parse.
        assert!(ArgMap::parse(&v(&["--seed", "1", "--txns", "5"])).is_ok());
    }
}
