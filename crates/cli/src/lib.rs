#![forbid(unsafe_code)]
//! A tiny, dependency-free flag parser, shared by the `osnt` binary
//! and the `osnt-bench` experiment binaries.
//!
//! Supports `--name value` and `--name=value` options plus positional
//! arguments. Unknown options are errors; every command documents its
//! accepted flags.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    options: HashMap<String, String>,
    positional: Vec<String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// A CLI-usage error with a human-readable message.
#[derive(Debug)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

impl Args {
    /// Parse a raw argument list (after the subcommand name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, UsageError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                if let Some((k, v)) = name.split_once('=') {
                    args.options.insert(k.to_string(), v.to_string());
                } else {
                    let v = iter
                        .next()
                        .ok_or_else(|| UsageError(format!("--{name} needs a value")))?;
                    args.options.insert(name.to_string(), v);
                }
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// A typed option with a default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, UsageError> {
        self.consumed.borrow_mut().push(name.to_string());
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError(format!("invalid value for --{name}: {v}"))),
        }
    }

    /// An optional typed option.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        self.consumed.borrow_mut().push(name.to_string());
        match self.options.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| UsageError(format!("invalid value for --{name}: {v}"))),
        }
    }

    /// A raw string option.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(name.to_string());
        self.options.get(name).map(String::as_str)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Error if any provided option was never consumed (i.e. is
    /// unsupported by the command). Call after reading all flags.
    pub fn reject_unknown(&self) -> Result<(), UsageError> {
        let consumed = self.consumed.borrow();
        for key in self.options.keys() {
            if !consumed.iter().any(|c| c == key) {
                return Err(UsageError(format!("unknown option --{key}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn options_and_positionals() {
        let a = parse(&["--frame", "64", "file.pcap", "--load=0.5"]);
        assert_eq!(a.get("frame", 0usize).unwrap(), 64);
        assert_eq!(a.get("load", 0.0f64).unwrap(), 0.5);
        assert_eq!(a.positional(), &["file.pcap".to_string()]);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get("frame", 512usize).unwrap(), 512);
        assert_eq!(a.get_opt::<u64>("count").unwrap(), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(vec!["--frame".to_string()]).is_err());
    }

    #[test]
    fn bad_value_is_an_error() {
        let a = parse(&["--frame", "abc"]);
        assert!(a.get("frame", 0usize).is_err());
    }

    #[test]
    fn unknown_options_are_rejected() {
        let a = parse(&["--frame", "64", "--bogus", "1"]);
        let _ = a.get("frame", 0usize).unwrap();
        assert!(a.reject_unknown().is_err());
        let b = parse(&["--frame", "64"]);
        let _ = b.get("frame", 0usize).unwrap();
        assert!(b.reject_unknown().is_ok());
    }
}
