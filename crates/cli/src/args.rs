//! A tiny, dependency-free flag parser for the CLI.
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

/// Why `osnt` is exiting nonzero. The exit-code taxonomy lets CI and
/// scripts distinguish "you called it wrong" from "the run died" from
/// "the run finished but the result is partial":
///
/// | code | meaning                                                |
/// |------|--------------------------------------------------------|
/// | 0    | success                                                |
/// | 1    | any other failure (I/O, decode, internal)              |
/// | 2    | usage error — bad flags or arguments                   |
/// | 3    | run aborted — watchdog stall or contained panic        |
/// | 4    | partial result — run finished without a usable answer  |
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (exit 2). The only variant that reprints usage.
    Usage(UsageError),
    /// The run was aborted mid-flight (exit 3): a watchdog declared a
    /// stall, or a panic was contained at a supervision boundary.
    Aborted(osnt_error::OsntError),
    /// The command completed but could only produce a partial result
    /// (exit 4), e.g. a supervised sweep that journaled an abort, or a
    /// measurement with no samples.
    Partial(String),
    /// Everything else (exit 1).
    Other(osnt_error::OsntError),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Aborted(_) => 3,
            CliError::Partial(_) => 4,
            CliError::Other(_) => 1,
        }
    }

    /// True for invocation errors — the caller reprints usage for these.
    pub fn is_usage(&self) -> bool {
        matches!(self, CliError::Usage(_))
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => e.fmt(f),
            CliError::Aborted(e) => write!(f, "run aborted: {e}"),
            CliError::Partial(msg) => write!(f, "partial result: {msg}"),
            CliError::Other(e) => e.fmt(f),
        }
    }
}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

impl From<osnt_error::OsntError> for CliError {
    fn from(e: osnt_error::OsntError) -> Self {
        use osnt_error::OsntError as E;
        match e {
            E::RunAborted { .. } | E::Panicked { .. } | E::CrashInjected { .. } => {
                CliError::Aborted(e)
            }
            E::NoSamples { .. } => CliError::Partial(e.to_string()),
            other => CliError::Other(other),
        }
    }
}

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
    fn exit_codes_are_distinct_per_failure_class() {
        use osnt_error::OsntError;
        let usage = CliError::from(UsageError("bad flag".into()));
        let aborted = CliError::from(OsntError::RunAborted {
            phase: "load-0.9".into(),
            last_progress: 42,
        });
        let panicked = CliError::from(OsntError::Panicked {
            context: "shard worker",
            reason: "boom".into(),
        });
        let partial = CliError::from(OsntError::NoSamples {
            context: "latency experiment",
        });
        let other = CliError::from(OsntError::decode("journal", "bad magic"));

        assert_eq!(usage.exit_code(), 2);
        assert_eq!(aborted.exit_code(), 3);
        assert_eq!(panicked.exit_code(), 3);
        assert_eq!(partial.exit_code(), 4);
        assert_eq!(other.exit_code(), 1);
        assert!(usage.is_usage());
        assert!(!aborted.is_usage());
        // Every class maps to a different code (panics share "aborted").
        let codes = [
            usage.exit_code(),
            aborted.exit_code(),
            partial.exit_code(),
            other.exit_code(),
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
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
