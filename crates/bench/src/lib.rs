#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-bench — the benchmark and two experiment harnesses
//!
//! `e0_pipeline` is the benchmark, the one program in this repository
//! that times anything to a protocol. `e13_burst` and `e15_flowtable`
//! each write a `BENCH_*.json` artifact (see `EXPERIMENTS.md`): they
//! assert a digest and print wall-clock readings for information only.
//! Every other experiment is a workspace test. What the two harnesses
//! share lives here: the command line, the `--json` artifact with its
//! host stamp, and table printing.

pub mod table;

// e0's own stamp, compiled in from its frozen source so `stamp_json`
// exists once; the `/proc` readers it does not need here ride along.
#[allow(dead_code, missing_docs)]
#[path = "bin/e0_pipeline/host.rs"]
mod host;

pub use osnt_cli::{Args, UsageError};
pub use table::Table;

/// Where `--json PATH` sends a run's record, if anywhere.
#[derive(Debug)]
pub struct Artifact {
    path: Option<String>,
    load_start: Option<f64>,
}

impl Artifact {
    /// Write `{"bench":NAME,"host":{stamp},FIELDS}` to the `--json`
    /// path; nothing without one. `fields` is the inside of a JSON
    /// object. `reps` is how many times the wall readings in it were
    /// taken. The stamp's `seed` is 0: an experiment's seeds are
    /// constants of its source, not an axis of the run.
    ///
    /// # Panics
    /// When the file cannot be written.
    pub fn write(&self, bench: &str, reps: usize, fields: &str) {
        let Some(path) = &self.path else { return };
        let stamp = host::stamp_json(0, reps, self.load_start, host::load_average());
        let body = format!("{{\"bench\":\"{bench}\",\"host\":{stamp},{fields}}}\n");
        std::fs::write(path, body).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Parse an experiment's command line: `read` takes the flags it
/// knows off `Args`, `--json` is taken here, and anything left over —
/// an unknown flag, a positional word — is an error.
pub fn parse_flags<T>(
    raw: impl IntoIterator<Item = String>,
    read: impl FnOnce(&Args) -> Result<T, UsageError>,
) -> Result<(T, Artifact), UsageError> {
    let args = Args::parse(raw)?;
    if let Some(word) = args.positional().first() {
        return Err(UsageError(format!("unexpected argument {word}")));
    }
    let flags = read(&args)?;
    let artifact = Artifact {
        path: args.get_str("json").map(str::to_string),
        load_start: host::load_average(),
    };
    args.reject_unknown()?;
    Ok((flags, artifact))
}

/// [`parse_flags`] on the process's own arguments; a usage error
/// prints `error: …` and the usage line, and exits 2.
pub fn flags_or_exit<T>(
    usage: &str,
    read: impl FnOnce(&Args) -> Result<T, UsageError>,
) -> (T, Artifact) {
    parse_flags(std::env::args().skip(1), read).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Option<u64>, String> {
        parse_flags(argv.iter().map(|s| s.to_string()), |args| {
            args.get_opt("frames")
        })
        .map(|(frames, _)| frames)
        .map_err(|e| e.to_string())
    }

    /// What a harness exits 2 on: the error `flags_or_exit` would print.
    #[test]
    fn a_bad_command_line_is_a_usage_error() {
        assert_eq!(parse(&["--frames", "7", "--json=x"]), Ok(Some(7)));
        assert_eq!(parse(&[]), Ok(None));
        for (argv, message) in [
            (&["--bogus", "1"][..], "unknown option --bogus"),
            (&["--frames", "many"], "invalid value for --frames: many"),
            (&["--frames"], "--frames needs a value"),
            (&["--frames", "--json", "x"], "unexpected argument x"),
        ] {
            assert_eq!(parse(argv), Err(message.to_string()), "{argv:?}");
        }
    }
}
