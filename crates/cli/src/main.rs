#![forbid(unsafe_code)]
//! `osnt` — the OSNT-rs command-line interface.
//!
//! The paper: "OSNT consists of a software driver supporting
//! command-line and graphic-user interfaces (CLI and GUI), traffic
//! generators and monitors modules." This binary is that CLI for the
//! simulated platform: each subcommand assembles a testbed, runs it in
//! virtual time, and prints the measurement.

mod commands;

use osnt_cli::{Args, UsageError};

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

const USAGE: &str = "\
osnt — open source network tester (simulated 10 GbE platform)

USAGE:
    osnt <COMMAND> [OPTIONS]

COMMANDS:
    linerate     generator saturation test
                   --frame <B=64> --duration-ms <5> --ports <1>
    latency      legacy-switch latency under load (demo Part I)
                   --frame <B=512> --load <0.0..1.1 = 0.5> --duration-ms <20>
    capture      capture a line-rate aggregate through filters/thinning
                   --frame <B=512> --load <(0, 1] = 1.0> --snap <bytes> --dst-port <n>
                   --out <file.pcap> --duration-ms <10>
    replay       replay a pcap file and report the achieved schedule
                   <file.pcap> --mode <asrec|b2b|fixed-us:N|scale:F≥0>
    throughput   RFC 2544-style zero-loss throughput search
                   --frame <B=512> --resolution <0.01>
    oflops-add   OpenFlow flow-insertion latency (demo Part II)
                   --rules <≥1 = 50> --honest-barrier <false>
    oflops-mod   OpenFlow update consistency (demo Part II)
                   --rules <≥1 = 50>
    run          supervised latency sweep: journaled, watchdogged, resumable
                   --journal <path> --loads <0.0,0.5,0.9> --frame <B=512>
                   --probe-load <0.02> --duration-ms <20> --warmup-ms <5>
                   --seed <1> --stall-timeout-ms <30000> --out <report.txt>
                   --resume <path>           continue a crashed/aborted run
                   --kill-at-phase <n>       fault injection: die mid-phase
                   --wedge-at-phase <n>      fault injection: livelock a phase
    chaos        deterministic chaos campaign with a global invariant audit
                   --plan <file.toml>        episode schedule (default: builtin corpus)
                   --seeds <4> --out <report.txt>
                   --crash-points <true>     false skips crash sweeps / journal torture
    serve        multi-tenant run service behind TCP (prints `listening on <addr>`)
                   --addr <127.0.0.1:0> --workers <2> --queue-cap <64>
                   --tenant-queue-cap <32> --spool <dir> --seed <1>
                   --retry-base-ms <2> --max-attempts <4>
    submit       submit one session to a serving --addr and await its outcome
                   --addr <host:port> --tenant <cli> --weight <1> --priority <0>
                   --frame <B=512> --probe-load <0.02> --loads <0.0,0.5>
                   --duration-ms <5> --warmup-ms <1> --seed <1>
                   --sim-budget-us <n> --deadline-ms <n> --capture-cap <n>
                   --kill-after-appends <n>  fault injection: crash the worker
                   --wait <true> --out <report.txt> --shutdown <false>
    help         print this text

EXIT CODES:
    0 success   1 other failure   2 usage error
    3 run aborted (watchdog stall / contained panic)   4 partial result
";

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_string());
    let rest: Vec<String> = argv.collect();
    if let Err(e) = dispatch(&command, rest) {
        eprintln!("error: {e}");
        if e.is_usage() {
            eprintln!("\n{USAGE}");
        }
        std::process::exit(e.exit_code());
    }
}

fn dispatch(command: &str, rest: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(rest)?;
    match command {
        "linerate" => commands::linerate(&args),
        "latency" => commands::latency(&args),
        "capture" => commands::capture(&args),
        "replay" => commands::replay(&args),
        "throughput" => commands::throughput(&args),
        "oflops-add" => commands::oflops_add(&args),
        "oflops-mod" => commands::oflops_mod(&args),
        "run" => commands::run(&args),
        "chaos" => commands::chaos(&args),
        "serve" => commands::serve(&args),
        "submit" => commands::submit(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(UsageError(format!("unknown command: {other}")).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_failure_class() {
        use osnt_error::OsntError;
        let usage = CliError::from(UsageError("bad flag".into()));
        let aborted = CliError::from(OsntError::RunAborted {
            phase: "load-0.9".into(),
            last_progress: 42,
        });
        let panicked = CliError::from(OsntError::Panicked {
            context: "measurement module",
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
}
