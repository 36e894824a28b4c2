#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-error — the workspace error taxonomy
//!
//! A network tester exists to measure networks that misbehave; its own
//! harness must therefore *degrade*, not abort, when a config is bad or
//! a fault fires mid-run. This crate is the shared vocabulary for that:
//! every crate in the workspace reports construction and run failures as
//! an [`OsntError`] instead of panicking, and experiments thread the
//! error (or a partial result) back to the caller.
//!
//! The enum is hand-rolled in the `thiserror` idiom (a variant per
//! failure class, `Display` giving the human sentence, `std::error::Error`
//! implemented) — the build environment is offline, so no derive macros.

use core::fmt;

/// Every way the OSNT-rs measurement stack can fail without the failure
/// being a bug. Variants are coarse on purpose: callers match on the
/// *class* of failure (bad config vs. resource exhausted vs. channel
/// fault), and the payload carries the human detail.
#[derive(Debug, Clone, PartialEq)]
pub enum OsntError {
    /// A configuration value is invalid or inconsistent (caught at
    /// construction time, before any event runs).
    Config {
        /// Which subsystem rejected the configuration.
        context: &'static str,
        /// What was wrong with it.
        reason: String,
    },
    /// A bounded resource (flow table, buffer, port vector) cannot hold
    /// what was requested.
    Capacity {
        /// The resource that is full.
        what: &'static str,
        /// Entries/bytes requested.
        needed: usize,
        /// Entries/bytes available.
        available: usize,
    },
    /// A component port that must be wired to a link is not.
    NotConnected {
        /// The component's name.
        component: String,
        /// The unwired port index.
        port: usize,
    },
    /// Bytes on a channel did not parse (truncated read, corrupt frame,
    /// malformed message).
    Decode {
        /// What failed to decode.
        what: &'static str,
        /// Parser detail.
        reason: String,
    },
    /// The OpenFlow control channel failed (disconnect, stall past the
    /// timeout, retries exhausted).
    ControlChannel {
        /// What happened on the channel.
        reason: String,
    },
    /// A run produced no usable samples (everything was lost to faults),
    /// so even a partial result would be empty.
    NoSamples {
        /// The experiment or pipeline that came up empty.
        context: &'static str,
    },
    /// A supervised run was aborted before completing — the watchdog
    /// detected a stalled heartbeat, or the operator cancelled it. The
    /// phases finished before the abort are journaled and survive as a
    /// partial report.
    RunAborted {
        /// The phase that was executing when the run died.
        phase: String,
        /// Last recorded progress: the simulated-time high-water mark
        /// (picoseconds) the run had reached.
        last_progress: u64,
    },
    /// The run journal failed at the I/O layer (create, append, fsync,
    /// truncate). Distinct from [`OsntError::Decode`], which covers
    /// corrupt *contents*; this is the disk itself failing.
    Journal {
        /// The journal operation that failed.
        op: &'static str,
        /// The underlying I/O detail.
        reason: String,
    },
    /// A contained panic: a measurement module unwound, was caught at
    /// the containment boundary, and converted into this error instead
    /// of poisoning the process.
    Panicked {
        /// The containment boundary that caught it.
        context: &'static str,
        /// The panic payload, stringified.
        reason: String,
    },
    /// A deterministically injected crash (chaos testing): the journal
    /// refused an append to simulate a SIGKILL landing at exactly that
    /// point. Nothing after the refusal reaches the disk — on-disk state
    /// is byte-identical to a real kill between two appends — so resume
    /// must reconstruct the run from whatever the journal holds.
    CrashInjected {
        /// 1-based index of the journal append the simulated kill hit.
        append: u64,
    },
    /// A chaos-campaign invariant audit failed: a conservation ledger,
    /// an ordering/causality check, or an integrity check over a report,
    /// capture, or journal did not hold. The system under test kept
    /// running — the *answer* is what is untrustworthy.
    InvariantViolated {
        /// The invariant that failed (stable, grep-able name).
        invariant: &'static str,
        /// What the audit observed.
        detail: String,
    },
}

impl OsntError {
    /// Shorthand for a [`OsntError::Config`].
    pub fn config(context: &'static str, reason: impl Into<String>) -> Self {
        OsntError::Config {
            context,
            reason: reason.into(),
        }
    }

    /// Shorthand for a [`OsntError::Decode`].
    pub fn decode(what: &'static str, reason: impl Into<String>) -> Self {
        OsntError::Decode {
            what,
            reason: reason.into(),
        }
    }

    /// Shorthand for a [`OsntError::ControlChannel`].
    pub fn control(reason: impl Into<String>) -> Self {
        OsntError::ControlChannel {
            reason: reason.into(),
        }
    }

    /// Shorthand for a [`OsntError::Journal`].
    pub fn journal(op: &'static str, reason: impl Into<String>) -> Self {
        OsntError::Journal {
            op,
            reason: reason.into(),
        }
    }

    /// Shorthand for a [`OsntError::Panicked`], stringifying the payload
    /// a `catch_unwind` returned (the common `&str` / `String` cases;
    /// anything else becomes an opaque marker).
    pub fn from_panic(context: &'static str, payload: &(dyn std::any::Any + Send)) -> Self {
        let reason = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        OsntError::Panicked { context, reason }
    }
}

impl fmt::Display for OsntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsntError::Config { context, reason } => {
                write!(f, "invalid {context} configuration: {reason}")
            }
            OsntError::Capacity {
                what,
                needed,
                available,
            } => {
                write!(f, "{what} full: needed {needed}, available {available}")
            }
            OsntError::NotConnected { component, port } => {
                write!(
                    f,
                    "component {component:?} port {port} is not wired to anything"
                )
            }
            OsntError::Decode { what, reason } => write!(f, "cannot decode {what}: {reason}"),
            OsntError::ControlChannel { reason } => {
                write!(f, "control channel failure: {reason}")
            }
            OsntError::NoSamples { context } => {
                write!(f, "{context} produced no usable samples")
            }
            OsntError::RunAborted {
                phase,
                last_progress,
            } => {
                write!(
                    f,
                    "run aborted during phase {phase:?} (last progress: simulated {last_progress} ps)"
                )
            }
            OsntError::Journal { op, reason } => {
                write!(f, "run journal {op} failed: {reason}")
            }
            OsntError::Panicked { context, reason } => {
                write!(f, "{context} panicked: {reason}")
            }
            OsntError::CrashInjected { append } => {
                write!(f, "injected crash: journal append #{append} was killed")
            }
            OsntError::InvariantViolated { invariant, detail } => {
                write!(f, "invariant {invariant} violated: {detail}")
            }
        }
    }
}

impl std::error::Error for OsntError {}

/// Workspace result alias.
pub type Result<T> = std::result::Result<T, OsntError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = OsntError::config("generator", "batch must be >= 1");
        assert_eq!(
            e.to_string(),
            "invalid generator configuration: batch must be >= 1"
        );
        let e = OsntError::Capacity {
            what: "flow table",
            needed: 11,
            available: 10,
        };
        assert_eq!(e.to_string(), "flow table full: needed 11, available 10");
        let e = OsntError::NotConnected {
            component: "gen0".into(),
            port: 0,
        };
        assert!(e.to_string().contains("gen0"));
    }

    #[test]
    fn is_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&OsntError::control("disconnect"));
    }

    #[test]
    fn class_matching_works() {
        let e = OsntError::decode("OpenFlow message", "truncated at byte 3");
        assert!(matches!(e, OsntError::Decode { .. }));
    }
}
