#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-supervisor — watchdogs, journaling, and resumable runs
//!
//! Long measurement campaigns (a 10-load latency sweep at 100 Gbps
//! takes real wall time) fail in two characteristic ways: they *wedge*
//! (a livelocked component, a stalled barrier, a dead control channel)
//! and they *die* (OOM-killer, CI preemption, power). This crate makes
//! both survivable:
//!
//! - [`watchdog`] — a monitor thread over the simulated-time heartbeats
//!   ([`osnt_time::ProgressProbe`]) each phase exports; a flat heartbeat
//!   past the stall timeout triggers a cooperative abort into a
//!   `RunAborted` partial report instead of a hung CI job.
//! - [`journal`] — an append-only, CRC32-framed write-ahead journal of
//!   the run lifecycle (header, phase transitions, sample batches,
//!   fault snapshots, abort/clean-close), fsync-batched, tolerant of a
//!   torn tail.
//! - [`supervisor`] — the lifecycle driver tying the two together, with
//!   resume: replay the journal, skip completed phases, re-run the
//!   interrupted one. Deterministic seeding makes resumed reports
//!   byte-identical to uninterrupted ones.

pub mod journal;
pub mod supervisor;
pub mod watchdog;
pub mod wire;

pub use journal::{recover, recover_bytes, AbortRecord, JournalWriter, RecoveredRun, RunHeader};
pub use supervisor::{AbortInfo, PhaseCtx, PhasePayload, RunOutcome, Supervisor, SupervisorConfig};
pub use watchdog::{ProbeGroup, StallReport, Watchdog, WatchdogConfig};
pub use wire::{crc32, Dec, Enc};
