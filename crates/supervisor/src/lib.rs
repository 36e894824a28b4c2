#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-supervisor — stall limits, journaling, and resumable runs
//!
//! Long measurement campaigns (a 10-load latency sweep at 100 Gbps
//! takes real wall time) fail in two characteristic ways: they *wedge*
//! (a livelocked component, a stalled barrier, a dead control channel)
//! and they *die* (OOM-killer, CI preemption, power). This crate makes
//! both survivable:
//!
//! - stall limits — each phase's [`osnt_time::ProgressProbe`] carries
//!   the stall timeout, and the phase's own dispatch loop checks it at
//!   every heartbeat; a flat simulated-time mark past the timeout
//!   aborts the phase into a `RunAborted` partial report instead of a
//!   hung CI job. No thread watches the run.
//! - [`journal`] — an append-only, CRC32-framed write-ahead journal of
//!   the run lifecycle (header, phase transitions, sample batches,
//!   fault snapshots, abort/clean-close), fsync-batched, tolerant of a
//!   torn tail.
//! - [`supervisor`] — the lifecycle driver tying them together, with
//!   resume: replay the journal, skip completed phases, re-run the
//!   interrupted one. Deterministic seeding makes resumed reports
//!   byte-identical to uninterrupted ones.

pub mod journal;
pub mod supervisor;
pub mod wire;

pub use journal::{recover, recover_bytes, AbortRecord, JournalWriter, RecoveredRun, RunHeader};
pub use supervisor::{AbortInfo, PhaseCtx, PhasePayload, RunOutcome, Supervisor, SupervisorConfig};
pub use wire::{crc32, Dec, Enc};
