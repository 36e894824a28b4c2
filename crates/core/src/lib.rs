#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-core — the OSNT platform API
//!
//! "The OSNT platform provides a simple and programmer-friendly API to
//! control the traffic generation and monitoring functionality of the
//! OSNT design, enabling the realisation of high precision and throughput
//! measurement tests in software."
//!
//! This crate is that API for OSNT-rs:
//!
//! * [`device`] — an OSNT card: four combined generator+monitor ports
//!   sharing one GPS-disciplined hardware clock, installed into a
//!   simulation in one call.
//! * [`latency`] — measurement primitives: extract embedded TX stamps
//!   from captures, produce latency/jitter/loss summaries with
//!   percentiles.
//! * [`experiment`] — the canonical demo topology (Fig. 2 of the paper):
//!   OSNT port 0 → device under test → OSNT port 1, with priming,
//!   warm-up and a one-call latency report.
//! * [`baseline`] — the software-tester comparator: the same measurement
//!   taken with host timestamps perturbed by OS noise, quantifying what
//!   MAC-level timestamping buys (experiment E8).
//! * [`sweep`] — the supervised campaign driver: a multi-load latency
//!   sweep run under the `osnt-supervisor` lifecycle (per-phase
//!   stall limits, crash-consistent journal, resume with byte-identical
//!   reports).

pub mod baseline;
pub mod device;
pub mod experiment;
pub mod host;
pub mod latency;
pub mod seqtrack;
pub mod streaming;
pub mod sweep;
pub mod throughput;

pub use baseline::SoftwareStamper;
pub use device::{CardPort, DeviceConfig, OsntDevice, PortHandle, PortRole};
pub use experiment::{LatencyExperiment, LatencyReport};
pub use host::{HostCounters, SimpleHost};
pub use latency::{latencies_from_capture, latency_of, Summary};
pub use seqtrack::{analyze_sequence, SequenceReport};
pub use streaming::StreamingSummary;
pub use sweep::{render_report, SupervisedSweep, SweepConfig, WedgeDut};
pub use throughput::{ThroughputResult, ThroughputSearch};
