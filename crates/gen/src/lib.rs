#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-gen — the OSNT traffic-generation subsystem
//!
//! Reproduces the generator half of the OSNT platform:
//!
//! * **Line-rate generation regardless of packet size** — a
//!   [`GeneratorPort`] drives its simulated 10 GbE MAC back to back; the
//!   achieved rate is limited only by the wire arithmetic (E1).
//! * **Finely-controlled rates** — [`Schedule`] paces departures
//!   back-to-back, at a fixed packet rate, at a fraction of line rate, at
//!   a fixed inter-departure time, or with Poisson gaps.
//! * **PCAP replay with tunable per-packet inter-departure time** —
//!   [`replay::PcapReplay`] + [`replay::IdtMode`] (E3).
//! * **TX timestamp embedding** — [`txstamp::TimestampEmbedder`] writes
//!   the 64-bit hardware timestamp into the packet at a preconfigured
//!   offset *just before the MAC*, i.e. with the value the card's clock
//!   shows at the instant the first bit hits the wire.
//! * **Workload synthesis** — [`workload`] provides fixed templates, IMIX
//!   mixes, flow pools and size sweeps used by the experiments.

pub mod pipeline;
pub mod replay;
pub mod schedule;
pub mod txstamp;
pub mod workload;

pub use pipeline::{GenConfig, GenStats, GeneratorPort};
pub use replay::{IdtMode, PcapReplay};
pub use schedule::Schedule;
pub use txstamp::{StampConfig, TimestampEmbedder};
pub use workload::{FixedTemplate, FlowPool, Imix, SizeSweep, Workload};
