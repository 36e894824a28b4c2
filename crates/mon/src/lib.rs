#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-mon — the OSNT traffic-monitoring subsystem
//!
//! Reproduces the capture half of the OSNT platform:
//!
//! * **High-precision inbound timestamping** — frames are stamped with
//!   the card clock the instant they are received by the MAC
//!   ([`rxstamp`]), *before* any queueing, "thus minimising queueing
//!   noise" (the paper's core argument; quantified by experiment E8).
//! * **Wildcard-enabled packet filters** — a hardware-style rule table
//!   ([`filter::FilterTable`]) decides which packets continue toward the
//!   host.
//! * **Packet thinning and hashing in hardware** — [`thin::Thinner`]
//!   cuts frames to a snap length and can record a CRC-32 of the original
//!   bytes so the host can still de-duplicate and correlate.
//! * **A loss-limited host path** — [`host::HostPath`] models the
//!   PCIe/DMA bottleneck: the hardware path never drops, the host path
//!   drops when oversubscribed, which is exactly why filtering and
//!   thinning exist (experiment E4).
//! * **Capture sinks** — in-memory buffers and pcap writers
//!   ([`capture`]).

pub mod capture;
pub mod filter;
pub mod host;
pub mod pipeline;
pub mod rxstamp;
pub mod stats;
pub mod thin;

pub use capture::{CaptureBuffer, CapturedPacket};
pub use filter::{FilterAction, FilterProgram, FilterTable};
pub use host::{HostPath, HostPathConfig};
pub use pipeline::{MonConfig, MonitorPort};
pub use stats::MonStats;
pub use thin::{ThinConfig, Thinner};
