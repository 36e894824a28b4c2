#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-netsim — a picosecond-resolution discrete-event network simulator
//!
//! This crate is the **hardware substitute** of OSNT-rs (see DESIGN.md §2):
//! the NetFPGA-10G board, its 10 GbE MACs, the cables and the devices under
//! test all become components of a deterministic discrete-event simulation.
//!
//! Why a simulator? The paper's claims are *timing* claims — line rate at
//! every packet size, 6.25 ns timestamp resolution, sub-µs latency
//! measurement. A software port pushing real packets through an OS cannot
//! honour any of them; a DES with integer-picosecond virtual time honours
//! all of them *exactly*, because serialisation and queueing delays are
//! computed from the same arithmetic the wire imposes:
//!
//! * one byte at 10 Gb/s = 800 ps,
//! * a frame occupies `(frame + preamble + IFG) × 8` bit times,
//! * a MAC transmits frames strictly back to back, never faster.
//!
//! ## Architecture
//!
//! The design is event-driven in the reactor style: a totally ordered
//! event queue — ascending `(time, source component, per-source
//! sequence)`, fully deterministic — dispatches to [`Component`]s,
//! which react by scheduling timers and transmitting frames through the
//! [`Kernel`]. Components are wired port-to-port with [`LinkSpec`]s at
//! build time ([`SimBuilder`]), then the simulation is driven on one
//! thread with [`Sim::run_until`].
//!
//! ```
//! use osnt_netsim::{Component, Kernel, ComponentId, LinkSpec, SimBuilder};
//! use osnt_packet::Packet;
//! use osnt_time::{SimTime, SimDuration};
//!
//! /// Echoes every received frame back out of the port it arrived on.
//! struct Reflector;
//! impl Component for Reflector {
//!     fn on_packet(&mut self, k: &mut Kernel, me: ComponentId, port: usize, pkt: Packet) {
//!         let _ = k.transmit(me, port, pkt);
//!     }
//! }
//!
//! /// Sends one frame at t=0 and records when the echo returns.
//! struct Probe { rtt: Option<SimDuration> }
//! impl Component for Probe {
//!     fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
//!         let _ = k.transmit(me, 0, Packet::zeroed(64));
//!     }
//!     fn on_packet(&mut self, k: &mut Kernel, _me: ComponentId, _port: usize, _pkt: Packet) {
//!         self.rtt = Some(k.now().duration_since(SimTime::ZERO));
//!     }
//! }
//!
//! let mut b = SimBuilder::new();
//! let probe = b.add_component("probe", Box::new(Probe { rtt: None }), 1);
//! let refl = b.add_component("reflector", Box::new(Reflector), 1);
//! b.connect(probe, 0, refl, 0, LinkSpec::ten_gig());
//! let mut sim = b.build();
//! sim.run_until(SimTime::from_ms(1));
//! ```

pub mod burst;
pub mod component;
pub mod engine;
pub mod event;
pub mod fault;
pub mod kernel;
mod lanes;
pub mod link;
pub mod stats;
pub mod wheel;

pub use burst::{PacketBurst, BURST_INLINE};
pub use component::{Component, ComponentId};
pub use engine::{Sim, SimBuilder};
pub use fault::{FaultConfig, FaultStats, FaultyLink, GilbertElliott, LossModel};
pub use kernel::{BatchTx, Kernel, TxResult};
pub use link::LinkSpec;
pub use stats::{PortCounters, QueueCounts, ShardStats};
pub use wheel::TimerWheel;
