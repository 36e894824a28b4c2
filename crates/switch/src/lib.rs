#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-switch — devices under test
//!
//! The demo evaluates OSNT against real switches; this crate provides
//! their simulated stand-ins:
//!
//! * [`LegacySwitch`] — a store-and-forward L2 learning switch with a
//!   configurable lookup latency and bounded output queues. Its
//!   latency-vs-load behaviour (flat, then queueing, then loss) is what
//!   demo Part I measures (experiment E5).
//! * [`OpenFlowSwitch`] — an OpenFlow 1.0 switch with a genuine wire
//!   protocol control channel, a priority/wildcard flow table, and a
//!   deliberately *realistic* control plane: flow_mods are processed
//!   serially by a slow management CPU and take additional time to reach
//!   the hardware table; by default the switch (like many production
//!   switches OFLOPS measured) answers barriers from the CPU **before**
//!   the hardware is updated. OFLOPS-turbo exists to expose exactly this
//!   gap (experiments E6/E7).

mod cam;
pub mod compiled;
pub mod control;
pub mod fabric;
pub mod flowtable;
pub mod legacy;
pub mod openflow_switch;
pub mod tuple_space;

pub use compiled::CompiledOfMatch;
pub use control::{decap_control, encap_control, CONTROL_ETHERTYPE};
pub use fabric::ForwardingPipeline;
pub use flowtable::{FlowEntry, FlowTable, TableFull};
pub use legacy::{ForwardingMode, LegacyConfig, LegacySwitch};
pub use openflow_switch::{OfSwitchConfig, OpenFlowSwitch};
pub use tuple_space::TupleSpace;
