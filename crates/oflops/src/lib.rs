#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # oflops-turbo — OpenFlow switch evaluation on the OSNT platform
//!
//! "OFLOPS-turbo is an holistic OpenFlow switch evaluation framework
//! which takes advantage of the OSNT high-precision measurement
//! capabilities. Using OFLOPS-turbo users can develop measurement modules
//! which can access information from multiple measurement channels (data
//! and control plane and SNMP) and measure the impact of the switch
//! OpenFlow implementation in data plane performance with high
//! precision."
//!
//! The reproduction keeps the same architecture:
//!
//! * [`controller`] — the OpenFlow controller endpoint: a simulated
//!   component speaking real OpenFlow 1.0 over a control link, driving a
//!   user-supplied [`MeasurementModule`] and logging every control-plane
//!   event with timestamps.
//! * [`harness`] — the standard testbed (paper Fig. 2): an OSNT card
//!   provides a stamped probe stream into the switch and captures both
//!   candidate output ports; the controller hangs off the switch's
//!   control channel.
//! * [`modules`] — the measurement modules used by the demo: flow
//!   insertion latency (control vs data plane, E6), flow modification
//!   latency and forwarding consistency during large updates (E7), and
//!   PACKET_IN (punt path) latency.

pub mod controller;
pub mod faults;
pub mod harness;
pub mod modules;

pub use controller::{
    ControlDir, ControlError, ControlErrorKind, ControlLog, ControlLogEntry, MeasurementModule,
    ModuleCtx, OflopsController, RetryPolicy,
};
pub use faults::{ControlFaultConfig, ControlFaultStats, FaultyControlChannel};
pub use harness::{Testbed, TestbedSpec};
