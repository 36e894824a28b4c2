//! OSNT-rs umbrella crate: re-exports every subsystem of the workspace.
//!
//! See the `osnt_core` crate for the main platform API.
#![forbid(unsafe_code)]

pub use oflops_turbo as oflops;
pub use osnt_chaos as chaos;
pub use osnt_core as core;
pub use osnt_gen as gen;
pub use osnt_mon as mon;
pub use osnt_netsim as netsim;
pub use osnt_openflow as openflow;
pub use osnt_packet as packet;
pub use osnt_switch as switch;
pub use osnt_time as time;
