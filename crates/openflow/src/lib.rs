#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-openflow — OpenFlow 1.0 wire protocol
//!
//! The subset of OpenFlow 1.0 (wire version `0x01`) that OFLOPS-turbo
//! exercises against the switch model: session setup (`HELLO`,
//! `FEATURES_REQUEST/REPLY`, `ECHO`), table programming (`FLOW_MOD`),
//! synchronisation (`BARRIER_REQUEST/REPLY`), the reactive path
//! (`PACKET_IN`, `PACKET_OUT`) and counters (`STATS_REQUEST/REPLY` with
//! flow and port statistics).
//!
//! Everything serialises to and parses from the real OpenFlow 1.0 byte
//! layout, so captures of the control channel look like genuine OpenFlow
//! and the framing logic (length-prefixed messages over a stream) is
//! faithfully exercised.

pub mod actions;
pub mod codec;
pub mod header;
pub mod match_field;
pub mod messages;

pub use actions::{Action, ActionList};
pub use codec::{MessageCodec, WireError};
pub use header::{Header, MessageType, OFP_HEADER_LEN, OFP_MAX_MESSAGE_LEN, OFP_VERSION};
pub use match_field::OfMatch;
pub use messages::{
    EchoData, FeaturesReply, FlowMod, FlowModCommand, FlowRemoved, FlowStatsEntry, Message,
    PacketIn, PacketInReason, PacketOut, PortStats, StatsBody,
};
