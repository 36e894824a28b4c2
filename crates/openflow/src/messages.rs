//! OpenFlow 1.0 message bodies and their wire forms.

use crate::actions::{Action, ActionList};
use crate::codec::WireError;
use crate::header::{Header, MessageType, OFP_HEADER_LEN, OFP_MAX_MESSAGE_LEN, OFP_VERSION};
use crate::match_field::{OfMatch, OFP_MATCH_LEN};
use osnt_packet::MacAddr;

/// Payload of an echo request/reply (opaque, echoed back verbatim —
/// OFLOPS uses it to carry timestamps for control-channel RTT probes).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EchoData(pub Vec<u8>);

/// One physical port in a FEATURES_REPLY (`ofp_phy_port`, 48 bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhyPort {
    /// Port number (1-based in OpenFlow 1.0).
    pub port_no: u16,
    /// MAC address of the port.
    pub hw_addr: MacAddr,
    /// Interface name (truncated/padded to 16 bytes on the wire).
    pub name: String,
}

impl PhyPort {
    const WIRE_LEN: usize = 48;

    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.port_no.to_be_bytes());
        out.extend_from_slice(&self.hw_addr.octets());
        let mut name = [0u8; 16];
        let bytes = self.name.as_bytes();
        let n = bytes.len().min(15);
        name[..n].copy_from_slice(&bytes[..n]);
        out.extend_from_slice(&name);
        // config, state, curr, advertised, supported, peer — all zero in
        // the model.
        out.extend_from_slice(&[0u8; 24]);
    }

    fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < Self::WIRE_LEN {
            return Err(WireError::Truncated);
        }
        let mut mac = [0u8; 6];
        mac.copy_from_slice(&bytes[2..8]);
        let name_end = bytes[8..24].iter().position(|&b| b == 0).unwrap_or(16);
        Ok(PhyPort {
            port_no: u16::from_be_bytes([bytes[0], bytes[1]]),
            hw_addr: MacAddr(mac),
            name: String::from_utf8_lossy(&bytes[8..8 + name_end]).into_owned(),
        })
    }
}

/// FEATURES_REPLY body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeaturesReply {
    /// Datapath id (switch identity).
    pub datapath_id: u64,
    /// Packet buffers available for PACKET_IN buffering.
    pub n_buffers: u32,
    /// Number of flow tables.
    pub n_tables: u8,
    /// Capability bitmap.
    pub capabilities: u32,
    /// Supported-action bitmap.
    pub actions: u32,
    /// Physical ports.
    pub ports: Vec<PhyPort>,
}

/// Why a PACKET_IN was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketInReason {
    /// No matching flow entry.
    NoMatch,
    /// An explicit output-to-controller action.
    Action,
}

/// PACKET_IN body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketIn {
    /// Buffer id (0xffffffff = packet not buffered, full frame follows).
    pub buffer_id: u32,
    /// Original frame length.
    pub total_len: u16,
    /// Ingress port.
    pub in_port: u16,
    /// Reason.
    pub reason: PacketInReason,
    /// The (possibly truncated) frame bytes.
    pub data: Vec<u8>,
}

/// PACKET_OUT body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketOut {
    /// Buffer id (0xffffffff = the frame is in `data`).
    pub buffer_id: u32,
    /// Port the frame "arrived" on (0xfff8 = OFPP_NONE/controller).
    pub in_port: u16,
    /// Actions to apply.
    pub actions: ActionList,
    /// The frame, when not buffered.
    pub data: Vec<u8>,
}

/// FLOW_MOD commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum FlowModCommand {
    /// Add a new entry.
    Add = 0,
    /// Modify matching entries.
    Modify = 1,
    /// Modify strictly (match + priority must be identical).
    ModifyStrict = 2,
    /// Delete matching entries.
    Delete = 3,
    /// Delete strictly.
    DeleteStrict = 4,
}

impl FlowModCommand {
    fn from_u16(v: u16) -> Result<Self, WireError> {
        Ok(match v {
            0 => FlowModCommand::Add,
            1 => FlowModCommand::Modify,
            2 => FlowModCommand::ModifyStrict,
            3 => FlowModCommand::Delete,
            4 => FlowModCommand::DeleteStrict,
            other => return Err(WireError::UnknownCommand(other)),
        })
    }
}

/// FLOW_MOD body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowMod {
    /// Match fields.
    pub of_match: OfMatch,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// What to do.
    pub command: FlowModCommand,
    /// Idle timeout, seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout, seconds (0 = none).
    pub hard_timeout: u16,
    /// Priority (higher wins among overlapping wildcard entries).
    pub priority: u16,
    /// Buffered packet to apply to (0xffffffff = none).
    pub buffer_id: u32,
    /// For DELETE: restrict to entries with this out port.
    pub out_port: u16,
    /// Flag bits (OFPFF_SEND_FLOW_REM = 1).
    pub flags: u16,
    /// Actions of the entry.
    pub actions: ActionList,
}

impl FlowMod {
    /// An ADD with sensible defaults.
    pub fn add(of_match: OfMatch, priority: u16, actions: impl Into<ActionList>) -> Self {
        FlowMod {
            of_match,
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority,
            buffer_id: 0xffff_ffff,
            out_port: 0xffff,
            flags: 0,
            actions: actions.into(),
        }
    }

    /// A strict DELETE of a previously added entry.
    pub fn delete_strict(of_match: OfMatch, priority: u16) -> Self {
        FlowMod {
            command: FlowModCommand::DeleteStrict,
            ..FlowMod::add(of_match, priority, ActionList::new())
        }
    }
}

/// FLOW_REMOVED body (sent when an entry expires or is deleted with
/// OFPFF_SEND_FLOW_REM).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRemoved {
    /// The entry's match.
    pub of_match: OfMatch,
    /// The entry's cookie.
    pub cookie: u64,
    /// The entry's priority.
    pub priority: u16,
    /// Removal reason (0 idle, 1 hard, 2 delete).
    pub reason: u8,
    /// Entry lifetime, seconds part.
    pub duration_sec: u32,
    /// Entry lifetime, nanoseconds part.
    pub duration_nsec: u32,
    /// Packets the entry matched.
    pub packet_count: u64,
    /// Bytes the entry matched.
    pub byte_count: u64,
}

/// Per-flow statistics entry in a STATS_REPLY.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStatsEntry {
    /// Table containing the entry.
    pub table_id: u8,
    /// The entry's match.
    pub of_match: OfMatch,
    /// Entry age, seconds part.
    pub duration_sec: u32,
    /// Entry age, nanoseconds part.
    pub duration_nsec: u32,
    /// Priority.
    pub priority: u16,
    /// Cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Actions.
    pub actions: ActionList,
}

impl FlowStatsEntry {
    /// Bytes the entry takes in a reply.
    fn wire_len(&self) -> usize {
        FLOW_STATS_FIXED_LEN + actions_len(&self.actions)
    }
}

/// Per-port statistics entry in a STATS_REPLY (`ofp_port_stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStats {
    /// Port number.
    pub port_no: u16,
    /// Frames received.
    pub rx_packets: u64,
    /// Frames sent.
    pub tx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Frames dropped on receive.
    pub rx_dropped: u64,
    /// Frames dropped on transmit.
    pub tx_dropped: u64,
}

/// Statistics request/reply bodies (type-tagged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsBody {
    /// OFPST_FLOW request: which flows to report.
    FlowRequest {
        /// Filter.
        of_match: OfMatch,
        /// Table (0xff = all).
        table_id: u8,
    },
    /// OFPST_FLOW reply, or one part of it.
    FlowReply {
        /// The entries of this part.
        entries: Vec<FlowStatsEntry>,
        /// `OFPSF_REPLY_MORE`: more parts of the reply follow.
        more: bool,
    },
    /// OFPST_PORT request (0xffff = all ports).
    PortRequest {
        /// Port filter.
        port_no: u16,
    },
    /// OFPST_PORT reply.
    PortReply(Vec<PortStats>),
}

/// A complete OpenFlow message (type + body, without the xid which lives
/// in the envelope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// OFPT_HELLO.
    Hello,
    /// OFPT_ERROR.
    Error {
        /// Error type (e.g. 3 = flow-mod failed).
        err_type: u16,
        /// Error code within the type.
        code: u16,
        /// At least 64 bytes of the offending message.
        data: Vec<u8>,
    },
    /// OFPT_ECHO_REQUEST.
    EchoRequest(EchoData),
    /// OFPT_ECHO_REPLY.
    EchoReply(EchoData),
    /// OFPT_FEATURES_REQUEST.
    FeaturesRequest,
    /// OFPT_FEATURES_REPLY.
    FeaturesReply(FeaturesReply),
    /// OFPT_PACKET_IN.
    PacketIn(PacketIn),
    /// OFPT_FLOW_REMOVED.
    FlowRemoved(FlowRemoved),
    /// OFPT_PACKET_OUT.
    PacketOut(PacketOut),
    /// OFPT_FLOW_MOD.
    FlowMod(FlowMod),
    /// OFPT_STATS_REQUEST.
    StatsRequest(StatsBody),
    /// OFPT_STATS_REPLY.
    StatsReply(StatsBody),
    /// OFPT_BARRIER_REQUEST.
    BarrierRequest,
    /// OFPT_BARRIER_REPLY.
    BarrierReply,
}

impl Message {
    /// The message's wire type.
    pub fn msg_type(&self) -> MessageType {
        match self {
            Message::Hello => MessageType::Hello,
            Message::Error { .. } => MessageType::Error,
            Message::EchoRequest(_) => MessageType::EchoRequest,
            Message::EchoReply(_) => MessageType::EchoReply,
            Message::FeaturesRequest => MessageType::FeaturesRequest,
            Message::FeaturesReply(_) => MessageType::FeaturesReply,
            Message::PacketIn(_) => MessageType::PacketIn,
            Message::FlowRemoved(_) => MessageType::FlowRemoved,
            Message::PacketOut(_) => MessageType::PacketOut,
            Message::FlowMod(_) => MessageType::FlowMod,
            Message::StatsRequest(_) => MessageType::StatsRequest,
            Message::StatsReply(_) => MessageType::StatsReply,
            Message::BarrierRequest => MessageType::BarrierRequest,
            Message::BarrierReply => MessageType::BarrierReply,
        }
    }

    /// Serialise with header into a buffer of its own. One reservation
    /// of [`TYPICAL_WIRE_LEN`] covers every fixed-size message and a
    /// flow_mod with up to seven actions without a pass over the message
    /// to size it first; a caller that wants the exact size reserves
    /// [`Message::wire_len`] and calls [`Message::encode_into`].
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(TYPICAL_WIRE_LEN);
        self.encode_into(xid, &mut out);
        out
    }

    /// Append the wire form (header, then body) to `out`, so a caller
    /// that frames the message (`encap_control`) pays for one buffer and
    /// no copy. Every length field is known before its bytes are written,
    /// and each fixed-size part goes into `out` in one copy.
    ///
    /// # Panics
    ///
    /// On a message longer than [`OFP_MAX_MESSAGE_LEN`], which its 16-bit
    /// length field cannot state; nothing is written then. A long
    /// flow-stats reply is sent in parts
    /// ([`StatsBody::flow_reply_parts`]).
    pub fn encode_into(&self, xid: u32, out: &mut Vec<u8>) {
        let len = self.wire_len();
        assert!(
            len <= OFP_MAX_MESSAGE_LEN,
            "{:?} of {len} bytes exceeds the OpenFlow length field's {OFP_MAX_MESSAGE_LEN}",
            self.msg_type()
        );
        let start = out.len();
        Header {
            version: OFP_VERSION,
            msg_type: self.msg_type(),
            length: len as u16,
            xid,
        }
        .write_to(out);
        self.write_body(out);
        debug_assert_eq!(out.len() - start, len);
    }

    /// Bytes [`Message::encode_into`] appends: what a caller reserves.
    pub fn wire_len(&self) -> usize {
        OFP_HEADER_LEN
            + match self {
                Message::Hello
                | Message::FeaturesRequest
                | Message::BarrierRequest
                | Message::BarrierReply => 0,
                Message::Error { data, .. } => 4 + data.len(),
                Message::EchoRequest(d) | Message::EchoReply(d) => d.0.len(),
                Message::FeaturesReply(f) => 24 + f.ports.len() * PhyPort::WIRE_LEN,
                Message::PacketIn(p) => 10 + p.data.len(),
                Message::FlowRemoved(_) => OFP_MATCH_LEN + 40,
                Message::PacketOut(p) => 8 + actions_len(&p.actions) + p.data.len(),
                Message::FlowMod(f) => FLOW_MOD_FIXED_LEN + actions_len(&f.actions),
                Message::StatsRequest(b) | Message::StatsReply(b) => {
                    STATS_HEADER_LEN
                        + match b {
                            StatsBody::FlowRequest { .. } => OFP_MATCH_LEN + 4,
                            StatsBody::FlowReply { entries, .. } => {
                                entries.iter().map(FlowStatsEntry::wire_len).sum()
                            }
                            StatsBody::PortRequest { .. } => 8,
                            StatsBody::PortReply(entries) => entries.len() * PORT_STATS_LEN,
                        }
                }
            }
    }

    fn write_body(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello
            | Message::FeaturesRequest
            | Message::BarrierRequest
            | Message::BarrierReply => {}
            Message::Error {
                err_type,
                code,
                data,
            } => {
                out.extend_from_slice(&err_type.to_be_bytes());
                out.extend_from_slice(&code.to_be_bytes());
                out.extend_from_slice(data);
            }
            Message::EchoRequest(d) | Message::EchoReply(d) => {
                out.extend_from_slice(&d.0);
            }
            Message::FeaturesReply(f) => {
                out.extend_from_slice(&f.datapath_id.to_be_bytes());
                out.extend_from_slice(&f.n_buffers.to_be_bytes());
                out.push(f.n_tables);
                out.extend_from_slice(&[0u8; 3]);
                out.extend_from_slice(&f.capabilities.to_be_bytes());
                out.extend_from_slice(&f.actions.to_be_bytes());
                for p in &f.ports {
                    p.write_to(out);
                }
            }
            Message::PacketIn(p) => {
                out.extend_from_slice(&p.buffer_id.to_be_bytes());
                out.extend_from_slice(&p.total_len.to_be_bytes());
                out.extend_from_slice(&p.in_port.to_be_bytes());
                out.push(match p.reason {
                    PacketInReason::NoMatch => 0,
                    PacketInReason::Action => 1,
                });
                out.push(0);
                out.extend_from_slice(&p.data);
            }
            Message::FlowRemoved(f) => {
                f.of_match.write_to(out);
                out.extend_from_slice(&f.cookie.to_be_bytes());
                out.extend_from_slice(&f.priority.to_be_bytes());
                out.push(f.reason);
                out.push(0);
                out.extend_from_slice(&f.duration_sec.to_be_bytes());
                out.extend_from_slice(&f.duration_nsec.to_be_bytes());
                out.extend_from_slice(&0u16.to_be_bytes()); // idle_timeout
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&f.packet_count.to_be_bytes());
                out.extend_from_slice(&f.byte_count.to_be_bytes());
            }
            Message::PacketOut(p) => {
                out.extend_from_slice(&p.buffer_id.to_be_bytes());
                out.extend_from_slice(&p.in_port.to_be_bytes());
                out.extend_from_slice(&(actions_len(&p.actions) as u16).to_be_bytes());
                Action::write_list(&p.actions, out);
                out.extend_from_slice(&p.data);
            }
            Message::FlowMod(f) => {
                let mut b = [0u8; FLOW_MOD_FIXED_LEN];
                b[..OFP_MATCH_LEN].copy_from_slice(&f.of_match.to_bytes());
                let t = &mut b[OFP_MATCH_LEN..];
                t[0..8].copy_from_slice(&f.cookie.to_be_bytes());
                t[8..10].copy_from_slice(&(f.command as u16).to_be_bytes());
                t[10..12].copy_from_slice(&f.idle_timeout.to_be_bytes());
                t[12..14].copy_from_slice(&f.hard_timeout.to_be_bytes());
                t[14..16].copy_from_slice(&f.priority.to_be_bytes());
                t[16..20].copy_from_slice(&f.buffer_id.to_be_bytes());
                t[20..22].copy_from_slice(&f.out_port.to_be_bytes());
                t[22..24].copy_from_slice(&f.flags.to_be_bytes());
                out.extend_from_slice(&b);
                Action::write_list(&f.actions, out);
            }
            Message::StatsRequest(body) => write_stats(body, out, true),
            Message::StatsReply(body) => write_stats(body, out, false),
        }
    }

    /// Parse one complete message (header already validated); returns the
    /// message and xid.
    pub fn decode(bytes: &[u8]) -> Result<(Message, u32), WireError> {
        let header = Header::parse(bytes)?;
        if bytes.len() < header.length as usize {
            return Err(WireError::Truncated);
        }
        let body = &bytes[OFP_HEADER_LEN..header.length as usize];
        let msg = match header.msg_type {
            MessageType::Hello => Message::Hello,
            MessageType::Error => {
                if body.len() < 4 {
                    return Err(WireError::Truncated);
                }
                Message::Error {
                    err_type: u16::from_be_bytes([body[0], body[1]]),
                    code: u16::from_be_bytes([body[2], body[3]]),
                    data: body[4..].to_vec(),
                }
            }
            MessageType::EchoRequest => Message::EchoRequest(EchoData(body.to_vec())),
            MessageType::EchoReply => Message::EchoReply(EchoData(body.to_vec())),
            MessageType::FeaturesRequest => Message::FeaturesRequest,
            MessageType::FeaturesReply => {
                if body.len() < 24 {
                    return Err(WireError::Truncated);
                }
                let mut ports = Vec::new();
                let mut rest = &body[24..];
                while !rest.is_empty() {
                    ports.push(PhyPort::parse(rest)?);
                    rest = &rest[PhyPort::WIRE_LEN..];
                }
                Message::FeaturesReply(FeaturesReply {
                    datapath_id: u64::from_be_bytes(body[0..8].try_into().unwrap()),
                    n_buffers: u32::from_be_bytes(body[8..12].try_into().unwrap()),
                    n_tables: body[12],
                    capabilities: u32::from_be_bytes(body[16..20].try_into().unwrap()),
                    actions: u32::from_be_bytes(body[20..24].try_into().unwrap()),
                    ports,
                })
            }
            MessageType::PacketIn => {
                if body.len() < 10 {
                    return Err(WireError::Truncated);
                }
                Message::PacketIn(PacketIn {
                    buffer_id: u32::from_be_bytes(body[0..4].try_into().unwrap()),
                    total_len: u16::from_be_bytes([body[4], body[5]]),
                    in_port: u16::from_be_bytes([body[6], body[7]]),
                    reason: if body[8] == 0 {
                        PacketInReason::NoMatch
                    } else {
                        PacketInReason::Action
                    },
                    data: body[10..].to_vec(),
                })
            }
            MessageType::FlowRemoved => {
                if body.len() < OFP_MATCH_LEN + 40 {
                    return Err(WireError::Truncated);
                }
                let m = OfMatch::parse(body)?;
                let b = &body[OFP_MATCH_LEN..];
                Message::FlowRemoved(FlowRemoved {
                    of_match: m,
                    cookie: u64::from_be_bytes(b[0..8].try_into().unwrap()),
                    priority: u16::from_be_bytes([b[8], b[9]]),
                    reason: b[10],
                    duration_sec: u32::from_be_bytes(b[12..16].try_into().unwrap()),
                    duration_nsec: u32::from_be_bytes(b[16..20].try_into().unwrap()),
                    packet_count: u64::from_be_bytes(b[24..32].try_into().unwrap()),
                    byte_count: u64::from_be_bytes(b[32..40].try_into().unwrap()),
                })
            }
            MessageType::PacketOut => {
                if body.len() < 8 {
                    return Err(WireError::Truncated);
                }
                let actions_len = u16::from_be_bytes([body[6], body[7]]) as usize;
                if body.len() < 8 + actions_len {
                    return Err(WireError::Truncated);
                }
                Message::PacketOut(PacketOut {
                    buffer_id: u32::from_be_bytes(body[0..4].try_into().unwrap()),
                    in_port: u16::from_be_bytes([body[4], body[5]]),
                    actions: Action::parse_list(&body[8..8 + actions_len])?,
                    data: body[8 + actions_len..].to_vec(),
                })
            }
            MessageType::FlowMod => {
                if body.len() < FLOW_MOD_FIXED_LEN {
                    return Err(WireError::Truncated);
                }
                let m = OfMatch::parse(body)?;
                let b = &body[OFP_MATCH_LEN..];
                Message::FlowMod(FlowMod {
                    of_match: m,
                    cookie: u64::from_be_bytes(b[0..8].try_into().unwrap()),
                    command: FlowModCommand::from_u16(u16::from_be_bytes([b[8], b[9]]))?,
                    idle_timeout: u16::from_be_bytes([b[10], b[11]]),
                    hard_timeout: u16::from_be_bytes([b[12], b[13]]),
                    priority: u16::from_be_bytes([b[14], b[15]]),
                    buffer_id: u32::from_be_bytes(b[16..20].try_into().unwrap()),
                    out_port: u16::from_be_bytes([b[20], b[21]]),
                    flags: u16::from_be_bytes([b[22], b[23]]),
                    actions: Action::parse_list(&b[24..])?,
                })
            }
            MessageType::StatsRequest => Message::StatsRequest(parse_stats(body, true)?),
            MessageType::StatsReply => Message::StatsReply(parse_stats(body, false)?),
            MessageType::BarrierRequest => Message::BarrierRequest,
            MessageType::BarrierReply => Message::BarrierReply,
        };
        Ok((msg, header.xid))
    }
}

impl StatsBody {
    /// A flow-stats reply in the parts it is sent as: each part holds as
    /// many entries, in order, as fit one message, and every part but
    /// the last has `more` set. No entries make one empty part.
    pub fn flow_reply_parts(mut entries: Vec<FlowStatsEntry>) -> Vec<StatsBody> {
        let room = OFP_MAX_MESSAGE_LEN - OFP_HEADER_LEN - STATS_HEADER_LEN;
        let mut parts = Vec::new();
        loop {
            let mut used = 0;
            let fit = entries
                .iter()
                .take_while(|e| {
                    used += e.wire_len();
                    used <= room
                })
                .count();
            if fit == entries.len() {
                parts.push(StatsBody::FlowReply {
                    entries,
                    more: false,
                });
                return parts;
            }
            // An entry too long for any message goes alone, and
            // encoding refuses it.
            let rest = entries.split_off(fit.max(1));
            parts.push(StatsBody::FlowReply {
                entries,
                more: true,
            });
            entries = rest;
        }
    }
}

/// What [`Message::encode`] reserves.
const TYPICAL_WIRE_LEN: usize = 128;

/// `ofp_flow_mod` up to its action list, behind the header.
const FLOW_MOD_FIXED_LEN: usize = OFP_MATCH_LEN + 24;
/// `ofp_stats_request` / `ofp_stats_reply` up to the body: type, flags.
const STATS_HEADER_LEN: usize = 4;
const OFPST_FLOW: u16 = 1;
const OFPST_PORT: u16 = 4;
/// The reply flag saying more parts of it follow.
const OFPSF_REPLY_MORE: u16 = 0x0001;
/// `ofp_flow_stats` up to its action list.
const FLOW_STATS_FIXED_LEN: usize = 88;
/// `ofp_port_stats`.
const PORT_STATS_LEN: usize = 104;

/// Wire bytes of an action list.
fn actions_len(actions: &[Action]) -> usize {
    actions.iter().map(Action::wire_len).sum()
}

fn write_stats(body: &StatsBody, out: &mut Vec<u8>, is_request: bool) {
    match body {
        StatsBody::FlowRequest { of_match, table_id } => {
            assert!(is_request);
            out.extend_from_slice(&OFPST_FLOW.to_be_bytes());
            out.extend_from_slice(&0u16.to_be_bytes()); // flags
            of_match.write_to(out);
            out.push(*table_id);
            out.push(0);
            out.extend_from_slice(&0xffffu16.to_be_bytes()); // out_port = none
        }
        StatsBody::FlowReply { entries, more } => {
            assert!(!is_request);
            let flags = if *more { OFPSF_REPLY_MORE } else { 0 };
            out.extend_from_slice(&OFPST_FLOW.to_be_bytes());
            out.extend_from_slice(&flags.to_be_bytes());
            for e in entries {
                // Idle and hard timeouts (54..58) and padding stay zero.
                let mut b = [0u8; FLOW_STATS_FIXED_LEN];
                b[0..2].copy_from_slice(&(e.wire_len() as u16).to_be_bytes());
                b[2] = e.table_id;
                b[4..44].copy_from_slice(&e.of_match.to_bytes());
                b[44..48].copy_from_slice(&e.duration_sec.to_be_bytes());
                b[48..52].copy_from_slice(&e.duration_nsec.to_be_bytes());
                b[52..54].copy_from_slice(&e.priority.to_be_bytes());
                b[64..72].copy_from_slice(&e.cookie.to_be_bytes());
                b[72..80].copy_from_slice(&e.packet_count.to_be_bytes());
                b[80..88].copy_from_slice(&e.byte_count.to_be_bytes());
                out.extend_from_slice(&b);
                Action::write_list(&e.actions, out);
            }
        }
        StatsBody::PortRequest { port_no } => {
            assert!(is_request);
            out.extend_from_slice(&OFPST_PORT.to_be_bytes());
            out.extend_from_slice(&0u16.to_be_bytes());
            out.extend_from_slice(&port_no.to_be_bytes());
            out.extend_from_slice(&[0u8; 6]);
        }
        StatsBody::PortReply(entries) => {
            assert!(!is_request);
            out.extend_from_slice(&OFPST_PORT.to_be_bytes());
            out.extend_from_slice(&0u16.to_be_bytes());
            for e in entries {
                out.extend_from_slice(&e.port_no.to_be_bytes());
                out.extend_from_slice(&[0u8; 6]);
                out.extend_from_slice(&e.rx_packets.to_be_bytes());
                out.extend_from_slice(&e.tx_packets.to_be_bytes());
                out.extend_from_slice(&e.rx_bytes.to_be_bytes());
                out.extend_from_slice(&e.tx_bytes.to_be_bytes());
                out.extend_from_slice(&e.rx_dropped.to_be_bytes());
                out.extend_from_slice(&e.tx_dropped.to_be_bytes());
                // rx/tx errors, frame/over/crc errors, collisions = 0.
                out.extend_from_slice(&[0u8; 48]);
            }
        }
    }
}

fn parse_stats(body: &[u8], is_request: bool) -> Result<StatsBody, WireError> {
    if body.len() < STATS_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let stype = u16::from_be_bytes([body[0], body[1]]);
    let flags = u16::from_be_bytes([body[2], body[3]]);
    let rest = &body[STATS_HEADER_LEN..];
    match (stype, is_request) {
        (OFPST_FLOW, true) => {
            if rest.len() < OFP_MATCH_LEN + 4 {
                return Err(WireError::Truncated);
            }
            Ok(StatsBody::FlowRequest {
                of_match: OfMatch::parse(rest)?,
                table_id: rest[OFP_MATCH_LEN],
            })
        }
        (OFPST_FLOW, false) => {
            let mut entries = Vec::new();
            let mut b = rest;
            while !b.is_empty() {
                if b.len() < FLOW_STATS_FIXED_LEN {
                    return Err(WireError::Truncated);
                }
                let entry_len = u16::from_be_bytes([b[0], b[1]]) as usize;
                if entry_len < FLOW_STATS_FIXED_LEN || b.len() < entry_len {
                    return Err(WireError::Truncated);
                }
                let of_match = OfMatch::parse(&b[4..])?;
                entries.push(FlowStatsEntry {
                    table_id: b[2],
                    of_match,
                    duration_sec: u32::from_be_bytes(b[44..48].try_into().unwrap()),
                    duration_nsec: u32::from_be_bytes(b[48..52].try_into().unwrap()),
                    priority: u16::from_be_bytes([b[52], b[53]]),
                    cookie: u64::from_be_bytes(b[64..72].try_into().unwrap()),
                    packet_count: u64::from_be_bytes(b[72..80].try_into().unwrap()),
                    byte_count: u64::from_be_bytes(b[80..88].try_into().unwrap()),
                    actions: Action::parse_list(&b[FLOW_STATS_FIXED_LEN..entry_len])?,
                });
                b = &b[entry_len..];
            }
            Ok(StatsBody::FlowReply {
                entries,
                more: flags & OFPSF_REPLY_MORE != 0,
            })
        }
        (OFPST_PORT, true) => {
            if rest.len() < 8 {
                return Err(WireError::Truncated);
            }
            Ok(StatsBody::PortRequest {
                port_no: u16::from_be_bytes([rest[0], rest[1]]),
            })
        }
        (OFPST_PORT, false) => {
            let mut entries = Vec::new();
            let mut b = rest;
            while !b.is_empty() {
                if b.len() < PORT_STATS_LEN {
                    return Err(WireError::Truncated);
                }
                entries.push(PortStats {
                    port_no: u16::from_be_bytes([b[0], b[1]]),
                    rx_packets: u64::from_be_bytes(b[8..16].try_into().unwrap()),
                    tx_packets: u64::from_be_bytes(b[16..24].try_into().unwrap()),
                    rx_bytes: u64::from_be_bytes(b[24..32].try_into().unwrap()),
                    tx_bytes: u64::from_be_bytes(b[32..40].try_into().unwrap()),
                    rx_dropped: u64::from_be_bytes(b[40..48].try_into().unwrap()),
                    tx_dropped: u64::from_be_bytes(b[48..56].try_into().unwrap()),
                });
                b = &b[PORT_STATS_LEN..];
            }
            Ok(StatsBody::PortReply(entries))
        }
        (other, _) => Err(WireError::UnknownStatsType(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn round_trip(msg: Message) {
        let wire = msg.encode(0x1234_5678);
        let (back, xid) = Message::decode(&wire).expect("decodes");
        assert_eq!(back, msg);
        assert_eq!(xid, 0x1234_5678);
        // Length field is exact.
        let h = Header::parse(&wire).unwrap();
        assert_eq!(h.length as usize, wire.len());
        assert_eq!(msg.wire_len(), wire.len());
        // Appending behind a caller's prefix writes the same bytes and
        // patches its own length field, not the prefix.
        let mut framed = vec![0xee; 14];
        msg.encode_into(0x1234_5678, &mut framed);
        assert_eq!(framed[..14], [0xee; 14]);
        assert_eq!(framed[14..], wire[..]);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Recorded from the two-buffer encoder this one replaced: frame
        // bytes and lengths feed link timing, so they may not drift.
        let m = OfMatch::ipv4_dst(Ipv4Addr::new(10, 1, 2, 3));
        let out = vec![Action::Output {
            port: 2,
            max_len: 0,
        }];
        assert_eq!(
            hex(&Message::FlowMod(FlowMod::add(m, 100, out)).encode(0x0102_0304)),
            "010e00500102030400303fef0000000000000000000000000000ffff00000800\
             00000000000000000a01020300000000000000000000000000000000000000\
             64ffffffffffff00000000000800020000"
        );
        assert_eq!(
            hex(&Message::FlowMod(FlowMod::delete_strict(m, 100)).encode(0x0102_0304)),
            "010e00480102030400303fef0000000000000000000000000000ffff00000800\
             00000000000000000a01020300000000000000000000000000040000000000\
             64ffffffffffff0000"
        );
        assert_eq!(
            hex(&Message::BarrierRequest.encode(0x0102_0304)),
            "0112000801020304"
        );
    }

    #[test]
    fn simple_messages_round_trip() {
        round_trip(Message::Hello);
        round_trip(Message::FeaturesRequest);
        round_trip(Message::BarrierRequest);
        round_trip(Message::BarrierReply);
        round_trip(Message::EchoRequest(EchoData(vec![1, 2, 3, 4])));
        round_trip(Message::EchoReply(EchoData(vec![])));
        round_trip(Message::Error {
            err_type: 3,
            code: 0,
            data: vec![0xde, 0xad],
        });
    }

    #[test]
    fn features_reply_round_trip() {
        round_trip(Message::FeaturesReply(FeaturesReply {
            datapath_id: 0x0000_beef_cafe_0001,
            n_buffers: 256,
            n_tables: 1,
            capabilities: 0xc7,
            actions: 0xfff,
            ports: vec![
                PhyPort {
                    port_no: 1,
                    hw_addr: MacAddr::local(1),
                    name: "eth1".into(),
                },
                PhyPort {
                    port_no: 2,
                    hw_addr: MacAddr::local(2),
                    name: "eth2".into(),
                },
            ],
        }));
    }

    #[test]
    fn flow_mod_round_trip() {
        round_trip(Message::FlowMod(FlowMod::add(
            OfMatch::ipv4_dst(Ipv4Addr::new(10, 0, 0, 9)),
            100,
            vec![Action::Output {
                port: 2,
                max_len: 0,
            }],
        )));
        round_trip(Message::FlowMod(FlowMod::delete_strict(
            OfMatch::udp_dst_port(9001),
            5,
        )));
    }

    #[test]
    fn packet_in_out_round_trip() {
        round_trip(Message::PacketIn(PacketIn {
            buffer_id: 0xffff_ffff,
            total_len: 128,
            in_port: 3,
            reason: PacketInReason::NoMatch,
            data: vec![0xaa; 60],
        }));
        round_trip(Message::PacketOut(PacketOut {
            buffer_id: 0xffff_ffff,
            in_port: 0xfff8,
            actions: ActionList::one(Action::Output {
                port: 1,
                max_len: 0,
            }),
            data: vec![0x55; 64],
        }));
    }

    #[test]
    fn flow_removed_round_trip() {
        round_trip(Message::FlowRemoved(FlowRemoved {
            of_match: OfMatch::udp_dst_port(80),
            cookie: 7,
            priority: 10,
            reason: 2,
            duration_sec: 12,
            duration_nsec: 500,
            packet_count: 1000,
            byte_count: 64_000,
        }));
    }

    #[test]
    fn stats_round_trips() {
        round_trip(Message::StatsRequest(StatsBody::FlowRequest {
            of_match: OfMatch::any(),
            table_id: 0xff,
        }));
        round_trip(Message::StatsRequest(StatsBody::PortRequest {
            port_no: 0xffff,
        }));
        for more in [false, true] {
            round_trip(Message::StatsReply(StatsBody::FlowReply {
                entries: vec![stats_entry(9)],
                more,
            }));
        }
        round_trip(Message::StatsReply(StatsBody::PortReply(vec![
            PortStats {
                port_no: 1,
                rx_packets: 10,
                tx_packets: 20,
                rx_bytes: 640,
                tx_bytes: 1280,
                rx_dropped: 1,
                tx_dropped: 2,
            },
            PortStats::default(),
        ])));
    }

    fn stats_entry(priority: u16) -> FlowStatsEntry {
        FlowStatsEntry {
            table_id: 0,
            of_match: OfMatch::ipv4_dst(Ipv4Addr::new(1, 2, 3, 4)),
            duration_sec: 3,
            duration_nsec: 250_000,
            priority,
            cookie: 0xabcd,
            packet_count: 55,
            byte_count: 7040,
            actions: ActionList::one(Action::Output {
                port: 4,
                max_len: 0,
            }),
        }
    }

    #[test]
    fn a_long_flow_reply_is_cut_into_parts_that_fit() {
        // 96 bytes an entry: 682 fit behind the 12 bytes of headers.
        let entries: Vec<_> = (0..1500).map(stats_entry).collect();
        let parts = StatsBody::flow_reply_parts(entries.clone());
        let mut back = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let StatsBody::FlowReply { entries, more } = part else {
                panic!("not a flow reply: {part:?}");
            };
            assert_eq!(*more, i + 1 < parts.len());
            assert_eq!(entries.len(), [682, 682, 136][i]);
            back.extend(entries.iter().cloned());
            let msg = Message::StatsReply(part.clone());
            assert!(msg.wire_len() <= OFP_MAX_MESSAGE_LEN);
            round_trip(msg);
        }
        assert_eq!(back, entries);
        assert_eq!(
            StatsBody::flow_reply_parts(Vec::new()),
            [StatsBody::FlowReply {
                entries: Vec::new(),
                more: false
            }]
        );
    }

    #[test]
    fn truncated_decode_fails() {
        let wire = Message::FlowMod(FlowMod::add(OfMatch::any(), 1, vec![])).encode(1);
        assert!(Message::decode(&wire[..wire.len() - 4]).is_err());
    }
}
