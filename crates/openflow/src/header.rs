//! The common OpenFlow header.

use crate::codec::WireError;

/// OpenFlow 1.0 wire version byte.
pub const OFP_VERSION: u8 = 0x01;

/// Length of the fixed header.
pub const OFP_HEADER_LEN: usize = 8;

/// The longest message the header's 16-bit length field can state.
pub const OFP_MAX_MESSAGE_LEN: usize = u16::MAX as usize;

/// OpenFlow 1.0 message types (the subset we model, with the official
/// numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MessageType {
    /// OFPT_HELLO
    Hello = 0,
    /// OFPT_ERROR
    Error = 1,
    /// OFPT_ECHO_REQUEST
    EchoRequest = 2,
    /// OFPT_ECHO_REPLY
    EchoReply = 3,
    /// OFPT_FEATURES_REQUEST
    FeaturesRequest = 5,
    /// OFPT_FEATURES_REPLY
    FeaturesReply = 6,
    /// OFPT_PACKET_IN
    PacketIn = 10,
    /// OFPT_FLOW_REMOVED
    FlowRemoved = 11,
    /// OFPT_PACKET_OUT
    PacketOut = 13,
    /// OFPT_FLOW_MOD
    FlowMod = 14,
    /// OFPT_STATS_REQUEST
    StatsRequest = 16,
    /// OFPT_STATS_REPLY
    StatsReply = 17,
    /// OFPT_BARRIER_REQUEST
    BarrierRequest = 18,
    /// OFPT_BARRIER_REPLY
    BarrierReply = 19,
}

impl MessageType {
    /// Parse the type byte.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => MessageType::Hello,
            1 => MessageType::Error,
            2 => MessageType::EchoRequest,
            3 => MessageType::EchoReply,
            5 => MessageType::FeaturesRequest,
            6 => MessageType::FeaturesReply,
            10 => MessageType::PacketIn,
            11 => MessageType::FlowRemoved,
            13 => MessageType::PacketOut,
            14 => MessageType::FlowMod,
            16 => MessageType::StatsRequest,
            17 => MessageType::StatsReply,
            18 => MessageType::BarrierRequest,
            19 => MessageType::BarrierReply,
            other => return Err(WireError::UnknownType(other)),
        })
    }
}

/// The 8-byte header preceding every message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Protocol version (must be [`OFP_VERSION`]).
    pub version: u8,
    /// Message type.
    pub msg_type: MessageType,
    /// Total message length including this header.
    pub length: u16,
    /// Transaction id, echoed in replies.
    pub xid: u32,
}

impl Header {
    /// Parse a header from the first 8 bytes of `bytes`.
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < OFP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let version = bytes[0];
        if version != OFP_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let msg_type = MessageType::from_u8(bytes[1])?;
        let length = u16::from_be_bytes([bytes[2], bytes[3]]);
        if (length as usize) < OFP_HEADER_LEN {
            return Err(WireError::BadLength(length));
        }
        Ok(Header {
            version,
            msg_type,
            length,
            xid: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        })
    }

    /// Serialise.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let [l0, l1] = self.length.to_be_bytes();
        let [x0, x1, x2, x3] = self.xid.to_be_bytes();
        out.extend_from_slice(&[self.version, self.msg_type as u8, l0, l1, x0, x1, x2, x3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = Header {
            version: OFP_VERSION,
            msg_type: MessageType::FlowMod,
            length: 72,
            xid: 0xdead_beef,
        };
        let mut buf = Vec::new();
        h.write_to(&mut buf);
        assert_eq!(buf.len(), OFP_HEADER_LEN);
        assert_eq!(Header::parse(&buf).unwrap(), h);
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        Header {
            version: OFP_VERSION,
            msg_type: MessageType::Hello,
            length: 8,
            xid: 0,
        }
        .write_to(&mut buf);
        buf[0] = 4; // OpenFlow 1.3
        assert!(matches!(Header::parse(&buf), Err(WireError::BadVersion(4))));
    }

    #[test]
    fn rejects_unknown_type_and_short_length() {
        let mut buf = vec![OFP_VERSION, 99, 0, 8, 0, 0, 0, 0];
        assert!(matches!(
            Header::parse(&buf),
            Err(WireError::UnknownType(99))
        ));
        buf[1] = 0;
        buf[3] = 4; // length 4 < 8
        assert!(matches!(Header::parse(&buf), Err(WireError::BadLength(4))));
    }

    #[test]
    fn truncated() {
        assert!(matches!(
            Header::parse(&[1, 0, 0]),
            Err(WireError::Truncated)
        ));
    }
}
