//! Control-channel encapsulation.
//!
//! The OpenFlow control channel is carried over the simulated network as
//! Ethernet frames with a dedicated EtherType, one OpenFlow message per
//! frame. The link's bandwidth and propagation apply, so control-plane
//! latency is a real, measurable quantity.

use osnt_openflow::{Message, WireError};
use osnt_packet::ethernet::{self, EthernetHeader};
use osnt_packet::{vlan, MacAddr, Packet};

/// EtherType used for encapsulated OpenFlow control messages
/// (IEEE local experimental 2).
pub const CONTROL_ETHERTYPE: u16 = 0x88B6;

/// Respect the Ethernet minimum so timing stays realistic.
const MIN_FRAME_BYTES: usize = 60;

/// Wrap one OpenFlow message in a control frame: one buffer, sized once,
/// the message encoded straight behind the Ethernet header.
pub fn encap_control(msg: &Message, xid: u32) -> Packet {
    let len = osnt_packet::ethernet::HEADER_LEN + msg.wire_len();
    let mut bytes = Vec::with_capacity(len.max(MIN_FRAME_BYTES));
    EthernetHeader {
        dst: MacAddr::local(0xC0),
        src: MacAddr::local(0xC1),
        ethertype: CONTROL_ETHERTYPE,
    }
    .write_to(&mut bytes);
    msg.encode_into(xid, &mut bytes);
    if bytes.len() < MIN_FRAME_BYTES {
        bytes.resize(MIN_FRAME_BYTES, 0);
    }
    Packet::from_vec(bytes)
}

/// Unwrap a control frame. Returns `None` for frames that are not
/// control-channel frames; `Some(Err(..))` for malformed OpenFlow inside
/// a control frame.
///
/// A frame is a control frame by its effective EtherType: the one behind
/// an 802.1Q tag when it carries one. The message is decoded from behind
/// that header, tag included.
pub fn decap_control(packet: &Packet) -> Option<Result<(Message, u32), WireError>> {
    let data = packet.data();
    let ethertype_at = |at: usize| {
        data.get(at..at + 2)
            .map(|t| u16::from_be_bytes([t[0], t[1]]))
    };
    let mut body = ethernet::HEADER_LEN;
    let mut ethertype = ethertype_at(body - 2)?;
    if ethertype == ethernet::ethertype::VLAN {
        body += vlan::TAG_LEN;
        ethertype = ethertype_at(body - 2)?;
    }
    (ethertype == CONTROL_ETHERTYPE).then(|| Message::decode(&data[body..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use osnt_openflow::messages::EchoData;

    #[test]
    fn round_trip() {
        let msg = Message::EchoRequest(EchoData(vec![1, 2, 3]));
        let frame = encap_control(&msg, 42);
        let (back, xid) = decap_control(&frame).unwrap().unwrap();
        assert_eq!(back, msg);
        assert_eq!(xid, 42);
    }

    #[test]
    fn minimum_frame_is_respected() {
        let frame = encap_control(&Message::Hello, 1);
        assert!(frame.frame_len() >= 64);
        // Padding must not confuse the decoder (OF length field governs).
        assert!(decap_control(&frame).unwrap().is_ok());
    }

    #[test]
    fn padded_hello_frame_bytes_are_pinned() {
        // Recorded from the copy-twice framing this one replaced.
        let hex: String = encap_control(&Message::Hello, 7)
            .data()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            format!(
                "0200000000c00200000000c188b60100000800000007{}",
                "00".repeat(38)
            )
        );
    }

    #[test]
    fn non_control_frames_are_ignored() {
        let data = Packet::zeroed(64);
        assert!(decap_control(&data).is_none());
    }

    #[test]
    fn tagged_control_frame_decodes_behind_its_tag() {
        let mut bytes = encap_control(&Message::BarrierRequest, 77).into_vec();
        bytes.splice(12..12, [0x81, 0x00, 0x00, 42]);
        assert_eq!(
            decap_control(&Packet::from_vec(bytes.clone())),
            Some(Ok((Message::BarrierRequest, 77)))
        );
        // Too short for its tag (or its EtherType): not a control frame.
        for len in [17, 16, 14, 13, 12] {
            bytes.truncate(len);
            assert_eq!(decap_control(&Packet::from_vec(bytes.clone())), None);
        }
    }

    #[test]
    fn large_message_survives() {
        let msg = Message::EchoRequest(EchoData(vec![7; 5000]));
        let frame = encap_control(&msg, 9);
        let (back, _) = decap_control(&frame).unwrap().unwrap();
        assert_eq!(back, msg);
    }
}
