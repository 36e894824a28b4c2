//! Control-channel encapsulation.
//!
//! The OpenFlow control channel is carried over the simulated network as
//! Ethernet frames with a dedicated EtherType, one OpenFlow message per
//! frame. The link's bandwidth and propagation apply, so control-plane
//! latency is a real, measurable quantity.

use osnt_openflow::{Message, WireError};
use osnt_packet::ethernet::EthernetHeader;
use osnt_packet::{MacAddr, Packet};

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
pub fn decap_control(packet: &Packet) -> Option<Result<(Message, u32), WireError>> {
    let parsed = packet.parse();
    if parsed.effective_ethertype() != Some(CONTROL_ETHERTYPE) {
        return None;
    }
    let body = &packet.data()[osnt_packet::ethernet::HEADER_LEN..];
    Some(Message::decode(body))
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
    fn large_message_survives() {
        let msg = Message::EchoRequest(EchoData(vec![7; 5000]));
        let frame = encap_control(&msg, 9);
        let (back, _) = decap_control(&frame).unwrap().unwrap();
        assert_eq!(back, msg);
    }
}
