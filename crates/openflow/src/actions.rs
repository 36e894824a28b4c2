//! OpenFlow 1.0 actions (the subset the switch model executes).

use crate::codec::WireError;
use core::fmt;
use core::ops::Deref;

/// Special output-port numbers from the spec.
pub mod port_no {
    /// Process with the normal L2 pipeline.
    pub const NORMAL: u16 = 0xfffa;
    /// Flood out of all ports except ingress.
    pub const FLOOD: u16 = 0xfffb;
    /// All ports except ingress.
    pub const ALL: u16 = 0xfffc;
    /// Send to the controller as PACKET_IN.
    pub const CONTROLLER: u16 = 0xfffd;
}

/// A flow action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// OFPAT_OUTPUT: forward out of a port (or a virtual port).
    Output {
        /// Destination port number.
        port: u16,
        /// Bytes to send when the port is CONTROLLER.
        max_len: u16,
    },
    /// OFPAT_SET_VLAN_VID.
    SetVlanVid(u16),
    /// OFPAT_STRIP_VLAN.
    StripVlan,
}

impl Action {
    /// Wire length of this action.
    pub fn wire_len(&self) -> usize {
        8
    }

    /// Serialise.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        // type, len = 8, then four bytes of body.
        let (atype, body): (u16, [u8; 4]) = match *self {
            Action::Output { port, max_len } => {
                let (p, m) = (port.to_be_bytes(), max_len.to_be_bytes());
                (0, [p[0], p[1], m[0], m[1]]) // OFPAT_OUTPUT
            }
            Action::SetVlanVid(vid) => {
                let v = vid.to_be_bytes();
                (1, [v[0], v[1], 0, 0]) // OFPAT_SET_VLAN_VID
            }
            Action::StripVlan => (3, [0; 4]), // OFPAT_STRIP_VLAN
        };
        let t = atype.to_be_bytes();
        out.extend_from_slice(&[t[0], t[1], 0, 8, body[0], body[1], body[2], body[3]]);
    }

    /// Parse one action; returns the action and bytes consumed.
    pub fn parse(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        if bytes.len() < 8 {
            return Err(WireError::Truncated);
        }
        let atype = u16::from_be_bytes([bytes[0], bytes[1]]);
        let len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        if len < 8 || bytes.len() < len {
            return Err(WireError::Truncated);
        }
        let action = match atype {
            0 => Action::Output {
                port: u16::from_be_bytes([bytes[4], bytes[5]]),
                max_len: u16::from_be_bytes([bytes[6], bytes[7]]),
            },
            1 => Action::SetVlanVid(u16::from_be_bytes([bytes[4], bytes[5]])),
            3 => Action::StripVlan,
            other => return Err(WireError::UnknownAction(other)),
        };
        Ok((action, len))
    }

    /// Parse a list of actions from `bytes`.
    pub fn parse_list(mut bytes: &[u8]) -> Result<ActionList, WireError> {
        let mut out = ActionList::new();
        while !bytes.is_empty() {
            let (a, used) = Action::parse(bytes)?;
            out.push(a);
            bytes = &bytes[used..];
        }
        Ok(out)
    }

    /// Serialise a list of actions.
    pub fn write_list(actions: &[Action], out: &mut Vec<u8>) {
        out.reserve(actions.len() * 8);
        for a in actions {
            a.write_to(out);
        }
    }
}

/// Actions a list holds in place before it moves to the heap.
const INLINE: usize = 2;

/// An action list that holds up to two actions in place and only longer
/// lists on the heap. Nearly every rule the tester installs has one
/// action, so a flow_mod, the entry it becomes and the messages that
/// carry them own no allocation of their own. It is as wide as the
/// `Vec` it replaces: the `Vec`'s capacity leaves room for the tag.
///
/// Reads as a slice. Equality compares the actions, and `Debug` prints
/// what a `Vec` of them prints, whichever way they are held.
#[derive(Clone)]
pub struct ActionList(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` slots hold the list; the rest are filler.
    Inline(u8, [Action; INLINE]),
    /// More than [`INLINE`] actions.
    Heap(Vec<Action>),
}

const _: () = assert!(core::mem::size_of::<ActionList>() == core::mem::size_of::<Vec<Action>>());

/// What an unused inline slot holds. Its bytes are all zero, so an
/// empty list is two wide stores: a filler with undefined bytes is built
/// field by field, and the first wide read of it stalls.
const FILLER: Action = Action::Output {
    port: 0,
    max_len: 0,
};

impl ActionList {
    /// The empty list.
    pub const fn new() -> Self {
        ActionList(Repr::Inline(0, [FILLER; INLINE]))
    }

    /// A list of one action.
    pub const fn one(action: Action) -> Self {
        ActionList(Repr::Inline(1, [action, FILLER]))
    }

    /// Append an action; the list moves to the heap when it outgrows
    /// its inline slots.
    pub fn push(&mut self, action: Action) {
        match &mut self.0 {
            Repr::Inline(len, slots) if (*len as usize) < INLINE => {
                slots[*len as usize] = action;
                *len += 1;
            }
            Repr::Inline(_, slots) => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(slots);
                v.push(action);
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) => v.push(action),
        }
    }

    /// The actions.
    pub fn as_slice(&self) -> &[Action] {
        match &self.0 {
            Repr::Inline(len, slots) => &slots[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl Default for ActionList {
    fn default() -> Self {
        ActionList::new()
    }
}

impl Deref for ActionList {
    type Target = [Action];

    fn deref(&self) -> &[Action] {
        self.as_slice()
    }
}

impl PartialEq for ActionList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ActionList {}

impl fmt::Debug for ActionList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl From<&[Action]> for ActionList {
    fn from(actions: &[Action]) -> Self {
        actions.iter().copied().collect()
    }
}

impl From<Vec<Action>> for ActionList {
    /// A list short enough to sit inline leaves its `Vec` behind.
    fn from(actions: Vec<Action>) -> Self {
        if actions.len() <= INLINE {
            actions.as_slice().into()
        } else {
            ActionList(Repr::Heap(actions))
        }
    }
}

impl FromIterator<Action> for ActionList {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> Self {
        let mut list = ActionList::new();
        for a in iter {
            list.push(a);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_each_kind() {
        for a in [
            Action::Output {
                port: 3,
                max_len: 128,
            },
            Action::SetVlanVid(42),
            Action::StripVlan,
        ] {
            let mut buf = Vec::new();
            a.write_to(&mut buf);
            assert_eq!(buf.len(), a.wire_len());
            let (back, used) = Action::parse(&buf).unwrap();
            assert_eq!(back, a);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn list_round_trip() {
        let actions = vec![
            Action::SetVlanVid(7),
            Action::Output {
                port: 1,
                max_len: 0,
            },
        ];
        let mut buf = Vec::new();
        Action::write_list(&actions, &mut buf);
        assert_eq!(Action::parse_list(&buf).unwrap()[..], actions[..]);
    }

    #[test]
    fn list_reads_like_a_vec_on_both_sides_of_the_inline_boundary() {
        let all: Vec<Action> = (0..5).map(Action::SetVlanVid).collect();
        for n in 0..=all.len() {
            let v = all[..n].to_vec();
            let pushed: ActionList = v.iter().copied().collect();
            assert_eq!(pushed[..], v[..]);
            assert_eq!(pushed, ActionList::from(v.clone()));
            assert_eq!(format!("{pushed:?}"), format!("{v:?}"));
            assert_eq!(format!("{pushed:#?}"), format!("{v:#?}"));
            assert_eq!(matches!(pushed.0, Repr::Inline(..)), n <= INLINE);
        }
        // Filler in unused slots is not part of the list.
        let mut a = ActionList::one(Action::StripVlan);
        a.push(Action::SetVlanVid(1));
        assert_ne!(a, ActionList::one(Action::StripVlan));
        assert_eq!(ActionList::new(), ActionList::default());
        assert!(ActionList::new().is_empty());
    }

    #[test]
    fn unknown_action_rejected() {
        let buf = [0x00, 0x63, 0x00, 0x08, 0, 0, 0, 0];
        assert!(matches!(
            Action::parse(&buf),
            Err(WireError::UnknownAction(0x63))
        ));
    }

    #[test]
    fn truncated_list_rejected() {
        let mut buf = Vec::new();
        Action::Output {
            port: 1,
            max_len: 0,
        }
        .write_to(&mut buf);
        buf.truncate(6);
        assert!(Action::parse_list(&buf).is_err());
    }
}
