//! The MAC learning table both switch models forward by.

use osnt_packet::{FxBuildHasher, MacAddr};
use std::collections::HashMap;

/// Station → port, as learned from source addresses.
///
/// A port sees long runs of frames between the same two stations, so
/// the table remembers its last learn and its last lookup and answers a
/// repeat of either without hashing. The map itself is never iterated
/// and its keys come from simulated frames, so it hashes with the
/// deterministic Fx fold rather than SipHash.
#[derive(Debug, Default)]
pub(crate) struct Cam {
    map: HashMap<MacAddr, usize, FxBuildHasher>,
    /// The last `(station, port)` learned; the map already holds it.
    last_learn: Option<(MacAddr, usize)>,
    /// The last station looked up and where the map put it. Dropped
    /// when that station is learned again, the only write that can
    /// change the answer.
    last_lookup: Option<(MacAddr, Option<usize>)>,
}

impl Cam {
    /// Record that `station` was seen sending on `port`.
    pub(crate) fn learn(&mut self, station: MacAddr, port: usize) {
        if self.last_learn == Some((station, port)) {
            return;
        }
        self.map.insert(station, port);
        self.last_learn = Some((station, port));
        if self.last_lookup.is_some_and(|(s, _)| s == station) {
            self.last_lookup = None;
        }
    }

    /// The port `station` was last seen on, if it was seen at all.
    pub(crate) fn lookup(&mut self, station: MacAddr) -> Option<usize> {
        if let Some((s, port)) = self.last_lookup {
            if s == station {
                return port;
            }
        }
        let port = self.map.get(&station).copied();
        self.last_lookup = Some((station, port));
        port
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memos_never_outlive_the_map() {
        let (a, b) = (MacAddr::local(1), MacAddr::local(2));
        let mut cam = Cam::default();
        assert_eq!(cam.lookup(a), None);
        cam.learn(a, 3);
        assert_eq!(
            cam.lookup(a),
            Some(3),
            "a remembered miss yields to the learn"
        );
        cam.learn(b, 1);
        cam.learn(a, 3);
        assert_eq!((cam.lookup(a), cam.lookup(b)), (Some(3), Some(1)));
        // The station moves: the remembered learn is for another pair,
        // the remembered lookup is for this station.
        cam.learn(a, 0);
        assert_eq!(cam.lookup(a), Some(0));
        cam.learn(a, 3);
        cam.learn(a, 3);
        assert_eq!(cam.lookup(a), Some(3));
        assert_eq!(cam.map.len(), 2);
    }
}
