#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-packet — packets, protocols, filters and pcap I/O
//!
//! Everything OSNT-rs knows about bytes on the wire lives here:
//!
//! * [`Packet`] — an Ethernet frame (layer 2 through payload, excluding
//!   preamble and FCS) over cheaply-cloneable shared storage with
//!   copy-on-write mutation, plus the wire-length arithmetic that the
//!   10 GbE MAC imposes.
//! * [`pool`] — a recycling [`PacketPool`] that eliminates per-frame
//!   heap allocation on the generate → deliver → drop fast path.
//! * Protocol headers — [`mac`], [`ethernet`], [`vlan`], [`arp`],
//!   [`ipv4`], [`ipv6`], [`udp`], [`tcp`], [`icmp`] with parse *and* build
//!   support and checksum handling ([`checksum`]).
//! * [`builder`] — a fluent builder that assembles correct frames
//!   (lengths and checksums filled in) for the traffic generator.
//! * [`parser`] — a zero-copy header-offset parser, the input to
//!   filtering and flow extraction.
//! * [`flow`] / [`wildcard`] — 5-tuple flow keys and the wildcard match
//!   rules used by the OSNT monitor's hardware filters and by the
//!   OpenFlow switch model's flow table.
//! * [`hash`] — CRC-32 and Toeplitz hashing, as used by the monitor's
//!   packet-thinning stage.
//! * [`pcap`] — libpcap classic (microsecond) and nanosecond file
//!   read/write, used by the generator's PCAP-replay function and the
//!   monitor's capture sink.

pub mod arp;
pub mod builder;
pub mod checksum;
pub mod ethernet;
pub mod flow;
pub mod flowkey;
pub mod hash;
pub mod icmp;
pub mod ipv4;
pub mod ipv6;
pub mod mac;
pub mod parser;
pub mod pcap;
pub mod pool;
pub mod tcp;
pub mod udp;
pub mod vlan;
pub mod wildcard;

pub use builder::PacketBuilder;
pub use flow::FiveTuple;
pub use flowkey::{CompiledRule, FlowKey, KeyMatch, KEY_WORDS};
pub use hash::{fx_hash_words, FxBuildHasher, FxHasher64};
pub use mac::MacAddr;
pub use parser::ParsedPacket;
pub use pool::PacketPool;
pub use wildcard::{IpPrefix, WildcardRule};

use core::fmt;
use std::rc::{Rc, Weak};

/// Length of the Ethernet frame check sequence (FCS), bytes. Frames in
/// OSNT-rs carry data *without* the FCS; [`Packet::wire_len`] adds it
/// back.
pub const FCS_LEN: usize = 4;

/// Preamble (7) + start-of-frame delimiter (1), bytes.
pub const PREAMBLE_LEN: usize = 8;

/// Minimum inter-frame gap, bytes (12 byte times at line rate).
pub const IFG_LEN: usize = 12;

/// Per-frame overhead on the wire beyond the frame itself:
/// preamble + SFD + inter-frame gap = 20 bytes.
pub const WIRE_OVERHEAD: usize = PREAMBLE_LEN + IFG_LEN;

/// Minimum Ethernet frame size including FCS (64 bytes), i.e. the
/// conventional "64-byte packet" of line-rate tables.
pub const MIN_FRAME: usize = 64;

/// Maximum standard Ethernet frame size including FCS (1518 bytes).
pub const MAX_FRAME: usize = 1518;

/// An Ethernet frame over cheaply-shareable storage.
///
/// The frame bytes hold destination MAC through the end of the payload;
/// the 4-byte FCS is *not* stored (hardware strips it) but *is*
/// accounted for in [`Packet::frame_len`] / [`Packet::wire_len`], so "a
/// 64-byte packet" carries 60 bytes of data. Instead of carrying FCS
/// bytes, each packet carries an [`Packet::fcs_ok`] verdict: in-flight
/// corruption ([`Packet::flip_bit`]) clears it, exactly as any bit flip
/// after the transmitting MAC computed the FCS would make the receiving
/// MAC's check fail. Receivers (the OSNT monitor, switches) consult the
/// verdict and count CRC errors instead of silently delivering mangled
/// frames.
///
/// # Sharing and copy-on-write
///
/// Storage is a reference-counted buffer: [`Clone`] is a refcount bump
/// (no byte copy), which makes fan-out paths — switch flooding, monitor
/// capture, PCAP replay — O(1) per copy. Mutation goes through
/// [`Packet::data_mut`], which copies the visible bytes into a fresh
/// (or pooled, see [`pool::PacketPool`]) buffer first if the storage is
/// shared, so clones never observe each other's writes. Equality and
/// hashing are by visible bytes, exactly as with the old owned-`Vec`
/// representation. [`Packet::truncate`] only moves the visible-length
/// mark, so thinning a captured copy is O(1) and leaves the original
/// untouched.
///
/// # Two words
///
/// A packet is a pointer and a length word, and the FCS verdict is the
/// length word's top bit, so a packet moves in two registers through
/// `transmit`, the kernel's queue and every handler.
#[derive(Clone)]
pub struct Packet {
    buf: Rc<pool::PoolBuf>,
    /// The visible prefix of `buf.data` (`len() <= buf.data.len()`), with
    /// [`FCS_BAD`] set once the frame check sequence no longer verifies.
    len: usize,
}

/// The bit of [`Packet`]'s length word that marks a bad FCS. No buffer
/// is that long.
const FCS_BAD: usize = 1 << (usize::BITS - 1);

const _: () = assert!(core::mem::size_of::<Packet>() == 2 * core::mem::size_of::<usize>());

impl Packet {
    /// Wrap raw frame bytes (L2 header .. payload, no FCS).
    pub fn from_vec(data: Vec<u8>) -> Self {
        Packet::from_pool_parts(data, Weak::new())
    }

    /// Build a frame of conventional size `frame_len` (incl. FCS) filled
    /// with zeros. Panics if `frame_len < 18` (a frame must at least hold
    /// an Ethernet header + FCS).
    pub fn zeroed(frame_len: usize) -> Self {
        assert!(frame_len >= ethernet::HEADER_LEN + FCS_LEN);
        Packet::from_vec(vec![0; frame_len - FCS_LEN])
    }

    /// Assemble from a pool-owned buffer (used by [`pool::PacketPool`]).
    pub(crate) fn from_pool_parts(data: Vec<u8>, home: Weak<pool::PoolInner>) -> Self {
        let len = data.len();
        assert!(len & FCS_BAD == 0, "a frame of {len} bytes");
        Packet {
            buf: Rc::new(pool::PoolBuf { data, home }),
            len,
        }
    }

    /// Frame bytes (no FCS).
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.buf.data[..self.len()]
    }

    /// Mutable frame bytes. If the storage is shared with clones, the
    /// visible bytes are first copied into a private buffer
    /// (copy-on-write) — drawn from the packet's home pool when it has
    /// one.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        if Rc::strong_count(&self.buf) != 1 {
            self.unshare();
        }
        let len = self.len();
        let buf = Rc::get_mut(&mut self.buf).expect("unshared above");
        &mut buf.data[..len]
    }

    /// Copy the visible bytes into private storage (the slow path of
    /// [`Packet::data_mut`], kept out of line).
    #[cold]
    fn unshare(&mut self) {
        let len = self.len();
        let mut data = match self.buf.home.upgrade() {
            Some(pool) => pool.take_buf(len),
            None => Vec::with_capacity(len),
        };
        data.extend_from_slice(&self.buf.data[..len]);
        self.buf = Rc::new(pool::PoolBuf {
            data,
            home: self.buf.home.clone(),
        });
    }

    /// True if clones currently share this packet's storage (mutating
    /// through [`Packet::data_mut`] would copy).
    #[inline]
    pub fn is_shared(&self) -> bool {
        Rc::strong_count(&self.buf) != 1
    }

    /// Consume into an owned buffer of the visible bytes. Steals the
    /// storage without copying when this packet is the sole owner.
    pub fn into_vec(self) -> Vec<u8> {
        let len = self.len();
        match Rc::try_unwrap(self.buf) {
            Ok(mut pb) => {
                // Sole owner: steal. `PoolBuf::drop` then sees an empty
                // vec, which the pool declines to keep.
                let mut data = core::mem::take(&mut pb.data);
                data.truncate(len);
                data
            }
            Err(shared) => shared.data[..len].to_vec(),
        }
    }

    /// Stored length (no FCS).
    #[inline]
    pub fn len(&self) -> usize {
        self.len & !FCS_BAD
    }

    /// True if the frame holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Conventional frame length: stored bytes + FCS. This is the "packet
    /// size" of every table in the paper (64…1518).
    #[inline]
    pub fn frame_len(&self) -> usize {
        self.len() + FCS_LEN
    }

    /// Bytes this frame occupies on the wire including preamble, SFD and
    /// the minimum inter-frame gap: `frame_len + 20`.
    ///
    /// At 10 Gb/s each byte takes 800 ps, so a 64-byte frame occupies
    /// 84 B × 800 ps = 67.2 ns → 14.88 Mpps, the classic line-rate figure.
    #[inline]
    pub fn wire_len(&self) -> usize {
        self.frame_len() + WIRE_OVERHEAD
    }

    /// Truncate the stored frame to at most `keep` bytes (packet
    /// *thinning* / snapping). The conventional `frame_len` shrinks
    /// accordingly; callers that need the original length must record it
    /// before cutting. O(1): only the visible-length mark moves, shared
    /// storage is untouched. The FCS verdict is kept.
    pub fn truncate(&mut self, keep: usize) {
        self.len = (self.len & FCS_BAD) | self.len().min(keep);
    }

    /// Parse the frame's headers (convenience for
    /// [`ParsedPacket::parse`]).
    pub fn parse(&self) -> ParsedPacket<'_> {
        ParsedPacket::parse(self.data())
    }

    /// Whether the frame's FCS would still verify at a receiving MAC.
    /// True for every freshly built frame; cleared by in-flight
    /// corruption ([`Packet::flip_bit`] / [`Packet::mark_fcs_bad`]).
    #[inline]
    pub fn fcs_ok(&self) -> bool {
        self.len & FCS_BAD == 0
    }

    /// Corrupt the frame in flight: flip bit `bit` (indexed over the
    /// visible bytes, MSB first within each byte, reduced modulo the
    /// frame's bit length) and invalidate the FCS. Copy-on-write applies,
    /// so corrupting a captured/forwarded clone never touches siblings.
    /// No-op on empty frames.
    pub fn flip_bit(&mut self, bit: usize) {
        if self.is_empty() {
            return;
        }
        let bit = bit % (self.len() * 8);
        self.data_mut()[bit / 8] ^= 0x80 >> (bit % 8);
        self.mark_fcs_bad();
    }

    /// Invalidate the FCS without touching the bytes (models corruption
    /// confined to the FCS trailer itself, which OSNT-rs does not store).
    pub fn mark_fcs_bad(&mut self) {
        self.len |= FCS_BAD;
    }
}

impl PartialEq for Packet {
    /// Content equality over the visible bytes (clones and deep copies
    /// compare equal regardless of storage sharing).
    fn eq(&self, other: &Self) -> bool {
        self.data() == other.data()
    }
}

impl Eq for Packet {}

impl core::hash::Hash for Packet {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.data().hash(state);
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Packet({}B", self.frame_len())?;
        let p = self.parse();
        if let Some(ft) = p.five_tuple() {
            write!(f, " {ft}")?;
        }
        write!(f, ")")
    }
}

impl AsRef<[u8]> for Packet {
    fn as_ref(&self) -> &[u8] {
        self.data()
    }
}

/// Number of bits a frame of conventional length `frame_len` occupies on
/// the wire (including preamble/SFD/IFG overhead).
pub const fn wire_bits(frame_len: usize) -> u64 {
    ((frame_len + WIRE_OVERHEAD) as u64) * 8
}

/// Theoretical maximum frames/second at `line_rate_bps` for frames of
/// conventional length `frame_len`.
pub fn line_rate_pps(line_rate_bps: u64, frame_len: usize) -> f64 {
    line_rate_bps as f64 / wire_bits(frame_len) as f64
}

/// Theoretical maximum *frame* throughput (frame bits per second, the
/// usual "achieved bandwidth" metric) at `line_rate_bps` for frames of
/// conventional length `frame_len`.
pub fn line_rate_goodput_bps(line_rate_bps: u64, frame_len: usize) -> f64 {
    line_rate_pps(line_rate_bps, frame_len) * (frame_len as f64) * 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_accounts_for_overheads() {
        let p = Packet::zeroed(64);
        assert_eq!(p.len(), 60);
        assert_eq!(p.frame_len(), 64);
        assert_eq!(p.wire_len(), 84);
    }

    #[test]
    fn classic_line_rate_numbers() {
        // 10G, 64B frames → 14.880952... Mpps.
        let pps = line_rate_pps(10_000_000_000, 64);
        assert!((pps - 14_880_952.38).abs() < 1.0, "{pps}");
        // 1518B frames → 812743.8 pps.
        let pps = line_rate_pps(10_000_000_000, 1518);
        assert!((pps - 812_743.82).abs() < 1.0, "{pps}");
    }

    #[test]
    fn goodput_grows_with_frame_size() {
        let small = line_rate_goodput_bps(10_000_000_000, 64);
        let large = line_rate_goodput_bps(10_000_000_000, 1518);
        assert!(small < large);
        // 64B: 64/84 of line rate ≈ 7.62 Gb/s.
        assert!((small / 1e9 - 7.619).abs() < 0.01, "{small}");
        // 1518B: 1518/1538 ≈ 9.87 Gb/s.
        assert!((large / 1e9 - 9.87).abs() < 0.01, "{large}");
    }

    #[test]
    fn truncate_shrinks_frame() {
        let mut p = Packet::zeroed(1518);
        p.truncate(64);
        assert_eq!(p.len(), 64);
        assert_eq!(p.frame_len(), 68);
    }

    #[test]
    #[should_panic]
    fn zeroed_rejects_tiny_frames() {
        let _ = Packet::zeroed(10);
    }

    #[test]
    fn clone_shares_storage_until_written() {
        let mut a = Packet::from_vec((0u8..60).collect());
        let b = a.clone();
        assert!(a.is_shared() && b.is_shared());
        assert_eq!(a.data().as_ptr(), b.data().as_ptr());

        a.data_mut()[0] = 0xFF;
        assert!(!a.is_shared() && !b.is_shared());
        assert_eq!(a.data()[0], 0xFF);
        assert_eq!(b.data()[0], 0, "clone must not observe the write");
    }

    #[test]
    fn data_mut_without_sharing_does_not_copy() {
        let mut p = Packet::from_vec(vec![1; 60]);
        let before = p.data().as_ptr();
        p.data_mut()[5] = 9;
        assert_eq!(p.data().as_ptr(), before);
    }

    #[test]
    fn truncate_is_private_to_each_clone() {
        let original = Packet::zeroed(1518);
        let mut snap = original.clone();
        snap.truncate(40);
        assert_eq!(snap.len(), 40);
        assert_eq!(original.len(), 1514, "thinning a copy leaves the original");
        // Equality and hashing see only the visible prefix.
        assert_ne!(snap, original);
    }

    #[test]
    fn into_vec_steals_when_unique_and_copies_when_shared() {
        let p = Packet::from_vec(vec![7; 60]);
        let ptr = p.data().as_ptr();
        let v = p.into_vec();
        assert_eq!(v.as_ptr(), ptr, "unique owner steals the buffer");

        let p = Packet::from_vec(vec![8; 60]);
        let q = p.clone();
        let v = p.into_vec();
        assert_eq!(v, q.data());
        assert_ne!(v.as_ptr(), q.data().as_ptr());
    }

    #[test]
    fn into_vec_respects_truncation() {
        let mut p = Packet::from_vec((0u8..60).collect());
        p.truncate(10);
        assert_eq!(p.clone().into_vec().len(), 10); // shared path
        assert_eq!(p.into_vec().len(), 10); // steal path
    }

    #[test]
    fn flip_bit_corrupts_and_invalidates_fcs() {
        let mut p = Packet::zeroed(64);
        assert!(p.fcs_ok());
        p.flip_bit(0);
        assert!(!p.fcs_ok());
        assert_eq!(p.data()[0], 0x80, "MSB of byte 0 flipped");
        // Bit index wraps modulo the frame length.
        let mut q = Packet::zeroed(64);
        q.flip_bit(60 * 8 + 1);
        assert_eq!(q.data()[0], 0x40);
    }

    #[test]
    fn corrupting_a_clone_is_private() {
        let template = Packet::zeroed(64);
        let mut hit = template.clone();
        hit.flip_bit(37);
        assert!(!hit.fcs_ok());
        assert!(template.fcs_ok(), "template keeps a good FCS");
        assert_eq!(template.data()[4], 0, "template bytes untouched");
        assert_ne!(hit, template);
    }

    #[test]
    fn mark_fcs_bad_leaves_bytes_alone() {
        let mut p = Packet::from_vec(vec![5; 60]);
        p.mark_fcs_bad();
        assert!(!p.fcs_ok());
        assert_eq!(p.data(), &[5; 60][..]);
    }

    /// The verdict shares a word with the length: neither may leak into
    /// the other through a cut, a copy or a corruption.
    #[test]
    fn the_fcs_verdict_rides_beside_the_length() {
        let mut p = Packet::zeroed(1518);
        p.mark_fcs_bad();
        assert_eq!((p.len(), p.frame_len(), p.data().len()), (1514, 1518, 1514));
        let copy = p.clone();
        assert!(!copy.fcs_ok(), "a clone shares the verdict");
        p.truncate(64);
        assert!(!p.fcs_ok(), "truncate keeps a bad FCS");
        assert_eq!((p.len(), p.data().len()), (64, 64));
        p.truncate(2_000);
        assert_eq!(p.len(), 64, "truncate never lengthens");
        assert_eq!(p.clone().into_vec().len(), 64);

        let mut q = Packet::zeroed(64);
        q.truncate(10);
        assert!(q.fcs_ok(), "truncate keeps a good FCS");
        q.flip_bit(3);
        assert!(!q.fcs_ok() && q.len() == 10);
        q.mark_fcs_bad();
        assert!(
            !q.fcs_ok() && q.len() == 10,
            "marking twice changes nothing"
        );
        assert_eq!(q.data()[0], 0x10);
    }

    #[test]
    fn equality_ignores_storage_strategy() {
        let a = Packet::from_vec(vec![3; 60]);
        let pool = pool::PacketPool::new();
        let b = pool.from_slice(a.data());
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }
}
