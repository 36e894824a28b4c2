//! Minimal binary encoding for journal records: little-endian fixed
//! width integers, length-prefixed strings, and the CRC32 (IEEE,
//! reflected, `osnt-packet`'s) that frames every record. Hand-rolled
//! because the build environment is offline — no serde, no crc crates.

use osnt_error::OsntError;

/// CRC32 (IEEE) of `bytes` — the checksum zlib, PNG and pcapng use,
/// and the one on every journal record on disk (pinned by the reference
/// vectors below).
pub use osnt_packet::hash::crc32;

/// An append-only encoder over a growable byte buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its exact IEEE-754 bit pattern — the resume
    /// path's byte-identity guarantee depends on a lossless round trip.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed (u32) byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A checked decoder over a byte slice. Every accessor returns a typed
/// [`OsntError::Decode`] on underrun instead of panicking — torn-tail
/// recovery feeds this arbitrary prefixes of valid records.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`, starting at its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], OsntError> {
        if self.remaining() < n {
            return Err(OsntError::decode(
                what,
                format!("need {n} bytes, {} left", self.remaining()),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, OsntError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, OsntError> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, OsntError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, OsntError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Read an f64 stored as its bit pattern.
    pub fn f64(&mut self) -> Result<f64, OsntError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], OsntError> {
        let n = self.u32()? as usize;
        self.take(n, "bytes")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, OsntError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| OsntError::decode("string", format!("invalid UTF-8: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"OSNT"), crc32(b"OSNT"));
        assert_ne!(crc32(b"OSNT"), crc32(b"OSNU"));
    }

    #[test]
    fn roundtrip_all_field_types() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(65_000);
        e.u32(4_000_000_000);
        e.u64(u64::MAX - 1);
        e.f64(-0.125);
        e.f64(f64::NAN);
        e.str("load=0.95");
        e.bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 65_000);
        assert_eq!(d.u32().unwrap(), 4_000_000_000);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.str().unwrap(), "load=0.95");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn underrun_is_a_typed_error() {
        let mut d = Dec::new(&[1, 2]);
        assert!(matches!(d.u64(), Err(OsntError::Decode { .. })));
        // A lying length prefix must not panic either.
        let mut e = Enc::new();
        e.u32(1000); // claims 1000 bytes follow; none do
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.bytes(), Err(OsntError::Decode { .. })));
    }
}
