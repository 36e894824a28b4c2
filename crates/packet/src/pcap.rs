//! libpcap file reading and writing.
//!
//! The OSNT generator's headline function is **PCAP replay**: take a
//! capture file and retransmit it with tunable inter-departure times. The
//! monitor's host path writes captures back out as pcap. Both the classic
//! microsecond format (magic `0xa1b2c3d4`) and the nanosecond variant
//! (magic `0xa1b23c4d`) are supported, in either byte order on read.
//!
//! Timestamps cross this API as **picoseconds** (`u64`), the native unit
//! of OSNT-rs; they are truncated to the file's resolution on write.
//! A `u64` of picoseconds holds 213 days, so a capture stamped with a
//! real-world epoch is read relative to the whole second of its first
//! record ([`PcapReader::base_secs`]); captures in simulator time, which
//! is what this crate writes, read back as written.

use std::io::{self, Read, Write};

/// Magic for microsecond-resolution files.
pub const MAGIC_MICRO: u32 = 0xa1b2_c3d4;
/// Magic for nanosecond-resolution files.
pub const MAGIC_NANO: u32 = 0xa1b2_3c4d;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Timestamp resolution of a pcap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsResolution {
    /// Classic microsecond timestamps.
    Micro,
    /// Nanosecond timestamps (what a hardware tester should write).
    Nano,
}

impl TsResolution {
    fn magic(self) -> u32 {
        match self {
            TsResolution::Micro => MAGIC_MICRO,
            TsResolution::Nano => MAGIC_NANO,
        }
    }

    /// Picoseconds per subsecond unit.
    fn unit_ps(self) -> u64 {
        match self {
            TsResolution::Micro => 1_000_000,
            TsResolution::Nano => 1_000,
        }
    }
}

/// One captured packet record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp, picoseconds since the file epoch (on read:
    /// since [`PcapReader::base_secs`]).
    pub ts_ps: u64,
    /// Original length of the packet on the wire (may exceed
    /// `data.len()` when the capture was snapped/thinned).
    pub orig_len: u32,
    /// Captured bytes.
    pub data: Vec<u8>,
}

impl PcapRecord {
    /// A record whose captured bytes are complete.
    pub fn full(ts_ps: u64, data: Vec<u8>) -> Self {
        PcapRecord {
            ts_ps,
            orig_len: data.len() as u32,
            data,
        }
    }
}

/// Errors reading a pcap stream.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with a known pcap magic.
    BadMagic(u32),
    /// A record claims more captured bytes than the configured sanity
    /// limit (corrupt file).
    OversizedRecord(u32),
    /// The stream ended in the middle of a record.
    TruncatedRecord,
    /// A record's stamp cannot be held as picoseconds after the file's
    /// base second: it lies before the base, or more than 213 days
    /// after it.
    TimestampOutOfRange {
        /// The record's whole seconds, as stored.
        secs: u32,
        /// The second the file's stamps are relative to.
        base_secs: u32,
    },
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap i/o error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap stream (magic {m:#010x})"),
            PcapError::OversizedRecord(n) => write!(f, "pcap record of {n} bytes exceeds limit"),
            PcapError::TruncatedRecord => write!(f, "pcap stream ends mid-record"),
            PcapError::TimestampOutOfRange { secs, base_secs } => write!(
                f,
                "pcap record stamped {secs} s cannot be held relative to second {base_secs}"
            ),
        }
    }
}

impl std::error::Error for PcapError {}

/// Sanity cap on `incl_len` when reading (jumbo + slack).
const MAX_RECORD: u32 = 256 * 1024;

const PS_PER_SEC: u64 = 1_000_000_000_000;

/// Streaming pcap writer.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    out: W,
    resolution: TsResolution,
    records: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Write the global header and return the writer.
    pub fn new(mut out: W, resolution: TsResolution) -> io::Result<Self> {
        out.write_all(&resolution.magic().to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&(MAX_RECORD).to_le_bytes())?; // snaplen
        out.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter {
            out,
            resolution,
            records: 0,
        })
    }

    /// Append one record.
    pub fn write_record(&mut self, rec: &PcapRecord) -> io::Result<()> {
        let unit = self.resolution.unit_ps();
        let secs = (rec.ts_ps / PS_PER_SEC) as u32;
        let subsec = ((rec.ts_ps % PS_PER_SEC) / unit) as u32;
        self.out.write_all(&secs.to_le_bytes())?;
        self.out.write_all(&subsec.to_le_bytes())?;
        self.out.write_all(&(rec.data.len() as u32).to_le_bytes())?;
        self.out.write_all(&rec.orig_len.to_le_bytes())?;
        self.out.write_all(&rec.data)?;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flush and hand back the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming pcap reader.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    input: R,
    resolution: TsResolution,
    swapped: bool,
    /// Fixed by the first record.
    base_secs: Option<u32>,
}

/// Fill `buf` from `input`; the count is short only at end of stream.
fn read_up_to(input: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

impl<R: Read> PcapReader<R> {
    /// Read and validate the global header.
    pub fn new(mut input: R) -> Result<Self, PcapError> {
        let mut hdr = [0u8; 24];
        input.read_exact(&mut hdr)?;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let (resolution, swapped) = match magic {
            MAGIC_MICRO => (TsResolution::Micro, false),
            MAGIC_NANO => (TsResolution::Nano, false),
            m if m.swap_bytes() == MAGIC_MICRO => (TsResolution::Micro, true),
            m if m.swap_bytes() == MAGIC_NANO => (TsResolution::Nano, true),
            m => return Err(PcapError::BadMagic(m)),
        };
        Ok(PcapReader {
            input,
            resolution,
            swapped,
            base_secs: None,
        })
    }

    /// The second every [`PcapRecord::ts_ps`] read from this file is
    /// relative to, once the first record has been read: 0 when that
    /// record's own stamp fits in a `u64` of picoseconds (simulator
    /// time), else that record's whole second (a real-world epoch).
    pub fn base_secs(&self) -> Option<u32> {
        self.base_secs
    }

    /// The file's timestamp resolution.
    pub fn resolution(&self) -> TsResolution {
        self.resolution
    }

    fn u32_at(&self, b: &[u8]) -> u32 {
        let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        if self.swapped {
            v.swap_bytes()
        } else {
            v
        }
    }

    /// Read the next record, or `None` at a clean end of stream: the
    /// stream ends exactly where a record header would start.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>, PcapError> {
        let mut hdr = [0u8; 16];
        match read_up_to(&mut self.input, &mut hdr)? {
            0 => return Ok(None),
            16 => {}
            _ => return Err(PcapError::TruncatedRecord),
        }
        let secs = self.u32_at(&hdr[0..4]);
        let subsec = self.u32_at(&hdr[4..8]) as u64;
        let incl = self.u32_at(&hdr[8..12]);
        let orig = self.u32_at(&hdr[12..16]);
        if incl > MAX_RECORD {
            return Err(PcapError::OversizedRecord(incl));
        }
        let mut data = vec![0u8; incl as usize];
        self.input
            .read_exact(&mut data)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => PcapError::TruncatedRecord,
                _ => PcapError::Io(e),
            })?;
        let fits = u64::from(secs) < u64::MAX / PS_PER_SEC;
        let base_secs = *self.base_secs.get_or_insert(if fits { 0 } else { secs });
        let ts_ps = secs
            .checked_sub(base_secs)
            .and_then(|rel| u64::from(rel).checked_mul(PS_PER_SEC))
            .and_then(|ps| ps.checked_add(subsec * self.resolution.unit_ps()))
            .ok_or(PcapError::TimestampOutOfRange { secs, base_secs })?;
        Ok(Some(PcapRecord {
            ts_ps,
            orig_len: orig,
            data,
        }))
    }

    /// Drain the remaining records into a vector.
    pub fn read_all(&mut self) -> Result<Vec<PcapRecord>, PcapError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

/// Serialise records to an in-memory pcap image.
pub fn to_bytes(records: &[PcapRecord], resolution: TsResolution) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), resolution).expect("Vec write cannot fail");
    for r in records {
        w.write_record(r).expect("Vec write cannot fail");
    }
    w.finish().expect("Vec flush cannot fail")
}

/// Parse an in-memory pcap image.
pub fn from_bytes(bytes: &[u8]) -> Result<Vec<PcapRecord>, PcapError> {
    PcapReader::new(bytes)?.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<PcapRecord> {
        vec![
            PcapRecord::full(0, vec![1, 2, 3, 4]),
            PcapRecord::full(1_000_000_000_000, vec![5; 60]), // t = 1 s
            PcapRecord {
                ts_ps: 1_500_000_123_000, // 1.500000123 s
                orig_len: 1514,
                data: vec![9; 64], // snapped
            },
        ]
    }

    #[test]
    fn nano_round_trip_preserves_ns() {
        let recs = sample_records();
        let img = to_bytes(&recs, TsResolution::Nano);
        let back = from_bytes(&img).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], recs[0]);
        assert_eq!(back[1], recs[1]);
        // ps below ns are truncated.
        assert_eq!(back[2].ts_ps, 1_500_000_123_000);
        assert_eq!(back[2].orig_len, 1514);
    }

    #[test]
    fn micro_resolution_truncates_to_us() {
        let recs = vec![PcapRecord::full(1_234_567_000, vec![1])]; // 1.234567 ms
        let img = to_bytes(&recs, TsResolution::Micro);
        let back = from_bytes(&img).unwrap();
        assert_eq!(back[0].ts_ps, 1_234_000_000); // µs granularity
    }

    #[test]
    fn resolution_detected_from_magic() {
        let img = to_bytes(&[], TsResolution::Nano);
        let r = PcapReader::new(&img[..]).unwrap();
        assert_eq!(r.resolution(), TsResolution::Nano);
        let img = to_bytes(&[], TsResolution::Micro);
        let r = PcapReader::new(&img[..]).unwrap();
        assert_eq!(r.resolution(), TsResolution::Micro);
    }

    #[test]
    fn swapped_byte_order_is_read() {
        // Hand-build a big-endian microsecond file with one 2-byte packet.
        let mut img = Vec::new();
        img.extend_from_slice(&MAGIC_MICRO.to_be_bytes());
        img.extend_from_slice(&2u16.to_be_bytes());
        img.extend_from_slice(&4u16.to_be_bytes());
        img.extend_from_slice(&0i32.to_be_bytes());
        img.extend_from_slice(&0u32.to_be_bytes());
        img.extend_from_slice(&65535u32.to_be_bytes());
        img.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        img.extend_from_slice(&7u32.to_be_bytes()); // 7 s
        img.extend_from_slice(&3u32.to_be_bytes()); // 3 µs
        img.extend_from_slice(&2u32.to_be_bytes());
        img.extend_from_slice(&2u32.to_be_bytes());
        img.extend_from_slice(&[0xaa, 0xbb]);
        let recs = from_bytes(&img).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ts_ps, 7_000_003_000_000);
        assert_eq!(recs[0].data, vec![0xaa, 0xbb]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            from_bytes(&[0u8; 24]),
            Err(PcapError::BadMagic(0))
        ));
    }

    #[test]
    fn truncated_record_is_reported() {
        let img = to_bytes(&sample_records(), TsResolution::Nano);
        let last_record = img.len() - (16 + 64);
        assert_eq!(from_bytes(&img[..last_record]).unwrap().len(), 2);
        // A cut anywhere inside the last record, its 16-byte header
        // included, is a torn file and not a shorter clean one.
        for cut in [1, 7, 15, 16, 17, 16 + 54, 16 + 63] {
            assert!(
                matches!(
                    from_bytes(&img[..last_record + cut]),
                    Err(PcapError::TruncatedRecord)
                ),
                "cut {cut} bytes into the last record"
            );
        }
    }

    /// One little-endian record as a foreign tool would have written it.
    fn raw_record(secs: u32, subsec: u32, data: &[u8]) -> Vec<u8> {
        let len = data.len() as u32;
        let mut out = Vec::new();
        for word in [secs, subsec, len, len] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(data);
        out
    }

    #[test]
    fn epoch_stamped_capture_reads_relative_to_its_first_second() {
        const EPOCH: u32 = 1_700_000_000; // 2023-11-14: overflows u64 picoseconds
        let mut img = to_bytes(&[], TsResolution::Nano);
        img.extend(raw_record(EPOCH, 999_999_000, &[1]));
        img.extend(raw_record(EPOCH + 1, 250, &[2]));
        let mut reader = PcapReader::new(&img[..]).unwrap();
        assert_eq!(reader.base_secs(), None);
        let records = reader.read_all().unwrap();
        assert_eq!(reader.base_secs(), Some(EPOCH));
        assert_eq!(records[0].ts_ps, 999_999_000_000);
        assert_eq!(records[1].ts_ps - records[0].ts_ps, 1_250_000); // 1.25 µs

        // Out of order across the base second, or 213 days past it:
        // an error, not a wrapped stamp.
        for secs in [EPOCH - 1, EPOCH + 18_446_745] {
            let mut img = img.clone();
            img.extend(raw_record(secs, 0, &[3]));
            assert!(matches!(
                from_bytes(&img),
                Err(PcapError::TimestampOutOfRange { secs: s, base_secs: EPOCH }) if s == secs
            ));
        }
    }

    #[test]
    fn simulator_time_capture_keeps_its_own_epoch() {
        let records = [
            PcapRecord::full(500 * PS_PER_SEC, vec![1]),
            PcapRecord::full(3 * PS_PER_SEC, vec![2]), // out of order
        ];
        let img = to_bytes(&records, TsResolution::Nano);
        let mut reader = PcapReader::new(&img[..]).unwrap();
        assert_eq!(reader.read_all().unwrap(), records);
        assert_eq!(reader.base_secs(), Some(0));
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut img = to_bytes(&[], TsResolution::Nano);
        img.extend_from_slice(&0u32.to_le_bytes());
        img.extend_from_slice(&0u32.to_le_bytes());
        img.extend_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        img.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            from_bytes(&img),
            Err(PcapError::OversizedRecord(_))
        ));
    }

    #[test]
    fn empty_file_round_trips() {
        let img = to_bytes(&[], TsResolution::Micro);
        assert_eq!(img.len(), 24);
        assert!(from_bytes(&img).unwrap().is_empty());
    }

    #[test]
    fn writer_counts_records() {
        let mut w = PcapWriter::new(Vec::new(), TsResolution::Nano).unwrap();
        for r in sample_records() {
            w.write_record(&r).unwrap();
        }
        assert_eq!(w.records_written(), 3);
    }
}
