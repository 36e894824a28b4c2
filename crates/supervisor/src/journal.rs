//! # The crash-consistent run journal
//!
//! A supervised run appends its lifecycle to a write-ahead journal so
//! that a SIGKILL (or power loss) part-way through a multi-phase
//! campaign loses at most the phase that was executing — never the
//! phases already completed, and never the report's integrity.
//!
//! ## On-disk format
//!
//! ```text
//! magic  := "OSNTJNL1"                       (8 bytes)
//! frame  := [len: u32 LE][crc: u32 LE][payload: len bytes]
//! file   := magic frame*
//! ```
//!
//! `crc` is CRC32 (IEEE) of the payload. `payload[0]` is the record
//! type; the rest is type-specific ([`wire`](crate::wire) encoding).
//! Records are strictly append-only — resume truncates the file to the
//! last valid frame and appends, it never rewrites.
//!
//! ## Crash consistency
//!
//! Appends are framed *before* they hit the file, so a crash can only
//! produce a **torn tail**: a trailing frame that is short, or whose
//! CRC does not match. [`recover`] walks frames from the front and
//! stops at the first damage, reporting the length of the valid prefix;
//! everything before it is trustworthy because each frame carries its
//! own checksum.
//!
//! ## Fsync policy
//!
//! Only **terminal** records (abort, trailer) and journal creation sync
//! immediately — they are the run's last word. Everything else (header,
//! phase transitions, samples, fault snapshots) batches its fsync
//! (every [`JournalWriter::sync_every`] appends). This is safe because
//! recovery never *needs* durability for correctness, only for economy:
//! a process crash loses nothing (the page cache outlives the process),
//! and an OS/power crash drops at most the unsynced tail, which
//! recovery trims cleanly at the cost of re-running the affected
//! phases. Per-record fsync was measured at ~1 ms apiece on ext4 —
//! batched, journaling stays inside the e11 bench's 5% overhead budget.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use osnt_error::OsntError;

use crate::wire::{crc32, Dec, Enc};

/// File magic: identifies a run journal, version 1.
pub const MAGIC: &[u8; 8] = b"OSNTJNL1";

/// Upper bound on a single record payload. A frame whose length prefix
/// exceeds this is treated as corruption, not as a 4 GiB allocation.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Record type tags (`payload[0]`).
pub mod tag {
    /// Run header: digest, seed, config bytes, phase names.
    pub const HEADER: u8 = 1;
    /// A phase began executing.
    pub const PHASE_START: u8 = 2;
    /// A phase completed; payload carries its encoded result.
    pub const PHASE_COMPLETE: u8 = 3;
    /// A batch of raw u64 samples attributed to a phase.
    pub const SAMPLES: u8 = 4;
    /// A snapshot of named fault counters attributed to a phase.
    pub const FAULT_SNAPSHOT: u8 = 5;
    /// The run aborted (watchdog stall or contained panic).
    pub const ABORTED: u8 = 6;
    /// Clean close: every phase completed.
    pub const TRAILER: u8 = 7;
}

/// The identity of a run: everything resume must verify before it dares
/// splice new phases onto an old journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHeader {
    /// RNG seed the run was launched with.
    pub seed: u64,
    /// Opaque campaign configuration, encoded by the campaign layer.
    pub config: Vec<u8>,
    /// Ordered phase names; indices are the phase ids in all records.
    pub phases: Vec<String>,
}

impl RunHeader {
    /// CRC32 of the config bytes and seed — the cheap fingerprint resume
    /// compares to refuse resuming under a different configuration.
    pub fn digest(&self) -> u32 {
        let mut fp = self.config.clone();
        fp.extend_from_slice(&self.seed.to_le_bytes());
        crc32(&fp)
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(tag::HEADER);
        e.u32(self.digest());
        e.u64(self.seed);
        e.bytes(&self.config);
        e.u16(self.phases.len() as u16);
        for name in &self.phases {
            e.str(name);
        }
        e.into_bytes()
    }

    fn decode(d: &mut Dec) -> Result<Self, OsntError> {
        let digest = d.u32()?;
        let seed = d.u64()?;
        let config = d.bytes()?.to_vec();
        let n = d.u16()? as usize;
        let mut phases = Vec::with_capacity(n);
        for _ in 0..n {
            phases.push(d.str()?);
        }
        let header = RunHeader {
            seed,
            config,
            phases,
        };
        if header.digest() != digest {
            return Err(OsntError::decode(
                "run journal header",
                format!(
                    "config digest mismatch: stored {digest:#010x}, computed {:#010x}",
                    header.digest()
                ),
            ));
        }
        Ok(header)
    }
}

/// An abort record read back from a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct AbortRecord {
    /// Index of the phase that was executing.
    pub phase: u16,
    /// Simulated-time high-water mark (ps) at the abort.
    pub last_progress: u64,
    /// Human-readable cause (watchdog stall, panic message, ...).
    pub reason: String,
}

fn io_err(op: &'static str, e: std::io::Error) -> OsntError {
    OsntError::journal(op, e.to_string())
}

/// Append side of the journal. All writes are framed and checksummed;
/// see the module docs for the fsync policy.
pub struct JournalWriter {
    file: File,
    /// Batched records appended since the last fsync.
    unsynced: usize,
    /// Fsync after this many batched (non-terminal) appends.
    sync_every: usize,
    /// Frames appended so far through this writer.
    appends: u64,
    /// Chaos hook: when `Some(k)`, the k-th append (1-based) and every
    /// later one fail with [`OsntError::CrashInjected`] *without writing
    /// anything*, leaving the file byte-identical to a SIGKILL landing
    /// between appends k-1 and k.
    crash_after: Option<u64>,
}

impl JournalWriter {
    /// Create a fresh journal at `path` (truncating any existing file)
    /// and write the magic. `sync_every` is the fsync batch size for
    /// non-terminal records; abort and trailer always sync immediately.
    pub fn create(path: &Path, sync_every: usize) -> Result<Self, OsntError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create", e))?;
        file.write_all(MAGIC).map_err(|e| io_err("append", e))?;
        let mut w = JournalWriter {
            file,
            unsynced: 0,
            sync_every: sync_every.max(1),
            appends: 0,
            crash_after: None,
        };
        w.commit()?;
        Ok(w)
    }

    /// Reopen `path` for resume: truncate it to `valid_len` (the valid
    /// prefix [`recover`] reported, discarding any torn tail) and
    /// position for appending.
    pub fn resume(path: &Path, valid_len: u64, sync_every: usize) -> Result<Self, OsntError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        file.set_len(valid_len).map_err(|e| io_err("truncate", e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", e))?;
        let mut w = JournalWriter {
            file,
            unsynced: 0,
            sync_every: sync_every.max(1),
            appends: 0,
            crash_after: None,
        };
        w.commit()?;
        Ok(w)
    }

    /// Arm the injected-crash hook: the `k`-th append (1-based, counted
    /// from when this writer was opened) fails with
    /// [`OsntError::CrashInjected`] and writes nothing. The chaos crash
    /// sweep uses this to enumerate every append as a kill point.
    pub fn arm_crash_after(&mut self, k: u64) {
        self.crash_after = Some(k.max(1));
    }

    /// Frames appended so far through this writer.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    fn append_frame(&mut self, payload: &[u8]) -> Result<(), OsntError> {
        if let Some(k) = self.crash_after {
            if self.appends + 1 >= k {
                return Err(OsntError::CrashInjected { append: k });
            }
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        // One write_all per frame keeps a torn frame contiguous at the
        // tail instead of interleaving partial frames.
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append", e))?;
        self.appends += 1;
        Ok(())
    }

    /// Force everything appended so far onto stable storage.
    pub fn commit(&mut self) -> Result<(), OsntError> {
        self.file.sync_data().map_err(|e| io_err("fsync", e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Terminal records (abort, trailer) sync immediately: they are the
    /// run's last word and the process may exit right after them.
    fn append_terminal(&mut self, payload: &[u8]) -> Result<(), OsntError> {
        self.append_frame(payload)?;
        self.commit()
    }

    fn append_batched(&mut self, payload: &[u8]) -> Result<(), OsntError> {
        self.append_frame(payload)?;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.commit()?;
        }
        Ok(())
    }

    /// Write the run header (must be the first record; fsync batched).
    ///
    /// Progress records — header, phase transitions, samples — ride the
    /// fsync batch rather than syncing individually. Crash consistency
    /// does not need them durable: a process crash (the SIGKILL threat
    /// model) loses nothing because the page cache outlives the
    /// process, and an OS/power crash at worst drops the unsynced tail,
    /// which the CRC-framed recovery trims cleanly — costing a phase
    /// re-run, never a corrupt journal. Syncing each of these records
    /// was measured (bench `e11_journal_overhead`) at ~1 ms apiece on
    /// ext4, which dominated the entire supervision overhead budget.
    pub fn header(&mut self, header: &RunHeader) -> Result<(), OsntError> {
        self.append_batched(&header.encode())
    }

    /// Record that phase `phase` has begun executing (fsync batched).
    pub fn phase_start(&mut self, phase: u16) -> Result<(), OsntError> {
        let mut e = Enc::new();
        e.u8(tag::PHASE_START);
        e.u16(phase);
        self.append_batched(&e.into_bytes())
    }

    /// Record that phase `phase` completed, with its encoded result
    /// (fsync batched).
    pub fn phase_complete(&mut self, phase: u16, result: &[u8]) -> Result<(), OsntError> {
        let mut e = Enc::new();
        e.u8(tag::PHASE_COMPLETE);
        e.u16(phase);
        e.bytes(result);
        self.append_batched(&e.into_bytes())
    }

    /// Append a batch of raw samples for `phase` (fsync batched).
    pub fn samples(&mut self, phase: u16, samples: &[u64]) -> Result<(), OsntError> {
        let mut e = Enc::new();
        e.u8(tag::SAMPLES);
        e.u16(phase);
        e.u32(samples.len() as u32);
        for &s in samples {
            e.u64(s);
        }
        self.append_batched(&e.into_bytes())
    }

    /// Append a snapshot of named fault counters for `phase` (fsync
    /// batched). Counters are `(name, value)` so the journal stays
    /// independent of any one crate's stats struct.
    pub fn fault_snapshot(
        &mut self,
        phase: u16,
        counters: &[(String, u64)],
    ) -> Result<(), OsntError> {
        let mut e = Enc::new();
        e.u8(tag::FAULT_SNAPSHOT);
        e.u16(phase);
        e.u16(counters.len() as u16);
        for (name, value) in counters {
            e.str(name);
            e.u64(*value);
        }
        self.append_batched(&e.into_bytes())
    }

    /// Record an abort: the run died during `phase` at simulated time
    /// `last_progress` for `reason`.
    pub fn aborted(
        &mut self,
        phase: u16,
        last_progress: u64,
        reason: &str,
    ) -> Result<(), OsntError> {
        let mut e = Enc::new();
        e.u8(tag::ABORTED);
        e.u16(phase);
        e.u64(last_progress);
        e.str(reason);
        self.append_terminal(&e.into_bytes())
    }

    /// Record a clean close: all `completed` phases finished.
    pub fn trailer(&mut self, completed: u16) -> Result<(), OsntError> {
        let mut e = Enc::new();
        e.u8(tag::TRAILER);
        e.u16(completed);
        self.append_terminal(&e.into_bytes())
    }
}

/// Everything [`recover`] could salvage from a journal.
#[derive(Debug, Default)]
pub struct RecoveredRun {
    /// The run header, if the journal got far enough to contain one.
    pub header: Option<RunHeader>,
    /// Completed phases: phase index → encoded result payload.
    pub completed: BTreeMap<u16, Vec<u8>>,
    /// Raw samples per phase, concatenated in journal order.
    pub samples: BTreeMap<u16, Vec<u64>>,
    /// Fault-counter snapshots in journal order.
    pub fault_snapshots: Vec<(u16, Vec<(String, u64)>)>,
    /// Every `PhaseStart` seen, in journal order.
    pub phase_starts: Vec<u16>,
    /// The abort record, if the previous run died screaming.
    pub aborted: Option<AbortRecord>,
    /// `true` iff a `Trailer` record closed the journal cleanly.
    pub clean_close: bool,
    /// `true` iff a torn tail (short or corrupt trailing frame) was
    /// discarded during recovery.
    pub truncated: bool,
    /// Length in bytes of the valid prefix (magic + intact frames).
    /// [`JournalWriter::resume`] truncates the file to this before
    /// appending.
    pub valid_len: u64,
    /// Number of intact frames in the valid prefix. The chaos crash
    /// sweep uses a reference run's frame count to enumerate every
    /// append as a kill point.
    pub frames: u64,
}

impl RecoveredRun {
    /// Number of leading phases (0, 1, 2, ...) with a completion record
    /// — the phases resume may skip. A completed phase whose
    /// predecessor is missing does not count: phases re-run in order.
    pub fn completed_prefix(&self) -> u16 {
        let mut n = 0u16;
        while self.completed.contains_key(&n) {
            n += 1;
        }
        n
    }
}

/// Read a journal back, salvaging the valid prefix and discarding a
/// torn tail. Never panics on arbitrary input; corrupt *framing* stops
/// the walk (the remainder is untrustworthy), a missing or mangled
/// *file* is a typed error.
pub fn recover(path: &Path) -> Result<RecoveredRun, OsntError> {
    let mut file = File::open(path).map_err(|e| io_err("open", e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("read", e))?;
    recover_bytes(&bytes)
}

/// [`recover`], but over an in-memory image (what the proptest suite
/// drives with journals truncated at every byte offset).
pub fn recover_bytes(bytes: &[u8]) -> Result<RecoveredRun, OsntError> {
    let mut rec = RecoveredRun::default();
    if bytes.len() < MAGIC.len() {
        // File died before the magic finished writing. Nothing is
        // salvageable, but it is recognisably an interrupted journal
        // as long as what *is* there is a prefix of the magic. (An
        // empty file is the degenerate clean prefix, not a torn one —
        // `valid_len` must always re-recover without a truncation
        // flag, because resume truncates to it.)
        if MAGIC.starts_with(bytes) {
            rec.truncated = !bytes.is_empty();
            rec.valid_len = 0;
            return Ok(rec);
        }
        return Err(OsntError::decode(
            "run journal",
            "file is not an OSNT run journal (bad magic)",
        ));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(OsntError::decode(
            "run journal",
            "file is not an OSNT run journal (bad magic)",
        ));
    }
    let mut pos = MAGIC.len();
    rec.valid_len = pos as u64;

    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break; // clean end of file
        }
        if remaining < 8 {
            rec.truncated = true; // torn frame header
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN || (len as usize) > remaining - 8 {
            rec.truncated = true; // torn or corrupt payload
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != stored_crc {
            rec.truncated = true; // bit rot or torn write inside frame
            break;
        }
        // The frame is intact; if its *contents* don't parse the journal
        // was written by something confused — stop trusting it here.
        if apply_record(&mut rec, payload).is_err() {
            rec.truncated = true;
            break;
        }
        pos += 8 + len as usize;
        rec.valid_len = pos as u64;
        rec.frames += 1;
    }
    Ok(rec)
}

fn apply_record(rec: &mut RecoveredRun, payload: &[u8]) -> Result<(), OsntError> {
    let mut d = Dec::new(payload);
    match d.u8()? {
        tag::HEADER => {
            rec.header = Some(RunHeader::decode(&mut d)?);
        }
        tag::PHASE_START => {
            rec.phase_starts.push(d.u16()?);
        }
        tag::PHASE_COMPLETE => {
            let phase = d.u16()?;
            let result = d.bytes()?.to_vec();
            rec.completed.insert(phase, result);
        }
        tag::SAMPLES => {
            let phase = d.u16()?;
            let n = d.u32()? as usize;
            let dst = rec.samples.entry(phase).or_default();
            for _ in 0..n {
                dst.push(d.u64()?);
            }
        }
        tag::FAULT_SNAPSHOT => {
            let phase = d.u16()?;
            let n = d.u16()? as usize;
            let mut counters = Vec::with_capacity(n);
            for _ in 0..n {
                let name = d.str()?;
                let value = d.u64()?;
                counters.push((name, value));
            }
            rec.fault_snapshots.push((phase, counters));
        }
        tag::ABORTED => {
            rec.aborted = Some(AbortRecord {
                phase: d.u16()?,
                last_progress: d.u64()?,
                reason: d.str()?,
            });
        }
        tag::TRAILER => {
            let _completed = d.u16()?;
            rec.clean_close = true;
        }
        other => {
            return Err(OsntError::decode(
                "run journal record",
                format!("unknown record type {other}"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_header() -> RunHeader {
        RunHeader {
            seed: 42,
            config: b"frame=512;loads=3".to_vec(),
            phases: vec!["load-0.10".into(), "load-0.50".into(), "load-0.90".into()],
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("osnt-journal-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn full_lifecycle_roundtrip() {
        let path = temp_path("lifecycle");
        let header = demo_header();
        {
            let mut w = JournalWriter::create(&path, 4).unwrap();
            w.header(&header).unwrap();
            w.phase_start(0).unwrap();
            w.samples(0, &[10, 20, 30]).unwrap();
            w.fault_snapshot(0, &[("dropped".into(), 2), ("corrupted".into(), 1)])
                .unwrap();
            w.phase_complete(0, b"phase-zero-result").unwrap();
            w.phase_start(1).unwrap();
            w.samples(1, &[40]).unwrap();
            w.phase_complete(1, b"phase-one-result").unwrap();
            w.phase_start(2).unwrap();
            w.phase_complete(2, b"phase-two-result").unwrap();
            w.trailer(3).unwrap();
        }
        let rec = recover(&path).unwrap();
        assert_eq!(rec.header.as_ref(), Some(&header));
        assert!(rec.clean_close);
        assert!(!rec.truncated);
        assert_eq!(rec.completed_prefix(), 3);
        assert_eq!(rec.completed[&0], b"phase-zero-result");
        assert_eq!(rec.samples[&0], vec![10, 20, 30]);
        assert_eq!(rec.samples[&1], vec![40]);
        assert_eq!(rec.fault_snapshots.len(), 1);
        assert_eq!(rec.aborted, None);
        assert_eq!(
            rec.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "valid prefix must cover the whole intact file"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let path = temp_path("torn");
        {
            let mut w = JournalWriter::create(&path, 4).unwrap();
            w.header(&demo_header()).unwrap();
            w.phase_start(0).unwrap();
            w.phase_complete(0, b"done").unwrap();
            w.phase_start(1).unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        // Chop 3 bytes off the last frame: simulated mid-write SIGKILL.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);

        let rec = recover(&path).unwrap();
        assert!(rec.truncated);
        assert!(!rec.clean_close);
        assert_eq!(rec.completed_prefix(), 1, "phase 0 survives");
        assert_eq!(rec.phase_starts, vec![0], "torn phase_start(1) discarded");
        assert!(rec.valid_len < full - 3);

        // Resume must be able to truncate to the valid prefix and go on.
        {
            let mut w = JournalWriter::resume(&path, rec.valid_len, 4).unwrap();
            w.phase_start(1).unwrap();
            w.phase_complete(1, b"after-resume").unwrap();
            w.trailer(2).unwrap();
        }
        let rec2 = recover(&path).unwrap();
        assert!(rec2.clean_close);
        assert!(!rec2.truncated);
        assert_eq!(rec2.completed_prefix(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_in_payload_stops_the_walk() {
        let path = temp_path("bitflip");
        {
            let mut w = JournalWriter::create(&path, 4).unwrap();
            w.header(&demo_header()).unwrap();
            w.phase_start(0).unwrap();
            w.samples(0, &[1, 2, 3]).unwrap();
            w.commit().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // corrupt the final sample
        let rec = recover_bytes(&bytes).unwrap();
        assert!(rec.truncated);
        assert!(
            !rec.samples.contains_key(&0),
            "a corrupt sample batch must be dropped whole, never partially believed"
        );
        assert_eq!(rec.phase_starts, vec![0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn abort_record_roundtrips() {
        let path = temp_path("abort");
        {
            let mut w = JournalWriter::create(&path, 4).unwrap();
            w.header(&demo_header()).unwrap();
            w.phase_start(0).unwrap();
            w.aborted(0, 123_456_789, "watchdog: sim stalled for 5s")
                .unwrap();
        }
        let rec = recover(&path).unwrap();
        assert_eq!(
            rec.aborted,
            Some(AbortRecord {
                phase: 0,
                last_progress: 123_456_789,
                reason: "watchdog: sim stalled for 5s".into(),
            })
        );
        assert!(!rec.clean_close);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn armed_crash_refuses_the_kth_append_and_writes_nothing() {
        let path = temp_path("armed-crash");
        {
            let mut w = JournalWriter::create(&path, 4).unwrap();
            w.arm_crash_after(3);
            w.header(&demo_header()).unwrap();
            w.phase_start(0).unwrap();
            assert_eq!(w.appends(), 2);
            // Third append dies; so does every later one, terminal or not.
            assert!(matches!(
                w.phase_complete(0, b"never lands"),
                Err(OsntError::CrashInjected { append: 3 })
            ));
            assert!(matches!(
                w.aborted(0, 1, "post-crash abort must not reach disk"),
                Err(OsntError::CrashInjected { .. })
            ));
            assert_eq!(w.appends(), 2);
        }
        // On-disk state is exactly the first two appends: no partial
        // frame, no abort record — byte-identical to a SIGKILL between
        // appends 2 and 3.
        let rec = recover(&path).unwrap();
        assert_eq!(rec.frames, 2);
        assert!(!rec.truncated);
        assert_eq!(rec.aborted, None);
        assert_eq!(rec.phase_starts, vec![0]);
        assert_eq!(rec.completed_prefix(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_counts_intact_frames() {
        let path = temp_path("frame-count");
        {
            let mut w = JournalWriter::create(&path, 4).unwrap();
            w.header(&demo_header()).unwrap();
            w.phase_start(0).unwrap();
            w.phase_complete(0, b"r").unwrap();
            w.trailer(1).unwrap();
        }
        assert_eq!(recover(&path).unwrap().frames, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_file_is_a_typed_error() {
        assert!(matches!(
            recover_bytes(b"GIF89a not a journal at all"),
            Err(OsntError::Decode { .. })
        ));
        // ...but a prefix of the magic is an interrupted journal.
        let rec = recover_bytes(b"OSNTJ").unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.valid_len, 0);
    }
}
