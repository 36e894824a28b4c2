//! `scripts/e0/expected.json`: the seed-1 digest, op count and event
//! count of every workload. A speed-up may not move a simulated result,
//! so every seed-1 run is checked against this file; re-pinning happens
//! only through `--bless`, which prints what it replaces.
//!
//! The file is written by [`write`] and read back by [`read`], nothing
//! else: one line per workload, fixed key order.

use crate::workloads::WORKLOADS;
use std::path::Path;

/// [`crate::workloads::Rep`] results pinned at seed 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    pub digest: u64,
    pub ops: u64,
    pub events: u64,
}

impl std::fmt::Display for Pinned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Pinned {
            digest,
            ops,
            events,
        } = self;
        write!(f, "digest {digest:016x}, {ops} ops, {events} events")
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// The pinned results of `workload`; `Ok(None)` when the file has no
/// entry for it yet.
pub fn read(path: &Path, workload: &str) -> Result<Option<Pinned>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(line) = text
        .lines()
        .find(|l| l.contains(&format!("\"{workload}\":")))
    else {
        return Ok(None);
    };
    let bad = |what: &str| format!("{}: {workload}: bad or missing {what}", path.display());
    let digest = field(line, "digest")
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or_else(|| bad("digest"))?;
    let num = |key: &str| {
        field(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(key))
    };
    Ok(Some(Pinned {
        digest,
        ops: num("ops")?,
        events: num("events")?,
    }))
}

/// Replace `workload`'s entry, keeping the others.
pub fn write(path: &Path, workload: &str, new: Pinned) -> Result<(), String> {
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let entry = if w.name == workload {
            Some(new)
        } else if path.exists() {
            read(path, w.name)?
        } else {
            None
        };
        if let Some(p) = entry {
            lines.push(format!(
                "  \"{}\": {{\"digest\": \"{:016x}\", \"ops\": {}, \"events\": {}}}",
                w.name, p.digest, p.ops, p.events
            ));
        }
    }
    let text = format!("{{\n{}\n}}\n", lines.join(",\n"));
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips_and_keeps_other_entries() {
        let path = std::env::temp_dir().join(format!("e0-expected-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let a = Pinned {
            digest: 0x00ab_cdef_0123_4567,
            ops: 1_369_522,
            events: 8_217_142,
        };
        let b = Pinned {
            digest: u64::MAX,
            ops: 1,
            events: 2,
        };
        write(&path, "p1_legacy_load", a).unwrap();
        write(&path, "burst_linerate", b).unwrap();
        assert_eq!(read(&path, "p1_legacy_load").unwrap(), Some(a));
        assert_eq!(read(&path, "burst_linerate").unwrap(), Some(b));
        assert_eq!(read(&path, "p2_churn").unwrap(), None);
        std::fs::write(&path, "{\n  \"p2_churn\": {\"digest\": \"xyz\"}\n}\n").unwrap();
        assert!(read(&path, "p2_churn").is_err());
        let _ = std::fs::remove_file(&path);
    }
}
