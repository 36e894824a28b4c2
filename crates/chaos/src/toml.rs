//! A tiny TOML-subset reader for chaos plans.
//!
//! The build environment is offline (no crates.io), so the plan format
//! is parsed by hand. The subset is exactly what `ChaosPlan` needs:
//!
//! * top-level `key = value` pairs,
//! * `[[section]]` / `[[section.sub]]` array-of-tables headers,
//! * values: quoted strings, integers, floats, booleans,
//! * `#` comments and blank lines.
//!
//! Anything outside that subset — inline tables, arrays, dates,
//! multi-line strings — is a typed [`OsntError`] naming the offending
//! line, not a silent misparse.

use osnt_error::OsntError;
use osnt_time::SimDuration;

/// The longest time any plan key may name: one simulated hour. A run
/// adds a few such spans to its millisecond start (window, drain,
/// delay, jitter, hold), and even all of them together stay far inside
/// `SimTime`'s ~5 000 hours.
pub const MAX_PLAN_SPAN: SimDuration = SimDuration::from_secs(3_600);

/// A parsed scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A quoted string.
    Str(String),
    /// An integer (underscore separators accepted).
    Int(i64),
    /// A float.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
}

/// One table of the document, in file order. The implicit root table
/// (keys before the first header) has an empty `header`.
#[derive(Debug, Clone)]
pub struct TomlTable {
    /// Dotted header path (`scenario`, `scenario.episode`, …); empty
    /// for the root table.
    pub header: String,
    /// 1-based line the header appeared on (0 for the root table).
    pub line: usize,
    /// Key/value pairs in file order.
    pub kv: Vec<(String, TomlValue)>,
}

impl TomlTable {
    fn err(&self, key: &str, want: &str) -> OsntError {
        OsntError::config(
            "chaos plan",
            format!(
                "[[{}]] (line {}): key `{key}` must be a {want}",
                self.header, self.line
            ),
        )
    }

    /// Look a key up (last write wins, like real TOML rejects — the
    /// subset keeps it simple and deterministic instead).
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.kv.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A required string key.
    pub fn str_of(&self, key: &str) -> Result<Option<&str>, OsntError> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Str(s)) => Ok(Some(s)),
            Some(_) => Err(self.err(key, "string")),
        }
    }

    /// An optional float key (integers coerce).
    pub fn f64_of(&self, key: &str) -> Result<Option<f64>, OsntError> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Float(f)) => Ok(Some(*f)),
            Some(TomlValue::Int(i)) => Ok(Some(*i as f64)),
            Some(_) => Err(self.err(key, "number")),
        }
    }

    /// An optional non-negative integer key.
    pub fn u64_of(&self, key: &str) -> Result<Option<u64>, OsntError> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
            Some(_) => Err(self.err(key, "non-negative integer")),
        }
    }

    /// An optional non-negative integer key that fits a `u32`.
    pub fn u32_of(&self, key: &str) -> Result<Option<u32>, OsntError> {
        self.u64_of(key)?
            .map(|n| u32::try_from(n).map_err(|_| self.err(key, "32-bit unsigned integer")))
            .transpose()
    }

    /// An optional count of `unit`s (`duration_ms`, `hold_us`, …) as a
    /// duration; a count past [`MAX_PLAN_SPAN`] is an error.
    pub fn duration_of(
        &self,
        key: &str,
        unit: SimDuration,
    ) -> Result<Option<SimDuration>, OsntError> {
        self.u64_of(key)?
            .map(|n| {
                unit.checked_mul(n)
                    .filter(|d| *d <= MAX_PLAN_SPAN)
                    .ok_or_else(|| self.err(key, "duration of at most one simulated hour"))
            })
            .transpose()
    }

    /// An optional boolean key.
    pub fn bool_of(&self, key: &str) -> Result<Option<bool>, OsntError> {
        match self.get(key) {
            None => Ok(None),
            Some(TomlValue::Bool(b)) => Ok(Some(*b)),
            Some(_) => Err(self.err(key, "boolean")),
        }
    }
}

fn decode_err(line_no: usize, msg: impl Into<String>) -> OsntError {
    OsntError::decode("chaos plan", format!("line {line_no}: {}", msg.into()))
}

fn parse_value(raw: &str, line_no: usize) -> Result<TomlValue, OsntError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(decode_err(line_no, "empty value"));
    }
    if let Some(rest) = raw.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = rest.chars();
        loop {
            match chars.next() {
                None => return Err(decode_err(line_no, "unterminated string")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    other => {
                        return Err(decode_err(
                            line_no,
                            format!("unsupported escape \\{}", other.unwrap_or(' ')),
                        ))
                    }
                },
                Some(c) => out.push(c),
            }
        }
        let tail: String = chars.collect();
        if !tail.trim().is_empty() && !tail.trim_start().starts_with('#') {
            return Err(decode_err(line_no, "trailing junk after string"));
        }
        return Ok(TomlValue::Str(out));
    }
    // Unquoted scalars may carry a trailing comment.
    let raw = raw.split('#').next().unwrap_or("").trim();
    match raw {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let cleaned: String = raw.chars().filter(|c| *c != '_').collect();
    if let Ok(i) = cleaned.parse::<i64>() {
        return Ok(TomlValue::Int(i));
    }
    if let Ok(f) = cleaned.parse::<f64>() {
        return Ok(TomlValue::Float(f));
    }
    Err(decode_err(line_no, format!("cannot parse value {raw:?}")))
}

/// Parse a document into its tables, file order preserved.
pub fn parse(src: &str) -> Result<Vec<TomlTable>, OsntError> {
    let mut tables = vec![TomlTable {
        header: String::new(),
        line: 0,
        kv: Vec::new(),
    }];
    for (i, line) in src.lines().enumerate() {
        let line_no = i + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if let Some(h) = t.strip_prefix("[[") {
            let Some(h) = h.strip_suffix("]]") else {
                return Err(decode_err(line_no, "unterminated [[header]]"));
            };
            let header = h.trim();
            if header.is_empty()
                || !header
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_')
            {
                return Err(decode_err(line_no, format!("bad header {header:?}")));
            }
            tables.push(TomlTable {
                header: header.to_string(),
                line: line_no,
                kv: Vec::new(),
            });
            continue;
        }
        if t.starts_with('[') {
            return Err(decode_err(
                line_no,
                "plain [tables] are not part of the plan subset; use [[table]]",
            ));
        }
        let Some((key, value)) = t.split_once('=') else {
            return Err(decode_err(
                line_no,
                format!("expected key = value, got {t:?}"),
            ));
        };
        let key = key.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(decode_err(line_no, format!("bad key {key:?}")));
        }
        let value = parse_value(value, line_no)?;
        tables.last_mut().unwrap().kv.push((key.to_string(), value));
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_plan_subset() {
        let doc = "\
# a chaos plan
name = \"smoke\"
base_seed = 41

[[scenario]]
name = \"bursty\"
background_load = 0.5
duration_ms = 5

[[scenario.episode]]
kind = \"loss-burst\"
enter_probability = 0.01
mean_burst_frames = 8.0
enabled = true
";
        let tables = parse(doc).unwrap();
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].header, "");
        assert_eq!(tables[0].str_of("name").unwrap(), Some("smoke"));
        assert_eq!(tables[0].u64_of("base_seed").unwrap(), Some(41));
        assert_eq!(tables[1].header, "scenario");
        assert_eq!(tables[1].f64_of("background_load").unwrap(), Some(0.5));
        assert_eq!(tables[1].u64_of("duration_ms").unwrap(), Some(5));
        assert_eq!(tables[2].header, "scenario.episode");
        assert_eq!(tables[2].str_of("kind").unwrap(), Some("loss-burst"));
        assert_eq!(tables[2].f64_of("mean_burst_frames").unwrap(), Some(8.0));
        assert_eq!(tables[2].bool_of("enabled").unwrap(), Some(true));
    }

    #[test]
    fn escapes_and_comments() {
        let tables = parse("name = \"a\\\"b\\n\" # tail\nseed = 1_000 # inline\n").unwrap();
        assert_eq!(tables[0].str_of("name").unwrap(), Some("a\"b\n"));
        assert_eq!(tables[0].u64_of("seed").unwrap(), Some(1000));
    }

    #[test]
    fn junk_is_a_typed_error_with_the_line_number() {
        for (doc, needle) in [
            ("foo", "line 1"),
            ("[plain]", "line 1"),
            ("[[never", "line 1"),
            ("x = \"open", "unterminated"),
            ("\nx = {a = 1}", "line 2"),
        ] {
            let e = parse(doc).expect_err(doc);
            let msg = e.to_string();
            assert!(msg.contains(needle), "{doc:?} -> {msg}");
        }
    }

    #[test]
    fn type_mismatches_are_typed_errors() {
        let tables = parse("x = 1\ny = \"s\"\nz = -3\n").unwrap();
        assert!(tables[0].str_of("x").is_err());
        assert!(tables[0].f64_of("y").is_err());
        assert!(tables[0].u64_of("z").is_err());
        assert!(tables[0].bool_of("x").is_err());
        assert_eq!(tables[0].get("missing"), None);
    }
}
