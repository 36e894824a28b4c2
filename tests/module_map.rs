//! DESIGN.md §7 is the module map; this keeps it one: every path it
//! names is on disk, and every `crates/*/src/*.rs` is named. The same
//! walks check that every library crate root forbids `unsafe` and that
//! every crate uses each of its dependencies.

use std::collections::BTreeSet;
use std::path::Path;

/// The paths of the fenced block under `## 7. Module map`: a line that
/// starts with a directory sets it, `.rs` words are files in it, and
/// parenthesised text is commentary.
fn mapped_paths(design: &str) -> BTreeSet<String> {
    let section = design
        .split("## 7. Module map")
        .nth(1)
        .expect("DESIGN.md has a module map section");
    let block = section
        .split("```")
        .nth(1)
        .expect("the module map is a fenced block");
    let mut paths = BTreeSet::new();
    let mut dir = String::new();
    for line in block.lines() {
        let mut text = line.to_string();
        while let (Some(open), Some(close)) = (text.find('('), text.find(')')) {
            assert!(open < close, "unbalanced commentary in {line:?}");
            text.replace_range(open..=close, "");
        }
        for (i, word) in text.split_whitespace().enumerate() {
            if i == 0 && !line.starts_with(' ') {
                assert!(
                    word.ends_with('/'),
                    "{line:?} does not start with a directory"
                );
                dir = word.to_string();
            } else {
                assert!(word.ends_with(".rs"), "stray word {word:?} in {line:?}");
                paths.insert(format!("{dir}{word}"));
            }
        }
    }
    paths
}

#[test]
fn design_module_map_matches_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let mapped = mapped_paths(&design);
    assert!(mapped.len() > 100, "parsed only {} paths", mapped.len());

    let missing: Vec<&String> = mapped.iter().filter(|p| !root.join(p).is_file()).collect();
    assert!(missing.is_empty(), "mapped but not on disk: {missing:?}");

    let mut unlisted = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("list crates/") {
        let src = krate.expect("crate dir entry").path().join("src");
        let Ok(files) = std::fs::read_dir(&src) else {
            continue;
        };
        for file in files {
            let path = file.expect("src dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the repo root");
                let rel = rel.to_str().expect("utf-8 path").replace('\\', "/");
                if !mapped.contains(&rel) {
                    unlisted.push(rel);
                }
            }
        }
    }
    assert!(unlisted.is_empty(), "on disk but not mapped: {unlisted:?}");
}

/// Every `crates/*/src/lib.rs` and `vendor/*/src/lib.rs`, the `osnt`
/// binary's `main.rs` and the root `src/lib.rs` carry
/// `#![forbid(unsafe_code)]`, so no crate can opt back in with an
/// `allow`. The only `unsafe` in the workspace is the two counting
/// allocators, which implement `GlobalAlloc`: the benchmark's
/// (`crates/bench/src/bin/e0_pipeline/alloc_count.rs`, a binary's crate
/// root of its own) and the root tests' (`tests/common/mod.rs`).
#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src/lib.rs"), root.join("crates/cli/src/main.rs")];
    for dir in ["crates", "vendor"] {
        for krate in std::fs::read_dir(root.join(dir)).expect("list a crate directory") {
            let lib = krate.expect("crate dir entry").path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    assert!(roots.len() > 17, "found only {} crate roots", roots.len());
    let lax: Vec<_> = roots
        .iter()
        .filter(|path| {
            let text = std::fs::read_to_string(path).expect("read a crate root");
            !text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]")
        })
        .collect();
    assert!(
        lax.is_empty(),
        "crate roots without forbid(unsafe_code): {lax:?}"
    );
}

/// The keys of one `[section]` of a `Cargo.toml`, `-` read as `_`.
fn dependency_keys(manifest: &str, section: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == section;
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            let key = line
                .split(['.', '=', ' '])
                .next()
                .expect("split yields one");
            keys.push(key.replace('-', "_"));
        }
    }
    keys
}

/// The text of every `.rs` file under `dir` (none if it is absent).
fn sources(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(std::fs::read_to_string(&path).expect("read a source"));
        }
    }
}

/// True when some source names `krate` as a path root (`krate::…`).
fn names_crate(sources: &[String], krate: &str) -> bool {
    let path = format!("{krate}::");
    sources.iter().any(|text| {
        text.match_indices(&path).any(|(i, _)| {
            !text[..i]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    })
}

/// Every `[dependencies]` entry of a `crates/*/Cargo.toml` is named in
/// that crate's `src/`, and every `[dev-dependencies]` entry in its
/// `src/`, `tests/` or `benches/`, and no `[dev-dependencies]` entry
/// repeats a `[dependencies]` one (tests see those already): a
/// dependency nothing uses only costs build time and hides what a crate
/// really rests on.
#[test]
fn every_crate_dependency_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut unused = Vec::new();
    let mut checked = 0;
    for krate in std::fs::read_dir(root.join("crates")).expect("list crates/") {
        let dir = krate.expect("crate dir entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut src = Vec::new();
        sources(&dir.join("src"), &mut src);
        let mut all = src.clone();
        sources(&dir.join("tests"), &mut all);
        sources(&dir.join("benches"), &mut all);
        let deps = dependency_keys(&manifest, "[dependencies]");
        for (section, texts) in [("[dependencies]", &src), ("[dev-dependencies]", &all)] {
            for key in dependency_keys(&manifest, section) {
                checked += 1;
                let repeated = section == "[dev-dependencies]" && deps.contains(&key);
                if repeated || !names_crate(texts, &key) {
                    unused.push(format!("{} {section} {key}", dir.display()));
                }
            }
        }
    }
    assert!(checked > 80, "checked only {checked} dependencies");
    assert!(unused.is_empty(), "unused dependencies: {unused:#?}");
}
