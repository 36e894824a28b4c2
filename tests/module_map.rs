//! DESIGN.md §7 is the module map; this keeps it one: every path it
//! names is on disk, and every `crates/*/src/*.rs` is named. The same
//! walk checks that every library crate root forbids `unsafe`.

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

/// Every `crates/*/src/lib.rs`, the `osnt` binary's `main.rs` and the
/// root `src/lib.rs` carry `#![forbid(unsafe_code)]`, so no crate can
/// opt back in with an `allow`. The bench crate's binaries are crate
/// roots of their own and are not checked: the benchmark's counting
/// allocator implements `GlobalAlloc`, which takes `unsafe`.
#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src/lib.rs"), root.join("crates/cli/src/main.rs")];
    for krate in std::fs::read_dir(root.join("crates")).expect("list crates/") {
        let lib = krate.expect("crate dir entry").path().join("src/lib.rs");
        if lib.is_file() {
            roots.push(lib);
        }
    }
    assert!(roots.len() > 15, "found only {} crate roots", roots.len());
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
