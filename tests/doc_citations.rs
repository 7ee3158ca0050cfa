//! The docs cite code by path and item name — `path.rs::Item::member`,
//! e.g. `crates/manager/src/fleet/mod.rs::Fleet::run` — never by line
//! number: line numbers drift with every edit, names do not.
//!
//! This test scans `README.md` and every Markdown file under `docs/`.
//! It fails when a `path.rs:<line>` citation reappears, when a cited
//! path (or a repo-relative `.rs` path mentioned on its own) does not
//! exist, or when a segment of a cited name does not occur as a word in
//! the cited file.

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The scanned documents: the README and everything under `docs/`.
fn documents(root: &Path) -> Vec<PathBuf> {
    let mut docs = vec![root.join("README.md")];
    let mut under: Vec<PathBuf> = fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|e| e.expect("readable docs/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    under.sort();
    docs.extend(under);
    docs
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-')
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// True when `word` occurs in `text` with no identifier character on
/// either side.
fn has_word(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

/// Repo-relative roots whose `.rs` paths must exist even when no item
/// is cited (shorter relative forms like `engine/qos.rs` are prose).
const ROOTS: [&str; 5] = ["crates/", "src/", "tests/", "examples/", "perfbench/"];

/// Scans one document's text. Returns the number of `path::item`
/// citations it holds and one message per problem found.
fn scan(root: &Path, doc: &str, text: &str) -> (usize, Vec<String>) {
    let mut citations = 0;
    let mut problems = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let at = |msg: String| format!("{doc}:{}: {msg}", n + 1);
        let mut rest = line;
        let mut offset = 0;
        while let Some(found) = rest.find(".rs") {
            let end = offset + found + ".rs".len();
            let start = line[..offset + found]
                .rfind(|c: char| !is_path_char(c))
                .map_or(0, |i| i + 1);
            let path = &line[start..end];
            let tail = &line[end..];
            offset = end;
            rest = &line[end..];
            if path == ".rs" {
                continue; // an extension in prose, not a path
            }
            if tail.starts_with(':') && tail[1..].starts_with(|c: char| c.is_ascii_digit()) {
                problems.push(at(format!("line-number citation `{path}{}`", &tail[..2])));
                continue;
            }
            let name = tail
                .strip_prefix("::")
                .map(|t| {
                    let len = t
                        .find(|c: char| !(is_ident_char(c) || c == ':'))
                        .unwrap_or(t.len());
                    t[..len].trim_end_matches(':')
                })
                .filter(|name| !name.is_empty());
            if name.is_none() && !ROOTS.iter().any(|r| path.starts_with(r)) {
                continue;
            }
            let Ok(source) = fs::read_to_string(root.join(path)) else {
                problems.push(at(format!("`{path}` does not exist")));
                continue;
            };
            if let Some(name) = name {
                citations += 1;
                for segment in name.split("::") {
                    if !has_word(&source, segment) {
                        problems.push(at(format!("`{segment}` of `{name}` is not in `{path}`")));
                    }
                }
            }
        }
        // A bare `:<line>` after a path cited earlier in the sentence.
        let digit = |t: &str| t.starts_with(|c: char| c.is_ascii_digit());
        if line.match_indices("`:").any(|(i, _)| digit(&line[i + 2..])) {
            problems.push(at("bare `:<line>` citation".to_string()));
        }
    }
    (citations, problems)
}

#[test]
fn docs_cite_code_by_existing_path_and_name() {
    let root = repo_root();
    let mut problems = Vec::new();
    let mut architecture = 0;
    for doc in documents(&root) {
        let text = fs::read_to_string(&doc).expect("readable document");
        let name = doc
            .strip_prefix(&root)
            .expect("document under the repo")
            .display()
            .to_string();
        let (citations, found) = scan(&root, &name, &text);
        if name.ends_with("ARCHITECTURE.md") {
            architecture = citations;
        }
        problems.extend(found);
    }
    assert!(
        architecture > 0,
        "docs/ARCHITECTURE.md cites no `path::item`; the scan found nothing"
    );
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_scan_flags_each_kind_of_bad_citation() {
    let root = repo_root();
    let good =
        "`Fleet::run` (`crates/manager/src/fleet/mod.rs::Fleet::run`) and `tests/doc_citations.rs`";
    assert_eq!(scan(&root, "good", good), (1, Vec::new()));
    for bad in [
        "see `crates/manager/src/fleet/mod.rs:337`",
        "see `crates/manager/src/fleet/mod.rs:12-40`",
        "`paper_workload` at `:130`",
        "`crates/manager/src/fleet/nowhere.rs::Fleet`",
        "`crates/manager/src/fleet/mod.rs::Fleet::no_such_item`",
        "`crates/manager/src/fleet/mod.rs::Flee`",
        "the `crates/nowhere/src/lib.rs` crate",
    ] {
        let (_, problems) = scan(&root, "bad", bad);
        assert_eq!(problems.len(), 1, "{bad}: {problems:?}");
    }
    // Relative prose paths and bare extensions are not citations.
    assert_eq!(
        scan(&root, "prose", "`engine/qos.rs` and `.rs` files"),
        (0, Vec::new())
    );
}
