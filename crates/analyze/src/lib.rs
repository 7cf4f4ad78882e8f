#![forbid(unsafe_code)]

//! # grtx-analyze — the workspace determinism-lint engine
//!
//! Every equivalence suite in this repo proves the same thing end to
//! end: parallel simulation is **bit-identical** to serial (threads,
//! shards, BVH widths, telemetry on/off). The *source-level*
//! invariants that make those tests pass — no wall clocks in merge
//! paths, no hash-order iteration, total float ordering, FMA only
//! behind its feature gate, audited `unsafe` — previously lived in
//! reviewers' heads. This crate turns them into machine-checked lints
//! so the next subsystems (distributed serving, record/replay) cannot
//! silently regress the contract.
//!
//! The engine is **zero-dependency** by design (the workspace builds
//! offline): a hand-rolled, comment- and string-aware token scanner
//! ([`lexer`]) rather than a `syn`-style parser. Lints ([`lints`],
//! listed in [`LINTS`]) run per file; findings carry `file:line`, the
//! lint id, and the rationale, and render as human text or
//! `grtx-analyze-v1` JSON ([`report`]).
//!
//! Violations that are deliberate are waived in place:
//!
//! ```text
//! // grtx-allow(<lint-id>): <reason — mandatory>
//! ```
//!
//! See [`lints`] for waiver extents. Run the suite locally with
//! `cargo run -p grtx-analyze -- --deny`.

pub mod lexer;
pub mod lints;
pub mod report;

pub use lints::{analyze_source, Finding, LintInfo, Role, SourceSpec, WaiverRecord, LINTS};
pub use report::Report;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Analyzes an explicit set of sources (the fixture-test entry point).
pub fn analyze_files(specs: &[SourceSpec]) -> Report {
    let mut report = Report::default();
    let mut crates: Vec<String> = Vec::new();
    for spec in specs {
        if !crates.contains(&spec.crate_name) {
            crates.push(spec.crate_name.clone());
        }
        let analysis = analyze_source(spec);
        report.findings.extend(analysis.findings);
        report.waivers.extend(analysis.waivers);
    }
    crates.sort();
    report.crates = crates;
    report.files_scanned = specs.len();
    report.findings.sort();
    report
        .waivers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Walks `root/crates/*` and runs the lint suite over every `.rs` file
/// in each crate's `src`, `tests`, `benches`, and `examples` trees.
///
/// Vendored stub crates (`vendor/`) are deliberately out of scope: they
/// are offline stand-ins slated for replacement, not product code.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} has no crates/ directory", root.display()),
        ));
    }
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();

    let mut specs = Vec::new();
    let mut crates = Vec::new();
    for dir in &crate_dirs {
        let name = package_name(&dir.join("Cargo.toml"))?;
        crates.push(name.clone());
        for (sub, role) in [
            ("src", Role::Src),
            ("tests", Role::Tests),
            ("benches", Role::Benches),
            ("examples", Role::Examples),
        ] {
            let tree = dir.join(sub);
            if !tree.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            collect_rs_files(&tree, &mut files)?;
            files.sort();
            for file in files {
                let rel = file
                    .strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                let is_crate_root = role == Role::Src
                    && matches!(
                        file.file_name().and_then(|n| n.to_str()),
                        Some("lib.rs") | Some("main.rs")
                    )
                    && file.parent() == Some(tree.as_path());
                specs.push(SourceSpec {
                    crate_name: name.clone(),
                    path: rel,
                    role,
                    is_crate_root,
                    content: fs::read_to_string(&file)?,
                });
            }
        }
    }

    let mut report = analyze_files(&specs);
    report.root = root.to_string_lossy().into_owned();
    report.crates = crates;
    report.crates.sort();
    Ok(report)
}

/// Recursively gathers `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads `name = "…"` from a `[package]` section without a TOML parser.
fn package_name(manifest: &Path) -> io::Result<String> {
    let text = fs::read_to_string(manifest)?;
    let mut in_package = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let v = rest.trim().trim_matches('"');
                    return Ok(v.to_string());
                }
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: no [package] name", manifest.display()),
    ))
}
