//! The determinism lint suite and the per-file analysis engine.
//!
//! Every lint here turns one clause of the repo's bit-identity contract
//! into a machine-checked source invariant. Lints operate on the lexed
//! views from [`crate::lexer`] — string payloads can neither trigger nor
//! suppress a lint, and annotations (`SAFETY:`, waivers) are read only
//! from real comments.
//!
//! # Waivers
//!
//! A finding is suppressed by a line-level waiver comment:
//!
//! ```text
//! // grtx-allow(<lint-id>): <reason>
//! ```
//!
//! A *trailing* waiver (sharing a line with code) covers that line. A
//! waiver on its own line covers the next item or statement — the same
//! extent an attribute would attach to — so one waiver above a `use`,
//! `fn`, or multi-line `let` covers all of it. The reason is mandatory:
//! a waiver without one is itself a finding (`waiver-needs-reason`), as
//! is a waiver naming a lint that does not exist (`waiver-unknown-lint`).

use crate::lexer::{find_word, has_word, lex, Line};

/// The crate allowed to contain `unsafe` (behind an audit contract).
pub const UNSAFE_CRATE: &str = "grtx-math";
/// The crate allowed to read wall clocks (behind `ClockMode`).
pub const CLOCK_CRATE: &str = "grtx-telemetry";
/// The crates allowed to catch or rethrow panics (the fault-injection
/// machinery and the pipeline's single recovery choke point).
pub const PANIC_CRATES: &[&str] = &["grtx-fault", "grtx-pipeline"];

/// Where a file sits in its crate — determines which lints apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `src/` — production code; every lint applies.
    Src,
    /// `tests/` — integration tests.
    Tests,
    /// `benches/` — bench harnesses.
    Benches,
    /// `examples/` — examples.
    Examples,
}

impl Role {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Role::Src => "src",
            Role::Tests => "tests",
            Role::Benches => "benches",
            Role::Examples => "examples",
        }
    }
}

/// One source file plus the crate context the lints need.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Package name from the crate's `Cargo.toml` (e.g. `grtx-math`).
    pub crate_name: String,
    /// Workspace-relative path, used verbatim in findings.
    pub path: String,
    /// Directory role within the crate.
    pub role: Role,
    /// `true` for crate roots (`src/lib.rs`, `src/main.rs`), where the
    /// crate-level attribute lint applies.
    pub is_crate_root: bool,
    /// Full source text.
    pub content: String,
}

/// A lint violation: `file:line` plus the lint id and a message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint id (see [`LINTS`]).
    pub lint: &'static str,
    /// What fired, in context.
    pub message: String,
}

/// A waiver comment found in a file, with its resolution.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// Lint id the waiver names.
    pub lint: String,
    /// The mandatory justification.
    pub reason: String,
    /// `true` once the waiver suppressed at least one finding.
    pub used: bool,
}

/// Static description of one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable kebab-case id, used in reports and waivers.
    pub id: &'static str,
    /// One-line summary of what fires.
    pub summary: &'static str,
    /// Why the invariant matters for bit-identity / safety.
    pub rationale: &'static str,
}

/// The eight determinism/safety lints plus the two waiver meta-lints.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "unsafe-needs-safety",
        summary:
            "every `unsafe` block or fn carries a `SAFETY:` comment (or `# Safety` doc section)",
        rationale: "unsafe proof obligations must be written down where the code is, so the \
                    audit survives refactors instead of living in reviewers' heads",
    },
    LintInfo {
        id: "forbid-unsafe-outside-math",
        summary: "crate roots outside grtx-math declare #![forbid(unsafe_code)]; grtx-math \
                  declares #![deny(unsafe_op_in_unsafe_fn)]",
        rationale: "grtx-math is the single audited unsafe boundary (SIMD kernels); the compiler \
                    enforces that unsafe cannot reappear anywhere else",
    },
    LintInfo {
        id: "deterministic-collections",
        summary: "no raw std HashMap/HashSet in src trees — use seeded FastMap or BTreeMap",
        rationale: "RandomState seeds and hash-order iteration vary run to run; one stray \
                    hash-order loop in a merge path silently breaks bit-identity",
    },
    LintInfo {
        id: "no-wall-clock",
        summary: "Instant/SystemTime only inside grtx-telemetry (and tests/benches/examples)",
        rationale: "wall-clock reads in simulation or merge paths leak nondeterminism into \
                    results; timing flows through grtx-telemetry's ClockMode, which pins to \
                    a null clock in determinism tests",
    },
    LintInfo {
        id: "float-total-order",
        summary: "no sort_by/max_by/min_by over partial_cmp on floats — use total_cmp",
        rationale: "partial_cmp is not a total order (NaN, -0.0 vs +0.0); traversal sorts on \
                    raw bits and the SIMD kernels canonicalize -0.0, so float ordering must \
                    go through total_cmp",
    },
    LintInfo {
        id: "fma-containment",
        summary: "mul_add only inside cfg(feature = \"fma\") regions of grtx-math",
        rationale: "fused multiply-add contracts two roundings into one and changes bits; the \
                    `fma` feature is the only sanctioned opt-in, everywhere else contraction \
                    would silently fork the bit-identity baseline",
    },
    LintInfo {
        id: "no-unscoped-spawn",
        summary: "no std::thread::spawn — scoped pools only",
        rationale: "detached threads outlive their launch scope and merge results in completion \
                    order; std::thread::scope fan-outs join deterministically before results \
                    are combined",
    },
    LintInfo {
        id: "panic-containment",
        summary: "catch_unwind/resume_unwind only inside grtx-fault and grtx-pipeline",
        rationale: "a panic caught outside the pipeline's single choke point can swallow an \
                    injected fault or a poisoned-pool payload before the retry/quarantine \
                    machinery sees it, forking recovery behavior from the audited path",
    },
    LintInfo {
        id: "waiver-needs-reason",
        summary: "every grtx-allow waiver states a non-empty reason",
        rationale: "a waiver is a recorded exception to the determinism contract; without the \
                    why, the next reader cannot tell a justified exception from a leak",
    },
    LintInfo {
        id: "waiver-unknown-lint",
        summary: "grtx-allow waivers name an existing lint id",
        rationale: "a misspelled waiver suppresses nothing and hides the violation it was \
                    meant to document",
    },
];

/// Looks up a lint id in [`LINTS`].
pub fn lint_exists(id: &str) -> bool {
    LINTS.iter().any(|l| l.id == id)
}

/// Rationale string for a lint id (empty for unknown ids).
pub fn lint_rationale(id: &str) -> &'static str {
    LINTS
        .iter()
        .find(|l| l.id == id)
        .map(|l| l.rationale)
        .unwrap_or("")
}

// ---------------------------------------------------------------------------
// Per-file machinery.

struct Waiver {
    line_idx: usize,
    lint: String,
    reason: String,
    /// Inclusive 0-based line range the waiver covers.
    covers: (usize, usize),
    used: bool,
}

/// Everything derived from one lexed file that the lint passes share.
struct FileCx<'a> {
    spec: &'a SourceSpec,
    lines: Vec<Line>,
    /// Line is (part of) an attribute.
    attr: Vec<bool>,
    /// Line sits under `#[cfg(test)]` / `#[test]`.
    test_region: Vec<bool>,
    /// Line sits under `#[cfg(feature = "fma")]`.
    fma_region: Vec<bool>,
    waivers: Vec<Waiver>,
}

/// Result of analyzing one file.
pub struct FileAnalysis {
    /// Findings that survived waiver matching.
    pub findings: Vec<Finding>,
    /// Every waiver encountered, with use status.
    pub waivers: Vec<WaiverRecord>,
}

/// Runs the full lint suite over one file.
pub fn analyze_source(spec: &SourceSpec) -> FileAnalysis {
    let mut cx = FileCx::new(spec);
    let mut raw: Vec<Finding> = Vec::new();

    lint_unsafe_needs_safety(&cx, &mut raw);
    lint_crate_root_attrs(&cx, &mut raw);
    lint_deterministic_collections(&cx, &mut raw);
    lint_no_wall_clock(&cx, &mut raw);
    lint_float_total_order(&cx, &mut raw);
    lint_fma_containment(&cx, &mut raw);
    lint_no_unscoped_spawn(&cx, &mut raw);
    lint_panic_containment(&cx, &mut raw);

    // Waiver matching: a finding at line L is suppressed by a waiver for
    // the same lint whose extent covers L. File-level findings (anchored
    // to line 1 by the crate-root lint) accept a waiver anywhere in the
    // file, since there is no specific offending line to annotate.
    let mut findings = Vec::new();
    for f in raw {
        let idx = f.line - 1;
        let file_level = f.lint == "forbid-unsafe-outside-math";
        let mut waived = false;
        for w in cx.waivers.iter_mut() {
            if w.lint == f.lint && (file_level || (w.covers.0 <= idx && idx <= w.covers.1)) {
                w.used = true;
                waived = true;
            }
        }
        if !waived {
            findings.push(f);
        }
    }

    // Waiver meta-lints (never themselves waivable).
    for w in &cx.waivers {
        if !lint_exists(&w.lint) {
            findings.push(Finding {
                file: spec.path.clone(),
                line: w.line_idx + 1,
                lint: "waiver-unknown-lint",
                message: format!("waiver names unknown lint `{}`", w.lint),
            });
        } else if w.reason.is_empty() {
            findings.push(Finding {
                file: spec.path.clone(),
                line: w.line_idx + 1,
                lint: "waiver-needs-reason",
                message: format!(
                    "waiver for `{}` has no reason — justify the exception",
                    w.lint
                ),
            });
        }
    }

    findings.sort();
    let waivers = cx
        .waivers
        .iter()
        .map(|w| WaiverRecord {
            file: spec.path.clone(),
            line: w.line_idx + 1,
            lint: w.lint.clone(),
            reason: w.reason.clone(),
            used: w.used,
        })
        .collect();
    FileAnalysis { findings, waivers }
}

impl<'a> FileCx<'a> {
    fn new(spec: &'a SourceSpec) -> Self {
        let lines = lex(&spec.content);
        let n = lines.len();

        // Attribute lines, including multi-line attribute continuations.
        let mut attr = vec![false; n];
        let mut i = 0;
        while i < n {
            if lines[i].is_attr_start() {
                let base = lines[i].depth_start;
                attr[i] = true;
                let mut j = i;
                while lines[j].depth_end > base && j + 1 < n {
                    j += 1;
                    attr[j] = true;
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }

        let mut cx = Self {
            spec,
            lines,
            attr,
            test_region: vec![false; n],
            fma_region: vec![false; n],
            waivers: Vec::new(),
        };

        // cfg(test) / #[test] and cfg(feature = "fma") regions: mark the
        // extent of the item/statement each such attribute attaches to.
        for i in 0..n {
            if !cx.attr[i] || !cx.lines[i].is_attr_start() {
                continue; // not the first line of an attribute
            }
            let text = cx.attr_text(i);
            let is_test = text.contains("cfg(test)")
                || text.contains("cfg(all(test")
                || text == "#[test]"
                || text.starts_with("#[test]");
            let is_fma = text.contains("cfg(feature=\"fma\")");
            if !is_test && !is_fma {
                continue;
            }
            if let Some((start, end)) = cx.element_extent(i) {
                for k in start..=end {
                    if is_test {
                        cx.test_region[k] = true;
                    }
                    if is_fma {
                        cx.fma_region[k] = true;
                    }
                }
            }
        }

        cx.collect_waivers();
        cx
    }

    /// Whitespace-normalized text of the attribute starting at `i`
    /// (string contents preserved), spanning continuation lines.
    fn attr_text(&self, i: usize) -> String {
        let base = self.lines[i].depth_start;
        let mut text: String = self.lines[i]
            .full
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let mut j = i;
        while self.lines[j].depth_end > base && j + 1 < self.lines.len() {
            j += 1;
            text.extend(self.lines[j].full.chars().filter(|c| !c.is_whitespace()));
        }
        text
    }

    /// The inclusive 0-based line range of the item or statement that
    /// starts after line `after` — the extent an attribute (or own-line
    /// waiver) at `after` attaches to. Skips attributes, comments, and
    /// blank lines, then consumes until the nesting depth returns to the
    /// element's base depth at a line that syntactically terminates
    /// (`;`, `}`, `,`, or `)`).
    fn element_extent(&self, after: usize) -> Option<(usize, usize)> {
        let n = self.lines.len();
        let mut j = after + 1;
        while j < n && (self.attr[j] || self.lines[j].is_code_blank()) {
            j += 1;
        }
        if j >= n {
            return None;
        }
        let base = self.lines[j].depth_start;
        let mut k = j;
        loop {
            let line = &self.lines[k];
            let code = line.code.trim_end();
            let terminates = matches!(code.chars().last(), Some(';' | '}' | ',' | ')'));
            if line.depth_end < base || (line.depth_end == base && !code.is_empty() && terminates) {
                return Some((j, k));
            }
            if k + 1 >= n {
                return Some((j, k));
            }
            k += 1;
        }
    }

    fn collect_waivers(&mut self) {
        let mut found = Vec::new();
        for (i, line) in self.lines.iter().enumerate() {
            let comment = &line.comment;
            let Some(pos) = comment.find("grtx-allow(") else {
                continue;
            };
            let rest = &comment[pos + "grtx-allow(".len()..];
            let Some(close) = rest.find(')') else {
                continue;
            };
            let id = &rest[..close];
            if id.is_empty()
                || !id
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
            {
                // Not a waiver attempt (e.g. docs showing `<lint-id>`).
                continue;
            }
            let mut reason = match rest[close + 1..].trim_start().strip_prefix(':') {
                Some(r) => r.trim().to_string(),
                None => String::new(),
            };
            let own_line = line.is_code_blank();
            // Own-line waivers may continue the reason on following
            // comment-only lines (until code or another waiver).
            if own_line {
                let mut j = i + 1;
                while j < self.lines.len()
                    && self.lines[j].is_code_blank()
                    && !self.lines[j].comment.is_empty()
                    && !self.lines[j].comment.contains("grtx-allow(")
                {
                    let cont = comment_text(&self.lines[j].comment);
                    if !cont.is_empty() {
                        if !reason.is_empty() {
                            reason.push(' ');
                        }
                        reason.push_str(&cont);
                    }
                    j += 1;
                }
            }
            let covers = if own_line {
                self.element_extent(i).unwrap_or((i, i))
            } else {
                (i, i)
            };
            found.push(Waiver {
                line_idx: i,
                lint: id.to_string(),
                reason,
                covers,
                used: false,
            });
        }
        self.waivers = found;
    }

    fn finding(&self, line_idx: usize, lint: &'static str, message: String) -> Finding {
        Finding {
            file: self.spec.path.clone(),
            line: line_idx + 1,
            lint,
            message,
        }
    }
}

/// Strips comment markers (`//`, `///`, `//!`, `/*`, `*/`, leading `*`)
/// from one line's comment text.
fn comment_text(comment: &str) -> String {
    let t = comment.trim();
    let t = t
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start_matches('!');
    t.trim_end_matches("*/").trim().to_string()
}

// ---------------------------------------------------------------------------
// The lints.

/// `unsafe-needs-safety`: every line containing the `unsafe` keyword
/// must have a `SAFETY:` comment trailing it or in the contiguous
/// comment/attribute block directly above (a `# Safety` doc section
/// counts for `unsafe fn` declarations).
fn lint_unsafe_needs_safety(cx: &FileCx, out: &mut Vec<Finding>) {
    for (i, line) in cx.lines.iter().enumerate() {
        if !has_word(&line.code, "unsafe") {
            continue;
        }
        if comment_has_safety(&line.comment) {
            continue;
        }
        let mut covered = false;
        let mut u = i;
        while u > 0 {
            u -= 1;
            let above = &cx.lines[u];
            if cx.attr[u] {
                continue; // look through attributes
            }
            if above.is_code_blank() && !above.comment.is_empty() {
                if comment_has_safety(&above.comment) {
                    covered = true;
                    break;
                }
                continue; // keep walking the comment block
            }
            break; // code or blank line ends the annotation block
        }
        if !covered {
            out.push(
                cx.finding(
                    i,
                    "unsafe-needs-safety",
                    "`unsafe` without a `SAFETY:` comment stating the discharged proof obligations"
                        .to_string(),
                ),
            );
        }
    }
}

fn comment_has_safety(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

/// `forbid-unsafe-outside-math`: crate roots must pin the crate-level
/// unsafe policy attributes.
fn lint_crate_root_attrs(cx: &FileCx, out: &mut Vec<Finding>) {
    if !cx.spec.is_crate_root {
        return;
    }
    let all_attrs: String = (0..cx.lines.len())
        .filter(|&i| cx.attr[i] && cx.lines[i].is_attr_start())
        .map(|i| cx.attr_text(i))
        .collect();
    if cx.spec.crate_name == UNSAFE_CRATE {
        if !all_attrs.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
            out.push(cx.finding(
                0,
                "forbid-unsafe-outside-math",
                format!(
                    "`{}` is the audited unsafe boundary and must declare \
                     #![deny(unsafe_op_in_unsafe_fn)] at the crate root",
                    UNSAFE_CRATE
                ),
            ));
        }
    } else if !all_attrs.contains("#![forbid(unsafe_code)]") {
        out.push(cx.finding(
            0,
            "forbid-unsafe-outside-math",
            format!(
                "crate `{}` must declare #![forbid(unsafe_code)] at the crate root \
                 (only `{}` may contain unsafe)",
                cx.spec.crate_name, UNSAFE_CRATE
            ),
        ));
    }
}

/// `deterministic-collections`: raw std HashMap/HashSet in `src/`.
fn lint_deterministic_collections(cx: &FileCx, out: &mut Vec<Finding>) {
    if cx.spec.role != Role::Src {
        return;
    }
    for (i, line) in cx.lines.iter().enumerate() {
        for name in ["HashMap", "HashSet"] {
            if has_word(&line.code, name) {
                out.push(cx.finding(
                    i,
                    "deterministic-collections",
                    format!(
                        "raw std `{name}` — use the seeded FastMap \
                         (crates/sim/src/fasthash.rs) or a BTree collection"
                    ),
                ));
            }
        }
    }
}

/// `no-wall-clock`: `Instant` / `SystemTime` outside the telemetry
/// crate, tests, benches, and examples.
fn lint_no_wall_clock(cx: &FileCx, out: &mut Vec<Finding>) {
    if cx.spec.role != Role::Src || cx.spec.crate_name == CLOCK_CRATE {
        return;
    }
    for (i, line) in cx.lines.iter().enumerate() {
        if cx.test_region[i] {
            continue;
        }
        for name in ["Instant", "SystemTime"] {
            if has_word(&line.code, name) {
                out.push(cx.finding(
                    i,
                    "no-wall-clock",
                    format!(
                        "`{name}` outside {CLOCK_CRATE} — route timing through \
                         Telemetry/ClockMode so determinism tests can pin a null clock"
                    ),
                ));
            }
        }
    }
}

/// `float-total-order`: ordering combinators driven by `partial_cmp`.
fn lint_float_total_order(cx: &FileCx, out: &mut Vec<Finding>) {
    const COMBINATORS: [&str; 5] = [
        "sort_by",
        "sort_unstable_by",
        "max_by",
        "min_by",
        "binary_search_by",
    ];
    for (i, line) in cx.lines.iter().enumerate() {
        if !has_word(&line.code, "partial_cmp") {
            continue;
        }
        let window_start = i.saturating_sub(2);
        let fired =
            (window_start..=i).any(|j| COMBINATORS.iter().any(|c| has_word(&cx.lines[j].code, c)));
        if fired {
            out.push(
                cx.finding(
                    i,
                    "float-total-order",
                    "ordering via `partial_cmp` — use `total_cmp`, the total order the \
                 -0.0 canonicalization contract depends on"
                        .to_string(),
                ),
            );
        }
    }
}

/// `fma-containment`: `mul_add` outside `cfg(feature = "fma")` regions
/// of the math crate.
fn lint_fma_containment(cx: &FileCx, out: &mut Vec<Finding>) {
    for (i, line) in cx.lines.iter().enumerate() {
        if !has_word(&line.code, "mul_add") {
            continue;
        }
        let allowed =
            cx.spec.crate_name == UNSAFE_CRATE && cx.spec.role == Role::Src && cx.fma_region[i];
        if !allowed {
            out.push(cx.finding(
                i,
                "fma-containment",
                format!(
                    "`mul_add` contracts rounding and changes bits — only \
                     cfg(feature = \"fma\") regions of {UNSAFE_CRATE} may use it"
                ),
            ));
        }
    }
}

/// `no-unscoped-spawn`: `thread::spawn` (scoped pools only).
fn lint_no_unscoped_spawn(cx: &FileCx, out: &mut Vec<Finding>) {
    for (i, line) in cx.lines.iter().enumerate() {
        let code = &line.code;
        let mut from = 0;
        while let Some(rel) = find_word(&code[from..], "spawn") {
            let at = from + rel;
            if preceded_by_thread_path(&code[..at]) {
                out.push(
                    cx.finding(
                        i,
                        "no-unscoped-spawn",
                        "`std::thread::spawn` detaches from the launch scope — use \
                     `std::thread::scope` so joins (and merges) stay deterministic"
                            .to_string(),
                    ),
                );
                break;
            }
            from = at + "spawn".len();
        }
    }
}

/// `panic-containment`: `catch_unwind` / `resume_unwind` outside the
/// fault-injection crate and the pipeline's recovery choke point.
fn lint_panic_containment(cx: &FileCx, out: &mut Vec<Finding>) {
    if PANIC_CRATES.contains(&cx.spec.crate_name.as_str()) {
        return;
    }
    for (i, line) in cx.lines.iter().enumerate() {
        for name in ["catch_unwind", "resume_unwind"] {
            if has_word(&line.code, name) {
                out.push(cx.finding(
                    i,
                    "panic-containment",
                    format!(
                        "`{name}` outside {} — panics funnel through the pipeline's \
                         retry/quarantine choke point; use the typed try_* APIs instead",
                        PANIC_CRATES.join("/")
                    ),
                ));
            }
        }
    }
}

/// `true` if `prefix` ends with `thread ::` (whitespace-tolerant).
fn preceded_by_thread_path(prefix: &str) -> bool {
    let t = prefix.trim_end();
    let Some(t) = t.strip_suffix("::") else {
        return false;
    };
    let t = t.trim_end();
    t.ends_with("thread") && {
        let cut = t.len() - "thread".len();
        cut == 0 || !t.as_bytes()[cut - 1].is_ascii_alphanumeric() && t.as_bytes()[cut - 1] != b'_'
    }
}
