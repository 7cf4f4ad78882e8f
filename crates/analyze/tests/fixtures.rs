//! Per-lint fixture coverage: every lint has a firing case, a clean
//! case, and a waived case, exercised through [`analyze_files`] with
//! synthetic [`SourceSpec`]s. Fixture sources live in raw strings so
//! the analyzer's own self-scan (which also lints this file) sees them
//! as string payloads, never as code.

use grtx_analyze::{analyze_files, Report, Role, SourceSpec};

fn spec(crate_name: &str, role: Role, is_crate_root: bool, content: &str) -> SourceSpec {
    SourceSpec {
        crate_name: crate_name.to_string(),
        path: format!("fixture/{crate_name}-{}.rs", role.name()),
        role,
        is_crate_root,
        content: content.to_string(),
    }
}

fn run(s: SourceSpec) -> Report {
    analyze_files(&[s])
}

/// Lint ids of the surviving findings, in report order.
fn ids(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.lint).collect()
}

// ---------------------------------------------------------------------------
// unsafe-needs-safety

#[test]
fn unsafe_needs_safety_fires_without_annotation() {
    let r = run(spec(
        "grtx-math",
        Role::Src,
        false,
        r##"
pub fn read_first(p: *const u32) -> u32 {
    unsafe { core::ptr::read(p) }
}
"##,
    ));
    assert_eq!(ids(&r), ["unsafe-needs-safety"]);
    assert_eq!(r.findings[0].line, 3);
}

#[test]
fn unsafe_needs_safety_accepts_comment_above_and_safety_doc() {
    let r = run(spec(
        "grtx-math",
        Role::Src,
        false,
        r##"
pub fn read_first(p: *const u32) -> u32 {
    // SAFETY: caller handed us a valid, aligned pointer.
    unsafe { core::ptr::read(p) }
}

/// Reads without checking.
///
/// # Safety
///
/// `p` must be valid for reads.
#[inline]
pub unsafe fn read_raw(p: *const u32) -> u32 {
    // SAFETY: fn contract.
    unsafe { core::ptr::read(p) }
}
"##,
    ));
    assert!(r.is_clean(), "unexpected: {:?}", r.findings);
}

#[test]
fn unsafe_needs_safety_trailing_waiver() {
    let r = run(spec(
        "grtx-math",
        Role::Src,
        false,
        r##"
pub fn f(p: *const u32) -> u32 {
    unsafe { core::ptr::read(p) } // grtx-allow(unsafe-needs-safety): audited in the module doc
}
"##,
    ));
    assert!(r.is_clean());
    assert_eq!(r.waivers.len(), 1);
    assert!(r.waivers[0].used, "waiver must be marked used");
}

// ---------------------------------------------------------------------------
// forbid-unsafe-outside-math

#[test]
fn crate_root_attr_fires_outside_math_and_in_math() {
    let r = run(spec("grtx-render", Role::Src, true, "pub fn f() {}\n"));
    assert_eq!(ids(&r), ["forbid-unsafe-outside-math"]);

    // grtx-math has its own required attribute.
    let r = run(spec("grtx-math", Role::Src, true, "pub fn f() {}\n"));
    assert_eq!(ids(&r), ["forbid-unsafe-outside-math"]);
}

#[test]
fn crate_root_attr_clean_when_declared() {
    let r = run(spec(
        "grtx-render",
        Role::Src,
        true,
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    ));
    assert!(r.is_clean());

    let r = run(spec(
        "grtx-math",
        Role::Src,
        true,
        "#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}\n",
    ));
    assert!(r.is_clean());

    // Non-root files are exempt regardless of attributes.
    let r = run(spec("grtx-render", Role::Src, false, "pub fn f() {}\n"));
    assert!(r.is_clean());
}

#[test]
fn crate_root_attr_accepts_waiver_anywhere_in_file() {
    let r = run(spec(
        "grtx-render",
        Role::Src,
        true,
        r##"
pub fn f() {}
// grtx-allow(forbid-unsafe-outside-math): staged migration, tracked in ROADMAP.
"##,
    ));
    assert!(r.is_clean());
    assert!(r.waivers[0].used);
}

// ---------------------------------------------------------------------------
// deterministic-collections

#[test]
fn deterministic_collections_fires_in_src_only() {
    let content = r##"
use std::collections::HashMap;
"##;
    let r = run(spec("grtx-sim", Role::Src, false, content));
    assert_eq!(ids(&r), ["deterministic-collections"]);

    // Integration tests / benches / examples are out of scope.
    for role in [Role::Tests, Role::Benches, Role::Examples] {
        let r = run(spec("grtx-sim", role, false, content));
        assert!(r.is_clean(), "{} must be exempt", role.name());
    }
}

#[test]
fn deterministic_collections_clean_with_btree_and_aliases() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
use std::collections::BTreeMap;
use crate::fasthash::{FastMap, FastSet};

pub fn f() -> BTreeMap<u32, u32> {
    BTreeMap::new()
}
"##,
    ));
    assert!(r.is_clean());
}

#[test]
fn deterministic_collections_own_line_waiver_covers_statement_extent() {
    // One own-line waiver covers the whole two-line `let`, including the
    // continuation line — the same extent an attribute would attach to.
    let r = run(spec(
        "grtx-scene",
        Role::Src,
        false,
        r##"
pub fn f() {
    // grtx-allow(deterministic-collections): insert/lookup cache only,
    // never iterated, so hash order cannot reach any output.
    let cache: std::collections::HashMap<u32, u32> =
        std::collections::HashMap::new();
    drop(cache);
}
"##,
    ));
    assert!(r.is_clean(), "unexpected: {:?}", r.findings);
    assert_eq!(r.waivers.len(), 1);
    assert!(r.waivers[0].used);
    assert!(
        r.waivers[0].reason.contains("never iterated"),
        "continuation lines extend the reason: {:?}",
        r.waivers[0].reason
    );
}

// ---------------------------------------------------------------------------
// no-wall-clock

#[test]
fn no_wall_clock_fires_outside_telemetry() {
    let content = r##"
pub fn now() -> std::time::Instant {
    std::time::Instant::now()
}
"##;
    let r = run(spec("grtx-sim", Role::Src, false, content));
    assert_eq!(ids(&r), ["no-wall-clock", "no-wall-clock"]);

    // The clock crate owns wall time.
    let r = run(spec("grtx-telemetry", Role::Src, false, content));
    assert!(r.is_clean());
}

#[test]
fn no_wall_clock_exempts_cfg_test_regions() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
#[cfg(test)]
mod tests {
    #[test]
    fn timing_smoke() {
        let t0 = std::time::Instant::now();
        assert!(t0.elapsed().as_secs() < 60);
    }
}
"##,
    ));
    assert!(r.is_clean(), "unexpected: {:?}", r.findings);
}

#[test]
fn no_wall_clock_trailing_waiver() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
pub fn stamp() -> u64 {
    let t = std::time::SystemTime::now(); // grtx-allow(no-wall-clock): log decoration only, never merged
    t.elapsed().map(|d| d.as_nanos() as u64).unwrap_or(0)
}
"##,
    ));
    assert!(r.is_clean());
    assert!(r.waivers[0].used);
}

// ---------------------------------------------------------------------------
// float-total-order

#[test]
fn float_total_order_fires_same_line_and_lookback() {
    let r = run(spec(
        "grtx-bvh",
        Role::Src,
        false,
        r##"
pub fn sort_hits(v: &mut [f32]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
"##,
    ));
    assert_eq!(ids(&r), ["float-total-order"]);

    // Combinator and comparator split across lines still match.
    let r = run(spec(
        "grtx-bvh",
        Role::Src,
        false,
        r##"
pub fn best(v: &[f32]) -> Option<&f32> {
    v.iter().max_by(|a, b| {
        a.partial_cmp(b).expect("no NaN here")
    })
}
"##,
    ));
    assert_eq!(ids(&r), ["float-total-order"]);
}

#[test]
fn float_total_order_clean_with_total_cmp() {
    let r = run(spec(
        "grtx-bvh",
        Role::Src,
        false,
        r##"
pub fn sort_hits(v: &mut [f32]) {
    v.sort_by(|a, b| a.total_cmp(b));
}
"##,
    ));
    assert!(r.is_clean());
}

#[test]
fn float_total_order_trailing_waiver() {
    let r = run(spec(
        "grtx-bvh",
        Role::Src,
        false,
        r##"
pub fn sort_ids(v: &mut [(u32, f32)]) {
    v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap()); // grtx-allow(float-total-order): integer keys, total by construction
}
"##,
    ));
    assert!(r.is_clean());
    assert!(r.waivers[0].used);
}

// ---------------------------------------------------------------------------
// fma-containment

#[test]
fn fma_containment_fires_outside_feature_region_and_outside_math() {
    let r = run(spec(
        "grtx-math",
        Role::Src,
        false,
        r##"
pub fn lerp(a: f32, b: f32, t: f32) -> f32 {
    t.mul_add(b - a, a)
}
"##,
    ));
    assert_eq!(ids(&r), ["fma-containment"]);

    // Even a feature-gated region is not enough outside grtx-math.
    let r = run(spec(
        "grtx-render",
        Role::Src,
        false,
        r##"
pub fn shade(x: f32) -> f32 {
    #[cfg(feature = "fma")]
    let y = x.mul_add(2.0, 1.0);
    #[cfg(not(feature = "fma"))]
    let y = x * 2.0 + 1.0;
    y
}
"##,
    ));
    assert_eq!(ids(&r), ["fma-containment"]);

    // No region is sanctioned: a feature gate inside grtx-math fires too.
    let r = run(spec(
        "grtx-math",
        Role::Src,
        false,
        r##"
pub fn slab(min: f32, inv: f32, n: f32) -> f32 {
    #[cfg(feature = "fma")]
    let t = min.mul_add(inv, n);
    #[cfg(not(feature = "fma"))]
    let t = min * inv + n;
    t
}
"##,
    ));
    assert_eq!(ids(&r), ["fma-containment"]);
}

#[test]
fn fma_containment_trailing_waiver() {
    let r = run(spec(
        "grtx-render",
        Role::Src,
        false,
        r##"
pub fn tonemap(x: f32) -> f32 {
    x.mul_add(0.5, 0.5) // grtx-allow(fma-containment): display-only path, outside the bit-identity surface
}
"##,
    ));
    assert!(r.is_clean());
    assert!(r.waivers[0].used);
}

// ---------------------------------------------------------------------------
// no-unscoped-spawn

#[test]
fn no_unscoped_spawn_fires_on_thread_spawn() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
pub fn launch() {
    std::thread::spawn(|| work());
}
"##,
    ));
    assert_eq!(ids(&r), ["no-unscoped-spawn"]);
}

#[test]
fn no_unscoped_spawn_allows_scoped_spawn() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
pub fn fan_out(items: &[u32]) {
    std::thread::scope(|s| {
        for chunk in items.chunks(8) {
            s.spawn(move || work(chunk));
        }
    });
}
"##,
    ));
    assert!(r.is_clean(), "scoped spawns are the sanctioned pattern");
}

#[test]
fn no_unscoped_spawn_trailing_waiver() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
pub fn watchdog() {
    std::thread::spawn(|| monitor()); // grtx-allow(no-unscoped-spawn): side-channel watchdog, never merges results
}
"##,
    ));
    assert!(r.is_clean());
    assert!(r.waivers[0].used);
}

// ---------------------------------------------------------------------------
// panic-containment

#[test]
fn panic_containment_fires_outside_the_fault_and_pipeline_crates() {
    let content = r##"
pub fn shield<F: FnOnce() -> u32 + std::panic::UnwindSafe>(f: F) -> Option<u32> {
    std::panic::catch_unwind(f).ok()
}
"##;
    let r = run(spec("grtx-render", Role::Src, false, content));
    assert_eq!(ids(&r), ["panic-containment"]);
    assert_eq!(r.findings[0].line, 3);

    // Tests and examples are in scope too: a swallowed panic in a test
    // harness hides the payload the poison-path contract pins.
    let r = run(spec(
        "grtx-core",
        Role::Tests,
        false,
        r##"
fn rethrow(payload: Box<dyn std::any::Any + Send>) -> ! {
    std::panic::resume_unwind(payload)
}
"##,
    ));
    assert_eq!(ids(&r), ["panic-containment"]);
}

#[test]
fn panic_containment_clean_inside_fault_and_pipeline() {
    let content = r##"
pub fn shield<F: FnOnce() -> u32 + std::panic::UnwindSafe>(f: F) -> Option<u32> {
    std::panic::catch_unwind(f).ok()
}
"##;
    for (crate_name, role) in [
        ("grtx-fault", Role::Src),
        ("grtx-pipeline", Role::Src),
        ("grtx-pipeline", Role::Tests),
    ] {
        let r = run(spec(crate_name, role, false, content));
        assert!(
            r.is_clean(),
            "{crate_name}/{} must be exempt: {:?}",
            role.name(),
            r.findings
        );
    }
}

#[test]
fn panic_containment_trailing_waiver() {
    let r = run(spec(
        "grtx-bench",
        Role::Src,
        false,
        r##"
pub fn harness(run: fn()) {
    let _ = std::panic::catch_unwind(run); // grtx-allow(panic-containment): bench isolation only, payload is rethrown by the driver
}
"##,
    ));
    assert!(r.is_clean());
    assert!(r.waivers[0].used);
}

// ---------------------------------------------------------------------------
// Waiver meta-lints.

#[test]
fn waiver_without_reason_is_a_finding() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
use std::collections::BTreeMap; // grtx-allow(deterministic-collections)
"##,
    ));
    assert_eq!(ids(&r), ["waiver-needs-reason"]);
}

#[test]
fn waiver_naming_unknown_lint_is_a_finding() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
pub fn f() {} // grtx-allow(no-such-lint): misspelled on purpose
"##,
    ));
    assert_eq!(ids(&r), ["waiver-unknown-lint"]);
}

#[test]
fn unused_waiver_is_recorded_as_unused() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
pub fn f() {} // grtx-allow(no-wall-clock): nothing here actually needs this
"##,
    ));
    assert!(r.is_clean());
    assert_eq!(r.waivers.len(), 1);
    assert!(!r.waivers[0].used, "nothing was suppressed");
}

// ---------------------------------------------------------------------------
// String/comment immunity and report plumbing.

#[test]
fn lint_tokens_inside_strings_and_comments_never_fire() {
    let r = run(spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
// A doc mentioning std::thread::spawn and partial_cmp must not fire,
// and neither must string payloads.
pub fn describe() -> &'static str {
    "std::thread::spawn(HashMap, Instant, mul_add)"
}
"##,
    ));
    assert!(r.is_clean(), "unexpected: {:?}", r.findings);
}

#[test]
fn report_counts_and_json_schema() {
    let fire = spec(
        "grtx-sim",
        Role::Src,
        false,
        r##"
use std::collections::HashMap;
"##,
    );
    let r = analyze_files(&[fire]);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.files_scanned, 1);
    let json = r.to_json();
    assert!(json.contains(r#""schema":"grtx-analyze-v1""#), "{json}");
    assert!(json.contains(r#""lint":"deterministic-collections""#));
    let text = r.to_text();
    assert!(text.contains("deterministic-collections"));
    assert!(text.contains("1 finding(s)"));
}
