//! Deterministic chaos smoke: a seed-scattered fault plan plus one
//! permanent fault, driven through the resilient stream, with the
//! machine-readable `grtx-fault-v1` report dumped for CI validation.
//!
//! ```text
//! cargo run --release --example fault_chaos [-- <report-path>]
//! ```
//!
//! The run proves both halves of the fault-injection contract in one
//! pass and records the evidence:
//!
//! * every transient fault recovers within the retry budget and the
//!   recovered frames are bit-identical to a fault-free reference run;
//! * the permanent build fault quarantines exactly its frame, which
//!   surfaces as an ordered failed frame while later frames render.
//!
//! The process exits nonzero if either bar is missed, so the CI job
//! fails on the contract, not just on panics.

use grtx::{
    silence_injected_panics, ExperimentResult, FaultInjector, FaultPlan, FaultSite,
    PipelineVariant, RetryPolicy, RunOptions, SceneSetup, StreamFrame, Telemetry,
};
use grtx_scene::SceneKind;
use grtx_telemetry::escape_json;
use std::path::PathBuf;

/// Pinned scatter seed — the report is reproducible byte for byte.
const SEED: u64 = 2026;
const FRAMES: usize = 6;
const DEPTH: usize = 3;
/// The frame the permanent build fault quarantines.
const PERMANENT_FRAME: u64 = 2;

fn main() -> std::io::Result<()> {
    silence_injected_panics();
    let path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("fault.json"));

    let setup = SceneSetup::evaluation(SceneKind::Room, 2000, 24, 11);
    let variant = PipelineVariant::grtx();
    let source = setup.jitter_source(0.05, 2);
    let clean = RunOptions {
        k: 8,
        threads: 4,
        shards: 4,
        retry: RetryPolicy::resilient(3),
        ..Default::default()
    };
    let baseline = setup
        .try_run_stream(&source, FRAMES, &variant, &clean, DEPTH)
        .expect("valid configuration");

    // The permanent spec comes first: `fault_for` takes the first
    // matching spec, so a scattered transient on the same cell cannot
    // shadow the quarantine under test.
    let mut plan = FaultPlan::new().permanent(FaultSite::Build, PERMANENT_FRAME);
    for spec in FaultPlan::scatter(SEED, &FaultSite::INJECTABLE, FRAMES as u64, 350, 1).specs() {
        plan = plan.with(*spec);
    }
    let injector = FaultInjector::with_plan(plan);
    let telemetry = Telemetry::enabled();
    let chaos = RunOptions {
        faults: injector.clone(),
        telemetry: telemetry.clone(),
        ..clean.clone()
    };
    let frames = setup
        .try_run_stream(&source, FRAMES, &variant, &chaos, DEPTH)
        .expect("valid configuration");

    let matches_reference = check_against_reference(&frames, &baseline);
    let log = injector.log();
    let report = telemetry.report().expect("enabled telemetry reports");
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"grtx-fault-v1\",\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"frames\": {FRAMES},\n"));
    json.push_str(&format!("  \"depth\": {DEPTH},\n"));
    json.push_str("  \"counters\": {\n");
    json.push_str(&format!(
        "    \"injected\": {},\n    \"retries\": {},\n    \"frames_failed\": {}\n  }},\n",
        counter("fault.injected"),
        counter("fault.retries"),
        counter("fault.frames_failed"),
    ));
    json.push_str("  \"records\": [\n");
    for (i, r) in log.records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"site\": \"{}\", \"frame\": {}, \"camera\": {}, \"unit\": {}, \
             \"attempt\": {}, \"permanent\": {}}}{}\n",
            r.site.name(),
            r.key >> 32,
            r.key & 0xFFFF_FFFF,
            r.unit,
            r.attempt,
            r.permanent,
            if i + 1 < log.records.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"frame_status\": [\n");
    for (i, frame) in frames.iter().enumerate() {
        let row = match frame.error() {
            Some(error) => format!(
                "{{\"index\": {}, \"status\": \"failed\", \"error\": \"{}\"}}",
                frame.index(),
                escape_json(&error.to_string()),
            ),
            None => format!(
                "{{\"index\": {}, \"status\": \"rendered\", \"rebuilt\": {}}}",
                frame.index(),
                frame.rebuilt(),
            ),
        };
        json.push_str(&format!(
            "    {row}{}\n",
            if i + 1 < frames.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"matches_reference\": {matches_reference}\n}}\n"
    ));

    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, &json)?;

    println!(
        "chaos stream: {} frames, {} injections ({} retried), {} quarantined",
        frames.len(),
        log.len(),
        counter("fault.retries"),
        counter("fault.frames_failed"),
    );
    println!("fault report: {}", path.display());
    if !matches_reference {
        eprintln!("fault_chaos: FAIL: stream diverged from the fault-free reference");
        std::process::exit(1);
    }
    Ok(())
}

/// The acceptance predicate: exactly `PERMANENT_FRAME` fails (with the
/// build stage attributed), every other frame renders bit-identically
/// to the fault-free baseline.
fn check_against_reference(frames: &[StreamFrame], baseline: &[StreamFrame]) -> bool {
    if frames.len() != baseline.len() {
        return false;
    }
    frames.iter().zip(baseline).enumerate().all(|(i, (f, b))| {
        if f.index() != i || b.index() != i {
            return false;
        }
        if i as u64 == PERMANENT_FRAME {
            return f.is_failed();
        }
        !f.is_failed()
            && f.results().len() == b.results().len()
            && f.results().iter().zip(b.results()).all(results_identical)
    })
}

fn results_identical((a, b): (&ExperimentResult, &ExperimentResult)) -> bool {
    a.report.image.pixels() == b.report.image.pixels()
        && a.report.cycles == b.report.cycles
        && a.report.stats == b.report.stats
        && a.size == b.size
        && a.height == b.height
}
