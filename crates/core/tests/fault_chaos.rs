//! The chaos matrix: deterministic fault injection across every
//! injectable site × thread count × shard count.
//!
//! Two acceptance bars from the fault-injection contract:
//!
//! * **Recovery is invisible** — transient faults recovered within the
//!   retry budget leave the stream bit-identical to a fault-free run of
//!   the same configuration, down to the byte-exact `grtx-prof-v1`
//!   profiler artifacts.
//! * **Quarantine is surgical** — a permanent fault fails exactly its
//!   frame, which surfaces as an ordered [`StreamFrame::Failed`], while
//!   every other frame renders bit-identically to the fault-free run.

use grtx::{
    silence_injected_panics, ExperimentResult, FaultInjector, FaultPlan, FaultSite, GrtxError,
    PipelineVariant, Profiler, RetryPolicy, RunOptions, SceneSetup, StreamFrame, Telemetry,
};
use grtx_scene::SceneKind;

const FRAMES: usize = 4;

fn tiny_setup() -> SceneSetup {
    SceneSetup::evaluation(SceneKind::Room, 2000, 24, 11)
}

fn assert_results_identical(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(
        a.report.image.pixels(),
        b.report.image.pixels(),
        "{what}: image"
    );
    assert_eq!(a.report.cycles, b.report.cycles, "{what}: cycles");
    assert_eq!(a.report.stats, b.report.stats, "{what}: stats");
    assert_eq!(
        a.report.l2_accesses, b.report.l2_accesses,
        "{what}: L2 accesses"
    );
    assert_eq!(
        a.report.dram_accesses, b.report.dram_accesses,
        "{what}: DRAM accesses"
    );
    assert_eq!(a.size, b.size, "{what}: structure size");
    assert_eq!(a.height, b.height, "{what}: structure height");
}

fn assert_frames_identical(a: &[StreamFrame], b: &[StreamFrame], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: frame count");
    for (x, y) in a.iter().zip(b) {
        let tag = format!("{what}, frame {}", x.index());
        assert_eq!(x.index(), y.index(), "{tag}: index");
        assert_eq!(x.rebuilt(), y.rebuilt(), "{tag}: rebuilt");
        assert_eq!(x.results().len(), y.results().len(), "{tag}: view count");
        for (p, q) in x.results().iter().zip(y.results()) {
            assert_results_identical(p, q, &tag);
        }
    }
}

/// Transient faults at all four injectable sites, recovered by retries,
/// across the full threads × shards grid: results *and*
/// profiler artifacts are bit-identical to the fault-free run.
#[test]
fn recovered_chaos_streams_are_bit_identical_to_fault_free_runs() {
    silence_injected_panics();
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let plan = FaultPlan::new()
        .transient(FaultSite::Partition, 1, 1)
        .transient(FaultSite::Build, 2, 2)
        .transient(FaultSite::Fragment, 0, 1)
        .transient(FaultSite::Merge, 3, 2);
    for threads in [1usize, 4] {
        for shards in [1usize, 4] {
            let what = format!("chaos threads={threads} shards={shards}");
            let clean = RunOptions {
                k: 8,
                threads,
                shards,
                retry: RetryPolicy::resilient(3),
                profiler: Profiler::enabled(),
                ..Default::default()
            };
            let injector = FaultInjector::with_plan(plan.clone());
            let chaos = RunOptions {
                profiler: Profiler::enabled(),
                faults: injector.clone(),
                ..clean.clone()
            };
            let source = setup.jitter_source(0.05, 2);
            let baseline = setup
                .try_run_stream(&source, FRAMES, &variant, &clean, 1)
                .expect("valid configuration");
            let recovered = setup
                .try_run_stream(&source, FRAMES, &variant, &chaos, 1)
                .expect("valid configuration");
            assert!(
                recovered.iter().all(|f| !f.is_failed()),
                "{what}: transient faults within the retry budget must recover"
            );
            assert_frames_identical(&recovered, &baseline, &what);
            // The profiler artifacts agree byte for byte: retried
            // attempts probe before any engine work, so recovery
            // leaves no trace on the simulated-cycle record.
            let clean_report = clean.profiler.report().expect("enabled handle reports");
            let chaos_report = chaos.profiler.report().expect("enabled handle reports");
            assert_eq!(
                clean_report.to_json(),
                chaos_report.to_json(),
                "{what}: grtx-prof-v1 report must be byte-identical"
            );
            assert_eq!(
                clean.profiler.chrome_trace(),
                chaos.profiler.chrome_trace(),
                "{what}: virtual-clock trace must be byte-identical"
            );
            // Every planned transient actually fired at least once.
            let log = injector.log();
            for site in FaultSite::INJECTABLE {
                assert!(
                    log.count_for(site) >= 1,
                    "{what}: no injection recorded at {}",
                    site.name()
                );
            }
        }
    }
}

/// A permanent build fault quarantines exactly its frame: the stream
/// yields an ordered [`StreamFrame::Failed`] carrying the typed
/// [`GrtxError::StageFailed`], later frames render bit-identically, and
/// the telemetry counters account for every injection.
#[test]
fn permanent_faults_quarantine_their_frame_and_later_frames_flow() {
    silence_injected_panics();
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let what = "permanent";
    let telemetry = Telemetry::enabled();
    let injector = FaultInjector::with_plan(FaultPlan::new().permanent(FaultSite::Build, 1));
    let chaos = RunOptions {
        k: 8,
        threads: 2,
        faults: injector.clone(),
        retry: RetryPolicy::resilient(2),
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let clean = RunOptions {
        k: 8,
        threads: 2,
        retry: RetryPolicy::resilient(2),
        ..Default::default()
    };
    let source = setup.jitter_source(0.05, 2);
    let frames = setup
        .try_run_stream(&source, FRAMES, &variant, &chaos, 1)
        .expect("valid configuration");
    let baseline = setup
        .try_run_stream(&source, FRAMES, &variant, &clean, 1)
        .expect("valid configuration");
    assert_eq!(frames.len(), FRAMES, "{what}: every frame settles");
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(frame.index(), i, "{what}: strict frame order");
    }
    // Frame 1 (a reuse frame — its build task still probes) fails
    // with the typed error after exhausting both attempts.
    match frames[1].error().expect("frame 1 must be quarantined") {
        GrtxError::StageFailed {
            stage,
            frame,
            attempts,
            ..
        } => {
            assert_eq!(*stage, FaultSite::Build, "{what}: attributed site");
            assert_eq!(*frame, 1, "{what}: attributed frame");
            assert_eq!(*attempts, 2, "{what}: exhausted the retry budget");
        }
        other => panic!("{what}: unexpected error {other}"),
    }
    // Every other frame rendered, bit-identical to the fault-free
    // run (frame 3 reuses frame 2's structure in both runs).
    for i in [0usize, 2, 3] {
        assert!(!frames[i].is_failed(), "{what}: frame {i} must render");
        assert_eq!(frames[i].results().len(), baseline[i].results().len());
        for (p, q) in frames[i].results().iter().zip(baseline[i].results()) {
            assert_results_identical(p, q, &format!("{what}, frame {i}"));
        }
    }
    // The log holds one record per failed attempt, all permanent,
    // and telemetry agrees with it.
    let log = injector.log();
    assert_eq!(log.len(), 2, "{what}: one record per attempt");
    assert!(log.records.iter().all(|r| r.permanent), "{what}");
    let report = telemetry.report().expect("enabled handle reports");
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(counter("fault.injected"), 2, "{what}: injections counted");
    assert_eq!(counter("fault.retries"), 1, "{what}: one retry granted");
    assert_eq!(counter("fault.frames_failed"), 1, "{what}: one quarantine");
}
