//! The failure-path determinism contract: the same seed-scattered
//! `FaultPlan` produces the same `FaultLog` — and the same per-frame
//! outcomes — at any thread count, and recovered
//! transient-fault streams are bit-identical to fault-free runs.

use grtx_fault::{
    silence_injected_panics, FaultInjector, FaultLog, FaultPlan, FaultSite, RetryPolicy,
};
use grtx_pipeline::{try_run_stream, FrameOutcome, JitterSource, StreamConfig};
use grtx_scene::synth::generate_scene;
use grtx_scene::{Camera, CameraModel, SceneKind};
use proptest::prelude::*;
use std::sync::Arc;

const FRAMES: usize = 5;

fn source() -> JitterSource {
    let scene = Arc::new(generate_scene(
        SceneKind::Train.profile().with_gaussian_budget(120),
        7,
    ));
    let camera = Camera::look_at(
        14,
        14,
        CameraModel::Pinhole { fov_y: 0.9 },
        SceneKind::Train.profile().camera_eye(),
        grtx_math::Vec3::ZERO,
        grtx_math::Vec3::Y,
    );
    JitterSource::with_period(scene, vec![camera], 0.15, 2)
}

fn run_scattered(seed: u64, threads: usize) -> (Vec<FrameOutcome>, FaultLog) {
    let plan = FaultPlan::scatter(seed, &FaultSite::INJECTABLE, FRAMES as u64, 400, 1);
    let injector = FaultInjector::with_plan(plan);
    let config = StreamConfig {
        threads,
        faults: injector.clone(),
        retry: RetryPolicy::resilient(3),
        ..Default::default()
    };
    let outcomes = try_run_stream(&source(), FRAMES, &config).expect("valid configuration");
    (outcomes, injector.log())
}

fn assert_outcomes_identical(label: &str, a: &[FrameOutcome], b: &[FrameOutcome]) {
    assert_eq!(a.len(), b.len(), "{label}: frame count");
    for (x, y) in a.iter().zip(b) {
        let tag = format!("{label}, frame {}", x.index());
        assert_eq!(x.index(), y.index(), "{tag}: index");
        assert_eq!(x.is_failed(), y.is_failed(), "{tag}: failure status");
        match (x.rendered(), y.rendered()) {
            (Some(r), Some(s)) => {
                assert_eq!(r.rebuilt, s.rebuilt, "{tag}: rebuilt");
                assert_eq!(r.size, s.size, "{tag}: size report");
                assert_eq!(r.reports.len(), s.reports.len(), "{tag}: view count");
                for (view, (p, q)) in r.reports.iter().zip(&s.reports).enumerate() {
                    let tag = format!("{tag}, view {view}");
                    assert_eq!(p.image.pixels(), q.image.pixels(), "{tag}: image");
                    assert_eq!(p.cycles, q.cycles, "{tag}: cycles");
                    assert_eq!(p.stats, q.stats, "{tag}: stats");
                }
            }
            (None, None) => assert_eq!(x.error(), y.error(), "{tag}: error"),
            _ => unreachable!("failure status compared above"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed → same `FaultLog` and same outcomes, at every thread
    /// count: the probe set never depends on the schedule.
    #[test]
    fn fault_log_is_schedule_independent(seed in 0u64..512) {
        silence_injected_panics();
        let (reference_outcomes, reference_log) = run_scattered(seed, 1);
        for threads in [1usize, 4] {
            let (outcomes, log) = run_scattered(seed, threads);
            prop_assert_eq!(
                &log,
                &reference_log,
                "seed {} threads {}: fault log diverged",
                seed,
                threads
            );
            assert_outcomes_identical(
                &format!("seed {seed} threads {threads}"),
                &outcomes,
                &reference_outcomes,
            );
        }
    }
}

/// Transient faults recovered by retries leave no trace in the results:
/// the stream is bit-identical to a fault-free run of the same
/// configuration, and every injection was logged.
#[test]
fn recovered_streams_match_fault_free_runs() {
    silence_injected_panics();
    let plan = FaultPlan::new()
        .transient(FaultSite::Partition, 0, 1)
        .transient(FaultSite::Build, 2, 2)
        .transient(FaultSite::Fragment, 1, 1)
        .transient(FaultSite::Merge, 3, 2);
    let injector = FaultInjector::with_plan(plan);
    let faulty = StreamConfig {
        threads: 2,
        faults: injector.clone(),
        retry: RetryPolicy::resilient(3),
        ..Default::default()
    };
    let clean = StreamConfig {
        threads: 2,
        retry: RetryPolicy::resilient(3),
        ..Default::default()
    };
    let recovered = try_run_stream(&source(), FRAMES, &faulty).expect("valid configuration");
    let baseline = try_run_stream(&source(), FRAMES, &clean).expect("valid configuration");
    assert!(
        recovered.iter().all(|o| !o.is_failed()),
        "transient faults within the retry budget must recover"
    );
    assert_outcomes_identical("recovered", &recovered, &baseline);
    let log = injector.log();
    assert!(
        log.count_for(FaultSite::Build) >= 2,
        "the frame-2 build fault fails twice before succeeding"
    );
    assert!(log.count_for(FaultSite::Merge) >= 2);
}
