//! The parallel render engine's contract, enforced end-to-end through
//! the experiment layer: thread count changes wall-clock time only —
//! never images, cycles, or statistics.

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;
use std::time::Instant;

fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Bit-identity across thread counts, through `RunOptions::threads`.
#[test]
fn thread_count_is_invisible_in_every_report_field() {
    let setup = SceneSetup::evaluation(SceneKind::Train, 500, 48, 42);
    let variant = PipelineVariant::grtx();
    let run = |threads: usize| {
        setup
            .try_run(
                &variant,
                &RunOptions {
                    k: 8,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap()
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        let parallel = run(threads);
        assert_eq!(
            serial.report.image.pixels(),
            parallel.report.image.pixels(),
            "{threads} threads: image bytes must be identical"
        );
        assert_eq!(
            serial.report.cycles, parallel.report.cycles,
            "{threads} threads: cycles"
        );
        assert_eq!(
            serial.report.stats, parallel.report.stats,
            "{threads} threads: SimStats"
        );
        assert_eq!(
            serial.report.footprint_bytes, parallel.report.footprint_bytes,
            "{threads} threads: footprint"
        );
        assert_eq!(
            serial.report.l2_accesses, parallel.report.l2_accesses,
            "{threads} threads: L2 accesses"
        );
    }
}

/// Secondary rays (Fig. 23 effects) follow the same contract.
#[test]
fn thread_count_is_invisible_with_secondary_rays() {
    let setup = SceneSetup::evaluation(SceneKind::Room, 1000, 32, 7);
    let variant = PipelineVariant::grtx_hw();
    let run = |threads: usize| {
        setup
            .try_run(
                &variant,
                &RunOptions {
                    effects_seed: Some(5),
                    threads,
                    ..Default::default()
                },
            )
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.report.image.pixels(), parallel.report.image.pixels());
    assert_eq!(serial.report.cycles, parallel.report.cycles);
    assert_eq!(serial.report.stats, parallel.report.stats);
}

/// Wall-clock speedup on the acceptance workload: a 128×128 Train scene
/// with ≥ 4 worker threads must beat the serial path by > 1.5×.
///
/// Wall-clock assertions are too noisy for shared CI runners, so this
/// only arms itself on dedicated hardware: set `GRTX_PERF=1` with ≥ 4
/// cores available (both conditions are checked, with a note when
/// skipping).
#[test]
fn four_threads_speed_up_train_128() {
    if std::env::var("GRTX_PERF").is_err() {
        eprintln!("skipping speedup assertion: set GRTX_PERF=1 on dedicated >=4-core hardware");
        return;
    }
    let hw = hw_threads();
    if hw < 4 {
        eprintln!("skipping speedup assertion: needs >= 4 cores, host has {hw}");
        return;
    }
    let setup = SceneSetup::evaluation(SceneKind::Train, 200, 128, 42);
    let variant = PipelineVariant::grtx();
    let accel = setup.build_accel(&variant, &grtx::LayoutConfig::default());
    let time = |threads: usize| {
        let opts = RunOptions {
            k: 8,
            threads,
            ..Default::default()
        };
        // Warm the page cache / allocator, then time the best of two
        // runs to damp scheduler noise.
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            let result = setup.try_run_with_accel(&accel, &variant, &opts).unwrap();
            best = best.min(start.elapsed().as_secs_f64());
            assert!(result.report.cycles > 0);
        }
        best
    };
    let serial = time(1);
    let parallel = time(4);
    let speedup = serial / parallel;
    assert!(
        speedup > 1.5,
        "4 threads must be > 1.5x faster than 1 (got {speedup:.2}x: {serial:.3}s vs {parallel:.3}s)"
    );
}
