//! Cross-`TraceMode` image equivalence at 32×32: the three tracing
//! disciplines of Fig. 6 must render the same pixels — only their cost
//! profiles differ.

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;

fn modes(setup: &SceneSetup, k: usize) -> [grtx::Image; 3] {
    // SingleRound via the option flag; restart and checkpoint via the
    // matching pipeline variants (same monolithic structure, so the
    // traversal arithmetic is identical across all three).
    let single = setup
        .try_run(
            &PipelineVariant::baseline(),
            &RunOptions {
                k,
                single_round: true,
                ..Default::default()
            },
        )
        .unwrap();
    let restart = setup
        .try_run(
            &PipelineVariant::baseline(),
            &RunOptions {
                k,
                ..Default::default()
            },
        )
        .unwrap();
    let checkpoint = setup
        .try_run(
            &PipelineVariant::grtx_hw(),
            &RunOptions {
                k,
                ..Default::default()
            },
        )
        .unwrap();
    [
        single.report.image,
        restart.report.image,
        checkpoint.report.image,
    ]
}

#[test]
fn all_trace_modes_render_identical_images_at_32x32() {
    for (kind, divisor) in [
        (SceneKind::Train, 500),
        (SceneKind::Bonsai, 500),
        (SceneKind::Drjohnson, 1000),
    ] {
        let setup = SceneSetup::evaluation(kind, divisor, 32, 42);
        for k in [4, 16] {
            let [single, restart, checkpoint] = modes(&setup, k);
            assert_eq!(
                single.psnr(&restart),
                f64::INFINITY,
                "{kind} k={k}: SingleRound vs MultiRoundRestart must be bitwise identical"
            );
            assert_eq!(
                restart.psnr(&checkpoint),
                f64::INFINITY,
                "{kind} k={k}: MultiRoundRestart vs MultiRoundCheckpoint must be bitwise identical"
            );
        }
    }
}

#[test]
fn trace_modes_agree_on_two_level_structures() {
    let setup = SceneSetup::evaluation(SceneKind::Room, 500, 32, 9);
    let restart = setup
        .try_run(
            &PipelineVariant::grtx_sw(),
            &RunOptions {
                k: 8,
                ..Default::default()
            },
        )
        .unwrap();
    let checkpoint = setup
        .try_run(
            &PipelineVariant::grtx(),
            &RunOptions {
                k: 8,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(
        restart.report.image.psnr(&checkpoint.report.image),
        f64::INFINITY,
        "TLAS restart vs TLAS checkpoint must be bitwise identical"
    );
}
