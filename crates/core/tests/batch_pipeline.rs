//! The batched multi-camera pipeline's contract through the experiment
//! layer: `SceneSetup::try_run_batch` produces per-view results
//! bit-identical to standalone runs, at any thread count, with one
//! shared acceleration-structure build.

use grtx::{Camera, CameraModel, PipelineVariant, RunOptions, SceneSetup};
use grtx_math::Vec3;
use grtx_scene::SceneKind;

fn tiny_setup() -> SceneSetup {
    SceneSetup::evaluation(SceneKind::Room, 1500, 28, 11)
}

/// Per-view bit-identity: a batch over the orbit sweep matches a
/// standalone render of each orbit camera, across thread counts.
#[test]
fn batched_views_match_standalone_runs_across_threads() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let cameras = setup.orbit_cameras(3);
    for threads in [1usize, 4] {
        let opts = RunOptions {
            k: 8,
            threads,
            ..Default::default()
        };
        let batch = setup.try_run_batch(&variant, &opts, &cameras).unwrap();
        assert_eq!(batch.len(), cameras.len());
        let accel = setup.build_accel(&variant, &grtx::LayoutConfig::default());
        for (i, (camera, batched)) in cameras.iter().zip(&batch).enumerate() {
            // Standalone render of the same camera via the engine path
            // the experiment layer uses for its evaluation camera.
            let standalone = setup
                .try_run_batch_with_accel(&accel, &variant, &opts, std::slice::from_ref(camera))
                .unwrap()
                .pop()
                .expect("one camera yields one result");
            let tag = format!("view {i}, {threads} threads");
            assert_eq!(
                standalone.report.image.pixels(),
                batched.report.image.pixels(),
                "{tag}: image"
            );
            assert_eq!(
                standalone.report.cycles, batched.report.cycles,
                "{tag}: cycles"
            );
            assert_eq!(
                standalone.report.stats, batched.report.stats,
                "{tag}: stats"
            );
            assert_eq!(
                standalone.report.footprint_bytes, batched.report.footprint_bytes,
                "{tag}: footprint"
            );
        }
    }
}

/// A fisheye view inside a batch keeps the whole contract, including
/// the background fix for pixels outside the image circle.
#[test]
fn batch_with_fisheye_view_matches_and_shows_background() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx_sw();
    let fisheye = Camera::look_at(
        28,
        28,
        CameraModel::Fisheye { max_theta: 1.4 },
        setup.profile.camera_eye(),
        Vec3::ZERO,
        Vec3::Y,
    );
    let cameras = vec![setup.camera.clone(), fisheye];
    let opts = RunOptions::default();
    let batch = setup.try_run_batch(&variant, &opts, &cameras).unwrap();
    // Same fisheye view standalone.
    let accel = setup.build_accel(&variant, &grtx::LayoutConfig::default());
    let standalone = setup
        .try_run_batch_with_accel(&accel, &variant, &opts, &cameras[1..])
        .unwrap()
        .pop()
        .unwrap();
    assert_eq!(
        standalone.report.image.pixels(),
        batch[1].report.image.pixels()
    );
    // The default background is black; every pixel outside the image
    // circle must hold exactly that, and the in-circle render must not
    // be degenerate.
    assert!(cameras[1].primary_ray(0, 0).is_none());
    assert!(batch[1].report.image.mean_luminance() > 0.0);
}

/// Effects apply batch-wide and per-view results still match.
#[test]
fn batch_with_effects_matches_standalone() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx_hw();
    let opts = RunOptions {
        effects_seed: Some(5),
        threads: 4,
        ..Default::default()
    };
    let cameras = setup.orbit_cameras(2);
    let batch = setup.try_run_batch(&variant, &opts, &cameras).unwrap();
    let accel = setup.build_accel(&variant, &grtx::LayoutConfig::default());
    for (camera, batched) in cameras.iter().zip(&batch) {
        let standalone = setup
            .try_run_batch_with_accel(&accel, &variant, &opts, std::slice::from_ref(camera))
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(
            standalone.report.image.pixels(),
            batched.report.image.pixels()
        );
        assert_eq!(standalone.report.cycles, batched.report.cycles);
        assert_eq!(standalone.report.secondary, batched.report.secondary);
    }
}

/// The evaluation camera's batched result equals `SceneSetup::try_run` —
/// the single-view path and the batch path are the same code.
#[test]
fn run_is_the_one_view_batch() {
    let setup = tiny_setup();
    let variant = PipelineVariant::baseline();
    let opts = RunOptions::default();
    let single = setup.try_run(&variant, &opts).unwrap();
    let batch = setup
        .try_run_batch(&variant, &opts, std::slice::from_ref(&setup.camera))
        .unwrap()
        .pop()
        .unwrap();
    assert_eq!(single.report.image.pixels(), batch.report.image.pixels());
    assert_eq!(single.report.cycles, batch.report.cycles);
    assert_eq!(single.report.stats, batch.report.stats);
    assert_eq!(single.size, batch.size);
    assert_eq!(single.height, batch.height);
}
