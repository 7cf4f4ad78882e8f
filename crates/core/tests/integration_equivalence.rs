//! Property-based equivalence tests across the whole stack: GRTX's
//! optimizations must never change what is rendered — only how fast.

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_bvh::{AccelStruct, LayoutConfig, NullObserver};
use grtx_math::{Ray, Vec3};
use grtx_render::tracer::{RayTracer, TraceMode, TraceParams};
use grtx_scene::SceneKind;
use proptest::prelude::*;

fn tiny_setup(seed: u64) -> SceneSetup {
    SceneSetup::evaluation(SceneKind::Room, 4000, 16, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whole-image equivalence of the four Fig. 13 variants for random
    /// scene seeds and k values.
    ///
    /// Checkpointing must be *bitwise* invisible (same geometry, same
    /// arithmetic). Across structure organizations, the triangle test
    /// runs in world space (monolithic) vs instance space (TLAS), so
    /// hits differ by float rounding; there the images must agree to
    /// high PSNR.
    #[test]
    fn fig13_variants_render_identical_images(seed in 0u64..50, k in 2usize..24) {
        let setup = tiny_setup(seed);
        let opts = RunOptions { k, ..Default::default() };
        let baseline = setup.try_run(&PipelineVariant::baseline(), &opts).unwrap().report.image;
        let hw = setup.try_run(&PipelineVariant::grtx_hw(), &opts).unwrap().report.image;
        prop_assert_eq!(baseline.psnr(&hw), f64::INFINITY,
            "GRTX-HW must be bitwise identical to baseline (seed {}, k {})", seed, k);

        let sw = setup.try_run(&PipelineVariant::grtx_sw(), &opts).unwrap().report.image;
        let grtx = setup.try_run(&PipelineVariant::grtx(), &opts).unwrap().report.image;
        prop_assert_eq!(sw.psnr(&grtx), f64::INFINITY,
            "GRTX must be bitwise identical to GRTX-SW (seed {}, k {})", seed, k);

        let cross = baseline.psnr(&sw);
        prop_assert!(cross > 50.0,
            "monolithic vs TLAS images diverged: {:.1} dB (seed {}, k {})", cross, seed, k);
    }

    /// Per-ray blend sequences agree between restart and checkpoint
    /// tracing for random rays (stronger than image equality: order and
    /// identity of every blended Gaussian match).
    #[test]
    fn blend_sequences_match_for_random_rays(
        seed in 0u64..50,
        k in 2usize..16,
        ox in -8.0f32..8.0, oy in -4.0f32..4.0,
        dx in -1.0f32..1.0, dy in -1.0f32..1.0, dz in -1.0f32..1.0,
    ) {
        let dir = Vec3::new(dx, dy, dz);
        prop_assume!(dir.length() > 1e-2);
        let setup = tiny_setup(seed);
        let accel = AccelStruct::build(
            &setup.scene,
            grtx::BoundingPrimitive::Mesh20,
            true,
            &LayoutConfig::default(),
        );
        let ray = Ray::new(Vec3::new(ox, oy, -12.0), dir.normalized());

        let run = |mode: TraceMode| {
            let params = TraceParams { k, mode, ..Default::default() };
            let mut tracer = RayTracer::new(&accel, &setup.scene, ray, params);
            tracer.record_blends = true;
            tracer.run_to_completion(&mut NullObserver);
            tracer.blend_log
        };
        let restart = run(TraceMode::MultiRoundRestart);
        let checkpoint = run(TraceMode::MultiRoundCheckpoint);
        let single = run(TraceMode::SingleRound);
        prop_assert_eq!(&restart, &checkpoint, "restart vs checkpoint");
        prop_assert_eq!(&restart, &single, "restart vs single-round");
    }
}

#[test]
fn secondary_ray_images_match_between_baseline_and_hw() {
    let setup = tiny_setup(3);
    let opts = RunOptions {
        effects_seed: Some(5),
        ..Default::default()
    };
    let base = setup
        .try_run(&PipelineVariant::baseline(), &opts)
        .unwrap()
        .report
        .image;
    let hw = setup
        .try_run(&PipelineVariant::grtx_hw(), &opts)
        .unwrap()
        .report
        .image;
    assert_eq!(
        base.psnr(&hw),
        f64::INFINITY,
        "checkpointing must not change effects images"
    );
}

#[test]
fn sphere_and_custom_primitive_images_match() {
    // Both intersect the exact bounding ellipsoid, so images agree even
    // though one runs in "hardware" and one in a software shader.
    let setup = tiny_setup(8);
    let opts = RunOptions::default();
    let sphere = setup
        .try_run(&PipelineVariant::grtx_sw_sphere(), &opts)
        .unwrap()
        .report
        .image;
    let custom = setup
        .try_run(&PipelineVariant::custom_primitive(), &opts)
        .unwrap()
        .report
        .image;
    let psnr = sphere.psnr(&custom);
    assert!(psnr > 60.0, "sphere vs custom primitive PSNR {psnr:.1} dB");
}
