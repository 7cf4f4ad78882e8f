//! The batched multi-camera engine's contract: `try_render_batch` of N
//! cameras is bit-identical, per camera, to N standalone `try_render()`
//! calls — on images, cycles, statistics, and footprints — at every
//! thread count, for pinhole and fisheye views, with and without
//! secondary-ray effect objects.

use grtx_bvh::{AccelStruct, BoundingPrimitive, LayoutConfig};
use grtx_math::Vec3;
use grtx_render::renderer::RenderConfig;
use grtx_render::RenderEngine;
use grtx_scene::{synth::generate_scene, Camera, CameraModel, EffectObjects};
use grtx_scene::{GaussianScene, SceneKind};
use grtx_sim::GpuConfig;
use std::time::Instant;

fn setup() -> (GaussianScene, AccelStruct) {
    let scene = generate_scene(SceneKind::Train.profile().with_gaussian_budget(500), 9);
    let accel = AccelStruct::build(
        &scene,
        BoundingPrimitive::UnitSphere,
        true,
        &LayoutConfig::default(),
    );
    (scene, accel)
}

/// A pinhole + fisheye mix of views around the Train scene.
fn camera_mix() -> Vec<Camera> {
    let eye = SceneKind::Train.profile().camera_eye();
    vec![
        Camera::look_at(
            24,
            24,
            CameraModel::Pinhole { fov_y: 0.9 },
            eye,
            Vec3::ZERO,
            Vec3::Y,
        ),
        Camera::look_at(
            24,
            24,
            CameraModel::Fisheye { max_theta: 1.4 },
            Vec3::new(-eye.x, eye.y, eye.z),
            Vec3::ZERO,
            Vec3::Y,
        ),
        Camera::look_at(
            20,
            28,
            CameraModel::Pinhole { fov_y: 1.2 },
            Vec3::new(eye.x, eye.y * 0.5, -eye.z),
            Vec3::ZERO,
            Vec3::Y,
        ),
    ]
}

fn assert_batch_matches_standalone(effects: Option<&EffectObjects>) {
    let (scene, accel) = setup();
    let cameras = camera_mix();
    let config = RenderConfig {
        background: Vec3::new(0.1, 0.2, 0.3),
        ..Default::default()
    };
    for threads in [1usize, 4] {
        let engine = RenderEngine::new(GpuConfig::default()).with_threads(threads);
        let batch = engine
            .try_render_batch(&accel, &scene, &cameras, effects, &config)
            .unwrap();
        assert_eq!(batch.len(), cameras.len());
        for (i, (camera, batched)) in cameras.iter().zip(&batch).enumerate() {
            let standalone = engine
                .try_render(&accel, &scene, camera, effects, &config)
                .unwrap();
            let tag = format!("camera {i}, {threads} threads");
            assert_eq!(
                standalone.image.pixels(),
                batched.image.pixels(),
                "{tag}: image"
            );
            assert_eq!(standalone.cycles, batched.cycles, "{tag}: cycles");
            assert_eq!(standalone.stats, batched.stats, "{tag}: stats");
            assert_eq!(
                standalone.footprint_bytes, batched.footprint_bytes,
                "{tag}: footprint"
            );
            assert_eq!(
                standalone.l2_accesses, batched.l2_accesses,
                "{tag}: L2 accesses"
            );
            assert_eq!(
                standalone.dram_accesses, batched.dram_accesses,
                "{tag}: DRAM accesses"
            );
            assert_eq!(standalone.secondary, batched.secondary, "{tag}: secondary");
            assert!((standalone.l1_hit_rate - batched.l1_hit_rate).abs() < 1e-12);
        }
    }
}

#[test]
fn batch_is_bit_identical_to_standalone_renders() {
    assert_batch_matches_standalone(None);
}

#[test]
fn batch_is_bit_identical_with_effect_objects() {
    let effects = EffectObjects::place_in(SceneKind::Train.profile().half_extent, 3);
    assert_batch_matches_standalone(Some(&effects));
}

/// The batch thread cap scales with the view count, and results stay
/// identical across batch-level thread counts too.
#[test]
fn batch_results_are_thread_count_invariant() {
    let (scene, accel) = setup();
    let cameras = camera_mix();
    let config = RenderConfig::default();
    let render = |threads: usize| {
        RenderEngine::new(GpuConfig::default())
            .with_threads(threads)
            .try_render_batch(&accel, &scene, &cameras, None, &config)
            .unwrap()
    };
    let serial = render(1);
    for threads in [2, 8] {
        let parallel = render(threads);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.image.pixels(), p.image.pixels());
            assert_eq!(s.cycles, p.cycles);
            assert_eq!(s.stats, p.stats);
        }
    }
}

/// Regression: fisheye pixels outside the image circle must show the
/// configured background — in batched renders too.
#[test]
fn batched_fisheye_corners_show_the_background() {
    let (scene, accel) = setup();
    let cameras = camera_mix();
    let background = Vec3::new(0.4, 0.1, 0.6);
    let config = RenderConfig {
        background,
        ..Default::default()
    };
    assert!(cameras[1].primary_ray(0, 0).is_none(), "fisheye corner");
    let batch = RenderEngine::new(GpuConfig::default())
        .try_render_batch(&accel, &scene, &cameras, None, &config)
        .unwrap();
    assert_eq!(batch[1].image.pixel(0), background);
}

/// Wall-clock: a 4-thread 4-camera batch must beat 4 sequential
/// 4-thread renders — the fan-out amortizes thread spin-up and removes
/// the per-camera merge barrier.
///
/// Wall-clock assertions are too noisy for shared CI runners, so this
/// only arms itself on dedicated hardware: set `GRTX_PERF=1` with ≥ 4
/// cores available (both conditions are checked, with a note when
/// skipping).
#[test]
fn four_camera_batch_beats_sequential_renders() {
    if std::env::var("GRTX_PERF").is_err() {
        eprintln!(
            "skipping batch speedup assertion: set GRTX_PERF=1 on dedicated >=4-core hardware"
        );
        return;
    }
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if hw < 4 {
        eprintln!("skipping batch speedup assertion: needs >= 4 cores, host has {hw}");
        return;
    }
    let scene = generate_scene(SceneKind::Train.profile().with_gaussian_budget(8_000), 9);
    let accel = AccelStruct::build(
        &scene,
        BoundingPrimitive::UnitSphere,
        true,
        &LayoutConfig::default(),
    );
    let eye = SceneKind::Train.profile().camera_eye();
    let cameras: Vec<Camera> = (0..4)
        .map(|v| {
            let angle = std::f32::consts::TAU * v as f32 / 4.0;
            Camera::look_at(
                96,
                96,
                CameraModel::Pinhole { fov_y: 0.9 },
                Vec3::new(
                    eye.x * angle.cos() - eye.z * angle.sin(),
                    eye.y,
                    eye.x * angle.sin() + eye.z * angle.cos(),
                ),
                Vec3::ZERO,
                Vec3::Y,
            )
        })
        .collect();
    let config = RenderConfig::default();
    let engine = RenderEngine::new(GpuConfig::default()).with_threads(4);
    // Warm caches/allocator, then best-of-two to damp scheduler noise.
    let mut batch_s = f64::INFINITY;
    let mut seq_s = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        let reports = engine
            .try_render_batch(&accel, &scene, &cameras, None, &config)
            .unwrap();
        batch_s = batch_s.min(start.elapsed().as_secs_f64());
        assert_eq!(reports.len(), 4);

        let start = Instant::now();
        for camera in &cameras {
            let report = engine
                .try_render(&accel, &scene, camera, None, &config)
                .unwrap();
            assert!(report.cycles > 0);
        }
        seq_s = seq_s.min(start.elapsed().as_secs_f64());
    }
    assert!(
        batch_s < seq_s,
        "4-camera batch must beat 4 sequential renders ({batch_s:.3}s vs {seq_s:.3}s)"
    );
}
