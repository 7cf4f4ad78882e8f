//! `SceneSetup::try_run` turns every degenerate GPU, k-buffer, or
//! primitive/organization configuration into a typed
//! `GrtxError::InvalidConfig` before any work starts — no panic deep
//! inside the structure builder, cache model, or k-buffer, no abort on
//! an impossible allocation, and no `Ok` carrying an infinite render
//! time. `SceneSetup::try_run_stream`
//! turns invalid frames into typed per-frame failures the same way.

use grtx::{
    BoundingPrimitive, Camera, CameraModel, FrameSource, FrameSpec, GaussianScene, GpuConfig,
    GrtxError, LayoutConfig, PipelineVariant, RetryPolicy, RunOptions, SceneSetup,
};
use grtx_scene::SceneKind;
use std::sync::Arc;

fn try_run(options: RunOptions) -> Result<grtx::ExperimentResult, GrtxError> {
    try_run_variant(&PipelineVariant::grtx(), options)
}

fn try_run_variant(
    variant: &PipelineVariant,
    options: RunOptions,
) -> Result<grtx::ExperimentResult, GrtxError> {
    let setup = SceneSetup::evaluation(SceneKind::Room, 2000, 16, 11);
    setup.try_run(
        variant,
        &RunOptions {
            threads: 1,
            ..options
        },
    )
}

/// Asserts that `try_run` rejects `options` with an `InvalidConfig`
/// whose reason names `field`.
fn assert_rejected(field: &str, options: RunOptions) {
    assert_variant_rejected(field, &PipelineVariant::grtx(), options);
}

/// [`assert_rejected`] for an explicit pipeline variant.
fn assert_variant_rejected(field: &str, variant: &PipelineVariant, options: RunOptions) {
    match try_run_variant(variant, options) {
        Err(GrtxError::InvalidConfig { reason }) => {
            assert!(reason.contains(field), "{field}: reason was {reason:?}")
        }
        Err(other) => panic!("{field}: expected InvalidConfig, got {other}"),
        Ok(run) => panic!(
            "{field}: expected InvalidConfig, got Ok ({} ms)",
            run.report.time_ms
        ),
    }
}

/// [`assert_rejected`] for the default options with `edit` applied to
/// the GPU configuration.
fn assert_gpu_rejected(field: &str, edit: impl FnOnce(&mut GpuConfig)) {
    let mut gpu = GpuConfig::default();
    edit(&mut gpu);
    assert_rejected(
        field,
        RunOptions {
            gpu,
            ..Default::default()
        },
    );
}

#[test]
fn valid_options_run() {
    let run = try_run(RunOptions::default()).expect("default configuration is valid");
    assert!(run.report.time_ms.is_finite());
}

#[test]
fn non_power_of_two_line_is_rejected() {
    assert_gpu_rejected("line_bytes", |gpu| gpu.line_bytes = 96);
}

#[test]
fn zero_line_is_rejected() {
    assert_gpu_rejected("line_bytes", |gpu| gpu.line_bytes = 0);
}

#[test]
fn l1_smaller_than_a_line_is_rejected() {
    assert_gpu_rejected("l1_bytes", |gpu| gpu.l1_bytes = 64);
}

#[test]
fn l2_smaller_than_a_line_is_rejected() {
    assert_gpu_rejected("l2_bytes", |gpu| gpu.l2_bytes = 127);
}

#[test]
fn zero_l1_ways_are_rejected() {
    assert_gpu_rejected("l1_ways", |gpu| gpu.l1_ways = 0);
}

#[test]
fn zero_l2_ways_are_rejected() {
    assert_gpu_rejected("l2_ways", |gpu| gpu.l2_ways = 0);
}

#[test]
fn zero_clock_is_rejected() {
    assert_gpu_rejected("clock_mhz", |gpu| gpu.clock_mhz = 0.0);
}

#[test]
fn negative_clock_is_rejected() {
    assert_gpu_rejected("clock_mhz", |gpu| gpu.clock_mhz = -1365.0);
}

#[test]
fn non_finite_clock_is_rejected() {
    assert_gpu_rejected("clock_mhz", |gpu| gpu.clock_mhz = f64::NAN);
    assert_gpu_rejected("clock_mhz", |gpu| gpu.clock_mhz = f64::INFINITY);
}

#[test]
fn zero_k_is_rejected() {
    assert_rejected(
        "k must be",
        RunOptions {
            k: 0,
            ..Default::default()
        },
    );
}

#[test]
fn huge_k_is_rejected() {
    assert_rejected(
        "k must be",
        RunOptions {
            k: 1 << 40,
            ..Default::default()
        },
    );
}

#[test]
fn huge_sm_count_is_rejected() {
    assert_gpu_rejected("num_sms", |gpu| gpu.num_sms = 1 << 40);
}

#[test]
fn subnormal_clock_is_rejected() {
    assert_gpu_rejected("clock_mhz", |gpu| gpu.clock_mhz = f64::MIN_POSITIVE);
}

#[test]
fn huge_caches_are_rejected() {
    assert_gpu_rejected("l1_bytes", |gpu| gpu.l1_bytes = 1 << 62);
    assert_gpu_rejected("l2_bytes", |gpu| gpu.l2_bytes = 1 << 62);
}

/// Asserts that every `SceneSetup` entry point — `try_run`,
/// `try_run_with_accel`, and `try_run_stream` — rejects `gpu` with an
/// `InvalidConfig` naming `field`, checking the configuration as given
/// rather than after the setup scales its caches.
fn assert_rejected_before_cache_scaling(field: &str, gpu: GpuConfig) {
    let setup = SceneSetup::evaluation(SceneKind::Room, 2000, 16, 11);
    let variant = PipelineVariant::grtx();
    let accel = setup.build_accel(&variant, &LayoutConfig::default());
    let options = RunOptions {
        threads: 1,
        gpu,
        ..Default::default()
    };
    let results = [
        ("try_run", setup.try_run(&variant, &options).map(drop)),
        (
            "try_run_with_accel",
            setup
                .try_run_with_accel(&accel, &variant, &options)
                .map(drop),
        ),
        (
            "try_run_stream",
            setup
                .try_run_stream(&setup.orbit_source(1, 0.3), 1, &variant, &options, 1)
                .map(drop),
        ),
    ];
    for (entry, result) in results {
        match result {
            Err(GrtxError::InvalidConfig { reason }) => {
                assert!(reason.contains(field), "{entry}: reason was {reason:?}")
            }
            other => panic!("{entry}: expected InvalidConfig, got {other:?}"),
        }
    }
}

/// A line so large that the scaled cache floors (8 and 64 lines) would
/// overflow is rejected, not multiplied.
#[test]
fn huge_lines_are_rejected_before_cache_scaling() {
    assert_rejected_before_cache_scaling(
        "l1_bytes",
        GpuConfig {
            line_bytes: 1 << 62,
            ..GpuConfig::default()
        },
    );
}

/// An L1 above the cap is rejected even where the scale divisor would
/// shrink it back into range.
#[test]
fn oversized_caches_are_rejected_before_cache_scaling() {
    assert_rejected_before_cache_scaling(
        "l1_bytes",
        GpuConfig {
            l1_bytes: 300 << 20,
            ..GpuConfig::default()
        },
    );
}

/// A `side`×`side` pinhole camera at `setup`'s viewpoint.
fn square_camera(setup: &SceneSetup, side: u32) -> Camera {
    Camera::look_at(
        side,
        side,
        CameraModel::Pinhole { fov_y: 0.9 },
        setup.camera.eye(),
        grtx_math::Vec3::ZERO,
        grtx_math::Vec3::Y,
    )
}

#[test]
fn huge_camera_is_rejected() {
    let mut setup = SceneSetup::evaluation(SceneKind::Room, 2000, 16, 11);
    setup.camera = square_camera(&setup, 1 << 20);
    let options = RunOptions {
        threads: 1,
        ..Default::default()
    };
    match setup.try_run(&PipelineVariant::grtx(), &options) {
        Err(GrtxError::InvalidCamera { reason }) => {
            assert!(reason.contains("pixels"), "reason was {reason:?}")
        }
        Err(other) => panic!("expected InvalidCamera, got {other}"),
        Ok(_) => panic!("expected InvalidCamera, got Ok"),
    }
}

/// Oversized caches are an `InvalidConfig` before any frame starts.
#[test]
fn streams_reject_huge_caches() {
    let setup = SceneSetup::evaluation(SceneKind::Room, 2000, 16, 11);
    let source = setup.orbit_source(1, 0.3);
    let huge_l1 = GpuConfig {
        l1_bytes: 1 << 62,
        ..GpuConfig::default()
    };
    let huge_l2 = GpuConfig {
        l2_bytes: 1 << 62,
        ..GpuConfig::default()
    };
    for (field, gpu) in [("l1_bytes", huge_l1), ("l2_bytes", huge_l2)] {
        let options = RunOptions {
            threads: 2,
            gpu,
            ..Default::default()
        };
        match setup.try_run_stream(&source, 2, &PipelineVariant::grtx(), &options, 1) {
            Err(GrtxError::InvalidConfig { reason }) => {
                assert!(reason.contains(field), "{field}: reason was {reason:?}")
            }
            Err(other) => panic!("{field}: expected InvalidConfig, got {other}"),
            Ok(frames) => panic!(
                "{field}: expected InvalidConfig, got {} frames",
                frames.len()
            ),
        }
    }
}

/// Every frame shows the same scene through the same cameras.
struct EveryFrame(FrameSpec);

impl FrameSource for EveryFrame {
    fn frame(&self, _index: usize) -> FrameSpec {
        self.0.clone()
    }
}

/// An oversized camera fails each frame with a typed `InvalidCamera`
/// instead of aborting on the launch allocation.
#[test]
fn streams_reject_huge_cameras() {
    let setup = SceneSetup::evaluation(SceneKind::Room, 2000, 16, 11);
    let source = EveryFrame(FrameSpec {
        scene: Some(Arc::new(setup.scene.clone())),
        cameras: vec![square_camera(&setup, 1 << 20)],
    });
    let options = RunOptions {
        threads: 2,
        ..Default::default()
    };
    let frames = setup
        .try_run_stream(&source, 2, &PipelineVariant::grtx(), &options, 1)
        .unwrap_or_else(|e| panic!("stream-level error {e}"));
    assert_eq!(frames.len(), 2);
    for frame in &frames {
        match frame.error() {
            Some(GrtxError::InvalidCamera { reason }) => {
                assert!(reason.contains("pixels"), "reason was {reason:?}")
            }
            other => panic!("expected InvalidCamera, got {other:?}"),
        }
    }
}

/// Hardware unit spheres exist only behind instance transforms.
fn monolithic_sphere() -> PipelineVariant {
    PipelineVariant {
        name: "monolithic sphere",
        primitive: BoundingPrimitive::UnitSphere,
        two_level: false,
        checkpointing: false,
    }
}

#[test]
fn monolithic_unit_spheres_are_rejected() {
    assert_variant_rejected("unit-sphere", &monolithic_sphere(), RunOptions::default());
}

/// The configuration checks guard the frame pipeline too: each case is
/// an `InvalidConfig` before any frame starts.
#[test]
fn streams_reject_out_of_range_configurations() {
    let setup = SceneSetup::evaluation(SceneKind::Room, 2000, 16, 11);
    let source = setup.orbit_source(1, 0.3);
    let gpu = |edit: fn(&mut GpuConfig)| {
        let mut gpu = GpuConfig::default();
        edit(&mut gpu);
        gpu
    };
    let cases = [
        (
            "k must be",
            PipelineVariant::grtx(),
            RunOptions {
                k: 1 << 40,
                ..Default::default()
            },
        ),
        (
            "num_sms",
            PipelineVariant::grtx(),
            RunOptions {
                gpu: gpu(|g| g.num_sms = 1 << 40),
                ..Default::default()
            },
        ),
        (
            "clock_mhz",
            PipelineVariant::grtx(),
            RunOptions {
                gpu: gpu(|g| g.clock_mhz = f64::MIN_POSITIVE),
                ..Default::default()
            },
        ),
        ("unit-sphere", monolithic_sphere(), RunOptions::default()),
    ];
    for (field, variant, options) in cases {
        let options = RunOptions {
            threads: 2,
            ..options.clone()
        };
        match setup.try_run_stream(&source, 2, &variant, &options, 1) {
            Err(GrtxError::InvalidConfig { reason }) => {
                assert!(reason.contains(field), "{field}: reason was {reason:?}")
            }
            Err(other) => panic!("{field}: expected InvalidConfig, got {other}"),
            Ok(frames) => panic!(
                "{field}: expected InvalidConfig, got {} frames",
                frames.len()
            ),
        }
    }
}

/// Frame 0 is `first`, frame 1 reuses frame 0's scene, and frame 2
/// supplies a fresh valid scene.
struct BrokenFirstFrame {
    first: FrameSpec,
    valid: FrameSpec,
}

impl FrameSource for BrokenFirstFrame {
    fn frame(&self, index: usize) -> FrameSpec {
        match index {
            0 => self.first.clone(),
            1 => FrameSpec {
                scene: None,
                cameras: self.valid.cameras.clone(),
            },
            _ => self.valid.clone(),
        }
    }
}

/// A sceneless frame 0, a 0×0 camera, and a scene with a non-finite
/// sigma bound each fail their frame with a typed error — under the
/// default and a quarantining retry policy. The frame that
/// reuses the broken frame's scene fails as a dependency, and the next
/// fresh frame renders.
#[test]
fn invalid_stream_frames_fail_with_typed_errors() {
    let setup = SceneSetup::evaluation(SceneKind::Room, 2000, 16, 11);
    let scene = Arc::new(setup.scene.clone());
    let valid = FrameSpec {
        scene: Some(scene.clone()),
        cameras: vec![setup.camera.clone()],
    };
    let zero_camera = Camera::look_at(
        0,
        0,
        CameraModel::Pinhole { fov_y: 0.9 },
        setup.camera.eye(),
        grtx_math::Vec3::ZERO,
        grtx_math::Vec3::Y,
    );
    let nan_sigma = GaussianScene::with_sigma_bound(scene.gaussians().to_vec(), f32::NAN);
    let cases = [
        (
            "sceneless frame 0",
            FrameSpec {
                scene: None,
                cameras: valid.cameras.clone(),
            },
        ),
        (
            "0x0 camera",
            FrameSpec {
                scene: Some(scene.clone()),
                cameras: vec![zero_camera],
            },
        ),
        (
            "NaN sigma bound",
            FrameSpec {
                scene: Some(Arc::new(nan_sigma)),
                cameras: valid.cameras.clone(),
            },
        ),
    ];
    for (name, first) in cases {
        let source = BrokenFirstFrame {
            first,
            valid: valid.clone(),
        };
        for retry in [RetryPolicy::default(), RetryPolicy::resilient(2)] {
            let what = format!("{name}, {retry:?}");
            let options = RunOptions {
                threads: 2,
                retry,
                ..Default::default()
            };
            let frames = setup
                .try_run_stream(&source, 3, &PipelineVariant::grtx(), &options, 1)
                .unwrap_or_else(|e| panic!("{what}: stream-level error {e}"));
            assert_eq!(frames.len(), 3, "{what}");
            match (name, frames[0].error()) {
                ("0x0 camera", Some(GrtxError::InvalidCamera { .. })) => {}
                ("sceneless frame 0" | "NaN sigma bound", Some(GrtxError::InvalidScene { .. })) => {
                }
                (_, other) => panic!("{what}: frame 0 error {other:?}"),
            }
            assert_eq!(
                frames[1].error(),
                Some(&GrtxError::DependencyFailed {
                    frame: 1,
                    dependency: 0
                }),
                "{what}"
            );
            assert!(!frames[2].is_failed(), "{what}: {:?}", frames[2].error());
            assert!(frames[2].rebuilt(), "{what}");
        }
    }
}
