//! The pipeline's determinism contract at the engine level: frames from
//! the overlapped scheduler are bit-identical — images, cycles, every
//! statistic, structure accounting — to building and batch-rendering
//! each frame on its own, in strict frame order, at any depth, thread
//! count, and shard count.

use grtx_bvh::AccelStruct;
use grtx_fault::GrtxError;
use grtx_pipeline::{
    try_run_stream, FrameResult, FrameSource, FrameSpec, JitterSource, OrbitSource, StreamConfig,
};
use grtx_render::RenderEngine;
use grtx_scene::synth::generate_scene;
use grtx_scene::{Camera, CameraModel, SceneKind};
use grtx_shard::ShardedAccel;
use std::sync::Arc;

/// Runs a stream whose every frame must render, unwrapping each outcome.
fn rendered_stream(
    source: &dyn FrameSource,
    frames: usize,
    config: &StreamConfig,
) -> Vec<FrameResult> {
    try_run_stream(source, frames, config)
        .unwrap()
        .into_iter()
        .map(|outcome| outcome.into_rendered().unwrap())
        .collect()
}

fn train_scene(budget: usize) -> Arc<grtx_scene::GaussianScene> {
    Arc::new(generate_scene(
        SceneKind::Train.profile().with_gaussian_budget(budget),
        7,
    ))
}

fn base_camera() -> Camera {
    Camera::look_at(
        20,
        20,
        CameraModel::Pinhole { fov_y: 0.9 },
        SceneKind::Train.profile().camera_eye(),
        grtx_math::Vec3::ZERO,
        grtx_math::Vec3::Y,
    )
}

/// The oracle the pipeline is held to: one frame at a time, resolve the
/// source's scene chain, build the structure when the scene is fresh
/// (sharded when `config.shards > 0`), and batch-render the frame's
/// cameras against it.
fn sequential_oracle(
    source: &dyn FrameSource,
    frames: usize,
    config: &StreamConfig,
) -> Vec<FrameResult> {
    let engine = RenderEngine::new(config.gpu.clone()).with_threads(config.threads);
    let mut current = None;
    let mut results = Vec::with_capacity(frames);
    for index in 0..frames {
        let spec = source.frame(index);
        let rebuilt = spec.scene.is_some();
        if let Some(scene) = spec.scene {
            let (accel, sharding) = if config.shards > 0 {
                let sharded = ShardedAccel::build(
                    &scene,
                    config.primitive,
                    config.two_level,
                    &config.layout,
                    config.shards,
                    config.threads,
                );
                let summary = sharded.summary();
                (sharded.into_accel(), Some(summary))
            } else {
                let accel =
                    AccelStruct::build(&scene, config.primitive, config.two_level, &config.layout);
                (accel, None)
            };
            current = Some((scene, accel, sharding));
        }
        let (scene, accel, sharding) = current.as_ref().expect("frame 0 supplies a scene");
        results.push(FrameResult {
            index,
            gaussians: scene.len(),
            rebuilt,
            reports: engine
                .try_render_batch(
                    accel,
                    scene,
                    &spec.cameras,
                    config.effects.as_ref(),
                    &config.render,
                )
                .unwrap(),
            size: *accel.size_report(),
            height: accel.height(),
            sharding: sharding.clone(),
        });
    }
    results
}

fn assert_frames_identical(label: &str, a: &[FrameResult], b: &[FrameResult]) {
    assert_eq!(a.len(), b.len(), "{label}: frame count");
    for (x, y) in a.iter().zip(b) {
        let tag = format!("{label}, frame {}", x.index);
        assert_eq!(x.index, y.index, "{tag}: index");
        assert_eq!(x.gaussians, y.gaussians, "{tag}: gaussians");
        assert_eq!(x.rebuilt, y.rebuilt, "{tag}: rebuilt");
        assert_eq!(x.size, y.size, "{tag}: size report");
        assert_eq!(x.height, y.height, "{tag}: height");
        assert_eq!(x.reports.len(), y.reports.len(), "{tag}: view count");
        for (view, (r, s)) in x.reports.iter().zip(&y.reports).enumerate() {
            let tag = format!("{tag}, view {view}");
            assert_eq!(r.image.pixels(), s.image.pixels(), "{tag}: image");
            assert_eq!(r.cycles, s.cycles, "{tag}: cycles");
            assert_eq!(r.stats, s.stats, "{tag}: stats");
            assert_eq!(r.l2_accesses, s.l2_accesses, "{tag}: L2");
            assert_eq!(r.dram_accesses, s.dram_accesses, "{tag}: DRAM");
            assert_eq!(r.footprint_bytes, s.footprint_bytes, "{tag}: footprint");
            assert_eq!(r.secondary, s.secondary, "{tag}: secondary");
            assert!((r.l1_hit_rate - s.l1_hit_rate).abs() < 1e-12, "{tag}: L1");
        }
        // Sharded accounting matches on everything deterministic
        // (build-phase wall-clock seconds are exempt by contract).
        match (&x.sharding, &y.sharding) {
            (None, None) => {}
            (Some(xs), Some(ys)) => {
                assert_eq!(xs.shard_count, ys.shard_count, "{tag}: shard count");
                assert_eq!(xs.shard_sizes, ys.shard_sizes, "{tag}: shard sizes");
                assert_eq!(xs.directory, ys.directory, "{tag}: directory");
            }
            _ => panic!("{tag}: sharding presence differs"),
        }
    }
}

/// Orbit (rebuild-free) and jitter (rebuild-heavy) streams are
/// bit-identical to the sequential oracle across the full depth × threads
/// × shards grid.
#[test]
fn stream_matches_sequential_across_depths_threads_and_shards() {
    let scene = train_scene(400);
    let orbit = OrbitSource::new(scene.clone(), base_camera(), 2, 0.35);
    let jitter = JitterSource::with_period(scene, vec![base_camera()], 0.15, 2);
    let sources: [(&str, &dyn FrameSource); 2] = [("orbit", &orbit), ("jitter", &jitter)];
    for (name, source) in sources {
        for shards in [1usize, 4] {
            let reference = sequential_oracle(
                source,
                4,
                &StreamConfig {
                    depth: 1,
                    threads: 1,
                    shards,
                    ..Default::default()
                },
            );
            for depth in [1usize, 2, 3] {
                for threads in [1usize, 4] {
                    let config = StreamConfig {
                        depth,
                        threads,
                        shards,
                        ..Default::default()
                    };
                    let frames = rendered_stream(source, 4, &config);
                    assert_frames_identical(
                        &format!("{name}, depth {depth}, threads {threads}, shards {shards}"),
                        &frames,
                        &reference,
                    );
                }
            }
        }
    }
}

/// The unchanged-scene rebuild skip: an orbit stream rebuilds exactly
/// once, a period-2 jitter stream every other frame.
#[test]
fn rebuild_flags_follow_the_source() {
    let scene = train_scene(200);
    let config = StreamConfig {
        depth: 3,
        threads: 2,
        ..Default::default()
    };
    let orbit = rendered_stream(
        &OrbitSource::new(scene.clone(), base_camera(), 1, 0.3),
        5,
        &config,
    );
    let rebuilds: Vec<bool> = orbit.iter().map(|f| f.rebuilt).collect();
    assert_eq!(rebuilds, [true, false, false, false, false]);
    let jitter = rendered_stream(
        &JitterSource::with_period(scene, vec![base_camera()], 0.1, 2),
        5,
        &config,
    );
    let rebuilds: Vec<bool> = jitter.iter().map(|f| f.rebuilt).collect();
    assert_eq!(rebuilds, [true, false, true, false, true]);
    // Reused frames render against the same structure — and the moving
    // rig means consecutive orbit frames still see different images.
    assert_ne!(
        orbit[0].reports[0].image.pixels(),
        orbit[1].reports[0].image.pixels()
    );
}

/// Frames arrive in strict frame order regardless of overlap.
#[test]
fn results_arrive_in_frame_order() {
    let source = OrbitSource::new(train_scene(150), base_camera(), 2, 0.4);
    let frames = rendered_stream(
        &source,
        6,
        &StreamConfig {
            depth: 3,
            threads: 4,
            ..Default::default()
        },
    );
    assert_eq!(frames.len(), 6);
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(frame.index, i);
        assert_eq!(frame.reports.len(), 2);
    }
}

/// Zero frames stream to zero results; camera-less frames produce empty
/// report lists but still carry their structure accounting.
#[test]
fn empty_streams_and_camera_less_frames_are_defined() {
    let scene = train_scene(100);
    let source = OrbitSource::new(scene.clone(), base_camera(), 1, 0.2);
    assert!(rendered_stream(&source, 0, &StreamConfig::default()).is_empty());

    struct NoCameras(Arc<grtx_scene::GaussianScene>);
    impl FrameSource for NoCameras {
        fn frame(&self, index: usize) -> FrameSpec {
            FrameSpec {
                scene: (index == 0).then(|| self.0.clone()),
                cameras: Vec::new(),
            }
        }
    }
    for depth in [1usize, 3] {
        let frames = rendered_stream(
            &NoCameras(scene.clone()),
            3,
            &StreamConfig {
                depth,
                threads: 2,
                ..Default::default()
            },
        );
        assert_eq!(frames.len(), 3);
        for frame in &frames {
            assert!(frame.reports.is_empty());
            assert!(frame.size.total_bytes > 0);
        }
    }
}

/// Long rebuild-every-frame streams release old frames' scenes (and
/// with them their structures) as the window advances, instead of
/// retaining every frame to the end of the stream.
///
/// The check is deterministic: by the time `update(n)` is claimed, the
/// scheduler's handoff bounds guarantee frame `n - 6` has merged, its
/// successor's update has completed, and its successor's build has been
/// claimed — the three conditions that release a slot.
#[test]
fn old_frame_slots_release_their_scenes() {
    use std::sync::{Mutex, Weak};
    struct Tracking {
        base: Arc<grtx_scene::GaussianScene>,
        camera: Camera,
        produced: Mutex<Vec<Weak<grtx_scene::GaussianScene>>>,
    }
    impl FrameSource for Tracking {
        fn frame(&self, index: usize) -> FrameSpec {
            let mut produced = self.produced.lock().unwrap();
            assert_eq!(produced.len(), index, "updates run in frame order");
            if index >= 6 {
                assert!(
                    produced[index - 6].upgrade().is_none(),
                    "frame {} scene still retained at frame {index}",
                    index - 6
                );
            }
            // A fresh allocation every frame forces a rebuild and makes
            // retention observable per frame.
            let scene = Arc::new((*self.base).clone());
            produced.push(Arc::downgrade(&scene));
            FrameSpec {
                scene: Some(scene),
                cameras: vec![self.camera.clone()],
            }
        }
    }
    let source = Tracking {
        base: train_scene(120),
        camera: base_camera(),
        produced: Mutex::new(Vec::new()),
    };
    let frames = rendered_stream(
        &source,
        10,
        &StreamConfig {
            depth: 3,
            threads: 2,
            ..Default::default()
        },
    );
    assert_eq!(frames.len(), 10);
}

/// A sceneless first frame is a contract violation: the stream still
/// runs, and frame 0 comes back failed with a typed scene error.
#[test]
fn sceneless_first_frame_fails_with_a_typed_error() {
    struct Sceneless;
    impl FrameSource for Sceneless {
        fn frame(&self, _index: usize) -> FrameSpec {
            FrameSpec {
                scene: None,
                cameras: vec![base_camera()],
            }
        }
    }
    let frames = try_run_stream(
        &Sceneless,
        2,
        &StreamConfig {
            depth: 2,
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    match frames[0].error() {
        Some(GrtxError::InvalidScene { reason, .. }) => {
            assert!(reason.contains("frame 0 must supply a scene"), "{reason}")
        }
        other => panic!("frame 0: expected InvalidScene, got {other:?}"),
    }
}
