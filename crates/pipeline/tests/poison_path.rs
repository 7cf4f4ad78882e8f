//! The default-policy poisoning contract, pinned: a stage-task panic
//! poisons the pipeline, sibling workers drain out without deadlocking,
//! the *original* panic payload reaches the caller unchanged, and the
//! process can run fresh streams afterwards — at depth 1 (one frame at a
//! time) and depth 3 (full overlap) alike.
//!
//! Everything lives in one `#[test]` because the quiet-hook dance is
//! process-global.

use grtx_fault::{FaultInjector, FaultPlan, FaultSite, InjectedFault, RetryPolicy};
use grtx_pipeline::{try_run_stream, FrameSource, FrameSpec, OrbitSource, StreamConfig};
use grtx_scene::synth::generate_scene;
use grtx_scene::{Camera, CameraModel, SceneKind};
use std::sync::Arc;

fn train_scene(budget: usize) -> Arc<grtx_scene::GaussianScene> {
    Arc::new(generate_scene(
        SceneKind::Train.profile().with_gaussian_budget(budget),
        7,
    ))
}

fn base_camera() -> Camera {
    Camera::look_at(
        16,
        16,
        CameraModel::Pinhole { fov_y: 0.9 },
        SceneKind::Train.profile().camera_eye(),
        grtx_math::Vec3::ZERO,
        grtx_math::Vec3::Y,
    )
}

/// A payload type the pipeline cannot fabricate: if the caller sees it,
/// the original payload survived the choke point byte for byte.
struct Marker {
    frame: usize,
}

/// Panics (with a [`Marker`]) when producing `panic_at`.
struct PanickySource {
    inner: OrbitSource,
    panic_at: usize,
}

impl FrameSource for PanickySource {
    fn frame(&self, index: usize) -> FrameSpec {
        if index == self.panic_at {
            std::panic::panic_any(Marker { frame: index });
        }
        self.inner.frame(index)
    }
}

#[test]
fn poisoned_pool_preserves_the_payload_drains_and_recovers() {
    for depth in [1usize, 3] {
        poison_drain_and_recover(depth);
    }
}

fn poison_drain_and_recover(depth: usize) {
    let scene = train_scene(150);
    let config = StreamConfig {
        depth,
        threads: 4,
        ..Default::default()
    };

    // 1. A foreign panic in the update stage: the pool drains (this
    //    call returning at all is the no-deadlock check) and the caller
    //    receives the original payload, not a re-wrapped description.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let source = PanickySource {
        inner: OrbitSource::new(scene.clone(), base_camera(), 1, 0.3),
        panic_at: 2,
    };
    let result = std::panic::catch_unwind(|| try_run_stream(&source, 5, &config).unwrap());
    let payload = result.expect_err("a stage panic must propagate to the caller");
    let marker = payload
        .downcast_ref::<Marker>()
        .expect("the original panic payload must be preserved");
    assert_eq!(marker.frame, 2);

    // 2. An injected fault under the *default* policy behaves exactly
    //    like any other stage panic — poison, drain, and the typed
    //    `InjectedFault` payload surfaces unchanged.
    let faulty = StreamConfig {
        depth,
        threads: 4,
        faults: FaultInjector::with_plan(FaultPlan::new().permanent(FaultSite::Build, 1)),
        retry: RetryPolicy::default(),
        ..Default::default()
    };
    let source = OrbitSource::new(scene.clone(), base_camera(), 1, 0.3);
    let result = std::panic::catch_unwind(|| try_run_stream(&source, 4, &faulty).unwrap());
    let payload = result.expect_err("an injected fault must propagate under the default policy");
    let fault = payload
        .downcast_ref::<InjectedFault>()
        .expect("the injected payload must be preserved");
    assert_eq!(fault.site, FaultSite::Build);
    assert_eq!(fault.key >> 32, 1, "the fault fired on frame 1");
    std::panic::set_hook(hook);

    // 3. The process is healthy afterwards: a fresh stream on a fresh
    //    pool runs to completion with every frame rendered.
    let source = OrbitSource::new(scene, base_camera(), 1, 0.3);
    let frames = try_run_stream(&source, 3, &config).unwrap();
    assert_eq!(frames.len(), 3);
    assert!(frames
        .iter()
        .all(|f| f.rendered().is_some_and(|r| !r.reports.is_empty())));
}
