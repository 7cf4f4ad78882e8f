//! Frame sources: per-frame scene mutation and camera paths.
//!
//! A [`FrameSource`] describes a stream of frames — for each frame
//! index, the scene to render (or `None` when the scene is unchanged
//! from the previous frame, letting the build stage skip the rebuild and
//! reuse the previous acceleration structure) and the cameras to render
//! it with. Sources must be **pure**: `frame(n)` depends only on `n` and
//! the source's construction, never on call order or count. That is
//! what makes pipelined output bit-identical to a sequential per-frame
//! run.

use grtx_math::Vec3;
use grtx_scene::{Camera, GaussianScene};
use std::sync::Arc;

/// One frame's worth of input to the pipeline.
#[derive(Debug, Clone)]
pub struct FrameSpec {
    /// The scene this frame renders; `None` means "unchanged since the
    /// previous frame" — the build stage then reuses the previous
    /// frame's acceleration structure instead of rebuilding. Frame 0
    /// must always supply a scene.
    pub scene: Option<Arc<GaussianScene>>,
    /// The cameras this frame renders, in view order. May be empty (the
    /// frame produces no reports).
    pub cameras: Vec<Camera>,
}

/// A deterministic stream of frames.
///
/// `Sync` because the pipeline shares it with each frame's fragment
/// workers. The update step calls `frame` on the calling thread, in
/// frame order, once per update attempt.
pub trait FrameSource: Sync {
    /// Produces frame `index`'s scene and cameras.
    ///
    /// Must be deterministic in `index` alone.
    fn frame(&self, index: usize) -> FrameSpec;
}

/// A static scene orbited by the camera rig: frame 0 supplies the scene,
/// every later frame reuses it (`scene: None`), so the pipeline's build
/// stage rebuilds nothing after the first frame.
///
/// Frame `n` renders `views` cameras evenly spaced on the base camera's
/// orbit (same radius and height, looking at the scene center), with the
/// whole rig advanced by `n × step` radians. Frame 0 view 0 is the base
/// camera itself, so a one-frame stream reproduces a standalone orbit
/// sweep exactly.
#[derive(Debug, Clone)]
pub struct OrbitSource {
    scene: Arc<GaussianScene>,
    base: Camera,
    views: usize,
    step: f32,
}

impl OrbitSource {
    /// Creates an orbit stream around `base`'s eye position.
    pub fn new(scene: Arc<GaussianScene>, base: Camera, views: usize, step: f32) -> Self {
        Self {
            scene,
            base,
            views,
            step,
        }
    }

    /// Cameras per frame.
    pub fn views(&self) -> usize {
        self.views
    }
}

impl FrameSource for OrbitSource {
    fn frame(&self, index: usize) -> FrameSpec {
        FrameSpec {
            scene: (index == 0).then(|| self.scene.clone()),
            // The shared orbit rig ([`Camera::orbit`]): at phase 0 this
            // is exactly the batched `orbit_cameras` sweep.
            cameras: self.base.orbit(self.views, self.step * index as f32),
        }
    }
}

/// An animated scene: every `period` frames the Gaussian means jitter to
/// a new deterministic position (epoch `n / period`), forcing the build
/// stage to rebuild; the frames in between reuse the previous structure.
///
/// Epoch 0 is the unjittered base scene. Cameras are fixed across the
/// stream. `period = 1` (the default) mutates the scene every frame —
/// the fully build-bound workload.
#[derive(Debug, Clone)]
pub struct JitterSource {
    base: Arc<GaussianScene>,
    cameras: Vec<Camera>,
    amplitude: f32,
    period: usize,
}

impl JitterSource {
    /// Creates a stream that jitters Gaussian means by up to
    /// `amplitude` world units every frame.
    pub fn new(base: Arc<GaussianScene>, cameras: Vec<Camera>, amplitude: f32) -> Self {
        Self::with_period(base, cameras, amplitude, 1)
    }

    /// Like [`Self::new`], but the scene only changes every `period`
    /// frames (`period = 3`: frames 0–2 share epoch 0, frames 3–5 epoch
    /// 1, …), interleaving rebuild frames with reuse frames.
    pub fn with_period(
        base: Arc<GaussianScene>,
        cameras: Vec<Camera>,
        amplitude: f32,
        period: usize,
    ) -> Self {
        Self {
            base,
            cameras,
            amplitude,
            period: period.max(1),
        }
    }

    /// The deterministic scene of epoch `epoch` (epoch 0 = the base).
    pub fn epoch_scene(&self, epoch: usize) -> Arc<GaussianScene> {
        if epoch == 0 {
            return self.base.clone();
        }
        let gaussians = self
            .base
            .gaussians()
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut g = g.clone();
                g.mean += jitter_offset(epoch as u64, i as u64) * self.amplitude;
                g
            })
            .collect();
        Arc::new(GaussianScene::with_sigma_bound(
            gaussians,
            self.base.sigma_bound(),
        ))
    }
}

impl FrameSource for JitterSource {
    fn frame(&self, index: usize) -> FrameSpec {
        let scene = index
            .is_multiple_of(self.period)
            .then(|| self.epoch_scene(index / self.period));
        FrameSpec {
            scene,
            cameras: self.cameras.clone(),
        }
    }
}

/// A deterministic offset in `[-1, 1]³` from `(epoch, gaussian)` via
/// SplitMix64 — no RNG state, so any frame can be produced on any
/// worker.
fn jitter_offset(epoch: u64, index: u64) -> Vec3 {
    let mut next = {
        let mut state = epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    };
    let unit = |bits: u64| (bits >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
    Vec3::new(unit(next()), unit(next()), unit(next()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtx_scene::{CameraModel, Gaussian};

    fn tiny_scene() -> Arc<GaussianScene> {
        Arc::new(
            (0..40)
                .map(|i| {
                    Gaussian::isotropic(
                        Vec3::new((i % 5) as f32, (i / 5) as f32, 0.5 * i as f32),
                        0.3,
                        0.7,
                        Vec3::ONE,
                    )
                })
                .collect(),
        )
    }

    fn base_camera() -> Camera {
        Camera::look_at(
            16,
            16,
            CameraModel::Pinhole { fov_y: 0.9 },
            Vec3::new(4.0, 2.0, 9.0),
            Vec3::ZERO,
            Vec3::Y,
        )
    }

    #[test]
    fn orbit_supplies_the_scene_exactly_once() {
        let source = OrbitSource::new(tiny_scene(), base_camera(), 3, 0.2);
        assert!(source.frame(0).scene.is_some());
        for n in 1..5 {
            assert!(source.frame(n).scene.is_none(), "frame {n} must reuse");
            assert_eq!(source.frame(n).cameras.len(), 3);
        }
    }

    #[test]
    fn orbit_frame_zero_starts_at_the_base_camera() {
        let base = base_camera();
        let source = OrbitSource::new(tiny_scene(), base.clone(), 2, 0.5);
        assert_eq!(source.frame(0).cameras[0], base);
        // The rig advances: the same view differs on the next frame.
        assert_ne!(source.frame(1).cameras[0], base);
        // Pure: repeated calls yield identical cameras.
        assert_eq!(source.frame(3).cameras, source.frame(3).cameras);
    }

    #[test]
    fn jitter_epochs_are_deterministic_and_distinct() {
        let source = JitterSource::new(tiny_scene(), vec![base_camera()], 0.1);
        let a = source.epoch_scene(2);
        let b = source.epoch_scene(2);
        assert_eq!(a.gaussians(), b.gaussians(), "epochs must be pure");
        let c = source.epoch_scene(3);
        assert_ne!(a.gaussians(), c.gaussians(), "epochs must differ");
        assert_eq!(a.len(), source.epoch_scene(0).len());
    }

    #[test]
    fn jitter_period_interleaves_rebuilds_and_reuse() {
        let source = JitterSource::with_period(tiny_scene(), vec![base_camera()], 0.1, 3);
        let changed: Vec<bool> = (0..7).map(|n| source.frame(n).scene.is_some()).collect();
        assert_eq!(
            changed,
            [true, false, false, true, false, false, true],
            "scene changes exactly at epoch boundaries"
        );
    }

    #[test]
    fn jitter_epoch_zero_is_the_base_scene() {
        let base = tiny_scene();
        let source = JitterSource::new(base.clone(), vec![base_camera()], 0.5);
        assert!(Arc::ptr_eq(&source.epoch_scene(0), &base));
    }
}
