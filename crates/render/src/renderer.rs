//! Render configuration/report types and the simulated whole-image
//! entry point.
//!
//! Rays are packed into 32-wide warps in row-major order (coherent
//! primaries, as raygen launches do) and scheduled round-robin across
//! SMs. Within a warp, rounds run in lockstep: the warp's round time is
//! the slowest lane's time plus the per-round launch/sync overhead —
//! this is the straggler effect that penalizes very small `k` (Fig. 18).
//!
//! Execution lives in [`crate::engine::RenderEngine`], which simulates
//! each SM as an independent fragment and fans fragments out over host
//! threads (results are bit-identical at any thread count).

use crate::image::Image;
use crate::tracer::{RayTracer, RoundReport, TraceParams};
use grtx_bvh::AccelStruct;
use grtx_math::Vec3;
use grtx_scene::{Camera, GaussianScene};
use grtx_sim::config::CostModel;
use grtx_sim::SimStats;

/// Whole-render configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderConfig {
    /// Per-ray tracing parameters.
    pub params: TraceParams,
    /// Charge any-hit sorting cycles (disabled to isolate traversal,
    /// Fig. 4b).
    pub charge_sorting: bool,
    /// Charge blending cycles (disabled to isolate traversal+sorting,
    /// Fig. 4b).
    pub charge_blending: bool,
    /// Background color composited through remaining transmittance.
    pub background: Vec3,
}

impl Default for RenderConfig {
    fn default() -> Self {
        Self {
            params: TraceParams::default(),
            charge_sorting: true,
            charge_blending: true,
            background: Vec3::ZERO,
        }
    }
}

/// Primary/secondary cycle split for the Fig. 23 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecondaryBreakdown {
    /// Makespan of the primary-ray warps.
    pub primary_cycles: u64,
    /// Makespan of the secondary-ray warps.
    pub secondary_cycles: u64,
    /// Number of secondary rays spawned.
    pub secondary_rays: u64,
}

/// Everything an experiment reads from one simulated render.
#[derive(Debug, Clone)]
pub struct RenderReport {
    /// Render time in milliseconds at the configured clock.
    pub time_ms: f64,
    /// Total cycles (scheduler makespan).
    pub cycles: u64,
    /// Event counters.
    pub stats: SimStats,
    /// L1 hit rate over structure fetches (Fig. 16).
    pub l1_hit_rate: f64,
    /// L2 accesses from structure fetches (Fig. 17).
    pub l2_accesses: u64,
    /// DRAM accesses from structure fetches.
    pub dram_accesses: u64,
    /// Average node-fetch latency in cycles (Fig. 15).
    pub avg_fetch_latency: f64,
    /// Unique structure bytes touched (Table II footprint row).
    pub footprint_bytes: u64,
    /// The rendered image.
    pub image: Image,
    /// Present when effect objects spawned secondary rays.
    pub secondary: Option<SecondaryBreakdown>,
}

/// Shader-side cycles for one round per the cost model and isolation
/// toggles.
pub(crate) fn shader_cycles(report: &RoundReport, costs: &CostModel, config: &RenderConfig) -> u64 {
    let mut cycles = 0u64;
    if config.charge_sorting {
        let steps = (report.sort_steps + report.deferred_sort_steps) as f64;
        cycles += (steps
            * costs.kbuffer_sort_per_entry as f64
            * config.params.storage.sort_cost_factor()) as u64;
    }
    if config.charge_blending {
        cycles += report.blended as u64 * costs.blend_per_gaussian;
    }
    cycles += (report.eviction_writes + report.eviction_reads) * costs.eviction_entry;
    cycles
}

/// Functional (cost-free) render used by tests and examples: same
/// pipeline, no simulation.
pub fn render_functional(
    accel: &AccelStruct,
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
) -> Image {
    // Background-filled canvas: fisheye cameras skip pixels outside the
    // image circle, and those must show the background, not black.
    let mut image = Image::filled(camera.width, camera.height, config.background);
    for (pixel, ray) in camera.rays() {
        let mut tracer = RayTracer::new(accel, scene, ray, config.params);
        let blend = tracer.run_to_completion(&mut grtx_bvh::NullObserver);
        image.set_pixel(pixel, blend.over_background(config.background));
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RenderEngine;
    use crate::tracer::TraceMode;
    use grtx_bvh::{BoundingPrimitive, LayoutConfig};
    use grtx_scene::{synth::generate_scene, CameraModel, EffectObjects, SceneKind};
    use grtx_sim::GpuConfig;

    /// Renders on the Table I GPU with all available cores.
    fn simulate(
        accel: &AccelStruct,
        scene: &GaussianScene,
        camera: &Camera,
        effects: Option<&EffectObjects>,
        config: &RenderConfig,
    ) -> RenderReport {
        RenderEngine::new(GpuConfig::default())
            .try_render(accel, scene, camera, effects, config)
            .unwrap()
    }

    fn tiny_setup() -> (GaussianScene, AccelStruct, Camera) {
        let scene = generate_scene(SceneKind::Train.profile().with_gaussian_budget(400), 7);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
        );
        let camera = Camera::look_at(
            24,
            24,
            CameraModel::Pinhole { fov_y: 0.9 },
            SceneKind::Train.profile().camera_eye(),
            grtx_math::Vec3::ZERO,
            grtx_math::Vec3::Y,
        );
        (scene, accel, camera)
    }

    #[test]
    fn simulated_render_produces_nonzero_image_and_time() {
        let (scene, accel, camera) = tiny_setup();
        let report = simulate(&accel, &scene, &camera, None, &RenderConfig::default());
        assert!(report.time_ms > 0.0);
        assert!(report.stats.node_fetches_total > 0);
        assert!(
            report.image.mean_luminance() > 0.0,
            "image must not be black"
        );
        assert_eq!(report.stats.rays, 24 * 24);
        assert!(report.secondary.is_none());
    }

    #[test]
    fn simulated_and_functional_images_match() {
        let (scene, accel, camera) = tiny_setup();
        let config = RenderConfig::default();
        let sim_img = simulate(&accel, &scene, &camera, None, &config).image;
        let fun_img = render_functional(&accel, &scene, &camera, &config);
        assert_eq!(
            sim_img.psnr(&fun_img),
            f64::INFINITY,
            "cost model must not change pixels"
        );
    }

    #[test]
    fn checkpoint_mode_is_faster_and_identical() {
        let (scene, accel, camera) = tiny_setup();
        let base = RenderConfig {
            params: TraceParams {
                k: 8,
                mode: TraceMode::MultiRoundRestart,
                ..Default::default()
            },
            ..Default::default()
        };
        let ckpt = RenderConfig {
            params: TraceParams {
                k: 8,
                mode: TraceMode::MultiRoundCheckpoint,
                ..Default::default()
            },
            ..Default::default()
        };
        let r_base = simulate(&accel, &scene, &camera, None, &base);
        let r_ckpt = simulate(&accel, &scene, &camera, None, &ckpt);
        assert_eq!(
            r_base.image.psnr(&r_ckpt.image),
            f64::INFINITY,
            "checkpointing must not change the image"
        );
        assert!(
            r_ckpt.stats.node_fetches_total <= r_base.stats.node_fetches_total,
            "checkpointing must not increase node fetches ({} vs {})",
            r_ckpt.stats.node_fetches_total,
            r_base.stats.node_fetches_total
        );
    }

    #[test]
    fn effects_produce_secondary_breakdown() {
        let (scene, accel, camera) = tiny_setup();
        let effects = EffectObjects::place_in(SceneKind::Train.profile().half_extent, 3);
        let report = simulate(
            &accel,
            &scene,
            &camera,
            Some(&effects),
            &RenderConfig::default(),
        );
        if let Some(s) = report.secondary {
            assert!(s.secondary_rays > 0);
            assert!(s.primary_cycles > 0);
            assert!(s.secondary_cycles > 0);
        }
        // (Objects may fall outside this tiny frustum; both outcomes are
        // legal, but the render must still complete.)
        assert!(report.time_ms > 0.0);
    }

    #[test]
    fn disabling_cost_charges_reduces_time_not_image() {
        let (scene, accel, camera) = tiny_setup();
        let full = RenderConfig::default();
        let traversal_only = RenderConfig {
            charge_sorting: false,
            charge_blending: false,
            ..Default::default()
        };
        let r_full = simulate(&accel, &scene, &camera, None, &full);
        let r_trav = simulate(&accel, &scene, &camera, None, &traversal_only);
        assert!(r_trav.cycles <= r_full.cycles);
        assert_eq!(r_full.image.psnr(&r_trav.image), f64::INFINITY);
    }
}
