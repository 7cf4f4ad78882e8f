//! Tile-based 3DGS rasterizer — the Fig. 4a reference point.
//!
//! Implements the standard 3D Gaussian Splatting pipeline: project each
//! Gaussian to a 2D splat via the EWA Jacobian, bin splats into 16×16
//! pixel tiles, depth-sort per tile, and alpha-blend front-to-back per
//! pixel with early termination (Equation 1). Runs on the same simulated
//! GPU budget (a throughput cost model over the Table I configuration) so
//! its render time is comparable with the ray tracer's.

use crate::blend::MIN_BLEND_ALPHA;
use crate::image::Image;
use grtx_fault::GrtxError;
use grtx_math::{Mat3, Vec3};
use grtx_scene::{Camera, CameraModel, GaussianScene};
use grtx_sim::GpuConfig;

/// Rasterizer parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RasterConfig {
    /// Square tile edge in pixels (3DGS uses 16).
    pub tile: u32,
    /// Early termination transmittance threshold.
    pub min_transmittance: f32,
    /// Background color.
    pub background: Vec3,
}

impl Default for RasterConfig {
    fn default() -> Self {
        Self {
            tile: 16,
            min_transmittance: 0.01,
            background: Vec3::ZERO,
        }
    }
}

/// Rasterization result with its simulated cost.
#[derive(Debug, Clone)]
pub struct RasterReport {
    /// Render time in milliseconds.
    pub time_ms: f64,
    /// Modeled GPU cycles.
    pub cycles: u64,
    /// The rendered image.
    pub image: Image,
    /// Splats surviving projection/culling.
    pub splats: u64,
    /// Pixel–splat pairs evaluated (the tile-blend workload).
    pub pairs_evaluated: u64,
}

struct Splat {
    u: f32,
    v: f32,
    // Inverse 2D covariance (symmetric): [a b; b c].
    inv_a: f32,
    inv_b: f32,
    inv_c: f32,
    depth: f32,
    opacity: f32,
    color: Vec3,
}

/// Rasterizes a scene with the 3DGS pipeline.
///
/// Returns [`GrtxError::InvalidCamera`] for cameras
/// [`crate::validate_camera`] rejects and for non-pinhole cameras —
/// exactly the limitation that motivates ray-traced Gaussians in the
/// paper.
pub fn try_render_rasterized(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RasterConfig,
    gpu: &GpuConfig,
) -> Result<RasterReport, GrtxError> {
    crate::validate_camera(camera)?;
    let CameraModel::Pinhole { fov_y } = camera.model() else {
        return Err(GrtxError::InvalidCamera {
            reason:
                "rasterization supports only pinhole cameras (use the ray tracer for distorted lenses)"
                    .to_string(),
        });
    };
    let (width, height) = (camera.width, camera.height);
    let focal = height as f32 / (2.0 * (fov_y * 0.5).tan());
    let (cx, cy) = (width as f32 / 2.0, height as f32 / 2.0);
    // World-to-camera with z' pointing into the screen.
    let w2c = camera.basis().transpose();
    let flip = Mat3::from_diagonal(Vec3::new(1.0, 1.0, -1.0));
    let w2c_flipped = flip.mul_mat3(&w2c);

    // 1) Projection / preprocessing.
    let mut splats: Vec<Splat> = Vec::with_capacity(scene.len());
    for g in scene.gaussians() {
        let q = w2c_flipped.mul_vec3(g.mean - camera.eye());
        if q.z < 0.05 {
            continue; // Behind or grazing the camera plane.
        }
        let u = focal * q.x / q.z + cx;
        let v = cy - focal * q.y / q.z;

        // EWA: Σ2D = J W Σ Wᵀ Jᵀ with the standard local-affine Jacobian.
        let m = g.covariance_factor();
        let sigma_cam = w2c_flipped
            .mul_mat3(&m.mul_self_transpose())
            .mul_mat3(&w2c_flipped.transpose());
        let (jx, jz) = (focal / q.z, -focal / (q.z * q.z));
        // Row vectors of J (2×3): [jx, 0, jz*q.x], [0, -jx, -jz*q.y].
        let j0 = Vec3::new(jx, 0.0, jz * q.x);
        let j1 = Vec3::new(0.0, -jx, -jz * q.y);
        let s_j0 = sigma_cam.mul_vec3(j0);
        let s_j1 = sigma_cam.mul_vec3(j1);
        // Low-pass of 0.3 px² as in 3DGS.
        let a = j0.dot(s_j0) + 0.3;
        let b = j0.dot(s_j1);
        let c = j1.dot(s_j1) + 0.3;
        let det = a * c - b * b;
        if det <= 0.0 {
            continue;
        }
        let inv_det = 1.0 / det;
        splats.push(Splat {
            u,
            v,
            inv_a: c * inv_det,
            inv_b: -b * inv_det,
            inv_c: a * inv_det,
            depth: q.z,
            opacity: g.opacity,
            color: g.color((g.mean - camera.eye()).normalized()),
        });
    }

    // 2) Tile binning.
    let tile = config.tile.max(1);
    let tiles_x = width.div_ceil(tile);
    let tiles_y = height.div_ceil(tile);
    let mut bins: Vec<Vec<(f32, u32)>> = vec![Vec::new(); (tiles_x * tiles_y) as usize];
    for (i, s) in splats.iter().enumerate() {
        // 3σ radius from the max eigenvalue of Σ2D (invert the inverse).
        let det_inv = s.inv_a * s.inv_c - s.inv_b * s.inv_b;
        if det_inv <= 0.0 {
            continue;
        }
        let (sa, sc) = (s.inv_c / det_inv, s.inv_a / det_inv);
        let sb = -s.inv_b / det_inv;
        let mid = 0.5 * (sa + sc);
        let eig_max = mid + ((mid - sc) * (mid - sc) + sb * sb).max(0.0).sqrt();
        let radius = 3.0 * eig_max.max(0.0).sqrt();
        let x0 = (((s.u - radius) / tile as f32).floor().max(0.0)) as u32;
        let y0 = (((s.v - radius) / tile as f32).floor().max(0.0)) as u32;
        let x1 = (((s.u + radius) / tile as f32).ceil() as u32).min(tiles_x.saturating_sub(1) + 1);
        let y1 = (((s.v + radius) / tile as f32).ceil() as u32).min(tiles_y.saturating_sub(1) + 1);
        for ty in y0..y1.min(tiles_y) {
            for tx in x0..x1.min(tiles_x) {
                bins[(ty * tiles_x + tx) as usize].push((s.depth, i as u32));
            }
        }
    }

    // 3) Global depth sort (per tile — 3DGS sorts (tile, depth) pairs).
    let mut sort_pairs = 0u64;
    for bin in &mut bins {
        let n = bin.len() as u64;
        if n > 1 {
            sort_pairs += n * (64 - (n - 1).leading_zeros() as u64);
        }
        bin.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    // 4) Per-pixel front-to-back blending with ERT.
    let mut image = Image::new(width, height);
    let mut pairs_evaluated = 0u64;
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let bin = &bins[(ty * tiles_x + tx) as usize];
            if bin.is_empty() {
                continue;
            }
            for py in (ty * tile)..((ty + 1) * tile).min(height) {
                for px in (tx * tile)..((tx + 1) * tile).min(width) {
                    let (fx, fy) = (px as f32 + 0.5, py as f32 + 0.5);
                    let mut color = Vec3::ZERO;
                    let mut transmittance = 1.0f32;
                    for &(_, si) in bin {
                        pairs_evaluated += 1;
                        let s = &splats[si as usize];
                        let (dx, dy) = (fx - s.u, fy - s.v);
                        let power = -0.5
                            * (s.inv_a * dx * dx + 2.0 * s.inv_b * dx * dy + s.inv_c * dy * dy);
                        if power < -6.0 {
                            continue;
                        }
                        let alpha = (s.opacity * power.exp()).min(0.999);
                        if alpha < MIN_BLEND_ALPHA {
                            continue;
                        }
                        color += s.color * (alpha * transmittance);
                        transmittance *= 1.0 - alpha;
                        if transmittance < config.min_transmittance {
                            break;
                        }
                    }
                    image.set_pixel(
                        camera.pixel_index(px, py),
                        color + config.background * transmittance,
                    );
                }
            }
        }
    }

    // 5) Throughput cost model on the Table I GPU: projection, sorting,
    //    and tile blending are embarrassingly parallel shader work.
    const PROJECT_CYCLES: u64 = 180;
    const PAIR_CYCLES: u64 = 5;
    const SORT_STEP_CYCLES: u64 = 2;
    let work = scene.len() as u64 * PROJECT_CYCLES
        + pairs_evaluated * PAIR_CYCLES
        + sort_pairs * SORT_STEP_CYCLES;
    let parallelism = (gpu.num_sms * gpu.simt_lanes) as f64 * 0.6;
    let cycles = (work as f64 / parallelism).ceil() as u64;
    let time_ms = cycles as f64 / (gpu.clock_mhz * 1_000.0);

    Ok(RasterReport {
        time_ms,
        cycles,
        image,
        splats: splats.len() as u64,
        pairs_evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtx_scene::{synth::generate_scene, Gaussian, SceneKind};

    fn camera(w: u32, h: u32) -> Camera {
        Camera::look_at(
            w,
            h,
            CameraModel::Pinhole { fov_y: 0.9 },
            Vec3::new(0.0, 0.0, 8.0),
            Vec3::ZERO,
            Vec3::Y,
        )
    }

    #[test]
    fn single_gaussian_lands_at_image_center() {
        let scene: GaussianScene = vec![Gaussian::isotropic(
            Vec3::ZERO,
            0.4,
            0.95,
            Vec3::new(1.0, 0.0, 0.0),
        )]
        .into_iter()
        .collect();
        let cam = camera(64, 64);
        let report = try_render_rasterized(
            &scene,
            &cam,
            &RasterConfig::default(),
            &GpuConfig::default(),
        )
        .unwrap();
        let center = report.image.pixel((32 * 64 + 32) as usize);
        assert!(center.x > 0.5, "center pixel should be red, got {center}");
        let corner = report.image.pixel(0);
        assert!(corner.x < 0.05, "corner should stay dark, got {corner}");
    }

    #[test]
    fn gaussian_behind_camera_is_culled() {
        let scene: GaussianScene = vec![Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 20.0),
            0.4,
            0.95,
            Vec3::ONE,
        )]
        .into_iter()
        .collect();
        let cam = camera(32, 32);
        let report = try_render_rasterized(
            &scene,
            &cam,
            &RasterConfig::default(),
            &GpuConfig::default(),
        )
        .unwrap();
        assert_eq!(report.splats, 0);
        assert_eq!(report.image.mean_luminance(), 0.0);
    }

    #[test]
    fn raster_roughly_matches_ray_tracer_on_simple_scene() {
        // Isotropic, well-separated Gaussians: both renderers implement
        // Equation 1, so images should agree closely.
        let scene: GaussianScene = (0..5)
            .map(|i| {
                Gaussian::isotropic(
                    Vec3::new(i as f32 - 2.0, 0.0, -(i as f32) * 0.5),
                    0.3,
                    0.8,
                    Vec3::new(0.2 * i as f32, 0.5, 1.0 - 0.2 * i as f32),
                )
            })
            .collect();
        let cam = camera(48, 48);
        let raster = try_render_rasterized(
            &scene,
            &cam,
            &RasterConfig::default(),
            &GpuConfig::default(),
        )
        .unwrap();
        let accel = grtx_bvh::AccelStruct::build(
            &scene,
            grtx_bvh::BoundingPrimitive::UnitSphere,
            true,
            &grtx_bvh::LayoutConfig::default(),
        );
        let rt = crate::renderer::render_functional(
            &accel,
            &scene,
            &cam,
            &crate::renderer::RenderConfig::default(),
        );
        let psnr = raster.image.psnr(&rt);
        assert!(
            psnr > 22.0,
            "raster and RT images diverge: PSNR = {psnr:.1} dB"
        );
    }

    #[test]
    fn cost_scales_with_scene_size() {
        let small = generate_scene(SceneKind::Room.profile().with_gaussian_budget(200), 1);
        let large = generate_scene(SceneKind::Room.profile().with_gaussian_budget(2000), 1);
        let cam = Camera::for_profile(&SceneKind::Room.profile().with_resolution(64, 64));
        let cfg = RasterConfig::default();
        let gpu = GpuConfig::default();
        let r_small = try_render_rasterized(&small, &cam, &cfg, &gpu).unwrap();
        let r_large = try_render_rasterized(&large, &cam, &cfg, &gpu).unwrap();
        assert!(r_large.cycles > r_small.cycles);
    }

    #[test]
    fn fisheye_is_rejected() {
        let scene = GaussianScene::new(vec![]);
        let cam = Camera::look_at(
            8,
            8,
            CameraModel::Fisheye { max_theta: 1.0 },
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::ZERO,
            Vec3::Y,
        );
        let err = try_render_rasterized(
            &scene,
            &cam,
            &RasterConfig::default(),
            &GpuConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, GrtxError::InvalidCamera { reason } if reason.contains("pinhole")),
            "{err}"
        );
    }
}
