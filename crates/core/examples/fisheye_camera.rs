//! Distorted-camera rendering — the capability rasterization lacks.
//!
//! The paper motivates Gaussian *ray tracing* partly by "scenes captured
//! with highly distorted cameras — essential for domains such as robotics
//! and autonomous vehicles". This example renders the same scene through
//! a pinhole and through an equidistant fisheye lens: the ray tracer
//! handles both identically, while the rasterizer rejects the fisheye.
//!
//! ```sh
//! cargo run --release --example fisheye_camera
//! ```

use grtx::{Camera, CameraModel, GrtxError, LayoutConfig, PipelineVariant, RenderConfig};
use grtx_math::Vec3;
use grtx_render::renderer::render_functional;
use grtx_render::{try_render_rasterized, RasterConfig};
use grtx_scene::{synth::generate_scene, SceneKind};
use grtx_sim::GpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = SceneKind::Room.profile().with_gaussian_budget(6000);
    let scene = generate_scene(profile.clone(), 9);
    let eye = profile.camera_eye();

    let accel = grtx::AccelStruct::build(
        &scene,
        PipelineVariant::grtx().primitive,
        true,
        &LayoutConfig::default(),
    );

    let out_dir = std::env::temp_dir();
    for (name, model) in [
        ("pinhole", CameraModel::Pinhole { fov_y: 1.0 }),
        ("fisheye", CameraModel::Fisheye { max_theta: 1.4 }),
    ] {
        let camera = Camera::look_at(128, 128, model, eye, Vec3::ZERO, Vec3::Y);
        let image = render_functional(&accel, &scene, &camera, &RenderConfig::default());
        let path = out_dir.join(format!("grtx_{name}.ppm"));
        image.write_ppm(&path)?;
        println!(
            "{name}: {} rays traced, mean luminance {:.3}, written to {}",
            camera.rays().count(),
            image.mean_luminance(),
            path.display()
        );
    }

    // The rasterizer cannot express the fisheye projection at all and
    // rejects the camera with a typed error.
    let fisheye = Camera::look_at(
        64,
        64,
        CameraModel::Fisheye { max_theta: 1.4 },
        eye,
        Vec3::ZERO,
        Vec3::Y,
    );
    let raster_attempt = try_render_rasterized(
        &scene,
        &fisheye,
        &RasterConfig::default(),
        &GpuConfig::default(),
    );
    println!(
        "rasterizer on the fisheye camera: {}",
        match raster_attempt {
            Err(GrtxError::InvalidCamera { reason }) => format!("rejected (as expected): {reason}"),
            Err(other) => format!("rejected with an unexpected error: {other}"),
            Ok(_) => "unexpectedly succeeded!".to_string(),
        }
    );
    Ok(())
}
