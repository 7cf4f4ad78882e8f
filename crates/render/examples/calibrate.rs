use grtx_bvh::{AccelStruct, BoundingPrimitive, LayoutConfig};
use grtx_render::renderer::RenderConfig;
use grtx_render::tracer::{TraceMode, TraceParams};
use grtx_render::RenderEngine;
use grtx_scene::{synth::generate_scene, Camera, SceneKind};
use grtx_sim::GpuConfig;
use std::time::Instant;

fn main() {
    let divisor: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let kind = SceneKind::Train;
    let profile = kind.profile();
    let budget = profile.full_gaussian_count / divisor;
    let profile = profile
        .with_gaussian_budget(budget)
        .with_resolution(128, 128);
    let t0 = Instant::now();
    let scene = generate_scene(profile.clone(), 42);
    println!("scene gen: {:?} ({} gaussians)", t0.elapsed(), scene.len());

    let camera = Camera::for_profile(&profile);
    for (name, prim, two, ckpt) in [
        ("baseline mono20", BoundingPrimitive::Mesh20, false, false),
        (
            "GRTX-HW mono20+ckpt",
            BoundingPrimitive::Mesh20,
            false,
            true,
        ),
        ("GRTX-SW tlas20", BoundingPrimitive::Mesh20, true, false),
        ("GRTX tlas20+ckpt", BoundingPrimitive::Mesh20, true, true),
        ("TLAS+sphere", BoundingPrimitive::UnitSphere, true, false),
    ] {
        let t0 = Instant::now();
        let accel = AccelStruct::build(&scene, prim, two, &LayoutConfig::default());
        println!(
            "{name}: build {:?}, size {} MB, height {}",
            t0.elapsed(),
            accel.size_report().total_bytes / (1 << 20),
            accel.height()
        );
        let t0 = Instant::now();
        let mode = if ckpt {
            TraceMode::MultiRoundCheckpoint
        } else {
            TraceMode::MultiRoundRestart
        };
        let cfg = RenderConfig {
            params: TraceParams {
                k: 16,
                mode,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = RenderEngine::new(GpuConfig::default().with_cache_scale(divisor))
            .try_render(&accel, &scene, &camera, None, &cfg)
            .expect("calibration scene renders");
        println!("  render: wall {:?}, sim {:.2} ms, fetches {}, rounds/ray {:.2}, blended/ray {:.1}, l1 {:.2}, lat {:.0}, l2 {}, uniq-frac {:.2}",
                 t0.elapsed(), report.time_ms, report.stats.node_fetches_total,
                 report.stats.rounds as f64 / report.stats.rays as f64,
                 report.stats.blended_gaussians as f64 / report.stats.rays as f64,
                 report.l1_hit_rate, report.avg_fetch_latency, report.l2_accesses,
                 report.stats.node_fetches_unique as f64 / report.stats.node_fetches_total as f64);
    }
}
