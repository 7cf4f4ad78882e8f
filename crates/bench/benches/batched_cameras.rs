//! Scaling: batched multi-camera rendering. Tracks one shared-structure
//! `try_render_batch` fan-out against sequential per-view renders — with and
//! without rebuilding the acceleration structure per view — at view
//! counts 1/4/16 and 1×/4× scene scale. This is the build-amortization
//! story behind the ROADMAP's many-views-per-scene serving goal; batch
//! results are bit-identical to the sequential path by construction.

use grtx::{LayoutConfig, PipelineVariant, RunOptions, SceneSetup};
use grtx_bench::{banner, BENCH_SEED};
use grtx_scene::SceneKind;
use std::time::Instant;

fn main() {
    banner(
        "Scaling: batched multi-camera rendering",
        "multi-view batching",
    );
    let kind = SceneKind::Train;
    let divisor = SceneSetup::env_divisor();
    let res = SceneSetup::env_resolution();
    let base_budget = (kind.profile().full_gaussian_count / divisor).max(1);
    let variant = PipelineVariant::grtx();
    let layout = LayoutConfig::default();
    let opts = RunOptions::default();
    let view_counts = [1usize, 4, 16];

    println!(
        "{:<7} {:>10} {:>6} | {:>9} {:>10} | {:>12} {:>12} | {:>8}",
        "scale",
        "gaussians",
        "views",
        "build ms",
        "batch ms",
        "seq+build ms",
        "seq shared",
        "speedup"
    );
    for scale in [1usize, 4] {
        let profile = kind
            .profile()
            .with_gaussian_budget(base_budget * scale)
            .with_resolution(res, res);
        let setup = SceneSetup::from_profile(kind, profile, (divisor / scale).max(1), BENCH_SEED);

        let build_start = Instant::now();
        let accel = setup.build_accel(&variant, &layout);
        let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

        for &views in &view_counts {
            let cameras = setup.orbit_cameras(views);

            // Batched: one shared structure, one fan-out over all views.
            let start = Instant::now();
            let batch = setup
                .try_run_batch_with_accel(&accel, &variant, &opts, &cameras)
                .unwrap();
            let batch_ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(batch.len(), views);

            // Sequential, rebuilding the structure per view (the fully
            // unamortized baseline a naive per-view service pays).
            let start = Instant::now();
            for camera in &cameras {
                let per_view = setup.build_accel(&variant, &layout);
                let result = setup
                    .try_run_batch_with_accel(
                        &per_view,
                        &variant,
                        &opts,
                        std::slice::from_ref(camera),
                    )
                    .unwrap();
                assert_eq!(result.len(), 1);
            }
            let seq_build_ms = start.elapsed().as_secs_f64() * 1e3;

            // Sequential sharing the build: isolates the fan-out /
            // warm-up amortization from the build amortization.
            let start = Instant::now();
            for camera in &cameras {
                let result = setup
                    .try_run_batch_with_accel(&accel, &variant, &opts, std::slice::from_ref(camera))
                    .unwrap();
                assert_eq!(result.len(), 1);
            }
            let seq_shared_ms = start.elapsed().as_secs_f64() * 1e3;

            println!(
                "{:<7} {:>10} {:>6} | {:>9.1} {:>10.1} | {:>12.1} {:>12.1} | {:>7.2}x",
                format!("{scale}x"),
                setup.scene.len(),
                views,
                build_ms,
                batch_ms,
                seq_build_ms,
                seq_shared_ms,
                seq_build_ms / (build_ms + batch_ms).max(1e-9),
            );
        }
    }
    println!(
        "(speedup = sequential-with-rebuilds vs one build + one batch; \
         per-view batch results are bit-identical to standalone renders)"
    );
}
