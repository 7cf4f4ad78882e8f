//! Fig. 19: GRTX performance and L1 hit rates across resolution / FoV
//! settings (Train and Truck). Higher resolution and smaller FoV both
//! increase ray coherence, which shrinks GRTX-SW's relative advantage
//! but not GRTX-HW's.

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_bench::{banner, BENCH_SEED};
use grtx_scene::SceneKind;

fn main() {
    banner(
        "Fig. 19: resolution and FoV sensitivity (Train, Truck)",
        "Fig. 19a and Fig. 19b",
    );
    let divisor = SceneSetup::env_divisor();
    let base_res = SceneSetup::env_resolution();
    // "Original resolution" is emulated at 1.5x the evaluation
    // resolution (the full 980x545 would dominate bench wall-clock; the
    // coherence effect is monotone in resolution).
    let hi_res = base_res * 3 / 2;
    let variants = PipelineVariant::fig13_lineup();
    let opts = RunOptions::default();

    for (label, res, fov_scale) in [
        ("(a) higher resolution, original FoV", hi_res, 1.0f32),
        ("(b) base resolution, scaled-down FoV", base_res, 0.5f32),
    ] {
        println!("\nFig. 19{label}:");
        println!(
            "{:<8} {:<9} {:>9} {:>9} {:>8}",
            "scene", "variant", "time(ms)", "speedup", "L1 rate"
        );
        for kind in [SceneKind::Train, SceneKind::Truck] {
            let base_profile = kind.profile();
            let budget = base_profile.full_gaussian_count / divisor;
            let profile = base_profile
                .clone()
                .with_gaussian_budget(budget)
                .with_resolution(res, res)
                .with_fov_y_deg(base_profile.fov_y_deg * fov_scale);
            let setup = SceneSetup::from_profile(kind, profile, divisor, BENCH_SEED);
            let results: Vec<_> = variants
                .iter()
                .map(|v| setup.try_run(v, &opts).unwrap())
                .collect();
            let base_ms = results[0].report.time_ms;
            for (v, r) in variants.iter().zip(&results) {
                println!(
                    "{:<8} {:<9} {:>9.3} {:>9.2} {:>8.3}",
                    kind.name(),
                    v.name,
                    r.report.time_ms,
                    base_ms / r.report.time_ms,
                    r.report.l1_hit_rate
                );
            }
        }
    }
    println!("\n(paper: GRTX-HW speedups persist under high coherence; GRTX-SW's shrink)");
}
