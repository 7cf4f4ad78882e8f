//! Architecture sweep: a miniature version of the paper's evaluation —
//! every pipeline variant across two scenes, plus a k-buffer sweep for
//! full GRTX. Useful as a template for custom design-space exploration.
//!
//! ```sh
//! cargo run --release --example architecture_sweep
//! ```

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;

fn main() {
    let variants = [
        PipelineVariant::baseline(),
        PipelineVariant::baseline_80(),
        PipelineVariant::custom_primitive(),
        PipelineVariant::grtx_sw(),
        PipelineVariant::grtx_sw_sphere(),
        PipelineVariant::grtx_hw(),
        PipelineVariant::grtx(),
    ];

    for kind in [SceneKind::Bonsai, SceneKind::Truck] {
        let setup = SceneSetup::evaluation(kind, 400, 64, 42);
        println!("\n=== {} ({} Gaussians) ===", kind, setup.scene.len());
        println!(
            "{:<16} {:>9} {:>9} {:>10} {:>8} {:>9}",
            "variant", "time(ms)", "speedup", "fetches", "L1", "BVH(MB)"
        );
        let mut base_ms = None;
        for variant in &variants {
            let r = setup.try_run(variant, &RunOptions::default()).unwrap();
            let base = *base_ms.get_or_insert(r.report.time_ms);
            println!(
                "{:<16} {:>9.3} {:>9.2} {:>10} {:>8.2} {:>9.2}",
                variant.name,
                r.report.time_ms,
                base / r.report.time_ms,
                r.report.stats.node_fetches_total,
                r.report.l1_hit_rate,
                r.size.total_bytes as f64 / (1024.0 * 1024.0)
            );
        }

        println!("GRTX k-sweep:");
        for k in [4usize, 8, 16, 32] {
            let r = setup
                .try_run(
                    &PipelineVariant::grtx(),
                    &RunOptions {
                        k,
                        ..Default::default()
                    },
                )
                .unwrap();
            println!(
                "  k={k:<3} {:>9.3} ms ({:.1} rounds/ray)",
                r.report.time_ms,
                r.report.stats.rounds as f64 / r.report.stats.rays.max(1) as f64
            );
        }
    }
}
