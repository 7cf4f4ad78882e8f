//! Ablations of the simulator's design choices (beyond the paper's own
//! figures): what each modeling decision contributes to the headline
//! numbers. Each ablation runs Baseline vs GRTX on one outdoor and one
//! indoor scene.

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_bench::{banner, BENCH_SEED};
use grtx_scene::SceneKind;
use grtx_sim::GpuConfig;

fn main() {
    banner(
        "Ablations: simulator design choices",
        "DESIGN.md §6 (not a paper exhibit)",
    );
    let divisor = SceneSetup::env_divisor();
    let res = SceneSetup::env_resolution();
    let scenes: Vec<SceneSetup> = [SceneKind::Train, SceneKind::Room]
        .iter()
        .map(|&k| SceneSetup::evaluation(k, divisor, res, BENCH_SEED))
        .collect();

    println!("\nAblation 1 — sibling leaf prefetch (the paper's L1 calibration):");
    println!(
        "{:<8} {:<10} {:>10} {:>10} {:>9} {:>9}",
        "scene", "variant", "on(ms)", "off(ms)", "L1 on", "L1 off"
    );
    for setup in &scenes {
        for variant in [PipelineVariant::baseline(), PipelineVariant::grtx()] {
            let on = setup.try_run(&variant, &RunOptions::default()).unwrap();
            let off = setup
                .try_run(
                    &variant,
                    &RunOptions {
                        gpu: GpuConfig {
                            sibling_prefetch: false,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                )
                .unwrap();
            println!(
                "{:<8} {:<10} {:>10.3} {:>10.3} {:>9.3} {:>9.3}",
                setup.kind.name(),
                variant.name,
                on.report.time_ms,
                off.report.time_ms,
                on.report.l1_hit_rate,
                off.report.l1_hit_rate
            );
        }
    }

    println!("\nAblation 2 — cache scaling (unscaled Table I caches exaggerate locality):");
    println!(
        "{:<8} {:<10} {:>12} {:>14}",
        "scene", "variant", "scaled L1", "unscaled L1"
    );
    for setup in &scenes {
        for variant in [PipelineVariant::baseline(), PipelineVariant::grtx_sw()] {
            let scaled = setup.try_run(&variant, &RunOptions::default()).unwrap();
            // Re-run against an unscaled-cache setup of the same scene.
            let unscaled_setup = SceneSetup {
                divisor: 1,
                ..clone_setup(setup)
            };
            let unscaled = unscaled_setup
                .try_run(&variant, &RunOptions::default())
                .unwrap();
            println!(
                "{:<8} {:<10} {:>12.3} {:>14.3}",
                setup.kind.name(),
                variant.name,
                scaled.report.l1_hit_rate,
                unscaled.report.l1_hit_rate
            );
        }
    }

    println!("\nAblation 3 — straggler overhead: GRTX speedup over baseline vs round overhead:");
    println!(
        "{:<8} {:>14} {:>14} {:>14}",
        "scene", "overhead=0", "overhead=260", "overhead=1000"
    );
    for setup in &scenes {
        let mut speedups = Vec::new();
        for overhead in [0u64, 260, 1000] {
            let mut gpu = GpuConfig::default();
            gpu.costs.round_overhead = overhead;
            let opts = RunOptions {
                k: 8,
                gpu,
                ..Default::default()
            };
            let base = setup.try_run(&PipelineVariant::baseline(), &opts).unwrap();
            let grtx = setup.try_run(&PipelineVariant::grtx(), &opts).unwrap();
            speedups.push(base.report.time_ms / grtx.report.time_ms);
        }
        println!(
            "{:<8} {:>14.2} {:>14.2} {:>14.2}",
            setup.kind.name(),
            speedups[0],
            speedups[1],
            speedups[2]
        );
    }
    println!("(higher per-round overhead taxes checkpointing's extra fine-grained rounds)");
}

/// Rebuilds a setup with identical scene content (SceneSetup is not
/// Clone because GaussianScene is intentionally large).
fn clone_setup(s: &SceneSetup) -> SceneSetup {
    SceneSetup::from_profile(s.kind, s.profile.clone(), s.divisor, BENCH_SEED)
}
