//! Fig. 6: (a) single-round vs multi-round traversal at k = 16;
//! (b) rendering time across k ∈ {4, 8, 16, 32, 64}.

use grtx::SceneSetup;
use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, BENCH_SEED};
use grtx_bvh::LayoutConfig;
use grtx_scene::SceneKind;

/// Single-round tracing forgoes ERT and touches every intersected
/// Gaussian, so this bench runs at twice the scale divisor to stay
/// tractable (relative comparisons are scale-stable).
fn scenes() -> Vec<SceneSetup> {
    let divisor = SceneSetup::env_divisor() * 2;
    let res = SceneSetup::env_resolution();
    SceneKind::ALL
        .iter()
        .map(|&kind| SceneSetup::evaluation(kind, divisor, res, BENCH_SEED))
        .collect()
}

fn main() {
    banner(
        "Fig. 6: multi-round tracing and the choice of k",
        "Fig. 6a and Fig. 6b",
    );
    let scenes = scenes();
    let baseline = PipelineVariant::baseline();

    println!("\nFig. 6a — single-round vs multi-round (k = 16; paper: multi-round wins):");
    println!(
        "{:<11} {:>16} {:>16}",
        "scene", "multi-round(ms)", "single-round(ms)"
    );
    for setup in &scenes {
        let accel = setup.build_accel(&baseline, &LayoutConfig::default());
        let multi = setup
            .try_run_with_accel(&accel, &baseline, &RunOptions::default())
            .unwrap();
        let single = setup
            .try_run_with_accel(
                &accel,
                &baseline,
                &RunOptions {
                    single_round: true,
                    ..Default::default()
                },
            )
            .unwrap();
        println!(
            "{:<11} {:>16.3} {:>16.3}",
            setup.kind.name(),
            multi.report.time_ms,
            single.report.time_ms
        );
    }

    println!("\nFig. 6b — baseline rendering time across k (paper: k = 16 best):");
    print!("{:<11}", "scene");
    let ks = [4usize, 8, 16, 32, 64];
    for k in ks {
        print!(" {:>9}", format!("k={k}"));
    }
    println!();
    for setup in &scenes {
        let accel = setup.build_accel(&baseline, &LayoutConfig::default());
        print!("{:<11}", setup.kind.name());
        for k in ks {
            let r = setup
                .try_run_with_accel(
                    &accel,
                    &baseline,
                    &RunOptions {
                        k,
                        ..Default::default()
                    },
                )
                .unwrap();
            print!(" {:>9.3}", r.report.time_ms);
        }
        println!();
    }
}
