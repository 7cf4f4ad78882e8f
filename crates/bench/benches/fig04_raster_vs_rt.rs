//! Fig. 4: (a) 3DGS rasterization vs 3DGRT ray tracing render time;
//! (b) single-round execution time isolating traversal / +sorting /
//! +blending.

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes, geomean};
use grtx_render::{try_render_rasterized, RasterConfig};
use grtx_sim::GpuConfig;

fn main() {
    banner(
        "Fig. 4: rasterization (3DGS) vs ray tracing (3DGRT)",
        "Fig. 4a and Fig. 4b",
    );
    let scenes = evaluation_scenes();
    let baseline = PipelineVariant::baseline();

    println!("\nFig. 4a — render time (paper: 3DGRT ~3.04x slower on average):");
    println!(
        "{:<11} {:>12} {:>12} {:>8}",
        "scene", "3DGS(ms)", "3DGRT(ms)", "ratio"
    );
    let mut ratios = Vec::new();
    let mut rt_reports = Vec::new();
    for setup in &scenes {
        let raster = try_render_rasterized(
            &setup.scene,
            &setup.camera,
            &RasterConfig::default(),
            &GpuConfig::default().with_cache_scale(setup.divisor),
        )
        .unwrap();
        let rt = setup.try_run(&baseline, &RunOptions::default()).unwrap();
        let ratio = rt.report.time_ms / raster.time_ms;
        ratios.push(ratio);
        println!(
            "{:<11} {:>12.3} {:>12.3} {:>8.2}",
            setup.kind.name(),
            raster.time_ms,
            rt.report.time_ms,
            ratio
        );
        rt_reports.push(rt);
    }
    println!("geomean 3DGRT/3DGS ratio: {:.2}x", geomean(&ratios));

    println!("\nFig. 4b — single tracing round, cumulative phases (paper: traversal dominates):");
    println!(
        "{:<11} {:>12} {:>16} {:>22}",
        "scene", "traversal", "+sorting", "+sorting+blending"
    );
    for setup in &scenes {
        let traversal = setup
            .try_run(
                &baseline,
                &RunOptions {
                    charge_sorting: false,
                    charge_blending: false,
                    ..Default::default()
                },
            )
            .unwrap();
        let sorting = setup
            .try_run(
                &baseline,
                &RunOptions {
                    charge_sorting: true,
                    charge_blending: false,
                    ..Default::default()
                },
            )
            .unwrap();
        let full = setup.try_run(&baseline, &RunOptions::default()).unwrap();
        // Per-round time: divide by the average number of rounds.
        let rounds =
            (full.report.stats.rounds as f64 / full.report.stats.rays.max(1) as f64).max(1.0);
        println!(
            "{:<11} {:>12.3} {:>16.3} {:>22.3}",
            setup.kind.name(),
            traversal.report.time_ms / rounds,
            sorting.report.time_ms / rounds,
            full.report.time_ms / rounds
        );
    }
}
