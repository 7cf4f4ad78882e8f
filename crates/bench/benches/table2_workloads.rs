//! Table II: workload summary — Gaussian counts, BVH heights, BVH sizes
//! (20-tri vs TLAS+20-tri, extrapolated to paper scale), and measured
//! BVH memory footprints during rendering.

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes};
use grtx_bvh::layout::format_bytes;

fn main() {
    banner("Table II: workload summary", "Table II");
    let scenes = evaluation_scenes();
    let opts = RunOptions::default();

    println!(
        "\n{:<11} {:>10} {:>8} {:>12} {:>14} {:>12} {:>14}",
        "scene", "#gauss", "height", "BVH 20-tri", "TLAS+20-tri", "fp 20-tri", "fp TLAS+20-tri"
    );
    for setup in &scenes {
        let mono = setup.try_run(&PipelineVariant::baseline(), &opts).unwrap();
        let tlas = setup.try_run(&PipelineVariant::grtx_sw(), &opts).unwrap();
        let f = mono.scale_factor;
        println!(
            "{:<11} {:>10} {:>8} {:>12} {:>14} {:>12} {:>14}",
            setup.kind.name(),
            format!("{:.2}M", setup.profile.full_gaussian_count as f64 / 1e6),
            format!("{}/{}", mono.height, tlas.height),
            format_bytes(mono.size.extrapolated(f).total_bytes),
            format_bytes(tlas.size.extrapolated(f).total_bytes),
            format_bytes((mono.report.footprint_bytes as f64 * f) as u64),
            format_bytes((tlas.report.footprint_bytes as f64 * f) as u64),
        );
    }
    println!(
        "(Gaussian counts are Table II's; structures are built at 1/{} scale",
        scenes[0].divisor
    );
    println!(" and sizes/footprints extrapolated linearly — see EXPERIMENTS.md)");
    println!("(paper: e.g. Truck 3.88 GB vs 345 MB; footprints 181 MB vs 36 MB)");
}
