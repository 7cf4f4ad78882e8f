//! Fig. 5: icosahedron bounding mesh vs custom Gaussian primitive —
//! (a) rendering time, (b) BVH size.

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes};
use grtx_bvh::layout::format_bytes;

fn main() {
    banner(
        "Fig. 5: bounding primitives (icosahedron vs custom Gaussian)",
        "Fig. 5a and Fig. 5b",
    );
    let scenes = evaluation_scenes();
    let opts = RunOptions::default();

    println!(
        "\n{:<11} {:>14} {:>14} {:>16} {:>16}",
        "scene", "ico time(ms)", "custom(ms)", "ico BVH(paper-scale)", "custom BVH"
    );
    for setup in &scenes {
        let ico = setup.try_run(&PipelineVariant::baseline(), &opts).unwrap();
        let custom = setup
            .try_run(&PipelineVariant::custom_primitive(), &opts)
            .unwrap();
        let f = ico.scale_factor;
        println!(
            "{:<11} {:>14.3} {:>14.3} {:>16} {:>16}",
            setup.kind.name(),
            ico.report.time_ms,
            custom.report.time_ms,
            format_bytes(ico.size.extrapolated(f).total_bytes),
            format_bytes(custom.size.extrapolated(f).total_bytes),
        );
    }
    println!("(paper: custom primitives render slower despite much smaller BVHs,");
    println!(" because ray-ellipsoid tests run in software intersection shaders)");
}
