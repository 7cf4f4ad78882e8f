//! Fig. 22: GRTX-SW with the Blackwell hardware sphere primitive vs the
//! baseline icosahedron mesh. The sphere eliminates false positives but
//! its intersection throughput trails the triangle units, so the win is
//! smaller than TLAS+80-tri (Fig. 12).

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes, geomean};

fn main() {
    banner(
        "Fig. 22: GRTX-SW with the hardware sphere primitive",
        "Fig. 22",
    );
    let scenes = evaluation_scenes();
    let opts = RunOptions::default();

    println!(
        "\n{:<11} {:>13} {:>13} {:>9}",
        "scene", "20-tri(ms)", "sphere(ms)", "speedup"
    );
    let mut speedups = Vec::new();
    for setup in &scenes {
        let base = setup.try_run(&PipelineVariant::baseline(), &opts).unwrap();
        let sphere = setup
            .try_run(&PipelineVariant::grtx_sw_sphere(), &opts)
            .unwrap();
        let s = base.report.time_ms / sphere.report.time_ms;
        speedups.push(s);
        println!(
            "{:<11} {:>13.3} {:>13.3} {:>9.2}",
            setup.kind.name(),
            base.report.time_ms,
            sphere.report.time_ms,
            s
        );
    }
    println!(
        "geomean: {:.2}x (paper: 1.2-1.7x, below TLAS+80-tri due to sphere-test throughput)",
        geomean(&speedups)
    );
}
