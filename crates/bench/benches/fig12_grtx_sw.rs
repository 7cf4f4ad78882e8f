//! Fig. 12: GRTX-SW speedup with different Gaussian geometries —
//! monolithic 20/80-tri vs TLAS + shared 20/80-tri BLAS.

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes, geomean};

fn main() {
    banner(
        "Fig. 12: GRTX-SW with different Gaussian geometries",
        "Fig. 12",
    );
    let scenes = evaluation_scenes();
    let opts = RunOptions::default();
    let variants = [
        PipelineVariant::baseline(),
        PipelineVariant::baseline_80(),
        PipelineVariant::grtx_sw(),
        PipelineVariant::grtx_sw_80(),
    ];

    print!("{:<11}", "scene");
    for v in &variants {
        print!(" {:>13}", v.name);
    }
    println!("   (speedup over 20-tri)");
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for setup in &scenes {
        let results: Vec<_> = variants
            .iter()
            .map(|v| setup.try_run(v, &opts).unwrap())
            .collect();
        let base_ms = results[0].report.time_ms;
        print!("{:<11}", setup.kind.name());
        for (i, r) in results.iter().enumerate() {
            let s = base_ms / r.report.time_ms;
            speedups[i].push(s);
            print!(" {:>13.2}", s);
        }
        println!();
    }
    print!("{:<11}", "geomean");
    for s in &speedups {
        print!(" {:>13.2}", geomean(s));
    }
    println!();
    println!("(paper: TLAS variants beat both monolithic meshes on every scene)");
}
