//! Fig. 18: GRTX performance across k-buffer sizes (checkpointing makes
//! small k viable; stragglers make it lose again below k = 8).

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes};
use grtx_bvh::LayoutConfig;

fn main() {
    banner("Fig. 18: GRTX k-buffer size sensitivity", "Fig. 18");
    let scenes = evaluation_scenes();
    let grtx = PipelineVariant::grtx();
    let ks = [4usize, 8, 16, 32, 64];

    print!("{:<11}", "scene");
    for k in ks {
        print!(" {:>9}", format!("k={k}"));
    }
    println!("   (speedup vs k=4, higher is better)");
    for setup in &scenes {
        let accel = setup.build_accel(&grtx, &LayoutConfig::default());
        let times: Vec<f64> = ks
            .iter()
            .map(|&k| {
                setup
                    .try_run_with_accel(
                        &accel,
                        &grtx,
                        &RunOptions {
                            k,
                            ..Default::default()
                        },
                    )
                    .unwrap()
                    .report
                    .time_ms
            })
            .collect();
        print!("{:<11}", setup.kind.name());
        for t in &times {
            print!(" {:>9.3}", times[0] / t);
        }
        println!();
    }
    println!("(paper: performance normalized to k=4; k=8 is the best average)");
}
