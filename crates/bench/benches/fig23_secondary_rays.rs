//! Fig. 23: GRTX-HW effectiveness on secondary rays. Each scene gains a
//! glass sphere (refraction) and a mirror quad (reflection); speedups
//! are measured separately for primary and secondary rays.

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes, geomean};

fn main() {
    banner(
        "Fig. 23: GRTX-HW on secondary rays (glass sphere + mirror)",
        "Fig. 23b",
    );
    let scenes = evaluation_scenes();
    let opts = RunOptions {
        effects_seed: Some(7),
        ..Default::default()
    };

    println!(
        "\n{:<11} {:>12} {:>14} {:>12}",
        "scene", "primary-spd", "secondary-spd", "#secondary"
    );
    let mut prim_speedups = Vec::new();
    let mut sec_speedups = Vec::new();
    for setup in &scenes {
        let base = setup.try_run(&PipelineVariant::baseline(), &opts).unwrap();
        let hw = setup.try_run(&PipelineVariant::grtx_hw(), &opts).unwrap();
        match (&base.report.secondary, &hw.report.secondary) {
            (Some(b), Some(h)) => {
                let ps = b.primary_cycles as f64 / h.primary_cycles.max(1) as f64;
                let ss = b.secondary_cycles as f64 / h.secondary_cycles.max(1) as f64;
                prim_speedups.push(ps);
                sec_speedups.push(ss);
                println!(
                    "{:<11} {:>12.2} {:>14.2} {:>12}",
                    setup.kind.name(),
                    ps,
                    ss,
                    b.secondary_rays
                );
            }
            _ => {
                // Objects landed outside the frustum for this seed.
                let s = base.report.time_ms / hw.report.time_ms;
                prim_speedups.push(s);
                println!(
                    "{:<11} {:>12.2} {:>14} {:>12}",
                    setup.kind.name(),
                    s,
                    "n/a",
                    0
                );
            }
        }
    }
    println!(
        "geomean primary {:.2}x, secondary {:.2}x (paper: similar speedups for both ray types)",
        geomean(&prim_speedups),
        geomean(&sec_speedups)
    );
}
