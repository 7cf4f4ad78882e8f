//! Fig. 7: unique vs total visited nodes (internal/leaf split) across
//! multi-round traversal at k = 16 — the redundancy GRTX-HW eliminates.

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes};

fn main() {
    banner(
        "Fig. 7: unique vs total node visits (baseline, k = 16)",
        "Fig. 7",
    );
    let scenes = evaluation_scenes();
    let opts = RunOptions::default();

    println!(
        "\n{:<11} {:>13} {:>13} {:>13} {:>13} {:>11}",
        "scene", "uniq-internal", "uniq-leaf", "total-internal", "total-leaf", "redundancy"
    );
    for setup in &scenes {
        let r = setup.try_run(&PipelineVariant::baseline(), &opts).unwrap();
        let s = &r.report.stats;
        let uniq_leaf = s.node_fetches_unique - s.internal_fetches_unique;
        let total_leaf = s.node_fetches_total - s.internal_fetches_total;
        println!(
            "{:<11} {:>13} {:>13} {:>13} {:>13} {:>11.2}",
            setup.kind.name(),
            s.internal_fetches_unique,
            uniq_leaf,
            s.internal_fetches_total,
            total_leaf,
            s.redundancy()
        );
    }
    println!("(paper: a non-negligible unique-vs-total gap across all scenes)");
}
