//! Sharded scene walkthrough: build a 10×-scale synthetic scene as
//! spatial shards in parallel, print per-shard build times and
//! accounting, and verify the sharded render report is bit-identical to
//! the unsharded one.
//!
//! ```sh
//! cargo run --release --example sharded_scene
//! ```

use grtx::{format_bytes, LayoutConfig, PipelineVariant, RunOptions, SceneSetup, ShardedAccel};
use grtx_scene::SceneKind;
use std::time::Instant;

fn main() {
    // A Train scene at 10× the default example scale (~36k Gaussians),
    // rendered at 48×48.
    let kind = SceneKind::Train;
    let divisor = 400;
    let budget = (kind.profile().full_gaussian_count / divisor) * 10;
    let profile = kind
        .profile()
        .with_gaussian_budget(budget)
        .with_resolution(48, 48);
    let setup = SceneSetup::from_profile(kind, profile, divisor / 10, 42);
    let variant = PipelineVariant::grtx_sw_sphere();
    let layout = LayoutConfig::default();
    println!(
        "scene: {} at 10x example scale -> {} Gaussians",
        kind.name(),
        setup.scene.len()
    );

    // Serial reference build.
    let serial_start = Instant::now();
    let serial = setup.build_accel(&variant, &layout);
    let serial_seconds = serial_start.elapsed().as_secs_f64();

    // Sharded parallel build: 8 spatial shards over all cores.
    let shards = 8;
    let sharded_start = Instant::now();
    let sharded = ShardedAccel::build(
        &setup.scene,
        variant.primitive,
        variant.two_level,
        &layout,
        shards,
        0,
    );
    let sharded_seconds = sharded_start.elapsed().as_secs_f64();

    println!(
        "\nbuild: serial {:.1} ms | sharded ({} shards, {} threads) {:.1} ms \
         [plan {:.1} ms, subtrees {:.1} ms, stitch {:.1} ms]",
        serial_seconds * 1e3,
        sharded.shard_count(),
        sharded.threads_used(),
        sharded_seconds * 1e3,
        sharded.plan_seconds() * 1e3,
        sharded.build_seconds() * 1e3,
        sharded.assemble_seconds() * 1e3,
    );

    println!(
        "\n{:<6} {:>10} {:>10} {:>12} {:>10}",
        "shard", "gaussians", "nodes", "bytes", "build ms"
    );
    for shard in sharded.shards() {
        println!(
            "{:<6} {:>10} {:>10} {:>12} {:>10.2}",
            shard.id,
            shard.prim_count,
            shard.size.node_count,
            format_bytes(shard.size.total_bytes),
            shard.build_seconds * 1e3,
        );
    }
    let dir = sharded.directory();
    println!(
        "{:<6} {:>10} {:>10} {:>12}   (top-level shard BVH + shared BLAS)",
        "dir",
        "-",
        dir.node_count,
        format_bytes(dir.total_bytes),
    );
    println!(
        "total  {:>33} (bit-identical to the serial build)",
        format_bytes(sharded.size_report().total_bytes)
    );

    // Render both ways and compare reports.
    let opts = RunOptions::default();
    let unsharded_report = setup
        .try_run_with_accel(&serial, &variant, &opts)
        .unwrap()
        .report;
    let sharded_report = setup
        .try_run_with_accel(sharded.accel(), &variant, &opts)
        .unwrap()
        .report;
    let identical = unsharded_report.image.pixels() == sharded_report.image.pixels()
        && unsharded_report.cycles == sharded_report.cycles
        && unsharded_report.stats == sharded_report.stats;
    println!(
        "\nrender: {:.2} ms simulated, {} cycles, PSNR(sharded, unsharded) = {}",
        sharded_report.time_ms,
        sharded_report.cycles,
        unsharded_report.image.psnr(&sharded_report.image),
    );
    println!(
        "sharded vs unsharded reports bit-identical: {}",
        if identical { "yes" } else { "NO (bug!)" }
    );
    assert!(identical, "sharded rendering must be bit-identical");
}
