//! Scaling: sharded acceleration-structure builds. Tracks TLAS build
//! time (serial vs sharded-parallel) and end-to-end render time vs shard
//! count, at 1×/4×/10× scene scale — the scaling story behind the
//! ROADMAP's multi-million-Gaussian / out-of-core / distributed goals.

use grtx::{LayoutConfig, PipelineVariant, RunOptions, SceneSetup, ShardedAccel};
use grtx_bench::{banner, BENCH_SEED};
use grtx_scene::SceneKind;
use std::time::Instant;

fn main() {
    banner(
        "Scaling: sharded scene builds and renders",
        "scene sharding",
    );
    let kind = SceneKind::Train;
    let divisor = SceneSetup::env_divisor();
    let res = SceneSetup::env_resolution();
    let base_budget = (kind.profile().full_gaussian_count / divisor).max(1);
    let variant = PipelineVariant::grtx_sw();
    let layout = LayoutConfig::default();
    let shard_counts = [1usize, 2, 4, 8, 16];

    println!(
        "{:<7} {:>10} {:>11} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>10}",
        "scale", "gaussians", "serial ms", "k=1", "k=2", "k=4", "k=8", "k=16", "render ms"
    );
    for scale in [1usize, 4, 10] {
        let profile = kind
            .profile()
            .with_gaussian_budget(base_budget * scale)
            .with_resolution(res, res);
        let setup = SceneSetup::from_profile(kind, profile, (divisor / scale).max(1), BENCH_SEED);

        let serial_start = Instant::now();
        let serial = setup.build_accel(&variant, &layout);
        let serial_ms = serial_start.elapsed().as_secs_f64() * 1e3;
        drop(serial);

        let mut build_ms = Vec::new();
        let mut last = None;
        for &shards in &shard_counts {
            let start = Instant::now();
            let sharded = ShardedAccel::build(
                &setup.scene,
                variant.primitive,
                variant.two_level,
                &layout,
                shards,
                0,
            );
            build_ms.push(start.elapsed().as_secs_f64() * 1e3);
            last = Some(sharded);
        }
        // End-to-end render on the final sharded build (identical to the
        // serial structure, so one measurement covers them all).
        let sharded = last.expect("at least one shard count");
        let render_start = Instant::now();
        let result = setup
            .try_run_with_accel(sharded.accel(), &variant, &RunOptions::default())
            .unwrap();
        let render_ms = render_start.elapsed().as_secs_f64() * 1e3;
        assert!(result.report.cycles > 0);

        print!(
            "{:<7} {:>10} {:>11.1} |",
            format!("{scale}x"),
            setup.scene.len(),
            serial_ms
        );
        for ms in &build_ms {
            print!(" {ms:>9.1}");
        }
        println!(" | {render_ms:>10.1}");
    }
    println!(
        "(build columns: sharded parallel build wall ms at k shards on all cores; \
         structures are bit-identical to the serial build at every k)"
    );
}
