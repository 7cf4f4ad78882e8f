//! The scene-sharding contract, enforced end-to-end through the
//! experiment layer: sharded rendering is **bit-identical** to the
//! unsharded path — images, cycle counts, and every statistic — for any
//! shard count at any thread count. Sharding changes build wall-clock
//! time only.

use grtx::{ExperimentResult, PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;

fn assert_bit_identical(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(
        a.report.image.pixels(),
        b.report.image.pixels(),
        "{what}: image bytes"
    );
    assert_eq!(a.report.cycles, b.report.cycles, "{what}: cycles");
    assert_eq!(a.report.stats, b.report.stats, "{what}: SimStats");
    assert_eq!(a.report.l2_accesses, b.report.l2_accesses, "{what}: L2");
    assert_eq!(
        a.report.dram_accesses, b.report.dram_accesses,
        "{what}: DRAM"
    );
    assert_eq!(
        a.report.footprint_bytes, b.report.footprint_bytes,
        "{what}: footprint"
    );
    assert!(
        (a.report.l1_hit_rate - b.report.l1_hit_rate).abs() < 1e-15,
        "{what}: L1 hit rate"
    );
    assert_eq!(a.size, b.size, "{what}: size report");
    assert_eq!(a.height, b.height, "{what}: structure height");
}

/// The acceptance matrix: shards ∈ {1, 2, 8} × threads ∈ {1, 3}, against
/// the serial unsharded path, for the full GRTX two-level pipeline.
#[test]
fn sharded_rendering_is_bit_identical_for_grtx() {
    let setup = SceneSetup::evaluation(SceneKind::Train, 800, 32, 42);
    let variant = PipelineVariant::grtx();
    let unsharded = setup
        .try_run(
            &variant,
            &RunOptions {
                k: 8,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(unsharded.sharding.is_none());
    for shards in [1usize, 2, 8] {
        for threads in [1usize, 3] {
            let sharded = setup
                .try_run(
                    &variant,
                    &RunOptions {
                        k: 8,
                        shards,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_bit_identical(
                &unsharded,
                &sharded,
                &format!("shards={shards} threads={threads}"),
            );
            let summary = sharded.sharding.expect("sharded runs carry a summary");
            assert_eq!(summary.shard_count, shards);
            let accounted: u64 = summary.directory.total_bytes
                + summary
                    .shard_sizes
                    .iter()
                    .map(|s| s.total_bytes)
                    .sum::<u64>();
            assert_eq!(
                accounted, sharded.size.total_bytes,
                "shard + directory bytes must cover the structure exactly"
            );
        }
    }
}

/// The monolithic baseline (proxy-triangle BVH) follows the same
/// contract: shards partition proxy triangles instead of instances.
#[test]
fn sharded_rendering_is_bit_identical_for_monolithic_baseline() {
    let setup = SceneSetup::evaluation(SceneKind::Room, 2000, 24, 7);
    let variant = PipelineVariant::baseline();
    let unsharded = setup.try_run(&variant, &RunOptions::default()).unwrap();
    for shards in [2usize, 8] {
        let sharded = setup
            .try_run(
                &variant,
                &RunOptions {
                    shards,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_bit_identical(&unsharded, &sharded, &format!("baseline shards={shards}"));
    }
}

/// The custom-primitive variant (software ellipsoids, one prim per
/// Gaussian) follows the same contract.
#[test]
fn sharded_rendering_is_bit_identical_for_custom_primitive() {
    let setup = SceneSetup::evaluation(SceneKind::Bonsai, 4000, 24, 13);
    let variant = PipelineVariant::custom_primitive();
    let unsharded = setup.try_run(&variant, &RunOptions::default()).unwrap();
    let sharded = setup
        .try_run(
            &variant,
            &RunOptions {
                shards: 4,
                ..Default::default()
            },
        )
        .unwrap();
    assert_bit_identical(&unsharded, &sharded, "custom shards=4");
}

/// Secondary rays (Fig. 23 effects) compose with sharding.
#[test]
fn sharded_rendering_is_bit_identical_with_secondary_rays() {
    let setup = SceneSetup::evaluation(SceneKind::Train, 1500, 24, 5);
    let variant = PipelineVariant::grtx_sw_sphere();
    let opts = |shards| RunOptions {
        effects_seed: Some(5),
        shards,
        ..Default::default()
    };
    let unsharded = setup.try_run(&variant, &opts(0)).unwrap();
    let sharded = setup.try_run(&variant, &opts(8)).unwrap();
    assert_bit_identical(&unsharded, &sharded, "effects shards=8");
    assert_eq!(unsharded.report.secondary, sharded.report.secondary);
}
