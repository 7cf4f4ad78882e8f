//! End-to-end integration tests spanning all crates: scene synthesis →
//! acceleration structures → simulated rendering → reports, asserting
//! the paper's qualitative claims hold on small inputs.

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;

fn setup(kind: SceneKind) -> SceneSetup {
    SceneSetup::evaluation(kind, 1000, 32, 42)
}

#[test]
fn grtx_sw_shrinks_the_bvh_by_an_order_of_magnitude() {
    let s = setup(SceneKind::Truck);
    let opts = RunOptions::default();
    let mono = s.try_run(&PipelineVariant::baseline(), &opts).unwrap();
    let tlas = s.try_run(&PipelineVariant::grtx_sw(), &opts).unwrap();
    let ratio = mono.size.total_bytes as f64 / tlas.size.total_bytes as f64;
    assert!(
        ratio > 5.0,
        "paper reports ~11x (Truck 3.88 GB -> 345 MB); got {ratio:.1}x"
    );
}

#[test]
fn shared_blas_improves_l1_hit_rate() {
    let s = setup(SceneKind::Bonsai);
    let opts = RunOptions::default();
    let mono = s.try_run(&PipelineVariant::baseline(), &opts).unwrap();
    let tlas = s.try_run(&PipelineVariant::grtx_sw(), &opts).unwrap();
    assert!(
        tlas.report.l1_hit_rate > mono.report.l1_hit_rate,
        "GRTX-SW L1 {:.2} must beat baseline {:.2} (Fig. 16)",
        tlas.report.l1_hit_rate,
        mono.report.l1_hit_rate
    );
}

#[test]
fn checkpointing_removes_redundant_fetches() {
    let s = setup(SceneKind::Room);
    let opts = RunOptions {
        k: 8,
        ..Default::default()
    };
    let base = s.try_run(&PipelineVariant::baseline(), &opts).unwrap();
    let hw = s.try_run(&PipelineVariant::grtx_hw(), &opts).unwrap();
    assert!(
        hw.report.stats.node_fetches_total < base.report.stats.node_fetches_total,
        "GRTX-HW must fetch fewer nodes (Fig. 14): {} vs {}",
        hw.report.stats.node_fetches_total,
        base.report.stats.node_fetches_total
    );
    // Under replay, total fetches approach the unique count (Fig. 7's
    // redundancy gap closes).
    assert!(
        hw.report.stats.redundancy() < base.report.stats.redundancy(),
        "redundancy must shrink: {:.2} vs {:.2}",
        hw.report.stats.redundancy(),
        base.report.stats.redundancy()
    );
}

#[test]
fn full_grtx_is_the_fastest_variant() {
    let s = setup(SceneKind::Drjohnson);
    let opts = RunOptions::default();
    let times: Vec<(String, f64)> = PipelineVariant::fig13_lineup()
        .iter()
        .map(|v| {
            (
                v.name.to_string(),
                s.try_run(v, &opts).unwrap().report.time_ms,
            )
        })
        .collect();
    let grtx = times.last().unwrap().1;
    for (name, t) in &times[..3] {
        assert!(
            grtx <= *t,
            "GRTX ({grtx:.3} ms) must not lose to {name} ({t:.3} ms)"
        );
    }
}

#[test]
fn l2_accesses_drop_with_grtx() {
    let s = setup(SceneKind::Playroom);
    let opts = RunOptions::default();
    let base = s.try_run(&PipelineVariant::baseline(), &opts).unwrap();
    let grtx = s.try_run(&PipelineVariant::grtx(), &opts).unwrap();
    assert!(
        grtx.report.l2_accesses < base.report.l2_accesses,
        "Fig. 17: L2 accesses must drop ({} vs {})",
        grtx.report.l2_accesses,
        base.report.l2_accesses
    );
}

#[test]
fn every_scene_profile_renders_nonempty_images() {
    for kind in SceneKind::ALL {
        let s = SceneSetup::evaluation(kind, 2000, 24, 7);
        let r = s
            .try_run(&PipelineVariant::grtx(), &RunOptions::default())
            .unwrap();
        assert!(
            r.report.image.mean_luminance() > 0.0,
            "{kind}: rendered image must not be black"
        );
        assert!(
            r.report.stats.blended_gaussians > 0,
            "{kind}: something must blend"
        );
    }
}

#[test]
fn amd_layout_inflates_structures() {
    let s = setup(SceneKind::Train);
    let nv = s.build_accel(&PipelineVariant::baseline(), &grtx::LayoutConfig::default());
    let amd = s.build_accel(&PipelineVariant::baseline(), &grtx::LayoutConfig::amd());
    assert!(
        amd.size_report().total_bytes > nv.size_report().total_bytes,
        "Fig. 24 premise: AMD generates larger BVHs"
    );
}

#[test]
fn checkpoint_buffers_stay_bounded() {
    // Denser than the shared `setup`: at divisor 1000 no ray collects
    // more than k = 8 hits in a round, so checkpointing never fires.
    let s = SceneSetup::evaluation(SceneKind::Bonsai, 500, 32, 42);
    let r = s
        .try_run(
            &PipelineVariant::grtx(),
            &RunOptions {
                k: 8,
                ..Default::default()
            },
        )
        .unwrap();
    // Fig. 20: buffers are modest; peak occupancy must stay far below the
    // scene's Gaussian count.
    let peak = r.report.stats.peak_checkpoint_entries;
    assert!(peak > 0, "checkpointing must be exercised");
    assert!(
        peak < s.scene.len() as u64,
        "peak checkpoint occupancy {peak} should be below {} Gaussians",
        s.scene.len()
    );
}
