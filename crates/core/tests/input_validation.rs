//! `SceneSetup::try_run` turns every degenerate GPU or k-buffer
//! configuration into a typed `GrtxError::InvalidConfig` before any work
//! starts — no panic deep inside the cache model or k-buffer, and no
//! `Ok` carrying an infinite render time.

use grtx::{GpuConfig, GrtxError, PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;

fn try_run(options: RunOptions) -> Result<grtx::ExperimentResult, GrtxError> {
    let setup = SceneSetup::evaluation(SceneKind::Room, 2000, 16, 11);
    setup.try_run(
        &PipelineVariant::grtx(),
        &RunOptions {
            threads: 1,
            ..options
        },
    )
}

/// Asserts that `try_run` rejects `options` with an `InvalidConfig`
/// whose reason names `field`.
fn assert_rejected(field: &str, options: RunOptions) {
    match try_run(options) {
        Err(GrtxError::InvalidConfig { reason }) => {
            assert!(reason.contains(field), "{field}: reason was {reason:?}")
        }
        Err(other) => panic!("{field}: expected InvalidConfig, got {other}"),
        Ok(run) => panic!(
            "{field}: expected InvalidConfig, got Ok ({} ms)",
            run.report.time_ms
        ),
    }
}

/// [`assert_rejected`] for the default options with `edit` applied to
/// the GPU configuration.
fn assert_gpu_rejected(field: &str, edit: impl FnOnce(&mut GpuConfig)) {
    let mut gpu = GpuConfig::default();
    edit(&mut gpu);
    assert_rejected(
        field,
        RunOptions {
            gpu,
            ..Default::default()
        },
    );
}

#[test]
fn valid_options_run() {
    let run = try_run(RunOptions::default()).expect("default configuration is valid");
    assert!(run.report.time_ms.is_finite());
}

#[test]
fn non_power_of_two_line_is_rejected() {
    assert_gpu_rejected("line_bytes", |gpu| gpu.line_bytes = 96);
}

#[test]
fn zero_line_is_rejected() {
    assert_gpu_rejected("line_bytes", |gpu| gpu.line_bytes = 0);
}

#[test]
fn l1_smaller_than_a_line_is_rejected() {
    assert_gpu_rejected("l1_bytes", |gpu| gpu.l1_bytes = 64);
}

#[test]
fn l2_smaller_than_a_line_is_rejected() {
    assert_gpu_rejected("l2_bytes", |gpu| gpu.l2_bytes = 127);
}

#[test]
fn zero_l1_ways_are_rejected() {
    assert_gpu_rejected("l1_ways", |gpu| gpu.l1_ways = 0);
}

#[test]
fn zero_l2_ways_are_rejected() {
    assert_gpu_rejected("l2_ways", |gpu| gpu.l2_ways = 0);
}

#[test]
fn zero_clock_is_rejected() {
    assert_gpu_rejected("clock_mhz", |gpu| gpu.clock_mhz = 0.0);
}

#[test]
fn negative_clock_is_rejected() {
    assert_gpu_rejected("clock_mhz", |gpu| gpu.clock_mhz = -1365.0);
}

#[test]
fn non_finite_clock_is_rejected() {
    assert_gpu_rejected("clock_mhz", |gpu| gpu.clock_mhz = f64::NAN);
    assert_gpu_rejected("clock_mhz", |gpu| gpu.clock_mhz = f64::INFINITY);
}

#[test]
fn zero_k_is_rejected() {
    assert_rejected(
        "k must be",
        RunOptions {
            k: 0,
            ..Default::default()
        },
    );
}
