#![forbid(unsafe_code)]

//! Shared support for the paper-reproduction bench harnesses.
//!
//! Every bench target regenerates one table or figure from the paper's
//! evaluation section and prints the same rows/series the paper reports.
//! Scene scale and resolution default to `GRTX_SCALE=40` (1/40 of the
//! paper's Gaussian counts) and `GRTX_RES=96` for tractable wall-clock
//! time; set the environment variables for higher-fidelity runs
//! (`GRTX_SCALE=20 GRTX_RES=128` matches the paper's setup one-to-one,
//! modulo the documented synthetic-scene substitution).

use grtx::SceneSetup;
use grtx_scene::SceneKind;

/// Seed used by all benches so every figure sees identical scenes.
pub const BENCH_SEED: u64 = 42;

/// Scene-scale divisor the smoke profile pins (1/800 of paper scale).
pub const SMOKE_SCALE_DIVISOR: &str = "800";

/// Resolution the smoke profile pins.
pub const SMOKE_RESOLUTION: &str = "32";

/// `true` when this bench run should use the fast smoke profile:
/// `cargo bench -- --test` (CI) or `GRTX_SMOKE=1`.
pub fn smoke_requested() -> bool {
    std::env::args().any(|a| a == "--test")
        || std::env::var("GRTX_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Applies the smoke profile by pinning `GRTX_SCALE`/`GRTX_RES` to tiny
/// values — unless the user already set them — so every bench target
/// finishes in seconds. Called from [`banner`], which every figure/table
/// bench prints before building scenes. Returns whether smoke is active.
pub fn apply_smoke_profile() -> bool {
    if !smoke_requested() {
        return false;
    }
    if std::env::var("GRTX_SCALE").is_err() {
        std::env::set_var("GRTX_SCALE", SMOKE_SCALE_DIVISOR);
    }
    if std::env::var("GRTX_RES").is_err() {
        std::env::set_var("GRTX_RES", SMOKE_RESOLUTION);
    }
    true
}

/// Builds the six evaluation scenes at the env-configured scale.
pub fn evaluation_scenes() -> Vec<SceneSetup> {
    let divisor = SceneSetup::env_divisor();
    let res = SceneSetup::env_resolution();
    SceneKind::ALL
        .iter()
        .map(|&kind| SceneSetup::evaluation(kind, divisor, res, BENCH_SEED))
        .collect()
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints a figure/table banner with the run configuration. Also
/// applies the smoke profile when `--test` / `GRTX_SMOKE` asks for it.
pub fn banner(title: &str, paper_ref: &str) {
    let smoke = apply_smoke_profile();
    println!();
    println!("================================================================");
    println!("{title}");
    println!(
        "(reproduces {paper_ref}; scale divisor {}, resolution {}x{}{})",
        SceneSetup::env_divisor(),
        SceneSetup::env_resolution(),
        SceneSetup::env_resolution(),
        if smoke { "; SMOKE profile" } else { "" }
    );
    println!("================================================================");
}

/// Prints one row of named numeric columns.
pub fn row(label: &str, columns: &[(&str, f64)]) {
    print!("{label:<12}");
    for (name, value) in columns {
        print!("  {name}={value:<10.4}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[4.0, 0.25]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }
}
