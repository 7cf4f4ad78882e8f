//! `GRTX_PROFILE` convenience: turn on the simulated-cycle profiler and
//! dump its artifacts (a virtual-clock Chrome trace plus the
//! `grtx-prof-v1` report) through one environment variable.
//!
//! Setting `GRTX_PROFILE=<path>` means "collect per-(launch, SM)
//! hardware counters and warp timelines and write the Chrome trace-event
//! JSON to `<path>`"; the [`ProfReport`](grtx_prof::ProfReport) JSON
//! lands next to it at `<path minus extension>.report.json`. Binaries
//! opt in with two calls:
//!
//! ```no_run
//! let profiler = grtx::profiler_from_env();
//! // ... run experiments with `profiler` in their `RunOptions` ...
//! grtx::write_profile_from_env(&profiler).unwrap();
//! ```
//!
//! With the variable unset, `profiler_from_env` returns the disabled
//! handle and `write_profile_from_env` writes nothing — the default path
//! stays zero-overhead.
//!
//! Unlike `GRTX_TRACE`, whose trace timestamps come from the wall clock,
//! both profile artifacts live entirely on the simulated timebase (one
//! trace tick per GPU cycle), so two runs of a deterministic workload
//! produce byte-identical files at any thread count.

use crate::trace::report_path_for;
use grtx_prof::Profiler;
use std::path::{Path, PathBuf};

/// The environment variable naming the profile trace output path.
pub const PROFILE_ENV: &str = "GRTX_PROFILE";

/// The profile path from [`PROFILE_ENV`], if set and non-empty.
pub fn profile_path_from_env() -> Option<PathBuf> {
    std::env::var_os(PROFILE_ENV)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// An enabled [`Profiler`] handle when [`PROFILE_ENV`] is set, the
/// disabled (zero-overhead) handle otherwise.
pub fn profiler_from_env() -> Profiler {
    if profile_path_from_env().is_some() {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    }
}

/// Writes `profiler`'s virtual-clock Chrome trace to `trace_path` and
/// its [`grtx_prof::ProfReport`] JSON to
/// [`report_path_for`]`(trace_path)`.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`] when `profiler` is
/// disabled (there is nothing to write), or any underlying filesystem
/// error.
pub fn write_profile(profiler: &Profiler, trace_path: &Path) -> std::io::Result<()> {
    let trace = profiler.chrome_trace().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "profiler is disabled; no profile to write",
        )
    })?;
    let report = profiler
        .report()
        .expect("an enabled handle always has a report");
    if let Some(parent) = trace_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(trace_path, trace)?;
    std::fs::write(report_path_for(trace_path), report.to_json())?;
    Ok(())
}

/// [`write_profile`] to the [`PROFILE_ENV`] path, returning where the
/// trace landed — or `Ok(None)`, writing nothing, when the variable is
/// unset.
///
/// # Errors
///
/// Propagates [`write_profile`] errors (including the disabled-handle
/// error when the variable is set but `profiler` never collected).
pub fn write_profile_from_env(profiler: &Profiler) -> std::io::Result<Option<PathBuf>> {
    match profile_path_from_env() {
        Some(path) => {
            write_profile(profiler, &path)?;
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineVariant, RunOptions, SceneSetup};
    use grtx_scene::SceneKind;

    #[test]
    fn disabled_handles_refuse_to_write() {
        let err = write_profile(&Profiler::disabled(), Path::new("/nonexistent/prof.json"))
            .expect_err("disabled handle has nothing to write");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn write_profile_produces_both_artifacts() {
        let profiler = Profiler::enabled();
        let setup = SceneSetup::evaluation(SceneKind::Train, 1000, 16, 5);
        let options = RunOptions {
            profiler: profiler.clone(),
            ..Default::default()
        };
        setup.try_run(&PipelineVariant::grtx(), &options).unwrap();
        let dir = std::env::temp_dir().join(format!("grtx-profile-test-{}", std::process::id()));
        let trace_path = dir.join("prof.json");
        write_profile(&profiler, &trace_path).expect("write succeeds");
        let trace = std::fs::read_to_string(&trace_path).expect("trace written");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"sm-00\""));
        assert!(trace.contains("\"warp\""));
        let report = std::fs::read_to_string(report_path_for(&trace_path)).expect("report written");
        assert!(report.contains("grtx-prof-v1"));
        assert!(report.contains("\"matrix\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
