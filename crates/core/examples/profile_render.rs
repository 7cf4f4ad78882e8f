//! Runs a profiled frame stream and dumps the microarchitecture
//! observability artifacts: a virtual-clock Chrome trace (one track per
//! simulated SM, one tick per GPU cycle) and the machine-readable
//! `grtx-prof-v1` report, plus the human summary table on stdout.
//!
//! ```text
//! cargo run --release --example profile_render [-- <trace-path>]
//! ```
//!
//! The trace path defaults to `$GRTX_PROFILE`, then `profile.json`; the
//! report lands next to it as `<stem>.report.json`. Unlike
//! `traced_stream`'s wall-clock artifacts, both files live entirely on
//! the simulated timebase, so re-running this example — at any thread
//! count — reproduces them byte for byte.

use grtx::{PipelineVariant, Profiler, RunOptions, SceneSetup};
use grtx_scene::SceneKind;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let trace_path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .or_else(grtx::profile_path_from_env)
        .unwrap_or_else(|| PathBuf::from("profile.json"));

    let profiler = Profiler::enabled();
    let setup = SceneSetup::evaluation(SceneKind::Train, 1000, 48, 42);
    let options = RunOptions {
        threads: 4,
        shards: 4,
        profiler: profiler.clone(),
        ..Default::default()
    };
    // Jitter every 2nd frame so the profiled launches span both rebuilt
    // and reused structures; depth 3 exercises the task-graph path the
    // profiler must stay order-independent under.
    let source = setup.jitter_source(0.05, 2);
    let frames = setup
        .try_run_stream(&source, 6, &PipelineVariant::grtx(), &options, 3)
        .unwrap();
    assert_eq!(frames.len(), 6, "stream must deliver every frame");

    grtx::write_profile(&profiler, &trace_path)?;
    let report = profiler.report().expect("enabled profiler always reports");
    println!(
        "profiled {} frames ({} launches, {} matrix cells)",
        frames.len(),
        report.launches.len(),
        report.matrix.len()
    );
    println!(
        "chrome trace: {}\nreport json:  {}\n",
        trace_path.display(),
        grtx::report_path_for(&trace_path).display()
    );
    print!("{}", report.summary_table());
    Ok(())
}
