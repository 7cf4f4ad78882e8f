//! Runs a telemetry-traced frame stream and dumps the observability
//! artifacts: a Perfetto-loadable Chrome trace (one track per worker
//! thread) and the machine-readable `TelemetryReport` JSON, plus the
//! human summary table on stdout.
//!
//! ```text
//! cargo run --release --example traced_stream [-- <trace-path>]
//! ```
//!
//! The trace path defaults to `$GRTX_TRACE`, then `trace.json`; the
//! report lands next to it as `<stem>.report.json`. The stream is the
//! acceptance configuration: 4 worker threads, 4 build shards, a
//! jittering scene so the stream exercises both rebuilds and rebuild
//! skips.

use grtx::{PipelineVariant, RunOptions, SceneSetup, Telemetry};
use grtx_scene::SceneKind;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let trace_path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .or_else(grtx::trace_path_from_env)
        .unwrap_or_else(|| PathBuf::from("trace.json"));

    let telemetry = Telemetry::enabled();
    let setup = SceneSetup::evaluation(SceneKind::Train, 1000, 48, 42);
    let options = RunOptions {
        threads: 4,
        shards: 4,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    // Jitter every 2nd frame: half the stream rebuilds the sharded
    // structure, the other half exercises the rebuild-skip path.
    let source = setup.jitter_source(0.05, 2);
    let frames = setup
        .try_run_stream(&source, 6, &PipelineVariant::grtx(), &options, 1)
        .unwrap();
    assert_eq!(frames.len(), 6, "stream must deliver every frame");

    grtx::write_trace(&telemetry, &trace_path)?;
    let report = telemetry
        .report()
        .expect("enabled telemetry always reports");
    println!(
        "rendered {} frames ({} rebuilds)",
        frames.len(),
        frames.iter().filter(|f| f.rebuilt()).count()
    );
    println!(
        "chrome trace: {}\nreport json:  {}\n",
        trace_path.display(),
        grtx::report_path_for(&trace_path).display()
    );
    print!("{}", report.summary_table());
    Ok(())
}
