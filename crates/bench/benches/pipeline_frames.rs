//! Scaling: the async frame pipeline. Tracks overlapped
//! (`depth = 3`: update ∥ build ∥ render) frame streams against
//! one-frame-at-a-time runs (`depth = 1`, the same task graph with one
//! frame in flight) at frame counts 4/16, shard counts 1/4, and thread
//! counts 1/auto — the keep-every-stage-busy story behind the ROADMAP's
//! frame-stream serving goal. Results are bit-identical at every depth
//! by construction; only wall-clock changes.

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_bench::{banner, BENCH_SEED};
use grtx_scene::SceneKind;
use std::time::Instant;

fn main() {
    banner("Scaling: async frame pipeline", "frame-stream overlap");
    let kind = SceneKind::Train;
    let divisor = SceneSetup::env_divisor();
    let res = SceneSetup::env_resolution();
    let setup = SceneSetup::evaluation(kind, divisor, res, BENCH_SEED);
    let variant = PipelineVariant::grtx();
    // An animated scene that rebuilds every frame: the workload whose
    // update + build stages are worth overlapping with rendering.
    let source = setup.jitter_source(0.05, 1);

    println!(
        "{:<7} {:>8} {:>8} | {:>10} {:>12} | {:>8}",
        "frames", "shards", "threads", "stream ms", "seq ms", "overlap"
    );
    for &frames in &[4usize, 16] {
        for &shards in &[1usize, 4] {
            for &threads in &[1usize, 0] {
                let options = RunOptions {
                    shards,
                    threads,
                    ..Default::default()
                };

                // Overlapped: up to three frames in flight.
                let start = Instant::now();
                let stream = setup
                    .try_run_stream(&source, frames, &variant, &options, 3)
                    .unwrap();
                let stream_ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(stream.len(), frames);

                // One at a time: the same frames at depth 1.
                let start = Instant::now();
                let seq = setup
                    .try_run_stream(&source, frames, &variant, &options, 1)
                    .unwrap();
                let seq_ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(seq.len(), frames);

                println!(
                    "{:<7} {:>8} {:>8} | {:>10.1} {:>12.1} | {:>7.2}x",
                    frames,
                    shards,
                    if threads == 0 {
                        "auto".to_string()
                    } else {
                        threads.to_string()
                    },
                    stream_ms,
                    seq_ms,
                    seq_ms / stream_ms.max(1e-9),
                );
            }
        }
    }
    println!(
        "(overlap = depth-1 wall-clock vs depth-3 pipeline; \
         frame results are bit-identical between the two depths)"
    );
}
