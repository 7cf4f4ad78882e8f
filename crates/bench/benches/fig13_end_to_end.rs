//! Figures 13–17 + Fig. 20: end-to-end speedup of Baseline / GRTX-SW /
//! GRTX-HW / GRTX, with the underlying node-fetch, latency, L1, L2, and
//! checkpoint-buffer measurements — all from the same four runs per
//! scene, exactly as the paper derives them.

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes, geomean};
use grtx_bvh::CHECKPOINT_ENTRY_BYTES;

fn main() {
    banner(
        "Fig. 13-17 + Fig. 20: end-to-end GRTX evaluation",
        "Figs. 13 (speedup), 14 (node fetches), 15 (fetch latency), 16 (L1), 17 (L2), 20 (buffers)",
    );
    let scenes = evaluation_scenes();
    let variants = PipelineVariant::fig13_lineup();
    let opts = RunOptions::default();

    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    println!(
        "\n{:<11} {:<9} {:>9} {:>9} {:>11} {:>9} {:>8} {:>12}",
        "scene", "variant", "time(ms)", "speedup", "fetches", "norm.lat", "L1 rate", "L2 accesses"
    );
    for setup in &scenes {
        let results: Vec<_> = variants
            .iter()
            .map(|v| setup.try_run(v, &opts).unwrap())
            .collect();
        let base = &results[0].report;
        for (i, (variant, res)) in variants.iter().zip(&results).enumerate() {
            let r = &res.report;
            let speedup = base.time_ms / r.time_ms;
            speedups[i].push(speedup);
            println!(
                "{:<11} {:<9} {:>9.3} {:>9.2} {:>11} {:>9.3} {:>8.3} {:>12}",
                setup.kind.name(),
                variant.name,
                r.time_ms,
                speedup,
                r.stats.node_fetches_total,
                r.avg_fetch_latency / base.avg_fetch_latency.max(1e-9),
                r.l1_hit_rate,
                r.l2_accesses,
            );
        }
        // Fig. 20: checkpoint + eviction buffer sizing for the GRTX run.
        let grtx = &results[3].report;
        let gpu = &opts.gpu;
        let rays_resident = (gpu.num_sms * gpu.warp_buffer_size * gpu.warp_size) as u64;
        // Ping-pong checkpoint buffers + eviction buffer, sized by the
        // peak per-ray occupancy observed.
        let ckpt_bytes =
            grtx.stats.peak_checkpoint_entries * CHECKPOINT_ENTRY_BYTES * rays_resident * 2;
        let evict_bytes = grtx.stats.peak_eviction_entries * 8 * rays_resident;
        println!(
            "{:<11} Fig20: ckpt buffer {:.2} MB, eviction buffer {:.2} MB (peaks {} / {} entries/ray)",
            "",
            ckpt_bytes as f64 / (1024.0 * 1024.0),
            evict_bytes as f64 / (1024.0 * 1024.0),
            grtx.stats.peak_checkpoint_entries,
            grtx.stats.peak_eviction_entries
        );
    }
    println!("\nGeomean speedups over Baseline (paper: GRTX-SW 2.00x, GRTX-HW 1.94x, GRTX 4.36x):");
    for (variant, s) in variants.iter().zip(&speedups) {
        println!("  {:<9} {:.2}x", variant.name, geomean(s));
    }
}
