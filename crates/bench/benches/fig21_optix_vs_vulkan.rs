//! Fig. 21: OptiX-style payload-register k-buffers vs Vulkan-style
//! global-memory SoA k-buffers — the two implementations should perform
//! similarly (which is what justifies evaluating GRTX in Vulkan).

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes};
use grtx_render::tracer::KBufferStorage;

fn main() {
    banner("Fig. 21: OptiX vs Vulkan implementation parity", "Fig. 21");
    let scenes = evaluation_scenes();
    // OptiX payload registers cap k at 16 (32 payload slots / 2 per
    // entry), so both run k = 16.
    let optix = RunOptions {
        k: 16,
        storage: KBufferStorage::PayloadRegisters,
        ..Default::default()
    };
    let vulkan = RunOptions {
        k: 16,
        storage: KBufferStorage::GlobalSoA,
        ..Default::default()
    };
    let baseline = PipelineVariant::baseline();

    println!(
        "\n{:<11} {:>11} {:>11} {:>8}",
        "scene", "OptiX(ms)", "Vulkan(ms)", "ratio"
    );
    for setup in &scenes {
        let o = setup.try_run(&baseline, &optix).unwrap();
        let v = setup.try_run(&baseline, &vulkan).unwrap();
        println!(
            "{:<11} {:>11.3} {:>11.3} {:>8.3}",
            setup.kind.name(),
            o.report.time_ms,
            v.report.time_ms,
            v.report.time_ms / o.report.time_ms
        );
    }
    println!("(paper: the Vulkan implementation performs similarly to OptiX)");
}
