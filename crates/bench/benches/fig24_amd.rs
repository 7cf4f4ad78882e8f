//! Fig. 24: cross-vendor applicability — an AMD-like GPU (shader-core
//! node fetches, larger BVH encoding, 4 GB Vulkan buffer-allocation
//! limit). Monolithic mesh BVHs exceed the limit for most scenes at
//! paper scale (marked x); the shared-BLAS variants always fit.

use grtx::{PipelineVariant, RunOptions};
use grtx_bench::{banner, evaluation_scenes};
use grtx_bvh::layout::format_bytes;
use grtx_sim::GpuConfig;

/// Vulkan maxBufferSize on the evaluated AMD driver (4 GB).
const VULKAN_BUFFER_LIMIT: u64 = 4 * 1024 * 1024 * 1024;

fn main() {
    banner(
        "Fig. 24: AMD-like GPU (Radeon RX 9070 XT analogue)",
        "Fig. 24",
    );
    let scenes = evaluation_scenes();
    let variants = [
        PipelineVariant::baseline(),
        PipelineVariant::baseline_80(),
        PipelineVariant::grtx_sw(),
        PipelineVariant::grtx_sw_80(),
    ];
    let opts = RunOptions {
        gpu: GpuConfig::amd_like(),
        layout_amd: true,
        ..Default::default()
    };

    print!("{:<11}", "scene");
    for v in &variants {
        print!(" {:>14}", v.name);
    }
    println!("   (time normalized to TLAS+80-tri; x = BVH exceeds 4 GB)");
    for setup in &scenes {
        // Feasibility at paper scale is decided from the extrapolated
        // structure size, exactly like the real 4 GB allocation failures.
        let mut times: Vec<Option<f64>> = Vec::new();
        let mut sizes: Vec<u64> = Vec::new();
        for v in &variants {
            let accel = setup.build_accel(v, &grtx_bvh::LayoutConfig::amd());
            let full_size = accel
                .size_report()
                .extrapolated(setup.scale_factor_for_bench())
                .total_bytes;
            sizes.push(full_size);
            if full_size > VULKAN_BUFFER_LIMIT {
                times.push(None);
            } else {
                let r = setup.try_run_with_accel(&accel, v, &opts).unwrap();
                times.push(Some(r.report.time_ms));
            }
        }
        let reference = times[3].expect("TLAS+80-tri always fits");
        print!("{:<11}", setup.kind.name());
        for (t, size) in times.iter().zip(&sizes) {
            match t {
                Some(ms) => print!(" {:>14.2}", ms / reference),
                None => print!(" {:>14}", format!("x ({})", format_bytes(*size))),
            }
        }
        println!();
    }
    println!("(paper: 20/80-tri monolithic BVHs exceed 4 GB for most scenes;");
    println!(" TLAS+20-tri achieves 1.73-3.42x over feasible 20-tri baselines)");
}

/// Helper trait to keep the bench body readable.
trait ScaleFactor {
    fn scale_factor_for_bench(&self) -> f64;
}

impl ScaleFactor for grtx::SceneSetup {
    fn scale_factor_for_bench(&self) -> f64 {
        self.profile.full_gaussian_count as f64 / self.scene.len().max(1) as f64
    }
}
