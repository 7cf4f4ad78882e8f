//! Quickstart: synthesize a Gaussian scene, build the GRTX two-level
//! acceleration structure, render it through the simulated GPU, and
//! write the image to a PPM file.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Train-statistics scene at 1/200 of the paper's Gaussian count so
    // the example finishes in seconds; bump the divisor down for fidelity.
    let setup = SceneSetup::evaluation(SceneKind::Train, 200, 96, 42);
    println!(
        "scene: {} ({} Gaussians at 1/{} scale), camera {}x{}",
        setup.kind,
        setup.scene.len(),
        setup.divisor,
        setup.camera.width,
        setup.camera.height
    );

    for variant in [PipelineVariant::baseline(), PipelineVariant::grtx()] {
        let result = setup.try_run(&variant, &RunOptions::default())?;
        let r = &result.report;
        println!(
            "{:<9} time {:7.3} ms | node fetches {:>9} | L1 {:.2} | BVH {:.1} MB",
            variant.name,
            r.time_ms,
            r.stats.node_fetches_total,
            r.l1_hit_rate,
            result.size.total_bytes as f64 / (1024.0 * 1024.0),
        );
        if variant.name == "GRTX" {
            let path = std::env::temp_dir().join("grtx_quickstart.ppm");
            r.image.write_ppm(&path)?;
            println!("image written to {}", path.display());
        }
    }
    Ok(())
}
