//! Secondary-ray light effects (reflections and refractions) — the
//! Fig. 23 workload: a glass sphere and a mirror quad are dropped into a
//! Gaussian scene, and rays that hit them spawn secondary rays traced
//! through the same acceleration structure.
//!
//! ```sh
//! cargo run --release --example secondary_rays
//! ```

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let setup = SceneSetup::evaluation(SceneKind::Drjohnson, 200, 96, 42);
    let opts = RunOptions {
        effects_seed: Some(11),
        ..Default::default()
    };

    println!("scene: {} + glass sphere + mirror quad", setup.kind);
    for variant in [PipelineVariant::baseline(), PipelineVariant::grtx_hw()] {
        let result = setup.try_run(&variant, &opts)?;
        let r = &result.report;
        match &r.secondary {
            Some(s) => println!(
                "{:<9} total {:7.3} ms | primary {:>9} cyc | secondary {:>9} cyc | {} secondary rays",
                variant.name, r.time_ms, s.primary_cycles, s.secondary_cycles, s.secondary_rays
            ),
            None => println!(
                "{:<9} total {:7.3} ms | objects outside the frustum for this seed",
                variant.name, r.time_ms
            ),
        }
        if variant.name == "GRTX-HW" {
            let path = std::env::temp_dir().join("grtx_secondary.ppm");
            r.image.write_ppm(&path)?;
            println!(
                "image with reflections/refractions written to {}",
                path.display()
            );
        }
    }
    println!("(checkpointing accelerates secondary rays as much as primaries:");
    println!(" it removes redundancy *within* each ray, independent of coherence)");
    Ok(())
}
