//! Energy view of the optimisation ladder: the paper's speedups double as
//! energy savings, because vsync idling burns static power and the copy
//! path burns memory-interface energy (tile-based rendering exists "for
//! bandwidth and power reasons" — paper §II).

use mgpu_bench::setup::paper_matrices;
use mgpu_bench::table;
use mgpu_gles::Gl;
use mgpu_gpgpu::{OptConfig, Sum};
use mgpu_tbdr::{EnergyModel, Platform};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1024u32;
    let iters = 50usize;
    let inputs = paper_matrices(n);
    let (a, b) = &*inputs;

    println!("Energy per {iters} sum kernels ({n}x{n}), by configuration\n");
    for platform in Platform::paper_pair() {
        let model = EnergyModel::for_platform(&platform);
        let mut rows = Vec::new();
        for (name, cfg) in [
            ("baseline (vsync)", OptConfig::baseline()),
            ("interval 0", OptConfig::baseline().with_swap_interval_0()),
            ("no swap", OptConfig::baseline().without_swap()),
            (
                "no swap + fp24",
                OptConfig::baseline().without_swap().with_fp24(),
            ),
            (
                "framebuffer + copy",
                OptConfig::baseline()
                    .with_swap_interval_0()
                    .with_framebuffer_rendering(),
            ),
        ] {
            let mut gl = Gl::new(platform.clone(), n, n);
            gl.set_functional(false);
            let mut sum = Sum::builder(n).build(&mut gl, &cfg, a.data(), b.data())?;
            sum.run(&mut gl, iters)?;
            gl.finish();
            let report = gl.report();
            let e = model.estimate(&report, &platform);
            rows.push(vec![
                name.to_owned(),
                format!("{:.1} ms", report.total_time.as_millis_f64()),
                format!("{:.2} mJ", e.dynamic_mj()),
                format!("{:.2} mJ", e.static_mj),
                format!("{:.2} mJ", e.total_mj()),
            ]);
        }
        println!("{}:", platform.name);
        println!(
            "{}",
            table::render(
                &["configuration", "time", "dynamic", "static", "total energy"],
                &rows
            )
        );
    }
    Ok(())
}
