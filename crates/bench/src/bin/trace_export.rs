//! Exports a Chrome trace (`chrome://tracing` / Perfetto) of a short
//! sgemm run on each platform, under both render-target strategies.
//!
//! Writes `target/mgpu-traces/<platform>-<target>.json`.

use std::fs;

use mgpu_bench::setup::{best_config, paper_matrices};
use mgpu_gles::Gl;
use mgpu_gpgpu::{RenderStrategy, Sgemm};
use mgpu_tbdr::{chrome_trace, Platform};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::Path::new("target/mgpu-traces");
    fs::create_dir_all(out_dir)?;

    let n = 256u32;
    let inputs = paper_matrices(n);
    let (a, b) = &*inputs;
    for platform in Platform::paper_pair() {
        for target in [RenderStrategy::Texture, RenderStrategy::Framebuffer] {
            let mut gl = Gl::new(platform.clone(), n, n);
            gl.set_functional(false);
            let cfg = best_config(target);
            let mut sgemm = Sgemm::new(&mut gl, &cfg, n, 16, a.data(), b.data())?;
            for _ in 0..3 {
                sgemm.multiply(&mut gl)?;
            }
            gl.finish();
            let json = chrome_trace(&gl.report());
            let name = format!(
                "{}-{:?}.json",
                platform.name.replace(' ', "_").to_lowercase(),
                target
            );
            let path = out_dir.join(name);
            fs::write(&path, json)?;
            println!("wrote {}", path.display());
        }
    }
    println!("open chrome://tracing and load a file to see the pipeline");
    Ok(())
}
