//! Fig. 1 — memory-movement operations per kernel invocation.
//!
//! Traces one warmed-up `sum` step per render-target pipeline and
//! annotates its frames with the figure's numbered operations.
//!
//! Paper reference shapes: texture rendering moves memory in steps 2 and
//! 5 only; framebuffer rendering in steps 2, 3 and 4; disabling
//! invalidation adds step 6 (the reload of the previous target contents).

use mgpu_gles::Gl;
use mgpu_gpgpu::{GpgpuError, OptConfig, Sum};
use mgpu_tbdr::{annotate_frame, Platform, TraceEvent};
use mgpu_workloads::random_matrix;

/// Matrix dimension of the traced step. Steps are the same at any size;
/// only the byte counts scale.
pub const N: u32 = 256;

/// Fig. 1 traces for one platform: the memory movements of one kernel
/// invocation under each pipeline, in the order they happen.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// Platform name.
    pub platform: String,
    /// Render to texture, no swap.
    pub texture: Vec<TraceEvent>,
    /// Render to the framebuffer and copy out, swap interval 0.
    pub framebuffer: Vec<TraceEvent>,
    /// As `framebuffer`, with the target's contents preserved rather than
    /// invalidated before each kernel.
    pub framebuffer_no_invalidate: Vec<TraceEvent>,
}

fn trace(platform: &Platform, cfg: &OptConfig) -> Result<Vec<TraceEvent>, GpgpuError> {
    let a = random_matrix(N as usize, 1, 0.0, 1.0);
    let b = random_matrix(N as usize, 2, 0.0, 1.0);
    let mut gl = Gl::new(platform.clone(), N, N);
    gl.set_functional(false);
    let mut sum = Sum::builder(N)
        .reupload(true)
        .build(&mut gl, cfg, a.data(), b.data())?;
    // Warm the pipeline, then record one kernel invocation.
    sum.run(&mut gl, 2)?;
    gl.set_frame_recording(true);
    sum.step(&mut gl)?;
    gl.finish();
    Ok(gl
        .recorded_frames()
        .iter()
        // Sync-only frames move no memory.
        .filter(|(work, _)| work.fragment.fragments > 0)
        .flat_map(|(work, timing)| annotate_frame(work, timing))
        .collect())
}

/// Runs the Fig. 1 traces on one platform.
///
/// # Errors
///
/// Propagates operator failures.
pub fn run(platform: &Platform) -> Result<Fig1, GpgpuError> {
    let framebuffer = OptConfig::baseline()
        .with_swap_interval_0()
        .with_framebuffer_rendering();
    Ok(Fig1 {
        platform: platform.name.clone(),
        texture: trace(platform, &OptConfig::baseline().without_swap())?,
        framebuffer: trace(platform, &framebuffer)?,
        framebuffer_no_invalidate: trace(platform, &framebuffer.without_invalidate())?,
    })
}
