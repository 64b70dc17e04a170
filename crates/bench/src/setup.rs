//! Shared measurement plumbing for the experiment modules.
//!
//! Measurements run the operators in **timing-only** mode (functional pixel
//! execution off) at the paper's full 1024×1024 size: the analytic TBDR
//! scheduler makes simulating the 10 000-iteration protocol cheap, while
//! functional correctness is covered separately by the test suite at
//! smaller sizes.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mgpu_gles::Gl;
use mgpu_gpgpu::{GpgpuError, OptConfig, Range, Sgemm, Sum};
use mgpu_tbdr::{Platform, SimTime};
use mgpu_workloads::{random_matrix, Matrix};

/// The paper's matrix dimension.
pub const PAPER_N: u32 = 1024;

/// Iterations used to reach and measure the steady state. The paper runs
/// the body 10 000 times; the analytic scheduler converges within tens of
/// iterations, so these defaults keep the harness fast while measuring the
/// same steady-state rate.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    /// Matrix dimension.
    pub n: u32,
    /// Warm-up iterations (fill the deferred pipeline).
    pub warmup: usize,
    /// Measured iterations.
    pub iters: usize,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol {
            n: PAPER_N,
            warmup: 20,
            iters: 100,
        }
    }
}

impl Protocol {
    /// A smaller protocol for the expensive multi-pass sgemm sweeps.
    #[must_use]
    pub fn sgemm() -> Self {
        Protocol {
            n: PAPER_N,
            warmup: 3,
            iters: 8,
        }
    }
}

/// A shared, read-only input pair.
type Pair = Arc<(Matrix, Matrix)>;

/// The paper's random input pair, seeded deterministically. Generated
/// once per `n` per process and shared read-only: every configuration of
/// every figure measures the same pair.
#[must_use]
pub fn paper_matrices(n: u32) -> Pair {
    static PAIRS: OnceLock<Mutex<HashMap<u32, Pair>>> = OnceLock::new();
    // A panic while generating inserts nothing, so a poisoned map is
    // still whole and safe to keep using.
    let mut pairs = PAIRS
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    Arc::clone(pairs.entry(n).or_insert_with(|| {
        Arc::new((
            random_matrix(n as usize, 2017, 0.0, 1.0),
            random_matrix(n as usize, 2016, 0.0, 1.0),
        ))
    }))
}

/// Extra modes of the `sum` benchmark used by individual figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumMode {
    /// Chain iterations (the artificial-dependency variant of Fig. 4a).
    pub dependent: bool,
    /// Re-upload inputs every iteration (the Fig. 5 streaming mode).
    pub reupload: bool,
}

/// Steady-state simulated time per `sum` kernel invocation.
///
/// # Errors
///
/// Propagates operator construction/run failures.
pub fn sum_period(
    platform: &Platform,
    cfg: &OptConfig,
    mode: SumMode,
    protocol: &Protocol,
) -> Result<SimTime, GpgpuError> {
    let n = protocol.n;
    let inputs = paper_matrices(n);
    let (a, b) = &*inputs;
    let mut gl = Gl::new(platform.clone(), n, n);
    gl.set_functional(false);
    let mut sum = Sum::builder(n)
        .dependent(mode.dependent)
        .reupload(mode.reupload)
        .range_out(Range::new(0.0, 2.0))
        .build(&mut gl, cfg, a.data(), b.data())?;
    mgpu_gpgpu::steady_period(&mut gl, protocol.warmup, protocol.iters, |gl| sum.step(gl))
}

/// Steady-state simulated time per full `sgemm` multiplication
/// (`n / block` passes).
///
/// # Errors
///
/// Propagates operator construction/run failures — including shader-limit
/// rejections for oversized blocks (check
/// [`GpgpuError::is_shader_limit`]).
pub fn sgemm_period(
    platform: &Platform,
    cfg: &OptConfig,
    block: u32,
    protocol: &Protocol,
) -> Result<SimTime, GpgpuError> {
    let n = protocol.n;
    let inputs = paper_matrices(n);
    let (a, b) = &*inputs;
    let mut gl = Gl::new(platform.clone(), n, n);
    gl.set_functional(false);
    let mut sgemm = Sgemm::new(&mut gl, cfg, n, block, a.data(), b.data())?;
    mgpu_gpgpu::steady_period(&mut gl, protocol.warmup, protocol.iters, |gl| {
        sgemm.multiply(gl)
    })
}

/// The optimised configuration for each render-target strategy, following
/// the paper's incremental methodology ("applying the next optimisation on
/// the best performing one"):
///
/// * **texture rendering** pairs with dropping `eglSwapBuffers` entirely
///   (maximum launch rate; nothing needs the window surface);
/// * **framebuffer rendering** *requires* swapping — `eglSwapBuffers` is
///   what alternates the double-buffered surfaces so the copy out of one
///   surface overlaps rendering into the other — so it pairs with
///   `eglSwapInterval(0)`.
#[must_use]
pub fn best_config(target: mgpu_gpgpu::RenderStrategy) -> OptConfig {
    match target {
        mgpu_gpgpu::RenderStrategy::Texture => OptConfig::baseline()
            .without_swap()
            .with_texture_rendering(),
        mgpu_gpgpu::RenderStrategy::Framebuffer => OptConfig::baseline()
            .with_swap_interval_0()
            .with_framebuffer_rendering(),
    }
}
