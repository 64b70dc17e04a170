//! A weighted-Jacobi solver for the 2D Poisson equation — the "numerical
//! solvers" application family the paper's evaluation section motivates
//! (citing Strzodka's PDE solvers and the UCHPC finite-element work).
//!
//! Each iteration is one GPGPU pass over the double-buffered solution
//! chain; the five-point stencil uses computed (dependent) texture
//! coordinates, so it exercises the same micro-architectural behaviours as
//! the paper's sgemm.

use mgpu_gles::{Gl, ProgramId, TextureId};
use mgpu_shader::OptOptions;

use crate::config::OptConfig;
use crate::encoding::Range;
use crate::error::GpgpuError;
use crate::kernels::jacobi_kernel;
use crate::ops::{
    apply_setup, check_size, check_target, convert_cost, encode_input, quad_for, vbo_for,
    OutputChain,
};

/// Solves `∇²u = -f` on an `n`×`n` grid with zero-flux boundaries by
/// weighted-Jacobi iteration.
///
/// `u` values must stay within `range_u` throughout the iteration (the
/// caller chooses a range covering the solution; out-of-range values clamp
/// like the GPU's output stage). The source term is pre-scaled by `h²`.
///
/// # Examples
///
/// ```
/// use mgpu_gles::Gl;
/// use mgpu_gpgpu::{JacobiSolver, OptConfig, Range};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let mut gl = Gl::new(Platform::videocore_iv(), 8, 8);
/// let u0 = vec![0.0f32; 64];
/// let f = vec![0.1f32; 64];
/// let mut solver = JacobiSolver::builder(8)
///     .omega(1.0)
///     .build(&mut gl, &OptConfig::baseline().without_swap(), &u0, &f)?;
/// solver.iterate(&mut gl, 10)?;
/// let u = solver.solution(&mut gl)?;
/// // With a positive source everywhere, the solution rises.
/// assert!(u.iter().all(|&v| v > 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct JacobiSolver {
    cfg: OptConfig,
    prog: ProgramId,
    tex_f: TextureId,
    chain: OutputChain,
    vbo: Option<mgpu_gles::BufferId>,
    range_u: Range,
    step_count: u64,
}

/// Builder for [`JacobiSolver`].
#[derive(Debug, Clone)]
pub struct JacobiBuilder {
    n: u32,
    range_u: Range,
    range_f: Range,
    omega: f32,
}

impl JacobiBuilder {
    /// Sets the solution value range (default `[0, 1)`).
    #[must_use]
    pub fn range_u(mut self, range: Range) -> Self {
        self.range_u = range;
        self
    }

    /// Sets the (h²-scaled) source-term range (default `[0, 1)`).
    #[must_use]
    pub fn range_f(mut self, range: Range) -> Self {
        self.range_f = range;
        self
    }

    /// Sets the relaxation weight ω (default 1.0 = plain Jacobi).
    #[must_use]
    pub fn omega(mut self, omega: f32) -> Self {
        self.omega = omega;
        self
    }

    /// Builds the solver, uploading the initial guess `u0` and the
    /// pre-scaled source `f`.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] on size mismatches (including a window
    /// surface that is not `n`×`n` under framebuffer rendering) or ω
    /// outside `[0, 1]`; [`GpgpuError::Gl`] otherwise.
    pub fn build(
        self,
        gl: &mut Gl,
        cfg: &OptConfig,
        u0: &[f32],
        f: &[f32],
    ) -> Result<JacobiSolver, GpgpuError> {
        check_target(gl, cfg, self.n)?;
        check_size(self.n, u0.len(), "initial guess u0")?;
        check_size(self.n, f.len(), "source term f")?;
        if !(0.0..=1.0).contains(&self.omega) {
            return Err(GpgpuError::Config(format!(
                "relaxation weight {} must lie in [0, 1]",
                self.omega
            )));
        }
        let enc = cfg.encoding;
        let src = jacobi_kernel(enc, &self.range_u, &self.range_f, self.omega);
        let opt = if cfg.mad_fusion {
            OptOptions::full()
        } else {
            OptOptions::without_mad_fusion()
        };
        let prog = gl.create_program_with(&src, &opt)?;
        gl.set_sampler(prog, "u_u", 0)?;
        gl.set_sampler(prog, "u_f", 1)?;
        gl.set_uniform_scalar(prog, "u_texel", 1.0 / self.n as f32)?;
        apply_setup(gl, cfg);

        let encoded_u = encode_input(gl, enc, u0, &self.range_u);
        let encoded_f = encode_input(gl, enc, f, &self.range_f);
        gl.add_cpu_work(convert_cost((encoded_u.len() + encoded_f.len()) as u64));
        let tex_f = gl.create_texture();
        gl.tex_image_2d(
            tex_f,
            self.n,
            self.n,
            enc.texture_format(),
            Some(&encoded_f),
        )?;
        let mut chain = OutputChain::new(gl, self.n, enc.texture_format());
        chain.seed(gl, &encoded_u)?;
        let vbo = vbo_for(gl, cfg, 1)?;

        Ok(JacobiSolver {
            cfg: *cfg,
            prog,
            tex_f,
            chain,
            vbo,
            range_u: self.range_u,
            step_count: 0,
        })
    }
}

impl JacobiSolver {
    /// Starts building a solver over an `n`×`n` grid.
    #[must_use]
    pub fn builder(n: u32) -> JacobiBuilder {
        JacobiBuilder {
            n,
            range_u: Range::unit(),
            range_f: Range::unit(),
            omega: 1.0,
        }
    }

    /// Runs one Jacobi iteration (one kernel invocation).
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn step(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        gl.bind_texture(0, Some(self.chain.latest()))?;
        gl.bind_texture(1, Some(self.tex_f))?;
        gl.use_program(Some(self.prog))?;
        self.step_count += 1;
        let label = format!("jacobi#{}", self.step_count);
        let quad = quad_for(&self.cfg, self.vbo, &label);
        self.chain
            .render_pass(gl, &self.cfg, |gl| gl.draw_quad(&quad))
    }

    /// Runs `iterations` Jacobi iterations.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn iterate(&mut self, gl: &mut Gl, iterations: usize) -> Result<(), GpgpuError> {
        for _ in 0..iterations {
            self.step(gl)?;
        }
        Ok(())
    }

    /// Reads back and decodes the current solution.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn solution(&mut self, gl: &mut Gl) -> Result<Vec<f32>, GpgpuError> {
        let bytes = self.chain.read_latest(gl)?;
        gl.add_cpu_work(convert_cost(bytes.len() as u64));
        Ok(self.cfg.encoding.decode(&bytes, &self.range_u))
    }
}
