//! Saxpy (`Y = alpha * X + Y`): the quickstart operator.

use mgpu_gles::{Gl, ProgramId, TextureId};
use mgpu_shader::OptOptions;

use crate::config::OptConfig;
use crate::encoding::Range;
use crate::error::GpgpuError;
use crate::kernels::saxpy_kernel;
use crate::ops::{
    apply_setup, check_size, check_target, convert_cost, encode_input, quad_for, vbo_for,
    OutputChain,
};

/// `Y ← alpha·X + Y` over `n`×`n` encoded matrices. Iterating chains `Y`
/// through the double-buffered output like the paper's multi-pass scheme.
///
/// # Examples
///
/// ```
/// use mgpu_gles::Gl;
/// use mgpu_gpgpu::{OptConfig, Range, Saxpy};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let mut gl = Gl::new(Platform::sgx_545(), 8, 8);
/// let x = vec![0.5f32; 64];
/// let y = vec![0.25f32; 64];
/// let mut op = Saxpy::new(&mut gl, &OptConfig::baseline(), 8, 0.5, &x, &y,
///                         Range::unit(), Range::new(0.0, 4.0))?;
/// op.step(&mut gl)?;
/// let out = op.result(&mut gl)?;
/// assert!((out[0] - 0.5).abs() < 1e-2); // 0.5*0.5 + 0.25
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Saxpy {
    cfg: OptConfig,
    prog: ProgramId,
    tex_x: TextureId,
    chain: OutputChain,
    vbo: Option<mgpu_gles::BufferId>,
    range_out: Range,
    step_count: u64,
}

impl Saxpy {
    /// Builds the operator with `alpha` baked as a uniform.
    ///
    /// `x` values must lie in `range_in`; `y` and results in `range_out`.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] on size mismatch (including a window surface
    /// that is not `n`×`n` under framebuffer rendering),
    /// [`GpgpuError::Gl`] otherwise.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        gl: &mut Gl,
        cfg: &OptConfig,
        n: u32,
        alpha: f32,
        x: &[f32],
        y: &[f32],
        range_in: Range,
        range_out: Range,
    ) -> Result<Self, GpgpuError> {
        check_target(gl, cfg, n)?;
        check_size(n, x.len(), "vector X")?;
        check_size(n, y.len(), "vector Y")?;
        let enc = cfg.encoding;
        // The kernel decodes Y with the output range (it is an accumulator).
        let src = saxpy_kernel(enc, &range_in, &range_out);
        let opt = if cfg.mad_fusion {
            OptOptions::full()
        } else {
            OptOptions::without_mad_fusion()
        };
        let prog = gl.create_program_with(&src, &opt)?;
        gl.set_sampler(prog, "u_x", 0)?;
        gl.set_sampler(prog, "u_y", 1)?;
        gl.set_uniform_scalar(prog, "u_alpha", alpha)?;

        apply_setup(gl, cfg);

        let encoded_x = encode_input(gl, enc, x, &range_in);
        let encoded_y = encode_input(gl, enc, y, &range_out);
        gl.add_cpu_work(convert_cost((encoded_x.len() + encoded_y.len()) as u64));
        let tex_x = gl.create_texture();
        gl.tex_image_2d(tex_x, n, n, enc.texture_format(), Some(&encoded_x))?;
        let mut chain = OutputChain::new(gl, n, enc.texture_format());
        chain.seed(gl, &encoded_y)?;

        let vbo = vbo_for(gl, cfg, 1)?;

        Ok(Saxpy {
            cfg: *cfg,
            prog,
            tex_x,
            chain,
            vbo,
            range_out,
            step_count: 0,
        })
    }

    /// Runs one `Y ← alpha·X + Y` update.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn step(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        gl.bind_texture(0, Some(self.tex_x))?;
        gl.bind_texture(1, Some(self.chain.latest()))?;
        gl.use_program(Some(self.prog))?;
        self.step_count += 1;
        let label = format!("saxpy#{}", self.step_count);
        let quad = quad_for(&self.cfg, self.vbo, &label);
        self.chain
            .render_pass(gl, &self.cfg, |gl| gl.draw_quad(&quad))
    }

    /// Reads back and decodes `Y`.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn result(&mut self, gl: &mut Gl) -> Result<Vec<f32>, GpgpuError> {
        let bytes = self.chain.read_latest(gl)?;
        gl.add_cpu_work(convert_cost(bytes.len() as u64));
        Ok(self.cfg.encoding.decode(&bytes, &self.range_out))
    }
}
