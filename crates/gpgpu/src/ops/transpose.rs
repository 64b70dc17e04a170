//! GPU matrix transpose: pure encoded-texel movement with a strided
//! (dependent) gather pattern.

use mgpu_gles::{Gl, ProgramId, TextureId};

use crate::config::OptConfig;
use crate::encoding::Range;
use crate::error::GpgpuError;
use crate::kernels::transpose_kernel;
use crate::ops::{
    apply_setup, check_size, check_target, convert_cost, encode_input, quad_for, vbo_for,
    OutputChain,
};

/// Transposes an `n`×`n` encoded matrix on the GPU in one pass.
///
/// Because transposition moves texels verbatim, it works for any encoding
/// and any value range — the range is only needed to decode the result.
///
/// # Examples
///
/// ```
/// use mgpu_gles::Gl;
/// use mgpu_gpgpu::{OptConfig, Range, Transpose};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let mut gl = Gl::new(Platform::videocore_iv(), 4, 4);
/// // Row-major 4x4 with value = row index / 4.
/// let data: Vec<f32> = (0..16).map(|i| (i / 4) as f32 / 4.0).collect();
/// let mut t = Transpose::new(&mut gl, &OptConfig::baseline().without_swap(), 4, &data)?;
/// t.apply(&mut gl)?;
/// let out = t.result(&mut gl, &Range::unit())?;
/// // After transposing, value = column index / 4.
/// assert!((out[1] - 0.25).abs() < 1e-4);
/// assert!((out[4] - 0.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Transpose {
    cfg: OptConfig,
    prog: ProgramId,
    tex_in: TextureId,
    chain: OutputChain,
    vbo: Option<mgpu_gles::BufferId>,
    step_count: u64,
}

impl Transpose {
    /// Builds the operator and uploads `data` (values in `[0, 1)` space of
    /// whatever range the caller will decode with — the kernel never
    /// interprets them).
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] on size mismatch (including a window surface
    /// that is not `n`×`n` under framebuffer rendering);
    /// [`GpgpuError::Gl`] otherwise.
    pub fn new(gl: &mut Gl, cfg: &OptConfig, n: u32, data: &[f32]) -> Result<Self, GpgpuError> {
        check_target(gl, cfg, n)?;
        check_size(n, data.len(), "transpose input")?;
        let enc = cfg.encoding;
        let prog = gl.create_program(&transpose_kernel())?;
        gl.set_sampler(prog, "u_src", 0)?;
        apply_setup(gl, cfg);

        let encoded = encode_input(gl, enc, data, &Range::unit());
        gl.add_cpu_work(convert_cost(encoded.len() as u64));
        let tex_in = gl.create_texture();
        gl.tex_image_2d(tex_in, n, n, enc.texture_format(), Some(&encoded))?;
        let chain = OutputChain::new(gl, n, enc.texture_format());
        let vbo = vbo_for(gl, cfg, 1)?;
        Ok(Transpose {
            cfg: *cfg,
            prog,
            tex_in,
            chain,
            vbo,
            step_count: 0,
        })
    }

    /// Transposes the input (first call) or the previous result
    /// (subsequent calls) — so two applications round-trip.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn apply(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        let src = if self.step_count == 0 {
            self.tex_in
        } else {
            self.chain.latest()
        };
        gl.bind_texture(0, Some(src))?;
        gl.use_program(Some(self.prog))?;
        self.step_count += 1;
        let label = format!("transpose#{}", self.step_count);
        let quad = quad_for(&self.cfg, self.vbo, &label);
        self.chain
            .render_pass(gl, &self.cfg, |gl| gl.draw_quad(&quad))
    }

    /// Reads back and decodes the latest result with `range` (normalised
    /// `[0, 1)` values decode with [`Range::unit`]).
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn result(&mut self, gl: &mut Gl, range: &Range) -> Result<Vec<f32>, GpgpuError> {
        let bytes = self.chain.read_latest(gl)?;
        gl.add_cpu_work(convert_cost(bytes.len() as u64));
        Ok(self.cfg.encoding.decode(&bytes, range))
    }
}
