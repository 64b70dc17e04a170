//! Multi-pass tree reduction: sum (or mean) over every element of an
//! encoded matrix.
//!
//! The classic GPGPU primitive the paper's §III multi-pass framework
//! implies: each pass renders a quarter-sized target whose fragments sum
//! a 2×2 block of the previous level, so an `n`×`n` input reduces in
//! `log2(n)` kernel invocations. One compiled program serves every pass —
//! the per-pass value scaling travels in uniforms.

use mgpu_gles::{Gl, ProgramId, TextureFormat, TextureId};
use mgpu_shader::OptOptions;

use crate::config::{OptConfig, RenderStrategy};
use crate::encoding::Range;
use crate::error::GpgpuError;
use crate::kernels::reduce4_kernel;
use crate::ops::{
    apply_setup, check_size, convert_cost, encode_input, end_pass, quad_for, vbo_for, BuildMode,
};

/// Checks the reduction tree's preconditions: `n` is a power of two ≥ 2
/// and the configuration renders to textures. Builders call it before any
/// encode, CPU charge, texture or upload, so a rejected build leaves the
/// context's simulated timeline untouched.
pub(crate) fn check_reduction(cfg: &OptConfig, n: u32) -> Result<(), GpgpuError> {
    if n < 2 || !n.is_power_of_two() {
        return Err(GpgpuError::Config(format!(
            "reduction size {n} must be a power of two >= 2"
        )));
    }
    if cfg.target == RenderStrategy::Framebuffer {
        return Err(GpgpuError::Config(
            "reduction requires texture rendering: each level has its own size".to_owned(),
        ));
    }
    Ok(())
}

/// Sums all elements of an `n`×`n` matrix on the GPU in `log2(n)` passes.
///
/// Values must lie in `[0, 1)`; the accumulated range grows 4× per level
/// and is tracked for the caller. `n` must be a power of two; reduction
/// requires texture rendering (each level has its own size, which the
/// fixed-size window framebuffer cannot provide).
///
/// # Examples
///
/// ```
/// use mgpu_gles::Gl;
/// use mgpu_gpgpu::{OptConfig, Reduction};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let mut gl = Gl::new(Platform::videocore_iv(), 16, 16);
/// let data = vec![0.5f32; 256];
/// let mut reduce = Reduction::new(&mut gl, &OptConfig::baseline().without_swap(), 16, &data)?;
/// let total = reduce.run(&mut gl)?;
/// assert!((total - 128.0).abs() < 0.05); // 256 * 0.5
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reduction {
    cfg: OptConfig,
    n: u32,
    prog: ProgramId,
    /// One texture per level: levels[0] is the input (size n), the last is
    /// the 1×1 result.
    levels: Vec<TextureId>,
    fbo: mgpu_gles::FramebufferId,
    vbo: Option<mgpu_gles::BufferId>,
    run_count: u64,
    mode: BuildMode,
}

impl Reduction {
    /// Builds the reduction and uploads `data`.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] when `n` is not a power of two ≥ 2, the
    /// configuration selects framebuffer rendering, or sizes mismatch;
    /// [`GpgpuError::Gl`] otherwise.
    pub fn new(gl: &mut Gl, cfg: &OptConfig, n: u32, data: &[f32]) -> Result<Self, GpgpuError> {
        check_size(n, data.len(), "reduction input")?;
        check_reduction(cfg, n)?;
        let enc = cfg.encoding;
        let encoded = encode_input(gl, enc, data, &Range::unit());
        gl.add_cpu_work(convert_cost(encoded.len() as u64));
        let input = gl.create_texture();
        gl.tex_image_2d(input, n, n, enc.texture_format(), Some(&encoded))?;
        Reduction::with_input_texture(gl, cfg, n, input)
    }

    /// Builds the reduction over an existing `n`×`n` texture already
    /// holding `[0, 1)`-encoded values — the composition point for GPU
    /// pipelines that produce their own intermediate (see
    /// [`DotProduct`](crate::DotProduct)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reduction::new`].
    pub fn with_input_texture(
        gl: &mut Gl,
        cfg: &OptConfig,
        n: u32,
        input: TextureId,
    ) -> Result<Self, GpgpuError> {
        check_reduction(cfg, n)?;
        let enc = cfg.encoding;
        let src = reduce4_kernel(enc);
        let opt = if cfg.mad_fusion {
            OptOptions::full()
        } else {
            OptOptions::without_mad_fusion()
        };
        let prog = gl.create_program_with(&src, &opt)?;
        gl.set_sampler(prog, "u_src", 0)?;
        apply_setup(gl, cfg);

        let mut levels = vec![input];
        let mut size = n / 2;
        loop {
            levels.push(gl.create_texture());
            if size == 1 {
                break;
            }
            size /= 2;
        }

        let fbo = gl.create_framebuffer();
        let vbo = vbo_for(gl, cfg, 1)?;
        Ok(Reduction {
            cfg: *cfg,
            n,
            prog,
            levels,
            fbo,
            vbo,
            run_count: 0,
            mode: BuildMode::of(gl),
        })
    }

    /// Fails when the reduction was built on a timing-only context that
    /// is now functional (see [`BuildMode::check`]).
    pub(crate) fn guard(&self, gl: &Gl) -> Result<(), GpgpuError> {
        self.mode.check(gl)
    }

    /// Number of kernel invocations one reduction takes (`log2(n)`).
    #[must_use]
    pub fn passes(&self) -> u32 {
        self.n.trailing_zeros()
    }

    /// The value range of the final 1×1 result texture.
    #[must_use]
    pub fn result_range(&self) -> Range {
        Range::new(0.0, (self.n as f32) * (self.n as f32))
    }

    /// Runs the full reduction and returns the decoded total (0 on a
    /// timing-only context, which keeps no texels to decode).
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] when the reduction was built on a
    /// timing-only context that is now functional; GL failures otherwise.
    pub fn run(&mut self, gl: &mut Gl) -> Result<f32, GpgpuError> {
        self.guard(gl)?;
        self.run_count += 1;
        let enc = self.cfg.encoding;
        let fmt: TextureFormat = enc.texture_format();
        let mut in_size = self.n;
        for pass in 0..self.passes() {
            let out_size = in_size / 2;
            let src_tex = self.levels[pass as usize];
            let dst_tex = self.levels[pass as usize + 1];

            // Per-pass value scaling: level p holds values in
            // [0, 4^p); the kernel normalises through [0,1) storage.
            let range_in = 4.0f32.powi(pass as i32);
            let range_out = range_in * 4.0;
            gl.set_uniform_scalar(self.prog, "u_scale_in", range_in)?;
            gl.set_uniform_scalar(self.prog, "u_scale_out", 1.0 / range_out)?;
            // Quarter of an output texel reaches the two input texels.
            gl.set_uniform_scalar(self.prog, "u_half_texel", 0.25 / out_size as f32)?;

            // Fresh storage per pass unless reusing across runs.
            if !self.cfg.texture_reuse || self.run_count == 1 {
                gl.tex_image_2d(dst_tex, out_size, out_size, fmt, None)?;
            }
            gl.bind_framebuffer(Some(self.fbo))?;
            gl.framebuffer_texture_2d(dst_tex)?;
            if self.cfg.invalidate {
                gl.discard_framebuffer()?;
            }
            gl.bind_texture(0, Some(src_tex))?;
            gl.use_program(Some(self.prog))?;
            let label = format!("reduce#{} level {pass}", self.run_count);
            let quad = quad_for(&self.cfg, self.vbo, &label);
            gl.draw_quad(&quad)?;
            end_pass(gl, &self.cfg)?;

            in_size = out_size;
        }

        gl.finish();
        let last = *self
            .levels
            .last()
            .ok_or_else(|| GpgpuError::Config("reduction has no levels".to_owned()))?;
        // One value comes back; its decode is charged in either mode.
        let bytes = gl.texture_data(last)?.to_vec();
        gl.add_cpu_work(convert_cost(enc.bytes_per_value() as u64));
        let total_range = Range::new(0.0, 4.0f32.powi(self.passes() as i32));
        Ok(enc
            .decode(&bytes, &total_range)
            .first()
            .copied()
            .unwrap_or(0.0))
    }
}
