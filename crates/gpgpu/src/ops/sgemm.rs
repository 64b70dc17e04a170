//! The paper's `sgemm` case study (§IV): multi-pass blocked matrix-matrix
//! multiplication with double-buffered intermediate textures.

use mgpu_gles::{Gl, ProgramId, TextureId};
use mgpu_shader::OptOptions;

use crate::config::OptConfig;
use crate::encoding::Range;
use crate::error::GpgpuError;
use crate::kernels::sgemm_kernel;
use crate::ops::{
    apply_setup, check_size, check_target, convert_cost, draw_banded, encode_input, placeholder,
    quad_for, vbo_for, OutputChain,
};

/// Blocked single-precision matrix multiply `C = A × B` over `n`×`n`
/// encoded matrices, computed in `n / block` passes of `block`-element
/// partial dot products (the paper's Fig. 2 kernel).
///
/// Because OpenGL ES 2 forbids reading and writing the same texture, the
/// intermediate accumulator lives in a double-buffered texture pair that
/// each pass ping-pongs — exactly the scheme §IV describes.
///
/// # Examples
///
/// ```
/// use mgpu_gles::Gl;
/// use mgpu_gpgpu::{OptConfig, Sgemm};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let mut gl = Gl::new(Platform::videocore_iv(), 16, 16);
/// let a = vec![0.1f32; 256];
/// let b = vec![0.2f32; 256];
/// let mut sgemm = Sgemm::new(&mut gl, &OptConfig::baseline(), 16, 4, &a, &b)?;
/// sgemm.multiply(&mut gl)?;
/// let c = sgemm.result(&mut gl)?;
/// // Every element is 16 * 0.1 * 0.2 = 0.32.
/// assert!((c[0] - 0.32).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sgemm {
    cfg: OptConfig,
    n: u32,
    block: u32,
    prog: ProgramId,
    tex_a: TextureId,
    tex_b: TextureId,
    chain: OutputChain,
    vbo: Option<mgpu_gles::BufferId>,
    range_out: Range,
    zero_seed: Vec<u8>,
    multiply_count: u64,
}

impl Sgemm {
    /// Builds the operator: compiles the blocked kernel against the
    /// platform's shader limits, uploads `a` and `b`, and prepares the
    /// intermediate chain.
    ///
    /// Inputs are expected in `[0, 1)` (use [`Sgemm::with_ranges`] for
    /// custom ranges).
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Gl`] with
    /// [`is_shader_limit`](GpgpuError::is_shader_limit) when `block`
    /// exceeds what the platform can compile — on both paper platforms
    /// this happens above block 16, bounding Fig. 4b;
    /// [`GpgpuError::Config`] on size mismatches (including a window
    /// surface that is not `n`×`n` under framebuffer rendering).
    pub fn new(
        gl: &mut Gl,
        cfg: &OptConfig,
        n: u32,
        block: u32,
        a: &[f32],
        b: &[f32],
    ) -> Result<Self, GpgpuError> {
        let range_in = Range::unit();
        let range_out = Range::new(0.0, n as f32);
        Sgemm::with_ranges(gl, cfg, n, block, a, b, range_in, range_out)
    }

    /// Like [`Sgemm::new`] with explicit input/output value ranges.
    ///
    /// # Errors
    ///
    /// See [`Sgemm::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_ranges(
        gl: &mut Gl,
        cfg: &OptConfig,
        n: u32,
        block: u32,
        a: &[f32],
        b: &[f32],
        range_in: Range,
        range_out: Range,
    ) -> Result<Self, GpgpuError> {
        check_target(gl, cfg, n)?;
        check_size(n, a.len(), "matrix A")?;
        check_size(n, b.len(), "matrix B")?;
        if block == 0 || !n.is_multiple_of(block) {
            return Err(GpgpuError::Config(format!(
                "block {block} must divide matrix size {n}"
            )));
        }
        let enc = cfg.encoding;
        let src = sgemm_kernel(enc, n, block, &range_in, &range_out);
        let opt = if cfg.mad_fusion {
            OptOptions::full()
        } else {
            OptOptions::without_mad_fusion()
        };
        let prog = gl.create_program_with(&src, &opt)?;
        gl.set_sampler(prog, "u_a", 0)?;
        gl.set_sampler(prog, "u_b", 1)?;
        gl.set_sampler(prog, "u_interm", 2)?;

        apply_setup(gl, cfg);

        let encoded_a = encode_input(gl, enc, a, &range_in);
        let encoded_b = encode_input(gl, enc, b, &range_in);
        gl.add_cpu_work(convert_cost((encoded_a.len() + encoded_b.len()) as u64));
        let tex_a = gl.create_texture();
        let tex_b = gl.create_texture();
        gl.tex_image_2d(tex_a, n, n, enc.texture_format(), Some(&encoded_a))?;
        gl.tex_image_2d(tex_b, n, n, enc.texture_format(), Some(&encoded_b))?;

        // Every texel of the seed is the same: encode one, repeat it n² times.
        let texels = (n as usize) * (n as usize);
        let zero_seed = if gl.functional() {
            enc.encode(&[range_out.lo], &range_out).repeat(texels)
        } else {
            placeholder(enc, texels)
        };
        let chain = OutputChain::new(gl, n, enc.texture_format());

        let vbo = vbo_for(gl, cfg, 3)?;

        Ok(Sgemm {
            cfg: *cfg,
            n,
            block,
            prog,
            tex_a,
            tex_b,
            chain,
            vbo,
            range_out,
            zero_seed,
            multiply_count: 0,
        })
    }

    /// Number of passes one multiplication takes (`n / block`).
    #[must_use]
    pub fn passes(&self) -> u32 {
        self.n / self.block
    }

    /// Runs one full matrix multiplication (`n / block` kernel
    /// invocations) — one iteration of the paper's benchmark body.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn multiply(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.begin_multiply(gl)?;
        for pass in 0..self.passes() {
            self.run_pass(gl, pass, 1)?;
        }
        Ok(())
    }

    /// Starts one multiplication: resets the double-buffered accumulator
    /// to the zero seed. Follow with [`Sgemm::run_pass`] for passes
    /// `0..self.passes()` — [`Sgemm::multiply`] is exactly that sequence.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn begin_multiply(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.chain.seed(gl, &self.zero_seed)?;
        self.multiply_count += 1;
        Ok(())
    }

    /// Runs one accumulation pass of the current multiplication, issuing
    /// the draw as `bands` row-band sub-draws (`bands <= 1` = one full
    /// draw). Passes may be replayed: each pass reads the chain's latest
    /// texture and the `blk_n` uniform it sets itself.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] for an out-of-range pass or if built on a
    /// timing-only context that is now functional; GL failures otherwise.
    pub fn run_pass(&mut self, gl: &mut Gl, pass: u32, bands: u32) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        if pass >= self.passes() {
            return Err(GpgpuError::Config(format!(
                "pass {pass} out of range ({} passes)",
                self.passes()
            )));
        }
        let blk_n = (pass * self.block) as f32 / self.n as f32;
        gl.set_uniform_scalar(self.prog, "blk_n", blk_n)?;
        gl.bind_texture(0, Some(self.tex_a))?;
        gl.bind_texture(1, Some(self.tex_b))?;
        gl.bind_texture(2, Some(self.chain.latest()))?;
        gl.use_program(Some(self.prog))?;

        let label = format!("sgemm#{} pass {pass}", self.multiply_count);
        let quad = quad_for(&self.cfg, self.vbo, &label);
        let n = self.n;
        self.chain
            .render_pass(gl, &self.cfg, |gl| draw_banded(gl, &quad, bands, n))
    }

    /// Reads back the latest accumulator's raw encoded bytes (a
    /// pass-granular checkpoint for the resilient runner).
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn snapshot_bytes(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.chain.read_latest(gl)
    }

    /// Uploads previously snapshotted bytes into the latest-result slot.
    ///
    /// # Errors
    ///
    /// Propagates GL failures (e.g. a size mismatch); [`GpgpuError::Config`]
    /// if built on a timing-only context that is now functional.
    pub fn restore_bytes(&mut self, gl: &mut Gl, bytes: &[u8]) -> Result<(), GpgpuError> {
        self.chain.seed(gl, bytes)
    }

    /// Reads back and decodes the product matrix.
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

    /// The matrix dimension.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.n
    }

    /// The block size.
    #[must_use]
    pub fn block(&self) -> u32 {
        self.block
    }
}
