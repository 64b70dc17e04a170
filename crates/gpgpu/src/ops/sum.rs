//! The paper's `sum` benchmark: streaming element-wise matrix addition.

use mgpu_gles::{Gl, ProgramId, TextureId};
use mgpu_shader::OptOptions;

use crate::config::OptConfig;
use crate::encoding::Range;
use crate::error::GpgpuError;
use crate::kernels::sum_kernel_ranges;
use crate::ops::{
    apply_setup, check_size, check_target, convert_cost, draw_banded, encode_input, quad_for,
    vbo_for, OutputChain,
};

/// Streaming addition `C = A + B` over `n`×`n` encoded matrices — the
/// paper's low-arithmetic-intensity benchmark.
///
/// Two extra modes reproduce specific experiments:
///
/// * [`SumBuilder::dependent`] chains iterations (`C_{k+1} = C_k + B`), the
///   paper's "artificial dependencies between consecutive kernel
///   invocations" variant of Fig. 4a;
/// * [`SumBuilder::reupload`] re-uploads the inputs every iteration, the
///   streaming-application mode whose allocation cost the texture-reuse
///   optimisation of Fig. 5 targets.
///
/// # Examples
///
/// ```
/// use mgpu_gles::Gl;
/// use mgpu_gpgpu::{OptConfig, Range, Sum};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let mut gl = Gl::new(Platform::videocore_iv(), 16, 16);
/// let a = vec![0.25f32; 256];
/// let b = vec![0.5f32; 256];
/// let mut sum = Sum::builder(16)
///     .range_out(Range::new(0.0, 2.0))
///     .build(&mut gl, &OptConfig::baseline(), &a, &b)?;
/// sum.step(&mut gl)?;
/// let c = sum.result(&mut gl)?;
/// assert!((c[0] - 0.75).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sum {
    cfg: OptConfig,
    n: u32,
    prog: ProgramId,
    tex_a: TextureId,
    tex_b: TextureId,
    chain: OutputChain,
    vbo: Option<mgpu_gles::BufferId>,
    range_out: Range,
    dependent: bool,
    reupload: bool,
    encoded_a: Vec<u8>,
    encoded_b: Vec<u8>,
    step_count: u64,
}

/// Builder for [`Sum`].
#[derive(Debug, Clone)]
pub struct SumBuilder {
    n: u32,
    range_in: Range,
    range_out: Range,
    dependent: bool,
    reupload: bool,
}

impl SumBuilder {
    /// Sets the input value range (default `[0, 1)`).
    #[must_use]
    pub fn range_in(mut self, range: Range) -> Self {
        self.range_in = range;
        self
    }

    /// Sets the output value range (default `[0, 2)`).
    #[must_use]
    pub fn range_out(mut self, range: Range) -> Self {
        self.range_out = range;
        self
    }

    /// Chains iterations: the previous result becomes input `A`.
    #[must_use]
    pub fn dependent(mut self, dependent: bool) -> Self {
        self.dependent = dependent;
        self
    }

    /// Re-uploads both inputs every iteration.
    #[must_use]
    pub fn reupload(mut self, reupload: bool) -> Self {
        self.reupload = reupload;
        self
    }

    /// Builds the operator: compiles the kernel, uploads the inputs and
    /// seeds the output chain.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] on size mismatches (including a window
    /// surface that is not `n`×`n` under framebuffer rendering),
    /// [`GpgpuError::Gl`] on compilation or GL failures.
    pub fn build(
        self,
        gl: &mut Gl,
        cfg: &OptConfig,
        a: &[f32],
        b: &[f32],
    ) -> Result<Sum, GpgpuError> {
        check_target(gl, cfg, self.n)?;
        check_size(self.n, a.len(), "matrix A")?;
        check_size(self.n, b.len(), "matrix B")?;
        let enc = cfg.encoding;
        // In dependent mode A is a previous result, so it is encoded and
        // decoded with the output range.
        let a_range = if self.dependent {
            self.range_out
        } else {
            self.range_in
        };
        let src = sum_kernel_ranges(enc, &a_range, &self.range_in, &self.range_out);
        let opt = if cfg.mad_fusion {
            OptOptions::full()
        } else {
            OptOptions::without_mad_fusion()
        };
        let prog = gl.create_program_with(&src, &opt)?;
        gl.set_sampler(prog, "u_a", 0)?;
        gl.set_sampler(prog, "u_b", 1)?;

        apply_setup(gl, cfg);

        let encoded_a = encode_input(gl, enc, a, &a_range);
        let encoded_b = encode_input(gl, enc, b, &self.range_in);

        let tex_a = gl.create_texture();
        let tex_b = gl.create_texture();
        gl.add_cpu_work(convert_cost((encoded_a.len() + encoded_b.len()) as u64));
        gl.tex_image_2d(
            tex_a,
            self.n,
            self.n,
            enc.texture_format(),
            Some(&encoded_a),
        )?;
        gl.tex_image_2d(
            tex_b,
            self.n,
            self.n,
            enc.texture_format(),
            Some(&encoded_b),
        )?;

        let mut chain = OutputChain::new(gl, self.n, enc.texture_format());
        if self.dependent {
            // The chain starts holding A.
            chain.seed(gl, &encoded_a)?;
        }

        let vbo = vbo_for(gl, cfg, 1)?;

        Ok(Sum {
            cfg: *cfg,
            n: self.n,
            prog,
            tex_a,
            tex_b,
            chain,
            vbo,
            range_out: self.range_out,
            dependent: self.dependent,
            reupload: self.reupload,
            encoded_a,
            encoded_b,
            step_count: 0,
        })
    }
}

impl Sum {
    /// Starts building a `Sum` over `n`×`n` matrices.
    #[must_use]
    pub fn builder(n: u32) -> SumBuilder {
        SumBuilder {
            n,
            range_in: Range::unit(),
            range_out: Range::new(0.0, 2.0),
            dependent: false,
            reupload: false,
        }
    }

    /// Runs one kernel invocation (one iteration of the paper's benchmark
    /// body).
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn step(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.step_banded(gl, 1)
    }

    /// Like [`Sum::step`], but issues the draw as `bands` row-band
    /// sub-draws — the resilient runner's watchdog degradation rung.
    /// `bands <= 1` is exactly [`Sum::step`].
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn step_banded(&mut self, gl: &mut Gl, bands: u32) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        if self.reupload {
            gl.add_cpu_work(convert_cost(
                (self.encoded_a.len() + self.encoded_b.len()) as u64,
            ));
            let fmt = self.cfg.encoding.texture_format();
            if self.cfg.texture_reuse {
                gl.tex_sub_image_2d(self.tex_a, &self.encoded_a)?;
                gl.tex_sub_image_2d(self.tex_b, &self.encoded_b)?;
            } else {
                gl.tex_image_2d(self.tex_a, self.n, self.n, fmt, Some(&self.encoded_a))?;
                gl.tex_image_2d(self.tex_b, self.n, self.n, fmt, Some(&self.encoded_b))?;
            }
        }
        let a_tex = if self.dependent {
            self.chain.latest()
        } else {
            self.tex_a
        };
        gl.bind_texture(0, Some(a_tex))?;
        gl.bind_texture(1, Some(self.tex_b))?;
        gl.use_program(Some(self.prog))?;

        self.step_count += 1;
        let label = format!("sum#{}", self.step_count);
        let quad = quad_for(&self.cfg, self.vbo, &label);
        let n = self.n;
        self.chain
            .render_pass(gl, &self.cfg, |gl| draw_banded(gl, &quad, bands, n))
    }

    /// Restores the operator's pre-run state: in dependent mode the chain
    /// is re-seeded with matrix `A`, otherwise this is a no-op. Used by the
    /// resilient runner to replay a run from the beginning.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn reset(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        if self.dependent {
            gl.add_cpu_work(convert_cost(self.encoded_a.len() as u64));
            self.chain.seed(gl, &self.encoded_a)?;
        }
        Ok(())
    }

    /// Reads back the latest result's raw encoded bytes (a pass-granular
    /// checkpoint for the resilient runner).
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

    /// Runs `iterations` kernel invocations.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn run(&mut self, gl: &mut Gl, iterations: usize) -> Result<(), GpgpuError> {
        for _ in 0..iterations {
            self.step(gl)?;
        }
        Ok(())
    }

    /// Reads back and decodes the latest result.
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
}
