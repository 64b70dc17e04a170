//! GPU inner product: an element-wise multiply pass feeding the 4:1
//! reduction tree — `1 + log2(n)` kernel invocations with no intermediate
//! CPU round trip.
//!
//! This is the composition the paper's §III framework enables: kernels
//! chained through textures, each obeying the no-feedback rule, all inside
//! one GL context and one simulated timeline.

use mgpu_gles::{Gl, ProgramId, TextureId};
use mgpu_shader::OptOptions;

use crate::config::OptConfig;
use crate::encoding::Range;
use crate::error::GpgpuError;
use crate::kernels::hadamard_kernel;
use crate::ops::reduce::check_reduction;
use crate::ops::{
    apply_setup, check_size, convert_cost, encode_input, end_pass, quad_for, vbo_for, Reduction,
};

/// Computes `dot(X, Y) = Σ xᵢ·yᵢ` over `n`×`n` encoded matrices on the
/// GPU.
///
/// Inputs must lie in `[0, 1)`; the products then also lie in `[0, 1)`,
/// so the multiply pass composes with the reduction without range
/// bookkeeping.
///
/// # Examples
///
/// ```
/// use mgpu_gles::Gl;
/// use mgpu_gpgpu::{DotProduct, OptConfig};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let mut gl = Gl::new(Platform::videocore_iv(), 16, 16);
/// let x = vec![0.5f32; 256];
/// let y = vec![0.5f32; 256];
/// let mut dot = DotProduct::new(&mut gl, &OptConfig::baseline().without_swap(), 16, &x, &y)?;
/// let got = dot.run(&mut gl)?;
/// assert!((got - 64.0).abs() < 0.1); // 256 * 0.25
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DotProduct {
    cfg: OptConfig,
    n: u32,
    prog: ProgramId,
    tex_x: TextureId,
    tex_y: TextureId,
    product: TextureId,
    reduction: Reduction,
    vbo: Option<mgpu_gles::BufferId>,
    fbo: mgpu_gles::FramebufferId,
    run_count: u64,
}

impl DotProduct {
    /// Builds the operator and uploads both inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reduction::new`] plus size mismatches.
    pub fn new(
        gl: &mut Gl,
        cfg: &OptConfig,
        n: u32,
        x: &[f32],
        y: &[f32],
    ) -> Result<Self, GpgpuError> {
        check_size(n, x.len(), "vector X")?;
        check_size(n, y.len(), "vector Y")?;
        check_reduction(cfg, n)?;
        let enc = cfg.encoding;
        let src = hadamard_kernel(enc, &Range::unit());
        let opt = if cfg.mad_fusion {
            OptOptions::full()
        } else {
            OptOptions::without_mad_fusion()
        };
        let prog = gl.create_program_with(&src, &opt)?;
        gl.set_sampler(prog, "u_a", 0)?;
        gl.set_sampler(prog, "u_b", 1)?;
        apply_setup(gl, cfg);

        let ex = encode_input(gl, enc, x, &Range::unit());
        let ey = encode_input(gl, enc, y, &Range::unit());
        gl.add_cpu_work(convert_cost((ex.len() + ey.len()) as u64));
        let tex_x = gl.create_texture();
        let tex_y = gl.create_texture();
        gl.tex_image_2d(tex_x, n, n, enc.texture_format(), Some(&ex))?;
        gl.tex_image_2d(tex_y, n, n, enc.texture_format(), Some(&ey))?;

        let product = gl.create_texture();
        gl.tex_image_2d(product, n, n, enc.texture_format(), None)?;
        let reduction = Reduction::with_input_texture(gl, cfg, n, product)?;
        let fbo = gl.create_framebuffer();
        let vbo = vbo_for(gl, cfg, 1)?;
        Ok(DotProduct {
            cfg: *cfg,
            n,
            prog,
            tex_x,
            tex_y,
            product,
            reduction,
            vbo,
            fbo,
            run_count: 0,
        })
    }

    /// Total kernel invocations per evaluation (`1 + log2(n)`).
    #[must_use]
    pub fn passes(&self) -> u32 {
        1 + self.reduction.passes()
    }

    /// Runs the multiply pass and the reduction, returning the inner
    /// product (0 on a timing-only context, which keeps no texels).
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] when the operator was built on a timing-only
    /// context that is now functional; GL failures otherwise.
    pub fn run(&mut self, gl: &mut Gl) -> Result<f32, GpgpuError> {
        self.reduction.guard(gl)?;
        self.run_count += 1;
        // Multiply pass into the product texture.
        if !self.cfg.texture_reuse {
            gl.tex_image_2d(
                self.product,
                self.n,
                self.n,
                self.cfg.encoding.texture_format(),
                None,
            )?;
        }
        gl.bind_framebuffer(Some(self.fbo))?;
        gl.framebuffer_texture_2d(self.product)?;
        if self.cfg.invalidate {
            gl.discard_framebuffer()?;
        }
        gl.bind_texture(0, Some(self.tex_x))?;
        gl.bind_texture(1, Some(self.tex_y))?;
        gl.use_program(Some(self.prog))?;
        let label = format!("dot#{} multiply", self.run_count);
        let quad = quad_for(&self.cfg, self.vbo, &label);
        gl.draw_quad(&quad)?;
        end_pass(gl, &self.cfg)?;

        // Tree reduction over the product.
        self.reduction.run(gl)
    }
}
