//! 3×3 image convolution — the computer-vision workload from the paper's
//! motivation, operating on plain (unencoded) RGBA8 images.

use mgpu_gles::{Gl, ProgramId, TextureFormat, TextureId};

use crate::config::OptConfig;
use crate::error::GpgpuError;
use crate::kernels::conv3x3_kernel;
use crate::ops::{apply_setup, check_target, quad_for, vbo_for, OutputChain};

/// Applies a 3×3 convolution kernel to an RGBA8 image on the GPU.
///
/// Unlike the encoded linear-algebra operators, images are natural GPU
/// data: no float packing is needed, only the render-target and
/// synchronisation choices of [`OptConfig`] apply.
///
/// # Examples
///
/// ```
/// use mgpu_gles::Gl;
/// use mgpu_gpgpu::{Convolution3x3, OptConfig};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let mut gl = Gl::new(Platform::videocore_iv(), 8, 8);
/// let image = vec![200u8; 8 * 8 * 4];
/// let blur = [1.0 / 9.0; 9];
/// let mut conv = Convolution3x3::new(&mut gl, &OptConfig::baseline(), 8, 8, &blur, &image)?;
/// conv.apply(&mut gl)?;
/// let out = conv.result(&mut gl)?;
/// assert_eq!(out.len(), image.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Convolution3x3 {
    cfg: OptConfig,
    prog: ProgramId,
    tex_src: TextureId,
    chain: OutputChain,
    vbo: Option<mgpu_gles::BufferId>,
    step_count: u64,
}

impl Convolution3x3 {
    /// Builds the operator with the weights baked into the kernel.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] when `image` is not `width*height*4` bytes,
    /// the image is not square (the output chain uses square targets) or,
    /// under framebuffer rendering, the window surface is not the image's
    /// size; [`GpgpuError::Gl`] otherwise.
    pub fn new(
        gl: &mut Gl,
        cfg: &OptConfig,
        width: u32,
        height: u32,
        weights: &[f32; 9],
        image: &[u8],
    ) -> Result<Self, GpgpuError> {
        if image.len() != (width as usize) * (height as usize) * 4 {
            return Err(GpgpuError::Config(format!(
                "image is {} bytes, expected {width}x{height}x4",
                image.len()
            )));
        }
        if width != height {
            return Err(GpgpuError::Config(
                "convolution targets must currently be square".to_owned(),
            ));
        }
        check_target(gl, cfg, width)?;
        let src = conv3x3_kernel(weights, 1.0 / width as f32, 1.0 / height as f32);
        let prog = gl.create_program(&src)?;
        gl.set_sampler(prog, "u_img", 0)?;
        apply_setup(gl, cfg);

        let tex_src = gl.create_texture();
        gl.tex_image_2d(tex_src, width, height, TextureFormat::Rgba8, Some(image))?;
        let chain = OutputChain::new(gl, width, TextureFormat::Rgba8);
        let vbo = vbo_for(gl, cfg, 1)?;

        Ok(Convolution3x3 {
            cfg: *cfg,
            prog,
            tex_src,
            chain,
            vbo,
            step_count: 0,
        })
    }

    /// Applies the convolution once (source → output chain).
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn apply(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        gl.bind_texture(0, Some(self.tex_src))?;
        gl.use_program(Some(self.prog))?;
        self.step_count += 1;
        let label = format!("conv3x3#{}", self.step_count);
        let quad = quad_for(&self.cfg, self.vbo, &label);
        self.chain
            .render_pass(gl, &self.cfg, |gl| gl.draw_quad(&quad))
    }

    /// Applies the convolution repeatedly, feeding each result back in
    /// (iterated blur / diffusion — a multi-pass pipeline over an image).
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn apply_iterated(&mut self, gl: &mut Gl, iterations: usize) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        for i in 0..iterations {
            let src = if i == 0 {
                self.tex_src
            } else {
                self.chain.latest()
            };
            gl.bind_texture(0, Some(src))?;
            gl.use_program(Some(self.prog))?;
            self.step_count += 1;
            let label = format!("conv3x3#{}", self.step_count);
            let quad = quad_for(&self.cfg, self.vbo, &label);
            self.chain
                .render_pass(gl, &self.cfg, |gl| gl.draw_quad(&quad))?;
        }
        Ok(())
    }

    /// Reads back the convolved RGBA8 image.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn result(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.chain.read_latest(gl)
    }
}
