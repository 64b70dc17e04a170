//! # mgpu-gles — a software OpenGL ES 2.0 + EGL subset with a driver model
//!
//! This crate is the "driver" of the mgpu stack: a from-scratch
//! implementation of the OpenGL ES 2.0 + EGL surface area the DATE 2017
//! paper's GPGPU pipelines exercise, running on top of the
//! [`mgpu_tbdr`] timing simulator and the [`mgpu_shader`] kernel compiler.
//!
//! Every optimisation point of the paper corresponds to a visible API
//! choice here:
//!
//! | Paper §II optimisation | API surface |
//! |---|---|
//! | Vertex buffer objects + usage hints | [`Gl::buffer_data`], [`VertexSource`] |
//! | Texture upload reuse | [`Gl::tex_image_2d`] vs [`Gl::tex_sub_image_2d`] |
//! | Render-to-texture vs framebuffer+copy | [`Gl::framebuffer_texture_2d`] vs [`Gl::copy_tex_image_2d`] |
//! | Copy-destination reuse | [`Gl::copy_tex_image_2d`] vs [`Gl::copy_tex_sub_image_2d`] |
//! | Framebuffer invalidation | [`Gl::clear`], [`Gl::discard_framebuffer`] |
//! | Windowing-system sync | [`Gl::swap_buffers`], [`Gl::swap_interval`], [`Gl::flush`] |
//! | Kernel code / fp24 | [`Gl::create_program_with`], [`TextureFormat::Rgb8`] |
//!
//! Draws are validated with GLES error semantics — including the
//! feedback-loop rule (a texture cannot be sampled while bound as the
//! render target) that forces the paper's double-buffered multi-pass
//! scheme.
//!
//! # Examples
//!
//! ```
//! use mgpu_gles::{DrawQuad, Gl, TextureFormat};
//! use mgpu_tbdr::Platform;
//!
//! # fn main() -> Result<(), mgpu_gles::GlError> {
//! let mut gl = Gl::new(Platform::sgx_545(), 32, 32);
//! let prog = gl.create_program(
//!     "varying vec2 v_coord;
//!      void main() { gl_FragColor = vec4(v_coord, 0.0, 1.0); }",
//! )?;
//! gl.use_program(Some(prog))?;
//! gl.clear([0.0; 4])?;
//! gl.draw_quad(&DrawQuad::fullscreen())?;
//! let pixels = gl.read_pixels()?;
//! assert_eq!(pixels.len(), 32 * 32 * 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

mod context;
mod error;
pub mod exec;
pub mod fault;
mod plan_cache;
mod pool;
pub mod raster;
mod shader_memo;
mod tile_skip;
mod types;

pub use context::{DrawQuad, Gl};
pub use error::GlError;
pub use exec::{Engine, EnvKnobError, ExecConfig};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpecError};
pub use plan_cache::PlanCacheStats;
pub use pool::Executor;
pub use tile_skip::TileSkipStats;
pub use types::{
    BufferId, BufferUsage, FramebufferId, ProgramId, TextureFilter, TextureFormat, TextureId,
    VertexSource,
};
