//! The GPGPU operators: streaming sum, saxpy, blocked sgemm and image
//! convolution.
//!
//! All operators share the [`OutputChain`]: a double-buffered pair of
//! result textures plus a framebuffer object, which realises the paper's
//! §III/§IV output scheme under every [`OptConfig`] point:
//!
//! * **texture rendering** — render into one chain texture while the other
//!   is readable (OpenGL ES 2 forbids sampling the render target);
//! * **framebuffer rendering** — render to the window surface and copy the
//!   result out with `copy_tex_image_2d` (fresh storage every pass) or
//!   `copy_tex_sub_image_2d` (reused storage, the Fig. 5b false-sharing
//!   case);
//! * **invalidation** — `EXT_discard_framebuffer` before each pass unless
//!   disabled.
//!
//! On a timing-only context, which prices uploads by length and drops
//! their texels unread, operators upload same-length placeholders instead
//! of encoded data ([`encode_input`]); the chain then refuses to run once
//! the context turns functional ([`BuildMode::check`]).

mod conv;
mod dot;
mod jacobi;
mod reduce;
mod saxpy;
mod sgemm;
mod sum;
mod transpose;

pub use conv::Convolution3x3;
pub use dot::DotProduct;
pub use jacobi::{JacobiBuilder, JacobiSolver};
pub use reduce::Reduction;
pub use saxpy::Saxpy;
pub use sgemm::Sgemm;
pub use sum::{Sum, SumBuilder};
pub use transpose::Transpose;

use mgpu_gles::{DrawQuad, Gl, GlError, TextureFormat, TextureId};
use mgpu_tbdr::SimTime;

use crate::config::{OptConfig, RenderStrategy, SyncStrategy, VertexStrategy};
use crate::encoding::{Encoding, Range};
use crate::error::GpgpuError;

/// Estimated CPU throughput of the float↔byte conversions (encode/decode),
/// charged as application CPU time against the frame that uploads the data.
///
/// The 500 MiB/s models the simulated board's CPU, not the host that runs the
/// simulator: how fast the host codec ([`crate::Encoding::encode`]) runs
/// never changes simulated time.
const CONVERT_BANDWIDTH_BYTES_PER_SEC: f64 = 500.0 * 1024.0 * 1024.0;

/// Simulated CPU time to convert `bytes` of encoded data.
pub(crate) fn convert_cost(bytes: u64) -> SimTime {
    SimTime::from_secs_f64(bytes as f64 / CONVERT_BANDWIDTH_BYTES_PER_SEC)
}

/// Host bytes of one upload of `values`: the codec's output on a functional
/// context; on a timing-only one, a [`placeholder`] of the same length, so
/// the codec never runs and every simulated byte count stays the same.
pub(crate) fn encode_input(gl: &Gl, enc: Encoding, values: &[f32], range: &Range) -> Vec<u8> {
    if gl.functional() {
        enc.encode(values, range)
    } else {
        placeholder(enc, values.len())
    }
}

/// Zero bytes standing in for `values` encoded values on a timing-only
/// context. [`BuildMode::check`] keeps them off functional contexts.
pub(crate) fn placeholder(enc: Encoding, values: usize) -> Vec<u8> {
    vec![0; values * enc.bytes_per_value()]
}

/// Whether an operator was built on a timing-only context, and so holds
/// placeholders where its encoded inputs would be.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BuildMode {
    timing_only: bool,
}

impl BuildMode {
    /// The mode of an operator built on `gl` now.
    pub(crate) fn of(gl: &Gl) -> Self {
        BuildMode {
            timing_only: !gl.functional(),
        }
    }

    /// Refuses to run a timing-only build on a context that has since
    /// turned functional. Called before any upload, charge or draw, so the
    /// placeholders never reach a functional texture and the simulated
    /// timeline does not move.
    pub(crate) fn check(self, gl: &Gl) -> Result<(), GpgpuError> {
        if self.timing_only && gl.functional() {
            return Err(GpgpuError::Config(
                "operator was built on a timing-only context and holds placeholders, \
                 not its inputs: call set_functional(true) before building it"
                    .to_owned(),
            ));
        }
        Ok(())
    }
}

/// Applies the configured swap interval once at operator setup.
pub(crate) fn apply_setup(gl: &mut Gl, cfg: &OptConfig) {
    match cfg.sync {
        SyncStrategy::SwapDefault => {
            let d = gl.platform().default_swap_interval;
            gl.swap_interval(d);
        }
        SyncStrategy::SwapInterval0 => gl.swap_interval(0),
        SyncStrategy::NoSwap => {}
    }
}

/// Ends one kernel invocation according to the sync strategy.
pub(crate) fn end_pass(gl: &mut Gl, cfg: &OptConfig) -> Result<(), GlError> {
    match cfg.sync {
        SyncStrategy::NoSwap => {
            gl.flush();
            Ok(())
        }
        _ => gl.swap_buffers(),
    }
}

/// Builds the draw call for the configured vertex strategy.
pub(crate) fn quad_for(cfg: &OptConfig, vbo: Option<mgpu_gles::BufferId>, label: &str) -> DrawQuad {
    let quad = DrawQuad::fullscreen().with_label(label);
    match (cfg.vertex, vbo) {
        (VertexStrategy::Vbo(_), Some(b)) => {
            quad.with_vertex_source(mgpu_gles::VertexSource::Vbo(b))
        }
        _ => quad,
    }
}

/// Issues `quad` as `bands` row-band sub-draws over a target of `height`
/// rows (one plain draw when `bands <= 1`) — the watchdog degradation rung.
/// Band sub-draws are bit-identical to the full draw because fragment
/// coordinates are derived from the global row index.
pub(crate) fn draw_banded(
    gl: &mut Gl,
    quad: &DrawQuad,
    bands: u32,
    height: u32,
) -> Result<(), GlError> {
    if bands <= 1 || height == 0 {
        return gl.draw_quad(quad);
    }
    let bands = bands.min(height);
    let rows = height.div_ceil(bands);
    let mut y0 = 0u32;
    while y0 < height {
        let y1 = (y0 + rows).min(height);
        gl.draw_quad(&quad.clone().with_row_band(y0, y1))?;
        y0 = y1;
    }
    Ok(())
}

/// Creates the VBO for the configured vertex strategy, if any.
pub(crate) fn vbo_for(
    gl: &mut Gl,
    cfg: &OptConfig,
    varyings: u64,
) -> Result<Option<mgpu_gles::BufferId>, GlError> {
    match cfg.vertex {
        VertexStrategy::ClientArrays => Ok(None),
        VertexStrategy::Vbo(usage) => {
            let vbo = gl.create_buffer();
            gl.buffer_data(vbo, 4 * (8 + varyings * 8), usage)?;
            Ok(Some(vbo))
        }
    }
}

/// Double-buffered result textures + FBO shared by all operators.
#[derive(Debug)]
pub(crate) struct OutputChain {
    textures: [TextureId; 2],
    fbo: mgpu_gles::FramebufferId,
    /// Index of the texture holding the latest result.
    idx: usize,
    size: u32,
    format: TextureFormat,
    allocated: [bool; 2],
    /// How the owning operator was built; checked by every chain call.
    mode: BuildMode,
}

impl OutputChain {
    pub(crate) fn new(gl: &mut Gl, size: u32, format: TextureFormat) -> Self {
        OutputChain {
            textures: [gl.create_texture(), gl.create_texture()],
            fbo: gl.create_framebuffer(),
            idx: 0,
            size,
            format,
            allocated: [false; 2],
            mode: BuildMode::of(gl),
        }
    }

    /// Fails when the owning operator was built timing-only and `gl` is
    /// now functional (see [`BuildMode::check`]). Operators that upload or
    /// charge before their first chain call check this first.
    pub(crate) fn guard(&self, gl: &Gl) -> Result<(), GpgpuError> {
        self.mode.check(gl)
    }

    /// The texture holding the latest result.
    pub(crate) fn latest(&self) -> TextureId {
        self.textures[self.idx]
    }

    /// Uploads initial contents into the latest-result slot.
    pub(crate) fn seed(&mut self, gl: &mut Gl, data: &[u8]) -> Result<(), GpgpuError> {
        self.guard(gl)?;
        gl.tex_image_2d(
            self.textures[self.idx],
            self.size,
            self.size,
            self.format,
            Some(data),
        )?;
        self.allocated[self.idx] = true;
        Ok(())
    }

    /// Runs one pass: sets up the render target per the configuration,
    /// invokes `draw`, performs the copy-out on the framebuffer path, and
    /// flips the chain. After this call, [`OutputChain::latest`] is the
    /// texture the pass produced.
    pub(crate) fn render_pass(
        &mut self,
        gl: &mut Gl,
        cfg: &OptConfig,
        draw: impl FnOnce(&mut Gl) -> Result<(), GlError>,
    ) -> Result<(), GpgpuError> {
        self.render_pass_with_copy(gl, cfg, None, draw)
    }

    /// [`OutputChain::render_pass`] that additionally copies the pass's
    /// freshly produced output into `copy_out` (when given) *before* the
    /// end-of-pass swap/flush — the retained-output hook deep pipelines
    /// use so a later pass can sample an intermediate result that the
    /// double-buffered chain would otherwise overwrite.
    pub(crate) fn render_pass_with_copy(
        &mut self,
        gl: &mut Gl,
        cfg: &OptConfig,
        copy_out: Option<TextureId>,
        draw: impl FnOnce(&mut Gl) -> Result<(), GlError>,
    ) -> Result<(), GpgpuError> {
        self.guard(gl)?;
        let next = 1 - self.idx;
        match cfg.target {
            RenderStrategy::Texture => {
                // Fresh storage unless reusing (renders into `next`).
                if !cfg.texture_reuse || !self.allocated[next] {
                    gl.tex_image_2d(self.textures[next], self.size, self.size, self.format, None)?;
                    self.allocated[next] = true;
                }
                gl.bind_framebuffer(Some(self.fbo))?;
                gl.framebuffer_texture_2d(self.textures[next])?;
                if cfg.invalidate {
                    gl.discard_framebuffer()?;
                }
                draw(gl)?;
                // The FBO still targets the just-written texture, so the
                // retained copy reads straight from the render target.
                if let Some(keep) = copy_out {
                    gl.copy_tex_image_2d(keep, self.format)?;
                }
            }
            RenderStrategy::Framebuffer => {
                gl.bind_framebuffer(None)?;
                if cfg.invalidate {
                    gl.discard_framebuffer()?;
                }
                draw(gl)?;
                if cfg.texture_reuse && self.allocated[next] {
                    gl.copy_tex_sub_image_2d(self.textures[next])?;
                } else {
                    gl.copy_tex_image_2d(self.textures[next], self.format)?;
                    self.allocated[next] = true;
                }
                // Copy before the swap rotates the surface away.
                if let Some(keep) = copy_out {
                    gl.copy_tex_image_2d(keep, self.format)?;
                }
            }
        }
        self.idx = next;
        end_pass(gl, cfg)?;
        Ok(())
    }

    /// Reads back and returns the latest result's bytes (synchronising,
    /// counted as a readback by the fault injector).
    pub(crate) fn read_latest(&self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.guard(gl)?;
        Ok(gl.read_texture(self.latest())?)
    }
}

/// Validates an operator's render target before anything is encoded,
/// charged or uploaded: framebuffer rendering draws the whole window
/// surface, so it must be exactly `n`×`n`. Texture rendering accepts any
/// surface.
pub(crate) fn check_target(gl: &Gl, cfg: &OptConfig, n: u32) -> Result<(), GpgpuError> {
    let (w, h) = gl.surface_size();
    if cfg.target == RenderStrategy::Framebuffer && (w, h) != (n, n) {
        return Err(GpgpuError::Config(format!(
            "framebuffer rendering needs a {n}x{n} window surface, the context's is {w}x{h}"
        )));
    }
    Ok(())
}

/// Validates that an operator's data size matches `n * n`.
pub(crate) fn check_size(n: u32, data_len: usize, what: &str) -> Result<(), GpgpuError> {
    if data_len != (n as usize) * (n as usize) {
        return Err(GpgpuError::Config(format!(
            "{what} has {data_len} elements, expected {n}x{n}"
        )));
    }
    Ok(())
}
