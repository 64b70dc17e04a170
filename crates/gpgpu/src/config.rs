//! The optimisation-configuration space of the paper's §II.
//!
//! An [`OptConfig`] selects one point in the space the paper explores
//! incrementally: windowing-system synchronisation, render target, texture
//! reuse, vertex sourcing, framebuffer invalidation, arithmetic precision
//! and compiler MAD fusion. [`OptConfig::baseline`] is the paper's
//! starting point — an implementation following OpenGL ES 2 best practices
//! [14][11] — and each builder method applies one optimisation.
//!
//! How the host executes fragments (threads, engine tier, tile skipping)
//! is not part of this space: it belongs to the context's
//! [`ExecConfig`](mgpu_gles::ExecConfig), which only the caller sets,
//! through [`Gl::set_exec_config`](mgpu_gles::Gl::set_exec_config) or the
//! `MGPU_*` environment snapshot taken when the context is created.

use mgpu_gles::BufferUsage;

use crate::encoding::Encoding;

/// Windowing-system synchronisation per kernel invocation (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncStrategy {
    /// `eglSwapBuffers` at the platform's default swap interval (vsync).
    #[default]
    SwapDefault,
    /// `eglSwapInterval(0)` then `eglSwapBuffers`: drain without the vsync
    /// wait.
    SwapInterval0,
    /// No `eglSwapBuffers` at all: maximum kernel-launch rate, for
    /// applications without visual output.
    NoSwap,
}

/// Where kernels render (paper Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RenderStrategy {
    /// Render to a texture through a framebuffer object (step 5 of Fig. 1);
    /// what the vendor guides recommend.
    #[default]
    Texture,
    /// Render to the window framebuffer, then `copy_tex_image_2d` the result
    /// out (steps 3–4 of Fig. 1). Benefits from the FB's double buffering.
    Framebuffer,
}

/// Vertex data sourcing (the paper's VBO optimisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VertexStrategy {
    /// Client-side arrays, copied by the driver on every draw.
    #[default]
    ClientArrays,
    /// A vertex buffer object with the given usage hint.
    Vbo(BufferUsage),
}

/// One point in the paper's optimisation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptConfig {
    /// Synchronisation strategy.
    pub sync: SyncStrategy,
    /// Render-target strategy.
    pub target: RenderStrategy,
    /// Reuse texture storage (`tex_sub_image_2d` / `copy_tex_sub_image_2d`)
    /// instead of allocating fresh storage every time (paper Fig. 5).
    pub texture_reuse: bool,
    /// Vertex sourcing.
    pub vertex: VertexStrategy,
    /// Invalidate the render target before each kernel (`glClear` /
    /// `EXT_discard_framebuffer`), skipping the tile reload of step 6.
    pub invalidate: bool,
    /// Data encoding / arithmetic precision (fp32 vs the paper's fp24).
    pub encoding: Encoding,
    /// Let the shader compiler fuse multiply-adds (kernel-code
    /// optimisation; off only for ablations).
    pub mad_fusion: bool,
}

impl OptConfig {
    /// The paper's baseline: OpenGL ES 2 best practices — render to
    /// texture, fresh uploads, client arrays, cleared targets, vsync'd
    /// swaps, fp32.
    #[must_use]
    pub fn baseline() -> Self {
        OptConfig {
            sync: SyncStrategy::SwapDefault,
            target: RenderStrategy::Texture,
            texture_reuse: false,
            vertex: VertexStrategy::ClientArrays,
            invalidate: true,
            encoding: Encoding::Fp32,
            mad_fusion: true,
        }
    }

    /// Applies `eglSwapInterval(0)`.
    #[must_use]
    pub fn with_swap_interval_0(mut self) -> Self {
        self.sync = SyncStrategy::SwapInterval0;
        self
    }

    /// Removes `eglSwapBuffers` entirely.
    #[must_use]
    pub fn without_swap(mut self) -> Self {
        self.sync = SyncStrategy::NoSwap;
        self
    }

    /// Switches to framebuffer rendering + copy-out.
    #[must_use]
    pub fn with_framebuffer_rendering(mut self) -> Self {
        self.target = RenderStrategy::Framebuffer;
        self
    }

    /// Switches to render-to-texture.
    #[must_use]
    pub fn with_texture_rendering(mut self) -> Self {
        self.target = RenderStrategy::Texture;
        self
    }

    /// Enables texture storage reuse.
    #[must_use]
    pub fn with_texture_reuse(mut self) -> Self {
        self.texture_reuse = true;
        self
    }

    /// Uses a VBO with the given hint.
    #[must_use]
    pub fn with_vbo(mut self, usage: BufferUsage) -> Self {
        self.vertex = VertexStrategy::Vbo(usage);
        self
    }

    /// Switches to the fp24 encoding (3-byte I/O + `mul24` arithmetic).
    #[must_use]
    pub fn with_fp24(mut self) -> Self {
        self.encoding = Encoding::Fp24;
        self
    }

    /// Disables target invalidation (pays the step-6 tile reload).
    #[must_use]
    pub fn without_invalidate(mut self) -> Self {
        self.invalidate = false;
        self
    }

    /// Disables MAD fusion in the kernel compiler (ablation).
    #[must_use]
    pub fn without_mad_fusion(mut self) -> Self {
        self.mad_fusion = false;
        self
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_best_practices() {
        let b = OptConfig::baseline();
        assert_eq!(b.sync, SyncStrategy::SwapDefault);
        assert_eq!(b.target, RenderStrategy::Texture);
        assert!(!b.texture_reuse);
        assert!(b.invalidate);
        assert_eq!(b.encoding, Encoding::Fp32);
    }

    #[test]
    fn builders_compose_the_paper_chain() {
        // The paper's incremental order for sum: interval 0 -> no swap ->
        // fp24.
        let cfg = OptConfig::baseline()
            .with_swap_interval_0()
            .without_swap()
            .with_fp24();
        assert_eq!(cfg.sync, SyncStrategy::NoSwap);
        assert_eq!(cfg.encoding, Encoding::Fp24);
        // Untouched knobs keep baseline values.
        assert_eq!(cfg.target, RenderStrategy::Texture);
    }
}
