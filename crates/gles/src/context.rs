//! The GL context: an OpenGL ES 2.0 + EGL subset as a safe Rust API.
//!
//! A [`Gl`] owns the full driver state — textures, buffers, framebuffer
//! objects, programs, texture units, the double-buffered window surface —
//! and two execution engines:
//!
//! * a **functional** engine (the [`raster`](crate::raster) module plus the
//!   shader VM) that computes actual pixel values, and
//! * a **timing** engine (the [`PipelineSim`](mgpu_tbdr::PipelineSim)) fed
//!   one [`FrameWork`] per kernel invocation.
//!
//! API calls map 1:1 onto the GLES calls the paper discusses
//! (`tex_image_2d` ↔ `glTexImage2D`, and so on), with GLES error semantics
//! surfaced as `Result`s. Frame boundaries follow GL's: uploads accumulate
//! until a draw; a draw opens a frame; `copy_tex_image_2d` attaches to it;
//! the next draw, `swap_buffers`, `finish` or `flush` closes it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mgpu_shader::cost::KernelCost;
use mgpu_shader::ir::Shader;
use mgpu_shader::{CompileOptions, ExecError, Limits, OptOptions, Sampler, UniformValues};
use mgpu_tbdr::{
    AllocKind, CopyOut, FragmentProfile, FragmentWork, FrameTiming, FrameWork, PipelineSim,
    Platform, RenderTarget, ResourceId, SimReport, SimTime, SkipWork, SyncOp, TileRect, Upload,
    VertexWork,
};

use crate::error::GlError;
use crate::exec::{plan_cache_default, ExecConfig};
use crate::fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSite};
use crate::plan_cache::{corners_hash, PlanCache, PlanCacheStats, PlanKey};
use crate::pool::Executor;
use crate::raster::{
    execute_plan, execute_plan_rect, panic_message, quantize_rgba8, texcoord_corners, DrawPlan,
    RasterTarget, VaryingCorners,
};
use crate::shader_memo::ShaderMemo;
use crate::tile_skip::{
    blit_tile, content_hash, extract_tile, region_hash, sample_footprint, tile_signature, TexSig,
    TileKey, TileSigCache, TileSkipStats, SIG_BYTES_PER_SLOT_COLUMN, SIG_DESCRIPTOR_BYTES,
};
use crate::types::{
    BufferId, BufferUsage, FramebufferId, ProgramId, TextureFilter, TextureFormat, TextureId,
    VertexSource,
};

/// Driver CPU cost of sourcing vertex data from client arrays (per draw):
/// validation plus copy into the driver's ring buffer, before per-byte cost.
const CLIENT_ARRAY_BASE: SimTime = SimTime::from_micros(25);
/// Per-draw consistency cost of a `StreamDraw` VBO.
const VBO_STREAM_COST: SimTime = SimTime::from_micros(3);
/// Per-draw consistency cost of a `DynamicDraw` VBO (the driver must check
/// for CPU writes each draw).
const VBO_DYNAMIC_COST: SimTime = SimTime::from_micros(7);
/// CPU cost of recreating a lost EGL context (eglCreateContext +
/// eglMakeCurrent + driver state rebuild), charged to the first frame
/// submitted after [`Gl::recreate`].
const CONTEXT_RECREATE_COST: SimTime = SimTime::from_millis(2);

#[derive(Debug)]
struct Texture {
    storage: ResourceId,
    width: u32,
    height: u32,
    format: TextureFormat,
    filter: TextureFilter,
    data: Vec<u8>,
    allocated: bool,
    /// Storage allocated and not yet rendered into / copied into.
    storage_fresh: bool,
    /// Bumped on every content mutation (upload, copy, draw write-back,
    /// clear, injected corruption) so the whole-texture content digest can
    /// be memoised per version for the tile-signature cache.
    version: u64,
    /// `(version, digest)` memo for [`Texture::content_crc`].
    crc_memo: Option<(u64, u64)>,
}

impl Texture {
    /// Marks the texture's contents changed.
    fn touch(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Whole-texture content digest, memoised per content version.
    fn content_crc(&mut self) -> u64 {
        if let Some((v, crc)) = self.crc_memo {
            if v == self.version {
                return crc;
            }
        }
        let crc = content_hash(&self.data);
        self.crc_memo = Some((self.version, crc));
        crc
    }
}

#[derive(Debug)]
struct Buffer {
    usage: BufferUsage,
    size: u64,
    allocated: bool,
}

#[derive(Debug, Default)]
struct Framebuffer {
    color: Option<TextureId>,
}

#[derive(Debug)]
struct Program {
    /// Shared with the shader memo and draw plans; a relink creates a
    /// whole new `Program`, never mutates this.
    shader: Arc<Shader>,
    /// The static cost profile of `shader`, shared with the shader memo:
    /// every draw prices its fragments from it.
    cost: Arc<KernelCost>,
    /// The shader memo's id for `shader`, part of every plan cache key:
    /// programs linked from one source under one set of options share it.
    shader_id: u64,
    uniforms: UniformValues,
    /// shader sampler unit → GL texture unit (glUniform1i on a sampler).
    unit_bindings: HashMap<u8, u32>,
}

/// Identifies a render target for clear/content tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TargetKey {
    Surface(u32),
    Storage(ResourceId),
}

/// A draw call: a quad covering the render target.
///
/// Every `vec2` varying defaults to the standard GPGPU texcoords (fragment
/// (x, y) reads texel (x, y)); use [`DrawQuad::with_varying`] to override a
/// varying's corner values.
#[derive(Debug, Clone, Default)]
pub struct DrawQuad {
    overrides: Vec<(String, VaryingCorners)>,
    /// Shade only rows `y0..y1` of the target (a row-band sub-draw).
    rows: Option<(u32, u32)>,
    /// Where vertex data comes from (client arrays vs a VBO).
    pub vertex_source: VertexSource,
    /// Label recorded on the frame for traces.
    pub label: String,
}

impl DrawQuad {
    /// A fullscreen quad with default texcoords on every varying.
    #[must_use]
    pub fn fullscreen() -> Self {
        DrawQuad::default()
    }

    /// Overrides one varying's corner values
    /// (corner order: (0,0), (1,0), (0,1), (1,1)).
    #[must_use]
    pub fn with_varying(mut self, name: &str, corners: VaryingCorners) -> Self {
        self.overrides.push((name.to_owned(), corners));
        self
    }

    /// Sets the vertex source.
    #[must_use]
    pub fn with_vertex_source(mut self, source: VertexSource) -> Self {
        self.vertex_source = source;
        self
    }

    /// Sets the trace label.
    #[must_use]
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_owned();
        self
    }

    /// Restricts the draw to target rows `y0..y1` — a row-band sub-draw.
    ///
    /// Fragment positions stay global, so a full-target draw split into
    /// bands produces bytes identical to the unsplit draw while each
    /// sub-draw's simulated GPU time covers only its band (how a resilient
    /// runner ducks under a per-draw watchdog budget).
    #[must_use]
    pub fn with_row_band(mut self, y0: u32, y1: u32) -> Self {
        self.rows = Some((y0, y1));
        self
    }

    /// The row band this draw covers, if restricted.
    #[must_use]
    pub fn row_band(&self) -> Option<(u32, u32)> {
        self.rows
    }
}

/// Runs one step of kernel execution (plan build or shading) with panics
/// contained, mapping a kernel failure or panic to the draw's typed error.
fn run_kernel<T>(step: impl FnOnce() -> Result<T, ExecError>) -> Result<T, GlError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)) {
        Ok(r) => r.map_err(|e| GlError::InvalidOperation(format!("kernel execution failed: {e}"))),
        Err(p) => Err(GlError::InvalidOperation(format!(
            "kernel execution panicked: {}",
            panic_message(&*p)
        ))),
    }
}

/// What one sampled texture contributes to a tile's input signature:
/// the exact sampled-texel region digest when the kernel's fetches are all
/// streaming (footprint resolved from the plan's varying hull), else the
/// memoised whole-texture digest.
fn tile_texture_sigs(
    plan: &DrawPlan,
    r: &TileRect,
    height: u32,
    streaming_only: bool,
    views: &[TexView<'_>],
    whole_crcs: &[u64],
) -> Vec<TexSig> {
    let hull = if streaming_only {
        plan.varying_hull(r.x0, r.x1, r.y0, r.y1, height)
    } else {
        None
    };
    views
        .iter()
        .zip(whole_crcs)
        .map(|(v, &whole)| {
            let (region, crc) = match hull {
                Some((lo, hi)) => {
                    let fp = sample_footprint(lo, hi, v.width, v.height);
                    (Some(fp), region_hash(v.data, v.width, v.channels, fp))
                }
                None => (None, whole),
            };
            TexSig {
                width: v.width,
                height: v.height,
                channels: v.channels,
                linear: v.filter == TextureFilter::Linear,
                region,
                crc,
            }
        })
        .collect()
}

/// Filtering view over texture bytes (nearest or bilinear, clamp-to-edge).
struct TexView<'a> {
    data: &'a [u8],
    width: u32,
    height: u32,
    channels: usize,
    filter: TextureFilter,
}

impl TexView<'_> {
    #[inline]
    fn texel(&self, x: i64, y: i64) -> [f32; 4] {
        let x = x.clamp(0, i64::from(self.width) - 1);
        let y = y.clamp(0, i64::from(self.height) - 1);
        let idx = (y as usize * self.width as usize + x as usize) * self.channels;
        let mut out = [0.0f32, 0.0, 0.0, 1.0];
        for (c, o) in out.iter_mut().enumerate().take(self.channels.min(4)) {
            *o = mgpu_shader::u8_to_unorm(self.data[idx + c]);
        }
        out
    }

    /// Nearest lookup with pre-converted dimension factors (the values of
    /// `self.width as f32`/`self.height as f32`), hoisted by the batch
    /// path so the conversions happen once per batch, not once per lane.
    #[inline]
    fn fetch_nearest_scaled(&self, u: f32, v: f32, wf: f32, hf: f32) -> [f32; 4] {
        self.texel((u * wf).floor() as i64, (v * hf).floor() as i64)
    }
}

impl Sampler for TexView<'_> {
    fn fetch(&self, u: f32, v: f32) -> [f32; 4] {
        match self.filter {
            TextureFilter::Nearest => {
                self.fetch_nearest_scaled(u, v, self.width as f32, self.height as f32)
            }
            TextureFilter::Linear => {
                // Sample positions relative to texel centres.
                let x = u * self.width as f32 - 0.5;
                let y = v * self.height as f32 - 0.5;
                let (x0, y0) = (x.floor(), y.floor());
                let (fx, fy) = (x - x0, y - y0);
                let (x0, y0) = (x0 as i64, y0 as i64);
                let t00 = self.texel(x0, y0);
                let t10 = self.texel(x0 + 1, y0);
                let t01 = self.texel(x0, y0 + 1);
                let t11 = self.texel(x0 + 1, y0 + 1);
                let mut out = [0.0f32; 4];
                for c in 0..4 {
                    let top = t00[c] * (1.0 - fx) + t10[c] * fx;
                    let bottom = t01[c] * (1.0 - fx) + t11[c] * fx;
                    out[c] = top * (1.0 - fy) + bottom * fy;
                }
                out
            }
        }
    }

    fn fetch_batch(&self, us: &[f32], vs: &[f32], out: &mut [[f32; 4]]) {
        match self.filter {
            TextureFilter::Nearest => {
                // The GPGPU hot path: statically dispatched nearest
                // lookups with the texel-scale factors hoisted out of the
                // lane loop.
                let (wf, hf) = (self.width as f32, self.height as f32);
                for ((o, u), v) in out.iter_mut().zip(us).zip(vs) {
                    *o = self.fetch_nearest_scaled(*u, *v, wf, hf);
                }
            }
            TextureFilter::Linear => {
                for ((o, u), v) in out.iter_mut().zip(us).zip(vs) {
                    *o = self.fetch(*u, *v);
                }
            }
        }
    }

    fn fetch_row_batch(&self, us: &[f32], v: f32, out: &mut [[f32; 4]]) {
        match self.filter {
            TextureFilter::Nearest => {
                // Row term resolved once: `(y*w + x) == (row + x)` exactly.
                let (wf, hf) = (self.width as f32, self.height as f32);
                let y = ((v * hf).floor() as i64).clamp(0, i64::from(self.height) - 1);
                for (o, u) in out.iter_mut().zip(us) {
                    *o = self.texel(
                        ((*u * wf).floor() as i64).clamp(0, i64::from(self.width) - 1),
                        y,
                    );
                }
            }
            TextureFilter::Linear => {
                for (o, u) in out.iter_mut().zip(us) {
                    *o = self.fetch(*u, v);
                }
            }
        }
    }

    fn raw_rgba8(&self) -> Option<(&[u8], u32, u32)> {
        // Only a full-RGBA8 nearest view matches the raw-gather contract
        // (`u8_to_unorm` over `data[(y*w + x)*4..][..4]`).
        (self.channels == 4 && self.filter == TextureFilter::Nearest).then_some((
            self.data,
            self.width,
            self.height,
        ))
    }
}

/// An OpenGL ES 2.0 context bound to a window surface on a simulated
/// platform.
///
/// # Examples
///
/// ```
/// use mgpu_gles::{DrawQuad, Gl, TextureFormat};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gles::GlError> {
/// let mut gl = Gl::new(Platform::videocore_iv(), 64, 64);
/// let prog = gl.create_program(
///     "uniform sampler2D u_src;
///      varying vec2 v_coord;
///      void main() { gl_FragColor = texture2D(u_src, v_coord); }",
/// )?;
/// let src = gl.create_texture();
/// gl.tex_image_2d(src, 64, 64, TextureFormat::Rgba8, Some(&[128u8; 64 * 64 * 4]))?;
/// gl.bind_texture(0, Some(src))?;
/// gl.use_program(Some(prog))?;
/// gl.clear([0.0; 4])?;
/// gl.draw_quad(&DrawQuad::fullscreen())?;
/// gl.swap_buffers()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Gl {
    platform: Platform,
    sim: PipelineSim,
    functional: bool,
    exec: ExecConfig,

    next_handle: u32,
    resource_counter: u64,
    textures: HashMap<u32, Texture>,
    buffers: HashMap<u32, Buffer>,
    framebuffers: HashMap<u32, Framebuffer>,
    programs: HashMap<u32, Program>,

    texture_units: Vec<Option<TextureId>>,
    bound_framebuffer: Option<FramebufferId>,
    current_program: Option<ProgramId>,
    swap_interval: u32,

    surface_width: u32,
    surface_height: u32,
    /// The window surfaces' RGBA8 pixels. Each stays empty until its first
    /// functional use (see [`Gl::surface_mut`]), so a timing-only context
    /// never allocates them.
    surfaces: Vec<Vec<u8>>,
    back_surface: u32,

    pending: Option<FrameWork>,
    pending_uploads: Vec<Upload>,
    pending_cpu_extra: SimTime,
    cleared_targets: HashSet<TargetKey>,
    has_content: HashSet<TargetKey>,

    draw_counter: u64,
    last_timing: Option<FrameTiming>,
    record_frames: bool,
    recorded: Vec<(FrameWork, FrameTiming)>,

    /// Deterministic fault injection, if installed (`MGPU_FAULTS` or
    /// [`Gl::install_faults`]). `None` means every hook is a no-op and the
    /// context behaves bit-identically to a fault-free build.
    injector: Option<FaultInjector>,
    /// Set by an injected context loss; every call fails with
    /// [`GlError::ContextLost`] until [`Gl::recreate`].
    context_lost: bool,

    /// Persistent rasteriser executor, spawned lazily on the first draw
    /// that dispatches in parallel — or installed
    /// from outside via [`Gl::install_executor`] to share one set of host
    /// threads across many contexts. Deliberately survives
    /// [`Gl::recreate`]: context loss destroys GPU objects, not host
    /// threads.
    executor: Option<Executor>,
    /// Whether `executor` was installed from outside. Installed executors
    /// are pinned: a thread-count change must not retire a pool other
    /// contexts still share (dispatch clamps participation instead).
    executor_installed: bool,
    /// Compiled shaders by `(source, options)`, with the shader ids plans
    /// are keyed by. Survives context loss, like the program-binary cache
    /// of a GLES implementation.
    shader_memo: ShaderMemo,
    /// Per-context draw-plan cache (cleared on context loss/recreation).
    plan_cache: PlanCache,
    /// When the plan cache is disabled, the last draw's plan is parked
    /// here so the next build can recycle its allocations.
    scratch_plan: Option<DrawPlan>,
    /// Per-context tile-signature cache for redundancy elimination
    /// (`MGPU_TILE_SKIP=on`; flushed on context loss, an engine switch
    /// and when skipping turns off).
    tile_cache: TileSigCache,
}

impl Gl {
    /// Creates a context with a `width`×`height` double-buffered window
    /// surface, at the platform's default swap interval.
    ///
    /// # Panics
    ///
    /// Panics if any `MGPU_*` environment knob holds an invalid value
    /// (`MGPU_ENGINE=typo`, `MGPU_THREADS=0`, a malformed `MGPU_FAULTS`
    /// spec, …). Use [`Gl::try_new`] to surface that as a typed
    /// [`GlError::InvalidEnv`] instead.
    #[must_use]
    pub fn new(platform: Platform, width: u32, height: u32) -> Self {
        match Gl::try_new(platform, width, height) {
            Ok(gl) => gl,
            Err(e) => panic!("mgpu-gles: {e}"),
        }
    }

    /// [`Gl::new`], with environment-knob validation surfaced as a typed
    /// error: all `MGPU_*` knobs come from the once-per-process snapshot,
    /// and an invalid value (unknown engine name, zero/non-numeric thread
    /// count, malformed fault spec) is a [`GlError::InvalidEnv`] here
    /// instead of a silent fallback to defaults.
    ///
    /// # Errors
    ///
    /// Returns [`GlError::InvalidEnv`] when any `MGPU_*` knob fails to
    /// parse.
    pub fn try_new(platform: Platform, width: u32, height: u32) -> Result<Self, GlError> {
        let exec = ExecConfig::try_from_env()?;
        let env_faults = crate::exec::env_fault_plan()?;
        let surfaces = vec![Vec::new(); platform.framebuffer_surfaces.max(1) as usize];
        let swap_interval = platform.default_swap_interval;
        Ok(Gl {
            sim: PipelineSim::new(platform.clone()),
            platform,
            functional: true,
            exec,
            next_handle: 1,
            resource_counter: 1,
            textures: HashMap::new(),
            buffers: HashMap::new(),
            framebuffers: HashMap::new(),
            programs: HashMap::new(),
            texture_units: vec![None; 8],
            bound_framebuffer: None,
            current_program: None,
            swap_interval,
            surface_width: width,
            surface_height: height,
            surfaces,
            back_surface: 0,
            pending: None,
            pending_uploads: Vec::new(),
            pending_cpu_extra: SimTime::ZERO,
            cleared_targets: HashSet::new(),
            has_content: HashSet::new(),
            draw_counter: 0,
            last_timing: None,
            record_frames: false,
            recorded: Vec::new(),
            injector: env_faults.map(FaultInjector::new),
            context_lost: false,
            executor: None,
            executor_installed: false,
            shader_memo: ShaderMemo::default(),
            plan_cache: PlanCache::new(plan_cache_default()),
            scratch_plan: None,
            tile_cache: TileSigCache::new(),
        })
    }

    /// The simulated platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Enables or disables functional pixel execution. With it off, only
    /// the timing model runs — how the benchmark harness simulates the
    /// paper's 10 000-iteration protocol at full 1024×1024 size cheaply.
    ///
    /// A timing-only context keeps only lengths: uploads are priced by
    /// their byte counts and their texels dropped unread, and operators
    /// built on it upload placeholders instead of encoded data. Switch
    /// before building operators; an operator built timing-only refuses
    /// to run once the context is functional.
    pub fn set_functional(&mut self, functional: bool) {
        self.functional = functional;
    }

    /// Sets how the functional fragment engine executes on the host
    /// (thread count, engine tier, tile skipping). Thread count and
    /// engine are purely wall-clock knobs: outputs and simulated timing
    /// are identical for every setting. Tile skipping keeps outputs
    /// identical but legitimately changes simulated timing.
    ///
    /// Changing the thread count retires a privately created executor; a
    /// correctly sized one is spawned lazily by the next parallel draw
    /// (never here — timing-only contexts must not pay for threads they
    /// will not use). An executor installed via [`Gl::install_executor`]
    /// is pinned and survives: other contexts share its threads, and
    /// dispatch clamps participation to the seats that exist. Cached draw
    /// plans stay valid: they grow seats on demand.
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        if exec.threads() != self.exec.threads() && !self.executor_installed {
            self.executor = None;
        }
        // Cached tile signatures embed the engine identity; an engine
        // switch can never hit them again, and turning skipping off must
        // not pin stale tile bytes alive.
        if exec.engine() != self.exec.engine() || !exec.tile_skip() {
            self.tile_cache.flush();
        }
        self.exec = exec;
    }

    /// The current host-execution configuration.
    #[must_use]
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// The executor backing this context's parallel draws, spawning one
    /// sized for the current thread count if none exists yet. Clone the
    /// returned handle into [`Gl::install_executor`] on other contexts to
    /// multiplex a whole fleet of simulated devices over one set of host
    /// threads.
    pub fn executor(&mut self) -> Executor {
        let threads = self.exec.threads();
        self.executor
            .get_or_insert_with(|| Executor::new(threads.saturating_sub(1)))
            .clone()
    }

    /// Installs a shared executor: this context's parallel draws dispatch
    /// through `executor`'s workers instead of spawning a private pool.
    /// Installed executors are pinned — they survive thread-count changes
    /// in [`Gl::set_exec_config`] (participation is clamped to the
    /// executor's seats) and, like private pools, survive
    /// [`Gl::recreate`]. Purely a wall-clock knob: outputs and simulated
    /// timing are identical however draws are dispatched.
    pub fn install_executor(&mut self, executor: Executor) {
        self.executor = Some(executor);
        self.executor_installed = true;
    }

    /// Whether functional pixel execution is on.
    #[must_use]
    pub fn functional(&self) -> bool {
        self.functional
    }

    /// The window surface's `(width, height)`: the render-target size of
    /// every draw while no framebuffer object is bound.
    #[must_use]
    pub fn surface_size(&self) -> (u32, u32) {
        (self.surface_width, self.surface_height)
    }

    /// Enables or disables the per-context draw-plan cache (draw setup —
    /// program lowering, interpolation hoisting, engine state — is then
    /// redone every draw, recycling the previous plan's allocations).
    /// Disabling drops every cached plan. Purely a wall-clock knob.
    pub fn set_plan_cache_enabled(&mut self, enabled: bool) {
        self.plan_cache.set_enabled(enabled);
        if enabled {
            self.scratch_plan = None;
        }
    }

    /// Hit/miss/eviction counters of the draw-plan cache.
    #[must_use]
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Hit/miss/invalidation/replay counters of the tile-signature cache
    /// (`MGPU_TILE_SKIP`). All zero while skipping is off.
    #[must_use]
    pub fn tile_skip_stats(&self) -> TileSkipStats {
        self.tile_cache.stats()
    }

    // ---- fault injection & context lifecycle --------------------------

    /// Installs a fault plan on this context, replacing any previous one
    /// (its trail and counters restart from zero).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Removes the fault plan; subsequent calls behave fault-free.
    pub fn clear_faults(&mut self) {
        self.injector = None;
    }

    /// The installed fault injector, if any.
    #[must_use]
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Every fault injected on this context so far, in order (empty when
    /// no plan is installed). Survives [`Gl::recreate`].
    #[must_use]
    pub fn fault_trail(&self) -> &[FaultEvent] {
        self.injector.as_ref().map_or(&[], FaultInjector::trail)
    }

    /// Whether the context is currently lost (all calls fail with
    /// [`GlError::ContextLost`] until [`Gl::recreate`]).
    #[must_use]
    pub fn context_lost(&self) -> bool {
        self.context_lost
    }

    /// Recreates a lost context, as an application would via
    /// `eglCreateContext` + `eglMakeCurrent` after `EGL_CONTEXT_LOST`.
    ///
    /// Every GL object (textures, buffers, FBOs, programs) is gone and
    /// must be recreated by the application; the window surfaces are
    /// dropped (they read as zeros again when next used) and the swap
    /// interval reset to the platform default.
    /// The simulated timeline, the fault injector (trail and operation
    /// counters), the frame recorder and the compiled-shader memo carry
    /// over, and the recreation's CPU cost is charged to the next
    /// submitted frame. Safe to call on a live context (same semantics: a
    /// full teardown).
    pub fn recreate(&mut self) {
        self.textures.clear();
        self.buffers.clear();
        self.framebuffers.clear();
        self.programs.clear();
        self.texture_units = vec![None; 8];
        self.bound_framebuffer = None;
        self.current_program = None;
        self.swap_interval = self.platform.default_swap_interval;
        for s in &mut self.surfaces {
            *s = Vec::new();
        }
        self.back_surface = 0;
        self.pending = None;
        self.pending_uploads.clear();
        self.pending_cpu_extra = CONTEXT_RECREATE_COST;
        self.cleared_targets.clear();
        self.has_content.clear();
        self.context_lost = false;
        // Draw plans are per-context GL state and die with the
        // context. The worker pool and the shader memo, by contrast,
        // survive: recovery should not pay a thread-respawn or recompile
        // tax on top of object recreation.
        self.plan_cache.clear();
        self.scratch_plan = None;
        // Cached tile bytes likewise belong to dead objects; recovered
        // runs must re-shade (and re-sign) from scratch.
        self.tile_cache.flush();
    }

    /// Marks the context lost: pending (unsubmitted) work dies with it.
    fn lose_context(&mut self) {
        self.context_lost = true;
        self.pending = None;
        self.pending_uploads.clear();
        self.pending_cpu_extra = SimTime::ZERO;
        self.plan_cache.clear();
        self.scratch_plan = None;
        self.tile_cache.flush();
    }

    /// Fails with [`GlError::ContextLost`] while the context is lost.
    fn ensure_live(&self) -> Result<(), GlError> {
        if self.context_lost {
            Err(GlError::ContextLost)
        } else {
            Ok(())
        }
    }

    /// Bytes of one RGBA8 window surface.
    fn surface_len(&self) -> usize {
        self.surface_width as usize * self.surface_height as usize * 4
    }

    /// Window surface `s`, zero-filled on its first functional use (clear,
    /// rasterisation, copy-out, read-back or an injected corruption).
    fn surface_mut(&mut self, s: u32) -> &mut Vec<u8> {
        let len = self.surface_len();
        let surface = &mut self.surfaces[s as usize];
        if surface.is_empty() {
            surface.resize(len, 0);
        }
        surface
    }

    /// Counts one upload attempt and fails it with
    /// [`GlError::OutOfMemory`] if the plan says so. A no-op without an
    /// injector. Runs before any state mutation, so a failed upload
    /// leaves the context exactly as it was.
    fn inject_upload_fault(&mut self, what: &str) -> Result<(), GlError> {
        if let Some(inj) = self.injector.as_mut() {
            let i = inj.next_upload();
            if inj.oom_at(i) {
                inj.record(FaultKind::Oom, FaultSite::Upload, i);
                return Err(GlError::OutOfMemory(format!(
                    "{what} allocation failed (injected at upload #{i})"
                )));
            }
        }
        Ok(())
    }

    fn handle(&mut self) -> u32 {
        let h = self.next_handle;
        self.next_handle += 1;
        h
    }

    fn storage(&mut self) -> ResourceId {
        ResourceId::next(&mut self.resource_counter)
    }

    // ---- textures ----------------------------------------------------

    /// Creates a texture object (no storage yet), like `glGenTextures`.
    pub fn create_texture(&mut self) -> TextureId {
        let h = self.handle();
        let storage = self.storage();
        self.textures.insert(
            h,
            Texture {
                storage,
                width: 0,
                height: 0,
                format: TextureFormat::Rgba8,
                filter: TextureFilter::Nearest,
                data: Vec::new(),
                allocated: false,
                storage_fresh: false,
                version: 0,
                crc_memo: None,
            },
        );
        TextureId(h)
    }

    /// Deletes a texture object.
    ///
    /// # Errors
    ///
    /// [`GlError::UnknownObject`] if the handle is stale.
    pub fn delete_texture(&mut self, tex: TextureId) -> Result<(), GlError> {
        self.ensure_live()?;
        self.textures
            .remove(&tex.0)
            .map(|_| ())
            .ok_or_else(|| GlError::UnknownObject(tex.to_string()))?;
        for unit in &mut self.texture_units {
            if *unit == Some(tex) {
                *unit = None;
            }
        }
        Ok(())
    }

    /// `glTexImage2D`: (re)allocates texture storage and optionally fills
    /// it. Fresh storage lets the driver rename, so this never stalls on
    /// in-flight GPU work — at the price of the allocation cost the paper's
    /// texture-reuse optimisation removes.
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidValue`] when `data` has the wrong size;
    /// [`GlError::UnknownObject`] for stale handles.
    pub fn tex_image_2d(
        &mut self,
        tex: TextureId,
        width: u32,
        height: u32,
        format: TextureFormat,
        data: Option<&[u8]>,
    ) -> Result<(), GlError> {
        self.ensure_live()?;
        self.inject_upload_fault("texture storage")?;
        let expected = width as usize * height as usize * format.channels();
        if let Some(d) = data {
            if d.len() != expected {
                return Err(GlError::InvalidValue(format!(
                    "texture data is {} bytes, expected {expected}",
                    d.len()
                )));
            }
        }
        let storage = self.storage();
        let functional = self.functional;
        let t = self
            .textures
            .get_mut(&tex.0)
            .ok_or_else(|| GlError::UnknownObject(tex.to_string()))?;
        t.storage = storage;
        t.width = width;
        t.height = height;
        t.format = format;
        t.allocated = true;
        t.storage_fresh = true;
        t.data = if functional {
            data.map_or_else(|| vec![0u8; expected], <[u8]>::to_vec)
        } else {
            Vec::new()
        };
        t.touch();
        self.pending_uploads.push(Upload {
            resource: storage,
            alloc_bytes: expected as u64,
            copy_bytes: data.map_or(0, |d| d.len() as u64),
            alloc: AllocKind::Fresh,
        });
        Ok(())
    }

    /// `glTexSubImage2D` over the full image: rewrites existing storage in
    /// place. No allocation cost, but the CPU may stall until the deferred
    /// GPU is done with the storage (the paper's Fig. 5a trade-off).
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidOperation`] when the texture has no storage;
    /// [`GlError::InvalidValue`] on size mismatch.
    pub fn tex_sub_image_2d(&mut self, tex: TextureId, data: &[u8]) -> Result<(), GlError> {
        self.ensure_live()?;
        self.inject_upload_fault("texture upload staging")?;
        let functional = self.functional;
        let t = self
            .textures
            .get_mut(&tex.0)
            .ok_or_else(|| GlError::UnknownObject(tex.to_string()))?;
        if !t.allocated {
            return Err(GlError::InvalidOperation(format!(
                "{tex} has no storage; call tex_image_2d first"
            )));
        }
        let expected = t.width as usize * t.height as usize * t.format.channels();
        if data.len() != expected {
            return Err(GlError::InvalidValue(format!(
                "texture data is {} bytes, expected {expected}",
                data.len()
            )));
        }
        if functional {
            t.data.clear();
            t.data.extend_from_slice(data);
        }
        t.touch();
        self.pending_uploads
            .push(Upload::reuse(t.storage, data.len() as u64));
        Ok(())
    }

    /// Binds a texture to a texture unit (`glActiveTexture` +
    /// `glBindTexture` combined).
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidValue`] for out-of-range units,
    /// [`GlError::UnknownObject`] for stale handles.
    pub fn bind_texture(&mut self, unit: u32, tex: Option<TextureId>) -> Result<(), GlError> {
        self.ensure_live()?;
        let slot = self
            .texture_units
            .get_mut(unit as usize)
            .ok_or_else(|| GlError::InvalidValue(format!("texture unit {unit} out of range")))?;
        if let Some(t) = tex {
            if !self.textures.contains_key(&t.0) {
                return Err(GlError::UnknownObject(t.to_string()));
            }
        }
        *slot = tex;
        Ok(())
    }

    /// `glTexParameteri(GL_TEXTURE_MIN/MAG_FILTER)`: sets the sampling
    /// filter used when this texture is fetched by a kernel.
    ///
    /// # Errors
    ///
    /// [`GlError::UnknownObject`] for stale handles.
    pub fn tex_parameter_filter(
        &mut self,
        tex: TextureId,
        filter: TextureFilter,
    ) -> Result<(), GlError> {
        self.ensure_live()?;
        self.textures
            .get_mut(&tex.0)
            .map(|t| t.filter = filter)
            .ok_or_else(|| GlError::UnknownObject(tex.to_string()))
    }

    /// Host-side accessor for a texture's current bytes (a debug/test
    /// convenience; real GLES has no texture readback, which is why the
    /// paper's pipeline reads results via the framebuffer).
    ///
    /// # Errors
    ///
    /// [`GlError::UnknownObject`] for stale handles.
    pub fn texture_data(&self, tex: TextureId) -> Result<&[u8], GlError> {
        self.ensure_live()?;
        self.textures
            .get(&tex.0)
            .map(|t| t.data.as_slice())
            .ok_or_else(|| GlError::UnknownObject(tex.to_string()))
    }

    /// A texture's (width, height, format), if allocated.
    ///
    /// # Errors
    ///
    /// [`GlError::UnknownObject`] for stale handles.
    pub fn texture_info(&self, tex: TextureId) -> Result<(u32, u32, TextureFormat), GlError> {
        self.ensure_live()?;
        self.textures
            .get(&tex.0)
            .map(|t| (t.width, t.height, t.format))
            .ok_or_else(|| GlError::UnknownObject(tex.to_string()))
    }

    // ---- buffers -------------------------------------------------------

    /// Creates a buffer object (VBO).
    pub fn create_buffer(&mut self) -> BufferId {
        let h = self.handle();
        self.buffers.insert(
            h,
            Buffer {
                usage: BufferUsage::default(),
                size: 0,
                allocated: false,
            },
        );
        BufferId(h)
    }

    /// `glBufferData`: allocates buffer storage with a usage hint and
    /// uploads `size` bytes.
    ///
    /// # Errors
    ///
    /// [`GlError::UnknownObject`] for stale handles.
    pub fn buffer_data(
        &mut self,
        buf: BufferId,
        size: u64,
        usage: BufferUsage,
    ) -> Result<(), GlError> {
        self.ensure_live()?;
        self.inject_upload_fault("buffer storage")?;
        let storage = self.storage();
        let b = self
            .buffers
            .get_mut(&buf.0)
            .ok_or_else(|| GlError::UnknownObject(buf.to_string()))?;
        b.usage = usage;
        b.size = size;
        b.allocated = true;
        self.pending_uploads.push(Upload {
            resource: storage,
            alloc_bytes: size,
            copy_bytes: size,
            alloc: AllocKind::Fresh,
        });
        Ok(())
    }

    // ---- framebuffer objects -------------------------------------------

    /// Creates a framebuffer object.
    pub fn create_framebuffer(&mut self) -> FramebufferId {
        let h = self.handle();
        self.framebuffers.insert(h, Framebuffer::default());
        FramebufferId(h)
    }

    /// Binds a framebuffer object (`None` = the window surface).
    ///
    /// # Errors
    ///
    /// [`GlError::UnknownObject`] for stale handles.
    pub fn bind_framebuffer(&mut self, fbo: Option<FramebufferId>) -> Result<(), GlError> {
        self.ensure_live()?;
        if let Some(f) = fbo {
            if !self.framebuffers.contains_key(&f.0) {
                return Err(GlError::UnknownObject(f.to_string()));
            }
        }
        self.bound_framebuffer = fbo;
        Ok(())
    }

    /// `glFramebufferTexture2D`: attaches a texture as the colour target of
    /// the bound FBO — the render-to-texture path (step 5 of the paper's
    /// Fig. 1).
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidOperation`] when no FBO is bound or the texture has
    /// no storage.
    pub fn framebuffer_texture_2d(&mut self, tex: TextureId) -> Result<(), GlError> {
        self.ensure_live()?;
        let t = self
            .textures
            .get(&tex.0)
            .ok_or_else(|| GlError::UnknownObject(tex.to_string()))?;
        if !t.allocated {
            return Err(GlError::InvalidOperation(format!(
                "{tex} has no storage; allocate before attaching"
            )));
        }
        let fbo = self
            .bound_framebuffer
            .ok_or_else(|| GlError::InvalidOperation("no framebuffer object bound".to_owned()))?;
        self.framebuffers
            .get_mut(&fbo.0)
            .ok_or_else(|| GlError::Internal(format!("bound {fbo} missing from FBO table")))?
            .color = Some(tex);
        Ok(())
    }

    // ---- programs --------------------------------------------------------

    /// Compiles and links a fragment kernel against the platform's shader
    /// limits (the vertex stage is the fixed passthrough GPGPU quad
    /// pipeline).
    ///
    /// # Errors
    ///
    /// [`GlError::CompileFailed`] carrying the driver-style info log; check
    /// [`GlError::is_shader_limit`] for resource-limit rejections.
    pub fn create_program(&mut self, fragment_source: &str) -> Result<ProgramId, GlError> {
        self.create_program_with(fragment_source, &OptOptions::full())
    }

    /// Like [`Gl::create_program`] with explicit optimiser settings, for
    /// the kernel-code ablations.
    ///
    /// # Errors
    ///
    /// See [`Gl::create_program`].
    pub fn create_program_with(
        &mut self,
        fragment_source: &str,
        opt: &OptOptions,
    ) -> Result<ProgramId, GlError> {
        self.ensure_live()?;
        if let Some(inj) = self.injector.as_mut() {
            let i = inj.next_compile();
            if inj.compile_fail_at(i) {
                inj.record(FaultKind::CompileFail, FaultSite::Compile, i);
                return Err(GlError::OutOfMemory(format!(
                    "shader compiler scratch allocation failed \
                     (injected transient failure at compile #{i})"
                )));
            }
        }
        let sl = &self.platform.shader_limits;
        let options = CompileOptions {
            opt: *opt,
            limits: Limits {
                max_instructions: sl.max_instructions,
                max_texture_fetches: sl.max_texture_fetches,
                max_uniform_vectors: sl.max_uniform_vectors,
                max_varying_vectors: sl.max_varying_vectors,
            },
        };
        // Looked up only after the fault hook above, so an injected
        // compile failure fires on the same call whether or not the memo
        // already holds this source.
        let compiled = self.shader_memo.compile(fragment_source, &options)?;
        let h = self.handle();
        self.programs.insert(
            h,
            Program {
                shader: compiled.shader,
                cost: compiled.cost,
                shader_id: compiled.id,
                uniforms: UniformValues::new(),
                unit_bindings: HashMap::new(),
            },
        );
        Ok(ProgramId(h))
    }

    /// Selects the program used by subsequent draws.
    ///
    /// # Errors
    ///
    /// [`GlError::UnknownObject`] for stale handles.
    pub fn use_program(&mut self, prog: Option<ProgramId>) -> Result<(), GlError> {
        self.ensure_live()?;
        if let Some(p) = prog {
            if !self.programs.contains_key(&p.0) {
                return Err(GlError::UnknownObject(p.to_string()));
            }
        }
        self.current_program = prog;
        Ok(())
    }

    /// Sets a scalar float uniform.
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidValue`] when the program declares no such uniform.
    pub fn set_uniform_scalar(
        &mut self,
        prog: ProgramId,
        name: &str,
        value: f32,
    ) -> Result<(), GlError> {
        self.set_uniform_vec(prog, name, [value, 0.0, 0.0, 0.0])
    }

    /// Sets a (possibly vector) uniform; extra components are ignored.
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidValue`] when the program declares no such uniform.
    pub fn set_uniform_vec(
        &mut self,
        prog: ProgramId,
        name: &str,
        value: [f32; 4],
    ) -> Result<(), GlError> {
        self.ensure_live()?;
        let p = self
            .programs
            .get_mut(&prog.0)
            .ok_or_else(|| GlError::UnknownObject(prog.to_string()))?;
        if !p.shader.uniform_slots().any(|s| s.name == name) {
            return Err(GlError::InvalidValue(format!(
                "program declares no uniform `{name}`"
            )));
        }
        p.uniforms.set(name, value);
        Ok(())
    }

    /// Binds a sampler uniform to a GL texture unit (`glUniform1i`).
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidValue`] when the program declares no such sampler.
    pub fn set_sampler(&mut self, prog: ProgramId, name: &str, unit: u32) -> Result<(), GlError> {
        self.ensure_live()?;
        let p = self
            .programs
            .get_mut(&prog.0)
            .ok_or_else(|| GlError::UnknownObject(prog.to_string()))?;
        let shader_unit = p.shader.sampler_unit(name).ok_or_else(|| {
            GlError::InvalidValue(format!("program declares no sampler `{name}`"))
        })?;
        p.unit_bindings.insert(shader_unit, unit);
        Ok(())
    }

    // ---- target helpers --------------------------------------------------

    fn current_target(&self) -> Result<(TargetKey, u32, u32, TextureFormat), GlError> {
        match self.bound_framebuffer {
            None => Ok((
                TargetKey::Surface(self.back_surface),
                self.surface_width,
                self.surface_height,
                TextureFormat::Rgba8,
            )),
            Some(fbo) => {
                let f = self
                    .framebuffers
                    .get(&fbo.0)
                    .ok_or_else(|| GlError::UnknownObject(fbo.to_string()))?;
                let tex = f.color.ok_or_else(|| {
                    GlError::InvalidFramebufferOperation(
                        "framebuffer has no colour attachment".to_owned(),
                    )
                })?;
                let t = self
                    .textures
                    .get(&tex.0)
                    .ok_or_else(|| GlError::UnknownObject(tex.to_string()))?;
                Ok((TargetKey::Storage(t.storage), t.width, t.height, t.format))
            }
        }
    }

    fn attachment_texture(&self) -> Option<TextureId> {
        self.bound_framebuffer
            .and_then(|fbo| self.framebuffers.get(&fbo.0))
            .and_then(|f| f.color)
    }

    // ---- rendering ---------------------------------------------------------

    /// `glClear`: fills the current target and — crucially on a TBDR GPU —
    /// invalidates its previous contents so the next draw skips the
    /// expensive tile reload (step 6 of Fig. 1).
    ///
    /// # Errors
    ///
    /// Propagates target-resolution errors.
    pub fn clear(&mut self, rgba: [f32; 4]) -> Result<(), GlError> {
        self.ensure_live()?;
        let (key, _, _, format) = self.current_target()?;
        self.cleared_targets.insert(key);
        if self.functional {
            let px = quantize_rgba8(rgba);
            match key {
                TargetKey::Surface(s) => {
                    for chunk in self.surface_mut(s).chunks_exact_mut(4) {
                        chunk.copy_from_slice(&px);
                    }
                }
                TargetKey::Storage(_) => {
                    if let Some(t) = self
                        .attachment_texture()
                        .and_then(|tex| self.textures.get_mut(&tex.0))
                    {
                        let ch = format.channels();
                        for chunk in t.data.chunks_exact_mut(ch) {
                            chunk.copy_from_slice(&px[..ch]);
                        }
                        t.touch();
                    }
                }
            }
        }
        Ok(())
    }

    /// `EXT_discard_framebuffer`: invalidates the current target's contents
    /// without touching pixels — same tile-reload saving as [`Gl::clear`]
    /// at zero fill cost.
    ///
    /// # Errors
    ///
    /// Propagates target-resolution errors.
    pub fn discard_framebuffer(&mut self) -> Result<(), GlError> {
        self.ensure_live()?;
        let (key, _, _, _) = self.current_target()?;
        self.cleared_targets.insert(key);
        Ok(())
    }

    /// Draws a quad covering the current render target with the current
    /// program — one GPGPU kernel invocation.
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidOperation`] when no program is in use, a sampled
    /// texture is missing, or a sampled texture is also the render target
    /// (the OpenGL ES 2 feedback-loop rule that forces the paper's
    /// double-buffered intermediate textures).
    pub fn draw_quad(&mut self, quad: &DrawQuad) -> Result<(), GlError> {
        self.ensure_live()?;

        // Fault injection: a context loss scheduled for this draw kills the
        // context before any work is queued — the pending frame dies with it.
        let mut draw_idx = 0u64;
        if let Some(inj) = self.injector.as_mut() {
            draw_idx = inj.next_draw();
            if inj.ctx_loss_at(draw_idx) {
                inj.record(FaultKind::ContextLoss, FaultSite::Draw, draw_idx);
                self.lose_context();
                return Err(GlError::ContextLost);
            }
        }

        // Close the previous kernel's frame.
        self.flush_pending(SyncOp::None);

        let prog_id = self
            .current_program
            .ok_or_else(|| GlError::InvalidOperation("no program in use".to_owned()))?;
        let (target_key, width, height, target_format) = self.current_target()?;

        // Resolve the row band (full target when none was requested).
        let (y0, y1) = quad.row_band().unwrap_or((0, height));
        if y0 >= y1 || y1 > height {
            return Err(GlError::InvalidValue(format!(
                "row band {y0}..{y1} invalid for render target height {height}"
            )));
        }
        let band_h = y1 - y0;

        let program = self
            .programs
            .get(&prog_id.0)
            .ok_or_else(|| GlError::UnknownObject(prog_id.to_string()))?;

        // Resolve sampler units to textures.
        let mut sampled: Vec<(u8, TextureId)> = Vec::new();
        for slot in &program.shader.samplers {
            let gl_unit = program
                .unit_bindings
                .get(&slot.unit)
                .copied()
                .unwrap_or(u32::from(slot.unit));
            let tex = self
                .texture_units
                .get(gl_unit as usize)
                .copied()
                .flatten()
                .ok_or_else(|| {
                    GlError::InvalidOperation(format!(
                        "sampler `{}` reads texture unit {gl_unit}, which has no texture bound",
                        slot.name
                    ))
                })?;
            let t = self
                .textures
                .get(&tex.0)
                .ok_or_else(|| GlError::UnknownObject(tex.to_string()))?;
            if !t.allocated {
                return Err(GlError::InvalidOperation(format!(
                    "sampler `{}` reads {tex}, which has no storage",
                    slot.name
                )));
            }
            if TargetKey::Storage(t.storage) == target_key {
                return Err(GlError::InvalidOperation(format!(
                    "{tex} is bound both as render target and for sampling \
                     (feedback loop; OpenGL ES 2 leaves the result undefined)"
                )));
            }
            sampled.push((slot.unit, tex));
        }

        // Build the fragment cost profile from the kernel and the formats
        // of the textures it actually samples.
        let kernel_cost = &program.cost;
        let mut profile = FragmentProfile {
            alu_cycles: kernel_cost.alu_cycles,
            output_bytes: target_format.bytes_per_texel() as f64,
            ..FragmentProfile::default()
        };
        for fetch in &kernel_cost.fetches {
            let bytes = sampled
                .iter()
                .find(|(unit, _)| *unit == fetch.sampler)
                .map(|(_, tex)| self.textures[&tex.0].format.bytes_per_texel() as f64)
                .unwrap_or(4.0);
            if fetch.dependent {
                profile.dependent_fetches += 1.0;
                profile.dependent_fetch_bytes += bytes;
            } else {
                profile.streaming_fetches += 1.0;
                profile.streaming_fetch_bytes += bytes;
            }
        }

        // Vertex-source driver costs (the paper's VBO optimisation point),
        // validated and priced before any pending state is consumed so a
        // rejected draw can be retried with its queued uploads intact.
        let varying_count = program.shader.varying_slots().count() as u64;
        let vertex_cpu = match quad.vertex_source {
            VertexSource::ClientArrays => {
                // The driver copies client vertex data into its ring buffer
                // on every draw: pure CPU time, no fresh allocation.
                let bytes = 4 * (8 + varying_count * 8);
                CLIENT_ARRAY_BASE + self.platform.cpu_copy_bandwidth.time_for(bytes)
            }
            VertexSource::Vbo(buf) => {
                let b = self
                    .buffers
                    .get(&buf.0)
                    .ok_or_else(|| GlError::UnknownObject(buf.to_string()))?;
                if !b.allocated {
                    return Err(GlError::InvalidOperation(format!(
                        "{buf} has no storage; call buffer_data first"
                    )));
                }
                match b.usage {
                    BufferUsage::StaticDraw => SimTime::ZERO,
                    BufferUsage::StreamDraw => VBO_STREAM_COST,
                    BufferUsage::DynamicDraw => VBO_DYNAMIC_COST,
                }
            }
        };

        // Watchdog: estimate the draw's GPU occupancy in isolation and
        // reject it before execution when it exceeds the budget. The peek
        // at clear/freshness state must not mutate it — the caller may
        // legally retry the same draw split into row bands.
        if let Some(budget) = self
            .injector
            .as_ref()
            .and_then(FaultInjector::watchdog_budget)
        {
            let cleared_peek = self.cleared_targets.contains(&target_key)
                || !self.has_content.contains(&target_key);
            let probe_target = match target_key {
                TargetKey::Surface(s) => RenderTarget::Framebuffer { surface: s },
                TargetKey::Storage(storage) => {
                    let fresh = self
                        .attachment_texture()
                        .and_then(|tex| self.textures.get(&tex.0))
                        .is_some_and(|t| t.storage_fresh);
                    RenderTarget::Texture { storage, fresh }
                }
            };
            let probe = FrameWork {
                label: String::new(),
                uploads: Vec::new(),
                cpu_extra: SimTime::ZERO,
                vertex: VertexWork { vertices: 4 },
                fragment: FragmentWork {
                    fragments: u64::from(width) * u64::from(band_h),
                    width,
                    height: band_h,
                    profile,
                    cleared: cleared_peek,
                    // The watchdog prices the draw as if fully shaded:
                    // kill decisions must not depend on cache warmth, or
                    // skip-on and skip-off runs would fault differently.
                    skip: SkipWork::default(),
                },
                target: probe_target,
                reads: Vec::new(),
                copy_out: None,
                sync: SyncOp::None,
            };
            let estimated = self.sim.draw_cost(&probe);
            if estimated > budget {
                if let Some(inj) = self.injector.as_mut() {
                    inj.record(FaultKind::Watchdog, FaultSite::Draw, draw_idx);
                }
                return Err(GlError::WatchdogTimeout { estimated, budget });
            }
        }

        // Functional rasterisation of the selected band. When tile
        // skipping is on, the rasteriser reports which tiles it replayed
        // from signature-matched cache entries; the timing model then
        // charges those tiles signature-comparison traffic instead of
        // shading. Timing-only contexts never shade, so they never skip.
        let skip = if self.functional {
            self.rasterize(
                prog_id,
                quad,
                target_key,
                width,
                height,
                target_format,
                y0,
                y1,
            )?
        } else {
            SkipWork::default()
        };

        // Fault injection: flip seeded bits in the freshly written target —
        // a model of transient memory corruption. Functional contents only;
        // the timing model is unaffected. A surface is sized from its
        // dimensions, allocated or not, so timing-only contexts draw the
        // same corruption as functional ones.
        let target_len = match target_key {
            TargetKey::Surface(_) => self.surface_len(),
            TargetKey::Storage(_) => self
                .attachment_texture()
                .and_then(|tex| self.textures.get(&tex.0))
                .map_or(0, |t| t.data.len()),
        };
        if target_len > 0 {
            let flips = self
                .injector
                .as_mut()
                .and_then(|inj| inj.corruption_at(draw_idx, target_len));
            if let Some(flips) = flips {
                if let Some(inj) = self.injector.as_mut() {
                    inj.record(FaultKind::Corruption, FaultSite::Draw, draw_idx);
                }
                let data: &mut [u8] = match target_key {
                    TargetKey::Surface(s) => self.surface_mut(s),
                    TargetKey::Storage(_) => match self
                        .attachment_texture()
                        .and_then(|tex| self.textures.get_mut(&tex.0))
                    {
                        Some(t) => &mut t.data,
                        None => &mut [],
                    },
                };
                for (offset, mask) in flips {
                    if let Some(byte) = data.get_mut(offset) {
                        *byte ^= mask;
                    }
                }
                // Corrupted texture contents must never serve a stale
                // tile signature: bump the content version.
                if let TargetKey::Storage(_) = target_key {
                    if let Some(t) = self
                        .attachment_texture()
                        .and_then(|tex| self.textures.get_mut(&tex.0))
                    {
                        t.touch();
                    }
                }
            }
        }

        // The draw is committed: consume pending CPU work and uploads.
        let mut cpu_extra = std::mem::take(&mut self.pending_cpu_extra);
        let uploads = std::mem::take(&mut self.pending_uploads);
        cpu_extra += vertex_cpu;

        // Record content/clear state.
        let cleared =
            self.cleared_targets.remove(&target_key) || !self.has_content.contains(&target_key);
        self.has_content.insert(target_key);

        let (target, reads) = {
            let target = match target_key {
                TargetKey::Surface(s) => RenderTarget::Framebuffer { surface: s },
                TargetKey::Storage(storage) => {
                    let tex = self.attachment_texture().ok_or_else(|| {
                        GlError::Internal("storage target lost its attachment".to_owned())
                    })?;
                    let t = self.textures.get_mut(&tex.0).ok_or_else(|| {
                        GlError::Internal(format!("attachment {tex} missing from texture table"))
                    })?;
                    let fresh = t.storage_fresh;
                    t.storage_fresh = false;
                    RenderTarget::Texture { storage, fresh }
                }
            };
            let reads = sampled
                .iter()
                .map(|(_, tex)| self.textures[&tex.0].storage)
                .collect();
            (target, reads)
        };

        self.draw_counter += 1;
        let mut label = if quad.label.is_empty() {
            format!("draw#{}", self.draw_counter)
        } else {
            quad.label.clone()
        };
        if band_h != height {
            label = format!("{label}[rows {y0}..{y1}]");
        }
        self.pending = Some(FrameWork {
            label,
            uploads,
            cpu_extra,
            vertex: VertexWork { vertices: 4 },
            fragment: FragmentWork {
                fragments: u64::from(width) * u64::from(band_h),
                width,
                height: band_h,
                profile,
                cleared,
                skip,
            },
            target,
            reads,
            copy_out: None,
            sync: SyncOp::None,
        });
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn rasterize(
        &mut self,
        prog_id: ProgramId,
        quad: &DrawQuad,
        target_key: TargetKey,
        width: u32,
        height: u32,
        target_format: TextureFormat,
        y0: u32,
        y1: u32,
    ) -> Result<SkipWork, GlError> {
        // A surface target is shaded in place: allocate it first.
        if let TargetKey::Surface(s) = target_key {
            self.surface_mut(s);
        }
        let program = self
            .programs
            .get(&prog_id.0)
            .ok_or_else(|| GlError::UnknownObject(prog_id.to_string()))?;
        // Corner sets per varying slot.
        let mut corners = Vec::new();
        for slot in program.shader.varying_slots() {
            let c = quad
                .overrides
                .iter()
                .find(|(n, _)| n == &slot.name)
                .map(|(_, c)| *c)
                .unwrap_or_else(texcoord_corners);
            corners.push(c);
        }
        for (name, _) in &quad.overrides {
            if !program.shader.varying_slots().any(|s| &s.name == name) {
                return Err(GlError::InvalidValue(format!(
                    "program declares no varying `{name}`"
                )));
            }
        }

        // Resolve sampler textures up front (validation happened in
        // `draw_quad`; a miss here is a driver bug surfaced as a typed
        // error) so every early return below happens before the target's
        // data is taken out of the texture table.
        let mut sampler_texs: Vec<TextureId> = Vec::with_capacity(program.shader.samplers.len());
        for slot in &program.shader.samplers {
            let gl_unit = program
                .unit_bindings
                .get(&slot.unit)
                .copied()
                .unwrap_or(u32::from(slot.unit));
            let tex = self
                .texture_units
                .get(gl_unit as usize)
                .copied()
                .flatten()
                .ok_or_else(|| {
                    GlError::Internal(format!("texture unit {gl_unit} unbound after validation"))
                })?;
            if !self.textures.contains_key(&tex.0) {
                return Err(GlError::Internal(format!(
                    "{tex} vanished between validation and rasterisation"
                )));
            }
            sampler_texs.push(tex);
        }

        // Tile-redundancy elimination (`MGPU_TILE_SKIP=on`): classify the
        // kernel's fetches and pre-compute the memoised whole-texture
        // digests while the texture table is still mutably reachable.
        // Streaming-only kernels get exact per-tile sampling footprints
        // later; any dependent fetch makes the footprint unresolvable and
        // the tile signatures fall back to these whole-texture digests.
        let skip_on = self.exec.tile_skip();
        let mut streaming_only = false;
        let mut whole_crcs: Vec<u64> = Vec::new();
        if skip_on {
            streaming_only = !program.cost.fetches.iter().any(|f| f.dependent);
            for tex in &sampler_texs {
                let t = self.textures.get_mut(&tex.0).ok_or_else(|| {
                    GlError::Internal(format!("{tex} vanished during rasterisation"))
                })?;
                whole_crcs.push(t.content_crc());
            }
        }

        // Pull the target texture out so sampler views can borrow the rest.
        let mut taken: Option<(TextureId, Vec<u8>)> = None;
        if let TargetKey::Storage(_) = target_key {
            let tex = self.attachment_texture().ok_or_else(|| {
                GlError::Internal("storage target lost its attachment".to_owned())
            })?;
            let slot = self.textures.get_mut(&tex.0).ok_or_else(|| {
                GlError::Internal(format!("attachment {tex} missing from texture table"))
            })?;
            let data = std::mem::take(&mut slot.data);
            taken = Some((tex, data));
        }

        let ch = target_format.channels();
        let exec = self.exec;
        let key = PlanKey {
            shader: program.shader_id,
            uniform_hash: program.uniforms.stable_hash(),
            engine: exec.engine(),
            width,
            height,
            channels: ch,
            corners_hash: corners_hash(&corners),
        };
        let outcome: Result<SkipWork, GlError> = {
            let textures = &self.textures;
            let surfaces = &mut self.surfaces;
            let pool = &mut self.executor;
            let plan_cache = &mut self.plan_cache;
            let scratch_plan = &mut self.scratch_plan;
            let tile_cache = &mut self.tile_cache;
            let platform = &self.platform;
            let taken = &mut taken;
            // No `?` inside this closure escapes past the restore below:
            // a failed draw must leave the context valid and report a
            // `GlError`, never unwind or drop texture contents.
            (|| {
                let mut views: Vec<TexView<'_>> = Vec::with_capacity(sampler_texs.len());
                for tex in &sampler_texs {
                    let t = textures.get(&tex.0).ok_or_else(|| {
                        GlError::Internal(format!("{tex} vanished during rasterisation"))
                    })?;
                    views.push(TexView {
                        data: &t.data,
                        width: t.width,
                        height: t.height,
                        channels: t.format.channels(),
                        filter: t.filter,
                    });
                }
                let sampler_refs: Vec<&dyn Sampler> =
                    views.iter().map(|v| v as &dyn Sampler).collect();

                let out: &mut [u8] = match (&target_key, taken) {
                    (TargetKey::Surface(s), _) => &mut surfaces[*s as usize],
                    (TargetKey::Storage(_), Some((_, data))) => data.as_mut_slice(),
                    (TargetKey::Storage(_), None) => {
                        return Err(GlError::Internal(
                            "storage target data was not staged for rasterisation".to_owned(),
                        ));
                    }
                };

                // 1. Plan lookup: the cached plan, or a fresh build that
                // recycles the parked plan's allocations (populated only
                // while the cache is disabled, so recycling never
                // cannibalises a cached plan). Sampler views are always
                // fresh — texture contents are never part of a plan.
                let mut plan = match plan_cache.take(&key) {
                    Some(plan) => plan,
                    None => run_kernel(|| {
                        DrawPlan::build(
                            &program.shader,
                            &program.uniforms,
                            exec.engine(),
                            &corners,
                            width,
                            scratch_plan.take(),
                        )
                    })?,
                };

                // 2. Tile-skip partition: hits replay cached bytes
                // (byte-identical by construction); misses shade below.
                let mut skip = SkipWork::default();
                let mut misses: Vec<(TileRect, (u64, u64))> = Vec::new();
                if skip_on {
                    for r in platform.tile_rects_in_band(width, height, y0, y1) {
                        let texes = tile_texture_sigs(
                            &plan,
                            &r,
                            height,
                            streaming_only,
                            &views,
                            &whole_crcs,
                        );
                        let col = plan.column_slice_hash(r.x0, r.x1);
                        let sig = tile_signature(col, height, &r, &texes);
                        match tile_cache.lookup(&TileKey::new(prog_id.0, key, &r), sig) {
                            Some(bytes) => {
                                blit_tile(bytes, &r, width, ch, out);
                                skip.skipped_fragments += r.pixels();
                                skip.skipped_tiles += 1;
                                skip.signature_bytes += SIG_DESCRIPTOR_BYTES
                                    + plan.slot_count() as u64
                                        * u64::from(r.width())
                                        * SIG_BYTES_PER_SLOT_COLUMN;
                            }
                            None => misses.push((r, sig)),
                        }
                    }
                }

                // 3. Shade: the full band at full dispatch parallelism
                // when nothing replayed, otherwise only the missed tiles,
                // on seat 0 tile by tile. Rect draws are byte-identical to
                // full draws on every engine tier.
                run_kernel(|| {
                    if skip.skipped_tiles == 0 {
                        let target = RasterTarget {
                            width,
                            height,
                            channels: ch,
                            data: &mut *out,
                        };
                        return execute_plan(
                            &mut plan,
                            &sampler_refs,
                            target,
                            y0,
                            y1,
                            exec.threads(),
                            pool,
                        );
                    }
                    for (r, _) in &misses {
                        let mut bytes = vec![0u8; r.pixels() as usize * ch];
                        execute_plan_rect(
                            &mut plan,
                            &sampler_refs,
                            height,
                            r.x0,
                            r.x1,
                            r.y0,
                            r.y1,
                            ch,
                            &mut bytes,
                        )?;
                        blit_tile(&bytes, r, width, ch, out);
                    }
                    Ok(())
                })?;

                // 4. Harvest every shaded tile's bytes under its signature
                // for the next pass. Plans are retained only after a fully
                // successful draw; failed or panicked draws drop theirs.
                for (r, sig) in misses {
                    tile_cache.insert(
                        TileKey::new(prog_id.0, key, &r),
                        sig,
                        extract_tile(out, &r, width, ch),
                    );
                }
                if plan_cache.enabled() {
                    plan_cache.insert(key, plan);
                } else {
                    *scratch_plan = Some(plan);
                }
                Ok(skip)
            })()
        };

        if let Some((tex, data)) = taken {
            if let Some(slot) = self.textures.get_mut(&tex.0) {
                slot.data = data;
                // The draw (or a failed draw's partial writes) rendered
                // into this texture: its content version moves on.
                slot.touch();
            }
        }
        outcome
    }

    // ---- copies -----------------------------------------------------------

    /// `glCopyTexImage2D`: copies the current render target into `dst`,
    /// allocating fresh storage (renameable — no false sharing, but pays
    /// allocation every call).
    ///
    /// # Errors
    ///
    /// Propagates target-resolution errors and stale handles.
    pub fn copy_tex_image_2d(
        &mut self,
        dst: TextureId,
        format: TextureFormat,
    ) -> Result<(), GlError> {
        self.copy_to_texture(dst, Some(format))
    }

    /// `glCopyTexSubImage2D`: copies the current render target into `dst`'s
    /// *existing* storage — no allocation, but the copy serialises against
    /// every in-flight use of that storage (the paper's Fig. 5b false
    /// sharing).
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidOperation`] when `dst` has no storage or its size
    /// differs from the render target.
    pub fn copy_tex_sub_image_2d(&mut self, dst: TextureId) -> Result<(), GlError> {
        self.copy_to_texture(dst, None)
    }

    fn copy_to_texture(
        &mut self,
        dst: TextureId,
        fresh_format: Option<TextureFormat>,
    ) -> Result<(), GlError> {
        self.ensure_live()?;
        if fresh_format.is_some() {
            self.inject_upload_fault("copy destination storage")?;
        }
        let (target_key, width, height, _) = self.current_target()?;
        let attachment = |gl: &Self| {
            gl.attachment_texture()
                .ok_or_else(|| GlError::Internal("storage target lost its attachment".to_owned()))
        };

        // Functional copy of pixels.
        let src_pixels: Option<Vec<u8>> = if self.functional {
            Some(match target_key {
                TargetKey::Surface(s) => self.surface_mut(s).clone(),
                TargetKey::Storage(_) => {
                    let tex = attachment(self)?;
                    self.textures[&tex.0].data.clone()
                }
            })
        } else {
            None
        };
        let src_format = match target_key {
            TargetKey::Surface(_) => TextureFormat::Rgba8,
            TargetKey::Storage(_) => {
                let tex = attachment(self)?;
                self.textures[&tex.0].format
            }
        };

        let (storage, alloc, bytes) = {
            let functional = self.functional;
            let new_storage = fresh_format.map(|_| self.storage());
            let t = self
                .textures
                .get_mut(&dst.0)
                .ok_or_else(|| GlError::UnknownObject(dst.to_string()))?;
            match (fresh_format, new_storage) {
                (Some(format), Some(storage)) => {
                    t.storage = storage;
                    t.width = width;
                    t.height = height;
                    t.format = format;
                    t.allocated = true;
                    t.storage_fresh = true;
                }
                (Some(_), None) => {
                    return Err(GlError::Internal(
                        "fresh storage was not allocated for copy destination".to_owned(),
                    ));
                }
                (None, _) => {
                    if !t.allocated {
                        return Err(GlError::InvalidOperation(format!(
                            "{dst} has no storage; copy_tex_image_2d first"
                        )));
                    }
                    if (t.width, t.height) != (width, height) {
                        return Err(GlError::InvalidOperation(format!(
                            "{dst} is {}x{}, render target is {width}x{height}",
                            t.width, t.height
                        )));
                    }
                    t.storage_fresh = false;
                }
            }
            if let Some(src) = src_pixels {
                let dst_ch = t.format.channels();
                let src_ch = src_format.channels();
                let n = width as usize * height as usize;
                let mut data = vec![0u8; n * dst_ch];
                for i in 0..n {
                    for c in 0..dst_ch {
                        data[i * dst_ch + c] = if c < src_ch { src[i * src_ch + c] } else { 255 };
                    }
                }
                t.data = data;
                t.touch();
            } else if functional {
                // Shouldn't happen (functional implies src_pixels).
            }
            let bytes = u64::from(width) * u64::from(height) * t.format.bytes_per_texel();
            (
                t.storage,
                if fresh_format.is_some() {
                    AllocKind::Fresh
                } else {
                    AllocKind::Reuse
                },
                bytes,
            )
        };

        // Attach to the pending frame; synthesise an empty one if the copy
        // follows no draw (e.g. copying a cleared buffer).
        let pending = self.pending.get_or_insert_with(|| FrameWork {
            label: "copy-only".to_owned(),
            uploads: Vec::new(),
            cpu_extra: SimTime::ZERO,
            vertex: VertexWork::default(),
            fragment: FragmentWork {
                fragments: 0,
                width: 0,
                height: 0,
                profile: FragmentProfile::default(),
                cleared: true,
                skip: SkipWork::default(),
            },
            target: match target_key {
                TargetKey::Surface(s) => RenderTarget::Framebuffer { surface: s },
                TargetKey::Storage(st) => RenderTarget::Texture {
                    storage: st,
                    fresh: false,
                },
            },
            reads: Vec::new(),
            copy_out: None,
            sync: SyncOp::None,
        });
        pending.copy_out = Some(CopyOut {
            dest: storage,
            bytes,
            alloc,
        });
        Ok(())
    }

    // ---- synchronisation / EGL ----------------------------------------------

    fn flush_pending(&mut self, sync: SyncOp) {
        if self.context_lost {
            // A dead context has no pipeline to drain; the work died with it.
            return;
        }
        let frame = match self.pending.take() {
            Some(mut frame) => {
                frame.sync = sync;
                frame
            }
            None if sync != SyncOp::None => {
                // A sync with no pending draw still costs the wait.
                let mut frame = FrameWork::simple(0, 0, FragmentProfile::default());
                frame.label = "sync-only".to_owned();
                frame.sync = sync;
                frame
            }
            None => return,
        };
        let timing = self.sim.submit(&frame);
        if self.record_frames {
            self.recorded.push((frame, timing.clone()));
        }
        self.last_timing = Some(timing);
    }

    /// `eglSwapInterval`: 0 disables the vsync wait while still draining
    /// the frame (the paper's first optimisation step in Fig. 3).
    pub fn swap_interval(&mut self, interval: u32) {
        self.swap_interval = interval;
    }

    /// `eglSwapBuffers`: submits the frame with a drain (+ vsync wait at
    /// interval > 0) and flips the double-buffered window surface.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` is kept for API stability.
    pub fn swap_buffers(&mut self) -> Result<(), GlError> {
        self.ensure_live()?;
        self.flush_pending(SyncOp::Swap {
            interval: self.swap_interval,
        });
        self.back_surface = (self.back_surface + 1) % self.surfaces.len() as u32;
        Ok(())
    }

    /// `glFinish`: submits pending work and blocks until it retires.
    pub fn finish(&mut self) {
        self.flush_pending(SyncOp::Finish);
    }

    /// `glFlush`: submits pending work without waiting (the paper's
    /// maximum-launch-rate "no `eglSwapBuffers`" mode).
    pub fn flush(&mut self) {
        self.flush_pending(SyncOp::None);
    }

    /// `glReadPixels` from the current render target; synchronises like the
    /// real call (full drain) before returning pixels.
    ///
    /// # Errors
    ///
    /// Propagates target-resolution errors.
    pub fn read_pixels(&mut self) -> Result<Vec<u8>, GlError> {
        self.ensure_live()?;
        if let Some(inj) = self.injector.as_mut() {
            let _ = inj.next_readback();
        }
        let (target_key, ..) = self.current_target()?;
        self.finish();
        Ok(match target_key {
            TargetKey::Surface(s) => self.surface_mut(s).clone(),
            TargetKey::Storage(_) => {
                let tex = self.attachment_texture().ok_or_else(|| {
                    GlError::Internal("storage target lost its attachment".to_owned())
                })?;
                self.textures[&tex.0].data.clone()
            }
        })
    }

    /// Reads back a texture's contents — the GPGPU result-download path.
    /// Synchronises the pipeline first (`glFinish` semantics) so the bytes
    /// reflect every submitted draw.
    ///
    /// # Errors
    ///
    /// [`GlError::ContextLost`] on a dead context, [`GlError::UnknownObject`]
    /// for a stale handle.
    pub fn read_texture(&mut self, tex: TextureId) -> Result<Vec<u8>, GlError> {
        self.ensure_live()?;
        if let Some(inj) = self.injector.as_mut() {
            let _ = inj.next_readback();
        }
        self.finish();
        Ok(self.texture_data(tex)?.to_vec())
    }

    /// Accounts application CPU time (e.g. the GPGPU float↔RGBA8 data
    /// conversions) against the next submitted frame.
    pub fn add_cpu_work(&mut self, time: SimTime) {
        self.pending_cpu_extra += time;
    }

    /// Starts or stops recording submitted frame descriptions (for memory
    /// traces; see [`mgpu_tbdr::annotate_frame`]).
    pub fn set_frame_recording(&mut self, record: bool) {
        self.record_frames = record;
    }

    /// Frames recorded since [`Gl::set_frame_recording`] was enabled, with
    /// their timings.
    #[must_use]
    pub fn recorded_frames(&self) -> &[(FrameWork, FrameTiming)] {
        &self.recorded
    }

    // ---- timing access ------------------------------------------------------

    /// Timing of the most recently submitted frame.
    #[must_use]
    pub fn last_frame_timing(&self) -> Option<&FrameTiming> {
        self.last_timing.as_ref()
    }

    /// Snapshot of the simulation report (flushes nothing).
    #[must_use]
    pub fn report(&self) -> SimReport {
        self.sim.report()
    }

    /// Simulated time elapsed so far: the `total_time` of
    /// [`Gl::report`], read in constant time without copying the frame
    /// history (see [`PipelineSim::total_time`]).
    #[must_use]
    pub fn elapsed(&self) -> SimTime {
        self.sim.total_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timing-only context clears, draws, copies out and swaps without
    /// ever allocating a window surface; the first read-back does.
    #[test]
    fn timing_only_runs_leave_surfaces_unallocated() {
        let mut gl = Gl::new(Platform::videocore_iv(), 64, 64);
        gl.set_functional(false);
        let prog = gl
            .create_program("void main() { gl_FragColor = vec4(0.5); }")
            .unwrap();
        gl.use_program(Some(prog)).unwrap();
        let dst = gl.create_texture();
        for _ in 0..4 {
            gl.clear([0.0; 4]).unwrap();
            gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
            gl.copy_tex_image_2d(dst, TextureFormat::Rgba8).unwrap();
            gl.swap_buffers().unwrap();
        }
        gl.read_texture(dst).unwrap();
        assert!(gl.surfaces.iter().all(Vec::is_empty));

        assert_eq!(gl.read_pixels().unwrap().len(), 64 * 64 * 4);
        assert_eq!(gl.surfaces[gl.back_surface as usize].len(), 64 * 64 * 4);
        gl.recreate();
        assert!(gl.surfaces.iter().all(Vec::is_empty));
    }
}
