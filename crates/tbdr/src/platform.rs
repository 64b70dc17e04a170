//! Platform descriptors for the simulated mobile GPUs.
//!
//! A [`Platform`] bundles every micro-architectural constant the timing model
//! needs: tile geometry, functional-unit clocks, memory and copy-engine
//! bandwidths, driver overheads, display timing and shader implementation
//! limits. Two presets reproduce the boards evaluated in the paper:
//!
//! * [`Platform::videocore_iv`] — Broadcom VideoCore IV (Raspberry Pi):
//!   64×64 tiles, a DMA engine (~1 GB/s) that offloads framebuffer→texture
//!   copies, deep QPU multithreading that hides texture-fetch latency, and a
//!   60 Hz display with a default swap interval of 1.
//! * [`Platform::sgx_545`] — Imagination PowerVR SGX 545: 16×16 tiles, **no**
//!   DMA assist for `glCopyTexImage2D` (a slow, blocking CPU-side conversion
//!   path), exposed dependent-texture-fetch latency, and an internal
//!   synchronisation rate far above 60 Hz (so `eglSwapInterval(0)` is a
//!   no-op, as the paper observes).
//!
//! All constants are plain public-API knobs so that ablations (the
//! `mgpu-bench` `report`'s Ablations section) can switch individual
//! mechanisms on and off.

use crate::time::{Bandwidth, Clock, SimTime};

/// GLSL implementation limits advertised by a platform's shader compiler.
///
/// Exceeding either limit makes shader compilation fail, which is what bounds
/// the usable block size in the paper's Fig. 4b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShaderLimits {
    /// Maximum number of IR instructions in a compiled fragment kernel.
    pub max_instructions: u32,
    /// Maximum number of texture fetches a single fragment may issue.
    pub max_texture_fetches: u32,
    /// Maximum number of `uniform` vec4 slots.
    pub max_uniform_vectors: u32,
    /// Maximum number of `varying` vec4 slots.
    pub max_varying_vectors: u32,
}

impl ShaderLimits {
    /// Permissive limits for tests that should never trip them.
    #[must_use]
    pub const fn unlimited() -> Self {
        ShaderLimits {
            max_instructions: u32::MAX,
            max_texture_fetches: u32::MAX,
            max_uniform_vectors: u32::MAX,
            max_varying_vectors: u32::MAX,
        }
    }
}

/// How the platform executes `glCopyTexImage2D`-style framebuffer→texture
/// copies (step 4 of the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CopyEngine {
    /// A hardware DMA engine: copies run asynchronously on their own unit,
    /// ordered with GPU work by hardware queues, so reusing the destination
    /// texture does not force a CPU-visible synchronisation.
    Dma {
        /// Sustained copy bandwidth.
        bandwidth: Bandwidth,
    },
    /// A blocking, driver-mediated path (CPU conversion into the texture's
    /// internal layout through uncached memory). The CPU is held for the
    /// whole copy, and a reused destination serialises against every
    /// in-flight frame that touches it.
    Blocking {
        /// Effective conversion bandwidth (typically well under 10 MB/s).
        bandwidth: Bandwidth,
    },
}

impl CopyEngine {
    /// The copy bandwidth regardless of engine kind.
    #[must_use]
    pub fn bandwidth(&self) -> Bandwidth {
        match *self {
            CopyEngine::Dma { bandwidth } | CopyEngine::Blocking { bandwidth } => bandwidth,
        }
    }

    /// Whether this engine runs asynchronously with respect to the CPU.
    #[must_use]
    pub fn is_dma(&self) -> bool {
        matches!(self, CopyEngine::Dma { .. })
    }
}

/// A complete micro-architectural description of a simulated mobile GPU
/// platform.
///
/// Construct one with [`Platform::videocore_iv`], [`Platform::sgx_545`] or
/// [`PlatformBuilder`] for custom/ablated configurations.
///
/// # Examples
///
/// ```
/// use mgpu_tbdr::Platform;
///
/// let vc = Platform::videocore_iv();
/// assert_eq!(vc.tile_width, 64);
/// assert!(vc.copy_engine.is_dma());
///
/// let sgx = Platform::sgx_545();
/// assert_eq!(sgx.tile_width, 16);
/// assert!(!sgx.copy_engine.is_dma());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable platform name, e.g. `"VideoCore IV"`.
    pub name: String,
    /// Tile width in pixels.
    pub tile_width: u32,
    /// Tile height in pixels.
    pub tile_height: u32,
    /// Fragment-core clock.
    pub fragment_clock: Clock,
    /// Effective fragment-level parallelism (SIMD lanes × pipes); divides all
    /// throughput-bound per-fragment cycle costs.
    pub fragment_parallelism: f64,
    /// Vertex-unit clock.
    pub vertex_clock: Clock,
    /// Cycles to process one vertex.
    pub cycles_per_vertex: f64,
    /// Main-memory bandwidth seen by tile writeback and preserve-loads.
    pub mem_bandwidth: Bandwidth,
    /// CPU-side `memcpy` bandwidth for buffer/texture uploads.
    pub cpu_copy_bandwidth: Bandwidth,
    /// The framebuffer→texture copy engine.
    pub copy_engine: CopyEngine,
    /// Fixed cost added to every copy operation (drain/setup).
    pub copy_setup: SimTime,
    /// Latency before a consumer may start reading a *freshly allocated* copy
    /// destination while the copy is still streaming (tile-level pipelining).
    pub copy_chunk_latency: SimTime,
    /// Extra latency in cycles for a *dependent* texture fetch (texture
    /// coordinates computed in the shader, defeating prefetch).
    pub dependent_fetch_latency_cycles: f64,
    /// Serial cycles per byte moved by a dependent fetch (cache-line refills
    /// on the critical path; this is the part the fp24 3-byte encoding cuts).
    pub dependent_byte_cycles: f64,
    /// Cycles per byte moved by any texture fetch (throughput side, divided
    /// by [`Platform::fragment_parallelism`]).
    pub fetch_byte_cycles: f64,
    /// Whether deep multithreading hides dependent-fetch latency (VideoCore's
    /// QPUs do; the SGX exposes it).
    pub latency_hidden: bool,
    /// Fixed per-tile scheduling overhead, in fragment-core cycles.
    pub tile_overhead_cycles: f64,
    /// Per-tile binning/parameter-buffer cost charged on the vertex unit
    /// each frame (TBDR tiling pass). Small tiles make this expensive.
    pub binning_cycles_per_tile: f64,
    /// Whether consecutive frames overlap in the deferred pipeline
    /// (vertex of frame *i+1* under fragment of frame *i*).
    pub deferred: bool,
    /// Pipeline penalty charged when a frame samples a texture rendered by a
    /// still-in-flight earlier frame (single-buffered render-to-texture
    /// dependency: drain + intermediate store/reload).
    pub dependency_flush: SimTime,
    /// Base driver cost of allocating fresh texture/buffer storage.
    pub alloc_base: SimTime,
    /// Bandwidth-like cost of initialising fresh storage (page mapping etc.).
    pub alloc_bandwidth: Bandwidth,
    /// CPU stall incurred when uploading into storage the deferred GPU may
    /// still reference (`tex_sub_image_2d` reuse on a driver that cannot
    /// rename storage). Zero on platforms whose driver queues in-band
    /// updates (VideoCore's DMA path).
    pub reuse_upload_stall: SimTime,
    /// Fractional fragment-time surcharge for rendering into *reused*
    /// texture storage on a no-rename driver (deferred command-buffer
    /// patching). Zero where the driver renames freely.
    pub rtt_reuse_sync_frac: f64,
    /// CPU cost of validating and submitting one draw call.
    pub draw_submit_overhead: SimTime,
    /// CPU cost of `eglSwapBuffers` beyond the waits it implies.
    pub swap_overhead: SimTime,
    /// Display refresh period (vsync granularity). The SGX models its
    /// high-rate internal compositor sync with a very short period.
    pub refresh_period: SimTime,
    /// Default `eglSwapInterval` (VideoCore: 1 → 60 Hz; 0 disables vsync).
    pub default_swap_interval: u32,
    /// Number of window-framebuffer surfaces (2 = double buffered).
    pub framebuffer_surfaces: u32,
    /// Shader implementation limits.
    pub shader_limits: ShaderLimits,
}

impl Platform {
    /// Broadcom VideoCore IV, as on the Raspberry Pi.
    ///
    /// Key traits: 64×64 tiles, 1 GB/s DMA copy engine [paper ref 6], deep
    /// QPU multithreading (fetch latency hidden), 60 Hz vsync with default
    /// swap interval 1.
    #[must_use]
    pub fn videocore_iv() -> Self {
        Platform {
            name: "VideoCore IV".to_owned(),
            tile_width: 64,
            tile_height: 64,
            fragment_clock: Clock::mhz(250.0),
            fragment_parallelism: 107.2,
            vertex_clock: Clock::mhz(250.0),
            cycles_per_vertex: 40.0,
            mem_bandwidth: Bandwidth::gibi_per_sec(4.5),
            cpu_copy_bandwidth: Bandwidth::gibi_per_sec(0.9),
            copy_engine: CopyEngine::Dma {
                bandwidth: Bandwidth::gibi_per_sec(1.0),
            },
            copy_setup: SimTime::from_micros(80),
            copy_chunk_latency: SimTime::from_micros(40),
            dependent_fetch_latency_cycles: 2.3,
            dependent_byte_cycles: 7.67,
            fetch_byte_cycles: 0.8,
            latency_hidden: true,
            tile_overhead_cycles: 150.0,
            binning_cycles_per_tile: 146.0,
            deferred: true,
            dependency_flush: SimTime::from_micros(7_200),
            alloc_base: SimTime::from_micros(120),
            alloc_bandwidth: Bandwidth::gibi_per_sec(1.6),
            reuse_upload_stall: SimTime::ZERO,
            rtt_reuse_sync_frac: 0.0,
            draw_submit_overhead: SimTime::from_micros(450),
            swap_overhead: SimTime::from_micros(90),
            refresh_period: SimTime::from_nanos(16_666_667),
            default_swap_interval: 1,
            framebuffer_surfaces: 2,
            shader_limits: ShaderLimits {
                max_instructions: 480,
                max_texture_fetches: 40,
                max_uniform_vectors: 64,
                max_varying_vectors: 8,
            },
        }
    }

    /// Imagination PowerVR SGX 545 (mobile development platform).
    ///
    /// Key traits: 16×16 tiles, no DMA assist — `glCopyTexImage2D` takes a
    /// blocking CPU conversion path at well under 1 MB/s effective — exposed
    /// dependent-fetch latency, and an internal sync rate far above 60 Hz.
    #[must_use]
    pub fn sgx_545() -> Self {
        Platform {
            name: "PowerVR SGX 545".to_owned(),
            tile_width: 16,
            tile_height: 16,
            fragment_clock: Clock::mhz(200.0),
            fragment_parallelism: 96.6,
            vertex_clock: Clock::mhz(200.0),
            cycles_per_vertex: 60.0,
            mem_bandwidth: Bandwidth::gibi_per_sec(1.75),
            cpu_copy_bandwidth: Bandwidth::gibi_per_sec(0.6),
            copy_engine: CopyEngine::Blocking {
                bandwidth: Bandwidth::mebi_per_sec(1.31),
            },
            copy_setup: SimTime::from_millis(2),
            copy_chunk_latency: SimTime::from_micros(60),
            dependent_fetch_latency_cycles: 60.0,
            dependent_byte_cycles: 14.0,
            fetch_byte_cycles: 2.72,
            latency_hidden: false,
            tile_overhead_cycles: 20.0,
            binning_cycles_per_tile: 107.0,
            deferred: true,
            dependency_flush: SimTime::from_millis(48),
            alloc_base: SimTime::from_micros(60),
            alloc_bandwidth: Bandwidth::gibi_per_sec(2.6),
            reuse_upload_stall: SimTime::ZERO,
            rtt_reuse_sync_frac: 0.045,
            draw_submit_overhead: SimTime::from_micros(2_000),
            swap_overhead: SimTime::from_micros(500),
            refresh_period: SimTime::from_micros(400),
            default_swap_interval: 1,
            framebuffer_surfaces: 2,
            shader_limits: ShaderLimits {
                max_instructions: 512,
                max_texture_fetches: 36,
                max_uniform_vectors: 128,
                max_varying_vectors: 8,
            },
        }
    }

    /// Both paper platforms, in the order the paper plots them.
    #[must_use]
    pub fn paper_pair() -> [Platform; 2] {
        [Platform::sgx_545(), Platform::videocore_iv()]
    }

    /// Starts a builder seeded from this platform, for ablations.
    #[must_use]
    pub fn to_builder(&self) -> PlatformBuilder {
        PlatformBuilder {
            platform: self.clone(),
        }
    }

    /// Tile-grid dimensions (columns, rows) covering a `width`×`height`
    /// render target — the single source of the tile ↔ pixel-rect math
    /// shared by the scheduler's tile counts and the driver's per-tile
    /// redundancy elimination.
    #[must_use]
    pub fn tile_grid(&self, width: u32, height: u32) -> (u32, u32) {
        let tw = self.tile_width.max(1);
        let th = self.tile_height.max(1);
        (width.div_ceil(tw), height.div_ceil(th))
    }

    /// Number of tiles covering a `width`×`height` render target.
    #[must_use]
    pub fn tiles_for(&self, width: u32, height: u32) -> u64 {
        let (cols, rows) = self.tile_grid(width, height);
        u64::from(cols) * u64::from(rows)
    }

    /// Iterates the tile rectangles covering a `width`×`height` render
    /// target in row-major order. Edge tiles are clipped to the target, so
    /// non-divisible sizes produce partial rects rather than overhang.
    pub fn tile_rects(&self, width: u32, height: u32) -> impl Iterator<Item = TileRect> {
        self.tile_rects_in_band(width, height, 0, height)
    }

    /// Like [`Platform::tile_rects`], but additionally clips every rect to
    /// the row band `band_y0..band_y1` (the driver's row-band sub-draws),
    /// skipping tiles the band misses entirely.
    pub fn tile_rects_in_band(
        &self,
        width: u32,
        height: u32,
        band_y0: u32,
        band_y1: u32,
    ) -> impl Iterator<Item = TileRect> {
        let tw = self.tile_width.max(1);
        let th = self.tile_height.max(1);
        let (cols, rows) = self.tile_grid(width, height);
        let y_lo = band_y0.min(height);
        let y_hi = band_y1.min(height);
        (0..rows).flat_map(move |row| {
            (0..cols).filter_map(move |col| {
                let rect = TileRect {
                    col,
                    row,
                    x0: col * tw,
                    x1: (col * tw + tw).min(width),
                    y0: (row * th).max(y_lo),
                    y1: (row * th + th).min(y_hi),
                };
                (rect.y0 < rect.y1 && rect.x0 < rect.x1).then_some(rect)
            })
        })
    }

    /// Bytes of on-chip tile memory (RGBA8).
    #[must_use]
    pub fn tile_bytes(&self) -> u64 {
        u64::from(self.tile_width) * u64::from(self.tile_height) * 4
    }
}

/// One tile's pixel rectangle within a render target, as produced by
/// [`Platform::tile_rects`]. Both axes are half-open: the rect covers
/// pixels `x0..x1` × `y0..y1`, already clipped to the target (and, for
/// [`Platform::tile_rects_in_band`], to the row band).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileRect {
    /// Tile column index in the grid.
    pub col: u32,
    /// Tile row index in the grid.
    pub row: u32,
    /// First covered pixel column.
    pub x0: u32,
    /// One past the last covered pixel column.
    pub x1: u32,
    /// First covered pixel row.
    pub y0: u32,
    /// One past the last covered pixel row.
    pub y1: u32,
}

impl TileRect {
    /// Covered width in pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.x1 - self.x0
    }

    /// Covered height in pixels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.y1 - self.y0
    }

    /// Covered pixel count.
    #[must_use]
    pub fn pixels(&self) -> u64 {
        u64::from(self.width()) * u64::from(self.height())
    }
}

/// Builder for custom or ablated [`Platform`] configurations.
///
/// # Examples
///
/// ```
/// use mgpu_tbdr::{Platform, Bandwidth};
///
/// // Ablation: VideoCore without its DMA engine.
/// let no_dma = Platform::videocore_iv()
///     .to_builder()
///     .blocking_copy(Bandwidth::mebi_per_sec(0.62))
///     .name("VideoCore IV (no DMA)")
///     .build();
/// assert!(!no_dma.copy_engine.is_dma());
/// ```
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    platform: Platform,
}

impl PlatformBuilder {
    /// Renames the platform (useful for ablation labels).
    #[must_use]
    pub fn name(mut self, name: &str) -> Self {
        self.platform.name = name.to_owned();
        self
    }

    /// Replaces the copy engine with a DMA engine of the given bandwidth.
    #[must_use]
    pub fn dma_copy(mut self, bandwidth: Bandwidth) -> Self {
        self.platform.copy_engine = CopyEngine::Dma { bandwidth };
        self
    }

    /// Replaces the copy engine with a blocking path of the given bandwidth.
    #[must_use]
    pub fn blocking_copy(mut self, bandwidth: Bandwidth) -> Self {
        self.platform.copy_engine = CopyEngine::Blocking { bandwidth };
        self
    }

    /// Enables or disables deferred-pipeline frame overlap.
    #[must_use]
    pub fn deferred(mut self, deferred: bool) -> Self {
        self.platform.deferred = deferred;
        self
    }

    /// Sets the tile dimensions.
    #[must_use]
    pub fn tile_size(mut self, width: u32, height: u32) -> Self {
        self.platform.tile_width = width;
        self.platform.tile_height = height;
        self
    }

    /// Sets the display refresh period.
    #[must_use]
    pub fn refresh_period(mut self, period: SimTime) -> Self {
        self.platform.refresh_period = period;
        self
    }

    /// Sets the default swap interval.
    #[must_use]
    pub fn default_swap_interval(mut self, interval: u32) -> Self {
        self.platform.default_swap_interval = interval;
        self
    }

    /// Sets the single-buffered render-to-texture dependency penalty.
    #[must_use]
    pub fn dependency_flush(mut self, penalty: SimTime) -> Self {
        self.platform.dependency_flush = penalty;
        self
    }

    /// Sets the shader implementation limits.
    #[must_use]
    pub fn shader_limits(mut self, limits: ShaderLimits) -> Self {
        self.platform.shader_limits = limits;
        self
    }

    /// Applies an arbitrary closure to the platform under construction,
    /// for knobs without a dedicated builder method.
    #[must_use]
    pub fn tweak(mut self, f: impl FnOnce(&mut Platform)) -> Self {
        f(&mut self.platform);
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> Platform {
        self.platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_tile_sizes() {
        assert_eq!(Platform::videocore_iv().tile_width, 64);
        assert_eq!(Platform::videocore_iv().tile_height, 64);
        assert_eq!(Platform::sgx_545().tile_width, 16);
        assert_eq!(Platform::sgx_545().tile_height, 16);
    }

    #[test]
    fn videocore_uses_dma_and_sgx_does_not() {
        assert!(Platform::videocore_iv().copy_engine.is_dma());
        assert!(!Platform::sgx_545().copy_engine.is_dma());
    }

    #[test]
    fn videocore_default_vsync_is_60hz_interval_1() {
        let vc = Platform::videocore_iv();
        assert_eq!(vc.default_swap_interval, 1);
        let hz = 1e9 / vc.refresh_period.as_nanos() as f64;
        assert!((hz - 60.0).abs() < 0.5, "refresh is {hz} Hz");
    }

    #[test]
    fn sgx_internal_sync_is_much_faster_than_60hz() {
        let sgx = Platform::sgx_545();
        assert!(sgx.refresh_period < SimTime::from_millis(2));
    }

    #[test]
    fn tiles_for_rounds_up() {
        let vc = Platform::videocore_iv();
        assert_eq!(vc.tiles_for(1024, 1024), 16 * 16);
        assert_eq!(vc.tiles_for(65, 1), 2);
        let sgx = Platform::sgx_545();
        assert_eq!(sgx.tiles_for(1024, 1024), 64 * 64);
    }

    #[test]
    fn tile_rects_partition_non_divisible_targets() {
        // 100×100 on 64×64 tiles: 2×2 grid with 36-pixel edge remainders.
        let vc = Platform::videocore_iv();
        let rects: Vec<TileRect> = vc.tile_rects(100, 100).collect();
        assert_eq!(rects.len() as u64, vc.tiles_for(100, 100));
        assert_eq!(rects.len(), 4);
        assert_eq!(rects[0].width(), 64);
        assert_eq!(rects[1].width(), 36);
        assert_eq!(
            rects[3],
            TileRect {
                col: 1,
                row: 1,
                x0: 64,
                x1: 100,
                y0: 64,
                y1: 100
            }
        );
        assert_eq!(rects.iter().map(TileRect::pixels).sum::<u64>(), 100 * 100);

        // 100×100 on 16×16 tiles: 7×7 grid with 4-pixel edge remainders.
        let sgx = Platform::sgx_545();
        let rects: Vec<TileRect> = sgx.tile_rects(100, 100).collect();
        assert_eq!(rects.len() as u64, sgx.tiles_for(100, 100));
        assert_eq!(rects.len(), 49);
        assert!(rects.iter().all(|r| r.width() == 16 || r.width() == 4));
        assert!(rects.iter().all(|r| r.x1 <= 100 && r.y1 <= 100));
        assert_eq!(rects.iter().map(TileRect::pixels).sum::<u64>(), 100 * 100);

        // Row-major order, no overlaps: each rect starts where its
        // predecessor ended (within a row) or at a fresh row.
        for w in rects.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(b.row > a.row || (b.row == a.row && b.x0 == a.x1));
        }
    }

    #[test]
    fn tile_rects_in_band_clip_rows_to_the_band() {
        let sgx = Platform::sgx_545();
        // A band covering rows 10..30 of a 100×100 target touches tile rows
        // 0 and 1 only, clipped to the band on both sides.
        let rects: Vec<TileRect> = sgx.tile_rects_in_band(100, 100, 10, 30).collect();
        assert!(rects.iter().all(|r| r.y0 >= 10 && r.y1 <= 30));
        assert!(rects.iter().all(|r| r.row <= 1));
        assert_eq!(
            rects.iter().map(TileRect::pixels).sum::<u64>(),
            100 * (30 - 10)
        );
        // An empty band yields nothing; a full band matches tile_rects.
        assert_eq!(sgx.tile_rects_in_band(100, 100, 40, 40).count(), 0);
        let full: Vec<TileRect> = sgx.tile_rects_in_band(100, 100, 0, 100).collect();
        assert_eq!(full, sgx.tile_rects(100, 100).collect::<Vec<_>>());
    }

    #[test]
    fn builder_ablations_apply() {
        let p = Platform::videocore_iv()
            .to_builder()
            .deferred(false)
            .tile_size(32, 32)
            .name("ablated")
            .build();
        assert!(!p.deferred);
        assert_eq!((p.tile_width, p.tile_height), (32, 32));
        assert_eq!(p.name, "ablated");
    }

    #[test]
    fn tile_bytes_is_rgba8() {
        assert_eq!(Platform::sgx_545().tile_bytes(), 16 * 16 * 4);
    }

    #[test]
    fn clone_preserves_configuration() {
        let p = Platform::sgx_545();
        let q = p.clone();
        assert_eq!(p, q);
    }
}
