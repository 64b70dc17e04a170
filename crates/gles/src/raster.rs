//! The fragment rasteriser.
//!
//! GPGPU-over-GLES draws exactly one primitive shape: an axis-aligned quad
//! covering the render target, with varyings interpolated across it. This
//! module rasterises that shape functionally (running the compiled kernel
//! per fragment); arbitrary triangle meshes are out of scope for the
//! reproduction and rejected by the context layer.
//!
//! Every draw takes one path. [`DrawPlan::build`] captures everything a
//! draw sets up that does not depend on framebuffer or texture contents —
//! the shader, the column-hoisted interpolation table, the compiled
//! tier's lowered program and per-worker engine seats — so the context's
//! plan cache can hand it back on repeat draws. [`execute_plan`] then
//! shades a row band: on the calling thread when one thread (or one
//! chunk) suffices, otherwise over the context's persistent
//! [`Executor`](crate::Executor) with work-stealing chunk claiming.
//! [`execute_plan_rect`] shades a single tile rect, which is how
//! tile-level redundancy elimination re-shades only the stale tiles.
//! Chunk→bytes assignment is index-based and disjoint, so the stealing
//! schedule is byte-for-byte invisible.
//!
//! A plan executes on the fragment-engine tier its [`Engine`] names:
//!
//! * [`Engine::Scalar`] — the per-fragment reference [`ExecCore`] over
//!   the unmodified shader;
//! * [`Engine::Compiled`] — the shader lowered once per plan into a
//!   [`CompiledProgram`] (uniforms folded into constant planes), run in
//!   [`LANES`]-wide batches by one [`CompiledCore`] per seat.
//!
//! Both tiers share one interpolation scheme: a per-column table of the
//! horizontal lerps (which depend only on `x`), finished per fragment with
//! the vertical lerp — the exact f32 expressions of [`interpolate`], just
//! hoisted, so every engine/thread-count combination is byte-for-byte
//! identical. The determinism tests at the workspace root prove it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mgpu_shader::ir::Shader;
use mgpu_shader::{
    CompiledCore, CompiledProgram, ExecCore, ExecError, Sampler, UniformValues, LANES,
};

use crate::exec::{Engine, CHUNK_ROWS};
use crate::pool::Executor as PoolExecutor;

/// Corner values for one varying, in the order: (0,0), (1,0), (0,1), (1,1)
/// of the unit quad (v increasing downward in texture space).
pub type VaryingCorners = [[f32; 4]; 4];

/// The standard GPGPU texcoord quad: each fragment receives its own
/// normalised coordinate, so texel (x, y) maps 1:1 onto fragment (x, y).
#[must_use]
pub fn texcoord_corners() -> VaryingCorners {
    [
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
    ]
}

/// Bilinearly interpolates corner values at `(u, v)`.
#[must_use]
pub fn interpolate(corners: &VaryingCorners, u: f32, v: f32) -> [f32; 4] {
    let mut out = [0.0f32; 4];
    for c in 0..4 {
        let top = corners[0][c] * (1.0 - u) + corners[1][c] * u;
        let bottom = corners[2][c] * (1.0 - u) + corners[3][c] * u;
        out[c] = top * (1.0 - v) + bottom * v;
    }
    out
}

/// Column-hoisted varying interpolation for a fixed-width grid.
///
/// [`interpolate`] splits into a horizontal lerp (dependent only on `u`,
/// i.e. on the column) and a vertical lerp (dependent only on `v`). The
/// table precomputes the horizontal `top`/`bottom` pair for every
/// (varying, column) once per draw; [`ColumnTable::value`] finishes with
/// `top * (1 - v) + bottom * v` — the same f32 expression `interpolate`
/// evaluates, so hoisting is bitwise invisible.
struct ColumnTable {
    slots: usize,
    width: usize,
    /// `(top, bottom)` horizontal lerps, indexed `slot * width + x`.
    cols: Vec<([f32; 4], [f32; 4])>,
}

impl ColumnTable {
    fn new(corners: &[VaryingCorners], width: u32) -> Self {
        let width = width as usize;
        let mut cols = Vec::with_capacity(corners.len() * width);
        for corner in corners {
            for x in 0..width {
                let u = (x as f32 + 0.5) / width as f32;
                let (mut top, mut bottom) = ([0.0f32; 4], [0.0f32; 4]);
                for c in 0..4 {
                    top[c] = corner[0][c] * (1.0 - u) + corner[1][c] * u;
                    bottom[c] = corner[2][c] * (1.0 - u) + corner[3][c] * u;
                }
                cols.push((top, bottom));
            }
        }
        ColumnTable {
            slots: corners.len(),
            width,
            cols,
        }
    }

    /// The interpolated value of varying `slot` at column `x`, row
    /// position `v` — bit-identical to [`interpolate`] at the column's
    /// `u`.
    #[inline]
    fn value(&self, slot: usize, x: usize, v: f32) -> [f32; 4] {
        let (top, bottom) = &self.cols[slot * self.width + x];
        let mut out = [0.0f32; 4];
        for c in 0..4 {
            out[c] = top[c] * (1.0 - v) + bottom[c] * v;
        }
        out
    }
}

/// A writable pixel buffer for [`execute_plan`].
#[derive(Debug)]
pub(crate) struct RasterTarget<'a> {
    /// Target width in pixels.
    pub width: u32,
    /// Target height in pixels.
    pub height: u32,
    /// Bytes stored per pixel (the first `channels` of the quantised RGBA).
    pub channels: usize,
    /// Row-major pixel bytes, at least `width * height * channels` long.
    pub data: &'a mut [u8],
}

/// Extracts a printable message from a caught panic payload.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = p.downcast_ref::<&str>() {
        s
    } else if let Some(s) = p.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn check_corners(shader: &Shader, corners: &[VaryingCorners]) -> Result<(), ExecError> {
    let n_varyings = shader.varying_slots().count();
    if corners.len() != n_varyings {
        return Err(ExecError::new(format!(
            "shader has {n_varyings} varyings, {} corner sets provided",
            corners.len()
        )));
    }
    Ok(())
}

/// One participant's owned engine state in a planned dispatch, built on
/// [`ExecCore`]/[`CompiledCore`] so it holds no shader borrow and a
/// [`DrawPlan`] can cache it across draws.
enum FragSeat {
    /// Per-fragment scalar interpretation.
    Scalar(ExecCore),
    /// Fused native-closure execution (boxed: large plane file). The
    /// program is the plan's single shared build — seats only own a plane
    /// file and staging buffers.
    Compiled(Box<CompiledSeat>),
}

/// The compiled tier's plane file plus staging, sharing the plan's
/// lowered program: lowering happens once per plan, not once per seat.
struct CompiledSeat {
    program: Arc<CompiledProgram>,
    core: CompiledCore,
    /// Slot-major varying staging, stride [`LANES`].
    varyings: Vec<[f32; 4]>,
    /// Per-lane output colours of the current batch.
    colors: [[f32; 4]; LANES],
}

impl FragSeat {
    fn new(
        shader: &Shader,
        uniforms: &UniformValues,
        engine: Engine,
        slots: usize,
        compiled: Option<&Arc<CompiledProgram>>,
    ) -> Result<Self, ExecError> {
        Ok(match engine {
            Engine::Scalar => FragSeat::Scalar(ExecCore::new(shader, uniforms)?),
            Engine::Compiled => {
                let program = Arc::clone(
                    compiled
                        .ok_or_else(|| ExecError::new("compiled plan has no lowered program"))?,
                );
                let core = CompiledCore::new(&program);
                FragSeat::Compiled(Box::new(CompiledSeat {
                    program,
                    core,
                    varyings: vec![[0.0f32; 4]; slots * LANES],
                    colors: [[0.0f32; 4]; LANES],
                }))
            }
        })
    }

    /// Rebinds the seat to a new shader/uniform pair, reusing its
    /// allocations. The seat's tier must match the plan's engine — the
    /// caller guarantees it by only recycling seats from a same-engine
    /// plan — and `compiled` must be the plan's lowered program on the
    /// compiled tier.
    fn rebind(
        &mut self,
        shader: &Shader,
        uniforms: &UniformValues,
        slots: usize,
        compiled: Option<&Arc<CompiledProgram>>,
    ) -> Result<(), ExecError> {
        match self {
            FragSeat::Scalar(core) => core.rebind(shader, uniforms),
            FragSeat::Compiled(seat) => {
                let program = Arc::clone(
                    compiled
                        .ok_or_else(|| ExecError::new("compiled plan has no lowered program"))?,
                );
                seat.core.rebind(&program);
                seat.program = program;
                seat.varyings.resize(slots * LANES, [0.0f32; 4]);
                Ok(())
            }
        }
    }
}

/// Runs a seat over the fragment rectangle `x0..x1` × `y0..y1`,
/// quantising each fragment into `out`, which covers exactly that
/// rectangle (row stride `(x1 - x0) * channels`).
///
/// Every fragment is a pure function of its own `(x, y)` — lanes of a
/// batch never exchange data — so restricting a row to a column span
/// produces the same bytes those columns get from a full-row run, whatever
/// batch boundaries the span induces. This is the primitive that lets
/// tile-level redundancy elimination re-shade a single stale tile.
#[allow(clippy::too_many_arguments)]
fn shade_rect(
    seat: &mut FragSeat,
    shader: &Shader,
    samplers: &[&dyn Sampler],
    table: &ColumnTable,
    height: u32,
    (x0, x1): (u32, u32),
    (y0, y1): (u32, u32),
    channels: usize,
    out: &mut [u8],
) -> Result<(), ExecError> {
    let stride = (x1 - x0) as usize;
    let mut emit = |x: u32, y: u32, rgba: [f32; 4]| {
        let px = quantize_rgba8(rgba);
        let idx = ((y - y0) as usize * stride + (x - x0) as usize) * channels;
        out[idx..idx + channels].copy_from_slice(&px[..channels]);
    };
    match seat {
        FragSeat::Scalar(core) => {
            let mut varying_values = vec![[0.0f32; 4]; table.slots];
            for y in y0..y1 {
                let v = (y as f32 + 0.5) / height as f32;
                for x in x0..x1 {
                    for (slot, val) in varying_values.iter_mut().enumerate() {
                        *val = table.value(slot, x as usize, v);
                    }
                    emit(x, y, core.run(shader, &varying_values, samplers)?);
                }
            }
        }
        FragSeat::Compiled(st) => {
            let CompiledSeat {
                program,
                core,
                varyings,
                colors,
            } = &mut **st;
            for y in y0..y1 {
                let v = (y as f32 + 0.5) / height as f32;
                let mut xb = x0;
                while xb < x1 {
                    let n = (x1 - xb).min(LANES as u32) as usize;
                    for slot in 0..table.slots {
                        for l in 0..n {
                            varyings[slot * LANES + l] = table.value(slot, xb as usize + l, v);
                        }
                    }
                    program.run(core, varyings, n, samplers, colors)?;
                    for (l, &color) in colors[..n].iter().enumerate() {
                        emit(xb + l as u32, y, color);
                    }
                    xb += n as u32;
                }
            }
        }
    }
    Ok(())
}

/// Everything a draw sets up that does not depend on framebuffer or
/// texture *contents*: the shader, the compiled tier's lowered program,
/// the column-hoisted interpolation table for the target width, and
/// per-worker engine seats. The context's plan cache keys these by
/// (shader id, uniform hash, engine, target geometry, corners), so a
/// cached plan is only ever executed with
/// exactly the state it was built from; sampler views are *not* part of a
/// plan — texture contents change between GPGPU passes — and are passed
/// fresh to every [`execute_plan`] call.
pub(crate) struct DrawPlan {
    /// The source program's shader, which the seats are bound to.
    shader: Arc<Shader>,
    /// The compiled tier's lowered program, built once per plan and
    /// shared by every seat (`None` on the scalar tier). Caching the plan
    /// therefore caches the lowering — a cache hit pays zero decode *and*
    /// zero build.
    compiled: Option<Arc<CompiledProgram>>,
    engine: Engine,
    /// Kept so additional seats can be bound lazily when the thread count
    /// rises after the plan was built.
    uniforms: UniformValues,
    /// Varying slot count (= corner-set count).
    slots: usize,
    /// Target width the column table was hoisted for.
    width: u32,
    table: ColumnTable,
    seats: Vec<FragSeat>,
}

impl std::fmt::Debug for DrawPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrawPlan")
            .field("engine", &self.engine)
            .field("width", &self.width)
            .field("slots", &self.slots)
            .field("seats", &self.seats.len())
            .finish()
    }
}

impl DrawPlan {
    /// Builds a plan for drawing `source` with `uniforms` onto a
    /// `width`-wide target. `recycled` donates a dead plan's allocations
    /// (seats, register files) when its engine matches — used by the
    /// cache-disabled path to avoid rebuilding engine state from scratch
    /// every draw.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the corner count does not match the
    /// shader's varyings or a declared uniform has no bound value.
    pub(crate) fn build(
        shader: &Arc<Shader>,
        uniforms: &UniformValues,
        engine: Engine,
        corners: &[VaryingCorners],
        width: u32,
        recycled: Option<DrawPlan>,
    ) -> Result<DrawPlan, ExecError> {
        check_corners(shader, corners)?;
        // Lower once per plan; every seat shares the build. Uniforms fold
        // into constant planes here, so the original shader is lowered.
        let compiled = match engine {
            Engine::Compiled => Some(Arc::new(CompiledProgram::build(shader, uniforms)?)),
            Engine::Scalar => None,
        };
        let slots = corners.len();
        let mut seats = match recycled {
            Some(old) if old.engine == engine => old.seats,
            _ => Vec::new(),
        };
        for seat in &mut seats {
            seat.rebind(shader, uniforms, slots, compiled.as_ref())?;
        }
        if seats.is_empty() {
            seats.push(FragSeat::new(
                shader,
                uniforms,
                engine,
                slots,
                compiled.as_ref(),
            )?);
        }
        Ok(DrawPlan {
            shader: Arc::clone(shader),
            compiled,
            engine,
            uniforms: uniforms.clone(),
            slots,
            width,
            table: ColumnTable::new(corners, width),
            seats,
        })
    }

    fn ensure_seats(&mut self, n: usize) -> Result<(), ExecError> {
        while self.seats.len() < n {
            self.seats.push(FragSeat::new(
                &self.shader,
                &self.uniforms,
                self.engine,
                self.slots,
                self.compiled.as_ref(),
            )?);
        }
        Ok(())
    }

    /// Content hash of the column-table slice covering columns `x0..x1` —
    /// the horizontal half of every varying this plan interpolates over
    /// those columns, by exact f32 bit pattern. Together with the rows and
    /// target height (which pin the vertical lerp), this is the tile's
    /// complete varying input, which is why the tile-signature cache folds
    /// it into each tile's signature.
    pub(crate) fn column_slice_hash(&self, x0: u32, x1: u32) -> u64 {
        let mut h = mgpu_shader::hash::Fnv64::new();
        h.write_u64(self.slots as u64);
        h.write_u32(x0);
        h.write_u32(x1);
        for slot in 0..self.slots {
            for x in x0 as usize..(x1 as usize).min(self.width as usize) {
                let (top, bottom) = &self.table.cols[slot * self.table.width + x];
                for c in 0..4 {
                    h.write_f32(top[c]);
                    h.write_f32(bottom[c]);
                }
            }
        }
        h.finish()
    }

    /// Varying slot count (used to model per-tile signature traffic).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots
    }

    /// Conservative bounds of every varying's first two components over
    /// the tile rect `x0..x1` × `y0..y1` of a `height`-row target:
    /// the smallest `[min_u, min_v]..[max_u, max_v]` box containing every
    /// value any fragment in the rect can observe. The row interpolation
    /// factor `(y + 0.5) / height` is monotonic in `y`, so evaluating the
    /// exact per-row lerp at the band's first and last rows bounds every
    /// interior row. Returns `None` when the plan has no varyings or any
    /// bound is non-finite (the caller falls back to whole-texture
    /// signatures).
    pub(crate) fn varying_hull(
        &self,
        x0: u32,
        x1: u32,
        y0: u32,
        y1: u32,
        height: u32,
    ) -> Option<([f32; 2], [f32; 2])> {
        if self.slots == 0 || y0 >= y1 || height == 0 {
            return None;
        }
        let v_lo = (y0 as f32 + 0.5) / height as f32;
        let v_hi = (y1 as f32 - 0.5) / height as f32;
        let mut lo = [f32::INFINITY; 2];
        let mut hi = [f32::NEG_INFINITY; 2];
        for slot in 0..self.slots {
            for x in x0 as usize..(x1 as usize).min(self.width as usize) {
                let (top, bottom) = &self.table.cols[slot * self.table.width + x];
                for c in 0..2 {
                    for v in [v_lo, v_hi] {
                        let val = top[c] * (1.0 - v) + bottom[c] * v;
                        lo[c] = lo[c].min(val);
                        hi[c] = hi[c].max(val);
                    }
                }
            }
        }
        lo.iter()
            .chain(hi.iter())
            .all(|f| f.is_finite())
            .then_some((lo, hi))
    }
}

/// Takes the value out of a slot, treating a poisoned lock as empty (the
/// panicking claimant is already reported through the error channel).
fn take_slot<'a, T: ?Sized>(slot: &Mutex<Option<&'a mut T>>) -> Option<&'a mut T> {
    match slot.lock() {
        Ok(mut guard) => guard.take(),
        Err(_) => None,
    }
}

/// Executes a [`DrawPlan`] over rows `y0..y1` of the target, writing
/// quantised pixels into `target.data` — on seat 0 on the calling thread
/// when one thread (or one chunk) suffices, without spawning a pool;
/// otherwise over the persistent `pool` with work-stealing chunk claiming.
///
/// The band is cut into fixed chunks of [`CHUNK_ROWS`] rows; participants
/// claim chunk indices from a shared atomic ticket. Which seat executes a
/// chunk varies run to run, but chunk index alone determines both the rows
/// shaded and the bytes written, and no execution state is shared between
/// seats — so the output is byte-for-byte identical to the serial path.
/// Fragment positions stay global, so a draw split into row bands
/// reassembles the exact full-draw image. A kernel failure or panic
/// surfaces as the error of the lowest-index failing chunk — the error the
/// serial path would report first.
///
/// `pool` is spawned lazily on the first dispatch that actually needs
/// workers, sized one less than `threads` (the caller occupies seat 0).
/// A shared executor installed by [`crate::Gl::install_executor`] arrives
/// here the same way; participation is clamped to its seats.
///
/// # Errors
///
/// Returns [`ExecError`] if the band or buffer is invalid, the target
/// width does not match the plan, or the kernel fails (or panics) on any
/// fragment.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_plan(
    plan: &mut DrawPlan,
    samplers: &[&dyn Sampler],
    target: RasterTarget<'_>,
    y0: u32,
    y1: u32,
    threads: usize,
    pool: &mut Option<PoolExecutor>,
) -> Result<(), ExecError> {
    let RasterTarget {
        width,
        height,
        channels,
        data,
    } = target;
    if width != plan.width {
        return Err(ExecError::new(format!(
            "draw plan built for width {}, executed at width {width}",
            plan.width
        )));
    }
    if y0 > y1 || y1 > height {
        return Err(ExecError::new(format!(
            "row band {y0}..{y1} outside target height {height}"
        )));
    }
    let needed = width as usize * height as usize * channels;
    if data.len() < needed {
        return Err(ExecError::new(format!(
            "target buffer holds {} bytes, {width}x{height}x{channels} needs {needed}",
            data.len()
        )));
    }
    if needed == 0 || y0 == y1 {
        return Ok(());
    }
    let row_bytes = width as usize * channels;
    let data = &mut data[y0 as usize * row_bytes..y1 as usize * row_bytes];
    let band_rows = y1 - y0;

    let n_chunks = band_rows.div_ceil(CHUNK_ROWS) as usize;
    let threads = threads.max(1).min(n_chunks);
    if threads <= 1 {
        plan.ensure_seats(1)?;
        let DrawPlan {
            shader,
            table,
            seats,
            ..
        } = plan;
        return shade_rect(
            &mut seats[0],
            shader,
            samplers,
            table,
            height,
            (0, width),
            (y0, y1),
            channels,
            data,
        );
    }

    plan.ensure_seats(threads)?;
    let pool = pool.get_or_insert_with(|| PoolExecutor::new(threads - 1));

    let chunk_bytes = CHUNK_ROWS as usize * width as usize * channels;
    let chunk_slots: Vec<Mutex<Option<&mut [u8]>>> = data
        .chunks_mut(chunk_bytes)
        .map(|c| Mutex::new(Some(c)))
        .collect();
    let DrawPlan {
        shader,
        table,
        seats,
        ..
    } = plan;
    let shader: &Shader = shader;
    let seat_slots: Vec<Mutex<Option<&mut FragSeat>>> = seats
        .iter_mut()
        .take(threads)
        .map(|s| Mutex::new(Some(s)))
        .collect();
    let ticket = AtomicUsize::new(0);
    let errors: Mutex<Vec<(usize, ExecError)>> = Mutex::new(Vec::new());

    let job = |seat_idx: usize| {
        let Some(seat) = seat_slots.get(seat_idx).and_then(|s| take_slot(s)) else {
            return;
        };
        let mut first_err: Option<(usize, ExecError)> = None;
        loop {
            let i = ticket.fetch_add(1, Ordering::Relaxed);
            if i >= chunk_slots.len() {
                break;
            }
            let Some(slice) = take_slot(&chunk_slots[i]) else {
                continue;
            };
            // Chunk indices are band-relative; rows stay global so band
            // draws are bit-identical to full draws.
            let cy0 = y0 + i as u32 * CHUNK_ROWS;
            let cy1 = (cy0 + CHUNK_ROWS).min(y1);
            // Contain panics per chunk so every failure carries its chunk
            // index and the pool's own panic flag stays a last resort.
            let run = catch_unwind(AssertUnwindSafe(|| {
                shade_rect(
                    seat,
                    shader,
                    samplers,
                    table,
                    height,
                    (0, width),
                    (cy0, cy1),
                    channels,
                    slice,
                )
            }));
            match run {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_err = Some((i, e));
                    break;
                }
                Err(p) => {
                    first_err = Some((
                        i,
                        ExecError::new(format!("kernel panicked: {}", panic_message(&*p))),
                    ));
                    break;
                }
            }
        }
        if let Some(err) = first_err {
            match errors.lock() {
                Ok(mut errs) => errs.push(err),
                Err(poisoned) => poisoned.into_inner().push(err),
            }
        }
    };
    let pool_panicked = pool.run(threads, &job);

    let mut errs = match errors.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    if pool_panicked && errs.is_empty() {
        errs.push((usize::MAX, ExecError::new("worker thread panicked")));
    }
    match errs.into_iter().min_by_key(|(i, _)| *i) {
        None => Ok(()),
        Some((_, e)) => Err(e),
    }
}

/// Shades the fragment rectangle `x0..x1` × `y0..y1` of a
/// `plan.width`×`height` target serially on seat 0, quantising into the
/// tile-local buffer `out` (row stride `(x1 - x0) * channels`).
///
/// Fragment positions stay global — pixel `(x, y)` of a rect draw is
/// bit-identical to pixel `(x, y)` of a full draw (see [`shade_rect`])
/// — so tile-level redundancy elimination can re-shade exactly the tiles
/// whose signatures went stale and splice the bytes into the target.
///
/// # Errors
///
/// Returns [`ExecError`] when the rect exceeds the plan width or target
/// height, the buffer is too small, or the kernel fails on any fragment.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_plan_rect(
    plan: &mut DrawPlan,
    samplers: &[&dyn Sampler],
    height: u32,
    x0: u32,
    x1: u32,
    y0: u32,
    y1: u32,
    channels: usize,
    out: &mut [u8],
) -> Result<(), ExecError> {
    if x0 > x1 || x1 > plan.width || y0 > y1 || y1 > height {
        return Err(ExecError::new(format!(
            "tile rect {x0}..{x1} x {y0}..{y1} outside {}x{height} target",
            plan.width
        )));
    }
    let tile_w = (x1 - x0) as usize;
    let needed = tile_w * (y1 - y0) as usize * channels;
    if out.len() < needed {
        return Err(ExecError::new(format!(
            "tile buffer holds {} bytes, rect needs {needed}",
            out.len()
        )));
    }
    if needed == 0 {
        return Ok(());
    }
    plan.ensure_seats(1)?;
    let DrawPlan {
        shader,
        table,
        seats,
        ..
    } = plan;
    shade_rect(
        &mut seats[0],
        shader,
        samplers,
        table,
        height,
        (x0, x1),
        (y0, y1),
        channels,
        out,
    )
}

/// Converts a raw fragment colour to RGBA8 exactly as the fixed-function
/// output stage does: clamp to [0, 1], scale by 255, round to nearest.
#[must_use]
pub fn quantize_rgba8(rgba: [f32; 4]) -> [u8; 4] {
    let q = |x: f32| (x.clamp(0.0, 1.0) * 255.0 + 0.5).floor() as u8;
    [q(rgba[0]), q(rgba[1]), q(rgba[2]), q(rgba[3])]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_shader::compile;

    const ENGINES: [Engine; 2] = [Engine::Scalar, Engine::Compiled];

    /// Varies per-fragment control flow and mixes a uniform in, so both
    /// tiers' uniform binding and select lowering are exercised.
    const BRANCHY: &str = "uniform float scale;\nvarying vec2 v;\n\
         void main() {\n\
           float a = v.x * scale + v.y;\n\
           if (a < 1.0) { a = sqrt(a + 1.0); } else { a = a * 0.25; }\n\
           gl_FragColor = vec4(a, fract(a * 9.0), v.x * v.y, 1.0);\n\
         }";

    fn branchy() -> (Shader, UniformValues) {
        let mut uniforms = UniformValues::new();
        uniforms.set_scalar("scale", 3.7);
        (compile(BRANCHY).unwrap(), uniforms)
    }

    fn target(w: u32, h: u32, ch: usize, data: &mut [u8]) -> RasterTarget<'_> {
        RasterTarget {
            width: w,
            height: h,
            channels: ch,
            data,
        }
    }

    #[test]
    fn interpolation_hits_corners_and_centre() {
        let c = texcoord_corners();
        assert_eq!(interpolate(&c, 0.0, 0.0)[..2], [0.0, 0.0]);
        assert_eq!(interpolate(&c, 1.0, 1.0)[..2], [1.0, 1.0]);
        assert_eq!(interpolate(&c, 0.5, 0.5)[..2], [0.5, 0.5]);
    }

    #[test]
    fn column_table_matches_interpolate_bitwise() {
        // Awkward corner values, including negatives and non-dyadic
        // fractions, at an odd width: the hoisted lerps must equal the
        // direct bilinear expression bit for bit.
        let corners = [
            [0.3, -1.7, 255.0, 0.1],
            [2.9, 0.33, -4.0, 7.7],
            [-0.6, 12.1, 3.3, 0.9],
            [1.1, -8.8, 0.77, 5.5],
        ];
        let width = 37u32;
        let table = ColumnTable::new(&[corners], width);
        for y in 0..23u32 {
            let v = (y as f32 + 0.5) / 23.0;
            for x in 0..width {
                let u = (x as f32 + 0.5) / width as f32;
                let want = interpolate(&corners, u, v);
                let got = table.value(0, x as usize, v);
                assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits));
            }
        }
    }

    /// Shades a full `w`×`h` target through a plan built from `plan`'s
    /// recycled seats (or fresh ones), leaving the plan behind for reuse.
    #[allow(clippy::too_many_arguments)]
    fn planned_bytes(
        sh: &Shader,
        uniforms: &UniformValues,
        w: u32,
        h: u32,
        ch: usize,
        engine: Engine,
        threads: usize,
        pool: &mut Option<PoolExecutor>,
        plan: &mut Option<DrawPlan>,
    ) -> Vec<u8> {
        let shader = Arc::new(sh.clone());
        let mut built = DrawPlan::build(
            &shader,
            uniforms,
            engine,
            &[texcoord_corners()],
            w,
            plan.take(),
        )
        .unwrap();
        let mut data = vec![0u8; w as usize * h as usize * ch];
        execute_plan(
            &mut built,
            &[],
            target(w, h, ch, &mut data),
            0,
            h,
            threads,
            pool,
        )
        .unwrap();
        *plan = Some(built);
        data
    }

    /// The serial scalar reference image: a fresh plan on seat 0.
    fn reference_bytes(
        sh: &Shader,
        uniforms: &UniformValues,
        w: u32,
        h: u32,
        ch: usize,
    ) -> Vec<u8> {
        planned_bytes(
            sh,
            uniforms,
            w,
            h,
            ch,
            Engine::Scalar,
            1,
            &mut None,
            &mut None,
        )
    }

    #[test]
    fn rasterizes_identity_coordinate_kernel() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v, 0.0, 1.0); }",
        )
        .unwrap();
        for engine in ENGINES {
            let got = planned_bytes(
                &sh,
                &UniformValues::new(),
                2,
                2,
                4,
                engine,
                1,
                &mut None,
                &mut None,
            );
            // Fragment centres of a 2x2 grid are at 0.25/0.75, which
            // quantise to 64/191.
            let want = [
                64, 64, 0, 255, 191, 64, 0, 255, 64, 191, 0, 255, 191, 191, 0, 255,
            ];
            assert_eq!(got, want, "{engine:?}");
        }
    }

    #[test]
    fn corner_count_mismatch_errors() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v, 0.0, 1.0); }",
        )
        .unwrap();
        let shader = Arc::new(sh);
        for engine in ENGINES {
            let r = DrawPlan::build(&shader, &UniformValues::new(), engine, &[], 1, None);
            assert!(r.unwrap_err().to_string().contains("1 varyings"));
        }
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v.x, v.y, v.x * v.y, 1.0); }",
        )
        .unwrap();
        let uniforms = UniformValues::new();
        let mut pool = None;
        // Odd sizes straddle chunk boundaries; channels 3 exercises the
        // fp24 layout.
        for &(w, h) in &[(33u32, 17u32), (64, 64), (5, 97), (1, 1)] {
            for &ch in &[3usize, 4] {
                let serial = reference_bytes(&sh, &uniforms, w, h, ch);
                for engine in ENGINES {
                    for threads in [2, 4, 8] {
                        assert_eq!(
                            planned_bytes(
                                &sh, &uniforms, w, h, ch, engine, threads, &mut pool, &mut None
                            ),
                            serial,
                            "{w}x{h}x{ch} {engine:?} at {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_engine_is_byte_identical_to_scalar() {
        let (sh, uniforms) = branchy();
        // One pool shared across every dispatch, as the context holds it;
        // plans recycled across draws exercise seat rebinding. Widths
        // around the lane count exercise full, partial and multi-batch
        // rows.
        let mut pool = None;
        let mut plan = None;
        for &(w, h) in &[(1u32, 5u32), (63, 9), (64, 3), (65, 40), (200, 11)] {
            for &ch in &[3usize, 4] {
                let scalar = reference_bytes(&sh, &uniforms, w, h, ch);
                for engine in ENGINES {
                    for threads in [1usize, 2, 4, 8] {
                        assert_eq!(
                            planned_bytes(
                                &sh, &uniforms, w, h, ch, engine, threads, &mut pool, &mut plan,
                            ),
                            scalar,
                            "{w}x{h}x{ch} {engine:?} at {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn band_draws_reassemble_the_full_image() {
        let (sh, uniforms) = branchy();
        let shader = Arc::new(sh.clone());
        let mut pool = None;
        for &(w, h) in &[(31u32, 23u32), (31, 46), (64, 64)] {
            let full = reference_bytes(&sh, &uniforms, w, h, 4);
            for engine in ENGINES {
                for bands in [2u32, 3, 7] {
                    let mut plan =
                        DrawPlan::build(&shader, &uniforms, engine, &[texcoord_corners()], w, None)
                            .unwrap();
                    let mut data = vec![0u8; w as usize * h as usize * 4];
                    let rows_per = h.div_ceil(bands);
                    let mut y0 = 0;
                    while y0 < h {
                        let y1 = (y0 + rows_per).min(h);
                        execute_plan(
                            &mut plan,
                            &[],
                            target(w, h, 4, &mut data),
                            y0,
                            y1,
                            3,
                            &mut pool,
                        )
                        .unwrap();
                        y0 = y1;
                    }
                    assert_eq!(data, full, "{w}x{h} {engine:?} in {bands} bands");
                }
            }
        }
    }

    #[test]
    fn band_outside_target_errors() {
        let sh = Arc::new(compile("void main() { gl_FragColor = vec4(1.0); }").unwrap());
        for engine in ENGINES {
            let mut plan =
                DrawPlan::build(&sh, &UniformValues::new(), engine, &[], 4, None).unwrap();
            let mut data = vec![0u8; 4 * 4 * 4];
            let r = execute_plan(
                &mut plan,
                &[],
                target(4, 4, 4, &mut data),
                2,
                9,
                1,
                &mut None,
            );
            assert!(
                r.unwrap_err().to_string().contains("row band"),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn undersized_target_buffer_errors() {
        let sh = Arc::new(compile("void main() { gl_FragColor = vec4(1.0); }").unwrap());
        for engine in ENGINES {
            let mut plan =
                DrawPlan::build(&sh, &UniformValues::new(), engine, &[], 2, None).unwrap();
            let mut data = vec![0u8; 7];
            let r = execute_plan(
                &mut plan,
                &[],
                target(2, 2, 4, &mut data),
                0,
                2,
                1,
                &mut None,
            );
            assert!(
                r.unwrap_err().to_string().contains("needs 16"),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn rect_draws_are_byte_identical_to_full_draws() {
        // Shading a tile rect in isolation induces different batch
        // boundaries than a full row, so this pins the lane-independence
        // property tile skipping rests on — for every engine, on
        // non-divisible tile grids.
        let (sh, uniforms) = branchy();
        let shader = Arc::new(sh);
        let (w, h) = (100u32, 70u32);
        for engine in ENGINES {
            let mut plan =
                DrawPlan::build(&shader, &uniforms, engine, &[texcoord_corners()], w, None)
                    .unwrap();
            let mut full = vec![0u8; w as usize * h as usize * 4];
            let mut pool = None;
            execute_plan(
                &mut plan,
                &[],
                target(w, h, 4, &mut full),
                0,
                h,
                4,
                &mut pool,
            )
            .unwrap();
            // 16- and 64-pixel tiles, both non-divisible into 100×70.
            for tile in [16u32, 64] {
                let mut assembled = vec![0u8; full.len()];
                let mut ty = 0;
                while ty < h {
                    let y1 = (ty + tile).min(h);
                    let mut tx = 0;
                    while tx < w {
                        let x1 = (tx + tile).min(w);
                        let tw = (x1 - tx) as usize;
                        let mut bytes = vec![0u8; tw * (y1 - ty) as usize * 4];
                        execute_plan_rect(&mut plan, &[], h, tx, x1, ty, y1, 4, &mut bytes)
                            .unwrap();
                        for (row, chunk) in bytes.chunks(tw * 4).enumerate() {
                            let y = ty as usize + row;
                            let at = (y * w as usize + tx as usize) * 4;
                            assembled[at..at + tw * 4].copy_from_slice(chunk);
                        }
                        tx = x1;
                    }
                    ty = y1;
                }
                assert_eq!(assembled, full, "{engine:?} tiles of {tile}");
            }
        }
    }

    #[test]
    fn column_slice_hash_sees_columns_and_content() {
        let sh =
            compile("varying vec2 v; void main() { gl_FragColor = vec4(v, 0.0, 1.0); }").unwrap();
        let shader = Arc::new(sh);
        let plan = DrawPlan::build(
            &shader,
            &UniformValues::new(),
            Engine::Scalar,
            &[texcoord_corners()],
            64,
            None,
        )
        .unwrap();
        assert_ne!(
            plan.column_slice_hash(0, 16),
            plan.column_slice_hash(16, 32)
        );
        assert_eq!(plan.column_slice_hash(0, 16), plan.column_slice_hash(0, 16));
        let mut other = texcoord_corners();
        other[1][0] = 0.25;
        let shifted = DrawPlan::build(
            &shader,
            &UniformValues::new(),
            Engine::Scalar,
            &[other],
            64,
            None,
        )
        .unwrap();
        assert_ne!(
            plan.column_slice_hash(0, 16),
            shifted.column_slice_hash(0, 16)
        );
    }

    /// A sampler that panics on fetch: kernel panics must surface as
    /// `ExecError`, never as an unwind out of the rasteriser.
    struct PanicSampler;
    impl Sampler for PanicSampler {
        fn fetch(&self, _u: f32, _v: f32) -> [f32; 4] {
            panic!("sampler exploded")
        }
    }

    #[test]
    fn planned_panic_becomes_an_error_and_pool_survives() {
        let sh = compile(
            "uniform sampler2D t;\nvarying vec2 v;\n\
             void main() { gl_FragColor = texture2D(t, v); }",
        )
        .unwrap();
        let shader = Arc::new(sh);
        let ok =
            compile("varying vec2 v; void main() { gl_FragColor = vec4(v, 0.0, 1.0); }").unwrap();
        let serial = reference_bytes(&ok, &UniformValues::new(), 32, 32, 4);
        let mut pool = None;
        for engine in ENGINES {
            let mut plan = DrawPlan::build(
                &shader,
                &UniformValues::new(),
                engine,
                &[texcoord_corners()],
                32,
                None,
            )
            .unwrap();
            let mut data = vec![0u8; 32 * 32 * 4];
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {})); // silence expected panics
            let r = execute_plan(
                &mut plan,
                &[&PanicSampler],
                target(32, 32, 4, &mut data),
                0,
                32,
                4,
                &mut pool,
            );
            std::panic::set_hook(prev);
            let e = r.unwrap_err();
            assert!(
                e.to_string().contains("sampler exploded"),
                "{engine:?}: {e}"
            );

            // The pool and the plan's seats both stay usable after a
            // panicked draw.
            let mut recycled = Some(plan);
            let bytes = planned_bytes(
                &ok,
                &UniformValues::new(),
                32,
                32,
                4,
                engine,
                4,
                &mut pool,
                &mut recycled,
            );
            assert_eq!(bytes, serial, "{engine:?}");
        }
    }

    #[test]
    fn quantization_clamps_and_rounds() {
        assert_eq!(quantize_rgba8([0.0, 1.0, -0.5, 2.0]), [0, 255, 0, 255]);
        assert_eq!(quantize_rgba8([0.5, 0.25, 0.75, 1.0]), [128, 64, 191, 255]);
        // 1/255 quantum round-trips exactly.
        let x = 37.0 / 255.0;
        assert_eq!(quantize_rgba8([x, x, x, x]), [37, 37, 37, 37]);
    }
}
