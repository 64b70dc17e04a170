//! Ahead-of-time lowering of straight-line IR into fused native closures.
//!
//! [`CompiledProgram`] is the throughput tier of the fragment engine:
//! where the scalar [`Executor`](crate::Executor) decodes one instruction
//! per fragment, the compiled tier decodes each instruction **once, at
//! bind time**, lowering the (already unrolled, already inlined)
//! straight-line IR into a chain of monomorphised Rust closures over a
//! flat single-assignment plane file. Running a batch of up to [`LANES`]
//! fragments is then a plain walk of that chain — no opcode dispatch, no
//! per-instruction scratch, no register copy-back.
//!
//! Lowering rules, in order:
//!
//! 1. **Slot renumbering.** Registers are renumbered into plane *slots* in
//!    topological order: a dedicated always-zero slot first, then the
//!    shader inputs, then every instruction's destination in sequence.
//!    Because the IR is straight-line, every source slot of a step is
//!    strictly smaller than its destination slot, so each step can split
//!    the plane file once (`split_at_mut`) and write its output planes
//!    directly, with no per-instruction zero-initialise or copy-back.
//!    Registers that are never written read from the zero slot, exactly
//!    like the scalar tier's zero-initialised register file.
//! 2. **Constant folding into planes.** Uniforms and `Const` results are
//!    materialised as pre-filled constant planes at build time; any pure
//!    instruction whose sources are all constant is evaluated once at
//!    build (through the reference `eval_pure_op`, so folding is bitwise
//!    exact) and becomes a constant plane itself — no runtime step at
//!    all. This recovers the constant coordinate math that
//!    [`specialize`](crate::specialize) would fold, so draws lower the
//!    original shader.
//! 3. **Select mask pruning.** A `Select` whose mask is constant keeps
//!    only the taken branch: it lowers to plane copies of that branch.
//! 4. **MAD-chain fusion.** A run of consecutive scalar `Mad`s, each
//!    accumulating into the next (the pattern the peephole optimiser's
//!    MAD fusion emits for `acc += a * b` loops), is fused into a single
//!    step that keeps the accumulator in a stack buffer: the dead
//!    intermediate destinations are never materialised. The per-lane f32
//!    operation sequence is unchanged, so the fusion is bitwise
//!    invisible.
//! 5. **Broadcast resolution.** Width-1 sources broadcast their component
//!    0; the compiled tier resolves that to a concrete plane index per
//!    component at build time instead of testing widths at run time.
//! 6. **Texture-chain fusion.** The GPGPU kernels' load pattern —
//!    `construct coord → fetch texel → dot-unpack with constant weights →
//!    affine range decode` — is fused into one step when every
//!    intermediate has a single consumer: the coordinate planes feed the
//!    batch fetch directly, the texel stays in registers, and the dot and
//!    the `* span + lo` MAD run lane-by-lane on the just-fetched values.
//!    The texel's four planes, the coordinate's two planes and the dot's
//!    plane are never materialised, collapsing the per-fetch plane
//!    traffic (the dominant cost of the paper's fetch-bound kernels) to a
//!    single destination write. Per lane the f32 expression sequence is
//!    exactly the scalar tier's, so the fusion is bitwise invisible; a
//!    chain whose shape ultimately does not match is *materialised* — the
//!    deferred steps are emitted individually — so partial matches fall
//!    back to the unfused lowering instead of miscompiling. Fused chains
//!    with the same weights share one dot-unpack table per build.
//!
//! The contract is strict bit-identity with the scalar reference: for
//! every lane, every step evaluates exactly the f32 expressions of
//! `eval_pure_op` — same broadcast rules, same accumulation order, same
//! `mul24` truncation. The one IEEE 754 carve-out is NaN *payloads*: when
//! two different NaN bit patterns meet in one operation the propagated
//! payload is unspecified and codegen may commute the operands, so the two
//! tiers can surface different (equally valid) NaN payloads. NaN-ness
//! itself is deterministic, and the rasteriser's quantisation maps every
//! NaN to the same byte, so pipeline output stays byte-identical. The
//! differential tests in this module, the random-kernel properties in
//! `tests/compiled.rs` and the conformance lattice in `crates/conformance`
//! hold the two tiers against each other.

use crate::error::ExecError;
use crate::ir::{CmpOp, InputKind, Op, Reg, Shader};
use std::collections::HashMap;
use std::sync::Arc;

use crate::vm::{
    eval_pure_op, register_widths, truncate_to_24bit, u8_to_unorm, Sampler, UniformValues,
};

/// Number of fragments evaluated per batch.
pub const LANES: usize = 64;

/// One component plane: the same slot component across all lanes.
type Plane = [f32; LANES];

/// Mutable per-batch execution state handed to every step.
struct Lanes<'a, 'b> {
    /// The flat plane file, indexed `slot * 4 + component`.
    planes: &'a mut [Plane],
    /// Active lane count of this batch.
    n: usize,
    /// One sampler per texture unit.
    samplers: &'a [&'b dyn Sampler],
    /// AoS staging for texture batch fetches.
    fetched: &'a mut [[f32; 4]; LANES],
}

/// One lowered step: a fused, monomorphised closure over the plane file.
type Step = Box<dyn Fn(&mut Lanes<'_, '_>) -> Result<(), ExecError> + Send + Sync>;

/// A shader lowered to a chain of fused native closures, with its
/// constant planes pre-filled — the immutable, shareable half of the
/// compiled tier. Pair it with a [`CompiledCore`] (one per worker) to
/// execute batches; the program itself is read-only at run time, so one
/// build can be shared across every seat of a draw plan.
pub struct CompiledProgram {
    steps: Vec<Step>,
    /// Initial plane file: zeros everywhere except constant slots.
    init: Vec<Plane>,
    /// Flat plane base (`slot * 4`) of each varying, in declaration order.
    varying_bases: Vec<usize>,
    /// Flat plane base of the output register's slot.
    output_base: usize,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("steps", &self.steps.len())
            .field("slots", &(self.init.len() / 4))
            .field("varyings", &self.varying_bases.len())
            .finish()
    }
}

/// The mutable per-worker state of the compiled tier: a plane file cloned
/// from the program's constant-initialised template, plus fetch staging.
/// The counterpart of [`ExecCore`](crate::ExecCore) for long-lived seat
/// caches.
#[derive(Debug)]
pub struct CompiledCore {
    planes: Vec<Plane>,
    fetched: Box<[[f32; 4]; LANES]>,
}

impl CompiledCore {
    /// A fresh core for `program`, planes initialised from its template.
    #[must_use]
    pub fn new(program: &CompiledProgram) -> Self {
        CompiledCore {
            planes: program.init.clone(),
            fetched: Box::new([[0.0; 4]; LANES]),
        }
    }
}

/// Appends a 4-plane slot to the file, pre-filled when `value` is a
/// build-time constant, and returns its slot index.
fn alloc(
    init: &mut Vec<Plane>,
    consts: &mut Vec<Option<[f32; 4]>>,
    value: Option<[f32; 4]>,
) -> usize {
    let slot = consts.len();
    consts.push(value);
    let v = value.unwrap_or([0.0; 4]);
    for component in v {
        init.push([component; LANES]);
    }
    slot
}

/// Resolves the slot of `r`, defaulting to the always-zero slot for
/// registers that are never written (the scalar tier reads 0.0 there).
fn slot_or_zero(slot_of: &[Option<usize>], r: Reg) -> usize {
    slot_of
        .get(r.0 as usize)
        .copied()
        .flatten()
        .unwrap_or(ZERO_SLOT)
}

/// The dedicated always-zero, constant slot.
const ZERO_SLOT: usize = 0;

/// A texture fetch whose result is still in flight (rule 6): coordinate
/// planes resolved, texel not yet materialised. `perm`/`width` carry any
/// swizzle applied between the fetch and its consumer.
#[derive(Clone, Copy)]
struct FetchRec {
    unit: usize,
    /// Coordinate planes (u, v).
    u: usize,
    v: usize,
    /// Whether each coordinate plane is a build-time constant (uniform
    /// across lanes by construction, no runtime check needed).
    u_const: bool,
    v_const: bool,
    /// Texel component feeding logical component `c`.
    perm: [usize; 4],
    /// Logical width of the (possibly swizzled) texel value.
    width: u8,
}

/// A fetch + dot-unpack still in flight: `Σ texel[widx[c]] * weff[c]`
/// over `nc` components, accumulation order identical to the scalar
/// tier's `Dot`. `tables[c][byte]` pre-composes `u8_to_unorm(byte) *
/// weff[c]` (the identical f32 multiply, so identical bits) for the
/// raw-texel gather path.
#[derive(Clone)]
struct FetchDotRec {
    fetch: FetchRec,
    widx: [usize; 4],
    weff: [f32; 4],
    nc: usize,
    tables: Arc<[[f32; 256]; 4]>,
}

/// Dot-unpack tables of one build, keyed by component count and the
/// weights' bit patterns.
type DotTables = HashMap<(usize, [u32; 4]), Arc<[[f32; 256]; 4]>>;

/// The table pre-composing `u8_to_unorm(byte) * weff[c]` for the first
/// `nc` components, shared by every fused fetch→dot with the same
/// weights in this build.
fn dot_table(memo: &mut DotTables, weff: [f32; 4], nc: usize) -> Arc<[[f32; 256]; 4]> {
    let key: [u32; 4] = std::array::from_fn(|c| if c < nc { weff[c].to_bits() } else { 0 });
    Arc::clone(memo.entry((nc, key)).or_insert_with(|| {
        let mut tables = [[0.0f32; 256]; 4];
        for (t, w) in tables.iter_mut().zip(weff).take(nc) {
            for (byte, slot) in t.iter_mut().enumerate() {
                *slot = u8_to_unorm(byte as u8) * w;
            }
        }
        Arc::new(tables)
    }))
}

/// A value whose producing step has been deferred in the hope of fusing
/// it into its sole consumer. If the consumer's shape does not match
/// after all, the value is materialised as its unfused step instead.
enum Deferred {
    /// A two-scalar coordinate construct destined for a texture fetch,
    /// with build-time constness of each component.
    Coord {
        u: usize,
        v: usize,
        u_const: bool,
        v_const: bool,
    },
    /// A texture fetch (possibly swizzled) destined for a dot-unpack.
    Fetch(FetchRec),
    /// A fetch + dot destined for an affine (`* span + lo`) MAD.
    FetchDot(FetchDotRec),
    /// A complete fetch→dot→affine chain destined to be one multiplicand
    /// of an inner-product MAD (`acc = A * B + acc`).
    Sealed(FetchDotRec, (f32, f32)),
}

/// One multiplicand of a fully-fused inner-product MAD: either a sealed
/// fetch→dot→affine chain evaluated in-flight, or an existing plane.
enum SealedVal {
    Chain(FetchDotRec, (f32, f32)),
    Plane(usize),
}

/// Emits the unfused step for a deferred value whose consumer's shape
/// did not match after all, binding `reg` to a fresh slot.
fn materialise(
    d: Deferred,
    reg: Reg,
    init: &mut Vec<Plane>,
    consts: &mut Vec<Option<[f32; 4]>>,
    slot_of: &mut [Option<usize>],
    steps: &mut Vec<Step>,
) {
    let dst = alloc(init, consts, None) * 4;
    if let Some(entry) = slot_of.get_mut(reg.0 as usize) {
        *entry = Some(dst / 4);
    }
    let step = match d {
        Deferred::Coord { u, v, .. } => PendingStep::Copies(vec![(0, u), (1, v)]),
        Deferred::Fetch(rec) => tex_fetch_step(rec),
        Deferred::FetchDot(rec) => fetch_dot_step(rec, None),
        Deferred::Sealed(rec, post) => fetch_dot_step(rec, Some(post)),
    };
    steps.push(step.finish(dst));
}

impl CompiledProgram {
    /// Lowers `shader` against its bound `uniforms` into a closure chain.
    ///
    /// Uniforms are resolved here (becoming constant planes), so a
    /// program — like a specialised shader — is only valid for the
    /// uniform values it was built with; the draw-plan cache keys on the
    /// uniform hash for exactly this reason.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if a uniform declared by the shader has no
    /// value in `uniforms`, or an instruction is malformed.
    pub fn build(shader: &Shader, uniforms: &UniformValues) -> Result<CompiledProgram, ExecError> {
        let widths = register_widths(shader);
        let nregs = shader.reg_count as usize;
        let mut slot_of: Vec<Option<usize>> = vec![None; nregs];
        let mut init: Vec<Plane> = Vec::new();
        // Per-slot constant value, if the slot is a build-time constant.
        let mut consts: Vec<Option<[f32; 4]>> = Vec::new();

        // Slot 0: the always-zero slot.
        alloc(&mut init, &mut consts, Some([0.0; 4]));

        let mut varying_bases = Vec::new();
        for input in &shader.inputs {
            let s = match input.kind {
                InputKind::Uniform => {
                    let v = uniforms.get(&input.name).ok_or_else(|| {
                        ExecError::new(format!("uniform `{}` is not set", input.name))
                    })?;
                    alloc(&mut init, &mut consts, Some(v))
                }
                InputKind::Varying => {
                    let s = alloc(&mut init, &mut consts, None);
                    varying_bases.push(s * 4);
                    s
                }
            };
            if let Some(entry) = slot_of.get_mut(input.reg.0 as usize) {
                *entry = Some(s);
            }
        }

        // Use counts drive MAD-chain fusion: an intermediate accumulator
        // with exactly one consumer needs no plane of its own.
        let mut uses = vec![0u32; nregs];
        for instr in &shader.instrs {
            for s in &instr.srcs {
                if let Some(u) = uses.get_mut(s.0 as usize) {
                    *u += 1;
                }
            }
        }
        if let Some(u) = uses.get_mut(shader.output.0 as usize) {
            *u += 1;
        }

        // Broadcast-resolved plane of source `r`, component `c`.
        let bplane = |slot_of: &[Option<usize>], r: Reg, c: usize| -> usize {
            let s = slot_or_zero(slot_of, r);
            let pc = if widths.get(r.0 as usize).copied().unwrap_or(4) == 1 {
                0
            } else {
                c
            };
            s * 4 + pc
        };
        // Raw (no-broadcast) plane of source `r`, component `c`.
        let rplane = |slot_of: &[Option<usize>], r: Reg, c: usize| -> usize {
            slot_or_zero(slot_of, r) * 4 + c
        };

        let mut steps: Vec<Step> = Vec::new();
        let instrs = &shader.instrs;
        // Every fetch of one encoding unpacks with the same weights.
        let mut dot_tables = HashMap::new();

        // Rule 6 state: values deferred toward a fusing consumer.
        let mut deferred: Vec<Option<Deferred>> = (0..nregs).map(|_| None).collect();
        let clear = |deferred: &[Option<Deferred>], r: Reg| {
            deferred.get(r.0 as usize).is_none_or(Option::is_none)
        };
        // The single instruction consuming `d`, when `d` has exactly one
        // use, is not the output, and is not redefined before that use.
        let sole_consumer = |from: usize, d: Reg| -> Option<usize> {
            if d == shader.output || uses.get(d.0 as usize).copied().unwrap_or(0) != 1 {
                return None;
            }
            for (j, ins) in instrs.iter().enumerate().skip(from) {
                if ins.srcs.contains(&d) {
                    return Some(j);
                }
                if ins.dst == d {
                    return None;
                }
            }
            None
        };

        let mut i = 0usize;
        while i < instrs.len() {
            let instr = &instrs[i];
            let w = instr.width as usize;

            // Rule 2: fold a pure instruction with all-constant sources
            // at build time, through the reference evaluator. A deferred
            // source is never constant (its slot is still unmapped and
            // must not alias the zero slot).
            let pure = !matches!(instr.op, Op::TexFetch { .. });
            if pure
                && instr.srcs.iter().all(|r| clear(&deferred, *r))
                && instr
                    .srcs
                    .iter()
                    .all(|r| consts[slot_or_zero(&slot_of, *r)].is_some())
            {
                let narg = instr.srcs.len().min(4);
                let mut vals = [[0.0f32; 4]; 4];
                let mut wbuf = [4u8; 4];
                for (k, r) in instr.srcs.iter().take(4).enumerate() {
                    vals[k] = consts[slot_or_zero(&slot_of, *r)].unwrap_or([0.0; 4]);
                    wbuf[k] = widths.get(r.0 as usize).copied().unwrap_or(4);
                }
                let folded = eval_pure_op(&instr.op, &vals[..narg], &wbuf[..narg], instr.width)
                    .ok_or_else(|| ExecError::new("malformed instruction"))?;
                let s = alloc(&mut init, &mut consts, Some(folded));
                if let Some(entry) = slot_of.get_mut(instr.dst.0 as usize) {
                    *entry = Some(s);
                }
                i += 1;
                continue;
            }

            // Rule 6a: a two-scalar coordinate construct whose sole
            // consumer is a texture fetch never gets planes of its own.
            if instr.op == Op::Construct
                && instr.width == 2
                && instr.srcs.len() == 2
                && instr
                    .srcs
                    .iter()
                    .all(|r| widths.get(r.0 as usize).copied().unwrap_or(4) == 1)
                && instr.srcs.iter().all(|r| clear(&deferred, *r))
                && matches!(
                    sole_consumer(i + 1, instr.dst).map(|j| &instrs[j].op),
                    Some(Op::TexFetch { .. })
                )
            {
                deferred[instr.dst.0 as usize] = Some(Deferred::Coord {
                    u: rplane(&slot_of, instr.srcs[0], 0),
                    v: rplane(&slot_of, instr.srcs[1], 0),
                    u_const: consts[slot_or_zero(&slot_of, instr.srcs[0])].is_some(),
                    v_const: consts[slot_or_zero(&slot_of, instr.srcs[1])].is_some(),
                });
                i += 1;
                continue;
            }

            // Rule 6b: a texture fetch. Consume a deferred coordinate,
            // and defer the texel itself when its sole consumer can fuse
            // (a dot-unpack, possibly through a swizzle).
            if let Op::TexFetch { sampler } = instr.op {
                let coord = instr.srcs[0];
                let (u, v, u_const, v_const) =
                    match deferred.get_mut(coord.0 as usize).and_then(Option::take) {
                        Some(Deferred::Coord {
                            u,
                            v,
                            u_const,
                            v_const,
                        }) => (u, v, u_const, v_const),
                        Some(other) => {
                            materialise(
                                other,
                                coord,
                                &mut init,
                                &mut consts,
                                &mut slot_of,
                                &mut steps,
                            );
                            (
                                rplane(&slot_of, coord, 0),
                                rplane(&slot_of, coord, 1),
                                false,
                                false,
                            )
                        }
                        None => {
                            let c = consts[slot_or_zero(&slot_of, coord)].is_some();
                            (rplane(&slot_of, coord, 0), rplane(&slot_of, coord, 1), c, c)
                        }
                    };
                let rec = FetchRec {
                    unit: sampler as usize,
                    u,
                    v,
                    u_const,
                    v_const,
                    perm: [0, 1, 2, 3],
                    width: 4,
                };
                if matches!(
                    sole_consumer(i + 1, instr.dst).map(|j| &instrs[j].op),
                    Some(Op::Dot | Op::Swizzle(_))
                ) {
                    deferred[instr.dst.0 as usize] = Some(Deferred::Fetch(rec));
                } else {
                    let dst = alloc(&mut init, &mut consts, None) * 4;
                    if let Some(entry) = slot_of.get_mut(instr.dst.0 as usize) {
                        *entry = Some(dst / 4);
                    }
                    steps.push(tex_fetch_step(rec).finish(dst));
                }
                i += 1;
                continue;
            }

            // Rule 6c: a swizzle of a deferred texel folds into the fetch
            // recipe when its own sole consumer is a dot-unpack.
            if let Op::Swizzle(pattern) = instr.op {
                let s0 = instr.srcs[0];
                let fetch_deferred =
                    matches!(deferred.get(s0.0 as usize), Some(Some(Deferred::Fetch(_))));
                let fusible = fetch_deferred
                    && matches!(
                        sole_consumer(i + 1, instr.dst).map(|j| &instrs[j].op),
                        Some(Op::Dot)
                    );
                if fusible {
                    if let Some(Some(Deferred::Fetch(rec))) =
                        deferred.get_mut(s0.0 as usize).map(Option::take)
                    {
                        // value[c] = texel[rec.perm[pattern[c]]], raw reads
                        // exactly like the scalar tier's swizzle.
                        let perm = std::array::from_fn(|c| rec.perm[pattern[c].min(3) as usize]);
                        deferred[instr.dst.0 as usize] = Some(Deferred::Fetch(FetchRec {
                            perm,
                            width: instr.width,
                            ..rec
                        }));
                        i += 1;
                        continue;
                    }
                }
            }

            // Rule 6d: a dot of a deferred texel against constant weights
            // fuses — and defers once more when its sole consumer is the
            // kernels' affine `* span + lo` MAD.
            if instr.op == Op::Dot && instr.width == 1 && instr.srcs.len() >= 2 {
                let fetch_k = (0..2).find(|&k| {
                    matches!(
                        deferred.get(instr.srcs[k].0 as usize),
                        Some(Some(Deferred::Fetch(_)))
                    )
                });
                if let Some(k) = fetch_k {
                    let other = instr.srcs[1 - k];
                    let weights = if clear(&deferred, other) {
                        consts[slot_or_zero(&slot_of, other)]
                    } else {
                        None
                    };
                    if let Some(wv) = weights {
                        let Some(Some(Deferred::Fetch(rec))) =
                            deferred.get_mut(instr.srcs[k].0 as usize).map(Option::take)
                        else {
                            unreachable!("fetch_k guaranteed a deferred fetch");
                        };
                        let t_w = rec.width;
                        let w_w = widths.get(other.0 as usize).copied().unwrap_or(4);
                        let nc = t_w.max(w_w) as usize;
                        let widx =
                            std::array::from_fn(
                                |c| {
                                    if t_w == 1 {
                                        rec.perm[0]
                                    } else {
                                        rec.perm[c]
                                    }
                                },
                            );
                        let weff: [f32; 4] =
                            std::array::from_fn(|c| if w_w == 1 { wv[0] } else { wv[c] });
                        let fd = FetchDotRec {
                            fetch: rec,
                            widx,
                            weff,
                            nc,
                            tables: dot_table(&mut dot_tables, weff, nc),
                        };
                        let affine = sole_consumer(i + 1, instr.dst).is_some_and(|j| {
                            let m = &instrs[j];
                            m.op == Op::Mad
                                && m.width == 1
                                && m.srcs.len() >= 3
                                && (m.srcs[0] == instr.dst || m.srcs[1] == instr.dst)
                                && m.srcs[2] != instr.dst
                        });
                        if affine {
                            deferred[instr.dst.0 as usize] = Some(Deferred::FetchDot(fd));
                        } else {
                            let dst = alloc(&mut init, &mut consts, None) * 4;
                            if let Some(entry) = slot_of.get_mut(instr.dst.0 as usize) {
                                *entry = Some(dst / 4);
                            }
                            steps.push(fetch_dot_step(fd, None).finish(dst));
                        }
                        i += 1;
                        continue;
                    }
                }
            }

            // Rule 6e: the affine MAD consuming a deferred fetch-dot, with
            // constant scale and offset, seals the fused chain.
            if instr.op == Op::Mad && instr.width == 1 && instr.srcs.len() >= 3 {
                let fd_k = (0..2).find(|&k| {
                    matches!(
                        deferred.get(instr.srcs[k].0 as usize),
                        Some(Some(Deferred::FetchDot(_)))
                    )
                });
                if let Some(k) = fd_k {
                    let scale = instr.srcs[1 - k];
                    let offset = instr.srcs[2];
                    let post = if clear(&deferred, scale) && clear(&deferred, offset) {
                        match (
                            consts[slot_or_zero(&slot_of, scale)],
                            consts[slot_or_zero(&slot_of, offset)],
                        ) {
                            (Some(b), Some(c)) => Some((b[0], c[0])),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    let Some(Some(Deferred::FetchDot(fd))) =
                        deferred.get_mut(instr.srcs[k].0 as usize).map(Option::take)
                    else {
                        unreachable!("fd_k guaranteed a deferred fetch-dot");
                    };
                    match post {
                        Some(bc) => {
                            // Defer once more when the decoded value is a
                            // multiplicand of an inner-product MAD — the
                            // whole `acc += A * B` fuses then (rule 6f).
                            let feeds_mad = sole_consumer(i + 1, instr.dst).is_some_and(|j| {
                                let m = &instrs[j];
                                m.op == Op::Mad
                                    && m.width == 1
                                    && m.srcs.len() >= 3
                                    && (m.srcs[0] == instr.dst || m.srcs[1] == instr.dst)
                                    && m.srcs[2] != instr.dst
                            });
                            if feeds_mad {
                                deferred[instr.dst.0 as usize] = Some(Deferred::Sealed(fd, bc));
                            } else {
                                let dst = alloc(&mut init, &mut consts, None) * 4;
                                if let Some(entry) = slot_of.get_mut(instr.dst.0 as usize) {
                                    *entry = Some(dst / 4);
                                }
                                steps.push(fetch_dot_step(fd, Some(bc)).finish(dst));
                            }
                            i += 1;
                            continue;
                        }
                        None => {
                            // Shape broke (operands not constant after
                            // all): emit the fetch-dot alone and fall
                            // through to the generic MAD.
                            materialise(
                                Deferred::FetchDot(fd),
                                instr.srcs[k],
                                &mut init,
                                &mut consts,
                                &mut slot_of,
                                &mut steps,
                            );
                        }
                    }
                }
            }

            // Rule 6f: the inner-product MAD (`acc = A * B + acc`) whose
            // multiplicands are sealed chains fuses whole — the paper
            // kernels' entire loop iteration becomes one step.
            if instr.op == Op::Mad
                && instr.width == 1
                && instr.srcs.len() >= 3
                && clear(&deferred, instr.srcs[2])
                && (0..2).any(|k| {
                    matches!(
                        deferred.get(instr.srcs[k].0 as usize),
                        Some(Some(Deferred::Sealed(..)))
                    )
                })
            {
                let mut operand = |k: usize| -> SealedVal {
                    match deferred
                        .get_mut(instr.srcs[k].0 as usize)
                        .and_then(Option::take)
                    {
                        Some(Deferred::Sealed(fd, post)) => SealedVal::Chain(fd, post),
                        Some(other) => {
                            materialise(
                                other,
                                instr.srcs[k],
                                &mut init,
                                &mut consts,
                                &mut slot_of,
                                &mut steps,
                            );
                            SealedVal::Plane(rplane(&slot_of, instr.srcs[k], 0))
                        }
                        None => SealedVal::Plane(rplane(&slot_of, instr.srcs[k], 0)),
                    }
                };
                let va = operand(0);
                let vb = operand(1);
                let acc = rplane(&slot_of, instr.srcs[2], 0);
                let dst = alloc(&mut init, &mut consts, None) * 4;
                if let Some(entry) = slot_of.get_mut(instr.dst.0 as usize) {
                    *entry = Some(dst / 4);
                }
                steps.push(fused_mad_step(va, vb, acc).finish(dst));
                i += 1;
                continue;
            }

            // Rule 4: fuse a run of scalar MADs threaded through their
            // accumulator when every intermediate has a single consumer.
            if instr.op == Op::Mad
                && instr.width == 1
                && instr.srcs.len() >= 3
                && instr.srcs.iter().all(|r| clear(&deferred, *r))
            {
                let mut end = i + 1;
                while end < instrs.len() {
                    let prev = &instrs[end - 1];
                    let next = &instrs[end];
                    let chains = next.op == Op::Mad
                        && next.width == 1
                        && next.srcs.len() >= 3
                        && next.srcs[2] == prev.dst
                        && next.srcs.iter().all(|r| clear(&deferred, *r))
                        && uses.get(prev.dst.0 as usize).copied().unwrap_or(0) == 1
                        && prev.dst != shader.output;
                    if chains {
                        end += 1;
                    } else {
                        break;
                    }
                }
                if end > i + 1 {
                    // Width-1 reads always take component 0, broadcast or
                    // not, so the chain resolves to component-0 planes.
                    let acc = rplane(&slot_of, instr.srcs[2], 0);
                    let terms: Vec<(usize, usize)> = instrs[i..end]
                        .iter()
                        .map(|m| {
                            (
                                rplane(&slot_of, m.srcs[0], 0),
                                rplane(&slot_of, m.srcs[1], 0),
                            )
                        })
                        .collect();
                    let dst = alloc(&mut init, &mut consts, None) * 4;
                    if let Some(entry) = slot_of.get_mut(instrs[end - 1].dst.0 as usize) {
                        *entry = Some(dst / 4);
                    }
                    steps.push(mad_chain_step(dst, acc, terms));
                    i = end;
                    continue;
                }
            }

            // A consumer outside the fusable patterns: any still-deferred
            // source must be materialised into real planes first, or the
            // generic paths below would read it through the zero slot.
            for s in &instr.srcs {
                if let Some(d) = deferred.get_mut(s.0 as usize).and_then(Option::take) {
                    materialise(d, *s, &mut init, &mut consts, &mut slot_of, &mut steps);
                }
            }

            // Resolve per-component source planes before allocating the
            // destination, so every source index is below the split.
            let b = |k: usize, c: usize| bplane(&slot_of, instr.srcs[k], c);
            let r = |k: usize, c: usize| rplane(&slot_of, instr.srcs[k], c);
            let bcomp = |k: usize| -> [usize; 4] { std::array::from_fn(|c| b(k, c)) };

            // Rule 3: a constant-mask Select keeps only the taken branch.
            if instr.op == Op::Select {
                if let Some(m) = consts[slot_or_zero(&slot_of, instr.srcs[0])] {
                    let taken = if m[0] != 0.0 { 1 } else { 2 };
                    let pairs: Vec<(usize, usize)> = (0..w).map(|c| (c, b(taken, c))).collect();
                    let dst = alloc(&mut init, &mut consts, None) * 4;
                    if let Some(entry) = slot_of.get_mut(instr.dst.0 as usize) {
                        *entry = Some(dst / 4);
                    }
                    steps.push(copies_step(dst, pairs));
                    i += 1;
                    continue;
                }
            }

            let step = match instr.op {
                // Folded above (no sources): a `Const` never reaches here.
                Op::Const(v) => {
                    let s = alloc(&mut init, &mut consts, Some(v));
                    if let Some(entry) = slot_of.get_mut(instr.dst.0 as usize) {
                        *entry = Some(s);
                    }
                    i += 1;
                    continue;
                }
                Op::Mov => copies_step_from(w, |c| b(0, c)),
                Op::Neg => unary_step(bcomp(0), w, |x| -x),
                Op::Add => binary_step(bcomp(0), bcomp(1), w, |a, b| a + b),
                Op::Sub => binary_step(bcomp(0), bcomp(1), w, |a, b| a - b),
                Op::Mul => binary_step(bcomp(0), bcomp(1), w, |a, b| a * b),
                Op::Div => binary_step(bcomp(0), bcomp(1), w, |a, b| a / b),
                Op::Min => binary_step(bcomp(0), bcomp(1), w, |a, b| a.min(b)),
                Op::Max => binary_step(bcomp(0), bcomp(1), w, |a, b| a.max(b)),
                Op::ModOp => binary_step(bcomp(0), bcomp(1), w, |a, b| a - b * (a / b).floor()),
                Op::Pow => binary_step(bcomp(0), bcomp(1), w, |a, b| a.powf(b)),
                Op::Step => {
                    binary_step(bcomp(0), bcomp(1), w, |a, b| if b < a { 0.0 } else { 1.0 })
                }
                Op::Mad => ternary_step(bcomp(0), bcomp(1), bcomp(2), w, |a, b, c| a * b + c),
                Op::Mul24 => binary_step([r(0, 0); 4], [r(1, 0); 4], 1, |a, b| {
                    truncate_to_24bit(truncate_to_24bit(a) * truncate_to_24bit(b))
                }),
                Op::Dot => {
                    let w0 = widths.get(instr.srcs[0].0 as usize).copied().unwrap_or(4);
                    let w1 = widths.get(instr.srcs[1].0 as usize).copied().unwrap_or(4);
                    dot_step(bcomp(0), bcomp(1), w0.max(w1) as usize)
                }
                Op::Clamp => ternary_step(bcomp(0), bcomp(1), bcomp(2), w, |x, lo, hi| {
                    x.max(lo).min(hi)
                }),
                Op::Floor => unary_step(bcomp(0), w, |x| x.floor()),
                Op::Fract => unary_step(bcomp(0), w, |x| x - x.floor()),
                Op::Abs => unary_step(bcomp(0), w, |x| x.abs()),
                Op::Sqrt => unary_step(bcomp(0), w, |x| x.sqrt()),
                Op::Sin => unary_step(bcomp(0), w, |x| x.sin()),
                Op::Cos => unary_step(bcomp(0), w, |x| x.cos()),
                Op::Exp2 => unary_step(bcomp(0), w, |x| x.exp2()),
                Op::Log2 => unary_step(bcomp(0), w, |x| x.log2()),
                Op::InverseSqrt => unary_step(bcomp(0), w, |x| 1.0 / x.sqrt()),
                Op::Sign => unary_step(bcomp(0), w, |x| {
                    if x > 0.0 {
                        1.0
                    } else if x < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                }),
                Op::Mix => ternary_step(bcomp(0), bcomp(1), bcomp(2), w, |a, b, t| {
                    a * (1.0 - t) + b * t
                }),
                Op::Cmp(cmp) => {
                    let (a, b) = ([r(0, 0); 4], [r(1, 0); 4]);
                    match cmp {
                        CmpOp::Lt => binary_step(a, b, 1, |x, y| f32::from(x < y)),
                        CmpOp::Le => binary_step(a, b, 1, |x, y| f32::from(x <= y)),
                        CmpOp::Gt => binary_step(a, b, 1, |x, y| f32::from(x > y)),
                        CmpOp::Ge => binary_step(a, b, 1, |x, y| f32::from(x >= y)),
                        CmpOp::Eq => binary_step(a, b, 1, |x, y| f32::from(x == y)),
                        CmpOp::Ne => binary_step(a, b, 1, |x, y| f32::from(x != y)),
                    }
                }
                Op::And => binary_step([r(0, 0); 4], [r(1, 0); 4], 1, |a, b| {
                    f32::from(a != 0.0 && b != 0.0)
                }),
                Op::Or => binary_step([r(0, 0); 4], [r(1, 0); 4], 1, |a, b| {
                    f32::from(a != 0.0 || b != 0.0)
                }),
                Op::Not => unary_step([r(0, 0); 4], 1, |x| if x != 0.0 { 0.0 } else { 1.0 }),
                Op::Select => select_step(r(0, 0), bcomp(1), bcomp(2), w),
                Op::Swizzle(pattern) => copies_step_from(w, |c| r(0, pattern[c] as usize)),
                Op::Merge { select } => copies_step_from(w, |c| {
                    if select[c] == 0xFF {
                        r(0, c)
                    } else {
                        b(1, select[c] as usize)
                    }
                }),
                Op::Construct => {
                    let mut pairs = Vec::new();
                    let mut k = 0usize;
                    for (src_i, reg) in instr.srcs.iter().take(4).enumerate() {
                        let sw = widths.get(reg.0 as usize).copied().unwrap_or(4) as usize;
                        for c in 0..sw {
                            if k < 4 {
                                pairs.push((k, r(src_i, c)));
                                k += 1;
                            }
                        }
                    }
                    PendingStep::Copies(pairs)
                }
                // Unreachable in practice (rule 6b intercepts every
                // fetch), kept for match exhaustiveness.
                Op::TexFetch { sampler } => tex_fetch_step(FetchRec {
                    unit: sampler as usize,
                    u: r(0, 0),
                    v: r(0, 1),
                    u_const: false,
                    v_const: false,
                    perm: [0, 1, 2, 3],
                    width: 4,
                }),
            };

            let dst = alloc(&mut init, &mut consts, None) * 4;
            if let Some(entry) = slot_of.get_mut(instr.dst.0 as usize) {
                *entry = Some(dst / 4);
            }
            steps.push(step.finish(dst));
            i += 1;
        }

        let output_base = slot_or_zero(&slot_of, shader.output) * 4;
        Ok(CompiledProgram {
            steps,
            init,
            varying_bases,
            output_base,
        })
    }

    /// Runs the compiled chain for a batch of `n` fragments (`1..=LANES`)
    /// on `core` (which must have been built for — or last rebound to —
    /// this program).
    ///
    /// `varyings` is slot-major with stride [`LANES`]: the value of
    /// varying slot `s` for lane `l` lives at `varyings[s * LANES + l]`.
    /// `samplers` supplies one implementation per texture unit, and lane
    /// `l`'s colour lands in `out[l]`. Tail lanes of a partial batch may
    /// hold anything; they are never read back.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when `n` is out of range, the buffers are too
    /// small, a referenced texture unit has no sampler, or `core` belongs
    /// to a different program (plane-count mismatch).
    pub fn run(
        &self,
        core: &mut CompiledCore,
        varyings: &[[f32; 4]],
        n: usize,
        samplers: &[&dyn Sampler],
        out: &mut [[f32; 4]],
    ) -> Result<(), ExecError> {
        if core.planes.len() != self.init.len() {
            return Err(ExecError::new(
                "compiled core run with a program it was not bound to",
            ));
        }
        if n == 0 || n > LANES {
            return Err(ExecError::new(format!(
                "batch size {n} outside 1..={LANES}"
            )));
        }
        if varyings.len() < self.varying_bases.len() * LANES {
            return Err(ExecError::new(format!(
                "shader has {} varyings, {} lane-strided values provided",
                self.varying_bases.len(),
                varyings.len()
            )));
        }
        if out.len() < n {
            return Err(ExecError::new(format!(
                "output buffer holds {} lanes, batch has {n}",
                out.len()
            )));
        }
        for (slot, &base) in self.varying_bases.iter().enumerate() {
            let values = &varyings[slot * LANES..(slot + 1) * LANES];
            for c in 0..4 {
                let plane = &mut core.planes[base + c];
                for (l, v) in values[..n].iter().enumerate() {
                    plane[l] = v[c];
                }
            }
        }
        let mut lanes = Lanes {
            planes: &mut core.planes,
            n,
            samplers,
            fetched: &mut core.fetched,
        };
        for step in &self.steps {
            step(&mut lanes)?;
        }
        for (l, o) in out[..n].iter_mut().enumerate() {
            for (c, v) in o.iter_mut().enumerate() {
                *v = core.planes[self.output_base + c][l];
            }
        }
        Ok(())
    }

    /// Number of runtime steps the lowering kept (constant-folded and
    /// fused-away instructions emit none). Exposed for tests and
    /// diagnostics.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }
}

/// A step body still waiting for its destination plane base: source plane
/// indices are resolved against the pre-destination slot map, then the
/// destination is allocated and the closure sealed.
enum PendingStep {
    Unary([usize; 4], usize, fn(f32) -> f32),
    Copies(Vec<(usize, usize)>),
    Boxed(Box<dyn FnOnce(usize) -> Step>),
}

impl PendingStep {
    fn finish(self, dst: usize) -> Step {
        match self {
            PendingStep::Unary(a, w, f) => Box::new(move |lx: &mut Lanes<'_, '_>| {
                let n = lx.n;
                let (lo, hi) = lx.planes.split_at_mut(dst);
                for c in 0..w {
                    let s = &lo[a[c]];
                    let o = &mut hi[c];
                    for l in 0..n {
                        o[l] = f(s[l]);
                    }
                }
                Ok(())
            }),
            PendingStep::Copies(pairs) => Box::new(move |lx: &mut Lanes<'_, '_>| {
                let n = lx.n;
                let (lo, hi) = lx.planes.split_at_mut(dst);
                for &(c, p) in &pairs {
                    hi[c][..n].copy_from_slice(&lo[p][..n]);
                }
                Ok(())
            }),
            PendingStep::Boxed(f) => f(dst),
        }
    }
}

/// Component-wise unary step over broadcast-resolved planes.
fn unary_step(a: [usize; 4], w: usize, f: fn(f32) -> f32) -> PendingStep {
    PendingStep::Unary(a, w, f)
}

/// Plane-copy step from per-component resolved sources.
fn copies_step_from(w: usize, src: impl Fn(usize) -> usize) -> PendingStep {
    PendingStep::Copies((0..w).map(|c| (c, src(c))).collect())
}

/// Plane-copy step with a pre-built pair list (sealed immediately).
fn copies_step(dst: usize, pairs: Vec<(usize, usize)>) -> Step {
    PendingStep::Copies(pairs).finish(dst)
}

/// Component-wise binary step; `f` must be the exact scalar expression.
fn binary_step(
    a: [usize; 4],
    b: [usize; 4],
    w: usize,
    f: impl Fn(f32, f32) -> f32 + Send + Sync + 'static,
) -> PendingStep {
    PendingStep::Boxed(Box::new(move |dst| {
        Box::new(move |lx: &mut Lanes<'_, '_>| {
            let n = lx.n;
            let (lo, hi) = lx.planes.split_at_mut(dst);
            for c in 0..w {
                let (pa, pb) = (&lo[a[c]], &lo[b[c]]);
                let o = &mut hi[c];
                for l in 0..n {
                    o[l] = f(pa[l], pb[l]);
                }
            }
            Ok(())
        })
    }))
}

/// Component-wise ternary step; `f` must be the exact scalar expression.
fn ternary_step(
    a: [usize; 4],
    b: [usize; 4],
    c3: [usize; 4],
    w: usize,
    f: impl Fn(f32, f32, f32) -> f32 + Send + Sync + 'static,
) -> PendingStep {
    PendingStep::Boxed(Box::new(move |dst| {
        Box::new(move |lx: &mut Lanes<'_, '_>| {
            let n = lx.n;
            let (lo, hi) = lx.planes.split_at_mut(dst);
            for c in 0..w {
                let (pa, pb, pc) = (&lo[a[c]], &lo[b[c]], &lo[c3[c]]);
                let o = &mut hi[c];
                for l in 0..n {
                    o[l] = f(pa[l], pb[l], pc[l]);
                }
            }
            Ok(())
        })
    }))
}

/// Inner-product step: component-major accumulation, matching the scalar
/// loop's addition order per lane.
fn dot_step(a: [usize; 4], b: [usize; 4], nc: usize) -> PendingStep {
    PendingStep::Boxed(Box::new(move |dst| {
        Box::new(move |lx: &mut Lanes<'_, '_>| {
            let n = lx.n;
            let (lo, hi) = lx.planes.split_at_mut(dst);
            let o = &mut hi[0];
            o[..n].fill(0.0);
            for c in 0..nc {
                let (pa, pb) = (&lo[a[c]], &lo[b[c]]);
                for l in 0..n {
                    o[l] += pa[l] * pb[l];
                }
            }
            Ok(())
        })
    }))
}

/// Predicated-select step with a runtime mask.
fn select_step(mask: usize, t: [usize; 4], e: [usize; 4], w: usize) -> PendingStep {
    PendingStep::Boxed(Box::new(move |dst| {
        Box::new(move |lx: &mut Lanes<'_, '_>| {
            let n = lx.n;
            let (lo, hi) = lx.planes.split_at_mut(dst);
            for c in 0..w {
                let m = &lo[mask];
                let (pt, pe) = (&lo[t[c]], &lo[e[c]]);
                let o = &mut hi[c];
                for l in 0..n {
                    o[l] = if m[l] != 0.0 { pt[l] } else { pe[l] };
                }
            }
            Ok(())
        })
    }))
}

/// Texture-fetch step: batch-fetches the coordinate planes through the
/// bound sampler and transposes straight into the destination planes,
/// applying `perm` (a fused swizzle) over `width` components.
fn tex_fetch_step(rec: FetchRec) -> PendingStep {
    let FetchRec {
        unit,
        u,
        v,
        perm,
        width,
        ..
    } = rec;
    PendingStep::Boxed(Box::new(move |dst| {
        Box::new(move |lx: &mut Lanes<'_, '_>| {
            let n = lx.n;
            let sampler = *lx.samplers.get(unit).ok_or_else(|| {
                ExecError::new(format!("texture unit {unit} has no sampler bound"))
            })?;
            let (lo, hi) = lx.planes.split_at_mut(dst);
            sampler.fetch_batch(&lo[u][..n], &lo[v][..n], &mut lx.fetched[..n]);
            for (c, o) in hi.iter_mut().take(width as usize).enumerate() {
                for (l, t) in lx.fetched[..n].iter().enumerate() {
                    o[l] = t[perm[c]];
                }
            }
            Ok(())
        })
    }))
}

/// Evaluates a fused fetch→dot(→affine) chain into `out[..n]`, reading
/// coordinate planes from `lo`. Per lane the arithmetic is the scalar
/// tier's exact sequence — `acc` starts at 0.0, accumulates
/// `texel[widx[c]] * weff[c]` in component order, then optionally
/// `acc * b + a`. When every lane shares one coordinate bitwise (the
/// fixed matrix column of a row batch, say), the chain runs once and the
/// result is broadcast — the same computation, so the same bits.
fn eval_fetch_dot(
    rec: &FetchDotRec,
    post: Option<(f32, f32)>,
    lo: &[Plane],
    n: usize,
    samplers: &[&dyn Sampler],
    fetched: &mut [[f32; 4]; LANES],
    out: &mut [f32; LANES],
) -> Result<(), ExecError> {
    let sampler = *samplers.get(rec.fetch.unit).ok_or_else(|| {
        ExecError::new(format!(
            "texture unit {} has no sampler bound",
            rec.fetch.unit
        ))
    })?;
    let us = &lo[rec.fetch.u][..n];
    let vs = &lo[rec.fetch.v][..n];
    let eval = |t: &[f32; 4]| {
        let mut acc = 0.0f32;
        for c in 0..rec.nc {
            acc += t[rec.widx[c]] * rec.weff[c];
        }
        match post {
            Some((b, a)) => acc * b + a,
            None => acc,
        }
    };
    let v_uniform =
        rec.fetch.v_const || (n > 1 && vs.iter().all(|v| v.to_bits() == vs[0].to_bits()));
    let u_uniform =
        v_uniform && (rec.fetch.u_const || us.iter().all(|u| u.to_bits() == us[0].to_bits()));

    // Raw gather: index the RGBA8 bytes directly and accumulate through
    // the precomposed unorm × weight tables — the same multiplies in the
    // same order, so the same bits, without the AoS staging round trip.
    if let Some((bytes, w, h)) = sampler.raw_rgba8() {
        let (wf, hf) = (w as f32, h as f32);
        let xmax = i64::from(w) - 1;
        let ymax = i64::from(h) - 1;
        let gather = |x: usize, y: usize| -> f32 {
            let idx = (y * w as usize + x) * 4;
            let t = &bytes[idx..idx + 4];
            let mut acc = 0.0f32;
            for c in 0..rec.nc {
                acc += rec.tables[c][t[rec.widx[c]] as usize];
            }
            match post {
                Some((b, a)) => acc * b + a,
                None => acc,
            }
        };
        let xat = |u: f32| ((u * wf).floor() as i64).clamp(0, xmax) as usize;
        let yat = |v: f32| ((v * hf).floor() as i64).clamp(0, ymax) as usize;
        if u_uniform {
            out[..n].fill(gather(xat(us[0]), yat(vs[0])));
        } else if v_uniform {
            let y = yat(vs[0]);
            for (o, u) in out[..n].iter_mut().zip(us) {
                *o = gather(xat(*u), y);
            }
        } else {
            for ((o, u), v) in out[..n].iter_mut().zip(us).zip(vs) {
                *o = gather(xat(*u), yat(*v));
            }
        }
        return Ok(());
    }

    if u_uniform {
        sampler.fetch_batch(&us[..1], &vs[..1], &mut fetched[..1]);
        out[..n].fill(eval(&fetched[0]));
    } else if v_uniform {
        sampler.fetch_row_batch(us, vs[0], &mut fetched[..n]);
        for (l, t) in fetched[..n].iter().enumerate() {
            out[l] = eval(t);
        }
    } else {
        sampler.fetch_batch(us, vs, &mut fetched[..n]);
        for (l, t) in fetched[..n].iter().enumerate() {
            out[l] = eval(t);
        }
    }
    Ok(())
}

/// Fused fetch + dot-unpack (+ optional affine MAD) step: the texel never
/// touches the plane file.
fn fetch_dot_step(rec: FetchDotRec, post: Option<(f32, f32)>) -> PendingStep {
    PendingStep::Boxed(Box::new(move |dst| {
        Box::new(move |lx: &mut Lanes<'_, '_>| {
            let n = lx.n;
            let (lo, hi) = lx.planes.split_at_mut(dst);
            eval_fetch_dot(&rec, post, lo, n, lx.samplers, lx.fetched, &mut hi[0])
        })
    }))
}

/// Fully-fused inner-product step: `dst = A * B + acc`, where each
/// multiplicand is a sealed fetch→dot→affine chain evaluated on the spot
/// or an existing plane. Two texture reads, two unpacks and the
/// accumulate run per lane with only `acc` and `dst` touching the plane
/// file — the compiled tier's whole-iteration form of the paper kernels'
/// `acc += unpack(A) * unpack(B)`.
fn fused_mad_step(a: SealedVal, b: SealedVal, acc: usize) -> PendingStep {
    PendingStep::Boxed(Box::new(move |dst| {
        Box::new(move |lx: &mut Lanes<'_, '_>| {
            let n = lx.n;
            let (lo, hi) = lx.planes.split_at_mut(dst);
            let mut abuf = [0.0f32; LANES];
            let mut bbuf = [0.0f32; LANES];
            let av: &[f32] = match &a {
                SealedVal::Chain(rec, post) => {
                    eval_fetch_dot(rec, Some(*post), lo, n, lx.samplers, lx.fetched, &mut abuf)?;
                    &abuf
                }
                SealedVal::Plane(p) => &lo[*p],
            };
            let bv: &[f32] = match &b {
                SealedVal::Chain(rec, post) => {
                    eval_fetch_dot(rec, Some(*post), lo, n, lx.samplers, lx.fetched, &mut bbuf)?;
                    &bbuf
                }
                SealedVal::Plane(p) => &lo[*p],
            };
            let accp = &lo[acc];
            let o = &mut hi[0];
            for l in 0..n {
                o[l] = av[l] * bv[l] + accp[l];
            }
            Ok(())
        })
    }))
}

/// Fused MAD chain: keeps the accumulator in a stack buffer across the
/// whole run, writing only the final destination plane. Per lane the f32
/// sequence is `acc = a_k * b_k + acc` in instruction order — exactly the
/// scalar chain.
fn mad_chain_step(dst: usize, acc: usize, terms: Vec<(usize, usize)>) -> Step {
    Box::new(move |lx: &mut Lanes<'_, '_>| {
        let n = lx.n;
        let (lo, hi) = lx.planes.split_at_mut(dst);
        let mut accbuf = [0.0f32; LANES];
        accbuf[..n].copy_from_slice(&lo[acc][..n]);
        for &(pa, pb) in &terms {
            let (a, b) = (&lo[pa], &lo[pb]);
            for (l, acc) in accbuf[..n].iter_mut().enumerate() {
                // Keep the scalar tier's exact operand order (`a*b + acc`,
                // not `acc += a*b`) so even NaN-propagation cases agree.
                #[allow(clippy::assign_op_pattern)]
                {
                    *acc = a[l] * b[l] + *acc;
                }
            }
        }
        hi[0][..n].copy_from_slice(&accbuf[..n]);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;
    use crate::vm::ImageSampler;
    use crate::{compile, specialize, Executor};

    /// Differential harness: the compiled tier must match the scalar
    /// reference bit for bit, with and without uniform specialisation.
    fn check(source: &str, uniforms: &UniformValues, cases: &[[f32; 4]]) {
        let sh = compile(source).unwrap();
        let img_data: Vec<u8> = (0..4 * 4 * 4).map(|i| (i * 53 % 256) as u8).collect();
        let img = ImageSampler::new(4, 4, img_data);
        let samplers: [&dyn Sampler; 1] = [&img];
        let mut scalar = Executor::new(&sh, uniforms).unwrap();

        let n = cases.len();
        assert!(n <= LANES);
        let mut varyings = vec![[0.0f32; 4]; LANES * sh.varying_slots().count().max(1)];
        for (l, v) in cases.iter().enumerate() {
            varyings[l] = *v;
        }
        for shader in [&sh, &specialize(&sh, uniforms).unwrap()] {
            let program = CompiledProgram::build(shader, uniforms).unwrap();
            let mut core = CompiledCore::new(&program);
            let mut out = vec![[0.0f32; 4]; n];
            program
                .run(&mut core, &varyings, n, &samplers, &mut out)
                .unwrap();
            for (v, got) in cases.iter().zip(&out) {
                let want = scalar.run(&[*v], &samplers).unwrap();
                assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits));
            }
        }
    }

    #[test]
    fn arithmetic_matches_scalar() {
        check(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v.x + v.y, v.x * v.y, v.x - v.y, v.x / v.y); }",
            &UniformValues::new(),
            &[
                [3.0, 4.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [f32::NAN, 1.0, 0.0, 0.0],
                [f32::INFINITY, -2.5, 0.0, 0.0],
            ],
        );
    }

    #[test]
    fn builtins_and_uniforms_match_scalar() {
        let mut uniforms = UniformValues::new();
        uniforms.set_scalar("u_gain", 2.5);
        check(
            "uniform float u_gain;\n\
             varying vec2 v;\n\
             void main() {\n\
               float a = clamp(v.x * u_gain, 0.0, 1.0);\n\
               float b = mix(a, fract(v.y), 0.25);\n\
               float c = dot(vec2(v.x, v.y), vec2(b, a));\n\
               gl_FragColor = vec4(a, b, c, mul24(v.x, u_gain));\n\
             }",
            &uniforms,
            &[
                [0.3, 0.8, 0.0, 0.0],
                [-2.0, 5.5, 0.0, 0.0],
                [1.000_001, 0.5, 0.0, 0.0],
            ],
        );
    }

    #[test]
    fn texture_and_select_match_scalar() {
        let mut uniforms = UniformValues::new();
        uniforms.set_scalar("u_cut", 0.5);
        check(
            "uniform sampler2D t;\n\
             uniform float u_cut;\n\
             varying vec2 v;\n\
             void main() {\n\
               vec4 c = texture2D(t, v);\n\
               if (c.x < u_cut) { c = c * 2.0; } else { c = c - vec4(0.25); }\n\
               gl_FragColor = c;\n\
             }",
            &uniforms,
            &[
                [0.1, 0.1, 0.0, 0.0],
                [0.9, 0.9, 0.0, 0.0],
                [0.4, 0.6, 0.0, 0.0],
            ],
        );
    }

    #[test]
    fn unrolled_accumulator_loop_matches_scalar() {
        // The paper's sgemm shape: an unrolled `acc += A * B` loop the
        // peephole optimiser turns into a MAD chain.
        check(
            "varying vec2 v;\n\
             void main() {\n\
               float acc = v.x;\n\
               for (float i = 1.0; i <= 6.0; i += 1.0) {\n\
                 acc += (v.x + i) * (v.y - i);\n\
               }\n\
               gl_FragColor = vec4(acc);\n\
             }",
            &UniformValues::new(),
            &[[0.25, 0.75, 0.0, 0.0], [13.0, -2.0, 0.0, 0.0]],
        );
    }

    #[test]
    fn mad_chain_fuses_consecutive_scalar_mads() {
        // Hand-built IR: v0 = varying, then t_k = a*b + t_{k-1} three
        // times. The intermediates have one use each, so the lowering
        // must fuse the run into a single step — and stay bit-identical.
        let varying = Reg(0);
        let mut instrs = Vec::new();
        let mut acc = varying;
        for k in 1..=3u32 {
            instrs.push(Instr {
                dst: Reg(k),
                width: 1,
                op: Op::Mad,
                srcs: vec![varying, varying, acc],
            });
            acc = Reg(k);
        }
        let shader = Shader {
            instrs,
            reg_count: 4,
            inputs: vec![crate::ir::InputSlot {
                name: "v".into(),
                kind: InputKind::Varying,
                width: 1,
                reg: varying,
            }],
            samplers: vec![],
            output: acc,
        };
        let program = CompiledProgram::build(&shader, &UniformValues::new()).unwrap();
        assert_eq!(program.step_count(), 1, "three MADs must fuse to one step");

        let mut core = CompiledCore::new(&program);
        let mut varyings = vec![[0.0f32; 4]; LANES];
        varyings[0] = [1.5, 0.0, 0.0, 0.0];
        varyings[1] = [-0.75, 0.0, 0.0, 0.0];
        let mut out = [[0.0f32; 4]; 2];
        program.run(&mut core, &varyings, 2, &[], &mut out).unwrap();
        let mut exec = crate::ExecCore::new(&shader, &UniformValues::new()).unwrap();
        for (l, v) in varyings[..2].iter().enumerate() {
            let want = exec.run(&shader, &[*v], &[]).unwrap();
            assert_eq!(out[l].map(f32::to_bits), want.map(f32::to_bits));
        }
    }

    #[test]
    fn texture_dot_chain_fuses_whole_iteration() {
        // The sgemm inner-iteration shape: constant-coordinate construct →
        // fetch → dot-unpack against constant weights → affine decode,
        // twice, combined by `acc += A * B`. The whole iteration must
        // lower to a single fused step (plus the output construct), and
        // stay bit-identical to the scalar tier on row-uniform and mixed
        // coordinate batches, including NaN and out-of-range coordinates.
        let source = "uniform sampler2D t;\n\
             varying vec2 v;\n\
             void main() {\n\
               float acc = 0.25;\n\
               float A = dot(texture2D(t, vec2(0.3, v.y)), vec4(1.0, 0.5, 0.25, 0.125)) * 2.0 + 0.5;\n\
               float B = dot(texture2D(t, vec2(v.x, 0.8)), vec4(1.0, 0.5, 0.25, 0.125)) * 2.0 + 0.5;\n\
               acc += A * B;\n\
               gl_FragColor = vec4(acc, acc, acc, 1.0);\n\
             }";
        let sh = compile(source).unwrap();
        let program = CompiledProgram::build(&sh, &UniformValues::new()).unwrap();
        // Expected steps: the two varying-component extracts, ONE fused
        // inner-product step for the whole `acc += A * B` chain, and the
        // output construct — 17 instructions down to 4 passes.
        assert!(
            program.step_count() <= 4,
            "fetch/dot/affine chains must fuse into the inner-product MAD, \
             got {} steps",
            program.step_count()
        );
        // Row-uniform batch: every lane shares `v.y` (the A chain takes
        // the broadcast path) while `v.x` varies (the B chain takes the
        // row-gather path).
        check(
            source,
            &UniformValues::new(),
            &[
                [0.1, 0.5, 0.0, 0.0],
                [0.4, 0.5, 0.0, 0.0],
                [0.9, 0.5, 0.0, 0.0],
            ],
        );
        // Mixed batch: nothing uniform, plus NaN and out-of-range
        // coordinates through the clamp path.
        check(
            source,
            &UniformValues::new(),
            &[
                [0.1, 0.2, 0.0, 0.0],
                [f32::NAN, 0.9, 0.0, 0.0],
                [-3.0, f32::NAN, 0.0, 0.0],
                [7.5, -1.5, 0.0, 0.0],
            ],
        );
    }

    #[test]
    fn swizzled_texture_dot_chain_fuses() {
        // The Fp24 decode shape: the dot consumes a swizzle of the texel
        // (`c.xyz`), which must fold into the fetch recipe.
        let source = "uniform sampler2D t;\n\
             varying vec2 v;\n\
             void main() {\n\
               vec4 c = texture2D(t, vec2(0.6, v.y));\n\
               float d = dot(c.xyz, vec3(1.0, 0.5, 0.25)) * 2.0 + 0.125;\n\
               gl_FragColor = vec4(d, d, d, 1.0);\n\
             }";
        let sh = compile(source).unwrap();
        let program = CompiledProgram::build(&sh, &UniformValues::new()).unwrap();
        // Expected steps: the `v.y` extract, ONE fused step for the whole
        // construct→fetch→swizzle→dot→affine chain, the output construct.
        assert!(
            program.step_count() <= 3,
            "swizzled fetch→dot→affine must fuse, got {} steps",
            program.step_count()
        );
        check(
            source,
            &UniformValues::new(),
            &[[0.0, 0.1, 0.0, 0.0], [0.0, 0.7, 0.0, 0.0]],
        );
    }

    #[test]
    fn unfusable_texture_chains_materialise() {
        // Chains that start like the fused pattern but break its shape
        // must fall back to unfused steps, not miscompile: a dot against
        // per-lane (non-constant) weights, an affine MAD with a
        // non-constant scale, and a texel that is consumed twice.
        check(
            "uniform sampler2D t;\n\
             varying vec2 v;\n\
             void main() {\n\
               float d = dot(texture2D(t, v), vec4(v.x, 1.0, 1.0, 1.0));\n\
               gl_FragColor = vec4(d, d, d, 1.0);\n\
             }",
            &UniformValues::new(),
            &[[0.2, 0.4, 0.0, 0.0], [0.8, 0.1, 0.0, 0.0]],
        );
        check(
            "uniform sampler2D t;\n\
             varying vec2 v;\n\
             void main() {\n\
               float A = dot(texture2D(t, vec2(0.3, v.y)), vec4(1.0, 0.5, 0.25, 0.125));\n\
               float r = A * v.x + 0.5;\n\
               gl_FragColor = vec4(r, r, r, 1.0);\n\
             }",
            &UniformValues::new(),
            &[[0.3, 0.6, 0.0, 0.0], [-0.5, 0.9, 0.0, 0.0]],
        );
        check(
            "uniform sampler2D t;\n\
             varying vec2 v;\n\
             void main() {\n\
               vec4 c = texture2D(t, vec2(v.x, 0.5));\n\
               float d = dot(c, vec4(1.0, 0.5, 0.25, 0.125));\n\
               gl_FragColor = vec4(d, c.x, c.y, 1.0);\n\
             }",
            &UniformValues::new(),
            &[[0.1, 0.0, 0.0, 0.0], [0.9, 0.0, 0.0, 0.0]],
        );
    }

    #[test]
    fn constant_kernel_folds_to_zero_steps() {
        let sh = compile(
            "uniform float u;\n\
             void main() { gl_FragColor = vec4(u * 2.0, u + 1.0, 0.5, 1.0); }",
        )
        .unwrap();
        let mut uniforms = UniformValues::new();
        uniforms.set_scalar("u", 3.0);
        let program = CompiledProgram::build(&sh, &uniforms).unwrap();
        assert_eq!(
            program.step_count(),
            0,
            "an all-constant kernel must fold away entirely"
        );
        let mut core = CompiledCore::new(&program);
        let mut out = [[0.0f32; 4]; 1];
        program.run(&mut core, &[], 1, &[], &mut out).unwrap();
        assert_eq!(out[0], [6.0, 4.0, 0.5, 1.0]);
    }

    #[test]
    fn unwritten_register_reads_zero() {
        // Raw IR reading a register nothing ever writes: the scalar tier
        // reads 0.0 from its zero-initialised file; the compiled tier
        // must agree via its zero slot.
        let shader = Shader {
            instrs: vec![Instr {
                dst: Reg(2),
                width: 4,
                op: Op::Mov,
                srcs: vec![Reg(1)],
            }],
            reg_count: 3,
            inputs: vec![],
            samplers: vec![],
            output: Reg(2),
        };
        let program = CompiledProgram::build(&shader, &UniformValues::new()).unwrap();
        let mut core = CompiledCore::new(&program);
        let mut out = [[f32::NAN; 4]; 1];
        program.run(&mut core, &[], 1, &[], &mut out).unwrap();
        assert_eq!(out[0], [0.0; 4]);
    }

    #[test]
    fn validation_mirrors_the_batch_tier() {
        let sh = compile("void main() { gl_FragColor = vec4(1.0); }").unwrap();
        let program = CompiledProgram::build(&sh, &UniformValues::new()).unwrap();
        let mut core = CompiledCore::new(&program);
        let mut out = [[0.0f32; 4]; 1];
        assert!(program.run(&mut core, &[], 0, &[], &mut out).is_err());
        assert!(program
            .run(&mut core, &[], LANES + 1, &[], &mut out)
            .is_err());
        assert!(program.run(&mut core, &[], 2, &[], &mut out).is_err());
        assert!(program.run(&mut core, &[], 1, &[], &mut out).is_ok());

        let tex = compile(
            "uniform sampler2D t; varying vec2 v;\n\
             void main() { gl_FragColor = texture2D(t, v); }",
        )
        .unwrap();
        let tex_prog = CompiledProgram::build(&tex, &UniformValues::new()).unwrap();
        let mut tex_core = CompiledCore::new(&tex_prog);
        let varyings = vec![[0.0f32; 4]; LANES];
        let err = tex_prog
            .run(&mut tex_core, &varyings, 1, &[], &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("no sampler bound"));

        let missing = compile("uniform float u; void main() { gl_FragColor = vec4(u); }").unwrap();
        assert!(CompiledProgram::build(&missing, &UniformValues::new()).is_err());
    }

    #[test]
    fn partial_batches_never_read_stale_lanes() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v.x, v.y, v.x + v.y, 1.0); }",
        )
        .unwrap();
        let program = CompiledProgram::build(&sh, &UniformValues::new()).unwrap();
        let mut core = CompiledCore::new(&program);
        let mut varyings = vec![[9.0f32; 4]; LANES];
        // Full batch of junk first, then a 2-lane batch: lanes 2.. of the
        // big run must not bleed into the small run's output.
        let mut out_full = [[0.0f32; 4]; LANES];
        program
            .run(&mut core, &varyings, LANES, &[], &mut out_full)
            .unwrap();
        varyings[0] = [0.25, 0.5, 0.0, 0.0];
        varyings[1] = [0.75, 0.1, 0.0, 0.0];
        let mut out = [[0.0f32; 4]; 2];
        program.run(&mut core, &varyings, 2, &[], &mut out).unwrap();
        assert_eq!(out[0], [0.25, 0.5, 0.75, 1.0]);
        assert_eq!(out[1], [0.75, 0.1, 0.85, 1.0]);
    }
}
