//! Peephole optimiser over the straight-line IR.
//!
//! Implements the transformations the paper's §II ("Kernel Code") relies
//! on: **MAD fusion** (writing code so multiplies and adds combine into the
//! single-cycle multiply-add every embedded GPU ISA provides), plus the
//! standard enablers — constant folding, copy propagation and dead-code
//! elimination. Each pass can be toggled independently so the benchmark
//! harness can ablate them.

use std::collections::HashMap;

use crate::error::ExecError;
use crate::ir::{InputKind, Instr, Op, Reg, Shader};
use crate::vm::{eval_pure_op, register_widths, UniformValues};

/// Which optimisation passes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptOptions {
    /// Fold instructions whose operands are all constants.
    pub fold_constants: bool,
    /// Propagate `mov` and identity swizzles.
    pub propagate_copies: bool,
    /// Fuse `mul` + `add` into `mad`.
    pub fuse_mad: bool,
    /// Deduplicate identical pure instructions (local CSE) — important
    /// after loop unrolling, which replicates constants and address math.
    pub merge_common: bool,
    /// Remove instructions whose results are never used.
    pub eliminate_dead: bool,
}

impl OptOptions {
    /// Everything on — the driver default.
    #[must_use]
    pub const fn full() -> Self {
        OptOptions {
            fold_constants: true,
            propagate_copies: true,
            fuse_mad: true,
            merge_common: true,
            eliminate_dead: true,
        }
    }

    /// Everything off — the naive-compiler ablation.
    #[must_use]
    pub const fn none() -> Self {
        OptOptions {
            fold_constants: false,
            propagate_copies: false,
            fuse_mad: false,
            merge_common: false,
            eliminate_dead: false,
        }
    }

    /// Full optimisation minus MAD fusion, for the kernel-code ablation.
    #[must_use]
    pub const fn without_mad_fusion() -> Self {
        OptOptions {
            fuse_mad: false,
            ..OptOptions::full()
        }
    }
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions::full()
    }
}

/// Optimises `shader` in place according to `options`.
pub fn optimize(shader: &mut Shader, options: &OptOptions) {
    // Iterate to a fixpoint: folding exposes copies, fusion exposes dead
    // multiplies, and so on. Eight rounds is far beyond what any kernel in
    // the suite needs; the loop exits early on no change.
    for _ in 0..8 {
        let mut changed = false;
        if options.fold_constants {
            changed |= fold_constants(shader);
        }
        if options.propagate_copies {
            changed |= propagate_copies(shader);
        }
        if options.fuse_mad {
            changed |= fuse_mad(shader);
        }
        if options.merge_common {
            changed |= merge_common(shader);
        }
        if options.eliminate_dead {
            changed |= eliminate_dead(shader);
        }
        if !changed {
            break;
        }
    }
}

/// Bind-time specialisation: folds concrete uniform values into `shader`
/// as constants and re-optimises, producing a slimmer per-draw shader.
///
/// Each uniform register is seeded with an `Op::Const` of its bound value,
/// then the full optimisation pipeline (constant folding, copy propagation,
/// CSE, DCE) runs together with [`prune_const_selects`], which resolves
/// `Select`s whose condition became a known constant. All passes preserve
/// bitwise f32 semantics — folding evaluates through the same
/// `eval_pure_op` the interpreter uses — so the specialised shader's output
/// is byte-identical to running the original with the same uniforms.
///
/// The returned shader keeps its input declarations, so executors built
/// from it still accept (and ignore) the same `UniformValues`.
///
/// # Errors
///
/// Returns [`ExecError`] if a uniform declared by the shader has no value
/// in `uniforms` — the same condition `Executor::new` reports.
pub fn specialize(shader: &Shader, uniforms: &UniformValues) -> Result<Shader, ExecError> {
    let mut out = shader.clone();
    let mut prelude = Vec::new();
    for slot in &out.inputs {
        if slot.kind == InputKind::Uniform {
            let v = uniforms
                .get(&slot.name)
                .ok_or_else(|| ExecError::new(format!("uniform `{}` is not set", slot.name)))?;
            prelude.push(Instr {
                dst: slot.reg,
                width: slot.width,
                op: Op::Const(v),
                srcs: Vec::new(),
            });
        }
    }
    out.instrs.splice(0..0, prelude);
    let options = OptOptions::full();
    optimize(&mut out, &options);
    // Select pruning exposes new folding opportunities (the surviving
    // branch may now be all-constant), so interleave to a fixpoint.
    while prune_const_selects(&mut out) {
        optimize(&mut out, &options);
    }
    Ok(out)
}

/// Rewrites `Select`s whose condition register is a known constant into a
/// `Mov` of the taken branch. The scalar VM reads the condition's raw
/// component 0 and broadcasts either branch through the usual width rules,
/// exactly what the replacement `Mov` does — bitwise equivalence holds for
/// every lane.
fn prune_const_selects(shader: &mut Shader) -> bool {
    let widths = register_widths(shader);
    let mut consts: HashMap<Reg, [f32; 4]> = HashMap::new();
    let mut changed = false;
    for instr in &mut shader.instrs {
        if let Op::Const(v) = instr.op {
            consts.insert(instr.dst, v);
            continue;
        }
        if matches!(instr.op, Op::Select) {
            if let Some(mask) = consts.get(&instr.srcs[0]) {
                let taken = if mask[0] != 0.0 {
                    instr.srcs[1]
                } else {
                    instr.srcs[2]
                };
                // A wider-than-dst source would later be aliased through
                // copy propagation without the narrowing re-read; skip the
                // (never lowered in practice) mismatch instead of risking
                // a semantic change.
                let src_w = widths[taken.0 as usize];
                if src_w == instr.width || src_w == 1 {
                    instr.op = Op::Mov;
                    instr.srcs = vec![taken];
                    changed = true;
                }
            }
        }
    }
    changed
}

fn fold_constants(shader: &mut Shader) -> bool {
    let widths = register_widths(shader);
    let mut consts: HashMap<Reg, [f32; 4]> = HashMap::new();
    let mut changed = false;
    for instr in &mut shader.instrs {
        if let Op::Const(v) = instr.op {
            consts.insert(instr.dst, v);
            continue;
        }
        if matches!(instr.op, Op::TexFetch { .. }) {
            continue;
        }
        let all_const = instr.srcs.iter().all(|s| consts.contains_key(s));
        if !all_const {
            continue;
        }
        let srcs: Vec<[f32; 4]> = instr.srcs.iter().map(|s| consts[s]).collect();
        let src_widths: Vec<u8> = instr.srcs.iter().map(|s| widths[s.0 as usize]).collect();
        if let Some(v) = eval_pure_op(&instr.op, &srcs, &src_widths, instr.width) {
            instr.op = Op::Const(v);
            instr.srcs.clear();
            consts.insert(instr.dst, v);
            changed = true;
        }
    }
    changed
}

fn propagate_copies(shader: &mut Shader) -> bool {
    let widths = register_widths(shader);
    let mut alias: HashMap<Reg, Reg> = HashMap::new();
    let mut changed = false;
    for instr in &mut shader.instrs {
        // Rewrite sources through known aliases first.
        for s in &mut instr.srcs {
            if let Some(&a) = alias.get(s) {
                *s = a;
                changed = true;
            }
        }
        let identity_swizzle = match instr.op {
            Op::Mov => true,
            Op::Swizzle(p) => {
                let src_w = widths[instr.srcs[0].0 as usize];
                instr.width == src_w && (0..instr.width as usize).all(|c| p[c] == c as u8)
            }
            _ => false,
        };
        if identity_swizzle {
            alias.insert(instr.dst, instr.srcs[0]);
        }
    }
    changed
}

fn fuse_mad(shader: &mut Shader) -> bool {
    // Map each register to the (a, b) of the Mul that defines it.
    let mut muls: HashMap<Reg, (Reg, Reg)> = HashMap::new();
    let mut changed = false;
    let widths = register_widths(shader);
    for idx in 0..shader.instrs.len() {
        let instr = &shader.instrs[idx];
        match instr.op {
            Op::Mul => {
                muls.insert(instr.dst, (instr.srcs[0], instr.srcs[1]));
            }
            Op::Add => {
                let (x, y) = (instr.srcs[0], instr.srcs[1]);
                // Prefer fusing the side whose Mul width matches the add's
                // (scalar-broadcast fusions stay correct either way because
                // the VM broadcasts width-1 operands).
                let candidate = [x, y]
                    .into_iter()
                    .find(|r| muls.contains_key(r) && widths[r.0 as usize] == instr.width)
                    .or_else(|| [x, y].into_iter().find(|r| muls.contains_key(r)));
                if let Some(m) = candidate {
                    let (a, b) = muls[&m];
                    let other = if m == x { y } else { x };
                    let instr = &mut shader.instrs[idx];
                    instr.op = Op::Mad;
                    instr.srcs = vec![a, b, other];
                    changed = true;
                }
            }
            _ => {}
        }
    }
    changed
}

/// Builds a structural key for an instruction, with float payloads keyed
/// by their bit patterns so `-0.0`/`NaN` never alias `0.0`.
fn instr_key(op: &Op, srcs: &[Reg], width: u8) -> String {
    use std::fmt::Write as _;
    let mut key = String::new();
    match op {
        Op::Const(v) => {
            let _ = write!(
                key,
                "const:{:08x}{:08x}{:08x}{:08x}",
                v[0].to_bits(),
                v[1].to_bits(),
                v[2].to_bits(),
                v[3].to_bits()
            );
        }
        Op::Swizzle(p) => {
            let _ = write!(key, "swz:{p:?}");
        }
        Op::Merge { select } => {
            let _ = write!(key, "merge:{select:?}");
        }
        Op::TexFetch { sampler } => {
            let _ = write!(key, "tex:{sampler}");
        }
        other => {
            let _ = write!(key, "{other:?}");
        }
    }
    let _ = write!(key, "/w{width}");
    for s in srcs {
        let _ = write!(key, "/r{}", s.0);
    }
    key
}

/// Local common-subexpression elimination: the first occurrence of each
/// structurally identical pure instruction wins; later duplicates become
/// aliases rewritten into their users. Texture fetches participate too —
/// re-fetching the same coordinate from the same unit is pure in GLES2
/// (no derivatives in the kernel subset), and real compilers merge them.
fn merge_common(shader: &mut Shader) -> bool {
    let mut seen: HashMap<String, Reg> = HashMap::new();
    let mut alias: HashMap<Reg, Reg> = HashMap::new();
    let mut changed = false;
    for instr in &mut shader.instrs {
        for s in &mut instr.srcs {
            if let Some(&a) = alias.get(s) {
                *s = a;
                changed = true;
            }
        }
        let key = instr_key(&instr.op, &instr.srcs, instr.width);
        match seen.get(&key) {
            Some(&first) => {
                // Rewrite this duplicate as a Mov so copy propagation and
                // DCE clean it up on the next round.
                alias.insert(instr.dst, first);
                instr.op = Op::Mov;
                instr.srcs = vec![first];
                changed = true;
            }
            None => {
                seen.insert(key, instr.dst);
            }
        }
    }
    changed
}

fn eliminate_dead(shader: &mut Shader) -> bool {
    let mut live = vec![false; shader.reg_count as usize];
    live[shader.output.0 as usize] = true;
    for instr in shader.instrs.iter().rev() {
        if live[instr.dst.0 as usize] {
            for s in &instr.srcs {
                live[s.0 as usize] = true;
            }
        }
    }
    let before = shader.instrs.len();
    shader.instrs.retain(|i| live[i.dst.0 as usize]);
    shader.instrs.len() != before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::parser::parse;
    use crate::vm::{Executor, UniformValues};

    fn build(src: &str, options: &OptOptions) -> Shader {
        let mut sh = lower(&parse(src).unwrap()).unwrap();
        optimize(&mut sh, options);
        sh
    }

    #[test]
    fn mad_fusion_reduces_instruction_count() {
        let src = "
            varying vec2 v;
            uniform float k;
            void main() { gl_FragColor = vec4(v.x * v.y + k); }
        ";
        let fused = build(src, &OptOptions::full());
        let plain = build(src, &OptOptions::without_mad_fusion());
        assert!(fused.instrs.iter().any(|i| i.op == Op::Mad));
        assert!(!plain.instrs.iter().any(|i| i.op == Op::Mad));
        assert!(fused.instruction_count() < plain.instruction_count());
    }

    #[test]
    fn optimisation_preserves_semantics() {
        let src = "
            varying vec2 v;
            void main() {
                float acc = 0.0;
                for (float i = 1.0; i <= 3.0; i += 1.0) {
                    acc += v.x * i + v.y;
                }
                gl_FragColor = vec4(acc, clamp(acc, 0.0, 1.0), fract(acc), 1.0);
            }
        ";
        let opt = build(src, &OptOptions::full());
        let raw = build(src, &OptOptions::none());
        let mut e1 = Executor::new(&opt, &UniformValues::new()).unwrap();
        let mut e2 = Executor::new(&raw, &UniformValues::new()).unwrap();
        for (x, y) in [(0.1f32, 0.9f32), (2.0, -1.0), (0.0, 0.0)] {
            let a = e1.run(&[[x, y, 0.0, 0.0]], &[]).unwrap();
            let b = e2.run(&[[x, y, 0.0, 0.0]], &[]).unwrap();
            for c in 0..4 {
                assert!((a[c] - b[c]).abs() < 1e-5, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn constant_folding_collapses_const_math() {
        // blk_n-style uniform keeps things non-constant; pure const math
        // folds to a single Const.
        let sh = build(
            "void main() { gl_FragColor = vec4(1.0 + 2.0 * 3.0); }",
            &OptOptions::full(),
        );
        // Everything folds into constants; no arithmetic survives.
        assert!(sh
            .instrs
            .iter()
            .all(|i| matches!(i.op, Op::Const(_) | Op::Swizzle(_))));
    }

    #[test]
    fn dead_code_is_removed() {
        let src = "
            varying vec2 v;
            void main() {
                float unused = v.x * v.y + 3.0;
                float unused2 = sqrt(unused);
                gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0);
            }
        ";
        let opt = build(src, &OptOptions::full());
        let raw = build(src, &OptOptions::none());
        assert!(opt.instruction_count() < raw.instruction_count());
        assert!(!opt.instrs.iter().any(|i| i.op == Op::Sqrt));
    }

    #[test]
    fn unused_texture_fetches_are_dce_candidates() {
        let src = "
            uniform sampler2D t;
            varying vec2 v;
            void main() {
                vec4 unused = texture2D(t, v);
                gl_FragColor = vec4(v, 0.0, 1.0);
            }
        ";
        let opt = build(src, &OptOptions::full());
        assert_eq!(opt.texture_fetch_count(), 0);
    }

    #[test]
    fn optimizer_is_idempotent() {
        let src = "
            varying vec2 v;
            uniform float k;
            void main() { gl_FragColor = vec4(v.x * k + v.y, v.y * k + 1.0, 0.0, 1.0); }
        ";
        let mut once = build(src, &OptOptions::full());
        let snapshot = once.clone();
        optimize(&mut once, &OptOptions::full());
        assert_eq!(once, snapshot);
    }

    #[test]
    fn specialisation_folds_uniforms_and_preserves_bits() {
        let src = "
            uniform float k;
            uniform float cut;
            varying vec2 v;
            void main() {
                float x = v.x * k + k * 2.0;
                if (k < cut) { x = x + 1.0; } else { x = x * 0.5; }
                gl_FragColor = vec4(x, k, v.y, 1.0);
            }
        ";
        let sh = build(src, &OptOptions::full());
        let mut uniforms = UniformValues::new();
        uniforms.set_scalar("k", 3.0);
        uniforms.set_scalar("cut", 2.0);
        let spec = specialize(&sh, &uniforms).unwrap();
        // The branch on two now-constant uniforms must be resolved away.
        assert!(!spec.instrs.iter().any(|i| matches!(i.op, Op::Select)));
        assert!(spec.instruction_count() < sh.instruction_count());
        let mut orig = Executor::new(&sh, &uniforms).unwrap();
        let mut fast = Executor::new(&spec, &uniforms).unwrap();
        for v in [[0.3f32, -1.5, 0.0, 0.0], [f32::NAN, 7.0, 0.0, 0.0]] {
            let a = orig.run(&[v], &[]).unwrap();
            let b = fast.run(&[v], &[]).unwrap();
            assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits));
        }
    }

    #[test]
    fn specialisation_requires_all_uniforms() {
        let sh = build(
            "uniform float k; void main() { gl_FragColor = vec4(k); }",
            &OptOptions::full(),
        );
        assert!(specialize(&sh, &UniformValues::new()).is_err());
    }

    #[test]
    fn cse_merges_duplicate_constants_and_subexpressions() {
        let src = "
            varying vec2 v;
            void main() {
                float a = v.x * 255.0 + 1.0;
                float b = v.x * 255.0 + 2.0;
                gl_FragColor = vec4(a, b, a, b);
            }
        ";
        let merged = build(src, &OptOptions::full());
        let unmerged = build(
            src,
            &OptOptions {
                merge_common: false,
                ..OptOptions::full()
            },
        );
        assert!(merged.instruction_count() < unmerged.instruction_count());
        // The shared `v.x * 255.0` must survive exactly once.
        let muls = merged
            .instrs
            .iter()
            .filter(|i| matches!(i.op, Op::Mul | Op::Mad))
            .count();
        assert!(muls <= 2, "{merged}");
    }

    #[test]
    fn cse_merges_identical_texture_fetches() {
        let src = "
            uniform sampler2D t;
            varying vec2 v;
            void main() {
                vec4 a = texture2D(t, v);
                vec4 b = texture2D(t, v);
                gl_FragColor = a + b;
            }
        ";
        let sh = build(src, &OptOptions::full());
        assert_eq!(sh.texture_fetch_count(), 1);
    }

    #[test]
    fn cse_does_not_merge_across_different_bits() {
        // 0.0 and -0.0 have different bit patterns; CSE must keep both.
        let src = "
            varying vec2 v;
            void main() { gl_FragColor = vec4(v.x + 0.0, v.x + (-0.0), 0.0, 1.0); }
        ";
        let sh = build(src, &OptOptions::full());
        let mut e = crate::vm::Executor::new(&sh, &crate::vm::UniformValues::new()).unwrap();
        let out = e.run(&[[2.0, 0.0, 0.0, 0.0]], &[]).unwrap();
        assert_eq!(out[0], 2.0);
        assert_eq!(out[1], 2.0);
    }

    #[test]
    fn cse_preserves_semantics_of_unrolled_loops() {
        let src = "
            varying vec2 v;
            void main() {
                float acc = 0.0;
                for (float i = 0.0; i < 8.0; i += 1.0) {
                    acc += v.x * 0.125;
                }
                gl_FragColor = vec4(acc);
            }
        ";
        let merged = build(src, &OptOptions::full());
        let raw = build(src, &OptOptions::none());
        assert!(merged.instruction_count() < raw.instruction_count());
        let mut e1 = crate::vm::Executor::new(&merged, &crate::vm::UniformValues::new()).unwrap();
        let mut e2 = crate::vm::Executor::new(&raw, &crate::vm::UniformValues::new()).unwrap();
        for x in [0.0f32, 1.0, -3.5] {
            let a = e1.run(&[[x, 0.0, 0.0, 0.0]], &[]).unwrap();
            let b = e2.run(&[[x, 0.0, 0.0, 0.0]], &[]).unwrap();
            assert_eq!(a, b);
        }
    }
}
