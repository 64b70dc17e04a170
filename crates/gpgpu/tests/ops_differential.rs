//! Differential coverage for the operators the config-space sweep in
//! `correctness.rs` exercises on only one engine or platform: every op
//! runs under scalar and compiled fragment execution on both paper
//! platforms, and
//!
//! 1. all engine variants must agree **bit-exactly** (the engines'
//!    equivalence contract — any drift is an engine bug, not float noise);
//! 2. the agreed result must match the `mgpu_workloads` CPU reference
//!    within the encoding tolerance.

use mgpu_gles::{Engine, Gl};
use mgpu_gpgpu::{
    Convolution3x3, DotProduct, JacobiSolver, OptConfig, Range, Reduction, Saxpy, Transpose,
};
use mgpu_tbdr::Platform;
use mgpu_workloads::{
    conv3x3_ref, dot_ref, jacobi_step_ref, max_abs_error, random_image_rgba8, random_matrix,
    reduce_sum_ref, saxpy_ref, transpose_ref,
};

/// The engine variants every op must agree across: the scalar reference
/// and the compiled closure-chain tier.
const ENGINE_VARIANTS: [(&str, Engine); 2] =
    [("scalar", Engine::Scalar), ("compiled", Engine::Compiled)];

/// Runs `op` under every engine variant on `platform`, asserts bit-exact
/// agreement, and returns the agreed floats.
fn run_variants(
    platform: &Platform,
    size: u32,
    what: &str,
    mut op: impl FnMut(&mut Gl, &OptConfig) -> Vec<f32>,
) -> Vec<f32> {
    let cfg = OptConfig::baseline().without_swap();
    let mut agreed: Option<(&'static str, Vec<f32>)> = None;
    for (name, engine) in ENGINE_VARIANTS {
        let mut gl = Gl::new(platform.clone(), size, size);
        gl.set_exec_config(gl.exec_config().with_engine(engine));
        let got = op(&mut gl, &cfg);
        match &agreed {
            None => agreed = Some((name, got)),
            Some((first, want)) => {
                let same = want.len() == got.len()
                    && want
                        .iter()
                        .zip(&got)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same,
                    "{what} on {}: engine `{name}` diverged from `{first}`",
                    platform.name
                );
            }
        }
    }
    agreed.expect("at least one variant").1
}

#[test]
fn saxpy_engines_agree_and_match_reference() {
    let n = 12usize;
    let x = random_matrix(n, 101, 0.0, 1.0);
    let y = random_matrix(n, 102, 0.0, 1.0);
    let alpha = 0.375f32;
    let want = saxpy_ref(alpha, &x, &y);
    for platform in Platform::paper_pair() {
        let got = run_variants(&platform, n as u32, "saxpy", |gl, cfg| {
            let mut op = Saxpy::new(
                gl,
                cfg,
                n as u32,
                alpha,
                x.data(),
                y.data(),
                Range::unit(),
                Range::new(0.0, 4.0),
            )
            .unwrap();
            op.step(gl).unwrap();
            op.result(gl).unwrap()
        });
        let err = max_abs_error(&got, want.data());
        assert!(err < 4e-5, "{}: err {err}", platform.name);
    }
}

#[test]
fn convolution_engines_agree_and_match_reference() {
    let (w, h) = (12u32, 12u32);
    let img = random_image_rgba8(w, h, 103);
    let sharpen = [
        0.0, -0.25, 0.0, //
        -0.25, 2.0, -0.25, //
        0.0, -0.25, 0.0,
    ];
    let want = conv3x3_ref(&img, w, h, &sharpen);
    for platform in Platform::paper_pair() {
        // Convolution yields bytes; widen to f32 for the shared harness
        // (bit-exact on bytes iff bit-exact on their exact f32 images).
        let got = run_variants(&platform, w, "conv3x3", |gl, cfg| {
            let mut op = Convolution3x3::new(gl, cfg, w, h, &sharpen, &img).unwrap();
            op.apply(gl).unwrap();
            op.result(gl)
                .unwrap()
                .iter()
                .map(|&b| f32::from(b))
                .collect()
        });
        let worst = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (*g - f32::from(*w)).abs())
            .fold(0.0f32, f32::max);
        assert!(
            worst <= 1.0,
            "{}: worst channel diff {worst}",
            platform.name
        );
    }
}

#[test]
fn jacobi_engines_agree_and_match_reference() {
    let n = 12usize;
    let u0 = random_matrix(n, 104, 0.0, 0.5);
    let f = random_matrix(n, 105, 0.0, 0.2);
    let omega = 0.9f32;
    let iters = 3usize;
    let mut want = u0.clone();
    for _ in 0..iters {
        want = jacobi_step_ref(&want, &f, omega);
    }
    for platform in Platform::paper_pair() {
        let got = run_variants(&platform, n as u32, "jacobi", |gl, cfg| {
            let mut solver = JacobiSolver::builder(n as u32)
                .omega(omega)
                .build(gl, cfg, u0.data(), f.data())
                .unwrap();
            solver.iterate(gl, iters).unwrap();
            solver.solution(gl).unwrap()
        });
        let err = max_abs_error(&got, want.data());
        assert!(err < 1e-4, "{}: err {err}", platform.name);
    }
}

#[test]
fn transpose_engines_agree_and_match_reference() {
    let n = 12usize;
    let m = random_matrix(n, 106, 0.0, 1.0);
    let want = transpose_ref(&m);
    for platform in Platform::paper_pair() {
        let got = run_variants(&platform, n as u32, "transpose", |gl, cfg| {
            let mut t = Transpose::new(gl, cfg, n as u32, m.data()).unwrap();
            t.apply(gl).unwrap();
            t.result(gl, &Range::unit()).unwrap()
        });
        let err = max_abs_error(&got, want.data());
        assert!(err < 1e-5, "{}: err {err}", platform.name);
    }
}

#[test]
fn dot_product_engines_agree_and_match_reference() {
    let n = 16u32;
    let x = random_matrix(n as usize, 107, 0.0, 1.0);
    let y = random_matrix(n as usize, 108, 0.0, 1.0);
    let want = dot_ref(&x, &y);
    for platform in Platform::paper_pair() {
        let got = run_variants(&platform, n, "dot", |gl, cfg| {
            let mut dot = DotProduct::new(gl, cfg, n, x.data(), y.data()).unwrap();
            vec![dot.run(gl).unwrap()]
        });
        let tol = (n * n) as f32 * 3e-5 + 1e-3;
        assert!(
            (got[0] - want).abs() <= tol,
            "{}: {} vs {want}",
            platform.name,
            got[0]
        );
    }
}

#[test]
fn reduction_engines_agree_and_match_reference() {
    let n = 16u32;
    let m = random_matrix(n as usize, 109, 0.0, 1.0);
    let want = reduce_sum_ref(&m);
    for platform in Platform::paper_pair() {
        let got = run_variants(&platform, n, "reduce", |gl, cfg| {
            let mut reduce = Reduction::new(gl, cfg, n, m.data()).unwrap();
            vec![reduce.run(gl).unwrap()]
        });
        let tol = (n * n) as f32 * 2e-5 + 1e-3;
        assert!(
            (got[0] - want).abs() <= tol,
            "{}: {} vs {want}",
            platform.name,
            got[0]
        );
    }
}
