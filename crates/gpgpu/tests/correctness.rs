//! Functional correctness of the GPGPU operators against CPU references,
//! across the whole optimisation-configuration space — the paper's
//! implicit claim that every §II optimisation is semantics-preserving.

use mgpu_gles::{BufferUsage, Gl};
use mgpu_gpgpu::{Convolution3x3, Encoding, GpgpuError, OptConfig, Range, Saxpy, Sgemm, Sum};
use mgpu_tbdr::Platform;
use mgpu_workloads::{
    conv3x3_ref, max_abs_error, random_image_rgba8, random_matrix, saxpy_ref, sgemm_blocked_ref,
    sum_ref, Matrix,
};

/// All configuration points exercised by the correctness sweep.
fn config_space() -> Vec<(&'static str, OptConfig)> {
    vec![
        ("baseline", OptConfig::baseline()),
        ("interval0", OptConfig::baseline().with_swap_interval_0()),
        ("noswap", OptConfig::baseline().without_swap()),
        (
            "fb",
            OptConfig::baseline()
                .without_swap()
                .with_framebuffer_rendering(),
        ),
        (
            "fb+reuse",
            OptConfig::baseline()
                .without_swap()
                .with_framebuffer_rendering()
                .with_texture_reuse(),
        ),
        (
            "tex+reuse",
            OptConfig::baseline().without_swap().with_texture_reuse(),
        ),
        (
            "vbo",
            OptConfig::baseline()
                .without_swap()
                .with_vbo(BufferUsage::StaticDraw),
        ),
        ("fp24", OptConfig::baseline().without_swap().with_fp24()),
        (
            "no-invalidate",
            OptConfig::baseline().without_swap().without_invalidate(),
        ),
        (
            "no-mad",
            OptConfig::baseline().without_swap().without_mad_fusion(),
        ),
        (
            "everything",
            OptConfig::baseline()
                .without_swap()
                .with_framebuffer_rendering()
                .with_texture_reuse()
                .with_vbo(BufferUsage::StreamDraw)
                .with_fp24(),
        ),
    ]
}

fn tolerance(cfg: &OptConfig, range_span: f32) -> f32 {
    // Quantisation noise: one encode/decode round trip per pass plus f32
    // arithmetic noise in the shader pack/unpack.
    match cfg.encoding {
        Encoding::Fp32 => range_span * 3e-6,
        Encoding::Fp24 => range_span * 3.0 / (255.0 * 255.0 * 255.0) + range_span * 3e-6,
    }
}

#[test]
fn sum_matches_reference_across_config_space() {
    let n = 16usize;
    let a = random_matrix(n, 11, 0.0, 1.0);
    let b = random_matrix(n, 22, 0.0, 1.0);
    let want = sum_ref(&a, &b);
    for platform in Platform::paper_pair() {
        for (name, cfg) in config_space() {
            let mut gl = Gl::new(platform.clone(), n as u32, n as u32);
            let mut sum = Sum::builder(n as u32)
                .build(&mut gl, &cfg, a.data(), b.data())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            sum.step(&mut gl).unwrap();
            let got = sum.result(&mut gl).unwrap();
            let err = max_abs_error(&got, want.data());
            let tol = tolerance(&cfg, 2.0);
            assert!(
                err <= tol,
                "{} / {name}: max error {err} > {tol}",
                platform.name
            );
        }
    }
}

#[test]
fn dependent_sum_accumulates_b() {
    let n = 8usize;
    let a = random_matrix(n, 5, 0.0, 1.0);
    let b = random_matrix(n, 6, 0.0, 0.1);
    let iters = 4usize;
    for (name, cfg) in config_space() {
        let mut gl = Gl::new(Platform::videocore_iv(), n as u32, n as u32);
        let mut sum = Sum::builder(n as u32)
            .dependent(true)
            .range_out(Range::new(0.0, 2.0))
            .build(&mut gl, &cfg, a.data(), b.data())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        sum.run(&mut gl, iters).unwrap();
        let got = sum.result(&mut gl).unwrap();
        // out = A + iters * B
        let want: Vec<f32> = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| x + iters as f32 * y)
            .collect();
        let err = max_abs_error(&got, &want);
        // One quantisation per pass accumulates.
        let tol = tolerance(&cfg, 2.0) * (iters as f32 + 1.0);
        assert!(err <= tol, "{name}: max error {err} > {tol}");
    }
}

#[test]
fn sgemm_matches_blocked_reference_across_config_space() {
    let n = 16usize;
    let block = 4u32;
    let a = random_matrix(n, 31, 0.0, 1.0);
    let b = random_matrix(n, 32, 0.0, 1.0);
    let want = sgemm_blocked_ref(&a, &b, block as usize);
    for platform in Platform::paper_pair() {
        for (name, cfg) in config_space() {
            let mut gl = Gl::new(platform.clone(), n as u32, n as u32);
            let mut sgemm = Sgemm::new(&mut gl, &cfg, n as u32, block, a.data(), b.data())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            sgemm.multiply(&mut gl).unwrap();
            let got = sgemm.result(&mut gl).unwrap();
            let err = max_abs_error(&got, want.data());
            // Output range is [0, n); one re-encode per pass accumulates.
            let passes = (n as u32 / block) as f32;
            let tol = tolerance(&cfg, n as f32) * (passes + 1.0) + 1e-4;
            assert!(
                err <= tol,
                "{} / {name}: max error {err} > {tol}",
                platform.name
            );
        }
    }
}

#[test]
fn sgemm_all_legal_block_sizes_agree() {
    let n = 16usize;
    let a = random_matrix(n, 41, 0.0, 1.0);
    let b = random_matrix(n, 42, 0.0, 1.0);
    let cfg = OptConfig::baseline().without_swap();
    let mut results = Vec::new();
    for block in [1u32, 2, 4, 8, 16] {
        let mut gl = Gl::new(Platform::videocore_iv(), n as u32, n as u32);
        let mut sgemm = Sgemm::new(&mut gl, &cfg, n as u32, block, a.data(), b.data()).unwrap();
        assert_eq!(sgemm.passes(), n as u32 / block);
        sgemm.multiply(&mut gl).unwrap();
        results.push(sgemm.result(&mut gl).unwrap());
    }
    for pair in results.windows(2) {
        let err = max_abs_error(&pair[0], &pair[1]);
        assert!(err < 0.02, "block sizes disagree: {err}");
    }
}

#[test]
fn sgemm_block_32_exceeds_shader_limits_on_both_platforms() {
    // The paper: "we use a block size up to 16 since in both platforms
    // higher values lead to crashes and shader compilation failures".
    let n = 64usize;
    let a = random_matrix(n, 1, 0.0, 1.0);
    let b = random_matrix(n, 2, 0.0, 1.0);
    let cfg = OptConfig::baseline();
    for platform in Platform::paper_pair() {
        let mut gl = Gl::new(platform.clone(), n as u32, n as u32);
        for block in [1u32, 2, 4, 8, 16] {
            assert!(
                Sgemm::new(&mut gl, &cfg, n as u32, block, a.data(), b.data()).is_ok(),
                "{}: block {block} should compile",
                platform.name
            );
        }
        let err = Sgemm::new(&mut gl, &cfg, n as u32, 32, a.data(), b.data()).unwrap_err();
        assert!(
            err.is_shader_limit(),
            "{}: block 32 should exceed limits, got {err}",
            platform.name
        );
    }
}

#[test]
fn saxpy_matches_reference() {
    let n = 8usize;
    let x = random_matrix(n, 71, 0.0, 1.0);
    let y = random_matrix(n, 72, 0.0, 1.0);
    let alpha = 0.75f32;
    let want = saxpy_ref(alpha, &x, &y);
    let mut gl = Gl::new(Platform::sgx_545(), n as u32, n as u32);
    let cfg = OptConfig::baseline().without_swap();
    let mut op = Saxpy::new(
        &mut gl,
        &cfg,
        n as u32,
        alpha,
        x.data(),
        y.data(),
        Range::unit(),
        Range::new(0.0, 4.0),
    )
    .unwrap();
    op.step(&mut gl).unwrap();
    let got = op.result(&mut gl).unwrap();
    assert!(max_abs_error(&got, want.data()) < 4e-5);
}

#[test]
fn saxpy_iterates_as_a_linear_recurrence() {
    let n = 8usize;
    let x = Matrix::filled(n, 0.5);
    let y = Matrix::filled(n, 0.0);
    let alpha = 0.25f32;
    let mut gl = Gl::new(Platform::videocore_iv(), n as u32, n as u32);
    let cfg = OptConfig::baseline().without_swap();
    let mut op = Saxpy::new(
        &mut gl,
        &cfg,
        n as u32,
        alpha,
        x.data(),
        y.data(),
        Range::unit(),
        Range::new(0.0, 4.0),
    )
    .unwrap();
    for _ in 0..4 {
        op.step(&mut gl).unwrap();
    }
    let got = op.result(&mut gl).unwrap();
    // y_k = k * 0.125
    assert!((got[0] - 0.5).abs() < 1e-3, "{}", got[0]);
}

#[test]
fn convolution_matches_reference() {
    let (w, h) = (16u32, 16u32);
    let img = random_image_rgba8(w, h, 99);
    let blur = [
        0.0625, 0.125, 0.0625, //
        0.125, 0.25, 0.125, //
        0.0625, 0.125, 0.0625,
    ];
    let want = conv3x3_ref(&img, w, h, &blur);
    let mut gl = Gl::new(Platform::videocore_iv(), w, h);
    let cfg = OptConfig::baseline().without_swap();
    let mut conv = Convolution3x3::new(&mut gl, &cfg, w, h, &blur, &img).unwrap();
    conv.apply(&mut gl).unwrap();
    let got = conv.result(&mut gl).unwrap();
    assert_eq!(got.len(), want.len());
    let worst = got
        .iter()
        .zip(&want)
        .map(|(g, w)| (i16::from(*g) - i16::from(*w)).unsigned_abs())
        .max()
        .unwrap();
    // Sampling positions and rounding are identical; only float noise in
    // the weighted sum differs.
    assert!(worst <= 1, "worst channel difference {worst}");
}

#[test]
fn mismatched_sizes_are_config_errors() {
    let mut gl = Gl::new(Platform::videocore_iv(), 8, 8);
    let cfg = OptConfig::baseline();
    let err = Sum::builder(8)
        .build(&mut gl, &cfg, &[0.0; 64], &[0.0; 63])
        .unwrap_err();
    assert!(matches!(err, GpgpuError::Config(_)));
    let err = Sgemm::new(&mut gl, &cfg, 8, 3, &[0.0; 64], &[0.0; 64]).unwrap_err();
    assert!(matches!(err, GpgpuError::Config(_)));
}

#[test]
fn reduction_matches_cpu_sum() {
    use mgpu_gpgpu::Reduction;
    for n in [2u32, 4, 16, 32] {
        let m = random_matrix(n as usize, 77, 0.0, 1.0);
        let want: f32 = m.data().iter().sum();
        for platform in Platform::paper_pair() {
            let mut gl = Gl::new(platform.clone(), n, n);
            let cfg = OptConfig::baseline().without_swap();
            let mut reduce = Reduction::new(&mut gl, &cfg, n, m.data()).unwrap();
            assert_eq!(reduce.passes(), n.trailing_zeros());
            let got = reduce.run(&mut gl).unwrap();
            // Quantisation: one re-encode per level over a growing range.
            let tol = (n * n) as f32 * 2e-5 + 1e-3;
            assert!(
                (got - want).abs() <= tol,
                "{} n={n}: {got} vs {want}",
                platform.name
            );
        }
    }
}

#[test]
fn reduction_is_repeatable_with_reuse() {
    use mgpu_gpgpu::Reduction;
    let n = 16u32;
    let m = random_matrix(n as usize, 78, 0.0, 1.0);
    let want: f32 = m.data().iter().sum();
    let mut gl = Gl::new(Platform::videocore_iv(), n, n);
    let cfg = OptConfig::baseline().without_swap().with_texture_reuse();
    let mut reduce = Reduction::new(&mut gl, &cfg, n, m.data()).unwrap();
    let first = reduce.run(&mut gl).unwrap();
    let second = reduce.run(&mut gl).unwrap();
    assert_eq!(first, second, "re-running must be deterministic");
    assert!((first - want).abs() < 0.1);
}

#[test]
fn reduction_rejects_bad_configurations() {
    use mgpu_gpgpu::Reduction;
    let mut gl = Gl::new(Platform::sgx_545(), 8, 8);
    // Non-power-of-two size.
    let err = Reduction::new(&mut gl, &OptConfig::baseline(), 6, &[0.0; 36]).unwrap_err();
    assert!(matches!(err, GpgpuError::Config(_)));
    // Framebuffer rendering cannot resize per level.
    let err = Reduction::new(
        &mut gl,
        &OptConfig::baseline().with_framebuffer_rendering(),
        8,
        &[0.0; 64],
    )
    .unwrap_err();
    assert!(matches!(err, GpgpuError::Config(_)));
}

/// A rejected reduction or dot product must not bill the context: after
/// each rejection, the next valid reduction reports the same simulated
/// time as it does on a fresh context.
#[test]
fn rejected_reductions_do_not_bill_the_context() {
    use mgpu_gpgpu::{DotProduct, Reduction};
    let cfg = OptConfig::baseline().without_swap();
    let framebuffer = cfg.with_framebuffer_rendering();
    let valid_total = |gl: &mut Gl| {
        let mut reduce = Reduction::new(gl, &cfg, 4, &[0.5; 16]).unwrap();
        reduce.run(gl).unwrap();
        gl.report().total_time
    };
    let fresh = valid_total(&mut Gl::new(Platform::videocore_iv(), 4, 4));

    let odd = vec![0.5f32; 1000 * 1000];
    let pow2 = vec![0.5f32; 512 * 512];
    for (what, n, data, cfg) in [
        ("size 1000", 1000, &odd, cfg),
        ("framebuffer rendering", 512, &pow2, framebuffer),
    ] {
        let mut gl = Gl::new(Platform::videocore_iv(), 4, 4);
        let err = Reduction::new(&mut gl, &cfg, n, data).unwrap_err();
        assert!(matches!(err, GpgpuError::Config(_)), "reduction, {what}");
        assert_eq!(valid_total(&mut gl), fresh, "reduction, {what}");

        let mut gl = Gl::new(Platform::videocore_iv(), 4, 4);
        let err = DotProduct::new(&mut gl, &cfg, n, data, data).unwrap_err();
        assert!(matches!(err, GpgpuError::Config(_)), "dot product, {what}");
        assert_eq!(valid_total(&mut gl), fresh, "dot product, {what}");
    }
}

#[test]
fn dot_product_matches_cpu_inner_product() {
    use mgpu_gpgpu::DotProduct;
    for n in [4u32, 16, 32] {
        let x = random_matrix(n as usize, 81, 0.0, 1.0);
        let y = random_matrix(n as usize, 82, 0.0, 1.0);
        let want: f32 = x.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut gl = Gl::new(Platform::sgx_545(), n, n);
        let cfg = OptConfig::baseline().without_swap();
        let mut dot = DotProduct::new(&mut gl, &cfg, n, x.data(), y.data()).unwrap();
        assert_eq!(dot.passes(), 1 + n.trailing_zeros());
        let got = dot.run(&mut gl).unwrap();
        let tol = (n * n) as f32 * 3e-5 + 1e-3;
        assert!((got - want).abs() <= tol, "n={n}: {got} vs {want}");
    }
}

#[test]
fn dot_product_runs_repeatedly_under_reuse() {
    use mgpu_gpgpu::DotProduct;
    let n = 8u32;
    let x = random_matrix(n as usize, 83, 0.0, 1.0);
    let y = random_matrix(n as usize, 84, 0.0, 1.0);
    let mut gl = Gl::new(Platform::videocore_iv(), n, n);
    let cfg = OptConfig::baseline().without_swap().with_texture_reuse();
    let mut dot = DotProduct::new(&mut gl, &cfg, n, x.data(), y.data()).unwrap();
    let a = dot.run(&mut gl).unwrap();
    let b = dot.run(&mut gl).unwrap();
    assert_eq!(a, b);
}

#[test]
fn jacobi_matches_cpu_reference_step_by_step() {
    use mgpu_gpgpu::JacobiSolver;
    use mgpu_workloads::jacobi_step_ref;
    let n = 16usize;
    let u0 = random_matrix(n, 91, 0.0, 0.5);
    let f = random_matrix(n, 92, 0.0, 0.2);
    let omega = 0.8f32;

    // CPU reference: 5 iterations.
    let mut want = u0.clone();
    for _ in 0..5 {
        want = jacobi_step_ref(&want, &f, omega);
    }

    for platform in Platform::paper_pair() {
        let mut gl = Gl::new(platform.clone(), n as u32, n as u32);
        let cfg = OptConfig::baseline().without_swap();
        let mut solver = JacobiSolver::builder(n as u32)
            .omega(omega)
            .build(&mut gl, &cfg, u0.data(), f.data())
            .unwrap();
        solver.iterate(&mut gl, 5).unwrap();
        let got = solver.solution(&mut gl).unwrap();
        // One re-encode per iteration accumulates quantisation.
        let err = max_abs_error(&got, want.data());
        assert!(err < 6.0 * 3e-6 + 1e-4, "{}: err {err}", platform.name);
    }
}

#[test]
fn jacobi_converges_toward_laplace_equilibrium() {
    use mgpu_gpgpu::JacobiSolver;
    // No source, uniform initial value: already at equilibrium with
    // zero-flux boundaries — iterations must not drift.
    let n = 8u32;
    let u0 = vec![0.5f32; 64];
    let f = vec![0.0f32; 64];
    let mut gl = Gl::new(Platform::videocore_iv(), n, n);
    let cfg = OptConfig::baseline().without_swap();
    let mut solver = JacobiSolver::builder(n)
        .build(&mut gl, &cfg, &u0, &f)
        .unwrap();
    solver.iterate(&mut gl, 20).unwrap();
    let u = solver.solution(&mut gl).unwrap();
    for v in &u {
        assert!((v - 0.5).abs() < 5e-4, "drifted to {v}");
    }
}

#[test]
fn jacobi_works_under_framebuffer_rendering_too() {
    use mgpu_gpgpu::JacobiSolver;
    use mgpu_workloads::jacobi_step_ref;
    let n = 8usize;
    let u0 = random_matrix(n, 93, 0.0, 0.5);
    let f = random_matrix(n, 94, 0.0, 0.1);
    let want = jacobi_step_ref(&jacobi_step_ref(&u0, &f, 1.0), &f, 1.0);

    let mut gl = Gl::new(Platform::sgx_545(), n as u32, n as u32);
    let cfg = OptConfig::baseline()
        .with_swap_interval_0()
        .with_framebuffer_rendering();
    let mut solver = JacobiSolver::builder(n as u32)
        .build(&mut gl, &cfg, u0.data(), f.data())
        .unwrap();
    solver.iterate(&mut gl, 2).unwrap();
    let got = solver.solution(&mut gl).unwrap();
    assert!(max_abs_error(&got, want.data()) < 1e-4);
}

#[test]
fn jacobi_rejects_bad_omega() {
    use mgpu_gpgpu::JacobiSolver;
    let mut gl = Gl::new(Platform::sgx_545(), 4, 4);
    let err = JacobiSolver::builder(4)
        .omega(1.5)
        .build(&mut gl, &OptConfig::baseline(), &[0.0; 16], &[0.0; 16])
        .unwrap_err();
    assert!(matches!(err, GpgpuError::Config(_)));
}

#[test]
fn transpose_matches_reference_and_involutes() {
    use mgpu_gpgpu::Transpose;
    let n = 16usize;
    let m = random_matrix(n, 95, 0.0, 1.0);
    let mut gl = Gl::new(Platform::sgx_545(), n as u32, n as u32);
    let cfg = OptConfig::baseline().without_swap();
    let mut t = Transpose::new(&mut gl, &cfg, n as u32, m.data()).unwrap();
    t.apply(&mut gl).unwrap();
    let got = t.result(&mut gl, &Range::unit()).unwrap();
    for i in 0..n {
        for j in 0..n {
            let want = m.get(j, i);
            let v = got[i * n + j];
            assert!((v - want).abs() < 1e-5, "({i},{j}): {v} vs {want}");
        }
    }
    // Transposing again restores the original exactly (pure byte moves).
    t.apply(&mut gl).unwrap();
    let back = t.result(&mut gl, &Range::unit()).unwrap();
    assert!(max_abs_error(&back, m.data()) < 1e-5);
}

#[test]
fn transpose_fetches_are_dependent() {
    // The swapped coordinate is constructed in-shader: the cost model must
    // classify the gather as dependent (the expensive strided pattern).
    use mgpu_gpgpu::kernels::transpose_kernel;
    use mgpu_shader::{compile, cost};
    let sh = compile(&transpose_kernel()).unwrap();
    let c = cost::analyze(&sh);
    assert_eq!(c.dependent_fetches(), 1);
    assert_eq!(c.streaming_fetches(), 0);
}
