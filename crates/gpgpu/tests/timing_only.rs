//! The timing-only contract. A context with functional execution off keeps
//! only lengths: operators upload same-length placeholders instead of
//! running the float↔RGBA8 codec, yet the simulated timeline is exactly a
//! functional context's. An operator built timing-only refuses to run once
//! its context turns functional, before any upload, charge or draw. And
//! framebuffer rendering, which draws the whole window surface, rejects a
//! surface that is not the operator's size.

use mgpu_gles::{BufferUsage, Gl};
use mgpu_gpgpu::{
    Convolution3x3, DotProduct, Encoding, GpgpuError, JacobiSolver, OptConfig, Pipeline,
    PipelineBuilder, Range, Reduction, Saxpy, Sgemm, Source, Sum, Transpose,
};
use mgpu_tbdr::{Platform, SimReport};

const N: u32 = 16;

/// `N`×`N` values in `[0, 1)`.
fn values(salt: usize) -> Vec<f32> {
    (0..(N * N) as usize)
        .map(|i| ((i * 31 + salt * 17) % 97) as f32 / 97.0)
        .collect()
}

/// A context of the given mode with tile skip pinned off: a functional
/// context's skipped tiles legitimately save simulated time.
fn context(platform: &Platform, functional: bool) -> Gl {
    let mut gl = Gl::new(platform.clone(), N, N);
    gl.set_exec_config(gl.exec_config().with_tile_skip(false));
    gl.set_functional(functional);
    gl
}

/// The configuration points of the contract.
fn points() -> Vec<(&'static str, OptConfig)> {
    let base = OptConfig::baseline();
    let tex = base.without_swap();
    let fb = base.with_swap_interval_0().with_framebuffer_rendering();
    vec![
        ("baseline", base),
        ("texture", tex),
        ("framebuffer", fb),
        ("framebuffer+reuse", fb.with_texture_reuse()),
        ("fp24", tex.with_fp24()),
        ("vbo", tex.with_vbo(BufferUsage::StaticDraw)),
    ]
}

/// Two passes over one input, the first reading the seeded chain.
fn seeded_pipeline(enc: Encoding) -> PipelineBuilder {
    let average = format!(
        "uniform sampler2D u_x;\nuniform sampler2D u_acc;\nvarying vec2 v_coord;\n{}{}\
         void main() {{\n  float x = unpack(texture2D(u_x, v_coord));\n  \
         float acc = unpack(texture2D(u_acc, v_coord));\n  gl_FragColor = pack((x + acc) * 0.5);\n}}\n",
        enc.decode_fn_source(),
        enc.encode_fn_source()
    );
    let bindings = [
        ("u_x", Source::Input("x".into())),
        ("u_acc", Source::Previous),
    ];
    Pipeline::builder(N)
        .input("x", &values(1), Range::unit())
        .seed(&values(2), Range::unit())
        .pass(&average, &bindings, &[])
        .pass(&average, &bindings, &[])
}

/// One entry point of a built operator.
type Entry = Box<dyn FnMut(&mut Gl) -> Result<(), GpgpuError>>;

/// Builds an operator on a context and returns one of its entry points.
type Build = fn(&mut Gl, &OptConfig) -> Result<Entry, GpgpuError>;

/// Every operator, each with the entry points that upload, charge or draw.
fn entries() -> Vec<(&'static str, Build)> {
    vec![
        ("Sum::step (reupload)", |gl, cfg| {
            let mut op = Sum::builder(N)
                .reupload(true)
                .build(gl, cfg, &values(1), &values(2))?;
            Ok(Box::new(move |gl| op.step(gl)))
        }),
        ("Sum::reset (dependent)", |gl, cfg| {
            let mut op = Sum::builder(N)
                .dependent(true)
                .build(gl, cfg, &values(1), &values(2))?;
            Ok(Box::new(move |gl| {
                op.reset(gl)?;
                op.step(gl)
            }))
        }),
        ("Sgemm::multiply", |gl, cfg| {
            let mut op = Sgemm::new(gl, cfg, N, 4, &values(1), &values(2))?;
            Ok(Box::new(move |gl| op.multiply(gl)))
        }),
        ("Sgemm::run_pass", |gl, cfg| {
            let mut op = Sgemm::new(gl, cfg, N, 8, &values(1), &values(2))?;
            Ok(Box::new(move |gl| {
                op.begin_multiply(gl)?;
                op.run_pass(gl, 1, 1)
            }))
        }),
        ("Saxpy::step", |gl, cfg| {
            let range_out = Range::new(0.0, 4.0);
            let mut op = Saxpy::new(
                gl,
                cfg,
                N,
                0.5,
                &values(1),
                &values(2),
                Range::unit(),
                range_out,
            )?;
            Ok(Box::new(move |gl| op.step(gl)))
        }),
        ("JacobiSolver::step", |gl, cfg| {
            let mut op = JacobiSolver::builder(N).build(gl, cfg, &values(1), &values(2))?;
            Ok(Box::new(move |gl| op.step(gl)))
        }),
        ("Transpose::apply", |gl, cfg| {
            let mut op = Transpose::new(gl, cfg, N, &values(1))?;
            Ok(Box::new(move |gl| op.apply(gl)))
        }),
        ("Reduction::run", |gl, cfg| {
            let mut op = Reduction::new(gl, cfg, N, &values(1))?;
            Ok(Box::new(move |gl| op.run(gl).map(drop)))
        }),
        ("DotProduct::run", |gl, cfg| {
            let mut op = DotProduct::new(gl, cfg, N, &values(1), &values(2))?;
            Ok(Box::new(move |gl| op.run(gl).map(drop)))
        }),
        ("Convolution3x3::apply", |gl, cfg| {
            let image: Vec<u8> = (0..N * N * 4).map(|i| (i * 7 % 251) as u8).collect();
            let mut op = Convolution3x3::new(gl, cfg, N, N, &[1.0 / 9.0; 9], &image)?;
            Ok(Box::new(move |gl| op.apply(gl)))
        }),
        ("Pipeline::begin_run", |gl, cfg| {
            let mut op = seeded_pipeline(cfg.encoding).build(gl, cfg)?;
            Ok(Box::new(move |gl| {
                op.begin_run(gl)?;
                for i in 0..op.passes() {
                    op.run_pass(gl, i, 1)?;
                }
                Ok(())
            }))
        }),
        ("Pipeline::run_once", |gl, cfg| {
            let mut op = seeded_pipeline(cfg.encoding).build(gl, cfg)?;
            Ok(Box::new(move |gl| op.run_once(gl)))
        }),
    ]
}

/// Builds on a context of the given mode, runs the entry point three
/// times and returns the simulated report (or the build's error).
fn run(
    platform: &Platform,
    cfg: &OptConfig,
    build: Build,
    functional: bool,
) -> Result<SimReport, GpgpuError> {
    let mut gl = context(platform, functional);
    let mut entry = build(&mut gl, cfg)?;
    for _ in 0..3 {
        entry(&mut gl)?;
    }
    gl.finish();
    Ok(gl.report())
}

#[test]
fn timing_only_reports_equal_functional_reports() {
    for platform in Platform::paper_pair() {
        for (point, cfg) in points() {
            for (entry, build) in entries() {
                let what = format!("{entry} at {point} on {}", platform.name);
                let timing = run(&platform, &cfg, build, false);
                let functional = run(&platform, &cfg, build, true);
                match (timing, functional) {
                    (Ok(timing), Ok(functional)) => assert_eq!(timing, functional, "{what}"),
                    // Reductions reject framebuffer rendering in both modes.
                    (Err(GpgpuError::Config(t)), Err(GpgpuError::Config(f))) => {
                        assert_eq!(t, f, "{what}");
                        assert!(point.starts_with("framebuffer"), "{what}: {t}");
                    }
                    (t, f) => panic!("{what}: timing-only {t:?}, functional {f:?}"),
                }
            }
        }
    }
}

/// Built timing-only, then switched functional: every entry point fails
/// with a configuration error before it uploads, charges or draws. The
/// proof is that the clock does not move, and that switching back and
/// running once matches a context that never made the failed call.
#[test]
fn timing_only_builds_refuse_functional_runs() {
    let cfg = OptConfig::baseline().without_swap();
    let platform = Platform::videocore_iv();
    for (entry, build) in entries() {
        let mut gl = context(&platform, false);
        let mut run = build(&mut gl, &cfg).unwrap();
        let before = gl.elapsed();
        gl.set_functional(true);
        let err = run(&mut gl).unwrap_err();
        assert!(matches!(err, GpgpuError::Config(_)), "{entry}: {err}");
        assert!(err.to_string().contains("timing-only"), "{entry}: {err}");
        assert_eq!(gl.elapsed(), before, "{entry}");
        gl.set_functional(false);
        run(&mut gl).unwrap();
        gl.finish();

        let mut twin = context(&platform, false);
        let mut twin_run = build(&mut twin, &cfg).unwrap();
        twin_run(&mut twin).unwrap();
        twin.finish();
        assert_eq!(gl.report(), twin.report(), "{entry}");
    }
}

/// Framebuffer rendering on a 64² surface with n = 32: the operator must
/// fail at build, before anything is charged or uploaded, and the same
/// build under texture rendering must run and return n² values.
fn check_surface_size<T>(
    build: impl Fn(&mut Gl, &OptConfig) -> Result<T, GpgpuError>,
    result_len: impl Fn(&mut Gl, T) -> usize,
) {
    let framebuffer = OptConfig::baseline()
        .with_swap_interval_0()
        .with_framebuffer_rendering();
    let texture = OptConfig::baseline().without_swap();
    let valid_total = |gl: &mut Gl| {
        let mut sum = Sum::builder(64)
            .build(gl, &texture, &[0.5; 64 * 64], &[0.25; 64 * 64])
            .unwrap();
        sum.step(gl).unwrap();
        gl.finish();
        gl.report().total_time
    };
    for platform in Platform::paper_pair() {
        let mut gl = Gl::new(platform.clone(), 64, 64);
        let err = build(&mut gl, &framebuffer).map(drop).unwrap_err();
        assert!(matches!(err, GpgpuError::Config(_)), "{err}");
        assert!(err.to_string().contains("64x64"), "{err}");
        assert_eq!(
            valid_total(&mut gl),
            valid_total(&mut Gl::new(platform.clone(), 64, 64)),
            "the rejected build billed {}",
            platform.name
        );

        let mut gl = Gl::new(platform.clone(), 64, 64);
        let op = build(&mut gl, &texture).unwrap();
        assert_eq!(result_len(&mut gl, op), 32 * 32, "{}", platform.name);
    }
}

fn small(salt: usize) -> Vec<f32> {
    (0..32 * 32)
        .map(|i| ((i + salt) % 10) as f32 / 10.0)
        .collect()
}

#[test]
fn sum_rejects_a_mismatched_surface_under_framebuffer_rendering() {
    check_surface_size(
        |gl, cfg| Sum::builder(32).build(gl, cfg, &small(1), &small(2)),
        |gl, mut op| {
            op.step(gl).unwrap();
            op.result(gl).unwrap().len()
        },
    );
}

#[test]
fn sgemm_rejects_a_mismatched_surface_under_framebuffer_rendering() {
    check_surface_size(
        |gl, cfg| Sgemm::new(gl, cfg, 32, 8, &small(1), &small(2)),
        |gl, mut op| {
            op.multiply(gl).unwrap();
            op.result(gl).unwrap().len()
        },
    );
}

#[test]
fn saxpy_rejects_a_mismatched_surface_under_framebuffer_rendering() {
    check_surface_size(
        |gl, cfg| {
            let range_out = Range::new(0.0, 4.0);
            Saxpy::new(
                gl,
                cfg,
                32,
                0.5,
                &small(1),
                &small(2),
                Range::unit(),
                range_out,
            )
        },
        |gl, mut op| {
            op.step(gl).unwrap();
            op.result(gl).unwrap().len()
        },
    );
}

#[test]
fn jacobi_rejects_a_mismatched_surface_under_framebuffer_rendering() {
    check_surface_size(
        |gl, cfg| JacobiSolver::builder(32).build(gl, cfg, &small(1), &small(2)),
        |gl, mut op| {
            op.step(gl).unwrap();
            op.solution(gl).unwrap().len()
        },
    );
}

#[test]
fn transpose_rejects_a_mismatched_surface_under_framebuffer_rendering() {
    check_surface_size(
        |gl, cfg| Transpose::new(gl, cfg, 32, &small(1)),
        |gl, mut op| {
            op.apply(gl).unwrap();
            op.result(gl, &Range::unit()).unwrap().len()
        },
    );
}

#[test]
fn convolution_rejects_a_mismatched_surface_under_framebuffer_rendering() {
    check_surface_size(
        |gl, cfg| Convolution3x3::new(gl, cfg, 32, 32, &[1.0 / 9.0; 9], &[100; 32 * 32 * 4]),
        |gl, mut op| {
            op.apply(gl).unwrap();
            op.result(gl).unwrap().len() / 4
        },
    );
}

#[test]
fn pipeline_rejects_a_mismatched_surface_under_framebuffer_rendering() {
    let copy = |enc: Encoding| {
        format!(
            "uniform sampler2D u_x;\nvarying vec2 v_coord;\n{}{}\
             void main() {{\n  gl_FragColor = pack(unpack(texture2D(u_x, v_coord)));\n}}\n",
            enc.decode_fn_source(),
            enc.encode_fn_source()
        )
    };
    check_surface_size(
        |gl, cfg| {
            Pipeline::builder(32)
                .input("x", &small(1), Range::unit())
                .pass(
                    &copy(cfg.encoding),
                    &[("u_x", Source::Input("x".into()))],
                    &[],
                )
                .build(gl, cfg)
        },
        |gl, mut op| {
            op.run_once(gl).unwrap();
            op.output(gl, &Range::unit()).unwrap().len()
        },
    );
}

/// Reductions already refuse framebuffer rendering outright, whatever the
/// surface.
#[test]
fn reductions_reject_framebuffer_rendering_on_any_surface() {
    let framebuffer = OptConfig::baseline().with_framebuffer_rendering();
    for surface in [32, 64] {
        let mut gl = Gl::new(Platform::sgx_545(), surface, surface);
        let err = Reduction::new(&mut gl, &framebuffer, 32, &small(1)).unwrap_err();
        assert!(matches!(err, GpgpuError::Config(_)), "{err}");
        let err = DotProduct::new(&mut gl, &framebuffer, 32, &small(1), &small(2)).unwrap_err();
        assert!(matches!(err, GpgpuError::Config(_)), "{err}");
    }
}
