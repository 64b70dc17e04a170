//! Golden determinism tests for the parallel fragment engine.
//!
//! The tentpole guarantee: host-side threading and the fragment-engine
//! tier are *purely* wall-clock knobs. For `sum` and blocked `sgemm`
//! (block 16) on both platforms, running at 1, 2, 4 and 8 threads — on
//! the scalar reference engine or the compiled closure-chain engine —
//! must produce output buffers byte-for-byte identical to the serial
//! scalar path, and the simulated-time report must not change by a
//! single tick.

use mgpu::gpgpu::{Sgemm, Sum};
use mgpu::tbdr::SimReport;
use mgpu::{Engine, ExecConfig, Gl, OptConfig, Platform};

/// Everything observable from one run: raw target bytes, the decoded
/// result's exact bit patterns, and the full simulation report.
#[derive(Debug, PartialEq)]
struct Golden {
    pixels: Vec<u8>,
    result_bits: Vec<u32>,
    report: SimReport,
}

fn inputs(n: u32) -> (Vec<f32>, Vec<f32>) {
    let len = (n * n) as usize;
    let a = (0..len).map(|i| (i % 97) as f32 / 97.0).collect();
    let b = (0..len).map(|i| (i % 89) as f32 / 89.0).collect();
    (a, b)
}

fn run_sum(platform: &Platform, exec: ExecConfig) -> Golden {
    let n = 32;
    let (a, b) = inputs(n);
    let mut gl = Gl::new(platform.clone(), n, n);
    gl.set_exec_config(exec);
    let cfg = OptConfig::baseline().without_swap();
    let mut sum = Sum::builder(n)
        .build(&mut gl, &cfg, &a, &b)
        .expect("builds");
    sum.step(&mut gl).expect("steps");
    let pixels = gl.read_pixels().expect("reads");
    let result_bits = sum
        .result(&mut gl)
        .expect("results")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    gl.finish();
    Golden {
        pixels,
        result_bits,
        report: gl.report(),
    }
}

fn run_sgemm(platform: &Platform, exec: ExecConfig) -> Golden {
    let n = 32;
    let (a, b) = inputs(n);
    let mut gl = Gl::new(platform.clone(), n, n);
    gl.set_exec_config(exec);
    let cfg = OptConfig::baseline().with_swap_interval_0();
    let mut sgemm = Sgemm::new(&mut gl, &cfg, n, 16, &a, &b).expect("builds");
    sgemm.multiply(&mut gl).expect("multiplies");
    let pixels = gl.read_pixels().expect("reads");
    let result_bits = sgemm
        .result(&mut gl)
        .expect("results")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    gl.finish();
    Golden {
        pixels,
        result_bits,
        report: gl.report(),
    }
}

#[test]
fn sum_is_byte_identical_across_thread_counts() {
    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        let serial = run_sum(&platform, ExecConfig::with_threads(1));
        assert!(!serial.pixels.is_empty());
        for threads in [2, 4, 8] {
            let parallel = run_sum(&platform, ExecConfig::with_threads(threads));
            assert_eq!(
                parallel, serial,
                "sum diverged at {threads} threads on {}",
                platform.name
            );
        }
    }
}

#[test]
fn sgemm_block_16_is_byte_identical_across_thread_counts() {
    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        let serial = run_sgemm(&platform, ExecConfig::with_threads(1));
        assert!(!serial.pixels.is_empty());
        for threads in [2, 4, 8] {
            let parallel = run_sgemm(&platform, ExecConfig::with_threads(threads));
            assert_eq!(
                parallel, serial,
                "sgemm diverged at {threads} threads on {}",
                platform.name
            );
        }
    }
}

/// Both engine tiers reproduce the serial scalar reference exactly —
/// pixels, result bits and the simulated-time report — at 1, 2, 4 and 8
/// threads on both platforms, for both kernels: one dispatcher, one
/// golden output for the whole engine × threads matrix.
#[test]
fn engines_are_byte_identical_across_thread_counts() {
    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        let golden_sum = run_sum(&platform, ExecConfig::serial());
        let golden_sgemm = run_sgemm(&platform, ExecConfig::serial());
        for threads in [1, 2, 4, 8] {
            for engine in [Engine::Scalar, Engine::Compiled] {
                let exec = ExecConfig::with_threads(threads).with_engine(engine);
                assert_eq!(
                    run_sum(&platform, exec),
                    golden_sum,
                    "sum diverged with {engine:?} at {threads} threads on {}",
                    platform.name
                );
                assert_eq!(
                    run_sgemm(&platform, exec),
                    golden_sgemm,
                    "sgemm diverged with {engine:?} at {threads} threads on {}",
                    platform.name
                );
            }
        }
    }
}

/// Tile-signature skipping (`MGPU_TILE_SKIP`) is byte-exact but — alone
/// among the execution knobs — not timing-neutral: skipped tiles trade
/// shading for signature traffic in the cost model. So the matrix splits
/// in two: skip-on pixels and result bits must match the serial skip-off
/// golden everywhere, while the skip-on *report*, which legitimately
/// differs from skip-off, must itself be one golden across every engine
/// tier and thread count — the skip decision is execution-invariant.
#[test]
fn tile_skip_is_byte_identical_and_its_report_is_execution_invariant() {
    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        let golden_sum = run_sum(&platform, ExecConfig::serial());
        let golden_sgemm = run_sgemm(&platform, ExecConfig::serial());
        let skip = ExecConfig::serial().with_tile_skip(true);
        let skip_sum = run_sum(&platform, skip);
        let skip_sgemm = run_sgemm(&platform, skip);
        assert_eq!(skip_sum.pixels, golden_sum.pixels);
        assert_eq!(skip_sum.result_bits, golden_sum.result_bits);
        assert_eq!(skip_sgemm.pixels, golden_sgemm.pixels);
        assert_eq!(skip_sgemm.result_bits, golden_sgemm.result_bits);

        for threads in [1, 2, 4, 8] {
            for engine in [Engine::Scalar, Engine::Compiled] {
                let exec = ExecConfig::with_threads(threads)
                    .with_engine(engine)
                    .with_tile_skip(true);
                assert_eq!(
                    run_sum(&platform, exec),
                    skip_sum,
                    "skip-on sum diverged ({engine:?}, {threads} threads) on {}",
                    platform.name
                );
                assert_eq!(
                    run_sgemm(&platform, exec),
                    skip_sgemm,
                    "skip-on sgemm diverged ({engine:?}, {threads} threads) on {}",
                    platform.name
                );
            }
        }
    }
}

/// A thread count set on the context stays set: building an operator
/// never rewrites the caller's execution config.
#[test]
fn thread_knob_reaches_the_context() {
    let n = 16;
    let (a, b) = inputs(n);
    let mut gl = Gl::new(Platform::videocore_iv(), n, n);
    assert!(gl.exec_config().threads() >= 1);
    gl.set_exec_config(ExecConfig::with_threads(3));
    let cfg = OptConfig::baseline().without_swap();
    let _sum = Sum::builder(n)
        .build(&mut gl, &cfg, &a, &b)
        .expect("builds");
    assert_eq!(gl.exec_config(), ExecConfig::with_threads(3));
}
