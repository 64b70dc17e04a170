//! Workload-family harness: autotunes the image pyramid, the Jacobi
//! stencil solver and the dense-training loop on both paper platforms,
//! and measures the pyramid's tile-skip win.
//!
//! Three measurements per platform:
//!
//! * **tuned vs untuned** — [`tune_workload`] walks each family's
//!   candidate list (swap modes, render strategies, texture reuse, VBO
//!   hints, invalidate) on a timing-only context and reports the winner's
//!   modelled speedup over the `baseline` candidate, which is always in
//!   the list — so "tuned" can never lose to "untuned";
//! * **training block sweep** — the matmul chunk size trades fetches per
//!   fragment against pass count exactly like the paper's sgemm; the
//!   sweep measures every legal block at the same configuration and
//!   reports the fastest;
//! * **pyramid tile-skip** — the pyramid re-shades an identical image
//!   every iteration, the steady-state shape the signature cache is built
//!   for. Measured on a *functional* context (skipping replays real
//!   bytes), with byte identity between skip-off and skip-on asserted.
//!
//! All periods are simulated time ([`steady_period`]), not host
//! wall-clock. Usage: `workloads [n] [reps]` (defaults 16, 3), or
//! `workloads --gate` for CI: asserts tuned >= untuned for every family
//! on both platforms and a >= 1x pyramid tile-skip on the VideoCore.

use std::time::Duration;

use mgpu_bench::harness::{emit_bench_json, parse_args, Stats};
use mgpu_gles::{ExecConfig, Gl};
use mgpu_gpgpu::{runner::steady_period, OptConfig};
use mgpu_tbdr::{Platform, SimTime};
use mgpu_workloads::{tune_workload, DenseTraining, GaussianPyramid, JacobiInpaint, Workload};

fn sim_stats(period: SimTime) -> Stats {
    Stats::from_samples(&[Duration::from_secs_f64(period.as_secs_f64())])
}

/// Tunes one family and emits its untuned/tuned periods; returns the
/// winner's speedup over the baseline candidate.
fn tune_family(group: &str, platform: &Platform, workload: &dyn Workload, reps: usize) -> f64 {
    let result = tune_workload(platform, workload, 1, reps).expect("workload tunes");
    let name = workload.name();
    let best = result.best();
    let baseline = result
        .ranked
        .iter()
        .find(|p| p.name == "baseline")
        .expect("baseline candidate is always measured");
    emit_bench_json(
        group,
        &format!("{name}/untuned"),
        &sim_stats(baseline.period),
    );
    emit_bench_json(group, &format!("{name}/tuned"), &sim_stats(best.period));
    let speedup = result.speedup_over("baseline").unwrap_or(1.0);
    println!(
        "  {name}: untuned {:>12} -> tuned {:>12} via `{}` ({speedup:.2}x)",
        format!("{}", baseline.period),
        format!("{}", best.period),
        best.name
    );
    speedup
}

/// Measures the training loop at every legal block size on a timing-only
/// context and reports the fastest block.
fn block_sweep(group: &str, platform: &Platform, n: u32, steps: u32, reps: usize) -> u32 {
    let cfg = OptConfig::baseline().without_swap();
    let mut best = (u64::MAX, 1u32);
    for block in [1u32, 2, 4, 8, 16] {
        if block > n || !n.is_multiple_of(block) {
            continue;
        }
        let workload = DenseTraining::new(n, block, steps, 13);
        let mut gl = Gl::new(platform.clone(), n, n);
        gl.set_exec_config(ExecConfig::from_env());
        gl.set_functional(false);
        let mut p = workload
            .builder()
            .build(&mut gl, &cfg)
            .expect("training builds");
        let period = steady_period(&mut gl, 1, reps, |gl| p.run_once(gl)).expect("training runs");
        emit_bench_json(
            group,
            &format!("train_block/n={n} b={block}"),
            &sim_stats(period),
        );
        println!("  train n{n} block sweep: b={block:<2} {period}");
        if (period.as_nanos(), block) < best {
            best = (period.as_nanos(), block);
        }
    }
    println!("  train n{n} block sweep: best b={}", best.1);
    best.1
}

/// Pyramid steady-state on a *functional* context, tile skip off vs on:
/// returns the modelled speedup after asserting byte identity.
fn pyramid_tile_skip(group: &str, platform: &Platform, n: u32, levels: u32, reps: usize) -> f64 {
    let workload = GaussianPyramid::new(n, levels, 11);
    let cfg = OptConfig::baseline().without_swap();
    let run = |skip: bool| {
        let mut gl = Gl::new(platform.clone(), n, n);
        gl.set_exec_config(ExecConfig::from_env().with_tile_skip(skip));
        let mut p = workload
            .builder()
            .build(&mut gl, &cfg)
            .expect("pyramid builds");
        let period = steady_period(&mut gl, 1, reps, |gl| p.run_once(gl)).expect("pyramid runs");
        let bytes = p.output_bytes(&mut gl).expect("pyramid output");
        (period, bytes)
    };
    let (off, bytes_off) = run(false);
    let (on, bytes_on) = run(true);
    assert_eq!(
        bytes_on, bytes_off,
        "pyramid tile-skip changed the output bytes"
    );
    emit_bench_json(group, "pyramid_skip/off", &sim_stats(off));
    emit_bench_json(group, "pyramid_skip/on", &sim_stats(on));
    let speedup = off.as_secs_f64() / on.as_secs_f64().max(1e-12);
    println!("  pyramid n{n} l{levels} tile skip: off {off} -> on {on} ({speedup:.2}x)");
    speedup
}

fn main() {
    let ([n, reps], gate) = parse_args("workloads [n] [reps] [--gate]", [16, 3], true);
    let reps = reps as usize;
    let levels = 3.min(n.ilog2());
    let block = if n >= 4 { 4 } else { 1 };

    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        println!(
            "{}: workload families at n={n}, {reps} steady reps",
            platform.name
        );
        let group = format!("workloads/{}", platform.name);
        let families: Vec<Box<dyn Workload>> = vec![
            Box::new(GaussianPyramid::new(n, levels, 11)),
            Box::new(JacobiInpaint::new(n, 10, 12)),
            Box::new(DenseTraining::new(n, block, 2, 13)),
        ];
        for workload in &families {
            let speedup = tune_family(&group, &platform, workload.as_ref(), reps);
            if gate {
                assert!(
                    speedup >= 1.0,
                    "GATE FAILED: {} {} tuned slower than untuned ({speedup:.2}x)",
                    platform.name,
                    workload.name()
                );
            }
        }
        block_sweep(&group, &platform, n, 2, reps);

        let skip_speedup = pyramid_tile_skip(&group, &platform, n, levels, reps);
        if gate && platform.name.contains("VideoCore") {
            assert!(
                skip_speedup >= 1.0,
                "GATE FAILED: {} pyramid tile-skip regressed ({skip_speedup:.2}x)",
                platform.name
            );
        }
        if gate {
            println!(
                "GATE OK: {} tuned >= untuned for all families",
                platform.name
            );
        }
    }
}
