//! Scalar vs compiled fragment-engine throughput on the paper's kernels.
//!
//! Runs `sum` and blocked `sgemm` (block 16) on both simulated platforms,
//! on both engine tiers, at 1 thread and at the machine's full
//! parallelism, asserting on every pairing that the compiled engine is
//! byte-identical to the scalar reference and leaves simulated time
//! untouched. Wall-clock statistics are printed per configuration as
//! `BENCH {...}` JSON lines.
//!
//! Usage: `kernel_throughput [n] [reps] [--gate]` — defaults to a 256×256
//! problem with 3 timed repetitions. The acceptance configuration is
//! `kernel_throughput 1024`, where the compiled tier's single-thread
//! sgemm speedup is the headline number. `--gate` turns that speedup into
//! a hard exit: the run fails unless compiled beats the scalar reference
//! by ≥ 10x on single-thread sgemm on both platforms.

use std::time::{Duration, Instant};

use mgpu_bench::harness::{emit_bench_json, Stats};
use mgpu_gles::{Engine, Gl};
use mgpu_gpgpu::{OptConfig, Sgemm, Sum};
use mgpu_tbdr::{Platform, SimTime};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sum,
    Sgemm,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Sum => "sum",
            Workload::Sgemm => "sgemm_b16",
        }
    }
}

struct Outcome {
    stats: Stats,
    result_bits: Vec<u32>,
    sim: SimTime,
}

#[allow(clippy::too_many_arguments)]
fn run(
    platform: &Platform,
    workload: Workload,
    n: u32,
    threads: usize,
    engine: Engine,
    reps: usize,
    a: &[f32],
    b: &[f32],
) -> Outcome {
    let mut gl = Gl::new(platform.clone(), n, n);
    let mut samples = Vec::with_capacity(reps);
    let result_bits: Vec<u32> = match workload {
        Workload::Sum => {
            let cfg = OptConfig::baseline()
                .without_swap()
                .with_threads(threads)
                .with_engine(engine);
            let mut sum = Sum::builder(n)
                .build(&mut gl, &cfg, a, b)
                .expect("sum builds");
            sum.step(&mut gl).expect("warm-up step");
            for _ in 0..reps {
                let t = Instant::now();
                sum.step(&mut gl).expect("step");
                samples.push(t.elapsed());
            }
            sum.result(&mut gl).expect("result")
        }
        Workload::Sgemm => {
            let cfg = OptConfig::baseline()
                .with_swap_interval_0()
                .with_threads(threads)
                .with_engine(engine);
            let mut sgemm =
                Sgemm::new(&mut gl, &cfg, n, 16, a, b).expect("sgemm builds at block 16");
            for _ in 0..reps {
                let t = Instant::now();
                sgemm.multiply(&mut gl).expect("multiply");
                samples.push(t.elapsed());
            }
            sgemm.result(&mut gl).expect("result")
        }
    }
    .iter()
    .map(|v| v.to_bits())
    .collect();
    gl.finish();
    Outcome {
        stats: Stats::from_samples(&samples),
        result_bits,
        sim: gl.elapsed(),
    }
}

fn mean_secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn engine_tag(engine: Engine) -> &'static str {
    match engine {
        Engine::Scalar => "scalar",
        Engine::Compiled => "compiled",
    }
}

fn main() {
    let mut n: u32 = 256;
    let mut reps: usize = 3;
    let mut gate = false;
    for (i, arg) in std::env::args().skip(1).enumerate() {
        if arg == "--gate" {
            gate = true;
        } else if i == 0 {
            n = arg.parse().unwrap_or(n);
        } else {
            reps = arg.parse().unwrap_or(reps);
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut thread_list = vec![1usize];
    if cores > 1 {
        thread_list.push(cores);
    }

    println!("kernel throughput: scalar vs compiled engine, {n}x{n}, {reps} rep(s)");
    println!("host parallelism: {cores} core(s)\n");

    let len = (n * n) as usize;
    let a: Vec<f32> = (0..len).map(|i| (i % 97) as f32 / 97.0).collect();
    let b: Vec<f32> = (0..len).map(|i| (i % 89) as f32 / 89.0).collect();

    let mut gate_ratios: Vec<(String, f64)> = Vec::new();
    for (plat_name, platform) in [
        ("vc4", Platform::videocore_iv()),
        ("sgx", Platform::sgx_545()),
    ] {
        for workload in [Workload::Sum, Workload::Sgemm] {
            for &threads in &thread_list {
                let scalar = run(
                    &platform,
                    workload,
                    n,
                    threads,
                    Engine::Scalar,
                    reps,
                    &a,
                    &b,
                );
                let compiled = run(
                    &platform,
                    workload,
                    n,
                    threads,
                    Engine::Compiled,
                    reps,
                    &a,
                    &b,
                );
                assert_eq!(
                    compiled.result_bits,
                    scalar.result_bits,
                    "compiled output diverged from scalar ({plat_name}/{} at {threads} threads)",
                    workload.name()
                );
                assert_eq!(
                    compiled.sim,
                    scalar.sim,
                    "compiled engine changed simulated time ({plat_name}/{} at {threads} threads)",
                    workload.name()
                );
                let id = |engine: Engine| {
                    format!(
                        "{plat_name}/{}/t{threads}/{}",
                        workload.name(),
                        engine_tag(engine)
                    )
                };
                emit_bench_json("kernel_throughput", &id(Engine::Scalar), &scalar.stats);
                emit_bench_json("kernel_throughput", &id(Engine::Compiled), &compiled.stats);
                let compiled_speedup =
                    mean_secs(scalar.stats.mean) / mean_secs(compiled.stats.mean).max(1e-12);
                println!(
                    "  -> compiled {compiled_speedup:.2}x over scalar \
                     (outputs byte-identical, simulated time unchanged)\n"
                );
                if workload == Workload::Sgemm && threads == 1 {
                    gate_ratios.push((plat_name.to_owned(), compiled_speedup));
                }
            }
        }
    }

    for (plat, ratio) in &gate_ratios {
        println!("headline: single-thread sgemm compiled/scalar {ratio:.2}x on {plat}");
    }
    if gate {
        for (plat, ratio) in &gate_ratios {
            assert!(
                *ratio >= 10.0,
                "GATE FAILED: compiled engine is only {ratio:.2}x over scalar \
                 on single-thread sgemm ({plat}); the bar is 10.00x"
            );
        }
        println!("gate passed: compiled >= 10x over scalar on single-thread sgemm, both platforms");
    }
}
