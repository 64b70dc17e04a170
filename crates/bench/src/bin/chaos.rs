//! Recovery-overhead benchmark: resilient execution under injected faults.
//!
//! Measures the steady-state simulated period of a dependent `sum` chain
//! driven through the [`ResilientRunner`] on both platforms, in three
//! regimes:
//!
//! * `clean`    — no fault plan installed (the no-op baseline);
//! * `verify`   — no faults, CRC-32 verification on (every pass runs
//!   twice: the pure checksum overhead);
//! * `faulted`  — context loss injected at ~1 fault per 100 draws,
//!   recovery on (checkpoint restore + context recreation overhead).
//!
//! Every faulted run's bytes are asserted identical to the clean run's —
//! recovery is only worth benchmarking if it is correct. Per-regime
//! simulated periods are printed as `BENCH {...}` JSON lines
//! (`mean_ns` etc. are **simulated** nanoseconds per run).
//!
//! Usage: `chaos [n] [runs]` — defaults to a 32×32 problem and 120
//! measured runs of 4 chained kernel invocations each.

use std::time::Duration;

use mgpu_bench::harness::{emit_bench_json, parse_args, Stats};
use mgpu_gles::{FaultPlan, Gl};
use mgpu_gpgpu::{OptConfig, ResilienceConfig, ResilientRunner, SumJob};
use mgpu_tbdr::Platform;

const ITERATIONS: usize = 4;
const WARMUP_RUNS: usize = 5;

struct Regime {
    name: &'static str,
    plan: Option<FaultPlan>,
    verify: bool,
}

fn regimes() -> Vec<Regime> {
    vec![
        Regime {
            name: "clean",
            plan: None,
            verify: false,
        },
        Regime {
            name: "verify",
            plan: None,
            verify: true,
        },
        Regime {
            name: "faulted",
            plan: Some(FaultPlan::seeded(2027).p_ctx_loss(0.01)),
            verify: false,
        },
    ]
}

struct Outcome {
    stats: Stats,
    bytes: Vec<u8>,
    faults: usize,
    recoveries: usize,
}

fn run_regime(platform: &Platform, n: u32, runs: usize, regime: &Regime) -> Outcome {
    let a: Vec<f32> = (0..n * n).map(|i| (i as f32 * 0.31) % 0.9).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i as f32 * 0.17) % 0.08).collect();
    let cfg = OptConfig::baseline().without_swap();
    let mut gl = Gl::new(platform.clone(), n, n);
    if let Some(plan) = &regime.plan {
        gl.install_faults(plan.clone());
    }
    let mut job = SumJob::new(&cfg, n, &a, &b, ITERATIONS).dependent(true);
    let resilience = ResilienceConfig {
        verify_checksums: regime.verify,
        ..ResilienceConfig::default()
    };
    let mut runner = ResilientRunner::new(resilience);

    let mut bytes = Vec::new();
    let mut recoveries = 0usize;
    for _ in 0..WARMUP_RUNS {
        bytes = runner.run(&mut gl, &mut job).expect("warm-up run succeeds");
    }
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = gl.elapsed();
        bytes = runner
            .run(&mut gl, &mut job)
            .expect("measured run succeeds");
        gl.finish();
        recoveries += runner.events().len();
        let dt = gl.elapsed() - t0;
        samples.push(Duration::from_nanos(dt.as_nanos()));
    }
    Outcome {
        stats: Stats::from_samples(&samples),
        bytes,
        faults: gl.fault_trail().len(),
        recoveries,
    }
}

fn main() {
    let ([n, runs], _) = parse_args("chaos [n] [runs]", [32, 120], false);
    let runs = runs as usize;

    println!("chaos: resilient sum({n}x{n}) x{ITERATIONS}, {runs} measured runs per regime");
    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        let mut clean_bytes: Option<Vec<u8>> = None;
        let mut clean_mean = Duration::ZERO;
        for regime in regimes() {
            let out = run_regime(&platform, n, runs, &regime);
            match &clean_bytes {
                None => {
                    clean_bytes = Some(out.bytes.clone());
                    clean_mean = out.stats.mean;
                }
                Some(want) => assert_eq!(
                    &out.bytes, want,
                    "{} bytes diverged from clean run",
                    regime.name
                ),
            }
            let overhead = if clean_mean.as_nanos() > 0 {
                out.stats.mean.as_secs_f64() / clean_mean.as_secs_f64() - 1.0
            } else {
                0.0
            };
            println!(
                "  {}/{}: {} faults injected, {} recovery actions, overhead {:+.1}%",
                platform.name,
                regime.name,
                out.faults,
                out.recoveries,
                overhead * 100.0
            );
            emit_bench_json(
                "chaos_recovery",
                &format!("{}/{}", platform.name, regime.name),
                &out.stats,
            );
        }
    }
}
