//! Per-draw overhead harness: plan rebuilt every draw vs warm draw-plan
//! caching, on multi-pass blocked sgemm.
//!
//! A block-16 sgemm issues `n / 16` draws per multiply, each repeating the
//! same setup — program lowering, interpolation hoisting, engine register
//! allocation. This harness isolates that overhead by timing whole
//! multiplies in two modes of the one dispatcher:
//!
//! * `pool_nocache` — plan cache off: plans are rebuilt every draw
//!   (allocations recycled);
//! * `warm_cached`  — the draw-plan cache on: after the first multiply
//!   primes one plan per `blk_n` value, every draw runs warm.
//!
//! Both modes' product matrices must be byte-identical and their simulated
//! [`SimTime`] bitwise equal — both are asserted on every run, so the
//! harness doubles as a determinism check for the plan cache.
//!
//! Overhead scales with *draw count over fragment work*: at small `n` the
//! per-draw setup dominates and the cached path wins big; at `n = 1024` a
//! draw shades a megapixel and fragment arithmetic swamps setup, so the
//! headline speedup necessarily shrinks. Both regimes are reported
//! honestly; EXPERIMENTS.md tabulates them.
//!
//! Usage: `draw_overhead [n] [threads] [reps]` (defaults 128, 4, 5), or
//! `draw_overhead ... --gate` for the CI smoke configuration: asserts that
//! the median warm-plan multiply beats the median rebuilt-plan multiply at
//! the given thread count and at one thread.

use std::time::{Duration, Instant};

use mgpu_bench::harness::{emit_bench_json, Stats};
use mgpu_gles::{ExecConfig, Gl};
use mgpu_gpgpu::{OptConfig, Sgemm};
use mgpu_tbdr::{Platform, SimTime};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    PoolNoCache,
    WarmCached,
}

impl Mode {
    fn id(self) -> &'static str {
        match self {
            Mode::PoolNoCache => "pool_nocache",
            Mode::WarmCached => "warm_cached",
        }
    }
}

struct Measurement {
    /// First multiply: plans cold in every mode.
    first: Duration,
    /// Steady-state multiplies (second onwards).
    steady: Stats,
    result_bits: Vec<u32>,
    sim: SimTime,
    cache_hits: u64,
}

/// One mode's context and operator, primed by a first multiply.
struct Run {
    gl: Gl,
    sgemm: Sgemm,
    first: Duration,
    samples: Vec<Duration>,
}

impl Run {
    fn new(mode: Mode, n: u32, threads: usize, a: &[f32], b: &[f32]) -> Run {
        let block = 16;
        let mut gl = Gl::new(Platform::videocore_iv(), n, n);
        gl.set_exec_config(ExecConfig::with_threads(threads));
        gl.set_plan_cache_enabled(mode == Mode::WarmCached);
        let cfg = OptConfig::baseline().with_swap_interval_0();
        let mut sgemm = Sgemm::new(&mut gl, &cfg, n, block, a, b).expect("sgemm builds");
        let start = Instant::now();
        sgemm.multiply(&mut gl).expect("first multiply");
        Run {
            gl,
            sgemm,
            first: start.elapsed(),
            samples: Vec::new(),
        }
    }

    fn time_multiply(&mut self) {
        let start = Instant::now();
        self.sgemm.multiply(&mut self.gl).expect("steady multiply");
        self.samples.push(start.elapsed());
    }

    fn finish(mut self) -> Measurement {
        let result_bits = self
            .sgemm
            .result(&mut self.gl)
            .expect("result")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        self.gl.finish();
        Measurement {
            first: self.first,
            steady: Stats::from_samples(&self.samples),
            result_bits,
            sim: self.gl.elapsed(),
            cache_hits: self.gl.plan_cache_stats().hits,
        }
    }
}

fn report(group: &str, mode: Mode, m: &Measurement) {
    emit_bench_json(
        group,
        &format!("{}/first", mode.id()),
        &Stats::from_samples(&[m.first]),
    );
    emit_bench_json(group, &format!("{}/steady", mode.id()), &m.steady);
}

/// Runs both modes on one (n, threads) point, asserting byte-identity and
/// simulated-time invariance between them. Steady multiplies alternate
/// between the modes, each going first on every other rep, so drift in
/// host speed over the run lands on both sides alike.
fn run_point(n: u32, threads: usize, reps: usize, a: &[f32], b: &[f32]) -> [Measurement; 2] {
    let group = format!("draw_overhead/n={n}/threads={threads}");
    let mut pooled = Run::new(Mode::PoolNoCache, n, threads, a, b);
    let mut warm = Run::new(Mode::WarmCached, n, threads, a, b);
    for rep in 0..reps {
        if rep % 2 == 0 {
            pooled.time_multiply();
            warm.time_multiply();
        } else {
            warm.time_multiply();
            pooled.time_multiply();
        }
    }
    let pooled = pooled.finish();
    report(&group, Mode::PoolNoCache, &pooled);
    let warm = warm.finish();
    report(&group, Mode::WarmCached, &warm);

    assert_eq!(
        warm.result_bits, pooled.result_bits,
        "warm_cached output diverged from pool_nocache at n={n} threads={threads}"
    );
    assert_eq!(
        warm.sim, pooled.sim,
        "warm_cached changed simulated time at n={n} threads={threads}"
    );
    assert!(
        warm.cache_hits > 0,
        "warm_cached mode recorded no plan-cache hits"
    );
    println!(
        "  steady speedup of warm_cached over pool_nocache: {:.2}x\n",
        speedup(&pooled, &warm)
    );
    [pooled, warm]
}

/// Steady-state speedup of `warm` over `cold`, by median multiply time.
fn speedup(cold: &Measurement, warm: &Measurement) -> f64 {
    cold.steady.median.as_secs_f64() / warm.steady.median.as_secs_f64().max(1e-12)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let nums: Vec<usize> = args.iter().filter_map(|s| s.parse().ok()).collect();
    let n = *nums.first().unwrap_or(&128) as u32;
    let threads = *nums.get(1).unwrap_or(&4);
    let reps = *nums.get(2).unwrap_or(&5);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    println!(
        "sgemm block 16, {n}x{n} ({} draws per multiply), {reps} steady reps",
        n / 16
    );
    println!("host parallelism: {cores} core(s)\n");

    let len = (n * n) as usize;
    let a: Vec<f32> = (0..len).map(|i| (i % 97) as f32 / 97.0).collect();
    let b: Vec<f32> = (0..len).map(|i| (i % 89) as f32 / 89.0).collect();

    let parallel = run_point(n, threads, reps, &a, &b);
    // One thread shades on the caller, with no pool: the cache must pay
    // off there too.
    let serial = run_point(n, 1, reps, &a, &b);

    if gate {
        for (t, [pooled, warm]) in [(threads, &parallel), (1, &serial)] {
            assert!(
                warm.steady.median < pooled.steady.median,
                "GATE FAILED: warm-plan multiplies (median {:?}) not faster than \
                 rebuilt-plan multiplies (median {:?}) at n={n} threads={t}",
                warm.steady.median,
                pooled.steady.median,
            );
        }
        println!(
            "GATE OK: warm_cached {:.2}x over pool_nocache at {threads} threads, {:.2}x at 1 thread",
            speedup(&parallel[0], &parallel[1]),
            speedup(&serial[0], &serial[1]),
        );
    }
}
