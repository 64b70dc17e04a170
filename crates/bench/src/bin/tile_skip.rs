//! Tile-redundancy-elimination harness: `MGPU_TILE_SKIP=off` vs `=on` on
//! the paper's steady-state multi-pass loops.
//!
//! Two workloads exercise the two redundancy shapes the signature cache
//! is built for:
//!
//! * `sum_10pass`  — ten independent `c = a + b` kernel invocations per
//!   benchmark-body iteration. The inputs never change and the output
//!   chain ping-pongs between two textures, so after the warm-up every
//!   tile of every pass replays from the cache (render-target identity is
//!   deliberately excluded from the tile key);
//! * `sgemm_redundant` — repeated blocked-sgemm multiplies of the *same*
//!   input matrices. Each multiply reseeds the accumulator and replays
//!   the identical `n / block` pass sequence, so from the second multiply
//!   on every pass's tiles — including the intermediate accumulator
//!   states — hit the cache.
//!
//! The metric is **simulated time** per benchmark-body iteration
//! ([`steady_period`]): skipped tiles trade fragment shading for
//! signature reads on the bus in the cost model, so the speedup reported
//! here is the modelled end-to-end win on the paper platforms, not a host
//! wall-clock artefact. Byte identity of the final results between the
//! two modes is asserted on every run, as is zero signature activity with
//! the knob off — the harness doubles as a determinism check for the
//! skip axis.
//!
//! Skip wins only where fragment shading sits on the critical path. The
//! sum kernel is cheap, so it needs a large grid before shading outruns
//! the per-draw CPU submit cost (450µs on VideoCore, a full 2ms on the
//! SGX) — which is why `sum_n` defaults to 1024 and the SGX sum speedup
//! stays modest (the paper's §IV observation that SGX GPGPU is
//! driver-bound). Blocked sgemm is fragment-bound everywhere; on the SGX
//! its 60-cycle dependent-fetch latency makes re-shading so expensive
//! that skipping is worth orders of magnitude.
//!
//! Usage: `tile_skip [sum_n] [sgemm_n] [reps]` (defaults 1024, 256, 3),
//! or `tile_skip --gate` for the CI smoke configuration: asserts the
//! modelled steady-state speedup reaches 1.5x on the VideoCore 10-pass
//! sum and 1.2x on redundant sgemm on both paper platforms.

use std::time::Duration;

use mgpu_bench::harness::{emit_bench_json, parse_args, Stats};
use mgpu_gles::{ExecConfig, Gl, TileSkipStats};
use mgpu_gpgpu::{runner::steady_period, OptConfig, Sgemm, Sum};
use mgpu_tbdr::{Platform, SimTime};

/// Steady-state passes per `sum` benchmark-body iteration.
const SUM_PASSES: usize = 10;

struct Measurement {
    /// Steady-state simulated time per benchmark-body iteration.
    period: SimTime,
    /// Final result, bitwise.
    result_bits: Vec<u32>,
    skip: TileSkipStats,
}

fn context(platform: &Platform, n: u32, skip: bool) -> Gl {
    let mut gl = Gl::new(platform.clone(), n, n);
    // Host execution strategy is free: simulated timing is
    // dispatcher-invariant, so take the machine's parallelism and only
    // pin the knob under test.
    gl.set_exec_config(ExecConfig::from_env().with_tile_skip(skip));
    gl
}

fn run_sum(platform: &Platform, n: u32, reps: usize, skip: bool) -> Measurement {
    let len = (n * n) as usize;
    let a: Vec<f32> = (0..len).map(|i| (i % 97) as f32 / 97.0).collect();
    let b: Vec<f32> = (0..len).map(|i| (i % 89) as f32 / 89.0).collect();
    let mut gl = context(platform, n, skip);
    let cfg = OptConfig::baseline().without_swap();
    let mut sum = Sum::builder(n)
        .build(&mut gl, &cfg, &a, &b)
        .expect("sum builds");
    let period = steady_period(&mut gl, 1, reps, |gl| {
        for _ in 0..SUM_PASSES {
            sum.step(gl)?;
        }
        Ok(())
    })
    .expect("sum runs");
    let result_bits = sum
        .result(&mut gl)
        .expect("result")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    gl.finish();
    Measurement {
        period,
        result_bits,
        skip: gl.tile_skip_stats(),
    }
}

fn run_sgemm(platform: &Platform, n: u32, reps: usize, skip: bool) -> Measurement {
    let block = 16;
    let len = (n * n) as usize;
    let a: Vec<f32> = (0..len).map(|i| (i % 97) as f32 / 97.0).collect();
    let b: Vec<f32> = (0..len).map(|i| (i % 89) as f32 / 89.0).collect();
    let mut gl = context(platform, n, skip);
    let cfg = OptConfig::baseline().with_swap_interval_0();
    let mut sgemm = Sgemm::new(&mut gl, &cfg, n, block, &a, &b).expect("sgemm builds");
    let period = steady_period(&mut gl, 1, reps, |gl| sgemm.multiply(gl)).expect("sgemm runs");
    let result_bits = sgemm
        .result(&mut gl)
        .expect("result")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    gl.finish();
    Measurement {
        period,
        result_bits,
        skip: gl.tile_skip_stats(),
    }
}

fn sim_stats(period: SimTime) -> Stats {
    Stats::from_samples(&[Duration::from_secs_f64(period.as_secs_f64())])
}

/// Runs one workload with the knob off and on; asserts byte identity and
/// clean off-mode counters; returns the modelled speedup.
fn run_workload(group: &str, name: &str, run: impl Fn(bool) -> Measurement) -> f64 {
    let off = run(false);
    let on = run(true);
    emit_bench_json(group, &format!("{name}/skip_off"), &sim_stats(off.period));
    emit_bench_json(group, &format!("{name}/skip_on"), &sim_stats(on.period));

    assert_eq!(
        on.result_bits, off.result_bits,
        "{group}/{name}: skip-on result diverged from skip-off"
    );
    assert_eq!(
        off.skip,
        TileSkipStats::default(),
        "{group}/{name}: skip-off run recorded signature activity"
    );
    assert!(
        on.skip.hits > 0,
        "{group}/{name}: skip-on run never hit the signature cache"
    );
    assert!(
        on.skip.bytes_replayed > 0,
        "{group}/{name}: skip-on run replayed no bytes"
    );

    let speedup = off.period.as_secs_f64() / on.period.as_secs_f64().max(1e-12);
    println!(
        "  {name}: {speedup:.2}x modelled speedup \
         ({} hits, {} misses, {} KiB replayed)\n",
        on.skip.hits,
        on.skip.misses,
        on.skip.bytes_replayed / 1024,
    );
    speedup
}

fn main() {
    let ([sum_n, sgemm_n, reps], gate) = parse_args(
        "tile_skip [sum_n] [sgemm_n] [reps] [--gate]",
        [1024, 256, 3],
        true,
    );
    let reps = reps as usize;

    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        println!(
            "{}: {SUM_PASSES}-pass sum at {sum_n}x{sum_n} + block-16 sgemm at \
             {sgemm_n}x{sgemm_n}, {reps} steady reps",
            platform.name
        );
        let group = format!("tile_skip/{}", platform.name);
        let sum_speedup = run_workload(&group, &format!("sum_10pass/n={sum_n}"), |skip| {
            run_sum(&platform, sum_n, reps, skip)
        });
        let sgemm_speedup = run_workload(&group, &format!("sgemm_redundant/n={sgemm_n}"), |skip| {
            run_sgemm(&platform, sgemm_n, reps, skip)
        });

        if gate {
            // The sum threshold only binds on VideoCore: the SGX's 2ms
            // per-draw submit cost keeps its cheap-kernel loops
            // driver-bound (reported honestly above, gated on >=1x).
            let sum_floor = if platform.name.contains("VideoCore") {
                1.5
            } else {
                1.0
            };
            assert!(
                sum_speedup >= sum_floor,
                "GATE FAILED: {} 10-pass sum speedup {sum_speedup:.2}x < {sum_floor}x",
                platform.name
            );
            assert!(
                sgemm_speedup >= 1.2,
                "GATE FAILED: {} redundant sgemm speedup {sgemm_speedup:.2}x < 1.2x",
                platform.name
            );
            println!(
                "GATE OK: {} sum {sum_speedup:.2}x (>={sum_floor}x), \
                 sgemm {sgemm_speedup:.2}x (>=1.2x)",
                platform.name
            );
        }
    }
}
