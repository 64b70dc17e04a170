//! Autotuning over the optimisation-configuration space.
//!
//! The paper explores its optimisation space by hand, incrementally
//! ("we follow an incremental approach, starting from one configuration
//! and applying the next optimisation on the best performing one"). This
//! module automates that exploration: enumerate the meaningful
//! configuration points for a workload, measure each in timing-only mode,
//! and return the ranking — so a downstream user gets the platform's best
//! configuration without knowing the micro-architecture.

use std::thread;

use mgpu_gles::{BufferUsage, ExecConfig, Gl};
use mgpu_tbdr::{Platform, SimTime};

use crate::config::{OptConfig, RenderStrategy, SyncStrategy};
use crate::error::GpgpuError;
use crate::ops::{Sgemm, Sum};
use crate::runner::steady_period;

/// One measured configuration point.
#[derive(Debug, Clone, PartialEq)]
pub struct TunePoint {
    /// Human-readable description of the point.
    pub name: String,
    /// The configuration.
    pub config: OptConfig,
    /// The sgemm block size (1 for single-pass workloads).
    pub block: u32,
    /// Measured steady-state simulated time per benchmark-body iteration.
    pub period: SimTime,
}

/// The result of a tuning run: every measured point, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Points sorted fastest-first.
    pub ranked: Vec<TunePoint>,
}

impl TuneResult {
    /// The winning point.
    ///
    /// # Panics
    ///
    /// Panics if the tuning run measured no points (never produced by the
    /// tuners in this module).
    #[must_use]
    pub fn best(&self) -> &TunePoint {
        // Documented invariant: every tuner in this module returns at
        // least one point or errors out before constructing a TuneResult.
        #[allow(clippy::expect_used)]
        self.ranked
            .first()
            .expect("tuners measure at least one point")
    }

    /// Speedup of the best point over the named reference point.
    #[must_use]
    pub fn speedup_over(&self, name: &str) -> Option<f64> {
        let r = self.ranked.iter().find(|p| p.name == name)?;
        Some(r.period.as_secs_f64() / self.best().period.as_secs_f64())
    }

    fn from_points(mut points: Vec<TunePoint>) -> Self {
        points.sort_by_key(|p| p.period);
        TuneResult { ranked: points }
    }
}

/// The configuration points a single-pass streaming kernel explores.
fn streaming_candidates() -> Vec<(String, OptConfig)> {
    let mut out = Vec::new();
    for (sync_name, sync) in [
        ("swap", SyncStrategy::SwapDefault),
        ("interval0", SyncStrategy::SwapInterval0),
        ("noswap", SyncStrategy::NoSwap),
    ] {
        for (target_name, target) in [
            ("tex", RenderStrategy::Texture),
            ("fb", RenderStrategy::Framebuffer),
        ] {
            // The framebuffer path needs swaps to alternate surfaces; a
            // no-swap framebuffer loop serialises and is never optimal,
            // but the tuner measures it anyway — that is the point.
            let mut cfg = OptConfig::baseline();
            cfg.sync = sync;
            cfg.target = target;
            out.push((format!("{sync_name}+{target_name}"), cfg));
            out.push((format!("{sync_name}+{target_name}+fp24"), cfg.with_fp24()));
        }
    }
    out.push((
        "noswap+tex+vbo".to_owned(),
        OptConfig::baseline()
            .without_swap()
            .with_vbo(BufferUsage::StaticDraw),
    ));
    out
}

/// Measures independent candidates, possibly on a scoped worker pool, and
/// merges the results **by candidate index** — so the outcome (points,
/// their order before ranking, and which error surfaces first) is
/// identical for every thread count. `f` returns `Ok(None)` to skip a
/// point.
fn measure_candidates<C, F>(
    candidates: Vec<C>,
    threads: usize,
    f: F,
) -> Result<Vec<TunePoint>, GpgpuError>
where
    C: Send,
    F: Fn(C) -> Result<Option<TunePoint>, GpgpuError> + Sync,
{
    let n = candidates.len();
    let mut slots: Vec<Option<Result<Option<TunePoint>, GpgpuError>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        for (slot, c) in slots.iter_mut().zip(candidates) {
            *slot = Some(f(c));
        }
    } else {
        // Each candidate builds its own timing-only `Gl`, so candidates
        // are fully independent; deal them to workers round-robin along
        // with the result slot they must fill.
        type Slot<'a> = &'a mut Option<Result<Option<TunePoint>, GpgpuError>>;
        let mut per_worker: Vec<Vec<(C, Slot<'_>)>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, (c, slot)) in candidates.into_iter().zip(slots.iter_mut()).enumerate() {
            per_worker[i % threads].push((c, slot));
        }
        thread::scope(|s| {
            for work in per_worker {
                let f = &f;
                s.spawn(move || {
                    for (c, slot) in work {
                        *slot = Some(f(c));
                    }
                });
            }
        });
    }
    let mut points = Vec::new();
    for slot in slots {
        match slot {
            Some(Ok(Some(p))) => points.push(p),
            Some(Ok(None)) => {}
            Some(Err(e)) => return Err(e),
            None => {
                return Err(GpgpuError::Config(
                    "tuning candidate was never measured (worker vanished)".to_owned(),
                ))
            }
        }
    }
    Ok(points)
}

/// Tunes the `sum` kernel on `platform` over `n`×`n` inputs, evaluating
/// candidates concurrently per the `MGPU_THREADS` policy
/// ([`ExecConfig::from_env`]).
///
/// `a` and `b` must each have `n * n` elements.
///
/// # Errors
///
/// Propagates operator failures.
pub fn tune_sum(
    platform: &Platform,
    n: u32,
    a: &[f32],
    b: &[f32],
    warmup: usize,
    iters: usize,
) -> Result<TuneResult, GpgpuError> {
    tune_sum_with_threads(
        platform,
        n,
        a,
        b,
        warmup,
        iters,
        ExecConfig::from_env().threads(),
    )
}

/// [`tune_sum`] with an explicit worker-thread count. The result is
/// identical for every `threads` value.
///
/// # Errors
///
/// Propagates operator failures.
#[allow(clippy::too_many_arguments)]
pub fn tune_sum_with_threads(
    platform: &Platform,
    n: u32,
    a: &[f32],
    b: &[f32],
    warmup: usize,
    iters: usize,
    threads: usize,
) -> Result<TuneResult, GpgpuError> {
    let points = measure_candidates(streaming_candidates(), threads, |(name, cfg)| {
        let mut gl = Gl::new(platform.clone(), n, n);
        gl.set_functional(false);
        let mut sum = Sum::builder(n).build(&mut gl, &cfg, a, b)?;
        let period = steady_period(&mut gl, warmup, iters, |gl| sum.step(gl))?;
        Ok(Some(TunePoint {
            name,
            config: cfg,
            block: 1,
            period,
        }))
    })?;
    Ok(TuneResult::from_points(points))
}

/// Tunes blocked `sgemm` on `platform`: render target × block size, at
/// swap interval 0 (per Fig. 3, sgemm gains nothing beyond that). Block
/// sizes that exceed the platform's shader limits are skipped — exactly
/// how a deployed autotuner would discover the Fig. 4b wall.
///
/// # Errors
///
/// Propagates operator failures other than shader-limit rejections.
pub fn tune_sgemm(
    platform: &Platform,
    n: u32,
    a: &[f32],
    b: &[f32],
    blocks: &[u32],
    warmup: usize,
    iters: usize,
) -> Result<TuneResult, GpgpuError> {
    tune_sgemm_with_threads(
        platform,
        n,
        a,
        b,
        blocks,
        warmup,
        iters,
        ExecConfig::from_env().threads(),
    )
}

/// [`tune_sgemm`] with an explicit worker-thread count. The result is
/// identical for every `threads` value.
///
/// # Errors
///
/// Propagates operator failures other than shader-limit rejections.
#[allow(clippy::too_many_arguments)]
pub fn tune_sgemm_with_threads(
    platform: &Platform,
    n: u32,
    a: &[f32],
    b: &[f32],
    blocks: &[u32],
    warmup: usize,
    iters: usize,
    threads: usize,
) -> Result<TuneResult, GpgpuError> {
    let mut candidates = Vec::new();
    for &block in blocks {
        if block == 0 || !n.is_multiple_of(block) {
            continue;
        }
        for (target_name, target) in [
            ("tex", RenderStrategy::Texture),
            ("fb", RenderStrategy::Framebuffer),
        ] {
            candidates.push((block, target_name, target));
        }
    }
    let points = measure_candidates(candidates, threads, |(block, target_name, target)| {
        let mut cfg = OptConfig::baseline().with_swap_interval_0();
        cfg.target = target;
        let mut gl = Gl::new(platform.clone(), n, n);
        gl.set_functional(false);
        let mut sgemm = match Sgemm::new(&mut gl, &cfg, n, block, a, b) {
            Ok(s) => s,
            Err(e) if e.is_shader_limit() => return Ok(None),
            Err(e) => return Err(e),
        };
        let period = steady_period(&mut gl, warmup, iters, |gl| sgemm.multiply(gl))?;
        Ok(Some(TunePoint {
            name: format!("b{block}+{target_name}"),
            config: cfg,
            block,
            period,
        }))
    })?;
    Ok(TuneResult::from_points(points))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: u32) -> (Vec<f32>, Vec<f32>) {
        let len = (n * n) as usize;
        let a = (0..len).map(|i| (i % 97) as f32 / 97.0).collect();
        let b = (0..len).map(|i| (i % 89) as f32 / 89.0).collect();
        (a, b)
    }

    #[test]
    fn sum_tuner_finds_the_paper_configuration_on_videocore() {
        // The paper's full 1024x1024 size: at small sizes fixed CPU costs
        // compress the render-target differences.
        let (a, b) = inputs(1024);
        let r = tune_sum(&Platform::videocore_iv(), 1024, &a, &b, 5, 20).unwrap();
        let best = r.best();
        // The paper's best sum configuration: no swap, texture rendering.
        assert_eq!(best.config.sync, SyncStrategy::NoSwap, "{}", best.name);
        assert_eq!(best.config.target, RenderStrategy::Texture);
        // And it beats the vsync'd baseline by a wide margin.
        assert!(r.speedup_over("swap+tex").unwrap() > 5.0);
    }

    #[test]
    fn sum_tuner_rejects_framebuffer_on_sgx() {
        let (a, b) = inputs(256);
        let r = tune_sum(&Platform::sgx_545(), 256, &a, &b, 5, 20).unwrap();
        // Every framebuffer point must rank behind every texture point on
        // the SGX (the 3-orders-of-magnitude copy penalty).
        let worst_tex = r
            .ranked
            .iter()
            .filter(|p| p.config.target == RenderStrategy::Texture)
            .map(|p| p.period)
            .max()
            .unwrap();
        let best_fb = r
            .ranked
            .iter()
            .filter(|p| p.config.target == RenderStrategy::Framebuffer)
            .map(|p| p.period)
            .min()
            .unwrap();
        assert!(worst_tex < best_fb);
    }

    #[test]
    fn sgemm_tuner_picks_the_largest_legal_block() {
        let (a, b) = inputs(256);
        let r = tune_sgemm(
            &Platform::videocore_iv(),
            256,
            &a,
            &b,
            &[1, 4, 16, 32],
            1,
            3,
        )
        .unwrap();
        // Block 32 exceeds shader limits and is skipped entirely...
        assert!(r.ranked.iter().all(|p| p.block != 32));
        // ...and the winner uses the largest compiling block.
        assert_eq!(r.best().block, 16);
        // On VideoCore the framebuffer target wins (DMA).
        assert_eq!(r.best().config.target, RenderStrategy::Framebuffer);
    }

    #[test]
    fn tuning_is_thread_count_invariant() {
        let (a, b) = inputs(64);
        let p = Platform::videocore_iv();
        let sum_serial = tune_sum_with_threads(&p, 64, &a, &b, 2, 8, 1).unwrap();
        let sgemm_serial =
            tune_sgemm_with_threads(&p, 64, &a, &b, &[1, 4, 16, 32], 1, 3, 1).unwrap();
        for threads in [2, 4, 8] {
            assert_eq!(
                tune_sum_with_threads(&p, 64, &a, &b, 2, 8, threads).unwrap(),
                sum_serial,
                "sum at {threads} threads"
            );
            assert_eq!(
                tune_sgemm_with_threads(&p, 64, &a, &b, &[1, 4, 16, 32], 1, 3, threads).unwrap(),
                sgemm_serial,
                "sgemm at {threads} threads"
            );
        }
    }

    #[test]
    fn ranking_is_sorted() {
        let (a, b) = inputs(64);
        let r = tune_sum(&Platform::sgx_545(), 64, &a, &b, 2, 8).unwrap();
        for w in r.ranked.windows(2) {
            assert!(w[0].period <= w[1].period);
        }
        assert!(r.speedup_over("no-such-point").is_none());
    }
}
