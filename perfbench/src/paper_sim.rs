//! `paper-sim`: timing-only regeneration of the paper's evaluation at
//! 1024² on both platforms — the Fig. 3 sync ladder, the Fig. 4a targets,
//! the Fig. 4b block sweep with the block-32 limit rejection, the Fig. 5
//! reuse sweep and the VBO hints. One op is one configuration's
//! steady-state measurement on a fresh context.

use std::collections::BTreeMap;
use std::time::Instant;

use mgpu_bench::setup::{best_config, Protocol};
use mgpu_gles::{BufferUsage, Gl};
use mgpu_gpgpu::{steady_period, OptConfig, Range, RenderStrategy, Sgemm, Sum};
use mgpu_tbdr::{Platform, SimTime};
use mgpu_workloads::{random_matrix, Matrix};

use crate::probe::{self, digest, SimTotals, DIGEST_INIT};
use crate::report::{timed_loop, Cycle, Tally};
use crate::trace::span;
use crate::{repeat_setup, Args, Outcome};

/// The paper's matrix edge.
pub const N: u32 = mgpu_bench::setup::PAPER_N;
/// Block sizes of the Fig. 4b sweep.
pub const BLOCKS: [u32; 5] = [1, 2, 4, 8, 16];
/// The block size every platform must reject at compile time.
pub const REJECTED_BLOCK: u32 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sum { dependent: bool, reupload: bool },
    Sgemm(u32),
}

/// One measured configuration.
#[derive(Debug, Clone)]
struct Config {
    /// Index into [`platforms`].
    platform: usize,
    /// Figure-qualified label, unique per platform.
    key: String,
    kind: Kind,
    cfg: OptConfig,
}

fn platforms() -> [Platform; 2] {
    [Platform::videocore_iv(), Platform::sgx_545()]
}

/// Figure labels whose configuration another label already measures,
/// mapped to that label.
type Aliases = BTreeMap<String, String>;

/// Every distinct configuration of the evaluation, on both platforms.
/// Figures share points (Fig. 4a's sgemm is Fig. 4b's block 16, and so
/// on); each point is measured once and its other labels are aliases.
fn configs() -> (Vec<Config>, Aliases) {
    const SUM: Kind = Kind::Sum {
        dependent: false,
        reupload: false,
    };
    let tex = best_config(RenderStrategy::Texture);
    let fb = best_config(RenderStrategy::Framebuffer);
    let base = OptConfig::baseline();
    let mut points: Vec<(String, Kind, OptConfig)> = Vec::new();
    let mut aliases = Aliases::new();
    let mut add = |key: String, kind: Kind, cfg: OptConfig| match points
        .iter()
        .find(|(_, k, c)| *k == kind && *c == cfg)
    {
        Some((same, ..)) => {
            aliases.insert(key, same.clone());
        }
        None => points.push((key, kind, cfg)),
    };
    for (name, cfg) in [
        ("baseline", base),
        ("interval0", base.with_swap_interval_0()),
        ("noswap", base.without_swap()),
        ("noswap_fp24", base.without_swap().with_fp24()),
    ] {
        add(format!("fig3.sum.{name}"), SUM, cfg);
        add(format!("fig3.sgemm.{name}"), Kind::Sgemm(16), cfg);
    }
    for (target, cfg) in [("tex", tex), ("fb", fb)] {
        add(format!("fig4a.sum.{target}"), SUM, cfg);
        let dependent = Kind::Sum {
            dependent: true,
            reupload: false,
        };
        add(format!("fig4a.sumdep.{target}"), dependent, cfg);
        add(format!("fig4a.sgemm.{target}"), Kind::Sgemm(16), cfg);
        for block in BLOCKS {
            add(format!("fig4b.b{block}.{target}"), Kind::Sgemm(block), cfg);
        }
        // Fig. 5a streams fresh inputs under texture rendering; Fig. 5b
        // reuses the copy destination under framebuffer rendering.
        let streamed = Kind::Sum {
            dependent: false,
            reupload: target == "tex",
        };
        for (reuse, c) in [("fresh", cfg), ("reuse", cfg.with_texture_reuse())] {
            add(format!("fig5.sum.{target}.{reuse}"), streamed, c);
            add(format!("fig5.sgemm.{target}.{reuse}"), Kind::Sgemm(16), c);
        }
    }
    add(
        format!("fig4b.b{REJECTED_BLOCK}"),
        Kind::Sgemm(REJECTED_BLOCK),
        tex,
    );
    let vsync0 = base.with_swap_interval_0();
    add("vbo.client".to_owned(), SUM, vsync0);
    for (hint, usage) in [
        ("static", BufferUsage::StaticDraw),
        ("dynamic", BufferUsage::DynamicDraw),
        ("stream", BufferUsage::StreamDraw),
    ] {
        add(format!("vbo.{hint}"), SUM, vsync0.with_vbo(usage));
    }
    let configs = (0..platforms().len())
        .flat_map(|platform| {
            points.iter().map(move |(key, kind, cfg)| Config {
                platform,
                key: key.clone(),
                kind: *kind,
                cfg: *cfg,
            })
        })
        .collect();
    (configs, aliases)
}

struct Inputs {
    a: Matrix,
    b: Matrix,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = probe::rng(seed, 0x9A9E);
    Inputs {
        a: random_matrix(N as usize, rng.next_u64(), 0.0, 1.0),
        b: random_matrix(N as usize, rng.next_u64(), 0.0, 1.0),
    }
}

/// Measures one configuration's steady-state period on a fresh
/// timing-only context. `Ok(None)` is the expected block-32 rejection.
fn measure(
    platform: &Platform,
    c: &Config,
    inputs: &Inputs,
    record: bool,
) -> Result<(Option<SimTime>, Gl), String> {
    let mut gl = {
        let _s = span("gles.context_new");
        Gl::new(platform.clone(), N, N)
    };
    gl.set_functional(false);
    gl.set_frame_recording(record);
    let (a, b) = (inputs.a.data(), inputs.b.data());
    let period = match c.kind {
        Kind::Sum {
            dependent,
            reupload,
        } => {
            let mut op = {
                let _s = span("gpgpu.op_build");
                Sum::builder(N)
                    .dependent(dependent)
                    .reupload(reupload)
                    .range_out(Range::new(0.0, 2.0))
                    .build(&mut gl, &c.cfg, a, b)
            }
            .map_err(|e| format!("{}: {e}", c.key))?;
            let p = Protocol::default();
            let _s = span("gpgpu.steady_period");
            steady_period(&mut gl, p.warmup, p.iters, |gl| op.step(gl))
        }
        Kind::Sgemm(block) => {
            let built = {
                let _s = span("gpgpu.op_build");
                Sgemm::new(&mut gl, &c.cfg, N, block, a, b)
            };
            let mut op = match built {
                Err(e) if block == REJECTED_BLOCK && e.is_shader_limit() => return Ok((None, gl)),
                Err(e) => return Err(format!("{}: {e}", c.key)),
                Ok(_) if block == REJECTED_BLOCK => {
                    return Err(format!("{}: compiled past the shader limits", c.key))
                }
                Ok(op) => op,
            };
            let p = Protocol::sgemm();
            let _s = span("gpgpu.steady_period");
            steady_period(&mut gl, p.warmup, p.iters, |gl| op.multiply(gl))
        }
    }
    .map_err(|e| format!("{}: {e}", c.key))?;
    Ok((Some(period), gl))
}

/// Periods of one cycle, keyed by platform and label.
type Periods = BTreeMap<(usize, String), Option<SimTime>>;

/// The paper's qualitative results (§V), as the repository's paper-claim
/// tests state them; returns each claim that does not hold.
fn claims(periods: &Periods, aliases: &Aliases) -> Vec<String> {
    let mut failed = Vec::new();
    let period = |p: usize, key: &str| {
        let key = aliases.get(key).map_or(key, String::as_str);
        periods.get(&(p, key.to_owned())).copied()
    };
    let t = |p: usize, key: &str| -> f64 {
        period(p, key)
            .flatten()
            .map_or(f64::NAN, SimTime::as_secs_f64)
    };
    // Speed-up of `to` over `from`.
    let s = |p: usize, from: &str, to: &str| t(p, from) / t(p, to);
    let mut claim = |ok: bool, what: &str| {
        if !ok {
            failed.push(what.to_owned());
        }
    };
    let (vc, sgx) = (0, 1);
    for p in [vc, sgx] {
        claim(
            period(p, &format!("fig4b.b{REJECTED_BLOCK}")) == Some(None),
            "block 32 exceeds the shader limits",
        );
        for target in ["tex", "fb"] {
            let times: Vec<f64> = BLOCKS
                .iter()
                .map(|b| t(p, &format!("fig4b.b{b}.{target}")))
                .collect();
            claim(
                times.windows(2).all(|w| w[1] <= w[0]),
                "fig4b: time falls with block size",
            );
        }
        for hint in ["static", "dynamic", "stream"] {
            let v = s(p, "vbo.client", &format!("vbo.{hint}"));
            claim((0.999..1.02).contains(&v), "vbo: hints gain at most ~1.5%");
        }
        claim(
            s(p, "vbo.client", "vbo.static") >= s(p, "vbo.client", "vbo.stream")
                && s(p, "vbo.client", "vbo.stream") >= s(p, "vbo.client", "vbo.dynamic"),
            "vbo: static >= stream >= dynamic",
        );
    }
    let vc_i0 = s(vc, "fig3.sum.baseline", "fig3.sum.interval0");
    claim(vc_i0 > 7.0 && vc_i0 < 11.0, "fig3: VC sum interval0 ~9.2x");
    claim(
        s(vc, "fig3.sum.baseline", "fig3.sum.noswap_fp24") > 16.0,
        "fig3: VC sum beats 16x over baseline",
    );
    let sgx_ns = s(sgx, "fig3.sum.baseline", "fig3.sum.noswap");
    claim(sgx_ns > 2.5 && sgx_ns < 4.0, "fig3: SGX sum noswap ~3.5x");
    claim(
        s(sgx, "fig4a.sum.fb", "fig4a.sum.tex") > 500.0,
        "fig4a: SGX sum texture wins by ~3 orders",
    );
    claim(
        s(vc, "fig4a.sgemm.tex", "fig4a.sgemm.fb") > 1.0,
        "fig4a: VC sgemm prefers the framebuffer",
    );
    claim(
        BLOCKS
            .iter()
            .all(|b| t(vc, &format!("fig4b.b{b}.fb")) <= t(vc, &format!("fig4b.b{b}.tex"))),
        "fig4b: VC framebuffer wins every block (DMA)",
    );
    let vc_reuse = s(vc, "fig5.sum.tex.fresh", "fig5.sum.tex.reuse");
    claim(
        vc_reuse > 1.08 && vc_reuse < 1.25,
        "fig5a: VC sum reuse ~+15%",
    );
    let sgx_fb = s(sgx, "fig5.sgemm.fb.fresh", "fig5.sgemm.fb.reuse");
    claim(
        sgx_fb > 0.6 && sgx_fb < 0.85,
        "fig5b: SGX sgemm framebuffer reuse ~0.70",
    );
    failed
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up or measurement failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let platforms = platforms();
    let (mut order, aliases) = configs();
    // Set-up: input generation and the first op, the same one (Fig. 3's
    // baseline sum on the VideoCore) for every seed.
    let first_op = order[0].clone();
    let (inputs, setup_s) = repeat_setup(|| {
        let inputs = inputs(args.seed);
        measure(&platforms[first_op.platform], &first_op, &inputs, false)?;
        Ok(inputs)
    })?;
    probe::shuffle(&mut probe::rng(args.seed, 0x0DE7), &mut order);

    let mut first: Option<Periods> = None;
    let mut problems = Vec::new();
    let mut op_id = 0u64;
    let timed = timed_loop(args.seconds, args.trace, |_| {
        let mut c = Cycle::default();
        let mut periods = Periods::new();
        for conf in &order {
            op_id += 1;
            crate::trace::set_op(op_id);
            let t = Instant::now();
            let result = measure(&platforms[conf.platform], conf, &inputs, false);
            let dt = t.elapsed().as_secs_f64();
            c.lat_ms.push(dt * 1e3);
            c.busy_s += dt;
            match result {
                Ok((period, _)) => {
                    periods.insert((conf.platform, conf.key.clone()), period);
                }
                Err(e) => {
                    c.failed += 1;
                    problems.push(e);
                }
            }
        }
        let broken = claims(&periods, &aliases);
        c.failed += (broken.len() as u64).min(order.len() as u64);
        problems.extend(broken);
        match &first {
            None => first = Some(periods),
            // Simulated time is deterministic: every cycle must repeat it.
            Some(f) if *f != periods => {
                problems.push("a cycle's simulated periods differ from the first's".to_owned());
                c.failed += 1;
            }
            Some(_) => {}
        }
        c
    });
    problems.sort();
    problems.dedup();
    let tally = Tally {
        attempted: timed.lat_ms.len() as u64,
        failed: timed.failed,
    };
    let mut out = Outcome::new(timed, setup_s, tally);
    out.problems = problems;
    let periods = first.unwrap_or_default();
    out.sim_s = periods.values().flatten().map(|p| p.as_secs_f64()).sum();
    out.digest = periods.iter().fold(DIGEST_INIT, |h, ((p, key), period)| {
        let ns = period.map_or(0, SimTime::as_nanos);
        digest(
            digest(digest(h, &[*p as u8]), key.as_bytes()),
            &ns.to_le_bytes(),
        )
    });
    if args.trace {
        crate::trace::set_enabled(true);
        layers(&platforms, &order, &inputs, &mut out)?;
        crate::trace::set_enabled(false);
    }
    Ok(out)
}

/// The traced run's direct layer calls with this workload's kernels and
/// inputs. The workload is timing-only, so the direct-GL sgemm has no
/// bytes to compare; its frames are cross-checked through the replay.
fn layers(
    platforms: &[Platform; 2],
    order: &[Config],
    inputs: &Inputs,
    out: &mut Outcome,
) -> Result<(), String> {
    let enc = mgpu_gpgpu::Encoding::Fp32;
    let mut sources = vec![mgpu_gpgpu::kernels::sum_kernel(
        enc,
        &Range::unit(),
        &Range::new(0.0, 2.0),
    )];
    for block in BLOCKS.iter().copied().chain([REJECTED_BLOCK]) {
        sources.push(mgpu_gpgpu::kernels::sgemm_kernel(
            enc,
            N,
            block,
            &Range::unit(),
            &Range::new(0.0, N as f32),
        ));
    }
    let shaders = probe::compile_stages(
        &sources,
        &probe::limits_of(&platforms[0]),
        3,
        &mut out.facts,
    )?;
    probe::plan_builds(&shaders, 3)?;

    let (_, direct) = probe::direct_sgemm(
        &platforms[0],
        N,
        16,
        inputs.a.data(),
        inputs.b.data(),
        false,
        2,
    )
    .map_err(|e| format!("direct sgemm: {e}"))?;
    probe::plan_cache_facts([&direct.gl], &mut out.facts);
    out.facts.insert("frags_per_draw", f64::from(N * N));

    // One op of each kind recorded, replayed through a fresh scheduler.
    let mut totals = SimTotals::default();
    let mut recorded = 0.0;
    for key in ["fig3.sum.noswap", "fig4a.sgemm.fb"] {
        for conf in order.iter().filter(|c| c.key == key) {
            let platform = &platforms[conf.platform];
            let (_, gl) = measure(platform, conf, inputs, true)?;
            probe::time_elapsed(&gl, "gles.elapsed.last");
            probe::check_replay(platform, &gl, &mut out.problems);
            totals.add(&gl.report());
            recorded += 1.0;
        }
    }
    totals.record(recorded, &mut out.facts);
    probe::time_elapsed(&Gl::new(platforms[0].clone(), N, N), "gles.elapsed.first");

    probe::codec(inputs.a.data(), &Range::unit(), 3, &mut out.facts);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block32(platform: usize) -> Config {
        configs()
            .0
            .into_iter()
            .find(|c| c.platform == platform && c.key == format!("fig4b.b{REJECTED_BLOCK}"))
            .expect("block 32 is measured")
    }

    /// The block-32 shader-limit rejection is the expected outcome, so it
    /// measures as a success with no period.
    #[test]
    fn block_32_rejection_is_expected() {
        let inputs = inputs(1);
        for (i, platform) in platforms().iter().enumerate() {
            let (period, _) = measure(platform, &block32(i), &inputs, false).expect("success");
            assert_eq!(period, None);
        }
    }

    /// A block-32 kernel that compiled would break the paper's result.
    #[test]
    fn a_compiled_block_32_breaks_a_claim() {
        let mut periods = Periods::new();
        for platform in 0..2 {
            periods.insert(
                (platform, format!("fig4b.b{REJECTED_BLOCK}")),
                Some(SimTime::from_micros(1)),
            );
        }
        assert!(claims(&periods, &Aliases::new())
            .iter()
            .any(|c| c == "block 32 exceeds the shader limits"));
    }
}
