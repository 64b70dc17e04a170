//! `shade`: functional blocked sgemm (block 16) at 128² on both paper
//! platforms. One op is one `Sgemm::multiply` on each platform, so every
//! op does the same work.

use std::time::Instant;

use mgpu_bench::setup::best_config;
use mgpu_gles::Gl;
use mgpu_gpgpu::{RenderStrategy, Sgemm};
use mgpu_tbdr::{Platform, SimTime};
use mgpu_workloads::{max_abs_error, random_matrix, sgemm_blocked_ref, Matrix};

use crate::probe::{self, digest, Facts, SimTotals, DIGEST_INIT};
use crate::report::{timed_loop, Cycle, Tally};
use crate::trace::span;
use crate::{repeat_setup, Args, Outcome};

/// Matrix edge: each RGBA8-encoded input is 64 KiB.
pub const N: u32 = 128;
/// Accumulation block (the paper's optimised kernel).
pub const BLOCK: u32 = 16;
/// Largest tolerated absolute error against the CPU reference. Products
/// span `[0, 128)`; RGBA8 quantisation of each pass's partial sum keeps
/// the observed error well under this.
pub const TOLERANCE: f32 = 1e-3;

struct Device {
    gl: Gl,
    op: Sgemm,
}

struct State {
    devices: Vec<Device>,
    /// Digest of the verified product (identical on both platforms).
    want: u64,
    /// Simulated time of one multiplication per platform.
    sim: SimTime,
}

fn inputs(seed: u64) -> (Matrix, Matrix) {
    let mut rng = probe::rng(seed, 0x5AADE);
    (
        random_matrix(N as usize, rng.next_u64(), 0.0, 1.0),
        random_matrix(N as usize, rng.next_u64(), 0.0, 1.0),
    )
}

fn build(platform: Platform, a: &Matrix, b: &Matrix, record: bool) -> Result<Device, String> {
    let mut gl = Gl::new(platform, N, N);
    gl.set_frame_recording(record);
    let op = {
        let _s = span("gpgpu.op_build");
        Sgemm::new(
            &mut gl,
            &best_config(RenderStrategy::Texture),
            N,
            BLOCK,
            a.data(),
            b.data(),
        )
    }
    .map_err(|e| format!("sgemm build: {e}"))?;
    Ok(Device { gl, op })
}

/// Context creation, compile, input generation and upload, and the first
/// multiplication on each platform, checked against the CPU reference.
fn setup(seed: u64) -> Result<State, String> {
    let (a, b) = inputs(seed);
    let reference = sgemm_blocked_ref(&a, &b, BLOCK as usize);
    let mut devices = Vec::new();
    let mut want = None;
    let mut sim = SimTime::ZERO;
    for platform in Platform::paper_pair() {
        let mut d = build(platform, &a, &b, false)?;
        let before = d.gl.elapsed();
        d.op.multiply(&mut d.gl).map_err(|e| e.to_string())?;
        sim += d.gl.elapsed().saturating_sub(before);
        let got = d.op.result(&mut d.gl).map_err(|e| e.to_string())?;
        let err = max_abs_error(&got, reference.data());
        if err > TOLERANCE {
            return Err(format!(
                "sgemm differs from the CPU reference by {err} (> {TOLERANCE})"
            ));
        }
        let bytes = d.op.snapshot_bytes(&mut d.gl).map_err(|e| e.to_string())?;
        let h = digest(DIGEST_INIT, &bytes);
        if *want.get_or_insert(h) != h {
            return Err("the two platforms produced different product bytes".to_owned());
        }
        devices.push(d);
    }
    Ok(State {
        devices,
        want: want.unwrap_or(DIGEST_INIT),
        sim,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut state, setup_s) = repeat_setup(|| setup(args.seed))?;
    crate::trace::set_enabled(args.trace);
    for d in &state.devices {
        probe::time_elapsed(&d.gl, "gles.elapsed.first");
    }
    crate::trace::set_enabled(false);
    let want = state.want;
    let mut op_id = 0u64;
    let timed = timed_loop(args.seconds, args.trace, |_| {
        op_id += 1;
        crate::trace::set_op(op_id);
        let mut ok = true;
        let t = Instant::now();
        for d in &mut state.devices {
            let _s = span("gpgpu.multiply");
            ok &= d.op.multiply(&mut d.gl).is_ok();
        }
        let dt = t.elapsed().as_secs_f64();
        for d in &mut state.devices {
            ok &=
                d.op.snapshot_bytes(&mut d.gl)
                    .is_ok_and(|bytes| digest(DIGEST_INIT, &bytes) == want);
        }
        Cycle {
            lat_ms: vec![dt * 1e3],
            busy_s: dt,
            failed: u64::from(!ok),
        }
    });
    let tally = Tally {
        attempted: timed.lat_ms.len() as u64,
        failed: timed.failed,
    };
    let mut out = Outcome::new(timed, setup_s, tally);
    out.digest = want;
    out.sim_s = state.sim.as_secs_f64();
    if args.trace {
        crate::trace::set_enabled(true);
        for d in &state.devices {
            probe::time_elapsed(&d.gl, "gles.elapsed.last");
        }
        probe::plan_cache_facts(state.devices.iter().map(|d| &d.gl), &mut out.facts);
        layers(args.seed, &mut out)?;
        crate::trace::set_enabled(false);
    }
    Ok(out)
}

/// The traced run's direct layer calls with this workload's kernel and
/// inputs.
fn layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let facts: &mut Facts = &mut out.facts;
    let (a, b) = inputs(seed);
    let platform = Platform::videocore_iv();
    let src = mgpu_gpgpu::kernels::sgemm_kernel(
        mgpu_gpgpu::Encoding::Fp32,
        N,
        BLOCK,
        &mgpu_gpgpu::Range::unit(),
        &mgpu_gpgpu::Range::new(0.0, N as f32),
    );
    let shaders = probe::compile_stages(&[src], &probe::limits_of(&platform), 5, facts)?;
    probe::plan_builds(&shaders, 5)?;

    // The operator replayed through direct GL calls must give its bytes.
    let (bytes, _) = probe::direct_sgemm(&platform, N, BLOCK, a.data(), b.data(), true, 3)
        .map_err(|e| format!("direct sgemm: {e}"))?;
    if digest(DIGEST_INIT, &bytes) != out.digest {
        out.problems
            .push("direct-GL sgemm bytes differ from Sgemm::multiply".to_owned());
    }
    facts.insert("frags_per_draw", f64::from(N * N));

    // Frames of two multiplications, replayed through a fresh scheduler.
    let mut rec = build(platform.clone(), &a, &b, true)?;
    for _ in 0..2 {
        rec.op.multiply(&mut rec.gl).map_err(|e| e.to_string())?;
    }
    probe::check_replay(&platform, &rec.gl, &mut out.problems);
    let mut totals = SimTotals::default();
    totals.add(&rec.gl.report());
    totals.record(2.0, facts);

    probe::codec(a.data(), &mgpu_gpgpu::Range::unit(), 20, facts);
    Ok(())
}
