//! `pipelines`: the three workload families (pyramid, Jacobi, training)
//! at n = 128 on functional contexts with tile skip on. One op is one
//! round: a fresh run (`begin_run` + `run_once`) of each family.

use std::time::Instant;

use mgpu_gles::{ExecConfig, Gl};
use mgpu_gpgpu::{OptConfig, Pipeline, Range};
use mgpu_tbdr::{Platform, SimTime};
use mgpu_workloads::{
    random_matrix, verify_output, DenseTraining, GaussianPyramid, JacobiInpaint, Workload,
};

use crate::probe::{self, digest, Bind, Direct, SimTotals, DIGEST_INIT};
use crate::report::{timed_loop, Cycle, Tally};
use crate::trace::span;
use crate::{repeat_setup, Args, Outcome};

/// Surface edge of every family.
pub const N: u32 = 128;
/// Pyramid depth.
pub const LEVELS: u32 = 3;
/// Jacobi iterations per run.
pub const JACOBI_ITERS: u32 = 10;
/// Training matmul chunk and SGD steps per run.
pub const TRAIN_BLOCK: u32 = 16;
/// SGD steps per training run.
pub const TRAIN_STEPS: u32 = 1;

/// One family's names in the trace and the per-layer catalogue.
struct Names {
    /// Span of its timed runs.
    span: &'static str,
    /// Fact key of its passes per run.
    passes: &'static str,
    /// Its tile-skip hit-ratio metric.
    tile_skip: &'static str,
}

struct Family {
    names: Names,
    workload: Box<dyn Workload>,
    gl: Gl,
    pipeline: Pipeline,
    /// Digest of its verified output.
    want: u64,
}

struct Seeds {
    pyramid: u64,
    jacobi: u64,
    train: u64,
}

fn seeds(seed: u64) -> Seeds {
    let mut rng = probe::rng(seed, 0x919E);
    Seeds {
        pyramid: rng.next_u64(),
        jacobi: rng.next_u64(),
        train: rng.next_u64(),
    }
}

fn workloads(seed: u64) -> Vec<(Names, Box<dyn Workload>)> {
    let s = seeds(seed);
    vec![
        (
            Names {
                span: "workloads.run_once.pyramid",
                passes: "passes.pyramid",
                tile_skip: "gles.tile_skip_hit_ratio.pyramid",
            },
            Box::new(GaussianPyramid::new(N, LEVELS, s.pyramid)),
        ),
        (
            Names {
                span: "workloads.run_once.jacobi",
                passes: "passes.jacobi",
                tile_skip: "gles.tile_skip_hit_ratio.jacobi",
            },
            Box::new(JacobiInpaint::new(N, JACOBI_ITERS, s.jacobi)),
        ),
        (
            Names {
                span: "workloads.run_once.train",
                passes: "passes.train",
                tile_skip: "gles.tile_skip_hit_ratio.train",
            },
            Box::new(DenseTraining::new(N, TRAIN_BLOCK, TRAIN_STEPS, s.train)),
        ),
    ]
}

fn build(workload: &dyn Workload, record: bool) -> Result<(Gl, Pipeline), String> {
    let mut gl = Gl::new(Platform::videocore_iv(), N, N);
    gl.set_frame_recording(record);
    let mut cfg = ExecConfig::from_env().with_tile_skip(true);
    if let Some(n) = std::env::var("XP_THREADS").ok().and_then(|v| v.parse().ok()) {
        cfg = cfg.with_thread_count(n);
    }
    gl.set_exec_config(cfg);
    let pipeline = {
        let _s = span("gpgpu.op_build");
        workload
            .builder()
            .build(&mut gl, &OptConfig::baseline().without_swap())
    }
    .map_err(|e| format!("{}: build: {e}", workload.name()))?;
    Ok((gl, pipeline))
}

/// One fresh run: restore the seed state, then every pass once.
fn run_fresh(gl: &mut Gl, p: &mut Pipeline, name: &'static str) -> Result<(), String> {
    p.begin_run(gl).map_err(|e| e.to_string())?;
    let _s = span(name);
    p.run_once(gl).map_err(|e| e.to_string())
}

fn output_digest(gl: &mut Gl, p: &mut Pipeline) -> Option<u64> {
    p.output_bytes(gl).ok().map(|b| digest(DIGEST_INIT, &b))
}

/// Builds every family and runs two rounds: the first verified against
/// the CPU references, the second (tile skip warm) timed in simulation.
fn setup(seed: u64) -> Result<(Vec<Family>, SimTime), String> {
    let mut families = Vec::new();
    let mut sim = SimTime::ZERO;
    for (names, workload) in workloads(seed) {
        let (mut gl, mut pipeline) = build(workload.as_ref(), false)?;
        run_fresh(&mut gl, &mut pipeline, names.span)?;
        let bytes = pipeline.output_bytes(&mut gl).map_err(|e| e.to_string())?;
        verify_output(workload.as_ref(), &bytes)?;
        let before = gl.elapsed();
        run_fresh(&mut gl, &mut pipeline, names.span)?;
        sim += gl.elapsed().saturating_sub(before);
        let want = digest(DIGEST_INIT, &bytes);
        if output_digest(&mut gl, &mut pipeline) != Some(want) {
            return Err(format!(
                "{}: second run changed the output",
                workload.name()
            ));
        }
        families.push(Family {
            names,
            workload,
            gl,
            pipeline,
            want,
        });
    }
    Ok((families, sim))
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((mut families, sim), setup_s) = repeat_setup(|| setup(args.seed))?;
    crate::trace::set_enabled(args.trace);
    for f in &families {
        probe::time_elapsed(&f.gl, "gles.elapsed.first");
    }
    crate::trace::set_enabled(false);
    let mut op_id = 0u64;
    let timed = timed_loop(args.seconds, args.trace, |_| {
        op_id += 1;
        crate::trace::set_op(op_id);
        let mut ok = true;
        let t = Instant::now();
        for f in &mut families {
            ok &= run_fresh(&mut f.gl, &mut f.pipeline, f.names.span).is_ok();
        }
        let dt = t.elapsed().as_secs_f64();
        for f in &mut families {
            ok &= output_digest(&mut f.gl, &mut f.pipeline) == Some(f.want);
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
    out.digest = families
        .iter()
        .fold(DIGEST_INIT, |h, f| digest(h, &f.want.to_le_bytes()));
    out.sim_s = sim.as_secs_f64();
    if args.trace {
        crate::trace::set_enabled(true);
        for f in &families {
            probe::time_elapsed(&f.gl, "gles.elapsed.last");
            let s = f.gl.tile_skip_stats();
            let checked = (s.hits + s.misses) as f64;
            out.facts.insert(
                f.names.tile_skip,
                crate::report::ratio(s.hits as f64, checked),
            );
            out.facts.insert(f.names.passes, f.pipeline.passes() as f64);
        }
        probe::plan_cache_facts(families.iter().map(|f| &f.gl), &mut out.facts);
        layers(args.seed, &families, &mut out)?;
        crate::trace::set_enabled(false);
    }
    Ok(out)
}

/// The traced run's direct layer calls with this workload's kernels and
/// inputs.
fn layers(seed: u64, families: &[Family], out: &mut Outcome) -> Result<(), String> {
    let platform = Platform::videocore_iv();
    let mut sources = Vec::new();
    for f in families {
        sources.extend(probe::pipeline_sources(&f.workload.builder())?);
    }
    let shaders = probe::compile_stages(&sources, &probe::limits_of(&platform), 3, &mut out.facts)?;
    probe::plan_builds(&shaders, 3)?;

    // The pyramid replayed through direct GL calls must give its bytes.
    let pyramid = GaussianPyramid::new(N, LEVELS, seeds(seed).pyramid);
    let mut d = Direct::new(&platform, N, true);
    let img = d.upload(&pyramid.image()).map_err(|e| e.to_string())?;
    let mut progs = Vec::new();
    for level in 0..LEVELS {
        for horizontal in [true, false] {
            let src = mgpu_workloads::pipelines::blur3_kernel(N, 1 << level, horizontal);
            let prog = d.program(&src, &["u_img"]).map_err(|e| e.to_string())?;
            let bind = if level == 0 && horizontal {
                Bind::Tex(img)
            } else {
                Bind::Prev
            };
            progs.push((prog, bind));
        }
    }
    for rep in 0..3 {
        for &(prog, bind) in &progs {
            d.pass(prog, &[bind], &[], rep == 0)
                .map_err(|e| e.to_string())?;
        }
    }
    let bytes = d.finish().map_err(|e| e.to_string())?;
    if digest(DIGEST_INIT, &bytes) != families[0].want {
        out.problems
            .push("direct-GL pyramid bytes differ from the pipeline's".to_owned());
    }
    out.facts.insert("frags_per_draw", f64::from(N * N));

    // Two rounds of every family recorded, replayed through a fresh
    // scheduler.
    let mut totals = SimTotals::default();
    for (_, workload) in workloads(seed) {
        let (mut gl, mut pipeline) = build(workload.as_ref(), true)?;
        for _ in 0..2 {
            run_fresh(&mut gl, &mut pipeline, "workloads.run_once.recorded")?;
        }
        probe::check_replay(&platform, &gl, &mut out.problems);
        totals.add(&gl.report());
    }
    totals.record(2.0, &mut out.facts);

    let values = random_matrix(N as usize, seed, 0.0, 1.0);
    probe::codec(values.data(), &Range::unit(), 20, &mut out.facts);
    Ok(())
}
