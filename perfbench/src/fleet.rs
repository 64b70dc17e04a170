//! `fleet`: a six-device `FleetService` serving 2048 tenants a mix of
//! small sum, sgemm, pyramid, Jacobi and training jobs under seeded fault
//! plans (a compile-failure burst on device 0, 1% context-loss noise on
//! the others). Arrivals are open-loop in simulated time (a fixed gap);
//! on the host the loop is closed: submit a wave, then `drain()`. One op
//! is one job; its latency is its wave's submit-and-drain time.

use std::time::Instant;

use mgpu_bench::setup::best_config;
use mgpu_gles::{FaultPlan, Gl};
use mgpu_gpgpu::{Range, RenderStrategy, ResilientRunner, Sgemm};
use mgpu_service::{
    check_isolation, FleetService, JobRecord, JobSpec, ServiceConfig, ServiceError, ServiceStats,
    TenantId,
};
use mgpu_tbdr::SimTime;
use mgpu_workloads::{random_matrix, DenseTraining, GaussianPyramid, JacobiInpaint, Workload};

use crate::probe::{self, digest, SimTotals, DIGEST_INIT};
use crate::report::{percentile, timed_loop, Cycle, Tally};
use crate::trace::span;
use crate::{repeat_setup, Args, Outcome};

/// Simulated devices.
pub const DEVICES: usize = 6;
/// Tenants; each submits one job per epoch.
pub const TENANTS: usize = 2048;
/// Jobs per wave (a multiple of the mix length).
pub const WAVE: usize = 32;
/// Waves per epoch: every tenant's job once.
pub const WAVES: usize = TENANTS / WAVE;
/// Simulated gap between consecutive arrivals.
const GAP: SimTime = SimTime::from_micros(2);
/// Compile failures opening device 0's fault plan (trips its breaker).
const COMPILE_BURST: u64 = 36;
/// Jobs in the no-op fleet that measures per-job service overhead.
const NOOP_JOBS: usize = 512;

/// The job mix: every wave holds each entry `WAVE / MIX.len()` times.
const MIX: [JobSpec; 8] = [
    JobSpec::Sum {
        n: 8,
        iterations: 1,
    },
    JobSpec::Sum {
        n: 8,
        iterations: 2,
    },
    JobSpec::Sgemm { n: 8, block: 4 },
    JobSpec::Sgemm { n: 8, block: 2 },
    JobSpec::Pyramid { n: 16, levels: 2 },
    JobSpec::Jacobi {
        n: 8,
        iterations: 4,
    },
    JobSpec::Train {
        n: 8,
        block: 4,
        steps: 1,
    },
    JobSpec::Sum {
        n: 8,
        iterations: 1,
    },
];

/// The service configuration: seeded fault plans and service seed.
fn config(seed: u64) -> ServiceConfig {
    let mut rng = probe::rng(seed, 0xF1EE7);
    let fault_seed = rng.next_u64();
    let burst = (0..COMPILE_BURST).fold(FaultPlan::seeded(fault_seed), |plan, i| {
        plan.compile_fail_at(i)
    });
    let fault_plans = (0..DEVICES as u64)
        .map(|d| {
            Some(if d == 0 {
                burst.clone()
            } else {
                FaultPlan::seeded(fault_seed.wrapping_add(d)).p_ctx_loss(0.01)
            })
        })
        .collect();
    ServiceConfig {
        devices: DEVICES,
        fault_plans,
        queue_depth: 2,
        seed: rng.next_u64(),
        ..ServiceConfig::default()
    }
}

/// Every tenant's job for one epoch, wave by wave: each wave is the mix
/// repeated, in a seeded order.
fn waves() -> usize {
    std::env::var("XP_WAVES").ok().and_then(|v| v.parse().ok()).unwrap_or(WAVES)
}

fn schedule(seed: u64) -> Vec<JobSpec> {
    let mut rng = probe::rng(seed, 0x5C4ED);
    let mut jobs = Vec::with_capacity(TENANTS);
    for _ in 0..waves() {
        let mut wave: Vec<JobSpec> = MIX.iter().copied().cycle().take(WAVE).collect();
        probe::shuffle(&mut rng, &mut wave);
        jobs.extend(wave);
    }
    jobs
}

struct Epoch {
    service: FleetService,
    tenants: Vec<TenantId>,
    arrival: SimTime,
}

impl Epoch {
    fn new(cfg: &ServiceConfig) -> Result<Self, String> {
        let mut service = FleetService::new(cfg.clone()).map_err(|e| e.to_string())?;
        let tenants = (0..TENANTS)
            .map(|t| service.add_tenant([1u32, 2, 4][t % 3]))
            .collect();
        Ok(Epoch {
            service,
            tenants,
            arrival: SimTime::ZERO,
        })
    }

    /// Submits wave `w` and drains the fleet; returns the host seconds.
    fn wave(&mut self, jobs: &[JobSpec], w: usize) -> Result<f64, String> {
        let t = Instant::now();
        let wave = w * WAVE..(w + 1) * WAVE;
        for (&tenant, &spec) in self.tenants[wave.clone()].iter().zip(&jobs[wave]) {
            let _s = span("service.submit");
            self.service
                .submit(tenant, spec, self.arrival, None)
                .map_err(|e| format!("submit: {e}"))?;
            self.arrival += GAP;
        }
        let _s = span(match w {
            0 => "service.drain.first_wave",
            w if w == WAVES - 1 => "service.drain.last_wave",
            _ => "service.drain",
        });
        self.service.drain();
        Ok(t.elapsed().as_secs_f64())
    }
}

/// A record's identity and outcome, for comparing epochs.
fn record_digest(r: &JobRecord) -> u64 {
    let h = digest(DIGEST_INIT, &r.id.0.to_le_bytes());
    let h = digest(h, &r.input_seed.to_le_bytes());
    let h = digest(h, &r.device.map_or(u64::MAX, |d| d as u64).to_le_bytes());
    let h = digest(h, &r.finished.map_or(0, SimTime::as_nanos).to_le_bytes());
    match &r.outcome {
        Ok(bytes) => digest(h, bytes),
        Err(e) => digest(h, e.to_string().as_bytes()),
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = config(args.seed);
    let jobs = schedule(args.seed);
    // Set-up: the fleet's contexts, the tenants and the first wave.
    let (_, setup_s) = repeat_setup(|| {
        let mut epoch = Epoch::new(&cfg)?;
        epoch.wave(&jobs, 0)?;
        Ok(epoch)
    })?;

    let mut reference: Option<(Vec<u64>, Vec<JobRecord>, ServiceStats)> = None;
    let mut problems = Vec::new();
    let timed = timed_loop(args.seconds, args.trace, |cycle| {
        let mut c = Cycle::default();
        let mut epoch = match Epoch::new(&cfg) {
            Ok(e) => e,
            Err(e) => {
                problems.push(e);
                c.failed += 1;
                return c;
            }
        };
        for w in 0..waves() {
            crate::trace::set_op(cycle * WAVES as u64 + w as u64 + 1);
            match epoch.wave(&jobs, w) {
                Ok(dt) => {
                    c.lat_ms.extend([dt * 1e3; WAVE]);
                    c.busy_s += dt;
                }
                Err(e) => {
                    problems.push(e);
                    c.failed += WAVE as u64;
                }
            }
        }
        // Every epoch replays the first exactly (same seed, same fleet).
        let digests: Vec<u64> = epoch.service.records().iter().map(record_digest).collect();
        match &reference {
            None => {
                let records = epoch.service.records().to_vec();
                reference = Some((digests, records, epoch.service.stats()));
            }
            Some((want, ..)) => {
                let differing = want.iter().zip(&digests).filter(|(a, b)| a != b).count()
                    + want.len().abs_diff(digests.len());
                if differing > 0 {
                    problems.push(format!("{differing} job records differ from epoch 1"));
                    c.failed += differing as u64;
                }
            }
        }
        c
    });
    let (digests, records, stats) = reference.ok_or("no epoch completed")?;

    // Solo re-runs of every job of the first epoch, outside the timed phase.
    let divergences = check_isolation(&cfg, &records);
    for d in divergences.iter().take(5) {
        problems.push(format!("isolation: {} {}: {}", d.label, d.job.0, d.detail));
    }
    let tally = Tally {
        attempted: timed.lat_ms.len() as u64,
        failed: timed.failed + divergences.len() as u64,
    };
    let mut out = Outcome::new(timed, setup_s, tally);
    out.problems = problems;
    out.digest = digests
        .iter()
        .fold(DIGEST_INIT, |h, d| digest(h, &d.to_le_bytes()));
    let makespan = records.iter().filter_map(|r| r.finished).max();
    out.sim_s = makespan.map_or(0.0, SimTime::as_secs_f64);
    service_facts(&records, &stats, &mut out);
    if args.trace {
        crate::trace::set_enabled(true);
        layers(args.seed, &cfg, &records, &mut out)?;
        crate::trace::set_enabled(false);
    }
    Ok(out)
}

/// Counters of the first epoch (every epoch repeats them).
fn service_facts(records: &[JobRecord], stats: &ServiceStats, out: &mut Outcome) {
    let rejected = records
        .iter()
        .filter(|r| matches!(r.outcome, Err(ServiceError::Rejected { .. })))
        .count();
    let failed = records.iter().filter(|r| r.outcome.is_err()).count() - rejected;
    let ran = records.iter().filter(|r| r.device.is_some()).count().max(1) as f64;
    let ok_ms: Vec<f64> = records
        .iter()
        .filter(|r| r.outcome.is_ok())
        .filter_map(JobRecord::latency)
        .map(|t| t.as_secs_f64() * 1e3)
        .collect();
    let recovery: usize = records.iter().map(|r| r.recovery_events).sum();
    let faults: usize = records.iter().map(|r| r.faults_seen).sum();
    let submitted = records.len().max(1) as f64;
    let f = &mut out.facts;
    f.insert("service.quarantines", stats.quarantines as f64);
    f.insert("service.displaced", stats.displaced as f64);
    f.insert("service.rejected", rejected as f64);
    f.insert("service.job_fail_frac", failed as f64 / submitted);
    f.insert("service.job_sim_p99_ms", percentile(&ok_ms, 0.99));
    f.insert("gpgpu.recovery_events_per_job", recovery as f64 / ran);
    f.insert("gpgpu.faults_per_job", faults as f64 / ran);
}

/// The traced run's direct layer calls with this workload's kernels,
/// jobs and inputs.
fn layers(
    seed: u64,
    cfg: &ServiceConfig,
    records: &[JobRecord],
    out: &mut Outcome,
) -> Result<(), String> {
    // Per-job service overhead: a clean fleet of one-texel, one-pass sums.
    let mut noop = FleetService::new(ServiceConfig {
        devices: DEVICES,
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut arrival = SimTime::ZERO;
    for _ in 0..NOOP_JOBS {
        let tenant = noop.add_tenant(1);
        let spec = JobSpec::Sum {
            n: 1,
            iterations: 1,
        };
        noop.submit(tenant, spec, arrival, None)
            .map_err(|e| e.to_string())?;
        arrival += GAP;
    }
    {
        let _s = span("service.drain.noop");
        noop.drain();
    }
    out.facts.insert("noop_jobs", NOOP_JOBS as f64);
    out.facts.insert("jobs_per_wave", WAVE as f64);

    // Device 1's jobs replayed on one context through the resilient
    // runner, as the fleet runs them (without the injected faults): the
    // bytes must match the fleet's, and `elapsed()` is timed at the frame
    // history of the first wave and of the whole epoch.
    let device = 1;
    let platform = cfg.platform_for(device);
    let mut gl = Gl::new(platform.clone(), cfg.surface, cfg.surface);
    gl.set_frame_recording(true);
    let mine: Vec<&JobRecord> = records
        .iter()
        .filter(|r| r.device == Some(device))
        .collect();
    let first_wave = mine.iter().filter(|r| r.id.0 < WAVE as u64).count();
    let mut replayed = 0.0;
    for (i, r) in mine.iter().enumerate() {
        let mut job = r.spec.build(&cfg.opt, r.input_seed);
        let result = {
            let _s = span("gpgpu.run_job");
            ResilientRunner::new(cfg.resilience).run(&mut gl, job.as_mut())
        };
        if let (Ok(got), Ok(want)) = (&result, &r.outcome) {
            if got != want {
                out.problems.push(format!(
                    "replayed job {} differs from the fleet's bytes",
                    r.id.0
                ));
            }
        }
        replayed += 1.0;
        if i + 1 == first_wave.max(1) {
            probe::time_elapsed(&gl, "gles.elapsed.first");
        }
    }
    probe::time_elapsed(&gl, "gles.elapsed.last");
    probe::check_replay(&platform, &gl, &mut out.problems);
    let mut totals = SimTotals::default();
    totals.add(&gl.report());
    totals.record(replayed, &mut out.facts);
    probe::plan_cache_facts([&gl], &mut out.facts);
    drop(gl);

    // Operator builds of every job shape, on a fresh device-sized context.
    let mut scratch = Gl::new(platform.clone(), cfg.surface, cfg.surface);
    for (i, spec) in MIX.iter().enumerate() {
        let mut job = spec.build(&cfg.opt, seed.wrapping_add(i as u64));
        let _s = span("gpgpu.op_build");
        job.build(&mut scratch).map_err(|e| e.to_string())?;
    }
    drop(scratch);

    // The mix's kernels, compiled stage by stage.
    let enc = mgpu_gpgpu::Encoding::Fp32;
    let mut sources = vec![mgpu_gpgpu::kernels::sum_kernel(
        enc,
        &Range::unit(),
        &Range::new(0.0, 2.0),
    )];
    for block in [4, 2] {
        sources.push(mgpu_gpgpu::kernels::sgemm_kernel(
            enc,
            8,
            block,
            &Range::unit(),
            &Range::new(0.0, 8.0),
        ));
    }
    let families: [Box<dyn Workload>; 3] = [
        Box::new(GaussianPyramid::new(16, 2, seed)),
        Box::new(JacobiInpaint::new(8, 4, seed)),
        Box::new(DenseTraining::new(8, 4, 1, seed)),
    ];
    for w in &families {
        sources.extend(probe::pipeline_sources(&w.builder())?);
    }
    let shaders = probe::compile_stages(&sources, &probe::limits_of(&platform), 3, &mut out.facts)?;
    probe::plan_builds(&shaders, 3)?;

    // The sgemm job shape through direct GL calls against the operator.
    let a = random_matrix(8, seed, 0.0, 1.0);
    let b = random_matrix(8, seed ^ 1, 0.0, 1.0);
    let mut gl = Gl::new(platform.clone(), 8, 8);
    let mut op = Sgemm::new(
        &mut gl,
        &best_config(RenderStrategy::Texture),
        8,
        4,
        a.data(),
        b.data(),
    )
    .map_err(|e| e.to_string())?;
    op.multiply(&mut gl).map_err(|e| e.to_string())?;
    let want = op.snapshot_bytes(&mut gl).map_err(|e| e.to_string())?;
    let (got, _) = probe::direct_sgemm(&platform, 8, 4, a.data(), b.data(), true, 3)
        .map_err(|e| format!("direct sgemm: {e}"))?;
    if got != want {
        out.problems
            .push("direct-GL sgemm bytes differ from Sgemm::multiply".to_owned());
    }
    out.facts.insert("frags_per_draw", 64.0);

    let values = random_matrix(cfg.surface as usize, seed, 0.0, 1.0);
    probe::codec(values.data(), &Range::unit(), 200, &mut out.facts);
    Ok(())
}
