//! Fleet-service throughput and tail-latency benchmark.
//!
//! Drives the multi-tenant [`FleetService`] with 1k+ concurrent tenants
//! submitting staggered GPGPU jobs, in two regimes:
//!
//! * `clean`   — no fault plans installed;
//! * `faulted` — device 0 opens with a dense compile-failure burst (the
//!   shape that trips its circuit breaker and quarantines it) and every
//!   other device carries probabilistic context-loss noise at ~1 fault
//!   per 100 draws.
//!
//! Per regime it reports per-job **simulated** latency percentiles
//! (p50/p95/p99 as a `BENCH {...}` line) plus a summary `BENCH` line
//! with jobs/sec of simulated throughput, the rejection rate, and the
//! quarantine/probe/displacement counters. Everything but the host
//! figures runs in seeded simulated time and is bit-reproducible across
//! hosts. The summary also carries the host wall-clock jobs/sec and µs
//! per job of the whole run (fleet set-up, submissions and drain).
//!
//! Usage: `service_throughput [tenants] [jobs_per_tenant] [--gate]`
//! (defaults: 1024 tenants, 2 jobs each). `--gate` turns the run into a
//! CI check:
//!
//! * the clean regime must replay byte-identically when run twice;
//! * faulted p95 latency must stay within 2× of clean p95;
//! * the faulted regime must actually quarantine (otherwise the regime
//!   proves nothing);
//! * the seeded fleet-isolation conformance scenarios must all hold;
//! * the clean regime rerun at 4× the tenants may cost at most
//!   [`HOST_GROWTH_LIMIT`]× the host µs per job: per-job host cost must
//!   not grow with the devices' history.

use std::process::exit;
use std::time::{Duration, Instant};

use mgpu_bench::harness::{emit_bench_json, parse_args, Stats};
use mgpu_conformance::check_fleet_isolation;
use mgpu_gles::FaultPlan;
use mgpu_service::{FleetService, JobRecord, JobSpec, ServiceConfig, ServiceStats};
use mgpu_tbdr::SimTime;

const DEVICES: usize = 6;
const SEED: u64 = 2017;
/// Simulated gap between consecutive submissions (arrival stagger).
const SUBMIT_GAP: SimTime = SimTime::from_micros(2);
/// Isolation conformance seeds replayed under `--gate`.
const ISOLATION_SEEDS: std::ops::Range<u64> = 0..3;
/// Largest host µs-per-job growth `--gate` accepts from 4× the tenants.
const HOST_GROWTH_LIMIT: f64 = 1.5;

struct Regime {
    name: &'static str,
    fault_plans: Vec<Option<FaultPlan>>,
}

fn regimes() -> Vec<Regime> {
    // Device 0: a burst of compile failures long enough to exhaust
    // several jobs back to back and trip the breaker, then heal.
    let hostile = (0..36).fold(FaultPlan::seeded(SEED), |plan, i| plan.compile_fail_at(i));
    let faulted = (0..DEVICES)
        .map(|d| {
            if d == 0 {
                Some(hostile.clone())
            } else {
                Some(FaultPlan::seeded(SEED + d as u64).p_ctx_loss(0.01))
            }
        })
        .collect();
    vec![
        Regime {
            name: "clean",
            fault_plans: vec![None; DEVICES],
        },
        Regime {
            name: "faulted",
            fault_plans: faulted,
        },
    ]
}

struct Outcome {
    stats: ServiceStats,
    latency: Stats,
    records: Vec<JobRecord>,
    faults_seen: u64,
    /// Host wall-clock of the whole run.
    host: Duration,
}

impl Outcome {
    fn host_us_per_job(&self) -> f64 {
        self.host.as_secs_f64() * 1e6 / self.stats.submitted.max(1) as f64
    }
}

fn run_regime(regime: &Regime, tenants: usize, jobs_per_tenant: usize) -> Outcome {
    let start = Instant::now();
    let mut service = FleetService::new(ServiceConfig {
        devices: DEVICES,
        fault_plans: regime.fault_plans.clone(),
        queue_depth: jobs_per_tenant.max(1),
        seed: SEED,
        ..ServiceConfig::default()
    })
    .expect("benchmark config is valid");
    let ids: Vec<_> = (0..tenants)
        .map(|t| service.add_tenant([1u32, 2, 4][t % 3]))
        .collect();

    // Globally time-ordered arrivals, round-robin over tenants, with a
    // small mix of job shapes so the queues are not uniform.
    let mut arrival = SimTime::ZERO;
    for round in 0..jobs_per_tenant {
        for (t, &id) in ids.iter().enumerate() {
            let spec = match (round + t) % 3 {
                0 => JobSpec::Sum {
                    n: 8,
                    iterations: 1,
                },
                1 => JobSpec::Sum {
                    n: 8,
                    iterations: 2,
                },
                _ => JobSpec::Sgemm { n: 8, block: 4 },
            };
            // Bounded queues: a rejection is a legitimate, recorded outcome.
            let _ = service.submit(id, spec, arrival, None);
            arrival += SUBMIT_GAP;
        }
    }
    service.drain();
    let host = start.elapsed();

    let latencies_ns: Vec<u64> = service
        .ok_latencies()
        .iter()
        .map(|t| t.as_nanos())
        .collect();
    Outcome {
        stats: service.stats(),
        latency: Stats::from_nanos(&latencies_ns),
        faults_seen: service.records().iter().map(|r| r.faults_seen as u64).sum(),
        records: service.records().to_vec(),
        host,
    }
}

fn summary_line(regime: &str, out: &Outcome) -> String {
    let s = &out.stats;
    let makespan = s.makespan.as_nanos().max(1) as f64 / 1e9;
    let jobs_per_sec = s.completed_ok as f64 / makespan;
    let rejection_rate = s.rejected as f64 / s.submitted.max(1) as f64;
    let host_jobs_per_sec = s.completed_ok as f64 / out.host.as_secs_f64().max(1e-9);
    format!(
        "BENCH {{\"group\":\"service_throughput\",\"id\":\"{regime}/summary\",\
         \"tenants\":{},\"submitted\":{},\"completed_ok\":{},\"failed\":{},\
         \"jobs_per_sec\":{jobs_per_sec:.1},\"rejection_rate\":{rejection_rate:.4},\
         \"quarantines\":{},\"probes\":{},\"displaced\":{},\"faults_seen\":{},\
         \"makespan_ns\":{},\"host_jobs_per_sec\":{host_jobs_per_sec:.1},\
         \"host_us_per_job\":{:.1}}}",
        out.records
            .iter()
            .map(|r| r.tenant)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        s.submitted,
        s.completed_ok,
        s.failed,
        s.quarantines,
        s.probes,
        s.displaced,
        out.faults_seen,
        s.makespan.as_nanos(),
        out.host_us_per_job(),
    )
}

fn main() {
    let ([tenants, jobs_per_tenant], gate) = parse_args(
        "service_throughput [tenants] [jobs_per_tenant] [--gate]",
        [1024, 2],
        true,
    );
    let (tenants, jobs_per_tenant) = (tenants.max(1) as usize, jobs_per_tenant.max(1) as usize);

    println!(
        "service_throughput: {tenants} tenants x {jobs_per_tenant} jobs, \
         {DEVICES} devices, seed {SEED}"
    );
    let mut failures: Vec<String> = Vec::new();
    let mut clean_p95 = Duration::ZERO;
    for regime in regimes() {
        let out = run_regime(&regime, tenants, jobs_per_tenant);
        emit_bench_json(
            "service_throughput",
            &format!("{}/latency", regime.name),
            &out.latency,
        );
        println!("{}", summary_line(regime.name, &out));

        match regime.name {
            "clean" => {
                clean_p95 = out.latency.p95;
                if gate {
                    let replay = run_regime(&regime, tenants, jobs_per_tenant);
                    if replay.records != out.records {
                        failures.push("clean regime did not replay byte-identically".to_owned());
                    }
                    let clean_host_us = out.host_us_per_job();
                    let scaled = run_regime(&regime, tenants * 4, jobs_per_tenant);
                    println!("{}", summary_line("clean_4x_tenants", &scaled));
                    let growth = scaled.host_us_per_job() / clean_host_us.max(f64::MIN_POSITIVE);
                    if growth > HOST_GROWTH_LIMIT {
                        failures.push(format!(
                            "host cost per job grew {growth:.2}x at 4x the tenants \
                             ({clean_host_us:.1} -> {:.1} us), limit {HOST_GROWTH_LIMIT}x",
                            scaled.host_us_per_job()
                        ));
                    }
                }
            }
            _ => {
                if out.stats.quarantines == 0 {
                    failures.push("faulted regime never quarantined a device".to_owned());
                }
                let limit = clean_p95 * 2;
                if out.latency.p95 > limit {
                    failures.push(format!(
                        "faulted p95 {:?} exceeds 2x clean p95 {clean_p95:?}",
                        out.latency.p95
                    ));
                }
            }
        }
        if out.stats.completed_ok == 0 {
            failures.push(format!("{}: no job completed", regime.name));
        }
    }

    if gate {
        for seed in ISOLATION_SEEDS {
            let divergences = check_fleet_isolation(seed);
            for d in &divergences {
                failures.push(format!("isolation seed {seed}: {d}"));
            }
            if divergences.is_empty() {
                println!("  isolation seed {seed}: ok");
            }
        }
        if failures.is_empty() {
            println!(
                "GATE ok: faulted p95 within 2x clean, isolation held, \
                 host cost per job flat at 4x tenants"
            );
        } else {
            for f in &failures {
                eprintln!("GATE FAIL: {f}");
            }
            exit(1);
        }
    }
}
