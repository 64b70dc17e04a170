//! End-to-end tests of the resilient runner: every injected fault class
//! either fully recovers — with output bytes identical to a fault-free
//! run — or surfaces as a typed error carrying the fault trail.

use mgpu_gles::{FaultPlan, Gl, GlError};
use mgpu_gpgpu::{
    Encoding, GpgpuError, OptConfig, Pipeline, PipelineJob, RecoverableJob, RecoveryEvent,
    ResilienceConfig, ResilientRunner, RetryPolicy, SgemmJob, Source, Sum, SumJob,
};
use mgpu_tbdr::{Platform, SimTime};

const N: u32 = 8;

fn cfg() -> OptConfig {
    OptConfig::baseline().without_swap()
}

fn gl() -> Gl {
    Gl::new(Platform::videocore_iv(), N, N)
}

/// A context with tile skipping on.
fn skip_gl() -> Gl {
    let mut gl = gl();
    gl.set_exec_config(gl.exec_config().with_tile_skip(true));
    gl
}

fn inputs() -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..N * N).map(|i| (i as f32 * 0.31) % 0.9).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i as f32 * 0.17) % 0.8).collect();
    (a, b)
}

/// Runs `job` fault-free through the runner: the byte-identity reference.
fn clean_run(job: &mut dyn RecoverableJob) -> Vec<u8> {
    let mut gl = gl();
    let mut runner = ResilientRunner::new(ResilienceConfig::default());
    let bytes = runner.run(&mut gl, job).expect("fault-free run succeeds");
    assert!(runner.events().is_empty(), "no faults, no recovery events");
    bytes
}

#[test]
fn fault_free_runner_matches_direct_op() {
    let (a, b) = inputs();
    let mut job = SumJob::new(&cfg(), N, &a, &b, 3).dependent(true);
    let via_runner = clean_run(&mut job);

    let mut gl = gl();
    let mut sum = Sum::builder(N)
        .dependent(true)
        .build(&mut gl, &cfg(), &a, &b)
        .unwrap();
    sum.run(&mut gl, 3).unwrap();
    let direct = sum.snapshot_bytes(&mut gl).unwrap();
    assert_eq!(via_runner, direct);
}

#[test]
fn dependent_sum_recovers_from_context_loss_byte_identical() {
    let (a, b) = inputs();
    let mut job = SumJob::new(&cfg(), N, &a, &b, 3).dependent(true);
    let want = clean_run(&mut job);

    let mut gl = gl();
    gl.install_faults(FaultPlan::seeded(11).ctx_loss_at_draw(1));
    let mut runner = ResilientRunner::new(ResilienceConfig::default());
    let got = runner.run(&mut gl, &mut job).unwrap();

    assert_eq!(got, want, "recovered bytes must match the fault-free run");
    assert!(runner
        .events()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::ContextRecreated { .. })));
    assert_eq!(gl.fault_trail().len(), 1);
}

#[test]
fn sum_retries_through_build_time_oom() {
    let (a, b) = inputs();
    let mut job = SumJob::new(&cfg(), N, &a, &b, 2);
    let want = clean_run(&mut job);

    let mut gl = gl();
    gl.install_faults(FaultPlan::seeded(12).oom_at_upload(1));
    let mut runner = ResilientRunner::new(ResilienceConfig::default());
    let t0 = gl.elapsed();
    let got = runner.run(&mut gl, &mut job).unwrap();
    assert_eq!(got, want);
    assert!(runner
        .events()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Retried { .. })));
    // The backoff was charged in simulated time.
    assert!(gl.elapsed() > t0);
}

#[test]
fn sgemm_recovers_mid_multiplication() {
    let (a, b) = inputs();
    let mut job = SgemmJob::new(&cfg(), N, 2, &a, &b);
    assert_eq!(job.passes(), 4);
    let want = clean_run(&mut job);

    // Lose the context on the third accumulation pass: recovery must
    // restore the pass-2 checkpoint, not restart from zero.
    let mut gl = gl();
    gl.install_faults(FaultPlan::seeded(13).ctx_loss_at_draw(2));
    let mut runner = ResilientRunner::new(ResilienceConfig::default());
    let got = runner.run(&mut gl, &mut job).unwrap();
    assert_eq!(got, want);
    assert!(runner
        .events()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::ContextRecreated { .. })));
}

fn scale_kernel(factor: f32) -> String {
    let enc = Encoding::Fp32;
    format!(
        "uniform sampler2D u_x;\nvarying vec2 v_coord;\n{}{}\
         void main() {{\n  float x = unpack(texture2D(u_x, v_coord));\n  gl_FragColor = pack(x * {factor:?});\n}}\n",
        enc.decode_fn_source(),
        enc.encode_fn_source()
    )
}

fn three_pass_job(data: &[f32]) -> PipelineJob {
    use mgpu_gpgpu::Range;
    let builder = Pipeline::builder(N)
        .input("x", data, Range::unit())
        .pass(
            &scale_kernel(0.5),
            &[("u_x", Source::Input("x".into()))],
            &[],
        )
        .pass(&scale_kernel(0.5), &[("u_x", Source::Previous)], &[])
        .pass(&scale_kernel(2.0), &[("u_x", Source::Previous)], &[]);
    PipelineJob::new(&cfg(), builder)
}

#[test]
fn three_pass_pipeline_recovers_from_context_loss() {
    let (a, _) = inputs();
    let mut job = three_pass_job(&a);
    assert_eq!(job.passes(), 3);
    let want = clean_run(&mut job);

    let mut gl = gl();
    gl.install_faults(FaultPlan::seeded(14).ctx_loss_at_draw(1));
    let mut runner = ResilientRunner::new(ResilienceConfig::default());
    let got = runner.run(&mut gl, &mut job).unwrap();
    assert_eq!(got, want);
    assert!(runner
        .events()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::ContextRecreated { .. })));
}

#[test]
fn tile_skip_survives_context_loss_byte_identical() {
    let (a, b) = inputs();
    // Reference: fault-free with skipping OFF.
    let mut plain = SumJob::new(&cfg(), N, &a, &b, 3).dependent(true);
    let want = clean_run(&mut plain);

    // Faulted run with tile skipping on: the loss lands on draw 2, after
    // the ping-pong chain has already warmed the signature cache.
    // Context loss must flush it, so post-recovery replays cannot
    // resurrect pre-loss tile bytes — the recovered output has to match
    // the skip-off reference exactly.
    let mut job = SumJob::new(&cfg(), N, &a, &b, 3).dependent(true);
    let mut gl = skip_gl();
    gl.install_faults(FaultPlan::seeded(21).ctx_loss_at_draw(2));
    let mut runner = ResilientRunner::new(ResilienceConfig::default());
    let got = runner.run(&mut gl, &mut job).unwrap();
    assert_eq!(got, want, "skip-on recovery diverged from skip-off run");
    assert!(runner
        .events()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::ContextRecreated { .. })));
    assert!(
        gl.tile_skip_stats().invalidations > 0,
        "the loss should have flushed live signature entries"
    );
}

#[test]
fn tile_skip_checksummed_corruption_heals_to_skip_off_bytes() {
    let (a, b) = inputs();
    let mut plain = SumJob::new(&cfg(), N, &a, &b, 2).dependent(true);
    let want = clean_run(&mut plain);

    // Corrupt a draw under verification with skipping on: the checksum
    // catches it, the retry re-shades (corruption taints the stored
    // bytes' signature path deterministically), and the healed output
    // matches the fault-free skip-off run.
    let mut job = SumJob::new(&cfg(), N, &a, &b, 2).dependent(true);
    let mut gl = skip_gl();
    gl.install_faults(FaultPlan::seeded(22).corrupt_at_draw(1));
    let verify = ResilienceConfig {
        verify_checksums: true,
        ..ResilienceConfig::default()
    };
    let mut runner = ResilientRunner::new(verify);
    let got = runner.run(&mut gl, &mut job).unwrap();
    assert_eq!(got, want, "healed skip-on run diverged from skip-off run");
}

#[test]
fn corruption_is_silent_without_checksums() {
    let (a, b) = inputs();
    let mut job = SumJob::new(&cfg(), N, &a, &b, 1);
    let want = clean_run(&mut job);

    let mut gl = gl();
    gl.install_faults(FaultPlan::seeded(15).corrupt_at_draw(0));
    let mut runner = ResilientRunner::new(ResilienceConfig::default());
    let got = runner.run(&mut gl, &mut job).unwrap();
    // Without verification the corruption sails through — this is the
    // failure mode verify_checksums exists for.
    assert_ne!(got, want);
}

#[test]
fn checksum_verification_heals_corruption() {
    let (a, b) = inputs();
    let mut job = SumJob::new(&cfg(), N, &a, &b, 2).dependent(true);
    let want = clean_run(&mut job);

    let mut gl = gl();
    gl.install_faults(FaultPlan::seeded(16).corrupt_at_draw(1));
    let verify = ResilienceConfig {
        verify_checksums: true,
        ..ResilienceConfig::default()
    };
    let mut runner = ResilientRunner::new(verify);
    let got = runner.run(&mut gl, &mut job).unwrap();
    assert_eq!(got, want, "verified run must heal the corruption");
    assert!(runner
        .events()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::ChecksumMismatch { .. })));
}

#[test]
fn repeated_corruption_heals_without_touching_the_exec_config() {
    let (a, b) = inputs();
    let mut job = SumJob::new(&cfg(), N, &a, &b, 2).dependent(true);
    let want = clean_run(&mut job);

    // Each pass runs twice under verification; draws 1 and 5 are the
    // verification replays of passes 0 and 1 — two mismatches, each
    // healed by a retry of its pass.
    let mut gl = gl();
    let exec = gl.exec_config();
    gl.install_faults(FaultPlan::seeded(17).corrupt_at_draw(1).corrupt_at_draw(5));
    let verify = ResilienceConfig {
        verify_checksums: true,
        ..ResilienceConfig::default()
    };
    let mut runner = ResilientRunner::new(verify);
    let got = runner.run(&mut gl, &mut job).unwrap();
    assert_eq!(got, want);
    let mismatches = runner
        .events()
        .iter()
        .filter(|e| matches!(e, RecoveryEvent::ChecksumMismatch { .. }))
        .count();
    assert_eq!(mismatches, 2);
    // Execution settings belong to the caller: recovery never rewrites
    // them.
    assert_eq!(gl.exec_config(), exec);
}

#[test]
fn watchdog_pressure_splits_draws_into_bands() {
    let (a, _) = inputs();

    // Probe the full-draw estimate: a one-attempt runner under an
    // impossible budget reports it in the give-up error.
    let mut probe_job = three_pass_job(&a);
    let mut gl_probe = gl();
    gl_probe.install_faults(FaultPlan::seeded(18).watchdog_budget(SimTime::from_nanos(1)));
    let one_shot = ResilienceConfig {
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        ..ResilienceConfig::default()
    };
    let err = ResilientRunner::new(one_shot)
        .run(&mut gl_probe, &mut probe_job)
        .unwrap_err();
    let full = match err {
        GpgpuError::Exhausted(e) => match *e.last_error {
            GpgpuError::Gl(GlError::WatchdogTimeout { estimated, .. }) => estimated,
            ref other => panic!("expected watchdog, got {other}"),
        },
        other => panic!("expected exhausted, got {other}"),
    };

    let mut job = three_pass_job(&a);
    let want = clean_run(&mut job);

    // A budget just under the full-draw cost: full draws are killed,
    // split draws fit.
    let budget = SimTime::from_nanos(full.as_nanos() - 1);
    let mut gl = gl();
    gl.install_faults(FaultPlan::seeded(18).watchdog_budget(budget));
    let mut runner = ResilientRunner::new(ResilienceConfig::default());
    let got = runner.run(&mut gl, &mut job).unwrap();
    assert_eq!(got, want, "banded draws must be bit-identical");
    assert!(runner.bands() > 1);
    assert!(runner
        .events()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::BandsIncreased { .. })));
}

#[test]
fn persistent_loss_exhausts_with_full_trail() {
    let (a, b) = inputs();
    let mut job = SumJob::new(&cfg(), N, &a, &b, 2);
    let mut gl = gl();
    gl.install_faults(FaultPlan::seeded(19).p_ctx_loss(1.0));
    let bounded = ResilienceConfig {
        retry: RetryPolicy {
            max_context_recreates: 2,
            ..RetryPolicy::default()
        },
        ..ResilienceConfig::default()
    };
    let mut runner = ResilientRunner::new(bounded);
    let err = runner.run(&mut gl, &mut job).unwrap_err();
    match &err {
        GpgpuError::Exhausted(e) => {
            assert!(!e.fault_trail.is_empty(), "trail must name the faults");
            assert_eq!(
                e.recovery
                    .iter()
                    .filter(|ev| matches!(ev, RecoveryEvent::ContextRecreated { .. }))
                    .count(),
                2,
                "both allowed recreates were spent"
            );
            assert!(matches!(
                *e.last_error,
                GpgpuError::Gl(GlError::ContextLost)
            ));
            assert!(e.to_string().contains("resilience exhausted"));
        }
        other => panic!("expected exhausted, got {other}"),
    }
    assert!(!err.is_recoverable());
}

#[test]
fn config_errors_are_fatal_not_retried() {
    let (a, b) = inputs();
    // block does not divide n: a configuration error, not a fault.
    let mut job = SgemmJob::new(&cfg(), N, 3, &a, &b);
    let mut gl = gl();
    let mut runner = ResilientRunner::new(ResilienceConfig::default());
    let err = runner.run(&mut gl, &mut job).unwrap_err();
    assert!(matches!(err, GpgpuError::Config(_)), "{err}");
    assert!(runner.events().is_empty(), "nothing to recover from");
}

#[test]
fn same_seed_reproduces_the_recovery_path() {
    let (a, b) = inputs();
    let plan = FaultPlan::seeded(42).p_ctx_loss(0.2).p_corrupt(0.1);
    let run = || {
        let mut job = SumJob::new(&cfg(), N, &a, &b, 3).dependent(true);
        let mut gl = gl();
        gl.install_faults(plan.clone());
        let verify = ResilienceConfig {
            verify_checksums: true,
            ..ResilienceConfig::default()
        };
        let mut runner = ResilientRunner::new(verify);
        let out = runner.run(&mut gl, &mut job);
        (out, runner.events().to_vec(), gl.fault_trail().to_vec())
    };
    let (out_a, events_a, trail_a) = run();
    let (out_b, events_b, trail_b) = run();
    assert_eq!(out_a, out_b);
    assert_eq!(events_a, events_b);
    assert_eq!(trail_a, trail_b);
    assert!(
        !trail_a.is_empty(),
        "p=0.2 over this many draws should fire"
    );
}
