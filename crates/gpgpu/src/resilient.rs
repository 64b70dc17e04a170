//! Resilient multi-pass execution: pass-granular checkpointing, bounded
//! retries with simulated-time backoff, and graceful degradation.
//!
//! Low-end mobile GPU contexts die: the compositor evicts them, the
//! driver's watchdog kills long draws, allocations fail under memory
//! pressure, and (rarely) results come back corrupted. [`ResilientRunner`]
//! wraps any [`RecoverableJob`] — [`SumJob`], [`SgemmJob`], [`PipelineJob`]
//! or a user implementation — and drives it to completion through the
//! faults injected by [`mgpu_gles::FaultPlan`] (or a real flaky driver):
//!
//! * **checkpointing** — after every pass the chain's latest bytes are
//!   mirrored to the host; recovery replays only the passes at/after the
//!   failure;
//! * **context loss** — [`Gl::recreate`] plus job rebuild (programs and
//!   inputs re-created) and checkpoint restore, bounded by
//!   [`RetryPolicy::max_context_recreates`];
//! * **transient faults** (OOM, compile scratch) — bounded retries with
//!   exponential backoff charged as simulated CPU time;
//! * **watchdog kills** — the draw is split into progressively more
//!   row-band sub-draws (bit-identical output, lower per-draw cost);
//! * **corruption** — optional CRC-32 verification re-runs each pass from
//!   its checkpoint and accepts only agreeing results; a mismatched pass
//!   is rolled back to its checkpoint and retried.
//!
//! The runner never writes the context's
//! [`ExecConfig`](mgpu_gles::ExecConfig): execution settings belong to
//! the caller. A recovered run returns bytes identical to a fault-free
//! run; an unrecoverable run returns
//! [`GpgpuError::Exhausted`] carrying the fault trail and every recovery
//! step taken — never a panic, never silent corruption.

use std::fmt;

use mgpu_gles::{FaultEvent, Gl, GlError};
use mgpu_tbdr::SimTime;

use crate::config::OptConfig;
use crate::encoding::Range;
use crate::error::GpgpuError;
use crate::ops::{Sgemm, Sum};
use crate::pipeline::{Pipeline, PipelineBuilder};

/// CRC-32 (IEEE 802.3) of `data` — the checksum used for pass
/// verification.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Bounds on the runner's retry behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per stage (first try included) before giving up.
    pub max_attempts: u32,
    /// Backoff before retry `k` is `base_backoff * 2^(k-1)`, saturated at
    /// [`RetryPolicy::max_backoff`] and charged as simulated CPU time via
    /// [`Gl::add_cpu_work`].
    pub base_backoff: SimTime,
    /// Ceiling on a single backoff interval: exponential growth saturates
    /// here instead of overflowing, so arbitrarily large attempt counts
    /// stay finite and monotone.
    pub max_backoff: SimTime,
    /// Context recreations allowed per [`ResilientRunner::run`] call.
    pub max_context_recreates: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: SimTime::from_micros(20),
            max_backoff: SimTime::from_millis(5),
            max_context_recreates: 8,
        }
    }
}

impl RetryPolicy {
    /// The simulated backoff before retry `attempt` (1-based): truncated
    /// binary exponential growth, saturating at
    /// [`RetryPolicy::max_backoff`]. Total (not per-interval) for any
    /// attempt count, including attempt numbers far beyond
    /// [`RetryPolicy::max_attempts`], the result is finite, monotone
    /// non-decreasing, and never overflows.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> SimTime {
        // A shift of 63 already exceeds any representable SimTime, so
        // clamping there makes the shift itself well-defined; the multiply
        // saturates and the cap bounds the result.
        let shift = attempt.saturating_sub(1).min(63);
        let factor = 1u64 << shift;
        SimTime::from_nanos(self.base_backoff.as_nanos().saturating_mul(factor))
            .min(self.max_backoff)
    }
}

/// Configuration of [`ResilientRunner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Retry bounds and backoff.
    pub retry: RetryPolicy,
    /// Verify every pass with CRC-32: the pass is re-run from its
    /// checkpoint and accepted only when both runs agree. Costs roughly 2×
    /// the draw work; catches silent corruption.
    pub verify_checksums: bool,
    /// Upper bound on row-band splitting under watchdog pressure.
    pub max_bands: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            verify_checksums: false,
            max_bands: 64,
        }
    }
}

/// A stage of a resilient run, for events and errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageId {
    /// A compute pass (0-based).
    Pass(usize),
    /// The final result readback.
    Readback,
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageId::Pass(i) => write!(f, "pass {i}"),
            StageId::Readback => write!(f, "readback"),
        }
    }
}

/// One recovery action taken by the runner, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// The GL context was recreated after a loss; the job was rebuilt and
    /// the checkpoint restored.
    ContextRecreated {
        /// Stage at which the loss surfaced.
        stage: StageId,
    },
    /// A transient failure was retried after simulated backoff.
    Retried {
        /// Stage retried.
        stage: StageId,
        /// 1-based retry number within the stage.
        attempt: u32,
        /// Simulated backoff charged before the retry.
        backoff: SimTime,
    },
    /// The watchdog rejected a draw; subsequent draws are split into more
    /// row bands.
    BandsIncreased {
        /// Stage at which the watchdog fired.
        stage: StageId,
        /// New (sticky) band count.
        bands: u32,
    },
    /// Checksum verification caught diverging pass results.
    ChecksumMismatch {
        /// Stage that mismatched.
        stage: StageId,
    },
}

/// The typed give-up error of [`ResilientRunner::run`]: what failed, what
/// was tried, and the full injected-fault trail.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustedError {
    /// The job's label.
    pub job: String,
    /// Stage that exhausted its attempts.
    pub stage: StageId,
    /// Attempts spent on that stage.
    pub attempts: u32,
    /// The last error observed.
    pub last_error: Box<GpgpuError>,
    /// Every fault the injector fired up to the give-up, in order.
    pub fault_trail: Vec<FaultEvent>,
    /// Every recovery action the runner took, in order.
    pub recovery: Vec<RecoveryEvent>,
}

impl fmt::Display for ExhaustedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resilience exhausted for `{}` at {} after {} attempts \
             ({} faults injected, {} recovery actions): {}",
            self.job,
            self.stage,
            self.attempts,
            self.fault_trail.len(),
            self.recovery.len(),
            self.last_error
        )
    }
}

impl std::error::Error for ExhaustedError {}

/// A job the [`ResilientRunner`] can rebuild, replay pass-by-pass and
/// checkpoint.
///
/// Implementations must be deterministic: replaying a pass from the same
/// checkpoint must reproduce the same bytes, or checksum verification and
/// byte-identical recovery cannot hold.
pub trait RecoverableJob {
    /// Human-readable label for errors and reports.
    fn label(&self) -> String;
    /// (Re)creates every GL object the job owns — programs, input
    /// textures, output chain. Called before the first run and again after
    /// each context recreation, so it must not assume prior GL state.
    fn build(&mut self, gl: &mut Gl) -> Result<(), GpgpuError>;
    /// Number of passes in one run.
    fn passes(&self) -> usize;
    /// Restores the job's start-of-run state (e.g. re-seeds an
    /// accumulator). Must be callable repeatedly.
    fn begin_run(&mut self, gl: &mut Gl) -> Result<(), GpgpuError>;
    /// Executes pass `pass`, splitting its draw into `bands` row bands
    /// (`bands <= 1` = one full draw).
    fn run_pass(&mut self, gl: &mut Gl, pass: usize, bands: u32) -> Result<(), GpgpuError>;
    /// Reads back the latest output bytes (the pass-granular checkpoint).
    fn snapshot(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError>;
    /// Uploads checkpoint bytes back into the latest-output slot.
    fn restore(&mut self, gl: &mut Gl, bytes: &[u8]) -> Result<(), GpgpuError>;
    /// Reads back the final result bytes.
    fn result_bytes(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError>;
}

/// How a stage attempt failed (checksum mismatches are not [`GpgpuError`]s
/// until they exhaust their retries).
enum PassFailure {
    Err(GpgpuError),
    Mismatch,
}

enum StageOk {
    /// Pass completed; carries the new checkpoint bytes.
    Advanced(Vec<u8>),
    /// Readback completed; carries the final result bytes.
    Done(Vec<u8>),
}

enum Recovered {
    Retry,
    GiveUp(GpgpuError),
    Fatal(GpgpuError),
}

/// Drives a [`RecoverableJob`] to completion through injected (or real)
/// faults. See the [module docs](self) for the recovery model.
///
/// # Examples
///
/// ```
/// use mgpu_gles::{FaultPlan, Gl};
/// use mgpu_gpgpu::{OptConfig, ResilienceConfig, ResilientRunner, SumJob};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let mut gl = Gl::new(Platform::videocore_iv(), 8, 8);
/// gl.install_faults(FaultPlan::seeded(7).ctx_loss_at_draw(1));
///
/// let a = vec![0.25f32; 64];
/// let b = vec![0.5f32; 64];
/// let cfg = OptConfig::baseline().without_swap();
/// let mut job = SumJob::new(&cfg, 8, &a, &b, 3);
/// let mut runner = ResilientRunner::new(ResilienceConfig::default());
/// let bytes = runner.run(&mut gl, &mut job)?;   // recovers through the loss
/// assert!(!bytes.is_empty());
/// assert!(!runner.events().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ResilientRunner {
    cfg: ResilienceConfig,
    events: Vec<RecoveryEvent>,
    bands: u32,
    recreates: u32,
    needs_rebuild: bool,
}

impl ResilientRunner {
    /// Creates a runner with the given resilience configuration.
    #[must_use]
    pub fn new(cfg: ResilienceConfig) -> Self {
        ResilientRunner {
            cfg,
            events: Vec::new(),
            bands: 1,
            recreates: 0,
            needs_rebuild: true,
        }
    }

    /// The recovery actions taken by the most recent
    /// [`ResilientRunner::run`], in order. Deterministic for a given
    /// fault-plan seed.
    #[must_use]
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// The sticky row-band count the runner settled on (1 = full draws).
    #[must_use]
    pub fn bands(&self) -> u32 {
        self.bands
    }

    /// Runs the job to completion — build, every pass with checkpointing
    /// (and optional verification), readback — returning the raw encoded
    /// result bytes.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Exhausted`] when retries and recreations are spent
    /// (carrying the fault trail); the underlying error directly when it
    /// is not recoverable (e.g. [`GpgpuError::Config`]).
    pub fn run(
        &mut self,
        gl: &mut Gl,
        job: &mut dyn RecoverableJob,
    ) -> Result<Vec<u8>, GpgpuError> {
        self.events.clear();
        self.bands = 1;
        self.recreates = 0;
        self.needs_rebuild = true;
        let total = job.passes();
        let mut checkpoint: Option<Vec<u8>> = None;
        let mut pass = 0usize;
        let mut attempts = 0u32;
        loop {
            let stage = if pass < total {
                StageId::Pass(pass)
            } else {
                StageId::Readback
            };
            match self.exec_stage(gl, job, pass, total, checkpoint.as_deref()) {
                Ok(StageOk::Advanced(cp)) => {
                    checkpoint = Some(cp);
                    pass += 1;
                    attempts = 0;
                }
                Ok(StageOk::Done(bytes)) => return Ok(bytes),
                Err(fail) => {
                    attempts += 1;
                    let err = match fail {
                        PassFailure::Err(e) => e,
                        PassFailure::Mismatch => {
                            self.events.push(RecoveryEvent::ChecksumMismatch { stage });
                            GpgpuError::Corrupted(format!(
                                "checksum mismatch at {stage}: two runs of the pass disagree"
                            ))
                        }
                    };
                    if attempts >= self.cfg.retry.max_attempts {
                        return Err(self.exhausted(gl, job, stage, attempts, err));
                    }
                    let next = if matches!(err, GpgpuError::Corrupted(_)) {
                        // Roll the chain back to the pre-pass checkpoint
                        // so the retry starts from known-good state.
                        match restore_prev(gl, job, checkpoint.as_deref()) {
                            Ok(()) => Recovered::Retry,
                            Err(e2) => self.recover(gl, stage, attempts, e2),
                        }
                    } else {
                        self.recover(gl, stage, attempts, err)
                    };
                    match next {
                        Recovered::Retry => {}
                        Recovered::GiveUp(e) => {
                            return Err(self.exhausted(gl, job, stage, attempts, e));
                        }
                        Recovered::Fatal(e) => return Err(e),
                    }
                }
            }
        }
    }

    /// Executes one stage. Rebuilds the job first when a context
    /// recreation (or the initial build) is pending.
    fn exec_stage(
        &mut self,
        gl: &mut Gl,
        job: &mut dyn RecoverableJob,
        pass: usize,
        total: usize,
        checkpoint: Option<&[u8]>,
    ) -> Result<StageOk, PassFailure> {
        if self.needs_rebuild {
            job.build(gl).map_err(PassFailure::Err)?;
            job.begin_run(gl).map_err(PassFailure::Err)?;
            if let Some(cp) = checkpoint {
                job.restore(gl, cp).map_err(PassFailure::Err)?;
            }
            self.needs_rebuild = false;
        }
        if pass >= total {
            return job
                .result_bytes(gl)
                .map(StageOk::Done)
                .map_err(PassFailure::Err);
        }
        job.run_pass(gl, pass, self.bands)
            .map_err(PassFailure::Err)?;
        let snap = job.snapshot(gl).map_err(PassFailure::Err)?;
        if !self.cfg.verify_checksums {
            return Ok(StageOk::Advanced(snap));
        }
        // Verification: replay the pass from the checkpoint and accept
        // only when both runs produce the same CRC.
        let crc_first = crc32(&snap);
        restore_prev(gl, job, checkpoint).map_err(PassFailure::Err)?;
        job.run_pass(gl, pass, self.bands)
            .map_err(PassFailure::Err)?;
        let second = job.snapshot(gl).map_err(PassFailure::Err)?;
        if crc32(&second) != crc_first {
            return Err(PassFailure::Mismatch);
        }
        Ok(StageOk::Advanced(second))
    }

    /// Decides and performs the recovery for `err` at `stage`.
    fn recover(&mut self, gl: &mut Gl, stage: StageId, attempt: u32, err: GpgpuError) -> Recovered {
        match &err {
            GpgpuError::Gl(GlError::ContextLost) => {
                if self.recreates >= self.cfg.retry.max_context_recreates {
                    return Recovered::GiveUp(err);
                }
                // Recreation drops every GL object and the context's
                // draw-plan cache with them; the persistent worker pool
                // survives, so recovered execution re-warms plans without
                // paying a thread-respawn tax.
                gl.recreate();
                self.recreates += 1;
                self.needs_rebuild = true;
                self.events.push(RecoveryEvent::ContextRecreated { stage });
                Recovered::Retry
            }
            GpgpuError::Gl(GlError::WatchdogTimeout { .. }) => {
                let doubled = self.bands.saturating_mul(2).min(self.cfg.max_bands);
                if doubled > self.bands {
                    self.bands = doubled;
                    self.events.push(RecoveryEvent::BandsIncreased {
                        stage,
                        bands: doubled,
                    });
                }
                // Already at the split limit: keep retrying until the
                // attempt budget runs out (the budget may be transiently
                // tight, e.g. while another draw drains).
                Recovered::Retry
            }
            GpgpuError::Gl(g) if g.is_transient() => {
                let backoff = self.cfg.retry.backoff_for(attempt);
                gl.add_cpu_work(backoff);
                self.events.push(RecoveryEvent::Retried {
                    stage,
                    attempt,
                    backoff,
                });
                Recovered::Retry
            }
            _ => Recovered::Fatal(err),
        }
    }

    fn exhausted(
        &self,
        gl: &Gl,
        job: &dyn RecoverableJob,
        stage: StageId,
        attempts: u32,
        last: GpgpuError,
    ) -> GpgpuError {
        GpgpuError::Exhausted(Box::new(ExhaustedError {
            job: job.label(),
            stage,
            attempts,
            last_error: Box::new(last),
            fault_trail: gl.fault_trail().to_vec(),
            recovery: self.events.clone(),
        }))
    }
}

/// Restores the chain to the state the current pass started from: the
/// checkpoint when one exists, the job's start-of-run state otherwise.
fn restore_prev(
    gl: &mut Gl,
    job: &mut dyn RecoverableJob,
    checkpoint: Option<&[u8]>,
) -> Result<(), GpgpuError> {
    match checkpoint {
        Some(cp) => job.restore(gl, cp),
        None => job.begin_run(gl),
    }
}

// ---- built-in jobs ---------------------------------------------------------

/// [`RecoverableJob`] over the [`Sum`] operator: `iterations` steps, one
/// pass each.
#[derive(Debug)]
pub struct SumJob {
    cfg: OptConfig,
    n: u32,
    a: Vec<f32>,
    b: Vec<f32>,
    iterations: usize,
    dependent: bool,
    reupload: bool,
    range_in: Range,
    range_out: Range,
    op: Option<Sum>,
}

impl SumJob {
    /// A sum job over `n`×`n` matrices running `iterations` kernel steps
    /// (at least one).
    #[must_use]
    pub fn new(cfg: &OptConfig, n: u32, a: &[f32], b: &[f32], iterations: usize) -> Self {
        SumJob {
            cfg: *cfg,
            n,
            a: a.to_vec(),
            b: b.to_vec(),
            iterations: iterations.max(1),
            dependent: false,
            reupload: false,
            range_in: Range::unit(),
            range_out: Range::new(0.0, 2.0),
            op: None,
        }
    }

    /// Chains iterations (the previous result becomes input `A`).
    #[must_use]
    pub fn dependent(mut self, dependent: bool) -> Self {
        self.dependent = dependent;
        self
    }

    /// Re-uploads both inputs every iteration.
    #[must_use]
    pub fn reupload(mut self, reupload: bool) -> Self {
        self.reupload = reupload;
        self
    }

    /// Sets the input value range (default `[0, 1)`).
    #[must_use]
    pub fn range_in(mut self, range: Range) -> Self {
        self.range_in = range;
        self
    }

    /// Sets the output value range (default `[0, 2)`).
    #[must_use]
    pub fn range_out(mut self, range: Range) -> Self {
        self.range_out = range;
        self
    }

    /// The output range, for decoding result bytes.
    #[must_use]
    pub fn result_range(&self) -> Range {
        self.range_out
    }

    fn op_mut(&mut self) -> Result<&mut Sum, GpgpuError> {
        self.op
            .as_mut()
            .ok_or_else(|| GpgpuError::Config("sum job used before build".to_owned()))
    }
}

impl RecoverableJob for SumJob {
    fn label(&self) -> String {
        format!("sum {n}x{n} x{it}", n = self.n, it = self.iterations)
    }

    fn build(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.op = Some(
            Sum::builder(self.n)
                .range_in(self.range_in)
                .range_out(self.range_out)
                .dependent(self.dependent)
                .reupload(self.reupload)
                .build(gl, &self.cfg, &self.a, &self.b)?,
        );
        Ok(())
    }

    fn passes(&self) -> usize {
        self.iterations
    }

    fn begin_run(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.op_mut()?.reset(gl)
    }

    fn run_pass(&mut self, gl: &mut Gl, _pass: usize, bands: u32) -> Result<(), GpgpuError> {
        self.op_mut()?.step_banded(gl, bands)
    }

    fn snapshot(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.op_mut()?.snapshot_bytes(gl)
    }

    fn restore(&mut self, gl: &mut Gl, bytes: &[u8]) -> Result<(), GpgpuError> {
        self.op_mut()?.restore_bytes(gl, bytes)
    }

    fn result_bytes(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.op_mut()?.snapshot_bytes(gl)
    }
}

/// [`RecoverableJob`] over the [`Sgemm`] operator: one multiplication,
/// `n / block` passes.
#[derive(Debug)]
pub struct SgemmJob {
    cfg: OptConfig,
    n: u32,
    block: u32,
    a: Vec<f32>,
    b: Vec<f32>,
    range_in: Range,
    range_out: Range,
    op: Option<Sgemm>,
}

impl SgemmJob {
    /// An sgemm job for `C = A × B` over `n`×`n` matrices with the given
    /// block size (must divide `n`; validated at build).
    #[must_use]
    pub fn new(cfg: &OptConfig, n: u32, block: u32, a: &[f32], b: &[f32]) -> Self {
        SgemmJob {
            cfg: *cfg,
            n,
            block: block.max(1),
            a: a.to_vec(),
            b: b.to_vec(),
            range_in: Range::unit(),
            range_out: Range::new(0.0, n as f32),
            op: None,
        }
    }

    /// The block size.
    #[must_use]
    pub fn block(&self) -> u32 {
        self.block
    }

    /// The output range, for decoding result bytes.
    #[must_use]
    pub fn result_range(&self) -> Range {
        self.range_out
    }

    fn op_mut(&mut self) -> Result<&mut Sgemm, GpgpuError> {
        self.op
            .as_mut()
            .ok_or_else(|| GpgpuError::Config("sgemm job used before build".to_owned()))
    }
}

impl RecoverableJob for SgemmJob {
    fn label(&self) -> String {
        format!("sgemm {n}x{n} block {b}", n = self.n, b = self.block)
    }

    fn build(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.op = Some(Sgemm::with_ranges(
            gl,
            &self.cfg,
            self.n,
            self.block,
            &self.a,
            &self.b,
            self.range_in,
            self.range_out,
        )?);
        Ok(())
    }

    fn passes(&self) -> usize {
        (self.n / self.block) as usize
    }

    fn begin_run(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.op_mut()?.begin_multiply(gl)
    }

    fn run_pass(&mut self, gl: &mut Gl, pass: usize, bands: u32) -> Result<(), GpgpuError> {
        self.op_mut()?.run_pass(gl, pass as u32, bands)
    }

    fn snapshot(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.op_mut()?.snapshot_bytes(gl)
    }

    fn restore(&mut self, gl: &mut Gl, bytes: &[u8]) -> Result<(), GpgpuError> {
        self.op_mut()?.restore_bytes(gl, bytes)
    }

    fn result_bytes(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.op_mut()?.snapshot_bytes(gl)
    }
}

/// [`RecoverableJob`] over a user [`Pipeline`]: holds the builder so the
/// whole pipeline can be rebuilt after a context loss.
#[derive(Debug)]
pub struct PipelineJob {
    cfg: OptConfig,
    builder: PipelineBuilder,
    op: Option<Pipeline>,
}

impl PipelineJob {
    /// Wraps a pipeline builder for resilient execution.
    #[must_use]
    pub fn new(cfg: &OptConfig, builder: PipelineBuilder) -> Self {
        PipelineJob {
            cfg: *cfg,
            builder,
            op: None,
        }
    }

    fn op_mut(&mut self) -> Result<&mut Pipeline, GpgpuError> {
        self.op
            .as_mut()
            .ok_or_else(|| GpgpuError::Config("pipeline job used before build".to_owned()))
    }
}

impl RecoverableJob for PipelineJob {
    fn label(&self) -> String {
        format!("pipeline ({} passes)", self.builder.pass_count())
    }

    fn build(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.op = Some(self.builder.clone().build(gl, &self.cfg)?);
        Ok(())
    }

    fn passes(&self) -> usize {
        self.builder.pass_count()
    }

    fn begin_run(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.op_mut()?.begin_run(gl)
    }

    fn run_pass(&mut self, gl: &mut Gl, pass: usize, bands: u32) -> Result<(), GpgpuError> {
        self.op_mut()?.run_pass(gl, pass, bands)
    }

    fn snapshot(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.op_mut()?.snapshot_bytes(gl)
    }

    fn restore(&mut self, gl: &mut Gl, bytes: &[u8]) -> Result<(), GpgpuError> {
        self.op_mut()?.restore_bytes(gl, bytes)
    }

    fn result_bytes(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        // Not snapshot_bytes: the result is the chain's latest output
        // alone, without the retained-pass checkpoint payload.
        self.op_mut()?.output_bytes(gl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy {
            base_backoff: SimTime::from_micros(10),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(1), SimTime::from_micros(10));
        assert_eq!(p.backoff_for(2), SimTime::from_micros(20));
        assert_eq!(p.backoff_for(3), SimTime::from_micros(40));
        // Large attempt counts must not overflow.
        let _ = p.backoff_for(u32::MAX);
    }

    /// Property: over attempt ∈ [1, 10_000] the backoff is exact truncated
    /// binary exponential growth below the cap, saturates at the cap, is
    /// monotone non-decreasing, and never overflows — for the default
    /// policy and for adversarial base/cap combinations.
    #[test]
    fn backoff_property_bounded_monotone() {
        let policies = [
            RetryPolicy::default(),
            RetryPolicy {
                base_backoff: SimTime::from_nanos(1),
                max_backoff: SimTime::from_secs_f64(1.0),
                ..RetryPolicy::default()
            },
            RetryPolicy {
                base_backoff: SimTime::from_millis(7),
                max_backoff: SimTime::from_millis(3),
                ..RetryPolicy::default()
            },
            RetryPolicy {
                base_backoff: SimTime::MAX,
                max_backoff: SimTime::MAX,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                base_backoff: SimTime::ZERO,
                ..RetryPolicy::default()
            },
        ];
        for p in policies {
            let mut prev = SimTime::ZERO;
            for attempt in 1u32..=10_000 {
                let b = p.backoff_for(attempt);
                assert!(b <= p.max_backoff, "attempt {attempt}: {b:?} above cap");
                assert!(b >= prev, "attempt {attempt}: backoff not monotone");
                let shift = attempt - 1;
                if shift < 63 {
                    let exact = p.base_backoff.as_nanos().saturating_mul(1u64 << shift);
                    assert_eq!(b, SimTime::from_nanos(exact).min(p.max_backoff));
                }
                prev = b;
            }
            // Beyond the sampled range the cap still holds.
            assert!(p.backoff_for(u32::MAX) <= p.max_backoff);
        }
    }

    #[test]
    fn exhausted_display_mentions_job_and_stage() {
        let e = ExhaustedError {
            job: "sum 8x8 x3".to_owned(),
            stage: StageId::Pass(2),
            attempts: 6,
            last_error: Box::new(GpgpuError::Gl(GlError::ContextLost)),
            fault_trail: Vec::new(),
            recovery: Vec::new(),
        };
        let msg = e.to_string();
        assert!(msg.contains("sum 8x8 x3"));
        assert!(msg.contains("pass 2"));
        assert!(msg.contains("context lost"));
    }
}
