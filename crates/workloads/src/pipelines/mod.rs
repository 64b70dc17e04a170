//! GPU workload pipelines: computer-vision and on-device-training pass
//! chains built on [`mgpu_gpgpu::Pipeline`].
//!
//! The paper evaluates its optimisation space on two kernels (`sum`,
//! `sgemm`). This module widens the workload population with three
//! families that stress what those never touch — deep pass chains, raw
//! image traffic and precision-sensitive accumulation:
//!
//! * [`GaussianPyramid`] — a separable-blur image pyramid (two passes per
//!   level, à-trous dilation), all raw RGBA8;
//! * [`JacobiInpaint`] — an inpainting-style stencil solver iterating
//!   [`jacobi_step_ref`](crate::reference::jacobi_step_ref) to a fixed
//!   count, like the paper's 10 000-iteration steady-state runs;
//! * [`DenseTraining`] — a dense-layer training loop (forward matmul +
//!   bias + activation, backward gradients, SGD update) entirely through
//!   the float↔RGBA8 encoding.
//!
//! Each family implements [`Workload`]: it names itself, declares its
//! expected CPU-reference output and the [`ErrorPolicy`] the comparison
//! must satisfy, and produces a [`PipelineBuilder`] — so one differential
//! harness validates every family at every engine × platform × tile-skip
//! point, and [`WorkloadJob`] runs any of them under the resilient runner
//! or the fleet service.

mod kernels;
mod pyramid;
mod stencil;
mod training;

pub use kernels::{
    blur3_kernel, copy_kernel, delta_kernel, forward_chunk_kernel, grad_chunk_kernel,
    softsign_kernel, update_kernel,
};
pub use pyramid::GaussianPyramid;
pub use stencil::JacobiInpaint;
pub use training::DenseTraining;

use mgpu_gles::Gl;
use mgpu_gpgpu::{
    steady_period, Encoding, GpgpuError, OptConfig, PipelineBuilder, PipelineJob, Range,
    RecoverableJob, ResilienceConfig, ResilientRunner, TunePoint, TuneResult,
};
use mgpu_tbdr::Platform;

use crate::metrics::ErrorStats;

/// How a workload's GPU output must relate to its CPU reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorPolicy {
    /// Output bytes equal the reference bytes exactly — declared where the
    /// whole chain shares the reference's quantisation (raw RGBA8 image
    /// passes whose tap order matches the CPU loop).
    ByteIdentity,
    /// Decoded values are within tolerance of the reference — declared
    /// where per-pass RGBA8 re-encoding rounds differently from the
    /// straight-through f32 reference (iterative solvers, training).
    Tolerance {
        /// Maximum tolerated absolute element error.
        max_abs: f32,
        /// Maximum tolerated root-mean-square error.
        rms: f32,
    },
}

/// A workload's expected output, in the domain its policy compares.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Exact output bytes (for [`ErrorPolicy::ByteIdentity`] workloads).
    Bytes(Vec<u8>),
    /// Decoded values plus the range the GPU bytes decode under (for
    /// [`ErrorPolicy::Tolerance`] workloads).
    Values {
        /// The CPU-reference values.
        want: Vec<f32>,
        /// The encoding range of the pipeline's final output.
        range: Range,
    },
}

/// A GPU workload: a named, reproducible pass chain with a CPU reference
/// and an explicit error policy.
pub trait Workload {
    /// Human-readable name (stable — used in bench IDs and job labels).
    fn name(&self) -> String;
    /// Data dimension (the pipeline runs over `n`×`n` surfaces).
    fn n(&self) -> u32;
    /// The pass chain. Building is deterministic: the same workload value
    /// always yields the same kernels, inputs and pass order.
    fn builder(&self) -> PipelineBuilder;
    /// The CPU-reference output this workload's runs are validated
    /// against.
    fn expected(&self) -> Expected;
    /// The declared GPU-vs-CPU comparison policy.
    fn policy(&self) -> ErrorPolicy;
    /// The configuration points this workload's autotuner explores.
    /// The default grid covers the paper's sync/target/reuse/VBO/
    /// invalidation knobs and always includes `"baseline"`, so tuned ≥
    /// untuned holds by construction. fp24 is excluded: raw-image chains
    /// and the RGB8 texel format do not compose.
    fn candidates(&self) -> Vec<(String, OptConfig)> {
        default_candidates()
    }
}

/// The default autotuning grid for workload pipelines.
#[must_use]
pub fn default_candidates() -> Vec<(String, OptConfig)> {
    use mgpu_gles::BufferUsage;
    vec![
        ("baseline".to_owned(), OptConfig::baseline()),
        (
            "interval0+tex".to_owned(),
            OptConfig::baseline().with_swap_interval_0(),
        ),
        (
            "noswap+tex".to_owned(),
            OptConfig::baseline().without_swap(),
        ),
        (
            "noswap+tex+reuse".to_owned(),
            OptConfig::baseline().without_swap().with_texture_reuse(),
        ),
        (
            "interval0+fb".to_owned(),
            OptConfig::baseline()
                .with_swap_interval_0()
                .with_framebuffer_rendering(),
        ),
        (
            "interval0+fb+reuse".to_owned(),
            OptConfig::baseline()
                .with_swap_interval_0()
                .with_framebuffer_rendering()
                .with_texture_reuse(),
        ),
        (
            "noswap+tex+vbo".to_owned(),
            OptConfig::baseline()
                .without_swap()
                .with_vbo(BufferUsage::StaticDraw),
        ),
        (
            "noswap+tex+noinval".to_owned(),
            OptConfig::baseline().without_swap().without_invalidate(),
        ),
    ]
}

/// A [`RecoverableJob`] over any [`Workload`]: a [`PipelineJob`] with the
/// workload's own label, so fleet transcripts and recovery events name
/// the family rather than a generic pass count.
#[derive(Debug)]
pub struct WorkloadJob {
    label: String,
    inner: PipelineJob,
}

impl WorkloadJob {
    /// Wraps `workload` for resilient execution under `cfg`.
    #[must_use]
    pub fn new(cfg: &OptConfig, workload: &dyn Workload) -> Self {
        WorkloadJob {
            label: workload.name(),
            inner: PipelineJob::new(cfg, workload.builder()),
        }
    }
}

impl RecoverableJob for WorkloadJob {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn build(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.inner.build(gl)
    }

    fn passes(&self) -> usize {
        self.inner.passes()
    }

    fn begin_run(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.inner.begin_run(gl)
    }

    fn run_pass(&mut self, gl: &mut Gl, pass: usize, bands: u32) -> Result<(), GpgpuError> {
        self.inner.run_pass(gl, pass, bands)
    }

    fn snapshot(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.inner.snapshot(gl)
    }

    fn restore(&mut self, gl: &mut Gl, bytes: &[u8]) -> Result<(), GpgpuError> {
        self.inner.restore(gl, bytes)
    }

    fn result_bytes(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.inner.result_bytes(gl)
    }
}

/// Runs `workload` once under the resilient runner and returns its output
/// bytes.
///
/// # Errors
///
/// Propagates pipeline build/run failures and retry exhaustion.
pub fn run_workload(
    gl: &mut Gl,
    workload: &dyn Workload,
    cfg: &OptConfig,
) -> Result<Vec<u8>, GpgpuError> {
    let mut job = WorkloadJob::new(cfg, workload);
    ResilientRunner::new(ResilienceConfig::default()).run(gl, &mut job)
}

/// Checks `bytes` against the workload's declared policy and reference.
///
/// # Errors
///
/// A human-readable diagnostic naming the workload, the policy and the
/// observed deviation.
pub fn verify_output(workload: &dyn Workload, bytes: &[u8]) -> Result<(), String> {
    let name = workload.name();
    match (workload.policy(), workload.expected()) {
        (ErrorPolicy::ByteIdentity, Expected::Bytes(want)) => {
            if bytes == want.as_slice() {
                Ok(())
            } else {
                let at = bytes
                    .iter()
                    .zip(&want)
                    .position(|(g, w)| g != w)
                    .unwrap_or(want.len().min(bytes.len()));
                Err(format!(
                    "{name}: byte-identity violated (len {} vs {}, first diff at byte {at})",
                    bytes.len(),
                    want.len()
                ))
            }
        }
        (ErrorPolicy::Tolerance { max_abs, rms }, Expected::Values { want, range }) => {
            let got = Encoding::Fp32.decode(bytes, &range);
            if got.len() != want.len() {
                return Err(format!(
                    "{name}: decoded {} values, reference has {}",
                    got.len(),
                    want.len()
                ));
            }
            let stats = ErrorStats::between(&got, &want);
            if stats.max_abs > max_abs || stats.rms > rms {
                Err(format!(
                    "{name}: tolerance exceeded (max_abs {} > {max_abs} or rms {} > {rms}, argmax {})",
                    stats.max_abs, stats.rms, stats.argmax
                ))
            } else {
                Ok(())
            }
        }
        (policy, _) => Err(format!(
            "{name}: policy {policy:?} does not match its Expected variant"
        )),
    }
}

/// Autotunes `workload` on `platform`: measures every candidate
/// configuration in timing-only mode and returns the ranking.
///
/// # Errors
///
/// Propagates pipeline build/run failures.
pub fn tune_workload(
    platform: &Platform,
    workload: &dyn Workload,
    warmup: usize,
    iters: usize,
) -> Result<TuneResult, GpgpuError> {
    let n = workload.n();
    let mut points = Vec::new();
    for (name, cfg) in workload.candidates() {
        let mut gl = Gl::new(platform.clone(), n, n);
        gl.set_functional(false);
        let mut p = workload.builder().build(&mut gl, &cfg)?;
        let period = steady_period(&mut gl, warmup, iters, |gl| p.run_once(gl))?;
        points.push(TunePoint {
            name,
            config: cfg,
            block: 1,
            period,
        });
    }
    points.sort_by_key(|p| p.period);
    Ok(TuneResult { ranked: points })
}
