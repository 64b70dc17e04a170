//! Typed service errors: every way the fleet can fail a submission is a
//! value carrying its evidence — queue depths, deadlines, fault trails —
//! never a hang and never a panic.

use std::fmt;

use mgpu_gles::{EnvKnobError, FaultEvent};
use mgpu_gpgpu::{ExhaustedError, RecoveryEvent};
use mgpu_tbdr::SimTime;

use crate::queue::{JobId, TenantId};

/// Evidence attached to a missed deadline: when the job was due, how far
/// it got, and every fault/recovery event observed while it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineError {
    /// Tenant that submitted the job.
    pub tenant: TenantId,
    /// The job.
    pub job: JobId,
    /// The job's label.
    pub label: String,
    /// Absolute simulated-time deadline.
    pub deadline: SimTime,
    /// When the job started executing, if it got that far (`None`: the
    /// deadline passed while it was still queued and it was failed fast
    /// without burning device time).
    pub started: Option<SimTime>,
    /// When the device finished it (the result is discarded: it was late).
    pub finished: Option<SimTime>,
    /// Faults injected into this job's run, in order.
    pub fault_trail: Vec<FaultEvent>,
    /// Recovery actions the resilient runner took, in order.
    pub recovery: Vec<RecoveryEvent>,
}

impl fmt::Display for DeadlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadline {:?} exceeded for `{}` ({} of tenant {})",
            self.deadline, self.label, self.job, self.tenant
        )?;
        match (self.started, self.finished) {
            (None, _) => write!(f, ": expired while queued")?,
            (Some(s), Some(e)) => write!(f, ": ran {s:?}..{e:?}")?,
            (Some(s), None) => write!(f, ": started {s:?}")?,
        }
        write!(
            f,
            " ({} faults, {} recovery actions)",
            self.fault_trail.len(),
            self.recovery.len()
        )
    }
}

impl std::error::Error for DeadlineError {}

/// Every typed failure the service can answer with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control refused the job: the tenant's queue is full.
    /// Backpressure is the contract — resubmit later, never queue
    /// unboundedly.
    Rejected {
        /// Tenant whose queue was full.
        tenant: TenantId,
        /// The configured queue bound that was hit.
        depth: usize,
    },
    /// The job's simulated-time deadline passed before (or while) it ran.
    DeadlineExceeded(Box<DeadlineError>),
    /// The resilient runner exhausted retries, recreations and
    /// degradations on the executing device. Carries the full fault trail
    /// and recovery history; also the event that feeds the device's
    /// circuit breaker.
    Exhausted(Box<ExhaustedError>),
    /// The job failed with a non-recoverable error (e.g. inconsistent
    /// configuration) — the device is not at fault.
    Job {
        /// Tenant that submitted the job.
        tenant: TenantId,
        /// The job.
        job: JobId,
        /// The underlying error, rendered.
        detail: String,
    },
    /// The tenant id was never registered with [`crate::FleetService`].
    UnknownTenant(TenantId),
    /// The service was configured inconsistently (zero devices, zero
    /// queue depth, out-of-order submission times, invalid job shape...).
    Config(String),
    /// An `MGPU_*` execution knob failed to parse at device context
    /// creation.
    Env(EnvKnobError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Rejected { tenant, depth } => {
                write!(
                    f,
                    "admission rejected: queue of tenant {tenant} is full (depth {depth})"
                )
            }
            ServiceError::DeadlineExceeded(e) => e.fmt(f),
            ServiceError::Exhausted(e) => e.fmt(f),
            ServiceError::Job {
                tenant,
                job,
                detail,
            } => {
                write!(f, "{job} of tenant {tenant} failed: {detail}")
            }
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServiceError::Config(msg) => write!(f, "service misconfigured: {msg}"),
            ServiceError::Env(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EnvKnobError> for ServiceError {
    fn from(e: EnvKnobError) -> Self {
        ServiceError::Env(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejected_display_names_tenant_and_depth() {
        let e = ServiceError::Rejected {
            tenant: TenantId(3),
            depth: 8,
        };
        let msg = e.to_string();
        assert!(msg.contains("tenant 3"), "{msg}");
        assert!(msg.contains("depth 8"), "{msg}");
    }

    #[test]
    fn deadline_display_distinguishes_queued_from_ran() {
        let base = DeadlineError {
            tenant: TenantId(1),
            job: JobId(7),
            label: "sum".to_owned(),
            deadline: SimTime::from_micros(100),
            started: None,
            finished: None,
            fault_trail: Vec::new(),
            recovery: Vec::new(),
        };
        assert!(base.to_string().contains("expired while queued"));
        let ran = DeadlineError {
            started: Some(SimTime::from_micros(40)),
            finished: Some(SimTime::from_micros(140)),
            ..base
        };
        assert!(ran.to_string().contains("ran"));
    }
}
