//! The fleet isolation check: the service's core invariance promise.
//!
//! A tenant must not be able to tell, from its result bytes, whether its
//! job ran alone on a pristine device or interleaved with a thousand
//! other tenants on a fleet riddled with injected faults. This module
//! proves that promise for a concrete run: every job that completed with
//! result bytes is re-run **alone**, on a fresh fault-free context of
//! the same platform as the device that executed it, and the bytes are
//! compared. Any difference is an [`IsolationDivergence`] — a typed
//! finding, never a silent pass.
//!
//! Platform matters (VideoCore IV and SGX 545 legitimately differ in
//! FP precision), which is why [`JobRecord`] carries its executing
//! device: the solo baseline reproduces the platform, and nothing else,
//! of the fleet run.

use mgpu_gles::Gl;
use mgpu_gpgpu::ResilientRunner;

use crate::error::ServiceError;
use crate::fleet::{FleetService, JobRecord, ServiceConfig};
use crate::queue::{JobId, TenantId};

/// One job whose fleet bytes differ from its solo fault-free bytes — an
/// isolation breach (or a baseline failure, which is reported the same
/// loud way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationDivergence {
    /// The tenant whose transcript diverged.
    pub tenant: TenantId,
    /// The diverging job.
    pub job: JobId,
    /// The job's label.
    pub label: String,
    /// What differed.
    pub detail: String,
}

impl std::fmt::Display for IsolationDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "isolation breach: `{}` ({} of tenant {}): {}",
            self.label, self.job, self.tenant, self.detail
        )
    }
}

/// Re-runs every completed job of `records` alone and fault-free and
/// compares bytes; see the [module docs](self). `cfg` must be the
/// configuration the fleet ran with (it supplies the platform cycle,
/// surface size and operator config the solo baseline reproduces).
///
/// Returns every divergence found (empty = the isolation promise held).
#[must_use]
pub fn check_isolation(cfg: &ServiceConfig, records: &[JobRecord]) -> Vec<IsolationDivergence> {
    let mut divergences = Vec::new();
    for record in records {
        let Ok(fleet_bytes) = &record.outcome else {
            continue;
        };
        let Some(device) = record.device else {
            continue;
        };
        match solo_bytes(cfg, record, device) {
            Ok(solo) => {
                if &solo != fleet_bytes {
                    divergences.push(IsolationDivergence {
                        tenant: record.tenant,
                        job: record.id,
                        label: record.label.clone(),
                        detail: format!(
                            "fleet bytes ({} B) != solo fault-free bytes ({} B)",
                            fleet_bytes.len(),
                            solo.len()
                        ),
                    });
                }
            }
            Err(e) => divergences.push(IsolationDivergence {
                tenant: record.tenant,
                job: record.id,
                label: record.label.clone(),
                detail: format!("solo baseline failed: {e}"),
            }),
        }
    }
    divergences
}

/// Convenience wrapper: checks a drained service against its own
/// configuration and records.
#[must_use]
pub fn check_service_isolation(service: &FleetService) -> Vec<IsolationDivergence> {
    check_isolation(service.config(), service.records())
}

/// Runs `record`'s job alone on a fresh, fault-free context of the
/// executing device's platform.
fn solo_bytes(
    cfg: &ServiceConfig,
    record: &JobRecord,
    device: usize,
) -> Result<Vec<u8>, ServiceError> {
    let mut gl = Gl::try_new(cfg.platform_for(device), cfg.surface, cfg.surface)
        .map_err(|e| ServiceError::Config(e.to_string()))?;
    // The baseline is fault-free whatever `MGPU_FAULTS` installed.
    gl.clear_faults();
    let mut job = record.spec.build(&cfg.opt, record.input_seed);
    let mut runner = ResilientRunner::new(cfg.resilience);
    runner
        .run(&mut gl, job.as_mut())
        .map_err(|e| ServiceError::Config(format!("fault-free run errored: {e}")))
}
