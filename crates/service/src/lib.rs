//! Multi-tenant GPU service: a fleet scheduler for simulated mobile GPUs.
//!
//! The paper evaluates GPGPU kernels one job at a time on one device;
//! this crate models the production shape on top of the same stack — many
//! tenants sharing a fleet of flaky simulated devices, where watchdog
//! kills, context losses and allocation failures on one device must never
//! leak into another tenant's results.
//!
//! A [`FleetService`] owns N [`Gl`](mgpu_gles::Gl) contexts (mixed
//! VideoCore IV / SGX 545 platforms, each with its own seeded fault
//! plan), multiplexed over **one** shared host-thread
//! [`Executor`](mgpu_gles::Executor), and drains
//! [`RecoverableJob`](mgpu_gpgpu::RecoverableJob) submissions from
//! per-tenant queues. The robustness machinery, in dispatch order:
//!
//! 1. **Admission control** — per-tenant queues are bounded; a full queue
//!    answers [`ServiceError::Rejected`] instead of growing without
//!    bound.
//! 2. **Deficit-round-robin fairness** — tenants accumulate deficit in
//!    proportion to their QoS weight and spend it per job pass, so
//!    completed-work ratios converge to the configured weights and no
//!    admitted tenant starves.
//! 3. **Deadlines** — each job may carry a simulated-time deadline;
//!    exceeding it yields a typed [`ServiceError::DeadlineExceeded`]
//!    carrying the fault and recovery trail, never a hang.
//! 4. **Circuit breaker** — a device is quarantined after K consecutive
//!    [`Exhausted`](mgpu_gpgpu::GpgpuError::Exhausted) recoveries, its
//!    queue drains to healthy devices, and a half-open probe re-admits it
//!    after a cooldown (doubling on repeated failure).
//! 5. **Fault isolation** — every job runs under a
//!    [`ResilientRunner`](mgpu_gpgpu::ResilientRunner);
//!    [`check_isolation`] proves the invariance promise by re-running
//!    each completed job alone on a fault-free device and comparing
//!    result bytes.
//!
//! Everything happens in deterministic **simulated** time driven from a
//! seed: the same configuration and submissions replay the same schedule,
//! the same fault trails, and the same bytes, regardless of host core
//! count or wall-clock jitter.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

mod breaker;
mod error;
mod fleet;
mod isolation;
mod queue;
mod spec;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use error::{DeadlineError, ServiceError};
pub use fleet::{FleetService, JobRecord, ServiceConfig, ServiceStats};
pub use isolation::{check_isolation, check_service_isolation, IsolationDivergence};
pub use queue::{JobId, TenantId};
pub use spec::JobSpec;
