//! The fleet scheduler: N simulated devices, per-tenant queues, and a
//! deterministic discrete-event loop in simulated time.
//!
//! ## Determinism argument
//!
//! Every scheduling decision is a pure function of the configuration and
//! the (time-ordered) submission sequence: tenant visiting order is
//! deficit-round-robin over a `Vec`, device selection is a total order
//! (queue length, next-free instant, device index), breaker transitions
//! fire at computed simulated instants, fault plans are seeded per
//! device, and job inputs derive from the service seed and the job id.
//! No wall-clock time, no host thread count (the shared executor is a
//! wall-clock-only concern; the GL stack's outputs are byte-identical
//! across thread counts by the determinism invariant), no hash-map
//! iteration. Same seed, same submissions ⇒ same transcript, byte for
//! byte.

use std::collections::VecDeque;

use mgpu_gles::{FaultPlan, Gl, GlError};
use mgpu_gpgpu::{GpgpuError, OptConfig, ResilienceConfig, ResilientRunner};
use mgpu_prop::Rng;
use mgpu_tbdr::{Platform, SimTime};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::error::{DeadlineError, ServiceError};
use crate::queue::{JobId, QueuedJob, Tenant, TenantId};
use crate::spec::JobSpec;

/// Fleet-wide configuration. `Default` gives a small mixed fleet
/// (VideoCore IV / SGX 545 alternating) with no injected faults.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulated devices in the fleet (>= 1).
    pub devices: usize,
    /// Platform cycle: device `i` simulates `platforms[i % len]`.
    pub platforms: Vec<Platform>,
    /// Square surface edge of every device context.
    pub surface: u32,
    /// Per-tenant admission bound: a tenant with this many queued jobs
    /// has further submissions rejected.
    pub queue_depth: usize,
    /// Per-device dispatch look-ahead: how many jobs may wait at a
    /// device before the DRR refill stops feeding it.
    pub device_queue_depth: usize,
    /// DRR quantum, in passes credited per tenant visit (scaled by the
    /// tenant's weight).
    pub quantum: u64,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Resilient-runner tuning applied to every job.
    pub resilience: ResilienceConfig,
    /// GPGPU operator configuration applied to every job.
    pub opt: OptConfig,
    /// Service seed: per-job input seeds derive from it.
    pub seed: u64,
    /// Per-device fault plans (`plans[i % len]`; an empty vec = clean
    /// fleet, `None` entries = that device is clean).
    pub fault_plans: Vec<Option<FaultPlan>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            devices: 4,
            platforms: Platform::paper_pair().to_vec(),
            surface: 32,
            queue_depth: 64,
            device_queue_depth: 4,
            quantum: 4,
            breaker: BreakerConfig::default(),
            resilience: ResilienceConfig::default(),
            opt: OptConfig::baseline().without_swap(),
            seed: 1,
            fault_plans: Vec::new(),
        }
    }
}

impl ServiceConfig {
    /// The platform simulated by device `index`.
    ///
    /// # Panics
    ///
    /// Panics if `platforms` is empty (rejected by
    /// [`FleetService::new`]).
    #[must_use]
    pub fn platform_for(&self, index: usize) -> Platform {
        self.platforms[index % self.platforms.len()].clone()
    }

    /// The fault plan installed on device `index`, if any.
    #[must_use]
    pub fn fault_plan_for(&self, index: usize) -> Option<FaultPlan> {
        if self.fault_plans.is_empty() {
            return None;
        }
        self.fault_plans[index % self.fault_plans.len()].clone()
    }
}

/// The transcript entry of one submission: where and when it ran and
/// what came back. The per-tenant sequence of records (ids, outcomes,
/// bytes) is the tenant's *transcript* — the unit of the isolation
/// promise.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The submission.
    pub id: JobId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The job's label.
    pub label: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Seed its inputs derive from.
    pub input_seed: u64,
    /// Executing device, if it reached one.
    pub device: Option<usize>,
    /// Simulated submission instant.
    pub submitted: SimTime,
    /// When it started on the device, if it did.
    pub started: Option<SimTime>,
    /// When it finished (or was abandoned), if it got that far.
    pub finished: Option<SimTime>,
    /// Result bytes, or the typed failure.
    pub outcome: Result<Vec<u8>, ServiceError>,
    /// Recovery actions the runner took while it ran.
    pub recovery_events: usize,
    /// Faults injected while it ran.
    pub faults_seen: usize,
}

impl JobRecord {
    /// Submission-to-finish simulated latency, when the job finished.
    #[must_use]
    pub fn latency(&self) -> Option<SimTime> {
        self.finished.map(|f| f.saturating_sub(self.submitted))
    }
}

/// Aggregate counters of a service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Submissions offered (admitted + rejected).
    pub submitted: u64,
    /// Submissions past admission control.
    pub admitted: u64,
    /// Submissions bounced by admission control.
    pub rejected: u64,
    /// Jobs that completed with result bytes.
    pub completed_ok: u64,
    /// Jobs that failed after running (exhausted or non-recoverable).
    pub failed: u64,
    /// Jobs that missed their deadline (queued or ran).
    pub deadline_missed: u64,
    /// Breaker trips (device quarantines).
    pub quarantines: u64,
    /// Half-open probe slots granted after cooldowns.
    pub probes: u64,
    /// Jobs displaced from a quarantined device to healthy peers.
    pub displaced: u64,
    /// Simulated end of the last finished job.
    pub makespan: SimTime,
}

struct Device {
    gl: Gl,
    /// Instant the device finishes its current work.
    free_at: SimTime,
    queue: VecDeque<QueuedJob>,
    breaker: CircuitBreaker,
    jobs_run: u64,
}

/// The multi-tenant fleet scheduler; see the [crate docs](crate) for the
/// architecture and the [module docs](self) for the determinism
/// argument.
pub struct FleetService {
    cfg: ServiceConfig,
    devices: Vec<Device>,
    tenants: Vec<Tenant>,
    /// Jobs drained from quarantined devices, awaiting re-placement
    /// (FIFO, ahead of fresh DRR work — their deficit was already
    /// spent).
    displaced: VecDeque<QueuedJob>,
    records: Vec<JobRecord>,
    now: SimTime,
    next_job: u64,
    /// DRR position and whether the tenant at the cursor has an open
    /// (already credited) turn.
    drr_cursor: usize,
    drr_turn_open: bool,
    quarantines: u64,
    displaced_count: u64,
    last_arrival: SimTime,
    stats_rejected: u64,
    stats_deadline: u64,
    stats_failed: u64,
}

impl FleetService {
    /// Builds the fleet: one `Gl` context per device on its platform,
    /// with its fault plan installed, all multiplexed over one shared
    /// host-thread executor (wall-clock only; results and simulated
    /// timing are unaffected).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] for zero devices/queue bounds or an
    /// empty platform cycle; [`ServiceError::Env`] when an `MGPU_*`
    /// execution knob fails validation at context creation.
    pub fn new(cfg: ServiceConfig) -> Result<Self, ServiceError> {
        if cfg.devices == 0 {
            return Err(ServiceError::Config(
                "fleet needs at least one device".to_owned(),
            ));
        }
        if cfg.platforms.is_empty() {
            return Err(ServiceError::Config("platform cycle is empty".to_owned()));
        }
        if cfg.queue_depth == 0 || cfg.device_queue_depth == 0 {
            return Err(ServiceError::Config("queue bounds must be >= 1".to_owned()));
        }
        if cfg.quantum == 0 {
            return Err(ServiceError::Config("DRR quantum must be >= 1".to_owned()));
        }
        let mut devices = Vec::with_capacity(cfg.devices);
        let mut shared_executor = None;
        for index in 0..cfg.devices {
            let mut gl = Gl::try_new(cfg.platform_for(index), cfg.surface, cfg.surface).map_err(
                |e| match e {
                    GlError::InvalidEnv(env) => ServiceError::Env(env),
                    other => ServiceError::Config(other.to_string()),
                },
            )?;
            match &shared_executor {
                None => shared_executor = Some(gl.executor()),
                Some(executor) => gl.install_executor(executor.clone()),
            }
            if let Some(plan) = cfg.fault_plan_for(index) {
                gl.install_faults(plan);
            }
            devices.push(Device {
                gl,
                free_at: SimTime::ZERO,
                queue: VecDeque::new(),
                breaker: CircuitBreaker::new(cfg.breaker),
                jobs_run: 0,
            });
        }
        Ok(FleetService {
            cfg,
            devices,
            tenants: Vec::new(),
            displaced: VecDeque::new(),
            records: Vec::new(),
            now: SimTime::ZERO,
            next_job: 0,
            drr_cursor: 0,
            drr_turn_open: false,
            quarantines: 0,
            displaced_count: 0,
            last_arrival: SimTime::ZERO,
            stats_rejected: 0,
            stats_deadline: 0,
            stats_failed: 0,
        })
    }

    /// The configuration the fleet was built with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Registers a tenant with QoS `weight` (clamped to >= 1) and
    /// returns its id.
    pub fn add_tenant(&mut self, weight: u32) -> TenantId {
        let id = TenantId(u32::try_from(self.tenants.len()).unwrap_or(u32::MAX));
        self.tenants.push(Tenant::new(weight));
        id
    }

    /// Submits a job arriving at simulated instant `arrival` with an
    /// optional *relative* deadline (measured from arrival). Arrivals
    /// must be non-decreasing: the scheduler advances simulated time to
    /// each arrival as it is offered.
    ///
    /// A full tenant queue answers [`ServiceError::Rejected`] — the
    /// rejection is also recorded in the transcript — and admission
    /// errors ([`ServiceError::UnknownTenant`], a spec that fails
    /// validation, out-of-order arrivals) are returned without a record.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Rejected`], [`ServiceError::UnknownTenant`] or
    /// [`ServiceError::Config`] as above.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        spec: JobSpec,
        arrival: SimTime,
        deadline: Option<SimTime>,
    ) -> Result<JobId, ServiceError> {
        let tenant_index = tenant.0 as usize;
        if tenant_index >= self.tenants.len() {
            return Err(ServiceError::UnknownTenant(tenant));
        }
        spec.validate()?;
        if arrival < self.last_arrival {
            return Err(ServiceError::Config(format!(
                "submissions must be time-ordered: arrival {arrival:?} precedes {:?}",
                self.last_arrival
            )));
        }
        self.last_arrival = arrival;
        self.advance_to(arrival);
        self.now = self.now.max(arrival);

        let id = JobId(self.next_job);
        self.next_job += 1;
        let input_seed =
            Rng::new(self.cfg.seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        self.tenants[tenant_index].submitted += 1;

        if self.tenants[tenant_index].queue.len() >= self.cfg.queue_depth {
            self.tenants[tenant_index].rejected += 1;
            self.stats_rejected += 1;
            let err = ServiceError::Rejected {
                tenant,
                depth: self.cfg.queue_depth,
            };
            self.records.push(JobRecord {
                id,
                tenant,
                label: spec.label(),
                spec,
                input_seed,
                device: None,
                submitted: arrival,
                started: None,
                finished: Some(arrival),
                outcome: Err(err.clone()),
                recovery_events: 0,
                faults_seen: 0,
            });
            return Err(err);
        }

        let cost = spec.passes();
        self.tenants[tenant_index].queue.push_back(QueuedJob {
            id,
            tenant,
            spec,
            input_seed,
            submitted: arrival,
            deadline: deadline.map(|d| arrival + d),
            cost,
        });
        Ok(id)
    }

    /// Runs the fleet until every admitted job has completed (with
    /// result bytes or a typed error). Never hangs: breakers always
    /// release after their cooldown, failed probes consume a job, and
    /// the job population is finite.
    pub fn drain(&mut self) {
        self.advance_to(SimTime::MAX);
    }

    /// Every record so far, in completion order (rejections appear at
    /// their submission instant).
    #[must_use]
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// One tenant's transcript: its records in completion order.
    pub fn tenant_records(&self, tenant: TenantId) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(move |r| r.tenant == tenant)
    }

    /// Passes of successfully completed work per tenant (the fairness
    /// metric), indexed by tenant id.
    #[must_use]
    pub fn work_done(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.work_done).collect()
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let completed_ok = self.tenants.iter().map(|t| t.completed_ok).sum();
        let admitted = self.tenants.iter().map(|t| t.submitted - t.rejected).sum();
        ServiceStats {
            submitted: self.tenants.iter().map(|t| t.submitted).sum(),
            admitted,
            rejected: self.stats_rejected,
            completed_ok,
            failed: self.stats_failed,
            deadline_missed: self.stats_deadline,
            quarantines: self.quarantines,
            probes: self.devices.iter().map(|d| d.breaker.probes()).sum(),
            displaced: self.displaced_count,
            makespan: self
                .records
                .iter()
                .filter_map(|r| r.finished)
                .max()
                .unwrap_or(SimTime::ZERO),
        }
    }

    /// Jobs executed per device (probe and failed runs included),
    /// indexed by device.
    #[must_use]
    pub fn device_jobs(&self) -> Vec<u64> {
        self.devices.iter().map(|d| d.jobs_run).collect()
    }

    /// Simulated latencies (submission → finish) of every job that
    /// completed with result bytes, in completion order.
    #[must_use]
    pub fn ok_latencies(&self) -> Vec<SimTime> {
        self.records
            .iter()
            .filter(|r| r.outcome.is_ok())
            .filter_map(JobRecord::latency)
            .collect()
    }

    // ---- the discrete-event loop ---------------------------------------

    /// Advances simulated time to `limit`, running every dispatch that
    /// starts strictly before it and every breaker release due on the
    /// way.
    fn advance_to(&mut self, limit: SimTime) {
        loop {
            self.release_due_breakers();
            self.place_displaced();
            self.refill();

            let dispatch = self.next_dispatch();
            let next_release = if self.has_pending_work() {
                self.devices
                    .iter()
                    .filter_map(|d| d.breaker.open_until())
                    .min()
            } else {
                None
            };

            let next_event = match (dispatch, next_release) {
                (Some((start, _)), Some(release)) => Some(start.min(release)),
                (Some((start, _)), None) => Some(start),
                (None, Some(release)) => Some(release),
                (None, None) => None,
            };
            match next_event {
                None => {
                    // Nothing schedulable: with no pending work this is
                    // quiescence; stranded work would be a scheduler bug
                    // (breakers always release, so it cannot happen).
                    debug_assert!(
                        !self.has_pending_work(),
                        "event loop stalled with pending work"
                    );
                    if limit != SimTime::MAX {
                        self.now = self.now.max(limit);
                    }
                    return;
                }
                Some(t) if t >= limit => {
                    if limit != SimTime::MAX {
                        self.now = self.now.max(limit);
                    }
                    return;
                }
                Some(t) => {
                    self.now = self.now.max(t);
                    match dispatch {
                        Some((start, device)) if start <= t => self.run_job(device),
                        // A breaker released first; loop to re-plan.
                        _ => {}
                    }
                }
            }
        }
    }

    fn has_pending_work(&self) -> bool {
        !self.displaced.is_empty()
            || self.tenants.iter().any(|t| !t.queue.is_empty())
            || self.devices.iter().any(|d| !d.queue.is_empty())
    }

    fn release_due_breakers(&mut self) {
        for device in &mut self.devices {
            device.breaker.release_due(self.now);
        }
    }

    /// Room left at device `index` for routed jobs: bounded look-ahead
    /// when closed, exactly one probe slot when half-open, none when
    /// open.
    fn device_room(&self, index: usize) -> usize {
        let device = &self.devices[index];
        let cap = match device.breaker.state() {
            BreakerState::Open { .. } => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Closed => self.cfg.device_queue_depth,
        };
        cap.saturating_sub(device.queue.len())
    }

    /// The device to route the next job to: least loaded, ties broken by
    /// earliest free instant then index — a total, deterministic order.
    fn pick_device(&self) -> Option<usize> {
        (0..self.devices.len())
            .filter(|&i| self.device_room(i) > 0)
            .min_by_key(|&i| (self.devices[i].queue.len(), self.devices[i].free_at, i))
    }

    fn route_to_device(&mut self, job: QueuedJob) -> bool {
        match self.pick_device() {
            Some(index) => {
                self.devices[index].queue.push_back(job);
                true
            }
            None => false,
        }
    }

    /// Re-places jobs displaced by a quarantine, oldest first.
    fn place_displaced(&mut self) {
        while let Some(job) = self.displaced.front() {
            let job = job.clone();
            if !self.route_to_device(job) {
                return;
            }
            self.displaced.pop_front();
        }
    }

    /// Deficit-round-robin refill: feeds device queues from tenant
    /// queues. See [`crate::queue`] for the fairness contract.
    fn refill(&mut self) {
        let tenant_count = self.tenants.len();
        if tenant_count == 0 {
            return;
        }
        loop {
            if self.pick_device().is_none() {
                return; // no room anywhere; turn (if open) stays open
            }
            // Find the next backlogged tenant, clearing the deficit of
            // empty queues as DRR requires.
            let mut steps = 0;
            while steps < tenant_count {
                let tenant = &mut self.tenants[self.drr_cursor];
                if !tenant.queue.is_empty() {
                    break;
                }
                tenant.deficit = 0;
                self.drr_cursor = (self.drr_cursor + 1) % tenant_count;
                self.drr_turn_open = false;
                steps += 1;
            }
            if self.tenants[self.drr_cursor].queue.is_empty() {
                return; // nothing backlogged anywhere
            }

            if !self.drr_turn_open {
                let tenant = &mut self.tenants[self.drr_cursor];
                tenant.deficit = tenant
                    .deficit
                    .saturating_add(self.cfg.quantum.saturating_mul(u64::from(tenant.weight)));
                self.drr_turn_open = true;
            }

            // Serve the head while the deficit covers it and a device
            // has room.
            loop {
                let tenant = &self.tenants[self.drr_cursor];
                let Some(head) = tenant.queue.front() else {
                    // Queue emptied: deficit resets, turn over.
                    self.tenants[self.drr_cursor].deficit = 0;
                    self.drr_cursor = (self.drr_cursor + 1) % tenant_count;
                    self.drr_turn_open = false;
                    break;
                };
                if head.cost > tenant.deficit {
                    // Deficit spent: turn over, credit again next visit.
                    self.drr_cursor = (self.drr_cursor + 1) % tenant_count;
                    self.drr_turn_open = false;
                    break;
                }
                if self.pick_device().is_none() {
                    return; // no room: pause mid-turn, keep the credit
                }
                let tenant = &mut self.tenants[self.drr_cursor];
                let job = match tenant.queue.pop_front() {
                    Some(job) => job,
                    None => break,
                };
                tenant.deficit -= job.cost;
                let routed = self.route_to_device(job);
                debug_assert!(routed, "pick_device succeeded just above");
            }
        }
    }

    /// The next job to run: among devices whose breaker accepts and
    /// whose queue is non-empty, the earliest start instant (ties by
    /// device index).
    fn next_dispatch(&self) -> Option<(SimTime, usize)> {
        (0..self.devices.len())
            .filter(|&i| self.devices[i].breaker.accepts() && !self.devices[i].queue.is_empty())
            .map(|i| (self.devices[i].free_at.max(self.now), i))
            .min()
    }

    /// Pops and executes the head job of device `index` at the current
    /// instant.
    fn run_job(&mut self, index: usize) {
        let Some(job) = self.devices[index].queue.pop_front() else {
            return;
        };
        let start = self.devices[index].free_at.max(self.now);

        // Deadline fast-fail: a job already past its deadline is failed
        // without burning device time (and without charging the breaker).
        if let Some(deadline) = job.deadline {
            if start >= deadline {
                self.stats_deadline += 1;
                let err = DeadlineError {
                    tenant: job.tenant,
                    job: job.id,
                    label: job.spec.label(),
                    deadline,
                    started: None,
                    finished: None,
                    fault_trail: Vec::new(),
                    recovery: Vec::new(),
                };
                self.records.push(JobRecord {
                    id: job.id,
                    tenant: job.tenant,
                    label: job.spec.label(),
                    spec: job.spec,
                    input_seed: job.input_seed,
                    device: Some(index),
                    submitted: job.submitted,
                    started: None,
                    finished: Some(start),
                    outcome: Err(ServiceError::DeadlineExceeded(Box::new(err))),
                    recovery_events: 0,
                    faults_seen: 0,
                });
                return;
            }
        }

        let device = &mut self.devices[index];
        let elapsed_before = device.gl.elapsed();
        let trail_before = device.gl.fault_trail().len();

        let mut runner = ResilientRunner::new(self.cfg.resilience);
        let mut recoverable = job.spec.build(&self.cfg.opt, job.input_seed);
        let result = runner.run(&mut device.gl, recoverable.as_mut());

        // A run abandoned with the context lost must not tax the next
        // job with the recovery.
        if device.gl.context_lost() {
            device.gl.recreate();
        }

        let elapsed_after = device.gl.elapsed();
        let finish = start + elapsed_after.saturating_sub(elapsed_before);
        device.free_at = finish;
        device.jobs_run += 1;
        let recovery = runner.events().to_vec();
        let fault_slice = device.gl.fault_trail()[trail_before..].to_vec();

        let tenant = &mut self.tenants[job.tenant.0 as usize];
        let outcome = match result {
            Ok(bytes) => match job.deadline {
                // The device functioned (breaker-wise) even when late.
                Some(deadline) if finish > deadline => {
                    self.stats_deadline += 1;
                    device.breaker.on_success();
                    Err(ServiceError::DeadlineExceeded(Box::new(DeadlineError {
                        tenant: job.tenant,
                        job: job.id,
                        label: job.spec.label(),
                        deadline,
                        started: Some(start),
                        finished: Some(finish),
                        fault_trail: fault_slice.clone(),
                        recovery: recovery.clone(),
                    })))
                }
                _ => {
                    device.breaker.on_success();
                    tenant.completed_ok += 1;
                    tenant.work_done += job.cost;
                    Ok(bytes)
                }
            },
            Err(GpgpuError::Exhausted(e)) => {
                self.stats_failed += 1;
                if device.breaker.on_exhausted(finish) {
                    self.quarantines += 1;
                    let drained: Vec<QueuedJob> = device.queue.drain(..).collect();
                    self.displaced_count += drained.len() as u64;
                    self.displaced.extend(drained);
                }
                Err(ServiceError::Exhausted(e))
            }
            Err(other) => {
                // Not the device's fault (config errors etc.): the
                // breaker streak is left untouched.
                self.stats_failed += 1;
                Err(ServiceError::Job {
                    tenant: job.tenant,
                    job: job.id,
                    detail: other.to_string(),
                })
            }
        };

        self.records.push(JobRecord {
            id: job.id,
            tenant: job.tenant,
            label: job.spec.label(),
            spec: job.spec,
            input_seed: job.input_seed,
            device: Some(index),
            submitted: job.submitted,
            started: Some(start),
            finished: Some(finish),
            outcome,
            recovery_events: recovery.len(),
            faults_seen: fault_slice.len(),
        });
    }
}
