//! The isolation check's solo baseline is fault-free even when the
//! process sets `MGPU_FAULTS`. This binary holds the single test that
//! sets the variable — it must be alone here, because the knob snapshot
//! is process-global and resolves at the first context creation.

use mgpu_gles::FaultPlan;
use mgpu_service::{check_service_isolation, FleetService, JobSpec, ServiceConfig};
use mgpu_tbdr::SimTime;

#[test]
fn isolation_baseline_ignores_the_env_fault_plan() {
    // Set before the first Gl is created: every context of the process,
    // the solo baselines' included, would install this plan, which
    // corrupts each context's first draw.
    std::env::set_var("MGPU_FAULTS", "seed=1,corrupt@0");
    // The fleet's devices replace it with an explicit empty plan, so the
    // fleet itself runs clean.
    let mut service = FleetService::new(ServiceConfig {
        devices: 2,
        fault_plans: vec![Some(FaultPlan::seeded(0))],
        ..ServiceConfig::default()
    })
    .unwrap();
    let tenant = service.add_tenant(1);
    for _ in 0..4 {
        let spec = JobSpec::Sum {
            n: 8,
            iterations: 1,
        };
        service.submit(tenant, spec, SimTime::ZERO, None).unwrap();
    }
    service.drain();
    std::env::remove_var("MGPU_FAULTS");
    assert_eq!(service.stats().completed_ok, 4);
    assert_eq!(check_service_isolation(&service), Vec::new());
}
