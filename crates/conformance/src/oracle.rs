//! The differential oracles.
//!
//! [`check_case`] sweeps a case across the whole execution lattice on both
//! paper platforms and demands, against the serial scalar baseline:
//!
//! * **byte identity** — every transcript entry (pixels, success marks
//!   and error texts alike) equal at every point;
//! * **report invariance** — the full [`SimReport`](mgpu_tbdr::SimReport)
//!   (per-frame timing, traffic, unit busyness) equal at every point,
//!   because simulated time must not depend on host execution strategy.
//!   Tile skipping (`skip=on`) changes simulated time *by design* —
//!   skipped tiles trade fragment shading for signature traffic — so
//!   reports are held equal only *within* a skip group: all skip-on
//!   points must report identical timing to each other (the skip decision
//!   is deterministic, whatever the dispatcher), and all skip-off points
//!   must match the baseline exactly as before.
//!
//! [`check_fault_recovery`] installs a recoverable [`FaultPlan`] and
//! demands the recovered transcript be byte-identical to the fault-free
//! one — faults that the resilience layer absorbs must be functionally
//! invisible.

use std::fmt;

use mgpu_gles::{Engine, FaultPlan};
use mgpu_prop::shadergen::ConfCase;
use mgpu_prop::Rng;
use mgpu_tbdr::Platform;

use crate::lattice::{lattice, ExecPoint};
use crate::run::{run_case, RunOutcome, StepOutcome};

/// A confirmed disagreement between two runs of the same case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Platform the case diverged on.
    pub platform: String,
    /// The execution point that disagreed with the baseline (or, for
    /// fault-recovery checks, the point the faulted run executed at).
    pub point: String,
    /// Script step index where the transcripts first differ, if they do
    /// (`None` means the transcripts matched but the reports did not).
    pub step: Option<usize>,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} @ {}] ", self.platform, self.point)?;
        match self.step {
            Some(step) => write!(f, "step {step}: {}", self.detail),
            None => write!(f, "{}", self.detail),
        }
    }
}

fn describe(outcome: &StepOutcome) -> String {
    match outcome {
        StepOutcome::Ok => "ok".to_owned(),
        StepOutcome::Bytes(bytes) => format!("{} bytes", bytes.len()),
        StepOutcome::Failed(text) => format!("error `{text}`"),
    }
}

/// First transcript disagreement between `want` and `got`, as
/// `(step, description)`.
#[must_use]
pub fn diff_transcripts(want: &[StepOutcome], got: &[StepOutcome]) -> Option<(usize, String)> {
    for (step, (a, b)) in want.iter().zip(got.iter()).enumerate() {
        if a == b {
            continue;
        }
        let detail = match (a, b) {
            (StepOutcome::Bytes(x), StepOutcome::Bytes(y)) => {
                let offset = x
                    .iter()
                    .zip(y.iter())
                    .position(|(p, q)| p != q)
                    .map_or_else(
                        || format!("lengths {} vs {}", x.len(), y.len()),
                        |o| format!("first differing byte at offset {o}"),
                    );
                format!("readback bytes differ ({offset})")
            }
            (a, b) => format!("{} vs {}", describe(a), describe(b)),
        };
        return Some((step, detail));
    }
    if want.len() != got.len() {
        return Some((
            want.len().min(got.len()),
            format!("transcript lengths {} vs {}", want.len(), got.len()),
        ));
    }
    None
}

fn compare(
    platform: &Platform,
    point: ExecPoint,
    base: &RunOutcome,
    got: &RunOutcome,
    check_report: bool,
) -> Option<Divergence> {
    if let Some((step, detail)) = diff_transcripts(&base.transcript, &got.transcript) {
        return Some(Divergence {
            platform: platform.name.clone(),
            point: point.to_string(),
            step: Some(step),
            detail,
        });
    }
    if check_report && base.report != got.report {
        return Some(Divergence {
            platform: platform.name.clone(),
            point: point.to_string(),
            step: None,
            detail: "SimReport differs from its skip group's reference \
                     (timing must be execution-invariant)"
                .to_owned(),
        });
    }
    None
}

/// Sweeps `case` across the full lattice on both paper platforms; `None`
/// means every point agreed with the baseline transcript byte-for-byte
/// and with its skip group's reference report (skip-off points against
/// the baseline, skip-on points against the first skip-on point).
#[must_use]
pub fn check_case(case: &ConfCase) -> Option<Divergence> {
    for platform in Platform::paper_pair() {
        let points = lattice();
        let base = run_case(case, &platform, points[0], None, false);
        // Report reference for skip-on points, established by the first
        // one encountered (its transcript is still held to the baseline).
        let mut skip_base: Option<RunOutcome> = None;
        for &point in &points[1..] {
            let got = run_case(case, &platform, point, None, false);
            let report_ref = if point.tile_skip {
                skip_base.as_ref().unwrap_or(&got)
            } else {
                &base
            };
            if let Some(div) = compare(&platform, point, &base, &got, false) {
                return Some(div);
            }
            if let Some(div) = compare(&platform, point, report_ref, &got, true) {
                return Some(div);
            }
            if point.tile_skip && skip_base.is_none() {
                skip_base = Some(got);
            }
        }
    }
    None
}

/// The execution points fault recovery is exercised at: the serial scalar
/// baseline, a pooled plan-cached compiled point — both ends of the
/// execution spectrum — and the same compiled point with tile skipping,
/// because a context loss must flush the signature cache (stale replays
/// after recovery would silently corrupt pixels).
fn recovery_points() -> [ExecPoint; 3] {
    let pooled = ExecPoint {
        engine: Engine::Compiled,
        plan_cache: true,
        tile_skip: false,
        threads: 2,
    };
    [
        ExecPoint::baseline(),
        pooled,
        ExecPoint {
            tile_skip: true,
            ..pooled
        },
    ]
}

/// Runs `case` fault-free and under `plan` with recovery enabled, on both
/// paper platforms at both ends of the dispatcher spectrum, demanding
/// byte-identical transcripts. (Reports are *not* compared: a recovered
/// run legitimately does more simulated work.)
#[must_use]
pub fn check_fault_recovery(case: &ConfCase, plan: &FaultPlan) -> Option<Divergence> {
    for platform in Platform::paper_pair() {
        for point in recovery_points() {
            let clean = run_case(case, &platform, point, None, false);
            let faulted = run_case(case, &platform, point, Some(plan), true);
            if let Some(mut div) = compare(&platform, point, &clean, &faulted, false) {
                div.detail = format!("faulted-then-recovered run diverged: {}", div.detail);
                return Some(div);
            }
        }
    }
    None
}

/// A random *recoverable* fault plan: one-shot context losses, upload
/// OOMs and compile failures only — no corruption (silent, by design
/// unrecoverable) and no watchdog (a budget would reject the same draw
/// forever). At least one directive is always present.
#[must_use]
pub fn random_recovery_plan(rng: &mut Rng) -> FaultPlan {
    let mut plan = FaultPlan::seeded(rng.next_u64());
    let mut any = false;
    for _ in 0..rng.usize_in(0, 2) {
        plan = plan.ctx_loss_at_draw(rng.u64_in(0, 6));
        any = true;
    }
    for _ in 0..rng.usize_in(0, 2) {
        plan = plan.oom_at_upload(rng.u64_in(0, 8));
        any = true;
    }
    for _ in 0..rng.usize_in(0, 2) {
        plan = plan.compile_fail_at(rng.u64_in(0, 4));
        any = true;
    }
    if !any {
        plan = plan.ctx_loss_at_draw(rng.u64_in(0, 3));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_reports_first_differing_step() {
        let a = vec![StepOutcome::Ok, StepOutcome::Bytes(vec![1, 2, 3])];
        let b = vec![StepOutcome::Ok, StepOutcome::Bytes(vec![1, 9, 3])];
        let (step, detail) = diff_transcripts(&a, &b).unwrap();
        assert_eq!(step, 1);
        assert!(detail.contains("offset 1"), "{detail}");
        assert!(diff_transcripts(&a, &a).is_none());
    }

    #[test]
    fn diff_reports_length_mismatch() {
        let a = vec![StepOutcome::Ok];
        let b = vec![StepOutcome::Ok, StepOutcome::Ok];
        let (step, detail) = diff_transcripts(&a, &b).unwrap();
        assert_eq!(step, 1);
        assert!(detail.contains("lengths"), "{detail}");
    }

    #[test]
    fn random_recovery_plans_are_never_empty_and_round_trip() {
        mgpu_prop::run_cases(64, |rng| {
            let plan = random_recovery_plan(rng);
            assert!(!plan.is_empty());
            let spec = plan.to_string();
            assert_eq!(FaultPlan::parse(&spec), Ok(plan));
        });
    }
}
