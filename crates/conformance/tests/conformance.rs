//! End-to-end conformance properties: lattice agreement, fault-recovery
//! transparency, divergence detection + shrinking, and golden-corpus
//! replay.

use mgpu_conformance::{
    ast_nodes, check_case, check_fault_recovery, format_case, parse_case, random_recovery_plan,
    run_case, shrink_case, CaseFile, ExecPoint,
};
use mgpu_gles::FaultPlan;
use mgpu_prop::run_cases;
use mgpu_prop::shadergen::{gen_case, ConfCase};
use mgpu_tbdr::Platform;

#[test]
fn lattice_agrees_on_generated_cases() {
    // Every generated case must produce identical transcripts and
    // identical simulated-timing reports at all 16 lattice points on both
    // paper platforms (reports of tile-skip points are held equal within
    // the skip group).
    run_cases(6, |rng| {
        let case = gen_case(rng);
        if let Some(divergence) = check_case(&case) {
            panic!("lattice divergence: {divergence}");
        }
    });
}

#[test]
fn fault_recovery_is_transparent() {
    // A run interrupted by recoverable faults (context loss, OOM, compile
    // scratch exhaustion) and replayed by the recovery layer must be
    // byte-identical to a run that never faulted.
    run_cases(4, |rng| {
        let case = gen_case(rng);
        let plan = random_recovery_plan(rng);
        if let Some(divergence) = check_fault_recovery(&case, &plan) {
            panic!("fault-recovery divergence under `{plan}`: {divergence}");
        }
    });
}

/// A corruption plan covering every draw index a small script can reach.
fn corruption_everywhere() -> FaultPlan {
    let mut plan = FaultPlan::seeded(11);
    for draw in 0..32 {
        plan = plan.corrupt_at_draw(draw);
    }
    plan
}

/// The divergence predicate for the corruption demo: silent render-target
/// corruption with recovery disabled must change some readback relative
/// to the fault-free run.
fn corrupted_diverges(case: &ConfCase, plan: &FaultPlan) -> bool {
    let platform = Platform::videocore_iv();
    let baseline = ExecPoint::baseline();
    let clean = run_case(case, &platform, baseline, None, false);
    let corrupted = run_case(case, &platform, baseline, Some(plan), false);
    clean.transcript != corrupted.transcript
}

#[test]
fn seeded_corruption_is_caught_and_shrunk_to_a_replayable_case() {
    let plan = corruption_everywhere();
    // Find a generated case that observes a corrupted draw (the first few
    // seeds suffice: the generator's epilogue always draws and reads).
    let (seed, case) = (0..50)
        .find_map(|seed| {
            let mut rng = mgpu_prop::case_rng(seed);
            let case = gen_case(&mut rng);
            corrupted_diverges(&case, &plan).then_some((seed, case))
        })
        .expect("no generated case observes the corruption");
    println!("corruption observed at generator seed {seed}");

    // Shrink while the divergence reproduces.
    let shrunk = shrink_case(&case, |candidate| corrupted_diverges(candidate, &plan), 600);
    assert!(
        corrupted_diverges(&shrunk, &plan),
        "shrinker lost the divergence"
    );
    assert!(
        shrunk.steps.len() <= case.steps.len(),
        "shrinker grew the script"
    );

    // The shrunk kernels must be tiny: at most 10 AST nodes in total.
    let total_nodes: usize = shrunk
        .shaders
        .iter()
        .map(|shader| mgpu_shader::parse(&shader.source).map_or(0, |program| ast_nodes(&program)))
        .sum();
    assert!(
        total_nodes <= 10,
        "shrunk case still has {total_nodes} AST nodes:\n{}",
        shrunk
            .shaders
            .iter()
            .map(|s| s.source.as_str())
            .collect::<Vec<_>>()
            .join("\n---\n")
    );

    // The failure must survive a `.case` round trip: the file alone
    // reproduces it.
    let file = CaseFile {
        case: shrunk,
        faults: Some(plan.clone()),
        recover: false,
        point: Some(ExecPoint::baseline()),
    };
    let text = format_case(&file);
    let replayed = parse_case(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let replay_plan = replayed.faults.expect("plan survives the round trip");
    assert!(
        corrupted_diverges(&replayed.case, &replay_plan),
        "replayed case no longer diverges:\n{text}"
    );
}

#[test]
fn golden_corpus_replays_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|entry| entry.expect("readable corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "case"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus is empty");
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable case file");
        let file = parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let verdict = match (&file.faults, file.recover) {
            (Some(plan), true) => check_fault_recovery(&file.case, plan),
            _ => check_case(&file.case),
        };
        if let Some(divergence) = verdict {
            panic!("{}: {divergence}", path.display());
        }
    }
}
