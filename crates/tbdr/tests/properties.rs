//! Property-based invariants of the TBDR scheduler.

use mgpu_prop::{run_cases, Rng};
use mgpu_tbdr::{
    AllocKind, CopyOut, FragmentProfile, FrameTiming, FrameWork, PipelineSim, Platform,
    RenderTarget, ResourceId, SimTime, SyncOp, Upload,
};

/// A small but varied fragment profile.
fn gen_profile(rng: &mut Rng) -> FragmentProfile {
    FragmentProfile {
        alu_cycles: rng.f64(0.0, 64.0),
        streaming_fetches: rng.f64(0.0, 4.0),
        streaming_fetch_bytes: rng.f64(0.0, 16.0),
        dependent_fetches: rng.f64(0.0, 4.0),
        dependent_fetch_bytes: rng.f64(0.0, 16.0),
        output_bytes: rng.f64(1.0, 8.0),
    }
}

/// One frame with random-ish structure over a handful of resources.
fn gen_frame(rng: &mut Rng) -> FrameWork {
    let profile = gen_profile(rng);
    let width = rng.u32_in(1, 3) * 64;
    let height = rng.u32_in(1, 3) * 64;
    let n_uploads = rng.usize_in(0, 3);
    let cleared = rng.bool();
    let to_texture = rng.bool();
    let sync = rng.u32_in(0, 4);
    let read = rng.u64_in(0, 4);
    let copy = rng.bool();

    let mut f = FrameWork::simple(width, height, profile);
    f.fragment.cleared = cleared;
    for i in 0..n_uploads {
        f.uploads.push(if i % 2 == 0 {
            Upload::fresh(ResourceId::from_raw(100 + i as u64), 4096)
        } else {
            Upload::reuse(ResourceId::from_raw(100 + i as u64), 4096)
        });
    }
    if to_texture {
        f.target = RenderTarget::Texture {
            storage: ResourceId::from_raw(50),
            fresh: false,
        };
    } else if copy {
        f.copy_out = Some(CopyOut {
            dest: ResourceId::from_raw(60),
            bytes: u64::from(width) * u64::from(height) * 4,
            alloc: AllocKind::Reuse,
        });
    }
    f.reads.push(ResourceId::from_raw(read));
    f.sync = match sync {
        0 => SyncOp::None,
        1 => SyncOp::Finish,
        2 => SyncOp::Swap { interval: 0 },
        _ => SyncOp::Swap { interval: 1 },
    };
    f
}

/// Every stage of every frame is well-ordered, and per-unit intervals
/// never overlap across frames.
#[test]
fn stages_ordered_and_units_exclusive() {
    run_cases(256, |rng| {
        let n = rng.usize_in(1, 20);
        let frames: Vec<FrameWork> = (0..n).map(|_| gen_frame(rng)).collect();
        let platform = if rng.bool() {
            Platform::videocore_iv()
        } else {
            Platform::sgx_545()
        };
        let mut sim = PipelineSim::new(platform);
        let mut prev_frag_end = SimTime::ZERO;
        let mut prev_vtx_end = SimTime::ZERO;
        let mut prev_copy_end = SimTime::ZERO;
        for f in &frames {
            let t = sim.submit(f);
            assert!(t.cpu_start <= t.submit);
            assert!(t.submit <= t.vtx_start);
            assert!(t.vtx_start <= t.vtx_end);
            assert!(t.vtx_end <= t.frag_start);
            assert!(t.frag_start <= t.frag_end);
            assert!(t.retire >= t.frag_end);
            // Units are exclusive: each stage starts after the unit's
            // previous occupant finished.
            assert!(t.vtx_start >= prev_vtx_end);
            assert!(t.frag_start >= prev_frag_end);
            if let Some((cs, ce)) = t.copy {
                assert!(cs >= t.frag_end);
                assert!(cs >= prev_copy_end);
                assert!(ce >= cs);
                prev_copy_end = ce;
            }
            prev_vtx_end = t.vtx_end;
            prev_frag_end = t.frag_end;
        }
    });
}

/// Submits `frames` one by one, checking after every submit that the
/// running `total_time()` equals the report's total and never decreases.
fn submit_checking_total(platform: Platform, frames: &[FrameWork]) -> Vec<FrameTiming> {
    let mut sim = PipelineSim::new(platform);
    let mut prev = SimTime::ZERO;
    let mut timings = Vec::new();
    for f in frames {
        timings.push(sim.submit(f));
        let total = sim.total_time();
        assert_eq!(total, sim.report().total_time);
        assert!(total >= prev, "total time went backwards");
        prev = total;
    }
    assert_eq!(sim.finish().total_time, prev);
    timings
}

/// Submitting more work never makes the simulation end earlier, and the
/// O(1) running total always matches the report — including when an
/// earlier frame's asynchronous copy retires after later frames.
#[test]
fn total_time_is_monotone() {
    run_cases(64, |rng| {
        let n = rng.usize_in(2, 16);
        let frames: Vec<FrameWork> = (0..n).map(|_| gen_frame(rng)).collect();
        submit_checking_total(Platform::videocore_iv(), &frames);
    });

    // A large copy out of the first frame, then small unsynchronised frames
    // into a texture that never waits for it: the copy retires last.
    let profile = FragmentProfile {
        alu_cycles: 1.0,
        output_bytes: 4.0,
        ..FragmentProfile::default()
    };
    let mut copying = FrameWork::simple(64, 64, profile);
    copying.copy_out = Some(CopyOut {
        dest: ResourceId::from_raw(70),
        bytes: 16 << 20,
        alloc: AllocKind::Fresh,
    });
    let mut small = FrameWork::simple(64, 64, profile);
    small.target = RenderTarget::Texture {
        storage: ResourceId::from_raw(71),
        fresh: false,
    };
    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        let t = submit_checking_total(platform, &[copying.clone(), small.clone(), small.clone()]);
        let (_, copy_end) = t[0].copy.expect("the first frame copies");
        assert!(
            t[2].retire.max(t[2].next_cpu_free) < copy_end,
            "the copy must outlive the later frames"
        );
    }
}

/// The schedule for a prefix of the frame stream is unaffected by what
/// comes later (causality).
#[test]
fn schedule_is_causal() {
    run_cases(128, |rng| {
        let n = rng.usize_in(2, 12);
        let frames: Vec<FrameWork> = (0..n).map(|_| gen_frame(rng)).collect();
        let platform = Platform::sgx_545();
        let mut full = PipelineSim::new(platform.clone());
        let full_timings: Vec<_> = frames.iter().map(|f| full.submit(f)).collect();

        let k = frames.len() / 2;
        let mut partial = PipelineSim::new(platform);
        for (i, f) in frames[..k].iter().enumerate() {
            let t = partial.submit(f);
            assert_eq!(&t, &full_timings[i]);
        }
    });
}

/// Fragment time grows monotonically with the fragment count.
#[test]
fn fragment_time_monotone_in_coverage() {
    run_cases(256, |rng| {
        let profile = gen_profile(rng);
        let sim = PipelineSim::new(Platform::videocore_iv());
        let mut prev = SimTime::ZERO;
        for mult in 1u32..=4 {
            let f = FrameWork::simple(64 * mult, 64, profile);
            let t = sim.fragment_time(&f.fragment, false);
            assert!(t >= prev);
            prev = t;
        }
    });
}

/// Vsync never makes a frame finish earlier, and never alters GPU-side
/// timing of the frame itself.
#[test]
fn vsync_only_delays() {
    run_cases(256, |rng| {
        let profile = gen_profile(rng);
        let platform = Platform::videocore_iv();
        let mut swap = FrameWork::simple(128, 128, profile);
        swap.sync = SyncOp::Swap { interval: 1 };
        let mut nosync = swap.clone();
        nosync.sync = SyncOp::Swap { interval: 0 };

        let mut sim_a = PipelineSim::new(platform.clone());
        let ta = sim_a.submit(&swap);
        let mut sim_b = PipelineSim::new(platform);
        let tb = sim_b.submit(&nosync);
        assert_eq!(ta.frag_end, tb.frag_end);
        assert!(ta.next_cpu_free >= tb.next_cpu_free);
    });
}
