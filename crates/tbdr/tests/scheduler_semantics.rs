//! Additional scheduler semantics: vsync grids, utilisation accounting
//! and ablation builders.

use mgpu_tbdr::{Bandwidth, FragmentProfile, FrameWork, PipelineSim, Platform, SimTime, SyncOp};

fn cheap_frame(sync: SyncOp) -> FrameWork {
    let mut f = FrameWork::simple(
        128,
        128,
        FragmentProfile {
            alu_cycles: 8.0,
            output_bytes: 4.0,
            ..FragmentProfile::default()
        },
    );
    f.sync = sync;
    f
}

#[test]
fn swap_interval_two_halves_the_frame_rate() {
    let p = Platform::videocore_iv();
    let measure = |interval: u32| {
        let mut sim = PipelineSim::new(p.clone());
        for _ in 0..20 {
            sim.submit(&cheap_frame(SyncOp::Swap { interval }));
        }
        let frames = sim.finish().frames;
        frames[19].retire - frames[18].retire
    };
    let one = measure(1);
    let two = measure(2);
    // A cheap kernel locks to the grid: interval 2 is exactly twice it.
    assert_eq!(one, p.refresh_period);
    assert_eq!(two, p.refresh_period * 2);
}

#[test]
fn utilisation_is_bounded_and_consistent() {
    let mut sim = PipelineSim::new(Platform::sgx_545());
    // A compute-heavy kernel keeps the fragment unit clearly the busiest.
    let mut frame = FrameWork::simple(
        512,
        512,
        FragmentProfile {
            alu_cycles: 120.0,
            output_bytes: 4.0,
            ..FragmentProfile::default()
        },
    );
    frame.sync = SyncOp::None;
    for _ in 0..50 {
        sim.submit(&frame);
    }
    let report = sim.finish();
    let util = report.utilisation();
    for (name, u) in util {
        assert!(
            (0.0..=1.0 + 1e-9).contains(&u),
            "{name} utilisation {u} out of range"
        );
    }
    // A pipelined stream keeps the fragment unit the busiest GPU unit.
    let get = |n: &str| util.iter().find(|(k, _)| *k == n).unwrap().1;
    assert!(get("fragment") > get("vertex"));
    assert!(get("copy") == 0.0);
}

#[test]
fn disabling_the_dma_engine_slows_copies_only() {
    let vc = Platform::videocore_iv();
    let no_dma = vc
        .to_builder()
        .blocking_copy(Bandwidth::mebi_per_sec(2.0))
        .build();

    let mk = || {
        let mut f = cheap_frame(SyncOp::None);
        f.copy_out = Some(mgpu_tbdr::CopyOut {
            dest: mgpu_tbdr::ResourceId::from_raw(1000),
            bytes: 128 * 128 * 4,
            alloc: mgpu_tbdr::AllocKind::Fresh,
        });
        f
    };

    let mut a = PipelineSim::new(vc);
    let mut b = PipelineSim::new(no_dma);
    let ta = a.submit(&mk());
    let tb = b.submit(&mk());
    // Fragment timing identical; copy much slower without DMA.
    assert_eq!(ta.frag_end - ta.frag_start, tb.frag_end - tb.frag_start);
    let (cas, cae) = ta.copy.unwrap();
    let (cbs, cbe) = tb.copy.unwrap();
    assert!((cbe - cbs) > (cae - cas) * 10);
}

#[test]
fn bigger_tiles_mean_fewer_binning_cycles() {
    let small = Platform::sgx_545();
    let big = small.to_builder().tile_size(64, 64).build();
    let f = cheap_frame(SyncOp::None);
    let mut sa = PipelineSim::new(small);
    let mut sb = PipelineSim::new(big);
    let ta = sa.submit(&f);
    let tb = sb.submit(&f);
    assert!(tb.vtx_end - tb.vtx_start < ta.vtx_end - ta.vtx_start);
}

#[test]
fn display_formats_cover_magnitudes() {
    assert_eq!(format!("{}", SimTime::from_nanos(999)), "999ns");
    assert_eq!(format!("{}", SimTime::from_micros(1)), "1.000us");
    assert!(format!("{}", SimTime::from_secs_f64(90.0)).ends_with('s'));
}

#[test]
fn upload_stall_is_reported_not_hidden() {
    use mgpu_tbdr::{ResourceId, Upload};
    let p = Platform::sgx_545();
    let mut sim = PipelineSim::new(p);
    let tex = ResourceId::from_raw(7);
    // A heavy reader holds the storage.
    let mut reader = FrameWork::simple(
        1024,
        1024,
        FragmentProfile {
            alu_cycles: 500.0,
            output_bytes: 4.0,
            ..FragmentProfile::default()
        },
    );
    reader.reads.push(tex);
    let mut writer = cheap_frame(SyncOp::None);
    writer.uploads.push(Upload::reuse(tex, 4096));

    let r = sim.submit(&reader);
    let w = sim.submit(&writer);
    assert!(w.upload_stall > SimTime::ZERO);
    assert!(w.submit >= r.frag_end);
    // The report records the same stall.
    let report = sim.finish();
    assert_eq!(report.frames[1].upload_stall, w.upload_stall);
}
