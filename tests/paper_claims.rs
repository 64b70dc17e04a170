//! The paper's qualitative evaluation claims as executable tests.
//!
//! Each test asserts a *shape* from §V — who wins, roughly by how much,
//! where crossovers fall — at the paper's full 1024×1024 size (the timing
//! model is analytic, so this is cheap).

use mgpu_bench::experiments::{fig1, fig3, fig4a, fig4b, fig5, vbo};
use mgpu_bench::setup::Protocol;
use mgpu_tbdr::Platform;

fn protocol() -> Protocol {
    Protocol {
        n: 1024,
        warmup: 10,
        iters: 40,
    }
}

#[test]
fn fig1_memory_movement_steps() {
    // Consecutive repeats (each texture upload is its own step-2 event)
    // fold into one, leaving the sequence of numbered operations.
    let steps = |events: &[mgpu_tbdr::TraceEvent]| {
        let mut steps: Vec<u8> = events.iter().map(|e| e.op.paper_step()).collect();
        steps.dedup();
        steps
    };
    for platform in Platform::paper_pair() {
        let r = fig1::run(&platform).expect("fig1");
        let name = &r.platform;
        assert_eq!(steps(&r.texture), [2, 5], "{name} texture rendering");
        assert_eq!(
            steps(&r.framebuffer),
            [2, 3, 4],
            "{name} framebuffer rendering"
        );
        // Disabling invalidation reloads the previous target contents.
        assert_eq!(
            steps(&r.framebuffer_no_invalidate),
            [2, 6, 3, 4],
            "{name} framebuffer rendering without invalidation"
        );
    }
}

#[test]
fn fig3_vsync_claims() {
    let p = protocol();

    // VideoCore: default interval is 60 Hz, so interval 0 skyrockets sum;
    // removing swap entirely reaches ~16x (the paper's headline).
    let vc = fig3::run(&Platform::videocore_iv(), &p).expect("fig3 VC");
    assert!(
        vc.sum.interval0 > 7.0 && vc.sum.interval0 < 11.0,
        "VC sum interval0 {} (paper 9.22)",
        vc.sum.interval0
    );
    assert!(
        vc.sum.no_swap > 14.0 && vc.sum.no_swap < 19.0,
        "VC sum noswap {} (paper 16.11)",
        vc.sum.no_swap
    );
    assert!(
        vc.sum.no_swap_fp24 >= vc.sum.no_swap,
        "fp24 must not regress the VC sum"
    );
    // sgemm is fragment-shading bound: vsync removal helps ~1.2x only.
    assert!(
        vc.sgemm.interval0 > 1.1 && vc.sgemm.interval0 < 1.4,
        "VC sgemm interval0 {} (paper 1.24)",
        vc.sgemm.interval0
    );
    assert!(
        vc.sgemm.no_swap_fp24 > vc.sgemm.interval0,
        "fp24 must further speed VC sgemm (paper 1.24 -> 1.48)"
    );

    // SGX: interval 0 has no effect (internal sync already much faster
    // than 60 Hz); removing swap gives ~3.5x from pipelining.
    let sgx = fig3::run(&Platform::sgx_545(), &p).expect("fig3 SGX");
    assert!(
        (sgx.sum.interval0 - 1.0).abs() < 0.1,
        "SGX sum interval0 {} should be ~1.0",
        sgx.sum.interval0
    );
    assert!(
        sgx.sum.no_swap > 2.5 && sgx.sum.no_swap < 4.0,
        "SGX sum noswap {} (paper 3.47)",
        sgx.sum.no_swap
    );
    assert!(
        sgx.sum.no_swap_fp24 / sgx.sum.no_swap > 1.05,
        "fp24 adds ~10% on SGX sum (paper 3.47 -> 3.85)"
    );
    assert!(
        (sgx.sgemm.interval0 - 1.0).abs() < 0.05 && (sgx.sgemm.no_swap - 1.0).abs() < 0.05,
        "SGX sgemm is kernel-bound: sync changes do nothing"
    );
    assert!(
        sgx.sgemm.no_swap_fp24 > 1.08 && sgx.sgemm.no_swap_fp24 < 1.2,
        "SGX sgemm fp24 {} (paper 1.13)",
        sgx.sgemm.no_swap_fp24
    );
}

#[test]
fn fig4a_rendering_target_claims() {
    let p = protocol();

    // SGX: for independent sum, texture rendering wins by ~3 orders of
    // magnitude (paper: 1/0.000447 = 2237x).
    let sgx = fig4a::run(&Platform::sgx_545(), &p).expect("fig4a SGX");
    let adv = sgx.sum.texture_advantage();
    assert!(
        adv > 500.0,
        "SGX sum texture advantage {adv} should be ~3 orders of magnitude"
    );
    // With artificial dependencies, texture still wins on SGX...
    assert!(sgx.sum_dependent.texture_advantage() > 1.0);
    // ...and multi-pass sgemm prefers the framebuffer.
    assert!(
        sgx.sgemm.texture_advantage() <= 1.001,
        "SGX sgemm should not lose with FB rendering: {}",
        sgx.sgemm.texture_advantage()
    );

    // VideoCore: texture rendering wins sum by about an order of
    // magnitude; the DMA engine makes the framebuffer win both the
    // dependent sum and sgemm.
    let vc = fig4a::run(&Platform::videocore_iv(), &p).expect("fig4a VC");
    let adv = vc.sum.texture_advantage();
    assert!(
        (4.0..20.0).contains(&adv),
        "VC sum texture advantage {adv} should be ~1 order of magnitude"
    );
    assert!(
        vc.sum_dependent.texture_advantage() < 1.0,
        "VC dependent sum should prefer the framebuffer (DMA)"
    );
    assert!(
        vc.sgemm.texture_advantage() < 1.0,
        "VC sgemm should prefer the framebuffer"
    );
}

#[test]
fn fig4b_blocking_claims() {
    let p = protocol();

    for platform in Platform::paper_pair() {
        let r = fig4b::run(&platform, &p).expect("fig4b");
        // Performance increases with block size under both targets.
        for pair in r.points.windows(2) {
            assert!(
                pair[1].texture <= pair[0].texture,
                "{}: texture time must fall with block size",
                platform.name
            );
            assert!(
                pair[1].framebuffer <= pair[0].framebuffer,
                "{}: framebuffer time must fall with block size",
                platform.name
            );
        }
        // Block 32 fails shader compilation on both platforms.
        assert!(
            r.block32_error.contains("limit"),
            "{}: block 32 must hit an implementation limit",
            platform.name
        );
    }

    // SGX: FB rendering deteriorates small blocks badly, then the copy
    // overlaps with computation once blocks are big enough.
    let sgx = fig4b::run(&Platform::sgx_545(), &p).expect("fig4b SGX");
    let ratio =
        |i: usize| sgx.points[i].framebuffer.as_secs_f64() / sgx.points[i].texture.as_secs_f64();
    assert!(ratio(0) > 3.0, "SGX block 1: FB much worse ({})", ratio(0));
    assert!(
        ratio(4) < 1.05,
        "SGX block 16: copy fully overlapped ({})",
        ratio(4)
    );
    assert!(
        ratio(0) > ratio(2) && ratio(2) > ratio(4),
        "SGX FB penalty must shrink with block size"
    );

    // VideoCore: DMA keeps the framebuffer ahead at every block size.
    let vc = fig4b::run(&Platform::videocore_iv(), &p).expect("fig4b VC");
    for pt in &vc.points {
        assert!(
            pt.framebuffer <= pt.texture,
            "VC block {}: FB must win (DMA)",
            pt.block
        );
    }
}

#[test]
fn fig5_texture_reuse_claims() {
    let p = protocol();

    // VideoCore, texture rendering: reuse of input textures gives ~15%.
    let vc = fig5::run(&Platform::videocore_iv(), &p).expect("fig5 VC");
    assert!(
        vc.sum_texture > 1.08 && vc.sum_texture < 1.25,
        "VC sum reuse speedup {} (paper ~1.15)",
        vc.sum_texture
    );
    // Framebuffer rendering: no improvement on VideoCore.
    assert!(
        (vc.sum_framebuffer - 1.0).abs() < 0.05 && (vc.sgemm_framebuffer - 1.0).abs() < 0.05,
        "VC FB reuse should be neutral"
    );

    // SGX: small degradation under texture rendering...
    let sgx = fig5::run(&Platform::sgx_545(), &p).expect("fig5 SGX");
    assert!(
        sgx.sum_texture > 0.88 && sgx.sum_texture < 1.0,
        "SGX sum reuse {} (paper -2..7%)",
        sgx.sum_texture
    );
    assert!(
        sgx.sgemm_texture > 0.9 && sgx.sgemm_texture < 1.0,
        "SGX sgemm reuse {} (paper -2..7%)",
        sgx.sgemm_texture
    );
    // ...and a serious drop for sgemm under FB rendering (false sharing).
    assert!(
        sgx.sgemm_framebuffer > 0.6 && sgx.sgemm_framebuffer < 0.85,
        "SGX sgemm FB reuse {} (paper ~0.70)",
        sgx.sgemm_framebuffer
    );
}

#[test]
fn vbo_hint_claims() {
    let p = protocol();
    for platform in Platform::paper_pair() {
        let r = vbo::run(&platform, &p).expect("vbo");
        for (name, s) in [
            ("static", r.static_draw),
            ("dynamic", r.dynamic_draw),
            ("stream", r.stream_draw),
        ] {
            assert!(
                (0.999..1.02).contains(&s),
                "{} {name}: VBO speedup {s} should be within the paper's 'up to 1.5%'",
                platform.name
            );
        }
        // Hints order sensibly: static <= stream <= dynamic cost.
        assert!(r.static_draw >= r.stream_draw);
        assert!(r.stream_draw >= r.dynamic_draw);
    }
}

#[test]
fn headline_claim_sixteen_x_over_baseline() {
    // "obtaining more than 16x speedup over benchmarks designed following
    // OpenGL ES 2 best practices" — realised by the VideoCore sum chain.
    let r = fig3::run(&Platform::videocore_iv(), &protocol()).expect("fig3");
    assert!(
        r.sum.no_swap_fp24 > 16.0,
        "combined optimisations reach {}x (paper: more than 16x)",
        r.sum.no_swap_fp24
    );
}
