//! Property suite for the per-context draw-plan cache.
//!
//! The cache invalidates *by keying*: every input a plan captures is part
//! of its key, so mutating any of them (uniforms, shader, engine, target
//! geometry, varying corners) must produce a miss, while draws that only
//! change non-captured state (texture contents, row bands, which of two
//! programs linked from one source draws) must hit and still render
//! correctly. The shader enters the key as the id the context's shader
//! memo assigned at link time, so the memo's contract — faults before
//! lookups, bounded FIFO, ids never reused — is pinned here too. A
//! scripted mutation sequence is replayed under cache-on, cache-off and
//! legacy-dispatch configurations and must be byte-identical throughout,
//! with the simulated-time report unchanged.

use mgpu_gles::raster::texcoord_corners;
use mgpu_gles::{
    DrawQuad, Engine, ExecConfig, FaultEvent, FaultKind, FaultPlan, FaultSite, Gl, GlError,
    TextureFormat,
};
use mgpu_shader::OptOptions;
use mgpu_tbdr::Platform;

const SCALE_PROG: &str = "
    uniform float u_k;
    varying vec2 v_coord;
    void main() { gl_FragColor = vec4(v_coord.x * u_k, v_coord.y, u_k, 1.0); }
";

const SAMPLE_PROG: &str = "
    uniform sampler2D u_t;
    varying vec2 v_coord;
    void main() { gl_FragColor = texture2D(u_t, v_coord); }
";

/// A pooled, plan-cached 8×8 context at 2 threads.
fn cached_gl() -> Gl {
    let mut gl = Gl::new(Platform::videocore_iv(), 8, 8);
    gl.set_exec_config(ExecConfig::with_threads(2).with_pool(true));
    gl.set_plan_cache_enabled(true);
    gl
}

fn draw(gl: &mut Gl) -> Vec<u8> {
    gl.clear([0.0; 4]).expect("clear");
    gl.draw_quad(&DrawQuad::fullscreen()).expect("draw");
    gl.read_pixels().expect("read")
}

#[test]
fn repeat_draws_hit_and_uniform_changes_rekey() {
    let mut gl = cached_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");

    let first = draw(&mut gl);
    let second = draw(&mut gl);
    let third = draw(&mut gl);
    assert_eq!(first, second);
    assert_eq!(first, third);
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.entries), (1, 2, 1));

    // A uniform change re-keys: miss, new entry alongside the old one.
    gl.set_uniform_scalar(prog, "u_k", 0.5).expect("sets");
    let halved = draw(&mut gl);
    assert_ne!(halved, first);
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.entries), (2, 2, 2));

    // Restoring the uniform hits the original, still-cached plan.
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    assert_eq!(draw(&mut gl), first);
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.entries), (2, 3, 2));
}

#[test]
fn twin_programs_share_plans_while_source_and_options_rekey() {
    let mut gl = cached_gl();
    let a = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(a)).expect("uses");
    gl.set_uniform_scalar(a, "u_k", 1.0).expect("sets");
    let via_a = draw(&mut gl);

    // A second program linked from the *same source* gets the memoised
    // shader id, so with equal uniforms it hits `a`'s plan.
    let twin = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(twin)).expect("uses");
    gl.set_uniform_scalar(twin, "u_k", 1.0).expect("sets");
    assert_eq!(draw(&mut gl), via_a);
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.entries), (1, 1, 1));

    // The same source under other optimiser options is another
    // compilation: a miss, drawing the same bytes.
    let unfused = gl
        .create_program_with(SCALE_PROG, &OptOptions::without_mad_fusion())
        .expect("compiles");
    gl.use_program(Some(unfused)).expect("uses");
    gl.set_uniform_scalar(unfused, "u_k", 1.0).expect("sets");
    assert_eq!(draw(&mut gl), via_a);
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.entries), (2, 1, 2));

    // Different source ⇒ different shader id ⇒ miss, and the draw
    // reflects the new program immediately.
    let other = gl
        .create_program("varying vec2 v_coord;\nvoid main() { gl_FragColor = vec4(1.0); }")
        .expect("compiles");
    gl.use_program(Some(other)).expect("uses");
    let white = draw(&mut gl);
    assert!(white.iter().all(|&b| b == 255));
    assert_eq!(gl.plan_cache_stats().misses, 3);
}

/// The compile-fault hook runs before the memo lookup: an injected
/// `compile@N` fails that link even when the memo holds the source, and
/// the fault trail reads exactly as it would without the memo.
#[test]
fn injected_compile_fault_fires_on_a_memo_hit() {
    let mut gl = cached_gl();
    gl.install_faults(FaultPlan::seeded(7).compile_fail_at(1));
    let first = gl.create_program(SCALE_PROG).expect("compile #0 links");
    let err = gl
        .create_program(SCALE_PROG)
        .expect_err("compile #1 is injected despite the memo hit");
    assert!(matches!(err, GlError::OutOfMemory(_)), "{err}");
    let retried = gl.create_program(SCALE_PROG).expect("compile #2 links");
    assert_eq!(
        gl.fault_trail(),
        &[FaultEvent {
            kind: FaultKind::CompileFail,
            site: FaultSite::Compile,
            index: 1,
        }]
    );

    // The retried link is a memo hit: it shares the first program's plan.
    for prog in [first, retried] {
        gl.use_program(Some(prog)).expect("uses");
        gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
        draw(&mut gl);
    }
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits), (1, 1));
}

/// The memo holds the 64 newest compilations. A source it evicted
/// relinks under a fresh shader id, so its old plan — still cached — is
/// never served; sources still memoised keep their id and hit.
#[test]
fn memo_eviction_relinks_under_a_fresh_id() {
    const MEMO_CAP: usize = 64;
    let source = |k: usize| {
        format!(
            "varying vec2 v_coord;\n\
             void main() {{ gl_FragColor = vec4(v_coord, {k}.0 / 255.0, 1.0); }}"
        )
    };
    let link_and_draw = |gl: &mut Gl, k: usize| {
        let prog = gl.create_program(&source(k)).expect("compiles");
        gl.use_program(Some(prog)).expect("uses");
        draw(gl)
    };
    let mut gl = cached_gl();
    let cap = MEMO_CAP as u64;

    // One more distinct source than the memo holds evicts source 0.
    let first: Vec<Vec<u8>> = (0..=MEMO_CAP).map(|k| link_and_draw(&mut gl, k)).collect();
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.entries), (cap + 1, 0, MEMO_CAP + 1));

    // Sources 1..=64 are still memoised: relinking them hits their plans.
    for (k, want) in first.iter().enumerate().skip(1) {
        assert_eq!(&link_and_draw(&mut gl, k), want);
    }
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits), (cap + 1, cap));

    // Source 0 recompiles under a fresh id: a miss beside its old plan.
    assert_eq!(link_and_draw(&mut gl, 0), first[0]);
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.entries), (cap + 2, cap, MEMO_CAP + 2));
}

/// With tile skip on, two programs linked from one source share a plan
/// but not tiles: whether a draw's tiles replay (which changes simulated
/// time) depends only on its own program's earlier draws.
#[test]
fn twin_programs_keep_separate_tile_entries() {
    // SGX tiles are 16×16, so a 32×32 draw covers four.
    let mut gl = Gl::new(Platform::sgx_545(), 32, 32);
    gl.set_exec_config(
        ExecConfig::with_threads(2)
            .with_pool(true)
            .with_tile_skip(true),
    );
    gl.set_plan_cache_enabled(true);
    let mut shots = Vec::new();
    for _ in 0..2 {
        let prog = gl.create_program(SCALE_PROG).expect("compiles");
        gl.use_program(Some(prog)).expect("uses");
        gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
        shots.push(draw(&mut gl));
    }
    assert_eq!(shots[0], shots[1]);
    let t = gl.tile_skip_stats();
    assert_eq!((t.hits, t.misses, t.entries), (0, 8, 8));
    let p = gl.plan_cache_stats();
    assert_eq!((p.misses, p.hits), (1, 1));
}

#[test]
fn engine_target_and_corners_each_rekey() {
    let mut gl = cached_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    let golden = draw(&mut gl);

    // Engine tier is part of the key; output must not change. (The
    // golden draw above ran on the default batched tier, so scalar and
    // compiled each add a fresh miss.)
    gl.set_exec_config(
        ExecConfig::with_threads(2)
            .with_pool(true)
            .with_engine(Engine::Scalar),
    );
    assert_eq!(draw(&mut gl), golden);
    gl.set_exec_config(
        ExecConfig::with_threads(2)
            .with_pool(true)
            .with_engine(Engine::Compiled),
    );
    assert_eq!(draw(&mut gl), golden);
    let after_engines = gl.plan_cache_stats();
    assert!(after_engines.misses >= 3, "engine change must re-key");

    // Target geometry: rendering into a 4×4 FBO texture re-keys.
    let tex = gl.create_texture();
    gl.tex_image_2d(tex, 4, 4, TextureFormat::Rgba8, None)
        .expect("allocates");
    let fbo = gl.create_framebuffer();
    gl.bind_framebuffer(Some(fbo)).expect("binds");
    gl.framebuffer_texture_2d(tex).expect("attaches");
    gl.draw_quad(&DrawQuad::fullscreen()).expect("draws");
    let misses_after_fbo = gl.plan_cache_stats().misses;
    assert!(
        misses_after_fbo > after_engines.misses,
        "target dims must re-key"
    );
    gl.bind_framebuffer(None).expect("unbinds");

    // Varying-corner overrides re-key by content hash.
    let mut corners = texcoord_corners();
    corners[3][0] = 0.25;
    gl.clear([0.0; 4]).expect("clears");
    gl.draw_quad(&DrawQuad::fullscreen().with_varying("v_coord", corners))
        .expect("draws");
    assert!(
        gl.plan_cache_stats().misses > misses_after_fbo,
        "corners must re-key"
    );
}

#[test]
fn band_draws_reuse_the_fullscreen_plan() {
    let mut gl = cached_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    let full = draw(&mut gl);

    // Plans are band-agnostic: re-rendering the surface as two row bands
    // hits the cached fullscreen plan and reassembles identical bytes.
    gl.clear([0.0; 4]).expect("clears");
    gl.draw_quad(&DrawQuad::fullscreen().with_row_band(0, 3))
        .expect("draws");
    gl.draw_quad(&DrawQuad::fullscreen().with_row_band(3, 8))
        .expect("draws");
    assert_eq!(gl.read_pixels().expect("reads"), full);
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits), (1, 2));
}

#[test]
fn texture_respec_serves_fresh_texels_from_a_warm_plan() {
    let mut gl = cached_gl();
    let prog = gl.create_program(SAMPLE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_sampler(prog, "u_t", 0).expect("binds sampler");
    let tex = gl.create_texture();
    gl.tex_image_2d(tex, 8, 8, TextureFormat::Rgba8, Some(&[10u8; 8 * 8 * 4]))
        .expect("uploads");
    gl.bind_texture(0, Some(tex)).expect("binds");

    let dim = draw(&mut gl);
    assert!(dim.iter().all(|&b| b == 10));

    // Respecify the texture's contents: plans cache no texel data, so the
    // warm plan must sample the new bytes.
    gl.tex_image_2d(tex, 8, 8, TextureFormat::Rgba8, Some(&[200u8; 8 * 8 * 4]))
        .expect("respecs");
    let bright = draw(&mut gl);
    assert!(bright.iter().all(|&b| b == 200));
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits), (1, 1), "respec must not re-key");
}

#[test]
fn recreate_drops_every_plan() {
    let mut gl = cached_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    let before = draw(&mut gl);
    assert_eq!(gl.plan_cache_stats().entries, 1);

    gl.recreate();
    assert_eq!(gl.plan_cache_stats().entries, 0, "recreate clears plans");

    // Rebuild the world, as a resilient runner would; the first draw is a
    // miss (fresh handle, fresh cache) but renders identically.
    let prog = gl.create_program(SCALE_PROG).expect("recompiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    assert_eq!(draw(&mut gl), before);
    assert_eq!(gl.plan_cache_stats().entries, 1);
}

#[test]
fn disabling_the_cache_mid_stream_is_transparent() {
    let mut gl = cached_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    let golden = draw(&mut gl);

    gl.set_plan_cache_enabled(false);
    assert_eq!(gl.plan_cache_stats().entries, 0);
    assert_eq!(draw(&mut gl), golden);

    gl.set_plan_cache_enabled(true);
    assert_eq!(draw(&mut gl), golden);
}

/// Regression-pins the exact counter arithmetic at the FIFO capacity
/// boundary (cap = 128) under scripted uniform churn. Every number here
/// is load-bearing: a change to hit accounting, eviction order or the
/// stale-entry skip (a reinserted plan must be evicted on its *newest*
/// queue position, not its stale one) shows up as an exact-counter
/// mismatch, not a flaky threshold.
#[test]
fn churn_at_the_capacity_boundary_has_exact_counters() {
    let mut gl = cached_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    let set_and_draw = |gl: &mut Gl, k: u32| {
        gl.set_uniform_scalar(prog, "u_k", k as f32).expect("sets");
        draw(gl);
    };

    // Fill to exactly the 128-plan capacity: all misses, no eviction.
    for k in 0..128 {
        set_and_draw(&mut gl, k);
    }
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.evictions, s.entries), (128, 0, 0, 128));

    // A full warm sweep at capacity: all hits, and every hit refreshes
    // the plan's queue position (take + reinsert).
    for k in 0..128 {
        set_and_draw(&mut gl, k);
    }
    let s = gl.plan_cache_stats();
    assert_eq!(
        (s.misses, s.hits, s.evictions, s.entries),
        (128, 128, 0, 128)
    );

    // The 129th distinct key evicts exactly one plan — the least recently
    // refreshed (key 0), not the stale front-of-queue entries.
    set_and_draw(&mut gl, 128);
    let s = gl.plan_cache_stats();
    assert_eq!(
        (s.misses, s.hits, s.evictions, s.entries),
        (129, 128, 1, 128)
    );

    // Key 0 was the victim: re-drawing it misses and evicts key 1.
    set_and_draw(&mut gl, 0);
    let s = gl.plan_cache_stats();
    assert_eq!(
        (s.misses, s.hits, s.evictions, s.entries),
        (130, 128, 2, 128)
    );

    // Key 2 survived and its hit refreshes it past the next eviction.
    set_and_draw(&mut gl, 2);
    let s = gl.plan_cache_stats();
    assert_eq!(
        (s.misses, s.hits, s.evictions, s.entries),
        (130, 129, 2, 128)
    );

    // Key 1 (evicted above) misses; the victim must be key 3 — key 2's
    // refresh protected it even though its stale entry sits further
    // forward in the queue.
    set_and_draw(&mut gl, 1);
    let s = gl.plan_cache_stats();
    assert_eq!(
        (s.misses, s.hits, s.evictions, s.entries),
        (131, 129, 3, 128)
    );

    // Proof of the victim's identity: key 2 still hits, key 3 misses.
    set_and_draw(&mut gl, 2);
    let s = gl.plan_cache_stats();
    assert_eq!((s.misses, s.hits), (131, 130), "key 2 must have survived");
    set_and_draw(&mut gl, 3);
    let s = gl.plan_cache_stats();
    assert_eq!(
        (s.misses, s.hits, s.evictions, s.entries),
        (132, 130, 4, 128)
    );
}

/// Replays one scripted mutation sequence and returns the pixel snapshot
/// after every draw plus the final simulation report.
fn run_script(
    platform: &Platform,
    engine: Engine,
    pool: bool,
    cache: bool,
) -> (Vec<Vec<u8>>, mgpu_tbdr::SimReport) {
    let mut gl = Gl::new(platform.clone(), 8, 8);
    gl.set_exec_config(
        ExecConfig::with_threads(3)
            .with_engine(engine)
            .with_pool(pool),
    );
    gl.set_plan_cache_enabled(cache);
    let mut shots = Vec::new();

    let scale = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(scale)).expect("uses");
    gl.set_uniform_scalar(scale, "u_k", 1.0).expect("sets");
    shots.push(draw(&mut gl));
    shots.push(draw(&mut gl)); // warm repeat
    gl.set_uniform_scalar(scale, "u_k", 0.25).expect("sets");
    shots.push(draw(&mut gl)); // re-keyed
    gl.set_uniform_scalar(scale, "u_k", 1.0).expect("sets");
    shots.push(draw(&mut gl)); // warm again

    let sample = gl.create_program(SAMPLE_PROG).expect("compiles");
    gl.use_program(Some(sample)).expect("uses");
    gl.set_sampler(sample, "u_t", 0).expect("samplers");
    let tex = gl.create_texture();
    let ramp: Vec<u8> = (0..8 * 8 * 4).map(|i| (i % 251) as u8).collect();
    gl.tex_image_2d(tex, 8, 8, TextureFormat::Rgba8, Some(&ramp))
        .expect("uploads");
    gl.bind_texture(0, Some(tex)).expect("binds");
    shots.push(draw(&mut gl));
    let inv: Vec<u8> = ramp.iter().map(|&b| 255 - b).collect();
    gl.tex_image_2d(tex, 8, 8, TextureFormat::Rgba8, Some(&inv))
        .expect("respecs");
    shots.push(draw(&mut gl)); // warm plan, fresh texels

    gl.use_program(Some(scale)).expect("uses");
    gl.clear([0.0; 4]).expect("clears");
    gl.draw_quad(&DrawQuad::fullscreen().with_row_band(0, 5))
        .expect("bands");
    gl.draw_quad(&DrawQuad::fullscreen().with_row_band(5, 8))
        .expect("bands");
    shots.push(gl.read_pixels().expect("reads"));

    gl.recreate();
    let scale = gl.create_program(SCALE_PROG).expect("recompiles");
    gl.use_program(Some(scale)).expect("uses");
    gl.set_uniform_scalar(scale, "u_k", 1.0).expect("sets");
    shots.push(draw(&mut gl));

    gl.finish();
    (shots, gl.report())
}

/// The headline property: for every platform × engine, the cached pooled
/// dispatcher replays the whole mutation script byte-for-byte like the
/// uncached pooled path *and* the legacy scope-spawn path, with identical
/// simulated-time reports.
#[test]
fn cache_is_invisible_across_the_mutation_script() {
    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        for engine in [Engine::Scalar, Engine::Batched, Engine::Compiled] {
            let legacy = run_script(&platform, engine, false, false);
            let pooled = run_script(&platform, engine, true, false);
            let cached = run_script(&platform, engine, true, true);
            assert_eq!(
                pooled, legacy,
                "pooled dispatch diverged ({engine:?} on {})",
                platform.name
            );
            assert_eq!(
                cached, legacy,
                "plan cache changed output ({engine:?} on {})",
                platform.name
            );
        }
    }
}
