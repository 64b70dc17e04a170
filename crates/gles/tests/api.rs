//! Behavioural tests of the GL state machine: GLES error semantics,
//! functional rendering, and the timing side effects of each API choice.

use mgpu_gles::{BufferUsage, DrawQuad, FaultPlan, Gl, GlError, TextureFormat, VertexSource};
use mgpu_tbdr::{Platform, SimTime, SyncOp};

fn gl(width: u32, height: u32) -> Gl {
    Gl::new(Platform::videocore_iv(), width, height)
}

const COPY_PROG: &str = "
    uniform sampler2D u_src;
    varying vec2 v_coord;
    void main() { gl_FragColor = texture2D(u_src, v_coord); }
";

const COORD_PROG: &str = "
    varying vec2 v_coord;
    void main() { gl_FragColor = vec4(v_coord, 0.0, 1.0); }
";

const ZERO_PROG: &str = "
    void main() { gl_FragColor = vec4(0.0); }
";

#[test]
fn draw_without_program_is_invalid_operation() {
    let mut gl = gl(16, 16);
    let err = gl.draw_quad(&DrawQuad::fullscreen()).unwrap_err();
    assert!(matches!(err, GlError::InvalidOperation(_)));
}

#[test]
fn texture_copy_kernel_round_trips_pixels() {
    let mut gl = gl(8, 8);
    let prog = gl.create_program(COPY_PROG).unwrap();
    let src = gl.create_texture();
    let data: Vec<u8> = (0..8 * 8 * 4).map(|i| (i % 251) as u8).collect();
    gl.tex_image_2d(src, 8, 8, TextureFormat::Rgba8, Some(&data))
        .unwrap();
    gl.bind_texture(0, Some(src)).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    let out = gl.read_pixels().unwrap();
    assert_eq!(out, data);
}

#[test]
fn feedback_loop_is_rejected() {
    let mut gl = gl(8, 8);
    let prog = gl.create_program(COPY_PROG).unwrap();
    let tex = gl.create_texture();
    gl.tex_image_2d(tex, 8, 8, TextureFormat::Rgba8, None)
        .unwrap();
    // Bind the same texture as both input and render target.
    gl.bind_texture(0, Some(tex)).unwrap();
    let fbo = gl.create_framebuffer();
    gl.bind_framebuffer(Some(fbo)).unwrap();
    gl.framebuffer_texture_2d(tex).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    let err = gl.draw_quad(&DrawQuad::fullscreen()).unwrap_err();
    assert!(matches!(err, GlError::InvalidOperation(_)), "{err}");
    assert!(err.to_string().contains("feedback"));
}

#[test]
fn render_to_texture_then_sample_works_with_two_textures() {
    let mut gl = gl(4, 4);
    let prog = gl.create_program(COORD_PROG).unwrap();
    let rtt = gl.create_texture();
    gl.tex_image_2d(rtt, 4, 4, TextureFormat::Rgba8, None)
        .unwrap();
    let fbo = gl.create_framebuffer();
    gl.bind_framebuffer(Some(fbo)).unwrap();
    gl.framebuffer_texture_2d(rtt).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();

    // Second pass samples the texture rendered by the first.
    let copy = gl.create_program(COPY_PROG).unwrap();
    let out_tex = gl.create_texture();
    gl.tex_image_2d(out_tex, 4, 4, TextureFormat::Rgba8, None)
        .unwrap();
    gl.framebuffer_texture_2d(out_tex).unwrap();
    gl.bind_texture(0, Some(rtt)).unwrap();
    gl.use_program(Some(copy)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    let out = gl.read_pixels().unwrap();
    // Fragment (0,0) of a 4x4 grid has coords (0.125, 0.125) -> 32/255.
    assert_eq!(out[0], 32);
    assert_eq!(out[1], 32);
    assert_eq!(out[3], 255);
}

#[test]
fn copy_tex_image_copies_framebuffer_contents() {
    let mut gl = gl(4, 4);
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    let dst = gl.create_texture();
    gl.copy_tex_image_2d(dst, TextureFormat::Rgba8).unwrap();
    gl.finish();
    let fb = gl.read_pixels().unwrap();
    assert_eq!(gl.texture_data(dst).unwrap(), fb.as_slice());
}

#[test]
fn copy_tex_sub_image_requires_allocated_matching_storage() {
    let mut gl = gl(4, 4);
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();

    let dst = gl.create_texture();
    // No storage yet: must fail.
    assert!(matches!(
        gl.copy_tex_sub_image_2d(dst).unwrap_err(),
        GlError::InvalidOperation(_)
    ));
    // Wrong size: must fail.
    gl.tex_image_2d(dst, 2, 2, TextureFormat::Rgba8, None)
        .unwrap();
    assert!(matches!(
        gl.copy_tex_sub_image_2d(dst).unwrap_err(),
        GlError::InvalidOperation(_)
    ));
    // Right size: succeeds.
    gl.tex_image_2d(dst, 4, 4, TextureFormat::Rgba8, None)
        .unwrap();
    gl.copy_tex_sub_image_2d(dst).unwrap();
}

#[test]
fn rgb8_target_stores_three_bytes_per_texel() {
    let mut gl = gl(4, 4);
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    let dst = gl.create_texture();
    gl.copy_tex_image_2d(dst, TextureFormat::Rgb8).unwrap();
    gl.finish();
    assert_eq!(gl.texture_data(dst).unwrap().len(), 4 * 4 * 3);
    let (w, h, fmt) = gl.texture_info(dst).unwrap();
    assert_eq!((w, h, fmt), (4, 4, TextureFormat::Rgb8));
}

#[test]
fn shader_limit_failure_surfaces_as_compile_error() {
    // Block-32-style kernel: 64 fetches exceeds both platforms' limits.
    let mut src =
        String::from("uniform sampler2D t;\nvarying vec2 v;\nvoid main() {\n  float acc = 0.0;\n");
    src.push_str(
        "  for (float i = 0.0; i < 64.0; i += 1.0) {\n\
         \x20   acc += texture2D(t, vec2(i / 64.0, v.y)).x;\n\
         \x20   acc += texture2D(t, vec2(v.x, i / 64.0)).x;\n\
         \x20 }\n  gl_FragColor = vec4(acc);\n}\n",
    );
    let mut gl = gl(4, 4);
    let err = gl.create_program(&src).unwrap_err();
    assert!(err.is_shader_limit(), "{err}");
}

#[test]
fn swap_buffers_waits_for_vsync_and_interval_zero_does_not() {
    let platform = Platform::videocore_iv();

    let measure = |interval: u32| {
        let mut gl = Gl::new(platform.clone(), 64, 64);
        let prog = gl.create_program(COORD_PROG).unwrap();
        gl.use_program(Some(prog)).unwrap();
        gl.swap_interval(interval);
        for _ in 0..20 {
            gl.clear([0.0; 4]).unwrap();
            gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
            gl.swap_buffers().unwrap();
        }
        gl.elapsed()
    };

    let vsync = measure(1);
    let free = measure(0);
    // 20 frames at 60 Hz is at least 19 refresh periods.
    assert!(vsync >= SimTime::from_millis(19 * 16));
    assert!(free < vsync / 4);
}

#[test]
fn no_swap_pipelines_faster_than_finish() {
    let platform = Platform::sgx_545();
    let run = |finish_each: bool| {
        let mut gl = Gl::new(platform.clone(), 256, 256);
        gl.set_functional(false);
        let prog = gl.create_program(COORD_PROG).unwrap();
        gl.use_program(Some(prog)).unwrap();
        for _ in 0..50 {
            gl.clear([0.0; 4]).unwrap();
            gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
            if finish_each {
                gl.finish();
            }
        }
        gl.finish();
        gl.elapsed()
    };
    let serial = run(true);
    let pipelined = run(false);
    assert!(
        pipelined < serial,
        "pipelined {pipelined} should beat serial {serial}"
    );
}

#[test]
fn clear_skips_the_preserve_reload() {
    let platform = Platform::sgx_545();
    let run = |clear_each: bool| {
        let mut gl = Gl::new(platform.clone(), 512, 512);
        gl.set_functional(false);
        let prog = gl.create_program(COORD_PROG).unwrap();
        gl.use_program(Some(prog)).unwrap();
        for _ in 0..10 {
            if clear_each {
                gl.discard_framebuffer().unwrap();
            }
            gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
            gl.finish();
        }
        gl.elapsed()
    };
    let cleared = run(true);
    let preserved = run(false);
    assert!(
        cleared < preserved,
        "cleared {cleared} should beat preserved {preserved}"
    );
}

#[test]
fn tex_sub_image_reuse_vs_fresh_alloc_tradeoff_is_visible() {
    // On VideoCore (expensive allocation, no reuse stall) reuse must win.
    let run = |platform: &Platform, reuse: bool| {
        let mut gl = Gl::new(platform.clone(), 128, 128);
        gl.set_functional(false);
        let prog = gl.create_program(COPY_PROG).unwrap();
        let tex = gl.create_texture();
        let data = vec![0u8; 128 * 128 * 4];
        gl.tex_image_2d(tex, 128, 128, TextureFormat::Rgba8, Some(&data))
            .unwrap();
        gl.bind_texture(0, Some(tex)).unwrap();
        gl.use_program(Some(prog)).unwrap();
        for _ in 0..30 {
            if reuse {
                gl.tex_sub_image_2d(tex, &data).unwrap();
            } else {
                gl.tex_image_2d(tex, 128, 128, TextureFormat::Rgba8, Some(&data))
                    .unwrap();
            }
            gl.clear([0.0; 4]).unwrap();
            gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
        }
        gl.finish();
        gl.elapsed()
    };
    let vc = Platform::videocore_iv();
    assert!(run(&vc, true) < run(&vc, false));
}

#[test]
fn vbo_draws_cost_no_more_than_client_arrays() {
    let platform = Platform::videocore_iv();
    let run = |source: VertexSource| {
        let mut gl = Gl::new(platform.clone(), 64, 64);
        gl.set_functional(false);
        let prog = gl.create_program(COORD_PROG).unwrap();
        gl.use_program(Some(prog)).unwrap();
        let quad = DrawQuad::fullscreen().with_vertex_source(source);
        for _ in 0..50 {
            gl.clear([0.0; 4]).unwrap();
            gl.draw_quad(&quad).unwrap();
            gl.finish();
        }
        gl.elapsed()
    };
    let mut setup = Gl::new(platform.clone(), 64, 64);
    let vbo = setup.create_buffer();
    setup.buffer_data(vbo, 96, BufferUsage::StaticDraw).unwrap();

    // Recreate in each run's context: buffers are per-context, so create
    // the VBO inside the closure instead.
    let run_vbo = |usage: BufferUsage| {
        let mut gl = Gl::new(platform.clone(), 64, 64);
        gl.set_functional(false);
        let prog = gl.create_program(COORD_PROG).unwrap();
        gl.use_program(Some(prog)).unwrap();
        let vbo = gl.create_buffer();
        gl.buffer_data(vbo, 96, usage).unwrap();
        let quad = DrawQuad::fullscreen().with_vertex_source(VertexSource::Vbo(vbo));
        for _ in 0..50 {
            gl.clear([0.0; 4]).unwrap();
            gl.draw_quad(&quad).unwrap();
            gl.finish();
        }
        gl.elapsed()
    };

    let client = run(VertexSource::ClientArrays);
    let static_vbo = run_vbo(BufferUsage::StaticDraw);
    let dynamic_vbo = run_vbo(BufferUsage::DynamicDraw);
    assert!(static_vbo < client);
    assert!(static_vbo <= dynamic_vbo);
}

#[test]
fn uniforms_affect_rendering() {
    let mut gl = gl(2, 2);
    let prog = gl
        .create_program("uniform float u_v;\n void main() { gl_FragColor = vec4(u_v); }")
        .unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.set_uniform_scalar(prog, "u_v", 1.0).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    assert_eq!(gl.read_pixels().unwrap()[0], 255);

    gl.set_uniform_scalar(prog, "u_v", 0.0).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    assert_eq!(gl.read_pixels().unwrap()[0], 0);

    assert!(gl.set_uniform_scalar(prog, "nope", 1.0).is_err());
}

#[test]
fn custom_varying_corners_change_interpolation() {
    let mut gl = gl(2, 2);
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    // Constant varying: all corners the same value.
    let quad = DrawQuad::fullscreen().with_varying("v_coord", [[0.5, 0.5, 0.0, 0.0]; 4]);
    gl.draw_quad(&quad).unwrap();
    let px = gl.read_pixels().unwrap();
    for p in px.chunks_exact(4) {
        assert_eq!(p[0], 128);
        assert_eq!(p[1], 128);
    }
}

#[test]
fn unknown_varying_override_is_rejected() {
    let mut gl = gl(2, 2);
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    let quad = DrawQuad::fullscreen().with_varying("ghost", [[0.0; 4]; 4]);
    assert!(matches!(
        gl.draw_quad(&quad).unwrap_err(),
        GlError::InvalidValue(_)
    ));
}

#[test]
fn frame_timings_are_recorded_per_draw() {
    let mut gl = gl(8, 8);
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    for _ in 0..3 {
        gl.clear([0.0; 4]).unwrap();
        gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    }
    gl.finish();
    let report = gl.report();
    assert_eq!(report.frames.len(), 3);
    assert!(report.frames[0].label.starts_with("draw#"));
    assert_eq!(report.frames[2].next_cpu_free, report.total_time);
}

#[test]
fn sync_only_swap_still_costs_a_vsync_wait() {
    let mut gl = gl(8, 8);
    gl.swap_interval(1);
    gl.swap_buffers().unwrap();
    let t = gl.last_frame_timing().unwrap();
    assert_eq!(t.label, "sync-only");
    let report = gl.report();
    assert_eq!(report.frames.len(), 1);
}

#[test]
fn deleted_texture_unbinds_and_errors() {
    let mut gl = gl(4, 4);
    let tex = gl.create_texture();
    gl.tex_image_2d(tex, 4, 4, TextureFormat::Rgba8, None)
        .unwrap();
    gl.bind_texture(0, Some(tex)).unwrap();
    gl.delete_texture(tex).unwrap();
    assert!(gl.delete_texture(tex).is_err());
    assert!(gl.texture_data(tex).is_err());
    // Unit 0 no longer has the texture: a sampling draw must fail.
    let prog = gl.create_program(COPY_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    assert!(gl.draw_quad(&DrawQuad::fullscreen()).is_err());
}

#[test]
fn non_functional_mode_matches_functional_timing() {
    let run = |functional: bool| {
        let mut gl = gl(32, 32);
        gl.set_functional(functional);
        let prog = gl.create_program(COORD_PROG).unwrap();
        gl.use_program(Some(prog)).unwrap();
        for _ in 0..5 {
            gl.clear([0.0; 4]).unwrap();
            gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
        }
        gl.finish();
        gl.elapsed()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn empty_sync_op_variants_cover_gl_finish_and_flush() {
    let mut gl = gl(8, 8);
    gl.flush(); // nothing pending: no frame submitted
    assert_eq!(gl.report().frames.len(), 0);
    gl.finish(); // a finish with nothing pending still syncs
    assert_eq!(gl.report().frames.len(), 1);
    assert_eq!(gl.report().frames[0].label, "sync-only");
    let _ = SyncOp::Finish; // silence unused-import style drift
}

#[test]
fn a_fresh_surface_reads_as_zeros() {
    let mut gl = gl(8, 4);
    assert_eq!(gl.surface_size(), (8, 4));
    assert_eq!(gl.read_pixels().unwrap(), vec![0u8; 8 * 4 * 4]);
}

#[test]
fn recreate_zeroes_a_drawn_surface() {
    let mut gl = gl(8, 8);
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([1.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    assert!(gl.read_pixels().unwrap().iter().any(|&b| b != 0));
    gl.recreate();
    assert_eq!(gl.read_pixels().unwrap(), vec![0u8; 8 * 8 * 4]);
}

/// Corruption of a window-surface target is drawn from the surface's
/// dimensions, whether or not the surface has been allocated: a
/// timing-only context records the same fault trail as a functional one,
/// and reads back the same flipped bytes it always has (both pinned).
#[test]
fn surface_corruption_is_the_same_without_functional_execution() {
    let run = |functional: bool| {
        let mut gl = gl(16, 16);
        gl.set_functional(functional);
        gl.install_faults(FaultPlan::parse("seed=11,corrupt@1,corrupt@4,p_corrupt=0.3").unwrap());
        let prog = gl.create_program(ZERO_PROG).unwrap();
        gl.use_program(Some(prog)).unwrap();
        for _ in 0..8 {
            gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
        }
        let trail: Vec<String> = gl.fault_trail().iter().map(ToString::to_string).collect();
        (trail, gl.read_pixels().unwrap())
    };
    let (trail, pixels) = run(false);
    assert_eq!(
        trail,
        [
            "corruption@draw#1",
            "corruption@draw#4",
            "corruption@draw#6"
        ]
    );
    assert_eq!(run(true).0, trail);
    // Nothing shades a timing-only surface, so all three draws' flips
    // accumulate on zeros.
    let flipped: Vec<(usize, u8)> = pixels
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, b)| b != 0)
        .collect();
    assert_eq!(
        flipped,
        [
            (45, 2),
            (95, 32),
            (138, 4),
            (205, 8),
            (215, 64),
            (336, 32),
            (435, 4),
            (560, 4),
            (676, 64),
            (694, 128),
            (744, 4),
            (827, 2),
            (1004, 128),
            (1015, 8)
        ]
    );
}
