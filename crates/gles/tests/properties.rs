//! Property test: the GL state machine survives arbitrary sequences of
//! valid-ish API calls without panicking, corrupting state, or breaking
//! timing monotonicity. Errors are allowed; crashes and inconsistent
//! state are not.

use mgpu_gles::{BufferUsage, DrawQuad, Gl, TextureFormat, VertexSource};
use mgpu_prop::{run_cases, Rng};
use mgpu_tbdr::{Platform, SimTime};

/// One API call in the generated sequence.
#[derive(Debug, Clone)]
enum Call {
    CreateTexture,
    TexImage {
        tex: usize,
        size: u8,
        rgb: bool,
        with_data: bool,
    },
    TexSubImage {
        tex: usize,
    },
    BindTexture {
        unit: u8,
        tex: usize,
    },
    DeleteTexture {
        tex: usize,
    },
    CreateFramebuffer,
    BindFramebuffer {
        fbo: Option<usize>,
    },
    AttachTexture {
        tex: usize,
    },
    CreateBuffer,
    BufferData {
        buf: usize,
        usage: u8,
    },
    Clear,
    Discard,
    Draw {
        vbo: Option<usize>,
    },
    CopyTexImage {
        tex: usize,
    },
    CopyTexSubImage {
        tex: usize,
    },
    SwapBuffers,
    SwapInterval {
        interval: u8,
    },
    Finish,
    Flush,
    ReadPixels,
}

fn gen_call(rng: &mut Rng) -> Call {
    match rng.u32_in(0, 20) {
        0 => Call::CreateTexture,
        1 => Call::TexImage {
            tex: rng.usize_in(0, 8),
            size: rng.u32_in(1, 4) as u8,
            rgb: rng.bool(),
            with_data: rng.bool(),
        },
        2 => Call::TexSubImage {
            tex: rng.usize_in(0, 8),
        },
        3 => Call::BindTexture {
            unit: rng.u32_in(0, 10) as u8,
            tex: rng.usize_in(0, 8),
        },
        4 => Call::DeleteTexture {
            tex: rng.usize_in(0, 8),
        },
        5 => Call::CreateFramebuffer,
        6 => Call::BindFramebuffer {
            fbo: rng.bool().then(|| rng.usize_in(0, 4)),
        },
        7 => Call::AttachTexture {
            tex: rng.usize_in(0, 8),
        },
        8 => Call::CreateBuffer,
        9 => Call::BufferData {
            buf: rng.usize_in(0, 4),
            usage: rng.u32_in(0, 3) as u8,
        },
        10 => Call::Clear,
        11 => Call::Discard,
        12 => Call::Draw {
            vbo: rng.bool().then(|| rng.usize_in(0, 4)),
        },
        13 => Call::CopyTexImage {
            tex: rng.usize_in(0, 8),
        },
        14 => Call::CopyTexSubImage {
            tex: rng.usize_in(0, 8),
        },
        15 => Call::SwapBuffers,
        16 => Call::SwapInterval {
            interval: rng.u32_in(0, 3) as u8,
        },
        17 => Call::Finish,
        18 => Call::Flush,
        _ => Call::ReadPixels,
    }
}

const PROG: &str = "
    uniform sampler2D u_t;
    varying vec2 v_coord;
    void main() { gl_FragColor = texture2D(u_t, v_coord); }
";

#[test]
fn random_call_sequences_never_corrupt_the_context() {
    run_cases(48, |rng| {
        let n_calls = rng.usize_in(1, 60);
        let calls: Vec<Call> = (0..n_calls).map(|_| gen_call(rng)).collect();
        let platform = if rng.bool() {
            Platform::videocore_iv()
        } else {
            Platform::sgx_545()
        };
        let mut gl = Gl::new(platform, 16, 16);
        let prog = gl.create_program(PROG).expect("program compiles");
        gl.use_program(Some(prog)).expect("program binds");

        let mut textures = Vec::new();
        let mut fbos = Vec::new();
        let mut buffers = Vec::new();
        let mut last_elapsed = SimTime::ZERO;

        for call in calls {
            // Every call either succeeds or returns a structured error;
            // nothing may panic, and simulated time may never go backward.
            match call {
                Call::CreateTexture => textures.push(gl.create_texture()),
                Call::TexImage {
                    tex,
                    size,
                    rgb,
                    with_data,
                } => {
                    if let Some(&t) = textures.get(tex) {
                        let n = 4u32 << size.min(2);
                        let fmt = if rgb {
                            TextureFormat::Rgb8
                        } else {
                            TextureFormat::Rgba8
                        };
                        let data = vec![7u8; (n * n) as usize * fmt.channels()];
                        let _ = gl.tex_image_2d(t, n, n, fmt, with_data.then_some(&data[..]));
                    }
                }
                Call::TexSubImage { tex } => {
                    if let Some(&t) = textures.get(tex) {
                        if let Ok((w, h, fmt)) = gl.texture_info(t) {
                            let data = vec![3u8; (w * h) as usize * fmt.channels()];
                            let _ = gl.tex_sub_image_2d(t, &data);
                        }
                    }
                }
                Call::BindTexture { unit, tex } => {
                    if let Some(&t) = textures.get(tex) {
                        let _ = gl.bind_texture(u32::from(unit), Some(t));
                    }
                }
                Call::DeleteTexture { tex } => {
                    if tex < textures.len() {
                        let t = textures.swap_remove(tex);
                        let _ = gl.delete_texture(t);
                    }
                }
                Call::CreateFramebuffer => fbos.push(gl.create_framebuffer()),
                Call::BindFramebuffer { fbo } => {
                    let target = fbo.and_then(|i| fbos.get(i).copied());
                    let _ = gl.bind_framebuffer(target);
                }
                Call::AttachTexture { tex } => {
                    if let Some(&t) = textures.get(tex) {
                        let _ = gl.framebuffer_texture_2d(t);
                    }
                }
                Call::CreateBuffer => buffers.push(gl.create_buffer()),
                Call::BufferData { buf, usage } => {
                    if let Some(&b) = buffers.get(buf) {
                        let usage = [
                            BufferUsage::StaticDraw,
                            BufferUsage::DynamicDraw,
                            BufferUsage::StreamDraw,
                        ][usage as usize % 3];
                        let _ = gl.buffer_data(b, 96, usage);
                    }
                }
                Call::Clear => {
                    let _ = gl.clear([0.5, 0.5, 0.5, 1.0]);
                }
                Call::Discard => {
                    let _ = gl.discard_framebuffer();
                }
                Call::Draw { vbo } => {
                    let mut quad = DrawQuad::fullscreen();
                    if let Some(b) = vbo.and_then(|i| buffers.get(i).copied()) {
                        quad = quad.with_vertex_source(VertexSource::Vbo(b));
                    }
                    let _ = gl.draw_quad(&quad);
                }
                Call::CopyTexImage { tex } => {
                    if let Some(&t) = textures.get(tex) {
                        let _ = gl.copy_tex_image_2d(t, TextureFormat::Rgba8);
                    }
                }
                Call::CopyTexSubImage { tex } => {
                    if let Some(&t) = textures.get(tex) {
                        let _ = gl.copy_tex_sub_image_2d(t);
                    }
                }
                Call::SwapBuffers => {
                    let _ = gl.swap_buffers();
                }
                Call::SwapInterval { interval } => gl.swap_interval(u32::from(interval)),
                Call::Finish => gl.finish(),
                Call::Flush => gl.flush(),
                Call::ReadPixels => {
                    if let Ok(px) = gl.read_pixels() {
                        assert!(!px.is_empty());
                    }
                }
            }
            let now = gl.elapsed();
            assert!(now >= last_elapsed, "time went backwards");
            assert_eq!(now, gl.report().total_time);
            last_elapsed = now;
        }

        // The context is still usable for a clean draw afterwards.
        gl.bind_framebuffer(None)
            .expect("window surface always bindable");
        let tex = gl.create_texture();
        let data = vec![1u8; 16 * 16 * 4];
        gl.tex_image_2d(tex, 16, 16, TextureFormat::Rgba8, Some(&data))
            .expect("upload");
        gl.bind_texture(0, Some(tex)).expect("bind");
        gl.use_program(Some(prog)).expect("program survives");
        gl.clear([0.0; 4]).expect("clear");
        gl.draw_quad(&DrawQuad::fullscreen())
            .expect("draw still works");
        let px = gl.read_pixels().expect("read");
        assert_eq!(px[0], 1);

        // The clock and the report still agree across a recreation, whose
        // cost lands on the next frame.
        gl.recreate();
        assert_eq!(gl.elapsed(), gl.report().total_time);
        let before = gl.elapsed();
        let prog = gl.create_program(PROG).expect("relinks after recreate");
        let tex = gl.create_texture();
        gl.tex_image_2d(tex, 16, 16, TextureFormat::Rgba8, Some(&data))
            .expect("upload");
        gl.bind_texture(0, Some(tex)).expect("bind");
        gl.use_program(Some(prog)).expect("use");
        gl.draw_quad(&DrawQuad::fullscreen())
            .expect("draw after recreate");
        gl.finish();
        assert!(gl.elapsed() > before);
        assert_eq!(gl.elapsed(), gl.report().total_time);
    });
}
