//! Shader implementation limits.
//!
//! OpenGL ES 2 implementations advertise hard resource limits; exceeding
//! them makes `glCompileShader`/`glLinkProgram` fail. The paper's Fig. 4b
//! hits exactly this wall: block sizes above 16 exceed the instruction or
//! texture-fetch limits on both evaluation boards.

use crate::error::{CompileError, CompileErrorKind};
use crate::ir::Shader;

/// Resource limits enforced after optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Maximum IR instructions.
    pub max_instructions: u32,
    /// Maximum texture fetches per fragment.
    pub max_texture_fetches: u32,
    /// Maximum uniform vec4 slots (samplers excluded).
    pub max_uniform_vectors: u32,
    /// Maximum varying vec4 slots.
    pub max_varying_vectors: u32,
}

impl Limits {
    /// No limits; useful for host-side testing.
    #[must_use]
    pub const fn unlimited() -> Self {
        Limits {
            max_instructions: u32::MAX,
            max_texture_fetches: u32::MAX,
            max_uniform_vectors: u32::MAX,
            max_varying_vectors: u32::MAX,
        }
    }
}

impl Default for Limits {
    fn default() -> Self {
        Limits::unlimited()
    }
}

/// Checks `shader` against `limits`.
///
/// # Errors
///
/// Returns a [`CompileError`] whose
/// [`is_limit_exceeded`](CompileError::is_limit_exceeded) is true, naming
/// the violated limit — mirroring a driver info log.
pub fn check_limits(shader: &Shader, limits: &Limits) -> Result<(), CompileError> {
    let limit_err = |msg: String| CompileError::new(CompileErrorKind::LimitExceeded, msg, None);

    let instructions = shader.instruction_count() as u32;
    if instructions > limits.max_instructions {
        return Err(limit_err(format!(
            "kernel needs {instructions} instructions, implementation limit is {}",
            limits.max_instructions
        )));
    }
    let fetches = shader.texture_fetch_count() as u32;
    if fetches > limits.max_texture_fetches {
        return Err(limit_err(format!(
            "kernel performs {fetches} texture fetches, implementation limit is {}",
            limits.max_texture_fetches
        )));
    }
    let uniforms = shader.uniform_slots().count() as u32;
    if uniforms > limits.max_uniform_vectors {
        return Err(limit_err(format!(
            "kernel declares {uniforms} uniform vectors, implementation limit is {}",
            limits.max_uniform_vectors
        )));
    }
    let varyings = shader.varying_slots().count() as u32;
    if varyings > limits.max_varying_vectors {
        return Err(limit_err(format!(
            "kernel declares {varyings} varying vectors, implementation limit is {}",
            limits.max_varying_vectors
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_with, CompileOptions};

    const LOOP_KERNEL: &str = "
        uniform sampler2D t;
        varying vec2 v;
        void main() {
            float acc = 0.0;
            for (float i = 0.0; i < 8.0; i += 1.0) {
                acc += texture2D(t, vec2(i / 8.0, v.y)).x;
            }
            gl_FragColor = vec4(acc);
        }
    ";

    #[test]
    fn unlimited_always_passes() {
        let opts = CompileOptions::default();
        assert!(compile_with(LOOP_KERNEL, &opts).is_ok());
    }

    #[test]
    fn instruction_limit_fails_like_a_driver() {
        let opts = CompileOptions {
            limits: Limits {
                max_instructions: 10,
                ..Limits::unlimited()
            },
            ..CompileOptions::default()
        };
        let err = compile_with(LOOP_KERNEL, &opts).unwrap_err();
        assert!(err.is_limit_exceeded());
        assert!(err.to_string().contains("instructions"));
    }

    #[test]
    fn texture_fetch_limit_fails() {
        let opts = CompileOptions {
            limits: Limits {
                max_texture_fetches: 4,
                ..Limits::unlimited()
            },
            ..CompileOptions::default()
        };
        let err = compile_with(LOOP_KERNEL, &opts).unwrap_err();
        assert!(err.is_limit_exceeded());
        assert!(err.to_string().contains("texture fetches"));
    }

    #[test]
    fn limits_are_checked_after_optimisation() {
        // The unused fetch is dead-code-eliminated, so a 0-fetch limit
        // passes with optimisation on.
        let src = "
            uniform sampler2D t;
            varying vec2 v;
            void main() {
                vec4 unused = texture2D(t, v);
                gl_FragColor = vec4(1.0);
            }
        ";
        let opts = CompileOptions {
            limits: Limits {
                max_texture_fetches: 0,
                ..Limits::unlimited()
            },
            ..CompileOptions::default()
        };
        assert!(compile_with(src, &opts).is_ok());
    }

    #[test]
    fn uniform_and_varying_limits() {
        let src = "
            uniform vec4 a;
            uniform vec4 b;
            varying vec2 v;
            void main() { gl_FragColor = a + b + vec4(v, 0.0, 1.0); }
        ";
        let tight_uniform = CompileOptions {
            limits: Limits {
                max_uniform_vectors: 1,
                ..Limits::unlimited()
            },
            ..CompileOptions::default()
        };
        assert!(compile_with(src, &tight_uniform)
            .unwrap_err()
            .is_limit_exceeded());

        let tight_varying = CompileOptions {
            limits: Limits {
                max_varying_vectors: 0,
                ..Limits::unlimited()
            },
            ..CompileOptions::default()
        };
        assert!(compile_with(src, &tight_varying)
            .unwrap_err()
            .is_limit_exceeded());
    }
}
