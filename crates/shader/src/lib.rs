//! # mgpu-shader — a GLSL-ES-like fragment-kernel compiler and interpreter
//!
//! This crate implements the shader toolchain a low-end mobile GPU driver
//! would contain, at the fidelity the DATE 2017 reproduction needs:
//!
//! * a **compiler** for the GLSL ES 1.00 fragment subset the paper's GPGPU
//!   kernels use (floats and vectors, swizzles, built-ins including `dot`,
//!   `clamp` and the paper's `mul24`, user functions, constant-bounded
//!   `for` loops);
//! * full **loop unrolling** and **function inlining** to straight-line IR,
//!   matching what ES2-era compilers did — and making the paper's Fig. 4b
//!   *shader limit* failures reproducible: the block-32 sgemm kernel
//!   genuinely exceeds `max_instructions`/`max_texture_fetches`;
//! * a **peephole optimiser** with toggleable MAD fusion (the paper's
//!   kernel-code optimisation), constant folding, copy propagation and DCE;
//! * a **cost model** classifying texture fetches as streaming vs
//!   dependent, feeding the TBDR timing simulator;
//! * an **interpreter** executing kernels per fragment for functional
//!   results.
//!
//! # Examples
//!
//! ```
//! use mgpu_shader::{compile, cost, Executor, UniformValues};
//!
//! let shader = compile("
//!     uniform sampler2D u_data;
//!     varying vec2 v_coord;
//!     void main() {
//!         vec4 t = texture2D(u_data, v_coord);
//!         gl_FragColor = clamp(t * 2.0, 0.0, 1.0);
//!     }
//! ").expect("compiles");
//!
//! // Static properties drive the timing model...
//! let cost = cost::analyze(&shader);
//! assert_eq!(cost.streaming_fetches(), 1);
//!
//! // ...and the interpreter produces functional results.
//! let mut exec = Executor::new(&shader, &UniformValues::new()).expect("no uniforms needed");
//! # let _ = exec;
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub mod ast;
mod batch;
pub mod compile;
pub mod cost;
mod error;
mod fold;
pub mod hash;
mod lexer;
mod limits;
mod lower;
mod opt;
mod parser;
pub mod pretty;

pub mod ir;
mod token;
mod vm;

pub use batch::{BatchCore, BatchExecutor, LANES};
pub use compile::{CompiledCore, CompiledProgram};
pub use error::{render_error, CompileError, CompileErrorKind, ExecError};
pub use fold::{const_eval, ConstVal};
pub use limits::{check_limits, Limits};
pub use lower::{lower, MAX_UNROLL_ITERATIONS};
pub use opt::{optimize, specialize, OptOptions};
pub use parser::parse;
pub use vm::{
    truncate_to_24bit, u8_to_unorm, ExecCore, Executor, ImageSampler, Sampler, UniformValues,
};

use ir::Shader;

/// Everything configurable about a compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CompileOptions {
    /// Peephole passes to run.
    pub opt: OptOptions,
    /// Implementation limits to enforce (default: unlimited).
    pub limits: Limits,
}

/// Compiles kernel source with default options (full optimisation, no
/// limits).
///
/// # Errors
///
/// Returns a [`CompileError`] on any lexical, syntactic, type or loop
/// problem.
///
/// # Examples
///
/// ```
/// let shader = mgpu_shader::compile(
///     "void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }",
/// )?;
/// assert_eq!(shader.texture_fetch_count(), 0);
/// # Ok::<(), mgpu_shader::CompileError>(())
/// ```
pub fn compile(source: &str) -> Result<Shader, CompileError> {
    compile_with(source, &CompileOptions::default())
}

/// Compiles kernel source with explicit options, enforcing the configured
/// implementation limits after optimisation — exactly where a driver's
/// compiler rejects over-budget kernels.
///
/// # Errors
///
/// Returns a [`CompileError`]; use
/// [`CompileError::is_limit_exceeded`] to distinguish resource-limit
/// failures (the paper's block-size wall) from malformed programs.
pub fn compile_with(source: &str, options: &CompileOptions) -> Result<Shader, CompileError> {
    let program = parse(source)?;
    let mut shader = lower(&program)?;
    optimize(&mut shader, &options.opt);
    check_limits(&shader, &options.limits)?;
    Ok(shader)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_end_to_end() {
        let sh = compile(
            "uniform sampler2D t;\n\
             varying vec2 v;\n\
             void main() { gl_FragColor = texture2D(t, v); }",
        )
        .unwrap();
        assert_eq!(sh.samplers.len(), 1);
        assert_eq!(sh.texture_fetch_count(), 1);
    }

    #[test]
    fn paper_fig2_kernel_compiles_and_counts_fetches() {
        // Block size 4 over a 64-wide matrix: 4 iterations * 2 fetches + 1.
        let src = "
            uniform sampler2D text0;
            uniform sampler2D text1;
            uniform sampler2D text2;
            uniform float blk_n;
            varying vec2 Coord0;
            varying vec2 Coord1;
            varying vec2 Coord2;
            void main() {
                float acc = 0.0;
                for (float i = 0.0; i < 0.0625; i += 0.015625) {
                    float A = texture2D(text0, vec2(i + blk_n, Coord0.y)).x;
                    float B = texture2D(text1, vec2(Coord1.x, i + blk_n)).x;
                    acc += A * B;
                }
                float interm = texture2D(text2, Coord2).x;
                gl_FragColor = vec4(acc + interm);
            }
        ";
        let sh = compile(src).unwrap();
        assert_eq!(sh.texture_fetch_count(), 4 * 2 + 1);
        let cost = cost::analyze(&sh);
        assert_eq!(cost.dependent_fetches(), 8);
        assert_eq!(cost.streaming_fetches(), 1);
    }

    #[test]
    fn non_constant_loop_bound_is_rejected() {
        let err = compile(
            "uniform float n;\n\
             void main() {\n\
               float a = 0.0;\n\
               for (float i = 0.0; i < n; i += 1.0) { a += 1.0; }\n\
               gl_FragColor = vec4(a);\n\
             }",
        )
        .unwrap_err();
        assert_eq!(err.kind(), CompileErrorKind::Loop);
    }

    #[test]
    fn runaway_loop_is_rejected() {
        let err = compile(
            "void main() {\n\
               float a = 0.0;\n\
               for (float i = 0.0; i < 1000000.0; i += 1.0) { a += 1.0; }\n\
               gl_FragColor = vec4(a);\n\
             }",
        )
        .unwrap_err();
        assert_eq!(err.kind(), CompileErrorKind::Loop);
    }

    #[test]
    fn never_writing_fragcolor_is_an_error() {
        let err = compile("void main() { float x = 1.0; }").unwrap_err();
        assert!(err.to_string().contains("gl_FragColor"));
    }

    #[test]
    fn assigning_to_loop_counter_is_rejected() {
        let err = compile(
            "void main() {\n\
               for (float i = 0.0; i < 2.0; i += 1.0) { i = 5.0; }\n\
               gl_FragColor = vec4(0.0);\n\
             }",
        )
        .unwrap_err();
        assert_eq!(err.kind(), CompileErrorKind::Type);
    }

    #[test]
    fn recursion_is_rejected() {
        let err = compile(
            "float f(float x) { return f(x); }\n\
             void main() { gl_FragColor = vec4(f(1.0)); }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("recursive"));
    }

    #[test]
    fn sampler_misuse_is_rejected() {
        let err = compile(
            "uniform sampler2D t;\n\
             void main() { gl_FragColor = vec4(t); }",
        )
        .unwrap_err();
        assert_eq!(err.kind(), CompileErrorKind::Type);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let err = compile(
            "varying vec2 v; varying vec3 w;\n\
             void main() { gl_FragColor = vec4(v + w, 0.0); }",
        )
        .unwrap_err();
        assert_eq!(err.kind(), CompileErrorKind::Type);
    }

    #[test]
    fn constant_condition_branches_are_pruned() {
        let sh = compile(
            "void main() {\n\
               float x = 0.0;\n\
               if (1.0 < 2.0) { x = 5.0; } else { x = sqrt(3.0); }\n\
               gl_FragColor = vec4(x);\n\
             }",
        )
        .unwrap();
        assert!(!sh.instrs.iter().any(|i| i.op == ir::Op::Sqrt));
        assert!(!sh.instrs.iter().any(|i| i.op == ir::Op::Select));
    }
}
