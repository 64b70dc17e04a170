//! The per-context compiled-shader memo.
//!
//! Fleet devices link the same few kernel sources job after job, and a
//! link used to re-run the whole compiler (parse, lower, optimise, limit
//! check) every time. The memo keeps the last [`SHADER_MEMO_CAP`]
//! successful compilations, keyed by exactly what determines the result:
//! the source text and the [`CompileOptions`] (optimiser passes and the
//! platform's limits). It plays the part of a GLES implementation's
//! program-binary cache, so context loss does not clear it.
//!
//! Every entry also carries the shader's static cost profile
//! ([`cost::analyze`]), which every draw of the shader prices its
//! fragments from, and a **shader id**, the name the draw-plan cache
//! keys plans by (see [`crate::plan_cache`]). Ids come from a counter that
//! never rewinds, so an id names one compilation for the context's whole
//! life: a source evicted here and linked again compiles under a fresh id,
//! and no plan built for an older compilation is served for it.

use std::collections::HashMap;
use std::sync::Arc;

use mgpu_shader::cost::{self, KernelCost};
use mgpu_shader::ir::Shader;
use mgpu_shader::{compile_with, CompileError, CompileOptions};

/// Maximum memoised compilations per context. The fleet's job mix links
/// about a dozen distinct kernels per device; the FIFO holds all of them.
pub(crate) const SHADER_MEMO_CAP: usize = 64;

/// What determines a compilation.
type MemoKey = (String, CompileOptions);

/// One memoised compilation.
#[derive(Debug, Clone)]
pub(crate) struct Compiled {
    pub(crate) shader: Arc<Shader>,
    /// [`cost::analyze`] of `shader`, computed once per compilation.
    pub(crate) cost: Arc<KernelCost>,
    pub(crate) id: u64,
}

/// A bounded FIFO map from `(source, options)` to a compiled shader, its
/// cost profile and its shader id.
#[derive(Debug, Default)]
pub(crate) struct ShaderMemo {
    shaders: HashMap<MemoKey, Compiled>,
    /// The id the next compilation gets. Ids rise with insertion, so the
    /// entry with the smallest id is the oldest.
    next_id: u64,
}

impl ShaderMemo {
    /// The compilation of `source` under `options`; compiles on a miss. A
    /// failed compilation is returned, not stored.
    pub(crate) fn compile(
        &mut self,
        source: &str,
        options: &CompileOptions,
    ) -> Result<Compiled, CompileError> {
        let key = (source.to_owned(), *options);
        if let Some(compiled) = self.shaders.get(&key) {
            return Ok(compiled.clone());
        }
        let shader = compile_with(source, options)?;
        let compiled = Compiled {
            cost: Arc::new(cost::analyze(&shader)),
            shader: Arc::new(shader),
            id: self.next_id,
        };
        self.next_id += 1;
        self.shaders.insert(key, compiled.clone());
        if self.shaders.len() > SHADER_MEMO_CAP {
            let oldest = self
                .shaders
                .iter()
                .min_by_key(|(_, compiled)| compiled.id)
                .map(|(key, _)| key.clone());
            if let Some(oldest) = oldest {
                self.shaders.remove(&oldest);
            }
        }
        Ok(compiled)
    }
}
