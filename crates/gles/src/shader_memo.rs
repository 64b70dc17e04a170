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
//! Every entry also carries a **shader id**, the name the draw-plan cache
//! keys plans by (see [`crate::plan_cache`]). Ids come from a counter that
//! never rewinds, so an id names one compilation for the context's whole
//! life: a source evicted here and linked again compiles under a fresh id,
//! and no plan built for an older compilation is served for it.

use std::collections::HashMap;
use std::sync::Arc;

use mgpu_shader::ir::Shader;
use mgpu_shader::{compile_with, CompileError, CompileOptions};

/// Maximum memoised compilations per context. The fleet's job mix links
/// about a dozen distinct kernels per device; the FIFO holds all of them.
pub(crate) const SHADER_MEMO_CAP: usize = 64;

/// What determines a compilation.
type MemoKey = (String, CompileOptions);

/// A bounded FIFO map from `(source, options)` to a compiled shader and
/// its shader id.
#[derive(Debug, Default)]
pub(crate) struct ShaderMemo {
    shaders: HashMap<MemoKey, (Arc<Shader>, u64)>,
    /// The id the next compilation gets. Ids rise with insertion, so the
    /// entry with the smallest id is the oldest.
    next_id: u64,
}

impl ShaderMemo {
    /// The shader compiled from `source` under `options`, and its id;
    /// compiles on a miss. A failed compilation is returned, not stored.
    pub(crate) fn compile(
        &mut self,
        source: &str,
        options: &CompileOptions,
    ) -> Result<(Arc<Shader>, u64), CompileError> {
        let key = (source.to_owned(), *options);
        if let Some((shader, id)) = self.shaders.get(&key) {
            return Ok((Arc::clone(shader), *id));
        }
        let shader = Arc::new(compile_with(source, options)?);
        let id = self.next_id;
        self.next_id += 1;
        self.shaders.insert(key, (Arc::clone(&shader), id));
        if self.shaders.len() > SHADER_MEMO_CAP {
            let oldest = self
                .shaders
                .iter()
                .min_by_key(|(_, (_, id))| *id)
                .map(|(key, _)| key.clone());
            if let Some(oldest) = oldest {
                self.shaders.remove(&oldest);
            }
        }
        Ok((shader, id))
    }
}
