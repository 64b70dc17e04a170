//! The per-context draw-plan cache.
//!
//! Multi-pass GPGPU pipelines re-issue near-identical draws: a block-16
//! sgemm at 1024² runs 64 passes per multiply, each differing only in one
//! scalar uniform, and iterative pipelines repeat whole uniform cycles
//! every multiply. The per-draw setup those draws repeat — lowering the
//! shader into the compiled tier's closure chain, column-table hoisting,
//! engine register allocation — depends only on (shader, uniforms,
//! engine, target geometry, corners), so this cache keys finished
//! [`DrawPlan`]s by exactly that tuple and hands them back on repeat
//! draws. With the cache disabled (`MGPU_PLAN_CACHE=off`) the context
//! still recycles the last plan's allocations, but rebuilds it every
//! draw.
//!
//! The shader enters the key as its **shader id** from the context's
//! shader memo ([`crate::shader_memo`]), not as the program handle.
//! Programs linked from the same source under the same compile options
//! share the id, so a fleet job that links its predecessor's kernels
//! again draws from the plans its predecessor built on the same device.
//!
//! ## Invalidation
//!
//! Everything a plan captures is part of its key, so most state changes
//! invalidate *by keying*, not by flushing:
//!
//! * **uniform change / relink** — the uniform hash or the shader id
//!   changes, so the next draw misses and builds a fresh plan; the stale
//!   entry ages out FIFO. The context never reuses a shader id (a source
//!   the memo evicted relinks under a fresh one), so a plan is never
//!   served for a compilation it was not built from.
//! * **texture respecification** — nothing texture-dependent is cached:
//!   sampler views are rebuilt on every draw because ping-pong pipelines
//!   change texture *contents* between passes.
//! * **context loss / recreation** — the context explicitly
//!   [`clears`](PlanCache::clear) the cache: plans are per-context GL
//!   state. (The shader memo survives, so recovery relinks under the same
//!   ids and rebuilds plans without recompiling.)
//!
//! Capacity is bounded ([`PLAN_CACHE_CAP`]) with FIFO-order reinsertion on
//! hit, which approximates LRU: a plan re-used this draw goes to the back
//! of the eviction queue.

use std::collections::{HashMap, VecDeque};

use crate::exec::Engine;
use crate::raster::{DrawPlan, VaryingCorners};
use mgpu_shader::hash::Fnv64;

/// Maximum cached plans per context.
///
/// Sized above the paper's deepest uniform cycle: a block-16 sgemm at
/// 1024² cycles 64 distinct `blk_n` values per multiply, and the cache
/// must hold the whole cycle (plus interleaved passes of other programs)
/// for the second multiply to run fully warm.
pub(crate) const PLAN_CACHE_CAP: usize = 128;

/// Everything that determines a [`DrawPlan`]. The shader is named exactly
/// by its id; uniform values and varying corners enter as 64-bit FNV-1a
/// content hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Shader id from the context's shader memo: shared by every program
    /// linked from the same source under the same compile options, and
    /// never reused by the context for another compilation.
    pub shader: u64,
    /// [`UniformValues::stable_hash`](mgpu_shader::UniformValues) of the
    /// program's bound uniforms at draw time.
    pub uniform_hash: u64,
    /// Fragment engine tier the plan's seats were built for.
    pub engine: Engine,
    /// Target geometry the column table was hoisted for.
    pub width: u32,
    /// Target height (plans are band-agnostic but the band validator
    /// checks against the height the plan was keyed under).
    pub height: u32,
    /// Bytes stored per pixel.
    pub channels: usize,
    /// Content hash of the varying corner sets.
    pub corners_hash: u64,
}

/// Stable content hash of a draw's varying corner sets.
pub(crate) fn corners_hash(corners: &[VaryingCorners]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(corners.len() as u64);
    for set in corners {
        for corner in set {
            for &c in corner {
                h.write_f32(c);
            }
        }
    }
    h.finish()
}

/// Counters exposed for tests, benches and tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Draws served from a cached plan.
    pub hits: u64,
    /// Draws that had to build a fresh plan.
    pub misses: u64,
    /// Plans discarded to respect the capacity bound.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// A bounded map from [`PlanKey`] to ready-to-execute [`DrawPlan`]s.
///
/// Plans are **taken out** to execute (they hold mutable engine state) and
/// reinserted afterwards; a plan in flight is simply absent, so a
/// recursive or failed draw never observes a half-used plan.
pub(crate) struct PlanCache {
    plans: HashMap<PlanKey, DrawPlan>,
    /// Eviction order, oldest first. May contain stale keys (removed or
    /// reinserted entries); eviction skips keys no longer in `plans` and
    /// the queue is compacted when it outgrows the map by 4×.
    order: VecDeque<PlanKey>,
    enabled: bool,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("entries", &self.plans.len())
            .field("enabled", &self.enabled)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish()
    }
}

impl PlanCache {
    pub(crate) fn new(enabled: bool) -> Self {
        PlanCache {
            plans: HashMap::new(),
            order: VecDeque::new(),
            enabled,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables lookups. Disabling clears the cache — a
    /// disabled cache must not pin stale plans (or their memory) alive.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.clear();
        }
    }

    /// Removes the plan for `key`, counting a hit or miss.
    pub(crate) fn take(&mut self, key: &PlanKey) -> Option<DrawPlan> {
        if !self.enabled {
            return None;
        }
        match self.plans.remove(key) {
            Some(plan) => {
                self.hits += 1;
                Some(plan)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// (Re)inserts a plan, evicting the oldest entries beyond capacity.
    pub(crate) fn insert(&mut self, key: PlanKey, plan: DrawPlan) {
        if !self.enabled {
            return;
        }
        self.plans.insert(key, plan);
        self.order.push_back(key);
        while self.plans.len() > PLAN_CACHE_CAP {
            match self.order.pop_front() {
                // Only count an eviction when the key still mapped to a
                // live plan; stale queue entries are free to discard.
                Some(old) => {
                    // A reinserted key has a fresher queue entry further
                    // back; evicting on its *stale* entry would throw away
                    // the hottest plan. Skip keys whose front entry is not
                    // their newest.
                    if self.order.contains(&old) {
                        continue;
                    }
                    if self.plans.remove(&old).is_some() {
                        self.evictions += 1;
                    }
                }
                None => break,
            }
        }
        if self.order.len() > 4 * PLAN_CACHE_CAP {
            let plans = &self.plans;
            let mut seen = std::collections::HashSet::new();
            // Keep only the newest queue entry of each live key (iterate
            // from the back so `seen` marks the newest first).
            let mut kept: Vec<PlanKey> = self
                .order
                .iter()
                .rev()
                .filter(|k| plans.contains_key(*k) && seen.insert(**k))
                .copied()
                .collect();
            kept.reverse();
            self.order = kept.into();
        }
    }

    /// Drops every cached plan (context loss, cache disable).
    pub(crate) fn clear(&mut self) {
        self.plans.clear();
        self.order.clear();
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.plans.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::texcoord_corners;
    use mgpu_shader::{compile, UniformValues};
    use std::sync::Arc;

    fn test_plan() -> DrawPlan {
        let shader = Arc::new(
            compile("varying vec2 v; void main() { gl_FragColor = vec4(v, 0.0, 1.0); }")
                .expect("test shader compiles"),
        );
        DrawPlan::build(
            &shader,
            &UniformValues::new(),
            Engine::Scalar,
            &[texcoord_corners()],
            8,
            None,
        )
        .expect("test plan builds")
    }

    fn key(shader: u64, uniform_hash: u64) -> PlanKey {
        PlanKey {
            shader,
            uniform_hash,
            engine: Engine::Scalar,
            width: 8,
            height: 8,
            channels: 4,
            corners_hash: corners_hash(&[texcoord_corners()]),
        }
    }

    #[test]
    fn take_counts_hits_and_misses() {
        let mut cache = PlanCache::new(true);
        assert!(cache.take(&key(1, 0)).is_none());
        cache.insert(key(1, 0), test_plan());
        assert!(cache.take(&key(1, 0)).is_some());
        assert!(cache.take(&key(1, 0)).is_none(), "take removes the plan");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn capacity_is_bounded_and_reinsertion_protects_hot_plans() {
        let mut cache = PlanCache::new(true);
        cache.insert(key(0, 0), test_plan());
        cache.insert(key(9, 9), test_plan());
        // Re-touch key 0 (take + reinsert): it is now *newer* than key 9
        // despite its stale front slot in the eviction queue.
        let plan = cache.take(&key(0, 0)).expect("just inserted");
        cache.insert(key(0, 0), plan);
        // Flood to one entry over capacity: exactly one eviction, and it
        // must hit the cold key 9, not the re-touched key 0.
        for i in 1..PLAN_CACHE_CAP as u64 {
            cache.insert(key(1, i), test_plan());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, PLAN_CACHE_CAP);
        assert_eq!(stats.evictions, 1);
        assert!(cache.take(&key(0, 0)).is_some(), "hot plan survived");
        assert!(cache.take(&key(9, 9)).is_none(), "cold plan evicted");
    }

    #[test]
    fn a_full_uniform_cycle_fits() {
        // The sgemm pass structure: one program, 64 distinct uniform
        // hashes, repeated. The second cycle must be all hits.
        let mut cache = PlanCache::new(true);
        for pass in 0..64u64 {
            assert!(cache.take(&key(7, pass)).is_none());
            cache.insert(key(7, pass), test_plan());
        }
        for pass in 0..64u64 {
            let plan = cache.take(&key(7, pass));
            assert!(plan.is_some(), "pass {pass} should be warm");
            if let Some(plan) = plan {
                cache.insert(key(7, pass), plan);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 64);
        assert_eq!(stats.misses, 64);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn disabling_clears_and_stops_serving() {
        let mut cache = PlanCache::new(true);
        cache.insert(key(1, 0), test_plan());
        cache.set_enabled(false);
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.take(&key(1, 0)).is_none());
        cache.insert(key(1, 0), test_plan());
        assert_eq!(cache.stats().entries, 0, "disabled cache stores nothing");
    }

    #[test]
    fn corner_hash_sees_content() {
        let a = corners_hash(&[texcoord_corners()]);
        let mut other = texcoord_corners();
        other[3][0] = 0.5;
        let b = corners_hash(&[other]);
        assert_ne!(a, b);
        assert_ne!(a, corners_hash(&[texcoord_corners(), texcoord_corners()]));
    }
}
