//! Tile-level redundancy elimination: the per-context tile-signature cache.
//!
//! Multi-pass GPGPU loops re-shade enormous numbers of tiles whose inputs
//! have not changed since the previous pass: an iterative reduction re-runs
//! the same kernel over the same source texture every frame, and a repeated
//! sgemm re-seeds the same accumulator and re-reads the same operands. On a
//! TBDR GPU each such tile costs full fragment-unit shading plus a tile
//! writeback over the memory bus, even though the bytes it produces are
//! identical to the previous pass — the *Rendering Elimination* observation
//! applied to GPGPU kernels.
//!
//! [`TileSigCache`] keys cached tile outputs by the drawing program's
//! handle plus the [plan cache](crate::plan_cache)'s draw-plan key
//! (shader id, uniform hash, engine, target geometry, corners),
//! refined to one entry per platform tile rect. Each entry carries a
//! 128-bit *input signature* covering everything the tile's fragments
//! can observe:
//!
//! * the column-table slice of every varying over the tile's columns,
//! * the tile's row range and the target height (the row interpolation
//!   factor is `(y + 0.5) / height`),
//! * per sampled texture: dimensions, format channels, filter, and a
//!   content digest of the sampled texel region — the exact footprint when
//!   the kernel's fetches are all streaming (resolvable from the hoisted
//!   coordinate table), conservatively the whole texture when any fetch is
//!   dependent (data-driven coordinates are unresolvable ahead of shading).
//!
//! A draw consults the cache per tile: signature match ⇒ the cached bytes
//! are replayed (byte-identical by construction — fragments are pure
//! functions of position, varyings, uniforms and texture contents, and
//! GLES 2 GPGPU draws blend nothing); mismatch ⇒ the entry is invalidated,
//! the tile shades, and the fresh bytes + signature replace it.
//!
//! ## Invalidation
//!
//! Like the plan cache, most state changes invalidate *by keying*: a new
//! uniform value, engine tier or corner set simply misses. The
//! render-target's identity is deliberately **not** part of the key — a
//! ping-pong pipeline alternates two textures while shading identical
//! bytes, and replaying them into either target is exact because every
//! covered pixel is overwritten. Content changes invalidate by *signature*:
//! any texture write (upload, copy, draw write-back, injected corruption)
//! changes the sampled-region digest and forces a re-shade. Context loss,
//! recreation, an engine switch and turning skipping off flush the cache
//! outright.
//!
//! Capacity is bounded by entry count and held bytes, FIFO with
//! reinsertion-on-hit (approximate LRU), mirroring the plan cache.

use std::collections::{HashMap, VecDeque};

use mgpu_shader::hash::Fnv64;
use mgpu_tbdr::TileRect;

use crate::plan_cache::PlanKey;

/// Maximum cached tiles per context.
///
/// Sized for the paper-scale pipelines the bench suite runs: a 10-pass
/// 512² reduction holds ~400 tiles across its pass keys on VideoCore's
/// 64×64 grid, and a block-16 sgemm at 256² holds one tile set per
/// `blk` uniform value. (A 1024² 64-pass uniform cycle exceeds any sane
/// bound — those runs simply stay cold, they do not break.)
pub(crate) const TILE_CACHE_ENTRY_CAP: usize = 8192;

/// Maximum bytes of cached tile output per context (64 MiB).
pub(crate) const TILE_CACHE_BYTE_CAP: usize = 64 << 20;

/// Modelled bus bytes to fetch + compare one skipped tile's signature
/// descriptor (key digest, texture versions, match flags).
pub(crate) const SIG_DESCRIPTOR_BYTES: u64 = 64;

/// Modelled bus bytes per varying slot per tile column: the comparator
/// streams the column-table slice digest (8 bytes per column per slot)
/// instead of shading. Signatures are maintained at write time by the
/// modelled hardware, so skipped tiles never re-read their full inputs.
pub(crate) const SIG_BYTES_PER_SLOT_COLUMN: u64 = 8;

/// Identity of one cached tile: the drawing program, its draw-plan key and
/// the clipped tile rect. The 128-bit input signature is checked on every
/// hit besides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TileKey {
    /// Handle of the program that drew the tile (never reused within a
    /// context). Programs linked from one source share plans but not
    /// tiles, so whether a draw's tiles replay — which changes its
    /// simulated time — depends only on its own program's earlier draws.
    pub program: u32,
    /// The draw-plan identity (shader id, uniform hash, engine, target
    /// geometry, corners). Note the *render target* is absent:
    /// ping-pong passes share entries on purpose.
    pub plan: PlanKey,
    /// Clipped tile rect, `x0..x1` × `y0..y1` in target pixels.
    pub x0: u32,
    /// Exclusive right edge.
    pub x1: u32,
    /// Top row.
    pub y0: u32,
    /// Exclusive bottom row.
    pub y1: u32,
}

impl TileKey {
    pub(crate) fn new(program: u32, plan: PlanKey, r: &TileRect) -> Self {
        TileKey {
            program,
            plan,
            x0: r.x0,
            x1: r.x1,
            y0: r.y0,
            y1: r.y1,
        }
    }
}

/// What one sampled texture contributes to a tile's input signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TexSig {
    /// Texture width in texels.
    pub width: u32,
    /// Texture height in texels.
    pub height: u32,
    /// Bytes per texel.
    pub channels: usize,
    /// Whether the texture samples with bilinear filtering.
    pub linear: bool,
    /// The texel region the digest covers: `Some((x0, x1, y0, y1))` when
    /// the sampling footprint was resolved from the coordinate table,
    /// `None` when the digest covers the whole texture (dependent
    /// fetches, or no resolvable varying hull).
    pub region: Option<(u32, u32, u32, u32)>,
    /// Content digest of the covered region.
    pub crc: u64,
}

/// Content digest over a full byte buffer (the whole-texture fallback).
pub(crate) fn content_hash(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(data.len() as u64);
    h.write(data);
    h.finish()
}

/// Content digest over the texel rect `x0..x1` × `y0..y1` of a texture's
/// backing bytes (row-major, `channels` bytes per texel).
pub(crate) fn region_hash(
    data: &[u8],
    tex_width: u32,
    channels: usize,
    region: (u32, u32, u32, u32),
) -> u64 {
    let (x0, x1, y0, y1) = region;
    let mut h = Fnv64::new();
    h.write_u32(x0);
    h.write_u32(x1);
    h.write_u32(y0);
    h.write_u32(y1);
    let row = tex_width as usize;
    for y in y0..y1 {
        let start = (y as usize * row + x0 as usize) * channels;
        let end = (y as usize * row + x1 as usize) * channels;
        if let Some(slice) = data.get(start..end) {
            h.write(slice);
        }
    }
    h.finish()
}

/// Maps a varying hull (`lo..hi` in normalised texture coordinates) to the
/// conservative texel footprint it can sample on a `width`×`height`
/// texture: ±2 texels of margin covers nearest rounding and the bilinear
/// 2×2 neighbourhood on both platforms' clamp-to-edge sampling.
///
/// Clamp-to-edge maps *every* coordinate — however far outside [0, 1] —
/// onto a border texel, so the footprint of a non-degenerate texture is
/// never empty: a hull entirely beyond one edge still covers the texel
/// column/row it clamps onto. (An empty footprint here would let border
/// content changes slip past the signature and replay stale tiles.)
pub(crate) fn sample_footprint(
    lo: [f32; 2],
    hi: [f32; 2],
    width: u32,
    height: u32,
) -> (u32, u32, u32, u32) {
    let axis = |lo: f32, hi: f32, limit: u32| -> (u32, u32) {
        if limit == 0 {
            return (0, 0);
        }
        let clamp = |t: f64, max: u32| -> u32 {
            let t = if t.is_finite() { t } else { f64::from(max) };
            (t as i64).clamp(0, i64::from(max)) as u32
        };
        let a = clamp((f64::from(lo) * f64::from(limit)).floor() - 2.0, limit - 1);
        let b = clamp((f64::from(hi) * f64::from(limit)).ceil() + 2.0, limit).max(a + 1);
        (a, b)
    };
    let (x0, x1) = axis(lo[0], hi[0], width);
    let (y0, y1) = axis(lo[1], hi[1], height);
    (x0, x1, y0, y1)
}

/// The 128-bit input signature of one tile: two independent FNV passes
/// (differentiated by a prefix byte) over the column-table slice digest,
/// the tile's row range, the target height and every sampled texture's
/// contribution.
pub(crate) fn tile_signature(
    column_hash: u64,
    target_height: u32,
    r: &TileRect,
    texes: &[TexSig],
) -> (u64, u64) {
    let pass = |prefix: u8| -> u64 {
        let mut h = Fnv64::new();
        h.write_u8(prefix);
        h.write_u64(column_hash);
        h.write_u32(r.y0);
        h.write_u32(r.y1);
        h.write_u32(target_height);
        h.write_u64(texes.len() as u64);
        for t in texes {
            h.write_u32(t.width);
            h.write_u32(t.height);
            h.write_u64(t.channels as u64);
            h.write_u8(u8::from(t.linear));
            match t.region {
                Some((x0, x1, y0, y1)) => {
                    h.write_u8(1);
                    h.write_u32(x0);
                    h.write_u32(x1);
                    h.write_u32(y0);
                    h.write_u32(y1);
                }
                None => h.write_u8(0),
            }
            h.write_u64(t.crc);
        }
        h.finish()
    };
    (pass(0xA5), pass(0x5A))
}

/// Copies a tile-local byte block (`r.width()` × `r.height()` texels) into
/// its rect of a `target_width`-wide row-major target buffer.
pub(crate) fn blit_tile(
    src: &[u8],
    r: &TileRect,
    target_width: u32,
    channels: usize,
    out: &mut [u8],
) {
    let row = r.width() as usize * channels;
    for (i, y) in (r.y0..r.y1).enumerate() {
        let dst = (y as usize * target_width as usize + r.x0 as usize) * channels;
        out[dst..dst + row].copy_from_slice(&src[i * row..(i + 1) * row]);
    }
}

/// Extracts a tile's rect from a row-major target buffer into a
/// tile-local byte block (the harvest step after a full-band shade).
pub(crate) fn extract_tile(
    out: &[u8],
    r: &TileRect,
    target_width: u32,
    channels: usize,
) -> Vec<u8> {
    let row = r.width() as usize * channels;
    let mut bytes = Vec::with_capacity(row * r.height() as usize);
    for y in r.y0..r.y1 {
        let start = (y as usize * target_width as usize + r.x0 as usize) * channels;
        bytes.extend_from_slice(&out[start..start + row]);
    }
    bytes
}

/// Counters exposed for tests, benches and tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileSkipStats {
    /// Tiles replayed from cache instead of shading.
    pub hits: u64,
    /// Tiles that had to shade (absent or signature-mismatched entries).
    pub misses: u64,
    /// Entries dropped because their inputs changed (signature mismatch)
    /// or the cache was flushed (context loss, engine switch).
    pub invalidations: u64,
    /// Total output bytes served from cache.
    pub bytes_replayed: u64,
    /// Tiles currently cached.
    pub entries: usize,
}

struct TileEntry {
    sig: (u64, u64),
    bytes: Vec<u8>,
}

/// A bounded map from [`TileKey`] to signed tile outputs.
pub(crate) struct TileSigCache {
    tiles: HashMap<TileKey, TileEntry>,
    /// Eviction order, oldest first; may hold stale keys exactly like the
    /// plan cache's queue (skipped on eviction, compacted at 4× growth).
    order: VecDeque<TileKey>,
    held_bytes: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
    bytes_replayed: u64,
}

impl std::fmt::Debug for TileSigCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileSigCache")
            .field("entries", &self.tiles.len())
            .field("held_bytes", &self.held_bytes)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("invalidations", &self.invalidations)
            .finish()
    }
}

impl TileSigCache {
    pub(crate) fn new() -> Self {
        TileSigCache {
            tiles: HashMap::new(),
            order: VecDeque::new(),
            held_bytes: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
            bytes_replayed: 0,
        }
    }

    /// Consults the cache for one tile. A present entry with a matching
    /// signature is a hit and returns the cached bytes; a present entry
    /// with a different signature is invalidated (its inputs changed under
    /// the same identity — it can never match again) and counts a miss; an
    /// absent entry is a plain miss.
    pub(crate) fn lookup(&mut self, key: &TileKey, sig: (u64, u64)) -> Option<&[u8]> {
        let stale = matches!(self.tiles.get(key), Some(e) if e.sig != sig);
        if stale {
            if let Some(e) = self.tiles.remove(key) {
                self.held_bytes -= e.bytes.len();
            }
            self.invalidations += 1;
            self.misses += 1;
            return None;
        }
        if !self.tiles.contains_key(key) {
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        // Reinsertion-on-hit: the replayed tile goes to the back of the
        // eviction queue (approximate LRU, as in the plan cache).
        self.order.push_back(*key);
        self.compact();
        match self.tiles.get(key) {
            Some(e) => {
                self.bytes_replayed += e.bytes.len() as u64;
                Some(e.bytes.as_slice())
            }
            None => None,
        }
    }

    /// Stores one freshly shaded tile, evicting oldest entries beyond the
    /// entry or byte bound.
    pub(crate) fn insert(&mut self, key: TileKey, sig: (u64, u64), bytes: Vec<u8>) {
        self.held_bytes += bytes.len();
        if let Some(old) = self.tiles.insert(key, TileEntry { sig, bytes }) {
            self.held_bytes -= old.bytes.len();
        }
        self.order.push_back(key);
        while (self.tiles.len() > TILE_CACHE_ENTRY_CAP || self.held_bytes > TILE_CACHE_BYTE_CAP)
            && self.tiles.len() > 1
        {
            match self.order.pop_front() {
                Some(old) => {
                    // Same stale-front protection as the plan cache: a
                    // reinserted key's newest queue slot is further back.
                    if self.order.contains(&old) {
                        continue;
                    }
                    if let Some(e) = self.tiles.remove(&old) {
                        self.held_bytes -= e.bytes.len();
                    }
                }
                None => break,
            }
        }
        self.compact();
    }

    /// Drops every cached tile, counting each as an invalidation (context
    /// loss/recreation, engine switch, skip disable).
    pub(crate) fn flush(&mut self) {
        self.invalidations += self.tiles.len() as u64;
        self.tiles.clear();
        self.order.clear();
        self.held_bytes = 0;
    }

    pub(crate) fn stats(&self) -> TileSkipStats {
        TileSkipStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            bytes_replayed: self.bytes_replayed,
            entries: self.tiles.len(),
        }
    }

    fn compact(&mut self) {
        if self.order.len() > 4 * TILE_CACHE_ENTRY_CAP.max(self.tiles.len()) {
            let tiles = &self.tiles;
            let mut seen = std::collections::HashSet::new();
            let mut kept: Vec<TileKey> = self
                .order
                .iter()
                .rev()
                .filter(|k| tiles.contains_key(*k) && seen.insert(**k))
                .copied()
                .collect();
            kept.reverse();
            self.order = kept.into();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Engine;
    use crate::plan_cache::corners_hash;
    use crate::raster::texcoord_corners;

    fn plan_key() -> PlanKey {
        PlanKey {
            shader: 1,
            uniform_hash: 0,
            engine: Engine::Scalar,
            width: 64,
            height: 64,
            channels: 4,
            corners_hash: corners_hash(&[texcoord_corners()]),
        }
    }

    fn rect(x0: u32, y0: u32) -> TileRect {
        TileRect {
            col: x0 / 16,
            row: y0 / 16,
            x0,
            x1: x0 + 16,
            y0,
            y1: y0 + 16,
        }
    }

    fn key(program: u32, x0: u32, y0: u32) -> TileKey {
        TileKey::new(program, plan_key(), &rect(x0, y0))
    }

    #[test]
    fn lookup_counts_hits_misses_and_replayed_bytes() {
        let mut cache = TileSigCache::new();
        let k = key(1, 0, 0);
        assert!(cache.lookup(&k, (7, 8)).is_none());
        cache.insert(k, (7, 8), vec![0xAB; 1024]);
        assert_eq!(cache.lookup(&k, (7, 8)), Some(&[0xAB; 1024][..]));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 0));
        assert_eq!(s.bytes_replayed, 1024);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn signature_mismatch_invalidates_and_misses() {
        let mut cache = TileSigCache::new();
        let k = key(1, 16, 0);
        cache.insert(k, (1, 2), vec![0u8; 64]);
        assert!(cache.lookup(&k, (3, 4)).is_none(), "changed inputs miss");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (0, 1, 1));
        assert_eq!(s.entries, 0, "mismatched entry is dropped");
        // Re-storing under the new signature serves again.
        cache.insert(k, (3, 4), vec![1u8; 64]);
        assert!(cache.lookup(&k, (3, 4)).is_some());
    }

    #[test]
    fn flush_invalidates_every_entry() {
        let mut cache = TileSigCache::new();
        cache.insert(key(1, 0, 0), (0, 0), vec![0u8; 8]);
        cache.insert(key(1, 16, 0), (0, 0), vec![0u8; 8]);
        cache.flush();
        let s = cache.stats();
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.entries, 0);
        assert!(cache.lookup(&key(1, 0, 0), (0, 0)).is_none());
    }

    #[test]
    fn byte_budget_evicts_oldest_first() {
        let mut cache = TileSigCache::new();
        let chunk = TILE_CACHE_BYTE_CAP / 4;
        for i in 0..5u32 {
            cache.insert(key(i + 1, 0, 0), (0, 0), vec![0u8; chunk]);
        }
        assert!(cache.held_bytes <= TILE_CACHE_BYTE_CAP);
        assert!(
            cache.lookup(&key(1, 0, 0), (0, 0)).is_none(),
            "oldest entry evicted by byte budget"
        );
        assert!(cache.lookup(&key(5, 0, 0), (0, 0)).is_some());
    }

    #[test]
    fn entry_cap_is_bounded() {
        let mut cache = TileSigCache::new();
        for i in 0..(TILE_CACHE_ENTRY_CAP as u32 + 10) {
            cache.insert(key(i, 0, 0), (0, 0), vec![0u8; 4]);
        }
        assert_eq!(cache.stats().entries, TILE_CACHE_ENTRY_CAP);
    }

    #[test]
    fn footprint_clamps_and_pads() {
        // A hull inside the texture pads ±2 texels.
        assert_eq!(
            sample_footprint([0.25, 0.5], [0.5, 0.75], 64, 64),
            (14, 34, 30, 50)
        );
        // Hulls beyond the edges clamp to the texture.
        assert_eq!(
            sample_footprint([-3.0, -1.0], [4.0, 2.0], 32, 16),
            (0, 32, 0, 16)
        );
        // Non-finite hulls fall back to a full-extent edge.
        let (x0, x1, ..) = sample_footprint([f32::NAN, 0.0], [f32::NAN, 1.0], 8, 8);
        assert!(x1 <= 8 && x0 < x1);
        // A hull entirely beyond an edge still covers the border texel it
        // clamps onto — clamp-to-edge sampling reads it, so an empty
        // footprint would hide border content changes.
        assert_eq!(
            sample_footprint([-5.0, -4.0], [-2.0, -3.0], 8, 8),
            (0, 1, 0, 1)
        );
        assert_eq!(sample_footprint([3.0, 2.0], [5.0, 4.0], 8, 8), (7, 8, 7, 8));
        // Degenerate textures keep a degenerate footprint.
        assert_eq!(sample_footprint([0.0, 0.0], [1.0, 1.0], 0, 0), (0, 0, 0, 0));
    }

    #[test]
    fn signatures_see_every_component() {
        let r = rect(0, 0);
        let t = TexSig {
            width: 64,
            height: 64,
            channels: 4,
            linear: false,
            region: Some((0, 16, 0, 16)),
            crc: 99,
        };
        let base = tile_signature(1, 64, &r, &[t]);
        assert_eq!(base, tile_signature(1, 64, &r, &[t]), "deterministic");
        assert_ne!(base, tile_signature(2, 64, &r, &[t]), "column hash");
        assert_ne!(base, tile_signature(1, 128, &r, &[t]), "target height");
        assert_ne!(
            base,
            tile_signature(1, 64, &r, &[TexSig { crc: 100, ..t }]),
            "texture content"
        );
        assert_ne!(
            base,
            tile_signature(1, 64, &r, &[TexSig { region: None, ..t }]),
            "footprint mode"
        );
        assert_ne!(
            base,
            tile_signature(1, 64, &r, &[TexSig { linear: true, ..t }]),
            "filter"
        );
        assert_ne!(base, tile_signature(1, 64, &r, &[]), "texture count");
    }

    #[test]
    fn region_hash_covers_exactly_the_rect() {
        // 8x4 single-channel texture, bytes = y*8 + x.
        let data: Vec<u8> = (0..32u8).collect();
        let a = region_hash(&data, 8, 1, (2, 5, 1, 3));
        // Mutating inside the rect changes the digest...
        let mut inside = data.clone();
        inside[8 + 3] = 0xFF; // row 1, column 3
        assert_ne!(a, region_hash(&inside, 8, 1, (2, 5, 1, 3)));
        // ...mutating outside does not.
        let mut outside = data.clone();
        outside[0] = 0xFF;
        outside[3 * 8 + 7] = 0xFF;
        assert_eq!(a, region_hash(&outside, 8, 1, (2, 5, 1, 3)));
    }

    #[test]
    fn blit_and_extract_round_trip() {
        let width = 10u32;
        let r = TileRect {
            col: 0,
            row: 0,
            x0: 3,
            x1: 7,
            y0: 2,
            y1: 5,
        };
        let out: Vec<u8> = (0..width as usize * 6 * 2).map(|i| i as u8).collect();
        let tile = extract_tile(&out, &r, width, 2);
        assert_eq!(tile.len(), 4 * 3 * 2);
        let mut replay = vec![0u8; out.len()];
        blit_tile(&tile, &r, width, 2, &mut replay);
        for y in 0..6u32 {
            for x in 0..width {
                let i = (y as usize * width as usize + x as usize) * 2;
                let inside = (r.x0..r.x1).contains(&x) && (r.y0..r.y1).contains(&y);
                if inside {
                    assert_eq!(&replay[i..i + 2], &out[i..i + 2]);
                } else {
                    assert_eq!(&replay[i..i + 2], &[0, 0]);
                }
            }
        }
    }
}
