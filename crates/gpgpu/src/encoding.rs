//! The float ↔ RGBA8 texture encoding of Trompouki & Kosmidis (DATE 2016),
//! which the DATE 2017 paper builds on.
//!
//! OpenGL ES 2 exposes no float textures or float render targets, so GPGPU
//! data makes the round trip CPU float → normalised bytes → shader floats →
//! packed bytes → CPU float:
//!
//! * **CPU encode** ([`Encoding::encode`]): map a value from its declared
//!   range onto `[0, 1)` and split it over a texel's channels,
//!   most-significant byte first (radix 255, matching the in-shader `dot`
//!   reconstruction).
//! * **Shader decode** (`reconstr_in` in the paper's Fig. 2): a single
//!   `dot(texel, weights)` — one hardware instruction on embedded ISAs.
//! * **Shader encode** (`encode_out`): the classic `fract`-cascade pack,
//!   relying on the fixed-function RGBA8 quantiser to round each channel.
//! * **CPU decode** ([`Encoding::decode`]): radix-255 reconstruction.
//!
//! As the paper notes, the achievable precision is 24–32 bits: the fourth
//! byte's contribution sits at the edge of f32 arithmetic. The
//! [`Encoding::Fp24`] variant stores only three bytes — 25% less texture
//! bandwidth (the paper's fp24 optimisation) at ~16 useful bits.

use mgpu_gles::TextureFormat;

/// How many bytes of precision an encoding uses per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Encoding {
    /// Four bytes (RGBA8): 24–32-bit effective precision.
    #[default]
    Fp32,
    /// Three bytes (RGB8): the paper's 24-bit mode — 25% less bandwidth,
    /// `mul24`-friendly arithmetic.
    Fp24,
}

impl Encoding {
    /// The texture format carrying this encoding.
    #[must_use]
    pub fn texture_format(self) -> TextureFormat {
        match self {
            Encoding::Fp32 => TextureFormat::Rgba8,
            Encoding::Fp24 => TextureFormat::Rgb8,
        }
    }

    /// Bytes per encoded value.
    #[must_use]
    pub fn bytes_per_value(self) -> usize {
        self.texture_format().channels()
    }

    /// Worst-case absolute reconstruction error for values spanning
    /// `range` (CPU round trip; the shader adds f32 noise on top).
    #[must_use]
    pub fn quantum(self, range: f32) -> f32 {
        match self {
            Encoding::Fp32 => range / (255.0f32.powi(4)),
            Encoding::Fp24 => range / (255.0f32.powi(3)),
        }
    }
}

/// A linear mapping from application values onto the encodable `[0, 1)`
/// interval: `t = (v - lo) / (hi - lo)`.
///
/// Kernels bake the inverse mapping into their source, so every texture
/// carries its range with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Smallest representable value.
    pub lo: f32,
    /// One past the largest representable value.
    pub hi: f32,
}

impl Range {
    /// The unit range `[0, 1)`.
    #[must_use]
    pub const fn unit() -> Self {
        Range { lo: 0.0, hi: 1.0 }
    }

    /// A range from `lo` to `hi`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo`, either bound is non-finite, or the span
    /// `hi - lo` overflows to infinity (every value would then encode to
    /// zero bytes and decode to NaN).
    #[must_use]
    pub fn new(lo: f32, hi: f32) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && hi > lo && (hi - lo).is_finite(),
            "bad range [{lo}, {hi})"
        );
        Range { lo, hi }
    }

    /// The span `hi - lo`.
    #[must_use]
    pub fn span(&self) -> f32 {
        self.hi - self.lo
    }

    /// Maps a value into `[0, 1)`, clamping out-of-range inputs (like the
    /// GPU's output clamp).
    ///
    /// Boundary policy (documented and tested, so every layer of the
    /// stack agrees):
    ///
    /// * values at or above `hi` (including `+∞`) clamp to the largest
    ///   representable value, one quantum below `hi`;
    /// * values at or below `lo` (including `-∞`) clamp to `lo`;
    /// * `NaN` maps to `lo` — the encoding has no payload bits to carry
    ///   a NaN, and `lo` is the least surprising total ordering choice.
    #[must_use]
    pub fn normalize(&self, v: f32) -> f32 {
        let t = (v - self.lo) / self.span();
        if t.is_nan() {
            0.0
        } else {
            t.clamp(0.0, ONE_MINUS_EPS)
        }
    }

    /// Maps a normalised value back.
    #[must_use]
    pub fn denormalize(&self, t: f32) -> f32 {
        t * self.span() + self.lo
    }
}

/// Largest f32 strictly below 1.0 — the top of the encodable interval.
const ONE_MINUS_EPS: f32 = 1.0 - f32::EPSILON / 2.0;

/// Values converted together: the codec works on groups of this many
/// values so that its fixed-width digit loops compile to vector code.
const LANES: usize = 8;

/// 2^52. Adding it to a non-negative f64 below 2^52 rounds the value to an
/// integer, which then sits in the low bits of the sum's mantissa.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// The radix weights `255^-k` for `k = 1..=4`, built by the same `w /= 255`
/// division chain the scalar decode runs at run time, so each weight has
/// exactly that chain's bits (a closed form such as `1 / 255^4` rounds
/// differently).
const WEIGHTS: [f64; 4] = {
    let mut weights = [0.0; 4];
    let mut w = 1.0f64;
    let mut k = 0;
    while k < weights.len() {
        w /= 255.0;
        weights[k] = w;
        k += 1;
    }
    weights
};

/// Encodes one lane group into `W` radix-255 bytes per value, most
/// significant first.
///
/// The f64 digit arithmetic is the classic `r *= 255; d = floor(r);
/// r -= d` cascade. Its floor is exact without libm: `(p + 2^52) - 2^52`
/// rounds `p` to an integer, and one is subtracted when that rounded up.
/// The digit byte is then the low byte of `d + 2^52`. [`Range::normalize`]
/// already clamps into `[0, 1)` (or yields `-0.0`), so every `r` stays
/// below 1, every `p` below 255, and no digit needs a clamp of its own.
#[inline(always)]
fn encode_group<const W: usize>(values: &[f32; LANES], range: &Range, out: &mut [[u8; W]; LANES]) {
    let mut r = [0.0f64; LANES];
    for (r, &v) in r.iter_mut().zip(values) {
        *r = f64::from(range.normalize(v));
    }
    let mut digits = [[0u8; LANES]; W];
    for row in &mut digits {
        for (byte, r) in row.iter_mut().zip(&mut r) {
            let p = *r * 255.0;
            let rounded = (p + TWO_POW_52) - TWO_POW_52;
            let digit = if rounded > p { rounded - 1.0 } else { rounded };
            *byte = (digit + TWO_POW_52).to_bits() as u8;
            *r = p - digit;
        }
    }
    for (lane, texel) in out.iter_mut().enumerate() {
        for (byte, row) in texel.iter_mut().zip(&digits) {
            *byte = row[lane];
        }
    }
}

/// Decodes one lane group of `W`-byte texels back to values of `range`.
#[inline(always)]
fn decode_group<const W: usize>(texels: &[[u8; W]; LANES], range: &Range, out: &mut [f32; LANES]) {
    let mut t = [0.0f64; LANES];
    for (k, w) in WEIGHTS.iter().enumerate().take(W) {
        for (t, texel) in t.iter_mut().zip(texels) {
            *t += f64::from(texel[k]) * w;
        }
    }
    for (out, t) in out.iter_mut().zip(t) {
        *out = range.denormalize(t as f32);
    }
}

/// [`Encoding::encode`] at a fixed width of `W` bytes per value.
fn encode_width<const W: usize>(values: &[f32], range: &Range) -> Vec<u8> {
    let mut out = vec![[0u8; W]; values.len()];
    let (groups, tail) = values.as_chunks::<LANES>();
    let (out_groups, out_tail) = out.as_chunks_mut::<LANES>();
    for (group, texels) in groups.iter().zip(out_groups) {
        encode_group(group, range, texels);
    }
    if !tail.is_empty() {
        let mut group = [0.0f32; LANES];
        group[..tail.len()].copy_from_slice(tail);
        let mut texels = [[0u8; W]; LANES];
        encode_group(&group, range, &mut texels);
        out_tail.copy_from_slice(&texels[..tail.len()]);
    }
    out.into_flattened()
}

/// [`Encoding::decode`] at a fixed width of `W` bytes per value.
fn decode_width<const W: usize>(bytes: &[u8], range: &Range) -> Vec<f32> {
    let (texels, rest) = bytes.as_chunks::<W>();
    assert!(rest.is_empty(), "byte slice not a whole number of texels");
    let mut out = vec![0.0f32; texels.len()];
    let (groups, tail) = texels.as_chunks::<LANES>();
    let (out_groups, out_tail) = out.as_chunks_mut::<LANES>();
    for (group, values) in groups.iter().zip(out_groups) {
        decode_group(group, range, values);
    }
    if !tail.is_empty() {
        let mut group = [[0u8; W]; LANES];
        group[..tail.len()].copy_from_slice(tail);
        let mut values = [0.0f32; LANES];
        decode_group(&group, range, &mut values);
        out_tail.copy_from_slice(&values[..tail.len()]);
    }
    out
}

impl Encoding {
    /// Encodes a slice of values into texel bytes for a texture of this
    /// encoding's format.
    ///
    /// # Examples
    ///
    /// ```
    /// use mgpu_gpgpu::{Encoding, Range};
    ///
    /// let range = Range::new(0.0, 4.0);
    /// let bytes = Encoding::Fp32.encode(&[0.0, 1.5, 3.999], &range);
    /// let back = Encoding::Fp32.decode(&bytes, &range);
    /// assert!((back[1] - 1.5).abs() < 1e-6);
    /// ```
    #[must_use]
    pub fn encode(&self, values: &[f32], range: &Range) -> Vec<u8> {
        match self {
            Encoding::Fp32 => encode_width::<4>(values, range),
            Encoding::Fp24 => encode_width::<3>(values, range),
        }
    }

    /// Decodes texel bytes produced by [`Encoding::encode`] or by a kernel's
    /// `encode_out`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a multiple of the encoding width.
    #[must_use]
    pub fn decode(&self, bytes: &[u8], range: &Range) -> Vec<f32> {
        match self {
            Encoding::Fp32 => decode_width::<4>(bytes, range),
            Encoding::Fp24 => decode_width::<3>(bytes, range),
        }
    }

    /// The kernel-language source of the reconstruction function
    /// (`reconstr_in` in the paper): unpack a sampled texel to a normalised
    /// float with a single `dot`.
    #[must_use]
    pub fn decode_fn_source(&self) -> String {
        match self {
            Encoding::Fp32 => "float unpack(vec4 c) {\n    return dot(c, vec4(1.0, 0.00392156862745098, 0.0000153787004998078, 0.0000000603086314193));\n}\n".to_owned(),
            Encoding::Fp24 => "float unpack(vec4 c) {\n    return dot(c.xyz, vec3(1.0, 0.00392156862745098, 0.0000153787004998078));\n}\n".to_owned(),
        }
    }

    /// The kernel-language source of the output packing function
    /// (`encode_out` in the paper): the `fract` cascade, leaving the final
    /// byte rounding to the RGBA8 output stage.
    #[must_use]
    pub fn encode_fn_source(&self) -> String {
        match self {
            Encoding::Fp32 => "vec4 pack(float t) {\n    float s = clamp(t, 0.0, 0.9999999);\n    vec4 enc = fract(s * vec4(1.0, 255.0, 65025.0, 16581375.0));\n    enc = enc - vec4(enc.y, enc.z, enc.w, 0.0) * 0.00392156862745098;\n    return enc;\n}\n".to_owned(),
            Encoding::Fp24 => "vec4 pack(float t) {\n    float s = clamp(t, 0.0, 0.9999999);\n    vec3 enc3 = fract(s * vec3(1.0, 255.0, 65025.0));\n    enc3 = enc3 - vec3(enc3.y, enc3.z, 0.0) * 0.00392156862745098;\n    return vec4(enc3, 1.0);\n}\n".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar per-value encode the lane-group codec replaced, kept as
    /// the oracle it must match byte for byte.
    fn encode_bytes(t: f32, out: &mut [u8]) {
        let mut r = f64::from(t.clamp(0.0, ONE_MINUS_EPS));
        for b in out.iter_mut() {
            r *= 255.0;
            let digit = r.floor().min(255.0);
            *b = digit as u8;
            r -= digit;
        }
    }

    /// The scalar per-value decode the lane-group codec replaced.
    fn decode_bytes(bytes: &[u8]) -> f32 {
        let mut t = 0.0f64;
        let mut w = 1.0f64;
        for &b in bytes {
            w /= 255.0;
            t += f64::from(b) * w;
        }
        t as f32
    }

    const ENCODINGS: [Encoding; 2] = [Encoding::Fp32, Encoding::Fp24];

    /// Number of `values` whose codec bytes differ from the oracle's.
    fn encode_mismatches(enc: Encoding, values: &[f32], range: &Range) -> usize {
        let n = enc.bytes_per_value();
        let got = enc.encode(values, range);
        assert_eq!(got.len(), values.len() * n);
        let mut want = [0u8; 4];
        values
            .iter()
            .zip(got.chunks_exact(n))
            .filter(|(v, got)| {
                encode_bytes(range.normalize(**v), &mut want[..n]);
                *got != &want[..n]
            })
            .count()
    }

    /// Number of texels in `bytes` whose codec value differs from the
    /// oracle's in any bit.
    fn decode_mismatches(enc: Encoding, bytes: &[u8], range: &Range) -> usize {
        let got = enc.decode(bytes, range);
        let texels = bytes.chunks_exact(enc.bytes_per_value());
        assert_eq!(got.len(), texels.len());
        got.iter()
            .zip(texels)
            .filter(|(got, texel)| {
                got.to_bits() != range.denormalize(decode_bytes(texel)).to_bits()
            })
            .count()
    }

    /// Encode mismatches over the f32 bit patterns of `[0, 1)` taken every
    /// `stride`th, in batches so memory stays small.
    fn unit_interval_mismatches(enc: Encoding, stride: usize) -> usize {
        let mut patterns = (0..1.0f32.to_bits()).step_by(stride).map(f32::from_bits);
        let mut batch = Vec::with_capacity(1 << 16);
        let mut mismatches = 0;
        loop {
            batch.clear();
            batch.extend(patterns.by_ref().take(1 << 16));
            if batch.is_empty() {
                return mismatches;
            }
            mismatches += encode_mismatches(enc, &batch, &Range::unit());
        }
    }

    /// Decode mismatches over every `stride`th texel pattern of `enc`'s
    /// width.
    fn pattern_mismatches(enc: Encoding, stride: usize, range: &Range) -> usize {
        let n = enc.bytes_per_value();
        let mut patterns = (0..1u64 << (8 * n)).step_by(stride);
        let mut batch = Vec::with_capacity(n << 16);
        let mut mismatches = 0;
        loop {
            batch.clear();
            for p in patterns.by_ref().take(1 << 16) {
                batch.extend_from_slice(&p.to_be_bytes()[8 - n..]);
            }
            if batch.is_empty() {
                return mismatches;
            }
            mismatches += decode_mismatches(enc, &batch, range);
        }
    }

    #[test]
    fn encode_matches_oracle_on_edge_values() {
        let mut values = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            -1.0,
            1.0,
            1.5,
            2.0,
            1e30,
            -1e-30,
            ONE_MINUS_EPS,
        ];
        // Every power of two in [2^-149, 1) with its f32 neighbours.
        let mut p = f32::from_bits(1);
        while p < 1.0 {
            values.extend([p.next_down(), p, p.next_up()]);
            p *= 2.0;
        }
        for range in [
            Range::unit(),
            Range::new(-2.0, 6.0),
            Range::new(1e3, 1e3 + 0.5),
        ] {
            for enc in ENCODINGS {
                assert_eq!(
                    encode_mismatches(enc, &values, &range),
                    0,
                    "{enc:?} {range:?}"
                );
            }
        }
    }

    #[test]
    fn encode_matches_oracle_on_a_strided_unit_interval_sweep() {
        // Every 251st bit pattern: about 4.2M values per width.
        for enc in ENCODINGS {
            assert_eq!(unit_interval_mismatches(enc, 251), 0, "{enc:?}");
        }
    }

    /// Every slice length from empty to two lane groups plus one, so each
    /// partial-group length is covered in both directions.
    #[test]
    fn codec_matches_oracle_at_every_partial_group_length() {
        let mut rng = mgpu_prop::Rng::new(14);
        let range = Range::new(-1.0, 3.0);
        for enc in ENCODINGS {
            for len in 0..=2 * LANES + 1 {
                let values: Vec<f32> = (0..len).map(|_| rng.f32(-1.5, 3.5)).collect();
                assert_eq!(
                    encode_mismatches(enc, &values, &range),
                    0,
                    "{enc:?} len {len}"
                );
                let bytes: Vec<u8> = (0..len * enc.bytes_per_value()).map(|_| rng.u8()).collect();
                assert_eq!(
                    decode_mismatches(enc, &bytes, &range),
                    0,
                    "{enc:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn decode_matches_oracle_on_every_three_byte_pattern() {
        assert_eq!(pattern_mismatches(Encoding::Fp24, 1, &Range::unit()), 0);
        assert_eq!(
            pattern_mismatches(Encoding::Fp24, 1, &Range::new(-3.0, 5.0)),
            0
        );
    }

    #[test]
    fn decode_matches_oracle_on_a_stride_of_four_byte_patterns() {
        // Every 251st pattern: about 17M texels per range.
        assert_eq!(pattern_mismatches(Encoding::Fp32, 251, &Range::unit()), 0);
        assert_eq!(
            pattern_mismatches(Encoding::Fp32, 251, &Range::new(-3.0, 5.0)),
            0
        );
    }

    #[test]
    fn weight_constants_match_the_runtime_division_chain() {
        let mut w = 1.0f64;
        for weight in WEIGHTS {
            w /= std::hint::black_box(255.0);
            assert_eq!(weight.to_bits(), w.to_bits());
        }
    }

    /// Every f32 in `[0, 1)`, and `-0.0`, for both widths: the codec is
    /// exact by sweep, not by sample. Takes about a minute in release:
    /// `cargo test --release -p mgpu-gpgpu --lib -- --ignored`.
    #[test]
    #[ignore = "exhaustive sweep; run with --release -- --ignored"]
    fn encode_matches_oracle_on_every_unit_interval_f32() {
        for enc in ENCODINGS {
            let mismatches =
                unit_interval_mismatches(enc, 1) + encode_mismatches(enc, &[-0.0], &Range::unit());
            eprintln!("{enc:?}: {mismatches} mismatches over every f32 in [0, 1)");
            assert_eq!(mismatches, 0, "{enc:?}");
        }
    }

    /// Every four-byte pattern, the decode counterpart of the sweep above
    /// (the three-byte patterns are all covered by the tier-1 test).
    #[test]
    #[ignore = "exhaustive sweep; run with --release -- --ignored"]
    fn decode_matches_oracle_on_every_four_byte_pattern() {
        let mismatches = pattern_mismatches(Encoding::Fp32, 1, &Range::unit());
        eprintln!("Fp32: {mismatches} mismatches over every four-byte pattern");
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn cpu_round_trip_is_tight() {
        let range = Range::new(-2.0, 2.0);
        let values = [-2.0, -1.3333, 0.0, 0.5, 1.999, 1.9999999];
        let enc = Encoding::Fp32;
        let bytes = enc.encode(&values, &range);
        let back = enc.decode(&bytes, &range);
        // f32 normalise/denormalise rounding dominates the radix-255
        // quantum for Fp32, so tolerate both.
        let tol = (enc.quantum(range.span()) * 2.0).max(range.span() * f32::EPSILON * 4.0);
        for (v, b) in values.iter().zip(&back) {
            assert!((v - b).abs() <= tol, "{v} -> {b}");
        }
    }

    #[test]
    fn fp24_round_trip_is_coarser_but_close() {
        let range = Range::unit();
        let enc = Encoding::Fp24;
        let bytes = enc.encode(&[0.123456], &range);
        assert_eq!(bytes.len(), 3);
        let back = enc.decode(&bytes, &range)[0];
        assert!((back - 0.123456).abs() < enc.quantum(1.0) * 2.0);
        assert!(enc.quantum(1.0) > Encoding::Fp32.quantum(1.0));
    }

    #[test]
    fn out_of_range_values_clamp() {
        let range = Range::unit();
        let bytes = Encoding::Fp32.encode(&[-5.0, 7.0], &range);
        let back = Encoding::Fp32.decode(&bytes, &range);
        assert!(back[0].abs() < 1e-6);
        assert!((back[1] - 1.0).abs() < 1e-4);
        assert!(back[1] < 1.0);
    }

    /// Encode → decode stays within one quantum (plus f32
    /// normalise/denormalise rounding) for *every* in-range value,
    /// including both endpoints: `lo` itself and the largest
    /// representable value just below `hi`.
    #[test]
    fn round_trip_stays_within_quantum_for_all_in_range_values() {
        use mgpu_prop::{run_cases, Rng};

        run_cases(512, |rng: &mut Rng| {
            let lo = rng.f32(-100.0, 100.0);
            let span = rng.f32(0.1, 200.0);
            let range = Range::new(lo, lo + span);
            let enc = if rng.bool() {
                Encoding::Fp32
            } else {
                Encoding::Fp24
            };
            // The endpoints, the largest f32 below hi, and random interior
            // points.
            let top = f32::from_bits(range.hi.to_bits() - 1);
            let mut values = vec![range.lo, top, range.denormalize(ONE_MINUS_EPS)];
            for _ in 0..5 {
                values.push(rng.f32(range.lo, range.hi));
            }
            values.retain(|v| *v >= range.lo && *v < range.hi);
            let tol = enc.quantum(range.span()) + (lo.abs() + span) * f32::EPSILON * 4.0;
            let back = enc.decode(&enc.encode(&values, &range), &range);
            for (v, b) in values.iter().zip(&back) {
                assert!((v - b).abs() <= tol, "{v} -> {b} in {range:?} ({enc:?})");
                assert!(
                    *b >= range.lo - tol && *b < range.hi,
                    "{b} escapes {range:?}"
                );
            }
            // `lo` round-trips exactly: it normalises to 0, all-zero bytes.
            assert_eq!(back[0], range.lo);
        });
    }

    /// The documented boundary policy: ≥ `hi` clamps to just below `hi`,
    /// ≤ `lo` (and `NaN`) map to `lo`, and infinities behave like
    /// out-of-range finite values.
    #[test]
    fn non_finite_and_out_of_range_policy() {
        let range = Range::new(-2.0, 6.0);
        for enc in [Encoding::Fp32, Encoding::Fp24] {
            let values = [
                f32::NAN,
                f32::NEG_INFINITY,
                f32::INFINITY,
                range.hi,
                range.hi + 1e3,
                range.lo - 1e3,
            ];
            let back = enc.decode(&enc.encode(&values, &range), &range);
            assert_eq!(back[0], range.lo, "NaN maps to lo ({enc:?})");
            assert_eq!(back[1], range.lo, "-inf clamps to lo ({enc:?})");
            assert_eq!(back[5], range.lo, "below-range clamps to lo ({enc:?})");
            for (i, why) in [(2, "+inf"), (3, "hi"), (4, "above-range")] {
                assert!(back[i] < range.hi, "{why} must clamp below hi ({enc:?})");
                assert!(
                    back[i] > range.hi - 2.0 * enc.quantum(range.span()) - 1e-5,
                    "{why} clamps to the top of the range ({enc:?})"
                );
            }
        }
    }

    #[test]
    fn encoding_is_monotone() {
        let range = Range::unit();
        let enc = Encoding::Fp32;
        let mut prev = -1.0f32;
        for i in 0..1000 {
            let v = i as f32 / 1000.0;
            let bytes = enc.encode(&[v], &range);
            let back = enc.decode(&bytes, &range)[0];
            assert!(back >= prev, "decode not monotone at {v}");
            prev = back;
        }
    }

    #[test]
    fn formats_match_encoding() {
        assert_eq!(Encoding::Fp32.texture_format(), TextureFormat::Rgba8);
        assert_eq!(Encoding::Fp24.texture_format(), TextureFormat::Rgb8);
        assert_eq!(Encoding::Fp32.bytes_per_value(), 4);
        assert_eq!(Encoding::Fp24.bytes_per_value(), 3);
    }

    #[test]
    fn range_validation() {
        let r = Range::new(2.0, 10.0);
        assert_eq!(r.span(), 8.0);
        assert_eq!(r.normalize(6.0), 0.5);
        assert_eq!(r.denormalize(0.5), 6.0);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn inverted_range_panics() {
        let _ = Range::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn overflowing_span_panics() {
        let _ = Range::new(-3e38, 3e38);
    }

    #[test]
    fn shader_decode_matches_cpu_encode() {
        // Compile the unpack function and check it reconstructs what
        // encode() produced, through the actual shader VM.
        use mgpu_shader::{compile, Executor, UniformValues};

        let src = format!(
            "{}varying vec2 v;\nuniform vec4 u_texel;\nvoid main() {{ gl_FragColor = vec4(unpack(u_texel)); }}\n",
            Encoding::Fp32.decode_fn_source()
        );
        let sh = compile(&src).unwrap();

        let range = Range::unit();
        for &v in &[0.0f32, 0.25, 0.5, 0.123_456_79, 0.999] {
            let bytes = Encoding::Fp32.encode(&[v], &range);
            let texel = [
                f32::from(bytes[0]) / 255.0,
                f32::from(bytes[1]) / 255.0,
                f32::from(bytes[2]) / 255.0,
                f32::from(bytes[3]) / 255.0,
            ];
            let mut uniforms = UniformValues::new();
            uniforms.set("u_texel", texel);
            let mut ex = Executor::new(&sh, &uniforms).unwrap();
            let got = ex.run(&[[0.0; 4]], &[]).unwrap()[0];
            assert!((got - v).abs() < 3e-6, "{v} -> {got}");
        }
    }

    #[test]
    fn shader_pack_round_trips_through_quantizer() {
        // pack() in the VM + RGBA8 quantisation + CPU decode ≈ identity.
        use mgpu_gles::raster::quantize_rgba8;
        use mgpu_shader::{compile, Executor, UniformValues};

        let src = format!(
            "{}varying vec2 v;\nuniform float u_t;\nvoid main() {{ gl_FragColor = pack(u_t); }}\n",
            Encoding::Fp32.encode_fn_source()
        );
        let sh = compile(&src).unwrap();
        let range = Range::unit();

        for &t in &[0.0f32, 0.1, 0.5, 0.754321, 0.999999] {
            let mut uniforms = UniformValues::new();
            uniforms.set_scalar("u_t", t);
            let mut ex = Executor::new(&sh, &uniforms).unwrap();
            let rgba = ex.run(&[[0.0; 4]], &[]).unwrap();
            let bytes = quantize_rgba8(rgba);
            let back = Encoding::Fp32.decode(&bytes, &range)[0];
            assert!((back - t).abs() < 4e-6, "{t} -> {back} ({bytes:?})");
        }
    }

    #[test]
    fn fp24_shader_pack_round_trips() {
        use mgpu_gles::raster::quantize_rgba8;
        use mgpu_shader::{compile, Executor, UniformValues};

        let src = format!(
            "{}varying vec2 v;\nuniform float u_t;\nvoid main() {{ gl_FragColor = pack(u_t); }}\n",
            Encoding::Fp24.encode_fn_source()
        );
        let sh = compile(&src).unwrap();
        for &t in &[0.0f32, 0.33, 0.66, 0.999] {
            let mut uniforms = UniformValues::new();
            uniforms.set_scalar("u_t", t);
            let mut ex = Executor::new(&sh, &uniforms).unwrap();
            let rgba = ex.run(&[[0.0; 4]], &[]).unwrap();
            let bytes = quantize_rgba8(rgba);
            let back = Encoding::Fp24.decode(&bytes[..3], &Range::unit())[0];
            assert!(
                (back - t).abs() < 2.0 * Encoding::Fp24.quantum(1.0),
                "{t} -> {back}"
            );
        }
    }
}
