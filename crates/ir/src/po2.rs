use crate::{IrError, Result};

const MANT_BITS: u32 = 23;
const MANT_MASK: u32 = (1 << MANT_BITS) - 1;
const SIGN_MASK: u32 = 1 << 31;
const EXP_BIAS: i32 = 127;
/// The mantissa field of `√2` as an f32.
const SQRT2_MANT: u32 = std::f32::consts::SQRT_2.to_bits() & MANT_MASK;
/// How close (in mantissa ulps) to √2's mantissa [`Po2Set::quantize`]
/// defers to `log2().round()`. `log2` is accurate to about an ulp of its
/// result, at most 2^-17 for exponents in f32 range, while 256 mantissa
/// ulps move `log2` by about 2^-15; outside this window the bit test and
/// the rounded `log2` agree (checked exhaustively by the ignored test
/// `quantize_matches_log_domain_on_every_f32`).
const ROUNDING_GUARD: u32 = 256;

/// `±2^p` from a sign bit and `p` in `-127..=127`; `-127` (an all-zero
/// exponent field) gives a signed zero.
fn pow2_bits(sign: u32, p: i32) -> f32 {
    f32::from_bits(sign | (((p + EXP_BIAS) as u32) << MANT_BITS))
}

/// The power-of-2 quantization alphabet `Ω_P = {0} ∪ {±2^p | p ∈ P}` of
/// Eq. (2) in the paper, with `P` a contiguous integer range
/// `{max_exp - count + 1, …, max_exp}`.
///
/// A contiguous range is the hardware-natural choice: the exponent maps
/// directly to a shift amount in the rebuild engine's shift-and-add unit.
/// `|P| = count ≤ Np` controls the bit width of a non-zero code:
/// `code_bits = ceil(log2(2·count + 1))` (sign × count magnitudes + zero).
///
/// The paper's default configuration stores coefficients in 4 bits, which
/// accommodates `count = 7` exponents (e.g. `2^0 … 2^-6`) — exactly the
/// values visible in Fig. 1.
///
/// # Examples
///
/// ```
/// use se_ir::Po2Set;
///
/// let set = Po2Set::default(); // 4-bit: {0, ±2^0, ±2^-1, …, ±2^-6}
/// assert_eq!(set.code_bits(), 4);
/// assert_eq!(set.quantize(0.3), 0.25);     // nearest power of two
/// assert_eq!(set.quantize(-0.3), -0.25);
/// assert_eq!(set.quantize(0.0001), 0.0);   // underflows to zero
/// assert_eq!(set.quantize(7.0), 1.0);      // clamps to the largest value
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Po2Set {
    max_exp: i32,
    count: u32,
}

impl Po2Set {
    /// Creates a set with exponents `{max_exp - count + 1, …, max_exp}`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidPo2`] if `count == 0` or the exponent range
    /// leaves `f32` range.
    pub fn new(max_exp: i32, count: u32) -> Result<Self> {
        if count == 0 {
            return Err(IrError::InvalidPo2 { reason: "exponent set must be non-empty".into() });
        }
        // In i64: a count past i32::MAX must not wrap into a valid range.
        let min_exp = i64::from(max_exp) - i64::from(count) + 1;
        if !(-120..=120).contains(&max_exp) || !(-120..=120).contains(&min_exp) {
            return Err(IrError::InvalidPo2 {
                reason: format!("exponent range [{min_exp}, {max_exp}] outside f32 range"),
            });
        }
        Ok(Po2Set { max_exp, count })
    }

    /// Creates the largest set representable in `bits` bits with the given
    /// maximum exponent: `count = 2^(bits-1) - 1` exponents.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidPo2`] for `bits < 2` or an out-of-range
    /// exponent span.
    pub fn with_bits(max_exp: i32, bits: u32) -> Result<Self> {
        if bits < 2 {
            return Err(IrError::InvalidPo2 {
                reason: format!("{bits}-bit codes cannot hold sign + exponent"),
            });
        }
        Po2Set::new(max_exp, (1u32 << (bits - 1)) - 1)
    }

    /// Largest exponent in `P`.
    pub fn max_exp(&self) -> i32 {
        self.max_exp
    }

    /// Smallest exponent in `P`.
    pub fn min_exp(&self) -> i32 {
        self.max_exp - self.count as i32 + 1
    }

    /// Number of exponents `|P|`.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Bits needed for one coefficient code (zero + sign × magnitudes).
    pub fn code_bits(&self) -> u32 {
        let codes = 2 * self.count + 1;
        u32::BITS - (codes - 1).leading_zeros()
    }

    /// Rounds `x` to the nearest element of `Ω_P`.
    ///
    /// Rounding happens in the log domain (nearest exponent), the standard
    /// choice for power-of-2 quantizers: magnitudes below the halfway point
    /// under `2^min_exp` become zero, magnitudes above `2^max_exp` clamp.
    ///
    /// The nearest exponent is read from the bits: it is the exponent field,
    /// plus one when the mantissa lies above √2's. Mantissas within 256 ulps
    /// of √2's take the `log2().round()` path, so the result is the f32
    /// log-domain rounding bit for bit, including where `log2` itself rounds
    /// across the half-octave boundary.
    #[inline]
    pub fn quantize(&self, x: f32) -> f32 {
        match self.quantize_bits(x) {
            (q, false) => q,
            (_, true) => self.quantize_log_domain(x),
        }
    }

    /// The branch-free half of [`Po2Set::quantize`], for loops that should
    /// vectorize: the bit-arithmetic result, and whether `x` lies next to
    /// the half-octave boundary. When the flag is set the result may be
    /// off by one exponent and only `quantize` is exact.
    #[inline]
    pub fn quantize_bits(&self, x: f32) -> (f32, bool) {
        let bits = x.to_bits();
        let mant = bits & MANT_MASK;
        let field = (bits >> MANT_BITS) & 0xff;
        let p = field as i32 - EXP_BIAS + i32::from(mant > SQRT2_MANT);
        let out = pow2_bits(bits & SIGN_MASK, p.min(self.max_exp));
        // Zeros and subnormals have p < -120 <= min_exp; inf and NaN have
        // the all-ones field.
        let q = if p >= self.min_exp() && field != 0xff { out } else { 0.0 };
        (q, mant.abs_diff(SQRT2_MANT) <= ROUNDING_GUARD)
    }

    /// [`Po2Set::quantize`] through `log2().round()`, for mantissas next to
    /// the half-octave boundary.
    fn quantize_log_domain(&self, x: f32) -> f32 {
        if x == 0.0 || !x.is_finite() {
            return 0.0;
        }
        let sign = x.signum();
        let mag = x.abs();
        let p = mag.log2().round() as i32;
        if p > self.max_exp {
            return sign * (self.max_exp as f32).exp2();
        }
        if p < self.min_exp() {
            // Below the smallest representable exponent: check whether the
            // value still rounds up to 2^min_exp in the log domain.
            let min_val = (self.min_exp() as f32).exp2();
            // log-domain midpoint between 0 (−∞) and min_exp is −∞, so any
            // value whose nearest exponent is below min_exp becomes zero
            // unless it is within half an octave of min_exp.
            if mag >= min_val / std::f32::consts::SQRT_2 {
                return sign * min_val;
            }
            return 0.0;
        }
        sign * (p as f32).exp2()
    }

    /// Whether `x` is exactly representable in this set: zero, or a normal
    /// float with an empty mantissa and an exponent in `P`.
    ///
    /// Branch-free bit tests, so a fold over a slice vectorizes. Members
    /// other than zero have magnitude bits `field << 23` with `field` in
    /// `[min_exp + 127, max_exp + 127]`; one wrapping subtraction checks
    /// that range. It also rejects subnormals and inf/NaN, since `P` lies
    /// in `[-120, 120]`.
    #[inline]
    pub fn contains(&self, x: f32) -> bool {
        let mag = x.to_bits() & !SIGN_MASK;
        let lo = ((self.min_exp() + EXP_BIAS) as u32) << MANT_BITS;
        let hi = ((self.max_exp + EXP_BIAS) as u32) << MANT_BITS;
        (mag == 0) | ((mag & MANT_MASK == 0) & (mag.wrapping_sub(lo) <= hi - lo))
    }

    /// Encodes a representable value as a compact code
    /// (`0` = zero; otherwise `1 + 2·exp_index + sign_bit`).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidPo2`] if `x` is not in the set.
    pub fn encode(&self, x: f32) -> Result<u16> {
        if !self.contains(x) {
            return Err(IrError::InvalidPo2 { reason: format!("{x} is not in Ω_P") });
        }
        Ok(self.member_code(x))
    }

    /// [`Po2Set::encode`] of a value already known to be a member, without
    /// branches (a zero test would mispredict on a sparse `Ce`), so a loop
    /// over a checked slice vectorizes. A non-member gives a meaningless
    /// code.
    #[inline]
    pub(crate) fn member_code(&self, x: f32) -> u16 {
        let bits = x.to_bits();
        let p = ((bits >> MANT_BITS) & 0xff) as i32 - EXP_BIAS;
        let code = 1 + 2 * (self.max_exp - p) as u32 + (bits >> 31);
        (code * u32::from(bits & !SIGN_MASK != 0)) as u16
    }

    /// Decodes a code produced by [`Po2Set::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidPo2`] for out-of-range codes.
    pub fn decode(&self, code: u16) -> Result<f32> {
        if code == 0 {
            return Ok(0.0);
        }
        let idx = (code - 1) / 2;
        let sign = if (code - 1) % 2 == 1 { -1.0 } else { 1.0 };
        if u32::from(idx) >= self.count {
            return Err(IrError::InvalidPo2 { reason: format!("code {code} out of range") });
        }
        let p = self.max_exp - i32::from(idx);
        Ok(sign * (p as f32).exp2())
    }

    /// The exponents of `P` in decreasing order.
    pub fn exponents(&self) -> impl Iterator<Item = i32> + '_ {
        (0..self.count as i32).map(move |i| self.max_exp - i)
    }
}

impl Default for Po2Set {
    /// The paper's 4-bit coefficient configuration:
    /// exponents `{0, −1, …, −6}` (unit-normalised columns keep magnitudes
    /// at or below 1).
    fn default() -> Self {
        Po2Set::with_bits(0, 4).expect("static configuration is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_4bit_seven_exponents() {
        let s = Po2Set::default();
        assert_eq!(s.count(), 7);
        assert_eq!(s.code_bits(), 4);
        assert_eq!(s.max_exp(), 0);
        assert_eq!(s.min_exp(), -6);
        assert_eq!(s.exponents().collect::<Vec<_>>(), vec![0, -1, -2, -3, -4, -5, -6]);
    }

    #[test]
    fn quantize_rounds_in_log_domain() {
        let s = Po2Set::default();
        assert_eq!(s.quantize(1.0), 1.0);
        assert_eq!(s.quantize(0.5), 0.5);
        // 0.7: log2 = -0.51 -> rounds to -1 -> 0.5
        assert_eq!(s.quantize(0.7), 0.5);
        // 0.72: log2 = -0.47 -> rounds to 0 -> 1.0
        assert_eq!(s.quantize(0.72), 1.0);
        assert_eq!(s.quantize(-0.26), -0.25);
    }

    #[test]
    fn quantize_clamps_and_underflows() {
        let s = Po2Set::default();
        assert_eq!(s.quantize(100.0), 1.0);
        assert_eq!(s.quantize(-100.0), -1.0);
        assert_eq!(s.quantize(1e-6), 0.0);
        // Just above the min representable / sqrt(2) threshold survives.
        let min_val = 2.0f32.powi(-6);
        assert_eq!(s.quantize(min_val * 0.9), min_val);
        assert_eq!(s.quantize(f32::NAN), 0.0);
        assert_eq!(s.quantize(f32::INFINITY), 0.0);
    }

    #[test]
    fn contains_exact_membership() {
        let s = Po2Set::default();
        assert!(s.contains(0.0));
        assert!(s.contains(0.25));
        assert!(s.contains(-1.0));
        assert!(!s.contains(0.3));
        assert!(!s.contains(2.0)); // above max_exp
        assert!(!s.contains(2.0f32.powi(-7))); // below min_exp
    }

    #[test]
    fn contains_rejects_the_neighbours_of_every_member() {
        // One ulp above 256 has an f32 `log2` of exactly 8.
        let big = Po2Set::new(10, 20).unwrap();
        let off = f32::from_bits(256f32.to_bits() + 1);
        assert!(!big.contains(off));
        assert!(big.encode(off).is_err());
        for set in [Po2Set::default(), Po2Set::new(120, 241).unwrap()] {
            for p in set.exponents() {
                for v in [(p as f32).exp2(), -(p as f32).exp2()] {
                    assert!(set.contains(v), "{v} is a member");
                    for n in [f32::from_bits(v.to_bits() - 1), f32::from_bits(v.to_bits() + 1)] {
                        assert!(!set.contains(n), "{n:e} next to {v:e}");
                        assert!(set.encode(n).is_err(), "{n:e} encoded");
                    }
                }
            }
            assert!(!set.contains(f32::INFINITY) && !set.contains(f32::NAN));
        }
    }

    /// The membership rule `contains` must match: zero, or a normal float
    /// with an empty mantissa and an exponent in `P`.
    fn contains_reference(set: &Po2Set, x: f32) -> bool {
        let bits = x.to_bits();
        let p = ((bits >> MANT_BITS) & 0xff) as i32 - EXP_BIAS;
        x == 0.0 || (bits & MANT_MASK == 0 && (set.min_exp()..=set.max_exp()).contains(&p))
    }

    /// Alphabets at both ends of the exponent range plus the default.
    fn membership_sets() -> [Po2Set; 4] {
        [
            Po2Set::default(),
            Po2Set::new(120, 241).unwrap(),
            Po2Set::new(-114, 7).unwrap(),
            Po2Set::new(120, 1).unwrap(),
        ]
    }

    #[test]
    fn contains_matches_the_exponent_rule() {
        let mut probes = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        // Smallest, a middle and the largest subnormal, both signs.
        for m in [1, 1 << 11, MANT_MASK] {
            probes.extend([f32::from_bits(m), f32::from_bits(SIGN_MASK | m)]);
        }
        // Every ±2^p (mantissa 0) and its upper neighbour (mantissa 1).
        for field in 0..=255u32 {
            for m in [0, 1] {
                for sign in [0, SIGN_MASK] {
                    probes.push(f32::from_bits(sign | (field << MANT_BITS) | m));
                }
            }
        }
        // 1M random bit patterns (splitmix64).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        probes.extend((0..1 << 20).map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f32::from_bits((z ^ (z >> 31)) as u32)
        }));
        for set in membership_sets() {
            for &x in &probes {
                assert_eq!(
                    set.contains(x),
                    contains_reference(&set, x),
                    "{set:?} {:#010x}",
                    x.to_bits()
                );
            }
        }
    }

    /// `contains` against the exponent rule on every f32 bit pattern. CI
    /// runs it with
    /// `cargo test --release -p se-ir -- --ignored contains_matches_the_exponent_rule_on_every_f32`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn contains_matches_the_exponent_rule_on_every_f32() {
        for set in membership_sets() {
            let mismatches = count_on_every_f32(|x| set.contains(x) != contains_reference(&set, x));
            assert_eq!(mismatches, 0, "{set:?}");
        }
    }

    /// How many of the 2^32 f32 bit patterns satisfy `pred`, split across
    /// the available cores.
    fn count_on_every_f32(pred: impl Fn(f32) -> bool + Sync) -> u64 {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        let pred = &pred;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let end = ((t + 1) * span).min(1 << 32);
                        (t * span..end).filter(|&b| pred(f32::from_bits(b as u32))).count() as u64
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
    }

    /// The log-domain formula, the reference `quantize` must match bit for
    /// bit.
    fn quantize_reference(set: &Po2Set, x: f32) -> f32 {
        if x == 0.0 || !x.is_finite() {
            return 0.0;
        }
        let sign = x.signum();
        let mag = x.abs();
        let p = mag.log2().round() as i32;
        if p > set.max_exp() {
            return sign * (set.max_exp() as f32).exp2();
        }
        if p < set.min_exp() {
            let min_val = (set.min_exp() as f32).exp2();
            if mag >= min_val / std::f32::consts::SQRT_2 {
                return sign * min_val;
            }
            return 0.0;
        }
        sign * (p as f32).exp2()
    }

    /// Every f32 bit pattern, against the reference, bit for bit. Slow in
    /// debug builds; CI runs it with
    /// `cargo test --release -p se-ir -- --ignored quantize_matches_log_domain_on_every_f32`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn quantize_matches_log_domain_on_every_f32() {
        for set in [Po2Set::default(), Po2Set::new(120, 241).unwrap()] {
            let mismatches = count_on_every_f32(|x| {
                set.quantize(x).to_bits() != quantize_reference(&set, x).to_bits()
            });
            assert_eq!(mismatches, 0, "{set:?}");
        }
    }

    #[test]
    fn quantize_matches_log_domain_near_the_boundary() {
        // The fast path's edges: mantissas just outside the guard window,
        // every exponent, both signs, for a few alphabets.
        for set in
            [Po2Set::default(), Po2Set::new(120, 241).unwrap(), Po2Set::new(-114, 7).unwrap()]
        {
            for field in 0..=255u32 {
                for m in [
                    0,
                    1,
                    SQRT2_MANT - ROUNDING_GUARD - 1,
                    SQRT2_MANT,
                    SQRT2_MANT + ROUNDING_GUARD + 1,
                    MANT_MASK,
                ] {
                    for sign in [0, SIGN_MASK] {
                        let x = f32::from_bits(sign | (field << MANT_BITS) | m);
                        assert_eq!(
                            set.quantize(x).to_bits(),
                            quantize_reference(&set, x).to_bits(),
                            "{set:?} {x:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = Po2Set::default();
        for p in s.min_exp()..=s.max_exp() {
            for sign in [1.0f32, -1.0] {
                let v = sign * (p as f32).exp2();
                let code = s.encode(v).unwrap();
                assert!(u32::from(code) < (1 << s.code_bits()));
                assert_eq!(s.decode(code).unwrap(), v);
            }
        }
        assert_eq!(s.encode(0.0).unwrap(), 0);
        assert_eq!(s.decode(0).unwrap(), 0.0);
    }

    #[test]
    fn encode_rejects_unrepresentable() {
        let s = Po2Set::default();
        assert!(s.encode(0.3).is_err());
        assert!(s.decode(14).is_ok()); // 1 + 2*6 + 1 = 14 is the largest valid code
        assert!(s.decode(15).is_err()); // 15 would be exponent index 7 -> invalid
    }

    #[test]
    fn decode_rejects_out_of_range() {
        let s = Po2Set::new(0, 3).unwrap(); // codes 0..=6 valid
        assert!(s.decode(7).is_err());
    }

    #[test]
    fn code_bits_formula() {
        assert_eq!(Po2Set::new(0, 1).unwrap().code_bits(), 2); // 3 codes
        assert_eq!(Po2Set::new(0, 3).unwrap().code_bits(), 3); // 7 codes
        assert_eq!(Po2Set::new(0, 7).unwrap().code_bits(), 4); // 15 codes
        assert_eq!(Po2Set::new(0, 8).unwrap().code_bits(), 5); // 17 codes
    }

    #[test]
    fn with_bits_inverse_of_code_bits() {
        for bits in 2..8 {
            let s = Po2Set::with_bits(0, bits).unwrap();
            assert_eq!(s.code_bits(), bits);
        }
        assert!(Po2Set::with_bits(0, 1).is_err());
    }

    #[test]
    fn invalid_construction() {
        assert!(Po2Set::new(0, 0).is_err());
        assert!(Po2Set::new(-100, 60).is_err());
        // A hostile count would wrap to -1 as an i32 and pass a narrower
        // range check.
        assert!(Po2Set::new(0, u32::MAX).is_err());
        assert!(Po2Set::new(120, 1 << 31).is_err());
        assert!(Po2Set::new(120, 241).is_ok() && Po2Set::new(120, 242).is_err());
    }
}
