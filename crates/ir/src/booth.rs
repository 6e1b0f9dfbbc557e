//! Bit-level and Booth-digit sparsity of 8-bit values.
//!
//! The SmartExchange accelerator's bit-serial multipliers process only the
//! *essential* bits of each activation; with a 4-bit (radix-4) Booth
//! encoder in front (Section IV-B, after Bit-pragmatic \[1\] and
//! Bit-Tactical \[10\]), the work per multiplication is the number of
//! non-zero Booth digits. Fig. 4 reports both flavours of sparsity for six
//! networks; this module provides the exact counting.

/// Number of set bits in the two's-complement representation of an 8-bit
/// code (the "essential bits" Bit-pragmatic-style accelerators process).
///
/// # Examples
///
/// ```
/// use se_ir::booth;
///
/// assert_eq!(booth::nonzero_bits(0), 0);
/// assert_eq!(booth::nonzero_bits(5), 2);    // 0b0000_0101
/// assert_eq!(booth::nonzero_bits(-1), 8);   // 0b1111_1111
/// ```
pub fn nonzero_bits(code: i8) -> u32 {
    (code as u8).count_ones()
}

/// Radix-4 Booth digits of an 8-bit two's-complement value, least
/// significant first. Each digit is in `{-2, -1, 0, 1, 2}` and
/// `value = Σ digit[i] · 4^i`.
pub fn booth_digits(code: i8) -> [i8; 4] {
    let bits = code as u8;
    let bit = |i: i32| -> i8 {
        if i < 0 {
            0
        } else if i >= 7 {
            // Sign extension: bit 7 repeats for two's complement.
            ((bits >> 7) & 1) as i8
        } else {
            ((bits >> i) & 1) as i8
        }
    };
    let mut digits = [0i8; 4];
    for (i, d) in digits.iter_mut().enumerate() {
        let p = 2 * i as i32;
        *d = bit(p - 1) + bit(p) - 2 * bit(p + 1);
    }
    digits
}

/// Non-zero radix-4 Booth digits of every 8-bit code, indexed by the
/// code's two's-complement byte (`code as u8`).
///
/// Digit `i` is `b[2i-1] + b[2i] - 2·b[2i+1]` over the sign-extended bits
/// (`b[-1] = 0`), exactly as [`booth_digits`] computes it; a test checks
/// the table against [`booth_digits`] on all 256 codes.
pub const BOOTH_NONZERO_DIGITS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut code = 0;
    while code < 256 {
        // The code shifted up by one, so that bit 0 is the implicit
        // `b[-1] = 0` (the top digit reads no bit above `b[7]`).
        let bits = (code as u16) << 1;
        let mut i = 0;
        while i < 4 {
            let window = (bits >> (2 * i)) & 0b111;
            // A radix-4 digit is zero exactly when its three bits agree.
            if window != 0 && window != 0b111 {
                table[code] += 1;
            }
            i += 1;
        }
        code += 1;
    }
    table
};

/// Number of non-zero radix-4 Booth digits of an 8-bit value — the cycle
/// count of one bit-serial multiplication by this activation.
///
/// # Examples
///
/// ```
/// use se_ir::booth;
///
/// assert_eq!(booth::booth_nonzero_digits(0), 0);
/// assert_eq!(booth::booth_nonzero_digits(64), 1);  // a single power of 4
/// assert!(booth::booth_nonzero_digits(85) >= 3);   // 0b0101_0101 is dense
/// ```
#[inline]
pub fn booth_nonzero_digits(code: i8) -> u32 {
    u32::from(BOOTH_NONZERO_DIGITS[code as u8 as usize])
}

/// Aggregate bit/digit sparsity of a slice of 8-bit codes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BitSparsity {
    /// Fraction of zero bits (out of 8 per code), without Booth encoding.
    pub plain: f32,
    /// Fraction of zero Booth digits (out of 4 per code).
    pub booth: f32,
    /// Fraction of codes equal to zero.
    pub element: f32,
}

/// Computes the aggregate sparsity statistics over `codes`
/// (the per-model bars of Fig. 4).
pub fn bit_sparsity(codes: &[i8]) -> BitSparsity {
    if codes.is_empty() {
        return BitSparsity::default();
    }
    let mut set_bits = 0u64;
    let mut set_digits = 0u64;
    let mut zero_codes = 0u64;
    for &c in codes {
        set_bits += u64::from(nonzero_bits(c));
        set_digits += u64::from(booth_nonzero_digits(c));
        if c == 0 {
            zero_codes += 1;
        }
    }
    let n = codes.len() as f32;
    BitSparsity {
        plain: 1.0 - set_bits as f32 / (8.0 * n),
        booth: 1.0 - set_digits as f32 / (4.0 * n),
        element: zero_codes as f32 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booth_digits_reconstruct_every_value() {
        for v in i8::MIN..=i8::MAX {
            let d = booth_digits(v);
            let recon: i32 =
                d.iter().enumerate().map(|(i, &dv)| i32::from(dv) * 4i32.pow(i as u32)).sum();
            assert_eq!(recon, i32::from(v), "value {v} digits {d:?}");
        }
    }

    #[test]
    fn booth_digits_are_radix4_range() {
        for v in i8::MIN..=i8::MAX {
            for d in booth_digits(v) {
                assert!((-2..=2).contains(&d));
            }
        }
    }

    #[test]
    fn digit_table_matches_booth_digits_on_every_code() {
        for v in i8::MIN..=i8::MAX {
            let digits = booth_digits(v).iter().filter(|&&d| d != 0).count() as u32;
            assert_eq!(booth_nonzero_digits(v), digits, "value {v}");
        }
    }

    #[test]
    fn booth_digit_count_is_bounded() {
        for v in i8::MIN..=i8::MAX {
            assert!(booth_nonzero_digits(v) <= 4);
            if v != 0 {
                assert!(booth_nonzero_digits(v) >= 1, "non-zero {v} needs a digit");
            }
        }
    }

    #[test]
    fn powers_of_four_take_one_digit() {
        for &v in &[1i8, 4, 16, 64, -4, -16] {
            assert_eq!(booth_nonzero_digits(v), 1, "value {v}");
        }
    }

    #[test]
    fn runs_of_ones_are_cheap_with_booth() {
        // 0b0011_1111 = 63 = 64 - 1: two Booth digits, six set bits.
        assert_eq!(nonzero_bits(63), 6);
        assert_eq!(booth_nonzero_digits(63), 2);
    }

    #[test]
    fn aggregate_stats() {
        let s = bit_sparsity(&[0, 0, 64, -1]);
        assert_eq!(s.element, 0.5);
        // Set bits: 0 + 0 + 1 + 8 = 9 of 32.
        assert!((s.plain - (1.0 - 9.0 / 32.0)).abs() < 1e-6);
        assert_eq!(bit_sparsity(&[]), BitSparsity::default());
    }
}
