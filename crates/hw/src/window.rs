//! Shared cycle-model machinery: per-activation serial-cycle counts, the
//! strided window max, and row-occupancy masks.
//!
//! The bit-serial MAC lanes of a PE line run in lockstep: one weight
//! element is broadcast to `dimF` lanes, each multiplying it by its own
//! activation over that activation's non-zero Booth digits. The step
//! therefore costs the **maximum** serial count across the window of
//! activations (computed here, with stride-aware windows over rows the
//! caller zero-pads, so padding lanes cost nothing), while the **sum** of
//! serial counts is the actual switching work (PE energy), which the
//! simulator totals per row.

use se_ir::{booth, QuantTensor};

/// How many serial cycles one multiplication by a given 8-bit activation
/// code costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerialMode {
    /// Booth-encoded bit-serial lanes (the SmartExchange PE): non-zero
    /// radix-4 Booth digits; zero activations cost nothing.
    Booth,
    /// Plain essential-bit serial lanes (Bit-pragmatic): non-zero bits.
    PlainBits,
    /// Conventional parallel multipliers: one cycle per multiplication,
    /// including multiplications by zero.
    Unit,
}

impl SerialMode {
    /// Serial cycles for one activation code.
    #[inline]
    pub fn cycles(&self, code: i8) -> u8 {
        match self {
            SerialMode::Booth => booth::booth_nonzero_digits(code) as u8,
            SerialMode::PlainBits => booth::nonzero_bits(code) as u8,
            SerialMode::Unit => 1,
        }
    }

    /// Serial cycles of every code, indexed by its byte (`code as u8`).
    pub fn table(&self) -> [u8; 256] {
        std::array::from_fn(|byte| self.cycles(byte as u8 as i8))
    }
}

/// Per-element serial-cycle counts for an entire activation tensor.
pub fn serial_counts(q: &QuantTensor, mode: SerialMode) -> Vec<u8> {
    let table = mode.table();
    q.data().iter().map(|&c| table[usize::from(c as u8)]).collect()
}

/// Maximum of the serial counts over a strided window of a row: the
/// lockstep step cost.
///
/// The window's `count` lanes are `row[0]`, `row[stride]`, …: a caller
/// pads its rows with zero counts (cost-free lanes) so that a window never
/// needs to start before a row or run past it.
///
/// # Panics
///
/// Panics if `row` is shorter than a unit-stride window.
#[inline]
pub fn window_max(row: &[u8], stride: usize, count: usize) -> u8 {
    if stride == 1 {
        row[..count].iter().fold(0, |max, &v| max.max(v))
    } else {
        row.iter().step_by(stride).take(count).fold(0, |max, &v| max.max(v))
    }
}

/// Summed serial counts of every tap window of a weight row over `row`:
/// column `x` counts once per lane reading it, `reads[x]` times. This is
/// the switching work feeding the PE energy counter, summed over the
/// windows without walking each one.
#[inline]
pub fn window_sum(row: &[u8], reads: &[u32]) -> u64 {
    row.iter().zip(reads).map(|(&v, &n)| u64::from(v) * u64::from(n)).sum()
}

/// Per-input-row occupancy of a `(C, H, W)` activation map: `mask[c*H + y]`
/// is `true` when row `y` of channel `c` has at least one non-zero code —
/// exactly the 1-bit activation index the index selector consumes.
pub fn activation_row_nonzero(q: &QuantTensor) -> Vec<bool> {
    let s = q.shape();
    if s.len() != 3 {
        // FC-style flat inputs: treat each element as its own "row".
        return q.data().iter().map(|&c| c != 0).collect();
    }
    let (c, h, w) = (s[0], s[1], s[2]);
    if w == 0 {
        return vec![false; c * h];
    }
    // A branch-free OR over each row (it vectorizes).
    q.data().chunks_exact(w).map(|row| row.iter().fold(0, |any, &x| any | x) != 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_tensor::Tensor;

    fn quant(v: Vec<f32>, shape: &[usize]) -> QuantTensor {
        QuantTensor::quantize(&Tensor::from_vec(v, shape).unwrap(), 8).unwrap()
    }

    #[test]
    fn serial_modes_on_zero() {
        assert_eq!(SerialMode::Booth.cycles(0), 0);
        assert_eq!(SerialMode::PlainBits.cycles(0), 0);
        assert_eq!(SerialMode::Unit.cycles(0), 1);
    }

    #[test]
    fn booth_cheaper_than_plain_on_runs() {
        // 0b0111_1110 = 126: 6 set bits, but few Booth digits.
        assert!(SerialMode::Booth.cycles(126) < SerialMode::PlainBits.cycles(126));
    }

    #[test]
    fn window_max_respects_stride_and_padding() {
        // Two zero padding lanes in front of the row and two behind.
        let row = [0u8, 0, 1, 5, 2, 7, 3, 0, 0];
        let max = |start: usize, stride, count| window_max(&row[start..], stride, count);
        assert_eq!(max(2, 1, 3), 5);
        assert_eq!(max(3, 2, 2), 7); // elements 1 and 3
        assert_eq!(max(0, 1, 3), 1); // two padding lanes
        assert_eq!(max(6, 1, 3), 3); // runs into the back padding
        assert_eq!(max(0, 1, 2), 0); // padding only
        assert_eq!(max(6, 2, 2), 3); // a padding lane
    }

    #[test]
    fn window_sum_matches_manual() {
        let row = [0u8, 1, 5, 2, 7, 3, 0];
        // Three unit-stride windows of three lanes from column 1.
        let windows: [u64; 3] = [1 + 5 + 2, 5 + 2 + 7, 2 + 7 + 3];
        assert_eq!(window_sum(&row, &[0, 1, 2, 3, 2, 1, 0]), windows.iter().sum::<u64>());
        // Two stride-2 windows of two lanes, from columns 1 and 2.
        assert_eq!(window_sum(&row, &[0, 1, 1, 1, 1, 0, 0]), (1 + 2) + (5 + 7));
        assert_eq!(window_sum(&row, &[0; 7]), 0);
    }

    #[test]
    fn row_mask_flags_nonzero_rows() {
        let q = quant(vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.5], &[2, 2, 2]);
        assert_eq!(activation_row_nonzero(&q), vec![false, true, false, true]);
    }

    #[test]
    fn flat_inputs_use_element_mask() {
        let q = quant(vec![0.0, 1.0, 0.0], &[3]);
        assert_eq!(activation_row_nonzero(&q), vec![false, true, false]);
    }

    #[test]
    fn serial_counts_cover_tensor() {
        let q = quant(vec![0.0, 1.0, 0.25, 0.5], &[4]);
        let counts = serial_counts(&q, SerialMode::Booth);
        assert_eq!(counts.len(), 4);
        assert_eq!(counts[0], 0);
        assert!(counts[1] >= 1);
    }
}
