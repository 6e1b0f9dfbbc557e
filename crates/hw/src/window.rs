//! Shared cycle-model machinery: per-activation serial-cycle counts,
//! the strided window max and sum, and row-occupancy masks.
//!
//! The bit-serial MAC lanes of a PE line run in lockstep: one weight
//! element is broadcast to `dimF` lanes, each multiplying it by its own
//! activation over that activation's non-zero Booth digits. The step
//! therefore costs the **maximum** serial count across the window of
//! activations, while the **sum** of serial counts is the actual switching
//! work (PE energy). Both are computed here, with stride-aware windows and
//! zero padding treated as cost-free.

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
}

/// Per-element serial-cycle counts for an entire activation tensor.
pub fn serial_counts(q: &QuantTensor, mode: SerialMode) -> Vec<u8> {
    q.data().iter().map(|&c| mode.cycles(c)).collect()
}

/// Maximum and sum of the serial counts over a strided window of a row:
/// the lockstep step cost and the switching work feeding the PE energy
/// counter, from one walk.
///
/// `start` may be negative or run past the row (zero padding): out-of-range
/// lanes hold zero activations and cost nothing.
#[inline]
pub fn window(row: &[u8], start: isize, stride: usize, count: usize) -> (u8, u32) {
    let (mut max, mut sum) = (0u8, 0u32);
    let len = row.len() as isize;
    let stride = stride as isize;
    let mut x = start;
    for _ in 0..count {
        if x >= 0 && x < len {
            let v = row[x as usize];
            max = max.max(v);
            sum += u32::from(v);
        }
        x += stride;
    }
    (max, sum)
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
    let mut mask = Vec::with_capacity(c * h);
    for row in 0..c * h {
        mask.push(q.data()[row * w..(row + 1) * w].iter().any(|&x| x != 0));
    }
    mask
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
        let row = [1u8, 5, 2, 7, 3];
        let max = |start, stride, count| window(&row, start, stride, count).0;
        assert_eq!(max(0, 1, 3), 5);
        assert_eq!(max(1, 2, 2), 7); // elements 1 and 3
        assert_eq!(max(-2, 1, 3), 1); // two padding lanes
        assert_eq!(max(4, 1, 4), 3); // runs off the end
        assert_eq!(max(-10, 1, 2), 0); // fully out of range
    }

    #[test]
    fn window_sum_matches_manual() {
        let row = [1u8, 5, 2, 7, 3];
        let sum = |start, stride, count| window(&row, start, stride, count).1;
        assert_eq!(sum(0, 1, 5), 18);
        assert_eq!(sum(0, 2, 3), 1 + 2 + 3);
        assert_eq!(sum(-1, 1, 3), 6);
        assert_eq!(sum(4, 1, 4), 3);
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
