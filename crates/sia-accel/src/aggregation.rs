//! The aggregation core's batch-norm coefficients (paper §III-B). The
//! core itself — batch norm on the partial sums handed over by the spiking
//! core, then the IF/LIF activation on the ping-pong membranes — runs in
//! [`crate::SiaMachine`]'s layer epilogue, which applies these per psum.

use sia_fixed::sat::add16;
use sia_fixed::Q8_8;

/// Per-channel batch-norm coefficients as held in the configuration
/// registers (streamed from the PS "layerwise as part of the
/// configuration").
#[derive(Clone, Debug, PartialEq)]
pub struct BnCoefficients {
    /// Multiplier `G` per channel (Q8.8).
    pub g: Vec<Q8_8>,
    /// Offset `H` per channel (membrane LSBs, sign folded).
    pub h: Vec<i16>,
}

impl BnCoefficients {
    /// Applies `y·G + H` for channel `ch` — one pass through the
    /// fixed-point multiplier and adder.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[inline]
    #[must_use]
    pub fn apply(&self, psum: i16, ch: usize) -> i16 {
        add16(self.g[ch].mul_int(psum), self.h[ch])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bn_apply_scales_and_offsets() {
        let bn = BnCoefficients {
            g: vec![Q8_8::from_f32(0.5), Q8_8::from_f32(2.0)],
            h: vec![10, -5],
        };
        assert_eq!(bn.apply(100, 0), 60);
        assert_eq!(bn.apply(100, 1), 195);
    }
}
