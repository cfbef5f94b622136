//! Input encoding: the PS-side "frame data conversion" (paper §IV).
//!
//! Non-spiking inputs (images) are quantised once to INT8 codes and injected
//! as a *constant current* into the first convolution at every timestep —
//! the standard direct-encoding scheme for converted SNNs.

use sia_fixed::{quantize_i8, QuantScale};
use sia_tensor::Tensor;

/// Quantises a `C×H×W` image to INT8 codes under `scale`.
///
/// # Panics
///
/// Panics if `img` is not rank-3.
#[must_use]
pub fn encode_image(img: &Tensor, scale: QuantScale) -> Vec<i8> {
    assert_eq!(img.shape().rank(), 3, "expected C×H×W image");
    img.data().iter().map(|&v| quantize_i8(v, scale)).collect()
}

/// The float view of encoded codes (the reference runner's input): each code
/// dequantised back, i.e. the value the integer path actually sees.
#[must_use]
pub fn decode_codes(codes: &[i8], scale: QuantScale) -> Vec<f32> {
    codes
        .iter()
        .map(|&c| sia_fixed::dequantize_i8(c, scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_within_one_lsb() {
        let img = Tensor::from_vec(vec![1, 2, 2], vec![0.1, -0.5, 0.9, 0.0]);
        let scale = QuantScale::for_max_abs(1.0);
        let codes = encode_image(&img, scale);
        let back = decode_codes(&codes, scale);
        for (b, v) in back.iter().zip(img.data()) {
            assert!((b - v).abs() <= scale.scale());
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let img = Tensor::full(vec![3, 4, 4], 0.77);
        let scale = QuantScale::new(7);
        assert_eq!(encode_image(&img, scale), encode_image(&img, scale));
    }
}

/// A binary event stream: one spike frame per timestep — the "event-driven
/// data streams \[transferred\] directly to the SIA" of paper §IV (DVS-style
/// input that skips the PS frame conversion entirely).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventStream {
    /// Channels of each frame.
    pub channels: usize,
    /// Frame height.
    pub h: usize,
    /// Frame width.
    pub w: usize,
    /// One binary `[C·H·W]` bitmap per timestep.
    pub frames: Vec<Vec<u8>>,
}

impl EventStream {
    /// Number of timesteps in the stream.
    #[must_use]
    pub fn timesteps(&self) -> usize {
        self.frames.len()
    }

    /// Mean event rate over the whole stream.
    #[must_use]
    pub fn rate(&self) -> f64 {
        let total: u64 = self
            .frames
            .iter()
            .map(|f| f.iter().map(|&v| u64::from(v)).sum::<u64>())
            .sum();
        let denom = (self.channels * self.h * self.w * self.frames.len().max(1)) as f64;
        total as f64 / denom.max(1.0)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any frame has the wrong length or a non-binary value.
    pub fn validate(&self) {
        let len = self.channels * self.h * self.w;
        for (t, f) in self.frames.iter().enumerate() {
            assert_eq!(f.len(), len, "frame {t} has wrong length");
            assert!(f.iter().all(|&v| v <= 1), "frame {t} is not binary");
        }
    }
}

/// Rate-encodes an image into `timesteps` event frames by **error
/// diffusion**: each pixel carries an accumulator that integrates
/// `x / value_per_event` per timestep and emits an event whenever it
/// crosses 1 — deterministic, hardware-friendly, and exact in total count
/// (⌊x·T/value⌋ events over T timesteps). Negative pixels emit nothing
/// (events are unsigned, like a DVS ON-channel).
///
/// `value_per_event` is the real value one event represents; the converter
/// must use the same value for the first layer's input gain.
///
/// # Panics
///
/// Panics if `img` is not rank-3 or `value_per_event <= 0`.
#[must_use]
pub fn rate_encode(img: &Tensor, timesteps: usize, value_per_event: f32) -> EventStream {
    assert_eq!(img.shape().rank(), 3, "expected C×H×W image");
    assert!(value_per_event > 0.0, "event value must be positive");
    let (c, h, w) = (img.shape().dim(0), img.shape().dim(1), img.shape().dim(2));
    let mut acc: Vec<f32> = vec![0.5; c * h * w]; // half-step pre-charge
    let mut frames = Vec::with_capacity(timesteps);
    for _ in 0..timesteps {
        let mut frame = vec![0u8; c * h * w];
        for ((a, &x), o) in acc.iter_mut().zip(img.data()).zip(&mut frame) {
            *a += (x / value_per_event).max(0.0);
            if *a >= 1.0 {
                *a -= 1.0;
                *o = 1;
            }
        }
        frames.push(frame);
    }
    EventStream {
        channels: c,
        h,
        w,
        frames,
    }
}

#[cfg(test)]
mod event_tests {
    use super::*;

    #[test]
    fn rate_encode_counts_match_intensity() {
        // pixel 0.5 with value 1.0 over 8 steps → floor(0.5·8 + ½) = 4 events
        let img = Tensor::from_vec(vec![1, 1, 3], vec![0.5, 1.0, 0.0]);
        let s = rate_encode(&img, 8, 1.0);
        s.validate();
        let count = |i: usize| -> u32 { s.frames.iter().map(|f| u32::from(f[i])).sum() };
        assert_eq!(count(0), 4);
        assert_eq!(count(1), 8);
        assert_eq!(count(2), 0);
    }

    #[test]
    fn rate_encode_spreads_events_evenly() {
        // a 0.5-intensity pixel must alternate, not burst
        let img = Tensor::from_vec(vec![1, 1, 1], vec![0.5]);
        let s = rate_encode(&img, 8, 1.0);
        let bits: Vec<u8> = s.frames.iter().map(|f| f[0]).collect();
        assert_eq!(bits.iter().filter(|&&b| b == 1).count(), 4);
        // no two consecutive events for a half-rate pixel
        assert!(bits.windows(2).all(|w| w[0] + w[1] <= 1), "{bits:?}");
    }

    #[test]
    fn rate_encode_negative_pixels_are_silent() {
        let img = Tensor::from_vec(vec![1, 1, 1], vec![-3.0]);
        let s = rate_encode(&img, 8, 1.0);
        assert_eq!(s.rate(), 0.0);
    }

    #[test]
    fn rate_encode_saturates_at_one_event_per_step() {
        let img = Tensor::from_vec(vec![1, 1, 1], vec![10.0]);
        let s = rate_encode(&img, 4, 1.0);
        assert!((s.rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn validate_catches_ragged_frames() {
        let mut s = rate_encode(&Tensor::zeros(vec![1, 2, 2]), 2, 1.0);
        s.frames[1].pop();
        s.validate();
    }
}
