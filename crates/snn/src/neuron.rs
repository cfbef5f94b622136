//! IF and LIF neuron dynamics with reset-by-subtraction.
//!
//! The aggregation core's activation unit (paper §III-B) supports two modes
//! selected by a mode bit: IF (mode 0) and LIF (mode 1). Both reset by
//! subtraction after a spike. These functions are the single source of truth
//! for the dynamics — the functional runners *and* the cycle-level
//! aggregation core in `sia-accel` call them.

use crate::network::NeuronMode;
use crate::spikeplane::SpikePlane;
use sia_fixed::sat::{add16, asr16, sub16};

/// One integer-membrane timestep: leak (LIF only), integrate `current`,
/// spike test against `theta`, reset-by-subtraction. Returns whether the
/// neuron spiked. All arithmetic saturates at the 16-bit rails.
///
/// # Examples
///
/// ```
/// use sia_snn::neuron::step_int;
/// use sia_snn::NeuronMode;
/// let mut u = 64i16; // pre-charged to θ/2
/// assert!(step_int(&mut u, 70, 128, NeuronMode::If)); // 64+70 ≥ 128 → spike
/// assert_eq!(u, 6); // reset by subtraction
/// ```
#[inline]
pub fn step_int(u: &mut i16, current: i16, theta: i16, mode: NeuronMode) -> bool {
    if let NeuronMode::Lif { leak_shift } = mode {
        *u = sub16(*u, asr16(*u, leak_shift));
    }
    *u = add16(*u, current);
    if *u >= theta {
        *u = sub16(*u, theta);
        true
    } else {
        false
    }
}

/// One timestep of a whole stage of integer neurons: neuron `i` (flat
/// `[C, H, W]` index) integrates `current[i]` exactly as [`step_int`]
/// would, and its spike lands in `out` (already reset to the stage's
/// shape). Returns how many of the stage's membranes sit at an `i16` rail
/// after the step (the `snn.membrane.saturated` count), so no caller has
/// to scan the membranes again.
///
/// The walk steps the stage in flat 64-neuron words whatever its row
/// width, with no index division and no data-dependent branch: the spike
/// test becomes a mask, and reset-by-subtraction subtracts `θ & mask`
/// (`sub16(u, 0) == u`, so a silent neuron is untouched). Each word's
/// spikes are then split into the plane's row words
/// ([`SpikePlane::flat_writer`]): at a row width that divides 64, as every
/// deployed stage's does, that is `64 / W` whole rows, each placed with one
/// shift and mask. The cycle-level machine keeps stepping neuron by neuron
/// through [`step_int`], so the two stay independent oracles of each
/// other.
pub fn fire_int(
    mem: &mut [i16],
    current: &[i16],
    theta: i16,
    mode: NeuronMode,
    out: &mut SpikePlane,
) -> u64 {
    match mode {
        NeuronMode::If => fire_flat(mem, current, theta, out, |u| u),
        NeuronMode::Lif { leak_shift } => {
            fire_flat(mem, current, theta, out, |u| sub16(u, asr16(u, leak_shift)))
        }
    }
}

#[inline(always)]
fn fire_flat(
    mem: &mut [i16],
    current: &[i16],
    theta: i16,
    out: &mut SpikePlane,
    leak: impl Fn(i16) -> i16,
) -> u64 {
    let mut spikes = out.flat_writer();
    let mut rails = 0u64;
    let (mem_words, mem_tail) = mem.as_chunks_mut::<64>();
    let (cur_words, cur_tail) = current.as_chunks::<64>();
    for (m, c) in mem_words.iter_mut().zip(cur_words) {
        let (bits, at_rail) = step_word(m, c, theta, &leak);
        spikes.push(bits);
        rails += at_rail;
    }
    if !mem_tail.is_empty() {
        let (bits, at_rail) = step_word(mem_tail, cur_tail, theta, &leak);
        spikes.push(bits);
        rails += at_rail;
    }
    rails
}

/// Steps up to 64 neurons: returns their spikes (LSB first) and how many
/// membranes end at a rail. Spikes land in bytes first and are packed
/// eight at a time, which keeps the whole step in wide vector lanes.
#[inline(always)]
fn step_word(
    mem: &mut [i16],
    current: &[i16],
    theta: i16,
    leak: impl Fn(i16) -> i16,
) -> (u64, u64) {
    let mut fired = [0u8; 64];
    let mut at_rail = 0u16;
    for ((f, u), &i) in fired.iter_mut().zip(mem.iter_mut()).zip(current) {
        let v = add16(leak(*u), i);
        let fire = v >= theta;
        *u = sub16(v, theta & -i16::from(fire));
        *f = u8::from(fire);
        at_rail += u16::from(*u == i16::MAX || *u == i16::MIN);
    }
    let mut bits = 0u64;
    for (k, bytes) in fired.as_chunks::<8>().0.iter().enumerate() {
        // Byte k·8 + j holds 0 or 1; the multiply gathers each byte's bit
        // into the top byte, in order (no carries can reach it).
        let packed = u64::from_le_bytes(*bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        bits |= packed << (8 * k);
    }
    (bits, u64::from(at_rail))
}

/// One float-membrane timestep (reference dynamics).
#[inline]
pub fn step_f32(u: &mut f32, current: f32, theta: f32, mode: NeuronMode) -> bool {
    if let NeuronMode::Lif { leak_shift } = mode {
        *u -= *u / (1u32 << leak_shift) as f32;
    }
    *u += current;
    if *u >= theta {
        *u -= theta;
        true
    } else {
        false
    }
}

/// Spike count of an IF neuron driven by a constant current for `t` steps
/// from a θ/2 pre-charge — the closed form that makes layer-1 conversion
/// exact: `clip(floor(I·t/θ + 1/2), 0, t)`.
#[must_use]
pub fn constant_current_count(current: f32, theta: f32, t: usize) -> usize {
    if current <= 0.0 || theta <= 0.0 {
        return 0;
    }
    let count = (current * t as f32 / theta + 0.5).floor();
    (count.max(0.0) as usize).min(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn if_neuron_spikes_at_threshold() {
        let mut u = 0i16;
        assert!(!step_int(&mut u, 99, 100, NeuronMode::If));
        assert!(step_int(&mut u, 1, 100, NeuronMode::If));
        assert_eq!(u, 0);
    }

    #[test]
    fn reset_by_subtraction_keeps_excess() {
        let mut u = 0i16;
        assert!(step_int(&mut u, 250, 100, NeuronMode::If));
        assert_eq!(u, 150); // excess carried, not zeroed
                            // the excess alone triggers the next spike
        assert!(step_int(&mut u, 0, 100, NeuronMode::If));
        assert_eq!(u, 50);
    }

    #[test]
    fn negative_current_inhibits() {
        let mut u = 50i16;
        assert!(!step_int(&mut u, -80, 100, NeuronMode::If));
        assert_eq!(u, -30);
    }

    #[test]
    fn lif_leaks_before_integration() {
        let mut u = 64i16;
        // leak_shift 2: u -= 64>>2 = 16 → 48, then +0 → no spike
        assert!(!step_int(&mut u, 0, 100, NeuronMode::Lif { leak_shift: 2 }));
        assert_eq!(u, 48);
    }

    #[test]
    fn lif_leak_acts_on_negative_membranes_too() {
        let mut u = -64i16;
        let _ = step_int(&mut u, 0, 100, NeuronMode::Lif { leak_shift: 2 });
        assert_eq!(u, -48); // decays toward zero
    }

    #[test]
    fn int_membrane_saturates_not_wraps() {
        let mut u = i16::MAX - 1;
        let _ = step_int(&mut u, 1000, i16::MAX, NeuronMode::If);
        // saturating add reached MAX, spiked, reset-by-subtraction
        assert_eq!(u, 0);
    }

    #[test]
    fn float_matches_int_on_exact_values() {
        for current in [-40i16, 0, 30, 64, 128, 200] {
            let mut ui = 64i16;
            let mut uf = 64.0f32;
            let si = step_int(&mut ui, current, 128, NeuronMode::If);
            let sf = step_f32(&mut uf, f32::from(current), 128.0, NeuronMode::If);
            assert_eq!(si, sf, "current {current}");
            assert_eq!(f32::from(ui), uf, "current {current}");
        }
    }

    #[test]
    fn constant_current_closed_form_matches_simulation() {
        for &(current, theta, t) in &[
            (0.3f32, 1.0f32, 8usize),
            (0.9, 1.0, 8),
            (1.7, 1.0, 8),
            (0.05, 1.0, 16),
            (0.0, 1.0, 8),
            (-0.5, 1.0, 8),
        ] {
            let mut u = theta / 2.0;
            let mut count = 0;
            for _ in 0..t {
                if step_f32(&mut u, current, theta, NeuronMode::If) {
                    count += 1;
                }
            }
            assert_eq!(
                count,
                constant_current_count(current, theta, t),
                "I={current} θ={theta} T={t}"
            );
        }
    }

    #[test]
    fn fire_int_matches_step_int_neuron_by_neuron() {
        // Every way rows sit in flat 64-neuron words (widths dividing 64,
        // a multiple of it, and neither, narrower and wider than a word),
        // currents and membranes spanning both rails, θ at the top rail,
        // and both neuron modes. The returned rail count must equal a
        // recount of the membranes.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 48) as u16 as i16
        };
        for w in [1usize, 2, 3, 8, 10, 16, 63, 64, 65, 100] {
            let (c, h) = (2, 3);
            let n = c * h * w;
            for mode in [NeuronMode::If, NeuronMode::Lif { leak_shift: 3 }] {
                for theta in [1i16, 128, 3000, i16::MAX] {
                    let mem0: Vec<i16> = (0..n).map(|_| next()).collect();
                    let cur: Vec<i16> = (0..n).map(|_| next()).collect();
                    let mut mem = mem0.clone();
                    let mut out = SpikePlane::new(c, h, w);
                    let rails = fire_int(&mut mem, &cur, theta, mode, &mut out);
                    let mut expect = mem0.clone();
                    for i in 0..n {
                        let fired = step_int(&mut expect[i], cur[i], theta, mode);
                        assert_eq!(out.bit_linear(i), fired, "w={w} {mode:?} θ={theta} i={i}");
                    }
                    assert_eq!(mem, expect, "w={w} {mode:?} θ={theta}");
                    let recount = mem.iter().filter(|&&u| u == i16::MAX || u == i16::MIN);
                    assert_eq!(rails, recount.count() as u64, "w={w} {mode:?} θ={theta}");
                    assert_eq!(
                        out.count_ones(),
                        out.to_bytes().iter().map(|&b| u64::from(b)).sum::<u64>(),
                        "ghost bits at w={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn count_saturates_at_t() {
        assert_eq!(constant_current_count(100.0, 1.0, 8), 8);
    }
}
