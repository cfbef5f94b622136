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
/// shape).
///
/// The walk goes row by row and packs each row's spikes straight into its
/// `u64` words, with no index division and no data-dependent branch: the
/// spike test becomes a mask, and reset-by-subtraction subtracts `θ & mask`
/// (`sub16(u, 0) == u`, so a silent neuron is untouched). The cycle-level
/// machine keeps stepping neuron by neuron through [`step_int`], so the
/// two stay independent oracles of each other.
pub fn fire_int(
    mem: &mut [i16],
    current: &[i16],
    theta: i16,
    mode: NeuronMode,
    out: &mut SpikePlane,
) {
    match mode {
        NeuronMode::If => fire_rows(mem, current, theta, out, |u| u),
        NeuronMode::Lif { leak_shift } => {
            fire_rows(mem, current, theta, out, |u| sub16(u, asr16(u, leak_shift)));
        }
    }
}

#[inline(always)]
fn fire_rows(
    mem: &mut [i16],
    current: &[i16],
    theta: i16,
    out: &mut SpikePlane,
    leak: impl Fn(i16) -> i16,
) {
    let w = out.width().max(1);
    for ((mrow, crow), words) in mem
        .chunks_exact_mut(w)
        .zip(current.chunks_exact(w))
        .zip(out.rows_mut())
    {
        for ((m, c), word) in mrow.chunks_mut(64).zip(crow.chunks(64)).zip(words) {
            let mut bits = 0u64;
            for (j, (u, &i)) in m.iter_mut().zip(c).enumerate() {
                let v = add16(leak(*u), i);
                let fire = v >= theta;
                *u = sub16(v, theta & -i16::from(fire));
                bits |= u64::from(fire) << j;
            }
            *word = bits;
        }
    }
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
        // Rows wider than one word, currents and membranes spanning both
        // rails, θ at the top rail, and both neuron modes.
        let (c, h, w) = (2, 3, 70);
        let n = c * h * w;
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 48) as u16 as i16
        };
        for mode in [NeuronMode::If, NeuronMode::Lif { leak_shift: 3 }] {
            for theta in [1i16, 128, 3000, i16::MAX] {
                let mem0: Vec<i16> = (0..n).map(|_| next()).collect();
                let cur: Vec<i16> = (0..n).map(|_| next()).collect();
                let mut mem = mem0.clone();
                let mut out = SpikePlane::new(c, h, w);
                fire_int(&mut mem, &cur, theta, mode, &mut out);
                let mut expect = mem0.clone();
                for i in 0..n {
                    let fired = step_int(&mut expect[i], cur[i], theta, mode);
                    assert_eq!(out.bit_linear(i), fired, "{mode:?} θ={theta} i={i}");
                }
                assert_eq!(mem, expect, "{mode:?} θ={theta}");
            }
        }
    }

    #[test]
    fn count_saturates_at_t() {
        assert_eq!(constant_current_count(100.0, 1.0, 8), 8);
    }
}
