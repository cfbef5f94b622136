//! Summary statistics for the reported metrics.

/// Fewest samples that must lie beyond a reported percentile: a p99 needs
/// 1000 samples, a p50 needs 20.
pub const MIN_BEYOND: f64 = 10.0;

/// Median (linear interpolation between the two middle samples); `None`
/// for an empty slice. Used for repetitions, where no tail rule applies.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(interpolate(&sorted(samples), 0.5))
}

/// Percentile `q ∈ (0, 1)` of a latency sample, linearly interpolated
/// between the closest ranks.
///
/// # Errors
///
/// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond it
/// (p99 below 1000 samples), and a `q` outside `(0, 1)`.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let beyond = samples.len() as f64 * (1.0 - q);
    // the epsilon absorbs 1 − 0.99 ≠ 0.01 in binary floating point
    if beyond + 1e-9 < MIN_BEYOND {
        let needed = (MIN_BEYOND / (1.0 - q)).round();
        return Err(format!(
            "p{} needs at least {needed} samples, have {}",
            q * 100.0,
            samples.len()
        ));
    }
    Ok(interpolate(&sorted(samples), q))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        let err = percentile(&samples, 0.99).unwrap_err();
        assert!(err.contains("1000"), "{err}");
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&samples, 0.99).unwrap();
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let samples: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(percentile(&samples, 0.5).is_err());
        let samples: Vec<f64> = (0..20).map(f64::from).collect();
        assert!((percentile(&samples, 0.5).unwrap() - 9.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn out_of_range_quantiles_are_refused() {
        let samples = vec![1.0; 5000];
        assert!(percentile(&samples, 0.0).is_err());
        assert!(percentile(&samples, 1.0).is_err());
    }
}
