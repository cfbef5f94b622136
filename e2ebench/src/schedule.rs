//! Seeded inputs: a small deterministic generator, the image order and
//! the open-loop arrival schedule. Everything here is a pure function of
//! the workload seed.

/// SplitMix64 — tiny, fast, and fully specified, so a seed means the same
/// inputs on every host and toolchain.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named stream of a seed (streams are independent
    /// draws, so adding a stream never shifts another one's values).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so every value is equally
    /// likely.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }
}

/// Stream ids, one per kind of input drawn from a seed.
pub mod stream {
    /// Seed of the synthetic image pool.
    pub const DATASET: u64 = 1;
    /// Image order.
    pub const ORDER: u64 = 2;
    /// Arrival schedule.
    pub const ARRIVALS: u64 = 3;
}

/// `len` pool indices: back-to-back seeded permutations of `0..pool`, so
/// every image appears once per pass and passes differ.
#[must_use]
pub fn image_order(seed: u64, pool: usize, len: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, stream::ORDER);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut pass: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            pass.swap(i, rng.below(i + 1));
        }
        let take = pass.len().min(len - out.len());
        out.extend_from_slice(&pass[..take]);
    }
    out
}

/// Due times in seconds of `n` open-loop arrivals at `rate` per second: a
/// Poisson process conditioned on exactly `n` arrivals in `[0, n / rate)`,
/// i.e. sorted uniform points. Fixing the count keeps the offered load the
/// same for every seed while the gaps stay exponential-like.
#[must_use]
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let span = n as f64 / rate;
    let mut rng = SplitMix64::new(seed, stream::ARRIVALS);
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * span).collect();
    due.sort_by(f64::total_cmp);
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_order_is_a_pure_function_of_the_seed() {
        assert_eq!(image_order(7, 256, 1000), image_order(7, 256, 1000));
        assert_ne!(image_order(7, 256, 1000), image_order(8, 256, 1000));
        // a prefix request returns the prefix of the longer order
        assert_eq!(
            image_order(7, 256, 300)[..],
            image_order(7, 256, 1000)[..300]
        );
    }

    #[test]
    fn every_pass_is_a_permutation() {
        let order = image_order(3, 64, 64 * 3);
        for pass in order.chunks(64) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>());
        }
        assert_ne!(order[..64], order[64..128]);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(11, 40.0, 1200);
        assert_eq!(a, poisson_schedule(11, 40.0, 1200));
        assert_ne!(a, poisson_schedule(12, 40.0, 1200));
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= 0.0 && a[1199] < 30.0);
    }

    #[test]
    fn schedule_has_poisson_gaps() {
        // exponential inter-arrival gaps: mean 1/rate, coefficient of
        // variation near 1 (a fixed-interval schedule would give 0)
        let due = poisson_schedule(5, 40.0, 20_000);
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean * 40.0 - 1.0).abs() < 0.02, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.05,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(1, 0);
        for n in 1..50 {
            for _ in 0..20 {
                assert!(rng.below(n) < n);
            }
        }
    }
}
