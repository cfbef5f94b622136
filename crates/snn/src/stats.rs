//! Spike-rate accounting (Figs. 6 and 8).

use std::fmt;
use std::sync::Arc;

/// Per-stage spike statistics accumulated across timesteps (and, when merged,
/// across images).
///
/// The stage names and neuron counts are the network's, shared (`Arc`) by
/// every run of an engine instead of copied per image.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpikeStats {
    /// Stage names, in network order.
    pub names: Arc<[String]>,
    /// Spikes emitted per stage.
    pub spikes: Vec<u64>,
    /// Neuron count per stage.
    pub neurons: Arc<[u64]>,
    /// Total timesteps integrated across all accumulated images. With an
    /// adaptive exit policy this counts *executed* timesteps, which may
    /// differ per image — hence a sum, not a per-image value.
    pub timesteps: u64,
    /// Images accumulated.
    pub images: u64,
}

impl SpikeStats {
    /// Creates zeroed statistics for the given stage names/sizes.
    #[must_use]
    pub fn new(names: impl Into<Arc<[String]>>, neurons: impl Into<Arc<[u64]>>) -> Self {
        let (names, neurons) = (names.into(), neurons.into());
        assert_eq!(names.len(), neurons.len(), "names/neurons length mismatch");
        let n = names.len();
        SpikeStats {
            names,
            spikes: vec![0; n],
            neurons,
            timesteps: 0,
            images: 0,
        }
    }

    /// Average spikes per neuron per timestep, per stage — the y-axis of
    /// Figs. 6 and 8.
    #[must_use]
    pub fn rates(&self) -> Vec<f32> {
        let denom = self.timesteps.max(1);
        self.spikes
            .iter()
            .zip(self.neurons.iter())
            .map(|(&s, &n)| s as f32 / (n.max(1) * denom) as f32)
            .collect()
    }

    /// Overall average spike rate across all stages (the paper reports
    /// ≈ 0.12 for ResNet-18 and ≈ 0.16 for VGG-11).
    #[must_use]
    pub fn overall_rate(&self) -> f32 {
        let total_spikes: u64 = self.spikes.iter().sum();
        let total_neurons: u64 = self.neurons.iter().sum();
        let denom = self.timesteps.max(1);
        total_spikes as f32 / (total_neurons.max(1) * denom) as f32
    }

    /// Accumulates another image's run (same network ⇒ same geometry).
    ///
    /// # Panics
    ///
    /// Panics if the stage structures differ.
    pub fn merge(&mut self, other: &SpikeStats) {
        assert!(
            Arc::ptr_eq(&self.names, &other.names) || self.names == other.names,
            "merging stats of different nets"
        );
        for (a, b) in self.spikes.iter_mut().zip(&other.spikes) {
            *a += b;
        }
        self.timesteps += other.timesteps;
        self.images += other.images;
    }
}

impl fmt::Display for SpikeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "spike rates over {} timesteps ({} images):",
            self.timesteps, self.images
        )?;
        for (name, rate) in self.names.iter().zip(self.rates()) {
            writeln!(f, "  {name:<16} {rate:.4}")?;
        }
        write!(f, "  overall: {:.4}", self.overall_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SpikeStats {
        let mut s = SpikeStats::new(vec!["a".into(), "b".into()], vec![10, 20]);
        s.spikes = vec![40, 20];
        s.timesteps = 8;
        s.images = 1;
        s
    }

    #[test]
    fn rates_normalise_by_neurons_and_time() {
        let s = stats();
        let r = s.rates();
        assert!((r[0] - 0.5).abs() < 1e-6); // 40 / (10·8)
        assert!((r[1] - 0.125).abs() < 1e-6); // 20 / (20·8)
    }

    #[test]
    fn overall_rate_weights_by_neuron_count() {
        let s = stats();
        assert!((s.overall_rate() - 60.0 / 240.0).abs() < 1e-6);
    }

    #[test]
    fn merge_accumulates_images() {
        let mut a = stats();
        let b = stats();
        a.merge(&b);
        assert_eq!(a.images, 2);
        assert_eq!(a.spikes, vec![80, 40]);
        assert_eq!(a.timesteps, 16);
        // rates unchanged (same distribution)
        assert!((a.rates()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn merge_accepts_variable_timesteps_per_image() {
        // An early-exited image contributes fewer executed timesteps; the
        // rate denominator is the summed integration time.
        let mut a = stats();
        let mut b = stats();
        b.timesteps = 4;
        b.spikes = vec![20, 10];
        a.merge(&b);
        assert_eq!(a.timesteps, 12);
        assert!((a.rates()[0] - 60.0 / (10.0 * 12.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "different nets")]
    fn merge_checks_structure() {
        let mut a = stats();
        let b = SpikeStats::new(vec!["x".into()], vec![1]);
        a.merge(&b);
    }

    #[test]
    fn display_lists_stages() {
        let s = stats().to_string();
        assert!(s.contains("overall"));
        assert!(s.contains('a'));
    }
}
