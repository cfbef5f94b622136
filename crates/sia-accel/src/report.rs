//! Cycle and throughput accounting for one inference run.

use crate::config::SiaConfig;
use std::fmt;

/// Per-layer cycle breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerCycles {
    /// Layer label ("conv3x3,64@32", "fc512x10", …).
    pub name: String,
    /// Spiking-core + aggregation compute cycles (all timesteps, all
    /// kernel groups).
    pub compute_cycles: u64,
    /// PS↔PL transfer cycles (stream + MMIO), all timesteps.
    pub transfer_cycles: u64,
    /// Fixed per-layer driver/configuration overhead.
    pub overhead_cycles: u64,
    /// Whether compute and transfer overlap (ping-pong double buffering):
    /// the latency then takes their max instead of their sum.
    pub overlapped: bool,
    /// Σ active-PE cycles (utilisation/energy accounting).
    pub active_pe_cycles: u64,
    /// Arithmetic operations performed (6 per active PE cycle).
    pub ops: u64,
    /// Arithmetic operations a dense (skip-free) schedule would have
    /// performed: every kernel-row segment — processed *or* skipped by the
    /// event-driven logic — costed at the full PE-group width. Zero for
    /// stages with no PE pass (the effective `ops` is zero there too), so
    /// `ops / nominal_ops` is the event-driven efficiency of a layer.
    pub nominal_ops: u64,
    /// Spikes emitted by this layer over the run.
    pub spikes: u64,
}

impl LayerCycles {
    /// Total latency cycles of this layer.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        let core = if self.overlapped {
            self.compute_cycles.max(self.transfer_cycles)
        } else {
            self.compute_cycles + self.transfer_cycles
        };
        core + self.overhead_cycles
    }

    /// Latency in milliseconds at `clock_hz`. A zero clock (unconfigured
    /// target) yields 0.0 rather than a NaN/inf that would poison reports.
    #[must_use]
    pub fn ms(&self, clock_hz: u64) -> f64 {
        if clock_hz == 0 {
            return 0.0;
        }
        self.total_cycles() as f64 / clock_hz as f64 * 1e3
    }
}

/// Whole-run cycle report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CycleReport {
    /// One entry per program layer, in execution order.
    pub layers: Vec<LayerCycles>,
    /// Clock used for time conversions.
    pub clock_hz: u64,
    /// PE count (for utilisation).
    pub pe_count: usize,
}

impl CycleReport {
    /// Total latency cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(LayerCycles::total_cycles).sum()
    }

    /// Total latency in milliseconds (0.0 when `clock_hz` is 0).
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        if self.clock_hz == 0 {
            return 0.0;
        }
        self.total_cycles() as f64 / self.clock_hz as f64 * 1e3
    }

    /// Total arithmetic operations.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.ops).sum()
    }

    /// Total operations of a dense (skip-free) schedule — what the run
    /// would have cost without the event-driven segment skip.
    #[must_use]
    pub fn total_nominal_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.nominal_ops).sum()
    }

    /// Achieved throughput in GOPS (ops / wall-clock; 0.0 when `clock_hz`
    /// is 0 or no cycles elapsed).
    #[must_use]
    pub fn effective_gops(&self) -> f64 {
        if self.clock_hz == 0 {
            return 0.0;
        }
        let secs = self.total_cycles() as f64 / self.clock_hz as f64;
        if secs == 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / secs / 1e9
        }
    }

    /// Mean PE-array utilisation over compute cycles (0..1).
    #[must_use]
    pub fn pe_utilization(&self) -> f64 {
        let compute: u64 = self.layers.iter().map(|l| l.compute_cycles).sum();
        if compute == 0 {
            return 0.0;
        }
        let active: u64 = self.layers.iter().map(|l| l.active_pe_cycles).sum();
        active as f64 / (compute as f64 * self.pe_count as f64)
    }

    /// Report for a given SIA configuration (carries clock + PE count).
    #[must_use]
    pub fn for_config(config: &SiaConfig) -> Self {
        CycleReport {
            layers: Vec::new(),
            clock_hz: config.clock_hz,
            pe_count: config.pe_count(),
        }
    }
}

impl fmt::Display for CycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<22} {:>12} {:>12} {:>10} {:>10}",
            "layer", "compute(cy)", "transfer(cy)", "total(cy)", "ms"
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "{:<22} {:>12} {:>12} {:>10} {:>10.4}",
                l.name,
                l.compute_cycles,
                l.transfer_cycles,
                l.total_cycles(),
                l.ms(self.clock_hz)
            )?;
        }
        write!(
            f,
            "total {:.4} ms, {:.2} effective GOPS, {:.1}% PE utilisation",
            self.total_ms(),
            self.effective_gops(),
            self.pe_utilization() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(compute: u64, transfer: u64, overlapped: bool) -> LayerCycles {
        LayerCycles {
            name: "l".into(),
            compute_cycles: compute,
            transfer_cycles: transfer,
            overhead_cycles: 100,
            overlapped,
            active_pe_cycles: compute / 2 * 64,
            ops: compute * 64,
            nominal_ops: compute * 128,
            spikes: 10,
        }
    }

    #[test]
    fn overlap_takes_max_sequential_takes_sum() {
        assert_eq!(layer(1000, 600, true).total_cycles(), 1100);
        assert_eq!(layer(1000, 600, false).total_cycles(), 1700);
    }

    #[test]
    fn ms_conversion() {
        let l = layer(99_900, 0, true);
        assert!((l.ms(100_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn report_totals_and_utilisation() {
        let mut r = CycleReport {
            layers: vec![layer(1000, 0, true), layer(3000, 0, true)],
            clock_hz: 100_000_000,
            pe_count: 64,
        };
        assert_eq!(r.total_cycles(), 4200);
        assert_eq!(r.total_ops(), 4000 * 64);
        assert_eq!(r.total_nominal_ops(), 4000 * 128);
        assert!((r.pe_utilization() - 0.5).abs() < 1e-9);
        assert!(r.effective_gops() > 0.0);
        r.layers.clear();
        assert_eq!(r.pe_utilization(), 0.0);
    }

    #[test]
    fn zero_clock_yields_zero_not_nan() {
        let l = layer(1000, 600, false);
        assert_eq!(l.ms(0), 0.0);
        let r = CycleReport {
            layers: vec![l],
            clock_hz: 0,
            pe_count: 64,
        };
        assert_eq!(r.total_ms(), 0.0);
        assert_eq!(r.effective_gops(), 0.0);
        assert!(r.total_ms().is_finite());
        assert!(r.effective_gops().is_finite());
    }

    #[test]
    fn display_lists_layers() {
        let r = CycleReport {
            layers: vec![layer(10, 5, true)],
            clock_hz: 100_000_000,
            pe_count: 64,
        };
        let s = r.to_string();
        assert!(s.contains("total"));
        assert!(s.contains("GOPS"));
    }
}
