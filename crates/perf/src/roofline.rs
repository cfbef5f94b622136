//! The SIA roofline, derived from the paper's Fig. 5 memory map and
//! PE-array peak.
//!
//! Three ceilings bound a layer's throughput:
//!
//! * **compute** — the PE array: `rows × cols × ops/PE/cycle × clock`
//!   (38.4 GOPS for the 8×8 PYNQ-Z2 prototype, Table IV);
//! * **stream** — the AXI-HP bulk path moving weights/spikes/residuals
//!   between PS DRAM and the Fig. 5 SRAMs: `dma_bytes_per_cycle × clock`
//!   (800 MB/s at 8 B/cycle, 100 MHz);
//! * **driver** — the AXI4-Lite MMIO path the PS driver pokes word by
//!   word: `clock / mmio_cycles_per_word` (≈ 178 k words/s — the §IV-B
//!   FC-layer bottleneck).
//!
//! The model is rebuilt from the `accel.config` event a run records, so a
//! report derived from a metrics file reflects the configuration that
//! actually ran, not a guess; [`RooflineModel::pynq_z2`] supplies the
//! prototype values for files that predate that event.

use crate::attribution::LayerAttribution;
use sia_telemetry::json::Json;

/// What bounds a layer's latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// PE-array compute cycles dominate.
    Compute,
    /// AXI stream transfer cycles dominate.
    Memory,
    /// The word-by-word MMIO driver path dominates.
    Driver,
    /// Fixed per-layer configuration overhead dominates.
    Overhead,
}

impl Bound {
    /// Short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Bound::Compute => "compute",
            Bound::Memory => "memory",
            Bound::Driver => "driver",
            Bound::Overhead => "overhead",
        }
    }
}

/// Machine balance derived from one accelerator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct RooflineModel {
    /// PL clock in Hz.
    pub clock_hz: u64,
    /// PE-array peak in ops/s.
    pub peak_ops_per_sec: f64,
    /// AXI bulk-stream bandwidth in bytes/s.
    pub stream_bytes_per_sec: f64,
    /// MMIO driver rate in words/s.
    pub mmio_words_per_sec: f64,
    /// Bytes the stream path moves per PL cycle.
    pub dma_bytes_per_cycle: f64,
    /// Cycles one MMIO word costs.
    pub mmio_cycles_per_word: u64,
}

impl RooflineModel {
    /// The paper's PYNQ-Z2 prototype balance (8×8 PEs, 6 ops/PE/cycle,
    /// 100 MHz, 8 B/cycle AXI-HP, 560 cycles/MMIO word) — mirrors
    /// `SiaConfig::pynq_z2()` and is asserted against it in the
    /// workspace integration tests.
    #[must_use]
    pub fn pynq_z2() -> Self {
        RooflineModel::from_params(8, 8, 100_000_000, 6, 8.0, 560)
    }

    /// Builds the model from raw configuration parameters.
    #[must_use]
    pub fn from_params(
        pe_rows: u64,
        pe_cols: u64,
        clock_hz: u64,
        ops_per_pe_cycle: u64,
        dma_bytes_per_cycle: f64,
        mmio_cycles_per_word: u64,
    ) -> Self {
        RooflineModel {
            clock_hz,
            peak_ops_per_sec: (pe_rows * pe_cols * ops_per_pe_cycle) as f64 * clock_hz as f64,
            stream_bytes_per_sec: dma_bytes_per_cycle * clock_hz as f64,
            mmio_words_per_sec: if mmio_cycles_per_word == 0 {
                0.0
            } else {
                clock_hz as f64 / mmio_cycles_per_word as f64
            },
            dma_bytes_per_cycle,
            mmio_cycles_per_word,
        }
    }

    /// Rebuilds the model from a run's `accel.config` event; `None` when
    /// a required field is missing (older metrics files).
    #[must_use]
    pub fn from_config_event(ev: &Json) -> Option<Self> {
        let u = |k: &str| ev.get(k).and_then(Json::as_u64);
        Some(RooflineModel::from_params(
            u("pe_rows")?,
            u("pe_cols")?,
            u("clock_hz")?,
            u("ops_per_pe_cycle")?,
            ev.get("dma_bytes_per_cycle").and_then(Json::as_f64)?,
            u("mmio_cycles_per_word")?,
        ))
    }

    /// The ridge point in ops/byte: intensity above which the stream
    /// path can keep the PE array fed.
    #[must_use]
    pub fn ridge_intensity(&self) -> f64 {
        if self.stream_bytes_per_sec == 0.0 {
            return f64::INFINITY;
        }
        self.peak_ops_per_sec / self.stream_bytes_per_sec
    }

    /// Splits a layer's latency into its accounted components, in cycles:
    /// `(compute, stream, driver, overhead)`. Stream and driver re-derive
    /// from the layer's recorded traffic exactly as the machine's AXI
    /// model charges them, so the four parts cover `transfer_cycles`
    /// without estimation.
    #[must_use]
    pub fn components(&self, layer: &LayerAttribution) -> (u64, u64, u64, u64) {
        let driver = layer.mmio_words * self.mmio_cycles_per_word;
        let stream = layer.transfer_cycles.saturating_sub(driver);
        (layer.compute_cycles, stream, driver, layer.overhead_cycles)
    }

    /// Classifies a layer by its dominant latency component.
    #[must_use]
    pub fn classify(&self, layer: &LayerAttribution) -> Bound {
        let (compute, stream, driver, overhead) = self.components(layer);
        let mut bound = Bound::Compute;
        let mut best = compute;
        for (b, v) in [
            (Bound::Memory, stream),
            (Bound::Driver, driver),
            (Bound::Overhead, overhead),
        ] {
            if v > best {
                best = v;
                bound = b;
            }
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_telemetry::json::parse;

    #[test]
    fn prototype_peak_matches_table_iv() {
        let r = RooflineModel::pynq_z2();
        assert!((r.peak_ops_per_sec - 38.4e9).abs() < 1e3);
        assert!((r.stream_bytes_per_sec - 800e6).abs() < 1e-3);
        assert!((r.mmio_words_per_sec - 100e6 / 560.0).abs() < 1e-6);
        // ridge: 38.4 GOPS / 800 MB/s = 48 ops/byte
        assert!((r.ridge_intensity() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn rebuilds_from_config_event() {
        let ev = parse(
            "{\"ev\":\"accel.config\",\"ts_us\":0,\"pe_rows\":8,\"pe_cols\":8,\
             \"clock_hz\":100000000,\"ops_per_pe_cycle\":6,\
             \"dma_bytes_per_cycle\":8,\"mmio_cycles_per_word\":560}",
        )
        .unwrap();
        assert_eq!(
            RooflineModel::from_config_event(&ev),
            Some(RooflineModel::pynq_z2())
        );
        let missing = parse("{\"ev\":\"accel.config\",\"ts_us\":0}").unwrap();
        assert_eq!(RooflineModel::from_config_event(&missing), None);
    }

    fn layer(compute: u64, transfer: u64, overhead: u64, mmio_words: u64) -> LayerAttribution {
        LayerAttribution {
            name: "l".into(),
            compute_cycles: compute,
            transfer_cycles: transfer,
            overhead_cycles: overhead,
            mmio_words,
            ..LayerAttribution::default()
        }
    }

    #[test]
    fn classification_follows_the_dominant_component() {
        let r = RooflineModel::pynq_z2();
        assert_eq!(r.classify(&layer(10_000, 100, 50, 0)), Bound::Compute);
        assert_eq!(r.classify(&layer(100, 10_000, 50, 0)), Bound::Memory);
        // 20 MMIO words = 11 200 cycles of the 11 300 transfer cycles
        assert_eq!(r.classify(&layer(100, 11_300, 50, 20)), Bound::Driver);
        assert_eq!(r.classify(&layer(100, 200, 55_000, 0)), Bound::Overhead);
        // components cover transfer exactly
        let l = layer(100, 11_300, 50, 20);
        let (c, s, d, o) = r.components(&l);
        assert_eq!(c, 100);
        assert_eq!(d, 11_200);
        assert_eq!(s + d, l.transfer_cycles);
        assert_eq!(o, 50);
    }
}
