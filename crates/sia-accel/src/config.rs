//! Accelerator configuration (the reconfigurable part of "reconfigurable").

/// Static configuration of one SIA instance.
///
/// The defaults ([`SiaConfig::pynq_z2`]) reproduce the paper's prototype:
/// an 8×8 PE array at 100 MHz on a PYNQ-Z2 with the §III-D memory map.
/// Every field may be changed to explore the design space (the PE-array
/// ablation bench sweeps `pe_rows`/`pe_cols`).
///
/// # Examples
///
/// ```
/// use sia_accel::SiaConfig;
/// let cfg = SiaConfig::pynq_z2();
/// assert_eq!(cfg.pe_count(), 64);
/// assert_eq!(cfg.clock_hz, 100_000_000);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SiaConfig {
    /// PE array rows (8 in the prototype).
    pub pe_rows: usize,
    /// PE array columns (8 in the prototype).
    pub pe_cols: usize,
    /// PL clock frequency in Hz (100 MHz in the prototype).
    pub clock_hz: u64,
    /// Taps accumulated per PE per cycle (3 multiplexers).
    pub taps_per_cycle: usize,
    /// Weight memory capacity in bytes (8 kB; up to 64 kernels).
    pub weight_mem_bytes: usize,
    /// Incoming spike buffer in bytes (128 B).
    pub spike_in_mem_bytes: usize,
    /// Residual-parameter memory in bytes (128 kB).
    pub residual_mem_bytes: usize,
    /// Membrane-potential memory in bytes (64 kB, split into U1/U2).
    pub membrane_mem_bytes: usize,
    /// Output spike memory in bytes (56 kB).
    pub output_mem_bytes: usize,
    /// Bulk-stream (DMA-style) throughput: bytes moved per PL cycle
    /// (the Zynq AXI-HP ports move a 64-bit beat per cycle).
    pub dma_bytes_per_cycle: f64,
    /// Cycles per word for the software-driven AXI4-Lite MMIO path (the
    /// PYNQ Python driver costs ≈ 5.6 µs/word ⇒ ≈ 560 cycles at 100 MHz).
    pub mmio_cycles_per_word: u64,
    /// Fixed per-layer driver/configuration overhead in cycles
    /// (interrupt handling, register setup by the PS).
    pub layer_overhead_cycles: u64,
    /// Aggregation-core pipeline depth (fill cost per tile, cycles).
    pub aggregation_pipeline_depth: u64,
    /// Arithmetic operations counted per active PE per cycle
    /// (3 mux selects + 3 adds = 6, the paper's GOPS accounting).
    pub ops_per_pe_cycle: u64,
    /// PS-side software cost per MAC in PL-clock cycles (frame conversion
    /// of the dense input layer and the final readout run on the ZYNQ PS).
    pub ps_cycles_per_mac: f64,
}

impl SiaConfig {
    /// The paper's PYNQ-Z2 prototype configuration.
    #[must_use]
    pub fn pynq_z2() -> Self {
        SiaConfig {
            pe_rows: 8,
            pe_cols: 8,
            clock_hz: 100_000_000,
            taps_per_cycle: 3,
            weight_mem_bytes: 8 * 1024,
            spike_in_mem_bytes: 128,
            residual_mem_bytes: 128 * 1024,
            membrane_mem_bytes: 64 * 1024,
            output_mem_bytes: 56 * 1024,
            dma_bytes_per_cycle: 8.0,
            mmio_cycles_per_word: 560,
            layer_overhead_cycles: 55_000,
            aggregation_pipeline_depth: 4,
            ops_per_pe_cycle: 6,
            ps_cycles_per_mac: 0.5,
        }
    }

    /// Number of processing elements.
    #[must_use]
    pub fn pe_count(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Peak throughput in operations per second
    /// (`PEs × ops/PE/cycle × clock`), the Table IV headline
    /// (38.4 GOPS for the prototype).
    #[must_use]
    pub fn peak_ops_per_second(&self) -> f64 {
        self.pe_count() as f64 * self.ops_per_pe_cycle as f64 * self.clock_hz as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when a parameter is
    /// zero or the memory map cannot hold even one kernel.
    pub fn validate(&self) -> Result<(), String> {
        if self.pe_count() == 0 {
            return Err("PE array must be non-empty".into());
        }
        if self.clock_hz == 0 {
            return Err("clock must be positive".into());
        }
        if self.taps_per_cycle == 0 {
            return Err("taps_per_cycle must be positive".into());
        }
        if self.weight_mem_bytes < 9 {
            return Err("weight memory cannot hold a 3x3 kernel".into());
        }
        if self.membrane_mem_bytes < 4 {
            return Err("membrane memory cannot hold one ping-pong pair".into());
        }
        if self.dma_bytes_per_cycle <= 0.0 {
            return Err("dma_bytes_per_cycle must be positive".into());
        }
        Ok(())
    }
}

impl Default for SiaConfig {
    fn default() -> Self {
        SiaConfig::pynq_z2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pynq_defaults_match_paper() {
        let c = SiaConfig::pynq_z2();
        assert_eq!(c.pe_count(), 64);
        assert_eq!(c.weight_mem_bytes, 8192);
        assert_eq!(c.membrane_mem_bytes, 65536);
        assert_eq!(c.output_mem_bytes, 57344);
        assert_eq!(c.residual_mem_bytes, 131072);
        assert_eq!(c.spike_in_mem_bytes, 128);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn peak_throughput_is_38_4_gops() {
        let c = SiaConfig::pynq_z2();
        assert!((c.peak_ops_per_second() - 38.4e9).abs() < 1e3);
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let mut c = SiaConfig::pynq_z2();
        c.pe_rows = 0;
        assert!(c.validate().is_err());
        let mut c = SiaConfig::pynq_z2();
        c.weight_mem_bytes = 4;
        assert!(c.validate().is_err());
        let mut c = SiaConfig::pynq_z2();
        c.dma_bytes_per_cycle = 0.0;
        assert!(c.validate().is_err());
    }
}
