//! The on-chip memory unit (paper §III-D) with the U1/U2 ping-pong
//! membrane banks (Fig. 3).

use crate::config::SiaConfig;
use std::fmt;

/// Which ping-pong bank is in which role this timestep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankRole {
    /// Bank is being read (previous-timestep membranes).
    Read,
    /// Bank is being written (updated membranes).
    Write,
}

/// The U1/U2 ping-pong membrane store: "at any time step, one part of the
/// memory is used to store the membrane potentials from the PE to the
/// memory, and the other part is used to read the stored membrane
/// potentials" (Fig. 3). Toggling swaps the roles.
#[derive(Clone, Debug)]
pub struct PingPongMembranes {
    banks: [Vec<i16>; 2],
    /// Index of the bank currently in **read** mode.
    read_bank: usize,
    capacity_words: usize,
}

impl PingPongMembranes {
    /// Allocates the two banks. Total capacity (both banks) is
    /// `total_bytes`; each 16-bit membrane occupies 2 bytes, so each bank
    /// holds `total_bytes / 4` neurons.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes < 4`.
    #[must_use]
    pub fn new(total_bytes: usize) -> Self {
        assert!(total_bytes >= 4, "membrane memory too small");
        let per_bank = total_bytes / 4;
        PingPongMembranes {
            banks: [vec![0; per_bank], vec![0; per_bank]],
            read_bank: 0,
            capacity_words: per_bank,
        }
    }

    /// Neurons one bank can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity_words
    }

    /// Fills both banks with the pre-charge value (start of an inference).
    pub fn precharge(&mut self, value: i16, neurons: usize) {
        assert!(neurons <= self.capacity_words, "layer exceeds U-state bank");
        for bank in &mut self.banks {
            for u in bank.iter_mut().take(neurons) {
                *u = value;
            }
        }
    }

    /// Reads membrane `i` from the bank in read mode.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the bank capacity.
    #[must_use]
    pub fn read(&self, i: usize) -> i16 {
        self.banks[self.read_bank][i]
    }

    /// Writes membrane `i` into the bank in write mode.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the bank capacity.
    pub fn write(&mut self, i: usize, v: i16) {
        let w = 1 - self.read_bank;
        self.banks[w][i] = v;
    }

    /// Swaps the bank roles (end of a timestep, Fig. 3a → 3b).
    pub fn toggle(&mut self) {
        self.read_bank = 1 - self.read_bank;
    }

    /// Role of bank `b` (0 = U1, 1 = U2).
    ///
    /// # Panics
    ///
    /// Panics if `b > 1`.
    #[must_use]
    pub fn role(&self, b: usize) -> BankRole {
        assert!(b < 2, "only two banks");
        if b == self.read_bank {
            BankRole::Read
        } else {
            BankRole::Write
        }
    }
}

/// Static footprint check of one layer against the memory map. Returned by
/// the compiler for every layer so callers can see *why* a network fits (or
/// how it is chunked).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerFootprint {
    /// Weight bytes needed by one kernel-group pass (one chunk).
    pub weight_chunk_bytes: usize,
    /// Total weight bytes of the layer.
    pub weight_total_bytes: usize,
    /// Weight chunks streamed per pass (1 = fits the 8 kB weight memory).
    pub weight_chunks: usize,
    /// Neurons whose membranes live in a U-state bank (or spill to DDR).
    pub neurons: usize,
    /// Input spike bitmap bytes per timestep.
    pub spike_in_bytes: usize,
    /// Output spike bitmap bytes per timestep.
    pub spike_out_bytes: usize,
    /// Residual (skip) current bytes per timestep, if any.
    pub residual_bytes: usize,
}

impl fmt::Display for LayerFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "weights {}B ({} chunks), {} neurons, in {}B out {}B res {}B",
            self.weight_total_bytes,
            self.weight_chunks,
            self.neurons,
            self.spike_in_bytes,
            self.spike_out_bytes,
            self.residual_bytes
        )
    }
}

impl LayerFootprint {
    /// Membrane bytes per timestep that do not fit the on-chip U-state
    /// banks and must round-trip to DDR (read + write, 4 bytes per spilled
    /// neuron). Zero when the layer fits — the common case the ping-pong
    /// protocol is designed for.
    #[must_use]
    pub fn membrane_spill_bytes(&self, config: &SiaConfig) -> usize {
        let bank_neurons = config.membrane_mem_bytes / 4;
        self.neurons.saturating_sub(bank_neurons) * 4
    }

    /// Validates the footprint against a configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the overflowing memory when the layer
    /// cannot be scheduled even with chunking.
    pub fn check(&self, config: &SiaConfig) -> Result<(), String> {
        if self.weight_chunk_bytes > config.weight_mem_bytes {
            return Err(format!(
                "weight chunk of {}B exceeds the {}B weight memory",
                self.weight_chunk_bytes, config.weight_mem_bytes
            ));
        }
        if self.spike_out_bytes > config.output_mem_bytes {
            return Err(format!(
                "{}B of output spikes exceed the {}B output memory",
                self.spike_out_bytes, config.output_mem_bytes
            ));
        }
        if self.residual_bytes > config.residual_mem_bytes {
            return Err(format!(
                "{}B of residual currents exceed the {}B residual memory",
                self.residual_bytes, config.residual_mem_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_roles_alternate() {
        let mut m = PingPongMembranes::new(64 * 1024);
        assert_eq!(m.role(0), BankRole::Read);
        assert_eq!(m.role(1), BankRole::Write);
        m.toggle();
        assert_eq!(m.role(0), BankRole::Write);
        assert_eq!(m.role(1), BankRole::Read);
    }

    #[test]
    fn capacity_is_quarter_of_bytes() {
        // 64 kB total → two 32 kB banks → 16k 16-bit membranes each
        let m = PingPongMembranes::new(64 * 1024);
        assert_eq!(m.capacity(), 16 * 1024);
    }

    #[test]
    fn write_lands_in_write_bank_only() {
        let mut m = PingPongMembranes::new(16);
        m.write(0, 42);
        // read bank still sees the old value
        assert_eq!(m.read(0), 0);
        m.toggle();
        // after toggling, the written value becomes readable
        assert_eq!(m.read(0), 42);
    }

    #[test]
    fn precharge_fills_both_banks() {
        let mut m = PingPongMembranes::new(32);
        m.precharge(7, 4);
        assert_eq!(m.read(3), 7);
        m.toggle();
        assert_eq!(m.read(3), 7);
    }

    #[test]
    fn footprint_check_flags_each_overflow() {
        let cfg = SiaConfig::pynq_z2();
        let ok = LayerFootprint {
            weight_chunk_bytes: 4096,
            weight_total_bytes: 36864,
            weight_chunks: 9,
            neurons: 8192,
            spike_in_bytes: 8192,
            spike_out_bytes: 8192,
            residual_bytes: 0,
        };
        assert!(ok.check(&cfg).is_ok());
        let mut bad = ok;
        bad.weight_chunk_bytes = 9000;
        assert!(bad.check(&cfg).unwrap_err().contains("weight chunk"));
        let mut big = ok;
        big.neurons = 17_000;
        assert!(big.check(&cfg).is_ok()); // spills, not an error
        assert_eq!(big.membrane_spill_bytes(&cfg), (17_000 - 16_384) * 4);
        assert_eq!(ok.membrane_spill_bytes(&cfg), 0);
        let mut bad = ok;
        bad.spike_out_bytes = 60_000;
        assert!(bad.check(&cfg).unwrap_err().contains("output memory"));
        let mut bad = ok;
        bad.residual_bytes = 200_000;
        assert!(bad.check(&cfg).unwrap_err().contains("residual memory"));
    }
}
