//! The committed benchmark model and the committed fingerprints every run
//! is checked against.
//!
//! `model/resnet18-w8-l3.sia` is the deployment image of
//! `sia train --out resnet18-w8-l3.sia --width 8 --levels 3 --epochs 20`
//! (ResNet-18, width 8, L = 3, 3×16×16 synthetic data). Training is
//! bit-deterministic, so the command reproduces these bytes; the benchmark
//! refuses to run on any other file.

/// Path of the committed model.
pub const MODEL_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/model/resnet18-w8-l3.sia");

/// [`Fnv1a`] of the committed model's bytes. `model/resnet18-w8-l3.sia.sha256`
/// records the same file for `sha256sum -c`. The benchmark hashes the file
/// itself rather than comparing `LoadedModel::hash`, so a change to the
/// program's content hash cannot stop it from running.
pub const MODEL_FNV1A: u64 = 0x8f22_2b0c_1e06_4153;

/// [`Fnv1a`] of the integer datapath's logits (every timestep of every
/// image) over the reference set at fixed T = 8.
pub const REFERENCE_FIXED: u64 = 0xe723_f579_4f12_7059;

/// [`Fnv1a`] of the integer datapath's logits over the reference set under
/// the serving workload's margin exit policy.
pub const REFERENCE_MARGIN: u64 = 0x5eee_ac81_625a_e39b;

/// FNV-1a, 64 bit: a small, fully specified hash for the committed
/// fingerprints and for comparing stored runs.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds in `bytes`.
    #[must_use]
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in a word, little-endian.
    #[must_use]
    pub fn word(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Bit-exact fingerprint of logit rows.
#[must_use]
pub fn logits_fingerprint<'a>(rows: impl IntoIterator<Item = &'a Vec<f32>>) -> u64 {
    rows.into_iter()
        .flatten()
        .fold(Fnv1a::default(), |h, v| h.bytes(&v.to_bits().to_le_bytes()))
        .finish()
}

/// Checks the committed model file before a run.
///
/// # Errors
///
/// Fails when the file is unreadable or is not the committed model.
pub fn verify() -> Result<(), String> {
    let bytes = std::fs::read(MODEL_PATH).map_err(|e| format!("reading {MODEL_PATH}: {e}"))?;
    check_bytes(&bytes)
}

fn check_bytes(bytes: &[u8]) -> Result<(), String> {
    let hash = Fnv1a::default().bytes(bytes).finish();
    if hash != MODEL_FNV1A {
        return Err(format!(
            "{MODEL_PATH} hashes to {hash:#018x}, expected {MODEL_FNV1A:#018x}; \
             regenerate it with the command in model/README.md"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        let h = |b: &[u8]| Fnv1a::default().bytes(b).finish();
        assert_eq!(h(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(h(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(h(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn the_committed_model_passes_and_a_changed_byte_does_not() {
        assert!(verify().is_ok());
        let mut bytes = std::fs::read(MODEL_PATH).unwrap();
        bytes[1000] ^= 1;
        assert!(check_bytes(&bytes).is_err());
    }
}
