//! Deployment-image loading, verification and hot-swap bookkeeping.
//!
//! One loader for every consumer of a `model.sia` image — `sia eval`,
//! `sia calibrate`, `sia check`, `sia bench eval` and the serving front
//! end all route through here instead of each re-implementing read →
//! parse → verify. A [`ModelRegistry`] keys loaded images by **content hash**
//! (FNV-1a 64 over the raw bytes), so re-loading identical bytes is a
//! no-op and `/models` can state exactly which artifact is serving.
//!
//! Hot-swap safety: [`load_bytes`] refuses images whose static
//! verification ([`sia_check::check_network`]) reports error-severity
//! findings — a registry can never swap a known-broken model into the
//! serving path, with the same message `sia eval` prints.

use sia_accel::{read_image, SiaConfig};
use sia_sched::{MutexApi, StdSync, SyncOps};
use sia_snn::{SnnItem, SnnNetwork};
use std::sync::Arc;

/// Engine backend selection, shared by `sia eval`, `sia serve` and the
/// serve bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Float reference dynamics ([`sia_snn::FloatRunner`]).
    Float,
    /// Integer datapath ([`sia_snn::IntRunner`]).
    Int,
    /// Cycle-level accelerator ([`sia_accel::SiaMachine`]).
    Accel,
}

impl Backend {
    /// The CLI spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Float => "float",
            Backend::Int => "int",
            Backend::Accel => "accel",
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "float" => Ok(Backend::Float),
            "int" => Ok(Backend::Int),
            "accel" => Ok(Backend::Accel),
            other => Err(format!("unknown backend '{other}' (float|int|accel)")),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// FNV-1a 64 over an image's raw bytes — the registry key and the model
/// identity `/healthz` reports.
#[must_use]
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether a converted network wants event-stream input (no dense
/// [`SnnItem::InputConv`] front end).
#[must_use]
pub fn expects_events(net: &SnnNetwork) -> bool {
    !matches!(net.items.first(), Some(SnnItem::InputConv(_)))
}

/// The shared encoding guard: rejects feeding dense frames to an
/// event-input model or vice versa, with the one canonical message
/// (`cmd_eval` and the serving path both print this).
///
/// # Errors
///
/// Returns the mismatch message when `use_events` disagrees with the
/// network's input stage.
pub fn check_encoding(net: &SnnNetwork, use_events: bool) -> Result<(), String> {
    let event_net = expects_events(net);
    if use_events == event_net {
        return Ok(());
    }
    Err(format!(
        "model expects {} input (retrain with{} --events)",
        if event_net { "event-stream" } else { "dense" },
        if event_net { "" } else { "out" }
    ))
}

/// The gate `run`/`eval`/`serve` enforce: refuse models whose static
/// verification reports error-severity findings.
///
/// # Errors
///
/// Returns the canonical refusal message naming the first error.
pub fn enforce_static_checks(
    net: &SnnNetwork,
    cfg: &SiaConfig,
    timesteps: usize,
) -> Result<(), String> {
    let report = sia_check::check_network(net, cfg, timesteps);
    if report.passed() {
        return Ok(());
    }
    let first = report
        .diagnostics
        .iter()
        .find(|d| d.severity == sia_check::Severity::Error)
        .map_or_else(
            // a non-passing report without an error diagnostic cannot
            // happen today, but the serve path must not panic on it
            || "report failed without an error diagnostic".to_string(),
            ToString::to_string,
        );
    Err(format!(
        "model fails static verification ({} error(s)); first: {first}\n\
         (run `sia check` on this model for the full report)",
        report.error_count()
    ))
}

/// A parsed, verified deployment image, ready to build engines from.
#[derive(Clone, Debug)]
pub struct LoadedModel {
    /// Content hash of the raw image bytes ([`content_hash`]).
    pub hash: u64,
    /// Where the image came from (path, or a caller-supplied label).
    pub source: String,
    /// The converted network, shared with every engine factory.
    pub network: Arc<SnnNetwork>,
    /// The target accelerator configuration baked into the image.
    pub config: SiaConfig,
    /// Whether the network wants event-stream input.
    pub event_input: bool,
    /// The timestep count the image was verified against.
    pub checked_timesteps: usize,
}

impl LoadedModel {
    /// The hash as the 16-hex-digit identity string used in HTTP responses.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// Parses an image file without verifying it — the `sia check`/`sia info`
/// half of the shared loader (check must not gate on itself).
///
/// # Errors
///
/// Propagates read and parse failures with the canonical CLI messages.
pub fn parse_file(path: &str) -> Result<(SnnNetwork, SiaConfig), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    read_image(&bytes).map_err(|e| e.to_string())
}

/// Gates parsed parts and assembles the [`LoadedModel`].
fn verified_model(
    bytes: &[u8],
    source: &str,
    network: SnnNetwork,
    config: SiaConfig,
    timesteps: usize,
) -> Result<LoadedModel, String> {
    enforce_static_checks(&network, &config, timesteps)?;
    let event_input = expects_events(&network);
    Ok(LoadedModel {
        hash: content_hash(bytes),
        source: source.to_string(),
        network: Arc::new(network),
        config,
        event_input,
        checked_timesteps: timesteps,
    })
}

/// Parses and verifies one image from raw bytes.
///
/// # Errors
///
/// Returns the parse error, or the [`enforce_static_checks`] refusal when
/// the image fails static verification — an unverifiable image never
/// becomes a [`LoadedModel`].
pub fn load_bytes(bytes: &[u8], source: &str, timesteps: usize) -> Result<LoadedModel, String> {
    let (network, config) = read_image(bytes).map_err(|e| e.to_string())?;
    verified_model(bytes, source, network, config, timesteps)
}

/// Reads, parses and verifies an image file.
///
/// # Errors
///
/// Propagates I/O, parse and verification failures ([`load_bytes`]).
pub fn load_file(path: &str, timesteps: usize) -> Result<LoadedModel, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    load_bytes(&bytes, path, timesteps)
}

/// The `sia eval`/`sia calibrate` loader: read → parse → encoding guard →
/// static-verification gate, in exactly that order, with the canonical
/// error message at each step.
///
/// # Errors
///
/// Propagates I/O, parse, [`check_encoding`] and
/// [`enforce_static_checks`] failures.
pub fn load_for_run(path: &str, use_events: bool, timesteps: usize) -> Result<LoadedModel, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (network, config) = read_image(&bytes).map_err(|e| e.to_string())?;
    check_encoding(&network, use_events)?;
    verified_model(&bytes, path, network, config, timesteps)
}

/// Loaded models keyed by content hash, with one marked as *serving*.
///
/// [`ModelRegistry::load`] is idempotent per content hash; a hot-swap
/// ([`ModelRegistry::set_serving`]) can only name a hash that passed
/// verification at load time.
/// Generic over the sync backend ([`StdSync`] in production) so the
/// `sia-sched` checker can explore the load/dedup/hot-swap locking.
pub struct ModelRegistry<S: SyncOps = StdSync> {
    inner: S::Mutex<RegistryState>,
    timesteps: usize,
}

struct RegistryState {
    models: Vec<Arc<LoadedModel>>,
    serving: Option<u64>,
}

impl ModelRegistry {
    /// Creates an empty registry; every load verifies against `timesteps`.
    #[must_use]
    pub fn new(timesteps: usize) -> Self {
        ModelRegistry::<StdSync>::new_in(timesteps)
    }
}

impl<S: SyncOps> ModelRegistry<S> {
    /// [`ModelRegistry::new`] generic over the sync backend.
    #[must_use]
    pub fn new_in(timesteps: usize) -> Self {
        ModelRegistry {
            inner: S::mutex(RegistryState {
                models: Vec::new(),
                serving: None,
            }),
            timesteps,
        }
    }

    /// The timestep count loads are verified against.
    #[must_use]
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// Loads an image file, dedup-keyed by content hash. The first load
    /// becomes the serving model.
    ///
    /// # Errors
    ///
    /// Propagates [`load_file`] failures; a failed load changes nothing.
    pub fn load(&self, path: &str) -> Result<Arc<LoadedModel>, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let hash = content_hash(&bytes);
        {
            let state = self.lock();
            if let Some(existing) = state.models.iter().find(|m| m.hash == hash) {
                return Ok(Arc::clone(existing));
            }
        }
        // parse + verify outside the lock (it can be slow), insert under it
        let model = Arc::new(load_bytes(&bytes, path, self.timesteps)?);
        Ok(self.insert(model))
    }

    /// Inserts an already-verified model under the registry lock,
    /// dedup-keyed by content hash; the first insert becomes the serving
    /// model. Returns the registry's entry (the existing one on a dedup
    /// hit). This is the whole locked section of [`ModelRegistry::load`],
    /// split out so the schedule checker can drive it without touching
    /// the filesystem.
    pub fn insert(&self, model: Arc<LoadedModel>) -> Arc<LoadedModel> {
        let mut state = self.lock();
        if let Some(existing) = state.models.iter().find(|m| m.hash == model.hash) {
            return Arc::clone(existing);
        }
        state.models.push(Arc::clone(&model));
        if state.serving.is_none() {
            state.serving = Some(model.hash);
        }
        sia_telemetry::counter!("serve.models.loaded", 1);
        model
    }

    /// All loaded models, load order.
    #[must_use]
    pub fn list(&self) -> Vec<Arc<LoadedModel>> {
        self.lock().models.clone()
    }

    /// The model currently marked as serving.
    #[must_use]
    pub fn serving(&self) -> Option<Arc<LoadedModel>> {
        let state = self.lock();
        let hash = state.serving?;
        state.models.iter().find(|m| m.hash == hash).cloned()
    }

    /// Marks a loaded model as serving (the hot-swap commit point — the
    /// caller rebuilds its engines from the returned model).
    ///
    /// # Errors
    ///
    /// Returns an error naming the hash when it is not in the registry.
    pub fn set_serving(&self, hash: u64) -> Result<Arc<LoadedModel>, String> {
        let mut state = self.lock();
        let model = state
            .models
            .iter()
            .find(|m| m.hash == hash)
            .cloned()
            .ok_or_else(|| format!("no loaded model with hash {hash:016x}"))?;
        state.serving = Some(hash);
        Ok(model)
    }

    fn lock(&self) -> <S::Mutex<RegistryState> as MutexApi<RegistryState>>::Guard<'_> {
        self.inner.lock()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sia_accel::write_image;
    use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
    use sia_snn::{convert, ConvertOptions};
    use sia_tensor::{Conv2dGeom, Tensor};

    /// A verified 3×8×8 conv → pool → linear deployment image.
    pub(crate) fn tiny_image() -> Vec<u8> {
        let geom = Conv2dGeom {
            in_channels: 3,
            out_channels: 4,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let spec = NetworkSpec {
            name: "registry-test".into(),
            input: (3, 8, 8),
            items: vec![
                SpecItem::Conv(ConvSpec {
                    geom,
                    weights: Tensor::from_vec(
                        vec![4, 3, 3, 3],
                        (0..108).map(|i| ((i % 7) as f32 - 3.0) * 0.05).collect(),
                    ),
                    bn: None,
                    act: Some(ActSpec {
                        levels: 8,
                        step: 1.0,
                    }),
                }),
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 4,
                    out_features: 10,
                    weights: Tensor::from_vec(
                        vec![10, 4],
                        (0..40).map(|i| ((i % 5) as f32 - 2.0) * 0.2).collect(),
                    ),
                    bias: vec![0.0; 10],
                }),
            ],
        };
        let net = convert(&spec, &ConvertOptions::default());
        write_image(&net, &sia_accel::SiaConfig::pynq_z2())
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let image = tiny_image();
        assert_eq!(content_hash(&image), content_hash(&image));
        let mut tweaked = image.clone();
        *tweaked.last_mut().unwrap() ^= 1;
        assert_ne!(content_hash(&image), content_hash(&tweaked));
        // FNV-1a of the empty input is the offset basis
        assert_eq!(content_hash(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn load_bytes_verifies_and_describes() {
        let image = tiny_image();
        let model = load_bytes(&image, "mem", 8).unwrap();
        assert_eq!(model.hash, content_hash(&image));
        assert_eq!(model.hash_hex().len(), 16);
        assert!(!model.event_input);
        assert_eq!(model.checked_timesteps, 8);
        check_encoding(&model.network, false).unwrap();
        let msg = check_encoding(&model.network, true).unwrap_err();
        assert_eq!(msg, "model expects dense input (retrain without --events)");
    }

    #[test]
    fn garbage_bytes_are_rejected() {
        assert!(load_bytes(b"not an image", "mem", 8).is_err());
    }

    #[test]
    fn registry_dedups_by_content_hash() {
        let dir = std::env::temp_dir().join("sia_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.sia");
        let b = dir.join("b.sia");
        let image = tiny_image();
        std::fs::write(&a, &image).unwrap();
        std::fs::write(&b, &image).unwrap();
        let registry = ModelRegistry::new(8);
        let first = registry.load(a.to_str().unwrap()).unwrap();
        let second = registry.load(b.to_str().unwrap()).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same bytes, same entry");
        assert_eq!(registry.list().len(), 1);
        assert_eq!(registry.serving().unwrap().hash, first.hash);
        // hot-swap to an unknown hash is refused
        assert!(registry.set_serving(first.hash ^ 1).is_err());
        assert_eq!(registry.set_serving(first.hash).unwrap().hash, first.hash);
    }
}
