//! Persistent serving layer over the SIA engine stack.
//!
//! Turns the one-shot evaluation pipeline into a long-lived service, in
//! two pieces layered on `sia_snn::EnginePool`:
//!
//! * [`registry`] — the one loader every `model.sia` consumer shares:
//!   parse, content-hash, and gate on [`sia_check`] static verification;
//!   [`ModelRegistry`] keys loaded images by hash and tracks which one is
//!   serving (hot-swap can only commit a verified model).
//! * [`server`] — a zero-dependency blocking HTTP/1.1 front end
//!   (`/predict`, `/healthz`, `/metrics`, `/models`, `/shutdown`) whose
//!   predictions are **bit-identical** to `sia eval` on the same model,
//!   backend and timesteps: each request is submitted straight to the
//!   resident engine pool (per-image independent runs, index-order
//!   reduction), and a bounded in-flight count rejects the excess with a
//!   typed [`Overloaded`] error (HTTP 503) instead of queueing it.
//!
//! The CLI front door is `sia serve`; `sia bench serve` drives it with a
//! concurrency-sweeping load generator.

#![forbid(unsafe_code)]
// Request paths must degrade into typed errors (HTTP 500/503), never a
// worker-thread panic that strands the connection; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod http;
pub mod registry;
pub mod server;

pub use http::{Client, Request};
pub use registry::{
    check_encoding, content_hash, enforce_static_checks, expects_events, load_bytes, load_file,
    load_for_run, parse_file, Backend, LoadedModel, ModelRegistry,
};
pub use server::{
    images_json, metrics_json, parse_images, parse_predictions, predictions_json, Overloaded,
    PredictError, Prediction, ServeConfig, Server, ServingUnit,
};
