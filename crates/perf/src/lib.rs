//! # sia-perf — performance attribution and regression tracking
//!
//! Turns the raw telemetry a run emits (JSONL events, counters, Chrome
//! trace spans) into *accountable* performance artifacts:
//!
//! * [`events`] — robust loading of metrics JSONL files: a missing, empty
//!   or truncated-mid-line file becomes a diagnostic, never a panic.
//! * [`attribution`] — joins the `accel.layer` event stream into a
//!   per-layer table (cycles, nominal vs effective ops, spike density,
//!   AXI traffic) and *reconciles* every sum against the live counters:
//!   attribution is an accounting identity, not an estimate.
//! * [`roofline`] — the Fig. 5 memory-map roofline (PE-array peak vs
//!   AXI stream bandwidth vs the MMIO driver path) and a per-layer
//!   compute-/memory-/driver-/overhead-bound classification.
//! * [`mod@bench`] — one JSON schema for every `sia bench` family (warmup
//!   discard, min-of-iters, median + MAD) plus a noise-aware baseline
//!   checker for `--check-baseline` regression gates.
//! * [`html`] — a self-contained single-file HTML report: inline
//!   flamegraph from the Chrome-trace buffer and sortable tables, no
//!   external assets.
//!
//! The crate depends only on `sia-telemetry`'s always-compiled `json`
//! module, so it behaves identically whether probes are enabled or not.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod bench;
pub mod events;
pub mod html;
pub mod roofline;

pub use attribution::{Attribution, LayerAttribution, ReconCheck};
pub use bench::{BenchCase, BenchReport, CaseDiff, CheckOutcome, HostInfo, Threshold};
pub use events::EventLog;
pub use roofline::{Bound, RooflineModel};
