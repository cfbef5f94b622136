//! End-to-end benchmark of the SIA reproduction. See `README.md` for the
//! workloads, metrics and how to run them.

#![forbid(unsafe_code)]

pub mod accel;
pub mod common;
pub mod eval;
pub mod model;
pub mod output;
pub mod passthrough;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod trace;
