//! Shared harness for the paper-reproduction experiments.
//!
//! Every table and figure of the paper maps to a function here, and the
//! `tables` binary prints them by experiment id (`t1`..`t6`, `f1`..`f3`,
//! `m1`, `m2`). Everything is deterministic given the seeds in [`HarnessConfig`],
//! except the wall-clock columns of F1 and M2. Regression timing lives in
//! the separate `dtbench` package, not here.

// F1 and M2 report wall time; clippy.toml disallows the clock constructors
// in every other crate.
#![allow(clippy::disallowed_methods)]

pub mod experiments;
pub mod setup;

pub use experiments::*;
pub use setup::{HarnessConfig, ScaledSystem};
