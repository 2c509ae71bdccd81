//! Experiment harness library.
//!
//! Shared infrastructure for the per-figure/per-table experiment binaries
//! (`src/bin/*.rs`): TPC-H database loading, timing helpers, and
//! result-table printing. See `DESIGN.md` at the repository root for the
//! experiment index.

pub mod harness;
