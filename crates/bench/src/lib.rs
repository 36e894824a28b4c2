#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # osnt-bench — experiment harnesses and benchmarks
//!
//! One binary per experiment (E1–E8, see `EXPERIMENTS.md`) plus Criterion
//! micro-benchmarks of the hot paths. Shared table-printing helpers live
//! here.

pub mod table;

pub use table::Table;
