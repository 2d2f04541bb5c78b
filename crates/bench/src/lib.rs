//! # smarth-bench
//!
//! Benchmark harness for the SMARTH reproduction: [`figures`] regenerates
//! every table and figure of the paper's evaluation section on the
//! deterministic simulator, and [`report`] renders/saves the results.

#![forbid(unsafe_code)]

pub mod figures;
pub mod report;
