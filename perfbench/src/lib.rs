//! # sentinel-perfbench — end-to-end and per-layer benchmark
//!
//! Three workloads, each driven from outside the program through the
//! public API of `sentinel-bench`, `-core`, `-dnn`, `-models` and `-serve`:
//!
//! * [`paper_suite`] — every registry experiment in fast mode at 2 jobs;
//! * [`train_steady`] — Sentinel training of the paper-size models;
//! * [`serve_mix`] — closed-loop traffic against an in-process daemon.
//!
//! Each has an untraced `measure` (the end-to-end metrics, the same set for
//! every workload) and a `trace` that times calls into each layer (the
//! per-layer metrics). A traced run of any workload runs all three
//! `trace`s, so it prints every per-layer metric. See `README.md` beside
//! this crate for every metric, its unit and clock.

pub mod frames;
pub mod host;
pub mod outcome;
pub mod paper_suite;
pub mod serve_mix;
pub mod stats;
pub mod timed;
pub mod train_steady;
