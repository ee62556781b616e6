//! # replend-bench
//!
//! The experiment harness of the reproduction: one regeneration
//! binary per table/figure of the paper and per ablation (see
//! `src/bin/`). Performance is measured by the separate `benchmark/`
//! package, declared in `BENCHMARK.json`.
//!
//! This library crate holds the shared machinery: averaging a
//! configuration over `n` seeded runs, executed as one
//! `CommunityCluster` (in parallel — runs are independent and the
//! combined output is bit-identical to the serial schedule); reading
//! the `REPLEND_RUNS` / `REPLEND_TICKS` scale overrides, which stop
//! the binary with an error unless they are positive integers; and
//! emitting both human-readable tables and CSV files under
//! `results/`.

pub mod experiment;
pub mod output;

pub use experiment::{run_average, RunMetrics};
pub use output::{print_table, write_csv};
