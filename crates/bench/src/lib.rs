//! # ttlg-bench
//!
//! The evaluation harness: regenerates every table and figure of the TTLG
//! paper (IPDPS 2018, Sec. VI) on the simulated K40c. Each figure module
//! produces a [`report::Table`] with the same rows/series the paper
//! plots; the `reproduce` binary prints them (and writes CSVs under
//! `results/`).
//!
//! Figure index (see DESIGN.md for the full mapping):
//! * Table I — transaction-count formulas vs measured counts
//! * Table II — trained regression models (estimates/std.err/t/p)
//! * Table III — machine configuration
//! * Fig. 5 — predicted vs actual times over slice variants (27^5)
//! * Figs. 6/8/10 — all 720 permutations of 6D tensors (16/15/17),
//!   repeated use
//! * Figs. 7/9/11 — same, single use (plan time included)
//! * Fig. 12 — bandwidth vs number of repeated calls
//! * Fig. 13 — bandwidth vs dimension sizes
//! * Fig. 14 — the TTC benchmark suite
//!
//! The serving studies that back the service (`*_study`) run through one
//! harness, [`study`]: `ttlg bench-serve <study>` runs a study from the
//! table, writes its `BENCH_<study>.json` artifact and checks its gates.

pub mod async_study;
pub mod cpu_study;
pub mod figures;
pub mod gateway_study;
pub mod microbench;
pub mod report;
pub mod runner;
pub mod serve_study;
pub mod study;
pub mod tail_study;
pub mod trace_study;

pub use report::Table;
pub use runner::{CaseResult, Harness, SystemTimes};
