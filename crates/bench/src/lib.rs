//! Experiment harness: regenerates every table and figure of the BFW
//! paper reproduction.
//!
//! The paper (PODC 2025) is a theory paper; its "evaluation" consists of
//! Figure 1 (the protocol), Table 1 (comparison against prior work) and
//! the Theorems. This crate turns each into a measured artifact — see
//! DESIGN.md's experiment index (E1–E12) for the mapping. Each
//! experiment lives in [`experiments`] and returns paper-style
//! [`bfw_stats::Table`]s; the `experiments` binary prints them
//! and writes CSVs, and one Criterion bench per experiment keeps the
//! workloads timed.
//!
//! # Example
//!
//! ```no_run
//! use bfw_bench::{ExpConfig, experiments};
//!
//! let cfg = ExpConfig::quick();
//! let result = experiments::thm2_d::run(&cfg);
//! for (name, table) in &result.tables {
//!     println!("## {name}\n{}", table.to_markdown());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
mod runner;
mod workloads;

pub use runner::{election_summary, ElectionSummary};
pub use workloads::{GraphSpec, WorkloadError};

use bfw_stats::Table;

/// Shared experiment configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpConfig {
    /// Monte-Carlo trials per configuration point.
    pub trials: usize,
    /// Worker threads for trial parallelism.
    pub threads: usize,
    /// Base RNG seed; trial `i` of each point uses derived seeds.
    pub seed: u64,
    /// Reduce workload sizes (used by CI and the Criterion benches).
    pub quick: bool,
    /// Enable the optional noise sweeps (`--noise`): experiments that
    /// support it (E17) add perception-noise rows on top of their
    /// noise-free tables.
    pub noise: bool,
    /// Where report-emitting experiments (E19/E20/E21) write their
    /// `BENCH_*.json`. `None` means the current working directory, so a
    /// `bfw experiment` run writes where it is run and never into the
    /// source checkout it was built from (the CI smoke steps run from
    /// the repository root). Tests point this at a scratch directory so
    /// `cargo test` never clobbers the committed artifacts.
    pub report_dir: Option<std::path::PathBuf>,
}

impl ExpConfig {
    /// Full-size configuration used to produce EXPERIMENTS.md.
    pub fn full() -> Self {
        ExpConfig {
            trials: 30,
            threads: default_threads(),
            seed: 0xBF_2025,
            quick: false,
            noise: false,
            report_dir: None,
        }
    }

    /// Reduced configuration for smoke tests and benches.
    pub fn quick() -> Self {
        ExpConfig {
            trials: 8,
            threads: default_threads(),
            seed: 0xBF_2025,
            quick: true,
            noise: false,
            report_dir: None,
        }
    }

    /// Resolves the directory `BENCH_*.json` reports land in:
    /// [`report_dir`](ExpConfig::report_dir) when set, otherwise the
    /// current working directory (the empty relative path).
    pub fn report_root(&self) -> std::path::PathBuf {
        self.report_dir.clone().unwrap_or_default()
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Output of one experiment: named tables plus free-form observations
/// (the "measured vs. paper" notes that feed EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment identifier (e.g. `"E4-thm2-d-scaling"`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub reproduces: &'static str,
    /// Named result tables.
    pub tables: Vec<(String, Table)>,
    /// Headline observations (one per line in the report).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Renders the full result as Markdown (used by the binary and by
    /// EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.reproduces);
        for (name, table) in &self.tables {
            out.push_str(&format!("### {name}\n\n{}\n", table.to_markdown()));
        }
        if !self.notes.is_empty() {
            out.push_str("Observations:\n");
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn reports_land_in_the_working_directory_unless_redirected() {
        for cfg in [ExpConfig::quick(), ExpConfig::full()] {
            let path = cfg.report_root().join("BENCH_tick.json");
            assert_eq!(path, Path::new("BENCH_tick.json"), "relative to the cwd");
        }
        let cfg = ExpConfig {
            report_dir: Some("/tmp/reports".into()),
            ..ExpConfig::quick()
        };
        assert_eq!(cfg.report_root(), Path::new("/tmp/reports"));
    }
}
