//! Shared harness utilities for the table/figure regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper. They share the simulation
//! presets defined here so that `table2`, `fig7`, `scalability` and
//! `redundancy` are views of the same experimental setup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gridbnb_bigint::UBig;
use gridbnb_core::CoordinatorConfig;
use gridbnb_grid::{paper_pool, SimConfig, WorkloadModel};

/// Scale divisor for simulated pools, configurable via the
/// `GRIDBNB_SCALE` environment variable (default 10: ~190 processors;
/// use 1 for the full 1889-processor pool — slower but closest to the
/// paper).
pub fn scale_from_env() -> usize {
    std::env::var("GRIDBNB_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(10)
}

/// Synthetic node visits for the Table 2 workload, configurable via
/// `GRIDBNB_NODES` (default 2·10¹⁰; the paper's run visited 6.5·10¹²).
pub fn nodes_from_env() -> f64 {
    std::env::var("GRIDBNB_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &f64| n > 0.0)
        .unwrap_or(2e10)
}

/// The standard Ta056-shaped simulation: the paper's pool (scaled),
/// an irregular workload over the 50! interval, 30-minute farmer
/// checkpoints, and the duplication threshold at one ten-millionth of
/// the space.
pub fn ta056_sim(scale: usize, total_nodes: f64, seed: u64) -> (SimConfig, WorkloadModel) {
    let pool = paper_pool().scaled_down(scale);
    let workload = WorkloadModel::irregular(UBig::factorial(50), total_nodes, 1024, 2.5, seed);
    let mut config = SimConfig::new(pool);
    config.seed = seed;
    config.coordinator = CoordinatorConfig {
        duplication_threshold: UBig::factorial(50).div_rem_u64(10_000_000).0,
        holder_timeout_ns: 15 * 60 * 1_000_000_000,
        initial_upper_bound: Some(3680),
    };
    config.sample_period_s = 1_800.0;
    // The paper's pool was shared infrastructure: of 1889 listed
    // processors, the run averaged 328. Participation below 1 plus the
    // campus churn reproduces that occupancy profile.
    config.volatility.participation = 0.65;
    (config, workload)
}

/// Renders a ratio as a percent string like `97.3 %`.
pub fn pct(x: f64) -> String {
    format!("{:.2} %", x * 100.0)
}

/// Renders seconds as a human duration (`25.3 days`, `4.1 h`, …).
pub fn human_duration(seconds: f64) -> String {
    if seconds >= 2.0 * 86_400.0 {
        format!("{:.1} days", seconds / 86_400.0)
    } else if seconds >= 2.0 * 3_600.0 {
        format!("{:.1} h", seconds / 3_600.0)
    } else if seconds >= 120.0 {
        format!("{:.1} min", seconds / 60.0)
    } else {
        format!("{seconds:.1} s")
    }
}

/// Renders seconds of cumulative CPU as years when large.
pub fn human_cpu(seconds: f64) -> String {
    let years = seconds / (365.25 * 86_400.0);
    if years >= 0.1 {
        format!("{years:.2} years")
    } else {
        human_duration(seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.973), "97.30 %");
        assert!(human_duration(3.0 * 86_400.0).contains("days"));
        assert!(human_duration(3.0 * 3_600.0).contains("h"));
        assert!(human_duration(300.0).contains("min"));
        assert!(human_duration(10.0).contains("s"));
        assert!(human_cpu(22.0 * 365.25 * 86_400.0).contains("years"));
    }

    #[test]
    fn presets_have_paper_knobs() {
        let (config, workload) = ta056_sim(40, 1e8, 1);
        assert_eq!(config.farmer_checkpoint_period_s, 30.0 * 60.0);
        assert_eq!(config.coordinator.initial_upper_bound, Some(3680));
        assert_eq!(*workload.root_length(), UBig::factorial(50));
    }
}
