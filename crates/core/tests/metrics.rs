//! Metrics-exactness tests: the registry is not a parallel estimate of
//! the run — its counters must agree *exactly* with the totals the
//! runtime assembles into its [`RunReport`] from per-thread
//! bookkeeping, because both are incremented at the same sites. Any
//! drift means an instrumentation point was added, dropped, or
//! double-counted.

use gridbnb_core::runtime::{run, RuntimeConfig};
use gridbnb_core::{MetricsRegistry, MetricsSnapshot, UBig};
use gridbnb_engine::solve;
use gridbnb_flowshop::taillard::generate;
use gridbnb_flowshop::FlowshopProblem;

fn small_flowshop(seed: i64) -> FlowshopProblem {
    let instance = generate(9, 4, seed);
    FlowshopProblem::with_default_bound(instance)
}

fn fast_config(workers: usize) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(workers);
    config.poll_nodes = 500;
    config.coordinator.duplication_threshold = UBig::from(32u64);
    config.coordinator.holder_timeout_ns = 20_000_000; // 20 ms
    config
}

/// Every histogram in a snapshot must satisfy the structural
/// invariant: per-bucket counts sum to the total observation count
/// (the `+Inf` bucket catches everything past the last bound, so no
/// observation can escape).
fn assert_histogram_invariants(snapshot: &MetricsSnapshot) {
    for h in &snapshot.histograms {
        assert_eq!(
            h.buckets.iter().sum::<u64>(),
            h.count,
            "histogram {} bucket counts disagree with its total",
            h.name
        );
        assert_eq!(
            h.buckets.len(),
            h.bounds.len() + 1,
            "histogram {} is missing its +Inf bucket",
            h.name
        );
    }
}

/// The headline invariant: a sharded run (W=8, S=4) with an injected
/// registry reports identical totals through both channels.
#[test]
fn sharded_run_counters_match_the_report_exactly() {
    let problem = small_flowshop(77);
    let expected = solve(&problem, None).best_cost;
    let registry = MetricsRegistry::new();
    let config = fast_config(8).with_shards(4).with_metrics(&registry);
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected);

    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("gbnb_worker_contacts_total"),
        report.total_contacts(),
        "worker contact counters drifted from the report"
    );
    assert_eq!(
        snapshot.counter("gbnb_worker_bound_calls_total"),
        report.total_bound_calls(),
        "bound-call counters drifted from the report"
    );
    let units: u64 = report.workers.iter().map(|w| w.units).sum();
    assert_eq!(snapshot.counter("gbnb_worker_units_total"), units);
    assert_eq!(snapshot.counter("gbnb_router_steals_total"), report.steals);
    // Per-shard counters are a partition of the router total: summing
    // the `{shard=...}` label sets reproduces the unlabelled family.
    assert_eq!(
        snapshot.counter("gbnb_shard_contacts_total"),
        snapshot.counter("gbnb_router_contacts_total"),
        "per-shard contacts no longer partition the router total"
    );
    // The run explored something, and its timings landed.
    assert!(snapshot.counter("gbnb_worker_units_total") > 0);
    assert!(snapshot.histogram_count("gbnb_worker_slice_ns") > 0);
    assert!(snapshot.counter("gbnb_worker_busy_ns_total") > 0);
    assert_histogram_invariants(&snapshot);
}

/// The default run is the one-shard router, contacted directly: every
/// worker contact is one router contact, counted in the registry, and
/// no tier between worker and router registers any series.
#[test]
fn default_run_is_the_one_shard_router_and_mirrored_in_metrics() {
    let problem = small_flowshop(88);
    let expected = solve(&problem, None).best_cost;

    let registry = MetricsRegistry::new();
    let default = run(&problem, &fast_config(4).with_metrics(&registry));
    assert_eq!(default.proven_optimum, expected);
    assert_eq!(default.solution.as_ref().map(|s| s.cost), expected);
    assert_eq!(default.shard_stats.len(), 1);
    let snapshot = registry.snapshot();
    // Every worker contact is one lock-acquiring router contact.
    assert_eq!(default.router_contacts, default.total_contacts());
    assert_eq!(
        snapshot.counter("gbnb_router_contacts_total"),
        default.router_contacts
    );
    assert!(
        !registry.render_text().contains("gateway"),
        "a gateway series was registered on a direct run"
    );
    assert_histogram_invariants(&snapshot);
}

/// Re-running with the same injected registry accumulates (counters
/// are monotone across runs); a fresh registry starts at zero — the
/// injection really is the only plumbing between run and registry.
#[test]
fn injected_registry_accumulates_across_runs() {
    let problem = small_flowshop(99);
    let registry = MetricsRegistry::new();
    let config = fast_config(2).with_shards(2).with_metrics(&registry);

    let first = run(&problem, &config);
    let after_first = registry.snapshot().counter("gbnb_worker_contacts_total");
    assert_eq!(after_first, first.total_contacts());

    let second = run(&problem, &config);
    let after_second = registry.snapshot().counter("gbnb_worker_contacts_total");
    assert_eq!(
        after_second,
        first.total_contacts() + second.total_contacts(),
        "a shared registry must accumulate, not reset"
    );
}
