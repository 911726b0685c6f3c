//! The metric declarations: every end-to-end metric with its regression
//! bound, every per-layer metric, by the names `BENCHMARK.json` lists
//! (a test keeps the two in step).

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
}

/// A metric of one layer (module or crate), from a traced run.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by every workload on every untraced run. A bound belongs
/// to a metric, not to a workload × metric pair, so it has to hold on
/// the least steady workload: the timing metrics get the widest bound
/// the benchmark contract allows because on the 2-core sandbox their
/// run-to-run spread (interquartile range over median, ten runs) has
/// reached 12–16 % on `qap_proof` and `tcp_durable` in a bad session
/// (4–7 % in a good one); memory never spread by more than 5.3 %
/// (README, "How steady it is").
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("time_to_proof_s", "s", Lower, 0.25),
    e2e("nodes_per_s", "nodes/s", Higher, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("worker_exploitation", "ratio", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Printed by untraced runs too, but declared per-layer (no bound),
/// because no bound the contract allows would hold them: one thread on
/// this host runs 15–25 % faster or slower from one process to the next
/// (the sequential baseline and the efficiency derived from it).
pub const SEQ_SOLVE_S: &str = "seq_solve_s";
pub const PARALLEL_EFFICIENCY: &str = "parallel_efficiency";

/// Reported by every workload on every traced run; 0 where a layer is
/// not on the workload's path.
pub const PER_LAYER: &[PerLayer] = &[
    layer(SEQ_SOLVE_S, "s", Lower),
    layer(PARALLEL_EFFICIENCY, "ratio", Higher),
    layer("engine.nodes_explored", "count", Lower),
    layer("engine.nodes_bounded", "count", Lower),
    layer("engine.bound_batches", "count", Lower),
    layer("engine.self_ns_per_node", "ns", Lower),
    layer("engine.self_share", "ratio", Lower),
    layer("engine.pool_fill", "ratio", Higher),
    layer("engine.wasted_bound_ratio", "ratio", Lower),
    layer("flowshop.bound_ns_per_state", "ns", Lower),
    layer("flowshop.bound_share", "ratio", Lower),
    layer("flowshop.branch_ns_per_call", "ns", Lower),
    layer("qap.bound_ns_per_state", "ns", Lower),
    layer("qap.bound_share", "ratio", Lower),
    layer("qap.branch_ns_per_call", "ns", Lower),
    layer("coding.unfold_ns", "ns", Lower),
    layer("coding.fold_ns", "ns", Lower),
    layer("coding.split_ns", "ns", Lower),
    layer("coding.est_share", "ratio", Lower),
    layer("bigint.divrem_ns", "ns", Lower),
    layer("bigint.decimal_roundtrip_ns", "ns", Lower),
    layer("runtime.contacts", "count", Lower),
    layer("runtime.units", "count", Lower),
    layer("runtime.contact_wait_ns_p50", "ns", Lower),
    layer("runtime.contact_wait_ns_p99", "ns", Lower),
    layer("runtime.slice_ns_p50", "ns", Lower),
    layer("runtime.idle_share", "ratio", Lower),
    layer("runtime.startup_ms", "ms", Lower),
    layer("runtime.shutdown_ms", "ms", Lower),
    layer("runtime.node_redundancy", "ratio", Lower),
    layer("runtime.interval_redundancy", "ratio", Lower),
    layer("coordinator.requests", "count", Lower),
    layer("coordinator.handle_ns_per_request", "ns", Lower),
    layer("coordinator.farmer_exploitation", "ratio", Lower),
    layer("coordinator.update_ns_mean", "ns", Lower),
    layer("coordinator.selection_ns_mean", "ns", Lower),
    layer("shard.steals", "count", Lower),
    layer("shard.router_contacts", "count", Lower),
    layer("shard.live_intervals_peak", "count", Lower),
    layer("shard.lock_hold_ns_mean", "ns", Lower),
    layer("net.frames", "count", Lower),
    layer("net.transport_retries", "count", Lower),
    layer("net.rtt_ns_p50", "ns", Lower),
    layer("net.rtt_ns_p99", "ns", Lower),
    layer("net.bytes_per_contact", "B", Lower),
    layer("net.encode_ns_per_frame", "ns", Lower),
    layer("net.decode_ns_per_frame", "ns", Lower),
    layer("net.service_ns_mean", "ns", Lower),
    layer("wal.appends", "count", Lower),
    layer("wal.compactions", "count", Lower),
    layer("wal.append_ns_p50", "ns", Lower),
    layer("wal.append_ns_p99", "ns", Lower),
    layer("wal.bytes_per_append", "B", Lower),
    layer("wal.compaction_ms_mean", "ms", Lower),
    layer("wal.recover_ms", "ms", Lower),
    layer("wal.recover_records", "count", Lower),
    layer("storage.puts", "count", Lower),
    layer("storage.disk_append_ns_p50", "ns", Lower),
    layer("metrics.series", "count", Lower),
    layer("metrics.scrape_us", "us", Lower),
    layer("trace.events", "count", Lower),
    layer("trace.encoded_bytes", "B", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace_overhead_ratio", "ratio", Lower),
];
