//! The discrete-event grid simulator.
//!
//! Drives the *real* [`Coordinator`] (the same state machine the thread
//! runtime uses) with thousands of simulated volatile heterogeneous
//! workers speaking the pull-model protocol over simulated network
//! latencies. Reproduces the shape of the paper's Table 2 (execution
//! statistics) and Figure 7 (available processors over time).
//!
//! Time is virtual (`u64` nanoseconds); the exploration effort comes
//! from a [`WorkloadModel`]. One simulated worker = one processor of the
//! pool; it joins when its host becomes available (cycle stealing),
//! explores its interval at `ghz × base_nodes_per_sec_per_ghz` node
//! visits per second, contacts the farmer every `update_period_s`, and
//! silently loses its state when the host is reclaimed.

use crate::net::LatencyModel;
use crate::pool::GridPool;
use crate::volatility::{AvailabilitySampler, VolatilityModel};
use crate::workload::WorkloadModel;
use gridbnb_core::{
    CoordinatorConfig, CoordinatorStats, Interval, MetricsRegistry, Request, Response, ShardRouter,
    WorkerId,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The machine pool (e.g. [`crate::pool::paper_pool`]).
    pub pool: GridPool,
    /// Host availability model.
    pub volatility: VolatilityModel,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Node visits per second per GHz. The paper explored ≈6.5·10¹²
    /// nodes in ≈22 CPU-years: ≈9 400 nodes/s on an average ≈2.2 GHz
    /// processor, i.e. ≈4 300 nodes/s/GHz (the Johnson bound is
    /// expensive).
    pub base_nodes_per_sec_per_ghz: f64,
    /// Seconds between a worker's farmer contacts.
    pub update_period_s: f64,
    /// Farmer CPU time per handled request, microseconds.
    pub farmer_service_us: f64,
    /// Farmer checkpoint period (paper: 30 minutes).
    pub farmer_checkpoint_period_s: f64,
    /// Farmer CPU time per checkpoint, seconds.
    pub farmer_checkpoint_cost_s: f64,
    /// Coordinator knobs (duplication threshold, holder timeout).
    pub coordinator: CoordinatorConfig,
    /// Coordinator shards: the root range is partitioned across this
    /// many independent coordinators with work stealing between them
    /// (1 = the paper's single farmer).
    pub shards: usize,
    /// Shared metrics registry. When set, the simulated coordinator's
    /// shard/router metrics land here alongside per-kind
    /// `gbnb_sim_events_total` counters for the event loop itself, so
    /// a campaign harness can scrape the virtual deployment exactly as
    /// it scrapes a live one. `None` keeps a private registry.
    pub metrics: Option<MetricsRegistry>,
    /// Metrics sampling period (Figure 7 resolution).
    pub sample_period_s: f64,
    /// RNG seed for availability.
    pub seed: u64,
    /// Hard stop (safety net; the run normally terminates by itself).
    pub max_sim_days: f64,
}

impl SimConfig {
    /// Reasonable defaults for a given pool and workload scale.
    pub fn new(pool: GridPool) -> Self {
        SimConfig {
            pool,
            volatility: VolatilityModel::default(),
            latency: LatencyModel::default(),
            base_nodes_per_sec_per_ghz: 4_300.0,
            update_period_s: 60.0,
            farmer_service_us: 3_000.0,
            farmer_checkpoint_period_s: 30.0 * 60.0,
            farmer_checkpoint_cost_s: 0.5,
            coordinator: CoordinatorConfig::default(),
            shards: 1,
            metrics: None,
            sample_period_s: 3_600.0,
            seed: 2006,
            max_sim_days: 400.0,
        }
    }
}

/// One point of the Figure 7 series.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Simulated time, seconds since start.
    pub t_s: f64,
    /// Hosts online (available to the computation).
    pub online: usize,
    /// Hosts actually holding a work unit.
    pub exploited: usize,
}

/// Aggregated outcome of a simulated run (Table 2 rows).
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Wall-clock (simulated) duration, seconds.
    pub wall_s: f64,
    /// Cumulative exploration CPU time, seconds (paper: "22 years").
    pub cpu_s: f64,
    /// Average number of online workers (paper: 328).
    pub avg_workers: f64,
    /// Peak online workers (paper: 1 195).
    pub max_workers: usize,
    /// Busy / online time ratio of workers (paper: 97 %).
    pub worker_exploitation: f64,
    /// Farmer busy / wall ratio (paper: 1.7 %).
    pub farmer_exploitation: f64,
    /// Worker-side checkpoint (update) operations (paper: 4 094 176 in
    /// total with ~2 M by B&B processes).
    pub checkpoint_ops: u64,
    /// Total coordinator contacts (lock-acquiring deliveries): every
    /// protocol op is its own contact, plus one per drained-shard steal
    /// retry.
    pub contacts: u64,
    /// Farmer file checkpoints written.
    pub farmer_checkpoints: u64,
    /// Work allocations (paper: 129 958).
    pub work_allocations: u64,
    /// Total node visits performed (paper: 6.5·10¹²).
    pub explored_nodes: f64,
    /// Fraction of node visits that were redundant (paper: 0.39 %).
    pub redundant_ratio: f64,
    /// Figure 7 series.
    pub samples: Vec<Sample>,
    /// Raw coordinator counters (summed over shards when sharded).
    pub coordinator_stats: CoordinatorStats,
    /// Cross-shard work steals (0 when `shards` is 1).
    pub steals: u64,
    /// The proven best cost at the end of the run — the router's cutoff
    /// (the initial upper bound, tightened by any reported solution).
    /// Batching must leave it untouched; tests pin it.
    pub best_cost: Option<u64>,
    /// Whether the exploration completed (vs hit `max_sim_days`).
    pub completed: bool,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum EventKind {
    HostUp(usize),
    HostDown(usize, u64),
    /// Worker finished an exploration slice and contacts the farmer.
    Step(usize, u64),
    Sweep,
    Checkpoint,
    Sample,
}

struct HeapItem {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct Unit {
    live: Interval,
    u_pos: f64,
    u_end: f64,
}

struct SimWorker {
    cluster: usize,
    rate_nodes_per_s: f64,
    latency_ns: u64,
    online: bool,
    done: bool,
    joined: bool,
    epoch: u64,
    id: WorkerId,
    unit: Option<Unit>,
    slice_start_ns: u64,
    busy_ns: u64,
    online_ns: u64,
    online_since_ns: u64,
}

/// Runs the simulation to termination (or the safety cap).
pub fn simulate(config: &SimConfig, workload: &WorkloadModel) -> SimReport {
    let procs = config.pool.processors();
    let mut sampler = AvailabilitySampler::new(config.seed);
    // Invalid configs fail fast here (satisfying CoordinatorConfig's
    // documented contract) instead of being silently clamped.
    let mut coordinator = ShardRouter::new(
        Interval::new(gridbnb_core::UBig::zero(), workload.root_length().clone()),
        config.shards,
        config.coordinator.clone(),
    )
    .expect("invalid sim coordinator config");
    if let Some(registry) = &config.metrics {
        coordinator = coordinator.with_metrics(registry);
    }
    let registry = coordinator.metrics().clone();
    let sim_event = |kind: &str| registry.counter("gbnb_sim_events_total", &[("kind", kind)]);
    let ev_host_up = sim_event("host_up");
    let ev_host_down = sim_event("host_down");
    let ev_step = sim_event("step");
    let ev_sweep = sim_event("sweep");
    let ev_checkpoint = sim_event("checkpoint");
    let ev_sample = sim_event("sample");

    let mut queue: BinaryHeap<HeapItem> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |queue: &mut BinaryHeap<HeapItem>, seq: &mut u64, time: u64, kind: EventKind| {
        *seq += 1;
        queue.push(HeapItem {
            time,
            seq: *seq,
            kind,
        });
    };

    let mut next_id = procs.len() as u64;
    let mut workers: Vec<SimWorker> = procs
        .iter()
        .enumerate()
        .map(|(i, p)| SimWorker {
            cluster: p.cluster,
            rate_nodes_per_s: p.ghz * config.base_nodes_per_sec_per_ghz,
            latency_ns: config.latency.to_farmer_ns(&config.pool, p.cluster),
            online: false,
            done: false,
            joined: false,
            epoch: 0,
            id: WorkerId(i as u64),
            unit: None,
            slice_start_ns: 0,
            busy_ns: 0,
            online_ns: 0,
            online_since_ns: 0,
        })
        .collect();

    // Initial joins over the ramp-up window.
    for i in 0..workers.len() {
        if sampler.participates(config.volatility.participation) {
            let t = sampler.initial_join_ns(config.volatility.rampup_s);
            push(&mut queue, &mut seq, t, EventKind::HostUp(i));
        }
    }
    let sweep_period_ns = (config.coordinator.holder_timeout_ns / 2).max(1_000_000_000);
    push(&mut queue, &mut seq, sweep_period_ns, EventKind::Sweep);
    push(
        &mut queue,
        &mut seq,
        (config.farmer_checkpoint_period_s * 1e9) as u64,
        EventKind::Checkpoint,
    );
    push(
        &mut queue,
        &mut seq,
        (config.sample_period_s * 1e9) as u64,
        EventKind::Sample,
    );

    let max_ns = (config.max_sim_days * 86_400.0 * 1e9) as u64;
    let update_period_ns = (config.update_period_s * 1e9).max(1.0) as u64;
    let service_ns = (config.farmer_service_us * 1e3) as u64;

    let mut farmer_busy_ns = 0u64;
    let mut farmer_checkpoints = 0u64;
    let mut checkpoint_ops = 0u64;
    let mut explored_nodes = 0f64;
    let mut samples = Vec::new();
    let mut now = 0u64;
    let mut completed = false;

    while let Some(item) = queue.pop() {
        now = item.time;
        if now > max_ns {
            break;
        }
        if coordinator.is_terminated() {
            completed = true;
            break;
        }
        match item.kind {
            EventKind::HostUp(_) => ev_host_up.inc(),
            EventKind::HostDown(..) => ev_host_down.inc(),
            EventKind::Step(..) => ev_step.inc(),
            EventKind::Sweep => ev_sweep.inc(),
            EventKind::Checkpoint => ev_checkpoint.inc(),
            EventKind::Sample => ev_sample.inc(),
        }
        match item.kind {
            EventKind::HostUp(w) => {
                let worker = &mut workers[w];
                if worker.done || worker.online {
                    continue;
                }
                worker.online = true;
                worker.online_since_ns = now;
                worker.epoch += 1;
                worker.id = WorkerId(next_id);
                next_id += 1;
                worker.joined = false;
                worker.unit = None;
                worker.slice_start_ns = now;
                let epoch = worker.epoch;
                // Contact the farmer right away (Join).
                push(&mut queue, &mut seq, now, EventKind::Step(w, epoch));
                // Schedule the end of this availability period.
                let profile = config
                    .volatility
                    .profile(config.pool.clusters[worker.cluster].kind);
                let up = sampler.up_period_ns(&profile);
                push(
                    &mut queue,
                    &mut seq,
                    now.saturating_add(up),
                    EventKind::HostDown(w, epoch),
                );
            }
            EventKind::HostDown(w, epoch) => {
                let worker = &mut workers[w];
                if worker.done || !worker.online || worker.epoch != epoch {
                    continue;
                }
                // Apply the partial slice explored before the failure —
                // the work happened, but its result is lost (the
                // coordinator copy still has the last reported state, so
                // the tail is re-explored by someone else: redundancy).
                if worker.unit.is_some() {
                    let spent = apply_exploration(worker, workload, now);
                    explored_nodes += spent;
                }
                worker.online = false;
                worker.unit = None;
                worker.online_ns += now - worker.online_since_ns;
                worker.epoch += 1;
                let profile = config
                    .volatility
                    .profile(config.pool.clusters[worker.cluster].kind);
                let down = sampler.down_period_ns(&profile, now);
                push(
                    &mut queue,
                    &mut seq,
                    now.saturating_add(down),
                    EventKind::HostUp(w),
                );
            }
            EventKind::Step(w, epoch) => {
                // 1. Account the exploration slice that just ended and
                //    choose the message, under a scoped borrow of the
                //    stepping worker.
                let (request, handle_at) = {
                    let worker = &mut workers[w];
                    if worker.done || !worker.online || worker.epoch != epoch {
                        continue;
                    }
                    if worker.unit.is_some() {
                        let spent = apply_exploration(worker, workload, now);
                        explored_nodes += spent;
                    }
                    let exhausted = match &worker.unit {
                        Some(u) => {
                            workload.nodes_between(u.u_pos, u.u_end) <= 0.0 || u.live.is_empty()
                        }
                        None => true,
                    };
                    let power = (worker.rate_nodes_per_s / 100.0).max(1.0) as u64;
                    let request = if !worker.joined {
                        Request::Join {
                            worker: worker.id,
                            power,
                        }
                    } else if exhausted {
                        Request::RequestWork {
                            worker: worker.id,
                            power,
                        }
                    } else {
                        checkpoint_ops += 1;
                        Request::Update {
                            worker: worker.id,
                            interval: worker.unit.as_ref().expect("unit").live.clone(),
                        }
                    };
                    worker.joined = true;
                    // Farmer handles after the one-way latency.
                    (request, now + worker.latency_ns)
                };
                // 2. Deliver: one synchronous contact.
                let response = coordinator.handle(request, handle_at);
                // 3. Apply the reply and schedule the next slice end.
                let worker = &mut workers[w];
                farmer_busy_ns += service_ns;
                let resume_at = handle_at + service_ns + worker.latency_ns;
                match response {
                    Response::Work { interval, .. } => {
                        let u_pos = workload.frac_of(interval.begin());
                        let u_end = workload.frac_of(interval.end());
                        worker.unit = Some(Unit {
                            live: interval,
                            u_pos,
                            u_end,
                        });
                    }
                    // An empty intersection drops the unit (completed or
                    // fully stolen elsewhere); otherwise the end retreats.
                    Response::UpdateAck { interval, .. } => {
                        let unit = worker.unit.as_mut().expect("update with unit");
                        if interval.is_empty() {
                            worker.unit = None;
                        } else {
                            unit.live.retreat_end(interval.end());
                            unit.u_end = workload.frac_of(unit.live.end());
                            if unit.live.is_empty() {
                                worker.unit = None;
                            }
                        }
                    }
                    Response::Terminate => {
                        worker.done = true;
                        worker.online_ns += resume_at.saturating_sub(worker.online_since_ns);
                        worker.online = false;
                        continue;
                    }
                    // Sharded endgame backpressure: no unit, so the
                    // no-unit branch below re-asks after a beat.
                    Response::Retry => {}
                    Response::SolutionAck { .. } | Response::LeaveAck => {}
                }
                worker.slice_start_ns = resume_at;
                let slice_ns = match &worker.unit {
                    Some(u) => {
                        let available = workload.nodes_between(u.u_pos, u.u_end);
                        let need_s = available / worker.rate_nodes_per_s.max(1e-9);
                        ((need_s * 1e9) as u64).min(update_period_ns).max(1)
                    }
                    // No unit (fully stolen): ask again immediately.
                    None => 1,
                };
                push(
                    &mut queue,
                    &mut seq,
                    resume_at + slice_ns,
                    EventKind::Step(w, epoch),
                );
            }
            EventKind::Sweep => {
                // Periodic, not exact-time: workers whose update period
                // equals the holder timeout hover at the expiry boundary,
                // and sweeping the instant they cross it would expire
                // live-but-latent workers every cycle. The period keeps
                // the old grace window; the coordinator's heartbeat index
                // makes each sweep O(stale holders) instead of a scan of
                // all of `INTERVALS`, so sweeps are cheap even when the
                // pool is large and nothing is stale.
                coordinator.expire_stale_holders(now);
                farmer_busy_ns += service_ns;
                push(
                    &mut queue,
                    &mut seq,
                    now + sweep_period_ns,
                    EventKind::Sweep,
                );
            }
            EventKind::Checkpoint => {
                farmer_checkpoints += 1;
                farmer_busy_ns += (config.farmer_checkpoint_cost_s * 1e9) as u64;
                push(
                    &mut queue,
                    &mut seq,
                    now + (config.farmer_checkpoint_period_s * 1e9) as u64,
                    EventKind::Checkpoint,
                );
            }
            EventKind::Sample => {
                let online = workers.iter().filter(|w| w.online).count();
                let exploited = workers
                    .iter()
                    .filter(|w| w.online && w.unit.is_some())
                    .count();
                samples.push(Sample {
                    t_s: now as f64 / 1e9,
                    online,
                    exploited,
                });
                push(
                    &mut queue,
                    &mut seq,
                    now + (config.sample_period_s * 1e9) as u64,
                    EventKind::Sample,
                );
            }
        }
    }

    // Close the books on still-online workers.
    for w in &mut workers {
        if w.online {
            w.online_ns += now.saturating_sub(w.online_since_ns);
        }
    }

    let wall_s = now as f64 / 1e9;
    let busy_s: f64 = workers.iter().map(|w| w.busy_ns as f64 / 1e9).sum();
    let online_s: f64 = workers.iter().map(|w| w.online_ns as f64 / 1e9).sum();
    let avg_workers = if wall_s > 0.0 { online_s / wall_s } else { 0.0 };
    let max_workers = samples.iter().map(|s| s.online).max().unwrap_or(0);
    let total = workload.total_nodes();
    let redundant_ratio = if explored_nodes > total {
        (explored_nodes - total) / explored_nodes
    } else {
        0.0
    };
    SimReport {
        wall_s,
        cpu_s: busy_s,
        avg_workers,
        max_workers,
        worker_exploitation: if online_s > 0.0 {
            busy_s / online_s
        } else {
            0.0
        },
        farmer_exploitation: if wall_s > 0.0 {
            (farmer_busy_ns as f64 / 1e9) / wall_s
        } else {
            0.0
        },
        checkpoint_ops,
        contacts: coordinator.contacts(),
        farmer_checkpoints,
        work_allocations: coordinator.stats().work_allocations,
        explored_nodes,
        redundant_ratio,
        samples,
        coordinator_stats: coordinator.stats(),
        steals: coordinator.steals(),
        best_cost: coordinator.cutoff(),
        completed: completed || coordinator.is_terminated(),
    }
}

/// Advances the worker's unit for the slice `[slice_start, now)`;
/// returns node visits spent. Updates busy time and the live interval's
/// begin (monotone).
fn apply_exploration(worker: &mut SimWorker, workload: &WorkloadModel, now: u64) -> f64 {
    let unit = worker.unit.as_mut().expect("exploring without a unit");
    let dt_s = now.saturating_sub(worker.slice_start_ns) as f64 / 1e9;
    let budget = dt_s * worker.rate_nodes_per_s;
    let (new_u, spent) = workload.advance(unit.u_pos, unit.u_end, budget);
    unit.u_pos = new_u;
    let new_begin = workload.pos_of_frac(new_u);
    unit.live.advance_begin(&new_begin);
    // Busy only for the time actually needed.
    let busy_s = if budget > 0.0 {
        dt_s * (spent / budget).min(1.0)
    } else {
        0.0
    };
    worker.busy_ns += (busy_s * 1e9) as u64;
    worker.slice_start_ns = now;
    spent
}
