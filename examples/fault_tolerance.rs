//! Fault-tolerance demonstration: workers crash mid-search (losing all
//! state), the coordinator recovers their intervals, and the final
//! optimum is still exact. Also shows farmer checkpoint/restore — the
//! paper's two-file recovery (§4.1), where each checkpoint is a
//! compaction of the durable log that writes the two files.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```
//!
//! Two extra modes:
//!
//! ```sh
//! # Durable coordinator: a write-ahead log on a directory-per-shard
//! # backend, a crash image taken mid-run (what kill -9 leaves on
//! # disk), recovery, and a resumed run proving the same optimum.
//! cargo run --release --example fault_tolerance -- --durable
//!
//! # A bigger durable campaign: 16-facility Nugent-style QAP,
//! # heuristic-seeded, compacting its log while it runs.
//! cargo run --release --example fault_tolerance -- --nug16
//! ```

use gridbnb::core::runtime::{run, ChaosConfig, CrashPlan, RuntimeConfig};
use gridbnb::core::{FileBackend, MetricsRegistry, ShardDirBackend, StorageBackend};
use gridbnb::engine::solve;
use gridbnb::flowshop::bounds::PairSelection;
use gridbnb::flowshop::{taillard, BoundMode, FlowshopProblem};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--durable") {
        demo_durable();
        return;
    }
    if args.iter().any(|a| a == "--nug16") {
        demo_nug16();
        return;
    }
    demo_crashes_and_checkpoints();
}

fn demo_crashes_and_checkpoints() {
    let instance = taillard::generate(10, 5, 31_337);
    let problem = FlowshopProblem::new(instance, BoundMode::Johnson(PairSelection::All));

    // Ground truth from a sequential run.
    let expected = solve(&problem, None).best_cost;
    println!("sequential optimum: {expected:?}");

    // ---- Worker crashes.
    let mut config = RuntimeConfig::new(4);
    config.poll_nodes = 200;
    config.coordinator.holder_timeout_ns = 20_000_000; // 20 ms
    config.chaos = Some(ChaosConfig {
        crashes: vec![
            CrashPlan {
                worker_index: 0,
                after_nodes: 500,
                rejoin: true,
            },
            CrashPlan {
                worker_index: 1,
                after_nodes: 600,
                rejoin: false,
            },
            CrashPlan {
                worker_index: 2,
                after_nodes: 900,
                rejoin: true,
            },
        ],
    });
    let report = run(&problem, &config);
    let crashes: u64 = report.workers.iter().map(|w| w.crashes).sum();
    println!(
        "with {crashes} injected crashes: optimum {:?}, redundancy {:.2}%, holders expired {}",
        report.proven_optimum,
        report.redundancy() * 100.0,
        report.coordinator_stats.holders_expired,
    );
    assert_eq!(
        report.proven_optimum, expected,
        "crashes must not lose work"
    );

    // ---- Farmer checkpoint/restore: every compaction of the durable
    // log writes the two files, `snap-{g}.intervals` and
    // `snap-{g}.solution`, readable on a flat-file backend.
    let dir = std::env::temp_dir().join(format!("gridbnb-example-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend: Arc<dyn StorageBackend> =
        Arc::new(FileBackend::new(&dir).expect("flat-file backend"));
    let config =
        RuntimeConfig::new(4).with_durability(Arc::clone(&backend), Duration::from_millis(5));
    let report = run(&problem, &config);
    println!(
        "checkpointing run: optimum {:?}, {} farmer checkpoints written, {} failed",
        report.proven_optimum, report.farmer_checkpoints, report.checkpoint_failures
    );
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("backend dir")
        .filter_map(|entry| Some(entry.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|name| name.starts_with("snap-"))
        .collect();
    files.sort();
    println!("the two files on disk: {}", files.join(", "));

    // Simulate a farmer restart from the files: a durable run on the
    // same backend recovers the terminal state and has nothing left to
    // explore.
    let config = RuntimeConfig::new(2).with_durability(backend, Duration::from_millis(5));
    let resumed = run(&problem, &config);
    println!(
        "resumed run recovers the checkpoint, explores {} nodes and confirms optimum {:?}",
        resumed.total_explored(),
        resumed.proven_optimum
    );
    assert!(resumed.recovery.is_some());
    assert_eq!(resumed.proven_optimum, expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// Durable-coordinator demo: the campaign journals every interval delta
/// to a write-ahead log on a directory-per-shard backend; a concurrent
/// thread keeps copying the directory — each copy is a *crash image*,
/// the bytes a `kill -9` would leave behind. A durable run on the last
/// image recovers it (torn tail repaired, log tail replayed over the
/// committed snapshot) and proves the same optimum.
fn demo_durable() {
    let instance = taillard::generate(10, 5, 31_337);
    let problem = FlowshopProblem::new(instance, BoundMode::Johnson(PairSelection::All));
    let expected = solve(&problem, None).best_cost;
    println!("sequential optimum: {expected:?}");

    let scratch = std::env::temp_dir().join(format!("gridbnb-durable-{}", std::process::id()));
    let live_dir = scratch.join("live");
    let image_dir = scratch.join("crash-image");
    let _ = std::fs::remove_dir_all(&scratch);

    let backend: Arc<dyn StorageBackend> =
        Arc::new(ShardDirBackend::new(&live_dir).expect("shard-dir backend"));
    let registry = MetricsRegistry::new();
    let mut config = RuntimeConfig::new(4)
        .with_shards(2)
        .with_metrics(&registry)
        .with_durability(Arc::clone(&backend), Duration::from_millis(10));
    config.poll_nodes = 200;

    // Crash-image thief: while the durable run is live, copy the
    // backend directory once, as early as possible — a mid-flight
    // point-in-time image, the bytes a kill -9 would leave behind.
    let imaging = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let thief = {
        let live = live_dir.clone();
        let image = image_dir.clone();
        let imaging = Arc::clone(&imaging);
        std::thread::spawn(move || {
            while imaging.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(2));
                // An image copied before the WAL's first MANIFEST commit
                // has nothing to recover — wipe partial attempts and keep
                // trying until the copy caught a committed state.
                let _ = std::fs::remove_dir_all(&image);
                if live.exists()
                    && copy_tree(&live, &image).is_ok()
                    && image.join("MANIFEST").exists()
                {
                    return true;
                }
            }
            false
        })
    };
    let live_report = run(&problem, &config);
    imaging.store(false, std::sync::atomic::Ordering::Release);
    let imaged_in_flight = thief.join().expect("imaging thread");
    if !imaged_in_flight {
        // The run beat the thief to it — image the terminal state.
        copy_tree(&live_dir, &image_dir).expect("image terminal state");
    }
    println!(
        "durable run: optimum {:?} (crash image taken {})",
        live_report.proven_optimum,
        if imaged_in_flight {
            "mid-flight"
        } else {
            "after the fact"
        }
    );
    for line in registry
        .render_text()
        .lines()
        .filter(|l| l.starts_with("gbnb_wal_") && !l.contains("_ns"))
    {
        println!("  {line}");
    }
    assert_eq!(live_report.proven_optimum, expected);

    // "Restart" from the crash image: a durable run on it recovers the
    // campaign and finishes it.
    let imaged: Arc<dyn StorageBackend> =
        Arc::new(ShardDirBackend::new(&image_dir).expect("imaged backend"));
    let mut resumed_config =
        RuntimeConfig::new(4).with_durability(imaged, Duration::from_millis(10));
    resumed_config.poll_nodes = 200;
    let resumed = run(&problem, &resumed_config);
    let recovery = resumed
        .recovery
        .as_ref()
        .expect("the image holds a campaign");
    println!(
        "recovered image: {} replayed records ({} ops), {} torn tail(s) repaired, \
         remaining length {}",
        recovery.replayed_records,
        recovery.replayed_ops,
        recovery.torn_truncations,
        recovery.recovered_length,
    );
    println!("resumed run confirms optimum: {:?}", resumed.proven_optimum);
    assert_eq!(resumed.proven_optimum, expected);
    std::fs::remove_dir_all(&scratch).ok();
}

/// A bigger campaign in the paper's style: 16-facility Nugent-like QAP,
/// seeded with the greedy heuristic's upper bound, running durable.
/// Expect minutes, not seconds — that is the point: the WAL stays warm
/// and is compacted (checkpointed) the whole way.
fn demo_nug16() {
    use gridbnb::qap::greedy::{greedy_upper_bound, GreedyParams};
    use gridbnb::qap::{Bound, QapInstance, QapProblem};

    let instance = QapInstance::nugent_style(4, 4, 2007);
    let (_, ub) = greedy_upper_bound(&instance, &GreedyParams::default());
    println!("nug16: greedy upper bound {ub}");
    let problem = QapProblem::new(instance, Bound::GilmoreLawler);

    let scratch = std::env::temp_dir().join(format!("gridbnb-nug16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let backend: Arc<dyn StorageBackend> =
        Arc::new(ShardDirBackend::new(scratch.join("wal")).expect("shard-dir backend"));

    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let registry = MetricsRegistry::new();
    let mut config = RuntimeConfig::new(workers)
        .with_shards(4)
        .with_metrics(&registry)
        .with_durability(Arc::clone(&backend), Duration::from_millis(250));
    config.coordinator.initial_upper_bound = Some(ub + 1);
    let report = run(&problem, &config);
    println!(
        "nug16 proved optimum {:?} on {workers} workers in {:?} \
         ({} checkpoints, {} failed)",
        report.proven_optimum, report.wall, report.farmer_checkpoints, report.checkpoint_failures
    );
    for line in registry
        .render_text()
        .lines()
        .filter(|l| l.starts_with("gbnb_wal_") && !l.contains("_ns"))
    {
        println!("  {line}");
    }
    std::fs::remove_dir_all(&scratch).ok();
}

/// Recursive file copy — the crash-image "dd" of the demo.
fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to: PathBuf = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}
