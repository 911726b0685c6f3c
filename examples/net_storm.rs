//! Load generator for the network service layer: a worker storm (W far
//! above the host's core count, the paper's farmer regime) hammering a
//! loopback [`NetServer`] with heartbeat contacts over one multiplexed
//! connection, reporting sustained contacts/sec and the latency tail.
//!
//! ```sh
//! cargo run --release --example net_storm -- \
//!     [--workers 64] [--contacts 100] [--shards 4] \
//!     [--metrics] [--json PATH]
//! ```
//!
//! Each worker joins (checking a real interval out of the sharded
//! coordinator), then fires `--contacts` heartbeat updates of that
//! interval, timing every round trip. The whole storm pipelines over
//! one [`MuxClient`] socket, whose bursts the server folds into shared
//! coordinator bundles.
//!
//! `--metrics` scrapes the server's registry over the same TCP port
//! *while the storm runs* — proving live observability under load —
//! and reports scrape and series counts.

use gridbnb::core::{Interval, Request, Response, Transport, UBig, WorkerId};
use gridbnb::net::{
    query_metrics, ClientOptions, MuxClient, MuxTransport, NetServer, ServerConfig,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    workers: usize,
    contacts: u64,
    shards: usize,
    metrics: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: 64,
        contacts: 100,
        shards: 4,
        metrics: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--workers" => args.workers = value().parse().expect("--workers N"),
            "--contacts" => args.contacts = value().parse().expect("--contacts M"),
            "--shards" => args.shards = value().parse().expect("--shards S"),
            "--metrics" => args.metrics = true,
            "--json" => args.json = Some(value()),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// The storm's aggregate: every contact latency, plus its wall time
/// from first to last contact.
struct StormResult {
    contacts: u64,
    wall_s: f64,
    latencies_ns: Vec<u64>,
    scrape: Option<ScrapeSummary>,
}

/// What the live metrics scraper saw: how many mid-storm scrapes
/// landed, and the final exposition.
struct ScrapeSummary {
    scrapes: u64,
    series: usize,
    text: String,
}

/// Sums every sample of `name` (all label sets) in an exposition text.
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|line| line.rsplit(' ').next())
        .filter_map(|value| value.parse::<u64>().ok())
        .sum()
}

impl StormResult {
    fn contacts_per_sec(&self) -> f64 {
        self.contacts as f64 / self.wall_s
    }

    /// `q` in [0, 1] over the sorted latency sample.
    fn quantile_us(&self, q: f64) -> f64 {
        let index = ((self.latencies_ns.len() - 1) as f64 * q).round() as usize;
        self.latencies_ns[index] as f64 / 1_000.0
    }
}

/// Joins as `worker`, then times `contacts` heartbeat updates.
fn storm_worker(transport: MuxTransport, worker: WorkerId, contacts: u64) -> Vec<u64> {
    let responses = transport
        .contact(vec![Request::Join { worker, power: 100 }])
        .expect("join contact");
    let interval = match responses.into_iter().next() {
        Some(Response::Work { interval, .. }) => interval,
        other => panic!("join answered {other:?}"),
    };
    let mut latencies = Vec::with_capacity(contacts as usize);
    for _ in 0..contacts {
        let t0 = Instant::now();
        let responses = transport
            .contact(vec![Request::Update {
                worker,
                interval: interval.clone(),
            }])
            .expect("heartbeat contact");
        latencies.push(t0.elapsed().as_nanos() as u64);
        assert!(
            matches!(responses.first(), Some(Response::UpdateAck { .. })),
            "heartbeat answered {responses:?}"
        );
    }
    latencies
}

/// Scrapes the server registry over TCP until `stop` flips, keeping
/// the last exposition — proof the metrics endpoint answers mid-storm.
fn scrape_loop(addr: SocketAddr, stop: &AtomicBool) -> ScrapeSummary {
    let options = ClientOptions::default();
    let mut scrapes = 0u64;
    let mut text = String::new();
    while !stop.load(Ordering::Acquire) {
        if let Ok(exposition) = query_metrics(addr, &options) {
            assert!(
                !exposition.is_empty(),
                "mid-storm metrics scrape returned an empty exposition"
            );
            scrapes += 1;
            text = exposition;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // One final scrape after the storm settles catches the totals.
    if let Ok(exposition) = query_metrics(addr, &options) {
        scrapes += 1;
        text = exposition;
    }
    ScrapeSummary {
        scrapes,
        series: text.lines().filter(|l| !l.starts_with('#')).count(),
        text,
    }
}

fn run_storm(args: &Args) -> StormResult {
    let root = Interval::new(UBig::zero(), UBig::factorial(50));
    let server = NetServer::bind("127.0.0.1:0", root, ServerConfig::new(args.shards))
        .expect("bind loopback");
    let addr: SocketAddr = server.local_addr();
    let handle = server.handle();
    let server = std::thread::spawn(move || server.serve().expect("serve"));

    let stop_scraper = Arc::new(AtomicBool::new(false));
    let scraper = args.metrics.then(|| {
        let stop = Arc::clone(&stop_scraper);
        std::thread::spawn(move || scrape_loop(addr, &stop))
    });

    let mux = MuxClient::connect(addr, &ClientOptions::default()).expect("connect mux");
    let started = Instant::now();
    let workers: Vec<_> = (0..args.workers)
        .map(|index| {
            let transport = mux.transport();
            let contacts = args.contacts;
            std::thread::spawn(move || storm_worker(transport, WorkerId(index as u64), contacts))
        })
        .collect();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(args.workers * args.contacts as usize);
    for worker in workers {
        latencies_ns.extend(worker.join().expect("storm worker"));
    }
    let wall_s = started.elapsed().as_secs_f64();
    mux.close();
    let scrape = scraper.map(|scraper| {
        stop_scraper.store(true, Ordering::Release);
        let summary = scraper.join().expect("scraper thread");
        assert!(
            summary.scrapes > 0 && summary.series > 0,
            "metrics scraper never landed a scrape"
        );
        summary
    });
    handle.stop();
    server.join().expect("server thread");

    latencies_ns.sort_unstable();
    StormResult {
        contacts: args.workers as u64 * args.contacts,
        wall_s,
        latencies_ns,
        scrape,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "net storm: {} workers x {} contacts, {} shards, one multiplexed loopback connection",
        args.workers, args.contacts, args.shards
    );
    let r = run_storm(&args);
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>10}",
        "contacts/sec", "p50 us", "p90 us", "p99 us", "max us"
    );
    println!(
        "{:>14.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
        r.contacts_per_sec(),
        r.quantile_us(0.50),
        r.quantile_us(0.90),
        r.quantile_us(0.99),
        r.quantile_us(1.0),
    );
    if let Some(s) = &r.scrape {
        println!(
            "{} live scrapes, {} series; frames_in {}",
            s.scrapes,
            s.series,
            metric_value(&s.text, "gbnb_net_frames_in_total"),
        );
    }
    if let Some(path) = &args.json {
        let scrape = r
            .scrape
            .as_ref()
            .map(|s| {
                format!(
                    ", \"scrapes\": {}, \"metric_series\": {}",
                    s.scrapes, s.series
                )
            })
            .unwrap_or_default();
        let row = format!(
            "{{\"workers\": {}, \"contacts\": {}, \"wall_s\": {:.4}, \
             \"contacts_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, \
             \"p99_us\": {:.1}, \"max_us\": {:.1}{}}}",
            args.workers,
            r.contacts,
            r.wall_s,
            r.contacts_per_sec(),
            r.quantile_us(0.50),
            r.quantile_us(0.90),
            r.quantile_us(0.99),
            r.quantile_us(1.0),
            scrape,
        );
        std::fs::write(path, format!("{row}\n")).expect("write json");
        println!("wrote {path}");
    }
}
