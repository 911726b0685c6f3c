//! Contact throughput over real loopback TCP.
//!
//! `multiplexed_w64x4/4`: W = 64 worker threads (far more than the
//! build box has cores — the paper's regime, where one farmer host
//! serves hundreds of remote workers) share one [`MuxClient`]
//! connection and each drive 4 heartbeat `Update` contacts per round
//! against a 4-shard [`NetServer`]. Contacts pipeline by sequence
//! number, and the server's buffered-frame drain folds each burst into
//! one coordinator bundle — ~2 syscalls and ~one shard lock per burst
//! instead of per contact. One round is 256 contacts; the checked-in
//! baseline is `BENCH_net.json`.
//!
//! Worker threads persist across rounds behind a pair of barriers, so
//! the measurement window holds socket round-trips only — no thread
//! spawn, no connect, no join handshake.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridbnb_core::{Interval, Request, Response, Transport, UBig, WorkerId};
use gridbnb_net::{ClientOptions, MuxClient, MuxTransport, NetServer, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

const WORKERS: usize = 64;
const CONTACTS_PER_ROUND: u64 = 4;
const SHARDS: usize = 4;

fn root() -> Interval {
    Interval::new(UBig::zero(), UBig::factorial(50))
}

/// A joined fleet parked behind barriers: `round()` releases every
/// worker for [`CONTACTS_PER_ROUND`] heartbeat contacts and waits for
/// the last to finish.
struct Fleet {
    start: Arc<Barrier>,
    done: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    mux: Option<MuxClient>,
    server_handle: gridbnb_net::ServerHandle,
    server: Option<JoinHandle<()>>,
}

impl Fleet {
    fn spawn() -> Fleet {
        let server = NetServer::bind("127.0.0.1:0", root(), ServerConfig::new(SHARDS))
            .expect("bind loopback");
        let addr = server.local_addr();
        let server_handle = server.handle();
        let server = std::thread::spawn(move || {
            server.serve().expect("serve");
        });

        let start = Arc::new(Barrier::new(WORKERS + 1));
        let done = Arc::new(Barrier::new(WORKERS + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let mux = MuxClient::connect(addr, &ClientOptions::default()).expect("connect mux");
        let workers = (0..WORKERS)
            .map(|index| {
                let transport = mux.transport();
                let (start, done, stop) = (start.clone(), done.clone(), stop.clone());
                std::thread::spawn(move || drive_worker(index, transport, &start, &done, &stop))
            })
            .collect();
        Fleet {
            start,
            done,
            stop,
            workers,
            mux: Some(mux),
            server_handle,
            server: Some(server),
        }
    }

    /// One measured round: 64 workers × 4 contacts, barrier to barrier.
    fn round(&self) {
        self.start.wait();
        self.done.wait();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.start.wait(); // release the workers into the stop check
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread");
        }
        if let Some(mux) = self.mux.take() {
            mux.close();
        }
        self.server_handle.stop();
        if let Some(server) = self.server.take() {
            server.join().expect("server thread");
        }
    }
}

/// Joins once (checking an interval out of the server), then answers
/// every barrier release with [`CONTACTS_PER_ROUND`] heartbeat updates
/// of that interval — traffic that never drains the pool, so rounds can
/// repeat indefinitely.
fn drive_worker(
    index: usize,
    transport: MuxTransport,
    start: &Barrier,
    done: &Barrier,
    stop: &AtomicBool,
) {
    let worker = WorkerId(index as u64);
    let responses = transport
        .contact(vec![Request::Join { worker, power: 100 }])
        .expect("join contact");
    let interval = match responses.into_iter().next() {
        Some(Response::Work { interval, .. }) => interval,
        other => panic!("join answered {other:?}"),
    };
    loop {
        start.wait();
        if stop.load(Ordering::Acquire) {
            return;
        }
        for _ in 0..CONTACTS_PER_ROUND {
            let responses = transport
                .contact(vec![Request::Update {
                    worker,
                    interval: interval.clone(),
                }])
                .expect("update contact");
            assert!(
                matches!(responses.first(), Some(Response::UpdateAck { .. })),
                "heartbeat answered {responses:?}"
            );
        }
        done.wait();
    }
}

fn bench_net(c: &mut Criterion) {
    let mut group = c.benchmark_group("net");
    group.sample_size(10);

    let fleet = Fleet::spawn();
    group.bench_with_input(
        BenchmarkId::new("multiplexed_w64x4", SHARDS),
        &fleet,
        |b, fleet| b.iter(|| fleet.round()),
    );
    drop(fleet);
    group.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
