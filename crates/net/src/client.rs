//! The client side: the socket implementation of
//! [`gridbnb_core::Transport`], and helpers to run a whole worker fleet
//! against a remote coordinator.
//!
//! A [`MuxClient`] is one TCP connection shared by every worker on the
//! host. Contacts are pipelined: each carries its own sequence number,
//! a writer thread drains the outbox in single-flush bursts, and one
//! reader thread routes response frames back to their waiting workers
//! by sequence number. Bursts of contacts arrive back-to-back at the
//! server, which folds them into one coordinator bundle — W workers
//! cost one socket, ~one syscall pair, and ~one shard lock per burst
//! instead of W of each. A contact can also be submitted without
//! waiting ([`Transport::submit`]): the worker's periodic update then
//! overlaps with its exploration instead of stalling it for a round
//! trip.
//!
//! [`query_status`] and [`query_metrics`] are one-shot exchanges on a
//! connection of their own, for observers.

use crate::wire::{
    self, frame_metrics_query, frame_query, frame_request_bundle, parse_metrics_text,
    parse_response_bundle, parse_status, read_frame, write_frame, RunStatus,
};
use crossbeam::channel::TryRecvError;
use gridbnb_core::runtime::{run_workers, RuntimeConfig, WorkerReport};
use gridbnb_core::{
    PendingContact, Problem, ProtocolError, Request, Response, Submitted, Transport, TransportError,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Socket knobs for a [`MuxClient`] and the one-shot queries.
#[derive(Clone, Copy, Debug)]
pub struct ClientOptions {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// How long one contact may wait for its response bundle before it
    /// counts as [`TransportError::Timeout`] (transient — the worker
    /// loop's retry policy takes it from there).
    pub reply_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout: Duration::from_secs(5),
            reply_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Buffer sizing for the multiplexed connection: a whole fleet's burst
/// (W frames of a few hundred bytes) should cross in one syscall pair.
const BURST_BUFFER: usize = 64 * 1024;

/// How many scheduler slices the mux writer donates while gathering a
/// burst before it flushes what it has. Bounded so a lone contact on an
/// otherwise idle connection is only a few `yield_now` calls slower.
const GATHER_YIELDS: usize = 3;

fn connect_stream(addr: SocketAddr, options: &ClientOptions) -> Result<TcpStream, TransportError> {
    let stream = TcpStream::connect_timeout(&addr, options.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(options.write_timeout))?;
    Ok(stream)
}

// ---------------------------------------------------------------------
// Multiplexed transport
// ---------------------------------------------------------------------

type Reply = Result<wire::Frame, TransportError>;
type ReplySlot = crossbeam::channel::Sender<Reply>;

/// One encoded frame bound for the shared socket, or the end-of-life
/// sentinel that retires the writer thread.
enum WriterJob {
    Frame(Vec<u8>),
    Shutdown,
}

struct MuxShared {
    /// Contacts enqueue encoded frames here; the writer thread drains
    /// the queue in bursts — everything queued while the previous write
    /// was in flight goes out in **one** write + flush, so W concurrent
    /// workers cost ~one syscall pair per burst instead of one each.
    /// (The lock guards an in-memory enqueue only, never a syscall.)
    outbox: Mutex<crossbeam::channel::Sender<WriterJob>>,
    pending: Mutex<HashMap<u64, ReplySlot>>,
    seq: AtomicU64,
    /// Set when the connection died; every later contact fails fast
    /// with a clone of the fatal error instead of touching the socket.
    dead: Mutex<Option<TransportError>>,
    closing: AtomicBool,
    reply_timeout: Duration,
}

impl MuxShared {
    /// Withdraws the reply slot of contact `seq`, so a late response is
    /// dropped instead of leaking the slot. Never panics, because it
    /// also runs from `Drop`: a poisoned map is left to `poison`.
    fn withdraw(&self, seq: u64) {
        if let Ok(mut pending) = self.pending.lock() {
            pending.remove(&seq);
        }
    }

    /// Marks the connection dead and fails every parked contact.
    fn poison(&self, error: TransportError) {
        {
            let mut dead = self.dead.lock().expect("poisoned mux state");
            if dead.is_none() {
                *dead = Some(error.clone());
            }
        }
        let pending = std::mem::take(&mut *self.pending.lock().expect("poisoned mux state"));
        for (_, slot) in pending {
            let _ = slot.send(Err(error.clone()));
        }
    }
}

/// One shared TCP connection multiplexing any number of workers'
/// contacts. Create once per host, hand each worker a
/// [`MuxClient::transport`], and [`MuxClient::close`] when the fleet is
/// done.
pub struct MuxClient {
    shared: Arc<MuxShared>,
    stream: TcpStream,
    reader: Option<std::thread::JoinHandle<()>>,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl MuxClient {
    /// Connects the shared socket and starts the two I/O threads: a
    /// writer draining the outbox in single-flush bursts, and a reader
    /// routing response frames to waiting contacts by sequence number.
    pub fn connect(addr: SocketAddr, options: &ClientOptions) -> Result<Self, TransportError> {
        let stream = connect_stream(addr, options)?;
        // The reader polls in short timeouts so `close` is observed
        // even on an idle connection.
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<WriterJob>();
        let shared = Arc::new(MuxShared {
            outbox: Mutex::new(job_tx),
            pending: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(0),
            dead: Mutex::new(None),
            closing: AtomicBool::new(false),
            reply_timeout: options.reply_timeout,
        });
        let writer_shared = Arc::clone(&shared);
        let writer_stream = stream.try_clone()?;
        let writer = std::thread::spawn(move || {
            let mut out = BufWriter::with_capacity(BURST_BUFFER, writer_stream);
            loop {
                // Block for the first frame of a burst, then sweep in
                // everything that queued behind it before flushing once.
                // When the queue runs dry mid-burst, yield a few slices
                // first: on a loaded box the workers that are about to
                // enqueue are runnable but not yet scheduled, and giving
                // them the core grows the burst — turning W flush
                // syscalls into one.
                let first = match job_rx.recv() {
                    Ok(WriterJob::Frame(bytes)) => bytes,
                    Ok(WriterJob::Shutdown) | Err(_) => return,
                };
                let mut retiring = false;
                let burst = (|| -> std::io::Result<()> {
                    out.write_all(&first)?;
                    let mut yields = 0;
                    loop {
                        match job_rx.try_recv() {
                            Ok(WriterJob::Frame(bytes)) => out.write_all(&bytes)?,
                            Ok(WriterJob::Shutdown) => {
                                retiring = true;
                                break;
                            }
                            Err(_) if yields < GATHER_YIELDS => {
                                yields += 1;
                                std::thread::yield_now();
                            }
                            Err(_) => break,
                        }
                    }
                    out.flush()
                })();
                if let Err(e) = burst {
                    writer_shared.poison(e.into());
                    return;
                }
                if retiring {
                    return;
                }
            }
        });
        let reader_shared = Arc::clone(&shared);
        let reader_stream = stream.try_clone()?;
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::with_capacity(BURST_BUFFER, reader_stream);
            loop {
                match read_frame(&mut reader) {
                    Ok(frame) => {
                        let slot = reader_shared
                            .pending
                            .lock()
                            .expect("poisoned mux state")
                            .remove(&frame.seq);
                        // An absent slot is a contact that timed out and
                        // went away; the response is dropped.
                        if let Some(slot) = slot {
                            let _ = slot.send(Ok(frame));
                        }
                    }
                    Err(TransportError::Timeout) => {
                        if reader_shared.closing.load(Ordering::Acquire) {
                            reader_shared.poison(TransportError::Closed);
                            return;
                        }
                    }
                    Err(e) => {
                        reader_shared.poison(e);
                        return;
                    }
                }
            }
        });
        Ok(MuxClient {
            shared,
            stream,
            reader: Some(reader),
            writer: Some(writer),
        })
    }

    /// A [`Transport`] handle sharing this connection. Handles stay
    /// valid until [`MuxClient::close`]; contacts after that fail with
    /// [`TransportError::Closed`].
    pub fn transport(&self) -> MuxTransport {
        MuxTransport {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Shuts the connection down and joins the reader thread. Parked
    /// contacts fail with [`TransportError::Closed`].
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.closing.store(true, Ordering::Release);
        let _ = self
            .shared
            .outbox
            .lock()
            .expect("poisoned mux state")
            .send(WriterJob::Shutdown);
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        self.shared.poison(TransportError::Closed);
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A worker's handle onto a [`MuxClient`] connection.
pub struct MuxTransport {
    shared: Arc<MuxShared>,
}

impl Transport for MuxTransport {
    fn contact(&self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        match self.submit(requests) {
            Submitted::Ready(result) => result,
            Submitted::Pending(pending) => pending.wait(),
        }
    }

    /// Enqueues the frame for the writer thread and returns at once; the
    /// reply is routed to the returned handle by sequence number.
    fn submit(&self, requests: Vec<Request>) -> Submitted {
        if requests.is_empty() {
            return Submitted::Ready(Ok(Vec::new()));
        }
        if let Some(error) = self.shared.dead.lock().expect("poisoned mux state").clone() {
            return Submitted::Ready(Err(error));
        }
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let (tx, rx) = crossbeam::channel::unbounded();
        self.shared
            .pending
            .lock()
            .expect("poisoned mux state")
            .insert(seq, tx);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame_request_bundle(seq, &requests))
            .expect("infallible Vec write");
        let enqueued = self
            .shared
            .outbox
            .lock()
            .expect("poisoned mux state")
            .send(WriterJob::Frame(bytes));
        if enqueued.is_err() {
            // The writer thread is gone; report why if the poison
            // recorded it, otherwise this is an orderly close.
            self.shared.withdraw(seq);
            let dead = self.shared.dead.lock().expect("poisoned mux state").clone();
            return Submitted::Ready(Err(dead.unwrap_or(TransportError::Closed)));
        }
        Submitted::Pending(Box::new(MuxPending {
            shared: Arc::clone(&self.shared),
            seq,
            reply: rx,
            deadline: Instant::now() + self.shared.reply_timeout,
            settled: false,
        }))
    }
}

/// The reply slot of one submitted multiplexed contact.
struct MuxPending {
    shared: Arc<MuxShared>,
    seq: u64,
    reply: crossbeam::channel::Receiver<Reply>,
    /// `reply_timeout` after the submit: past it the contact has timed
    /// out, whether the worker polls or blocks.
    deadline: Instant,
    /// A reply (or the timeout) has been handed out.
    settled: bool,
}

impl MuxPending {
    /// Hands out the reply; `None` means the deadline passed first, and
    /// the slot is withdrawn so a late reply is dropped.
    fn settle(&mut self, reply: Option<Reply>) -> Result<Vec<Response>, TransportError> {
        self.settled = true;
        match reply {
            Some(Ok(frame)) => Ok(parse_response_bundle(&frame)?),
            Some(Err(e)) => Err(e),
            None => {
                self.shared.withdraw(self.seq);
                Err(TransportError::Timeout)
            }
        }
    }
}

impl PendingContact for MuxPending {
    fn try_take(&mut self) -> Option<Result<Vec<Response>, TransportError>> {
        match self.reply.try_recv() {
            Ok(reply) => Some(self.settle(Some(reply))),
            Err(TryRecvError::Empty) if Instant::now() < self.deadline => None,
            // Overdue, or the slot was dropped unanswered.
            Err(_) => Some(self.settle(None)),
        }
    }

    fn wait(mut self: Box<Self>) -> Result<Vec<Response>, TransportError> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        let reply = self.reply.recv_timeout(left).ok();
        self.settle(reply)
    }
}

impl Drop for MuxPending {
    /// An abandoned contact (its worker crashed) withdraws its slot.
    fn drop(&mut self) {
        if !self.settled {
            self.shared.withdraw(self.seq);
        }
    }
}

// ---------------------------------------------------------------------
// Fleet helpers
// ---------------------------------------------------------------------

/// How a worker fleet shares sockets to the server. The multiplexed
/// connection is the only socket transport; the type stays so callers
/// of [`run_workers_over_socket`] keep their signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientMode {
    /// One TCP connection for the whole fleet (a [`MuxClient`]).
    Multiplexed,
}

/// Runs `config.workers` workers against the [`crate::NetServer`] at
/// `addr` over one [`MuxClient`] and returns their reports — the socket
/// counterpart of [`gridbnb_core::runtime::run`], with the coordinator
/// on the far side of real TCP. The connection is established up front
/// so a dead server fails fast; `id_base` keeps several client
/// processes collision-free on one server.
pub fn run_workers_over_socket<P: Problem>(
    problem: &P,
    addr: SocketAddr,
    config: &RuntimeConfig,
    id_base: u64,
    mode: ClientMode,
    options: &ClientOptions,
) -> Result<Vec<WorkerReport>, TransportError> {
    let ClientMode::Multiplexed = mode;
    let mux = MuxClient::connect(addr, options)?;
    let reports = run_workers(problem, config, id_base, |_| mux.transport());
    mux.close();
    Ok(reports)
}

/// One synchronous exchange on a fresh connection: send `frame`, read
/// the reply and check that it answers `frame.seq`.
fn one_shot(
    addr: SocketAddr,
    options: &ClientOptions,
    frame: &wire::Frame,
) -> Result<wire::Frame, TransportError> {
    let stream = connect_stream(addr, options)?;
    stream.set_read_timeout(Some(options.reply_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, frame)?;
    writer.flush()?;
    let reply = read_frame(&mut reader)?;
    if reply.seq != frame.seq {
        return Err(ProtocolError::BadPayload(format!(
            "reply for seq {} while awaiting seq {}",
            reply.seq, frame.seq
        ))
        .into());
    }
    Ok(reply)
}

/// One-shot status query: connect, ask, disconnect. How an observer —
/// or a finished client fleet — reads the proven optimum off a server.
pub fn query_status(
    addr: SocketAddr,
    options: &ClientOptions,
) -> Result<RunStatus, TransportError> {
    Ok(parse_status(&one_shot(addr, options, &frame_query(1))?)?)
}

/// One-shot metrics scrape: connect, ask, disconnect. Returns the
/// server registry's Prometheus-style text exposition — every layer's
/// series (coordinator operators, shards, sockets) in one
/// read, scrapeable mid-campaign without disturbing the workers.
pub fn query_metrics(addr: SocketAddr, options: &ClientOptions) -> Result<String, TransportError> {
    Ok(parse_metrics_text(&one_shot(
        addr,
        options,
        &frame_metrics_query(1),
    )?)?)
}
