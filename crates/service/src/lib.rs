//! `dg-service` — the exactly-once front door: a replicated KV/session
//! store served over real TCP on the [`dg_netrun`] runtime, with the
//! recovery protocol underneath and output commit as the client-visible
//! consistency contract.
//!
//! # Layering
//!
//! ```text
//!   ServiceClient ── loopback TCP ──► front door (per-node listener)
//!        ▲                                │ AppSendBatch, routed to owners
//!        │ committed responses            ▼
//!   router thread ◄── CommittedBatch ── Engine<KvService> on netrun
//! ```
//!
//! * **Front door** — every node carries a client-facing listener next
//!   to its protocol listener. The reader drains *every* complete frame
//!   one `read(2)` returns (a pipelined client's requests arrive
//!   back-to-back), admits them through the front's queue-depth gate in
//!   one registry lock, and submits the survivors to the local engine as
//!   a single [`dg_netrun::ClusterHandles::app_send_batch`] — one engine
//!   wakeup, one coalesced mesh frame per peer, one send-stamp floor
//!   advance for the whole batch. Requests are addressed to the *owner*
//!   replica (`key % n`); one serializer per key gives per-key
//!   linearizability for free.
//! * **Admission** — each front bounds its admitted-but-unanswered
//!   requests by an explicit queue depth. Beyond it, requests are
//!   refused with the retryable [`ServerFrame::Shed`] *before* touching
//!   the engine, so overload degrades into client backoff instead of
//!   unbounded queues, and a slow client can no longer only
//!   backpressure itself.
//! * **Output commit** — the owner answers by emitting a
//!   `SvcMsg::Response` *output*. The recovery layer's `OutputBuffer`
//!   holds it until it is dependency-stable; only then does it appear
//!   on the commits channel and reach the router, which groups each
//!   committed batch per client connection, encodes every group into
//!   one buffer, and hands the writer a single coalesced write. No
//!   response a client ever sees can be rolled back.
//! * **Slow consumers** — a connection whose client stops reading is
//!   disconnected once its un-drained response bytes exceed a bounded
//!   budget; its clients re-register on their next connection and the
//!   session layer re-answers retried requests.
//! * **Graceful degradation** — while a replica is down, requests for
//!   its keys are either parked by the runtime (the protocol
//!   retransmits sends lost to the crash, so queued writes are not
//!   lost) or answered with an advisory retry hint; keys owned by live
//!   replicas stay fully available. Fronts never answer reads from
//!   uncommitted state — they cannot, structurally: the only path to a
//!   client runs through the commit stream.
//! * **End-to-end** — the client retries the same request id until
//!   acknowledged; the owner's session table makes retries idempotent,
//!   including out-of-order retries from clients with many requests in
//!   flight. The three loss domains are handled where they belong:
//!   client-link loss by client retry, control-plane loss by the
//!   reliable-token sublayer, crash loss by rollback + retransmission.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod client;
pub mod metrics;
pub mod wire;

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dg_apps::{KvService, SvcMsg, SvcRequest};
use dg_core::{DgConfig, Engine, ProcessId, StorageFault};
use dg_harness::service_oracle::ReplicaFacts;
use dg_netrun::{Cluster, ClusterOptions, CommittedBatch, FaultHandle, NodeStatus};

pub use client::{ClientOptions, ServiceClient, SvcError};
pub use dg_netrun::RunConfig;
pub use metrics::{FrontMetrics, ServiceMetrics};
pub use wire::ServerFrame;

/// Tunables of the front door (see [`ServiceCluster::launch_opts`]).
#[derive(Debug, Clone, Copy)]
pub struct ServiceOptions {
    /// Maximum requests a front may have admitted-but-unanswered before
    /// new arrivals are refused with [`ServerFrame::Shed`].
    pub admission_depth: usize,
    /// Disconnect a connection once the responses queued for it exceed
    /// this many encoded-but-unwritten bytes (slow consumer).
    pub slow_budget_bytes: usize,
    /// Runtime knobs for the underlying cluster.
    pub run: RunConfig,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            admission_depth: 4096,
            slow_budget_bytes: 1 << 20,
            run: RunConfig::default(),
        }
    }
}

/// Admission entries older than this many request ids below a client's
/// newest request are presumed abandoned and released — without this, a
/// request wholly lost to a crash whose client gave up would occupy an
/// admission slot forever.
const PENDING_WINDOW: u64 = 1024;

/// One client connection's shared state: the channel of encoded
/// response buffers to its writer thread, the slow-consumer accounting,
/// and the death flag both sides poll.
struct ConnState {
    tx: mpsc::Sender<Vec<u8>>,
    /// Encoded bytes handed to the writer and not yet written.
    buffered: AtomicUsize,
    /// Set on write failure or a blown buffer budget; reader and writer
    /// both exit within one poll interval.
    dead: AtomicBool,
    /// Front this connection arrived at.
    front: usize,
}

impl ConnState {
    /// Queue encoded response bytes for the writer, enforcing the
    /// slow-consumer budget: a connection that blows it is marked dead
    /// (and counted) instead of queueing without bound.
    fn enqueue(&self, bytes: Vec<u8>, budget: usize, metrics: &FrontMetrics) {
        if bytes.is_empty() || self.dead.load(Ordering::Relaxed) {
            return;
        }
        let queued = self.buffered.fetch_add(bytes.len(), Ordering::Relaxed) + bytes.len();
        if queued > budget {
            self.dead.store(true, Ordering::Relaxed);
            metrics.slow_disconnects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let _ = self.tx.send(bytes);
    }
}

/// Everything behind the registry lock. One lock acquisition covers a
/// whole admission batch or a whole committed batch — the per-request
/// locking of the unbatched front door is gone.
struct RegistryInner {
    /// client id → that client's most recent connection. Re-registered
    /// on every request, so the latest connection wins — that is the
    /// whole failover story.
    clients: HashMap<u64, Arc<ConnState>>,
    /// client id → admitted-but-unanswered request ids, each tagged
    /// with the front whose depth gate it occupies.
    pending: HashMap<u64, BTreeMap<u64, usize>>,
    /// Admitted-but-unanswered count per front (the depth gate).
    in_flight: Vec<u64>,
}

type Registry = Arc<Mutex<RegistryInner>>;

/// What every front-door thread shares.
struct FrontShared {
    nodes: dg_netrun::ClusterHandles<SvcMsg>,
    down: Arc<Vec<AtomicBool>>,
    registry: Registry,
    metrics: Arc<ServiceMetrics>,
    stop: Arc<AtomicBool>,
    opts: ServiceOptions,
}

/// A replicated KV service: an `n`-node Damani–Garg cluster running
/// [`KvService`], plus one client-facing front door per node.
pub struct ServiceCluster {
    cluster: Cluster<KvService>,
    fronts: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    /// Advisory down flags, one per node: set by [`ServiceCluster::crash`],
    /// cleared when the scheduled downtime elapses. Fronts consult them
    /// to answer an immediate retry hint instead of letting the client
    /// wait out a full attempt timeout. Correctness never depends on
    /// them — a stale flag only costs latency.
    down: Arc<Vec<AtomicBool>>,
    registry: Registry,
    metrics: Arc<ServiceMetrics>,
    router: Option<JoinHandle<()>>,
}

impl ServiceCluster {
    /// [`ServiceCluster::launch_opts`] with default [`ServiceOptions`].
    ///
    /// # Errors
    ///
    /// Returns any IO error from binding listeners.
    pub fn launch(
        n: usize,
        config: DgConfig,
        fault_seed: Option<u64>,
    ) -> io::Result<ServiceCluster> {
        ServiceCluster::launch_opts(n, config, fault_seed, ServiceOptions::default())
    }

    /// Launch `n` replicas and their front doors. With `fault_seed` set,
    /// all inter-replica traffic runs through the fault-injection
    /// proxies (steer them via [`ServiceCluster::faults`]); client links
    /// are always direct.
    ///
    /// The engines always run with [`DgConfig::grouped_commit`] on: the
    /// serving path batches everywhere else, so the per-frontier-frame
    /// stability sweep would be the last per-event cost standing.
    ///
    /// # Errors
    ///
    /// Returns any IO error from binding listeners.
    pub fn launch_opts(
        n: usize,
        config: DgConfig,
        fault_seed: Option<u64>,
        opts: ServiceOptions,
    ) -> io::Result<ServiceCluster> {
        let config = config.with_grouped_commit(true);
        let (commit_tx, commit_rx) = mpsc::channel::<CommittedBatch<SvcMsg>>();
        let cluster = Cluster::launch_opts(
            n,
            |_| KvService::new(),
            config,
            ClusterOptions {
                run: opts.run,
                commits: Some(commit_tx),
                fault_seed,
            },
        )?;

        let stop = Arc::new(AtomicBool::new(false));
        let down: Arc<Vec<AtomicBool>> = Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
        let registry: Registry = Arc::new(Mutex::new(RegistryInner {
            clients: HashMap::new(),
            pending: HashMap::new(),
            in_flight: vec![0; n],
        }));
        let metrics = Arc::new(ServiceMetrics::new(n));

        // The router: drain committed batches, group each batch's
        // responses per client connection, and hand every connection one
        // pre-encoded buffer — a single write for the whole group. A
        // missing or dead registration is fine: the client will retry
        // and the session layer will re-emit the remembered reply.
        let router = thread::spawn({
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            let budget = opts.slow_budget_bytes;
            move || {
                while let Ok(batch) = commit_rx.recv() {
                    route_committed(batch, &registry, &metrics, budget);
                }
            }
        });

        // One front door per node.
        let mut fronts = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            fronts.push(listener.local_addr()?);
            listeners.push(listener);
        }
        let svc = ServiceCluster {
            cluster,
            fronts,
            stop,
            down,
            registry,
            metrics,
            router: Some(router),
        };
        for (front, listener) in listeners.into_iter().enumerate() {
            let shared = Arc::new(FrontShared {
                nodes: svc.cluster.handles(),
                down: Arc::clone(&svc.down),
                registry: Arc::clone(&svc.registry),
                metrics: Arc::clone(&svc.metrics),
                stop: Arc::clone(&svc.stop),
                opts,
            });
            thread::spawn(move || front_acceptor(listener, front, &shared));
        }
        Ok(svc)
    }

    /// Client-facing addresses, one per node, in node order.
    pub fn fronts(&self) -> Vec<SocketAddr> {
        self.fronts.clone()
    }

    /// Crash node `p`; it restarts itself after `downtime`.
    pub fn crash(&self, p: ProcessId, downtime: Duration) {
        self.down[p.index()].store(true, Ordering::Relaxed);
        self.cluster.crash(p, downtime);
        thread::spawn({
            let down = Arc::clone(&self.down);
            let idx = p.index();
            move || {
                thread::sleep(downtime);
                down[idx].store(false, Ordering::Relaxed);
            }
        });
    }

    /// Inject a storage fault into node `p`.
    pub fn inject_fault(&self, p: ProcessId, fault: StorageFault) {
        self.cluster.inject_fault(p, fault);
    }

    /// The network fault injector, when launched with a fault seed.
    pub fn faults(&self) -> Option<&FaultHandle> {
        self.cluster.faults()
    }

    /// The always-on front-door counters.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Probe every node's status, with the service counters merged in.
    pub fn statuses(&self) -> Vec<NodeStatus> {
        let mut statuses = self.cluster.statuses();
        {
            let reg = self.registry.lock().expect("registry lock");
            for (i, status) in statuses.iter_mut().enumerate() {
                self.metrics.front(i).merge_into(status);
                status.svc_in_flight = reg.in_flight[i];
            }
        }
        statuses
    }

    /// Wait (bounded) until the replica group is quiescent: every node
    /// up, no postponed messages, no unacknowledged tokens, no
    /// uncommitted outputs. Call after client traffic stops and before
    /// [`ServiceCluster::shutdown`] so the final states are comparable.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.cluster.run_until_quiescent(timeout)
    }

    /// Stop everything; return the final engines plus each replica's
    /// contribution to the service oracle.
    pub fn shutdown(mut self) -> (Vec<Engine<KvService>>, Vec<ReplicaFacts>) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the front acceptors so their threads exit.
        for &addr in &self.fronts {
            let _ = TcpStream::connect(addr);
        }
        // Dropping all writer channels is handled by connection threads
        // exiting; the router exits when the cluster's commit senders
        // drop during shutdown.
        let engines = self.cluster.shutdown();
        if let Some(router) = self.router.take() {
            let _ = router.join();
        }
        let facts = engines
            .iter()
            .map(|e| ReplicaFacts {
                live_map: e.app().live_map(),
                applied: e.app().applied_counts().collect(),
            })
            .collect();
        (engines, facts)
    }
}

/// Route one committed batch: settle admission accounting, group the
/// responses per client connection, and enqueue one encoded buffer per
/// connection.
fn route_committed(
    batch: CommittedBatch<SvcMsg>,
    registry: &Registry,
    metrics: &ServiceMetrics,
    budget: usize,
) {
    // A committed batch rarely spans more than a handful of live
    // connections; a linear scan keyed on connection identity beats a
    // map here.
    let mut groups: Vec<(Arc<ConnState>, Vec<u8>)> = Vec::new();
    {
        let mut reg = registry.lock().expect("registry lock");
        let RegistryInner {
            clients,
            pending,
            in_flight,
        } = &mut *reg;
        for output in batch.outputs {
            let SvcMsg::Response { client, req, reply } = output else {
                continue;
            };
            // The answer releases this request's admission slot.
            if let Some(pend) = pending.get_mut(&client) {
                if let Some(front) = pend.remove(&req) {
                    in_flight[front] = in_flight[front].saturating_sub(1);
                }
                if pend.is_empty() {
                    pending.remove(&client);
                }
            }
            let Some(conn) = clients.get(&client) else {
                continue;
            };
            if conn.dead.load(Ordering::Relaxed) {
                continue;
            }
            let buf = match groups.iter_mut().find(|(c, _)| Arc::ptr_eq(c, conn)) {
                Some((_, buf)) => buf,
                None => {
                    groups.push((Arc::clone(conn), Vec::new()));
                    &mut groups.last_mut().expect("just pushed").1
                }
            };
            wire::encode_server_into(&ServerFrame::Reply { client, req, reply }, buf);
        }
    }
    for (conn, buf) in groups {
        conn.enqueue(buf, budget, metrics.front(conn.front));
    }
}

/// Accept client connections for front `front` until stopped.
fn front_acceptor(listener: TcpListener, front: usize, shared: &Arc<FrontShared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(conn) = conn else { continue };
        let shared = Arc::clone(shared);
        thread::spawn(move || serve_connection(conn, front, &shared));
    }
}

/// One client connection: a batched reader loop here, a writer thread
/// beside it. The writer owns the outbound half; the reader drains
/// every complete frame each wakeup, admits the batch in one registry
/// lock, and submits it to the engine as one batch.
fn serve_connection(conn: TcpStream, front: usize, shared: &Arc<FrontShared>) {
    let _ = conn.set_nodelay(true);
    // A bounded write timeout keeps the writer from wedging forever on
    // a peer that stopped reading; timing out marks the connection dead
    // (the slow-consumer budget usually fires first).
    let _ = conn.set_write_timeout(Some(Duration::from_secs(2)));
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let state = Arc::new(ConnState {
        tx,
        buffered: AtomicUsize::new(0),
        dead: AtomicBool::new(false),
        front,
    });
    let writer = thread::spawn({
        let state = Arc::clone(&state);
        let stop = Arc::clone(&shared.stop);
        move || writer_loop(write_half, &rx, &state, &stop)
    });

    let mut read_half = conn;
    let _ = read_half.set_read_timeout(Some(Duration::from_millis(100)));
    let mut frames = wire::FrameBuffer::new();
    let mut batch: Vec<SvcRequest> = Vec::new();
    'conn: while !shared.stop.load(Ordering::SeqCst) && !state.dead.load(Ordering::Relaxed) {
        match frames.fill(&mut read_half) {
            Ok(wire::FillRead::Data) => {}
            Ok(wire::FillRead::IdleTimeout) => continue,
            Ok(wire::FillRead::Eof) | Err(_) => break,
        }
        batch.clear();
        loop {
            match frames.next_frame() {
                Ok(Some(body)) => match wire::decode_request_slice(body) {
                    Ok(request) => batch.push(request),
                    // A client that cannot speak the protocol is hung
                    // up on.
                    Err(_) => break 'conn,
                },
                Ok(None) => break,
                Err(_) => break 'conn,
            }
        }
        route_batch(front, &mut batch, &state, shared);
    }
    state.dead.store(true, Ordering::Relaxed);
    let _ = writer.join();
}

/// Admit and submit one front-door batch: one registry lock for the
/// whole batch, refusals answered locally, survivors handed to the
/// engine as a single `AppSendBatch`.
fn route_batch(
    front: usize,
    batch: &mut Vec<SvcRequest>,
    conn: &Arc<ConnState>,
    shared: &FrontShared,
) {
    if batch.is_empty() {
        return;
    }
    let n = shared.nodes.len();
    let front_metrics = shared.metrics.front(front);
    let mut submits: Vec<(ProcessId, SvcMsg)> = Vec::with_capacity(batch.len());
    let mut refusals: Vec<u8> = Vec::new();
    {
        let mut reg = shared.registry.lock().expect("registry lock");
        let RegistryInner {
            clients,
            pending,
            in_flight,
        } = &mut *reg;
        for request in batch.drain(..) {
            // Latest connection wins: committed responses follow the
            // client.
            clients.insert(request.client, Arc::clone(conn));
            let owner = usize::from(request.op.key()) % n;
            // Fail fast while either end of the path is known-down;
            // advisory only — a request sent anyway is parked and
            // repaired, not lost.
            if shared.down[owner].load(Ordering::Relaxed)
                || shared.down[front].load(Ordering::Relaxed)
            {
                wire::encode_server_into(&ServerFrame::Retry, &mut refusals);
                continue;
            }
            let pend = pending.entry(request.client).or_default();
            // Release admission slots of requests this client has long
            // moved past (lost to a crash, abandoned by the client).
            while let Some((&oldest, &f)) = pend.first_key_value() {
                if oldest.saturating_add(PENDING_WINDOW) < request.req {
                    pend.remove(&oldest);
                    in_flight[f] = in_flight[f].saturating_sub(1);
                } else {
                    break;
                }
            }
            if pend.contains_key(&request.req) {
                // A retry of something already admitted: forward it
                // (the original may be lost) without occupying a second
                // admission slot — but only while the front is below its
                // depth. Retries re-enter the engine, so an unthrottled
                // retry storm would amplify load precisely when the
                // system is slowest; at depth they are shed like new
                // arrivals (safe: the original is still in flight, and
                // either its response or a later retry gets through).
                if in_flight[front] >= shared.opts.admission_depth as u64 {
                    front_metrics.shed.fetch_add(1, Ordering::Relaxed);
                    wire::encode_server_into(
                        &ServerFrame::Shed {
                            client: request.client,
                            req: request.req,
                        },
                        &mut refusals,
                    );
                    continue;
                }
                let owner = ProcessId(owner as u16);
                submits.push((owner, SvcMsg::Request(request)));
                continue;
            }
            if in_flight[front] >= shared.opts.admission_depth as u64 {
                front_metrics.shed.fetch_add(1, Ordering::Relaxed);
                wire::encode_server_into(
                    &ServerFrame::Shed {
                        client: request.client,
                        req: request.req,
                    },
                    &mut refusals,
                );
                continue;
            }
            pend.insert(request.req, front);
            in_flight[front] += 1;
            front_metrics.admitted.fetch_add(1, Ordering::Relaxed);
            submits.push((ProcessId(owner as u16), SvcMsg::Request(request)));
        }
        front_metrics
            .in_flight
            .store(in_flight[front], Ordering::Relaxed);
    }
    front_metrics.record_batch(submits.len());
    conn.enqueue(refusals, shared.opts.slow_budget_bytes, front_metrics);
    shared
        .nodes
        .app_send_batch(ProcessId(front as u16), submits);
}

/// Upper bound on how many bytes the writer coalesces into one write.
const WRITE_COALESCE_CAP: usize = 256 * 1024;

/// Drain pre-encoded response buffers onto the socket, coalescing
/// whatever is queued into single writes.
fn writer_loop(
    mut conn: TcpStream,
    rx: &mpsc::Receiver<Vec<u8>>,
    state: &ConnState,
    stop: &AtomicBool,
) {
    use std::io::Write as _;
    loop {
        let mut buf = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(buf) => buf,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if state.dead.load(Ordering::Relaxed) || stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        while buf.len() < WRITE_COALESCE_CAP {
            match rx.try_recv() {
                Ok(more) => buf.extend_from_slice(&more),
                Err(_) => break,
            }
        }
        let wrote = buf.len();
        if conn.write_all(&buf).is_err() {
            state.dead.store(true, Ordering::Relaxed);
            return;
        }
        state.buffered.fetch_sub(wrote, Ordering::Relaxed);
    }
}
