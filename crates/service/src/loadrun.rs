//! The open-loop load driver: millions of logical sessions multiplexed
//! over a bounded pool of pipelined connections.
//!
//! [`ServiceClient`](crate::ServiceClient) is the *correctness* client —
//! one outstanding request, maximal paranoia. This module is the
//! *throughput* client: it takes a seeded [`loadgen`] schedule and
//! drives it through a fixed pool of connections, many requests in
//! flight per connection, without ever waiting for an answer before
//! sending the next (open loop) or while keeping a fixed number in
//! flight (closed loop). Sessions are pinned to connections
//! (`session % pool`) so committed responses always route to the
//! connection that will read them.
//!
//! An open-loop request is timed from when it was **due**, not from
//! when the generator got round to sending it, so a stall of the
//! generator (or of the system, which a closed loop would answer by
//! offering less) shows up in the latencies instead of vanishing from
//! them; how late the generator ran is reported beside them
//! ([`LoadOutcome::late_us`]). To keep that lateness small nothing here
//! waits on a socket timeout — on this kernel a 1 ms `SO_RCVTIMEO`
//! returns after 8 — each connection has a reader thread blocking in
//! `read` that stamps what arrives and hands it to the worker over a
//! channel, whose timed wait is good to a tenth of a millisecond.
//!
//! Every worker keeps the full end-to-end discipline: requests are
//! re-issued with the same id after an attempt timeout, shed requests
//! back off and retry, and a request still unanswered at its deadline
//! is abandoned into the journal's unacked set, where the service
//! oracle treats it as an indeterminate wildcard. The merged
//! [`ServiceJournal`] is exactly what [`check_service`] audits, so the
//! load engine and the correctness oracle share one witness format.
//!
//! [`loadgen`]: dg_harness::loadgen
//! [`check_service`]: dg_harness::service_oracle::check_service

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dg_apps::{SvcOp, SvcReply, SvcRequest};
use dg_harness::loadgen::{Arrival, LoadConfig, LoadMode, LoadOp};
use dg_harness::service_oracle::{ReadRecord, ResponseRecord, ServiceJournal, WriteRecord};

use crate::wire::{self, FillRead, ServerFrame};

/// Longest a worker waits for replies before it looks at its retry and
/// deadline timers again.
const MAX_WAIT: Duration = Duration::from_millis(5);

/// Driver knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Connection-pool size (= worker threads). Sessions are pinned to
    /// connections by `session % connections`.
    pub connections: usize,
    /// Re-issue an unanswered request after this long.
    pub attempt_timeout: Duration,
    /// Abandon a request (into the unacked set) after this long.
    pub deadline: Duration,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            connections: 4,
            attempt_timeout: Duration::from_millis(300),
            deadline: Duration::from_secs(15),
        }
    }
}

/// What a load run produced, aggregated over all workers.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// The merged witness for the service oracle.
    pub journal: ServiceJournal,
    /// Output-commit latency of every acknowledged request, microseconds,
    /// unsorted: to the acknowledgement from the time the schedule said
    /// to send it (open loop) or from the first send (closed loop, which
    /// has no schedule).
    pub latencies_us: Vec<u64>,
    /// How late the generator sent each open-loop request: first send
    /// minus due time, microseconds, unsorted. Already included in
    /// `latencies_us`; a run whose lateness rivals its latencies measured
    /// the generator. Empty for a closed loop.
    pub late_us: Vec<u64>,
    /// Distinct requests issued.
    pub issued: u64,
    /// Requests acknowledged with a committed answer.
    pub acked: u64,
    /// Re-issues of already-sent requests (same id).
    pub retries: u64,
    /// Shed notices received.
    pub shed: u64,
    /// Requests abandoned at their deadline.
    pub abandoned: u64,
    /// Wall-clock span of the run.
    pub elapsed: Duration,
}

impl LoadOutcome {
    /// The `q`-quantile (in `[0,1]`) of the acked latencies, or 0 when
    /// none were recorded. Sorts a copy; call on the aggregate, not in a
    /// loop.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        quantile(&self.latencies_us, q)
    }

    /// The `q`-quantile of the generator's lateness
    /// ([`LoadOutcome::late_us`]), or 0 for a closed loop.
    pub fn lateness_quantile_us(&self, q: f64) -> u64 {
        quantile(&self.late_us, q)
    }

    /// Acked requests per second over the run.
    pub fn goodput(&self) -> f64 {
        self.acked as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn quantile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// One in-flight request a worker is tracking.
struct Pending {
    request: SvcRequest,
    /// Where latency and the deadline count from: the due time in an
    /// open loop, the first send in a closed one.
    since: Instant,
    last_sent: Instant,
    /// For writes: the value (None = delete); used for journal records.
    write_value: Option<Option<u64>>,
}

/// Drive `cfg`'s schedule against `fronts` and collect the outcome.
/// Blocks until every request is acknowledged or abandoned.
pub fn run_load(fronts: &[SocketAddr], cfg: &LoadConfig, opts: &LoadOptions) -> LoadOutcome {
    assert!(!fronts.is_empty(), "load needs at least one front");
    let pool = opts.connections.max(1);
    let arrivals = dg_harness::loadgen::schedule(cfg);
    let last_at_us = arrivals.last().map_or(0, |a| a.at_us);
    // Partition by pinned connection, preserving timestamp order.
    let mut slices: Vec<Vec<Arrival>> = (0..pool).map(|_| Vec::new()).collect();
    for a in arrivals {
        slices[(a.session % pool as u64) as usize].push(a);
    }
    let per_worker_conc = match cfg.mode {
        LoadMode::Open { .. } => usize::MAX,
        LoadMode::Closed { concurrency } => concurrency.div_ceil(pool).max(1),
    };
    let start = Instant::now();
    let hard_stop =
        start + Duration::from_micros(last_at_us) + opts.deadline + Duration::from_secs(30);
    let workers: Vec<_> = slices
        .into_iter()
        .enumerate()
        .map(|(w, slice)| {
            let fronts = fronts.to_vec();
            let opts = *opts;
            thread::spawn(move || {
                run_worker(w, &fronts, slice, per_worker_conc, &opts, start, hard_stop)
            })
        })
        .collect();
    let mut out = LoadOutcome::default();
    for worker in workers {
        let part = worker.join().expect("load worker panicked");
        out.journal.acked_writes.extend(part.journal.acked_writes);
        out.journal
            .unacked_writes
            .extend(part.journal.unacked_writes);
        out.journal.observed_gets.extend(part.journal.observed_gets);
        out.journal.responses.extend(part.journal.responses);
        out.latencies_us.extend(part.latencies_us);
        out.late_us.extend(part.late_us);
        out.issued += part.issued;
        out.acked += part.acked;
        out.retries += part.retries;
        out.shed += part.shed;
        out.abandoned += part.abandoned;
    }
    out.elapsed = start.elapsed();
    out
}

/// Condense a reply exactly as [`crate::ServiceClient`] does, so both
/// witnesses feed the determinism check identically.
fn reply_summary(reply: SvcReply) -> u64 {
    match reply {
        SvcReply::Written => 0,
        SvcReply::NotFound => 1,
        SvcReply::Stale => 2,
        SvcReply::Value(v) => v.wrapping_mul(5).wrapping_add(3),
    }
}

/// What a connection's reader thread hands to its worker.
enum Arrived {
    /// A decoded frame, stamped when the `read` that carried it returned.
    Frame(ServerFrame, Instant),
    /// The stream ended, errored or stopped making sense.
    Closed,
}

/// One connection to a front: the write half, and the reader thread
/// blocking on the other half.
struct Link {
    stream: TcpStream,
    rx: mpsc::Receiver<Arrived>,
    reader: Option<JoinHandle<()>>,
}

impl Link {
    fn connect(addr: SocketAddr) -> std::io::Result<Link> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut read_half = stream.try_clone()?;
        let (tx, rx) = mpsc::channel();
        let reader = thread::spawn(move || {
            let mut frames = wire::FrameBuffer::new();
            'stream: loop {
                match frames.fill(&mut read_half) {
                    Ok(FillRead::Data) => {}
                    Ok(FillRead::IdleTimeout) => continue,
                    Ok(FillRead::Eof) | Err(_) => break,
                }
                let at = Instant::now();
                loop {
                    let frame = match frames.next_frame() {
                        Ok(Some(body)) => wire::decode_server(body.to_vec()),
                        Ok(None) => break,
                        Err(_) => break 'stream,
                    };
                    let Ok(frame) = frame else { break 'stream };
                    if tx.send(Arrived::Frame(frame, at)).is_err() {
                        return; // the worker moved on
                    }
                }
            }
            let _ = tx.send(Arrived::Closed);
        });
        Ok(Link {
            stream,
            rx,
            reader: Some(reader),
        })
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        // Ends the reader's blocking read.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run_worker(
    worker: usize,
    fronts: &[SocketAddr],
    mut queue: Vec<Arrival>,
    concurrency: usize,
    opts: &LoadOptions,
    start: Instant,
    hard_stop: Instant,
) -> LoadOutcome {
    let open_loop = concurrency == usize::MAX;
    let mut out = LoadOutcome::default();
    queue.reverse(); // pop from the back in schedule order
    let mut pending: HashMap<(u64, u64), Pending> = HashMap::new();
    let mut next_req: HashMap<u64, u64> = HashMap::new();
    let mut next_val: HashMap<u64, u64> = HashMap::new();
    let mut cursor = worker % fronts.len();
    let mut link: Option<Link> = None;
    let mut sendbuf: Vec<u8> = Vec::new();
    let mut expired: Vec<(u64, u64)> = Vec::new();
    let mut next_timer_scan = start;

    while !(queue.is_empty() && pending.is_empty()) {
        let now = Instant::now();
        if now > hard_stop {
            // Safety valve: abandon whatever is left so the run always
            // terminates; the oracle sees the leftovers as unacked.
            for (_, p) in pending.drain() {
                abandon(&mut out, &p);
            }
            // Never-issued arrivals never left the client, so they are
            // not even indeterminate — just count them.
            while queue.pop().is_some() {
                out.abandoned += 1;
            }
            break;
        }

        // 1. Issue newly due arrivals (bounded per spin to keep frames
        //    and catch-up bursts sane).
        sendbuf.clear();
        let mut due = 0;
        while due < 1024 && pending.len() < concurrency {
            let Some(a) = queue.last() else { break };
            let due_at = start + Duration::from_micros(a.at_us);
            if open_loop && due_at > now {
                break;
            }
            let a = queue.pop().expect("peeked");
            let session = a.session;
            let req = next_req.entry(session).or_insert(1);
            let id = *req;
            *req += 1;
            let (op, write_value) = match a.op {
                LoadOp::Write { key, delete } => {
                    if delete {
                        (SvcOp::Del { key }, Some(None))
                    } else {
                        let seq = next_val.entry(session).or_insert(1);
                        let value = *seq;
                        *seq += 1;
                        (SvcOp::Put { key, value }, Some(Some(value)))
                    }
                }
                LoadOp::Read { key } => (SvcOp::Get { key }, None),
            };
            let request = SvcRequest {
                client: session,
                req: id,
                op,
            };
            sendbuf.extend_from_slice(&wire::encode_request(&request));
            let since = if open_loop {
                let late = now.duration_since(due_at);
                out.late_us
                    .push(u64::try_from(late.as_micros()).unwrap_or(u64::MAX));
                due_at
            } else {
                now
            };
            pending.insert(
                (session, id),
                Pending {
                    request,
                    since,
                    last_sent: now,
                    write_value,
                },
            );
            out.issued += 1;
            due += 1;
        }

        // 2. Re-issue overdue requests; abandon the hopeless. The timers
        //    are hundreds of milliseconds, so a scan per reply wakeup
        //    would be wasted work: look every MAX_WAIT.
        if now >= next_timer_scan {
            next_timer_scan = now + MAX_WAIT;
            expired.clear();
            for (key, p) in &mut pending {
                if now.duration_since(p.since) >= opts.deadline {
                    expired.push(*key);
                } else if now.duration_since(p.last_sent) >= opts.attempt_timeout {
                    sendbuf.extend_from_slice(&wire::encode_request(&p.request));
                    p.last_sent = now;
                    out.retries += 1;
                }
            }
            for key in &expired {
                if let Some(p) = pending.remove(key) {
                    abandon(&mut out, &p);
                }
            }
        }

        // 3. Put the batch on the wire (one write), reconnecting and
        //    rotating fronts on trouble. Lost bytes are re-issued by
        //    the attempt timeout — same-id retries are safe.
        if link.is_none() {
            cursor = (cursor + 1) % fronts.len();
            match Link::connect(fronts[cursor]) {
                Ok(l) => link = Some(l),
                Err(_) => {
                    thread::sleep(Duration::from_millis(2));
                    continue;
                }
            }
        }
        let conn = link.as_mut().expect("connected above");
        if !sendbuf.is_empty() && conn.stream.write_all(&sendbuf).is_err() {
            link = None;
            continue;
        }

        // 4. Wait for answers, but no longer than until the next request
        //    is due, then drain whatever else is already there.
        let next_due = queue
            .last()
            .filter(|_| open_loop)
            .map(|a| start + Duration::from_micros(a.at_us));
        let wait = next_due.map_or(MAX_WAIT, |d| {
            d.saturating_duration_since(Instant::now()).min(MAX_WAIT)
        });
        let mut arrived = conn.rx.recv_timeout(wait).ok();
        let mut drop_conn = false;
        while let Some(event) = arrived {
            match event {
                Arrived::Frame(ServerFrame::Reply { client, req, reply }, at) => {
                    out.journal.responses.push(ResponseRecord {
                        client,
                        req,
                        summary: reply_summary(reply),
                    });
                    if let Some(p) = pending.remove(&(client, req)) {
                        settle(&mut out, &p, reply, at);
                    }
                }
                Arrived::Frame(ServerFrame::Shed { client, req }, at) => {
                    out.shed += 1;
                    // Back off: the attempt timer restarts, so the retry
                    // lands once the front has drained a little.
                    if let Some(p) = pending.get_mut(&(client, req)) {
                        p.last_sent = at;
                    }
                }
                // Advisory "owner is down": the attempt timer already
                // covers it.
                Arrived::Frame(ServerFrame::Retry, _) => {}
                Arrived::Closed => {
                    drop_conn = true;
                    break;
                }
            }
            arrived = conn.rx.try_recv().ok();
        }
        if drop_conn {
            link = None;
        }
    }
    out
}

/// Record an acknowledged request in the journal.
fn settle(out: &mut LoadOutcome, p: &Pending, reply: SvcReply, now: Instant) {
    out.acked += 1;
    out.latencies_us
        .push(u64::try_from(now.duration_since(p.since).as_micros()).unwrap_or(u64::MAX));
    match p.write_value {
        Some(value) => out.journal.acked_writes.push(WriteRecord {
            client: p.request.client,
            req: p.request.req,
            key: p.request.op.key(),
            value,
        }),
        None => out.journal.observed_gets.push(ReadRecord {
            client: p.request.client,
            req: p.request.req,
            key: p.request.op.key(),
            value: match reply {
                SvcReply::Value(v) => Some(v),
                _ => None,
            },
        }),
    }
}

/// Record a deadline abandonment; an issued write becomes an
/// indeterminate (unacked) journal entry.
fn abandon(out: &mut LoadOutcome, p: &Pending) {
    out.abandoned += 1;
    if let Some(value) = p.write_value {
        out.journal.unacked_writes.push(WriteRecord {
            client: p.request.client,
            req: p.request.req,
            key: p.request.op.key(),
            value,
        });
    }
}
