//! The benchmark's own load driver: one thread per connection, many
//! requests in flight, speaking `dg_service::wire` over loopback TCP.
//!
//! It differs from `dg_service::loadrun` where measuring demands it:
//!
//! * an open-loop request is timed from when it was **due**, not from
//!   when it was first sent, so a stall in the system (or in this
//!   driver) is charged to the requests it delayed, and the driver's
//!   own lateness is reported;
//! * nothing here waits on a socket timeout. A blocking read with a 1 ms
//!   timeout returns after 8 ms on this kernel (socket timeouts are
//!   rounded up to scheduler ticks), and polling a non-blocking socket
//!   every 100 us cost more CPU than the four-node cluster it measured.
//!   Each connection therefore has a pump thread that blocks in `read`,
//!   stamps the arrival and hands decoded frames to the connection's
//!   thread over a channel, whose timed wait is precise to ~0.1 ms.
//!
//! Every workload is an open loop (a saturated closed loop did not
//! repeat; see the README), so every run issues the same requests at the
//! same times on both sides of a comparison.
//!
//! The end-to-end discipline is `loadrun`'s: a request is re-sent with
//! the same id after [`ATTEMPT_TIMEOUT`], abandoned [`DEADLINE`] after
//! it was due, and `Retry`/`Shed` frames are advisory (counted; the
//! attempt timer does the retrying).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dg_apps::{SvcOp, SvcReply, SvcRequest};
use dg_harness::service_oracle::{ReadRecord, ResponseRecord, ServiceJournal, WriteRecord};
use dg_service::wire::{self, ServerFrame};

use crate::proc;
use crate::schedule::{Kind, Request};
use crate::trace::{lane, Span};

pub const ATTEMPT_TIMEOUT: Duration = Duration::from_millis(300);
pub const DEADLINE: Duration = Duration::from_secs(10);
/// Pending requests are scanned for timeouts this often.
const SCAN_EVERY: Duration = Duration::from_millis(20);
/// One request in this many gets `request`/`attempt` spans in a traced run.
const SPAN_SAMPLE: u64 = 64;

/// One pass of a connection over its share of a schedule.
pub struct Plan {
    /// Sent in order, each when it is due (`due_us` from `start`) ...
    pub requests: Vec<Request>,
    /// ... and fewer than this many are outstanding: `usize::MAX` for an
    /// open loop; set-up sends its batch (all due at once) 64 at a time.
    pub in_flight: usize,
    /// Time zero of every `due_us`.
    pub start: Instant,
    /// Requests due in `[measure_from, measure_to)` are the measured
    /// window; the rest is warm-up.
    pub measure_from: Duration,
    pub measure_to: Duration,
    /// Record spans for sampled requests of the traced slices.
    pub trace: bool,
}

/// Whether a traced run records at `since_window` into the window: every
/// other second, so the same run yields a traced and an untraced sample
/// of commit latency and their difference is the tracing overhead.
pub fn trace_slice_on(since_window: Duration) -> bool {
    since_window.as_secs() % 2 == 1
}

/// One measured, acknowledged request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Due time and reply-read time, both from the plan's start.
    pub due: Duration,
    pub done: Duration,
    pub key: u16,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// What one pass produced. Counts are of measured requests only.
#[derive(Debug, Default)]
pub struct PassStats {
    pub samples: Vec<Sample>,
    /// Send time minus due time of each measured open-loop request, µs.
    pub late_us: Vec<f64>,
    pub issued: u64,
    pub acked: u64,
    /// Given up at the deadline (or when the pass was cut short).
    pub abandoned: u64,
    pub retries: u64,
    pub retry_hints: u64,
    pub shed: u64,
    /// CPU time this thread spent between the window's start and end.
    pub cpu_ns: u64,
    pub spans: Vec<Span>,
}

struct Pending {
    request: SvcRequest,
    due: Instant,
    last_sent: Instant,
    measured: bool,
    /// For writes: the value written (`None` = delete).
    write_value: Option<Option<u64>>,
    /// Send times, kept only for requests that get spans.
    attempts: Option<Vec<Instant>>,
}

/// What a connection's pump thread hands over.
enum FromSocket {
    /// Everything one `read` returned, stamped when it returned.
    Frames {
        at: Instant,
        frames: Vec<ServerFrame>,
    },
    /// The stream ended or carried something that is not the protocol.
    Broken,
}

/// Block in `read`, split the bytes into length-prefixed frames, decode
/// them, pass them on. Ends when the stream does or nobody listens.
fn pump(mut stream: TcpStream, tx: &mpsc::Sender<FromSocket>) {
    let mut scratch = vec![0u8; 64 * 1024];
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let k = match stream.read(&mut scratch) {
            Ok(0) => break,
            Ok(k) => k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let at = Instant::now();
        buf.extend_from_slice(&scratch[..k]);
        let mut frames = Vec::new();
        let mut start = 0;
        while buf.len() - start >= 4 {
            let len =
                u32::from_le_bytes(buf[start..start + 4].try_into().expect("4 bytes")) as usize;
            if len == 0 || len > wire::MAX_FRAME {
                let _ = tx.send(FromSocket::Broken);
                return;
            }
            if buf.len() - start < 4 + len {
                break;
            }
            match wire::decode_server(buf[start + 4..start + 4 + len].to_vec()) {
                Ok(frame) => frames.push(frame),
                Err(_) => {
                    let _ = tx.send(FromSocket::Broken);
                    return;
                }
            }
            start += 4 + len;
        }
        buf.drain(..start);
        if tx.send(FromSocket::Frames { at, frames }).is_err() {
            return;
        }
    }
    let _ = tx.send(FromSocket::Broken);
}

/// One TCP connection to a front: the write half, and the pump thread
/// reading the other half.
struct Link {
    stream: TcpStream,
    rx: mpsc::Receiver<FromSocket>,
    pump: Option<JoinHandle<()>>,
}

impl Link {
    fn dial(front: SocketAddr) -> io::Result<Link> {
        let stream = TcpStream::connect(front)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (tx, rx) = mpsc::channel();
        let pump = thread::Builder::new()
            .name("bench-pump".into())
            .spawn(move || pump(read_half, &tx))?;
        Ok(Link {
            stream,
            rx,
            pump: Some(pump),
        })
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        // Ends the pump's blocking read.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

/// Condense a reply exactly as `loadrun` and `ServiceClient` do, so the
/// oracle's determinism check compares like with like.
fn reply_summary(reply: SvcReply) -> u64 {
    match reply {
        SvcReply::Written => 0,
        SvcReply::NotFound => 1,
        SvcReply::Stale => 2,
        SvcReply::Value(v) => v.wrapping_mul(5).wrapping_add(3),
    }
}

/// One client connection, pinned to one front, carrying its sessions'
/// request counters and its share of the oracle's journal from set-up
/// through the last pass.
pub struct Conn {
    index: usize,
    front: SocketAddr,
    link: Option<Link>,
    next_req: HashMap<u64, u64>,
    next_val: HashMap<u64, u64>,
    pub journal: ServiceJournal,
    pub reconnects: u64,
}

impl Conn {
    /// # Errors
    ///
    /// Any IO error connecting to the front.
    pub fn connect(index: usize, front: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            index,
            front,
            link: Some(Link::dial(front)?),
            next_req: HashMap::new(),
            next_val: HashMap::new(),
            journal: ServiceJournal::default(),
            reconnects: 0,
        })
    }

    fn build(&mut self, r: &Request) -> (SvcRequest, Option<Option<u64>>) {
        let req = self.next_req.entry(r.session).or_insert(1);
        let id = *req;
        *req += 1;
        let (op, write_value) = match r.kind {
            Kind::Get => (SvcOp::Get { key: r.key }, None),
            Kind::Del => (SvcOp::Del { key: r.key }, Some(None)),
            Kind::Put => {
                let seq = self.next_val.entry(r.session).or_insert(1);
                let value = *seq;
                *seq += 1;
                (SvcOp::Put { key: r.key, value }, Some(Some(value)))
            }
        };
        let request = SvcRequest {
            client: r.session,
            req: id,
            op,
        };
        (request, write_value)
    }

    /// Drive one pass to completion: every request acknowledged or
    /// abandoned.
    #[allow(clippy::too_many_lines)]
    pub fn run(&mut self, plan: Plan) -> PassStats {
        let Plan {
            requests,
            in_flight,
            start,
            measure_from,
            measure_to,
            trace,
        } = plan;
        let mut out = PassStats::default();
        let conn_lane = lane::CONN0 + self.index as u32;
        let mut requests = requests.into_iter().peekable();
        // Whatever happens, the pass ends: past this, leftovers are
        // abandoned (the oracle sees their writes as indeterminate).
        let last_due = measure_to.max(Duration::from_secs(1));
        let hard_stop = start + last_due + DEADLINE + Duration::from_secs(2);

        let mut pending: HashMap<(u64, u64), Pending> = HashMap::new();
        let mut sendbuf: Vec<u8> = Vec::new();
        let mut expired: Vec<(u64, u64)> = Vec::new();
        let mut last_scan = Instant::now();
        let mut cpu_from: Option<u64> = None;
        let mut cpu_to: Option<u64> = None;

        loop {
            let now = Instant::now();
            let t = now.saturating_duration_since(start);
            if cpu_from.is_none() && t >= measure_from {
                cpu_from = Some(proc::thread_cpu_ns());
            }
            if cpu_to.is_none() && t >= measure_to {
                cpu_to = Some(proc::thread_cpu_ns());
            }
            if now > hard_stop {
                for (_, p) in pending.drain() {
                    abandon(&mut self.journal, &mut out, &p);
                }
                for r in requests.by_ref() {
                    if Duration::from_micros(r.due_us) >= measure_from {
                        out.issued += 1;
                        out.abandoned += 1;
                    }
                }
                break;
            }

            // 1. Issue what is due, as far as the in-flight limit allows.
            sendbuf.clear();
            let mut issued_now = 0;
            while issued_now < 1024 && pending.len() < in_flight {
                let Some(r) = requests.peek() else { break };
                let due = start + Duration::from_micros(r.due_us);
                if due > now {
                    break;
                }
                let r = requests.next().expect("peeked");
                let due_at = due.saturating_duration_since(start);
                let measured = due_at >= measure_from && due_at < measure_to;
                let (request, write_value) = self.build(&r);
                sendbuf.extend_from_slice(&wire::encode_request(&request));
                if measured {
                    out.issued += 1;
                    out.late_us
                        .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
                }
                let spans = trace
                    && measured
                    && trace_slice_on(due_at - measure_from)
                    && request.req.wrapping_add(request.client) % SPAN_SAMPLE == 0;
                pending.insert(
                    (request.client, request.req),
                    Pending {
                        request,
                        due,
                        last_sent: now,
                        measured,
                        write_value,
                        attempts: spans.then(|| vec![now]),
                    },
                );
                issued_now += 1;
            }

            // 2. Re-send the overdue, abandon the hopeless.
            if now.duration_since(last_scan) >= SCAN_EVERY {
                last_scan = now;
                expired.clear();
                for (id, p) in &mut pending {
                    if now.saturating_duration_since(p.due) >= DEADLINE {
                        expired.push(*id);
                    } else if now.duration_since(p.last_sent) >= ATTEMPT_TIMEOUT {
                        sendbuf.extend_from_slice(&wire::encode_request(&p.request));
                        p.last_sent = now;
                        if let Some(attempts) = &mut p.attempts {
                            attempts.push(now);
                        }
                        if p.measured {
                            out.retries += 1;
                        }
                    }
                }
                for id in &expired {
                    if let Some(p) = pending.remove(id) {
                        abandon(&mut self.journal, &mut out, &p);
                    }
                }
            }

            // 3. One write for everything this spin produced. A broken
            //    connection is redialled to the same front; what was lost
            //    is re-sent by the attempt timer under the same ids.
            if self.link.is_none() {
                match Link::dial(self.front) {
                    Ok(link) => {
                        self.link = Some(link);
                        self.reconnects += 1;
                    }
                    Err(_) => {
                        thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                }
            }
            let link = self.link.as_mut().expect("dialled above");
            if !sendbuf.is_empty() && link.stream.write_all(&sendbuf).is_err() {
                self.link = None;
                continue;
            }

            // 4. Done when nothing is left to issue or to wait for.
            if requests.peek().is_none() && pending.is_empty() {
                break;
            }

            // 5. Wait for answers, but no longer than until the next
            //    request is due or the next timeout scan.
            let mut wake = last_scan + SCAN_EVERY;
            if pending.len() < in_flight {
                if let Some(r) = requests.peek() {
                    wake = wake.min(start + Duration::from_micros(r.due_us));
                }
            }
            let mut next = link
                .rx
                .recv_timeout(wake.saturating_duration_since(Instant::now()));
            let mut broken = false;
            loop {
                match next {
                    Ok(FromSocket::Frames { at, frames }) => {
                        for frame in frames {
                            match frame {
                                ServerFrame::Reply { client, req, reply } => {
                                    self.journal.responses.push(ResponseRecord {
                                        client,
                                        req,
                                        summary: reply_summary(reply),
                                    });
                                    if let Some(p) = pending.remove(&(client, req)) {
                                        settle(
                                            &mut self.journal,
                                            conn_lane,
                                            &mut out,
                                            p,
                                            reply,
                                            at,
                                            start,
                                        );
                                    }
                                }
                                ServerFrame::Shed { client, req } => {
                                    out.shed += 1;
                                    // Back off: restart the attempt timer.
                                    if let Some(p) = pending.get_mut(&(client, req)) {
                                        p.last_sent = at;
                                    }
                                }
                                ServerFrame::Retry => out.retry_hints += 1,
                            }
                        }
                    }
                    Ok(FromSocket::Broken) | Err(RecvTimeoutError::Disconnected) => {
                        broken = true;
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                }
                next = link.rx.try_recv().map_err(|e| match e {
                    TryRecvError::Empty => RecvTimeoutError::Timeout,
                    TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
                });
            }
            if broken {
                self.link = None;
            }
        }
        let cpu_end = proc::thread_cpu_ns();
        out.cpu_ns = cpu_to
            .unwrap_or(cpu_end)
            .saturating_sub(cpu_from.unwrap_or(cpu_end));
        out
    }
}

fn settle(
    journal: &mut ServiceJournal,
    lane: u32,
    out: &mut PassStats,
    p: Pending,
    reply: SvcReply,
    at: Instant,
    start: Instant,
) {
    let key = p.request.op.key();
    match p.write_value {
        Some(value) => journal.acked_writes.push(WriteRecord {
            client: p.request.client,
            req: p.request.req,
            key,
            value,
        }),
        None => journal.observed_gets.push(ReadRecord {
            client: p.request.client,
            req: p.request.req,
            key,
            value: match reply {
                SvcReply::Value(v) => Some(v),
                _ => None,
            },
        }),
    }
    if !p.measured {
        return;
    }
    out.acked += 1;
    out.samples.push(Sample {
        due: p.due.saturating_duration_since(start),
        done: at.saturating_duration_since(start),
        key,
    });
    if let Some(attempts) = p.attempts {
        let id = Some((p.request.client, p.request.req));
        out.spans.push(Span {
            name: "request",
            lane,
            start: p.due,
            end: at,
            request: id,
            parent: "window",
        });
        for (i, &sent) in attempts.iter().enumerate() {
            out.spans.push(Span {
                name: "attempt",
                lane,
                start: sent,
                end: attempts.get(i + 1).copied().unwrap_or(at),
                request: id,
                parent: "request",
            });
        }
    }
}

fn abandon(journal: &mut ServiceJournal, out: &mut PassStats, p: &Pending) {
    if p.measured {
        out.abandoned += 1;
    }
    if let Some(value) = p.write_value {
        journal.unacked_writes.push(WriteRecord {
            client: p.request.client,
            req: p.request.req,
            key: p.request.op.key(),
            value,
        });
    }
}
