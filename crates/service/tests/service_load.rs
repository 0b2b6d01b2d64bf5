//! The batched front door under pressure: deep per-connection
//! pipelines across a crash, admission-control shedding under overload,
//! and the slow-consumer budget — with the service oracle auditing
//! every run.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dg_apps::{SvcOp, SvcReply, SvcRequest};
use dg_core::{DgConfig, EngineView, ProcessId};
use dg_harness::service_oracle::{self, ReadRecord, ResponseRecord, ServiceJournal, WriteRecord};
use dg_service::wire::{self, FrameRead, ServerFrame};
use dg_service::{ClientOptions, ServiceClient, ServiceCluster, ServiceOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn config() -> DgConfig {
    DgConfig::serving()
}

fn merge(into: &mut ServiceJournal, from: ServiceJournal) {
    into.acked_writes.extend(from.acked_writes);
    into.unacked_writes.extend(from.unacked_writes);
    into.observed_gets.extend(from.observed_gets);
    into.responses.extend(from.responses);
}

/// A seeded request mix over `sessions` clients taking turns. Session
/// `s` writes only key `s` (the single-writer discipline the oracle
/// audits) and only if `s < keys`; every other request reads a key in
/// `0..keys`.
fn requests(seed: u64, sessions: u64, total: u64, keys: u16, write_share: f64) -> Vec<SvcRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_req: HashMap<u64, u64> = HashMap::new();
    (0..total)
        .map(|i| {
            let client = i % sessions;
            let req = next_req.entry(client).or_insert(0);
            *req += 1;
            let op = if client < u64::from(keys) && rng.gen::<f64>() < write_share {
                let key = client as u16;
                if rng.gen::<f64>() < 0.05 {
                    SvcOp::Del { key }
                } else {
                    SvcOp::Put { key, value: *req }
                }
            } else {
                SvcOp::Get {
                    key: rng.gen_range(0..keys),
                }
            };
            SvcRequest {
                client,
                req: *req,
                op,
            }
        })
        .collect()
}

/// What one [`pipeline`] run saw.
#[derive(Default)]
struct Piped {
    journal: ServiceJournal,
    issued: u64,
    acked: u64,
    shed: u64,
    abandoned: u64,
}

impl Piped {
    fn absorb(&mut self, other: Piped) {
        merge(&mut self.journal, other.journal);
        self.issued += other.issued;
        self.acked += other.acked;
        self.shed += other.shed;
        self.abandoned += other.abandoned;
    }
}

/// The value a write leaves behind (`None` deletes), or `None` for a
/// read.
fn written(op: SvcOp) -> Option<Option<u64>> {
    match op {
        SvcOp::Put { value, .. } => Some(Some(value)),
        SvcOp::Del { .. } => Some(None),
        SvcOp::Get { .. } => None,
    }
}

/// Send `requests` down one connection with up to `window` unanswered
/// at a time, never waiting for an answer before the next send. A
/// session's next request also waits while it would run `window` ids
/// ahead of that session's oldest unanswered one: the service's session
/// table remembers `SESSION_WINDOW` = 2 × 64 completions, so a deeper
/// span can evict a request that is still being retried, and the
/// service then drops that retry unanswered.
///
/// The end-to-end rules are the service's: an unanswered request is
/// re-sent with the same id after `attempt`, a shed one waits a full
/// `attempt` before its retry, a broken connection moves to the next
/// front, and a request unanswered after `deadline` is abandoned into
/// the journal's unacked set.
fn pipeline(
    fronts: &[SocketAddr],
    first_front: usize,
    requests: Vec<SvcRequest>,
    window: usize,
    attempt: Duration,
    deadline: Duration,
) -> Piped {
    struct InFlight {
        request: SvcRequest,
        first_sent: Instant,
        last_sent: Instant,
    }
    let mut out = Piped::default();
    let mut queue = requests.into_iter().peekable();
    let mut in_flight: HashMap<(u64, u64), InFlight> = HashMap::new();
    let mut front = first_front;
    let mut conn: Option<TcpStream> = None;
    let mut sendbuf = Vec::new();
    while queue.peek().is_some() || !in_flight.is_empty() {
        let now = Instant::now();
        sendbuf.clear();
        in_flight.retain(|_, f| {
            if now.duration_since(f.first_sent) >= deadline {
                out.abandoned += 1;
                if let Some(value) = written(f.request.op) {
                    out.journal.unacked_writes.push(WriteRecord {
                        client: f.request.client,
                        req: f.request.req,
                        key: f.request.op.key(),
                        value,
                    });
                }
                return false;
            }
            if now.duration_since(f.last_sent) >= attempt {
                sendbuf.extend_from_slice(&wire::encode_request(&f.request));
                f.last_sent = now;
            }
            true
        });
        while let Some(request) = queue.next_if(|next| {
            in_flight.len() < window
                && in_flight
                    .keys()
                    .all(|&(c, r)| c != next.client || next.req < r + window as u64)
        }) {
            sendbuf.extend_from_slice(&wire::encode_request(&request));
            in_flight.insert(
                (request.client, request.req),
                InFlight {
                    request,
                    first_sent: now,
                    last_sent: now,
                },
            );
            out.issued += 1;
        }
        let stream = match conn.as_mut() {
            Some(stream) => stream,
            None => {
                let addr = fronts[front % fronts.len()];
                front += 1;
                let Ok(stream) = TcpStream::connect(addr) else {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                };
                stream.set_nodelay(true).expect("nodelay");
                stream
                    .set_read_timeout(Some(Duration::from_millis(5)))
                    .expect("read timeout");
                conn.insert(stream)
            }
        };
        if stream.write_all(&sendbuf).is_err() {
            conn = None;
            continue;
        }
        let body = match wire::read_frame(stream) {
            Ok(FrameRead::Frame(body)) => body,
            Ok(FrameRead::IdleTimeout) => continue,
            Ok(FrameRead::Eof) | Err(_) => {
                conn = None;
                continue;
            }
        };
        match wire::decode_server(body).expect("a server frame") {
            ServerFrame::Reply { client, req, reply } => {
                out.journal.responses.push(ResponseRecord {
                    client,
                    req,
                    summary: summary(reply),
                });
                let Some(f) = in_flight.remove(&(client, req)) else {
                    continue;
                };
                out.acked += 1;
                let key = f.request.op.key();
                match written(f.request.op) {
                    Some(value) => out.journal.acked_writes.push(WriteRecord {
                        client,
                        req,
                        key,
                        value,
                    }),
                    None => out.journal.observed_gets.push(ReadRecord {
                        client,
                        req,
                        key,
                        value: match reply {
                            SvcReply::Value(v) => Some(v),
                            _ => None,
                        },
                    }),
                }
            }
            ServerFrame::Shed { client, req } => {
                out.shed += 1;
                if let Some(f) = in_flight.get_mut(&(client, req)) {
                    f.last_sent = Instant::now();
                }
            }
            // "The owner is down": the attempt timer already covers it.
            ServerFrame::Retry => {}
        }
    }
    out
}

/// Condense a reply as `ServiceClient` does, so every witness feeds the
/// oracle's determinism check the same way.
fn summary(reply: SvcReply) -> u64 {
    match reply {
        SvcReply::Written => 0,
        SvcReply::NotFound => 1,
        SvcReply::Stale => 2,
        SvcReply::Value(v) => v.wrapping_mul(5).wrapping_add(3),
    }
}

/// One session, 64 requests in flight on one connection, a crash and a
/// recovery in the middle — and every request is answered exactly once.
/// This is the test that makes pipelining *safe* rather than merely
/// fast: the session window has to absorb out-of-order retries of a
/// whole pipeline's worth of requests replayed across the restart.
#[test]
fn pipelined_client_is_exactly_once_across_a_crash() {
    let svc = ServiceCluster::launch(3, config(), None).expect("launch service");
    let fronts = svc.fronts();

    // One session: writes hit key 0, reads exercise every owner.
    let loader = std::thread::spawn({
        let fronts = fronts.clone();
        let requests = requests(0xC0FFEE, 1, 600, 8, 0.5);
        move || {
            pipeline(
                &fronts,
                1,
                requests,
                64,
                Duration::from_millis(400),
                Duration::from_secs(20),
            )
        }
    });

    // Crash the writer's owner a quarter of the way in (the whole run
    // takes milliseconds, so a fixed delay would miss it); the pipeline
    // keeps flowing.
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.metrics().front(1).admitted.load(Ordering::Relaxed) < 150 {
        assert!(Instant::now() < deadline, "the pipeline never got going");
        std::thread::sleep(Duration::from_micros(100));
    }
    svc.crash(ProcessId(0), Duration::from_millis(300));
    assert!(
        !loader.is_finished(),
        "the crash must land while requests are in flight"
    );
    let out = loader.join().expect("loader thread");

    assert_eq!(out.issued, 600, "every scheduled request must be issued");
    assert_eq!(
        out.acked, 600,
        "every pipelined request must be acknowledged (abandoned {})",
        out.abandoned
    );
    // The front actually saw multi-request batches.
    let batched: u64 = (0..3)
        .map(|i| svc.metrics().front(i).batched.load(Ordering::Relaxed))
        .sum();
    assert!(batched > 0, "no submit batch ever exceeded one request");

    assert!(svc.quiesce(Duration::from_secs(60)), "failed to quiesce");
    let (engines, replicas) = svc.shutdown();
    let mut violations = Vec::new();
    service_oracle::check_service(&out.journal, &replicas, &mut violations);
    assert!(violations.is_empty(), "contract violated: {violations:?}");
    let restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();
    assert_eq!(restarts, 1, "the crashed owner must have recovered");
}

/// Overload a deliberately shallow front: shed requests come back as
/// retryable refusals (never applied), the pipelines retry them to
/// completion, and a polite `ServiceClient` riding along gets
/// every operation through transparently.
#[test]
fn load_shed_is_retryable_and_never_applied() {
    let svc = ServiceCluster::launch_opts(
        3,
        config(),
        None,
        ServiceOptions {
            admission_depth: 8,
            ..ServiceOptions::default()
        },
    )
    .expect("launch service");
    let fronts = svc.fronts();

    // A polite client on its own keys, concurrent with the flood.
    let polite = std::thread::spawn({
        let fronts = fronts.clone();
        move || {
            let mut client = ServiceClient::new(9_999, fronts, ClientOptions::default());
            for i in 0..10u64 {
                client.put(200 + i as u16, 7_000 + i).expect("polite put");
            }
            client.into_journal()
        }
    });

    // 500 sessions on four 64-deep pipelines: far more in flight than
    // the fronts admit.
    let all = requests(0x5ED, 500, 4_000, 64, 0.1);
    let flood: Vec<_> = (0..4u64)
        .map(|conn| {
            let fronts = fronts.clone();
            let mine: Vec<_> = all
                .iter()
                .filter(|r| r.client % 4 == conn)
                .copied()
                .collect();
            std::thread::spawn(move || {
                pipeline(
                    &fronts,
                    conn as usize + 1,
                    mine,
                    64,
                    Duration::from_millis(300),
                    Duration::from_secs(30),
                )
            })
        })
        .collect();
    let mut out = Piped::default();
    for conn in flood {
        out.absorb(conn.join().expect("flood connection"));
    }
    let polite_journal = polite.join().expect("polite client");

    assert!(out.shed > 0, "overload never tripped the admission gate");
    assert_eq!(
        out.acked + out.abandoned,
        out.issued,
        "requests must settle as acked or abandoned"
    );
    assert!(
        out.acked >= out.issued * 9 / 10,
        "shed retries should still land almost everything: {} of {}",
        out.acked,
        out.issued
    );

    assert!(svc.quiesce(Duration::from_secs(60)), "failed to quiesce");
    let (_, replicas) = svc.shutdown();
    let mut journal = ServiceJournal::default();
    merge(&mut journal, out.journal);
    merge(&mut journal, polite_journal);
    let mut violations = Vec::new();
    service_oracle::check_service(&journal, &replicas, &mut violations);
    assert!(violations.is_empty(), "contract violated: {violations:?}");
}

/// A client that floods requests but never reads responses blows the
/// buffered-bytes budget and is disconnected; the service stays healthy
/// for everyone else.
#[test]
fn slow_consumers_are_disconnected_within_budget() {
    let svc = ServiceCluster::launch_opts(
        2,
        config(),
        None,
        ServiceOptions {
            slow_budget_bytes: 256,
            ..ServiceOptions::default()
        },
    )
    .expect("launch service");
    let fronts = svc.fronts();

    // 400 pipelined gets in one write; the rogue never reads, so the
    // router's batched response buffers pile up past the budget.
    let mut flood = Vec::new();
    for req in 1..=400u64 {
        flood.extend_from_slice(&wire::encode_request(&SvcRequest {
            client: 77,
            req,
            op: SvcOp::Get { key: 3 },
        }));
    }
    let mut rogue = TcpStream::connect(fronts[0]).expect("connect rogue");
    rogue.set_nodelay(true).expect("nodelay");
    rogue.write_all(&flood).expect("flood");

    // The disconnect shows up in the counters first …
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let drops: u64 = (0..2)
            .map(|i| {
                svc.metrics()
                    .front(i)
                    .slow_disconnects
                    .load(Ordering::Relaxed)
            })
            .sum();
        if drops >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no slow-consumer disconnect was recorded"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // … and then on the socket: drain whatever was in flight until the
    // cut surfaces as EOF or a reset.
    rogue
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut sink = [0u8; 4096];
    loop {
        match rogue.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    // The service is still healthy for a well-behaved client.
    let mut client = ServiceClient::new(5, fronts, ClientOptions::default());
    client.put(10, 42).expect("put after rogue");
    assert_eq!(client.get(10).expect("get after rogue"), Some(42));
    assert!(svc.quiesce(Duration::from_secs(45)), "failed to quiesce");
    let (_, replicas) = svc.shutdown();
    let mut violations = Vec::new();
    service_oracle::check_service(client.journal(), &replicas, &mut violations);
    assert!(violations.is_empty(), "contract violated: {violations:?}");
}
