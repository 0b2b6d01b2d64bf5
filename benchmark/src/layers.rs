//! Per-layer measurements taken from outside the crates: wrappers this
//! package owns around public traits, a side harness that drives
//! `dg_netrun::Cluster` without the front door, and timing loops around
//! the codecs and the log.
//!
//! A wrapper's time is wall time around one call; a layer's *self* time
//! is its wrapper's time minus the time of the wrappers nested inside it
//! (`core.handle` ⊃ `apps.apply`).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use dg_apps::{KvService, SvcMsg, SvcOp, SvcReply, SvcRequest};
use dg_core::wirecodec::{decode_wire, encode_wire_into};
use dg_core::{Application, DgProcess, Effects, EngineView, Envelope, Ftvc, ProcessId, Wire};
use dg_ftvc::wire::{decode_ftvc_dirty, encode_ftvc_dirty_into};
use dg_harness::oracle;
use dg_netrun::{Cluster, ClusterOptions, CommittedBatch};
use dg_service::wire as client_wire;
use dg_service::ServerFrame;
use dg_simnet::{Actor, Context, FaultKind};
use dg_storage::EventLog;

use crate::schedule::{self, Kind};
use crate::service::{profile, run_config, ServiceSpec, CONNS};
use crate::stats::{median, percentile};
use crate::trace::{lane, Span};

/// One call in this many gets a span of its own in the trace file.
const SPAN_SAMPLE: u64 = 4096;

/// Time and calls of one wrapped layer, plus a sample of spans.
#[derive(Debug, Default)]
pub struct Meter {
    ns: AtomicU64,
    calls: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Meter {
    fn record(&self, name: &'static str, parent: &'static str, lane: u32, start: Instant) {
        let end = Instant::now();
        self.ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        if self
            .calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SPAN_SAMPLE)
        {
            self.spans
                .lock()
                .expect("span lock")
                .push(Span::new(name, lane, parent, start, end));
        }
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }
}

/// An application with a stopwatch around its transition function. The
/// meter is shared, not cloned, so checkpoints and rollbacks (which
/// clone and restore the application) do not rewind it.
#[derive(Debug, Clone)]
pub struct Timed<A> {
    inner: A,
    meter: Arc<Meter>,
    lane: u32,
}

impl<A> Timed<A> {
    pub fn new(inner: A, meter: Arc<Meter>, lane: u32) -> Timed<A> {
        Timed { inner, meter, lane }
    }
}

impl<A: Application> Application for Timed<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, me: ProcessId, n: usize) -> Effects<A::Msg> {
        self.inner.on_start(me, n)
    }

    fn on_message(
        &mut self,
        me: ProcessId,
        from: ProcessId,
        msg: &A::Msg,
        n: usize,
    ) -> Effects<A::Msg> {
        let mut eff = Effects::none();
        self.on_message_into(me, from, msg, n, &mut eff);
        eff
    }

    fn on_message_into(
        &mut self,
        me: ProcessId,
        from: ProcessId,
        msg: &A::Msg,
        n: usize,
        eff: &mut Effects<A::Msg>,
    ) {
        let start = Instant::now();
        self.inner.on_message_into(me, from, msg, n, eff);
        self.meter
            .record("apps.apply", "core.handle", self.lane, start);
    }

    fn digest(&self) -> u64 {
        self.inner.digest()
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.inner.encode_state(out);
    }
}

/// A simulated process with a stopwatch around every engine input.
pub struct TimedActor<A: Application> {
    pub inner: DgProcess<Timed<A>>,
    meter: Arc<Meter>,
}

impl<A: Application> TimedActor<A> {
    pub fn new(inner: DgProcess<Timed<A>>, meter: Arc<Meter>) -> TimedActor<A> {
        TimedActor { inner, meter }
    }

    fn done(&self, start: Instant) {
        self.meter
            .record("core.handle", "sim.run", lane::SIM, start);
    }
}

impl<A: Application> Actor for TimedActor<A> {
    type Msg = Wire<A::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        self.done(start);
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        let start = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.done(start);
    }

    fn on_timer(&mut self, kind: u32, ctx: &mut Context<'_, Self::Msg>) {
        let start = Instant::now();
        self.inner.on_timer(kind, ctx);
        self.done(start);
    }

    fn on_crash(&mut self) {
        let start = Instant::now();
        self.inner.on_crash();
        self.done(start);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let start = Instant::now();
        self.inner.on_restart(ctx);
        self.done(start);
    }

    fn on_fault(&mut self, kind: FaultKind) {
        let start = Instant::now();
        self.inner.on_fault(kind);
        self.done(start);
    }
}

/// What the side harness measured.
pub struct Side {
    pub commit_p50_ms: f64,
    pub commit_p99_ms: f64,
    pub apply_ns: f64,
}

const SIDE_WARM_UP: Duration = Duration::from_millis(500);

/// Drive `dg_netrun::Cluster<Timed<KvService>>` directly — `app_send` in,
/// `CommittedBatch` out on the commits channel, no front door, no client
/// socket — with the workload's cluster shape, request mix and rate (its
/// own schedule, not the window's), timing each request from its due time to the batch
/// that commits its response. What this leaves out of the end-to-end
/// path is exactly the service layer: `commit_p50_ms` minus this p50 is
/// `service.front_p50_ms`.
pub fn side_harness(
    spec: &ServiceSpec,
    seed: u64,
    window: Duration,
    spans: &mut Vec<Span>,
) -> Result<Side, String> {
    let began = Instant::now();
    let meter = Arc::new(Meter::default());
    let (commit_tx, commit_rx) = mpsc::channel::<CommittedBatch<SvcMsg>>();
    let cluster = Cluster::launch_opts(
        spec.n,
        |_| Timed::new(KvService::new(), Arc::clone(&meter), lane::SIDE),
        // The service forces grouped commit on; so must its stand-in.
        profile().with_grouped_commit(true),
        ClusterOptions {
            run: run_config(spec),
            commits: Some(commit_tx),
            fault_seed: None,
        },
    )
    .map_err(|e| format!("side harness launch: {e}"))?;

    let span = SIDE_WARM_UP + window;
    let requests = schedule::open(
        seed ^ 0x5349_4445,
        &spec.traffic,
        spec.rate_ops_s,
        span.as_micros() as u64,
    );
    let mut next_req: HashMap<u64, u64> = HashMap::new();
    let mut sends: Vec<(Duration, ProcessId, ProcessId, SvcRequest)> = Vec::new();
    let mut due_of: HashMap<(u64, u64), Duration> = HashMap::new();
    for r in &requests {
        let req = next_req.entry(r.session).or_insert(1);
        let op = match r.kind {
            Kind::Get => SvcOp::Get { key: r.key },
            Kind::Del => SvcOp::Del { key: r.key },
            Kind::Put => SvcOp::Put {
                key: r.key,
                value: *req,
            },
        };
        let request = SvcRequest {
            client: r.session,
            req: *req,
            op,
        };
        *req += 1;
        let due = Duration::from_micros(r.due_us);
        due_of.insert((request.client, request.req), due);
        sends.push((
            due,
            ProcessId((r.session % CONNS as u64) as u16),
            ProcessId(r.key % spec.n as u16),
            request,
        ));
    }

    let start = Instant::now() + Duration::from_millis(10);
    let mut latencies_ms = Vec::with_capacity(sends.len());
    let expected = sends.len();
    thread::scope(|scope| {
        let cluster = &cluster;
        scope.spawn(move || {
            for (due, via, owner, request) in sends {
                thread::sleep((start + due).saturating_duration_since(Instant::now()));
                cluster.app_send(via, owner, SvcMsg::Request(request));
            }
        });
        let give_up = start + span + Duration::from_secs(5);
        let mut seen = 0;
        while seen < expected && Instant::now() < give_up {
            let Ok(batch) = commit_rx.recv_timeout(Duration::from_millis(100)) else {
                continue;
            };
            let at = Instant::now().saturating_duration_since(start);
            for output in batch.outputs {
                let SvcMsg::Response { client, req, .. } = output else {
                    continue;
                };
                seen += 1;
                let Some(&due) = due_of.get(&(client, req)) else {
                    continue;
                };
                if due < SIDE_WARM_UP {
                    continue;
                }
                latencies_ms.push(at.saturating_sub(due).as_secs_f64() * 1e3);
                if req.wrapping_add(client) % 64 == 0 {
                    spans.push(Span {
                        name: "netrun.app_send→commit",
                        lane: lane::SIDE,
                        start: start + due,
                        end: start + at,
                        request: Some((client, req)),
                        parent: "side",
                    });
                }
            }
        }
    });
    let engines = cluster.shutdown();
    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    let mut violations = Vec::new();
    oracle::check_views(&views, &mut violations);
    if let Some(v) = violations.first() {
        return Err(format!("side harness: {v}"));
    }
    spans.extend(meter.take_spans());
    spans.push(Span::new(
        "side",
        lane::SIDE,
        "workload",
        began,
        Instant::now(),
    ));
    let p50 = median(&latencies_ms).ok_or("side harness: nothing committed")?;
    let p99 = percentile(&latencies_ms, 0.99).ok_or("side harness: too few commits for p99")?;
    Ok(Side {
        commit_p50_ms: p50,
        commit_p99_ms: p99,
        apply_ns: meter.ns() as f64 / meter.calls().max(1) as f64,
    })
}

/// Median over `reps` timings of `body`, which performs `ops`
/// operations, in nanoseconds per operation.
fn ns_per_op(reps: usize, ops: usize, mut body: impl FnMut()) -> f64 {
    let per_op: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per_op).expect("reps > 0")
}

const MICRO_REPS: usize = 21;
const MICRO_OPS: usize = 1024;
/// Entries appended to the log between flushes in `storage.log_append_ns`.
const LOG_BATCH: usize = 8;

/// Timing loops around public functions of the codecs, the clock and the
/// log, on inputs shaped like the workload's: `n`-component clocks that
/// have exchanged messages, `SvcMsg` frames, client frames.
pub fn micro(n: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = schedule::SplitMix64::new(seed);
    let mut clocks: Vec<Ftvc> = (0..n).map(|p| Ftvc::new(ProcessId(p as u16), n)).collect();
    // A message history: each stamp comes from a random sender that has
    // itself observed earlier stamps, so deltas touch a few components.
    let mut stamps: Vec<Ftvc> = Vec::with_capacity(MICRO_OPS + 1);
    let receiver = 0;
    while stamps.len() <= MICRO_OPS {
        let from = 1 + rng.below(n as u64 - 1) as usize;
        let to = 1 + rng.below(n as u64 - 1) as usize;
        let stamp = clocks[from].stamp_for_send();
        if to != from {
            clocks[to].observe(&stamp);
        }
        stamps.push(stamp);
    }
    let mut changed: Vec<u16> = Vec::new();
    let observe = ns_per_op(MICRO_REPS, MICRO_OPS, || {
        let mut clock = clocks[receiver].clone();
        for stamp in &stamps[1..] {
            changed.clear();
            clock.observe_recording(black_box(stamp), &mut changed);
        }
        black_box(&clock);
    });
    // Each stamp is delta-encoded against the previous one, as on a
    // channel whose floor is the last stamp sent.
    let mut buf = BytesMut::new();
    let stamp_encode = ns_per_op(MICRO_REPS, MICRO_OPS, || {
        for pair in stamps.windows(2) {
            buf.clear();
            encode_ftvc_dirty_into(black_box(&pair[1]), &pair[0], &mut buf);
        }
        black_box(&buf);
    });
    let encoded: Vec<Bytes> = stamps
        .windows(2)
        .map(|pair| {
            let mut b = BytesMut::new();
            encode_ftvc_dirty_into(&pair[1], &pair[0], &mut b);
            b.freeze()
        })
        .collect();
    let stamp_decode = ns_per_op(MICRO_REPS, MICRO_OPS, || {
        for (pair, bytes) in stamps.windows(2).zip(&encoded) {
            let mut bytes = bytes.clone();
            black_box(decode_ftvc_dirty(&mut bytes, &pair[0]).expect("own encoding"));
        }
    });

    let request = |i: usize| SvcRequest {
        client: i as u64 % 20_000,
        req: 1 + i as u64 / 20_000,
        op: if i.is_multiple_of(10) {
            SvcOp::Put {
                key: (i % 256) as u16,
                value: i as u64,
            }
        } else {
            SvcOp::Get {
                key: (i % 256) as u16,
            }
        },
    };
    let wires: Vec<Wire<SvcMsg>> = stamps[1..]
        .iter()
        .enumerate()
        .map(|(i, stamp)| {
            Wire::App(Envelope {
                payload: SvcMsg::Request(request(i)),
                clock: stamp.clone(),
            })
        })
        .collect();
    let wire_encode = ns_per_op(MICRO_REPS, MICRO_OPS, || {
        for wire in &wires {
            buf.clear();
            encode_wire_into(black_box(wire), &mut buf);
        }
        black_box(&buf);
    });
    let wire_bytes: Vec<Bytes> = wires
        .iter()
        .map(|wire| {
            let mut b = BytesMut::new();
            encode_wire_into(wire, &mut b);
            b.freeze()
        })
        .collect();
    let wire_decode = ns_per_op(MICRO_REPS, MICRO_OPS, || {
        for bytes in &wire_bytes {
            black_box(decode_wire::<SvcMsg>(bytes.clone()).expect("own encoding"));
        }
    });

    let envelopes: Vec<Envelope<SvcMsg>> = wires
        .iter()
        .map(|w| match w {
            Wire::App(env) => env.clone(),
            _ => unreachable!("only App frames were built"),
        })
        .collect();
    let log_append = ns_per_op(MICRO_REPS, MICRO_OPS, || {
        let mut log: EventLog<Envelope<SvcMsg>> = EventLog::new();
        for batch in envelopes.chunks(LOG_BATCH) {
            for env in batch {
                log.append_volatile(env.clone());
            }
            black_box(log.flush());
            log.gc_before(log.end());
        }
    });

    // One client frame up and one reply frame down per operation.
    let mut out: Vec<u8> = Vec::new();
    let client_encode = ns_per_op(MICRO_REPS, MICRO_OPS, || {
        for i in 0..MICRO_OPS {
            black_box(client_wire::encode_request(&request(i)));
            out.clear();
            client_wire::encode_server_into(
                &ServerFrame::Reply {
                    client: i as u64,
                    req: 1,
                    reply: SvcReply::Value(i as u64),
                },
                &mut out,
            );
        }
        black_box(&out);
    });
    let frames: Vec<(Vec<u8>, Vec<u8>)> = (0..MICRO_OPS)
        .map(|i| {
            let up = client_wire::encode_request(&request(i))[4..].to_vec();
            let down = client_wire::encode_server(&ServerFrame::Reply {
                client: i as u64,
                req: 1,
                reply: SvcReply::Value(i as u64),
            })[4..]
                .to_vec();
            (up, down)
        })
        .collect();
    let client_decode = ns_per_op(MICRO_REPS, MICRO_OPS, || {
        for (up, down) in &frames {
            black_box(client_wire::decode_request_slice(up).expect("own encoding"));
            black_box(client_wire::decode_server(down.clone()).expect("own encoding"));
        }
    });

    vec![
        ("ftvc.observe_ns", observe),
        ("ftvc.stamp_encode_ns", stamp_encode),
        ("ftvc.stamp_decode_ns", stamp_decode),
        ("core.wire_encode_ns", wire_encode),
        ("core.wire_decode_ns", wire_decode),
        ("storage.log_append_ns", log_append),
        ("service.wire_encode_ns", client_encode),
        ("service.wire_decode_ns", client_decode),
    ]
}
