//! Client-visible exactly-once at the service boundary, engine-level.
//!
//! The netrun chaos suite exercises the served store over real sockets;
//! this test drives the same [`KvService`] engines sans-IO (the
//! `output_conservation.rs` feed/drain pattern) so the adversarial
//! windows are *exact*: a crash after the owner applied a write but
//! before the response committed, retries injected through different
//! fronts, in-flight messages lost to the crash. Like the real runtime,
//! the harness reports an idle edge (`Input::Idle`) to every engine once
//! a delivery batch has drained, so responses commit through the
//! stability-query path as well as through the ticks — and a crash may
//! land on either side of that edge. The invariants are the service
//! contract itself:
//!
//! * a retried request is applied exactly once, crash or no crash;
//! * every committed response to one request carries the same reply;
//! * replicas converge to the acknowledged writes.

use std::collections::VecDeque;

use dg_apps::{KvService, SvcMsg, SvcOp, SvcReply, SvcRequest};
use dg_core::engine::{timers, Effect, Engine, Input, ProtocolEngine};
use dg_core::{DgConfig, EngineView, ProcessId, Wire};
use dg_harness::service_oracle::{self, ReadRecord, ResponseRecord, ServiceJournal, WriteRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type In = Input<Wire<SvcMsg>, SvcMsg>;
type Eff = Effect<Wire<SvcMsg>, SvcMsg>;

fn config() -> DgConfig {
    DgConfig::serving().with_gossip(5_000)
}

/// The sans-IO cluster: engines, the in-flight message queue, a clock.
struct Harness {
    engines: Vec<Engine<KvService>>,
    net: VecDeque<(ProcessId, ProcessId, Wire<SvcMsg>)>,
    now: u64,
}

impl Harness {
    fn new(n: usize) -> Harness {
        let mut h = Harness {
            engines: (0..n)
                .map(|p| Engine::new(ProcessId(p as u16), n, KvService::new(), config()))
                .collect(),
            net: VecDeque::new(),
            now: 0,
        };
        for p in ProcessId::all(n) {
            h.feed(p, Input::Start { now: 0 });
        }
        h.drain();
        h
    }

    fn n(&self) -> usize {
        self.engines.len()
    }

    fn feed(&mut self, p: ProcessId, input: In) {
        let effects: Vec<Eff> = self.engines[p.index()].handle(input);
        for eff in effects {
            match eff {
                Effect::Send { to, wire, .. } => self.net.push_back((to, p, wire)),
                Effect::Broadcast { wire, .. } => {
                    for q in ProcessId::all(self.n()) {
                        if q != p {
                            self.net.push_back((q, p, wire.clone()));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Deliver everything in flight, and whatever that produces.
    fn deliver_all(&mut self) {
        self.now += 10;
        while let Some((to, from, wire)) = self.net.pop_front() {
            let now = self.now;
            self.feed(to, Input::Deliver { from, wire, now });
        }
    }

    /// What a runtime does between two waits: deliver the batch, tell
    /// every engine it ran dry, and go round again for whatever the
    /// idle edges sent (stability queries and their answers).
    fn drain(&mut self) {
        loop {
            self.deliver_all();
            let now = self.now;
            for p in ProcessId::all(self.n()) {
                self.feed(p, Input::Idle { now });
            }
            if self.net.is_empty() {
                return;
            }
        }
    }

    /// Crash `p`, losing everything in flight toward it (the TCP
    /// connections died), then restart it and let recovery play out.
    fn crash_restart(&mut self, p: ProcessId) {
        self.net.retain(|&(to, _, _)| to != p);
        self.feed(p, Input::Crash);
        self.now += 100;
        let now = self.now;
        self.feed(p, Input::Restart { now });
        self.drain();
    }

    /// One round of flush + gossip on every engine, then deliver all.
    fn stability_round(&mut self) {
        self.now += 100;
        for p in ProcessId::all(self.n()) {
            let now = self.now;
            self.feed(
                p,
                Input::Tick {
                    kind: timers::FLUSH,
                    now,
                },
            );
            self.feed(
                p,
                Input::Tick {
                    kind: timers::GOSSIP,
                    now,
                },
            );
        }
        self.drain();
    }

    /// Drive the frontier until every output has committed.
    fn settle(&mut self) {
        for _ in 0..12 {
            self.stability_round();
            if self.engines.iter().all(|e| e.pending_outputs() == 0) {
                return;
            }
        }
        panic!("outputs failed to commit after 12 stability rounds");
    }

    /// Inject a client request at `front`, addressed to the owner, and
    /// deliver it. With `idle_edge` the runtime then gets to report its
    /// idle edges (so the response normally commits at once); without,
    /// the caller's next move — a crash, say — lands before them.
    fn inject(&mut self, front: ProcessId, request: SvcRequest, idle_edge: bool) {
        let owner = ProcessId((request.op.key() as usize % self.n()) as u16);
        let now = self.now;
        self.feed(
            front,
            Input::AppSend {
                to: owner,
                payload: SvcMsg::Request(request),
                now,
            },
        );
        if idle_edge {
            self.drain();
        } else {
            self.deliver_all();
        }
    }

    /// All committed responses to `(client, req)`, across every engine.
    fn committed_replies(&self, client: u64, req: u64) -> Vec<SvcReply> {
        self.engines
            .iter()
            .flat_map(|e| e.committed_outputs())
            .filter_map(|m| match *m {
                SvcMsg::Response {
                    client: c,
                    req: r,
                    reply,
                } if c == client && r == req => Some(reply),
                _ => None,
            })
            .collect()
    }
}

fn summary(reply: SvcReply) -> u64 {
    match reply {
        SvcReply::Written => 0,
        SvcReply::NotFound => 1,
        SvcReply::Stale => 2,
        SvcReply::Value(v) => v.wrapping_mul(5).wrapping_add(3),
    }
}

/// The exact adversarial window, pinned: the owner applies a write and
/// crashes before the response commits; the client retries through a
/// different front. The write must apply exactly once and both
/// committed responses (original re-emission included) must agree.
#[test]
fn write_retried_across_owner_crash_applies_exactly_once() {
    let mut h = Harness::new(3);
    let put = SvcRequest {
        client: 1,
        req: 1,
        op: SvcOp::Put { key: 2, value: 77 }, // owner = node 2
    };

    // First attempt via front 0: the owner applies the write and emits
    // the response, but neither an idle edge nor a gossip tick has
    // come — nothing is committed.
    h.inject(ProcessId(0), put, false);
    assert!(
        h.committed_replies(1, 1).is_empty(),
        "response must still be pending"
    );
    assert_eq!(h.engines[2].app().applied_count(1, 1), 1);

    // The owner crashes; the un-flushed apply may roll back entirely.
    h.crash_restart(ProcessId(2));

    // Client saw nothing: retry the same request id via another front.
    h.inject(ProcessId(1), put, true);
    h.settle();

    // Exactly one apply across the group, every response identical.
    let applies: u32 = h.engines.iter().map(|e| e.app().applied_count(1, 1)).sum();
    assert_eq!(applies, 1, "retry across a crash must not double-apply");
    let replies = h.committed_replies(1, 1);
    assert!(!replies.is_empty(), "the retry must commit a response");
    assert!(
        replies.iter().all(|&r| r == SvcReply::Written),
        "divergent answers to one request: {replies:?}"
    );
    for e in &h.engines {
        assert_eq!(e.app().get(2), Some(77), "acked write lost on {:?}", e.id());
    }
}

/// Seeded chaos sweep: random ops with crash-and-retry interleavings,
/// audited by the full service oracle at the end of every run.
#[test]
fn seeded_sweep_preserves_the_service_contract() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xE16_0000 ^ seed);
        let n = 3 + (seed as usize % 2); // 3 or 4 replicas
        let clients = 2u64;
        let ops_per_client = 8u64;
        let mut h = Harness::new(n);
        let mut journal = ServiceJournal::default();

        for i in 0..ops_per_client {
            for client in 0..clients {
                let req = i + 1;
                // Single-writer-per-key discipline: client c owns keys
                // congruent to c (mod `clients`).
                let key = (client + rng.gen_range(0..4) * clients) as u16;
                let op = match rng.gen_range(0..4u8) {
                    0 | 1 => SvcOp::Put {
                        key,
                        value: client * 1_000 + i,
                    },
                    2 => SvcOp::Get { key },
                    _ => SvcOp::Del { key },
                };
                let request = SvcRequest { client, req, op };

                // Retry until a committed response exists, crashing a
                // random process around half the attempts.
                let mut attempts = 0;
                while h.committed_replies(client, req).is_empty() {
                    attempts += 1;
                    assert!(attempts <= 8, "seed {seed}: request never acked");
                    let front = ProcessId(rng.gen_range(0..n as u16));
                    // Half the time the crash below beats the idle edge.
                    h.inject(front, request, rng.gen_bool(0.5));
                    if rng.gen_bool(0.5) {
                        h.crash_restart(ProcessId(rng.gen_range(0..n as u16)));
                    }
                    for _ in 0..3 {
                        h.stability_round();
                    }
                }

                // Record what "the client" saw: first committed reply.
                let reply = h.committed_replies(client, req)[0];
                match op {
                    SvcOp::Put { key, value } => journal.acked_writes.push(WriteRecord {
                        client,
                        req,
                        key,
                        value: Some(value),
                    }),
                    SvcOp::Del { key } => journal.acked_writes.push(WriteRecord {
                        client,
                        req,
                        key,
                        value: None,
                    }),
                    SvcOp::Get { key } => journal.observed_gets.push(ReadRecord {
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
        }

        h.settle();
        // Every committed response, duplicates included, goes to the
        // determinism check.
        for e in &h.engines {
            for m in e.committed_outputs() {
                if let SvcMsg::Response { client, req, reply } = *m {
                    journal.responses.push(ResponseRecord {
                        client,
                        req,
                        summary: summary(reply),
                    });
                }
            }
        }
        let replicas: Vec<_> = h
            .engines
            .iter()
            .map(|e| service_oracle::ReplicaFacts {
                live_map: e.app().live_map(),
                applied: e.app().applied_counts().collect(),
            })
            .collect();
        let mut violations = Vec::new();
        service_oracle::check_service(&journal, &replicas, &mut violations);
        assert!(
            violations.is_empty(),
            "seed {seed}: service contract violated: {violations:?}"
        );
    }
}
