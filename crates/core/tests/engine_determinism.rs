//! The contract the sans-IO refactor rests on: the engine is a pure
//! deterministic state machine. Feeding an identical recorded [`Input`]
//! sequence to a fresh engine — or to a mid-sequence [`Clone`] — must
//! produce a byte-identical [`Effect`] stream and the same
//! `state_digest()`. All nondeterminism (time, delivery order, crashes)
//! enters through the inputs; none may originate inside.
//!
//! The recorded sequences come from a tiny scripted router: `n` engines
//! exchange real wire traffic while a seeded scheduler interleaves
//! deliveries, timer firings, external commands, idle edges, crashes, and
//! restarts. Whatever trace that produces, replay must reproduce it
//! exactly.

use std::collections::VecDeque;

use dg_core::engine::{Effect, Engine, Input, ProtocolEngine};
use dg_core::{Application, DgConfig, Effects, ProcessId, Wire};
use proptest::prelude::*;

/// Bounded-fanout app: a message carries a TTL; each delivery emits the
/// TTL as an external output and forwards `ttl - 1` around the ring.
#[derive(Clone)]
struct Relay;

impl Application for Relay {
    type Msg = u64;

    fn on_start(&mut self, me: ProcessId, n: usize) -> Effects<u64> {
        if me == ProcessId(0) {
            Effects::send(ProcessId(1 % n as u16), 24)
        } else {
            Effects::none()
        }
    }

    fn on_message(&mut self, me: ProcessId, _from: ProcessId, msg: &u64, n: usize) -> Effects<u64> {
        let mut effects = Effects::output(*msg);
        if *msg > 0 {
            effects = effects.and_send(ProcessId((me.0 + 1) % n as u16), *msg - 1);
        }
        effects
    }

    fn digest(&self) -> u64 {
        0
    }
}

type In = Input<Wire<u64>, u64>;
type Eff = Effect<Wire<u64>, u64>;

/// One process's recorded trace: every input it consumed and every
/// effect it produced, in order.
#[derive(Default)]
struct Trace {
    inputs: Vec<In>,
    effects: Vec<Eff>,
}

/// Drive `n` engines through a seeded interleaving of deliveries, timer
/// firings, commands, idle edges, and crash/restart pairs, recording each
/// engine's input and effect streams.
fn record(n: usize, seed: u64, steps: usize, crashes: &[usize]) -> Vec<Trace> {
    let config = DgConfig::serving().with_gossip(5_000);
    let mut engines: Vec<Engine<Relay>> = (0..n)
        .map(|p| Engine::new(ProcessId(p as u16), n, Relay, config))
        .collect();
    let mut traces: Vec<Trace> = (0..n).map(|_| Trace::default()).collect();
    let mut net: VecDeque<(ProcessId, ProcessId, Wire<u64>)> = VecDeque::new();
    let mut timers: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n];
    let mut down = vec![false; n];
    let mut parked: Vec<Vec<(ProcessId, Wire<u64>)>> = vec![Vec::new(); n];
    let mut now = 0u64;
    // xorshift64*: deterministic scheduler randomness from the seed.
    let mut rng = seed.max(1);
    let mut next = |bound: u64| {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
    };

    let feed = |engines: &mut Vec<Engine<Relay>>,
                traces: &mut Vec<Trace>,
                timers: &mut Vec<Vec<(u64, u32)>>,
                net: &mut VecDeque<(ProcessId, ProcessId, Wire<u64>)>,
                now: u64,
                p: ProcessId,
                input: In| {
        let effects = engines[p.index()].handle(input.clone());
        traces[p.index()].inputs.push(input);
        for eff in &effects {
            match eff {
                Effect::Send { to, wire, .. } => net.push_back((*to, p, wire.clone())),
                Effect::Broadcast { wire, .. } => {
                    for q in ProcessId::all(engines.len()) {
                        if q != p {
                            net.push_back((q, p, wire.clone()));
                        }
                    }
                }
                Effect::SetTimer { delay, kind, .. } => {
                    timers[p.index()].push((now + delay, *kind));
                }
                _ => {}
            }
        }
        traces[p.index()].effects.extend(effects);
    };

    for p in ProcessId::all(n) {
        feed(
            &mut engines,
            &mut traces,
            &mut timers,
            &mut net,
            now,
            p,
            Input::Start { now },
        );
    }

    for step in 0..steps {
        now += 1 + next(40);
        if crashes.contains(&step) {
            // Crash whichever live process the scheduler picks; restart
            // it a bounded number of steps later via a parked marker.
            let victim = ProcessId(next(n as u64) as u16);
            if !down[victim.index()] {
                down[victim.index()] = true;
                timers[victim.index()].clear();
                feed(
                    &mut engines,
                    &mut traces,
                    &mut timers,
                    &mut net,
                    now,
                    victim,
                    Input::Crash,
                );
            }
            continue;
        }
        // Restart any down process with probability ~1/4 per step.
        if let Some(idx) = (0..n).find(|&i| down[i]) {
            if next(4) == 0 {
                let p = ProcessId(idx as u16);
                down[idx] = false;
                feed(
                    &mut engines,
                    &mut traces,
                    &mut timers,
                    &mut net,
                    now,
                    p,
                    Input::Restart { now },
                );
                for (from, wire) in std::mem::take(&mut parked[idx]) {
                    now += 1;
                    feed(
                        &mut engines,
                        &mut traces,
                        &mut timers,
                        &mut net,
                        now,
                        p,
                        Input::Deliver { from, wire, now },
                    );
                }
                continue;
            }
        }
        match next(6) {
            // Deliver a queued message (parking it if the target is down).
            0..=2 => {
                if let Some(pos) = {
                    let len = net.len() as u64;
                    (len > 0).then(|| (next(len) as usize).min(net.len() - 1))
                } {
                    let (to, from, wire) = net.remove(pos).unwrap();
                    if down[to.index()] {
                        parked[to.index()].push((from, wire));
                    } else {
                        feed(
                            &mut engines,
                            &mut traces,
                            &mut timers,
                            &mut net,
                            now,
                            to,
                            Input::Deliver { from, wire, now },
                        );
                    }
                }
            }
            // Fire the earliest due timer anywhere.
            3 => {
                if let Some((idx, slot)) = (0..n)
                    .filter(|&i| !down[i])
                    .flat_map(|i| timers[i].iter().enumerate().map(move |(s, t)| (i, s, t.0)))
                    .min_by_key(|&(_, _, due)| due)
                    .map(|(i, s, _)| (i, s))
                {
                    let (due, kind) = timers[idx].remove(slot);
                    now = now.max(due);
                    feed(
                        &mut engines,
                        &mut traces,
                        &mut timers,
                        &mut net,
                        now,
                        ProcessId(idx as u16),
                        Input::Tick { kind, now },
                    );
                }
            }
            // Report an idle edge at a live process: with outputs pending
            // (every delivery emits one) it flushes, sweeps and queries.
            4 => {
                let p = ProcessId(next(n as u64) as u16);
                if !down[p.index()] {
                    feed(
                        &mut engines,
                        &mut traces,
                        &mut timers,
                        &mut net,
                        now,
                        p,
                        Input::Idle { now },
                    );
                }
            }
            // Inject an external command at a live process.
            _ => {
                let p = ProcessId(next(n as u64) as u16);
                if !down[p.index()] {
                    let to = ProcessId(next(n as u64) as u16);
                    feed(
                        &mut engines,
                        &mut traces,
                        &mut timers,
                        &mut net,
                        now,
                        p,
                        Input::AppSend {
                            to,
                            payload: 8,
                            now,
                        },
                    );
                }
            }
        }
    }
    traces
}

/// Replay a recorded input stream into `engine`, returning the effects.
fn replay(engine: &mut Engine<Relay>, inputs: &[In]) -> Vec<Eff> {
    inputs
        .iter()
        .flat_map(|input| engine.handle(input.clone()))
        .collect()
}

fn config() -> DgConfig {
    DgConfig::serving().with_gossip(5_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fresh engine fed the recorded inputs reproduces the recorded
    /// effect stream and final digest exactly.
    #[test]
    fn identical_inputs_identical_effects(
        seed in 1u64..u64::MAX,
        steps in 60usize..220,
        crash_at in 5usize..50,
    ) {
        let n = 3;
        let traces = record(n, seed, steps, &[crash_at, crash_at + 17]);
        for (i, trace) in traces.iter().enumerate() {
            let me = ProcessId(i as u16);
            let mut fresh = Engine::new(me, n, Relay, config());
            let effects = replay(&mut fresh, &trace.inputs);
            prop_assert_eq!(&effects, &trace.effects, "replayed effect stream diverged for {}", me);
            let mut again = Engine::new(me, n, Relay, config());
            replay(&mut again, &trace.inputs);
            prop_assert_eq!(fresh.state_digest(), again.state_digest());
        }
    }

    /// A clone taken mid-stream stays in lockstep with the original for
    /// the rest of the inputs: no hidden state outside `Clone`.
    #[test]
    fn clone_stays_in_lockstep(
        seed in 1u64..u64::MAX,
        steps in 60usize..220,
        split_num in 1usize..7,
    ) {
        let n = 3;
        let traces = record(n, seed, steps, &[12]);
        for (i, trace) in traces.iter().enumerate() {
            let me = ProcessId(i as u16);
            let split = trace.inputs.len() * split_num / 8;
            let mut original = Engine::new(me, n, Relay, config());
            replay(&mut original, &trace.inputs[..split]);
            let mut cloned = original.clone();
            let tail_a = replay(&mut original, &trace.inputs[split..]);
            let tail_b = replay(&mut cloned, &trace.inputs[split..]);
            prop_assert_eq!(&tail_a, &tail_b, "clone effect stream diverged for {}", me);
            prop_assert_eq!(original.state_digest(), cloned.state_digest());
        }
    }
}
