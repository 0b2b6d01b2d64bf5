//! Schedule-level tests of the reliable-token sublayer's retransmission
//! backoff: exponential doubling, the cap, and the deterministic 25 %
//! jitter.
//!
//! These drive the sans-IO [`Engine`] directly — no network at all, so
//! every acknowledgement is "lost" — and read the retry schedule off the
//! `SetTimer` effects the engine emits. A seeded RNG sweeps random
//! configurations; the engine itself stays RNG-free (its jitter is a
//! pure hash of process, token and attempt), which is exactly what the
//! sweep verifies: the schedule is replay-deterministic yet decorrelated
//! across processes.

use dg_core::engine::timers;
use dg_core::{
    Application, DgConfig, Effect, Effects, Engine, EngineView, Input, ProcessId, ProtocolEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone)]
struct Noop;

impl Application for Noop {
    type Msg = u64;
    fn on_start(&mut self, _: ProcessId, _: usize) -> Effects<u64> {
        Effects::none()
    }
    fn on_message(&mut self, _: ProcessId, _: ProcessId, _: &u64, _: usize) -> Effects<u64> {
        Effects::none()
    }
}

/// Crash-and-restart `me` in an `n`-process system where no peer ever
/// acknowledges, then fire every token-retry timer as it comes due for
/// `rounds` rounds. Returns the sequence of retry delays (microseconds
/// between consecutive retransmission timers) and the engine for
/// post-hoc stats inspection.
fn retry_schedule(
    me: ProcessId,
    n: usize,
    config: DgConfig,
    rounds: usize,
) -> (Vec<u64>, Engine<Noop>) {
    let mut engine = Engine::new(me, n, Noop, config);
    let mut now = 0u64;
    let mut delays = Vec::new();
    let mut pending_timer = None;
    let absorb = |effects: Vec<Effect<_, _>>, pending_timer: &mut Option<u64>| {
        for effect in effects {
            if let Effect::SetTimer { delay, kind, .. } = effect {
                if kind == timers::TOKEN_RETRY {
                    *pending_timer = Some(delay);
                }
            }
        }
    };
    absorb(engine.handle(Input::Start { now }), &mut pending_timer);
    engine.handle(Input::Crash);
    now += 1_000;
    absorb(engine.handle(Input::Restart { now }), &mut pending_timer);
    for _ in 0..rounds {
        let delay = pending_timer
            .take()
            .expect("an unacknowledged token keeps its retry timer armed");
        delays.push(delay);
        now += delay;
        absorb(
            engine.handle(Input::Tick {
                kind: timers::TOKEN_RETRY,
                now,
            }),
            &mut pending_timer,
        );
    }
    (delays, engine)
}

/// The engine's fixed retransmission jitter, in percent.
const JITTER_PCT: u64 = 25;

/// The nominal (unjittered) schedule: `initial`, then doubling, capped.
/// Index 0 is the delay before the *first* retry.
fn nominal(initial: u64, cap: u64, rounds: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(rounds);
    let mut b = initial;
    for _ in 0..rounds {
        out.push(b);
        b = (b * 2).min(cap);
    }
    out
}

#[test]
fn seeded_sweep_keeps_jittered_delays_inside_the_band() {
    let mut rng = StdRng::seed_from_u64(0xba5eba11);
    for trial in 0..50 {
        let initial = rng.gen_range(200u64..5_000);
        let cap = initial * rng.gen_range(2u64..64);
        let config = DgConfig::fast_test()
            .with_reliable_tokens(true)
            .token_retry(initial, cap);
        let me = ProcessId(rng.gen_range(0u16..4));
        let (delays, _) = retry_schedule(me, 4, config, 10);
        assert_eq!(delays.len(), 10, "trial {trial}: schedule ended early");
        for (i, (&delay, &nom)) in delays
            .iter()
            .zip(nominal(initial, cap, 10).iter())
            .enumerate()
        {
            let floor = nom - nom * JITTER_PCT / 100 - 1; // integer-division slack
            assert!(
                delay <= nom && delay >= floor.max(1),
                "trial {trial}, retry {i}: delay {delay} outside [{floor}, {nom}]"
            );
        }
    }
}

#[test]
fn jitter_decorrelates_processes_but_replays_identically() {
    let config = DgConfig::fast_test()
        .with_reliable_tokens(true)
        .token_retry(1_000, 64_000);
    let (a, _) = retry_schedule(ProcessId(0), 4, config, 8);
    let (a_again, _) = retry_schedule(ProcessId(0), 4, config, 8);
    let (b, _) = retry_schedule(ProcessId(1), 4, config, 8);
    assert_eq!(a, a_again, "the jittered schedule must be deterministic");
    assert_ne!(a, b, "distinct processes must draw distinct schedules");
    // And the jitter actually moved something off the nominal schedule.
    assert_ne!(a, nominal(1_000, 64_000, 8));
}

#[test]
fn unlimited_retries_never_exhaust() {
    let config = DgConfig::fast_test()
        .with_reliable_tokens(true)
        .token_retry(500, 4_000);
    let (delays, engine) = retry_schedule(ProcessId(2), 3, config, 40);
    assert_eq!(delays.len(), 40);
    assert_eq!(engine.stats().max_token_backoff, 4_000);
    assert_eq!(engine.pending_token_count(), 1, "token still pending");
}
