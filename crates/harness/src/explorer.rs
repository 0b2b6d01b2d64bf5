//! Exhaustive interleaving exploration — a bounded model checker for
//! small configurations.
//!
//! Randomized simulation (the rest of this crate) samples schedules;
//! this module *enumerates* them. A state is the tuple of cloned
//! [`DgProcess`]es plus the multiset of in-flight messages; at each step
//! the explorer branches on every enabled action:
//!
//! * deliver any in-flight message (any order — the network guarantees
//!   nothing),
//! * flush or checkpoint any process (bounded count, making the
//!   volatile/stable split part of the explored nondeterminism),
//! * crash-and-restart any process (bounded count).
//!
//! Every state — not just terminal ones — is checked against the core
//! invariants (version integrity, at-most-one rollback per failure);
//! terminal states (nothing in flight, no budgets left) additionally
//! get the full lost-state-dependency and postponement checks. For a
//! 2–3 process system with a handful of messages this covers *every*
//! reachable schedule up to the budget — the strongest statement short
//! of a proof that the protocol's guarantees hold.

use dg_core::{timers, Application, DgConfig, DgProcess, ProcessId, Wire};
use dg_simnet::manual::{Driver, OutEvent};

/// Budgets bounding the exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Prune schedules that reach a state already visited (matching
    /// process digests, in-flight multiset, and remaining budgets).
    /// Pruning is digest-based — collisions are astronomically unlikely
    /// but make the "exhaustive" claim probabilistic; disable for strict
    /// enumeration of small spaces.
    pub dedup: bool,
    /// Crash-restarts allowed in total across the run.
    pub max_crashes: usize,
    /// Explicit flush actions allowed per process.
    pub max_flushes: usize,
    /// Explicit checkpoint actions allowed per process.
    pub max_checkpoints: usize,
    /// Hard cap on visited states (exploration reports truncation).
    pub max_states: u64,
    /// Hard cap on the depth of any single schedule.
    pub max_depth: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            dedup: true,
            max_crashes: 1,
            max_flushes: 1,
            max_checkpoints: 1,
            max_states: 200_000,
            max_depth: 64,
        }
    }
}

/// Outcome of an exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// States visited (branches taken).
    pub states: u64,
    /// Branches skipped by digest-based deduplication.
    pub deduped: u64,
    /// Terminal states reached.
    pub terminals: u64,
    /// Deepest schedule.
    pub max_depth_seen: usize,
    /// `true` if `max_states` stopped the search early.
    pub truncated: bool,
    /// Invariant violations found (empty = all explored schedules safe).
    pub violations: Vec<String>,
}

struct ExploreState<A: Application> {
    actors: Vec<DgProcess<A>>,
    in_flight: Vec<(ProcessId, Wire<A::Msg>)>,
    crashes_left: usize,
    flushes_left: Vec<usize>,
    checkpoints_left: Vec<usize>,
    depth: usize,
}

impl<A: Application> Clone for ExploreState<A> {
    fn clone(&self) -> Self {
        ExploreState {
            actors: self.actors.clone(),
            in_flight: self.in_flight.clone(),
            crashes_left: self.crashes_left,
            flushes_left: self.flushes_left.clone(),
            checkpoints_left: self.checkpoints_left.clone(),
            depth: self.depth,
        }
    }
}

/// Exhaustively explore every interleaving of an `n`-process Damani–Garg
/// system running `make_app`, within the given budgets.
pub fn explore<A, F>(n: usize, make_app: F, dg: DgConfig, cfg: ExploreConfig) -> ExploreReport
where
    A: Application,
    F: Fn(ProcessId) -> A,
{
    let mut driver = Driver::new(n, 0);
    let mut actors: Vec<DgProcess<A>> = ProcessId::all(n)
        .map(|p| DgProcess::new(p, n, make_app(p), dg))
        .collect();
    let mut in_flight = Vec::new();
    for p in ProcessId::all(n) {
        let outs = driver.start(p, &mut actors[p.index()]);
        collect(p, outs, &mut in_flight);
    }
    let root = ExploreState {
        actors,
        in_flight,
        crashes_left: cfg.max_crashes,
        flushes_left: vec![cfg.max_flushes; n],
        checkpoints_left: vec![cfg.max_checkpoints; n],
        depth: 0,
    };
    let mut report = ExploreReport::default();
    let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut stack = vec![root];
    while let Some(state) = stack.pop() {
        if report.states >= cfg.max_states {
            report.truncated = true;
            break;
        }
        if cfg.dedup {
            let digest = state_digest(&state);
            if !seen.insert(digest) {
                report.deduped += 1;
                continue;
            }
        }
        report.states += 1;
        report.max_depth_seen = report.max_depth_seen.max(state.depth);
        check_always(&state, &mut report);
        if state.depth >= cfg.max_depth {
            report.truncated = true;
            continue;
        }

        let mut terminal = true;

        // Branch: deliver each in-flight message.
        for i in 0..state.in_flight.len() {
            terminal = false;
            let mut next = state.clone();
            let (to, wire) = next.in_flight.swap_remove(i);
            let from = wire_sender(&wire);
            let outs = driver.message(to, &mut next.actors[to.index()], from, wire);
            collect(to, outs, &mut next.in_flight);
            next.depth += 1;
            stack.push(next);
        }

        // Branch: flush / checkpoint each process.
        for p in ProcessId::all(n) {
            if state.flushes_left[p.index()] > 0 {
                terminal = false;
                let mut next = state.clone();
                next.flushes_left[p.index()] -= 1;
                let outs = driver.timer(p, &mut next.actors[p.index()], timers::FLUSH);
                collect(p, outs, &mut next.in_flight);
                next.depth += 1;
                stack.push(next);
            }
            if state.checkpoints_left[p.index()] > 0 {
                terminal = false;
                let mut next = state.clone();
                next.checkpoints_left[p.index()] -= 1;
                let outs = driver.timer(p, &mut next.actors[p.index()], timers::CHECKPOINT);
                collect(p, outs, &mut next.in_flight);
                next.depth += 1;
                stack.push(next);
            }
        }

        // Branch: crash-restart each process.
        if state.crashes_left > 0 {
            for p in ProcessId::all(n) {
                terminal = false;
                let mut next = state.clone();
                next.crashes_left -= 1;
                let outs = driver.crash_restart(p, &mut next.actors[p.index()]);
                collect(p, outs, &mut next.in_flight);
                next.depth += 1;
                stack.push(next);
            }
        }

        if terminal {
            report.terminals += 1;
            check_terminal(&state, &mut report);
        }
    }
    report
}

/// Digest of a whole exploration state: per-process digests plus the
/// in-flight multiset (order-independent) and remaining budgets.
fn state_digest<A: Application>(state: &ExploreState<A>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for actor in &state.actors {
        mix(actor.state_digest());
    }
    // Order-independent fold of the in-flight multiset.
    let mut flight: u64 = 0;
    for (to, wire) in &state.in_flight {
        let mut e: u64 = 0x9E37_79B9_7F4A_7C15;
        e ^= u64::from(to.0) << 48;
        e = e.wrapping_mul(31).wrapping_add(wire_digest(wire));
        flight = flight.wrapping_add(e);
    }
    mix(flight);
    mix(state.crashes_left as u64);
    for &f in &state.flushes_left {
        mix(f as u64);
    }
    for &c in &state.checkpoints_left {
        mix(c as u64);
    }
    h
}

fn wire_digest<M>(wire: &Wire<M>) -> u64 {
    match wire {
        Wire::App(env) => env.id().clock_digest ^ 0x1111,
        Wire::Resend(env) => env.id().clock_digest ^ 0x2222,
        Wire::Token(t) => {
            (u64::from(t.from.0) << 40) ^ (u64::from(t.entry.version.0) << 20) ^ t.entry.ts ^ 0x3333
        }
        Wire::Frontier(p, e) => {
            (u64::from(p.0) << 40) ^ (u64::from(e.version.0) << 20) ^ e.ts ^ 0x4444
        }
        Wire::TokenAck(e) => (u64::from(e.version.0) << 20) ^ e.ts ^ 0x5555,
        Wire::FrontierVec(v) => {
            let mut d: u64 = 0x7777;
            for e in v {
                d = d
                    .wrapping_mul(0x0000_0100_0000_01B3)
                    .wrapping_add((u64::from(e.version.0) << 20) ^ e.ts);
            }
            d
        }
        Wire::StableClock(p, clock) => {
            let own = clock.own_entry();
            (u64::from(p.0) << 40) ^ (u64::from(own.version.0) << 20) ^ own.ts ^ 0x6666
        }
        Wire::StabilityQuery(e) => (u64::from(e.version.0) << 20) ^ e.ts ^ 0x8888,
    }
}

/// The sender of a wire message, recovered from its contents (the manual
/// driver does not thread the transport-level sender; the protocol only
/// uses the payload-level identity anyway).
fn wire_sender<M>(wire: &Wire<M>) -> ProcessId {
    match wire {
        Wire::App(env) | Wire::Resend(env) => env.sender(),
        Wire::Token(t) => t.from,
        Wire::Frontier(p, _) | Wire::StableClock(p, _) => *p,
        // Acks carry no payload-level sender; the explorer never enables
        // the reliable-token sublayer, so none are ever in flight. The
        // aggregated frontier vector likewise only travels when tree
        // gossip runs, which explorer configs keep off for determinism,
        // and stability queries only answer `Input::Idle`, which the
        // explorer never issues.
        Wire::TokenAck(_) | Wire::FrontierVec(_) | Wire::StabilityQuery(_) => {
            unreachable!("explorer runs have no reliable tokens, tree gossip or idle edges")
        }
    }
}

fn collect<M>(from: ProcessId, outs: Vec<OutEvent<M>>, in_flight: &mut Vec<(ProcessId, M)>) {
    let _ = from;
    for out in outs {
        if let OutEvent::Send { to, msg, .. } = out {
            in_flight.push((to, msg));
        }
    }
}

/// Invariants that must hold in *every* reachable state.
fn check_always<A: Application>(state: &ExploreState<A>, report: &mut ExploreReport) {
    if report.violations.len() >= 8 {
        return; // enough evidence
    }
    for actor in &state.actors {
        if u64::from(actor.version().0) != actor.stats().restarts {
            report.violations.push(format!(
                "depth {}: {} at version {} after {} restarts",
                state.depth,
                actor.id(),
                actor.version(),
                actor.stats().restarts
            ));
        }
        if actor.stats().max_rollbacks_per_failure() > 1 {
            report.violations.push(format!(
                "depth {}: {} rolled back {} times for one failure",
                state.depth,
                actor.id(),
                actor.stats().max_rollbacks_per_failure()
            ));
        }
    }
}

/// Invariants that must hold once nothing is in flight and no faults
/// remain.
fn check_terminal<A: Application>(state: &ExploreState<A>, report: &mut ExploreReport) {
    if report.violations.len() >= 8 {
        return;
    }
    for actor in &state.actors {
        if actor.postponed_len() > 0 {
            report.violations.push(format!(
                "terminal at depth {}: {} still holds postponed messages",
                state.depth,
                actor.id()
            ));
        }
        for peer in &state.actors {
            for &(version, restored_ts) in &peer.stats().restorations {
                let dep = actor.clock().entry(peer.id());
                if dep.version == version && dep.ts > restored_ts {
                    report.violations.push(format!(
                        "terminal at depth {}: {} depends on lost ({},{}) of {}",
                        state.depth,
                        actor.id(),
                        version,
                        dep.ts,
                        peer.id()
                    ));
                }
            }
        }
    }
}
