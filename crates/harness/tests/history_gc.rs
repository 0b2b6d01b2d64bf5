//! History-table garbage collection under steady-state traffic with
//! recurring failures (the paper's Section 6.9 space concern).
//!
//! Every `(process, version)` pair leaves a record in each peer's
//! history table; without reclamation a long-lived system accretes one
//! record per failure forever. The `history_gc` path reclaims
//! token-covered versions on the gossip tick, capped so that it never
//! regresses deliverability (the token-frontier floor) and never
//! reclaims a token record a still-pending external output needs for
//! its stability test — that last cap is the regression this file
//! pins: GC must be *transparent*, changing space but never results.

use dg_core::{Application, DgConfig, Effects, EngineView, ProcessId};
use dg_harness::{oracle, run_dg, DgRunOutcome, FaultPlan};
use dg_simnet::NetConfig;

const N: usize = 4;
const LIMIT: u64 = 3_000;
const COOLDOWN: u64 = 800;

/// Single-token ring: values `1..=limit` are recorded and emitted as
/// external outputs; the cooldown tail keeps app traffic (and therefore
/// the simulation) alive while gossip commits the measured outputs.
#[derive(Clone)]
struct Ring {
    last: u64,
    digest: u64,
}

impl Application for Ring {
    type Msg = u64;

    fn on_start(&mut self, me: ProcessId, n: usize) -> Effects<u64> {
        if me == ProcessId(0) {
            Effects::send(ProcessId(1 % n as u16), 1)
        } else {
            Effects::none()
        }
    }

    fn on_message(&mut self, me: ProcessId, _from: ProcessId, msg: &u64, n: usize) -> Effects<u64> {
        self.last = *msg;
        let mut effects = Effects::none();
        if *msg <= LIMIT {
            self.digest = (self.digest ^ *msg).wrapping_mul(0x0000_0100_0000_01b3);
            effects = effects.and_output(*msg);
        }
        if *msg < LIMIT + COOLDOWN {
            effects = effects.and_send(ProcessId((me.0 + 1) % n as u16), *msg + 1);
        }
        effects
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

fn run(history_gc: bool) -> DgRunOutcome<Ring> {
    let config = DgConfig::serving().with_history_gc(history_gc);
    // Four crashes spread across the run — two of them repeat victims,
    // so versions climb past v1 and old incarnations pile up.
    let plan = FaultPlan::single_crash(ProcessId(1), 40_000)
        .with_crash(ProcessId(3), 150_000)
        .with_crash(ProcessId(1), 300_000)
        .with_crash(ProcessId(2), 450_000);
    let out = run_dg(
        N,
        |_| Ring {
            last: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        },
        config,
        NetConfig::with_seed(11),
        &plan,
    );
    assert!(
        out.stats.quiescent,
        "run (history_gc={history_gc}) did not quiesce"
    );
    oracle::check(&out).expect("oracle violation");
    out
}

#[test]
fn history_gc_is_transparent_and_bounds_the_tables() {
    let without = run(false);
    let with = run(true);

    let restarts: u64 = with
        .sim
        .actors()
        .iter()
        .map(|a| EngineView::stats(a).restarts)
        .sum();
    assert_eq!(restarts, 4, "all four injected crashes must recover");

    for (a, b) in without.sim.actors().iter().zip(with.sim.actors()) {
        let p = EngineView::id(a);

        // Transparency: GC changes space accounting, nothing else.
        assert_eq!(
            a.app().digest(),
            b.app().digest(),
            "{p}: app digest changed"
        );
        assert_eq!(a.app().last, b.app().last, "{p}: ring position changed");
        let plain: Vec<u64> = a.committed_outputs().copied().collect();
        let gced: Vec<u64> = b.committed_outputs().copied().collect();
        assert_eq!(
            plain, gced,
            "{p}: committed outputs changed under history GC"
        );

        // Exactly-once output commit: every measured ring value this
        // process saw was committed, none lost to rollback or GC. (This
        // pins two past bugs: rollback clearing non-orphan pending
        // outputs, and history GC reclaiming a token record a pending
        // output still needed for its stability test.)
        let expected: Vec<u64> = (1..=LIMIT)
            .filter(|v| v % N as u64 == u64::from(p.0))
            .collect();
        assert_eq!(gced, expected, "{p}: outputs lost or duplicated");

        assert_eq!(b.pending_outputs(), 0, "{p}: outputs stuck pending");
    }

    // The GC actually ran (via the gossip Tick path) and reclaimed the
    // dead incarnations: total records shrink relative to the no-GC run.
    let reclaimed: u64 = with
        .sim
        .actors()
        .iter()
        .map(|a| EngineView::stats(a).gc_history_records)
        .sum();
    assert!(reclaimed > 0, "history GC never reclaimed a record");

    let total_without: usize = without
        .sim
        .actors()
        .iter()
        .map(|a| a.history().total_records())
        .sum();
    let total_with: usize = with
        .sim
        .actors()
        .iter()
        .map(|a| a.history().total_records())
        .sum();
    assert!(
        total_with < total_without,
        "history GC left tables as large as the no-GC run \
         ({total_with} vs {total_without})"
    );

    // The paper's O(n·f) ceiling holds for both: one record per known
    // (process, version) pair — 4 failures on top of the 4 initial
    // versions, seen from each of the 4 processes.
    for out in [&without, &with] {
        for a in out.sim.actors() {
            assert!(
                a.history().total_records() <= N * (N + 4),
                "{}: history table exceeds the O(n·f) ceiling",
                EngineView::id(a)
            );
        }
    }
}
