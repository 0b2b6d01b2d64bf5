//! Completely asynchronous optimistic recovery with minimal rollbacks
//! (Smith–Johnson–Tygar, FTCS 1995).
//!
//! SJT was the first protocol to achieve what Damani–Garg also achieve —
//! completely asynchronous recovery, at most one rollback per failure,
//! arbitrary concurrent failures, no ordering assumptions. The paper's
//! Table 1 differs from Damani–Garg in exactly one column: the **size of
//! the piggybacked clock**, `O(n²f)` (a vector of vector clocks covering
//! every known incarnation) versus Damani–Garg's `O(n)`, because SJT
//! keeps incarnation-history information *on the wire* that Damani–Garg
//! moves into volatile memory (the history mechanism).
//!
//! Accordingly, this reproduction reuses the Damani–Garg recovery engine
//! — the two protocols are behaviourally equivalent on every other
//! measured axis — and faithfully maintains and **serializes the SJT
//! matrix**: for every process and every known incarnation of it, the
//! full vector clock of the latest known state (O(n) entries each, so
//! O(n²f) total). Experiment E1b measures these real encoded bytes
//! against Damani–Garg's single-FTVC piggyback on identical runs.

use std::collections::BTreeMap;

use dg_core::{Application, DgConfig, DgProcess, Ftvc, Version, Wire};
use dg_ftvc::wire as clockwire;
use dg_harness::{dg_report, ProtoReport};
use dg_simnet::{Actor, Context, ProcessId};

/// A process running SJT-style recovery: the Damani–Garg engine plus the
/// O(n²f) matrix piggyback that SJT's wire format requires.
pub struct SjtProcess<A: Application> {
    inner: DgProcess<A>,
    /// `rows[j][v]` = latest known full clock of process `j` in its
    /// incarnation `v`. This is the structure SJT serializes onto every
    /// application message.
    rows: Vec<BTreeMap<Version, Ftvc>>,
    /// Measured matrix piggyback bytes (replaces the inner FTVC count).
    matrix_piggyback_bytes: u64,
}

impl<A: Application> SjtProcess<A> {
    /// Create process `me` of `n` running `app`.
    pub fn new(me: ProcessId, n: usize, app: A, config: DgConfig) -> Self {
        let inner = DgProcess::new(me, n, app, config);
        let mut rows = vec![BTreeMap::new(); n];
        rows[me.index()].insert(Version(0), inner.clock().clone());
        SjtProcess {
            inner,
            rows,
            matrix_piggyback_bytes: 0,
        }
    }

    /// The application state.
    pub fn app(&self) -> &A {
        self.inner.app()
    }

    /// The wrapped Damani–Garg engine (for oracle-style inspection).
    pub fn inner(&self) -> &DgProcess<A> {
        &self.inner
    }

    /// Total entries currently in the matrix (Σ over processes of known
    /// incarnations × n) — the O(n²f) growth measured by E1b/E4.
    pub fn matrix_entries(&self) -> usize {
        let n = self.rows.len();
        self.rows.iter().map(|m| m.len() * n).sum()
    }

    /// Encoded size of the current matrix in bytes.
    pub fn matrix_bytes(&self) -> u64 {
        self.rows
            .iter()
            .flat_map(|m| m.values())
            .map(|clock| clockwire::ftvc_wire_len(clock) as u64)
            .sum()
    }

    /// Comparable metrics: the Damani–Garg report with the piggyback
    /// replaced by the measured matrix bytes.
    pub fn report(&self) -> ProtoReport {
        ProtoReport {
            piggyback_bytes: self.matrix_piggyback_bytes,
            ..dg_report(&self.inner)
        }
    }

    /// Fold an observed clock into the matrix: the sender's row is
    /// replaced wholesale, and — as in SJT, where the matrix itself is
    /// piggybacked and merged transitively — every component `(j, v, ts)`
    /// guarantees a row for incarnation `v` of process `j` exists (we
    /// synthesize the row from the component when we have not seen `j`'s
    /// own clock for it; only its size is measured).
    fn absorb_clock(&mut self, clock: &Ftvc) {
        let owner = clock.owner();
        let version = clock.version();
        let n = clock.len();
        let row = &mut self.rows[owner.index()];
        match row.get_mut(&version) {
            Some(existing) => {
                if existing.entry(owner) < clock.entry(owner) {
                    *existing = clock.clone();
                }
            }
            None => {
                row.insert(version, clock.clone());
            }
        }
        for (j, entry) in clock.iter() {
            if j == owner {
                continue;
            }
            let row = &mut self.rows[j.index()];
            row.entry(entry.version).or_insert_with(|| {
                let mut parts = vec![(0, 0); n];
                parts[j.index()] = (entry.version.0, entry.ts);
                Ftvc::from_parts(j, &parts)
            });
            if let Some(existing) = row.get_mut(&entry.version) {
                if existing.entry(j) < entry {
                    let mut parts: Vec<(u32, u64)> =
                        existing.iter().map(|(_, e)| (e.version.0, e.ts)).collect();
                    parts[j.index()] = (entry.version.0, entry.ts);
                    *existing = Ftvc::from_parts(j, &parts);
                }
            }
        }
    }

    fn refresh_own_row(&mut self) {
        let me = self.inner.id();
        let clock = self.inner.clock().clone();
        let version = clock.version();
        self.rows[me.index()].insert(version, clock);
    }

    /// Charge the matrix piggyback for sends performed inside `f`.
    fn metered<R>(&mut self, f: impl FnOnce(&mut DgProcess<A>) -> R) -> R {
        let sent_before = self.inner.stats().messages_sent;
        let result = f(&mut self.inner);
        self.refresh_own_row();
        let sent_after = self.inner.stats().messages_sent;
        let per_message = self.matrix_bytes();
        self.matrix_piggyback_bytes += (sent_after - sent_before) * per_message;
        result
    }
}

impl<A: Application> Actor for SjtProcess<A> {
    type Msg = Wire<A::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Wire<A::Msg>>) {
        self.metered(|inner| inner.on_start(ctx));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Wire<A::Msg>,
        ctx: &mut Context<'_, Wire<A::Msg>>,
    ) {
        match &msg {
            Wire::App(env) | Wire::Resend(env) => self.absorb_clock(&env.clock.clone()),
            Wire::Token(token) => {
                if let Some(clock) = &token.full_clock {
                    self.absorb_clock(&clock.clone());
                }
            }
            Wire::TokenAck(_)
            | Wire::Frontier(..)
            | Wire::FrontierVec(_)
            | Wire::StableClock(..)
            | Wire::StabilityQuery(_) => {}
        }
        self.metered(|inner| inner.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, kind: u32, ctx: &mut Context<'_, Wire<A::Msg>>) {
        self.metered(|inner| inner.on_timer(kind, ctx));
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
        // The matrix is volatile; it is rebuilt from traffic.
        let me = self.inner.id();
        for row in &mut self.rows {
            row.clear();
        }
        let _ = me;
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<A::Msg>>) {
        self.metered(|inner| inner.on_restart(ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_core::Effects;
    use dg_simnet::{NetConfig, Sim};

    #[derive(Clone)]
    struct Ring {
        hops: u64,
        seen: u64,
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
        fn on_message(
            &mut self,
            me: ProcessId,
            _from: ProcessId,
            msg: &u64,
            n: usize,
        ) -> Effects<u64> {
            self.seen = *msg;
            if *msg < self.hops {
                Effects::send(ProcessId((me.0 + 1) % n as u16), msg + 1)
            } else {
                Effects::none()
            }
        }
        fn digest(&self) -> u64 {
            self.seen
        }
    }

    fn build(n: usize, hops: u64) -> Vec<SjtProcess<Ring>> {
        (0..n as u16)
            .map(|i| {
                SjtProcess::new(
                    ProcessId(i),
                    n,
                    Ring { hops, seen: 0 },
                    DgConfig::fast_test().flush_every(100),
                )
            })
            .collect()
    }

    #[test]
    fn behaves_like_dg_with_bigger_piggyback() {
        let mut sim = Sim::new(NetConfig::with_seed(2), build(4, 20));
        sim.schedule_crash(ProcessId(1), 2_000);
        let stats = sim.run();
        assert!(stats.quiescent);
        for a in sim.actors() {
            let r = a.report();
            assert!(r.max_rollbacks_per_failure <= 1);
            assert_eq!(r.recovery_blocked_us, 0);
        }
        assert_eq!(sim.actor(ProcessId(1)).report().restarts, 1);
        // The matrix piggyback dwarfs a single FTVC: at least n times the
        // DG bytes on the same traffic.
        let sjt_bytes: u64 = sim
            .actors()
            .iter()
            .map(|a| a.report().piggyback_bytes)
            .sum();
        let dg_bytes: u64 = sim
            .actors()
            .iter()
            .map(|a| a.inner().stats().piggyback_bytes)
            .sum();
        assert!(
            sjt_bytes >= 2 * dg_bytes,
            "matrix piggyback should dominate: sjt={sjt_bytes}, dg={dg_bytes}"
        );
    }

    #[test]
    fn matrix_grows_with_failures() {
        let mut sim = Sim::new(NetConfig::with_seed(3), build(3, 40));
        sim.schedule_crash(ProcessId(1), 2_000);
        sim.schedule_crash(ProcessId(1), 12_000);
        let stats = sim.run();
        assert!(stats.quiescent);
        // Some process's matrix must cover multiple incarnations of P1.
        let max_entries = sim
            .actors()
            .iter()
            .map(|a| a.matrix_entries())
            .max()
            .unwrap();
        assert!(
            max_entries > 3 * 3,
            "matrix should exceed one row per process after repeated failures: {max_entries}"
        );
    }
}
