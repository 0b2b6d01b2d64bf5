//! A minimal ring relay — the hot-path microbenchmark workload.

use dg_core::{Application, Effects, ProcessId};

/// One token circulates the ring; every delivery forwards it to the next
/// process with the counter incremented, until the counter reaches
/// `limit`. Each delivery produces exactly one send and no outputs, so a
/// failure-free run exercises the engine's steady-state delivery path
/// and nothing else — the workload behind E15's wire-byte and
/// allocation probes and the allocation-regression test.
///
/// The transition is implemented in [`Application::on_message_into`]
/// (with `on_message` delegating to it), so a correctly wired engine
/// performs **zero heap allocations** per delivery: the message is
/// `Copy` and the effect lands in the engine-owned scratch buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relay {
    limit: u64,
    /// Deliveries this process observed.
    pub hops: u64,
    /// Largest counter value seen.
    pub last: u64,
}

impl Relay {
    /// Forward until the counter reaches `limit` (use `u64::MAX` for an
    /// endless token, under a driver that bounds the run itself).
    pub fn new(limit: u64) -> Relay {
        Relay {
            limit,
            hops: 0,
            last: 0,
        }
    }
}

impl Application for Relay {
    type Msg = u64;

    fn on_start(&mut self, me: ProcessId, n: usize) -> Effects<u64> {
        if me == ProcessId(0) && n >= 2 {
            Effects::send(ProcessId(1), 1)
        } else {
            Effects::none()
        }
    }

    fn on_message(&mut self, me: ProcessId, from: ProcessId, msg: &u64, n: usize) -> Effects<u64> {
        let mut eff = Effects::none();
        self.on_message_into(me, from, msg, n, &mut eff);
        eff
    }

    fn on_message_into(
        &mut self,
        me: ProcessId,
        _from: ProcessId,
        msg: &u64,
        n: usize,
        eff: &mut Effects<u64>,
    ) {
        self.hops += 1;
        self.last = *msg;
        if *msg < self.limit {
            let next = ProcessId((me.0 + 1) % n as u16);
            eff.sends.push((next, *msg + 1));
        }
    }

    fn digest(&self) -> u64 {
        self.hops.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_until_limit() {
        let mut app = Relay::new(3);
        let eff = app.on_start(ProcessId(0), 4);
        assert_eq!(eff.sends, vec![(ProcessId(1), 1)]);
        let eff = app.on_message(ProcessId(1), ProcessId(0), &1, 4);
        assert_eq!(eff.sends, vec![(ProcessId(2), 2)]);
        let eff = app.on_message(ProcessId(2), ProcessId(1), &3, 4);
        assert!(eff.is_empty(), "token at the limit must stop");
        assert_eq!(app.hops, 2);
    }

    #[test]
    fn into_variant_matches_returning_variant() {
        let mut a = Relay::new(10);
        let mut b = Relay::new(10);
        let eff_a = a.on_message(ProcessId(1), ProcessId(0), &4, 4);
        let mut eff_b = Effects::none();
        b.on_message_into(ProcessId(1), ProcessId(0), &4, 4, &mut eff_b);
        assert_eq!(eff_a, eff_b);
        assert_eq!(a, b);
    }
}
