//! Pins the engine's zero-allocation steady state.
//!
//! A failure-free delivery through [`Engine::handle_into`] must not
//! allocate, at any system size: for `n <= INLINE_CLOCK_CAP` the wire
//! clock is inline, and above that every clock clone draws its buffer
//! from the thread-local pool (`dg-ftvc`'s arena), so the steady state
//! is allocation-free either way. The application pushes into the
//! engine-owned scratch, and the effect handoff reuses the caller's
//! sink. The only remaining allocations are *amortized* container
//! growth (the receive-dedup set, the volatile log, pool refills),
//! which become arbitrarily rare as the run proceeds — so this test
//! asserts that the **minimum** allocation count over many same-sized
//! delivery batches is exactly zero. Any per-delivery allocation
//! reintroduced on the hot path makes every batch allocate and fails
//! the test deterministically.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use dg_core::engine::{Effect, Engine, Input, ProtocolEngine};
use dg_core::{Application, DgConfig, EffectSink, Effects, ProcessId, Wire};

/// Counts every allocation (alloc, alloc_zeroed, realloc) program-wide.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's share of `ALLOCS`: exact for one test even
    /// while the rest of this binary's tests run beside it. Const-
    /// initialised and without a destructor, so touching it from inside
    /// the allocator neither allocates nor outlives the thread.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Local copy of the ring-relay workload (`dg-apps` depends on this
/// crate, so the test defines its own): every delivery forwards the
/// token to the next process. `Copy` message, one send, no outputs.
#[derive(Clone)]
struct Relay;

impl Application for Relay {
    type Msg = u64;

    fn on_start(&mut self, me: ProcessId, _n: usize) -> Effects<u64> {
        if me == ProcessId(0) {
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
        eff.sends.push((ProcessId((me.0 + 1) % n as u16), *msg + 1));
    }
}

/// Deliver the circulating token once and return the follow-on hop.
fn hop(
    engines: &mut [Engine<Relay>],
    sink: &mut EffectSink<Wire<u64>, u64>,
    to: ProcessId,
    from: ProcessId,
    wire: Wire<u64>,
    now: u64,
) -> (ProcessId, ProcessId, Wire<u64>) {
    engines[to.index()].handle_into(Input::Deliver { from, wire, now }, sink);
    let mut next = None;
    for eff in sink.drain() {
        if let Effect::Send {
            to: next_to, wire, ..
        } = eff
        {
            next = Some((next_to, to, wire));
        }
    }
    next.expect("relay always forwards")
}

/// `n` started relay engines, their shared sink, and the seed send
/// from P0 that sets the token circulating.
#[allow(clippy::type_complexity)]
fn start_ring(
    n: usize,
) -> (
    Vec<Engine<Relay>>,
    EffectSink<Wire<u64>, u64>,
    (ProcessId, ProcessId, Wire<u64>),
) {
    let config = DgConfig::fast_test();
    let mut engines: Vec<Engine<Relay>> = (0..n)
        .map(|p| Engine::new(ProcessId(p as u16), n, Relay, config))
        .collect();
    let mut sink: EffectSink<Wire<u64>, u64> = EffectSink::new();
    let mut seed = None;
    for (p, engine) in engines.iter_mut().enumerate() {
        engine.handle_into(Input::Start { now: 0 }, &mut sink);
        for eff in sink.drain() {
            if let Effect::Send { to, wire, .. } = eff {
                seed = Some((to, ProcessId(p as u16), wire));
            }
        }
    }
    (engines, sink, seed.expect("P0 seeds the token"))
}

fn assert_steady_state_allocation_free(n: usize) {
    let (mut engines, mut sink, (mut to, mut from, mut wire)) = start_ring(n);

    // Warm up: populate history records, grow the dedup set and log
    // buffers past their initial doublings.
    let mut now = 1u64;
    for _ in 0..20_000 {
        (to, from, wire) = hop(&mut engines, &mut sink, to, from, wire, now);
        now += 1;
    }

    // Measure: allocations per fixed-size batch. Amortized growth makes
    // some batches allocate (rarely); a per-delivery allocation would
    // make every batch allocate.
    const BATCHES: usize = 64;
    const PER_BATCH: usize = 256;
    let mut min_allocs = u64::MAX;
    for _ in 0..BATCHES {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..PER_BATCH {
            (to, from, wire) = hop(&mut engines, &mut sink, to, from, wire, now);
            now += 1;
        }
        let batch = ALLOCS.load(Ordering::Relaxed) - before;
        min_allocs = min_allocs.min(batch);
    }
    assert_eq!(
        min_allocs, 0,
        "steady-state deliveries allocate at n = {n}: at least {min_allocs} \
         allocations in every batch of {PER_BATCH} handle_into calls"
    );
}

#[test]
fn steady_state_delivery_allocates_nothing() {
    assert_steady_state_allocation_free(4);
}

/// The spilled-clock representation (`n > INLINE_CLOCK_CAP`) must reach
/// the same zero through the buffer pool.
#[test]
fn steady_state_delivery_allocates_nothing_n16() {
    assert_steady_state_allocation_free(16);
}

#[test]
fn steady_state_delivery_allocates_nothing_n32() {
    assert_steady_state_allocation_free(32);
}

/// The scaling targets of the O(Δ) work: the send journal, the delta
/// stamp scratch, and the pooled spilled clocks must all reach steady
/// capacity, so per-input allocations stay at zero well past n = 32.
#[test]
fn steady_state_delivery_allocates_nothing_n64() {
    assert_steady_state_allocation_free(64);
}

#[test]
fn steady_state_delivery_allocates_nothing_n128() {
    assert_steady_state_allocation_free(128);
}

/// The batched release path (`OutputBuffer::try_commit_into`, the
/// service front door's per-response hot path) must stay allocation-free
/// per request in steady state: stability checks are pure reads, the
/// released values append into the caller's reused buffer, and the
/// survivor scratch swaps with `pending` so neither side reallocates
/// once both have seen a full batch. Only amortized growth (the
/// committed log, the dedup set) remains, so the minimum over batches
/// is exactly zero.
fn assert_batched_release_allocation_free(n: usize) {
    use dg_core::{Entry, Ftvc, History, OutputBuffer, OutputId};

    let history = History::new(ProcessId(0), n);
    let mut buf: OutputBuffer<u64> = OutputBuffer::new();
    let frontiers: Vec<Entry> = (0..n).map(|_| Entry::new(0, u64::MAX)).collect();
    let deps: Vec<(u32, u64)> = (0..n as u32).map(|p| (0, u64::from(p) + 1)).collect();
    let mut released: Vec<u64> = Vec::new();

    const BATCHES: usize = 64;
    const PER_BATCH: usize = 256;
    let mut ts = 1u64;
    let mut min_allocs = u64::MAX;
    // Two warm-up batches reach steady capacity on both sides of the
    // pending/scratch swap, then measure.
    for batch in 0..BATCHES + 2 {
        let before = ALLOCS.load(Ordering::Relaxed);
        released.clear();
        for i in 0..PER_BATCH {
            let id = OutputId {
                entry: Entry::new(0, ts),
                index: i as u32,
            };
            buf.emit(id, ts, Ftvc::from_parts(ProcessId(0), &deps));
            ts += 1;
        }
        let freed = buf.try_commit_into(&frontiers, &history, &mut released);
        assert_eq!(freed, PER_BATCH, "every emitted output must release");
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        if batch >= 2 {
            min_allocs = min_allocs.min(allocs);
        }
    }
    assert_eq!(
        min_allocs, 0,
        "batched release allocates at n = {n}: at least {min_allocs} \
         allocations in every emit+release cycle of {PER_BATCH} outputs"
    );
}

#[test]
fn batched_release_allocates_nothing_n4() {
    assert_batched_release_allocation_free(4);
}

#[test]
fn batched_release_allocates_nothing_n8() {
    assert_batched_release_allocation_free(8);
}

/// An idle edge nobody is waiting on must be free: no pending outputs,
/// no stability queries — the engine looks and returns. Exact zero over
/// the whole loop, not a minimum over batches.
#[test]
fn idle_without_demand_allocates_nothing() {
    let (mut engines, mut sink, (mut to, mut from, mut wire)) = start_ring(4);
    for now in 1..1_000 {
        (to, from, wire) = hop(&mut engines, &mut sink, to, from, wire, now);
    }
    let before = thread_allocs();
    for now in 1_000..11_000 {
        for engine in &mut engines {
            engine.handle_into(Input::Idle { now }, &mut sink);
            assert!(sink.is_empty(), "no demand, no effects");
        }
    }
    assert_eq!(thread_allocs() - before, 0);
}

/// Every delivery becomes an external output; nothing is sent.
#[derive(Clone)]
struct Responder;

impl Application for Responder {
    type Msg = u64;

    fn on_start(&mut self, _me: ProcessId, _n: usize) -> Effects<u64> {
        Effects::none()
    }

    fn on_message(&mut self, me: ProcessId, from: ProcessId, msg: &u64, n: usize) -> Effects<u64> {
        let mut eff = Effects::none();
        self.on_message_into(me, from, msg, n, &mut eff);
        eff
    }

    fn on_message_into(
        &mut self,
        _me: ProcessId,
        _from: ProcessId,
        msg: &u64,
        _n: usize,
        eff: &mut Effects<u64>,
    ) {
        eff.outputs.push(*msg);
    }
}

/// The commit-on-demand path — request in at a front, output pending at
/// the owner, idle-edge flush, stability query, frontier reply, sweep —
/// must cost allocations per *round*, not per request: one frontier
/// vector per reply and one `Commit` vector per owner, however many
/// requests the round carried. Pinned as "a round of 256 requests
/// allocates exactly what a round of 64 does" (minimum over rounds, so
/// amortized container growth drops out), i.e. 0 allocations/request.
fn assert_demand_path_allocation_free_per_request(n: usize) {
    let config = DgConfig::serving().with_grouped_commit(true);
    let mut engines: Vec<Engine<Responder>> = (0..n)
        .map(|p| Engine::new(ProcessId(p as u16), n, Responder, config))
        .collect();
    let mut sink: EffectSink<Wire<u64>, u64> = EffectSink::new();
    for engine in &mut engines {
        engine.handle_into(Input::Start { now: 0 }, &mut sink);
        sink.clear();
    }
    let mut net: std::collections::VecDeque<(ProcessId, ProcessId, Wire<u64>)> =
        std::collections::VecDeque::with_capacity(1024);
    let mut now = 1u64;
    let mut next_value = 0u64;

    // Route one input's effects: sends onto the net, commits counted.
    fn route(
        sink: &mut EffectSink<Wire<u64>, u64>,
        net: &mut std::collections::VecDeque<(ProcessId, ProcessId, Wire<u64>)>,
        from: ProcessId,
    ) -> usize {
        let mut committed = 0;
        for eff in sink.drain() {
            match eff {
                Effect::Send { to, wire, .. } => net.push_back((to, from, wire)),
                Effect::Commit { outputs, .. } => committed += outputs.len(),
                _ => {}
            }
        }
        committed
    }

    // One round: `requests` requests (request i enters at front i mod n
    // for owner i+1 mod n), then idle edges and deliveries alternate
    // until nothing moves. Returns (allocations, outputs committed).
    let mut round = |requests: usize| -> (u64, usize) {
        let before = thread_allocs();
        let mut committed = 0;
        for i in 0..requests {
            let front = ProcessId((i % n) as u16);
            let to = ProcessId(((i + 1) % n) as u16);
            next_value += 1;
            now += 1;
            let input = Input::AppSend {
                to,
                payload: next_value,
                now,
            };
            engines[front.index()].handle_into(input, &mut sink);
            committed += route(&mut sink, &mut net, front);
        }
        loop {
            while let Some((to, from, wire)) = net.pop_front() {
                now += 1;
                engines[to.index()].handle_into(Input::Deliver { from, wire, now }, &mut sink);
                committed += route(&mut sink, &mut net, to);
            }
            for (p, engine) in engines.iter_mut().enumerate() {
                engine.handle_into(Input::Idle { now }, &mut sink);
                committed += route(&mut sink, &mut net, ProcessId(p as u16));
            }
            if net.is_empty() {
                break;
            }
        }
        (thread_allocs() - before, committed)
    };

    for _ in 0..8 {
        round(256); // warm every container past its doublings
    }
    let mut min_small = u64::MAX;
    let mut min_large = u64::MAX;
    for _ in 0..32 {
        let (allocs, committed) = round(64);
        assert_eq!(committed, 64, "every request commits within its round");
        min_small = min_small.min(allocs);
        let (allocs, committed) = round(256);
        assert_eq!(committed, 256, "every request commits within its round");
        min_large = min_large.min(allocs);
    }
    assert_eq!(
        min_large, min_small,
        "the commit-on-demand path allocates per request at n = {n}: \
         {min_large} allocations for 256 requests, {min_small} for 64"
    );
}

#[test]
fn demand_path_allocates_nothing_per_request_n4() {
    assert_demand_path_allocation_free_per_request(4);
}

#[test]
fn demand_path_allocates_nothing_per_request_n8() {
    assert_demand_path_allocation_free_per_request(8);
}
