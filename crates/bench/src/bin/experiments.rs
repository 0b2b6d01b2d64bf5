//! Experiment driver: regenerates every table/figure reproduction.
//!
//! ```text
//! experiments [all|table1|rollbacks|piggyback|asynchrony|concurrent|
//!              ordering|overhead|optimism|domino|maxstate|commit|gc|lossy|
//!              engine|scaling|service|load|storage]
//!             [--quick]
//! ```
//!
//! Exits non-zero if any run violates the consistency oracle.
//!
//! Built with `--features bench-alloc`, the binary installs a counting
//! global allocator and the `scaling` experiment reports allocations
//! per engine input (otherwise that column reads `n/a`).

use dg_bench::*;

#[cfg(feature = "bench-alloc")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountingAlloc;

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Total allocations so far (monotone).
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

#[cfg(feature = "bench-alloc")]
const ALLOC_COUNTER: Option<fn() -> u64> = Some(counting_alloc::allocations);
#[cfg(not(feature = "bench-alloc"))]
const ALLOC_COUNTER: Option<fn() -> u64> = None;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let (n, seeds) = if quick { (6, 3) } else { (8, 10) };

    let run = |name: &str| which == "all" || which == name;
    let show = |t: &dg_bench::table::TextTable| {
        if csv {
            print!("{}", t.to_csv());
        } else {
            print!("{t}");
        }
        println!();
    };

    if run("table1") {
        println!("== Table 1 (measured reproduction): protocol comparison ==");
        println!("   workload: mesh chatter, n={n}, crash of P0 at t=2.5ms, {seeds} seeds\n");
        show(&table1(n, seeds));
    }
    if run("rollbacks") {
        println!("== E1a: rollbacks per failure ==\n");
        show(&table1_rollbacks(n, seeds));
    }
    if run("piggyback") {
        println!("== E1b: piggyback bytes per message vs n (f=2 failures) ==\n");
        let ns: &[usize] = if quick {
            &[4, 8, 16]
        } else {
            &[2, 4, 8, 16, 32]
        };
        show(&piggyback_scaling(ns, 2));
    }
    if run("asynchrony") {
        println!("== E1c/E7: recovery under a network partition ==\n");
        show(&asynchrony_under_partition(n));
    }
    if run("concurrent") {
        println!("== E1d: concurrent failures ==\n");
        let ks: &[usize] = if quick { &[1, 3] } else { &[1, 2, 4] };
        show(&concurrent_failures(n, ks));
    }
    if run("ordering") {
        println!("== E1e: message-ordering assumptions ==\n");
        show(&ordering_assumptions(n));
    }
    if run("overhead") {
        println!("== E4: Section 6.9 overhead analysis ==\n");
        let ns: &[usize] = if quick { &[4, 16] } else { &[4, 8, 16, 32] };
        let fs: &[u32] = if quick { &[0, 2] } else { &[0, 1, 2, 4] };
        show(&overhead(ns, fs));
    }
    if run("optimism") {
        println!("== E5: the optimism trade-off (flush interval sweep) ==\n");
        let intervals: &[u64] = if quick {
            &[1_000, 50_000]
        } else {
            &[500, 2_000, 10_000, 50_000, 200_000]
        };
        show(&optimism(intervals));
    }
    if run("domino") {
        println!("== E6: cascading rollbacks (SY) vs minimal rollback (DG) ==\n");
        let sizes: &[usize] = if quick { &[4, 6] } else { &[4, 6, 8, 10] };
        show(&domino(sizes, seeds));
    }
    if run("maxstate") {
        println!("== E8: maximum recoverable state ==\n");
        println!("{}", max_recoverable_state(n, seeds.min(5)));
    }
    if run("commit") {
        println!("== E10 (ablation): output-commit latency vs gossip interval ==\n");
        let intervals: &[u64] = if quick {
            &[2_000, 50_000]
        } else {
            &[1_000, 5_000, 20_000, 100_000]
        };
        show(&output_commit_ablation(intervals));
    }
    if run("gc") {
        println!("== E11 (ablation): garbage collection bounds storage ==\n");
        let lengths: &[u64] = if quick { &[20, 80] } else { &[20, 40, 80, 160] };
        show(&gc_ablation(lengths));
    }
    if run("engine") {
        println!("== E13: engine-only event throughput (sans-IO vs simnet actor) ==\n");
        let (t, json) = engine_throughput(quick);
        show(&t);
        std::fs::write("BENCH_engine.json", json).expect("write BENCH_engine.json");
        println!("wrote BENCH_engine.json");
        println!();
    }
    if run("scaling") {
        println!("== E15: scaling with n (replay, token traffic, wire bytes, allocations) ==\n");
        let (t, json) = scaling(quick, ALLOC_COUNTER);
        show(&t);
        std::fs::write("BENCH_scaling.json", json).expect("write BENCH_scaling.json");
        println!("wrote BENCH_scaling.json");
        println!();
    }
    let mut violations = 0u64;
    if run("service") {
        println!("== E16: served store — client-visible latency through a crash ==\n");
        let (t, json, v) = service(quick);
        show(&t);
        std::fs::write("BENCH_service.json", json).expect("write BENCH_service.json");
        println!("wrote BENCH_service.json");
        println!();
        violations += v;
    }
    if run("load") {
        println!(
            "== E18: the front door at scale — open-loop load vs the closed-loop baseline ==\n"
        );
        let (t, json, v) = load(quick);
        show(&t);
        std::fs::write("BENCH_load.json", json).expect("write BENCH_load.json");
        println!("wrote BENCH_load.json");
        println!();
        violations += v;
    }
    if run("storage") {
        println!("== E17: the storage engine — delta checkpoints, group commit, pruning ==\n");
        let (t, json, v) = storage(quick);
        show(&t);
        std::fs::write("BENCH_storage.json", json).expect("write BENCH_storage.json");
        println!("wrote BENCH_storage.json");
        println!();
        violations += v;
    }
    if run("lossy") {
        println!("== E12: recovery over a lossy control plane ==");
        println!("   loss applied to every channel (tokens and acks included)\n");
        let (t, v) = lossy(n.min(6), seeds);
        show(&t);
        violations += v;
    }
    if violations > 0 {
        eprintln!("oracle violations detected: {violations}");
        std::process::exit(1);
    }
}
