//! Experiment driver: regenerates every table/figure reproduction.
//!
//! ```text
//! experiments [all|paper|table1|rollbacks|piggyback|asynchrony|concurrent|
//!              ordering|overhead|optimism|domino|maxstate|commit|gc|
//!              engine|scaling|storage|lossy]
//!             [--quick] [--csv]
//! ```
//!
//! `all` (the default) runs every experiment in the order above. `paper`
//! runs the paper's own evaluation, Table 1 through E11; its output is
//! pinned by `tests/golden/paper.txt`. `engine`, `scaling` and `storage`
//! also write `BENCH_<name>.json` into the current directory.
//!
//! Exits 1 if any run violates the consistency oracle, and 2 with this
//! usage on an unknown experiment or flag.
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

/// The experiments after the paper's, in the order `all` runs them.
const SYSTEMS_EXPERIMENTS: [&str; 4] = ["engine", "scaling", "storage", "lossy"];

const FLAGS: [&str; 2] = ["--quick", "--csv"];

/// Refuse the command line: name the culprit, print the usage, exit 2.
fn usage(problem: &str) -> ! {
    eprintln!(
        "experiments: {problem}\nusage: experiments [all|paper|{}|{}] [{}]",
        PAPER_EXPERIMENTS.join("|"),
        SYSTEMS_EXPERIMENTS.join("|"),
        FLAGS.join("] ["),
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, names): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    if let Some(flag) = flags.iter().find(|f| !FLAGS.contains(f)) {
        usage(&format!("unknown flag `{flag}`"));
    }
    let which = match names[..] {
        [] => "all",
        [name] => name,
        _ => usage("name one experiment"),
    };
    let known = ["all", "paper"]
        .iter()
        .chain(&PAPER_EXPERIMENTS)
        .chain(&SYSTEMS_EXPERIMENTS)
        .any(|&name| name == which);
    if !known {
        usage(&format!("unknown experiment `{which}`"));
    }
    let quick = flags.contains(&"--quick");
    let csv = flags.contains(&"--csv");

    let (n, seeds) = if quick { (6, 3) } else { (8, 10) };

    let run = |name: &str| {
        which == "all" || which == name || (which == "paper" && PAPER_EXPERIMENTS.contains(&name))
    };
    let show = |t: &dg_bench::table::TextTable| print!("{}", dg_bench::paper::render(t, csv));

    for name in PAPER_EXPERIMENTS {
        if run(name) {
            print!(
                "{}",
                paper_section(name, quick, csv).expect("a paper experiment")
            );
        }
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
