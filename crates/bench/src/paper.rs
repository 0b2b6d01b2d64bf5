//! The paper's own evaluation — Table 1 and E1–E11 — rendered as the
//! text `experiments paper` prints and `tests/golden/paper.txt` pins.
//! Every run is a seeded simulation, so the text is byte-identical from
//! run to run and between debug and release builds.

use crate::table::TextTable;
use crate::*;

/// The paper experiments, in the order `experiments paper` runs them.
pub const PAPER_EXPERIMENTS: [&str; 12] = [
    "table1",
    "rollbacks",
    "piggyback",
    "asynchrony",
    "concurrent",
    "ordering",
    "overhead",
    "optimism",
    "domino",
    "maxstate",
    "commit",
    "gc",
];

/// One experiment's table as the `experiments` binary prints it:
/// aligned text (or CSV) followed by a blank line.
pub fn render(t: &TextTable, csv: bool) -> String {
    if csv {
        format!("{}\n", t.to_csv())
    } else {
        format!("{t}\n")
    }
}

/// One paper experiment, header and table, or `None` if `name` is not
/// in [`PAPER_EXPERIMENTS`]. `quick` shrinks the sweeps for a smoke run.
pub fn paper_section(name: &str, quick: bool, csv: bool) -> Option<String> {
    let (n, seeds) = if quick { (6, 3) } else { (8, 10) };
    let (header, table) = match name {
        "table1" => (
            format!(
                "== Table 1 (measured reproduction): protocol comparison ==\n   \
                 workload: mesh chatter, n={n}, crash of P0 at t=2.5ms, {seeds} seeds\n"
            ),
            table1(n, seeds),
        ),
        "rollbacks" => (
            "== E1a: rollbacks per failure ==\n".into(),
            table1_rollbacks(n, seeds),
        ),
        "piggyback" => {
            let ns: &[usize] = if quick {
                &[4, 8, 16]
            } else {
                &[2, 4, 8, 16, 32]
            };
            (
                "== E1b: piggyback bytes per message vs n (f=2 failures) ==\n".into(),
                piggyback_scaling(ns, 2),
            )
        }
        "asynchrony" => (
            "== E1c/E7: recovery under a network partition ==\n".into(),
            asynchrony_under_partition(n),
        ),
        "concurrent" => {
            let ks: &[usize] = if quick { &[1, 3] } else { &[1, 2, 4] };
            (
                "== E1d: concurrent failures ==\n".into(),
                concurrent_failures(n, ks),
            )
        }
        "ordering" => (
            "== E1e: message-ordering assumptions ==\n".into(),
            ordering_assumptions(n),
        ),
        "overhead" => {
            let ns: &[usize] = if quick { &[4, 16] } else { &[4, 8, 16, 32] };
            let fs: &[u32] = if quick { &[0, 2] } else { &[0, 1, 2, 4] };
            (
                "== E4: Section 6.9 overhead analysis ==\n".into(),
                overhead(ns, fs),
            )
        }
        "optimism" => {
            let intervals: &[u64] = if quick {
                &[1_000, 50_000]
            } else {
                &[500, 2_000, 10_000, 50_000, 200_000]
            };
            (
                "== E5: the optimism trade-off (flush interval sweep) ==\n".into(),
                optimism(intervals),
            )
        }
        "domino" => {
            let sizes: &[usize] = if quick { &[4, 6] } else { &[4, 6, 8, 10] };
            (
                "== E6: cascading rollbacks (SY) vs minimal rollback (DG) ==\n".into(),
                domino(sizes, seeds),
            )
        }
        "maxstate" => (
            "== E8: maximum recoverable state ==\n".into(),
            max_recoverable_state(n, seeds.min(5)),
        ),
        "commit" => {
            let intervals: &[u64] = if quick {
                &[2_000, 50_000]
            } else {
                &[1_000, 5_000, 20_000, 100_000]
            };
            (
                "== E10 (ablation): output-commit latency vs gossip interval ==\n".into(),
                output_commit_ablation(intervals),
            )
        }
        "gc" => {
            let lengths: &[u64] = if quick { &[20, 80] } else { &[20, 40, 80, 160] };
            (
                "== E11 (ablation): garbage collection bounds storage ==\n".into(),
                gc_ablation(lengths),
            )
        }
        _ => return None,
    };
    Some(format!("{header}\n{}", render(&table, csv)))
}

/// Every paper experiment at full size, as text: what
/// `experiments paper` prints.
pub fn paper() -> String {
    PAPER_EXPERIMENTS
        .iter()
        .filter_map(|name| paper_section(name, false, false))
        .collect()
}
