//! The experiment implementations (see DESIGN.md's per-experiment index).

use dg_apps::MeshChatter;
use dg_baselines::SyProcess;
use dg_core::{DgConfig, ProcessId, Version};
use dg_ftvc::{wire as clockwire, Entry, Ftvc};
use dg_harness::{oracle, run_dg, FaultPlan};
use dg_simnet::{DelayModel, NetConfig, Sim};
use dg_storage::StorageCosts;

use crate::protocols::{run_dg_sim, run_protocol, ExpConfig, ExpRun, Protocol};
use crate::table::TextTable;

/// The opening of every `BENCH_*.json` record — which experiment, in
/// which mode, on how many cores — written in one place so the records
/// cannot drift apart (CI checks these keys on every file).
fn bench_header(experiment: &str, quick: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"quick\": {quick},\n  \"cores\": {cores},\n"
    )
}

/// Default mesh workload for comparisons: dense enough that a crash
/// mid-run creates real orphan structure.
pub fn default_chatter() -> MeshChatter {
    MeshChatter::new(4, 40, 97)
}

fn crash_plan(at: u64) -> FaultPlan {
    FaultPlan::single_crash(ProcessId(0), at)
}

// ---------------------------------------------------------------------
// E1a — Table 1 column "number of rollbacks per failure"
// ---------------------------------------------------------------------

/// Measured worst-case rollbacks per failure for each protocol.
pub fn table1_rollbacks(n: usize, seeds: u64) -> TextTable {
    let chat = default_chatter();
    let mut t = TextTable::new(vec![
        "protocol",
        "max rollbacks/failure",
        "total rollbacks (all seeds)",
        "restarts",
    ]);
    for protocol in [
        Protocol::StromYemini,
        Protocol::SenderBased,
        Protocol::SistlaWelch,
        Protocol::PetersonKearns,
        Protocol::Sjt,
        Protocol::Pessimistic,
        Protocol::Coordinated,
        Protocol::DamaniGarg,
    ] {
        let mut max_rb = 0u64;
        let mut total_rb = 0u64;
        let mut restarts = 0u64;
        for seed in 0..seeds {
            let run = run_protocol(
                protocol,
                n,
                &chat,
                NetConfig::with_seed(seed).max_time(60_000_000),
                &crash_plan(2_500),
                ExpConfig {
                    checkpoint_interval: 200_000,
                    flush_interval: 30_000,
                    ..ExpConfig::default()
                },
            );
            max_rb = max_rb.max(run.summary.max_rollbacks_per_failure);
            total_rb += run.summary.rollbacks;
            restarts += run.summary.restarts;
        }
        t.row(vec![
            protocol.name().to_string(),
            max_rb.to_string(),
            total_rb.to_string(),
            restarts.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E1b — Table 1 column "number of timestamps in vector clock"
// ---------------------------------------------------------------------

/// Measured mean piggyback bytes per message as `n` scales, for the
/// clock-carrying protocols (and the O(1) baselines for contrast).
pub fn piggyback_scaling(ns: &[usize], failures: u64) -> TextTable {
    let mut header = vec!["protocol".to_string()];
    for n in ns {
        header.push(format!("n={n}"));
    }
    let mut t = TextTable::new(header);
    for protocol in [
        Protocol::SenderBased,
        Protocol::SistlaWelch,
        Protocol::PetersonKearns,
        Protocol::StromYemini,
        Protocol::DamaniGarg,
        Protocol::Sjt,
    ] {
        let mut row = vec![protocol.name().to_string()];
        for &n in ns {
            let chat = MeshChatter::new(3, 25, 7);
            let mut plan = FaultPlan::none();
            for k in 0..failures {
                plan = plan.with_crash(ProcessId((k % n as u64) as u16), 2_000 + 4_000 * k);
            }
            let run = run_protocol(
                protocol,
                n,
                &chat,
                NetConfig::with_seed(11).max_time(60_000_000),
                &plan,
                ExpConfig::default(),
            );
            row.push(format!("{:.1}", run.summary.mean_piggyback));
        }
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------
// E1c / E7 — asynchronous recovery, partition tolerance
// ---------------------------------------------------------------------

/// Crash a process while it is partitioned from half the system; report
/// how long each protocol's recovery stayed blocked on unreachable peers.
pub fn asynchrony_under_partition(n: usize) -> TextTable {
    let chat = MeshChatter::new(3, 60, 13);
    let mut t = TextTable::new(vec![
        "protocol",
        "recovery blocked (us)",
        "partition length (us)",
        "verdict",
    ]);
    let partition_len = 400_000u64;
    for protocol in [
        Protocol::DamaniGarg,
        Protocol::Sjt,
        Protocol::StromYemini,
        Protocol::Pessimistic,
        Protocol::SenderBased,
        Protocol::SistlaWelch,
        Protocol::PetersonKearns,
        Protocol::Coordinated,
    ] {
        // Split the system down the middle; crash P0 inside the partition.
        let group_of: Vec<u8> = (0..n).map(|i| u8::from(i >= n / 2)).collect();
        let plan = FaultPlan::single_crash(ProcessId(0), 5_000).with_partition(
            group_of,
            1_000,
            1_000 + partition_len,
        );
        let run = run_protocol(
            protocol,
            n,
            &chat,
            NetConfig::with_seed(3).max_time(60_000_000),
            &plan,
            ExpConfig::default(),
        );
        let blocked = run.summary.max_recovery_blocked_us;
        let verdict = if blocked >= partition_len / 2 {
            "blocked by partition"
        } else if blocked == 0 {
            "fully asynchronous"
        } else {
            "brief synchronization"
        };
        t.row(vec![
            protocol.name().to_string(),
            blocked.to_string(),
            partition_len.to_string(),
            verdict.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E1d — concurrent failures
// ---------------------------------------------------------------------

/// `k` simultaneous crashes: which protocols recover all of them, and at
/// what rollback cost.
pub fn concurrent_failures(n: usize, ks: &[usize]) -> TextTable {
    let chat = MeshChatter::new(3, 40, 31);
    let mut header = vec!["protocol".to_string()];
    for k in ks {
        header.push(format!("k={k} restarts"));
        header.push(format!("k={k} max rb/fail"));
    }
    let mut t = TextTable::new(header);
    for protocol in [
        Protocol::DamaniGarg,
        Protocol::Sjt,
        Protocol::StromYemini,
        Protocol::Pessimistic,
        Protocol::SenderBased,
        Protocol::SistlaWelch,
        Protocol::Coordinated,
    ] {
        let mut row = vec![protocol.name().to_string()];
        for &k in ks {
            let plan = FaultPlan::concurrent_crashes(n, k, 3_000);
            let run = run_protocol(
                protocol,
                n,
                &chat,
                NetConfig::with_seed(5).max_time(60_000_000),
                &plan,
                ExpConfig::default(),
            );
            row.push(run.summary.restarts.to_string());
            row.push(run.summary.max_rollbacks_per_failure.to_string());
        }
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------
// E1e — message-ordering assumptions
// ---------------------------------------------------------------------

/// Run the FIFO-requiring baselines on the reordering network and count
/// assumption violations; Damani–Garg runs there natively.
pub fn ordering_assumptions(n: usize) -> TextTable {
    let chat = MeshChatter::new(4, 30, 17);
    let reordering = NetConfig::with_seed(23)
        .delay_model(DelayModel::Uniform {
            min: 1,
            max: 20_000,
        })
        .max_time(60_000_000);
    let mut t = TextTable::new(vec!["protocol", "assumes", "violations on non-FIFO net"]);

    // Peterson–Kearns, instrumented.
    let actors: Vec<dg_baselines::PkProcess<MeshChatter>> = ProcessId::all(n)
        .map(|p| {
            dg_baselines::PkProcess::new(p, n, chat.clone(), StorageCosts::free(), 100_000, 20_000)
        })
        .collect();
    let mut sim = Sim::new(reordering.clone(), actors);
    sim.run();
    let pk_violations: u64 = sim.actors().iter().map(|a| a.fifo_violations()).sum();
    t.row(vec![
        Protocol::PetersonKearns.name().to_string(),
        "FIFO".to_string(),
        pk_violations.to_string(),
    ]);
    t.row(vec![
        Protocol::StromYemini.name().to_string(),
        "FIFO".to_string(),
        "(runs with FIFO enforced)".to_string(),
    ]);

    // Damani–Garg needs nothing: run on the same adversarial net and
    // verify zero anomalies via the run outcome.
    let run = run_protocol(
        Protocol::DamaniGarg,
        n,
        &chat,
        reordering,
        &crash_plan(2_500),
        ExpConfig::default(),
    );
    t.row(vec![
        Protocol::DamaniGarg.name().to_string(),
        "None".to_string(),
        format!(
            "0 (recovered, {} rollback(s), max {}/failure)",
            run.summary.rollbacks, run.summary.max_rollbacks_per_failure
        ),
    ]);
    t
}

// ---------------------------------------------------------------------
// Table 1 — the synthesized comparison table
// ---------------------------------------------------------------------

/// Reproduce Table 1 of the paper, with the analytic columns replaced by
/// measurements from E1a–E1d.
pub fn table1(n: usize, seeds: u64) -> TextTable {
    let chat = default_chatter();
    let mut t = TextTable::new(vec![
        "protocol",
        "ordering",
        "async recovery",
        "max rollbacks/failure",
        "piggyback B/msg",
        "concurrent failures",
    ]);
    for protocol in Protocol::TABLE1 {
        let mut max_rb = 0u64;
        let mut piggy = 0.0f64;
        let mut blocked = 0u64;
        for seed in 0..seeds {
            let run = run_protocol(
                protocol,
                n,
                &chat,
                NetConfig::with_seed(seed).max_time(60_000_000),
                &crash_plan(2_500),
                ExpConfig {
                    checkpoint_interval: 200_000,
                    flush_interval: 30_000,
                    ..ExpConfig::default()
                },
            );
            max_rb = max_rb.max(run.summary.max_rollbacks_per_failure);
            piggy = piggy.max(run.summary.mean_piggyback);
            blocked = blocked.max(run.summary.max_recovery_blocked_us);
        }
        // Concurrent-failure support: do all k=3 crashed processes restart
        // and the run quiesce?
        let conc = run_protocol(
            protocol,
            n,
            &chat,
            NetConfig::with_seed(1).max_time(60_000_000),
            &FaultPlan::concurrent_crashes(n, 3, 3_000),
            ExpConfig::default(),
        );
        let conc_ok = conc.summary.restarts >= 3 && conc.stats.quiescent;
        t.row(vec![
            protocol.name().to_string(),
            protocol.ordering_assumption().to_string(),
            if blocked == 0 { "Yes" } else { "No" }.to_string(),
            max_rb.to_string(),
            format!("{piggy:.1}"),
            if conc_ok { "n" } else { "limited" }.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E4 — Section 6.9 overhead analysis
// ---------------------------------------------------------------------

/// FTVC piggyback bytes, token bytes and history size as functions of
/// `n` and the failure count `f`, measured on live runs plus synthetic
/// worst-case clocks.
pub fn overhead(ns: &[usize], fs: &[u32]) -> TextTable {
    let mut t = TextTable::new(vec![
        "n",
        "f",
        "FTVC B/msg (live)",
        "FTVC B (synthetic)",
        "token B",
        "history records",
        "SJT matrix B (live)",
    ]);
    for &n in ns {
        for &f in fs {
            // Live run with f failures spread round-robin.
            let chat = MeshChatter::new(3, 25, 41);
            let mut plan = FaultPlan::none();
            for k in 0..f as u64 {
                plan = plan.with_crash(ProcessId((k % n as u64) as u16), 2_000 + 3_000 * k);
            }
            let config = DgConfig::base()
                .with_costs(StorageCosts::free())
                .checkpoint_every(100_000)
                .flush_every(20_000);
            let sim = run_dg_sim(
                n,
                &chat,
                NetConfig::with_seed(2).max_time(60_000_000),
                &plan,
                config,
            );
            let live_bytes: f64 = {
                let sent: u64 = sim.actors().iter().map(|a| a.stats().messages_sent).sum();
                let bytes: u64 = sim.actors().iter().map(|a| a.stats().piggyback_bytes).sum();
                if sent == 0 {
                    0.0
                } else {
                    bytes as f64 / sent as f64
                }
            };
            let history_records: usize = sim
                .actors()
                .iter()
                .map(|a| a.history().total_records())
                .max()
                .unwrap_or(0);

            // Synthetic worst case: every process at version f with large
            // timestamps.
            let parts: Vec<(u32, u64)> = (0..n).map(|i| (f, 1_000 + i as u64)).collect();
            let clock = Ftvc::from_parts(ProcessId(0), &parts);
            let synthetic = clockwire::ftvc_wire_len(&clock);
            let token = clockwire::token_wire_len(
                ProcessId(0),
                Entry {
                    version: Version(f),
                    ts: 1_000,
                },
            );

            // SJT matrix on the same live run.
            let sjt_run = run_protocol(
                Protocol::Sjt,
                n,
                &chat,
                NetConfig::with_seed(2).max_time(60_000_000),
                &plan,
                ExpConfig::default(),
            );
            t.row(vec![
                n.to_string(),
                f.to_string(),
                format!("{live_bytes:.1}"),
                synthetic.to_string(),
                token.to_string(),
                history_records.to_string(),
                format!("{:.0}", sjt_run.summary.mean_piggyback),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E5 — the optimism trade-off
// ---------------------------------------------------------------------

/// Failure-free completion time and per-crash loss as the flush interval
/// (the optimism knob) varies, against the pessimistic anchor.
pub fn optimism(flush_intervals: &[u64]) -> TextTable {
    let n = 6;
    let chat = MeshChatter::new(4, 50, 53);
    let mut t = TextTable::new(vec![
        "protocol / flush interval",
        "failure-free completion (us)",
        "log entries lost per crash",
    ]);
    for &interval in flush_intervals {
        let config = DgConfig::base()
            .with_costs(StorageCosts::disk())
            .checkpoint_every(400_000)
            .flush_every(interval);
        // Failure-free timing.
        let sim = run_dg_sim(
            n,
            &chat,
            NetConfig::with_seed(8).max_time(120_000_000),
            &FaultPlan::none(),
            config,
        );
        let end = sim.stats().end_time.as_micros();
        // Loss measurement: same run with a crash in the middle of the
        // active window (traffic starts after the ~20ms initial
        // checkpoint stall and drains by ~32ms on this workload).
        let crash_sim = run_dg_sim(
            n,
            &chat,
            NetConfig::with_seed(8).max_time(120_000_000),
            &FaultPlan::single_crash(ProcessId(1), 25_000),
            config,
        );
        let lost: u64 = crash_sim
            .actors()
            .iter()
            .map(|a| a.stats().log_entries_lost)
            .sum();
        t.row(vec![
            format!("Damani-Garg flush={interval}"),
            end.to_string(),
            lost.to_string(),
        ]);
    }
    // Pessimistic anchor.
    let run: ExpRun = run_protocol(
        Protocol::Pessimistic,
        n,
        &chat,
        NetConfig::with_seed(8).max_time(600_000_000),
        &FaultPlan::none(),
        ExpConfig {
            costs: StorageCosts::disk(),
            ..ExpConfig::default()
        },
    );
    t.row(vec![
        "Pessimistic (sync every msg)".to_string(),
        run.stats.end_time.as_micros().to_string(),
        "0".to_string(),
    ]);
    t
}

// ---------------------------------------------------------------------
// E6 — the domino effect
// ---------------------------------------------------------------------

/// Worst-case rollbacks per failure as system size (and hence dependency
/// paths) grows: Strom–Yemini cascades versus Damani–Garg's constant 1.
pub fn domino(sizes: &[usize], seeds: u64) -> TextTable {
    let mut t = TextTable::new(vec![
        "n",
        "SY max rollbacks/failure",
        "DG max rollbacks/failure",
    ]);
    for &n in sizes {
        let chat = MeshChatter::new(4, 14, 21);
        let mut sy_max = 0u64;
        let mut dg_max = 0u64;
        for seed in 0..seeds {
            let actors: Vec<SyProcess<MeshChatter>> = ProcessId::all(n)
                .map(|p| SyProcess::new(p, n, chat.clone(), StorageCosts::free(), 200_000, 30_000))
                .collect();
            let mut sim = Sim::new(
                NetConfig::with_seed(seed).fifo(true).max_time(60_000_000),
                actors,
            );
            sim.schedule_crash(ProcessId(0), 2_500);
            sim.run();
            let m = sim
                .actors()
                .iter()
                .map(|a| a.report().max_rollbacks_per_failure)
                .max()
                .unwrap_or(0);
            sy_max = sy_max.max(m);

            let run = run_protocol(
                Protocol::DamaniGarg,
                n,
                &chat,
                NetConfig::with_seed(seed).fifo(true).max_time(60_000_000),
                &crash_plan(2_500),
                ExpConfig {
                    checkpoint_interval: 200_000,
                    flush_interval: 30_000,
                    ..ExpConfig::default()
                },
            );
            dg_max = dg_max.max(run.summary.max_rollbacks_per_failure);
        }
        t.row(vec![n.to_string(), sy_max.to_string(), dg_max.to_string()]);
    }
    t
}

// ---------------------------------------------------------------------
// E8 — maximum recoverable state
// ---------------------------------------------------------------------

/// Work destroyed by one failure: deliveries undone under Damani–Garg
/// (only true orphans) versus coordinated checkpointing (everything past
/// the line).
pub fn max_recoverable_state(n: usize, seeds: u64) -> TextTable {
    let chat = MeshChatter::new(4, 120, 67);
    let mut t = TextTable::new(vec![
        "protocol",
        "mean deliveries undone per crash",
        "mean deliveries (failure-free ref)",
    ]);
    for protocol in [Protocol::DamaniGarg, Protocol::Coordinated] {
        let mut undone = 0u64;
        let mut delivered_ref = 0u64;
        for seed in 0..seeds {
            let run = run_protocol(
                protocol,
                n,
                &chat,
                NetConfig::with_seed(seed).max_time(120_000_000),
                &crash_plan(8_000),
                ExpConfig {
                    checkpoint_interval: 30_000,
                    flush_interval: 10_000,
                    ..ExpConfig::default()
                },
            );
            undone += run.summary.deliveries_undone;
            let ff = run_protocol(
                protocol,
                n,
                &chat,
                NetConfig::with_seed(seed).max_time(120_000_000),
                &FaultPlan::none(),
                ExpConfig {
                    checkpoint_interval: 30_000,
                    flush_interval: 10_000,
                    ..ExpConfig::default()
                },
            );
            delivered_ref += ff.summary.delivered;
        }
        t.row(vec![
            protocol.name().to_string(),
            format!("{:.1}", undone as f64 / seeds as f64),
            format!("{:.1}", delivered_ref as f64 / seeds as f64),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E10 — ablation: output-commit latency vs gossip interval
// ---------------------------------------------------------------------

/// How long outputs wait for commit as the stability-gossip interval
/// varies (the knob behind the paper's Remark on output commit): fewer
/// gossip rounds mean cheaper control traffic but staler frontiers.
pub fn output_commit_ablation(gossip_intervals: &[u64]) -> TextTable {
    use dg_apps::Bank;
    use dg_core::DgProcess;
    use dg_simnet::Sim;

    let n = 4;
    let mut t = TextTable::new(vec![
        "gossip interval (us)",
        "outputs emitted",
        "outputs committed",
        "commit ratio",
        "control msgs",
    ]);
    for &interval in gossip_intervals {
        let config = DgConfig::base()
            .with_costs(StorageCosts::free())
            .checkpoint_every(20_000)
            .flush_every(5_000)
            .with_retransmit(true)
            .with_gossip(interval);
        let actors: Vec<DgProcess<Bank>> = ProcessId::all(n)
            .map(|p| DgProcess::new(p, n, Bank::new(p, n, 500, 20, 9), config))
            .collect();
        let mut sim = Sim::new(NetConfig::with_seed(4).max_time(2_000_000), actors);
        sim.schedule_crash(ProcessId(1), 10_000);
        sim.run();
        let emitted: u64 = sim.actors().iter().map(|a| a.stats().outputs_emitted).sum();
        let committed: u64 = sim
            .actors()
            .iter()
            .map(|a| a.stats().outputs_committed)
            .sum();
        let control = sim.stats().control_delivered;
        t.row(vec![
            interval.to_string(),
            emitted.to_string(),
            committed.to_string(),
            format!("{:.0}%", 100.0 * committed as f64 / emitted.max(1) as f64),
            control.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E11 — ablation: garbage collection bounds storage
// ---------------------------------------------------------------------

/// Retained checkpoints and log entries at quiescence, with and without
/// the Remark-2 garbage collector, as the run length grows.
pub fn gc_ablation(run_lengths: &[u64]) -> TextTable {
    let n = 4;
    let mut t = TextTable::new(vec![
        "workload length (deliveries)",
        "GC",
        "checkpoints retained",
        "log entries retained",
        "checkpoints taken",
    ]);
    for &ttl in run_lengths {
        for gc in [false, true] {
            let chat = MeshChatter::new(4, ttl as u32, 23);
            let config = DgConfig::base()
                .with_costs(StorageCosts::free())
                .checkpoint_every(3_000)
                .flush_every(1_000)
                .with_gossip(2_000)
                .with_gc(gc);
            let sim = run_dg_sim(
                n,
                &chat,
                NetConfig::with_seed(6).max_time(2_000_000),
                &FaultPlan::single_crash(ProcessId(2), 4_000),
                config,
            );
            let retained_ckpts: usize = sim.actors().iter().map(|a| a.checkpoint_count()).sum();
            let retained_log: usize = sim.actors().iter().map(|a| a.log_len()).sum();
            let taken: u64 = sim
                .actors()
                .iter()
                .map(|a| a.stats().checkpoints_taken)
                .sum();
            t.row(vec![
                (n as u64 * 4 * ttl).to_string(),
                if gc { "on" } else { "off" }.to_string(),
                retained_ckpts.to_string(),
                retained_log.to_string(),
                taken.to_string(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E12 — robustness: recovery over a lossy control plane
// ---------------------------------------------------------------------

/// Sweep the loss probability applied to *every* channel — tokens and
/// acks included — and measure what the reliable-delivery sublayer pays
/// to keep recovery correct: retransmissions, duplicate suppressions,
/// the backoff it reached, and time to quiescence (the recovery-latency
/// proxy). Each cell aggregates `seeds` runs, every run with a plain
/// crash plus a crash-during-recovery (recovery checkpoint corrupted on
/// odd seeds). Every run is also checked against the consistency
/// oracle; the second return value is the number of violations found
/// (the driver exits non-zero if any).
pub fn lossy(n: usize, seeds: u64) -> (TextTable, u64) {
    let chat = default_chatter();
    let mut t = TextTable::new(vec![
        "loss prob",
        "quiesced",
        "ctrl dropped",
        "token retx",
        "acks sent",
        "dup tokens",
        "max backoff (us)",
        "mean end (ms)",
        "oracle",
    ]);
    let mut total_violations = 0u64;
    for &loss in &[0.0f64, 0.05, 0.1, 0.2, 0.3] {
        let mut quiesced = 0u64;
        let mut ctrl_dropped = 0u64;
        let mut retx = 0u64;
        let mut acks = 0u64;
        let mut dups = 0u64;
        let mut max_backoff = 0u64;
        let mut end_sum = 0u64;
        let mut violations = 0u64;
        for seed in 0..seeds {
            let config = DgConfig::base()
                .with_costs(StorageCosts::free())
                .checkpoint_every(20_000)
                .flush_every(5_000)
                .with_reliable_tokens(true)
                .token_retry(2_000, 64_000)
                .with_retransmit(true);
            let plan = FaultPlan::single_crash(ProcessId(0), 2_500).with_crash_during_recovery(
                ProcessId(1),
                9_000 + seed * 173,
                2_000,
                seed % 2 == 1,
            );
            let out = run_dg(
                n,
                |_| chat.clone(),
                config,
                NetConfig::with_seed(seed * 89 + 3).loss_all(loss),
                &plan,
            );
            quiesced += u64::from(out.stats.quiescent);
            ctrl_dropped += out.stats.control_dropped;
            end_sum += out.stats.end_time.as_micros();
            for a in out.sim.actors() {
                retx += a.stats().token_retransmits;
                acks += a.stats().token_acks_sent;
                dups += a.stats().duplicate_tokens_dropped;
                max_backoff = max_backoff.max(a.stats().max_token_backoff);
            }
            if let Err(v) = oracle::check(&out) {
                violations += v.len() as u64;
            }
        }
        total_violations += violations;
        t.row(vec![
            format!("{loss:.2}"),
            format!("{quiesced}/{seeds}"),
            ctrl_dropped.to_string(),
            retx.to_string(),
            acks.to_string(),
            dups.to_string(),
            max_backoff.to_string(),
            format!("{:.1}", end_sum as f64 / seeds as f64 / 1_000.0),
            if violations == 0 {
                "green".to_string()
            } else {
                format!("{violations} VIOLATIONS")
            },
        ]);
    }
    (t, total_violations)
}

// ---------------------------------------------------------------------
// E13 — engine-only event throughput (the sans-IO boundary's price tag)
// ---------------------------------------------------------------------

/// Per-process `Input` traces of an `n`-process mesh-chatter run with
/// one crash/restart, recorded under a minimal deterministic router
/// with logical time. E13 and E15 replay these traces into fresh
/// engines to measure raw dispatch throughput.
///
/// Model: every process has its own FIFO inbox; each 30 µs step, every
/// live process first fires its due maintenance timers and then handles
/// one inbox message — n processes make progress concurrently, as they
/// would on real hardware. The recorder used to drain one *global* FIFO
/// one message per step and fire timers only when that queue was empty;
/// at n ≥ 32 the mesh keeps more live TTL chains than the trace is
/// long, the queue never drained, and the trace contained a single tick
/// — no flushes, no GC, logs growing without bound — so large-n replays
/// measured allocator traffic instead of steady-state protocol work.
///
/// The trace is cut at ~50k total inputs at every n (so per-n rows are
/// comparable in size); the crash lands at ~2k inputs and the restart
/// at ~2.4k, mirroring the old step-indexed fault points.
pub fn record_mesh_trace(
    n: usize,
    chat: &MeshChatter,
    config: DgConfig,
) -> Vec<Vec<dg_core::Input<dg_core::Wire<dg_apps::ChatMsg>, dg_apps::ChatMsg>>> {
    use std::collections::VecDeque;

    use dg_apps::ChatMsg;
    use dg_core::engine::{Effect, Engine, Input, ProtocolEngine};
    use dg_core::{EffectSink, Wire};

    type In = Input<Wire<ChatMsg>, ChatMsg>;
    const CAP_INPUTS: usize = 50_000;
    const CRASH_AT: usize = 2_000;
    const RESTART_AT: usize = 2_400;

    let mut engines: Vec<Engine<MeshChatter>> = (0..n)
        .map(|p| Engine::new(ProcessId(p as u16), n, chat.clone(), config))
        .collect();
    let mut traces: Vec<Vec<In>> = vec![Vec::new(); n];
    let mut inboxes: Vec<VecDeque<(ProcessId, Wire<ChatMsg>)>> = vec![VecDeque::new(); n];
    let mut timers: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n];
    let mut now = 0u64;
    let mut down = vec![false; n];
    let mut total = 0usize;
    let mut sink: EffectSink<Wire<ChatMsg>, ChatMsg> = EffectSink::new();

    let mut feed = |engines: &mut Vec<Engine<MeshChatter>>,
                    traces: &mut Vec<Vec<In>>,
                    timers: &mut Vec<Vec<(u64, u32)>>,
                    inboxes: &mut Vec<VecDeque<(ProcessId, Wire<ChatMsg>)>>,
                    total: &mut usize,
                    now: u64,
                    p: ProcessId,
                    input: In| {
        engines[p.index()].handle_into(input.clone(), &mut sink);
        traces[p.index()].push(input);
        *total += 1;
        for eff in sink.drain() {
            match eff {
                Effect::Send { to, wire, .. } => inboxes[to.index()].push_back((p, wire)),
                Effect::Broadcast { wire, .. } => {
                    for q in ProcessId::all(engines.len()) {
                        if q != p {
                            inboxes[q.index()].push_back((p, wire.clone()));
                        }
                    }
                }
                Effect::SetTimer { delay, kind, .. } => {
                    timers[p.index()].push((now + delay, kind));
                }
                _ => {}
            }
        }
    };

    for p in ProcessId::all(n) {
        feed(
            &mut engines,
            &mut traces,
            &mut timers,
            &mut inboxes,
            &mut total,
            now,
            p,
            Input::Start { now },
        );
    }
    let mut crashed = false;
    let mut restarted = false;
    while total < CAP_INPUTS {
        now += 30;
        if !crashed && total >= CRASH_AT {
            crashed = true;
            down[1] = true;
            timers[1].clear();
            feed(
                &mut engines,
                &mut traces,
                &mut timers,
                &mut inboxes,
                &mut total,
                now,
                ProcessId(1),
                Input::Crash,
            );
            continue;
        }
        if crashed && !restarted && total >= RESTART_AT {
            restarted = true;
            down[1] = false;
            feed(
                &mut engines,
                &mut traces,
                &mut timers,
                &mut inboxes,
                &mut total,
                now,
                ProcessId(1),
                Input::Restart { now },
            );
            // Messages that arrived while P1 was down sit in its inbox
            // and drain naturally over the following steps.
            continue;
        }
        let mut progressed = false;
        for p in 0..n {
            if down[p] {
                continue;
            }
            // Maintenance first: every timer due by now fires before the
            // next message, so flush/checkpoint/gossip interleave with a
            // busy network instead of starving behind it.
            while let Some(slot) = timers[p].iter().position(|&(at, _)| at <= now) {
                let (at, kind) = timers[p].remove(slot);
                progressed = true;
                feed(
                    &mut engines,
                    &mut traces,
                    &mut timers,
                    &mut inboxes,
                    &mut total,
                    at.max(now),
                    ProcessId(p as u16),
                    Input::Tick { kind, now },
                );
            }
            if let Some((from, wire)) = inboxes[p].pop_front() {
                progressed = true;
                feed(
                    &mut engines,
                    &mut traces,
                    &mut timers,
                    &mut inboxes,
                    &mut total,
                    now,
                    ProcessId(p as u16),
                    Input::Deliver { from, wire, now },
                );
            }
        }
        if !progressed {
            // Idle step: jump logical time to the next timer deadline
            // (timers re-arm forever, so this terminates only via the
            // input cap — or immediately if everything is down).
            match (0..n)
                .filter(|&i| !down[i])
                .flat_map(|i| timers[i].iter().map(|&(at, _)| at))
                .min()
            {
                Some(at) => now = now.max(at),
                None => break,
            }
        }
    }
    traces
}

/// Measure raw [`dg_core::ProtocolEngine::handle_into`] dispatch
/// throughput — inputs/sec with no network, no scheduler, no IO —
/// against the same protocol running as a `DgProcess` actor under the discrete-event simulator (the only
/// way to run it before the sans-IO refactor). The gap is what the
/// runtime around the engine costs; the engine number is the ceiling
/// any runtime (simnet, netrun) can hope to reach.
///
/// Method: a minimal deterministic router records the full `Input`
/// trace of an `n`-process mesh-chatter run with one crash/restart;
/// the engine row replays that trace into fresh engines 32 times (8 in
/// quick mode) and reports aggregate inputs/sec. The simnet row runs the
/// equivalent workload end-to-end and reports
/// engine inputs/sec dispatched by its actors — the same unit, so the
/// relative column compares like with like.
///
/// Returns the table and a JSON record for `BENCH_engine.json`.
pub fn engine_throughput(quick: bool) -> (TextTable, String) {
    use std::time::Instant;

    use dg_apps::ChatMsg;
    use dg_core::engine::{Engine, Input, ProtocolEngine};
    use dg_core::{EffectSink, Wire};

    let repeats = if quick { 8u32 } else { 32 };
    let n = 4usize;
    let chat = MeshChatter::new(4, 400, 97);
    let config = DgConfig::serving();
    type In = Input<Wire<ChatMsg>, ChatMsg>;
    let traces: Vec<Vec<In>> = record_mesh_trace(n, &chat, config);
    let total_inputs: u64 = traces.iter().map(|t| t.len() as u64).sum();

    // --- Engine row: replay the trace into fresh engines. ------------
    let mut sink: EffectSink<Wire<ChatMsg>, ChatMsg> = EffectSink::new();
    let t0 = Instant::now();
    for _ in 0..repeats {
        let mut fresh: Vec<Engine<MeshChatter>> = (0..n)
            .map(|p| Engine::new(ProcessId(p as u16), n, chat.clone(), config))
            .collect();
        for (i, trace) in traces.iter().enumerate() {
            for input in trace {
                fresh[i].handle_into(input.clone(), &mut sink);
                std::hint::black_box(sink.as_slice());
                sink.clear();
            }
        }
    }
    let engine_elapsed = t0.elapsed();
    let engine_inputs = total_inputs * u64::from(repeats);
    let engine_rate = engine_inputs as f64 / engine_elapsed.as_secs_f64();

    // --- Simnet row: the pre-refactor path, end to end. --------------
    let plan = FaultPlan::single_crash(ProcessId(1), 60_000);
    let t1 = Instant::now();
    let mut sim_events = 0u64;
    let mut sim_inputs = 0u64;
    let mut sim_runs = 0u64;
    for seed in 0..repeats.min(16) {
        let out = run_dg(
            n,
            |_| chat.clone(),
            config,
            NetConfig::with_seed(u64::from(seed) * 7 + 1),
            &plan,
        );
        oracle::check(&out).expect("E13 simnet run violates the oracle");
        sim_events += out.stats.events;
        // Engine inputs the actors actually dispatched — the same unit
        // as the engine row, so the relative column compares like with
        // like (simulator events include pure scheduler bookkeeping).
        sim_inputs += out
            .sim
            .actors()
            .iter()
            .map(|a| a.stats().inputs)
            .sum::<u64>();
        sim_runs += 1;
    }
    let sim_elapsed = t1.elapsed();
    let sim_rate = sim_inputs as f64 / sim_elapsed.as_secs_f64();

    let mut t = TextTable::new(vec![
        "path",
        "inputs",
        "elapsed (ms)",
        "inputs/sec",
        "relative",
    ]);
    t.row(vec![
        "engine replay (sans-IO)".to_string(),
        engine_inputs.to_string(),
        format!("{:.1}", engine_elapsed.as_secs_f64() * 1_000.0),
        format!("{engine_rate:.0}"),
        "1.00".to_string(),
    ]);
    t.row(vec![
        "DgProcess under simnet".to_string(),
        sim_inputs.to_string(),
        format!("{:.1}", sim_elapsed.as_secs_f64() * 1_000.0),
        format!("{sim_rate:.0}"),
        format!("{:.2}", sim_rate / engine_rate),
    ]);

    let json = format!(
        "{}  \"n\": {n},\n  \"trace_inputs\": {total_inputs},\n  \"repeats\": {repeats},\n  \"engine\": {{ \"inputs\": {engine_inputs}, \"elapsed_us\": {}, \"inputs_per_sec\": {engine_rate:.0} }},\n  \"simnet_actor\": {{ \"runs\": {sim_runs}, \"inputs\": {sim_inputs}, \"events\": {sim_events}, \"elapsed_us\": {}, \"inputs_per_sec\": {sim_rate:.0} }},\n  \"simnet_relative_throughput\": {:.4}\n}}\n",
        bench_header("E13_engine_throughput", quick),
        engine_elapsed.as_micros(),
        sim_elapsed.as_micros(),
        sim_rate / engine_rate,
    );
    (t, json)
}

// ---------------------------------------------------------------------
// E15 — scaling with n (replay, token traffic, wire bytes, allocations)
// ---------------------------------------------------------------------

/// Steady-state figures from a ring of `Relay` engines, warmed until
/// every clock/log structure has stopped growing.
struct RelayProbe {
    /// Piggybacked clock bytes per message under the v1 full encoding.
    clock_bytes_full: f64,
    /// The same messages under the v3 dirty-index delta encoding.
    clock_bytes_delta: f64,
    /// Heap allocations per ring delivery; `None` without a counter.
    allocs_per_input: Option<f64>,
}

/// Run the [`RelayProbe`] measurements at system size `n`.
///
/// Clock bytes are sampled on a stable P0 → P1 pair: the receiver's
/// floor is the last clock it saw from that sender, so only the sender's
/// own entry changes between messages — the steady-traffic case the
/// delta format exists for (a ring token is its worst case, since every
/// entry advances per lap). Allocations are the minimum over fixed-size
/// batches of ring deliveries, so amortized container growth cannot mask
/// a true per-delivery allocation.
fn relay_probe(n: usize, alloc_counter: Option<fn() -> u64>) -> RelayProbe {
    use dg_apps::Relay;
    use dg_core::engine::{Effect, Engine, Input, ProtocolEngine};
    use dg_core::{EffectSink, Wire};

    type Sink = EffectSink<Wire<u64>, u64>;
    // Deliver the circulating ring token once; return the follow-on hop.
    fn hop(
        engines: &mut [Engine<Relay>],
        sink: &mut Sink,
        (to, from, wire): (ProcessId, ProcessId, Wire<u64>),
        now: u64,
    ) -> (ProcessId, ProcessId, Wire<u64>) {
        engines[to.index()].handle_into(Input::Deliver { from, wire, now }, sink);
        let mut next = None;
        for eff in sink.drain() {
            if let Effect::Send { to: nt, wire, .. } = eff {
                next = Some((nt, to, wire));
            }
        }
        next.expect("relay always forwards")
    }

    let config = DgConfig::fast_test();
    let mut engines: Vec<Engine<Relay>> = (0..n)
        .map(|p| Engine::new(ProcessId(p as u16), n, Relay::new(u64::MAX), config))
        .collect();
    let mut sink: Sink = EffectSink::new();
    let mut token = None;
    for (p, engine) in engines.iter_mut().enumerate() {
        engine.handle_into(Input::Start { now: 0 }, &mut sink);
        for eff in sink.drain() {
            if let Effect::Send { to, wire, .. } = eff {
                token = Some((to, ProcessId(p as u16), wire));
            }
        }
    }
    let mut token = token.expect("P0 seeds the token");
    let mut now = 1u64;
    for _ in 0..2_000 {
        token = hop(&mut engines, &mut sink, token, now);
        now += 1;
    }

    // --- Wire bytes: a stable P0 → P1 pair, full vs delta. -----------
    let (mut full_bytes, mut delta_bytes) = (0u64, 0u64);
    let mut floor: Option<Ftvc> = None;
    let samples = 2_000u64;
    for i in 0..samples {
        engines[0].handle_into(
            Input::AppSend {
                to: ProcessId(1),
                payload: i,
                now,
            },
            &mut sink,
        );
        let mut sent = None;
        for eff in sink.drain() {
            if let Effect::Send { to, wire, .. } = eff {
                sent = Some((to, wire));
            }
        }
        let (to, wire) = sent.expect("AppSend emits one send");
        if let Wire::App(env) = &wire {
            full_bytes += clockwire::ftvc_wire_len(&env.clock) as u64;
            delta_bytes += match &floor {
                Some(f) => clockwire::ftvc_dirty_wire_len(&env.clock, f) as u64,
                None => clockwire::ftvc_wire_len(&env.clock) as u64,
            };
            floor = Some(env.clock.clone());
        }
        engines[to.index()].handle_into(
            Input::Deliver {
                from: ProcessId(0),
                wire,
                now,
            },
            &mut sink,
        );
        sink.clear(); // P1's follow-on send is dropped, not routed
        now += 1;
    }

    // --- Allocations per ring delivery (min over batches). -----------
    let allocs_per_input = alloc_counter.map(|count| {
        const BATCHES: u64 = 64;
        const PER_BATCH: u64 = 256;
        let mut min_allocs = u64::MAX;
        for _ in 0..BATCHES {
            let before = count();
            for _ in 0..PER_BATCH {
                token = hop(&mut engines, &mut sink, token, now);
                now += 1;
            }
            min_allocs = min_allocs.min(count() - before);
        }
        min_allocs as f64 / PER_BATCH as f64
    });

    RelayProbe {
        clock_bytes_full: full_bytes as f64 / samples as f64,
        clock_bytes_delta: delta_bytes as f64 / samples as f64,
        allocs_per_input,
    }
}

/// In quick (CI) mode, the per-input replay cost may grow by at most
/// this factor from `n = 64` to `n = 128`. With the O(Δ) steady state —
/// incremental digests, delta send-stamp pricing, O(Δ) merges — doubling
/// the system size leaves the per-input work bounded by the workload's
/// contact graph, not by `n`; an O(n) scan reintroduced on the hot path
/// makes the n = 128 rate roughly half the n = 64 rate and trips this
/// guard in CI. The pin carries headroom for shared-runner noise.
pub const E15_MAX_N128_COST_GROWTH: f64 = 1.8;

/// E15 — how the engine scales with system size, per `n` in
/// {4, 8, 16, 32, 64, 128, 256}:
///
/// * **replay** — the E13 mesh-chatter trace replayed into fresh engines
///   through [`dg_core::ProtocolEngine::handle_into`] with one reused
///   [`dg_core::EffectSink`]; best of several repeats.
/// * **token msgs/failure** — wire-honest token-channel messages
///   (initial dissemination, tree forwards, retransmissions, acks)
///   summed across processes over the recorded crash/restart, divided
///   by failures. With tree dissemination this is O(n) per failure;
///   the old broadcast-plus-ack pattern made it Θ(n²) under loss.
/// * **clock bytes/message, full vs delta** and **allocs/input** — the
///   `relay_probe` figures. The pooled spill path must keep
///   allocations at 0.0 for every measured `n`, including the spilled
///   representations at `n > 8` (measured by a counting global allocator
///   when the binary is built with `--features bench-alloc`; otherwise
///   the column reads `n/a`/`null`).
///
/// In quick mode the per-input cost-growth guard asserts that the
/// `n = 128` replay rate is within [`E15_MAX_N128_COST_GROWTH`] of the
/// `n = 64` rate, failing CI if an O(n) remainder creeps back into the
/// steady state. Simulator throughput is the `sim-mesh-n32` workload of
/// `benchmark/`, not a column here.
///
/// Returns the table and a JSON record for `BENCH_scaling.json`.
pub fn scaling(quick: bool, alloc_counter: Option<fn() -> u64>) -> (TextTable, String) {
    use std::time::Instant;

    use dg_core::engine::{Engine, ProtocolEngine};
    use dg_core::{EffectSink, EngineView, Wire};

    let repeats = if quick { 2u32 } else { 8 };
    let chat = MeshChatter::new(4, 400, 97);
    let config = DgConfig::serving();

    let mut t = TextTable::new(vec![
        "n",
        "replay/sec",
        "token msgs/failure",
        "clock B/msg full",
        "clock B/msg delta",
        "allocs/input",
    ]);
    let mut rows_json = Vec::new();
    let mut n64_replay = f64::NAN;
    let mut n128_replay = f64::NAN;

    for &n in &[4usize, 8, 16, 32, 64, 128, 256] {
        // --- Replay. Each repeat is timed on its own and the fastest
        //     wins: the shared-box noise this suppresses is far larger
        //     than the per-dispatch deltas under measurement. The last
        //     repeat's engines also yield the token-traffic counters:
        //     the recorded run crashes and restarts exactly one
        //     process, so `restarts` sums to the failure count. -------
        let traces = record_mesh_trace(n, &chat, config);
        let trace_inputs: u64 = traces.iter().map(|tr| tr.len() as u64).sum();
        let mut sink: EffectSink<Wire<dg_apps::ChatMsg>, dg_apps::ChatMsg> = EffectSink::new();
        let mut elapsed = std::time::Duration::MAX;
        let (mut token_wire_msgs, mut failures) = (0u64, 0u64);
        for _ in 0..repeats {
            let mut fresh: Vec<Engine<MeshChatter>> = (0..n)
                .map(|p| Engine::new(ProcessId(p as u16), n, chat.clone(), config))
                .collect();
            let t0 = Instant::now();
            for (i, trace) in traces.iter().enumerate() {
                for input in trace {
                    fresh[i].handle_into(input.clone(), &mut sink);
                    std::hint::black_box(sink.as_slice());
                    sink.clear();
                }
            }
            elapsed = elapsed.min(t0.elapsed());
            token_wire_msgs = fresh.iter().map(|e| e.stats().token_wire_msgs).sum();
            failures = fresh.iter().map(|e| e.stats().restarts).sum();
        }
        let rate = trace_inputs as f64 / elapsed.as_secs_f64();
        if n == 64 {
            n64_replay = rate;
        } else if n == 128 {
            n128_replay = rate;
        }
        let token_msgs_per_failure = token_wire_msgs as f64 / failures.max(1) as f64;

        let probe = relay_probe(n, alloc_counter);

        t.row(vec![
            n.to_string(),
            format!("{rate:.0}"),
            format!("{token_msgs_per_failure:.0}"),
            format!("{:.1}", probe.clock_bytes_full),
            format!("{:.1}", probe.clock_bytes_delta),
            probe
                .allocs_per_input
                .map_or("n/a".to_string(), |a| format!("{a:.3}")),
        ]);
        rows_json.push(format!(
            "    {{ \"n\": {n}, \"trace_inputs\": {trace_inputs}, \
             \"inputs_per_sec\": {rate:.0}, \
             \"token_wire_msgs\": {token_wire_msgs}, \"failures\": {failures}, \
             \"token_msgs_per_failure\": {token_msgs_per_failure:.1}, \
             \"clock_bytes_full\": {:.2}, \"clock_bytes_delta\": {:.2}, \
             \"allocs_per_input\": {} }}",
            probe.clock_bytes_full,
            probe.clock_bytes_delta,
            probe
                .allocs_per_input
                .map_or("null".to_string(), |a| format!("{a:.4}")),
        ));
    }

    // Quick mode doubles as the CI cost-growth guard: doubling n from 64
    // to 128 must not multiply the per-input cost past the pinned ratio.
    if quick {
        assert!(
            n128_replay * E15_MAX_N128_COST_GROWTH >= n64_replay,
            "per-input cost grew {:.2}x from n=64 to n=128 (limit {}): an O(n) remainder \
             is back on the steady-state path",
            n64_replay / n128_replay,
            E15_MAX_N128_COST_GROWTH,
        );
    }

    let json = format!(
        "{}  \"alloc_counter\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        bench_header("E15_scaling", quick),
        alloc_counter.is_some(),
        rows_json.join(",\n"),
    );
    (t, json)
}

// ---------------------------------------------------------------------
// E16 — client-visible service latency and goodput through a crash
// ---------------------------------------------------------------------

/// The served store under closed-loop clients with a replica killed
/// mid-run: client-visible latency percentiles and goodput, split into
/// the phase before the crash and the phase from the crash onward (the
/// recovery dip is the number under test — exactly-once semantics cost
/// availability during the outage, never correctness).
///
/// Returns the table, a JSON record for `BENCH_service.json`, and the
/// number of oracle violations (service contract + protocol).
pub fn service(quick: bool) -> (TextTable, String, u64) {
    use std::time::{Duration, Instant};

    use dg_core::EngineView;
    use dg_harness::service_oracle::{self, ServiceJournal};
    use dg_service::{ClientOptions, ServiceClient, ServiceCluster, SvcError};

    let n = if quick { 3 } else { 4 };
    let clients = if quick { 3u64 } else { 4 };
    let run_for = Duration::from_millis(if quick { 2_000 } else { 4_000 });
    let crash_at = run_for / 4;
    let downtime = Duration::from_millis(400);

    let config = DgConfig::serving();

    let svc = ServiceCluster::launch(n, config, None).expect("launch service");
    let fronts = svc.fronts();
    let begin = Instant::now();
    let until = begin + run_for;

    // Closed-loop clients on disjoint keys; each op records its start
    // offset (for phase attribution) and its client-visible latency.
    let workers: Vec<_> = (0..clients)
        .map(|id| {
            let fronts = fronts.clone();
            std::thread::spawn(move || {
                let mut client = ServiceClient::new(
                    id,
                    fronts,
                    ClientOptions {
                        seed: 0xE16 ^ id,
                        deadline: Duration::from_secs(10),
                        ..ClientOptions::default()
                    },
                );
                let mut ops: Vec<(u64, u64)> = Vec::new(); // (start_us, latency_us)
                let mut deadlined = 0u64;
                let mut i = 0u64;
                while Instant::now() < until {
                    let key = (id + (i % 4) * clients) as u16;
                    let t0 = Instant::now();
                    let start_us = u64::try_from((t0 - begin).as_micros()).unwrap_or(u64::MAX);
                    let result = if i % 3 == 2 {
                        client.get(key).map(|_| ())
                    } else {
                        client.put(key, id * 10_000 + i)
                    };
                    match result {
                        Ok(()) => ops.push((
                            start_us,
                            u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                        )),
                        Err(SvcError::Deadline) => deadlined += 1,
                        Err(SvcError::Protocol) => panic!("client {id}: protocol violation"),
                    }
                    i += 1;
                }
                (client.into_journal(), ops, deadlined)
            })
        })
        .collect();

    std::thread::sleep(crash_at);
    svc.crash(ProcessId(1), downtime);

    let mut journal = ServiceJournal::default();
    let mut ops: Vec<(u64, u64)> = Vec::new();
    let mut deadlined = 0u64;
    for worker in workers {
        let (j, mut o, d) = worker.join().expect("client thread");
        journal.acked_writes.extend(j.acked_writes);
        journal.unacked_writes.extend(j.unacked_writes);
        journal.observed_gets.extend(j.observed_gets);
        journal.responses.extend(j.responses);
        ops.append(&mut o);
        deadlined += d;
    }

    let quiet = svc.quiesce(Duration::from_secs(60));
    let (engines, replicas) = svc.shutdown();
    let mut violations_list = Vec::new();
    service_oracle::check_service(&journal, &replicas, &mut violations_list);
    let views: Vec<&dyn dg_core::EngineView> = engines
        .iter()
        .map(|e| e as &dyn dg_core::EngineView)
        .collect();
    oracle::check_views(&views, &mut violations_list);
    let mut violations = violations_list.len() as u64;
    if !quiet {
        violations += 1;
    }
    for v in &violations_list {
        eprintln!("E16 violation: {v:?}");
    }
    let restarts: u64 = engines.iter().map(|e| EngineView::stats(e).restarts).sum();

    let crash_us = u64::try_from(crash_at.as_micros()).unwrap_or(u64::MAX);
    let pct = |sorted: &[u64], p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    };
    let mut t = TextTable::new(vec![
        "phase",
        "ops acked",
        "p50 us",
        "p99 us",
        "max us",
        "goodput ops/s",
    ]);
    let mut rows_json = Vec::new();
    let phases: [(&str, bool, f64); 2] = [
        ("healthy", true, crash_at.as_secs_f64()),
        ("crash+recovery", false, (run_for - crash_at).as_secs_f64()),
    ];
    for (name, before_crash, secs) in &phases {
        let mut lat: Vec<u64> = ops
            .iter()
            .filter(|&&(s, _)| (s < crash_us) == *before_crash)
            .map(|&(_, l)| l)
            .collect();
        lat.sort_unstable();
        let goodput = lat.len() as f64 / secs;
        let (p50, p99, max) = (
            pct(&lat, 0.50),
            pct(&lat, 0.99),
            lat.last().copied().unwrap_or(0),
        );
        t.row(vec![
            (*name).to_string(),
            lat.len().to_string(),
            p50.to_string(),
            p99.to_string(),
            max.to_string(),
            format!("{goodput:.0}"),
        ]);
        rows_json.push(format!(
            "    {{ \"phase\": \"{name}\", \"ops_acked\": {}, \"p50_us\": {p50}, \
             \"p99_us\": {p99}, \"max_us\": {max}, \"goodput_ops_per_sec\": {goodput:.1} }}",
            lat.len(),
        ));
    }

    let json = format!(
        "{}  \"n\": {n},\n  \
         \"clients\": {clients},\n  \"crash_at_ms\": {},\n  \"downtime_ms\": {},\n  \
         \"ops_acked\": {},\n  \"ops_deadlined\": {deadlined},\n  \"restarts\": {restarts},\n  \
         \"violations\": {violations},\n  \
         \"note\": \"client-visible latency through a replica kill+restart; responses are \
         released only after output commit, so the contract (no acked write lost, no \
         rolled-back write observed, exactly-once apply) holds through the outage and the \
         dip shows up as latency, not as corruption\",\n  \"phases\": [\n{}\n  ]\n}}\n",
        bench_header("E16_service", quick),
        crash_at.as_millis(),
        downtime.as_millis(),
        ops.len(),
        rows_json.join(",\n"),
    );
    (t, json, violations)
}

// ---------------------------------------------------------------------
// E17 — the storage engine: delta checkpoints, group commit, send-log
// pruning
// ---------------------------------------------------------------------

/// The production storage path under sustained mesh load with periodic
/// crashes: bytes per checkpoint with full frames vs delta chains, log
/// bytes group-committed per engine input, the send-log high-water mark
/// with stable-clock pruning active (it must plateau, not grow with
/// history), and wall-clock recovery time when a restart restores
/// through a delta chain.
///
/// Both arms run the metered image path — the "full" arm simply rebases
/// on every frame (`full_every(1)`) — so the comparison isolates the
/// encoding, not the accounting.
///
/// Returns the table, a JSON record for `BENCH_storage.json`, and the
/// number of oracle violations.
pub fn storage(quick: bool) -> (TextTable, String, u64) {
    use std::time::Instant;

    use dg_core::engine::{Engine, Input, ProtocolEngine};
    use dg_core::{DgProcess, EffectSink, ProcessStats};
    use dg_harness::DgRunOutcome;

    let sizes: &[usize] = if quick {
        &[4, 8, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };
    // Checkpoint often relative to the run length: delta frames pay off
    // when the dedup set is mostly stable between frames, which is the
    // production regime (checkpoints every few seconds, not once per
    // process lifetime).
    let base = DgConfig::serving()
        .checkpoint_every(500)
        .with_delta_checkpoints(true);

    // One metered run on the seeded simulator; `ttl` scales the
    // sustained-load duration. Three staggered crash+restart cycles keep
    // recovery machinery (and the send log) exercised throughout.
    // Returns the finished run and counts any oracle violations.
    let run_one =
        |n: usize, config: DgConfig, ttl: u32, violations: &mut u64| -> DgRunOutcome<MeshChatter> {
            let chat = MeshChatter::new(4, ttl, 97);
            let plan = FaultPlan::single_crash(ProcessId(1), 2_000)
                .with_crash(ProcessId(2 % n as u16), 5_000)
                .with_crash(ProcessId(3 % n as u16), 9_000);
            let out = run_dg(n, |_| chat.clone(), config, NetConfig::with_seed(11), &plan);
            if let Err(list) = oracle::check(&out) {
                for v in &list {
                    eprintln!("E17 violation (n = {n}): {v:?}");
                }
                *violations += list.len() as u64;
            }
            out
        };

    // Wall-clock restart on a clone of a post-run process: restore the
    // newest usable checkpoint (through its delta chain in the delta
    // arm) and replay the stable log suffix. Best of three probes.
    let recovery_us = |procs: &[DgProcess<MeshChatter>]| -> f64 {
        let mut best = f64::INFINITY;
        let mut sink = EffectSink::new();
        for _ in 0..3 {
            let mut e: Engine<MeshChatter> = procs[0].clone().into_engine();
            e.handle_into(Input::Crash, &mut sink);
            let t0 = Instant::now();
            e.handle_into(Input::Restart { now: 1 << 40 }, &mut sink);
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(sink.as_slice());
            sink.clear();
        }
        best
    };

    struct ArmResult {
        bytes_per_ckpt: f64,
        checkpoints: u64,
        sections: [u64; 5],
        log_bytes_per_input: f64,
        hwm: u64,
        pruned: u64,
        recovery: f64,
    }
    let summarize = |out: &DgRunOutcome<MeshChatter>| -> ArmResult {
        let procs = out.sim.actors();
        let per: Vec<&ProcessStats> = procs.iter().map(DgProcess::stats).collect();
        let ckpts: u64 = per.iter().map(|s| s.checkpoints_taken).sum();
        let bytes: u64 = per
            .iter()
            .map(|s| s.checkpoint_bytes_full + s.checkpoint_bytes_delta)
            .sum();
        let inputs: u64 = per.iter().map(|s| s.inputs).sum();
        let log_bytes: u64 = per.iter().map(|s| s.log_bytes_flushed).sum();
        ArmResult {
            bytes_per_ckpt: bytes as f64 / ckpts.max(1) as f64,
            checkpoints: ckpts,
            sections: [
                per.iter().map(|s| s.checkpoint_bytes_clock).sum(),
                per.iter().map(|s| s.checkpoint_bytes_app).sum(),
                per.iter().map(|s| s.checkpoint_bytes_meta).sum(),
                per.iter().map(|s| s.checkpoint_bytes_dedup).sum(),
                per.iter().map(|s| s.checkpoint_bytes_pending).sum(),
            ],
            log_bytes_per_input: log_bytes as f64 / inputs.max(1) as f64,
            hwm: per.iter().map(|s| s.send_log_high_water).max().unwrap_or(0),
            pruned: per.iter().map(|s| s.send_log_pruned).sum(),
            recovery: recovery_us(procs),
        }
    };

    let mut t = TextTable::new(vec![
        "n",
        "full B/ckpt",
        "delta B/ckpt",
        "reduction",
        "log B/input",
        "hwm half",
        "hwm full",
        "pruned",
        "recovery us",
    ]);
    let mut rows_json = Vec::new();
    let mut violations = 0u64;
    let mut reduction_at_max_n = f64::NAN;
    let mut plateau_at_max_n = f64::NAN;

    for &n in sizes {
        let full = summarize(&run_one(n, base.full_every(1), 800, &mut violations));
        let delta = summarize(&run_one(n, base, 800, &mut violations));
        // Half the sustained load, same crash schedule: if pruning
        // works, the high-water mark barely moves when the run doubles.
        let half = summarize(&run_one(n, base, 400, &mut violations));

        let reduction = full.bytes_per_ckpt / delta.bytes_per_ckpt;
        let plateau = delta.hwm as f64 / half.hwm.max(1) as f64;
        if n == *sizes.last().unwrap() {
            reduction_at_max_n = reduction;
            plateau_at_max_n = plateau;
        }

        t.row(vec![
            n.to_string(),
            format!("{:.0}", full.bytes_per_ckpt),
            format!("{:.0}", delta.bytes_per_ckpt),
            format!("{reduction:.2}x"),
            format!("{:.1}", delta.log_bytes_per_input),
            half.hwm.to_string(),
            delta.hwm.to_string(),
            delta.pruned.to_string(),
            format!("{:.0}", delta.recovery),
        ]);
        rows_json.push(format!(
            "    {{ \"n\": {n}, \"full_bytes_per_checkpoint\": {:.1}, \
             \"delta_bytes_per_checkpoint\": {:.1}, \"reduction\": {reduction:.3}, \
             \"checkpoints_full_arm\": {}, \"checkpoints_delta_arm\": {}, \
             \"log_bytes_per_input\": {:.2}, \"send_log_hwm_half_load\": {}, \
             \"send_log_hwm_full_load\": {}, \"hwm_growth\": {plateau:.3}, \
             \"send_log_pruned\": {}, \"recovery_us_full\": {:.1}, \
             \"recovery_us_delta\": {:.1}, \"delta_section_bytes\": {{ \
             \"clock\": {}, \"app\": {}, \"meta\": {}, \"dedup\": {}, \
             \"pending\": {} }} }}",
            full.bytes_per_ckpt,
            delta.bytes_per_ckpt,
            full.checkpoints,
            delta.checkpoints,
            delta.log_bytes_per_input,
            half.hwm,
            delta.hwm,
            delta.pruned,
            full.recovery,
            delta.recovery,
            delta.sections[0],
            delta.sections[1],
            delta.sections[2],
            delta.sections[3],
            delta.sections[4],
        ));
    }

    let json = format!(
        "{}  \"violations\": {violations},\n  \
         \"reduction_at_max_n\": {reduction_at_max_n:.3},\n  \"target_reduction\": 3.0,\n  \
         \"hwm_growth_at_max_n\": {plateau_at_max_n:.3},\n  \
         \"note\": \"both arms write metered checkpoint frames; the full arm rebases every \
         frame (full_every(1)) while the delta arm rebases every 8th, so 'reduction' is the \
         per-frame byte saving of delta encoding alone. hwm_growth compares the send-log \
         high-water mark at double the sustained load: a value near 1.0 means stable-clock \
         pruning caps the log independently of history length. recovery probes re-crash a \
         finished process and time the restore+replay path.\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        bench_header("E17_storage", quick),
        rows_json.join(",\n"),
    );
    (t, json, violations)
}

// ---------------------------------------------------------------------
// E18 — the front door at scale: open-loop heavy-tailed load vs the
// closed-loop baseline, with rollback blast radius under a mid-run crash
// ---------------------------------------------------------------------

/// The batched/pipelined front door under an open-loop, heavy-tailed
/// load engine, compared against the PR 6-style closed-loop baseline
/// *measured in the same run*: one client, one request in flight, so
/// its goodput is pinned to the output-commit latency. The open-loop
/// arms offer load at a fixed rate regardless of responses (LogNormal
/// interarrivals and burst sizes, many logical sessions over a bounded
/// connection pool) and report goodput plus p50/p99/p999 output-commit
/// latency per offered rate. A final arm per cluster size injects a
/// replica crash mid-flood and reports the rollback blast radius
/// (rollbacks, replayed messages, uncommitted outputs discarded per
/// injected failure). Open-loop latencies run from each request's due
/// time and the generator's own lateness is reported beside them. Every
/// arm's journal is audited by the service oracle. (The closed-loop
/// baseline is one request in flight, so its goodput is 1 / commit
/// latency; the ratio to it is reported, not gated — it fell from 118x
/// to single digits when commits stopped waiting for the gossip tick,
/// because the baseline got faster, not the peak slower.)
///
/// Returns the table, a JSON record for `BENCH_load.json`, and the
/// number of violations (oracle + quiesce).
pub fn load(quick: bool) -> (TextTable, String, u64) {
    use std::time::Duration;

    use dg_core::EngineView;
    use dg_harness::loadgen::LoadConfig;
    use dg_harness::service_oracle;
    use dg_service::loadrun::{run_load, LoadOptions, LoadOutcome};
    use dg_service::{RunConfig, ServiceCluster, ServiceOptions};

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    let config = DgConfig::serving();

    /// Blast-radius summary pulled from the engines after shutdown.
    struct Blast {
        restarts: u64,
        rollbacks: u64,
        replayed: u64,
        outputs_rolled_back: u64,
        max_per_failure: u64,
    }

    // One arm = one fresh cluster (so engine stats are attributable to
    // this arm alone): launch, drive the schedule, optionally crash a
    // replica mid-run, quiesce, audit. Returns the outcome, the
    // blast-radius stats, and the violation count.
    let run_arm = |n: usize,
                   cfg: &LoadConfig,
                   opts: &LoadOptions,
                   crash: Option<(Duration, Duration)>|
     -> (LoadOutcome, Blast, u64) {
        let arm_t0 = std::time::Instant::now();
        eprintln!(
            "E18: n={n} total_ops={} mode={:?} crash={} ...",
            cfg.total_ops,
            cfg.mode,
            crash.is_some()
        );
        let threads = if n > 8 { Some(cores.min(n)) } else { None };
        let svc = ServiceCluster::launch_opts(
            n,
            config,
            None,
            ServiceOptions {
                run: RunConfig {
                    node_threads: threads,
                    ..RunConfig::default()
                },
                ..ServiceOptions::default()
            },
        )
        .expect("launch service");
        let fronts = svc.fronts();

        let out = if let Some((at, downtime)) = crash {
            let loader = std::thread::spawn({
                let fronts = fronts.clone();
                let cfg = *cfg;
                let opts = *opts;
                move || run_load(&fronts, &cfg, &opts)
            });
            std::thread::sleep(at);
            svc.crash(ProcessId(1), downtime);
            loader.join().expect("loader thread")
        } else {
            run_load(&fronts, cfg, opts)
        };
        eprintln!(
            "E18: n={n} load done in {:.1}s (acked {} / issued {}, shed {}, abandoned {})",
            arm_t0.elapsed().as_secs_f64(),
            out.acked,
            out.issued,
            out.shed,
            out.abandoned
        );

        let quiet = svc.quiesce(Duration::from_secs(90));
        eprintln!(
            "E18: n={n} arm done in {:.1}s (quiet={quiet})",
            arm_t0.elapsed().as_secs_f64()
        );
        let (engines, replicas) = svc.shutdown();
        let mut violations_list = Vec::new();
        service_oracle::check_service(&out.journal, &replicas, &mut violations_list);
        let views: Vec<&dyn dg_core::EngineView> = engines
            .iter()
            .map(|e| e as &dyn dg_core::EngineView)
            .collect();
        oracle::check_views(&views, &mut violations_list);
        for v in &violations_list {
            eprintln!("E18 violation (n={n}): {v:?}");
        }
        let mut violations = violations_list.len() as u64;
        if !quiet {
            eprintln!("E18 violation (n={n}): failed to quiesce");
            violations += 1;
        }

        let mut blast = Blast {
            restarts: 0,
            rollbacks: 0,
            replayed: 0,
            outputs_rolled_back: 0,
            max_per_failure: 0,
        };
        let mut per_failure: std::collections::BTreeMap<dg_core::FailureId, u64> =
            std::collections::BTreeMap::new();
        for e in &engines {
            let s = EngineView::stats(e);
            blast.restarts += s.restarts;
            blast.rollbacks += s.rollbacks;
            blast.replayed += s.messages_replayed;
            blast.outputs_rolled_back += s.outputs_rolled_back;
            for (fid, count) in &s.rollbacks_by_failure {
                *per_failure.entry(*fid).or_insert(0) += count;
            }
        }
        blast.max_per_failure = per_failure.values().copied().max().unwrap_or(0);
        (out, blast, violations)
    };

    let ns: &[usize] = if quick { &[4] } else { &[4, 16, 64] };
    // Offered open-loop rates per cluster size (requests/second).
    let rates = |n: usize| -> &'static [f64] {
        if quick {
            &[3_000.0]
        } else if n == 4 {
            &[1_000.0, 5_000.0, 20_000.0]
        } else if n == 16 {
            &[1_000.0, 5_000.0]
        } else {
            // A 64-node mesh multiplexed over this box's cores saturates
            // early; offer rates around the knee so the sweep shows it
            // without drowning the run in abandoned-retry tails.
            &[500.0, 1_000.0]
        }
    };
    let arm_secs = if quick { 1.0 } else { 2.0 };
    let opts = LoadOptions {
        connections: 4,
        attempt_timeout: Duration::from_millis(300),
        deadline: Duration::from_secs(10),
    };

    let mut t = TextTable::new(vec![
        "n",
        "arm",
        "offered/s",
        "sessions",
        "acked",
        "shed",
        "goodput/s",
        "p50 us",
        "p99 us",
        "p999 us",
        "late p99 us",
    ]);
    let mut clusters_json = Vec::new();
    let mut violations = 0u64;
    let mut max_speedup = 0.0f64;
    let mut seed = 0xE18u64;

    for &n in ns {
        // Baseline: one session, one connection, one request in flight —
        // exactly the PR 6 service demo's discipline, driven through the
        // same loadrun plumbing so the metric and the witness match.
        seed += 1;
        let base_ops = if quick {
            80
        } else if n >= 64 {
            // One request in flight against a 64-node mesh is dominated
            // by commit latency; fewer ops keep the arm bounded.
            120
        } else {
            240
        };
        let mut base_cfg = LoadConfig::closed(seed, 1, base_ops, 1);
        base_cfg.key_space = 8;
        base_cfg.write_fraction = 0.5;
        let base_opts = LoadOptions {
            connections: 1,
            ..opts
        };
        let (base, _, v) = run_arm(n, &base_cfg, &base_opts, None);
        violations += v;
        let base_goodput = base.goodput();
        t.row(vec![
            n.to_string(),
            "closed base".to_string(),
            "-".to_string(),
            "1".to_string(),
            base.acked.to_string(),
            "0".to_string(),
            format!("{base_goodput:.0}"),
            base.latency_quantile_us(0.5).to_string(),
            base.latency_quantile_us(0.99).to_string(),
            base.latency_quantile_us(0.999).to_string(),
            "-".to_string(),
        ]);

        // Open-loop offered-load sweep. The top rate at n=4 runs the
        // session-scale showcase: two million logical sessions over the
        // same four connections.
        let mut arms_json = Vec::new();
        let mut peak = 0.0f64;
        for &rate in rates(n) {
            seed += 1;
            let sessions = if !quick && n == 4 && rate >= 20_000.0 {
                2_000_000
            } else {
                20_000
            };
            let total_ops = (rate * arm_secs) as u64;
            let cfg = LoadConfig::open(seed, sessions, total_ops, rate);
            let (out, _, v) = run_arm(n, &cfg, &opts, None);
            violations += v;
            let goodput = out.goodput();
            peak = peak.max(goodput);
            let (p50, p99, p999, late_p99) = (
                out.latency_quantile_us(0.5),
                out.latency_quantile_us(0.99),
                out.latency_quantile_us(0.999),
                out.lateness_quantile_us(0.99),
            );
            t.row(vec![
                n.to_string(),
                "open".to_string(),
                format!("{rate:.0}"),
                sessions.to_string(),
                out.acked.to_string(),
                out.shed.to_string(),
                format!("{goodput:.0}"),
                p50.to_string(),
                p99.to_string(),
                p999.to_string(),
                late_p99.to_string(),
            ]);
            arms_json.push(format!(
                "        {{ \"offered_ops_per_sec\": {rate:.0}, \"sessions\": {sessions}, \
                 \"issued\": {}, \"acked\": {}, \"shed\": {}, \"retries\": {}, \
                 \"abandoned\": {}, \"goodput_ops_per_sec\": {goodput:.1}, \
                 \"p50_us\": {p50}, \"p99_us\": {p99}, \"p999_us\": {p999}, \
                 \"late_p99_us\": {late_p99} }}",
                out.issued, out.acked, out.shed, out.retries, out.abandoned,
            ));
        }
        let speedup = peak / base_goodput.max(1e-9);
        max_speedup = max_speedup.max(speedup);

        // Crash arm: a replica dies under open-loop flood; the blast
        // radius is what recovery rolled back and replayed, per failure.
        seed += 1;
        let crash_rate = if n >= 64 { 500.0 } else { 2_000.0 };
        let cfg = LoadConfig::open(seed, 20_000, (crash_rate * arm_secs) as u64, crash_rate);
        let (out, blast, v) = run_arm(
            n,
            &cfg,
            &opts,
            Some((Duration::from_millis(500), Duration::from_millis(300))),
        );
        violations += v;
        if blast.restarts == 0 {
            eprintln!("E18 violation (n={n}): crash arm recorded no restart");
            violations += 1;
        }
        t.row(vec![
            n.to_string(),
            "open+crash".to_string(),
            format!("{crash_rate:.0}"),
            "20000".to_string(),
            out.acked.to_string(),
            out.shed.to_string(),
            format!("{:.0}", out.goodput()),
            out.latency_quantile_us(0.5).to_string(),
            out.latency_quantile_us(0.99).to_string(),
            out.latency_quantile_us(0.999).to_string(),
            out.lateness_quantile_us(0.99).to_string(),
        ]);

        clusters_json.push(format!(
            "    {{ \"n\": {n},\n      \"baseline_goodput_ops_per_sec\": {base_goodput:.1},\n      \
             \"peak_goodput_ops_per_sec\": {peak:.1},\n      \
             \"speedup_vs_baseline\": {speedup:.1},\n      \"arms\": [\n{}\n      ],\n      \
             \"crash\": {{ \"offered_ops_per_sec\": {crash_rate:.0}, \"acked\": {}, \
             \"abandoned\": {}, \"goodput_ops_per_sec\": {:.1}, \"restarts\": {}, \
             \"rollbacks\": {}, \"messages_replayed\": {}, \"outputs_rolled_back\": {}, \
             \"max_rollbacks_per_failure\": {} }}\n    }}",
            arms_json.join(",\n"),
            out.acked,
            out.abandoned,
            out.goodput(),
            blast.restarts,
            blast.rollbacks,
            blast.replayed,
            blast.outputs_rolled_back,
            blast.max_per_failure,
        ));
    }

    let json = format!(
        "{}  \"max_speedup_vs_baseline\": {max_speedup:.1},\n  \
         \"violations\": {violations},\n  \
         \"note\": \"open-loop heavy-tailed load (LogNormal interarrivals and burst sizes) \
         against the batched front door, vs a same-run closed-loop baseline (one request in \
         flight, so its goodput is 1 / commit latency). every arm is a fresh cluster audited \
         by the service oracle; the crash arm kills a replica mid-flood and reports the \
         rollback blast radius per injected failure. latencies are output-commit latencies: \
         due time (open arms) or first send (baseline) to committed acknowledgement; \
         late_p99_us is how late the generator itself sent, already included in them.\",\n  \"clusters\": [\n{}\n  ]\n}}\n",
        bench_header("E18_load", quick),
        clusters_json.join(",\n"),
    );
    (t, json, violations)
}
