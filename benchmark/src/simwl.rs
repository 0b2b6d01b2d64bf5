//! `sim-mesh-n32`: the paper's own setting, no sockets at all. A batch
//! of seeded 32-process `MeshChatter` runs on the discrete-event
//! simulator, six crashes each, every run audited by `oracle::check` and
//! held to the paper's bound of one rollback per failure. `core`, `ftvc`
//! and `simnet` do all the work here and `service`/`netrun` none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dg_apps::MeshChatter;
use dg_core::{DgProcess, EngineView, ProcessId, ProcessStats};
use dg_harness::oracle::{self, Violation};
use dg_harness::{dg_report, run_actors, run_dg, FaultPlan};
use dg_simnet::{NetConfig, RunStats};

use crate::layers::{self, Meter, Timed, TimedActor};
use crate::proc;
use crate::service::profile;
use crate::stats::{median, percentile};
use crate::trace::{self, lane, Span};
use crate::{describe, Outcome, WorkloadSpec};

const N: usize = 32;
const CRASHES_PER_RUN: usize = 6;
/// Simulated runs per second of `--seconds`: the batch is sized by count,
/// not by the clock, so that the same seed does the same work — and
/// reports bit-identical counts — however fast the code under test is.
/// One run takes about 0.2 s on the box the benchmark was defined on.
const RUNS_PER_SECOND: u64 = 5;
/// Fewest runs that leave ten beyond p80.
const MIN_RUNS: u64 = 50;
const SETUP_REPS: usize = 5;
const WARM_UP_RUNS: usize = 2;

fn chatter() -> MeshChatter {
    MeshChatter::new(4, 400, 97)
}

fn inputs_of(seed: u64, runs: u64) -> Vec<(NetConfig, FaultPlan)> {
    (0..runs)
        .map(|k| {
            let s = seed.wrapping_mul(1_000_003).wrapping_add(k);
            (
                NetConfig::with_seed(s.wrapping_mul(7).wrapping_add(1)),
                FaultPlan::random(
                    N,
                    CRASHES_PER_RUN,
                    (20_000, 200_000),
                    s.wrapping_mul(31).wrapping_add(5),
                ),
            )
        })
        .collect()
}

/// Counts of one run, summed over its processes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    inputs: u64,
    messages: u64,
    piggyback_bytes: u64,
    restarts: u64,
    rollbacks: u64,
    max_rollbacks_per_failure: u64,
    replayed: u64,
    token_msgs: u64,
    flushes: u64,
    log_bytes: u64,
    checkpoints: u64,
    send_log_live: u64,
    events: u64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.inputs += other.inputs;
        self.messages += other.messages;
        self.piggyback_bytes += other.piggyback_bytes;
        self.restarts += other.restarts;
        self.rollbacks += other.rollbacks;
        self.max_rollbacks_per_failure = self
            .max_rollbacks_per_failure
            .max(other.max_rollbacks_per_failure);
        self.replayed += other.replayed;
        self.token_msgs += other.token_msgs;
        self.flushes += other.flushes;
        self.log_bytes += other.log_bytes;
        self.checkpoints += other.checkpoints;
        self.send_log_live = self.send_log_live.max(other.send_log_live);
        self.events += other.events;
    }
}

fn audit<'a>(
    views: &[&'a dyn EngineView],
    stats: &RunStats,
    mut violations: Vec<Violation>,
) -> Result<Counts, Vec<Violation>> {
    let per: Vec<&'a ProcessStats> = views.iter().map(|v| v.stats()).collect();
    let mut c = Counts {
        events: stats.events,
        ..Counts::default()
    };
    for s in per {
        c.add(&Counts {
            inputs: s.inputs,
            messages: s.messages_sent,
            piggyback_bytes: s.piggyback_bytes,
            restarts: s.restarts,
            rollbacks: s.rollbacks,
            max_rollbacks_per_failure: s.max_rollbacks_per_failure(),
            replayed: s.messages_replayed,
            token_msgs: s.token_wire_msgs,
            flushes: s.flushes,
            log_bytes: s.log_bytes_flushed,
            checkpoints: s.checkpoints_taken,
            send_log_live: s.send_log_high_water,
            events: 0,
        });
    }
    if c.max_rollbacks_per_failure > 1 {
        violations.push(Violation(format!(
            "{} rollbacks for one failure (the paper's bound is 1)",
            c.max_rollbacks_per_failure
        )));
    }
    if violations.is_empty() {
        Ok(c)
    } else {
        Err(violations)
    }
}

struct PlainRun {
    wall: Duration,
    /// Simulated time from start to quiescence, ms.
    sim_ms: f64,
    cpu_ns: u64,
    /// Resident set at the end of the run, all 32 processes still live.
    rss_mb: f64,
    counts: Counts,
}

fn plain_run(net: &NetConfig, plan: &FaultPlan) -> Result<PlainRun, Vec<Violation>> {
    let chat = chatter();
    let cpu0 = proc::thread_cpu_ns();
    let t = Instant::now();
    let out = run_dg(N, |_| chat.clone(), profile(), net.clone(), plan);
    let wall = t.elapsed();
    let cpu_ns = proc::thread_cpu_ns().saturating_sub(cpu0);
    let rss_mb = proc::rss_mb();
    let violations = oracle::check(&out).err().unwrap_or_default();
    let views: Vec<&dyn EngineView> = out
        .sim
        .actors()
        .iter()
        .map(|a| a as &dyn EngineView)
        .collect();
    audit(&views, &out.stats, violations).map(|counts| PlainRun {
        wall,
        sim_ms: out.stats.end_time.as_micros() as f64 / 1e3,
        cpu_ns,
        rss_mb,
        counts,
    })
}

struct TimedRun {
    wall: Duration,
    counts: Counts,
    handle_ns: u64,
    apply_ns: u64,
}

/// The same run with stopwatches around every engine input and every
/// application step.
fn timed_run(
    net: &NetConfig,
    plan: &FaultPlan,
    spans: &mut Vec<Span>,
) -> Result<TimedRun, Vec<Violation>> {
    let chat = chatter();
    let handle = Arc::new(Meter::default());
    let apply = Arc::new(Meter::default());
    let actors: Vec<TimedActor<MeshChatter>> = ProcessId::all(N)
        .map(|p| {
            let app = Timed::new(chat.clone(), Arc::clone(&apply), lane::SIM);
            TimedActor::new(DgProcess::new(p, N, app, profile()), Arc::clone(&handle))
        })
        .collect();
    let t = Instant::now();
    let out = run_actors(actors, net.clone(), plan, |a| dg_report(&a.inner));
    let wall = t.elapsed();
    spans.push(Span::new("sim.run", lane::SIM, "window", t, t + wall));
    spans.extend(handle.take_spans());
    spans.extend(apply.take_spans());
    // `oracle::check` wants plain `DgProcess` actors; these are its parts.
    let views: Vec<&dyn EngineView> = out
        .sim
        .actors()
        .iter()
        .map(|a| &a.inner as &dyn EngineView)
        .collect();
    let mut violations = Vec::new();
    oracle::check_views(&views, &mut violations);
    if !out.stats.quiescent {
        violations.push(Violation("run did not quiesce".into()));
    }
    let counts = audit(&views, &out.stats, violations)?;
    if counts.restarts != out.stats.crashes {
        return Err(vec![Violation(format!(
            "{} crashes but {} restarts",
            out.stats.crashes, counts.restarts
        ))]);
    }
    Ok(TimedRun {
        wall,
        counts,
        handle_ns: handle.ns(),
        apply_ns: apply.ns(),
    })
}

#[allow(clippy::too_many_lines)]
pub fn run(
    wl: &WorkloadSpec,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let runs = (window.as_secs() * RUNS_PER_SECOND).max(MIN_RUNS);

    // Set-up: derive every run's network and fault plan from the seed and
    // take two runs to warm the allocator and the caches (two, because a
    // run's size varies with its fault plan by a quarter and the figure
    // should not be one plan's size).
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let (t, cpu0) = (Instant::now(), proc::thread_cpu_ns());
        inputs = inputs_of(seed, runs);
        for (net, plan) in &inputs[..WARM_UP_RUNS] {
            plain_run(net, plan).map_err(|v| describe(wl.name, &v))?;
        }
        // CPU seconds of this thread, like `goodput_ops_s` below and for
        // the same reason; the wall clock where `/proc` has no schedstat.
        let cpu_ns = proc::thread_cpu_ns().saturating_sub(cpu0);
        setups.push(if cpu_ns > 0 {
            cpu_ns as f64 / 1e9
        } else {
            t.elapsed().as_secs_f64()
        });
    }
    let setup_done = Instant::now();
    let setup_s = median(&setups).expect("repetitions");
    let steal_from = proc::steal_ticks();

    // Traced pass: odd runs carry the stopwatches, even runs do not, so
    // one pass yields both the layer times and what measuring them costs.
    let mut plain: Vec<PlainRun> = Vec::new();
    let mut timed: Vec<TimedRun> = Vec::new();
    let mut failed = 0;
    for (k, (net, plan)) in inputs.iter().enumerate() {
        let result = if traced && k % 2 == 1 {
            timed_run(net, plan, &mut spans).map(|r| timed.push(r))
        } else {
            plain_run(net, plan).map(|r| plain.push(r))
        };
        if let Err(v) = result {
            eprintln!("{}", describe(wl.name, &v));
            failed += 1;
        }
    }
    if failed > 0 {
        return Err(format!(
            "{}: {failed} of {runs} runs violated the oracle",
            wl.name
        ));
    }
    let window_done = Instant::now();
    let steal_frac = proc::steal_frac(steal_from, proc::steal_ticks());

    let mut total = Counts::default();
    for counts in plain
        .iter()
        .map(|r| &r.counts)
        .chain(timed.iter().map(|r| &r.counts))
    {
        total.add(counts);
    }
    let per_run = |f: fn(&PlainRun) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    let sim_ms = per_run(|r| r.sim_ms);
    // Per second of this thread's CPU time, not of the wall clock: the run
    // is one thread computing, so on a machine of its own the two agree,
    // and on a shared one the time the hypervisor gave to somebody else
    // (a quarter of the wall clock in some hours) is not the code's.
    let rates = per_run(|r| {
        let busy_s = if r.cpu_ns > 0 {
            r.cpu_ns as f64 / 1e9
        } else {
            r.wall.as_secs_f64()
        };
        r.counts.inputs as f64 / busy_s
    });
    let cpu_us_per_op = median(&per_run(|r| r.cpu_ns as f64 / 1e3 / r.counts.inputs as f64));
    let rss_mb = median(&per_run(|r| r.rss_mb));

    let mut out = Outcome {
        attempted: runs,
        failed: 0,
        schedule_fingerprint: total.inputs
            ^ total.rollbacks.rotate_left(32)
            ^ total.replayed.rotate_left(48),
        ..Outcome::default()
    };
    out.notes = vec![
        ("sim.runs", runs as f64),
        ("sim.inputs", total.inputs as f64),
        ("sim.failures", total.restarts as f64),
        ("sim.rollbacks", total.rollbacks as f64),
        ("sim.replayed", total.replayed as f64),
        ("sim.token_msgs", total.token_msgs as f64),
        ("proc.cpu_us_per_op", cpu_us_per_op.unwrap_or(0.0)),
        ("proc.rss_peak_mb", rss_mb.unwrap_or(0.0)),
        ("proc.steal_frac", steal_frac),
    ];
    if !traced {
        // Latency here is simulated time: how long the modelled system
        // takes from start to quiescence, six crashes and their
        // recoveries included. It moves when the protocol needs more
        // message delays or timer periods, not when the code gets slower
        // — that is `goodput_ops_s`, the median over the runs of engine
        // inputs per second of CPU time. With 50 runs, p80 is the highest
        // percentile that still has ten runs beyond it.
        let tail = percentile(&sim_ms, 0.8)
            .ok_or_else(|| format!("{}: {runs} runs are too few for p80", wl.name))?;
        out.end_to_end = vec![
            ("setup_s", setup_s),
            ("commit_p50_ms", median(&sim_ms).expect("runs > 0")),
            ("commit_tail_ms", tail),
            ("goodput_ops_s", median(&rates).expect("runs > 0")),
        ];
        return Ok(out);
    }

    let wall_s: f64 = plain.iter().map(|r| r.wall.as_secs_f64()).sum();
    let t_wall_s: f64 = timed.iter().map(|r| r.wall.as_secs_f64()).sum();
    let t_inputs: u64 = timed.iter().map(|r| r.counts.inputs).sum();
    let t_events: u64 = timed.iter().map(|r| r.counts.events).sum();
    let t_handle_ns: u64 = timed.iter().map(|r| r.handle_ns).sum();
    let t_apply_ns: u64 = timed.iter().map(|r| r.apply_ns).sum();
    let per_failure = |x: u64| x as f64 / total.restarts.max(1) as f64;
    let plain_ns_per_input = wall_s * 1e9 / (total.inputs - t_inputs).max(1) as f64;
    let timed_ns_per_input = t_wall_s * 1e9 / t_inputs.max(1) as f64;
    let mut layer: Vec<(&'static str, f64)> = vec![
        (
            "core.handle_ns",
            (t_handle_ns - t_apply_ns) as f64 / t_inputs.max(1) as f64,
        ),
        ("apps.apply_ns", t_apply_ns as f64 / t_inputs.max(1) as f64),
        ("simnet.events_per_s", t_events as f64 / t_wall_s.max(1e-9)),
        (
            "simnet.self_ns_per_event",
            (t_wall_s * 1e9 - t_handle_ns as f64) / t_events.max(1) as f64,
        ),
        ("core.inputs_per_op", 1.0),
        (
            "core.msgs_per_op",
            total.messages as f64 / total.inputs as f64,
        ),
        ("core.send_log_live", total.send_log_live as f64),
        ("core.rollbacks_per_failure", per_failure(total.rollbacks)),
        (
            "core.max_rollbacks_per_failure",
            total.max_rollbacks_per_failure as f64,
        ),
        ("core.replayed_per_failure", per_failure(total.replayed)),
        ("core.token_msgs_per_failure", per_failure(total.token_msgs)),
        (
            "ftvc.wire_bytes_per_msg",
            total.piggyback_bytes as f64 / total.messages.max(1) as f64,
        ),
        (
            "storage.flushes_per_op",
            total.flushes as f64 / total.inputs as f64,
        ),
        (
            "storage.log_bytes_per_op",
            total.log_bytes as f64 / total.inputs as f64,
        ),
        (
            "storage.ckpt_per_s",
            total.checkpoints as f64 / (wall_s + t_wall_s).max(1e-9),
        ),
        ("proc.cpu_cores", 1.0),
        ("proc.cpu_us_per_op", cpu_us_per_op.unwrap_or(0.0)),
        ("proc.rss_peak_mb", rss_mb.unwrap_or(0.0)),
        ("proc.steal_frac", steal_frac),
        ("proc.threads", proc::threads() as f64),
        (
            "trace.overhead_frac",
            (timed_ns_per_input - plain_ns_per_input) / plain_ns_per_input,
        ),
        ("e2e.commit_p50_ms", median(&sim_ms).expect("plain runs")),
        ("e2e.samples", plain.len() as f64),
        ("sim.runs", runs as f64),
        ("sim.failures", total.restarts as f64),
        ("sim.inputs", total.inputs as f64),
        ("sim.rollbacks", total.rollbacks as f64),
        ("sim.replayed", total.replayed as f64),
        ("sim.token_msgs", total.token_msgs as f64),
    ];
    layer.extend(layers::micro(N, seed));
    out.per_layer = layer;
    for (name, from, to) in [
        ("setup", epoch, setup_done),
        ("window", setup_done, window_done),
        ("workload", epoch, Instant::now()),
    ] {
        spans.push(Span::new(
            name,
            lane::WORKLOAD,
            if name == "workload" { "" } else { "workload" },
            from,
            to,
        ));
    }
    trace::write_chrome(
        &crate::out_dir().join(format!("trace-{}.json", wl.name)),
        epoch,
        &spans,
    )
    .map_err(|e| format!("trace file: {e}"))?;
    Ok(out)
}
