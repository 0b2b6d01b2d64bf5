//! The four service workloads: a fresh `ServiceCluster` in this process,
//! driven over loopback TCP by [`crate::driver`], audited by the repo's
//! oracles before any number is reported.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use dg_core::{DgConfig, EngineView, ProcessId, ProcessStats};
use dg_harness::oracle::{self, Violation};
use dg_harness::service_oracle::{self, ServiceJournal};
use dg_service::{RunConfig, ServiceCluster, ServiceOptions};

use crate::driver::{trace_slice_on, Conn, PassStats, Plan, Sample};
use crate::layers;
use crate::proc;
use crate::schedule::{self, Kind, Request, Traffic};
use crate::stats::{median, percentile};
use crate::trace::{self, lane, Span};
use crate::{describe, Outcome, WorkloadSpec};

/// The protocol profile every service workload runs: the one E18 and
/// `service_demo` serve with. Fixed here so that a change of defaults in
/// `DgConfig` shows up as a change in the numbers, not as a silent
/// change of the benchmark.
pub fn profile() -> DgConfig {
    DgConfig::fast_test()
        .with_retransmit(true)
        .with_gossip(8_000)
        .with_gc(true)
        .with_history_gc(true)
        .with_reliable_tokens(true)
}

/// Runtime knobs of every cluster the benchmark launches. The probe
/// interval only paces `quiesce`; 3 x 50 ms of silence with nothing
/// pending anywhere is quiescence enough on loopback, and the oracles
/// run afterwards either way.
pub fn run_config(spec: &ServiceSpec) -> RunConfig {
    RunConfig {
        probe_interval: Duration::from_millis(50),
        node_threads: spec.node_threads,
        ..RunConfig::default()
    }
}

/// Driver connections: connection `c` talks to front `c` only.
pub const CONNS: usize = 2;
/// A request acked later than this after it was due missed the limit.
pub const SLO: Duration = Duration::from_millis(50);
/// Traffic before the window, so that it starts on warm caches, grown
/// tables and established mesh connections.
pub const WARM_UP: Duration = Duration::from_secs(1);
/// How long a crashed node stays down.
pub const DOWNTIME: Duration = Duration::from_millis(100);
/// Times a cluster is launched, connected to and primed per run; the
/// median is `setup_s` and the last cluster is the one measured.
const SETUP_REPS: usize = 5;
/// Writes per key during set-up. One round takes 30 ms, give or take a
/// whole 8 ms scheduler tick somewhere on the path — a quarter of the
/// figure; sixteen round trips make set-up long enough to repeat.
const PRIME_ROUNDS: u16 = 8;
const STATUS_POLL: Duration = Duration::from_millis(100);
/// The window is cut into slices of this length: the tail latency is a
/// median over them, and `/proc` is read at their boundaries.
const SLICE: Duration = Duration::from_secs(1);
/// Past this resident set the run is abandoned (the largest healthy
/// window seen is under 300 MiB).
const RSS_LIMIT_MB: f64 = 4096.0;
/// Requests a slice of the tail-latency median should hold.
const TAIL_SLICE_SAMPLES: f64 = 2_000.0;

/// Process CPU time and resident set at one moment of the window.
#[derive(Debug, Clone, Copy)]
struct Reading {
    /// Since the start of the pass (warm-up included).
    at: Duration,
    cpu_ns: u64,
    rss_mb: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    pub n: usize,
    pub node_threads: Option<usize>,
    pub traffic: Traffic,
    /// Offered load, open loop: requests arrive on schedule whatever the
    /// system does.
    pub rate_ops_s: f64,
    /// Crash a non-front node every second of the window.
    pub crashes: bool,
}

/// Offsets into the window at which `crash-n4` crashes a node: 0.5 s,
/// 1.5 s, ... for as long as half a second of window follows — room for
/// the outage and the recovery before the next one.
pub fn crash_offsets(window: Duration) -> Vec<Duration> {
    (0..)
        .map(|k| Duration::from_millis(500 + 1000 * k))
        .take_while(|&at| at + Duration::from_millis(500) <= window)
        .collect()
}

fn sleep_until(at: Instant) {
    thread::sleep(at.saturating_duration_since(Instant::now()));
}

struct Ready {
    svc: ServiceCluster,
    conns: Vec<Conn>,
    launch: Duration,
    total: Duration,
}

/// Launch a cluster, connect the driver, and write every key
/// [`PRIME_ROUNDS`] times through the front door (session `s` puts key
/// `s`, 64 in flight per connection), which brings up the mesh
/// connections, the session tables and the owners' maps.
fn set_up(spec: &ServiceSpec) -> Result<Ready, String> {
    let t0 = Instant::now();
    let svc = ServiceCluster::launch_opts(
        spec.n,
        profile(),
        None,
        ServiceOptions {
            run: run_config(spec),
            ..ServiceOptions::default()
        },
    )
    .map_err(|e| format!("launch: {e}"))?;
    let launch = t0.elapsed();
    let mut conns = Vec::with_capacity(CONNS);
    for (c, front) in svc.fronts().into_iter().take(CONNS).enumerate() {
        conns.push(Conn::connect(c, front).map_err(|e| format!("connect: {e}"))?);
    }
    let start = Instant::now();
    thread::scope(|scope| {
        for (c, conn) in conns.iter_mut().enumerate() {
            let requests: Vec<Request> = (0..PRIME_ROUNDS)
                .flat_map(|_| 0..spec.traffic.keys)
                .filter(|k| usize::from(*k) % CONNS == c)
                .map(|k| Request {
                    due_us: 0,
                    session: u64::from(k),
                    key: k,
                    kind: Kind::Put,
                })
                .collect();
            scope.spawn(move || {
                conn.run(Plan {
                    requests,
                    in_flight: 64,
                    start,
                    measure_from: Duration::ZERO,
                    measure_to: Duration::ZERO,
                    trace: false,
                })
            });
        }
    });
    let primed: usize = conns.iter().map(|c| c.journal.acked_writes.len()).sum();
    if primed != usize::from(PRIME_ROUNDS) * usize::from(spec.traffic.keys) {
        return Err(format!("set-up: only {primed} priming writes acknowledged"));
    }
    Ok(Ready {
        svc,
        conns,
        launch,
        total: t0.elapsed(),
    })
}

/// What the status poller of a traced run saw.
#[derive(Debug, Default)]
struct Polled {
    pending_outputs_max: usize,
    in_flight_max: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[allow(clippy::too_many_lines)]
pub fn run(
    wl: &WorkloadSpec,
    spec: &ServiceSpec,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();

    // --- set-up, several times; the last cluster is the one measured ---
    let mut setups = Vec::new();
    let mut launches = Vec::new();
    let mut shutdowns = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let began = Instant::now();
        let ready = set_up(spec)?;
        setups.push(ready.total.as_secs_f64());
        launches.push(ms(ready.launch));
        if rep + 1 < SETUP_REPS {
            drop(ready.conns);
            // Not optional: `Cluster::shutdown` stops one node thread at
            // a time, and a thread still working through replication
            // traffic then retries connects to listeners that are gone
            // (5 x 10 ms each) faster than it drains its queue. With 16
            // nodes on two threads that never ended. An idle cluster
            // shuts down in milliseconds.
            if !ready.svc.quiesce(Duration::from_secs(20)) {
                return Err("set-up: cluster did not quiesce".into());
            }
            let t = Instant::now();
            drop(ready.svc.shutdown());
            shutdowns.push(ms(t.elapsed()));
        } else {
            spans.push(Span::new(
                "setup",
                lane::WORKLOAD,
                "workload",
                began,
                Instant::now(),
            ));
            kept = Some(ready);
        }
    }
    let Ready { svc, mut conns, .. } = kept.expect("last repetition kept");
    let setup_s = median(&setups).expect("repetitions");

    // --- the schedule: a pure function of the seed ---
    let warm_us = WARM_UP.as_micros() as u64;
    let window_us = window.as_micros() as u64;
    let mut all = schedule::open(seed ^ 0x5741_524D, &spec.traffic, spec.rate_ops_s, warm_us);
    let measured = schedule::open(seed, &spec.traffic, spec.rate_ops_s, window_us);
    let schedule_fp = schedule::fingerprint(measured.iter().copied());
    all.extend(measured.into_iter().map(|mut r| {
        r.due_us += warm_us;
        r
    }));
    // A session's requests all travel on one connection, so that its
    // committed replies find their way back to whoever reads them.
    let shares: Vec<Vec<Request>> = (0..CONNS)
        .map(|c| {
            all.iter()
                .filter(|r| r.session as usize % CONNS == c)
                .copied()
                .collect()
        })
        .collect();

    // --- warm-up, window, drain ---
    let start = Instant::now() + Duration::from_millis(20);
    let window_start = start + WARM_UP;
    let window_end = window_start + window;
    let crash_plan: Vec<(Duration, ProcessId)> = if spec.crashes {
        crash_offsets(window)
            .into_iter()
            .enumerate()
            // Never a front the driver is connected to: what is timed is
            // the system's recovery, not this client's reconnect policy.
            .map(|(k, at)| (at, ProcessId(if k % 2 == 0 { 2 } else { 3 })))
            .collect()
    } else {
        Vec::new()
    };
    let window_over = AtomicBool::new(false);

    struct Window {
        passes: Vec<PassStats>,
        crashes: Vec<(Duration, ProcessId)>,
        polled: Polled,
        /// What `/proc` said at each slice boundary of the window.
        readings: Vec<Reading>,
        steal_frac: f64,
        threads: u64,
        statuses: Vec<dg_netrun::NodeStatus>,
    }

    let w: Window = thread::scope(|scope| {
        let drivers: Vec<_> = conns
            .iter_mut()
            .zip(shares)
            .map(|(conn, requests)| {
                scope.spawn(move || {
                    conn.run(Plan {
                        requests,
                        in_flight: usize::MAX,
                        start,
                        measure_from: WARM_UP,
                        measure_to: WARM_UP + window,
                        trace: traced,
                    })
                })
            })
            .collect();
        let svc = &svc;
        let crasher = scope.spawn({
            let crash_plan = &crash_plan;
            move || {
                let mut called = Vec::new();
                for &(at, victim) in crash_plan {
                    sleep_until(window_start + at);
                    called.push((Instant::now().saturating_duration_since(start), victim));
                    svc.crash(victim, DOWNTIME);
                }
                called
            }
        });
        let poller = scope.spawn({
            let window_over = &window_over;
            move || {
                let mut polled = Polled::default();
                if !traced {
                    return polled;
                }
                sleep_until(window_start);
                while !window_over.load(Ordering::Relaxed) {
                    if trace_slice_on(Instant::now().saturating_duration_since(window_start)) {
                        for s in svc.statuses() {
                            polled.pending_outputs_max =
                                polled.pending_outputs_max.max(s.pending_outputs);
                            polled.in_flight_max = polled.in_flight_max.max(s.svc_in_flight);
                        }
                    }
                    thread::sleep(STATUS_POLL);
                }
                polled
            }
        });

        sleep_until(window_start);
        let steal_from = proc::steal_ticks();
        let slices = (window.as_millis() / SLICE.as_millis()) as u32;
        let readings: Vec<Reading> = (0..=slices)
            .map(|i| {
                sleep_until(window_start + SLICE * i);
                let reading = Reading {
                    at: Instant::now().saturating_duration_since(start),
                    cpu_ns: proc::process_cpu_ns(),
                    rss_mb: proc::rss_mb(),
                };
                // A cluster that falls behind queues without bound (its
                // event channels have none): 16 nodes at 2 000 ops/s once
                // took 16 GiB and the box with it. Give up first.
                if reading.rss_mb > RSS_LIMIT_MB {
                    eprintln!(
                        "FAILED {}: resident set {:.0} MiB, the cluster is not keeping up",
                        wl.name, reading.rss_mb
                    );
                    std::process::exit(3);
                }
                reading
            })
            .collect();
        let steal_frac = proc::steal_frac(steal_from, proc::steal_ticks());
        let threads = proc::threads();
        window_over.store(true, Ordering::Relaxed);
        let statuses = svc.statuses();

        Window {
            passes: drivers
                .into_iter()
                .map(|d| d.join().expect("driver thread panicked"))
                .collect(),
            crashes: crasher.join().expect("crash thread panicked"),
            polled: poller.join().expect("poller thread panicked"),
            readings,
            steal_frac,
            threads,
            statuses,
        }
    });
    let drained_at = Instant::now();
    for (name, from, to) in [
        ("warmup", start, window_start),
        ("window", window_start, window_end),
        ("drain", window_end, drained_at),
    ] {
        spans.push(Span::new(name, lane::WORKLOAD, "workload", from, to));
    }

    // --- audit: nothing is reported from a run the oracles reject ---
    let t = Instant::now();
    let quiesced = svc.quiesce(Duration::from_secs(20));
    let quiesce_ms = ms(t.elapsed());
    let front_metrics: Vec<(u64, u64, u64, u64)> = (0..spec.n)
        .map(|i| {
            let f = svc.metrics().front(i);
            (
                f.admitted.load(Ordering::Relaxed),
                f.shed.load(Ordering::Relaxed),
                f.batch_hist.iter().map(|b| b.load(Ordering::Relaxed)).sum(),
                f.slow_disconnects.load(Ordering::Relaxed),
            )
        })
        .collect();
    let lifetime_s = epoch.elapsed().as_secs_f64();
    let t = Instant::now();
    let (engines, facts) = svc.shutdown();
    shutdowns.push(ms(t.elapsed()));

    let audit_from = Instant::now();
    let mut journal = ServiceJournal::default();
    let mut reconnects = 0;
    for conn in conns {
        journal.acked_writes.extend(conn.journal.acked_writes);
        journal.unacked_writes.extend(conn.journal.unacked_writes);
        journal.observed_gets.extend(conn.journal.observed_gets);
        journal.responses.extend(conn.journal.responses);
        reconnects += conn.reconnects;
    }
    let mut violations: Vec<Violation> = Vec::new();
    service_oracle::check_service(&journal, &facts, &mut violations);
    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    oracle::check_views(&views, &mut violations);
    let oracle_ms = ms(audit_from.elapsed());
    spans.push(Span::new(
        "audit",
        lane::WORKLOAD,
        "workload",
        drained_at,
        Instant::now(),
    ));
    if !quiesced {
        violations.push(Violation("cluster did not quiesce within 20 s".into()));
    }
    let per_node: Vec<&ProcessStats> = engines.iter().map(EngineView::stats).collect();
    let restarts: u64 = per_node.iter().map(|s| s.restarts).sum();
    if restarts != w.crashes.len() as u64 {
        violations.push(Violation(format!(
            "{} crashes injected but {restarts} restarts recorded",
            w.crashes.len()
        )));
    }
    if !violations.is_empty() {
        return Err(describe(wl.name, &violations));
    }

    // --- the numbers ---
    let mut samples: Vec<Sample> = Vec::new();
    let mut late_us = Vec::new();
    let (mut issued, mut acked, mut abandoned) = (0u64, 0u64, 0u64);
    let (mut retries, mut retry_hints, mut shed_frames, mut driver_cpu_ns) =
        (0u64, 0u64, 0u64, 0u64);
    for pass in w.passes {
        samples.extend(pass.samples);
        late_us.extend(pass.late_us);
        issued += pass.issued;
        acked += pass.acked;
        abandoned += pass.abandoned;
        retries += pass.retries;
        retry_hints += pass.retry_hints;
        shed_frames += pass.shed;
        driver_cpu_ns += pass.cpu_ns;
        spans.extend(pass.spans);
    }
    if acked == 0 {
        return Err(format!("{}: no request was acknowledged", wl.name));
    }
    let latencies: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    let p50 = median(&latencies).expect("acked > 0");
    let p99 = percentile(&latencies, 0.99)
        .ok_or_else(|| format!("{}: {acked} samples are too few for p99", wl.name))?;
    // The tail is the median, over slices of the window, of the p99 of
    // the requests due in the slice: one stall of the box spoils one
    // slice, not the figure. A slice is whole seconds long and holds
    // some 2 000 requests, 20 of them beyond its p99.
    let tail_slice = SLICE * (TAIL_SLICE_SAMPLES / spec.rate_ops_s).ceil().max(1.0) as u32;
    let slices = w.readings.len() - 1;
    let slice_p99: Vec<f64> = (0..)
        .map(|i| WARM_UP + tail_slice * i)
        .take_while(|&from| from + tail_slice <= WARM_UP + window)
        .filter_map(|from| {
            let due_here: Vec<f64> = samples
                .iter()
                .filter(|s| s.due >= from && s.due < from + tail_slice)
                .map(Sample::latency_ms)
                .collect();
            percentile(&due_here, 0.99)
        })
        .collect();
    let tail_p99 = median(&slice_p99)
        .ok_or_else(|| format!("{}: no slice has enough samples for p99", wl.name))?;
    // CPU per operation, over the whole window and over its first and
    // last slice: state that grows with run time shows as the difference.
    let cpu_us_per_op = |from: usize, to: usize| {
        let (a, b) = (w.readings[from], w.readings[to]);
        let done = samples
            .iter()
            .filter(|s| s.done >= a.at && s.done < b.at)
            .count();
        b.cpu_ns.saturating_sub(a.cpu_ns) as f64 / 1e3 / done.max(1) as f64
    };
    let cpu_ns = w.readings[slices]
        .cpu_ns
        .saturating_sub(w.readings[0].cpu_ns);
    let rss_peak_mb = w.readings.iter().map(|r| r.rss_mb).fold(0.0, f64::max);
    let last_done = samples.iter().map(|s| s.done).max().expect("acked > 0");
    let elapsed_s = last_done.saturating_sub(WARM_UP).max(window).as_secs_f64();
    let goodput = acked as f64 / elapsed_s;
    let slo_ms = ms(SLO);
    let within = latencies.iter().filter(|&&l| l <= slo_ms).count() as u64;
    let slo_miss_frac = (issued - within) as f64 / issued as f64;

    // Unavailability: from the call that crashes a node to the first
    // committed reply to a request for one of its keys that was due
    // after that call.
    let mut unavail = Vec::new();
    for &(called, victim) in &w.crashes {
        let first = samples
            .iter()
            .filter(|s| usize::from(s.key) % spec.n == victim.index() && s.due >= called)
            .map(|s| s.done)
            .min()
            .ok_or_else(|| format!("{}: no reply for {victim}'s keys after its crash", wl.name))?;
        unavail.push(ms(first.saturating_sub(called)));
        for (name, parent, from, to) in [
            ("crash", "window", called, first),
            ("down", "crash", called, called + DOWNTIME),
            (
                "restart_to_first_reply",
                "crash",
                called + DOWNTIME,
                first.max(called + DOWNTIME),
            ),
        ] {
            spans.push(Span::new(
                name,
                lane::CRASH,
                parent,
                start + from,
                start + to,
            ));
        }
    }
    let unavail_ms = median(&unavail).unwrap_or(0.0);

    // Where nodes crash, the slowest waits that still repeat from run to
    // run *are* the outages: the overall p99 sits on the plateau of the
    // client's 300 ms retry timer or just below it, depending on how many
    // requests happened to fall into outages.
    let tail = if spec.crashes { unavail_ms } else { tail_p99 };

    let mut out = Outcome {
        attempted: issued,
        failed: abandoned,
        schedule_fingerprint: schedule_fp,
        ..Outcome::default()
    };
    out.end_to_end = vec![
        ("setup_s", setup_s),
        ("commit_p50_ms", p50),
        ("commit_tail_ms", tail),
        ("goodput_ops_s", goodput),
    ];
    out.notes = vec![
        ("samples", acked as f64),
        ("proc.cpu_us_per_op", cpu_us_per_op(0, slices)),
        ("proc.rss_peak_mb", rss_peak_mb),
        ("proc.steal_frac", w.steal_frac),
        ("commit_p99_ms", p99),
        ("unavail_ms", unavail_ms),
        ("slo_miss_frac", slo_miss_frac),
        (
            "driver.late_p99_us",
            percentile(&late_us, 0.99).unwrap_or(0.0),
        ),
    ];
    if !traced {
        return Ok(out);
    }

    // --- per-layer metrics of the traced pass ---
    let total_acked = (journal.acked_writes.len() + journal.observed_gets.len()) as f64;
    let sum = |f: fn(&ProcessStats) -> u64| per_node.iter().map(|s| f(s)).sum::<u64>() as f64;
    let per_failure = |x: f64| {
        if restarts == 0 {
            0.0
        } else {
            x / restarts as f64
        }
    };
    let on_off = |on: bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| trace_slice_on(s.due.saturating_sub(WARM_UP)) == on)
            .map(Sample::latency_ms)
            .collect();
        median(&v).unwrap_or(p50)
    };
    let (p50_on, p50_off) = (on_off(true), on_off(false));
    let side = layers::side_harness(spec, seed, window.min(Duration::from_secs(5)), &mut spans)?;
    let recovery: Vec<f64> = unavail.iter().map(|u| u - ms(DOWNTIME)).collect();
    let admitted: u64 = front_metrics.iter().map(|f| f.0).sum();
    let batches: u64 = front_metrics.iter().map(|f| f.2).sum();
    let messages = sum(|s| s.messages_sent);
    let mut layer: Vec<(&'static str, f64)> = vec![
        ("core.inputs_per_op", sum(|s| s.inputs) / total_acked),
        ("core.msgs_per_op", messages / total_acked),
        (
            "core.send_log_live",
            per_node
                .iter()
                .map(|s| s.send_log_high_water)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "core.rollbacks_per_failure",
            per_failure(sum(|s| s.rollbacks)),
        ),
        (
            "core.max_rollbacks_per_failure",
            per_node
                .iter()
                .map(|s| s.max_rollbacks_per_failure())
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "core.replayed_per_failure",
            per_failure(sum(|s| s.messages_replayed)),
        ),
        (
            "core.token_msgs_per_failure",
            per_failure(sum(|s| s.token_wire_msgs)),
        ),
        (
            "core.outputs_pending_max",
            w.polled.pending_outputs_max as f64,
        ),
        (
            "ftvc.wire_bytes_per_msg",
            if messages > 0.0 {
                sum(|s| s.piggyback_bytes) / messages
            } else {
                0.0
            },
        ),
        ("storage.flushes_per_op", sum(|s| s.flushes) / total_acked),
        (
            "storage.log_bytes_per_op",
            sum(|s| s.log_bytes_flushed) / total_acked,
        ),
        (
            "storage.ckpt_per_s",
            sum(|s| s.checkpoints_taken) / lifetime_s,
        ),
        ("netrun.commit_p50_ms", side.commit_p50_ms),
        ("netrun.commit_p99_ms", side.commit_p99_ms),
        ("netrun.launch_ms", median(&launches).expect("repetitions")),
        ("netrun.quiesce_ms", quiesce_ms),
        (
            "netrun.shutdown_ms",
            median(&shutdowns).expect("repetitions"),
        ),
        (
            "netrun.restart_to_first_reply_ms",
            median(&recovery).unwrap_or(0.0),
        ),
        (
            "netrun.restart_to_first_reply_min_ms",
            recovery.iter().copied().reduce(f64::min).unwrap_or(0.0),
        ),
        (
            "netrun.restart_to_first_reply_max_ms",
            recovery.iter().copied().reduce(f64::max).unwrap_or(0.0),
        ),
        (
            "netrun.frames_dropped",
            w.statuses.iter().map(|s| s.frames_dropped).sum::<u64>() as f64,
        ),
        (
            "netrun.frames_corrupt",
            w.statuses.iter().map(|s| s.frames_corrupt).sum::<u64>() as f64,
        ),
        ("apps.apply_ns", side.apply_ns),
        ("service.front_p50_ms", p50 - side.commit_p50_ms),
        (
            "service.batch_mean",
            admitted as f64 / batches.max(1) as f64,
        ),
        ("service.admitted", admitted as f64),
        (
            "service.shed",
            front_metrics.iter().map(|f| f.1).sum::<u64>() as f64,
        ),
        ("service.in_flight_max", w.polled.in_flight_max as f64),
        (
            "service.slow_disconnects",
            front_metrics.iter().map(|f| f.3).sum::<u64>() as f64,
        ),
        (
            "driver.late_p99_us",
            percentile(&late_us, 0.99).unwrap_or(0.0),
        ),
        ("driver.retries_per_op", retries as f64 / issued as f64),
        ("driver.retry_hints", retry_hints as f64),
        ("driver.shed_frames", shed_frames as f64),
        ("driver.reconnects", reconnects as f64),
        ("driver.abandoned", abandoned as f64),
        (
            "driver.cpu_us_per_op",
            driver_cpu_ns as f64 / 1e3 / acked as f64,
        ),
        ("proc.cpu_cores", cpu_ns as f64 / 1e9 / window.as_secs_f64()),
        ("proc.cpu_us_per_op", cpu_us_per_op(0, slices)),
        ("proc.cpu_us_per_op_first_s", cpu_us_per_op(0, 1)),
        (
            "proc.cpu_us_per_op_last_s",
            cpu_us_per_op(slices - 1, slices),
        ),
        ("proc.rss_peak_mb", rss_peak_mb),
        ("proc.steal_frac", w.steal_frac),
        (
            "proc.rss_growth_mb",
            w.readings[slices].rss_mb - w.readings[slices / 4].rss_mb,
        ),
        ("proc.threads", w.threads as f64),
        ("harness.oracle_ms", oracle_ms),
        ("trace.overhead_frac", (p50_on - p50_off) / p50_off),
        ("e2e.commit_p50_ms", p50),
        ("e2e.commit_p99_ms", p99),
        ("e2e.unavail_ms", unavail_ms),
        ("e2e.slo_miss_frac", slo_miss_frac),
        ("e2e.fail_frac", abandoned as f64 / issued as f64),
        ("e2e.samples", acked as f64),
    ];
    layer.extend(layers::micro(spec.n, seed));
    out.per_layer = layer;
    spans.push(Span::new(
        "workload",
        lane::WORKLOAD,
        "",
        epoch,
        Instant::now(),
    ));
    trace::write_chrome(
        &crate::out_dir().join(format!("trace-{}.json", wl.name)),
        epoch,
        &spans,
    )
    .map_err(|e| format!("trace file: {e}"))?;
    Ok(out)
}
