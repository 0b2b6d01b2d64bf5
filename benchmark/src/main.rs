//! One benchmark for the whole stack. See `README.md` beside this
//! package for what each workload and metric is for; `BENCHMARK.json` at
//! the root of the repository is the contract this binary implements.
//!
//! ```text
//! dg-benchmark [run] --workload <name|all> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
//! dg-benchmark compare <dir-a> <dir-b>
//! ```
//!
//! `run` prints every metric by name with its unit, then — as the last
//! line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of an
//! untraced run (`--trace 0`), the per-layer metrics of a traced one. A
//! run the oracles reject prints no metrics and exits non-zero.

mod compare;
mod driver;
mod json;
mod layers;
mod proc;
mod schedule;
mod service;
mod simwl;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use schedule::Traffic;
use service::ServiceSpec;

#[derive(Debug, Clone, Copy)]
pub enum WorkloadKind {
    Service(ServiceSpec),
    Sim,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: WorkloadKind,
}

/// Interactive traffic: many sessions, mostly reads, 256 keys.
const INTERACTIVE: Traffic = Traffic {
    sessions: 20_000,
    keys: 256,
    write_frac: 0.1,
};
const INTERACTIVE_RATE: f64 = 2_000.0;

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "steady-n4",
        why: "open loop 2k ops/s, 10% writes, n=4, idle CPUs: latency is flush+gossip cadence; the failure-free path",
        kind: WorkloadKind::Service(ServiceSpec {
            n: 4,
            node_threads: None,
            traffic: INTERACTIVE,
            rate_ops_s: INTERACTIVE_RATE,
            crashes: false,
        }),
    },
    WorkloadSpec {
        name: "ingest-n4",
        why: "open loop 4k ops/s, 90% writes from 256 writer sessions, n=4: every op replicates to 3 peers, so batching, replication and CPU per op decide latency",
        kind: WorkloadKind::Service(ServiceSpec {
            n: 4,
            node_threads: None,
            traffic: Traffic {
                sessions: 256,
                keys: 256,
                write_frac: 0.9,
            },
            rate_ops_s: 4_000.0,
            crashes: false,
        }),
    },
    WorkloadSpec {
        name: "crash-n4",
        why: "steady-n4 traffic while node 2 or 3 crashes for 100 ms every second: the tail is the outage, the median is the bystanders",
        kind: WorkloadKind::Service(ServiceSpec {
            n: 4,
            node_threads: None,
            traffic: INTERACTIVE,
            rate_ops_s: INTERACTIVE_RATE,
            crashes: true,
        }),
    },
    WorkloadSpec {
        name: "wide-n8",
        why: "steady-n4 traffic at n=8 on two node threads: what grows with n at equal load (clock width, tree gossip, 7-way write fan-out)",
        kind: WorkloadKind::Service(ServiceSpec {
            n: 8,
            node_threads: Some(2),
            traffic: INTERACTIVE,
            rate_ops_s: INTERACTIVE_RATE,
            crashes: false,
        }),
    },
    WorkloadSpec {
        name: "sim-mesh-n32",
        why: "no sockets: 50 seeded 32-process simulator runs, 6 crashes each; op = engine input, latency = simulated ms to quiescence; guards core/ftvc/simnet",
        kind: WorkloadKind::Sim,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// The gating metrics. One bound serves all five workloads, so it is set
/// by the workload on which the metric repeats worst — at least twice
/// the widest spread (inter-quartile range ÷ median over ten seeds) seen
/// while the benchmark was defined, capped at the contract's 0.25: the
/// p50 by `steady-n4`/`crash-n4` (5–7 %), the tail by `steady-n4`/`wide-n8`
/// (8–11 %), goodput by `sim-mesh-n32` (8–16 %: CPU-bound on a shared
/// box), set-up by the simulator (15–28 %; spreads of set-up are not
/// gated, its medians are).
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("commit_p50_ms", "ms", "lower", 0.2),
    e2e("commit_tail_ms", "ms", "lower", 0.25),
    e2e("goodput_ops_s", "ops/s", "higher", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Every per-layer metric a traced run reports; a workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricSpec; 69] = [
    layer("ftvc.observe_ns", "ns", "lower"),
    layer("ftvc.stamp_encode_ns", "ns", "lower"),
    layer("ftvc.stamp_decode_ns", "ns", "lower"),
    layer("ftvc.wire_bytes_per_msg", "B", "lower"),
    layer("core.handle_ns", "ns", "lower"),
    layer("core.inputs_per_op", "count", "lower"),
    layer("core.msgs_per_op", "count", "lower"),
    layer("core.send_log_live", "count", "lower"),
    layer("core.rollbacks_per_failure", "count", "lower"),
    layer("core.max_rollbacks_per_failure", "count", "lower"),
    layer("core.replayed_per_failure", "count", "lower"),
    layer("core.token_msgs_per_failure", "count", "lower"),
    layer("core.wire_encode_ns", "ns", "lower"),
    layer("core.wire_decode_ns", "ns", "lower"),
    layer("core.outputs_pending_max", "count", "lower"),
    layer("storage.flushes_per_op", "count", "lower"),
    layer("storage.log_bytes_per_op", "B", "lower"),
    layer("storage.ckpt_per_s", "1/s", "lower"),
    layer("storage.log_append_ns", "ns", "lower"),
    layer("simnet.events_per_s", "1/s", "higher"),
    layer("simnet.self_ns_per_event", "ns", "lower"),
    layer("netrun.commit_p50_ms", "ms", "lower"),
    layer("netrun.commit_p99_ms", "ms", "lower"),
    layer("netrun.launch_ms", "ms", "lower"),
    layer("netrun.quiesce_ms", "ms", "lower"),
    layer("netrun.shutdown_ms", "ms", "lower"),
    layer("netrun.restart_to_first_reply_ms", "ms", "lower"),
    layer("netrun.restart_to_first_reply_min_ms", "ms", "lower"),
    layer("netrun.restart_to_first_reply_max_ms", "ms", "lower"),
    layer("netrun.frames_dropped", "count", "lower"),
    layer("netrun.frames_corrupt", "count", "lower"),
    layer("apps.apply_ns", "ns", "lower"),
    layer("service.front_p50_ms", "ms", "lower"),
    layer("service.wire_encode_ns", "ns", "lower"),
    layer("service.wire_decode_ns", "ns", "lower"),
    layer("service.batch_mean", "count", "higher"),
    layer("service.admitted", "count", "higher"),
    layer("service.shed", "count", "lower"),
    layer("service.in_flight_max", "count", "lower"),
    layer("service.slow_disconnects", "count", "lower"),
    layer("driver.late_p99_us", "us", "lower"),
    layer("driver.retries_per_op", "count", "lower"),
    layer("driver.retry_hints", "count", "lower"),
    layer("driver.shed_frames", "count", "lower"),
    layer("driver.reconnects", "count", "lower"),
    layer("driver.abandoned", "count", "lower"),
    layer("driver.cpu_us_per_op", "us", "lower"),
    layer("proc.cpu_cores", "cores", "lower"),
    layer("proc.cpu_us_per_op", "us", "lower"),
    layer("proc.cpu_us_per_op_first_s", "us", "lower"),
    layer("proc.cpu_us_per_op_last_s", "us", "lower"),
    layer("proc.rss_peak_mb", "MiB", "lower"),
    layer("proc.rss_growth_mb", "MiB", "lower"),
    layer("proc.steal_frac", "fraction", "lower"),
    layer("proc.threads", "count", "lower"),
    layer("harness.oracle_ms", "ms", "lower"),
    layer("trace.overhead_frac", "fraction", "lower"),
    layer("e2e.commit_p50_ms", "ms", "lower"),
    layer("e2e.commit_p99_ms", "ms", "lower"),
    layer("e2e.unavail_ms", "ms", "lower"),
    layer("e2e.slo_miss_frac", "fraction", "lower"),
    layer("e2e.fail_frac", "fraction", "lower"),
    layer("e2e.samples", "count", "higher"),
    layer("sim.inputs", "count", "lower"),
    layer("sim.rollbacks", "count", "lower"),
    layer("sim.replayed", "count", "lower"),
    layer("sim.token_msgs", "count", "lower"),
    layer("sim.failures", "count", "lower"),
    layer("sim.runs", "count", "higher"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Fingerprint of the generated inputs (simulator: of the counts).
    pub schedule_fingerprint: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Numbers worth printing that are not part of the result line.
    pub notes: Vec<(&'static str, f64)>,
}

/// How long one run measures under the contract, seconds.
const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, from the tables above (`dg-benchmark spec`).
fn spec_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let list = |out: &mut String, key: &str, rows: Vec<String>| {
        let _ = writeln!(
            out,
            "  \"{key}\": [\n    {}\n  ]{}",
            rows.join(",\n    "),
            if key == "per_layer" { "" } else { "," }
        );
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    list(&mut out, "workloads", workloads);
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut row = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better)
        );
        if bounded {
            let _ = write!(row, ", \"bound\": {}", m.bound);
        }
        row.push('}');
        row
    };
    list(
        &mut out,
        "end_to_end",
        END_TO_END.iter().map(|m| metric(m, true)).collect(),
    );
    list(
        &mut out,
        "per_layer",
        PER_LAYER.iter().map(|m| metric(m, false)).collect(),
    );
    out.push_str("}\n");
    out
}

/// What an audit found, for standard error: the count and the first ten.
pub fn describe(workload: &str, violations: &[dg_harness::oracle::Violation]) -> String {
    let mut msg = format!("{workload}: {} violations", violations.len());
    for v in violations.iter().take(10) {
        let _ = write!(msg, "\n  {v}");
    }
    msg
}

/// Where result and trace files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: out_dir().join("last"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Run one workload; print its metrics and its result line; write its
/// result file.
fn run_one(wl: &WorkloadSpec, args: &Args, machine: &proc::Machine) -> Result<(), String> {
    let window = Duration::from_secs(args.seconds);
    let outcome = match &wl.kind {
        WorkloadKind::Service(spec) => service::run(wl, spec, args.seed, window, args.trace)?,
        WorkloadKind::Sim => simwl::run(wl, args.seed, window, args.trace)?,
    };
    let (table, produced): (&[MetricSpec], &[(&'static str, f64)]) = if args.trace {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    if let Some((stray, _)) = produced
        .iter()
        .find(|(n, _)| !table.iter().any(|m| m.name == *n))
    {
        return Err(format!(
            "{}: metric `{stray}` is not in the metric table",
            wl.name
        ));
    }
    let metrics: Vec<(&str, f64, &str)> = table
        .iter()
        .map(|m| {
            let value = produced
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m.name, value, m.unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("{:<14} {name:<38} {value:>16.4} {unit}", wl.name);
    }
    for (name, value) in &outcome.notes {
        println!("{:<14} ({name:<36}) {value:>16.4}", wl.name);
    }
    let result = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json::metrics_object(&metrics)
    );

    let mut file = String::from("{\n");
    let _ = writeln!(file, "  \"workload\": {},", json::quote(wl.name));
    let _ = writeln!(file, "  \"seed\": {},", args.seed);
    let _ = writeln!(file, "  \"window_seconds\": {},", args.seconds);
    let _ = writeln!(file, "  \"trace\": {},", u8::from(args.trace));
    let _ = writeln!(
        file,
        "  \"profile\": {},",
        json::quote(&format!("{:?}", service::profile()))
    );
    let _ = writeln!(
        file,
        "  \"inputs_fingerprint\": \"{:016x}\",",
        outcome.schedule_fingerprint
    );
    let _ = writeln!(
        file,
        "  \"machine\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \"git_commit\": {}}},",
        machine.nproc,
        json::quote(&machine.cpu_model),
        json::quote(&machine.kernel),
        json::quote(&machine.rustc),
        json::quote(&machine.git_commit)
    );
    let notes: Vec<(&str, f64, &str)> = outcome.notes.iter().map(|(n, v)| (*n, *v, "")).collect();
    let _ = writeln!(file, "  \"notes\": {},", json::metrics_object(&notes));
    let _ = writeln!(file, "  \"result\": {result}\n}}");
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = args.out.join(format!(
        "{}-seed{}-trace{}-{stamp}.json",
        wl.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, file))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // The result line is the last thing on standard output.
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = match argv.first().map(String::as_str) {
        Some("compare") => {
            return match compare::main(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("spec") => {
            print!("{}", spec_json());
            return ExitCode::SUCCESS;
        }
        Some("run") => &argv[1..],
        _ => &argv[..],
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: dg-benchmark [run] --workload <name|all> --seed <u64> --seconds <1..60> --trace <0|1> [--out <dir>]");
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<&WorkloadSpec> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || args.workload == w.name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "no workload `{}`; there are: all, {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    let machine = proc::Machine::read();
    let mut code = ExitCode::SUCCESS;
    for wl in chosen {
        if let Err(e) = run_one(wl, &args, &machine) {
            eprintln!("FAILED {e}");
            code = ExitCode::FAILURE;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(
                well_formed(name),
                "`{name}` must match [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// `BENCHMARK.json` is the contract; the tables above are what the
    /// binary reports. They must say the same thing, and the contract's
    /// own limits must hold.
    #[test]
    fn benchmark_json_is_what_the_binary_reports() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            json::parse(&spec_json()).expect("spec parses"),
            "regenerate with `dg-benchmark spec > BENCHMARK.json`"
        );
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|m| unit_ok(m.unit)));
        // All runs the contract's driver makes must fit its time cap:
        // 4 + 22 per workload, each about the window plus 4 s of set-up,
        // warm-up, drain and audit (traced: plus the side harness).
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(
            runs * (RUN_SECONDS + 6) < 3420 - 300,
            "{runs} runs do not fit"
        );
    }

    /// Every name a smoke run prints is in the tables — hence, by the
    /// test above, in `BENCHMARK.json` — and every table entry is printed.
    #[test]
    fn smoke_run_reports_exactly_the_listed_metrics() {
        let window = Duration::from_secs(2);
        let mut layers_seen = BTreeSet::new();
        for wl in &WORKLOADS {
            for traced in [false, true] {
                let outcome = match &wl.kind {
                    WorkloadKind::Service(spec) => service::run(wl, spec, 7, window, traced),
                    WorkloadKind::Sim => simwl::run(wl, 7, window, traced),
                }
                .unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(outcome.failed, 0, "{}", wl.name);
                let (table, produced): (&[MetricSpec], _) = if traced {
                    (&PER_LAYER, &outcome.per_layer)
                } else {
                    (&END_TO_END, &outcome.end_to_end)
                };
                for (name, value) in produced {
                    assert!(
                        table.iter().any(|m| m.name == *name),
                        "{}: `{name}` is not listed",
                        wl.name
                    );
                    assert!(value.is_finite(), "{}: `{name}` = {value}", wl.name);
                }
                if traced {
                    layers_seen.extend(produced.iter().map(|(n, _)| *n));
                } else {
                    let names: Vec<&str> = produced.iter().map(|(n, _)| *n).collect();
                    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
                    assert!(
                        produced.iter().all(|(_, v)| *v > 0.0),
                        "{}: {produced:?}",
                        wl.name
                    );
                }
            }
        }
        let listed: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(
            layers_seen, listed,
            "a listed per-layer metric that no workload measures"
        );
    }

    #[test]
    fn crash_schedule_scales_with_the_window() {
        let ms = |v: Vec<Duration>| v.iter().map(Duration::as_millis).collect::<Vec<_>>();
        assert_eq!(
            ms(service::crash_offsets(Duration::from_secs(10))),
            [500, 1500, 2500, 3500, 4500, 5500, 6500, 7500, 8500, 9500]
        );
        assert_eq!(
            ms(service::crash_offsets(Duration::from_secs(2))),
            [500, 1500]
        );
    }
}
