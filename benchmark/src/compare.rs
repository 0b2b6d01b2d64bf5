//! `compare <dir-a> <dir-b>`: two sets of untraced result files, one row
//! per workload × end-to-end metric.
//!
//! A row is `worse` (or `better`) when B's median differs from A's by
//! more than the metric's bound, `same` when it does not, and
//! `unresolved` when either side's own run-to-run spread (distance
//! between its quartiles over its median) is wider than the bound — a
//! difference smaller than the noise is not a finding either way.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use crate::{END_TO_END, WORKLOADS};

/// `workload → metric → values`, plus where, on what and how cleanly the
/// set was measured.
struct ResultSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    provenance: Vec<String>,
    seeds: BTreeSet<u64>,
    runs: usize,
    /// Runs during which the hypervisor took more than [`STEAL_LIMIT`] of
    /// the machine's CPU time away.
    disturbed: usize,
}

/// A run that lost more than this share of CPU time to other tenants is
/// counted as disturbed.
const STEAL_LIMIT: f64 = 0.05;

fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet {
        values: BTreeMap::new(),
        provenance: Vec::new(),
        seeds: BTreeSet::new(),
        runs: 0,
        disturbed: 0,
    };
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let field = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Num(x)) => x.to_string(),
            _ => "?".into(),
        };
        let machine = doc.get("machine").cloned().unwrap_or(Value::Null);
        let line = format!(
            "commit {} · {} × {} · kernel {} · {} · {} s windows",
            field(&machine, "git_commit"),
            field(&machine, "nproc"),
            field(&machine, "cpu_model"),
            field(&machine, "kernel"),
            field(&machine, "rustc"),
            field(&doc, "window_seconds"),
        );
        if !set.provenance.contains(&line) {
            set.provenance.push(line);
        }
        set.seeds
            .extend(doc.get("seed").and_then(Value::as_f64).map(|s| s as u64));
        set.runs += 1;
        let steal = doc
            .get("notes")
            .and_then(|n| n.get("proc.steal_frac"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        if steal.is_some_and(|s| s > STEAL_LIMIT) {
            set.disturbed += 1;
        }
        let workload = field(&doc, "workload");
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}: no result.metrics", path.display()))?;
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                set.values
                    .entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(x);
            }
        }
    }
    if set.values.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(set)
}

struct Summary {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let (q1, q3) = quartiles(values).map_or((median, median), |(q1, _, q3)| (q1, q3));
        Some(Summary {
            n: values.len(),
            median,
            q1,
            q3,
        })
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }

    fn cell(&self) -> String {
        format!(
            "{:.4} [{:.4}, {:.4}] n={}",
            self.median, self.q1, self.q3, self.n
        )
    }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: dg-benchmark compare <dir-a> <dir-b>".into());
    };
    let (set_a, set_b) = (load(Path::new(a))?, load(Path::new(b))?);
    for (label, set) in [("A", &set_a), ("B", &set_b)] {
        for line in &set.provenance {
            println!("{label}: {line}");
        }
        println!(
            "{label}: {} runs, seeds {:?}; {} of them lost more than {:.0} % of CPU time to other tenants",
            set.runs,
            set.seeds,
            set.disturbed,
            STEAL_LIMIT * 100.0
        );
    }
    println!(
        "\n{:<13} {:<15} {:<38} {:<38} {:>16} {:>6}  verdict",
        "workload", "metric", "A: median [q1, q3]", "B: median [q1, q3]", "B/A (base A)", "bound"
    );
    let mut worse = 0;
    for wl in &WORKLOADS {
        for m in &END_TO_END {
            let get = |set: &ResultSet| {
                set.values
                    .get(wl.name)
                    .and_then(|w| w.get(m.name))
                    .and_then(|v| Summary::of(v))
            };
            let (Some(sa), Some(sb)) = (get(&set_a), get(&set_b)) else {
                println!(
                    "{:<13} {:<15} missing from one of the sets",
                    wl.name, m.name
                );
                continue;
            };
            // Positive = B is worse than A, as a share of A.
            let sign = if m.better == "lower" { 1.0 } else { -1.0 };
            let worse_by = sign * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
            let verdict = if sa.spread().max(sb.spread()) > m.bound {
                "unresolved"
            } else if worse_by > m.bound {
                worse += 1;
                "worse"
            } else if worse_by < -m.bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{:<13} {:<15} {:<38} {:<38} {:>9.4} of {:<4.4} {:>5.0}%  {verdict}",
                wl.name,
                m.name,
                sa.cell(),
                sb.cell(),
                sb.median / sa.median,
                format!("{:.4}", sa.median),
                m.bound * 100.0,
            );
        }
    }
    if worse > 0 {
        return Err(format!("{worse} rows are worse than their bound allows"));
    }
    Ok(())
}
