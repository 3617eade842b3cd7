//! Perf-regression gate over the machine bench trajectory.
//!
//! Compares the newest document of a candidate `BENCH_machine.json`
//! trajectory against the newest *comparable* entries of a committed
//! baseline trajectory and fails (exit 1) on either of two findings:
//!
//! * **Wall time.** A workload's `steps_per_sec` regressed by more than
//!   the allowed fraction. Two rows are comparable only when their whole
//!   identity tuple matches: bench name, smoke flag, `host_cores`, graph,
//!   cell count, kernel, workers, step count, and (when present) the
//!   epoch/shard sweep dimensions `epoch_cap`/`shard_policy`. Changing
//!   the workload or the host therefore never produces a false
//!   regression — the row simply has no baseline and is reported as
//!   uncompared. Rows faster than the noise floor (`wall_s < 0.01`) are
//!   skipped: sub-10ms medians on a shared CI box jitter far beyond any
//!   useful threshold.
//! * **Work.** A row's `steps` changed. The step count of a simulated
//!   workload is deterministic, so this check ignores `host_cores` (and
//!   `steps` itself): a candidate row that matches a baseline row on
//!   every other identity field must report the newest such baseline
//!   row's `steps`. Unlike wall time, this bites on any host.
//!
//! ```text
//! bench_gate [--baseline <file>] [--candidate <file>] [--max-regress <frac>]
//! ```
//!
//! Defaults: baseline `BENCH_machine.json`, candidate = baseline (the
//! newest doc of the committed trajectory is then gated against its own
//! history), threshold 0.15.

use std::collections::HashMap;

use valpipe_util::Json;

/// Noise floor: medians under this many seconds are too jittery to gate.
const NOISE_FLOOR_WALL_S: f64 = 0.01;

struct Row {
    /// The full identity tuple, host included: wall times compare here.
    key: String,
    /// The identity tuple without `host_cores` and `steps`: step counts
    /// compare here.
    work_key: String,
    steps: i64,
    steps_per_sec: f64,
    wall_s: f64,
}

/// One result row with its identity tuples, or `None` if a field is
/// missing.
fn parse_row(doc: &Json, row: &Json) -> Option<Row> {
    let s = |j: &Json, k: &str| j.get(k).and_then(|v| v.as_str()).map(str::to_string);
    let i = |j: &Json, k: &str| j.get(k).and_then(|v| v.as_i64());
    let b = |j: &Json, k: &str| j.get(k).and_then(|v| v.as_bool());
    let bench = s(doc, "bench")?;
    let mode = if b(doc, "smoke")? { "smoke" } else { "full" };
    let cores = i(doc, "host_cores")?;
    let mut what = format!(
        "{} {}cells {} w{}",
        s(row, "graph")?,
        i(row, "cells")?,
        s(row, "kernel")?,
        i(row, "workers")?,
    );
    let steps = i(row, "steps")?;
    let mut sweep = String::new();
    if let Some(cap) = i(row, "epoch_cap") {
        sweep.push_str(&format!(" cap{cap}"));
    }
    if let Some(policy) = s(row, "shard_policy") {
        sweep.push_str(&format!(" {policy}"));
    }
    let key = format!("{bench}/{mode}/{cores}cores {what} {steps}steps{sweep}");
    what.push_str(&sweep);
    Some(Row {
        key,
        work_key: format!("{bench}/{mode} {what}"),
        steps,
        steps_per_sec: row.get("steps_per_sec")?.as_f64()?,
        wall_s: row.get("wall_s")?.as_f64()?,
    })
}

fn rows_of(doc: &Json) -> Vec<Row> {
    let Some(results) = doc.get("results").and_then(|r| r.as_arr()) else {
        return Vec::new();
    };
    results
        .iter()
        .filter_map(|row| parse_row(doc, row))
        .collect()
}

/// What gating one candidate document found.
#[derive(Debug, Default)]
struct Verdict {
    compared: u32,
    skipped: u32,
    uncompared: u32,
    /// Rows whose deterministic step count matched the baseline's.
    steps_checked: u32,
    /// Wall-time regressions beyond the threshold.
    regressions: Vec<String>,
    /// Rows whose deterministic step count differs from the baseline's.
    step_changes: Vec<String>,
}

impl Verdict {
    fn passed(&self) -> bool {
        self.regressions.is_empty() && self.step_changes.is_empty()
    }
}

/// Gate `candidate` against `baseline_docs` (oldest first); prints one
/// line per compared row.
fn gate(baseline_docs: &[Json], candidate: &Json, max_regress: f64) -> Verdict {
    // Newest comparable row per identity tuple, oldest-to-newest so later
    // docs override earlier ones. Within one doc, keep the best rate (a
    // tuple measured twice — e.g. the default config appearing in both
    // the worker sweep and the epoch sweep — is represented by its best).
    let mut baseline: HashMap<String, f64> = HashMap::new();
    let mut baseline_steps: HashMap<String, i64> = HashMap::new();
    for doc in baseline_docs {
        let mut doc_best: HashMap<String, f64> = HashMap::new();
        for row in rows_of(doc) {
            let best = doc_best.entry(row.key).or_insert(f64::MIN);
            *best = best.max(row.steps_per_sec);
            baseline_steps.insert(row.work_key, row.steps);
        }
        baseline.extend(doc_best);
    }

    let mut v = Verdict::default();
    for row in rows_of(candidate) {
        if let Some(&base_steps) = baseline_steps.get(&row.work_key) {
            if base_steps == row.steps {
                v.steps_checked += 1;
            } else {
                println!(
                    "bench_gate: FAIL  {}: {} steps, baseline has {base_steps}",
                    row.work_key, row.steps
                );
                v.step_changes.push(format!(
                    "{}: {base_steps} -> {} steps",
                    row.work_key, row.steps
                ));
            }
        }
        let Some(&base) = baseline.get(&row.key) else {
            v.uncompared += 1;
            continue;
        };
        if row.wall_s < NOISE_FLOOR_WALL_S {
            println!(
                "bench_gate: SKIP  {} ({}ms median is below the {}ms noise floor)",
                row.key,
                (row.wall_s * 1e3).round(),
                NOISE_FLOOR_WALL_S * 1e3,
            );
            v.skipped += 1;
            continue;
        }
        v.compared += 1;
        let ratio = row.steps_per_sec / base;
        let verdict = if ratio < 1.0 - max_regress {
            v.regressions.push(format!(
                "{}: {:.0} -> {:.0} steps/s ({:+.1}%)",
                row.key,
                base,
                row.steps_per_sec,
                (ratio - 1.0) * 100.0
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "bench_gate: {verdict:<4}  {}  {:.0} -> {:.0} steps/s ({:+.1}%)",
            row.key,
            base,
            row.steps_per_sec,
            (ratio - 1.0) * 100.0,
        );
    }
    v
}

fn load_trajectory(path: &str) -> Vec<Json> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read '{path}': {e}")));
    match Json::parse(&text) {
        Ok(Json::Arr(docs)) => docs,
        Ok(doc @ Json::Obj(_)) => vec![doc],
        _ => fail(&format!("'{path}' is not a bench trajectory")),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("bench_gate: {message}");
    std::process::exit(2)
}

fn main() {
    let mut baseline_path = "BENCH_machine.json".to_string();
    let mut candidate_path: Option<String> = None;
    let mut max_regress = 0.15f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline_path = args
                    .next()
                    .unwrap_or_else(|| fail("--baseline needs a file"));
            }
            "--candidate" => {
                candidate_path = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--candidate needs a file")),
                );
            }
            "--max-regress" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| fail("--max-regress needs a fraction"));
                max_regress = match v.parse::<f64>() {
                    Ok(f) if f > 0.0 && f < 1.0 => f,
                    _ => fail(&format!("bad regression fraction '{v}'")),
                };
            }
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    let candidate_path = candidate_path.unwrap_or_else(|| baseline_path.clone());
    let self_compare = candidate_path == baseline_path;

    let mut baseline_docs = load_trajectory(&baseline_path);
    let candidate_docs = load_trajectory(&candidate_path);
    let Some(candidate) = candidate_docs.last() else {
        fail(&format!("'{candidate_path}' holds no bench documents"));
    };
    if self_compare {
        // The newest doc is the candidate; it must not be its own baseline.
        baseline_docs.pop();
    }

    let v = gate(&baseline_docs, candidate, max_regress);
    println!(
        "bench_gate: {} compared, {} below noise floor, {} without a baseline (threshold {:.0}%); {} step counts checked on any host",
        v.compared,
        v.skipped,
        v.uncompared,
        max_regress * 100.0,
        v.steps_checked + v.step_changes.len() as u32,
    );
    if !v.passed() {
        if !v.regressions.is_empty() {
            eprintln!("bench_gate: steps_per_sec regressions beyond the threshold:");
            for r in &v.regressions {
                eprintln!("bench_gate:   {r}");
            }
        }
        if !v.step_changes.is_empty() {
            eprintln!("bench_gate: deterministic step counts changed:");
            for r in &v.step_changes {
                eprintln!("bench_gate:   {r}");
            }
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-row kernels document.
    fn doc(host_cores: i64, steps: i64, wall_s: f64) -> Json {
        Json::obj([
            ("bench", Json::Str("kernels".into())),
            ("smoke", Json::Bool(true)),
            ("host_cores", Json::Int(host_cores)),
            (
                "results",
                Json::Arr(vec![Json::obj([
                    ("graph", Json::Str("ring".into())),
                    ("cells", Json::Int(201)),
                    ("arcs", Json::Int(201)),
                    ("kernel", Json::Str("event".into())),
                    ("workers", Json::Int(1)),
                    ("steps", Json::Int(steps)),
                    ("wall_s", Json::Float(wall_s)),
                    ("steps_per_sec", Json::Float(steps as f64 / wall_s)),
                ])]),
            ),
        ])
    }

    #[test]
    fn equal_steps_pass() {
        let v = gate(&[doc(1, 20_000, 0.5)], &doc(1, 20_000, 0.5), 0.15);
        assert!(v.passed());
        assert_eq!((v.steps_checked, v.compared), (1, 1));
    }

    #[test]
    fn different_steps_fail() {
        let v = gate(&[doc(1, 20_000, 0.5)], &doc(1, 19_999, 0.5), 0.15);
        assert!(!v.passed());
        assert_eq!(v.step_changes.len(), 1);
        // A different step count is a different workload for wall time.
        assert_eq!((v.compared, v.uncompared), (0, 1));
    }

    #[test]
    fn another_hosts_row_is_still_checked() {
        let base = [doc(1, 20_000, 0.5)];
        // Much slower, but on another host: wall time is not compared,
        // the step count is.
        let v = gate(&base, &doc(2, 20_000, 5.0), 0.15);
        assert!(v.passed());
        assert_eq!((v.steps_checked, v.compared, v.uncompared), (1, 0, 1));
        let v = gate(&base, &doc(2, 20_001, 0.5), 0.15);
        assert!(!v.passed());
        assert_eq!(v.step_changes.len(), 1);
    }

    #[test]
    fn newest_baseline_steps_win() {
        let base = [doc(1, 10_000, 0.5), doc(4, 20_000, 0.5)];
        assert!(gate(&base, &doc(2, 20_000, 0.5), 0.15).passed());
        assert!(!gate(&base, &doc(2, 10_000, 0.5), 0.15).passed());
    }

    #[test]
    fn wall_time_regressions_still_fail_on_the_same_host() {
        let v = gate(&[doc(1, 20_000, 0.5)], &doc(1, 20_000, 1.0), 0.15);
        assert!(!v.passed());
        assert_eq!(v.regressions.len(), 1);
    }
}
