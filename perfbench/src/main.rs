//! The valpipe benchmark: one command that runs a named workload from a
//! seed, checks every output against an independent reference, and
//! prints every end-to-end metric (or, with `--trace 1`, every
//! per-layer metric) as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile_edit --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload runs the same three phases — compile, simulate, serve —
//! on its own programs, and gives its own phase most of the time. See
//! `perfbench/README.md` for the workloads, the metrics and what each
//! layer metric is expected to move.

mod compile;
mod report;
mod serve;
mod simulate;
mod stats;
mod trace;

use std::time::Instant;

use valpipe_bench::timing::peak_rss_bytes;
use valpipe_bench::workloads::{chain_src, fig3_src, fig6_src};
use valpipe_core::{compile_source, CompileOptions};
use valpipe_util::{Json, Rng};

use compile::{CompilePhase, CompilePlan};
use report::{Report, END_TO_END, PER_LAYER};
use serve::{ServePhase, ServePlan, Template};
use simulate::{SimPhase, SimProgram};
use trace::Tracer;

/// Set-up runs at least this many times per run, at even intervals;
/// `setup_s` is their block median (`stats::blocked`).
const MIN_SETUPS: usize = 5;
/// Share of the run that further set-ups may take. A set-up of a few
/// tens of milliseconds lands wholly on one of the host's two speeds
/// (see `stats::blocked`); its median needs more samples than a long
/// one's.
const SETUP_SHARE: f64 = 0.05;
/// Fewest rounds of the compile and simulate phases per run.
const MIN_ROUNDS: usize = 3;
/// Waves of the untimed interpreter check of the compile phase's edited
/// program. One: the interpreter's reference for a 250-block chain takes
/// seconds per wave.
const EDITED_WAVES: usize = 1;

/// Programs the simulate phase streams.
#[derive(Debug, Clone, Copy)]
enum SimPrograms {
    /// Fig. 3 at m = 1024 and a 100-block chain.
    Fig3AndChain,
    /// The serve sessions' programs: Fig. 3 at m = 64 and Fig. 6 at m = 4.
    Sessions,
}

/// One workload: a size for each phase and each phase's share of the
/// run's seconds.
#[derive(Debug, Clone, Copy)]
struct Plan {
    compile: CompilePlan,
    sim: SimPrograms,
    serve: ServePlan,
    /// Shares of the run's seconds for compile, simulate and serve.
    split: [f64; 3],
}

/// The compile phase of the two workloads that do not centre on
/// compiling: a 40-block chain, cheap enough for dozens of samples in a
/// short phase.
const MINOR_COMPILE: CompilePlan = CompilePlan { m: 96, blocks: 40 };

/// The serve mix of the workload that does not centre on serving:
/// exact-mode sessions only, whose jobs all do the same work, so the
/// median job is one population. All 4 sessions stay hot (`max_live` is
/// 4): whether an open or a job also has to evict or reload a session
/// would depend on how the two clients interleave, and would split a
/// short sample into two populations.
const SERVE_MINOR: ServePlan = ServePlan {
    fig3_exact: 4,
    fig6_fastforward: 0,
};

fn plan(workload: &str) -> Option<Plan> {
    Some(match workload {
        "compile_edit" => Plan {
            compile: CompilePlan {
                m: 516,
                blocks: 250,
            },
            sim: SimPrograms::Fig3AndChain,
            serve: SERVE_MINOR,
            split: [0.7, 0.15, 0.15],
        },
        "serve" => Plan {
            compile: MINOR_COMPILE,
            sim: SimPrograms::Sessions,
            serve: ServePlan {
                fig3_exact: 3,
                fig6_fastforward: 3,
            },
            split: [0.15, 0.15, 0.7],
        },
        _ => return None,
    })
}

const WORKLOADS: &[&str] = &["compile_edit", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    }
}

/// Inputs and references built before anything is timed.
struct Prepared {
    sim: Vec<SimProgram>,
    templates: Vec<Template>,
}

fn sim_programs(plan: &Plan, rng: &mut Rng) -> Result<Vec<SimProgram>, String> {
    // (name, source, waves): the chain's interpreter reference is the
    // costly part of set-up, so it streams fewer waves.
    let sources: Vec<(&str, String, usize)> = match plan.sim {
        SimPrograms::Fig3AndChain => vec![
            ("fig3_m1024", fig3_src(1024), 20),
            ("chain100", chain_src(216, 100), 6),
        ],
        SimPrograms::Sessions => vec![("fig3_m64", fig3_src(64), 20), ("fig6_m4", fig6_src(4), 20)],
    };
    sources
        .into_iter()
        .map(|(name, src, waves)| {
            let compiled = compile_source(&src, &CompileOptions::paper())
                .map_err(|e| format!("{name}: {e}"))?;
            SimProgram::new(name, &compiled, waves, rng)
        })
        .collect()
}

fn prepare(plan: &Plan, seed: u64) -> Result<Prepared, String> {
    let root = Rng::seed(seed);
    Ok(Prepared {
        sim: sim_programs(plan, &mut root.fork(1))?,
        templates: serve::templates(&plan.serve, &mut root.fork(2))?,
    })
}

/// Per-layer metrics read from the spans: the median self time of each
/// named span.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("val.parse", "val.parse_ms"),
    ("val.typecheck", "val.typecheck_ms"),
    ("val.analyze", "val.analyze_ms"),
    ("core.compile_unbalanced", "core.compile_unbalanced_ms"),
    ("balance.solve", "balance.solve_ms"),
    ("ir.expand", "ir.expand_ms"),
    ("machine.event.run", "machine.event.run_ms"),
    ("machine.par2.run", "machine.par2.run_ms"),
    ("machine.scan.run", "machine.scan.run_ms"),
    ("machine.advance", "machine.advance_ms"),
    ("snapshot.encode", "snapshot.encode_ms"),
    ("snapshot.restore", "snapshot.restore_ms"),
    ("serve.registry_open", "serve.registry_open_ms"),
    ("serve.registry_job", "serve.residency_ms"),
    ("hibernate.encode", "hibernate.encode_ms"),
    ("hibernate.load", "hibernate.load_ms"),
];

fn layer_metrics(tracer: &Tracer, report: &mut Report) {
    let selves = tracer.self_times_ms();
    for (span, metric) in SPAN_METRICS {
        if let Some(xs) = selves.get(span) {
            report.median_of(metric, xs);
        }
    }
    report.set(
        "failed_ratio",
        report.tally.failed_ratio(),
        report.tally.attempted as usize,
    );
}

/// The result line: the listed metrics, each with its unit.
fn result_line(report: &mut Report, listed: &[(&str, &str)]) -> Json {
    let mut metrics = Vec::new();
    for &(name, unit) in listed {
        match report.get(name).filter(|v| v.is_finite()) {
            Some(v) => metrics.push((
                name.to_string(),
                Json::obj([
                    ("value", Json::Float(v)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )),
            None => report.fail(format!("metric {name} was not measured")),
        }
    }
    Json::obj([
        ("correct", Json::Bool(report.tally.failed == 0)),
        ("attempted", Json::Int(report.tally.attempted as i64)),
        ("failed", Json::Int(report.tally.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn main() {
    let args = parse_args();
    let plan = plan(&args.workload)
        .unwrap_or_else(|| usage(&format!("unknown workload '{}'", args.workload)));
    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();

    let t0 = Instant::now();
    let prepared = prepare(&plan, args.seed);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let setups = MIN_SETUPS.max((SETUP_SHARE * args.seconds / setup_s[0]) as usize);
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => {
            report.fail(format!("set-up: {e}"));
            std::process::exit(1);
        }
    };

    let root = Rng::seed(args.seed);
    let mut compile = CompilePhase::new(plan.compile, root.fork(3), tracer.clone());
    let mut sim = SimPhase::new(prepared.sim, tracer.clone());
    let run_for = args.seconds;
    // The program the first round of edits made is simulated once,
    // untimed, and checked against the interpreter.
    let mut edited_pending = true;
    std::thread::scope(|scope| {
        let mut serve = ServePhase::start(scope, &prepared.templates, args.seed, tracer.clone())
            .map_err(|e| report.fail(format!("serve phase: {e}")))
            .ok();
        // Each phase gets its share of the run in small units, chosen
        // by how far it lags its share; interleaving spreads every
        // metric's samples over the whole run.
        let run_start = Instant::now();
        let mut used = [0.0f64; 3];
        loop {
            let elapsed = run_start.elapsed().as_secs_f64();
            // Set-up repeats at even intervals over the run.
            if setup_s.len() < setups && elapsed >= run_for * setup_s.len() as f64 / setups as f64 {
                let t0 = Instant::now();
                let again = prepare(&plan, args.seed);
                setup_s.push(t0.elapsed().as_secs_f64());
                report.check(again.is_ok(), || "set-up repeat".into());
                continue;
            }
            if edited_pending {
                if let Some(c) = compile.first_edit() {
                    edited_pending = false;
                    let checked =
                        SimProgram::new("chain_edited", c, EDITED_WAVES, &mut root.fork(4))
                            .and_then(|p| simulate::check_once(&p));
                    report.check(checked.is_ok(), || format!("edited program: {checked:?}"));
                    continue;
                }
            }
            let over = elapsed >= run_for;
            let wants = [
                !compile.failed() && (!over || !compile.rounds_done(MIN_ROUNDS)),
                !over || !sim.rounds_done(MIN_ROUNDS),
                serve.as_ref().is_some_and(|s| !over || !s.min_met()),
            ];
            let lag = |p: usize| plan.split[p] * elapsed - used[p];
            let Some(p) = (0..3)
                .filter(|&p| wants[p])
                .max_by(|&a, &b| lag(a).total_cmp(&lag(b)))
            else {
                break;
            };
            let t0 = Instant::now();
            match p {
                0 => compile.step(&mut report),
                1 => sim.step(&mut report),
                _ => serve.as_mut().expect("wanted only when started").step(),
            }
            used[p] += t0.elapsed().as_secs_f64();
        }
        eprintln!(
            "perfbench: compile {:.2} s, simulate {:.2} s, serve {:.2} s",
            used[0], used[1], used[2]
        );
        if let Some(serve) = serve {
            serve.finish(&mut report);
        }
    });
    compile.finish(&mut report);
    sim.finish(&mut report);
    report.time_of("setup_s", &setup_s);
    report.set(
        "peak_rss_mb",
        peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1e6),
        1,
    );

    if args.trace {
        layer_metrics(&tracer, &mut report);
    }
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    let line = result_line(&mut report, listed);

    // Human-readable summary and the deterministic counts on stderr.
    for line in report.summary() {
        eprintln!("{line}");
    }
    let counts = Json::Obj(
        report
            .counts()
            .iter()
            .map(|(k, v)| (k.clone(), Json::Float(*v)))
            .collect(),
    );
    eprintln!("counts: {}", counts.to_compact());
    if args.trace {
        write_trace(&args, &tracer, &report);
    }
    println!("{}", line.to_compact());
    std::process::exit(if report.tally.failed == 0 { 0 } else { 1 });
}

/// Write the spans, and the end-to-end numbers measured alongside them,
/// to `.bench_out/trace-<workload>-<seed>.json`.
fn write_trace(args: &Args, tracer: &Tracer, report: &Report) {
    let traced_e2e = Json::Obj(
        END_TO_END
            .iter()
            .filter_map(|&(name, _)| Some((name.to_string(), Json::Float(report.get(name)?))))
            .collect(),
    );
    let doc = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("end_to_end_traced", traced_e2e),
        ("spans", tracer.to_json()),
    ]);
    let path = format!(".bench_out/trace-{}-{}.json", args.workload, args.seed);
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, doc.to_compact()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}
