//! Bench: scan vs event-driven vs parallel step-loop kernels.
//!
//! The scan kernel pays O(cells) every instruction time; the event-driven
//! kernel pays O(fired + woken). On a dense, fully pipelined workload the
//! two are close (most cells fire most steps). The separation shows on
//! *sparse-activity* workloads — a long pipeline carrying a handful of
//! packets, where the scan kernel re-examines thousands of idle cells per
//! step. That is the acceptance workload: the event kernel must beat the
//! scan kernel by at least 3× there (asserted, not just printed).
//!
//! The parallel kernel's acceptance workload is the opposite regime: a
//! *wide* dense program (>4000 cells, hundreds fireable per tick) swept
//! across worker counts. On a ≥4-core host, 4 workers must beat the
//! event kernel by ≥2.5× and a single parallel worker must stay within
//! 15% of it (asserted when the host has the cores; printed regardless).
//!
//! All kernels must agree bit-for-bit on every workload; the bench
//! asserts that too, so a timing win can never hide a semantics drift.
//! The kernels compared in one table are timed with their repetitions
//! interleaved round-robin, so a host that changes speed mid-run moves
//! every median alike instead of deciding which kernel "wins"; the
//! asserted ratios pair the runs of one round.
//! With `--json`, every measurement is also written to
//! `BENCH_machine.json` (or `$BENCH_JSON_PATH`) as the machine-readable
//! bench trajectory.

use valpipe_bench::timing::{interleaved_times, iters, json_mode, median, smoke_mode, BenchLog};
use valpipe_bench::workloads::{fig6_src, inputs_for_compiled};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source, CompileOptions};
use valpipe_ir::value::Value;
use valpipe_ir::{Graph, Opcode};
use valpipe_machine::{
    EpochStats, Kernel, ProgramInputs, RunOutcome, RunResult, RunSpec, ShardPolicy, SimConfig,
    Simulator, DEFAULT_EPOCH_CAP,
};
use valpipe_util::{Json, Rng};

/// An identity chain of `stages` cells: with only a few packets in
/// flight, almost every cell is idle at almost every step.
fn sparse_chain(stages: usize) -> Graph {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let mut prev = a;
    for k in 0..stages {
        prev = g.cell(Opcode::Id, format!("s{k}"), &[prev.into()]);
    }
    let _ = g.cell(Opcode::Sink("out".into()), "out", &[prev.into()]);
    g
}

/// A wide dense program — `chains` parallel arithmetic pipelines — so
/// hundreds of cells are fireable every tick: the regime the parallel
/// kernel is built for. Each chain's input stream splits off the one
/// root generator, so the workload is fully determined by the seed.
fn wide_grid(chains: usize, stages: usize, packets: usize) -> (Graph, ProgramInputs) {
    let mut g = Graph::new();
    let mut inputs = ProgramInputs::new();
    let mut root = Rng::seed(0xBEEF);
    for c in 0..chains {
        let mut r = root.split();
        let name = format!("a{c}");
        let a = g.add_node(Opcode::Source(name.clone()), &name);
        let mut prev = a;
        for k in 0..stages {
            prev = g.cell(
                Opcode::Bin(if (c + k) % 2 == 0 {
                    valpipe_ir::value::BinOp::Add
                } else {
                    valpipe_ir::value::BinOp::Mul
                }),
                format!("s{c}_{k}"),
                &[prev.into(), (0.5 + r.f64()).into()],
            );
        }
        let _ = g.cell(
            Opcode::Sink(format!("y{c}")),
            format!("y{c}"),
            &[prev.into()],
        );
        let vals: Vec<f64> = (0..packets).map(|_| r.f64()).collect();
        inputs = inputs.bind_reals(&name, &vals);
    }
    (g, inputs)
}

fn run_kernel(g: &Graph, inputs: &ProgramInputs, kernel: Kernel) -> RunResult {
    Simulator::builder(g)
        .inputs(inputs.clone())
        .kernel(kernel)
        .run()
        .unwrap()
}

/// Run under an explicit config through `Session::drive`, returning the
/// result plus what the epoch engine accomplished.
fn drive_config(g: &Graph, inputs: &ProgramInputs, cfg: SimConfig) -> (RunResult, EpochStats) {
    let driven = Simulator::builder(g)
        .inputs(inputs.clone())
        .config(cfg)
        .build()
        .unwrap()
        .drive(RunSpec::new())
        .unwrap();
    let RunOutcome::Done(result) = driven.outcome else {
        panic!("bench run must complete");
    };
    (*result, driven.epochs)
}

/// Epoch/shard record fields shared by every parallel-kernel bench row.
fn epoch_extras(cap: u64, policy: ShardPolicy, stats: &EpochStats) -> Vec<(&'static str, Json)> {
    vec![
        ("epoch_cap", Json::Int(cap as i64)),
        ("shard_policy", Json::Str(policy.as_str().to_string())),
        ("epochs", Json::Int(stats.epochs as i64)),
        ("batched_steps", Json::Int(stats.batched_steps as i64)),
        ("mean_horizon", Json::Float(stats.mean_horizon())),
        (
            "horizon_fallbacks",
            Json::Int(stats.horizon_fallbacks as i64),
        ),
        (
            "cross_wakes_deferred",
            Json::Int(stats.cross_wakes_deferred as i64),
        ),
        ("cross_arcs", Json::Int(stats.cross_arcs as i64)),
    ]
}

/// Per-kernel median wall times of `run(kernel)` for each of `kernels`,
/// timed interleaved (see [`interleaved_times`]).
fn kernel_medians(n: usize, kernels: &[Kernel], run: impl Fn(Kernel)) -> Vec<f64> {
    kernel_times(n, kernels, run)
        .iter()
        .map(|t| median(t))
        .collect()
}

/// [`interleaved_times`] of `run(kernel)` for each of `kernels`.
fn kernel_times(n: usize, kernels: &[Kernel], run: impl Fn(Kernel)) -> Vec<Vec<f64>> {
    interleaved_times(n, kernels.len(), |i| run(kernels[i]))
}

/// Median over rounds of `a`'s time over `b`'s in the same round.
fn paired_ratio(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    median(&ratios)
}

fn kernel_tag(kernel: Kernel) -> (&'static str, usize) {
    match kernel {
        Kernel::Scan => ("scan", 1),
        Kernel::EventDriven => ("event", 1),
        Kernel::ParallelEvent(w) => ("parallel-event", w),
    }
}

fn main() {
    let mut log = BenchLog::new();

    // 1. Sparse-activity acceptance workload: a deep pipe, few packets.
    let stages = if smoke_mode() { 400 } else { 4000 };
    let g = sparse_chain(stages);
    let packets: Vec<f64> = (0..8).map(|i| i as f64).collect();
    let inputs = ProgramInputs::new().bind_reals("a", &packets);

    let scan = run_kernel(&g, &inputs, Kernel::Scan);
    let event = run_kernel(&g, &inputs, Kernel::EventDriven);
    assert_eq!(scan, event, "kernels disagree on the sparse chain");

    let n = iters(10);
    let t = kernel_medians(n, &[Kernel::Scan, Kernel::EventDriven], |k| {
        let _ = run_kernel(&g, &inputs, k);
    });
    let (t_scan, t_event) = (t[0], t[1]);
    let speedup = t_scan / t_event;
    println!(
        "kernels/sparse_chain/{stages}x8pkts       scan {:>10.3}ms   event {:>10.3}ms   speedup {speedup:>6.2}x",
        t_scan * 1e3,
        t_event * 1e3,
    );
    log.record(
        "sparse_chain",
        g.node_count(),
        g.arc_count(),
        "scan",
        1,
        scan.steps,
        t_scan,
    );
    log.record(
        "sparse_chain",
        g.node_count(),
        g.arc_count(),
        "event",
        1,
        event.steps,
        t_event,
    );
    if !smoke_mode() {
        assert!(
            speedup >= 3.0,
            "event kernel must be >= 3x faster than scan on the sparse workload, got {speedup:.2}x"
        );
    }

    // 2. A cyclic sparse workload: one token circulating a long ring.
    let ring_len = if smoke_mode() { 200 } else { 2000 };
    let mut rg = Graph::new();
    let first = rg.add_node(Opcode::Id, "r0");
    let mut prev = first;
    for k in 1..ring_len {
        prev = rg.cell(Opcode::Id, format!("r{k}"), &[prev.into()]);
    }
    rg.connect_init(prev, first, 0, Value::Int(1));
    let _ = rg.cell(Opcode::Sink("out".into()), "out", &[prev.into()]);
    let ring_run = |kernel: Kernel| {
        Simulator::builder(&rg)
            .max_steps(if smoke_mode() { 20_000 } else { 200_000 })
            .kernel(kernel)
            .run()
            .unwrap()
    };
    let ring_ref = ring_run(Kernel::Scan);
    assert_eq!(
        ring_ref,
        ring_run(Kernel::EventDriven),
        "kernels disagree on the ring"
    );
    let t = kernel_medians(n, &[Kernel::Scan, Kernel::EventDriven], |k| {
        let _ = ring_run(k);
    });
    let (t_scan, t_event) = (t[0], t[1]);
    println!(
        "kernels/ring/{ring_len}x1token            scan {:>10.3}ms   event {:>10.3}ms   speedup {:>6.2}x",
        t_scan * 1e3,
        t_event * 1e3,
        t_scan / t_event,
    );
    log.record(
        "ring",
        rg.node_count(),
        rg.arc_count(),
        "scan",
        1,
        ring_ref.steps,
        t_scan,
    );
    log.record(
        "ring",
        rg.node_count(),
        rg.arc_count(),
        "event",
        1,
        ring_ref.steps,
        t_event,
    );

    // 3. Dense paper workload on fig6, for the honest "what does it
    // cost when everything fires" number: both sequential kernels and
    // the parallel kernel at 2 workers.
    let compiled = compile_source(&fig6_src(64), &CompileOptions::paper()).unwrap();
    let exe = compiled.executable();
    let arrays = inputs_for_compiled(&compiled);
    let dense_inputs = stream_inputs(&compiled, &arrays, 10);
    let fig6_ref = run_kernel(&exe, &dense_inputs, Kernel::Scan);
    let dense_kernels = [Kernel::Scan, Kernel::EventDriven, Kernel::ParallelEvent(2)];
    let mut dense_stats = Vec::new();
    for kernel in dense_kernels {
        let (r, stats) = drive_config(&exe, &dense_inputs, SimConfig::new().kernel(kernel));
        assert_eq!(r, fig6_ref, "{kernel:?} disagrees on fig6");
        dense_stats.push(stats);
    }
    let times = kernel_medians(n, &dense_kernels, |k| {
        let _ = run_kernel(&exe, &dense_inputs, k);
    });
    for ((kernel, t), stats) in dense_kernels.into_iter().zip(times).zip(&dense_stats) {
        let (tag, workers) = kernel_tag(kernel);
        println!(
            "kernels/fig6_dense/{}cells/{tag}{workers}   {:>10.3}ms   {:>12.0} steps/s",
            exe.node_count(),
            t * 1e3,
            fig6_ref.steps as f64 / t,
        );
        let extras = if matches!(kernel, Kernel::ParallelEvent(_)) {
            epoch_extras(DEFAULT_EPOCH_CAP, ShardPolicy::Topology, stats)
        } else {
            Vec::new()
        };
        log.record_with(
            "fig6_dense",
            exe.node_count(),
            exe.arc_count(),
            tag,
            workers,
            fig6_ref.steps,
            t,
            extras,
        );
    }

    // 4. Worker sweep on the wide dense grid — the parallel kernel's
    // acceptance workload (>4000 cells, hundreds fireable per tick).
    let (chains, stages, pkts) = if smoke_mode() {
        (48, 8, 12)
    } else {
        (80, 50, 64)
    };
    let (wg, winputs) = wide_grid(chains, stages, pkts);
    if !smoke_mode() {
        assert!(
            wg.node_count() >= 4000,
            "acceptance grid must exceed 4000 cells"
        );
    }
    let reference = run_kernel(&wg, &winputs, Kernel::EventDriven);
    let sweep = [
        Kernel::Scan,
        Kernel::EventDriven,
        Kernel::ParallelEvent(1),
        Kernel::ParallelEvent(2),
        Kernel::ParallelEvent(4),
    ];
    let mut sweep_stats = Vec::new();
    for kernel in sweep {
        let (r, stats) = drive_config(&wg, &winputs, SimConfig::new().kernel(kernel));
        assert_eq!(r, reference, "{kernel:?} disagrees on the wide grid");
        sweep_stats.push(stats);
    }
    let times = kernel_times(n, &sweep, |k| {
        let _ = run_kernel(&wg, &winputs, k);
    });
    for ((kernel, samples), stats) in sweep.into_iter().zip(&times).zip(&sweep_stats) {
        let t = median(samples);
        let (tag, workers) = kernel_tag(kernel);
        println!(
            "kernels/wide_grid/{}cells/{tag}{workers}   {:>10.3}ms   {:>12.0} steps/s",
            wg.node_count(),
            t * 1e3,
            reference.steps as f64 / t,
        );
        let extras = if matches!(kernel, Kernel::ParallelEvent(_)) {
            epoch_extras(DEFAULT_EPOCH_CAP, ShardPolicy::Topology, stats)
        } else {
            Vec::new()
        };
        log.record_with(
            "wide_grid",
            wg.node_count(),
            wg.arc_count(),
            tag,
            workers,
            reference.steps,
            t,
            extras,
        );
    }
    // Ratios pair the runs of one round, which saw nearly the same host
    // state; `ParallelEvent(1)` runs the event body itself, so its ratio
    // to `event` measures the noise that is left.
    let t = |k: Kernel| {
        &times[sweep
            .iter()
            .position(|&s| s == k)
            .expect("kernel in the sweep")]
    };
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let par_speedup = paired_ratio(t(Kernel::EventDriven), t(Kernel::ParallelEvent(4)));
    let par1_overhead = paired_ratio(t(Kernel::ParallelEvent(1)), t(Kernel::EventDriven));
    println!(
        "kernels/wide_grid summary: event/parallel4 {par_speedup:.2}x, parallel1 overhead {:.1}% ({cores} host cores)",
        (par1_overhead - 1.0) * 100.0,
    );
    if !smoke_mode() {
        assert!(
            par1_overhead <= 1.15,
            "single-worker parallel kernel must stay within 15% of the event kernel, got {:.1}% over",
            (par1_overhead - 1.0) * 100.0
        );
        if cores >= 4 {
            assert!(
                par_speedup >= 2.5,
                "parallel kernel at 4 workers must be >= 2.5x the event kernel on a {cores}-core host, got {par_speedup:.2}x"
            );
        } else {
            println!(
                "kernels/wide_grid: host has {cores} core(s); 4-worker speedup target needs >= 4 — recorded, not asserted"
            );
        }
    }

    // 5. Epoch/shard sweep on the same grid: how the barrier-amortizing
    // horizon cap and the sharding policy shape the 4-worker kernel.
    // cap=1 disables batching (every step runs the sequential event step
    // body), and the striped policy cuts chains across shards — both
    // honest baselines.
    let configs: Vec<(ShardPolicy, u64)> = [ShardPolicy::Topology, ShardPolicy::Striped]
        .into_iter()
        .flat_map(|policy| [1u64, 4, 16, 64].map(|cap| (policy, cap)))
        .collect();
    let cfg_of = |(policy, cap): (ShardPolicy, u64)| {
        SimConfig::new()
            .kernel(Kernel::ParallelEvent(4))
            .epoch_cap(cap)
            .shard_policy(policy)
    };
    let mut config_stats = Vec::new();
    for &(policy, cap) in &configs {
        let (r, stats) = drive_config(&wg, &winputs, cfg_of((policy, cap)));
        assert_eq!(
            r, reference,
            "epoch sweep (cap {cap}, {policy:?}) disagrees on the wide grid"
        );
        config_stats.push(stats);
    }
    let times: Vec<f64> = interleaved_times(n, configs.len(), |i| {
        let _ = drive_config(&wg, &winputs, cfg_of(configs[i]));
    })
    .iter()
    .map(|t| median(t))
    .collect();
    for ((&(policy, cap), t), stats) in configs.iter().zip(times).zip(&config_stats) {
        println!(
            "kernels/wide_grid/epoch_sweep/{}/cap{cap}   {:>10.3}ms   {:>12.0} steps/s   epochs {} (mean horizon {:.1}, {} fallbacks)",
            policy.as_str(),
            t * 1e3,
            reference.steps as f64 / t,
            stats.epochs,
            stats.mean_horizon(),
            stats.horizon_fallbacks,
        );
        log.record_with(
            "wide_grid",
            wg.node_count(),
            wg.arc_count(),
            "parallel-event",
            4,
            reference.steps,
            t,
            epoch_extras(cap, policy, stats),
        );
    }

    if json_mode() {
        let path = log
            .write("kernels")
            .expect("bench trajectory must be writable");
        println!("kernels: wrote bench trajectory to {path}");
    }
}
