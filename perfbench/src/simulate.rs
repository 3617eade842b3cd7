//! Simulate phase: stream many waves of seeded, non-periodic input
//! arrays through compiled programs, alternating the default `event`
//! kernel with `parallel:2`, and check every output element against the
//! `valpipe_val` interpreter run on the same wave.

use std::collections::HashMap;

use valpipe_bench::workloads::inputs_for_compiled;
use valpipe_core::Compiled;
use valpipe_ir::graph::Graph;
use valpipe_machine::{
    EpochStats, Kernel, ProgramInputs, RunResult, RunSpec, SimConfig, Simulator, StopReason,
};
use valpipe_util::Rng;
use valpipe_val::interp::{self, ArrayVal};

use crate::report::Report;
use crate::trace::Tracer;

/// Relative tolerance of the interpreter check: the companion scheme
/// reassociates floating-point sums, so equality is not exact.
const TOL: f64 = 1e-9;

/// A compiled program with its input stream and the interpreter's
/// expected output stream.
pub struct SimProgram {
    name: String,
    exe: Graph,
    inputs: ProgramInputs,
    /// Per declared output: expected values over all waves, and the
    /// length of one wave.
    expected: Vec<(String, Vec<f64>, usize)>,
    /// The input whose initiation interval is reported: the first
    /// declared input by name. A fully pipelined program accepts one
    /// element every 2 instruction times on every input; an output can
    /// be shorter than its inputs, so its packets arrive in bursts.
    primary: String,
}

impl SimProgram {
    /// Prepare `waves` waves for `compiled`. Wave 0 is the repository's
    /// standard input set (`inputs_for_compiled`); every later wave
    /// scales each element by a seeded factor in `[0.5, 1.5)`, so no two
    /// waves repeat.
    pub fn new(
        name: &str,
        compiled: &Compiled,
        waves: usize,
        rng: &mut Rng,
    ) -> Result<SimProgram, String> {
        let base = inputs_for_compiled(compiled);
        let mut streams: HashMap<String, Vec<f64>> = HashMap::new();
        let mut expected: Vec<(String, Vec<f64>, usize)> = compiled
            .program
            .outputs
            .iter()
            .map(|o| (o.clone(), Vec::new(), 0))
            .collect();
        let mut names: Vec<&String> = base.keys().collect();
        names.sort();
        for w in 0..waves {
            let mut wave: HashMap<String, ArrayVal> = HashMap::new();
            for &n in &names {
                let a = &base[n];
                let vals: Vec<f64> = a
                    .data
                    .iter()
                    .map(|v| {
                        let x = v.as_real().expect("generated inputs are real");
                        if w == 0 {
                            x
                        } else {
                            x * (0.5 + rng.f64())
                        }
                    })
                    .collect();
                streams.entry(n.clone()).or_default().extend(&vals);
                wave.insert(n.clone(), ArrayVal::from_reals(a.lo, &vals));
            }
            let want = interp::run_program(&compiled.program, &wave)
                .map_err(|e| format!("{name}: interpreter: {e}"))?;
            for (out, vals, len) in &mut expected {
                let arr = &want[out.as_str()];
                *len = arr.data.len();
                vals.extend(arr.data.iter().map(|v| v.as_real().unwrap_or(f64::NAN)));
            }
        }
        let mut inputs = ProgramInputs::new();
        for (n, vals) in &streams {
            inputs = inputs.bind_reals(n.clone(), vals);
        }
        let primary = names
            .first()
            .map(|n| n.to_string())
            .ok_or_else(|| format!("{name}: program has no input"))?;
        Ok(SimProgram {
            name: name.to_string(),
            exe: compiled.executable(),
            inputs,
            expected,
            primary,
        })
    }

    fn config(&self, kernel: Kernel) -> SimConfig {
        SimConfig::new().kernel(kernel).stop_outputs(
            self.expected
                .iter()
                .map(|(o, v, _)| (o.clone(), v.len()))
                .collect(),
        )
    }

    /// Compare a run's outputs with the interpreter's.
    fn verify(&self, r: &RunResult) -> Result<(), String> {
        if r.stop == StopReason::Stalled
            || r.stop == StopReason::MaxSteps
            || (r.stop == StopReason::Quiescent && !r.sources_exhausted)
        {
            return Err(format!("{}: stalled after {} steps", self.name, r.steps));
        }
        for (out, want, wave_len) in &self.expected {
            let got = r.values(out);
            // A pipeline may pre-fire part of a next wave that is never
            // fed; anything short of the full stream, or a whole extra
            // wave, is a defect.
            if got.len() < want.len() || got.len() >= want.len() + wave_len {
                return Err(format!(
                    "{}: output {out} has {} packets, want {}",
                    self.name,
                    got.len(),
                    want.len()
                ));
            }
            for (k, (g, w)) in got.iter().zip(want).enumerate() {
                let g = g.as_real().unwrap_or(f64::NAN);
                if (g - w).abs() > TOL * w.abs().max(1e-12) || g.is_nan() != w.is_nan() {
                    return Err(format!(
                        "{}: output {out} element {k}: got {g}, interpreter says {w}",
                        self.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Run `p` once on the default kernel, untimed, and check its outputs
/// against the interpreter.
pub fn check_once(p: &SimProgram) -> Result<(), String> {
    let run = Simulator::builder(&p.exe)
        .inputs(p.inputs.clone())
        .config(p.config(Kernel::EventDriven))
        .build()
        .and_then(|session| session.drive(RunSpec::new()))
        .map_err(|e| format!("{}: {e}", p.name))?;
    p.verify(&run.result())
}

/// One kernel's pass over every program: the runs, timed together.
struct Round {
    results: Vec<Result<(RunResult, EpochStats), String>>,
    ms: f64,
}

fn round(programs: &[SimProgram], kernel: Kernel, name: &'static str, tracer: &Tracer) -> Round {
    let inputs: Vec<ProgramInputs> = programs.iter().map(|p| p.inputs.clone()).collect();
    let ((results, ms), _) = tracer.root("sim.round", |s| {
        s.child(name, |_| {
            programs
                .iter()
                .zip(inputs)
                .map(|(p, inputs)| {
                    let driven = Simulator::builder(&p.exe)
                        .inputs(inputs)
                        .config(p.config(kernel))
                        .build()
                        .and_then(|session| session.drive(RunSpec::new()))
                        .map_err(|e| format!("{}: {e}", p.name))?;
                    let epochs = driven.epochs.clone();
                    Ok((driven.result(), epochs))
                })
                .collect::<Vec<_>>()
        })
    });
    Round { results, ms }
}

/// Kernels the phase cycles through: the kernel, its span, and the
/// metric its steps per second go to.
const KERNELS: &[(Kernel, &str, &str)] = &[
    (
        Kernel::EventDriven,
        "machine.event.run",
        "sim_event_steps_per_s",
    ),
    (
        Kernel::ParallelEvent(2),
        "machine.par2.run",
        "sim_par2_steps_per_s",
    ),
    (Kernel::Scan, "machine.scan.run", "machine.scan.steps_per_s"),
];

/// The simulate phase's state between units of work.
pub struct SimPhase {
    programs: Vec<SimProgram>,
    tracer: Tracer,
    /// Kernels in use: event and parallel:2, plus scan when tracing.
    kernels: usize,
    /// Rounds run so far, over all kernels.
    rounds: usize,
    /// Per kernel: steps and seconds of each checked round.
    rounds_run: Vec<Vec<(f64, f64)>>,
}

impl SimPhase {
    /// A phase over `programs`. With tracing on, the scan kernel runs
    /// too, as the reference for the other two.
    pub fn new(programs: Vec<SimProgram>, tracer: Tracer) -> SimPhase {
        let kernels = if tracer.on() { 3 } else { 2 };
        SimPhase {
            programs,
            tracer,
            kernels,
            rounds: 0,
            rounds_run: vec![Vec::new(); kernels],
        }
    }

    /// Whether every kernel has run `rounds` rounds.
    pub fn rounds_done(&self, rounds: usize) -> bool {
        self.rounds >= rounds * self.kernels
    }

    /// Run one unit: every program once, on the next kernel in turn.
    pub fn step(&mut self, report: &mut Report) {
        let k = self.rounds % self.kernels;
        let first = self.rounds < self.kernels;
        self.rounds += 1;
        let (kernel, span, _) = KERNELS[k];
        let r = round(&self.programs, kernel, span, &self.tracer);
        let (mut steps, mut fires) = (0u64, 0u64);
        let mut epochs = EpochStats::default();
        let mut ok = true;
        for (i, (p, res)) in self.programs.iter().zip(&r.results).enumerate() {
            let checked = res.as_ref().map_err(Clone::clone).and_then(|(run, e)| {
                p.verify(run)?;
                Ok((run, e))
            });
            match checked {
                Ok((run, e)) => {
                    report.ok();
                    steps += run.steps;
                    fires += run.total_fires;
                    epochs.epochs += e.epochs;
                    epochs.batched_steps += e.batched_steps;
                    epochs.horizon_fallbacks += e.horizon_fallbacks;
                    if first && k == 0 && i == 0 {
                        match run.source_timing(&p.primary).interval() {
                            Some(v) => report.count("sim_interval", v),
                            None => {
                                report.fail(format!("{}: too few packets for an interval", p.name))
                            }
                        }
                    }
                }
                Err(e) => {
                    ok = false;
                    report.fail(e);
                }
            }
        }
        if !ok {
            return;
        }
        self.rounds_run[k].push((steps as f64, r.ms / 1e3));
        if first {
            match kernel {
                Kernel::EventDriven => {
                    report.count("machine.steps", steps as f64);
                    report.count("machine.fires", fires as f64);
                    report.count("machine.fires_per_step", fires as f64 / steps as f64);
                }
                Kernel::ParallelEvent(_) => {
                    report.count("machine.par2.epochs", epochs.epochs as f64);
                    report.count("machine.par2.mean_horizon", epochs.mean_horizon());
                    report.count(
                        "machine.par2.horizon_fallbacks",
                        epochs.horizon_fallbacks as f64,
                    );
                    report.count(
                        "machine.par2.batched_ratio",
                        epochs.batched_steps as f64 / steps as f64,
                    );
                }
                Kernel::Scan => {}
            }
        }
    }

    /// Record the phase's end-to-end metrics: each kernel's steps per
    /// second over its rounds.
    pub fn finish(self, report: &mut Report) {
        for (k, rounds) in self.rounds_run.iter().enumerate() {
            report.rate_of(KERNELS[k].2, rounds);
        }
        let cells: usize = self.programs.iter().map(|p| p.exe.node_count()).sum();
        report.count("machine_cells", cells as f64);
    }
}
