//! Serve phase: a closed loop of client connections against an
//! in-process `Server`. Each client owns a seeded share of the session
//! templates; per generation it opens one session per template, issues
//! round-robin `run` jobs with rising absolute `until` targets until
//! every session is done, byte-compares each final `result` with an
//! uninterrupted in-process run of the same spec, and closes the
//! sessions. With `max_live` below the number of open sessions, the
//! registry hibernates and reloads sessions as it goes.
//!
//! With tracing on, the same job sequence is also driven through a
//! `Registry` in-process, with `SessionCore::advance` timed inside the
//! `with_session` closure; the gap between the two loops' job times is
//! the wire's share (protocol, JSON and queue wait).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use valpipe_bench::workloads::{fig3_src, fig6_src};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source_limited, CompileLimits, CompileOptions};
use valpipe_machine::{ExecMode, Kernel, RunSpec, Session, SimConfig, Simulator};
use valpipe_serve::proto::run_result_to_json;
use valpipe_serve::{
    hibernate, Advance, Client, JobLimits, Registry, ServeConfig, Server, SessionCore, SessionSpec,
};
use valpipe_util::{Json, Rng};
use valpipe_val::interp::ArrayVal;

use crate::report::Report;
use crate::stats::{median, supported_percentile, Tally};
use crate::trace::Tracer;

/// Client connections in the closed loop (at most the host's 2 cores).
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Jobs that must lie beyond the reported p99.
const TAIL: usize = 10;
/// Sessions the registry keeps in memory; below the open count, the
/// registry hibernates and reloads sessions.
const MAX_LIVE: usize = 4;
/// Fewest jobs per wire loop, so the p99 has enough samples beyond it.
const MIN_JOBS: usize = 1_000;

/// The session mix.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Fig. 3 (m = 64) sessions run in `exact` mode: machine-heavy jobs.
    pub fig3_exact: usize,
    /// Fig. 6 (m = 4) sessions run in `fastforward` mode: the machine is
    /// nearly free, so the service's own overhead dominates.
    pub fig6_fastforward: usize,
}

/// One session definition with its job size and its reference result.
pub struct Template {
    spec: SessionSpec,
    mode: ExecMode,
    /// Instruction times each job adds to its `until` target.
    step: u64,
    /// Compact JSON of an uninterrupted in-process run of `spec`.
    oracle: String,
}

impl Template {
    fn spec_named(&self, name: &str) -> SessionSpec {
        SessionSpec {
            name: name.to_string(),
            ..self.spec.clone()
        }
    }
}

/// Build `plan`'s templates with seeded input arrays and run each once
/// in-process for its reference result.
pub fn templates(plan: &ServePlan, rng: &mut Rng) -> Result<Vec<Template>, String> {
    // (source, waves, mode, steps a job). The exact Fig. 3 sessions take
    // about three jobs for every fast-forward Fig. 6 job, so the median
    // job lies well inside the exact jobs rather than between the two.
    let kinds = std::iter::repeat_n((fig3_src(64), 24, ExecMode::Exact, 200), plan.fig3_exact)
        .chain(std::iter::repeat_n(
            (
                fig6_src(4),
                500,
                ExecMode::FastForward { verify_window: 0 },
                1_000,
            ),
            plan.fig6_fastforward,
        ));
    kinds
        .map(|(source, waves, mode, step)| {
            let compiled = compile_source_limited(
                &source,
                "<session>",
                &CompileOptions::default(),
                &CompileLimits::service(),
            )
            .map_err(|e| format!("session program: {e}"))?;
            let mut arrays = Vec::new();
            let mut bound = std::collections::HashMap::new();
            for (name, (lo, hi)) in &compiled.flow.inputs {
                let vals: Vec<f64> = (*lo..=*hi).map(|_| 0.25 + rng.f64()).collect();
                arrays.push((
                    name.clone(),
                    Json::Arr(vals.iter().map(|&v| Json::Float(v)).collect()),
                ));
                bound.insert(name.clone(), ArrayVal::from_reals(*lo, &vals));
            }
            let spec = SessionSpec {
                name: String::new(),
                source,
                arrays: Json::Obj(arrays),
                waves,
                kernel: Kernel::EventDriven,
                max_steps: 10_000_000,
            };
            let exe = compiled.executable();
            let result = Simulator::builder(&exe)
                .inputs(stream_inputs(&compiled, &bound, waves))
                .config(
                    SimConfig::new()
                        .max_steps(spec.max_steps)
                        .kernel(spec.kernel),
                )
                .build()
                .and_then(|s| s.drive(RunSpec::new()))
                .map_err(|e| format!("session reference run: {e}"))?
                .result();
            Ok(Template {
                spec,
                mode,
                step,
                oracle: run_result_to_json(&result).to_compact(),
            })
        })
        .collect()
}

/// What one `run` job reported.
struct JobReply {
    /// The final result's compact JSON, once the run is done.
    result: Option<String>,
    /// Instruction times skipped and advanced in this job (fast-forward
    /// jobs that paused; zero otherwise).
    skipped: u64,
    advanced: u64,
}

/// How a client reaches the sessions.
trait Transport {
    fn open(&mut self, t: &Template, name: &str) -> Result<(), String>;
    fn run(&mut self, t: &Template, name: &str, until: u64) -> Result<JobReply, String>;
    fn close(&mut self, name: &str) -> Result<(), String>;
}

/// The wire: one `Client` connection to the server.
struct Wire(Client);

fn request(c: &mut Client, req: Json) -> Result<Json, String> {
    let reply = c.request(&req).map_err(|e| format!("i/o: {e}"))?;
    if reply.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(reply)
    } else {
        Err(format!(
            "error reply: {}",
            reply.get("error").map_or(String::new(), Json::to_compact)
        ))
    }
}

fn string(s: &str) -> Json {
    Json::Str(s.to_string())
}

impl Transport for Wire {
    fn open(&mut self, t: &Template, name: &str) -> Result<(), String> {
        request(
            &mut self.0,
            Json::obj([
                ("op", string("open")),
                ("session", string(name)),
                ("source", string(&t.spec.source)),
                ("arrays", t.spec.arrays.clone()),
                ("waves", Json::Int(t.spec.waves as i64)),
                ("kernel", string("event")),
                ("max_steps", Json::Int(t.spec.max_steps as i64)),
            ]),
        )
        .map(drop)
    }

    fn run(&mut self, t: &Template, name: &str, until: u64) -> Result<JobReply, String> {
        let mode = match t.mode {
            ExecMode::Exact => "exact",
            ExecMode::FastForward { .. } => "fastforward",
        };
        let reply = request(
            &mut self.0,
            Json::obj([
                ("op", string("run")),
                ("session", string(name)),
                ("until", Json::Int(until as i64)),
                ("mode", string(mode)),
            ]),
        )?;
        let done = reply.get("done").and_then(Json::as_bool) == Some(true);
        Ok(JobReply {
            result: done.then(|| reply.get("result").map_or(String::new(), Json::to_compact)),
            skipped: 0,
            advanced: 0,
        })
    }

    fn close(&mut self, name: &str) -> Result<(), String> {
        request(
            &mut self.0,
            Json::obj([("op", string("close")), ("session", string(name))]),
        )
        .map(drop)
    }
}

/// In-process: the same calls the server's workers make, on a shared
/// `Registry`, with spans around each.
struct InProcess {
    registry: Arc<Registry>,
    tracer: Tracer,
    job_ms: Vec<f64>,
}

impl Transport for InProcess {
    fn open(&mut self, t: &Template, name: &str) -> Result<(), String> {
        let spec = t.spec_named(name);
        self.tracer
            .root("serve.registry_open", |_| self.registry.open(spec))
            .0
            .map(drop)
            .map_err(|e| e.message)
    }

    fn run(&mut self, t: &Template, name: &str, until: u64) -> Result<JobReply, String> {
        let limits = JobLimits {
            until: Some(until),
            mode: t.mode,
            ..JobLimits::default()
        };
        let chunk = ServeConfig::default().step_chunk;
        let (reply, ms) = self.tracer.root("serve.registry_job", |s| {
            self.registry.with_session(name, |core| {
                let before = core.now();
                let advance = s
                    .child("machine.advance", |_| core.advance(&limits, chunk))
                    .0?;
                Ok(match advance {
                    Advance::Done { .. } => Ok(JobReply {
                        result: core.final_result.clone(),
                        skipped: 0,
                        advanced: 0,
                    }),
                    Advance::Paused { now, skipped } => Ok(JobReply {
                        result: None,
                        skipped,
                        advanced: now - before,
                    }),
                    Advance::Budget { .. } | Advance::Deadline { .. } => {
                        Err("job stopped early without a budget or deadline".to_string())
                    }
                })
            })
        });
        self.job_ms.push(ms);
        reply.map_err(|e| e.message)?
    }

    fn close(&mut self, name: &str) -> Result<(), String> {
        self.registry.close(name).map(drop).map_err(|e| e.message)
    }
}

/// One client's measurements.
#[derive(Default)]
struct ClientLog {
    open_ms: Vec<f64>,
    job_ms: Vec<f64>,
    tally: Tally,
    failures: Vec<String>,
    skipped: u64,
    advanced: u64,
}

impl ClientLog {
    fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.tally.record(r.is_ok());
        r.map_err(|e| self.failures.push(e)).ok()
    }
}

/// One client's place in its closed loop, kept between bursts.
struct ClientState<'t> {
    id: usize,
    mine: Vec<&'t Template>,
    generation: usize,
    /// Open sessions: template index, session name, last `until`.
    live: Vec<(usize, String, u64)>,
    /// Next session in the round-robin order.
    cursor: usize,
    /// Set when a whole generation failed to open.
    broken: bool,
    log: ClientLog,
}

impl<'t> ClientState<'t> {
    fn new(id: usize, mine: Vec<&'t Template>) -> ClientState<'t> {
        ClientState {
            id,
            mine,
            generation: 0,
            live: Vec::new(),
            cursor: 0,
            broken: false,
            log: ClientLog::default(),
        }
    }

    /// Open one session per template.
    fn open_generation(&mut self, transport: &mut dyn Transport) {
        for (k, t) in self.mine.iter().enumerate() {
            let name = format!("c{}-g{}-t{k}", self.id, self.generation);
            let t0 = Instant::now();
            let opened = transport.open(t, &name);
            self.log.open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if self.log.check(opened).is_some() {
                self.live.push((k, name, 0));
            }
        }
        self.generation += 1;
        self.cursor = 0;
        // Nothing opens: every further attempt would fail the same way.
        self.broken = self.live.is_empty();
    }

    /// Issue jobs round-robin until `deadline`, opening a new generation
    /// whenever the last one is done. With no deadline, finish the
    /// sessions in flight and open no more.
    fn advance(&mut self, transport: &mut dyn Transport, deadline: Option<Instant>) {
        loop {
            let past = deadline.is_some_and(|d| Instant::now() >= d);
            if self.live.is_empty() {
                if deadline.is_none() || past || self.broken {
                    return;
                }
                self.open_generation(transport);
                continue;
            }
            if past {
                return;
            }
            let at = self.cursor % self.live.len();
            let (k, name, until) = &mut self.live[at];
            let t = self.mine[*k];
            *until += t.step;
            let t0 = Instant::now();
            let reply = transport.run(t, name, *until);
            self.log.job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let finished = match self.log.check(reply) {
                None => true,
                Some(reply) => {
                    if matches!(t.mode, ExecMode::FastForward { .. }) {
                        self.log.skipped += reply.skipped;
                        self.log.advanced += reply.advanced;
                    }
                    match reply.result {
                        None => false,
                        Some(result) => {
                            let name = name.clone();
                            self.log.check(if result == t.oracle {
                                Ok(())
                            } else {
                                Err(format!(
                                    "{name}: served result differs from the in-process run"
                                ))
                            });
                            let closed = transport.close(&name);
                            self.log.check(closed);
                            true
                        }
                    }
                }
            };
            if finished {
                self.live.remove(at);
            } else {
                self.cursor = at + 1;
            }
        }
    }
}

/// The clients of one closed loop, each with its own transport.
struct ServeLoop<'t, T> {
    clients: Vec<(ClientState<'t>, T)>,
    /// Jobs completed and seconds taken, per burst with a deadline.
    bursts: Vec<(f64, f64)>,
}

impl<'t, T: Transport + Send> ServeLoop<'t, T> {
    fn new(owned: &[Vec<&'t Template>], transports: Vec<T>) -> ServeLoop<'t, T> {
        ServeLoop {
            clients: owned
                .iter()
                .zip(transports)
                .enumerate()
                .map(|(id, (mine, t))| (ClientState::new(id, mine.clone()), t))
                .collect(),
            bursts: Vec::new(),
        }
    }

    /// Let every client run concurrently until `deadline` (see
    /// [`ClientState::advance`]).
    fn burst(&mut self, deadline: Option<Instant>) {
        let jobs = self.jobs();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (client, transport) in &mut self.clients {
                s.spawn(move || client.advance(transport, deadline));
            }
        });
        if deadline.is_some() {
            let done = (self.jobs() - jobs) as f64;
            self.bursts.push((done, t0.elapsed().as_secs_f64()));
        }
    }

    fn all(&self, f: impl Fn(&ClientLog) -> &Vec<f64>) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|(c, _)| f(&c.log).iter().copied())
            .collect()
    }

    fn jobs(&self) -> usize {
        self.clients.iter().map(|(c, _)| c.log.job_ms.len()).sum()
    }

    fn merge_into(&self, report: &mut Report) {
        for (c, _) in &self.clients {
            report.tally.attempted += c.log.tally.attempted;
            report.tally.failed += c.log.tally.failed;
            for f in &c.log.failures {
                eprintln!("perfbench: FAILED: {f}");
            }
        }
    }
}

/// Split the templates among the clients by a seeded shuffle.
fn assign<'t>(templates: &'t [Template], rng: &mut Rng) -> Vec<Vec<&'t Template>> {
    let mut order: Vec<usize> = (0..templates.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    (0..CLIENTS)
        .map(|c| {
            order
                .iter()
                .skip(c)
                .step_by(CLIENTS)
                .map(|&i| &templates[i])
                .collect()
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(".bench_out").join(format!("serve-{}-{tag}", std::process::id()))
}

/// Length of one burst of client work.
const BURST: Duration = Duration::from_millis(250);
/// Fewest jobs of the traced in-process loop.
const MIN_TRACED_JOBS: usize = 200;

/// The serve phase's state between bursts: the server, the wire loop
/// and, with tracing on, the in-process registry loop.
pub struct ServePhase<'s, 't> {
    templates: &'t [Template],
    tracer: Tracer,
    addr: String,
    server: ScopedJoinHandle<'s, std::io::Result<()>>,
    wire: ServeLoop<'t, Wire>,
    traced: Option<ServeLoop<'t, InProcess>>,
    /// Bursts run so far; in traced runs the two loops alternate.
    bursts: usize,
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr, Duration::from_secs(120)).map_err(|e| format!("connect: {e}"))
}

fn shutdown(addr: &str) -> Result<(), String> {
    request(&mut connect(addr)?, Json::obj([("op", string("shutdown"))])).map(drop)
}

impl<'s, 't> ServePhase<'s, 't> {
    /// Start the server on `127.0.0.1:0` inside `scope` and connect the
    /// clients.
    pub fn start(
        scope: &'s Scope<'s, '_>,
        templates: &'t [Template],
        seed: u64,
        tracer: Tracer,
    ) -> Result<ServePhase<'s, 't>, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue_cap: 2 * CLIENTS,
            max_live: MAX_LIVE,
            hibernate_dir: scratch_dir("wire"),
            seed,
            ..ServeConfig::default()
        };
        let (server, _) = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?
            .to_string();
        let handle = scope.spawn(move || server.run());
        let mut wires = Vec::new();
        for _ in 0..CLIENTS {
            match connect(&addr) {
                Ok(c) => wires.push(Wire(c)),
                Err(e) => {
                    let _ = shutdown(&addr);
                    let _ = handle.join();
                    return Err(e);
                }
            }
        }
        let owned = assign(templates, &mut Rng::seed(seed ^ 0x5e55_1075));
        let traced = tracer.on().then(|| {
            let registry = Arc::new(Registry::new(scratch_dir("registry"), MAX_LIVE, seed));
            let transports = (0..CLIENTS)
                .map(|_| InProcess {
                    registry: Arc::clone(&registry),
                    tracer: tracer.clone(),
                    job_ms: Vec::new(),
                })
                .collect();
            ServeLoop::new(&owned, transports)
        });
        Ok(ServePhase {
            templates,
            tracer,
            addr,
            server: handle,
            wire: ServeLoop::new(&owned, wires),
            traced,
            bursts: 0,
        })
    }

    /// Whether the loops have made enough jobs for their percentiles.
    pub fn min_met(&self) -> bool {
        self.wire.jobs() >= MIN_JOBS
            && self
                .traced
                .as_ref()
                .is_none_or(|t| t.jobs() >= MIN_TRACED_JOBS)
    }

    /// Run one burst of client work.
    pub fn step(&mut self) {
        let deadline = Some(Instant::now() + BURST);
        self.bursts += 1;
        match &mut self.traced {
            Some(traced) if self.bursts.is_multiple_of(2) => traced.burst(deadline),
            _ => self.wire.burst(deadline),
        }
    }

    /// Finish the sessions in flight, stop the server, and record the
    /// phase's metrics.
    pub fn finish(mut self, report: &mut Report) {
        self.wire.burst(None);
        if let Some(traced) = &mut self.traced {
            traced.burst(None);
        }
        let stats = request(
            &mut self.wire.clients[0].1 .0,
            Json::obj([("op", string("stats"))]),
        );
        let stopped = shutdown(&self.addr);
        let served = self.server.join().expect("server thread panicked");
        let _ = std::fs::remove_dir_all(scratch_dir("wire"));
        let _ = std::fs::remove_dir_all(scratch_dir("registry"));
        report.check(stopped.is_ok() && served.is_ok(), || {
            format!("server shutdown: {stopped:?} {served:?}")
        });

        self.wire.merge_into(report);
        // Each client's samples in the order taken, one client after the
        // other: a block of them is a stretch of the run.
        let jobs = self.wire.all(|c| &c.job_ms);
        report.time_of("serve_open_ms", &self.wire.all(|c| &c.open_ms));
        report.median_of("serve_job_p50_ms", &jobs);
        match supported_percentile(&jobs, 99.0, TAIL) {
            Some(p99) => report.set("serve_job_p99_ms", p99, jobs.len()),
            None => report.fail(format!(
                "{} jobs leave fewer than {TAIL} beyond p99",
                jobs.len()
            )),
        }
        report.rate_of("serve_jobs_per_s", &self.wire.bursts);
        match stats {
            Ok(stats) => {
                for (key, metric) in [
                    ("hibernations", "serve.hibernations"),
                    ("resumes", "serve.resumes"),
                    ("rejected_overload", "serve.rejected_overload"),
                    ("ff_skipped_steps", "serve.ff_skipped_steps"),
                ] {
                    if let Some(v) = stats.get(key).and_then(Json::as_i64) {
                        report.set(metric, v as f64, 1);
                    }
                }
            }
            Err(e) => report.fail(format!("stats: {e}")),
        }
        probe_state(self.templates, &self.tracer, report);
        let Some(traced) = self.traced else {
            return;
        };
        traced.merge_into(report);
        let (skipped, advanced) = traced.clients.iter().fold((0, 0), |(s, a), (c, _)| {
            (s + c.log.skipped, a + c.log.advanced)
        });
        report.set(
            "machine.ff.skip_ratio",
            skipped as f64 / advanced.max(1) as f64,
            1,
        );
        let job_ms: Vec<f64> = traced
            .clients
            .iter()
            .flat_map(|(_, t)| t.job_ms.iter().copied())
            .collect();
        report.median_of("serve.registry_job_ms", &job_ms);
        if let (Some(wire), Some(local)) = (median(&jobs), median(&job_ms)) {
            report.set("serve.wire_ms", wire - local, jobs.len());
        }
    }
}

/// Snapshot and container costs and sizes, per template: stage a
/// session, run its first job, then time `Session::restore`,
/// `Session::checkpoint`, `hibernate::encode` and `hibernate::load`.
fn probe_state(templates: &[Template], tracer: &Tracer, report: &mut Report) {
    let dir = scratch_dir("probe");
    let (mut snap_bytes, mut hib_bytes) = (0usize, 0usize);
    let mut rng = Rng::seed(0);
    for (k, t) in templates.iter().enumerate() {
        let opened = SessionCore::open(t.spec_named(&format!("probe-{k}")));
        let Ok(mut core) = opened.map_err(|e| report.fail(format!("probe open: {}", e.message)))
        else {
            continue;
        };
        let first = JobLimits {
            until: Some(t.step),
            mode: t.mode,
            ..JobLimits::default()
        };
        let advanced = core
            .advance(&first, ServeConfig::default().step_chunk)
            .is_ok();
        report.check(advanced, || "probe: first job".into());
        snap_bytes = snap_bytes.max(core.snapshot.as_bytes().len());
        tracer.root("serve.state_probe", |s| {
            let (restored, _) = s.child("snapshot.restore", |_| {
                Session::restore(&core.exe, &core.snapshot)
            });
            match restored {
                Ok(session) => {
                    let (snap, _) = s.child("snapshot.encode", |_| session.checkpoint());
                    report.check(snap.as_bytes() == core.snapshot.as_bytes(), || {
                        "probe: restore then checkpoint changed the snapshot".into()
                    });
                }
                Err(e) => report.fail(format!("probe restore: {e}")),
            }
            let (bytes, _) = s.child("hibernate.encode", |_| hibernate::encode(&core));
            hib_bytes = hib_bytes.max(bytes.len());
            let saved = hibernate::save(&dir, &core, &mut rng);
            report.check(saved.is_ok(), || "probe: container save".into());
            let (loaded, _) = s.child("hibernate.load", |_| hibernate::load(&dir, &core.spec.name));
            report.check(
                loaded.is_ok_and(|l| l.snapshot.as_bytes() == core.snapshot.as_bytes()),
                || "probe: container reload".into(),
            );
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    report.count("snapshot.bytes", snap_bytes as f64);
    report.count("hibernate.bytes", hib_bytes as f64);
}
