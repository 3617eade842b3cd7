//! Compile phase: one editor session on a stencil chain. Cold compiles
//! (a fresh `QueryEngine`) are interleaved with a seeded series of
//! single-block edits through one warm engine. A *literal* edit changes
//! one block's constant, which leaves the balance problem unchanged; a
//! *shape* edit changes one block's window offset (`S{k}[i-1]` becomes
//! `S{k}[i]`), which changes it. A block is shape-edited at most once
//! per editor session, so no shape edit can be answered from the balance
//! memo. When every block has been shape-edited, a new session starts on
//! a fresh text with a fresh warm engine.

use valpipe_balance::BalanceMode;
use valpipe_bench::workloads::chain_src;
use valpipe_core::{
    compile_source, dump_graph, CompileLimits, CompileOptions, Compiled, PipelineOutput,
    QueryEngine,
};
use valpipe_util::Rng;

use crate::report::Report;
use crate::trace::{Scope, Tracer};

/// Size of the edited chain.
#[derive(Debug, Clone, Copy)]
pub struct CompilePlan {
    /// Range parameter `m` of the chain.
    pub m: usize,
    /// Number of stencil blocks.
    pub blocks: usize,
}

/// Literal edits per round (each round also makes one shape edit).
const LITERALS_PER_ROUND: usize = 5;

/// Constants a literal edit may write. All keep the chain's values finite
/// over a few hundred blocks.
const CONSTANTS: &[&str] = &["0.25", "0.3", "0.4", "0.45", "0.5", "0.55", "0.6", "0.7"];

const FILE: &str = "chain.val";

/// The editor's text plus which blocks have been shape-edited.
struct Editor {
    text: String,
    shaped: Vec<bool>,
}

impl Editor {
    fn new(plan: &CompilePlan) -> Editor {
        Editor {
            text: chain_src(plan.m, plan.blocks),
            shaped: vec![false; plan.blocks + 1],
        }
    }

    /// Rewrite the statement of block `S{k}` with `f`.
    fn edit_block(&mut self, k: usize, f: impl FnOnce(&str) -> String) {
        let head = format!("S{k} : array[real]");
        let start = self
            .text
            .find(&head)
            .expect("every chain block has a statement");
        let end = start
            + self.text[start..]
                .find('\n')
                .expect("statements end a line");
        let line = f(&self.text[start..end]);
        self.text.replace_range(start..end, &line);
    }

    /// Change one block's constant to a different one.
    fn literal(&mut self, rng: &mut Rng) {
        let k = 1 + rng.below(self.shaped.len() - 1);
        let pick = rng.below(CONSTANTS.len() - 1);
        self.edit_block(k, |line| {
            let at = line.find("construct ").expect("block body") + "construct ".len();
            let len = line[at..].find(' ').expect("constant ends");
            let old = &line[at..at + len];
            let others: Vec<&&str> = CONSTANTS.iter().filter(|c| **c != old).collect();
            format!(
                "{}{}{}",
                &line[..at],
                others[pick % others.len()],
                &line[at + len..]
            )
        });
    }

    /// Blocks not shape-edited yet.
    fn unshaped(&self) -> Vec<usize> {
        (1..self.shaped.len())
            .filter(|&k| !self.shaped[k])
            .collect()
    }

    /// Move one not-yet-edited block's left window offset.
    fn shape(&mut self, rng: &mut Rng) {
        let free = self.unshaped();
        assert!(
            !free.is_empty(),
            "a round starts with a block to shape-edit"
        );
        let k = free[rng.below(free.len())];
        self.shaped[k] = true;
        self.edit_block(k, |line| {
            let from = format!("S{}[i-1]", k - 1);
            line.replacen(&from, &format!("S{}[i]", k - 1), 1)
        });
    }
}

/// The canonical machine listing of a compiled program: two compiles
/// produce the same machine program exactly when these are equal.
fn machine_listing(c: &Compiled) -> String {
    dump_graph(&c.executable(), &c.prov)
}

fn compile_on(engine: &mut QueryEngine, text: &str) -> Result<PipelineOutput, String> {
    engine
        .run_source(
            &CompileOptions::paper(),
            &CompileLimits::unbounded(),
            &[],
            text,
            FILE,
        )
        .map_err(|e| e.to_string())
}

/// Time each layer of a compile of `text` through its public entry
/// points, as children of `scope`. `balanced` is the cold compile of the
/// same text, whose FIFOs the expansion probe lowers.
fn layer_probe(scope: &Scope, text: &str, balanced: &Compiled, report: &mut Report) {
    use valpipe_val::{deps, dims, parser, typeck};
    let parsed = scope
        .child("val.parse", |_| parser::parse_program_mapped(text, FILE))
        .0;
    let Ok((prog, map)) = parsed else {
        return report.fail("layer probe: parse");
    };
    let typed = scope
        .child("val.typecheck", |_| {
            let (flat, _) = dims::flatten_program(&prog).ok()?;
            typeck::check_program_mapped(&flat, &map).ok()
        })
        .0;
    let Some(typed) = typed else {
        return report.fail("layer probe: typecheck");
    };
    let analyzed = scope
        .child("val.analyze", |_| deps::analyze(&typed).is_ok())
        .0;
    report.check(analyzed, || "layer probe: analyze".into());
    let opts = CompileOptions {
        balance: BalanceMode::None,
        ..CompileOptions::paper()
    };
    let unbalanced = scope
        .child("core.compile_unbalanced", |_| compile_source(text, &opts))
        .0;
    let Ok(unbalanced) = unbalanced else {
        return report.fail("layer probe: unbalanced compile");
    };
    let mut g = unbalanced.graph;
    let solved = scope
        .child("balance.solve", |_| {
            valpipe_balance::balance(&mut g, BalanceMode::Optimal)
        })
        .0;
    report.check(solved.is_ok(), || "layer probe: balance".into());
    let (exe, _) = scope.child("ir.expand", |_| balanced.executable());
    report.check(exe.node_count() > 0, || "layer probe: expand".into());
}

/// The compile phase's state between units of work.
pub struct CompilePhase {
    plan: CompilePlan,
    rng: Rng,
    tracer: Tracer,
    editor: Editor,
    warm: QueryEngine,
    /// The warm engine's last output; `None` until the current editor
    /// session's first edit.
    last_warm: Option<Compiled>,
    /// Rounds started; each is one cold compile and then its edits.
    round: usize,
    /// Edits left in the current round, and the index of its shape edit.
    edits_left: usize,
    shape_at: usize,
    first_edit_round: Option<Compiled>,
    failed: bool,
    cold_ms: Vec<f64>,
    literal_ms: Vec<f64>,
    shape_ms: Vec<f64>,
}

impl CompilePhase {
    pub fn new(plan: CompilePlan, rng: Rng, tracer: Tracer) -> CompilePhase {
        CompilePhase {
            editor: Editor::new(&plan),
            plan,
            rng,
            tracer,
            warm: QueryEngine::new(),
            round: 0,
            edits_left: 0,
            shape_at: 0,
            last_warm: None,
            first_edit_round: None,
            failed: false,
            cold_ms: Vec::new(),
            literal_ms: Vec::new(),
            shape_ms: Vec::new(),
        }
    }

    /// Whether `rounds` whole rounds have run.
    pub fn rounds_done(&self, rounds: usize) -> bool {
        self.round > rounds || (self.round == rounds && self.edits_left == 0)
    }

    /// Whether a compile failed, which stops the phase.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// The program after the first round's edits, compiled warm, once
    /// that round has run. The next round's cold compile checks it.
    pub fn first_edit(&self) -> Option<&Compiled> {
        match (&self.first_edit_round, self.round) {
            (Some(c), _) => Some(c),
            (None, 1) if self.edits_left == 0 => self.last_warm.as_ref(),
            _ => None,
        }
    }

    /// Run one unit: a round's cold compile, or one of its edits.
    pub fn step(&mut self, report: &mut Report) {
        if self.edits_left == 0 {
            self.cold(report);
        } else {
            self.edit(report);
        }
    }

    fn cold(&mut self, report: &mut Report) {
        if self.editor.unshaped().is_empty() {
            // Every block has been shape-edited: start a new session.
            self.editor = Editor::new(&self.plan);
            self.warm = QueryEngine::new();
            self.last_warm = None;
        }
        // A session's first cold compile is its warm engine's first
        // compile.
        let round = self.round;
        let fresh = self.last_warm.is_none();
        let text = self.editor.text.clone();
        let warm = &mut self.warm;
        let (out, ms) = self.tracer.root("compile.cold", |_| {
            if fresh {
                compile_on(warm, &text)
            } else {
                compile_on(&mut QueryEngine::new(), &text)
            }
        });
        let cold = match out {
            Ok(o) => o.compiled,
            Err(e) => {
                self.failed = true;
                return report.fail(format!("cold compile: {e}"));
            }
        };
        if self.tracer.on() {
            self.tracer
                .root("compile.layers", |s| layer_probe(s, &text, &cold, report));
        }
        if round == 0 {
            report.count("core.queries_total", self.warm.stats().total() as f64);
            report.count("ir.cells_balanced", cold.graph.node_count() as f64);
            report.count("balance.buffers", cold.stats.global_buffers as f64);
        }
        self.cold_ms.push(ms);
        // The warm engine's output for this text must be the machine
        // program a cold compile produces.
        match &self.last_warm {
            Some(w) => {
                let same = machine_listing(w) == machine_listing(&cold);
                report.check(same, || {
                    format!("round {round}: warm compile differs from cold compile")
                });
            }
            None => report.ok(),
        }
        if round == 1 {
            self.first_edit_round = Some(cold);
        }
        self.round += 1;
        self.edits_left = LITERALS_PER_ROUND + 1;
        self.shape_at = self.rng.below(self.edits_left);
    }

    fn edit(&mut self, report: &mut Report) {
        let is_shape = self.edits_left - 1 == self.shape_at;
        self.edits_left -= 1;
        if is_shape {
            self.editor.shape(&mut self.rng);
        } else {
            self.editor.literal(&mut self.rng);
        }
        let name = if is_shape {
            "compile.edit_shape"
        } else {
            "compile.edit_literal"
        };
        let text = self.editor.text.clone();
        let warm = &mut self.warm;
        let (out, ms) = self.tracer.root(name, |_| compile_on(warm, &text));
        match out {
            Ok(o) => {
                report.ok();
                let executed = self.warm.stats().executed() as f64;
                let (samples, key) = if is_shape {
                    (&mut self.shape_ms, "core.queries_executed.shape")
                } else {
                    (&mut self.literal_ms, "core.queries_executed.literal")
                };
                if samples.is_empty() {
                    report.count(key, executed);
                }
                samples.push(ms);
                self.last_warm = Some(o.compiled);
            }
            Err(e) => {
                self.failed = true;
                report.fail(format!("warm compile after edit: {e}"));
            }
        }
    }

    /// Record the phase's end-to-end metrics.
    pub fn finish(self, report: &mut Report) {
        report.time_of("compile_cold_ms", &self.cold_ms);
        report.time_of("edit_literal_ms", &self.literal_ms);
        report.time_of("edit_shape_ms", &self.shape_ms);
    }
}
