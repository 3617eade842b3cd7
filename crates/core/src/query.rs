//! Query-based incremental compilation.
//!
//! The classic pipeline ([`PassManager::run`]) is a straight line: parse
//! the whole file, check the whole program, lower every block, balance
//! the whole graph. This module re-poses each stage as a set of
//! **queries** — per-statement parses, per-block type checks, per-block
//! flow analyses, per-block lowered regions, whole-problem balance
//! solutions, the machine listing
//! — each memoized under a fingerprint of *everything that can influence
//! its result*. Re-running a compile after an edit re-executes only the
//! queries whose inputs changed; everything else is revalidated
//! green-for-free because its key still matches (red–green with early
//! cutoff: a downstream key embeds the upstream *value* fingerprints, so
//! an upstream re-execution that reproduces the same value leaves the
//! downstream keys untouched).
//!
//! Memo hits are **exact-match**, not hash-match: every memo table is
//! keyed by the full canonical key string, so a hit proves the inputs
//! are byte-identical. No 64-bit fingerprint collision — accidental or
//! adversarially constructed (the engine is shared across tenants in
//! the serve registry) — can splice one compilation's artifact into
//! another's. Hashing (`checksum64`) is used only to *name* disk-cache
//! files, where a collision merely co-locates two files' entries; the
//! entries themselves still verify by full key.
//!
//! Memo tables are bounded by a run window: after each run, every table
//! keeps only the entries touched by one of the last [`RETAIN_RUNS`]
//! runs, so a long-lived shared engine fed arbitrary programs holds the
//! working sets of its recent runs and nothing older.
//!
//! **Bit-identity is the contract.** A warm [`QueryEngine::run_source`]
//! must produce exactly the artifacts of a cold one: same graph
//! fingerprint, same stage dumps byte-for-byte, same pass-stat sequence,
//! same typed errors. The engine guarantees this by construction:
//!
//! * per-statement parses are cached with **relative** spans and rebased
//!   to the statement's current position, so cached parse trees are
//!   position-independent;
//! * per-block type checks are keyed by the flattened block **and** a
//!   canonical rendering of the bindings of the names it references
//!   (the block is checked against exactly those); cached type errors
//!   carry no source location — the location is attached at use time
//!   from the current source map;
//! * per-block analyses (classification and range checks) are keyed by
//!   the typed block, the parameters, and the ranges of the earlier
//!   arrays it references (the only ranges it is shown);
//! * per-block lowered regions ([`valpipe_ir::GraphDelta`]) are keyed by
//!   the typed block, the lowering options, the parameter bindings, the
//!   providers of the arrays it references (the only ones it is lowered
//!   against), the provenance ids, and the exact node/arc/label
//!   counters they were captured at, so a splice is a verbatim replay;
//! * balance solutions are keyed by the full constraint-problem
//!   structure; the solvers are deterministic, so an equal problem has an
//!   equal solution;
//! * the machine listing is keyed by the full balanced listing.
//!
//! Any irregularity (a statement the splitter cannot carve, a corrupt
//! disk-cache file) falls back to the cold path — never a panic, never a
//! stale answer.
//!
//! The optional on-disk cache (`.valpipe-cache/`) persists the expensive
//! artifacts (regions and balance solutions) between processes in a
//! versioned, checksummed envelope written atomically (tmp + rename).

use crate::builder::{Compiler, Provider};
use crate::error::CompileError;
use crate::foriter::UsedScheme;
use crate::limits::{CompileLimits, LimitBreach};
use crate::options::CompileOptions;
use crate::pipeline::{
    block_prov, build_prov, dump_graph, live_blocks, lower_block, lower_epilogue, lower_inputs,
    PassStat, PipelineOutput, Stage,
};
use crate::program::{CompileStats, Compiled};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use valpipe_balance::{problem, solve, BalanceMode, BalanceSolution};
use valpipe_ir::opcode::Opcode;
use valpipe_ir::prov::Span;
use valpipe_ir::region::GraphDelta;
use valpipe_ir::validate::validate;
use valpipe_ir::value::Value;
use valpipe_ir::NodeId;
use valpipe_util::{checksum64, Json};
use valpipe_val::ast::{BlockDecl, Program};
use valpipe_val::deps::{analyze_block, analyze_with, AnalyzeError, BlockNode};
use valpipe_val::fold::Bindings;
use valpipe_val::parser::{
    parse_program_mapped_limited, parse_stmt_mapped, split_statements, ParseErrorKind, TopStmt,
};
use valpipe_val::srcmap::{SourceMap, StmtKey};
use valpipe_val::typeck::{attach_loc, check_block, program_prelude_env, TypeEnv, TypeError};

/// Fingerprint of a string. Used only to *name* on-disk cache files,
/// never to answer a memo lookup — memo tables key on the full string.
fn fp(s: &str) -> u64 {
    checksum64(s.as_bytes())
}

/// Per-run query accounting, by query kind: how many were posed and how
/// many actually executed (the rest were memo hits).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Per-statement parse queries (posed, executed).
    pub parse: (usize, usize),
    /// Per-block type-check queries.
    pub typed: (usize, usize),
    /// Per-block flow-analysis queries (classification and range checks).
    pub analyze: (usize, usize),
    /// Per-block lowered-region queries.
    pub region: (usize, usize),
    /// Balance-solution queries.
    pub balance: (usize, usize),
    /// Machine-listing queries.
    pub machine: (usize, usize),
    /// Whether this run abandoned statement splitting and re-parsed the
    /// whole file (malformed source, or a statement failed in isolation).
    pub full_parse_fallbacks: usize,
    /// Artifacts revived from the on-disk cache at load time.
    pub disk_entries_loaded: usize,
}

impl QueryStats {
    /// Total queries posed this run.
    pub fn total(&self) -> usize {
        self.parse.0
            + self.typed.0
            + self.analyze.0
            + self.region.0
            + self.balance.0
            + self.machine.0
    }

    /// Queries that executed (missed the memo) this run.
    pub fn executed(&self) -> usize {
        self.parse.1
            + self.typed.1
            + self.analyze.1
            + self.region.1
            + self.balance.1
            + self.machine.1
    }

    /// Queries answered from the memo this run.
    pub fn hits(&self) -> usize {
        self.total() - self.executed()
    }

    /// One-line human rendering (for `--incremental` stderr reporting).
    pub fn render(&self) -> String {
        format!(
            "queries: {} total, {} executed, {} cached \
             (parse {}/{}, typed {}/{}, analyze {}/{}, region {}/{}, balance {}/{}, \
             machine {}/{}){}{}",
            self.total(),
            self.executed(),
            self.hits(),
            self.parse.1,
            self.parse.0,
            self.typed.1,
            self.typed.0,
            self.analyze.1,
            self.analyze.0,
            self.region.1,
            self.region.0,
            self.balance.1,
            self.balance.0,
            self.machine.1,
            self.machine.0,
            if self.full_parse_fallbacks > 0 {
                " [full-parse fallback]"
            } else {
                ""
            },
            if self.disk_entries_loaded > 0 {
                format!(" [{} from disk]", self.disk_entries_loaded)
            } else {
                String::new()
            },
        )
    }
}

/// Cached result of lowering one block: the graph region it appended plus
/// every other piece of compiler state the block's lowering touched.
#[derive(Debug, Clone, PartialEq)]
struct RegionEntry {
    delta: GraphDelta,
    /// Providers the block registered (its own output stream), sorted by
    /// name for determinism.
    providers: Vec<(String, Provider)>,
    /// Balance anchors the block appended.
    anchors: Vec<(NodeId, i64)>,
    /// Unique-label counter after the block lowered.
    label_seq: u32,
    /// Recurrence scheme used (for-iter blocks only).
    scheme: Option<UsedScheme>,
}

/// A memoized value plus the run generation that last touched it (for
/// the post-run window sweep).
#[derive(Debug, Clone)]
struct Memo<V> {
    value: V,
    gen: u64,
}

/// A parsed statement with its statement-relative spans.
type ParsedStmt = (TopStmt, Vec<(StmtKey, Span)>);

/// A memoized per-block result plus the `Debug` rendering of its `Ok`
/// value (empty for an error), made once when the query executes so
/// that downstream keys embed it without re-rendering the value.
#[derive(Debug, Clone)]
struct Rendered<T, E> {
    result: Result<T, E>,
    repr: Arc<str>,
}

impl<T: std::fmt::Debug, E> Rendered<T, E> {
    fn new(result: Result<T, E>) -> Self {
        let repr = match &result {
            Ok(v) => format!("{v:?}").into(),
            Err(_) => "".into(),
        };
        Rendered { result, repr }
    }
}

/// Memo retention window, in runs: after each run a memo table keeps
/// only the entries touched by one of the last `RETAIN_RUNS` runs. A
/// program stays warm only while it is recompiled within `RETAIN_RUNS`
/// runs of its last compile. The serve registry's shared engine runs one
/// compile per open, so a tenant's program stays warm only if it is
/// re-opened within 16 opens across all tenants; traffic with more than
/// 16 alternating programs has not been measured. The window is narrow
/// enough that an editor's stream of shape edits does not pile up a
/// whole-program balance entry per edit.
const RETAIN_RUNS: u64 = 16;

/// The incremental compile engine: memo tables for every query kind plus
/// an optional on-disk cache. One engine instance per logical compilation
/// session; a fresh engine performs exactly the cold pipeline.
///
/// Every memo table is keyed by the full canonical key string — a hit
/// requires byte-identical inputs, so no hash collision can cross-wire
/// two compilations (see the module docs).
#[derive(Debug, Default)]
pub struct QueryEngine {
    parse_memo: HashMap<String, Memo<ParsedStmt>>,
    typed_memo: HashMap<String, Memo<Rendered<BlockDecl, TypeError>>>,
    analyze_memo: HashMap<String, Memo<Rendered<BlockNode, AnalyzeError>>>,
    region_memo: HashMap<String, Memo<RegionEntry>>,
    balance_memo: HashMap<String, Memo<BalanceSolution>>,
    machine_memo: HashMap<String, Memo<String>>,
    stats: QueryStats,
    /// Current run generation; bumped at every [`QueryEngine::run_source`].
    gen: u64,
    /// Region/balance memos gained entries since the last disk save.
    dirty: bool,
    cache_dir: Option<PathBuf>,
    cache_loaded: Option<u64>,
}

impl QueryEngine {
    /// Fresh engine with empty memos and no disk cache.
    pub fn new() -> QueryEngine {
        QueryEngine::default()
    }

    /// Fresh engine that persists regions and balance solutions under the
    /// given directory (created on first save). Corrupt or mismatched
    /// cache files are ignored silently — the engine falls back to a cold
    /// compile, never panics, and never serves stale artifacts (every
    /// lookup still goes through the full content key).
    pub fn with_disk_cache(dir: impl Into<PathBuf>) -> QueryEngine {
        QueryEngine {
            cache_dir: Some(dir.into()),
            ..QueryEngine::default()
        }
    }

    /// Query accounting for the most recent [`QueryEngine::run_source`].
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Compile source text through the staged pipeline, answering every
    /// stage from the memo tables where the inputs are unchanged. The
    /// output is bit-identical to [`PassManager::run_source`] with the
    /// same options, limits, and emit list.
    ///
    /// [`PassManager::run_source`]: crate::pipeline::PassManager::run_source
    pub fn run_source(
        &mut self,
        opts: &CompileOptions,
        limits: &CompileLimits,
        emit: &[Stage],
        src: &str,
        file: &str,
    ) -> Result<PipelineOutput, CompileError> {
        self.stats = QueryStats::default();
        self.gen += 1;
        if let Some(dir) = self.cache_dir.clone() {
            let key = cache_key(file, opts);
            if self.cache_loaded != Some(key) {
                self.stats.disk_entries_loaded = self.load_cache(&dir, key);
                self.cache_loaded = Some(key);
            }
        }
        let out = self.run_source_inner(opts, limits, emit, src, file);
        // Sweep cold memo entries whether the compile succeeded or not —
        // failed compiles populate memos too.
        self.evict();
        if out.is_ok() && self.dirty {
            if let Some(dir) = self.cache_dir.clone() {
                // Best-effort persistence; failure to write is not a
                // compile failure (and leaves `dirty` set for a retry).
                if self.save_cache(&dir, cache_key(file, opts)).is_ok() {
                    self.dirty = false;
                }
            }
        }
        out
    }

    fn run_source_inner(
        &mut self,
        opts: &CompileOptions,
        limits: &CompileLimits,
        emit: &[Stage],
        src: &str,
        file: &str,
    ) -> Result<PipelineOutput, CompileError> {
        if src.len() > limits.max_source_bytes {
            return Err(LimitBreach::SourceBytes {
                got: src.len(),
                limit: limits.max_source_bytes,
            }
            .into());
        }
        let (prog0, map) = self.parse(src, file, limits.max_nesting_depth)?;
        self.drive(opts, limits, emit, &prog0, &map)
    }

    /// Drop every memo entry that none of the last [`RETAIN_RUNS`] runs
    /// touched. Entries touched this run carry the current generation
    /// and always survive.
    fn evict(&mut self) {
        let oldest = self.gen.saturating_sub(RETAIN_RUNS - 1);
        self.parse_memo.retain(|_, e| e.gen >= oldest);
        self.typed_memo.retain(|_, e| e.gen >= oldest);
        self.analyze_memo.retain(|_, e| e.gen >= oldest);
        self.region_memo.retain(|_, e| e.gen >= oldest);
        self.balance_memo.retain(|_, e| e.gen >= oldest);
        self.machine_memo.retain(|_, e| e.gen >= oldest);
    }

    // ---- parse queries ---------------------------------------------------

    /// Whole-file parse via per-statement queries, falling back to the
    /// canonical whole-program parser on any irregularity (so diagnostics
    /// and limit classification stay byte-identical with the cold path).
    fn parse(
        &mut self,
        src: &str,
        file: &str,
        max_depth: usize,
    ) -> Result<(Program, SourceMap), CompileError> {
        let full = |stats: &mut QueryStats| {
            stats.full_parse_fallbacks += 1;
            parse_program_mapped_limited(src, file, max_depth).map_err(|e| match e.kind {
                ParseErrorKind::DepthLimit => LimitBreach::NestingDepth {
                    limit: max_depth.min(valpipe_val::parser::DEFAULT_MAX_NESTING_DEPTH),
                }
                .into(),
                ParseErrorKind::Syntax => CompileError::Parse(e),
            })
        };

        let Ok(stmts) = split_statements(src) else {
            return full(&mut self.stats);
        };
        let mut prog = Program::default();
        let mut map = SourceMap::new(file, src);
        let gen = self.gen;
        for s in &stmts {
            let text = &src[s.start..s.end];
            let key = format!("parse|{max_depth}|{text}");
            self.stats.parse.0 += 1;
            let (stmt, rel) = match self.parse_memo.get_mut(&key) {
                Some(hit) => {
                    hit.gen = gen;
                    hit.value.clone()
                }
                None => {
                    self.stats.parse.1 += 1;
                    match parse_stmt_mapped(text, max_depth) {
                        Ok(v) => {
                            self.parse_memo.insert(
                                key,
                                Memo {
                                    value: v.clone(),
                                    gen,
                                },
                            );
                            v
                        }
                        // A statement that fails in isolation gets its
                        // authoritative diagnostic from the whole-program
                        // parser (absolute positions, identical wording).
                        Err(_) => return full(&mut self.stats),
                    }
                }
            };
            for (k, sp) in rel {
                map.record(k, rebase(sp, s.start as u32, s.line, s.col));
            }
            match stmt {
                TopStmt::Param(n, v) => prog.params.push((n, v)),
                TopStmt::Input(d) => prog.inputs.push(d),
                TopStmt::Output(ns) => prog.outputs.extend(ns),
                TopStmt::Block(b) => prog.blocks.push(b),
            }
        }
        Ok((prog, map))
    }

    // ---- the staged driver ----------------------------------------------

    /// The pass sequence of [`PassManager::run`], with the per-block
    /// stages answered by queries. Pass names, order, limit checkpoints,
    /// and dump contents replicate the cold pipeline exactly.
    ///
    /// [`PassManager::run`]: crate::pipeline::PassManager::run
    fn drive(
        &mut self,
        opts: &CompileOptions,
        limits: &CompileLimits,
        emit: &[Stage],
        prog0: &Program,
        map: &SourceMap,
    ) -> Result<PipelineOutput, CompileError> {
        let mut stats: Vec<PassStat> = Vec::new();
        let mut dumps: Vec<(Stage, String)> = Vec::new();
        let empty = valpipe_ir::Graph::new();
        let t_compile = Instant::now();
        let limits_v = *limits;

        macro_rules! pass {
            ($name:literal, $g:expr, $body:expr) => {{
                let t0 = Instant::now();
                let (nb, ab) = {
                    let g: &valpipe_ir::Graph = $g;
                    (g.node_count(), g.arcs.len())
                };
                let r = $body;
                let (na, aa) = {
                    let g: &valpipe_ir::Graph = $g;
                    (g.node_count(), g.arcs.len())
                };
                stats.push(PassStat {
                    name: $name,
                    wall_s: t0.elapsed().as_secs_f64(),
                    nodes_before: nb,
                    arcs_before: ab,
                    nodes_after: na,
                    arcs_after: aa,
                });
                if na > limits_v.max_cells {
                    return Err(LimitBreach::Cells {
                        pass: $name,
                        got: na,
                        limit: limits_v.max_cells,
                    }
                    .into());
                }
                if aa > limits_v.max_arcs {
                    return Err(LimitBreach::Arcs {
                        pass: $name,
                        got: aa,
                        limit: limits_v.max_arcs,
                    }
                    .into());
                }
                let elapsed = t_compile.elapsed();
                if elapsed > limits_v.compile_budget() {
                    return Err(LimitBreach::CompileWall {
                        elapsed_ms: elapsed.as_millis() as u64,
                        limit_ms: limits_v.max_compile_millis,
                    }
                    .into());
                }
                r
            }};
        }

        if emit.contains(&Stage::Ast) {
            dumps.push((Stage::Ast, valpipe_val::pretty::program_to_source(prog0)));
        }

        // ---- AST → TypedAst --------------------------------------------
        let (prog, dims) = pass!("flatten", &empty, {
            valpipe_val::dims::flatten_program(prog0).map_err(CompileError::Unsupported)?
        });
        let (prog, decl_reprs) = pass!("typecheck", &empty, self.typecheck(&prog, map)?);
        let (flow, node_reprs) = pass!("analyze", &empty, self.analyze(&prog, &decl_reprs)?);
        let (prov, src_ids) = build_prov(&prog, map);

        if emit.contains(&Stage::Typed) {
            dumps.push((Stage::Typed, valpipe_val::pretty::program_to_source(&prog)));
        }

        // ---- TypedAst → Ir ---------------------------------------------
        let mut params = Bindings::new();
        for (n, v) in &prog.params {
            params.insert(n.clone(), Value::Int(*v));
        }
        let params_fp = fp(&format!("{:?}", prog.params));
        let mut c = Compiler::new(params);
        let mut cstats = CompileStats::default();

        pass!("lower", &c.g, {
            lower_inputs(&mut c, opts, &flow, &src_ids);
            // `lower_block` resolves a block's declaration by name, so a
            // duplicated name resolves to its first declaration.
            let mut decl_of: HashMap<&str, usize> = HashMap::new();
            for (i, b) in prog.blocks.iter().enumerate() {
                decl_of.entry(b.name.as_str()).or_insert(i);
            }
            let live = live_blocks(&flow, &prog.outputs);
            for (i, (block, node_repr)) in flow.blocks.iter().zip(&node_reprs).enumerate() {
                if !opts.keep_dead_blocks && !live.contains(&block.name) {
                    cstats.dead_blocks.push(block.name.clone());
                    continue;
                }
                let decl = decl_of.get(block.name.as_str()).copied();
                // The analyzed node comes from the block's own
                // declaration, the forall body from the first one of its
                // name; lowering looks up only names either references.
                let mut names = prog.blocks[i].referenced_names();
                if let Some(d) = decl.filter(|&d| d != i) {
                    names.extend(prog.blocks[d].referenced_names());
                }
                self.lower_block_query(
                    &mut c,
                    &mut cstats,
                    opts,
                    &prog,
                    block,
                    (node_repr, decl.map(|d| &*decl_reprs[d])),
                    &names,
                    &src_ids,
                    params_fp,
                )?;
            }
            lower_epilogue(&mut c, opts, &prog, &src_ids)?;
        });

        if opts.fuse_gates {
            pass!("fuse", &c.g, {
                let fused = crate::fuse::fuse_static_gates(&mut c.g);
                cstats.fused_gates = fused.fused;
                if fused.fused > 0 {
                    crate::fuse::sweep_dead(&mut c.g);
                }
            });
        }

        if opts.synthesize_generators {
            pass!("synth", &c.g, {
                let synth = crate::synth::synthesize_generators(&mut c.g);
                cstats.synthesized_generators = synth.ctl_generators + synth.index_generators;
            });
        }

        cstats.cells_before_balance = c.g.node_count();
        if emit.contains(&Stage::Ir) {
            dumps.push((Stage::Ir, dump_graph(&c.g, &prov)));
        }

        // ---- Ir → BalancedIr -------------------------------------------
        pass!("loop-balance", &c.g, {
            cstats.loop_buffers = crate::loops::balance_loop_interiors(&mut c.g);
        });

        pass!("validate", &c.g, {
            let defects = validate(&c.g);
            if !defects.is_empty() {
                let msg = defects
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ");
                return Err(CompileError::BadCode(msg));
            }
        });

        if opts.balance != BalanceMode::None {
            pass!("global-balance", &c.g, {
                let p = problem::extract_anchored(&c.g, &c.anchors)?;
                let sol = self.balance_query(&p, opts.balance)?;
                cstats.global_buffers = problem::apply(&mut c.g, &p, &sol);
            });
        }

        let mut expanded_cells = c.g.node_count();
        let mut deepest = 0usize;
        for n in &c.g.nodes {
            if let Opcode::Fifo(d) = n.op {
                deepest = deepest.max(d as usize);
                expanded_cells += (d as usize).saturating_sub(1);
            }
        }
        if deepest > limits_v.max_fifo_depth {
            return Err(LimitBreach::FifoDepth {
                got: deepest,
                limit: limits_v.max_fifo_depth,
            }
            .into());
        }
        if expanded_cells > limits_v.max_cells {
            return Err(LimitBreach::Cells {
                pass: "fifo-expand",
                got: expanded_cells,
                limit: limits_v.max_cells,
            }
            .into());
        }

        if emit.contains(&Stage::Balanced) {
            dumps.push((Stage::Balanced, dump_graph(&c.g, &prov)));
        }

        let compiled = Compiled {
            graph: c.g,
            program: prog,
            flow,
            dims,
            prov,
            stats: cstats,
        };

        // ---- BalancedIr → MachineProgram -------------------------------
        if emit.contains(&Stage::Machine) {
            self.stats.machine.0 += 1;
            let balanced_listing = dump_graph(&compiled.graph, &compiled.prov);
            let key = format!("machine|{balanced_listing}");
            let gen = self.gen;
            let listing = match self.machine_memo.get_mut(&key) {
                Some(hit) => {
                    hit.gen = gen;
                    hit.value.clone()
                }
                None => {
                    self.stats.machine.1 += 1;
                    let g = compiled.executable();
                    let text = dump_graph(&g, &compiled.prov);
                    self.machine_memo.insert(
                        key,
                        Memo {
                            value: text.clone(),
                            gen,
                        },
                    );
                    text
                }
            };
            dumps.push((Stage::Machine, listing));
        }

        dumps.sort_by_key(|(s, _)| emit.iter().position(|e| e == s));

        Ok(PipelineOutput {
            compiled,
            pass_stats: stats,
            dumps,
        })
    }

    // ---- typed queries ---------------------------------------------------

    /// Per-block replication of `check_program`: same environment
    /// evolution, same first-error-wins order, same output check. Cached
    /// type errors are stored location-free and resolved against the
    /// current source map at use time.
    ///
    /// Returns the checked program and, per block, the `Debug` rendering
    /// of its checked declaration (for the downstream keys).
    fn typecheck(
        &mut self,
        prog: &Program,
        map: &SourceMap,
    ) -> Result<(Program, Vec<Arc<str>>), CompileError> {
        let mut env = program_prelude_env(prog).map_err(|e| attach_loc(e, map))?;
        let mut out = Program {
            params: prog.params.clone(),
            inputs: prog.inputs.clone(),
            blocks: Vec::with_capacity(prog.blocks.len()),
            outputs: prog.outputs.clone(),
        };
        let mut reprs = Vec::with_capacity(prog.blocks.len());
        let gen = self.gen;
        for block in &prog.blocks {
            // The block is checked against only the bindings of names it
            // references, so the key need not render the whole
            // environment, and it covers everything the check reads.
            let mut scope = TypeEnv::new();
            for name in block.referenced_names() {
                if let Some(ty) = env.get(name) {
                    scope.bind(name, ty.clone());
                }
            }
            let key = format!("typed|{block:?}|{}", scope.canonical());
            self.stats.typed.0 += 1;
            let checked = match self.typed_memo.get_mut(&key) {
                Some(hit) => {
                    hit.gen = gen;
                    &hit.value
                }
                None => {
                    self.stats.typed.1 += 1;
                    let value = Rendered::new(check_block(block, &scope));
                    &self
                        .typed_memo
                        .entry(key)
                        .or_insert(Memo { value, gen })
                        .value
                }
            };
            out.blocks
                .push(checked.result.clone().map_err(|e| attach_loc(e, map))?);
            reprs.push(checked.repr.clone());
            env.bind(&block.name, block.ty.clone());
        }
        for o in &prog.outputs {
            if env.get(o).is_none() {
                return Err(attach_loc(
                    TypeError {
                        message: format!("output '{o}' is not a declared block or input"),
                        block: None,
                        def: None,
                        loc: None,
                    },
                    map,
                )
                .into());
            }
        }
        Ok((out, reprs))
    }

    // ---- analyze queries -------------------------------------------------

    /// [`valpipe_val::deps::analyze`] with each block's classification
    /// and range check answered from the memo when the typed block, the
    /// parameters and the ranges of the earlier arrays it references are
    /// unchanged. Returns the flow graph and, per block, the `Debug`
    /// rendering of its analyzed node.
    fn analyze(
        &mut self,
        prog: &Program,
        decl_reprs: &[Arc<str>],
    ) -> Result<(valpipe_val::deps::FlowGraph, Vec<Arc<str>>), CompileError> {
        let params = format!("{:?}", prog.params);
        let gen = self.gen;
        let mut reprs: Vec<Arc<str>> = Vec::with_capacity(prog.blocks.len());
        let flow = analyze_with(prog, |block, known, bindings| {
            // As for the type check: only the ranges of names the block
            // references are visible to it and rendered into its key.
            let mut key = format!("analyze|{}|{params}|", decl_reprs[reprs.len()]);
            let mut scope = HashMap::new();
            for name in block.referenced_names() {
                if let Some(&(lo, hi)) = known.get(name) {
                    let _ = write!(key, "{name}={lo}..{hi};");
                    scope.insert(name.to_string(), (lo, hi));
                }
            }
            self.stats.analyze.0 += 1;
            let analyzed = match self.analyze_memo.get_mut(&key) {
                Some(hit) => {
                    hit.gen = gen;
                    &hit.value
                }
                None => {
                    self.stats.analyze.1 += 1;
                    let value = Rendered::new(analyze_block(block, &scope, bindings));
                    &self
                        .analyze_memo
                        .entry(key)
                        .or_insert(Memo { value, gen })
                        .value
                }
            };
            let node = analyzed.result.clone()?;
            reprs.push(analyzed.repr.clone());
            Ok(node)
        })?;
        Ok((flow, reprs))
    }

    // ---- region queries --------------------------------------------------

    /// Lower one block, answering from the region memo when every input —
    /// the typed block, the classification, the options, the parameters,
    /// the providers of `names`, the provenance ids, and the exact
    /// node/arc/label counters — is unchanged. A memo hit splices the
    /// cached region verbatim; a miss lowers cold and captures the delta.
    /// `block_repr` and `decl_repr` are the `Debug` renderings of `block`
    /// and of `prog.block(&block.name)`.
    #[allow(clippy::too_many_arguments)]
    fn lower_block_query(
        &mut self,
        c: &mut Compiler,
        cstats: &mut CompileStats,
        opts: &CompileOptions,
        prog: &Program,
        block: &BlockNode,
        (block_repr, decl_repr): (&str, Option<&str>),
        names: &BTreeSet<&str>,
        src_ids: &HashMap<StmtKey, u32>,
        params_fp: u64,
    ) -> Result<(), CompileError> {
        let bp = block_prov(prog, &block.name, src_ids);
        let node_base = c.g.nodes.len() as u32;
        let arc_base = c.g.arcs.len() as u32;

        let mut key_src = String::new();
        let _ = write!(key_src, "region|{block_repr}|decl:");
        match decl_repr {
            Some(r) => {
                let _ = write!(key_src, "Some({r})");
            }
            None => key_src.push_str("None"),
        }
        let _ = write!(
            key_src,
            "|scheme:{:?}|am:{}|params:{params_fp:016x}\
             |nb:{node_base}|ab:{arc_base}|ls:{}|bp:{}:{}:",
            opts.scheme,
            opts.am_boundary,
            c.label_seq(),
            bp.header,
            bp.body,
        );
        let mut defs: Vec<_> = bp.defs.iter().collect();
        defs.sort();
        for (name, id) in defs {
            let _ = write!(key_src, "{name}={id},");
        }
        // The block is lowered against only the providers of the names
        // it references, so the key covers every provider it can read.
        let visible: Vec<(&str, Provider)> = names
            .iter()
            .filter_map(|&n| c.providers.get(n).map(|p| (n, *p)))
            .collect();
        for (name, p) in &visible {
            let _ = write!(key_src, "|{name}:n{}:{}..{}", p.node.0, p.lo, p.hi);
        }
        let key = key_src;
        let gen = self.gen;

        self.stats.region.0 += 1;
        if let Some(hit) = self.region_memo.get_mut(&key) {
            hit.gen = gen;
            let entry = &hit.value;
            entry
                .delta
                .splice(&mut c.g)
                .map_err(CompileError::Internal)?;
            for (name, p) in &entry.providers {
                c.providers.insert(name.clone(), *p);
            }
            c.anchors.extend(entry.anchors.iter().copied());
            c.set_label_seq(entry.label_seq);
            if let Some(used) = entry.scheme {
                cstats.schemes.insert(block.name.clone(), used);
            }
            return Ok(());
        }

        self.stats.region.1 += 1;
        let anchors_base = c.anchors.len();
        let scope: HashMap<String, Provider> =
            visible.iter().map(|&(n, p)| (n.to_string(), p)).collect();
        let all = std::mem::replace(&mut c.providers, scope.clone());
        let used = lower_block(c, opts, prog, block, src_ids);
        let lowered = std::mem::replace(&mut c.providers, all);
        let used = used?;
        if let Some(u) = used {
            cstats.schemes.insert(block.name.clone(), u);
        }
        let mut added: Vec<(String, Provider)> = lowered
            .into_iter()
            .filter(|(k, v)| scope.get(k) != Some(v))
            .collect();
        added.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, p) in &added {
            c.providers.insert(name.clone(), *p);
        }
        self.region_memo.insert(
            key,
            Memo {
                value: RegionEntry {
                    delta: GraphDelta::capture(&c.g, node_base, arc_base),
                    providers: added,
                    anchors: c.anchors[anchors_base..].to_vec(),
                    label_seq: c.label_seq(),
                    scheme: used,
                },
                gen,
            },
        );
        self.dirty = true;
        Ok(())
    }

    // ---- balance queries -------------------------------------------------

    /// Solve (or recall) a balance problem. The solvers are deterministic
    /// functions of the problem structure, so an exact key match is a
    /// proof the cached solution equals a fresh solve.
    fn balance_query(
        &mut self,
        p: &problem::BalanceProblem,
        mode: BalanceMode,
    ) -> Result<BalanceSolution, CompileError> {
        let mut key_src = format!("balance|{mode:?}|n:{}", p.n);
        for a in &p.arcs {
            let _ = write!(
                key_src,
                "|{}>{}w{}c{}a{:?}",
                a.u,
                a.v,
                a.w,
                a.cost,
                a.arc.map(|x| x.0)
            );
        }
        let key = key_src;
        let gen = self.gen;
        self.stats.balance.0 += 1;
        if let Some(hit) = self.balance_memo.get_mut(&key) {
            hit.gen = gen;
            return Ok(hit.value.clone());
        }
        self.stats.balance.1 += 1;
        let sol = match mode {
            BalanceMode::Asap => solve::solve_asap(p),
            BalanceMode::Heuristic => solve::solve_heuristic(p, 64),
            BalanceMode::Optimal => solve::solve_optimal(p),
            BalanceMode::None => {
                return Err(CompileError::Internal(
                    "balance pass entered with BalanceMode::None".into(),
                ))
            }
        };
        self.balance_memo.insert(
            key,
            Memo {
                value: sol.clone(),
                gen,
            },
        );
        self.dirty = true;
        Ok(sol)
    }

    // ---- disk cache ------------------------------------------------------

    /// Load persisted regions and balance solutions for the given cache
    /// key. Returns the number of entries loaded; any anomaly — missing
    /// file, bad magic, version skew, checksum mismatch, malformed JSON,
    /// undecodable entry — loads nothing and reports zero.
    fn load_cache(&mut self, dir: &Path, key: u64) -> usize {
        let path = cache_file(dir, key);
        let Ok(bytes) = std::fs::read(&path) else {
            return 0;
        };
        let Some(payload) = open_envelope(&bytes) else {
            return 0;
        };
        let Ok(text) = std::str::from_utf8(payload) else {
            return 0;
        };
        let Ok(j) = Json::parse(text) else {
            return 0;
        };
        // Decode everything before committing anything: a half-corrupt
        // file must not leave half its entries behind.
        let mut regions = Vec::new();
        let mut solutions = Vec::new();
        let Some(Json::Arr(rs)) = j.get("regions") else {
            return 0;
        };
        for r in rs {
            let Some(entry) = region_entry_from_json(r) else {
                return 0;
            };
            regions.push(entry);
        }
        let Some(Json::Arr(bs)) = j.get("balance") else {
            return 0;
        };
        for b in bs {
            let Some(entry) = balance_entry_from_json(b) else {
                return 0;
            };
            solutions.push(entry);
        }
        let n = regions.len() + solutions.len();
        let gen = self.gen;
        self.region_memo.extend(
            regions
                .into_iter()
                .map(|(k, v)| (k, Memo { value: v, gen })),
        );
        self.balance_memo.extend(
            solutions
                .into_iter()
                .map(|(k, v)| (k, Memo { value: v, gen })),
        );
        n
    }

    /// Persist regions and balance solutions atomically (tmp + rename).
    /// Entries carry their full key string, so a reader verifies by
    /// exact match — a corrupt or colliding entry can only miss, never
    /// masquerade as another compilation's artifact.
    fn save_cache(&self, dir: &Path, key: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut regions: Vec<(&String, &Memo<RegionEntry>)> = self.region_memo.iter().collect();
        regions.sort_by(|a, b| a.0.cmp(b.0));
        let mut balance: Vec<(&String, &Memo<BalanceSolution>)> =
            self.balance_memo.iter().collect();
        balance.sort_by(|a, b| a.0.cmp(b.0));
        let j = Json::obj([
            (
                "regions",
                Json::Arr(
                    regions
                        .into_iter()
                        .map(|(k, e)| region_entry_to_json(k, &e.value))
                        .collect(),
                ),
            ),
            (
                "balance",
                Json::Arr(
                    balance
                        .into_iter()
                        .map(|(k, s)| balance_entry_to_json(k, &s.value))
                        .collect(),
                ),
            ),
        ]);
        let payload = j.to_string().into_bytes();
        let bytes = seal_envelope(&payload);
        let path = cache_file(dir, key);
        let tmp = path.with_extension("vpqc.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)
    }
}

/// Rebase a statement-relative span to its absolute position: bytes
/// shift by the statement's start offset, lines by its start line, and
/// columns only on the statement's first line (later lines already start
/// at column 1 of the file).
fn rebase(sp: Span, base_byte: u32, base_line: u32, base_col: u32) -> Span {
    let col = if sp.line == 1 {
        sp.col + base_col - 1
    } else {
        sp.col
    };
    Span::new(
        sp.start + base_byte,
        sp.end + base_byte,
        sp.line + base_line - 1,
        col,
    )
}

/// One cache file per (source file, compile options) pair.
fn cache_key(file: &str, opts: &CompileOptions) -> u64 {
    fp(&format!("cache|{file}|{opts:?}"))
}

fn cache_file(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.vpqc"))
}

const CACHE_MAGIC: &[u8; 4] = b"VPQC";
/// v2: entries key by full canonical key string (v1 keyed by 64-bit
/// fingerprint, which cannot be verified on hit). v3: region keys list
/// only the providers of the names the block references, so v2 entries
/// could never hit again.
const CACHE_VERSION: u32 = 3;

/// Envelope: magic, version, payload checksum, payload.
fn seal_envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(CACHE_MAGIC);
    out.extend_from_slice(&CACHE_VERSION.to_le_bytes());
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Open an envelope; `None` on any structural problem (too short, wrong
/// magic, version skew, checksum mismatch).
fn open_envelope(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < 16 || &bytes[0..4] != CACHE_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != CACHE_VERSION {
        return None;
    }
    let sum = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let payload = &bytes[16..];
    if checksum64(payload) != sum {
        return None;
    }
    Some(payload)
}

fn scheme_name(s: UsedScheme) -> &'static str {
    match s {
        UsedScheme::Todd => "todd",
        UsedScheme::Companion => "companion",
        UsedScheme::Straight => "straight",
    }
}

fn scheme_from_name(s: &str) -> Option<UsedScheme> {
    match s {
        "todd" => Some(UsedScheme::Todd),
        "companion" => Some(UsedScheme::Companion),
        "straight" => Some(UsedScheme::Straight),
        _ => None,
    }
}

fn region_entry_to_json(key: &str, e: &RegionEntry) -> Json {
    Json::obj([
        ("key", Json::Str(key.to_string())),
        ("delta", e.delta.to_json()),
        (
            "providers",
            Json::Arr(
                e.providers
                    .iter()
                    .map(|(name, p)| {
                        Json::obj([
                            ("name", Json::Str(name.clone())),
                            ("node", Json::Int(p.node.0 as i64)),
                            ("lo", Json::Int(p.lo)),
                            ("hi", Json::Int(p.hi)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "anchors",
            Json::Arr(
                e.anchors
                    .iter()
                    .flat_map(|&(n, w)| [Json::Int(n.0 as i64), Json::Int(w)])
                    .collect(),
            ),
        ),
        ("label_seq", Json::Int(e.label_seq as i64)),
        (
            "scheme",
            match e.scheme {
                Some(s) => Json::Str(scheme_name(s).to_string()),
                None => Json::Null,
            },
        ),
    ])
}

fn region_entry_from_json(j: &Json) -> Option<(String, RegionEntry)> {
    let key = j.get("key")?.as_str()?.to_string();
    let delta = GraphDelta::from_json(j.get("delta")?).ok()?;
    let Json::Arr(ps) = j.get("providers")? else {
        return None;
    };
    let mut providers = Vec::new();
    for p in ps {
        providers.push((
            p.get("name")?.as_str()?.to_string(),
            Provider {
                node: NodeId(p.get("node")?.as_i64()? as u32),
                lo: p.get("lo")?.as_i64()?,
                hi: p.get("hi")?.as_i64()?,
            },
        ));
    }
    let Json::Arr(ans) = j.get("anchors")? else {
        return None;
    };
    if ans.len() % 2 != 0 {
        return None;
    }
    let anchors = ans
        .chunks(2)
        .map(|c| Some((NodeId(c[0].as_i64()? as u32), c[1].as_i64()?)))
        .collect::<Option<Vec<_>>>()?;
    let scheme = match j.get("scheme")? {
        Json::Null => None,
        Json::Str(s) => Some(scheme_from_name(s)?),
        _ => return None,
    };
    Some((
        key,
        RegionEntry {
            delta,
            providers,
            anchors,
            label_seq: j.get("label_seq")?.as_i64()? as u32,
            scheme,
        },
    ))
}

fn balance_entry_to_json(key: &str, s: &BalanceSolution) -> Json {
    Json::obj([
        ("key", Json::Str(key.to_string())),
        (
            "potential",
            Json::Arr(s.potential.iter().map(|&v| Json::Int(v)).collect()),
        ),
        (
            "depths",
            Json::Arr(s.depths.iter().map(|&d| Json::Int(d as i64)).collect()),
        ),
        ("total_buffers", Json::Int(s.total_buffers as i64)),
    ])
}

fn balance_entry_from_json(j: &Json) -> Option<(String, BalanceSolution)> {
    let key = j.get("key")?.as_str()?.to_string();
    let Json::Arr(pot) = j.get("potential")? else {
        return None;
    };
    let potential = pot.iter().map(|v| v.as_i64()).collect::<Option<Vec<_>>>()?;
    let Json::Arr(ds) = j.get("depths")? else {
        return None;
    };
    let depths = ds
        .iter()
        .map(|v| Some(v.as_i64()? as u32))
        .collect::<Option<Vec<_>>>()?;
    Some((
        key,
        BalanceSolution {
            potential,
            depths,
            total_buffers: j.get("total_buffers")?.as_i64()? as u64,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PassManager;
    use valpipe_val::parser::FIG3_PROGRAM;

    fn all_stages() -> Vec<Stage> {
        Stage::ALL.to_vec()
    }

    fn cold(src: &str) -> PipelineOutput {
        let opts = CompileOptions::paper();
        PassManager::new(&opts)
            .limits(CompileLimits::default())
            .emit_all(&Stage::ALL)
            .run_source(src, "fig3.val")
            .unwrap()
    }

    fn run(engine: &mut QueryEngine, src: &str) -> PipelineOutput {
        engine
            .run_source(
                &CompileOptions::paper(),
                &CompileLimits::default(),
                &all_stages(),
                src,
                "fig3.val",
            )
            .unwrap()
    }

    fn assert_identical(a: &PipelineOutput, b: &PipelineOutput) {
        assert_eq!(
            a.compiled.graph.fingerprint(),
            b.compiled.graph.fingerprint()
        );
        assert_eq!(a.dumps, b.dumps, "stage dumps must be byte-identical");
        let names = |o: &PipelineOutput| o.pass_stats.iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(a), names(b));
        for (sa, sb) in a.pass_stats.iter().zip(&b.pass_stats) {
            assert_eq!(
                (
                    sa.nodes_before,
                    sa.arcs_before,
                    sa.nodes_after,
                    sa.arcs_after
                ),
                (
                    sb.nodes_before,
                    sb.arcs_before,
                    sb.nodes_after,
                    sb.arcs_after
                ),
                "pass {} sizes diverge",
                sa.name
            );
        }
        assert_eq!(a.compiled.stats.schemes, b.compiled.stats.schemes);
        assert_eq!(a.compiled.stats.dead_blocks, b.compiled.stats.dead_blocks);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("valpipe-qtest-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn warm_recompile_is_bit_identical_and_fully_cached() {
        let mut e = QueryEngine::new();
        let a = run(&mut e, FIG3_PROGRAM);
        assert!(e.stats().executed() > 0, "cold run executes queries");
        let b = run(&mut e, FIG3_PROGRAM);
        assert_identical(&a, &b);
        assert_eq!(
            e.stats().executed(),
            0,
            "unchanged source must answer every query from the memo: {}",
            e.stats().render()
        );
        assert!(e.stats().total() > 0);
    }

    #[test]
    fn single_block_edit_recompiles_only_that_block() {
        let edited = FIG3_PROGRAM.replace("0.25", "0.75");
        assert_ne!(edited, FIG3_PROGRAM);

        let mut e = QueryEngine::new();
        run(&mut e, FIG3_PROGRAM);
        let warm = run(&mut e, &edited);
        assert_identical(&cold(&edited), &warm);

        let s = e.stats();
        assert_eq!(s.parse.1, 1, "only the edited statement re-parses");
        assert_eq!(s.typed.1, 1, "only the edited block re-checks");
        assert_eq!(s.analyze.1, 1, "only the edited block is re-analyzed");
        assert_eq!(s.region.1, 1, "only the edited block re-lowers");
        assert_eq!(
            s.balance.1, 0,
            "a literal swap leaves the balance problem structurally unchanged"
        );
    }

    #[test]
    fn unreferenced_declarations_leave_checks_and_analyses_warm() {
        // Every block's type check and analysis sees only the names it
        // references, so declaring an array no block uses changes none
        // of their keys.
        let widened = FIG3_PROGRAM.replace(
            "input C : array[real] [0, m+1];",
            "input C : array[real] [0, m+1];\ninput Z : array[integer] [0, 3];",
        );
        assert_ne!(widened, FIG3_PROGRAM);
        let mut e = QueryEngine::new();
        run(&mut e, FIG3_PROGRAM);
        let warm = run(&mut e, &widened);
        assert_identical(&cold(&widened), &warm);
        let s = e.stats();
        assert_eq!(s.typed.1, 0, "{}", s.render());
        assert_eq!(s.analyze.1, 0, "{}", s.render());
    }

    #[test]
    fn engine_matches_cold_pipeline_on_examples() {
        let edited = FIG3_PROGRAM.replace("0.25", "0.75");
        for src in [FIG3_PROGRAM, edited.as_str()] {
            let mut e = QueryEngine::new();
            assert_identical(&cold(src), &run(&mut e, src));
        }
    }

    #[test]
    fn cached_type_errors_resolve_locations_each_run() {
        let bad = "\ninput B : array[real] [0, 10];\n\nA : array[real] :=\n  forall i in [0, 10]\n  construct\n    B[i] + Q\n  endall;\n\noutput A;\n";
        let opts = CompileOptions::paper();
        let limits = CompileLimits::default();
        let mut e = QueryEngine::new();
        let e1 = e
            .run_source(&opts, &limits, &[], bad, "bad.val")
            .unwrap_err();
        assert_eq!(e.stats().typed.1, 1, "the failing block executed");
        let e2 = e
            .run_source(&opts, &limits, &[], bad, "bad.val")
            .unwrap_err();
        assert_eq!(e.stats().typed.1, 0, "the cached error was reused");
        assert_eq!(e1.to_string(), e2.to_string());
        assert!(e1.to_string().contains("bad.val:"), "{e1}");
    }

    #[test]
    fn disk_cache_revives_expensive_artifacts() {
        let dir = tmp_dir("revive");
        let a = {
            let mut e = QueryEngine::with_disk_cache(&dir);
            run(&mut e, FIG3_PROGRAM)
        };
        let mut e2 = QueryEngine::with_disk_cache(&dir);
        let b = run(&mut e2, FIG3_PROGRAM);
        assert_identical(&a, &b);
        assert!(
            e2.stats().disk_entries_loaded > 0,
            "{}",
            e2.stats().render()
        );
        assert_eq!(e2.stats().region.1, 0, "regions revived from disk");
        assert_eq!(
            e2.stats().balance.1,
            0,
            "balance solution revived from disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_files_fall_back_to_cold_without_panicking() {
        let dir = tmp_dir("corrupt");
        let reference = {
            let mut e = QueryEngine::with_disk_cache(&dir);
            run(&mut e, FIG3_PROGRAM)
        };
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "vpqc"))
            .unwrap();
        let pristine = std::fs::read(&path).unwrap();

        let mut variants: Vec<Vec<u8>> = Vec::new();
        let mut flipped = pristine.clone();
        flipped[pristine.len() / 2] ^= 0x40; // payload bit flip
        variants.push(flipped);
        variants.push(pristine[..10.min(pristine.len())].to_vec()); // truncation
        let mut skewed = pristine.clone();
        skewed[4] = skewed[4].wrapping_add(1); // version skew
        variants.push(skewed);
        variants.push(b"not a cache file at all".to_vec());

        for bytes in variants {
            std::fs::write(&path, &bytes).unwrap();
            let mut e = QueryEngine::with_disk_cache(&dir);
            let out = run(&mut e, FIG3_PROGRAM);
            assert_eq!(e.stats().disk_entries_loaded, 0);
            assert_identical(&reference, &out);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_window_sweeps_entries_untouched_by_recent_runs() {
        let edited = FIG3_PROGRAM.replace("0.25", "0.75");
        let mut e = QueryEngine::new();
        run(&mut e, FIG3_PROGRAM);
        // Compiling a different program bumps shared entries but leaves
        // the first program's unique entries at the old generation; once
        // a whole window of runs has passed them by, the sweep drops them.
        for _ in 0..RETAIN_RUNS {
            run(&mut e, &edited);
        }
        run(&mut e, FIG3_PROGRAM);
        assert!(
            e.stats().executed() > 0,
            "swept entries must re-execute, not resurrect: {}",
            e.stats().render()
        );
        // Correctness is unaffected: output still matches a cold compile.
        let mut fresh = QueryEngine::new();
        assert_identical(&cold(FIG3_PROGRAM), &run(&mut fresh, FIG3_PROGRAM));
    }

    #[test]
    fn memo_window_never_sweeps_the_recent_runs_working_set() {
        let edited = FIG3_PROGRAM.replace("0.25", "0.75");
        let mut e = QueryEngine::new();
        run(&mut e, FIG3_PROGRAM);
        // The first program's entries are last touched RETAIN_RUNS runs
        // before the next compile of it: still inside the window.
        for _ in 0..RETAIN_RUNS - 1 {
            run(&mut e, &edited);
        }
        let b = run(&mut e, FIG3_PROGRAM);
        assert_eq!(
            e.stats().executed(),
            0,
            "entries touched within the last RETAIN_RUNS runs survive: {}",
            e.stats().render()
        );
        assert_identical(&cold(FIG3_PROGRAM), &b);
    }

    #[test]
    fn all_green_warm_run_skips_the_cache_rewrite() {
        let dir = tmp_dir("noop-save");
        let mut e = QueryEngine::with_disk_cache(&dir);
        run(&mut e, FIG3_PROGRAM);
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "vpqc"))
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        // Nothing new to persist: every region/balance query hits the
        // memo, so the engine must not rewrite the file.
        run(&mut e, FIG3_PROGRAM);
        assert!(
            !path.exists(),
            "a fully-memoized run must not rewrite the disk cache"
        );
        // An edit computes a new region and re-persists.
        let edited = FIG3_PROGRAM.replace("0.25", "0.75");
        run(&mut e, &edited);
        assert!(path.exists(), "new artifacts must be persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_source_falls_back_to_the_whole_program_parser() {
        let mut e = QueryEngine::new();
        let err = e
            .run_source(
                &CompileOptions::paper(),
                &CompileLimits::default(),
                &[],
                "this is ( not val",
                "x.val",
            )
            .unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)), "{err}");
        assert_eq!(e.stats().full_parse_fallbacks, 1);
    }
}
