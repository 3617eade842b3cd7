//! Differential test of the optimal balancer: `solve_optimal` (successive
//! shortest paths) must return exactly what a plain cycle-canceling
//! min-cost-flow solver returns — the same potentials, FIFO depths and
//! buffer total — on seeded random problems and on the problems the
//! compiler extracts from the paper's programs and long stencil chains.
//!
//! The reference solver below is deliberately the simplest correct one:
//! start from the feasible flow `f = cost`, cancel positive-weight
//! residual cycles found by Bellman–Ford until none remain, and read the
//! potentials back as longest distances over the final residual network.

use valpipe_balance::problem::{self, BArc, BalanceProblem, BalanceSolution};
use valpipe_balance::{solve, BalanceMode};
use valpipe_bench::workloads::{chain_src, fig3_src, fig6_src};
use valpipe_core::{compile_source, CompileOptions};
use valpipe_ir::Opcode;
use valpipe_util::Rng;

/// Cycle-canceling optimum (the reference oracle).
fn reference_optimal(p: &BalanceProblem) -> BalanceSolution {
    let mut flow: Vec<i64> = p.arcs.iter().map(|a| a.cost as i64).collect();
    while let Some(cycle) = find_positive_cycle(p, &flow) {
        let delta = cycle
            .iter()
            .filter(|&&(_, fwd)| !fwd)
            .map(|&(k, _)| flow[k])
            .min()
            .expect("positive residual cycle must contain a backward arc");
        assert!(delta > 0);
        for &(k, fwd) in &cycle {
            if fwd {
                flow[k] += delta;
            } else {
                flow[k] -= delta;
            }
        }
    }

    // Longest distances over the final residual network.
    let mut dist = vec![0i64; p.n];
    for _ in 0..=p.n {
        let mut changed = false;
        for (k, a) in p.arcs.iter().enumerate() {
            if dist[a.u] + a.w > dist[a.v] {
                dist[a.v] = dist[a.u] + a.w;
                changed = true;
            }
            if flow[k] > 0 && dist[a.v] - a.w > dist[a.u] {
                dist[a.u] = dist[a.v] - a.w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    BalanceSolution::from_potentials(p, dist)
}

/// Bellman–Ford positive-cycle detection on the residual network. Returns
/// the cycle as `(arc index, forward?)` steps, or `None` at optimality.
fn find_positive_cycle(p: &BalanceProblem, flow: &[i64]) -> Option<Vec<(usize, bool)>> {
    let n = p.n;
    let mut dist = vec![0i64; n];
    let mut pred: Vec<Option<(usize, usize, bool)>> = vec![None; n]; // (from, arc, fwd)
    let mut last_relaxed = None;
    for _ in 0..=n {
        last_relaxed = None;
        for (k, a) in p.arcs.iter().enumerate() {
            if dist[a.u] + a.w > dist[a.v] {
                dist[a.v] = dist[a.u] + a.w;
                pred[a.v] = Some((a.u, k, true));
                last_relaxed = Some(a.v);
            }
            if flow[k] > 0 && dist[a.v] - a.w > dist[a.u] {
                dist[a.u] = dist[a.v] - a.w;
                pred[a.u] = Some((a.v, k, false));
                last_relaxed = Some(a.u);
            }
        }
        last_relaxed?;
    }
    // A relaxation in round n ⇒ positive cycle. Walk back n steps to land
    // on the cycle, then collect it.
    let mut x = last_relaxed.expect("relaxed in final round");
    for _ in 0..n {
        x = pred[x].expect("relaxed node has a predecessor").0;
    }
    let start = x;
    let mut cycle = Vec::new();
    let mut cur = start;
    loop {
        let (from, arc, fwd) = pred[cur].expect("cycle nodes have predecessors");
        cycle.push((arc, fwd));
        cur = from;
        if cur == start {
            break;
        }
    }
    cycle.reverse();
    Some(cycle)
}

fn assert_same(p: &BalanceProblem, what: &str) -> BalanceSolution {
    let got = solve::solve_optimal(p);
    let want = reference_optimal(p);
    assert_eq!(got.potential, want.potential, "{what}: potentials");
    assert_eq!(got.depths, want.depths, "{what}: depths");
    assert_eq!(got.total_buffers, want.total_buffers, "{what}: buffers");
    got
}

/// A random contracted problem: one to three disconnected parts, each a
/// DAG over shuffled supernode ids with several sources. Contracted
/// loops show up as arc weights `1 + phase + rel(u) − rel(v)`, which go
/// negative when an arc enters a loop at a late interior stage. An
/// origin supernode anchors some sources through zero-cost arcs.
fn random_problem(r: &mut Rng) -> BalanceProblem {
    let mut arcs = Vec::new();
    let mut n = 0usize;
    let mut sources = Vec::new();
    for _ in 0..r.range(1, 4) {
        let k = r.range(1, 14);
        // Topological position → supernode id, shuffled.
        let mut ids: Vec<usize> = (n..n + k).collect();
        for i in (1..k).rev() {
            ids.swap(i, r.below(i + 1));
        }
        let rel: Vec<i64> = (0..k).map(|_| r.range_i64(0, 5)).collect();
        for j in 0..k {
            let fan_in = if j == 0 || r.chance(0.2) {
                0
            } else {
                r.range(1, 4)
            };
            if fan_in == 0 {
                sources.push(ids[j]);
            }
            for _ in 0..fan_in {
                let i = r.below(j);
                arcs.push(BArc {
                    u: ids[i],
                    v: ids[j],
                    w: 1 + r.range_i64(0, 4) + rel[i] - rel[j],
                    cost: 1,
                    arc: None,
                });
            }
        }
        n += k;
    }
    if r.chance(0.7) {
        let origin = n;
        n += 1;
        for &s in &sources {
            if r.chance(0.6) {
                arcs.push(BArc {
                    u: origin,
                    v: s,
                    w: r.range_i64(-6, 2),
                    cost: 0,
                    arc: None,
                });
            }
        }
    }
    BalanceProblem {
        n,
        arcs,
        comp_of: Vec::new(),
        rel: Vec::new(),
    }
}

#[test]
fn matches_cycle_canceling_on_random_problems() {
    let mut with_buffers = 0;
    for case in 0..600u64 {
        let mut r = Rng::seed(0x55B0).fork(case);
        let p = random_problem(&mut r);
        let sol = assert_same(&p, &format!("case {case}"));
        if sol.total_buffers > 0 {
            with_buffers += 1;
        }
    }
    // The generator must exercise real optimisation, not trivial zeros.
    assert!(
        with_buffers > 300,
        "only {with_buffers} cases needed buffers"
    );
}

/// The problem the compiler's global balance pass solves for `src`: the
/// graph compiled with balancing off (loop interiors already buffered),
/// each input `Source` anchored at `−2·lo` as the compiler does.
fn compiler_problem(src: &str) -> BalanceProblem {
    let opts = CompileOptions {
        balance: BalanceMode::None,
        ..CompileOptions::paper()
    };
    let c = compile_source(src, &opts).expect("workload compiles");
    let anchors: Vec<_> = c
        .flow
        .inputs
        .iter()
        .map(|(name, (lo, _))| {
            let src = c
                .graph
                .node_ids()
                .find(|n| matches!(&c.graph.nodes[n.idx()].op, Opcode::Source(s) if s == name))
                .expect("every input has a source cell");
            (src, -2 * lo)
        })
        .collect();
    problem::extract_anchored(&c.graph, &anchors).expect("compiled graph extracts")
}

#[test]
fn matches_cycle_canceling_on_compiled_workloads() {
    for (what, src) in [
        ("chain_src(516, 250)", chain_src(516, 250)),
        ("chain_src(96, 40)", chain_src(96, 40)),
        ("fig3_src(64)", fig3_src(64)),
        ("fig6_src(4)", fig6_src(4)),
    ] {
        let p = compiler_problem(&src);
        let sol = assert_same(&p, what);
        // The extracted problem is the one the compiler solves: its
        // optimum inserts as many stages as the optimal compile does.
        let compiled = compile_source(&src, &CompileOptions::paper()).unwrap();
        assert_eq!(sol.total_buffers, compiled.stats.global_buffers, "{what}");
    }
}
