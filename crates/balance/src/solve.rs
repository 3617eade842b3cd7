//! Balancing solvers.
//!
//! Three algorithms matching the paper's §8 conclusions:
//!
//! 1. **ASAP** (`solve_asap`) — topological longest path, the classical
//!    Montz/Gao polynomial balancing. Always feasible, often wasteful.
//! 2. **Heuristic reduction** (`solve_heuristic`) — coordinate descent on
//!    the cell potentials, "effectively reducing the buffering in many
//!    cases" (§8 conclusion 2).
//! 3. **Optimal** (`solve_optimal`) — minimum total buffer stages. The
//!    problem is the linear-programming dual of a min-cost flow (§8
//!    conclusion 3); we solve the flow side by successive shortest paths
//!    (Dijkstra on reduced costs, potentials seeded by the heuristic), read
//!    the least non-negative optimal potentials back off the final
//!    residual network, and certify the pair by complementary slackness
//!    before returning.

use crate::problem::{BalanceProblem, BalanceSolution};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Topological order of the contracted constraint graph. The contracted
/// graph is a DAG (frozen regions are whole SCC interiors), so this always
/// succeeds for problems produced by `extract`.
fn topo_order(p: &BalanceProblem) -> Vec<usize> {
    let mut indeg = vec![0usize; p.n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); p.n];
    for (k, a) in p.arcs.iter().enumerate() {
        indeg[a.v] += 1;
        out[a.u].push(k);
    }
    let mut stack: Vec<usize> = (0..p.n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(p.n);
    while let Some(u) = stack.pop() {
        order.push(u);
        for &k in &out[u] {
            let v = p.arcs[k].v;
            indeg[v] -= 1;
            if indeg[v] == 0 {
                stack.push(v);
            }
        }
    }
    assert_eq!(order.len(), p.n, "contracted balance graph has a cycle");
    order
}

/// ASAP balancing: every supernode fires as early as its latest input
/// allows.
pub fn solve_asap(p: &BalanceProblem) -> BalanceSolution {
    let order = topo_order(p);
    let mut pot = vec![0i64; p.n];
    let mut in_arcs: Vec<Vec<usize>> = vec![Vec::new(); p.n];
    for (k, a) in p.arcs.iter().enumerate() {
        in_arcs[a.v].push(k);
    }
    for &v in &order {
        let lb = in_arcs[v]
            .iter()
            .map(|&k| pot[p.arcs[k].u] + p.arcs[k].w)
            .max();
        if let Some(lb) = lb {
            pot[v] = lb;
        }
    }
    BalanceSolution::from_potentials(p, pot)
}

/// ALAP balancing: every supernode fires as late as its earliest consumer
/// allows (the mirror of ASAP; useful as a second feasible baseline and
/// in slack analyses — slack(n) = π_alap(n) − π_asap(n)).
pub fn solve_alap(p: &BalanceProblem) -> BalanceSolution {
    let asap = solve_asap(p);
    let mut out_arcs: Vec<Vec<usize>> = vec![Vec::new(); p.n];
    for (k, a) in p.arcs.iter().enumerate() {
        out_arcs[a.u].push(k);
    }
    let order = topo_order(p);
    // Anchor the latest possible completion at the ASAP horizon so the
    // two schedules are directly comparable.
    let horizon = asap.potential.iter().copied().max().unwrap_or(0);
    let mut pot = vec![horizon; p.n];
    for &u in order.iter().rev() {
        let ub = out_arcs[u]
            .iter()
            .map(|&k| pot[p.arcs[k].v] - p.arcs[k].w)
            .min();
        if let Some(ub) = ub {
            pot[u] = ub;
        }
    }
    BalanceSolution::from_potentials(p, pot)
}

/// Coordinate-descent improvement over ASAP: slide each supernode within
/// its slack window in the direction that reduces total buffering, until a
/// fixpoint (or `max_passes`).
pub fn solve_heuristic(p: &BalanceProblem, max_passes: usize) -> BalanceSolution {
    let mut sol = solve_asap(p);
    let mut in_arcs: Vec<Vec<usize>> = vec![Vec::new(); p.n];
    let mut out_arcs: Vec<Vec<usize>> = vec![Vec::new(); p.n];
    for (k, a) in p.arcs.iter().enumerate() {
        in_arcs[a.v].push(k);
        out_arcs[a.u].push(k);
    }
    let order = topo_order(p);
    for _ in 0..max_passes {
        let mut changed = false;
        // Sweep in reverse topological order (sliding consumers first
        // opens slack for producers), then forward.
        for &sweep_rev in &[true, false] {
            let iter: Box<dyn Iterator<Item = &usize>> = if sweep_rev {
                Box::new(order.iter().rev())
            } else {
                Box::new(order.iter())
            };
            for &n in iter {
                let lb = in_arcs[n]
                    .iter()
                    .map(|&k| sol.potential[p.arcs[k].u] + p.arcs[k].w)
                    .max();
                let ub = out_arcs[n]
                    .iter()
                    .map(|&k| sol.potential[p.arcs[k].v] - p.arcs[k].w)
                    .min();
                let indeg: i64 = in_arcs[n].iter().map(|&k| p.arcs[k].cost as i64).sum();
                let outdeg: i64 = out_arcs[n].iter().map(|&k| p.arcs[k].cost as i64).sum();
                // Moving π(n) up by 1 changes the cost by indeg − outdeg.
                let target = if outdeg > indeg {
                    ub
                } else if indeg > outdeg {
                    lb
                } else {
                    None
                };
                if let Some(t) = target {
                    if t != sol.potential[n] {
                        // Clamp into the feasible window.
                        let lo = lb.unwrap_or(i64::MIN);
                        let hi = ub.unwrap_or(i64::MAX);
                        let t = t.clamp(lo, hi);
                        if t != sol.potential[n] {
                            sol.potential[n] = t;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    BalanceSolution::from_potentials(p, sol.potential)
}

/// Optimal balancing via the min-cost-flow dual.
///
/// The LP `min Σ_e cost_e·(π_v − π_u − w_e)` subject to `π_v − π_u ≥ w_e`
/// has the dual `max Σ w_e f_e` subject to `f ≥ 0` and flow conservation:
/// every supernode's net inflow equals its imbalance
/// `Σ cost_in − Σ cost_out`. `min_cost_flow` solves the flow side by
/// successive shortest paths; the potentials are then read back as
/// longest distances from an all-zero start over the final residual
/// network (forward arcs always, backward arcs where `f > 0`).
///
/// That read-back returns the componentwise-least non-negative optimal
/// potentials. By complementary slackness the optimal potentials are
/// exactly the feasible ones that are tight on every arc carrying flow in
/// *any* optimal flow, so which optimal flow the solver finds does not
/// matter: the potentials, FIFO depths and buffer total are a function of
/// the problem alone.
///
/// The result certifies itself before it is returned: the flow is checked
/// against the potentials in O(m) and a failed certificate panics, as
/// [`BalanceSolution::from_potentials`] does for infeasible potentials.
pub fn solve_optimal(p: &BalanceProblem) -> BalanceSolution {
    let flow = min_cost_flow(p);
    let potential = least_potentials(p, &flow);
    if let Err(why) = certify(p, &flow, &potential) {
        panic!("optimal balance failed its certificate: {why}");
    }
    BalanceSolution::from_potentials(p, potential)
}

/// An optimal flow of the dual by successive shortest paths.
///
/// Flow starts at 0, so supernode `x` must push out a supply of
/// `Σ cost_out − Σ cost_in` (a negative supply is a deficit). Residual
/// arcs are the constraint arcs forward (uncapacitated, cost `−w`) and
/// backward where `f > 0` (capacity `f`, cost `w`). With the primal
/// potentials `π` the reduced cost of a forward arc is its slack
/// `π_v − π_u − w` and that of a backward arc is minus its slack, so
/// feasible potentials that are tight on every arc carrying flow keep
/// every reduced cost non-negative. At flow 0 any feasible potentials
/// qualify; the solver seeds them with [`solve_heuristic`], ASAP slid by
/// coordinate descent. ASAP alone leaves every freely sliding generator
/// (an index or constant source with one consumer) at time 0, so each
/// one's path to its consumer has a different reduced length and costs a
/// phase of its own: about 500 phases on a 250-block chain, against 2 from the
/// heuristic's seed.
///
/// Each phase runs Dijkstra on reduced costs from every supply node at
/// once and lowers each potential by its distance, which makes every
/// shortest path from a supply node tight (zero reduced cost) and keeps
/// all reduced costs non-negative. The phase then augments along tight
/// paths from supply to deficit nodes, found by depth-first search,
/// until it finds no more; pushing flow along a tight path creates only
/// tight backward arcs, so the invariant survives. The nearest deficit
/// node is reachable over tight arcs, so every phase moves at least one
/// unit, and a feasible flow exists (`f = cost`), so the phases end with
/// every imbalance met at minimum cost. Independent regions of the graph
/// — the blocks of a pipe-structured program — augment in the same
/// phase.
fn min_cost_flow(p: &BalanceProblem) -> Vec<i64> {
    let mut ssp = Ssp::new(p);
    while ssp.supply.iter().any(|&s| s > 0) {
        ssp.reprice();
        ssp.dead.fill(false);
        for s in 0..p.n {
            while ssp.supply[s] > 0 && !ssp.dead[s] {
                match ssp.tight_path(s) {
                    Some(t) => ssp.augment(s, t),
                    None => break,
                }
            }
        }
    }
    ssp.flow
}

/// State of the successive-shortest-paths solver.
struct Ssp<'a> {
    p: &'a BalanceProblem,
    out_arcs: Vec<Vec<usize>>,
    in_arcs: Vec<Vec<usize>>,
    /// Flow each supernode must still push out (negative: take in).
    supply: Vec<i64>,
    /// Primal potentials; reduced costs are slacks under them.
    pi: Vec<i64>,
    flow: Vec<i64>,
    /// `pred[y]` = the residual arc `(index, forward?)` a search took
    /// into `y`.
    pred: Vec<Option<(usize, bool)>>,
    /// Search stamp of the last search to reach each node.
    seen: Vec<u64>,
    search: u64,
    /// Nodes this phase's searches found no tight path out of.
    dead: Vec<bool>,
}

impl<'a> Ssp<'a> {
    fn new(p: &'a BalanceProblem) -> Self {
        let n = p.n;
        let mut supply = vec![0i64; n];
        for a in &p.arcs {
            supply[a.u] += a.cost as i64;
            supply[a.v] -= a.cost as i64;
        }
        Ssp {
            p,
            out_arcs: adjacency(n, p.arcs.iter().map(|a| a.u)),
            in_arcs: adjacency(n, p.arcs.iter().map(|a| a.v)),
            supply,
            pi: solve_heuristic(p, 64).potential,
            flow: vec![0; p.arcs.len()],
            pred: vec![None; n],
            seen: vec![0; n],
            search: 0,
            dead: vec![false; n],
        }
    }

    /// Residual arcs leaving `x` as `(arc index, forward?, head)`: every
    /// out-arc, and every in-arc that carries flow, backward.
    fn residual(&self, x: usize) -> impl Iterator<Item = (usize, bool, usize)> + '_ {
        let forward = self.out_arcs[x]
            .iter()
            .map(|&k| (k, true, self.p.arcs[k].v));
        let backward = self.in_arcs[x]
            .iter()
            .filter(|&&k| self.flow[k] > 0)
            .map(|&k| (k, false, self.p.arcs[k].u));
        forward.chain(backward)
    }

    /// Reduced cost of residual arc `k`: its slack forward, minus its
    /// slack backward.
    fn reduced_cost(&self, k: usize, fwd: bool) -> i64 {
        let a = &self.p.arcs[k];
        let slack = self.pi[a.v] - self.pi[a.u] - a.w;
        let reduced = if fwd { slack } else { -slack };
        debug_assert!(reduced >= 0, "negative reduced cost on arc {k}");
        reduced
    }

    /// Dijkstra from every supply node; lower each potential by its
    /// distance (nodes out of reach by the largest distance reached).
    fn reprice(&mut self) {
        let mut dist = vec![i64::MAX; self.p.n];
        let mut heap = BinaryHeap::new();
        for x in (0..self.p.n).filter(|&x| self.supply[x] > 0) {
            dist[x] = 0;
            heap.push(Reverse((0i64, x)));
        }
        while let Some(Reverse((d, x))) = heap.pop() {
            if d > dist[x] {
                continue;
            }
            for (k, fwd, y) in self.residual(x) {
                let nd = d + self.reduced_cost(k, fwd);
                if nd < dist[y] {
                    dist[y] = nd;
                    heap.push(Reverse((nd, y)));
                }
            }
        }
        let far = dist.iter().copied().filter(|&d| d < i64::MAX).max();
        let far = far.expect("supply nodes are at distance 0");
        for (pi, d) in self.pi.iter_mut().zip(&dist) {
            *pi -= (*d).min(far);
        }
    }

    /// Depth-first search from supply node `s` over tight residual arcs
    /// for a deficit node, recording the path in `pred`. Nodes it leaves
    /// without success are marked dead for the rest of the phase — a
    /// shortcut that can only cost a later phase, never correctness.
    fn tight_path(&mut self, s: usize) -> Option<usize> {
        self.search += 1;
        let stamp = self.search;
        self.seen[s] = stamp;
        // (node, position of the next residual arc to try)
        let mut stack = vec![(s, 0usize)];
        while let Some(&(x, i)) = stack.last() {
            let next = self
                .residual(x)
                .enumerate()
                .skip(i)
                .find(|&(_, (k, fwd, y))| {
                    self.seen[y] != stamp && !self.dead[y] && self.reduced_cost(k, fwd) == 0
                });
            match next {
                Some((j, (k, fwd, y))) => {
                    stack.last_mut().expect("stack is non-empty").1 = j + 1;
                    self.seen[y] = stamp;
                    self.pred[y] = Some((k, fwd));
                    if self.supply[y] < 0 {
                        return Some(y);
                    }
                    stack.push((y, 0));
                }
                None => {
                    self.dead[x] = true;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Push as much flow as the path `s → t` in `pred` admits: bounded
    /// by both endpoints' imbalance and the backward arcs' flow.
    fn augment(&mut self, s: usize, t: usize) {
        let mut path = Vec::new();
        let mut x = t;
        while x != s {
            let (k, fwd) = self.pred[x].expect("path nodes have predecessors");
            path.push((k, fwd));
            x = if fwd {
                self.p.arcs[k].u
            } else {
                self.p.arcs[k].v
            };
        }
        let delta = path
            .iter()
            .filter(|&&(_, fwd)| !fwd)
            .map(|&(k, _)| self.flow[k])
            .fold(self.supply[s].min(-self.supply[t]), i64::min);
        for (k, fwd) in path {
            self.flow[k] += if fwd { delta } else { -delta };
        }
        self.supply[s] -= delta;
        self.supply[t] += delta;
    }
}

/// Arc indices grouped by the endpoint `ends` names for each arc.
fn adjacency(n: usize, ends: impl Iterator<Item = usize>) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for (k, x) in ends.enumerate() {
        adj[x].push(k);
    }
    adj
}

/// The least non-negative potentials compatible with an optimal flow:
/// longest distances from an all-zero start over the residual network.
fn least_potentials(p: &BalanceProblem, flow: &[i64]) -> Vec<i64> {
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
    dist
}

/// LP optimality certificate for a flow and potentials, in O(m): the flow
/// is non-negative and meets every supernode's imbalance, the potentials
/// are feasible, and every arc carrying flow has zero slack
/// (complementary slackness). Together these prove both sides optimal.
fn certify(p: &BalanceProblem, flow: &[i64], potential: &[i64]) -> Result<(), String> {
    let mut excess = vec![0i64; p.n];
    for (k, a) in p.arcs.iter().enumerate() {
        if flow[k] < 0 {
            return Err(format!("negative flow {} on arc {k}", flow[k]));
        }
        let slack = potential[a.v] - potential[a.u] - a.w;
        if slack < 0 {
            return Err(format!("infeasible potentials: slack {slack} on arc {k}"));
        }
        if flow[k] > 0 && slack != 0 {
            return Err(format!(
                "arc {k} carries flow {} with slack {slack}",
                flow[k]
            ));
        }
        // Net inflow minus the required imbalance, per endpoint.
        let surplus = flow[k] - a.cost as i64;
        excess[a.v] += surplus;
        excess[a.u] -= surplus;
    }
    match excess.iter().position(|&e| e != 0) {
        Some(x) => Err(format!(
            "supernode {x} is off its imbalance by {}",
            excess[x]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{extract, BalanceProblem};
    use valpipe_ir::opcode::Opcode;
    use valpipe_ir::value::BinOp;
    use valpipe_ir::Graph;

    /// Hand-built problem: the classic "join of three chains" where ASAP
    /// over-buffers but shifting a shared producer is cheaper.
    fn chains_problem() -> BalanceProblem {
        // s → a (w1); s → b1 → b2 → b3 (w1 each); a → t; b3 → t.
        // ASAP pins s=0: a=1, b3=3, t=4 ⇒ slack 2 on a→t.
        // Optimal slides a to 3 (slack 2 moved onto s→a? no: s has two
        // consumers, so the slack must be buffered somewhere — total is 2
        // either way here; see the fan test below for a real gap).
        let mut g = Graph::new();
        let s = g.add_node(Opcode::Source("s".into()), "s");
        let a = g.cell(Opcode::Id, "a", &[s.into()]);
        let b1 = g.cell(Opcode::Id, "b1", &[s.into()]);
        let b2 = g.cell(Opcode::Id, "b2", &[b1.into()]);
        let b3 = g.cell(Opcode::Id, "b3", &[b2.into()]);
        let t = g.cell(Opcode::Bin(BinOp::Add), "t", &[a.into(), b3.into()]);
        let _ = g.cell(Opcode::Sink("o".into()), "o", &[t.into()]);
        extract(&g).unwrap()
    }

    /// A graph where the optimum genuinely beats ASAP: one producer fans
    /// out to K parallel deep consumers plus one shallow consumer. ASAP
    /// buffers every deep branch; the optimum delays the producer's
    /// shallow branch only.
    fn fan_graph(k: usize, depth: usize) -> Graph {
        let mut g = Graph::new();
        let s = g.add_node(Opcode::Source("s".into()), "s");
        let shallow = g.cell(Opcode::Id, "sh", &[s.into()]);
        let mut join_inputs = vec![shallow];
        let deep_src = g.add_node(Opcode::Source("d".into()), "d");
        for kk in 0..k {
            let mut prev = deep_src;
            for dd in 0..depth {
                prev = g.cell(Opcode::Id, format!("c{kk}_{dd}"), &[prev.into()]);
            }
            join_inputs.push(prev);
        }
        // Pairwise joins (ADD) down to one output.
        let mut cur = join_inputs[0];
        for (j, &other) in join_inputs[1..].iter().enumerate() {
            cur = g.cell(
                Opcode::Bin(BinOp::Add),
                format!("j{j}"),
                &[cur.into(), other.into()],
            );
        }
        let _ = g.cell(Opcode::Sink("o".into()), "o", &[cur.into()]);
        g
    }

    #[test]
    fn asap_feasible_on_chains() {
        let p = chains_problem();
        let sol = solve_asap(&p);
        assert!(sol.is_feasible(&p));
        assert_eq!(sol.total_buffers, 2);
    }

    #[test]
    fn optimal_feasible_and_no_worse() {
        let p = chains_problem();
        let asap = solve_asap(&p);
        let opt = solve_optimal(&p);
        assert!(opt.is_feasible(&p));
        assert!(opt.total_buffers <= asap.total_buffers);
    }

    #[test]
    fn optimal_beats_asap_on_fan() {
        let g = fan_graph(3, 4);
        let p = extract(&g).unwrap();
        let asap = solve_asap(&p);
        let opt = solve_optimal(&p);
        let heur = solve_heuristic(&p, 50);
        assert!(opt.is_feasible(&p));
        assert!(heur.is_feasible(&p));
        assert!(
            opt.total_buffers < asap.total_buffers,
            "opt {} !< asap {}",
            opt.total_buffers,
            asap.total_buffers
        );
        assert!(heur.total_buffers <= asap.total_buffers);
        assert!(opt.total_buffers <= heur.total_buffers);
    }

    #[test]
    fn optimal_on_empty_and_single() {
        let p = BalanceProblem {
            n: 1,
            arcs: vec![],
            comp_of: vec![0],
            rel: vec![0],
        };
        let sol = solve_optimal(&p);
        assert_eq!(sol.total_buffers, 0);
    }

    #[test]
    fn heuristic_is_fixpoint_stable() {
        let g = fan_graph(2, 3);
        let p = extract(&g).unwrap();
        let h1 = solve_heuristic(&p, 50);
        // Re-running from the heuristic's result must not change it.
        let h2 = solve_heuristic(&p, 50);
        assert_eq!(h1.total_buffers, h2.total_buffers);
    }

    #[test]
    fn certificate_rejects_a_perturbed_flow() {
        let p = extract(&fan_graph(3, 4)).unwrap();
        let flow = min_cost_flow(&p);
        let pot = least_potentials(&p, &flow);
        assert_eq!(certify(&p, &flow, &pot), Ok(()));
        for k in 0..p.arcs.len() {
            let mut bumped = flow.clone();
            bumped[k] += 1;
            assert!(certify(&p, &bumped, &pot).is_err(), "arc {k} bumped");
        }
        let mut negative = flow.clone();
        negative[0] = -1;
        assert!(certify(&p, &negative, &pot).is_err());
    }

    #[test]
    fn certificate_rejects_asap_potentials_on_fan() {
        // ASAP is feasible but over-buffers the fan, so it cannot be
        // complementary to an optimal flow.
        let p = extract(&fan_graph(3, 4)).unwrap();
        let flow = min_cost_flow(&p);
        let asap = solve_asap(&p);
        let err = certify(&p, &flow, &asap.potential).unwrap_err();
        assert!(err.contains("carries flow"), "{err}");
    }
}
