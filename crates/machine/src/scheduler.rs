//! Event-driven ready-set scheduling for the simulator.
//!
//! The scan kernel re-examines every instruction cell once per
//! instruction time, which costs O(cells) per step even when only a
//! handful of cells hold deliverable operands — the transient fill and
//! drain phases of a pipe, gated conditional arms, and every throttled
//! or fault-injected run. The event-driven kernels instead maintain the
//! **wakeup invariant**:
//!
//! > a cell is (re-)examined at step `t` iff some event at `t` could
//! > have changed its enablement — a result packet on one of its input
//! > arcs became deliverable, an acknowledge freed a slot on one of its
//! > output arcs, a freeze window ended, or the cell itself fired or was
//! > resource-throttled at `t − 1`.
//!
//! Every state transition that can enable a cell is one of those events,
//! so examining only woken cells selects exactly the same firing set as
//! the full scan; spurious wakeups (the cell is examined and still not
//! enabled) are harmless. Both wheels are time-indexed: the node wheel
//! holds cells to examine, the arc wheel holds arcs whose acknowledge
//! slots expire. Delayed arrivals injected by a
//! [`crate::fault::FaultPlan`] and non-uniform [`crate::sim::ArcDelays`]
//! simply schedule their wakeups further out.
//!
//! Each wheel is a power-of-two **ring** of slots: slot `at & (len − 1)`
//! holds the ids due at `at`. The step loop drains the wheel at every
//! consecutive instruction time, so every undrained entry satisfies
//! `cursor ≤ at < cursor + len` and a slot only ever holds entries for
//! one time. A slot is a membership bitset over ids (all slots' bitsets
//! share one flat array) plus the list of its nonzero words. Posting an
//! id that is already due at that time is one bit test — the machine
//! posts many (a dense Fig. 3 step posts 80 cell wakeups for 49
//! distinct cells) — and a drain walks the touched words in ascending
//! order and emits their set bits, so the ready set comes out ascending
//! and deduplicated without sorting or deduplicating ids, in
//! O(touched words · log + ids). Storage is reused for the whole run.
//! The rare wakeup beyond the ring horizon (a multi-thousand-step
//! freeze window, a `thaw_time` pushed out to ~2⁴⁰ by a
//! permanent-freeze fault) goes into an ordered far set and migrates
//! back as the cursor catches up.
//!
//! The per-step cost becomes O(fired + woken); idle instruction times
//! (a pipe waiting out a long network latency, a frozen region) cost two
//! ring-slot reads.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Which step-loop implementation a simulation uses.
///
/// All kernels implement the identical machine semantics and produce
/// bit-identical [`crate::sim::RunResult`]s — asserted by the
/// `kernel_equivalence` test suite across the paper workloads, fault
/// plans, resource throttling, and watchdog stalls. They differ only in
/// how the set of enabled cells is discovered each instruction time and
/// in how the firing work of one instruction time is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Re-scan every cell each instruction time. O(cells) per step; the
    /// reference implementation.
    Scan,
    /// Examine only cells woken by token, acknowledge, thaw, or firing
    /// events. O(fired + woken) per step.
    #[default]
    EventDriven,
    /// The event-driven kernel plus the epoch engine: inside an eligible
    /// `run`, whenever a horizon of ≥ 2 steps is provable, the machine's
    /// shards advance that many steps at once on the given number of
    /// worker threads (DESIGN.md §16). Every other step runs the
    /// [`Kernel::EventDriven`] step body, so results are bit-identical
    /// for any worker count (DESIGN.md §11); `ParallelEvent(0)` and
    /// `ParallelEvent(1)` never spawn threads.
    ParallelEvent(usize),
}

/// One time-indexed wakeup wheel: a power-of-two ring of bitset slots
/// plus an ordered far set for wakeups beyond the horizon. Holds each
/// `(id, at)` pair at most once. `pub(crate)` so the epoch engine
/// (`par.rs`) can run one private wheel pair per shard with identical
/// drain semantics.
#[derive(Debug, Clone)]
pub(crate) struct Wheel {
    /// Next instruction time to be drained; every live ring entry `at`
    /// satisfies `cursor <= at < cursor + WHEEL_SLOTS`.
    cursor: u64,
    /// Membership bitsets of the slots, `1 << stride` words each: bit
    /// `id % 64` of word `(slot << stride) + id / 64` is set iff `id` is
    /// due at the time slot `at & MASK` stands for. The stride doubles
    /// on demand to cover the largest id posted.
    words: Vec<u64>,
    stride: u32,
    /// Per slot, the indices (within the slot) of its nonzero words, in
    /// the order they became nonzero.
    touched: Box<[Vec<u32>; WHEEL_SLOTS]>,
    /// Wakeups at or beyond `cursor + WHEEL_SLOTS`, ordered by (time, id).
    far: BTreeSet<(u64, u32)>,
}

/// Ring length: covers every delay the machine generates on the hot
/// path (forward/acknowledge delays, fault delay extensions, the +1
/// re-examination after firing) with room to spare; longer horizons
/// (freeze windows) take the far set.
const WHEEL_SLOTS: usize = 64;
const MASK: u64 = WHEEL_SLOTS as u64 - 1;

impl Wheel {
    pub(crate) fn new(cursor: u64) -> Self {
        Wheel {
            cursor,
            words: vec![0; WHEEL_SLOTS],
            stride: 0,
            touched: Box::new(std::array::from_fn(|_| Vec::new())),
            far: BTreeSet::new(),
        }
    }

    /// Post `id` at `at`; a repeat of a pending `(id, at)` is a no-op.
    #[inline]
    pub(crate) fn push(&mut self, id: u32, at: u64) {
        debug_assert!(at >= self.cursor, "wakeup posted into the past");
        if at - self.cursor < WHEEL_SLOTS as u64 {
            self.insert((at & MASK) as usize, id);
        } else {
            self.far.insert((at, id));
        }
    }

    #[inline]
    fn insert(&mut self, slot: usize, id: u32) {
        let w = id >> 6;
        if w >> self.stride != 0 {
            self.widen(w);
        }
        let word = &mut self.words[(slot << self.stride) | w as usize];
        if *word == 0 {
            self.touched[slot].push(w);
        }
        *word |= 1 << (id & 63);
    }

    /// Re-lay the bitsets out with a stride that covers word `w`.
    #[cold]
    fn widen(&mut self, w: u32) {
        let stride = u32::BITS - w.leading_zeros();
        let mut words = vec![0; WHEEL_SLOTS << stride];
        for (slot, touched) in self.touched.iter().enumerate() {
            for &t in touched {
                words[(slot << stride) | t as usize] =
                    self.words[(slot << self.stride) | t as usize];
            }
        }
        self.words = words;
        self.stride = stride;
    }

    /// Append slot `slot`'s ids to `out`, ascending, and empty it.
    fn take_sorted(&mut self, slot: usize, out: &mut Vec<u32>) {
        let touched = &mut self.touched[slot];
        if touched.len() > 1 {
            touched.sort_unstable();
        }
        let words = &mut self.words[slot << self.stride..(slot + 1) << self.stride];
        for &w in touched.iter() {
            let mut bits = std::mem::take(&mut words[w as usize]);
            while bits != 0 {
                out.push(w << 6 | bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        touched.clear();
    }

    /// Visit slot `slot`'s ids (word order unspecified), stopping at the
    /// first `Break`.
    fn try_for_each_in(
        &self,
        slot: usize,
        mut f: impl FnMut(u32) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for &w in &self.touched[slot] {
            let mut bits = self.words[(slot << self.stride) | w as usize];
            while bits != 0 {
                f(w << 6 | bits.trailing_zeros())?;
                bits &= bits - 1;
            }
        }
        ControlFlow::Continue(())
    }

    fn clear_slot(&mut self, slot: usize) {
        for &w in &self.touched[slot] {
            self.words[(slot << self.stride) | w as usize] = 0;
        }
        self.touched[slot].clear();
    }

    /// Drain every id due at or before `now` into `out` (cleared
    /// first), ascending and deduplicated. Slots keep their storage.
    /// Draining a time earlier than the cursor finds nothing: taking is
    /// destructive.
    pub(crate) fn drain(&mut self, now: u64, out: &mut Vec<u32>) {
        out.clear();
        if now < self.cursor {
            return;
        }
        if now == self.cursor && self.far.is_empty() {
            // The step loop's case: one slot, already ascending and
            // deduplicated.
            self.take_sorted((now & MASK) as usize, out);
            self.cursor = now + 1;
            return;
        }
        // Every live entry is within one ring length of the cursor, so
        // at most `WHEEL_SLOTS` slots can hold due ids — and a slot
        // visited for time `t` holds exactly the ids due at `t`. Each
        // slot comes out ascending and deduplicated; a drain that spans
        // several times (a skip, or far entries) must merge them.
        let last = now.min(self.cursor + MASK);
        // Ascending runs appended to `out`; a far entry is a run of one.
        let mut runs = 0;
        for t in self.cursor..=last {
            let slot = (t & MASK) as usize;
            if !self.touched[slot].is_empty() {
                self.take_sorted(slot, out);
                runs += 1;
            }
        }
        while let Some(&(t, id)) = self.far.first() {
            if t > now {
                break;
            }
            self.far.pop_first();
            out.push(id);
            runs += 1;
        }
        self.cursor = now + 1;
        // Migrate far wakeups that the advanced cursor brought inside
        // the ring horizon, so `push` stays O(1) for the common case.
        while let Some(&(t, id)) = self.far.first() {
            if t - self.cursor >= WHEEL_SLOTS as u64 {
                break;
            }
            self.far.pop_first();
            self.insert((t & MASK) as usize, id);
        }
        if runs > 1 {
            out.sort_unstable();
            out.dedup();
        }
    }

    /// Visit every pending `(id, at)` entry without draining it, ring
    /// slots in ascending time first, until `f` breaks — the
    /// epoch-horizon probe, which stops at the first entry that rules
    /// an epoch out. Each pending pair is visited once.
    pub(crate) fn for_each_pending(
        &self,
        mut f: impl FnMut(u32, u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for off in 0..WHEEL_SLOTS as u64 {
            let t = self.cursor + off;
            self.try_for_each_in((t & MASK) as usize, |id| f(id, t))?;
        }
        for &(t, id) in &self.far {
            f(id, t)?;
        }
        ControlFlow::Continue(())
    }

    /// Destructively extract every pending `(id, at)` entry into `out`
    /// (appended, arbitrary order) — the epoch setup step that routes
    /// the global wheel's contents onto per-shard wheels.
    pub(crate) fn take_all(&mut self, out: &mut Vec<(u32, u64)>) {
        for off in 0..WHEEL_SLOTS as u64 {
            let t = self.cursor + off;
            let slot = (t & MASK) as usize;
            let _ = self.try_for_each_in(slot, |id| {
                out.push((id, t));
                ControlFlow::Continue(())
            });
            self.clear_slot(slot);
        }
        out.extend(
            std::mem::take(&mut self.far)
                .into_iter()
                .map(|(t, id)| (id, t)),
        );
    }

    /// Jump an *empty* wheel's cursor forward to `now` so re-posted
    /// entries land within the ring horizon again after an epoch.
    pub(crate) fn rebase(&mut self, now: u64) {
        debug_assert!(
            self.far.is_empty() && self.touched.iter().all(Vec::is_empty),
            "rebase requires a fully drained wheel"
        );
        debug_assert!(now >= self.cursor, "rebase never rewinds");
        self.cursor = now;
    }

    /// Reset an empty wheel for reuse at a new start time (per-shard
    /// wheels between epochs). Clears any leftovers defensively.
    pub(crate) fn reset(&mut self, cursor: u64) {
        for slot in 0..WHEEL_SLOTS {
            self.clear_slot(slot);
        }
        self.far.clear();
        self.cursor = cursor;
    }
}

/// Time-indexed wakeup wheels for the event-driven kernels.
///
/// A disabled scheduler (scan kernel) accepts and discards every wakeup,
/// so the firing paths can post events unconditionally.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    enabled: bool,
    /// step → cells to examine at that step.
    node_wheel: Wheel,
    /// step → arcs with acknowledge slots expiring at that step.
    arc_wheel: Wheel,
}

impl Scheduler {
    /// A scheduler for the given kernel. The event-driven wheel is
    /// seeded with every cell at step 0 (matching the scan kernel's
    /// first examination); after that, only events schedule work.
    pub(crate) fn new(kernel: Kernel, cells: usize) -> Self {
        let enabled = matches!(kernel, Kernel::EventDriven | Kernel::ParallelEvent(_));
        let mut sched = Scheduler {
            enabled,
            node_wheel: Wheel::new(0),
            arc_wheel: Wheel::new(0),
        };
        if enabled {
            for n in 0..cells as u32 {
                sched.node_wheel.push(n, 0);
            }
        }
        sched
    }

    /// A scheduler resuming mid-run at step `now` (snapshot restore).
    ///
    /// Wheels are not serialized — they are an optimization artifact, not
    /// canonical machine state. Instead the event-driven wheel is seeded
    /// with every cell at the resume step, exactly like the step-0
    /// seeding of a fresh run: any cell enabled at `now` is examined, and
    /// spurious examinations of disabled cells are harmless under the
    /// wakeup invariant. The restore path then re-posts the *future*
    /// wakeups implied by canonical state (in-flight tokens and pending
    /// acknowledges), which is everything the wheels could have held.
    /// This is what makes a snapshot kernel-neutral: a checkpoint taken
    /// under any kernel resumes under any other bit-identically.
    pub(crate) fn resume(kernel: Kernel, cells: usize, now: u64) -> Self {
        let enabled = matches!(kernel, Kernel::EventDriven | Kernel::ParallelEvent(_));
        let mut sched = Scheduler {
            enabled,
            node_wheel: Wheel::new(now),
            arc_wheel: Wheel::new(now),
        };
        if enabled {
            for n in 0..cells as u32 {
                sched.node_wheel.push(n, now);
            }
        }
        sched
    }

    /// Whether an event-driven kernel drives the step loop.
    #[cfg(test)]
    pub(crate) fn is_event_driven(&self) -> bool {
        self.enabled
    }

    /// Examine `node` at step `at`. No-op for the scan kernel.
    #[inline]
    pub(crate) fn wake(&mut self, node: u32, at: u64) {
        if self.enabled {
            self.node_wheel.push(node, at);
        }
    }

    /// Release expired acknowledge slots of `arc` at step `at`.
    #[inline]
    pub(crate) fn wake_arc(&mut self, arc: u32, at: u64) {
        if self.enabled {
            self.arc_wheel.push(arc, at);
        }
    }

    /// Drain the cells due at `now` into `out` (cleared first),
    /// ascending and deduplicated — the scan kernel examines cells in
    /// index order, and the resource throttle and first-error selection
    /// depend on that order.
    pub(crate) fn due_nodes(&mut self, now: u64, out: &mut Vec<u32>) {
        self.node_wheel.drain(now, out);
    }

    /// Drain the arcs with acknowledge slots expiring at `now` into
    /// `out` (cleared first), ascending and deduplicated.
    pub(crate) fn due_arcs(&mut self, now: u64, out: &mut Vec<u32>) {
        self.arc_wheel.drain(now, out);
    }

    /// Visit every pending cell wakeup `(cell, at)` without draining
    /// it, until `f` breaks.
    pub(crate) fn for_each_pending_node(
        &self,
        f: impl FnMut(u32, u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.node_wheel.for_each_pending(f)
    }

    /// Visit every pending arc wakeup `(arc, at)` without draining it,
    /// until `f` breaks.
    pub(crate) fn for_each_pending_arc(
        &self,
        f: impl FnMut(u32, u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.arc_wheel.for_each_pending(f)
    }

    /// Destructively extract every pending wakeup — cells into `nodes`,
    /// arcs into `arcs` (both appended, arbitrary order). The epoch
    /// engine routes them onto per-shard wheels and pushes the
    /// untriggered remainder back after the epoch.
    pub(crate) fn take_all(&mut self, nodes: &mut Vec<(u32, u64)>, arcs: &mut Vec<(u32, u64)>) {
        self.node_wheel.take_all(nodes);
        self.arc_wheel.take_all(arcs);
    }

    /// Jump the (fully drained) wheels' cursors to `now` after an epoch
    /// advanced the machine several steps at once.
    pub(crate) fn rebase(&mut self, now: u64) {
        self.node_wheel.rebase(now);
        self.arc_wheel.rebase(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes_at(s: &mut Scheduler, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        s.due_nodes(now, &mut out);
        out
    }

    fn arcs_at(s: &mut Scheduler, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        s.due_arcs(now, &mut out);
        out
    }

    #[test]
    fn disabled_scheduler_discards_wakeups() {
        let mut s = Scheduler::new(Kernel::Scan, 4);
        assert!(!s.is_event_driven());
        s.wake(1, 5);
        s.wake_arc(2, 5);
        assert!(nodes_at(&mut s, 5).is_empty());
        assert!(arcs_at(&mut s, 5).is_empty());
    }

    #[test]
    fn event_scheduler_seeds_all_cells_at_step_zero() {
        let mut s = Scheduler::new(Kernel::EventDriven, 3);
        assert_eq!(nodes_at(&mut s, 0), vec![0, 1, 2]);
        assert!(nodes_at(&mut s, 0).is_empty(), "taking is destructive");
    }

    #[test]
    fn parallel_kernel_enables_the_wheels() {
        let mut s = Scheduler::new(Kernel::ParallelEvent(4), 2);
        assert!(s.is_event_driven());
        assert_eq!(nodes_at(&mut s, 0), vec![0, 1]);
    }

    #[test]
    fn wakeups_are_sorted_and_deduplicated() {
        let mut s = Scheduler::new(Kernel::EventDriven, 0);
        s.wake(7, 3);
        s.wake(2, 3);
        s.wake(7, 3);
        s.wake(1, 4);
        assert_eq!(nodes_at(&mut s, 3), vec![2, 7]);
        assert_eq!(nodes_at(&mut s, 4), vec![1]);
        assert!(nodes_at(&mut s, 5).is_empty());
    }

    #[test]
    fn far_wakeups_survive_the_ring_horizon() {
        let mut s = Scheduler::new(Kernel::EventDriven, 0);
        // Beyond the ring: a freeze-window thaw and a permanent freeze.
        s.wake(9, WHEEL_SLOTS as u64 + 5);
        s.wake(4, 1 << 40);
        for t in 0..WHEEL_SLOTS as u64 + 5 {
            assert!(nodes_at(&mut s, t).is_empty(), "nothing due at {t}");
        }
        assert_eq!(nodes_at(&mut s, WHEEL_SLOTS as u64 + 5), vec![9]);
        assert_eq!(
            nodes_at(&mut s, 1 << 40),
            vec![4],
            "cursor jump drains the far set"
        );
    }

    #[test]
    fn resume_seeds_at_the_restore_step() {
        let mut s = Scheduler::resume(Kernel::ParallelEvent(2), 3, 100);
        s.wake(2, 101);
        assert_eq!(nodes_at(&mut s, 100), vec![0, 1, 2]);
        assert_eq!(nodes_at(&mut s, 101), vec![2]);
    }

    /// The Vec-bucket wheel the bitset wheel replaced, kept as the
    /// reference model: buckets take every post (duplicates included),
    /// far wakeups wait in a binary heap, and a drain sorts and
    /// deduplicates what it collected.
    mod reference {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        pub(super) struct VecWheel {
            cursor: u64,
            buckets: Vec<Vec<u32>>,
            far: BinaryHeap<Reverse<(u64, u32)>>,
        }

        impl VecWheel {
            pub(super) fn new(cursor: u64) -> Self {
                VecWheel {
                    cursor,
                    buckets: vec![Vec::new(); super::WHEEL_SLOTS],
                    far: BinaryHeap::new(),
                }
            }

            fn mask(&self) -> u64 {
                self.buckets.len() as u64 - 1
            }

            pub(super) fn push(&mut self, id: u32, at: u64) {
                assert!(at >= self.cursor, "wakeup posted into the past");
                if at - self.cursor < self.buckets.len() as u64 {
                    let slot = (at & self.mask()) as usize;
                    self.buckets[slot].push(id);
                } else {
                    self.far.push(Reverse((at, id)));
                }
            }

            pub(super) fn drain(&mut self, now: u64, out: &mut Vec<u32>) {
                out.clear();
                if now < self.cursor {
                    return;
                }
                let last = now.min(self.cursor + self.mask());
                for t in self.cursor..=last {
                    let slot = (t & self.mask()) as usize;
                    out.append(&mut self.buckets[slot]);
                }
                while let Some(&Reverse((t, id))) = self.far.peek() {
                    if t > now {
                        break;
                    }
                    self.far.pop();
                    out.push(id);
                }
                self.cursor = now + 1;
                while let Some(&Reverse((t, id))) = self.far.peek() {
                    if t - self.cursor >= self.buckets.len() as u64 {
                        break;
                    }
                    self.far.pop();
                    let slot = (t & self.mask()) as usize;
                    self.buckets[slot].push(id);
                }
                out.sort_unstable();
                out.dedup();
            }

            pub(super) fn for_each_pending(&self, mut f: impl FnMut(u32, u64)) {
                for off in 0..self.buckets.len() as u64 {
                    let t = self.cursor + off;
                    for &id in &self.buckets[(t & self.mask()) as usize] {
                        f(id, t);
                    }
                }
                for &Reverse((t, id)) in &self.far {
                    f(id, t);
                }
            }

            pub(super) fn take_all(&mut self, out: &mut Vec<(u32, u64)>) {
                for off in 0..self.buckets.len() as u64 {
                    let t = self.cursor + off;
                    let slot = (t & self.mask()) as usize;
                    for id in self.buckets[slot].drain(..) {
                        out.push((id, t));
                    }
                }
                while let Some(Reverse((t, id))) = self.far.pop() {
                    out.push((id, t));
                }
            }

            pub(super) fn rebase(&mut self, now: u64) {
                assert!(self.far.is_empty() && self.buckets.iter().all(Vec::is_empty));
                assert!(now >= self.cursor);
                self.cursor = now;
            }

            pub(super) fn reset(&mut self, cursor: u64) {
                for b in &mut self.buckets {
                    b.clear();
                }
                self.far.clear();
                self.cursor = cursor;
            }
        }
    }

    /// Every pending `(id, at)` pair of `w`, sorted and deduplicated;
    /// also checks that the visit order is ascending in time.
    fn pending_set(w: &Wheel) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        let mut last = 0;
        let flow = w.for_each_pending(|id, t| {
            assert!(t >= last, "pending entries are visited in time order");
            last = t;
            out.push((id, t));
            ControlFlow::Continue(())
        });
        assert_eq!(flow, ControlFlow::Continue(()));
        let len = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), len, "each pending pair is visited once");
        out
    }

    fn reference_set(w: &reference::VecWheel) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        w.for_each_pending(|id, t| out.push((id, t)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Seeded random operation sequences against the reference wheel:
    /// duplicate posts, posts beyond the ring horizon up to 2⁴⁰, drains
    /// that skip past the whole ring, early-stopped and full pending
    /// walks, `take_all` + `rebase`, and `reset`. Every drain must agree
    /// exactly (ascending, deduplicated).
    #[test]
    fn bitset_wheel_matches_the_vec_bucket_reference() {
        use valpipe_util::Rng;
        let (mut drains, mut skips, mut nonempty) = (0, 0, 0);
        for seed in 0..64u64 {
            let mut rng = Rng::seed(seed);
            let start = rng.below(1000) as u64;
            let mut w = Wheel::new(start);
            let mut r = reference::VecWheel::new(start);
            let mut cursor = start;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            // A few ids, so duplicates are common; some big ones, so the
            // bitset grows across many words.
            let ids = 1 + rng.below(300);
            for _ in 0..600 {
                match rng.below(100) {
                    0..=59 => {
                        let id = if rng.chance(0.05) {
                            rng.below(5000) as u32
                        } else {
                            rng.below(ids) as u32
                        };
                        let at = match rng.below(20) {
                            0 => cursor + (1 << 40) - 7 + rng.below(14) as u64,
                            1..=2 => cursor + WHEEL_SLOTS as u64 + rng.below(500) as u64,
                            3 => cursor + WHEEL_SLOTS as u64 - 1,
                            _ => cursor + rng.below(6) as u64,
                        };
                        for _ in 0..1 + rng.below(3) {
                            w.push(id, at);
                            r.push(id, at);
                        }
                    }
                    60..=84 => {
                        let now = match rng.below(10) {
                            0 => {
                                skips += 1;
                                cursor + WHEEL_SLOTS as u64 + rng.below(400) as u64
                            }
                            1 if cursor > 0 => cursor - 1,
                            2 => cursor + (1 << 40),
                            _ => cursor + rng.below(3) as u64,
                        };
                        w.drain(now, &mut got);
                        r.drain(now, &mut want);
                        assert_eq!(got, want, "seed {seed}: drain at {now}");
                        drains += 1;
                        nonempty += usize::from(!got.is_empty());
                        cursor = cursor.max(now + 1);
                    }
                    85..=91 => {
                        let all = pending_set(&w);
                        assert_eq!(all, reference_set(&r), "seed {seed}: pending set");
                        // An early stop visits a prefix and breaks.
                        let stop = rng.below(all.len() + 1);
                        let mut seen = 0;
                        let flow = w.for_each_pending(|_, _| {
                            seen += 1;
                            if seen > stop {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            }
                        });
                        let broke = stop < all.len();
                        assert_eq!(flow.is_break(), broke, "seed {seed}");
                        assert_eq!(seen, if broke { stop + 1 } else { all.len() });
                    }
                    92..=96 => {
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        w.take_all(&mut a);
                        r.take_all(&mut b);
                        a.sort_unstable();
                        b.sort_unstable();
                        b.dedup();
                        assert_eq!(a, b, "seed {seed}: take_all");
                        assert!(pending_set(&w).is_empty());
                        // What an epoch does next: jump ahead, re-post
                        // whatever is still in the future.
                        cursor += rng.below(100) as u64;
                        w.rebase(cursor);
                        r.rebase(cursor);
                        for &(id, at) in a.iter().filter(|&&(_, at)| at >= cursor) {
                            w.push(id, at);
                            r.push(id, at);
                        }
                    }
                    _ => {
                        cursor = rng.below(1 << 20) as u64;
                        w.reset(cursor);
                        r.reset(cursor);
                        assert!(pending_set(&w).is_empty());
                    }
                }
            }
        }
        assert!(
            drains > 5000 && skips > 300 && nonempty > 2000,
            "{drains} {skips} {nonempty}"
        );
    }
}
