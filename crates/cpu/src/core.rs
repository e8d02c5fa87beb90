//! The trace-driven core model: an in-order-retire instruction window with
//! out-of-order completion of memory operations.
//!
//! Each CPU cycle the core retires up to `issue_width` finished instructions
//! from the window head and inserts up to `issue_width` new ones from the
//! trace. Loads occupy their slot until the memory hierarchy answers; when
//! the window fills behind a stalled load — exactly what happens when a
//! request sits behind a refreshing bank — the core stops retiring and IPC
//! drops. This is the mechanism by which refresh latency becomes a system
//! slowdown in the paper.

use crate::mshr::{MshrTable, ReqToken};
use crate::trace::{MemKind, TraceOp, TraceSource};
use crate::{AccessResult, MemoryInterface};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Core shape parameters (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreParams {
    /// Instructions issued and retired per cycle (3 in the paper).
    pub issue_width: usize,
    /// Instruction-window (ROB) capacity (128 in the paper).
    pub window_size: usize,
    /// MSHRs per core (8 in the paper).
    pub mshrs: usize,
    /// LLC hit latency in CPU cycles.
    pub llc_hit_latency: u64,
}

impl CoreParams {
    /// The paper's configuration: 3-wide, 128-entry window, 8 MSHRs.
    pub fn paper_default() -> Self {
        Self {
            issue_width: 3,
            window_size: 128,
            mshrs: 8,
            llc_hit_latency: 24,
        }
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Aggregate per-core statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions retired (bubbles + memory ops).
    pub retired: u64,
    /// CPU cycles elapsed.
    pub cycles: u64,
    /// Memory operations issued to the hierarchy.
    pub mem_ops: u64,
    /// Loads among them.
    pub loads: u64,
    /// Stores among them.
    pub stores: u64,
    /// Cycles in which issue stalled because all MSHRs were busy.
    pub mshr_stall_cycles: u64,
    /// Cycles in which issue stalled because the window was full.
    pub window_stall_cycles: u64,
    /// Cycles stalled because the memory system refused the request.
    pub mem_busy_stall_cycles: u64,
}

/// A window slot that is not done at issue: a load that hit in the LLC
/// (done at a known cycle) or one waiting on memory. Every other slot — a
/// bubble, a store — is done from the cycle it issues, so the window keeps
/// only these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    DoneAt(u64),
    WaitMem,
}

impl Slot {
    /// Whether the slot is done at CPU cycle `now`.
    fn done(self, now: u64) -> bool {
        matches!(self, Slot::DoneAt(t) if t <= now)
    }

    /// The cycle the slot finishes by itself (`None` while it waits on
    /// memory, which only a completion ends).
    fn expiry(self) -> Option<u64> {
        match self {
            Slot::DoneAt(t) => Some(t),
            Slot::WaitMem => None,
        }
    }
}

/// Why a core's next [`Core::step`] would make no progress (see
/// [`Core::idle_probe`]). The kind selects which stall counter a batched
/// span of idle cycles is charged to, matching per-cycle stepping exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Instruction window full behind an unfinished head.
    WindowFull,
    /// Staged op depends on an outstanding load (no counter in `step`).
    DepWait,
    /// All MSHRs busy.
    MshrFull,
    /// The memory system refused the request (backpressure).
    MemBusy,
}

/// Result of [`Core::idle_probe`]: whether the next `step` would change any
/// core state beyond the cycle counter (and one stall counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreIdle {
    /// The next step retires, issues, or accesses memory: do not skip.
    Active,
    /// The next step is a pure stall. `wake` is the CPU cycle at which the
    /// blocking slot's completion time expires (`None` when the core waits
    /// on a memory completion, which arrives as a separate event).
    Stalled {
        /// Which stall counter the skipped cycles belong to.
        kind: StallKind,
        /// CPU cycle at which the stall self-resolves, if time-driven.
        wake: Option<u64>,
    },
}

/// The memory interface [`Core::advance`] steps against: inside a quiet
/// span no step reaches it, so an access is a broken bound.
struct NoAccess;

impl MemoryInterface for NoAccess {
    fn access(&mut self, core: usize, addr: u64, _is_store: bool) -> AccessResult {
        panic!("core {core} accessed {addr:#x} inside its quiet span");
    }
}

/// One simulated core. See the crate-level example.
pub struct Core {
    id: usize,
    params: CoreParams,
    trace: Box<dyn TraceSource>,
    /// The window's slots that were not done at issue (loads), each with
    /// its sequence number, oldest first. A slot of `head_seq..next_seq`
    /// that is not here is done.
    pending: VecDeque<(u64, Slot)>,
    /// Sequence number of the oldest unretired slot.
    head_seq: u64,
    /// Sequence number of the next slot to issue: the window holds
    /// `next_seq - head_seq` slots.
    next_seq: u64,
    /// Bubbles still to issue ahead of `staged`.
    bubbles_left: u32,
    /// The next memory operation, fetched as soon as the previous one
    /// commits (each core's trace is private, so when it is fetched is
    /// unobservable).
    staged: TraceOp,
    mshrs: MshrTable,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("window_occupancy", &self.occupancy())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core with the given id, parameters and instruction trace.
    pub fn new(id: usize, params: CoreParams, mut trace: Box<dyn TraceSource>) -> Self {
        let staged = trace.next_op();
        Self {
            id,
            params,
            trace,
            pending: VecDeque::with_capacity(params.window_size),
            head_seq: 0,
            next_seq: 0,
            bubbles_left: staged.bubbles,
            staged,
            mshrs: MshrTable::new(params.mshrs),
            stats: CoreStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Retired instructions.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Elapsed CPU cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        if self.stats.cycles == 0 {
            0.0
        } else {
            self.stats.retired as f64 / self.stats.cycles as f64
        }
    }

    fn width(&self) -> u64 {
        self.params.issue_width as u64
    }

    /// Slots in the window.
    fn occupancy(&self) -> u64 {
        self.next_seq - self.head_seq
    }

    /// The window head's slot, if it was not done at issue.
    fn pending_head(&self) -> Option<Slot> {
        match self.pending.front() {
            Some(&(seq, slot)) if seq == self.head_seq => Some(slot),
            _ => None,
        }
    }

    /// The slot of the newest load, if it has not retired. Loads retire in
    /// order, so an unretired one is the newest pending slot.
    fn last_load(&self) -> Option<Slot> {
        self.pending.back().map(|&(_, slot)| slot)
    }

    /// Advances the core by one CPU cycle.
    pub fn step(&mut self, mem: &mut dyn MemoryInterface) {
        self.stats.cycles += 1;
        let now = self.stats.cycles;
        self.retire(now);

        // Issue in order.
        let w = self.width();
        let mut issued = 0;
        while issued < w {
            let room = self.params.window_size as u64 - self.occupancy();
            if room == 0 {
                self.stats.window_stall_cycles += 1;
                break;
            }
            if self.bubbles_left > 0 {
                // Bubbles are done at issue: only their count is kept.
                let n = u64::from(self.bubbles_left).min(w - issued).min(room);
                self.next_seq += n;
                self.bubbles_left -= n as u32;
                issued += n;
                continue;
            }
            let op = self.staged;

            // Load-to-load dependence: wait for the previous load's data.
            if op.dependent && self.last_load().is_some_and(|slot| !slot.done(now)) {
                break;
            }

            let is_store = op.kind == MemKind::Store;
            let line = op.addr & !63u64;
            // A store is done at issue; a load missing the LLC waits.
            let waiting = (!is_store).then_some(Slot::WaitMem);
            if self.mshrs.merge(line, (!is_store).then_some(self.next_seq)) {
                self.commit(waiting);
                issued += 1;
                continue;
            }
            if self.mshrs.is_full() {
                self.stats.mshr_stall_cycles += 1;
                break;
            }
            match mem.access(self.id, op.addr, is_store) {
                AccessResult::Hit => {
                    let done = now + self.params.llc_hit_latency;
                    self.commit((!is_store).then_some(Slot::DoneAt(done)));
                }
                AccessResult::Miss(token) => {
                    let ok = self
                        .mshrs
                        .allocate(line, token, (!is_store).then_some(self.next_seq));
                    debug_assert!(ok, "allocate after is_full check cannot fail");
                    self.commit(waiting);
                }
                AccessResult::Busy => {
                    self.stats.mem_busy_stall_cycles += 1;
                    break;
                }
            }
            issued += 1;
        }
    }

    /// Retires up to `issue_width` done slots from the window head, in
    /// order.
    fn retire(&mut self, now: u64) {
        let w = self.width();
        let mut budget = w;
        loop {
            // The slots ahead of the oldest pending one are done.
            let limit = self.pending.front().map_or(self.next_seq, |&(seq, _)| seq);
            let run = (limit - self.head_seq).min(budget);
            self.head_seq += run;
            budget -= run;
            if budget == 0 {
                break;
            }
            match self.pending.front() {
                Some(&(_, slot)) if slot.done(now) => {
                    self.pending.pop_front();
                    self.head_seq += 1;
                    budget -= 1;
                }
                _ => break,
            }
        }
        self.stats.retired += w - budget;
    }

    /// Commits the staged memory operation — a load with its `slot`, or a
    /// store (`None`), done at issue — and fetches the next one.
    fn commit(&mut self, slot: Option<Slot>) {
        match slot {
            Some(slot) => {
                self.stats.loads += 1;
                self.pending.push_back((self.next_seq, slot));
            }
            None => self.stats.stores += 1,
        }
        self.stats.mem_ops += 1;
        self.next_seq += 1;
        self.staged = self.trace.next_op();
        self.bubbles_left = self.staged.bubbles;
    }

    /// Predicts, without mutating anything, whether the next [`Self::step`]
    /// would be a pure stall — advancing only the cycle counter and at most
    /// one stall counter — by mirroring `step`'s branch order exactly.
    ///
    /// A `Stalled` wake is the first CPU cycle at which *any* core state
    /// would change again: the stall's own resolution (a dependency or the
    /// window head finishing) **and** the expiry of the head slot — an
    /// unexpired LLC-hit completion at the head retires the moment it
    /// expires, even while the issue side stays blocked — folded together.
    ///
    /// `mem_busy(addr)` must answer what [`MemoryInterface::access`] would
    /// answer with `Busy` for `addr`, without side effects. The probe is
    /// only meaningful while the memory system delivers no completions to
    /// this core.
    pub fn idle_probe(&self, mem_busy: &dyn Fn(u64) -> bool) -> CoreIdle {
        let now = self.stats.cycles + 1;
        // Retire in order: a done head retires something. An unexpired
        // head completion self-resolves (retires) at its expiry; a head
        // waiting on memory resolves only via `complete`.
        let head_wake = match self.pending_head() {
            Some(slot) if !slot.done(now) => slot.expiry(),
            None if self.occupancy() == 0 => None,
            _ => return CoreIdle::Active,
        };
        // Issue in order, first slot only (later iterations cannot be
        // reached when the first one breaks).
        if self.occupancy() >= self.params.window_size as u64 {
            return CoreIdle::Stalled {
                kind: StallKind::WindowFull,
                wake: head_wake,
            };
        }
        if self.bubbles_left > 0 {
            return CoreIdle::Active;
        }
        let op = self.staged;
        if op.dependent {
            if let Some(dep) = self.last_load().filter(|slot| !slot.done(now)) {
                let wake = match (head_wake, dep.expiry()) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, None) | (None, x) => x,
                };
                return CoreIdle::Stalled {
                    kind: StallKind::DepWait,
                    wake,
                };
            }
        }
        let line = op.addr & !63u64;
        if self.mshrs.contains_line(line) {
            return CoreIdle::Active; // would merge and commit
        }
        if self.mshrs.is_full() {
            return CoreIdle::Stalled {
                kind: StallKind::MshrFull,
                wake: head_wake,
            };
        }
        if mem_busy(op.addr) {
            return CoreIdle::Stalled {
                kind: StallKind::MemBusy,
                wake: head_wake,
            };
        }
        CoreIdle::Active
    }

    /// A lower bound on the CPU cycles before [`Self::step`] next calls
    /// [`MemoryInterface::access`], valid while no completion reaches the
    /// core: the pure stall ahead ([`Self::idle_probe`]; `u64::MAX` when
    /// only a completion ends it), plus `bubbles_left / issue_width` — no
    /// step reaches the staged op while `issue_width` bubbles are left
    /// ahead of it, and a step issues at most that many. A core about to
    /// access memory gets 0, also when the access will be refused: asking
    /// is an access.
    ///
    /// Within the span the core touches no shared state, so
    /// [`Self::advance`] may run it at any time.
    pub fn quiet_span(&self) -> u64 {
        let bubble_steps = u64::from(self.bubbles_left) / self.width();
        match self.idle_probe(&|_| false) {
            CoreIdle::Active => bubble_steps,
            CoreIdle::Stalled { wake: None, .. } => u64::MAX,
            CoreIdle::Stalled { wake: Some(t), .. } => t - 1 - self.stats.cycles + bubble_steps,
        }
    }

    /// Runs `cpu_cycles` steps exactly as that many [`Self::step`] calls
    /// would, for `cpu_cycles <= quiet_span()` and no completion in
    /// between. Chains the closed forms of the regimes it passes through —
    /// a pure stall, a bubble run, issue behind a blocked head — and steps
    /// a cycle that fits none of them against a memory interface that
    /// panics on access.
    pub fn advance(&mut self, mut cpu_cycles: u64) {
        debug_assert!(
            cpu_cycles <= self.quiet_span(),
            "advance past the quiet span"
        );
        while cpu_cycles > 0 {
            let n = match self.idle_probe(&|_| false) {
                CoreIdle::Stalled { kind, wake } => {
                    let stall = wake.map_or(u64::MAX, |t| t - 1 - self.stats.cycles);
                    let n = stall.min(cpu_cycles);
                    self.skip_idle(n, kind);
                    n
                }
                CoreIdle::Active => {
                    if let Some(n) = self.bubble_run() {
                        let n = n.min(cpu_cycles);
                        self.skip_bubbles(n);
                        n
                    } else if let Some(n) = self.blocked_head_run() {
                        let n = n.min(cpu_cycles);
                        self.skip_blocked_head(n);
                        n
                    } else {
                        self.step(&mut NoAccess);
                        1
                    }
                }
            };
            cpu_cycles -= n;
        }
    }

    /// How many CPU cycles of *pure bubble execution* can be batched from
    /// the current state, or `None` when the next step is not a pure bubble
    /// cycle. A pure bubble cycle retires `issue_width` done slots (or the
    /// whole window if smaller) and issues `issue_width` bubbles — no
    /// memory op, no stall — so a span of them is arithmetic on the
    /// sequence numbers. Requirements:
    ///
    /// - at least `issue_width` bubbles remain, so no cycle in the span
    ///   reaches the staged op;
    /// - retirement never reaches a slot that is not done: either every
    ///   slot is done, or the leading run of done slots is at least
    ///   `issue_width` long and the span is cut so retirement stays inside
    ///   it (an in-flight LLC hit parked mid-window is fine — it just caps
    ///   how far the run extends).
    ///
    /// The bound is `bubbles_left / issue_width`, further capped by
    /// `run / issue_width` when a slot that is not done follows the run.
    /// Like [`Self::idle_probe`], only valid while no completions arrive.
    pub fn bubble_run(&self) -> Option<u64> {
        let now = self.stats.cycles + 1;
        let w = self.width();
        let bubbles = u64::from(self.bubbles_left);
        if bubbles < w {
            return None;
        }
        let fetch_bound = bubbles / w;
        let blocker = self.pending.iter().find(|&&(_, slot)| !slot.done(now));
        match blocker.map(|&(seq, _)| seq - self.head_seq) {
            None => Some(fetch_bound),
            Some(run) if run >= w => Some((run / w).min(fetch_bound)),
            Some(_) => None,
        }
    }

    /// Batches `cpu_cycles` pure bubble cycles (see [`Self::bubble_run`];
    /// `cpu_cycles` must not exceed its bound).
    pub(crate) fn skip_bubbles(&mut self, cpu_cycles: u64) {
        if cpu_cycles == 0 {
            return;
        }
        debug_assert!(
            self.bubble_run().is_some_and(|n| cpu_cycles <= n),
            "past bound"
        );
        let w = self.width();
        // Cycle 1 retires min(w, occupancy); from then on the window holds
        // a cycle's worth of done bubbles, so every later cycle retires w.
        let retired = self.occupancy().min(w) + w * (cpu_cycles - 1);
        let pushes = w * cpu_cycles;
        self.head_seq += retired;
        // The loads retired with them were done: the span stops short of
        // the first one that is not.
        while self
            .pending
            .front()
            .is_some_and(|&(seq, _)| seq < self.head_seq)
        {
            self.pending.pop_front();
        }
        self.next_seq += pushes;
        self.bubbles_left -= pushes as u32;
        self.stats.cycles += cpu_cycles;
        self.stats.retired += retired;
    }

    /// How many CPU cycles of *issue-only* execution can be batched when
    /// the window head is an unexpired completion, or `None` when the next
    /// step is not such a cycle. In this regime every cycle retires nothing
    /// (the head is a `DoneAt` in the future or still waiting on memory)
    /// and issues `issue_width` bubbles behind it. The bound is cut so that
    /// within the span:
    ///
    /// - the head never expires (`head DoneAt(t)` caps it at `t - 1`);
    /// - the window never fills mid-issue (no partial-issue cycle, no
    ///   window-full stall);
    /// - bubbles never run out (the staged op is not reached).
    ///
    /// Complements [`Self::bubble_run`], which needs a retireable run at
    /// the front. Like [`Self::idle_probe`], only valid while no
    /// completions arrive.
    pub fn blocked_head_run(&self) -> Option<u64> {
        let now = self.stats.cycles;
        let w = self.width();
        let bubbles = u64::from(self.bubbles_left);
        if bubbles < w {
            return None;
        }
        let head_bound = match self.pending_head()? {
            Slot::WaitMem => u64::MAX,
            Slot::DoneAt(t) if t > now + 1 => t - 1 - now,
            Slot::DoneAt(_) => return None,
        };
        let room = (self.params.window_size as u64 - self.occupancy()) / w;
        if room == 0 {
            return None;
        }
        Some(head_bound.min(room).min(bubbles / w))
    }

    /// Batches `cpu_cycles` issue-only cycles (see [`Self::blocked_head_run`];
    /// `cpu_cycles` must not exceed its bound). Each cycle issues
    /// `issue_width` bubbles; nothing retires.
    pub(crate) fn skip_blocked_head(&mut self, cpu_cycles: u64) {
        debug_assert!(
            cpu_cycles == 0 || self.blocked_head_run().is_some_and(|n| cpu_cycles <= n),
            "past bound"
        );
        let pushes = self.width() * cpu_cycles;
        self.next_seq += pushes;
        self.bubbles_left -= pushes as u32;
        self.stats.cycles += cpu_cycles;
    }

    /// Batches `cpu_cycles` consecutive stalled steps of kind `kind`:
    /// advances the cycle counter and the matching stall counter exactly as
    /// that many [`Self::step`] calls would have (`DepWait` stalls increment
    /// no counter in `step`, so none is charged here either).
    pub(crate) fn skip_idle(&mut self, cpu_cycles: u64, kind: StallKind) {
        self.stats.cycles += cpu_cycles;
        match kind {
            StallKind::WindowFull => self.stats.window_stall_cycles += cpu_cycles,
            StallKind::MshrFull => self.stats.mshr_stall_cycles += cpu_cycles,
            StallKind::MemBusy => self.stats.mem_busy_stall_cycles += cpu_cycles,
            StallKind::DepWait => {}
        }
    }

    /// Delivers the data for request `token` (called by the system glue when
    /// the memory controller completes a read).
    pub fn complete(&mut self, token: ReqToken) {
        let now = self.stats.cycles;
        if let Some(waiters) = self.mshrs.complete(token) {
            for seq in waiters {
                let i = self
                    .pending
                    .binary_search_by_key(&seq, |&(s, _)| s)
                    .expect("a load waiting on memory cannot have retired");
                self.pending[i].1 = Slot::DoneAt(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CyclicTrace;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Memory that always misses and records tokens for manual completion.
    struct Recorder {
        next_token: ReqToken,
        tokens: Rc<RefCell<Vec<ReqToken>>>,
        busy: bool,
    }

    impl Recorder {
        fn new() -> (Self, Rc<RefCell<Vec<ReqToken>>>) {
            let tokens = Rc::new(RefCell::new(Vec::new()));
            (
                Self {
                    next_token: 1,
                    tokens: Rc::clone(&tokens),
                    busy: false,
                },
                tokens,
            )
        }
    }

    impl MemoryInterface for Recorder {
        fn access(&mut self, _core: usize, _addr: u64, _store: bool) -> AccessResult {
            if self.busy {
                return AccessResult::Busy;
            }
            let t = self.next_token;
            self.next_token += 1;
            self.tokens.borrow_mut().push(t);
            AccessResult::Miss(t)
        }
    }

    struct AlwaysHit;
    impl MemoryInterface for AlwaysHit {
        fn access(&mut self, _c: usize, _a: u64, _s: bool) -> AccessResult {
            AccessResult::Hit
        }
    }

    fn load(addr: u64) -> TraceOp {
        TraceOp {
            bubbles: 0,
            kind: MemKind::Load,
            addr,
            dependent: false,
        }
    }

    #[test]
    fn pure_compute_reaches_issue_width() {
        let trace = CyclicTrace::new(vec![TraceOp {
            bubbles: 1_000_000,
            ..load(0)
        }]);
        let mut core = Core::new(0, CoreParams::paper_default(), Box::new(trace));
        let mut mem = AlwaysHit;
        for _ in 0..1_000 {
            core.step(&mut mem);
        }
        assert!(core.ipc() > 2.9, "ipc = {}", core.ipc());
    }

    #[test]
    fn llc_hits_pipeline_to_full_width() {
        // Window 128 >> width * hit latency, so hits fully overlap.
        let trace = CyclicTrace::new(vec![load(0)]);
        let mut core = Core::new(0, CoreParams::paper_default(), Box::new(trace));
        let mut mem = AlwaysHit;
        for _ in 0..2_000 {
            core.step(&mut mem);
        }
        assert!(core.ipc() > 2.8, "ipc = {}", core.ipc());
    }

    #[test]
    fn mshr_exhaustion_stalls_issue() {
        // Distinct lines so nothing merges; 8 MSHRs fill, then issue stops.
        let ops: Vec<TraceOp> = (0..64).map(|i| load(i * 64)).collect();
        let trace = CyclicTrace::new(ops);
        let mut core = Core::new(0, CoreParams::paper_default(), Box::new(trace));
        let (mut mem, tokens) = Recorder::new();
        for _ in 0..100 {
            core.step(&mut mem);
        }
        assert_eq!(tokens.borrow().len(), 8, "only 8 outstanding misses");
        assert!(core.stats().mshr_stall_cycles > 0);
        assert_eq!(core.retired(), 0, "loads never completed");
    }

    #[test]
    fn completion_unblocks_and_retires_in_order() {
        let ops: Vec<TraceOp> = (0..4).map(|i| load(i * 64)).collect();
        let trace = CyclicTrace::new(ops);
        let mut core = Core::new(0, CoreParams::paper_default(), Box::new(trace));
        let (mut mem, tokens) = Recorder::new();
        for _ in 0..10 {
            core.step(&mut mem);
        }
        let toks = tokens.borrow().clone();
        assert!(toks.len() >= 4);
        // Complete the SECOND load only: nothing can retire (in-order head).
        core.complete(toks[1]);
        let before = core.retired();
        core.step(&mut mem);
        assert_eq!(core.retired(), before, "head still waiting");
        // Complete the first: now both retire.
        core.complete(toks[0]);
        core.step(&mut mem);
        assert!(core.retired() >= 2);
    }

    #[test]
    fn same_line_misses_merge_into_one_request() {
        let ops = vec![load(0x1000), load(0x1008), load(0x1010)];
        let trace = CyclicTrace::new(ops);
        let mut core = Core::new(0, CoreParams::paper_default(), Box::new(trace));
        let (mut mem, tokens) = Recorder::new();
        core.step(&mut mem);
        assert_eq!(tokens.borrow().len(), 1, "same-line loads merged");
        core.complete(tokens.borrow()[0]);
        core.step(&mut mem);
        core.step(&mut mem);
        assert!(core.retired() >= 3);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let ops = vec![TraceOp {
            bubbles: 0,
            kind: MemKind::Store,
            addr: 0,
            dependent: false,
        }];
        let trace = CyclicTrace::new(ops);
        // Small MSHR count: stores allocate MSHRs on miss, but retire anyway.
        let params = CoreParams {
            mshrs: 2,
            ..CoreParams::paper_default()
        };
        let mut core = Core::new(0, params, Box::new(trace));
        let (mut mem, _tokens) = Recorder::new();
        for _ in 0..10 {
            core.step(&mut mem);
        }
        // First store misses and retires; later stores merge on the same
        // line and retire too.
        assert!(core.retired() >= 9, "retired = {}", core.retired());
    }

    #[test]
    fn dependent_loads_serialize() {
        let ops: Vec<TraceOp> = (0..8)
            .map(|i| TraceOp {
                bubbles: 0,
                kind: MemKind::Load,
                addr: i * 64,
                dependent: true,
            })
            .collect();
        let trace = CyclicTrace::new(ops);
        let mut core = Core::new(0, CoreParams::paper_default(), Box::new(trace));
        let (mut mem, tokens) = Recorder::new();
        for _ in 0..50 {
            core.step(&mut mem);
        }
        // Only the first dependent load can be outstanding.
        assert_eq!(tokens.borrow().len(), 1);
        core.complete(tokens.borrow()[0]);
        for _ in 0..50 {
            core.step(&mut mem);
        }
        assert_eq!(tokens.borrow().len(), 2, "one more after the first returns");
    }

    #[test]
    fn busy_memory_stalls_and_retries() {
        let trace = CyclicTrace::new(vec![load(0)]);
        let mut core = Core::new(0, CoreParams::paper_default(), Box::new(trace));
        let (mut mem, tokens) = Recorder::new();
        mem.busy = true;
        for _ in 0..5 {
            core.step(&mut mem);
        }
        assert!(tokens.borrow().is_empty());
        assert!(core.stats().mem_busy_stall_cycles >= 5);
        mem.busy = false;
        core.step(&mut mem);
        assert_eq!(
            tokens.borrow().len(),
            1,
            "request issued after backpressure clears"
        );
    }

    /// Steps `a` per-cycle while stalled and batches the same span on `b`
    /// via `skip_idle`; the stats must be indistinguishable.
    fn assert_skip_matches_stepping(
        a: &mut Core,
        b: &mut Core,
        mem: &mut dyn MemoryInterface,
        mem_busy: &dyn Fn(u64) -> bool,
        span: u64,
    ) {
        let probe = a.idle_probe(mem_busy);
        assert_eq!(probe, b.idle_probe(mem_busy));
        let CoreIdle::Stalled { kind, .. } = probe else {
            panic!("expected a stalled core, got {probe:?}");
        };
        for _ in 0..span {
            a.step(mem);
        }
        b.skip_idle(span, kind);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn idle_probe_fresh_core_is_active() {
        let trace = CyclicTrace::new(vec![load(0)]);
        let core = Core::new(0, CoreParams::paper_default(), Box::new(trace));
        assert_eq!(core.idle_probe(&|_| false), CoreIdle::Active);
    }

    #[test]
    fn idle_probe_window_full_behind_missed_load() {
        let ops = vec![
            load(0),
            TraceOp {
                bubbles: 1_000,
                ..load(64)
            },
        ];
        let mk = || {
            let mut core = Core::new(
                0,
                CoreParams::paper_default(),
                Box::new(CyclicTrace::new(ops.clone())),
            );
            let (mut mem, _) = Recorder::new();
            for _ in 0..200 {
                core.step(&mut mem);
            }
            core
        };
        let (mut a, mut b) = (mk(), mk());
        // Head waits on memory: stalled with no self-resolving wake.
        assert_eq!(
            a.idle_probe(&|_| false),
            CoreIdle::Stalled {
                kind: StallKind::WindowFull,
                wake: None
            }
        );
        let (mut mem, _) = Recorder::new();
        assert_skip_matches_stepping(&mut a, &mut b, &mut mem, &|_| false, 50);
    }

    #[test]
    fn idle_probe_dep_wait_reports_wake_cycle() {
        let ops = vec![
            load(0),
            TraceOp {
                dependent: true,
                ..load(64)
            },
        ];
        let mk = || {
            let mut core = Core::new(
                0,
                CoreParams::paper_default(),
                Box::new(CyclicTrace::new(ops.clone())),
            );
            core.step(&mut AlwaysHit);
            core
        };
        let (mut a, mut b) = (mk(), mk());
        // First load hit at cycle 1 finishes at 1 + 24; the dependent load
        // stalls until then with a time-driven wake.
        let hit_done = 1 + CoreParams::paper_default().llc_hit_latency;
        assert_eq!(
            a.idle_probe(&|_| false),
            CoreIdle::Stalled {
                kind: StallKind::DepWait,
                wake: Some(hit_done)
            }
        );
        // Cycles 2..=hit_done-1 are pure stalls; the step at hit_done makes
        // progress again.
        assert_skip_matches_stepping(&mut a, &mut b, &mut AlwaysHit, &|_| false, hit_done - 2);
        assert_eq!(a.idle_probe(&|_| false), CoreIdle::Active);
        a.step(&mut AlwaysHit);
        assert!(a.retired() > 0);
    }

    #[test]
    fn idle_probe_mshr_full_and_mem_busy() {
        let ops: Vec<TraceOp> = (0..64).map(|i| load(i * 64)).collect();
        let mk = || {
            let mut core = Core::new(
                0,
                CoreParams::paper_default(),
                Box::new(CyclicTrace::new(ops.clone())),
            );
            let (mut mem, _) = Recorder::new();
            for _ in 0..100 {
                core.step(&mut mem);
            }
            core
        };
        let (mut a, mut b) = (mk(), mk());
        assert_eq!(
            a.idle_probe(&|_| false),
            CoreIdle::Stalled {
                kind: StallKind::MshrFull,
                wake: None
            }
        );
        let (mut mem, _) = Recorder::new();
        assert_skip_matches_stepping(&mut a, &mut b, &mut mem, &|_| false, 30);

        // A core blocked purely on backpressure reports MemBusy.
        let mk_busy = || {
            let mut core = Core::new(
                0,
                CoreParams::paper_default(),
                Box::new(CyclicTrace::new(vec![load(0)])),
            );
            let (mut mem, _) = Recorder::new();
            mem.busy = true;
            core.step(&mut mem);
            core
        };
        let (mut a, mut b) = (mk_busy(), mk_busy());
        assert_eq!(
            a.idle_probe(&|_| true),
            CoreIdle::Stalled {
                kind: StallKind::MemBusy,
                wake: None
            }
        );
        let (mut mem, _) = Recorder::new();
        mem.busy = true;
        assert_skip_matches_stepping(&mut a, &mut b, &mut mem, &|_| true, 40);
        // A merged line would commit immediately: not a stall.
        assert_eq!(a.idle_probe(&|_| false), CoreIdle::Active);
    }

    #[test]
    fn skip_bubbles_matches_stepping() {
        let ops = vec![TraceOp {
            bubbles: 100,
            ..load(0)
        }];
        let mk = || {
            Core::new(
                0,
                CoreParams::paper_default(),
                Box::new(CyclicTrace::new(ops.clone())),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..5 {
            a.step(&mut AlwaysHit);
            b.step(&mut AlwaysHit);
        }
        let n = a.bubble_run().expect("mid-bubble core is batchable");
        assert_eq!(Some(n), b.bubble_run());
        assert_eq!(n, (100 - 5 * 3) / 3);
        let n = n.min(20);
        for _ in 0..n {
            a.step(&mut AlwaysHit);
        }
        b.skip_bubbles(n);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.occupancy(), b.occupancy());
        // The reconstructed window must be behaviourally identical: keep
        // stepping both through the trailing memory op and the next bubble
        // burst.
        for _ in 0..300 {
            a.step(&mut AlwaysHit);
            b.step(&mut AlwaysHit);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn skip_bubbles_from_partial_window() {
        // One step after fetch: the window holds fewer slots than the issue
        // width retires, exercising the min(w, occupancy) first cycle.
        let ops = vec![TraceOp {
            bubbles: 60,
            ..load(0)
        }];
        let mk = || {
            let mut c = Core::new(
                0,
                CoreParams::paper_default(),
                Box::new(CyclicTrace::new(ops.clone())),
            );
            c.step(&mut AlwaysHit);
            c
        };
        let (mut a, mut b) = (mk(), mk());
        let n = a.bubble_run().unwrap();
        for _ in 0..n {
            a.step(&mut AlwaysHit);
        }
        b.skip_bubbles(n);
        assert_eq!(a.stats(), b.stats());
        for _ in 0..100 {
            a.step(&mut AlwaysHit);
            b.step(&mut AlwaysHit);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn bubble_run_refuses_pending_memory() {
        // A WaitMem slot at the window head blocks the retire pattern, so
        // this is not (pure or capped) bubble state — it is the
        // blocked-head regime instead.
        let ops = vec![
            load(0),
            TraceOp {
                bubbles: 1_000,
                ..load(64)
            },
        ];
        let mut core = Core::new(
            0,
            CoreParams::paper_default(),
            Box::new(CyclicTrace::new(ops)),
        );
        let (mut mem, _) = Recorder::new();
        for _ in 0..5 {
            core.step(&mut mem);
        }
        assert!(core.bubbles_left > 0);
        assert_eq!(core.bubble_run(), None);
        assert!(core.blocked_head_run().is_some());
    }

    #[test]
    fn blocked_head_run_matches_stepping() {
        // 90 bubbles then an LLC hit: at cycle 31 the hit's completion
        // (DoneAt 55) sits at the window head while bubbles keep issuing
        // behind it — the issue-only regime.
        let ops = vec![TraceOp {
            bubbles: 90,
            ..load(0)
        }];
        let mk = || {
            let mut c = Core::new(
                0,
                CoreParams::paper_default(),
                Box::new(CyclicTrace::new(ops.clone())),
            );
            for _ in 0..31 {
                c.step(&mut AlwaysHit);
            }
            c
        };
        let (mut a, mut b) = (mk(), mk());
        assert_eq!(a.bubble_run(), None, "head blocks the retire run");
        let n = a.blocked_head_run().expect("issue-only regime");
        assert_eq!(Some(n), b.blocked_head_run());
        assert_eq!(n, 55 - 1 - 31, "bounded by the head expiry");
        for _ in 0..n {
            a.step(&mut AlwaysHit);
        }
        b.skip_blocked_head(n);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.occupancy(), b.occupancy());
        // Past the head expiry the pure-bubble regime takes over; keep
        // stepping both through it and the next memory op.
        for _ in 0..500 {
            a.step(&mut AlwaysHit);
            b.step(&mut AlwaysHit);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn batched_runs_match_stepping_through_llc_hits() {
        // Lockstep self-check: batch whatever regime is available on one
        // core, step the other per-cycle, across a trace whose hits park
        // unexpired completions at and behind the window head.
        let ops = vec![
            TraceOp {
                bubbles: 3,
                ..load(0)
            },
            TraceOp {
                bubbles: 3,
                ..load(64)
            },
            TraceOp {
                bubbles: 40,
                ..load(128)
            },
        ];
        let mk = || {
            Core::new(
                0,
                CoreParams::paper_default(),
                Box::new(CyclicTrace::new(ops.clone())),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        let (mut batched_bubbles, mut batched_blocked) = (0u64, 0u64);
        let mut t = 0u64;
        while t < 2_000 {
            let n = if let Some(n) = b.bubble_run() {
                b.skip_bubbles(n);
                batched_bubbles += n;
                n
            } else if let Some(n) = b.blocked_head_run() {
                b.skip_blocked_head(n);
                batched_blocked += n;
                n
            } else {
                b.step(&mut AlwaysHit);
                1
            };
            for _ in 0..n {
                a.step(&mut AlwaysHit);
            }
            t += n;
            assert_eq!(a.stats(), b.stats(), "diverged by cycle {t}");
            assert_eq!(a.occupancy(), b.occupancy());
        }
        assert!(batched_bubbles > 0, "bubble batches exercised");
        assert!(batched_blocked > 0, "blocked-head batches exercised");
    }

    #[test]
    fn idle_probe_folds_head_expiry_into_dep_wait_wake() {
        // Window: [hit done@25, bubbles..., hit done@28], staged op depends
        // on the *second* hit. The stall resolves at 28, but the head
        // retires at 25 — the probe must report the earlier event.
        let ops = vec![
            load(0),
            TraceOp {
                bubbles: 9,
                ..load(64)
            },
            TraceOp {
                dependent: true,
                ..load(128)
            },
        ];
        let mk = || {
            let mut c = Core::new(
                0,
                CoreParams::paper_default(),
                Box::new(CyclicTrace::new(ops.clone())),
            );
            for _ in 0..4 {
                c.step(&mut AlwaysHit);
            }
            c
        };
        let (mut a, mut b) = (mk(), mk());
        assert_eq!(
            a.idle_probe(&|_| false),
            CoreIdle::Stalled {
                kind: StallKind::DepWait,
                wake: Some(25),
            },
            "head expiry (25) precedes the dependency wake (28)"
        );
        // Cycles 5..=24 are pure stalls; cycle 25 retires the head.
        assert_skip_matches_stepping(&mut a, &mut b, &mut AlwaysHit, &|_| false, 20);
        assert_eq!(a.idle_probe(&|_| false), CoreIdle::Active);
    }

    /// An op mix in the shape of a synthetic benchmark's — bubbles uniform
    /// in `0..=2 * mem_interval`, stores at `store_frac`, dependent loads
    /// at `dep_frac` — over 32 lines, so that LLC hits, misses, same-line
    /// merges and full MSHR tables all come up.
    #[derive(Clone, Copy, Debug)]
    struct OpMix {
        mem_interval: u32,
        store_frac: f64,
        dep_frac: f64,
        x: u64,
    }

    /// splitmix64: the next draw of the generator whose state is `x`.
    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl OpMix {
        fn chance(&mut self, p: f64) -> bool {
            ((splitmix(&mut self.x) >> 11) as f64) < p * (1u64 << 53) as f64
        }
    }

    impl TraceSource for OpMix {
        fn next_op(&mut self) -> TraceOp {
            let span = 2 * u64::from(self.mem_interval) + 1;
            let bubbles = (splitmix(&mut self.x) % span) as u32;
            let kind = if self.chance(self.store_frac) {
                MemKind::Store
            } else {
                MemKind::Load
            };
            let dependent = kind == MemKind::Load && self.chance(self.dep_frac);
            let word = splitmix(&mut self.x) % (32 * 8);
            TraceOp {
                bubbles,
                kind,
                addr: word * 8,
                dependent,
            }
        }
    }

    /// Memory for the real steps: the lowest 8 lines hit, the others miss
    /// and complete 20-400 CPU cycles later, and one access in 16 is
    /// refused. Two instances with one seed answer two cores in lockstep
    /// alike.
    struct Flaky {
        x: u64,
        now: u64,
        next_token: ReqToken,
        in_flight: Vec<(u64, ReqToken)>,
    }

    impl MemoryInterface for Flaky {
        fn access(&mut self, _core: usize, addr: u64, _store: bool) -> AccessResult {
            let draw = splitmix(&mut self.x);
            if draw.is_multiple_of(16) {
                return AccessResult::Busy;
            }
            if addr < 8 * 64 {
                return AccessResult::Hit;
            }
            self.next_token += 1;
            let due = self.now + 20 + (draw >> 8) % 381;
            self.in_flight.push((due, self.next_token));
            AccessResult::Miss(self.next_token)
        }
    }

    impl Flaky {
        /// One real step of `core`, after delivering the completions due.
        fn step(&mut self, core: &mut Core) {
            self.now = core.cycles();
            self.in_flight.retain(|&(due, token)| {
                if due <= self.now {
                    core.complete(token);
                }
                due > self.now
            });
            core.step(self);
        }
    }

    /// Everything a step can change.
    fn state(core: &Core) -> impl PartialEq + std::fmt::Debug {
        (
            core.stats,
            core.head_seq,
            core.next_seq,
            core.pending.clone(),
            core.bubbles_left,
            core.staged,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `advance(n)` for any `n <= quiet_span()` equals `n` steps, field
        /// for field, from wherever a prefix of real steps left the core;
        /// each round runs another prefix and another span. Both sides step
        /// against memory that panics on access, which also proves the span
        /// a true bound. The op mix spans the benchmark catalogue's range:
        /// half the draws are memory-intensive (up to 32 bubbles between
        /// accesses), half reach the compute-bound 4 000.
        #[test]
        fn advance_equals_stepping_through_the_quiet_span(
            interval in (prop::sample::select(vec![32u32, 4_000]), any::<u32>()),
            store_per_mille in 0u32..=1_000,
            dep_per_mille in 0u32..=1_000,
            seed in any::<u64>(),
            rounds in prop::collection::vec(
                (prop::sample::select(vec![0u64, 1, 3, 17, 60, 250, 1_000]), any::<u64>()),
                1..8,
            ),
        ) {
            let mix = OpMix {
                mem_interval: interval.1 % (interval.0 + 1),
                store_frac: f64::from(store_per_mille) / 1_000.0,
                dep_frac: f64::from(dep_per_mille) / 1_000.0,
                x: seed,
            };
            let core = || Core::new(0, CoreParams::paper_default(), Box::new(mix));
            let memory = || Flaky { x: !seed, now: 0, next_token: 0, in_flight: Vec::new() };
            let (mut fast, mut slow) = (core(), core());
            let (mut fast_mem, mut slow_mem) = (memory(), memory());
            for (round, &(prefix, pick)) in rounds.iter().enumerate() {
                for _ in 0..prefix {
                    fast_mem.step(&mut fast);
                    slow_mem.step(&mut slow);
                }
                // Half the spans run to the bound, where a loose one shows.
                let quiet = fast.quiet_span().min(20_000);
                let n = if pick.is_multiple_of(2) { quiet } else { (pick >> 1) % (quiet + 1) };
                fast.advance(n);
                for _ in 0..n {
                    slow.step(&mut NoAccess);
                }
                prop_assert_eq!(state(&fast), state(&slow), "{:?} round {}: {} steps", mix, round, n);
            }
        }
    }

    #[test]
    fn window_fills_behind_stalled_head() {
        let ops = vec![
            load(0),
            TraceOp {
                bubbles: 1_000,
                ..load(64)
            },
        ];
        let trace = CyclicTrace::new(ops);
        let mut core = Core::new(0, CoreParams::paper_default(), Box::new(trace));
        let (mut mem, _tokens) = Recorder::new();
        for _ in 0..200 {
            core.step(&mut mem);
        }
        // Head load never completes; window fills with bubbles behind it.
        assert_eq!(core.occupancy(), 128);
        assert!(core.stats().window_stall_cycles > 0);
        assert_eq!(core.retired(), 0);
    }
}
