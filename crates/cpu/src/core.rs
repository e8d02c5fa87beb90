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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    DoneAt(u64),
    WaitMem,
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
    /// The next step retires, fetches, or issues something: do not skip.
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

/// One simulated core. See the crate-level example.
pub struct Core {
    id: usize,
    params: CoreParams,
    trace: Box<dyn TraceSource>,
    window: VecDeque<Slot>,
    head_seq: u64,
    next_seq: u64,
    bubbles_left: u32,
    staged: Option<TraceOp>,
    mshrs: MshrTable,
    last_load_seq: Option<u64>,
    stats: CoreStats,
    /// Leading window slots known to be expired `DoneAt`s (a cache for
    /// [`Self::bubble_run`]'s prefix scan). Stamps are fixed and the cycle
    /// counter only grows, so an expired slot stays expired: the count is
    /// only ever invalidated downward, by front pops.
    expired_front: u32,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("window_occupancy", &self.window.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core with the given id, parameters and instruction trace.
    pub fn new(id: usize, params: CoreParams, trace: Box<dyn TraceSource>) -> Self {
        Self {
            id,
            params,
            trace,
            window: VecDeque::with_capacity(params.window_size),
            head_seq: 0,
            next_seq: 0,
            bubbles_left: 0,
            staged: None,
            mshrs: MshrTable::new(params.mshrs),
            last_load_seq: None,
            stats: CoreStats::default(),
            expired_front: 0,
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

    fn slot_done(&self, seq: u64, now: u64) -> bool {
        if seq < self.head_seq {
            return true; // already retired
        }
        match self.window[(seq - self.head_seq) as usize] {
            Slot::DoneAt(t) => t <= now,
            Slot::WaitMem => false,
        }
    }

    /// Advances the core by one CPU cycle.
    pub fn step(&mut self, mem: &mut dyn MemoryInterface) {
        self.stats.cycles += 1;
        let now = self.stats.cycles;

        // Retire in order.
        let mut retired = 0;
        while retired < self.params.issue_width {
            match self.window.front() {
                Some(Slot::DoneAt(t)) if *t <= now => {
                    self.window.pop_front();
                    self.head_seq += 1;
                    self.stats.retired += 1;
                    retired += 1;
                }
                _ => break,
            }
        }
        self.expired_front = self.expired_front.saturating_sub(retired as u32);

        // Issue in order.
        let mut issued = 0;
        while issued < self.params.issue_width {
            if self.window.len() >= self.params.window_size {
                self.stats.window_stall_cycles += 1;
                break;
            }
            if self.staged.is_none() && self.bubbles_left == 0 {
                let op = self.trace.next_op();
                self.bubbles_left = op.bubbles;
                self.staged = Some(op);
            }
            if self.bubbles_left > 0 {
                self.window.push_back(Slot::DoneAt(now));
                self.next_seq += 1;
                self.bubbles_left -= 1;
                issued += 1;
                continue;
            }
            let op = self
                .staged
                .expect("staged op present when bubbles are drained");

            // Load-to-load dependence: wait for the previous load's data.
            if op.dependent {
                if let Some(seq) = self.last_load_seq {
                    if !self.slot_done(seq, now) {
                        break;
                    }
                }
            }

            let is_store = op.kind == MemKind::Store;
            let line = op.addr & !63u64;
            if self.mshrs.merge(line, (!is_store).then_some(self.next_seq)) {
                self.commit_mem_op(
                    op,
                    if is_store {
                        Slot::DoneAt(now)
                    } else {
                        Slot::WaitMem
                    },
                );
                issued += 1;
                continue;
            }
            if self.mshrs.is_full() {
                self.stats.mshr_stall_cycles += 1;
                break;
            }
            match mem.access(self.id, op.addr, is_store) {
                AccessResult::Hit => {
                    let slot = if is_store {
                        Slot::DoneAt(now)
                    } else {
                        Slot::DoneAt(now + self.params.llc_hit_latency)
                    };
                    self.commit_mem_op(op, slot);
                    issued += 1;
                }
                AccessResult::Miss(token) => {
                    let ok = self
                        .mshrs
                        .allocate(line, token, (!is_store).then_some(self.next_seq));
                    debug_assert!(ok, "allocate after is_full check cannot fail");
                    self.commit_mem_op(
                        op,
                        if is_store {
                            Slot::DoneAt(now)
                        } else {
                            Slot::WaitMem
                        },
                    );
                    issued += 1;
                }
                AccessResult::Busy => {
                    self.stats.mem_busy_stall_cycles += 1;
                    break;
                }
            }
        }
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
    /// this core; the skip-ahead loop guarantees that during a skipped span.
    pub fn idle_probe(&self, mem_busy: &dyn Fn(u64) -> bool) -> CoreIdle {
        let now = self.stats.cycles + 1;
        // Retire in order: a finished head retires something.
        if let Some(Slot::DoneAt(t)) = self.window.front() {
            if *t <= now {
                return CoreIdle::Active;
            }
        }
        // An unexpired head completion self-resolves (retires) at its
        // expiry; a head waiting on memory resolves only via `complete`.
        let head_wake = match self.window.front() {
            Some(Slot::DoneAt(t)) => Some(*t),
            _ => None,
        };
        let min_wake = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, None) | (None, x) => x,
        };
        // Issue in order, first slot only (later iterations cannot be
        // reached when the first one breaks).
        if self.window.len() >= self.params.window_size {
            return CoreIdle::Stalled {
                kind: StallKind::WindowFull,
                wake: head_wake,
            };
        }
        if self.bubbles_left > 0 || self.staged.is_none() {
            // Would insert a bubble or fetch the next trace op.
            return CoreIdle::Active;
        }
        let op = self.staged.expect("checked above");
        if op.dependent {
            if let Some(seq) = self.last_load_seq {
                if !self.slot_done(seq, now) {
                    let dep = match self.window[(seq - self.head_seq) as usize] {
                        Slot::DoneAt(t) => Some(t),
                        Slot::WaitMem => None,
                    };
                    return CoreIdle::Stalled {
                        kind: StallKind::DepWait,
                        wake: min_wake(head_wake, dep),
                    };
                }
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

    /// How many CPU cycles of *pure bubble execution* can be batched from
    /// the current state, or `None` when the next step is not a pure bubble
    /// cycle. A pure bubble cycle retires `issue_width` finished slots (or
    /// the whole window if smaller) and inserts `issue_width` bubbles — no
    /// trace fetch, no memory op, no stall — so a span of them is pure
    /// arithmetic on the stats and a window rotation. Requirements:
    ///
    /// - at least `issue_width` bubbles remain, so no cycle in the span
    ///   fetches the next trace op mid-cycle;
    /// - retirement never touches an unexpired slot: either every slot is
    ///   an expired `DoneAt`, or the leading run of expired slots is at
    ///   least `issue_width` long and the span is cut so pops stay inside
    ///   that run (an in-flight LLC hit parked mid-window is fine — it
    ///   just caps how far the run extends).
    ///
    /// The bound is `bubbles_left / issue_width` (every cycle in the span
    /// starts with at least `issue_width` bubbles), further capped by
    /// `run / issue_width` when an unexpired slot follows the run. The
    /// prefix scan resumes from the cached expired-prefix length (slots
    /// already counted stay expired, since stamps are fixed and the cycle
    /// counter only grows), so repeated probes are amortized O(1): each
    /// window slot is scanned at most once between the pops that shrink
    /// the prefix. Like [`Self::idle_probe`], only valid while no
    /// completions arrive.
    pub fn bubble_run(&mut self) -> Option<u64> {
        let now = self.stats.cycles + 1;
        let w = self.params.issue_width as u64;
        if (self.bubbles_left as u64) < w {
            return None;
        }
        let fetch_bound = self.bubbles_left as u64 / w;
        let mut run = self.expired_front as usize;
        while run < self.window.len() {
            match self.window[run] {
                Slot::DoneAt(t) if t <= now => run += 1,
                _ => break,
            }
        }
        self.expired_front = run as u32;
        let run = run as u64;
        if run as usize == self.window.len() {
            // Every slot is expired: only the bubble supply bounds the span.
            Some(fetch_bound)
        } else if run >= w {
            Some((run / w).min(fetch_bound))
        } else {
            None
        }
    }

    /// Batches `cpu_cycles` pure bubble cycles (see [`Self::bubble_run`];
    /// `cpu_cycles` must not exceed its bound). Each cycle retires
    /// `min(issue_width, occupancy)` slots and pushes `issue_width` bubbles.
    ///
    /// Expired slots are behaviorally interchangeable: every read of a slot
    /// is either an expiry comparison (`DoneAt(t)` vs. a monotonically
    /// growing `now`, so an expired slot stays expired forever) or a
    /// completion/dependency lookup, which only distinguishes `WaitMem` and
    /// unexpired slots. The batched window update exploits that instead of
    /// re-stamping every surviving bubble:
    ///
    /// - when the whole original window is consumed, the deque is merely
    ///   topped up to the surviving count (O(issue_width));
    /// - otherwise pops equal pushes and stay inside the expired leading
    ///   run, so rotating the consumed front slots to the back reproduces
    ///   every unexpired slot's position exactly, with the rotated (expired)
    ///   slots standing in for the freshly stamped bubbles.
    pub fn skip_bubbles(&mut self, cpu_cycles: u64) {
        if cpu_cycles == 0 {
            return;
        }
        let w = self.params.issue_width as u64;
        debug_assert!(cpu_cycles <= self.bubbles_left as u64 / w, "past bound");
        let occ0 = self.window.len() as u64;
        // Cycle 1 retires min(w, occ0); once the window holds a full
        // cycle's worth of bubbles, every later cycle retires exactly w.
        let retired = occ0.min(w) + w * (cpu_cycles - 1);
        let pushes = w * cpu_cycles;
        if retired >= occ0 {
            // Every original slot was consumed (only possible when the
            // whole window was expired), leaving `pushes - retired` net new
            // bubbles on top of the original count.
            let target = (occ0 + pushes - retired) as usize;
            let stamp = self.stats.cycles + cpu_cycles;
            while self.window.len() < target {
                self.window.push_back(Slot::DoneAt(stamp));
            }
            // Every surviving slot is an expired (or expiring-now) bubble.
            self.expired_front = self.window.len() as u32;
        } else {
            // Pops stay inside the expired leading run and equal the number
            // of pushed bubbles (`occ0 >= w` here, so `retired == pushes`).
            debug_assert_eq!(retired, pushes);
            self.window.rotate_left(retired as usize);
            if (self.expired_front as u64) < occ0 {
                // The known prefix loses its front `retired` slots; when it
                // covered the whole window, rotation preserves that.
                self.expired_front = self.expired_front.saturating_sub(retired as u32);
            }
        }
        self.stats.cycles += cpu_cycles;
        self.stats.retired += retired;
        self.head_seq += retired;
        self.next_seq += pushes;
        self.bubbles_left -= pushes as u32;
    }

    /// How many CPU cycles of *issue-only* execution can be batched when
    /// the window head is an unexpired completion, or `None` when the next
    /// step is not such a cycle. In this regime every cycle retires nothing
    /// (the head is a `DoneAt` in the future or still waiting on memory)
    /// and pushes `issue_width` bubbles behind it. The bound is cut so that
    /// within the span:
    ///
    /// - the head never expires (`head DoneAt(t)` caps it at `t - 1`);
    /// - the window never fills mid-issue (no partial-issue cycle, no
    ///   window-full stall);
    /// - bubbles never run out (no trace fetch).
    ///
    /// Complements [`Self::bubble_run`], which needs a retireable run at
    /// the front. Like [`Self::idle_probe`], only valid while no
    /// completions arrive.
    pub fn blocked_head_run(&self) -> Option<u64> {
        let now = self.stats.cycles;
        let w = self.params.issue_width as u64;
        if (self.bubbles_left as u64) < w {
            return None;
        }
        let head_bound = match self.window.front() {
            Some(Slot::WaitMem) => u64::MAX,
            Some(Slot::DoneAt(t)) if *t > now + 1 => *t - 1 - now,
            _ => return None,
        };
        let room = (self.params.window_size - self.window.len()) as u64 / w;
        if room == 0 {
            return None;
        }
        Some(head_bound.min(room).min(self.bubbles_left as u64 / w))
    }

    /// Batches `cpu_cycles` issue-only cycles (see [`Self::blocked_head_run`];
    /// `cpu_cycles` must not exceed its bound). Each cycle pushes
    /// `issue_width` bubbles stamped with its own cycle number; nothing
    /// retires.
    pub fn skip_blocked_head(&mut self, cpu_cycles: u64) {
        if cpu_cycles == 0 {
            return;
        }
        let w = self.params.issue_width as u64;
        debug_assert!(
            self.blocked_head_run().is_some_and(|n| cpu_cycles <= n),
            "past bound"
        );
        let start = self.stats.cycles;
        let pushes = w * cpu_cycles;
        for p in 0..pushes {
            self.window.push_back(Slot::DoneAt(start + 1 + p / w));
        }
        self.stats.cycles += cpu_cycles;
        self.next_seq += pushes;
        self.bubbles_left -= pushes as u32;
    }

    /// Batches `cpu_cycles` consecutive stalled steps of kind `kind`:
    /// advances the cycle counter and the matching stall counter exactly as
    /// that many [`Self::step`] calls would have (`DepWait` stalls increment
    /// no counter in `step`, so none is charged here either).
    pub fn skip_idle(&mut self, cpu_cycles: u64, kind: StallKind) {
        self.stats.cycles += cpu_cycles;
        match kind {
            StallKind::WindowFull => self.stats.window_stall_cycles += cpu_cycles,
            StallKind::MshrFull => self.stats.mshr_stall_cycles += cpu_cycles,
            StallKind::MemBusy => self.stats.mem_busy_stall_cycles += cpu_cycles,
            StallKind::DepWait => {}
        }
    }

    fn commit_mem_op(&mut self, op: TraceOp, slot: Slot) {
        if op.kind == MemKind::Load {
            self.stats.loads += 1;
            self.last_load_seq = Some(self.next_seq);
        } else {
            self.stats.stores += 1;
        }
        self.stats.mem_ops += 1;
        self.window.push_back(slot);
        self.next_seq += 1;
        self.staged = None;
    }

    /// Delivers the data for request `token` (called by the system glue when
    /// the memory controller completes a read).
    pub fn complete(&mut self, token: ReqToken) {
        let now = self.stats.cycles;
        if let Some(waiters) = self.mshrs.complete(token) {
            for seq in waiters {
                debug_assert!(seq >= self.head_seq, "waiting slot cannot have retired");
                let idx = (seq - self.head_seq) as usize;
                self.window[idx] = Slot::DoneAt(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CyclicTrace;
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
        assert_eq!(a.window.len(), b.window.len());
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
        assert_eq!(a.window.len(), b.window.len());
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
            assert_eq!(a.window.len(), b.window.len());
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
        assert_eq!(core.window.len(), 128);
        assert!(core.stats().window_stall_cycles > 0);
        assert_eq!(core.retired(), 0);
    }
}
