//! The per-channel memory controller: FR-FCFS demand scheduling with the
//! paper's closed-row policy, batched write draining, refresh-policy
//! integration, and SARP-aware activation (§4.3.2). The controller keeps no
//! refresh state of its own: the subarray a SARP refresh holds is read from
//! [`DramChannel::refreshing_subarray`], and the `REFpb` bank order belongs
//! to the refresh policy.
//!
//! Scheduling priority each DRAM cycle (one command per cycle):
//!
//! 1. an *urgent* refresh from the policy — the controller precharges the
//!    target scope and issues the refresh as soon as timing allows; while it
//!    is pending, demand commands to that scope are masked;
//! 2. demand requests — reads, or writes while in writeback mode — FR-FCFS:
//!    row hits (column commands) first, then the oldest request's
//!    activation/precharge; auto-precharge is used when no other queued
//!    request hits the same row (closed-row policy);
//! 3. a *relaxed* refresh (DARP's idle-bank pull-in), only on cycles when
//!    no demand command could issue.

use crate::queues::{Probe, RequestQueues};
use crate::refresh::{
    DarpStats, Mechanism, PolicyContext, RefreshDirective, RefreshKind, RefreshPolicy,
    RefreshTarget, Wake,
};
use crate::request::Request;
use dsarp_dram::{Command, Cycle, DramChannel, Geometry, IssueError, TimingParams};
use serde::{Deserialize, Serialize};

/// A finished read returned to the system glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Request id from [`Request::read`].
    pub id: u64,
    /// Originating core.
    pub core: usize,
    /// DRAM cycle the data was fully returned.
    pub ready_at: Cycle,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Reads completed (data returned).
    pub reads_done: u64,
    /// Writes issued to DRAM.
    pub writes_done: u64,
    /// Sum of read latencies (arrival → data return), DRAM cycles.
    pub read_latency_sum: u64,
    /// Reads served by read-after-write forwarding from the write queue.
    pub forwarded_reads: u64,
    /// ACT commands issued.
    pub acts: u64,
    /// PRE / PREA commands issued.
    pub precharges: u64,
    /// `REFab` commands issued.
    pub refab_issued: u64,
    /// `REFpb` commands issued.
    pub refpb_issued: u64,
    /// Column commands issued: every one issues from the row-hit pass
    /// after its row's ACT, so this counts each miss's first column
    /// command too. True row hits are `row_hits - acts`.
    pub row_hits: u64,
    /// Reads rejected because the read queue was full.
    pub read_rejects: u64,
    /// Writes rejected because the write queue was full.
    pub write_rejects: u64,
}

impl ControllerStats {
    /// Average read latency in DRAM cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_done == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_done as f64
        }
    }
}

/// Demand-scheduler work accounting: how many candidate requests the
/// FR-FCFS passes examined on cycles that issued a demand command. Banks
/// the ready-bank prune rules out (a bank-local timing register that has not
/// expired, a shut shared gate) are never examined and are not counted, so
/// the mean sits close to 1. Only issuing cycles accumulate — a cycle that
/// issues nothing is exactly the kind the event-driven loop may skip, so
/// conditioning on issue keeps the counters identical across skip-ahead and
/// per-cycle stepping. Kept outside [`ControllerStats`] (like
/// `row_conflicts`) so the serialized stats stay unchanged; read by the
/// opt-in telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerScan {
    /// Cycles on which a demand command issued.
    pub issue_cycles: u64,
    /// Candidates examined across those cycles (pass-1 row-hit pops plus
    /// pass-2 bank-cursor pops).
    pub candidates: u64,
    /// Worst single-cycle candidate count.
    pub max_scan: u64,
}

impl SchedulerScan {
    /// Mean candidates examined per issuing cycle.
    pub fn mean_scan(&self) -> f64 {
        if self.issue_cycles == 0 {
            0.0
        } else {
            self.candidates as f64 / self.issue_cycles as f64
        }
    }

    /// Accumulates another controller's counters (cross-channel totals).
    pub fn merge(&mut self, other: &SchedulerScan) {
        self.issue_cycles += other.issue_cycles;
        self.candidates += other.candidates;
        self.max_scan = self.max_scan.max(other.max_scan);
    }
}

/// The one command class a bank's servable demand can contribute to FR-FCFS
/// (see [`MemoryController::schedule_demand_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// No servable request is queued for the bank.
    None,
    /// A queued request hits the open row: a column command.
    Column,
    /// Queued demand, none of it hitting the open row: a conflict `PRE`.
    Precharge,
    /// Queued demand on a closed bank: an `ACT`. While a SARP refresh holds
    /// one of its subarrays and every queued request targets that subarray
    /// (§4.3.2), the ACT waits for the refresh's end.
    Activate,
}

/// One memory controller, driving one [`DramChannel`].
#[derive(Debug)]
pub struct MemoryController {
    channel_id: usize,
    geom: Geometry,
    timing: TimingParams,
    queues: RequestQueues,
    policy: Box<dyn RefreshPolicy>,
    inflight: Vec<Completion>,
    stats: ControllerStats,
    /// Precharges issued to close a conflicting open row for a demand
    /// request (a strict subset of `stats.precharges`, which also counts
    /// refresh-prep precharges). Kept outside [`ControllerStats`] so the
    /// serialized stats stay unchanged; read by the opt-in telemetry.
    row_conflicts: u64,
    /// Scheduler scan-work accounting (see [`SchedulerScan`]).
    sched_scan: SchedulerScan,
    /// Reusable candidate buffers for the two scheduling passes; the
    /// scheduler runs every cycle, so these must not reallocate per call.
    scratch_hits: Vec<Probe>,
    scratch_cursors: Vec<Probe>,
    /// The readiness table, indexed `rank * banks_per_rank + bank`: each
    /// bank's [`Class`] and the cycle its own registers admit it (see
    /// [`Self::schedule_demand_with`]), and the entries events outdated.
    class: Vec<Class>,
    ready: Vec<Cycle>,
    stale: u64,
    /// First cycle whose [`Self::step`] could do observable work, as far as
    /// the controller knows (see [`Self::wake`]). Only ever raised by
    /// [`Self::step_and_rearm`]; an accepted request pulls it back to 0.
    wake: Cycle,
    /// Whether the last [`Self::step_and_rearm`] issued and delivered
    /// nothing.
    last_step_idle: bool,
    /// The cycle of the last [`Self::step`], if its policy walk answered
    /// `None` and no request has been accepted since: the one state in which
    /// [`Self::next_event`] may run that walk again.
    held_at: Option<Cycle>,
}

impl MemoryController {
    /// Creates the controller for channel `channel_id` with the given
    /// mechanism. `seed` feeds DARP's randomized idle-bank choice.
    pub fn new(
        channel_id: usize,
        geom: Geometry,
        timing: TimingParams,
        mechanism: Mechanism,
        seed: u64,
    ) -> Self {
        let ranks = geom.ranks_per_channel();
        let banks = geom.banks_per_rank();
        let policy = mechanism.build_policy(ranks, banks, &timing, seed ^ channel_id as u64);
        assert!(ranks * banks <= 64, "the readiness table is one u64 mask");
        Self {
            channel_id,
            geom,
            timing,
            queues: RequestQueues::paper_default(),
            policy,
            inflight: Vec::new(),
            stats: ControllerStats::default(),
            row_conflicts: 0,
            sched_scan: SchedulerScan::default(),
            scratch_hits: Vec::new(),
            scratch_cursors: Vec::new(),
            class: vec![Class::None; ranks * banks],
            ready: vec![Cycle::MAX; ranks * banks],
            stale: u64::MAX >> (64 - ranks * banks),
            wake: 0,
            last_step_idle: false,
            held_at: None,
        }
    }

    /// Replaces the queue configuration (tests and sweeps).
    pub fn with_queues(mut self, queues: RequestQueues) -> Self {
        self.queues = queues;
        self.stale = u64::MAX >> (64 - self.ready.len());
        self.wake = 0;
        self
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Row-conflict precharges issued for demand requests (telemetry).
    pub fn row_conflicts(&self) -> u64 {
        self.row_conflicts
    }

    /// Scheduler scan-work counters (telemetry).
    pub fn scheduler_scan(&self) -> &SchedulerScan {
        &self.sched_scan
    }

    /// The demand queues (read-only).
    pub fn queues(&self) -> &RequestQueues {
        &self.queues
    }

    /// How DARP earned its refreshes; `None` under any other policy.
    pub fn darp_stats(&self) -> Option<DarpStats> {
        self.policy.darp_stats()
    }

    /// Enqueues a read (line fill). Returns `false` on a full queue
    /// (backpressure). Reads matching a queued write are forwarded and
    /// complete on the next [`MemoryController::step`].
    pub fn try_enqueue_read(&mut self, req: Request) -> bool {
        debug_assert!(!req.is_write);
        debug_assert_eq!(req.loc.channel, self.channel_id);
        if self.queues.forwards_read(&req.loc) {
            self.stats.forwarded_reads += 1;
            self.note_accepted(&req);
            self.inflight.push(Completion {
                id: req.id,
                core: req.core,
                ready_at: req.arrival,
            });
            return true;
        }
        if self.queues.try_push_read(req) {
            self.note_accepted(&req);
            true
        } else {
            self.stats.read_rejects += 1;
            false
        }
    }

    /// Enqueues a writeback. Returns `false` on a full queue.
    pub fn try_enqueue_write(&mut self, req: Request) -> bool {
        debug_assert!(req.is_write);
        debug_assert_eq!(req.loc.channel, self.channel_id);
        if self.queues.try_push_write(req) {
            self.note_accepted(&req);
            true
        } else {
            self.stats.write_rejects += 1;
            false
        }
    }

    /// An accepted request must meet the very next step (see [`Self::wake`])
    /// and outdates what the last policy walk saw of the queues, and its
    /// bank's readiness entry.
    fn note_accepted(&mut self, req: &Request) {
        self.wake = 0;
        self.held_at = None;
        self.stale |= self.bits(req.loc.rank, Some(req.loc.bank));
    }

    /// Advances the controller by one DRAM cycle: may issue one command on
    /// `chan`, and appends newly finished reads to `completions`.
    pub fn step(&mut self, chan: &mut DramChannel, now: Cycle, completions: &mut Vec<Completion>) {
        // 1. Deliver finished reads.
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].ready_at <= now {
                completions.push(self.inflight.swap_remove(i));
            } else {
                i += 1;
            }
        }

        // 2. Writeback-mode hysteresis; a flip outdates every bank's entry.
        let drain = self.queues.in_drain_mode();
        self.queues.update_drain_mode();
        if self.queues.in_drain_mode() != drain {
            self.stale = u64::MAX >> (64 - self.ready.len());
        }

        // 3. Refresh policy decision (wake sink off: see `next_event`).
        let directive = {
            let ctx = PolicyContext {
                now,
                queues: &self.queues,
                chan,
            };
            self.policy.decide(&ctx, &mut Wake::off())
        };
        self.held_at = (directive == RefreshDirective::None).then_some(now);

        // 4. Urgent refresh: prep and issue, masking its scope.
        let mut mask: Option<RefreshTarget> = None;
        if let RefreshDirective::Urgent(target) = directive {
            if self.try_progress_refresh(chan, now, &target) {
                return; // command bus used this cycle
            }
            mask = Some(target);
        }

        // 5. Demand scheduling.
        if self.schedule_demand(chan, now, mask) {
            return;
        }

        // 6. Relaxed refresh on an otherwise idle command bus.
        if let RefreshDirective::Relaxed(target) = directive {
            self.try_issue_refresh(chan, now, &target);
        }
    }

    /// The controller's one wake cycle: every [`Self::step`] strictly before
    /// it is a no-op — nothing issues, delivers or changes — so an
    /// event-driven caller may leave those cycles out and call
    /// [`Self::step_and_rearm`] at the first cycle `>= wake()` it visits. A
    /// value at or before the current cycle means "step now": that is where
    /// a new controller starts, and where an accepted request puts it — the
    /// request then meets exactly the step per-cycle order shows it to (the
    /// current cycle's for a writeback retried before the controllers step,
    /// the next cycle's for a core access made after them). Stepping a
    /// sleeping controller anyway is harmless, so per-cycle callers ignore
    /// the wake and it stays valid across them.
    pub fn wake(&self) -> Cycle {
        self.wake
    }

    /// [`Self::step`], then re-arms [`Self::wake`] from what the step did. A
    /// step that issued or delivered is followed by more work more often
    /// than not, so the wake is simply `now + 1`. A step that did neither
    /// may be the start of a dead stretch, and [`Self::next_event`] says how
    /// long — but the answer costs about as much as the step it saves, so it
    /// is asked for only when a stretch is likely: the previous step was a
    /// no-op too, or there is no read to schedule. Writeback mode is never
    /// asked about (its bookkeeping runs every cycle, see `next_event`).
    pub fn step_and_rearm(
        &mut self,
        chan: &mut DramChannel,
        now: Cycle,
        completions: &mut Vec<Completion>,
    ) {
        let delivered = completions.len();
        self.step(chan, now, completions);
        let idle = chan.last_issue() != Some(now) && completions.len() == delivered;
        let ask = idle
            && !self.queues.in_drain_mode()
            && (self.last_step_idle || self.queues.read_len() == 0);
        self.last_step_idle = idle;
        self.wake = if ask {
            self.next_event(chan, now).unwrap_or(Cycle::MAX)
        } else {
            now + 1
        };
    }

    /// The earliest cycle strictly after `now` at which [`Self::step`] could
    /// do observable work — deliver a completion, enter/advance writeback
    /// mode, act on the refresh policy, or issue a demand command — or
    /// `None` when the controller is fully quiescent (empty queues, nothing
    /// in flight, and a policy that never fires). Call it *after* `step(now)`
    /// so it sees this cycle's post-command state; the refresh policy's
    /// share of the bound is `now + 1` unless that step held the policy
    /// still, issued nothing, and no request has been accepted since.
    ///
    /// The demand share is read from the readiness table FR-FCFS schedules
    /// from: each bank's ready cycle passed through the gate the scheduler
    /// puts its class behind (data bus for a column command, the rank's
    /// tRRD/tFAW window for an ACT).
    ///
    /// The result is a conservative lower bound under the dead-span
    /// assumption (no commands issue and no requests arrive in between):
    /// skipping the intervening cycles and stepping again at the returned
    /// cycle is indistinguishable from stepping every cycle. `None` must
    /// never strand the clock — callers advance to their own horizon.
    pub fn next_event(&mut self, chan: &DramChannel, now: Cycle) -> Option<Cycle> {
        // `now + 1` is the floor every considered time clamps to; once the
        // bound reaches it no later source can lower it, so each stage may
        // return immediately — the caller steps the next cycle either way.
        let floor = now + 1;
        let mut next: Option<Cycle> = None;
        fn consider(next: &mut Option<Cycle>, floor: Cycle, t: Cycle) {
            let t = t.max(floor);
            *next = Some(next.map_or(t, |n| n.min(t)));
        }
        // Finished reads must be delivered at exactly their per-cycle time.
        for c in &self.inflight {
            consider(&mut next, floor, c.ready_at);
        }
        // Writeback-mode hysteresis mutates queue bookkeeping every cycle
        // while draining (and on the entering edge); never skip those.
        if self.queues.in_drain_mode() || self.queues.drain_imminent() {
            return Some(floor);
        }
        if next == Some(floor) {
            return next;
        }
        // Refresh policy deadlines (tREFI expiries, idle windows, DARP
        // blockers): `step`'s own walk, run again with the wake sink on.
        // That is exact only on the state that walk saw and left: it
        // answered `None`, and neither a command at `now` nor a request
        // since moved the queues it reads. Otherwise the policy may act or
        // mutate next cycle, and is not walked.
        if self.held_at != Some(now) || chan.last_issue() == Some(now) {
            return Some(floor);
        }
        let ctx = PolicyContext {
            now,
            queues: &self.queues,
            chan,
        };
        let mut wake = Wake::on();
        let again = self.policy.decide(&ctx, &mut wake);
        debug_assert_eq!(again, RefreshDirective::None, "the re-walk acted");
        if let Some(t) = wake.earliest() {
            consider(&mut next, floor, t);
        }
        // Demand: the first cycle each bank's entry clears the gates
        // `schedule_demand_with` puts its class behind. Queued writes need
        // no events here: outside writeback mode they are not servable, and
        // entering it is gated above.
        self.refresh_table(chan);
        let banks = self.geom.banks_per_rank();
        for (i, (&class, &ready)) in self.class.iter().zip(&self.ready).enumerate() {
            let t = match class {
                Class::None => continue,
                Class::Column => ready.max(chan.col_bus_ready(false)),
                Class::Precharge => ready,
                Class::Activate => {
                    let rank = chan.rank(i / banks);
                    rank.earliest_act_allowed(ready.max(floor), &self.timing)
                }
            };
            consider(&mut next, floor, t);
        }
        next
    }

    /// Issues `cmd` on `chan` — every command the controller issues goes
    /// through here — and marks the readiness entries it outdates: its bank,
    /// or its whole rank for `PREA` and `REFab`. `Ok` carries an issued
    /// read's data-return cycle.
    fn issue(
        &mut self,
        chan: &mut DramChannel,
        cmd: Command,
        now: Cycle,
    ) -> Result<Option<Cycle>, IssueError> {
        let receipt = chan.issue(cmd, now)?;
        self.stale |= self.bits(cmd.rank(), cmd.bank());
        Ok(receipt.data_ready)
    }

    /// The readiness-table bits of `rank`'s bank `bank`, or of all its banks.
    fn bits(&self, rank: usize, bank: Option<usize>) -> u64 {
        let banks = self.geom.banks_per_rank();
        match bank {
            Some(bank) => 1 << (rank * banks + bank),
            None => (u64::MAX >> (64 - banks)) << (rank * banks),
        }
    }

    fn refresh_command(target: &RefreshTarget) -> Command {
        match target.kind {
            RefreshKind::AllBank(fgr) => Command::RefreshAllBank {
                rank: target.rank,
                fgr,
            },
            RefreshKind::PerBank { bank } => Command::RefreshPerBank {
                rank: target.rank,
                bank,
            },
        }
    }

    /// Tries to move an urgent refresh forward: issue it if legal, otherwise
    /// precharge toward it. Returns whether a command was issued.
    fn try_progress_refresh(
        &mut self,
        chan: &mut DramChannel,
        now: Cycle,
        target: &RefreshTarget,
    ) -> bool {
        if self.try_issue_refresh(chan, now, target) {
            return true;
        }
        // Precharge the refresh scope. `issue` is the legality test: an
        // `Err` leaves the device untouched and means "not this cycle".
        let (rank, banks) = (target.rank, self.geom.banks_per_rank());
        let prea = Command::PrechargeAll { rank };
        let precharge = |mc: &mut Self, chan: &mut DramChannel, bank: usize| {
            let cmd = Command::Precharge { rank, bank };
            !chan.rank(rank).bank(bank).is_closed() && mc.issue(chan, cmd, now).is_ok()
        };
        let issued = match target.kind {
            // When PREA is blocked (some bank's tRAS pending), close any
            // individually ready bank to make progress.
            RefreshKind::AllBank(_) => {
                !chan.rank(rank).all_banks_closed()
                    && (self.issue(chan, prea, now).is_ok()
                        || (0..banks).any(|bank| precharge(self, chan, bank)))
            }
            RefreshKind::PerBank { bank } => precharge(self, chan, bank),
        };
        self.stats.precharges += u64::from(issued);
        issued
    }

    /// Issues `target`'s refresh command if the device accepts it this
    /// cycle. Returns whether it issued.
    fn try_issue_refresh(
        &mut self,
        chan: &mut DramChannel,
        now: Cycle,
        target: &RefreshTarget,
    ) -> bool {
        let cmd = Self::refresh_command(target);
        if self.issue(chan, cmd, now).is_err() {
            return false;
        }
        match target.kind {
            RefreshKind::AllBank(_) => self.stats.refab_issued += 1,
            RefreshKind::PerBank { .. } => self.stats.refpb_issued += 1,
        }
        self.policy.refresh_issued(target, now);
        true
    }

    /// The readiness-table bits an urgent refresh's scope masks.
    fn masked(&self, mask: &Option<RefreshTarget>) -> u64 {
        match mask {
            None => 0,
            Some(t) => match t.kind {
                RefreshKind::AllBank(_) => self.bits(t.rank, None),
                RefreshKind::PerBank { bank } => self.bits(t.rank, Some(bank)),
            },
        }
    }

    /// Bank `i`'s readiness entry, computed afresh from its registers and
    /// the servable queue's index.
    fn readiness(&self, chan: &DramChannel, i: usize) -> (Class, Cycle) {
        let banks = self.geom.banks_per_rank();
        let (rank, bank) = (i / banks, i % banks);
        let (q, drain) = (&self.queues, self.queues.in_drain_mode());
        let b = chan.rank(rank).bank(bank);
        let (class, register) = match b.open_row() {
            _ if q.bank_len(rank, bank, drain) == 0 => return (Class::None, Cycle::MAX),
            Some(row) if q.first_row_hit(rank, bank, row, drain).is_some() => {
                (Class::Column, b.next_col())
            }
            Some(_) => (Class::Precharge, b.next_pre()),
            None => {
                // SARP §4.3.2: a refresh still holding a subarray when the
                // bank may next activate blocks the bank only if every
                // queued request targets that subarray.
                let held = b.sarp_refresh(b.next_act()).filter(|r| {
                    let head = q.bank_head(rank, bank, drain);
                    let mut queued = std::iter::successors(head, |p| q.next_in_bank(p.slot, drain));
                    queued.all(|p| self.geom.subarray_of_row(p.row) == r.subarray)
                });
                (Class::Activate, held.map_or(b.next_act(), |r| r.until))
            }
        };
        (class, register.max(b.refresh_until()))
    }

    /// Recomputes the readiness entries events have marked stale.
    fn refresh_table(&mut self, chan: &DramChannel) {
        let mut stale = std::mem::take(&mut self.stale);
        while stale != 0 {
            let i = stale.trailing_zeros() as usize;
            stale &= stale - 1;
            (self.class[i], self.ready[i]) = self.readiness(chan, i);
        }
    }

    /// FR-FCFS demand scheduling. Returns whether a command was issued.
    fn schedule_demand(
        &mut self,
        chan: &mut DramChannel,
        now: Cycle,
        mask: Option<RefreshTarget>,
    ) -> bool {
        // The scratch buffers live on `self` but the passes also need
        // `&mut self.queues`; moving them out for the call keeps the
        // borrows disjoint without re-allocating per cycle.
        let mut hits = std::mem::take(&mut self.scratch_hits);
        let mut cursors = std::mem::take(&mut self.scratch_cursors);
        let issued = self.schedule_demand_with(chan, now, mask, &mut hits, &mut cursors);
        self.scratch_hits = hits;
        self.scratch_cursors = cursors;
        issued
    }

    /// [`Self::schedule_demand`] body. Returns whether a command was issued.
    ///
    /// Both passes run off the per-bank index instead of scanning the flat
    /// queue, visiting candidates in *exactly* the arrival order the flat
    /// scan visited them (see each pass's comment), so command choice and
    /// tie-breaking are byte-identical to the scan scheduler.
    ///
    /// **Readiness table.** The controller's one model of when a bank can next
    /// act, read here and by [`Self::next_event`]. A bank can contribute one
    /// [`Class`] of command — a column command if a queued request hits its
    /// open row, a PRE if its open row has no queued hit, an ACT if it is
    /// closed — and the table keeps that class and the cycle its
    /// `next_col`/`next_pre`/`next_act` register and whole-bank refresh admit
    /// it, or for an ACT the end of a SARP refresh that holds the subarray of
    /// every queued request. Only events change an entry, and they mark
    /// it stale: an accepted request its bank, an issued command its bank or
    /// rank ([`Self::issue`]), a writeback-mode flip every bank. A step
    /// recomputes the stale entries ([`Self::refresh_table`]) and turns only
    /// the banks whose ready cycle has come into candidates, through the
    /// shared gates (urgent mask, data bus, tRRD/tFAW window). A blocking
    /// `REFab` needs no gate of its own: it sets every bank's refresh window
    /// to its rank's. [`DramChannel::check`]
    /// tests each of those gates as a conjunct, so a pruned candidate could
    /// only have failed, and a failed probe never changes which command issues
    /// (for a closed bank the SARP-conflict "advance" path only walks toward
    /// more doomed ACTs). Debug builds check every entry against
    /// [`Self::readiness`] and re-run `check` on every pruned bank
    /// ([`Self::assert_pruned_banks_doomed`]). What survives is validated
    /// exactly once, by [`DramChannel::issue`], whose `Err` is the
    /// not-legal-this-cycle branch.
    fn schedule_demand_with(
        &mut self,
        chan: &mut DramChannel,
        now: Cycle,
        mask: Option<RefreshTarget>,
        hits: &mut Vec<Probe>,
        cursors: &mut Vec<Probe>,
    ) -> bool {
        let drain = self.queues.in_drain_mode();
        let banks = self.geom.banks_per_rank();
        self.refresh_table(chan);
        let mut live = 0u64;
        for (i, &ready) in self.ready.iter().enumerate() {
            live |= u64::from(ready <= now) << i;
        }
        live &= !self.masked(&mask);
        // Every column command needs the shared data bus; the rank-level
        // tRRD/tFAW window is asked once per rank with an ACT candidate.
        let col_bus_ready = now >= chan.col_bus_ready(drain);
        let mut act_window: Option<(usize, bool)> = None;
        hits.clear();
        cursors.clear();
        while live != 0 {
            let i = live.trailing_zeros() as usize;
            live &= live - 1;
            let (rank, bank) = (i / banks, i % banks);
            let rk = chan.rank(rank);
            match self.class[i] {
                Class::Column if col_bus_ready => {
                    let open = rk.bank(bank).open_row().expect("a column bank is open");
                    hits.extend(self.queues.first_row_hit(rank, bank, open, drain));
                }
                Class::Precharge => cursors.extend(self.queues.bank_head(rank, bank, drain)),
                Class::Activate => {
                    if act_window.is_none_or(|(r, _)| r != rank) {
                        let open = rk.earliest_act_allowed(now, &self.timing) <= now;
                        act_window = Some((rank, open));
                    }
                    if act_window == Some((rank, true)) {
                        cursors.extend(self.queues.bank_head(rank, bank, drain));
                    }
                }
                Class::Column | Class::None => {}
            }
        }
        if cfg!(debug_assertions) {
            for i in 0..self.ready.len() {
                let fresh = self.readiness(chan, i);
                debug_assert_eq!((self.class[i], self.ready[i]), fresh, "bank {i} is stale");
            }
            self.assert_pruned_banks_doomed(chan, now, &mask, hits, cursors);
        }
        let mut scanned = 0u64;

        // Pass 1: row hits (column commands), oldest first. Hits on one
        // bank's open row all share a single legality outcome (`check`
        // ignores the column address and auto-precharge flag), so trying
        // each bank's *oldest* hit in global arrival order issues exactly
        // what the flat scan would have issued: the younger same-bank hits
        // the scan also visited could only fail identically.
        while let Some(i) = Self::oldest(hits) {
            let hit = hits.swap_remove(i);
            scanned += 1;
            let auto_precharge = self.queues.lone_hit(&hit, drain);
            let cmd = Self::column(&hit, drain, auto_precharge);
            let Ok(data_ready) = self.issue(chan, cmd, now) else {
                continue;
            };
            self.stats.row_hits += 1;
            if drain {
                self.queues.take_write(hit.slot);
                self.stats.writes_done += 1;
            } else {
                let req = self.queues.take_read(hit.slot);
                let ready = data_ready.expect("reads report data time");
                self.stats.reads_done += 1;
                self.stats.read_latency_sum += ready - req.arrival;
                self.inflight.push(Completion {
                    id: req.id,
                    core: req.core,
                    ready_at: ready,
                });
            }
            self.note_issue(scanned);
            return true;
        }

        // Pass 2: oldest-first activation / conflict precharge. Per bank,
        // only the oldest request may activate — except that requests
        // blocked purely by a SARP subarray conflict let younger requests
        // to other subarrays of the same bank proceed. Run as a k-way merge
        // over the per-bank FIFO chains: repeatedly popping the smallest
        // arrival seq among the bank cursors visits requests in exactly the
        // flat queue order; dropping a bank's cursor is the flat scan's
        // `tried` mask, and advancing it within the bank is the scan's
        // "continue past a subarray-conflicted request".
        while let Some(i) = Self::oldest(cursors) {
            let c = cursors[i];
            scanned += 1;
            let (rank, bank) = (c.rank, c.bank);
            if !chan.rank(rank).bank(bank).is_closed() {
                // Only conflicted banks with no queued hit were built.
                let pre = Command::Precharge { rank, bank };
                if self.issue(chan, pre, now).is_ok() {
                    self.stats.precharges += 1;
                    self.row_conflicts += 1;
                    self.note_issue(scanned);
                    return true;
                }
                cursors.swap_remove(i);
                continue;
            }
            // SARP §4.3.2: a request to the subarray the device is
            // refreshing leaves the bank open for younger requests to other
            // subarrays (it advances the cursor, where a timing-blocked ACT
            // drops it).
            let refreshing = chan.refreshing_subarray(rank, bank, now);
            if refreshing != Some(self.geom.subarray_of_row(c.row)) {
                let act = Command::Activate {
                    rank,
                    bank,
                    row: c.row,
                };
                if self.issue(chan, act, now).is_ok() {
                    self.stats.acts += 1;
                    self.note_issue(scanned);
                    return true;
                }
                cursors.swap_remove(i);
                continue;
            }
            match self.queues.next_in_bank(c.slot, drain) {
                Some(next) => cursors[i] = next,
                None => {
                    cursors.swap_remove(i);
                }
            }
        }
        false
    }

    /// Index of the oldest (lowest arrival seq) probe.
    fn oldest(probes: &[Probe]) -> Option<usize> {
        let oldest = probes.iter().enumerate().min_by_key(|(_, p)| p.seq);
        oldest.map(|(i, _)| i)
    }

    /// The column command serving `hit` on the servable side.
    fn column(hit: &Probe, write: bool, auto_precharge: bool) -> Command {
        let (rank, bank, col) = (hit.rank, hit.bank, hit.col);
        if write {
            Command::Write {
                rank,
                bank,
                col,
                auto_precharge,
            }
        } else {
            Command::Read {
                rank,
                bank,
                col,
                auto_precharge,
            }
        }
    }

    /// The pruning argument, checked on every scheduled cycle of a debug
    /// build (so by the whole test suite): each unmasked bank with servable
    /// demand that the build loop left out of both candidate lists must be
    /// one whose command [`DramChannel::check`] rejects this cycle.
    fn assert_pruned_banks_doomed(
        &self,
        chan: &DramChannel,
        now: Cycle,
        mask: &Option<RefreshTarget>,
        hits: &[Probe],
        cursors: &[Probe],
    ) {
        let drain = self.queues.in_drain_mode();
        for rank in 0..self.geom.ranks_per_channel() {
            for bank in 0..self.geom.banks_per_rank() {
                let mut kept = hits.iter().chain(cursors);
                if self.masked(mask) & self.bits(rank, Some(bank)) != 0
                    || kept.any(|p| (p.rank, p.bank) == (rank, bank))
                {
                    continue;
                }
                let Some(head) = self.queues.bank_head(rank, bank, drain) else {
                    continue;
                };
                let cmd = match chan.rank(rank).bank(bank).open_row() {
                    Some(open) => match self.queues.first_row_hit(rank, bank, open, drain) {
                        Some(hit) => Self::column(&hit, drain, false),
                        None => Command::Precharge { rank, bank },
                    },
                    None => Command::Activate {
                        rank,
                        bank,
                        row: head.row,
                    },
                };
                debug_assert!(
                    chan.check(&cmd, now).is_err(),
                    "pruned {cmd:?}, which could have issued at cycle {now}"
                );
            }
        }
    }

    /// Folds one issuing cycle's scan work into the scheduler counters.
    fn note_issue(&mut self, scanned: u64) {
        self.sched_scan.issue_cycles += 1;
        self.sched_scan.candidates += scanned;
        self.sched_scan.max_scan = self.sched_scan.max_scan.max(scanned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsarp_dram::{Density, Retention};

    fn setup(mech: Mechanism) -> (DramChannel, MemoryController, Geometry, TimingParams) {
        let geom = Geometry::paper_default();
        let timing = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        let chan = DramChannel::new(geom, timing, mech.sarp_support());
        let mc = MemoryController::new(0, geom, timing, mech, 42);
        (chan, mc, geom, timing)
    }

    fn loc(rank: usize, bank: usize, row: u32, col: u32) -> dsarp_dram::Location {
        dsarp_dram::Location {
            channel: 0,
            rank,
            bank,
            row,
            col,
        }
    }

    fn run(
        mc: &mut MemoryController,
        chan: &mut DramChannel,
        from: Cycle,
        to: Cycle,
    ) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in from..to {
            mc.step(chan, now, &mut done);
        }
        done
    }

    #[test]
    fn single_read_completes_with_act_rd_latency() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::NoRefresh);
        assert!(mc.try_enqueue_read(Request::read(1, loc(0, 0, 5, 3), 2, 0)));
        let done = run(&mut mc, &mut chan, 0, 100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].core, 2);
        // ACT at 0, RD at tRCD, data at tRCD + CL + BL.
        assert_eq!(done[0].ready_at, t.rcd + t.cl + t.bl);
        assert_eq!(mc.stats().reads_done, 1);
        assert_eq!(mc.stats().acts, 1);
    }

    #[test]
    fn row_hits_share_one_activation() {
        let (mut chan, mut mc, _, _) = setup(Mechanism::NoRefresh);
        for c in 0..4 {
            assert!(mc.try_enqueue_read(Request::read(c, loc(0, 0, 5, c as u32), 0, 0)));
        }
        let done = run(&mut mc, &mut chan, 0, 200);
        assert_eq!(done.len(), 4);
        assert_eq!(mc.stats().acts, 1, "one ACT serves all four row hits");
        assert_eq!(mc.stats().row_hits, 4);
    }

    #[test]
    fn closed_row_policy_uses_auto_precharge_on_last_hit() {
        let (mut chan, mut mc, _, _) = setup(Mechanism::NoRefresh);
        chan.enable_command_log();
        mc.try_enqueue_read(Request::read(1, loc(0, 0, 5, 0), 0, 0));
        mc.try_enqueue_read(Request::read(2, loc(0, 0, 5, 1), 0, 0));
        let _ = run(&mut mc, &mut chan, 0, 100);
        let log = chan.take_command_log();
        let mnemonics: Vec<&str> = log.iter().map(|(_, c)| c.mnemonic()).collect();
        assert_eq!(mnemonics, vec!["ACT", "RD", "RDA"], "last hit precharges");
    }

    #[test]
    fn conflicting_rows_precharge_between() {
        let (mut chan, mut mc, _, _) = setup(Mechanism::NoRefresh);
        chan.enable_command_log();
        mc.try_enqueue_read(Request::read(1, loc(0, 0, 5, 0), 0, 0));
        mc.try_enqueue_read(Request::read(2, loc(0, 0, 9, 0), 0, 0));
        let done = run(&mut mc, &mut chan, 0, 300);
        assert_eq!(done.len(), 2);
        let log = chan.take_command_log();
        let m: Vec<&str> = log.iter().map(|(_, c)| c.mnemonic()).collect();
        // Closed-row: each read auto-precharges, so no explicit PRE needed.
        assert_eq!(m, vec!["ACT", "RDA", "ACT", "RDA"]);
    }

    #[test]
    fn writes_wait_for_drain_mode() {
        let (mut chan, mut mc, _, _) = setup(Mechanism::NoRefresh);
        // Below the high watermark: writes sit.
        for i in 0..10 {
            assert!(mc.try_enqueue_write(Request::write(i, loc(0, (i % 8) as usize, 1, 0), 0, 0)));
        }
        let _ = run(&mut mc, &mut chan, 0, 500);
        assert_eq!(mc.stats().writes_done, 0, "no drain below watermark");
        // Push past the high watermark: drain begins and empties to the low
        // watermark.
        for i in 10..48 {
            assert!(mc.try_enqueue_write(Request::write(i, loc(0, (i % 8) as usize, 1, 0), 0, 0)));
        }
        let _ = run(&mut mc, &mut chan, 500, 3_000);
        assert!(mc.stats().writes_done >= 16, "drained to low watermark");
        assert!(mc.queues().write_len() <= 32);
    }

    #[test]
    fn reads_blocked_during_drain() {
        let (mut chan, mut mc, _, _) = setup(Mechanism::NoRefresh);
        for i in 0..48 {
            mc.try_enqueue_write(Request::write(i, loc(0, (i % 8) as usize, 1, 0), 0, 0));
        }
        mc.try_enqueue_read(Request::read(100, loc(1, 0, 5, 0), 0, 0));
        // Step a few cycles: drain mode active, read untouched even though
        // it targets the other rank.
        let done = run(&mut mc, &mut chan, 0, 30);
        assert!(done.is_empty(), "read must wait out the drain");
        assert!(mc.queues().in_drain_mode());
    }

    #[test]
    fn read_after_write_forwarding() {
        let (mut chan, mut mc, _, _) = setup(Mechanism::NoRefresh);
        mc.try_enqueue_write(Request::write(1, loc(0, 0, 5, 3), 0, 0));
        assert!(mc.try_enqueue_read(Request::read(2, loc(0, 0, 5, 3), 1, 0)));
        let done = run(&mut mc, &mut chan, 0, 5);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 2);
        assert_eq!(mc.stats().forwarded_reads, 1);
    }

    #[test]
    fn refab_precharges_then_refreshes() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::RefAb);
        chan.enable_command_log();
        // Keep a row open on rank 0 at the refresh due time.
        mc.try_enqueue_read(Request::read(1, loc(0, 0, 5, 0), 0, t.refi_ab - 30));
        // Jump close to the interval; enqueue arrives just before.
        let mut done = Vec::new();
        for now in (t.refi_ab - 30)..(t.refi_ab + 600) {
            mc.step(&mut chan, now, &mut done);
        }
        let log = chan.take_command_log();
        let m: Vec<&str> = log.iter().map(|(_, c)| c.mnemonic()).collect();
        assert!(m.contains(&"REFab"), "refresh issued: {m:?}");
        assert!(mc.stats().refab_issued >= 1);
        // Both ranks get refreshed each interval.
        assert!(log.iter().filter(|(_, c)| c.mnemonic() == "REFab").count() >= 2);
    }

    #[test]
    fn refpb_follows_round_robin_and_mirrors_device() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::RefPb);
        chan.enable_command_log();
        let _ = run(&mut mc, &mut chan, 0, 10 * t.refi_pb);
        let log = chan.take_command_log();
        let banks: Vec<usize> = log
            .iter()
            .filter_map(|(_, c)| match c {
                Command::RefreshPerBank { rank: 0, bank } => Some(*bank),
                _ => None,
            })
            .collect();
        assert!(banks.len() >= 8);
        for (i, b) in banks.iter().enumerate() {
            assert_eq!(*b, i % 8, "strict round-robin order");
        }
    }

    #[test]
    fn darp_avoids_busy_bank() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::Darp);
        chan.enable_command_log();
        // Keep bank 0 of rank 0 saturated with reads so DARP steers
        // refreshes to other banks.
        let mut done = Vec::new();
        let mut next_id = 0;
        for now in 0..20 * t.refi_pb {
            if mc.queues().read_len() < 8 {
                mc.try_enqueue_read(Request::read(
                    next_id,
                    loc(0, 0, (next_id % 100) as u32, 0),
                    0,
                    now,
                ));
                next_id += 1;
            }
            mc.step(&mut chan, now, &mut done);
        }
        let log = chan.take_command_log();
        let to_bank0 = log
            .iter()
            .filter(|(_, c)| matches!(c, Command::RefreshPerBank { rank: 0, bank: 0 }))
            .count();
        let total_r0 = log
            .iter()
            .filter(|(_, c)| matches!(c, Command::RefreshPerBank { rank: 0, .. }))
            .count();
        assert!(total_r0 > 0, "DARP must still refresh");
        assert!(
            to_bank0 * 4 < total_r0,
            "busy bank 0 got {to_bank0}/{total_r0} of rank-0 refreshes"
        );
    }

    #[test]
    fn backpressure_on_full_read_queue() {
        let (_, mut mc, _, _) = setup(Mechanism::NoRefresh);
        for i in 0..64 {
            assert!(mc.try_enqueue_read(Request::read(i, loc(0, 0, i as u32, 0), 0, 0)));
        }
        assert!(!mc.try_enqueue_read(Request::read(99, loc(0, 0, 1, 0), 0, 0)));
        assert_eq!(mc.stats().read_rejects, 1);
    }

    #[test]
    fn dsarp_serves_other_subarray_during_refresh() {
        let (mut chan, mut mc, geom, t) = setup(Mechanism::Dsarp);
        chan.enable_command_log();
        let rows_per_sub = geom.rows_per_subarray() as u32;
        let mut done = Vec::new();
        // (rank, bank, subarray, completion) of the REFpb the reads race.
        let mut held = None;
        for now in 0..40 * t.refi_pb {
            if held.is_none() && mc.stats().refpb_issued > 0 {
                // A REFpb just issued and holds subarray S of bank B: queue
                // an older read to S and a younger one to another subarray.
                let (at, rank, bank) = chan
                    .take_command_log()
                    .into_iter()
                    .find_map(|(at, c)| match c {
                        Command::RefreshPerBank { rank, bank } => Some((at, rank, bank)),
                        _ => None,
                    })
                    .expect("the REFpb is in the log");
                let sub = chan.refreshing_subarray(rank, bank, now).expect("SARP");
                let other = (sub + 1) % geom.subarrays_per_bank();
                let first_row = |s: usize| loc(rank, bank, s as u32 * rows_per_sub, 0);
                assert!(mc.try_enqueue_read(Request::read(1, first_row(sub), 0, now)));
                assert!(mc.try_enqueue_read(Request::read(2, first_row(other), 0, now)));
                held = Some((rank, bank, sub, at + t.rfc_pb));
            }
            mc.step(&mut chan, now, &mut done);
            if done.len() == 2 {
                break;
            }
        }
        assert_eq!(done.len(), 2, "both reads complete");
        let (rank, bank, sub, refresh_done) = held.expect("a REFpb issued");
        let log = chan.take_command_log();
        let act_at = |in_held: bool| {
            log.iter()
                .find_map(|&(at, c)| match c {
                    Command::Activate {
                        rank: r,
                        bank: b,
                        row,
                    } if (r, b) == (rank, bank)
                        && (geom.subarray_of_row(row) == sub) == in_held =>
                    {
                        Some(at)
                    }
                    _ => None,
                })
                .expect("both reads activate")
        };
        let (held_act, other_act) = (act_at(true), act_at(false));
        assert!(
            held_act >= refresh_done,
            "ACT to the refreshing subarray at {held_act}"
        );
        assert!(
            other_act < refresh_done,
            "the younger read waited until {other_act}"
        );
    }

    #[test]
    fn urgent_refresh_preempts_open_bank() {
        // Force a per-bank refresh on a bank that has an open row with more
        // row hits pending: the controller must precharge it (preempting
        // the hits) and refresh.
        let (mut chan, mut mc, _, t) = setup(Mechanism::RefPb);
        chan.enable_command_log();
        // Keep bank 0 (the first round-robin target) saturated.
        let mut done = Vec::new();
        let mut id = 0;
        for now in 0..2 * t.refi_pb {
            if mc.queues().read_len() < 16 {
                mc.try_enqueue_read(Request::read(id, loc(0, 0, 1, (id % 128) as u32), 0, now));
                id += 1;
            }
            mc.step(&mut chan, now, &mut done);
        }
        let log = chan.take_command_log();
        let first_ref = log
            .iter()
            .position(|(_, c)| matches!(c, Command::RefreshPerBank { rank: 0, bank: 0 }))
            .expect("bank 0 must be refreshed despite pending hits");
        // A precharge to bank 0 must appear before that refresh.
        assert!(
            log[..first_ref]
                .iter()
                .any(|(_, c)| matches!(c, Command::Precharge { rank: 0, bank: 0 })),
            "urgent refresh must preempt the open row with a PRE"
        );
    }

    #[test]
    fn urgent_refab_masks_rank_but_not_other_rank() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::RefAb);
        chan.enable_command_log();
        let mut done = Vec::new();
        let mut id = 0;
        // Demand on both ranks around the refresh due time.
        for now in (t.refi_ab - 50)..(t.refi_ab + 400) {
            if mc.queues().read_len() < 8 {
                let rank = (id % 2) as usize;
                mc.try_enqueue_read(Request::read(id, loc(rank, 1, 2, 0), 0, now));
                id += 1;
            }
            mc.step(&mut chan, now, &mut done);
        }
        let log = chan.take_command_log();
        let ref_at = log
            .iter()
            .find(|(_, c)| matches!(c, Command::RefreshAllBank { rank: 0, .. }))
            .map(|(t, _)| *t)
            .expect("rank 0 refreshed");
        // While rank 0 prepared/refreshed, rank 1 kept serving (some rank-1
        // column command exists in the window before rank 0's refresh end).
        let rank1_activity = log.iter().any(|(tt, c)| {
            *tt >= t.refi_ab - 50 && *tt <= ref_at + 100 && c.rank() == 1 && c.is_column()
        });
        assert!(
            rank1_activity,
            "rank 1 should not be blocked by rank 0's refresh"
        );
    }

    #[test]
    fn refab_prep_precharges_reach_the_readiness_table() {
        // Four rows of rank 0 open as its REFab falls due, each with row
        // hits still queued. PREA waits on the youngest row's tRAS, so the
        // older rows close one per-bank PRE at a time, each on a step that
        // returns before demand scheduling runs. The readiness table must
        // see every one: after the refresh, the oldest request's bank
        // activates exactly when the device first admits it.
        let (mut chan, mut mc, _, t) = setup(Mechanism::RefAb);
        chan.enable_command_log();
        let start = t.refi_ab - 14;
        for id in 0..12 {
            let (bank, col) = ((id / 3) as usize, (id % 3) as u32);
            assert!(mc.try_enqueue_read(Request::read(id, loc(0, bank, 7, col), 0, start)));
        }
        let mut done = Vec::new();
        let mut now = start;
        while mc.stats().refab_issued == 0 {
            mc.step(&mut chan, now, &mut done);
            now += 1;
        }
        let refab_at = now - 1;
        let act = Command::Activate {
            rank: 0,
            bank: 0,
            row: 7,
        };
        let admitted = chan.earliest_issue(&act, now).expect("bank 0 is closed");
        done.extend(run(&mut mc, &mut chan, now, now + 2_000));
        let log = chan.take_command_log();
        let prep = log.iter().filter(|&&(at, c)| {
            (t.refi_ab..refab_at).contains(&at) && matches!(c, Command::Precharge { rank: 0, .. })
        });
        assert!(
            prep.count() >= 2,
            "per-bank PREs prepared the REFab: {log:?}"
        );
        let reopened = log
            .iter()
            .find(|&&(at, c)| at > refab_at && matches!(c, Command::Activate { rank: 0, .. }));
        assert_eq!(reopened, Some(&(admitted, act)));
        assert_eq!(done.len(), 12, "every read completes");
    }

    #[test]
    fn fgr_modes_issue_more_frequent_shorter_refreshes() {
        let (mut chan4, mut mc4, _, t) = setup(Mechanism::Fgr4x);
        let mut done = Vec::new();
        for now in 0..2 * t.refi_ab {
            mc4.step(&mut chan4, now, &mut done);
        }
        // 4x mode: ~4 refreshes per rank per tREFIab, 2 ranks, 2 intervals.
        let got = mc4.stats().refab_issued;
        assert!(
            (12..=20).contains(&got),
            "FGR 4x issued {got} REFab in 2 intervals"
        );
    }

    #[test]
    fn adaptive_refresh_uses_4x_when_idle() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::AdaptiveRefresh);
        chan.enable_command_log();
        let mut done = Vec::new();
        for now in 0..(t.refi_ab + 100) {
            mc.step(&mut chan, now, &mut done);
        }
        let log = chan.take_command_log();
        // With no demand at all, AR refreshes in 4x mode.
        assert!(
            log.iter().any(|(_, c)| matches!(
                c,
                Command::RefreshAllBank {
                    fgr: dsarp_dram::FgrMode::X4,
                    ..
                }
            )),
            "idle rank should use 4x: {log:?}"
        );
    }

    #[test]
    fn next_event_none_never_strands_an_idle_controller() {
        // NoRefresh + empty queues: fully quiescent, no events — and
        // stepping anyway must do nothing (the caller may batch to any
        // horizon).
        let (mut chan, mut mc, _, _) = setup(Mechanism::NoRefresh);
        mc.step(&mut chan, 123, &mut Vec::new());
        assert_eq!(mc.next_event(&chan, 123), None);
        chan.enable_command_log();
        let before = *mc.stats();
        let done = run(&mut mc, &mut chan, 124, 10_000);
        assert!(done.is_empty());
        assert_eq!(*mc.stats(), before);
        assert!(chan.take_command_log().is_empty());
    }

    #[test]
    fn next_event_tracks_head_blocked_read_then_completion() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::NoRefresh);
        mc.try_enqueue_read(Request::read(1, loc(0, 0, 5, 3), 0, 0));
        let mut done = Vec::new();
        mc.step(&mut chan, 0, &mut done); // ACT at 0
        mc.step(&mut chan, 1, &mut done);
        // Head read blocked on tRCD: the next event is its column command.
        assert_eq!(mc.next_event(&chan, 1), Some(t.rcd));
        for now in 2..=t.rcd + 1 {
            mc.step(&mut chan, now, &mut done);
        }
        // Read issued at tRCD; only the in-flight completion remains.
        let ready = t.rcd + t.cl + t.bl;
        assert_eq!(mc.next_event(&chan, t.rcd + 1), Some(ready));
        for now in (t.rcd + 2)..=ready {
            mc.step(&mut chan, now, &mut done);
        }
        assert_eq!(done.len(), 1);
        assert_eq!(mc.next_event(&chan, ready), None, "all quiet again");
    }

    #[test]
    fn next_event_reports_refab_deadline() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::RefAb);
        let mut done = Vec::new();
        mc.step(&mut chan, 0, &mut done);
        // Empty queues: the only future event is the first tREFIab expiry.
        assert_eq!(mc.next_event(&chan, 0), Some(t.refi_ab));
        // At the deadline rank 0 refreshes; rank 1 still owes one, so the
        // policy reports an immediate event (no skipping).
        mc.step(&mut chan, t.refi_ab, &mut done);
        assert_eq!(mc.stats().refab_issued, 1);
        assert_eq!(mc.next_event(&chan, t.refi_ab), Some(t.refi_ab + 1));
        mc.step(&mut chan, t.refi_ab + 1, &mut done);
        assert_eq!(mc.stats().refab_issued, 2);
        // Both served: one quiet step later, sleep until the next interval.
        mc.step(&mut chan, t.refi_ab + 2, &mut done);
        assert_eq!(mc.next_event(&chan, t.refi_ab + 2), Some(2 * t.refi_ab));
    }

    /// The policy's share of `next_event` is `now + 1`, with no second
    /// walk, after a step whose walk asked for a refresh — here an urgent
    /// `REFab` that cannot even precharge yet (tRAS), so nothing issues. A
    /// second walk would answer `Urgent` again and trip the debug assert.
    #[test]
    fn next_event_does_not_rewalk_an_acting_policy() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::RefAb);
        let mut done = Vec::new();
        let act_at = t.refi_ab - 1;
        mc.try_enqueue_read(Request::read(1, loc(0, 0, 5, 0), 0, act_at));
        mc.step(&mut chan, act_at, &mut done);
        assert_eq!(chan.last_issue(), Some(act_at), "ACT opens the row");
        mc.step(&mut chan, t.refi_ab, &mut done);
        assert_eq!(chan.last_issue(), Some(act_at), "tRAS holds the PRE back");
        assert_eq!(mc.next_event(&chan, t.refi_ab), Some(t.refi_ab + 1));
    }

    /// ...and after a step that issued a command, even one the policy had
    /// no part in: the demand it served may have flipped what the walk reads
    /// of the queues. One quiet step later the real bound is back.
    #[test]
    fn next_event_does_not_rewalk_after_an_issuing_step() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::RefAb);
        let mut done = Vec::new();
        mc.try_enqueue_read(Request::read(1, loc(0, 0, 5, 3), 0, 0));
        mc.step(&mut chan, 0, &mut done); // ACT at 0
        assert_eq!(mc.next_event(&chan, 0), Some(1));
        mc.step(&mut chan, 1, &mut done);
        assert_eq!(mc.next_event(&chan, 1), Some(t.rcd));
    }

    /// ...and once a request has been accepted since the step, which an
    /// idle-tracking policy must first see at the *next* cycle's walk. The
    /// write below is not servable (no writeback mode), so the policy's
    /// share is all that pulls the bound in.
    #[test]
    fn next_event_does_not_rewalk_after_an_accepted_request() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::Elastic);
        let mut done = Vec::new();
        mc.step(&mut chan, 0, &mut done);
        assert_eq!(mc.next_event(&chan, 0), Some(t.refi_ab));
        assert!(mc.try_enqueue_write(Request::write(1, loc(0, 0, 5, 0), 0, 0)));
        assert_eq!(mc.next_event(&chan, 0), Some(1));
        mc.step(&mut chan, 1, &mut done);
        assert_eq!(mc.next_event(&chan, 1), Some(t.refi_ab));
    }

    #[test]
    fn next_event_reports_refpb_deadline_and_stale_rank() {
        let (mut chan, mut mc, _, t) = setup(Mechanism::RefPb);
        let mut done = Vec::new();
        mc.step(&mut chan, 0, &mut done);
        assert_eq!(mc.next_event(&chan, 0), Some(t.refi_pb));
        // At the tick rank 0 refreshes and decide returns before accruing
        // rank 1: the policy must refuse to skip (stale rank).
        mc.step(&mut chan, t.refi_pb, &mut done);
        assert_eq!(mc.stats().refpb_issued, 1);
        assert_eq!(mc.next_event(&chan, t.refi_pb), Some(t.refi_pb + 1));
    }

    /// SARP's rule is in the readiness table the wake reads: a closed bank
    /// whose every queued request targets the subarray an in-flight `REFpb`
    /// holds sleeps until that refresh ends, and one request elsewhere
    /// brings it back to the rank's ACT window.
    #[test]
    fn next_event_waits_out_a_sarp_refresh_only_for_its_subarray() {
        let (mut chan, mut mc, geom, _) = setup(Mechanism::Dsarp);
        chan.enable_command_log();
        let mut done = Vec::new();
        // Idle DARP pulls a refresh in on each rank at once.
        mc.step(&mut chan, 0, &mut done);
        mc.step(&mut chan, 1, &mut done);
        let log = chan.take_command_log();
        let Some(&(0, Command::RefreshPerBank { rank: 0, bank })) = log.first() else {
            panic!("rank 0 refreshes at cycle 0: {log:?}");
        };
        let held = chan
            .rank(0)
            .bank(bank)
            .sarp_refresh(2)
            .expect("a SARP refresh");
        let rows = geom.rows_per_subarray() as u32;
        let row = |sub: usize, i: u32| sub as u32 * rows + i;
        let other = (held.subarray + 1) % geom.subarrays_per_bank();
        for i in 0..2 {
            let req = Request::read(i.into(), loc(0, bank, row(held.subarray, i), 0), 0, 2);
            assert!(mc.try_enqueue_read(req));
        }
        // Rank 0's REFpb window ends with the refresh, so the policy's share
        // of the bound is no earlier than the demand's.
        mc.step(&mut chan, 2, &mut done);
        assert_eq!(chan.last_issue(), Some(1));
        assert_eq!(mc.next_event(&chan, 2), Some(held.until));
        assert!(mc.try_enqueue_read(Request::read(2, loc(0, bank, row(other, 0), 0), 0, 3)));
        mc.step(&mut chan, 3, &mut done);
        assert_eq!(chan.last_issue(), Some(1), "tRRD holds the ACT back");
        let act = Command::Activate {
            rank: 0,
            bank,
            row: row(other, 0),
        };
        let window = chan.earliest_issue(&act, 3).expect("the bank is closed");
        assert!(window > 4 && window < held.until, "ACT window at {window}");
        assert_eq!(mc.next_event(&chan, 3), Some(window));
    }

    #[test]
    fn next_event_darp_sleeps_until_tick_once_pulled_in() {
        // Once every bank is pulled in to the -8 floor, DARP's pool is
        // empty and the controller sleeps until the next tREFIpb tick —
        // and the skipped span is provably dead (no commands issue).
        let (mut chan, mut mc, _, t) = setup(Mechanism::Darp);
        let mut done = Vec::new();
        let mut now = 0;
        let horizon = 300 * t.rfc_pb;
        let wake = loop {
            mc.step(&mut chan, now, &mut done);
            match mc.next_event(&chan, now) {
                // Short sleeps (blocked-until-slot-free) happen during
                // pull-in; only a span longer than tRFCpb means the pool
                // is empty and the policy is waiting for a schedule tick.
                Some(w) if w > now + t.rfc_pb + 2 => break w,
                _ => {}
            }
            now += 1;
            assert!(now < horizon, "DARP never reached a skippable state");
        };
        assert_eq!(wake % t.refi_pb, 0, "wake {wake} is a schedule tick");
        // The span in between is dead time.
        chan.enable_command_log();
        for c in (now + 1)..wake {
            mc.step(&mut chan, c, &mut done);
        }
        assert!(
            chan.take_command_log().is_empty(),
            "skipped span must be command-free"
        );
    }
}
