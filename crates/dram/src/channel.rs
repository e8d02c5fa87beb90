//! The DRAM channel: command validation, timing enforcement, and state
//! updates for one channel's ranks, banks and subarrays.
//!
//! This is the device-side contract: [`DramChannel::issue`] validates every
//! command ([`DramChannel::check`]) before touching any state and returns an
//! [`IssueError`] — with nothing changed — when it is not legal *this
//! cycle*. A controller may therefore probe with `check(..).is_ok()` or
//! simply try to issue and treat `Err` as "not now"; either way no
//! scheduler bug can corrupt timing state.
//!
//! Legality is one walk over a command's gates. A *state* gate (address in
//! range, bank open or closed as the command needs) passes or blocks until
//! another command changes device state; every *time* gate contributes the
//! cycle it opens. [`DramChannel::check`] asks whether the latest of those
//! cycles is `now` and otherwise names the first gate still shut;
//! [`DramChannel::earliest_issue`] returns the cycle itself. One walk
//! answers both "legal now?" and "legal from when?", as Ramulator's
//! per-command next-legal-cycle does.

use crate::command::Command;
use crate::geometry::Geometry;
use crate::power::EnergyCounters;
use crate::rank::Rank;
use crate::sarp::{sarp_inflation, RefreshScope, SarpSupport};
use crate::timing::{FgrMode, TimingParams};
use crate::{Cycle, IddValues};

/// Why a command cannot issue right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueError {
    /// Rank or bank index out of range, or column out of range.
    BadAddress,
    /// A second command was issued in the same cycle (command bus conflict).
    CommandBusBusy,
    /// The command needs a precharged bank but a row is open.
    BankNotClosed,
    /// The command needs an open row but the bank is precharged.
    NoOpenRow,
    /// A whole-bank or whole-rank refresh is occupying the target.
    RefreshBusy,
    /// A `REFpb` is already in flight in the rank (JEDEC no-overlap rule).
    RefpbOverlap,
    /// SARP: the target row lives in the subarray currently being refreshed.
    SubarrayConflict,
    /// A timing constraint is unsatisfied at this cycle.
    TooEarly,
}

impl std::fmt::Display for IssueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IssueError::BadAddress => "address out of range",
            IssueError::CommandBusBusy => "command bus already used this cycle",
            IssueError::BankNotClosed => "bank has an open row",
            IssueError::NoOpenRow => "bank has no open row",
            IssueError::RefreshBusy => "target is refreshing",
            IssueError::RefpbOverlap => "a REFpb is already in flight in this rank",
            IssueError::SubarrayConflict => "row is in the refreshing subarray",
            IssueError::TooEarly => "timing constraint unsatisfied",
        };
        f.write_str(s)
    }
}

impl std::error::Error for IssueError {}

/// Result of a successfully issued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    /// For reads: the cycle the full cache line has been returned.
    pub data_ready: Option<Cycle>,
    /// For refreshes: the cycle the refresh completes.
    pub refresh_done: Option<Cycle>,
}

/// One DRAM channel with its ranks, banks, and energy bookkeeping. See the
/// crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct DramChannel {
    geom: Geometry,
    timing: TimingParams,
    sarp: SarpSupport,
    ranks: Vec<Rank>,
    /// Channel-level earliest next read / write column command (data bus +
    /// turnaround constraints).
    next_rd: Cycle,
    next_wr: Cycle,
    energy: EnergyCounters,
    last_issue: Option<Cycle>,
    log: Option<Vec<(Cycle, Command)>>,
    idd: IddValues,
    /// When `false`, SARP's tFAW/tRRD inflation (Eq. 1-3) is disabled —
    /// an *ablation* switch quantifying the power-integrity throttle's cost
    /// (a real device must keep it on).
    power_throttle: bool,
    /// ACTs issued to a bank while that bank had a SARP refresh in flight
    /// — accesses the subarray-parallelism mechanism made possible
    /// (telemetry; always counted, only read when telemetry is enabled).
    sarp_parallel_acts: u64,
}

impl DramChannel {
    /// Creates a channel in the reset state (all banks precharged).
    pub fn new(geom: Geometry, timing: TimingParams, sarp: SarpSupport) -> Self {
        let ranks = (0..geom.ranks_per_channel())
            .map(|_| Rank::new(geom.banks_per_rank()))
            .collect();
        Self {
            ranks,
            next_rd: 0,
            next_wr: 0,
            energy: EnergyCounters::new(geom.ranks_per_channel()),
            last_issue: None,
            log: None,
            idd: IddValues::micron_8gb_ddr3_1333(),
            power_throttle: true,
            sarp_parallel_acts: 0,
            geom,
            timing,
            sarp,
        }
    }

    /// Disables SARP's tFAW/tRRD power-integrity inflation (ablation only;
    /// see the field docs).
    pub fn disable_power_throttle(&mut self) {
        self.power_throttle = false;
    }

    /// Accepts only `ways == 1` (one `REFpb` in flight per rank) and changes
    /// nothing. Exists only for the call in `ledger/src/sim.rs` and goes
    /// with it.
    pub fn set_refpb_overlap_ways(&mut self, ways: usize) {
        assert_eq!(ways, 1, "a rank allows one REFpb in flight");
    }

    /// Enables the command log (used by the timeline examples and by the
    /// tests that judge refresh deadlines from it).
    pub fn enable_command_log(&mut self) {
        self.log = Some(Vec::new());
    }

    /// Drains and returns the command log (empty if logging is disabled).
    pub fn take_command_log(&mut self) -> Vec<(Cycle, Command)> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The channel's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The channel's timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Whether the device supports SARP.
    pub fn sarp_support(&self) -> SarpSupport {
        self.sarp
    }

    /// Immutable access to a rank.
    pub fn rank(&self, idx: usize) -> &Rank {
        &self.ranks[idx]
    }

    /// The subarray currently being refreshed in (rank, bank) under SARP, or
    /// `None` when no SARP refresh is in flight there.
    pub fn refreshing_subarray(&self, rank: usize, bank: usize, now: Cycle) -> Option<usize> {
        self.ranks[rank]
            .bank(bank)
            .sarp_refresh(now)
            .map(|r| r.subarray)
    }

    /// ACTs issued to a bank while a SARP refresh was in flight in that
    /// same bank — the accesses SARP parallelized with refresh.
    pub fn sarp_parallel_acts(&self) -> u64 {
        self.sarp_parallel_acts
    }

    /// Energy counters accumulated so far.
    pub fn energy_counters(&self) -> &EnergyCounters {
        &self.energy
    }

    /// Finalizes background-energy accounting at the end of a run.
    pub fn finalize_energy(&mut self, now: Cycle) {
        self.energy.finalize(now);
    }

    /// The cycle of the most recent successfully issued command, if any.
    pub fn last_issue(&self) -> Option<Cycle> {
        self.last_issue
    }

    /// The earliest cycle the shared column-command data bus admits a read
    /// (`write == false`) or write (`write == true`). This is the `bus` gate
    /// of [`DramChannel::check`] for column commands, exposed so schedulers
    /// can rule out *every* column candidate with one comparison when the
    /// bus is the binding constraint.
    pub fn col_bus_ready(&self, write: bool) -> Cycle {
        if write {
            self.next_wr
        } else {
            self.next_rd
        }
    }

    /// The earliest cycle `t >= now` at which every *time-based* gate of
    /// `cmd` is open, or `None` when a *state-based* gate (bad address,
    /// wrong open/closed bank state) blocks it until some other command
    /// changes device state. The same walk as [`DramChannel::check`], read
    /// for its cycle instead of its verdict; the name stays because the
    /// perf ledger calls it.
    ///
    /// The answer holds only while no command issues to this channel in
    /// `[now, t)`, so every timing register is frozen and each gate clears
    /// precisely when its window expires. The command-bus gate is ignored.
    /// It is not a skip-ahead event source: the controller's wake reads its
    /// own readiness table, built from the same bank registers.
    pub fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Option<Cycle> {
        self.walk(cmd, now).ok().map(|g| g.open_at)
    }

    /// Validates `cmd` at `now` without issuing it: legal iff the command
    /// bus is free this cycle and the gate walk's earliest cycle is `now`.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule; see [`IssueError`].
    pub fn check(&self, cmd: &Command, now: Cycle) -> Result<(), IssueError> {
        if self.last_issue == Some(now) {
            return Err(IssueError::CommandBusBusy);
        }
        self.walk(cmd, now)?.shut.map_or(Ok(()), Err)
    }

    /// The one legality walk: every gate of `cmd`, in the order `check`
    /// reports them. `Err` is a state gate that blocks `cmd` whatever the
    /// cycle (carrying the first gate already shut at `now`, if one came
    /// before it); `Ok` carries the cycle every time gate admits `cmd` and
    /// the first of them still shut at `now`.
    fn walk(&self, cmd: &Command, now: Cycle) -> Result<Gates, IssueError> {
        use IssueError::{
            BadAddress, BankNotClosed, NoOpenRow, RefpbOverlap, RefreshBusy, SubarrayConflict,
            TooEarly,
        };
        let rank = self.ranks.get(cmd.rank()).ok_or(BadAddress)?;
        if cmd.bank().is_some_and(|b| b >= rank.num_banks()) {
            return Err(BadAddress);
        }
        let mut g = Gates::new(now);
        match *cmd {
            Command::Activate { bank, row, .. } => {
                if row as usize >= self.geom.rows_per_bank() {
                    return Err(BadAddress);
                }
                let b = rank.bank(bank);
                g.wait(rank.refab_until(), RefreshBusy);
                g.wait(b.refresh_until(), RefreshBusy);
                g.require(b.is_closed(), BankNotClosed)?;
                if let Some(r) = b.sarp_refresh(now) {
                    debug_assert!(self.sarp.is_enabled());
                    if self.geom.subarray_of_row(row) == r.subarray {
                        g.wait(r.until, SubarrayConflict);
                    }
                }
                g.wait(b.next_act(), TooEarly);
                g.wait(rank.earliest_act_allowed(g.open_at, &self.timing), TooEarly);
            }
            Command::Precharge { bank, .. } => {
                let b = rank.bank(bank);
                g.wait(rank.refab_until(), RefreshBusy);
                g.wait(b.refresh_until(), RefreshBusy);
                g.require(!b.is_closed(), NoOpenRow)?;
                g.wait(b.next_pre(), TooEarly);
            }
            Command::PrechargeAll { .. } => {
                g.wait(rank.refab_until(), RefreshBusy);
                for b in rank.banks().filter(|b| !b.is_closed()) {
                    g.wait(b.next_pre(), TooEarly);
                }
            }
            Command::Read { bank, col, .. } | Command::Write { bank, col, .. } => {
                if col as usize >= self.geom.cols_per_row() {
                    return Err(BadAddress);
                }
                let b = rank.bank(bank);
                g.wait(rank.refab_until(), RefreshBusy);
                g.wait(b.refresh_until(), RefreshBusy);
                g.require(!b.is_closed(), NoOpenRow)?;
                g.wait(b.next_col(), TooEarly);
                let write = matches!(cmd, Command::Write { .. });
                g.wait(self.col_bus_ready(write), TooEarly);
            }
            Command::RefreshAllBank { .. } => {
                g.wait(rank.refab_until(), RefreshBusy);
                g.wait(rank.refpb_until(), RefpbOverlap);
                g.require(rank.all_banks_closed(), BankNotClosed)?;
                for b in rank.banks() {
                    g.wait(b.refresh_until(), RefreshBusy);
                    if let Some(r) = b.sarp_refresh(now) {
                        g.wait(r.until, RefreshBusy);
                    }
                    g.wait(b.next_act(), TooEarly);
                }
                g.wait(rank.earliest_act_allowed(g.open_at, &self.timing), TooEarly);
            }
            Command::RefreshPerBank { bank, .. } => {
                let b = rank.bank(bank);
                g.wait(rank.refab_until(), RefreshBusy);
                g.wait(rank.refpb_until(), RefpbOverlap);
                g.wait(b.refresh_until(), RefreshBusy);
                if let Some(r) = b.sarp_refresh(now) {
                    g.wait(r.until, RefreshBusy);
                }
                g.require(b.is_closed(), BankNotClosed)?;
                g.wait(b.next_act(), TooEarly);
                g.wait(rank.earliest_act_allowed(g.open_at, &self.timing), TooEarly);
            }
        }
        Ok(g)
    }

    /// Issues `cmd` at `now`, updating all device state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DramChannel::check`]; on error no state changes.
    pub fn issue(&mut self, cmd: Command, now: Cycle) -> Result<Receipt, IssueError> {
        self.check(&cmd, now)?;
        self.last_issue = Some(now);
        if let Some(log) = &mut self.log {
            log.push((now, cmd));
        }
        let timing = self.timing;
        let mut receipt = Receipt {
            data_ready: None,
            refresh_done: None,
        };
        match cmd {
            Command::Activate { rank, bank, row } => {
                // Validation passed, so any in-flight SARP refresh in this
                // bank targets a different subarray: a parallelized access.
                if self.ranks[rank].bank(bank).sarp_refresh(now).is_some() {
                    self.sarp_parallel_acts += 1;
                }
                let was_all_closed = self.ranks[rank].all_banks_closed();
                self.ranks[rank]
                    .bank_mut(bank)
                    .do_activate(now, row, &timing);
                self.ranks[rank].record_act(now);
                self.energy.record_act();
                if was_all_closed {
                    self.energy.rank_goes_active(rank, now);
                }
            }
            Command::Precharge { rank, bank } => {
                self.ranks[rank].bank_mut(bank).do_precharge(now, &timing);
                if self.ranks[rank].all_banks_closed() {
                    self.energy.rank_goes_idle(rank, now);
                }
            }
            Command::PrechargeAll { rank } => {
                for b in 0..self.ranks[rank].num_banks() {
                    if !self.ranks[rank].bank(b).is_closed() {
                        self.ranks[rank].bank_mut(b).do_precharge(now, &timing);
                    }
                }
                self.energy.rank_goes_idle(rank, now);
            }
            Command::Read {
                rank,
                bank,
                auto_precharge,
                ..
            } => {
                self.next_rd = now + timing.ccd;
                self.next_wr = self.next_wr.max(now + timing.rtw());
                self.ranks[rank].bank_mut(bank).do_column(
                    now + timing.rtp,
                    auto_precharge,
                    &timing,
                );
                self.energy.record_read();
                receipt.data_ready = Some(timing.read_done(now));
                if auto_precharge && self.ranks[rank].all_banks_closed() {
                    self.energy.rank_goes_idle(rank, now);
                }
            }
            Command::Write {
                rank,
                bank,
                auto_precharge,
                ..
            } => {
                self.next_wr = now + timing.ccd;
                self.next_rd = self.next_rd.max(now + timing.cwl + timing.bl + timing.wtr);
                self.ranks[rank].bank_mut(bank).do_column(
                    now + timing.cwl + timing.bl + timing.wr,
                    auto_precharge,
                    &timing,
                );
                self.energy.record_write();
                if auto_precharge && self.ranks[rank].all_banks_closed() {
                    self.energy.rank_goes_idle(rank, now);
                }
            }
            Command::RefreshAllBank { rank, fgr } => {
                receipt.refresh_done = Some(self.apply_refab(rank, fgr, now));
            }
            Command::RefreshPerBank { rank, bank } => {
                receipt.refresh_done = Some(self.apply_refpb(rank, bank, now));
            }
        }
        Ok(receipt)
    }

    fn apply_refab(&mut self, rank: usize, fgr: FgrMode, now: Cycle) -> Cycle {
        let rfc = self.timing.rfc_ab_for(fgr);
        let done = now + rfc;
        let rows = self.geom.rows_per_command(fgr);
        let rows_per_bank = self.geom.rows_per_bank() as u32;
        let num_banks = self.ranks[rank].num_banks();
        if self.sarp.is_enabled() {
            let factor = if self.power_throttle {
                sarp_inflation(&self.idd, RefreshScope::AllBank)
            } else {
                1.0
            };
            self.ranks[rank].start_sarp_window(done, factor, &self.timing);
            for b in 0..num_banks {
                let bank = self.ranks[rank].bank_mut(b);
                let first = bank.advance_ref_counter(rows, rows_per_bank);
                bank.do_refresh_sarp(self.geom.subarray_of_row(first), done);
            }
        } else {
            self.ranks[rank].start_refab_blocking(done);
            for b in 0..num_banks {
                let bank = self.ranks[rank].bank_mut(b);
                bank.advance_ref_counter(rows, rows_per_bank);
                bank.do_refresh_blocking(done);
            }
        }
        self.energy.record_refab(rfc);
        done
    }

    fn apply_refpb(&mut self, rank: usize, bank: usize, now: Cycle) -> Cycle {
        let done = now + self.timing.rfc_pb;
        let rows = self.geom.rows_per_command(FgrMode::X1);
        let rows_per_bank = self.geom.rows_per_bank() as u32;
        let first = self.ranks[rank]
            .bank_mut(bank)
            .advance_ref_counter(rows, rows_per_bank);
        if self.sarp.is_enabled() {
            let factor = if self.power_throttle {
                sarp_inflation(&self.idd, RefreshScope::PerBank)
            } else {
                1.0
            };
            let sub = self.geom.subarray_of_row(first);
            self.ranks[rank].bank_mut(bank).do_refresh_sarp(sub, done);
            self.ranks[rank].start_sarp_window(done, factor, &self.timing);
        } else {
            self.ranks[rank].bank_mut(bank).do_refresh_blocking(done);
        }
        // The no-overlap rule and the internal-activation rate cost apply
        // either way (§4.2.3).
        self.ranks[rank].start_refpb(done);
        self.ranks[rank].record_act(now);
        self.energy.record_refpb(self.timing.rfc_pb);
        done
    }
}

/// The gates of one command folded in `check`'s order: the cycle all of
/// them admit it, and the first one still shut at the query cycle.
struct Gates {
    now: Cycle,
    open_at: Cycle,
    shut: Option<IssueError>,
}

impl Gates {
    fn new(now: Cycle) -> Self {
        Self {
            now,
            open_at: now,
            shut: None,
        }
    }

    /// A time gate that opens at `open`, reported as `err` while shut.
    fn wait(&mut self, open: Cycle, err: IssueError) {
        if open > self.now && self.shut.is_none() {
            self.shut = Some(err);
        }
        self.open_at = self.open_at.max(open);
    }

    /// A state gate: unless `ok`, `cmd` is blocked at every cycle, and
    /// `check` reports the first time gate already shut, else `err`.
    fn require(&self, ok: bool, err: IssueError) -> Result<(), IssueError> {
        if ok {
            Ok(())
        } else {
            Err(self.shut.unwrap_or(err))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Density, Retention};

    fn chan(sarp: SarpSupport) -> DramChannel {
        DramChannel::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1333(Density::G8, Retention::Ms32),
            sarp,
        )
    }

    fn act(rank: usize, bank: usize, row: u32) -> Command {
        Command::Activate { rank, bank, row }
    }

    #[test]
    fn activate_then_read_respects_trcd() {
        let mut c = chan(SarpSupport::Disabled);
        c.issue(act(0, 0, 5), 0).unwrap();
        let rd = Command::Read {
            rank: 0,
            bank: 0,
            col: 0,
            auto_precharge: false,
        };
        assert_eq!(c.check(&rd, 8), Err(IssueError::TooEarly));
        let r = c.issue(rd, 9).unwrap();
        assert_eq!(r.data_ready, Some(9 + 9 + 4));
    }

    #[test]
    fn read_before_activate_is_illegal() {
        let c = chan(SarpSupport::Disabled);
        let rd = Command::Read {
            rank: 0,
            bank: 0,
            col: 0,
            auto_precharge: false,
        };
        assert_eq!(c.check(&rd, 100), Err(IssueError::NoOpenRow));
    }

    #[test]
    fn double_activate_is_illegal() {
        let mut c = chan(SarpSupport::Disabled);
        c.issue(act(0, 0, 5), 0).unwrap();
        assert_eq!(c.check(&act(0, 0, 6), 50), Err(IssueError::BankNotClosed));
    }

    #[test]
    fn command_bus_allows_one_command_per_cycle() {
        let mut c = chan(SarpSupport::Disabled);
        c.issue(act(0, 0, 5), 10).unwrap();
        assert_eq!(c.check(&act(0, 1, 5), 10), Err(IssueError::CommandBusBusy));
        assert!(c.check(&act(0, 1, 5), 14).is_ok());
    }

    #[test]
    fn trrd_spaces_cross_bank_activates() {
        let mut c = chan(SarpSupport::Disabled);
        c.issue(act(0, 0, 5), 0).unwrap();
        assert_eq!(c.check(&act(0, 1, 5), 3), Err(IssueError::TooEarly));
        c.issue(act(0, 1, 5), 4).unwrap();
        // Different rank: tRRD does not apply.
        c.issue(act(1, 0, 5), 5).unwrap();
    }

    #[test]
    fn tfaw_blocks_fifth_activate() {
        let mut c = chan(SarpSupport::Disabled);
        let t = *c.timing();
        for (i, b) in [0usize, 1, 2, 3].iter().enumerate() {
            c.issue(act(0, *b, 1), i as u64 * t.rrd).unwrap();
        }
        assert_eq!(c.check(&act(0, 4, 1), 16), Err(IssueError::TooEarly));
        c.issue(act(0, 4, 1), t.faw).unwrap();
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut c = chan(SarpSupport::Disabled);
        let t = *c.timing();
        c.issue(act(0, 0, 1), 0).unwrap();
        c.issue(act(0, 1, 1), t.rrd).unwrap();
        let wr = Command::Write {
            rank: 0,
            bank: 0,
            col: 0,
            auto_precharge: false,
        };
        c.issue(wr, t.rcd).unwrap();
        let rd = Command::Read {
            rank: 0,
            bank: 1,
            col: 0,
            auto_precharge: false,
        };
        let earliest = t.rcd + t.cwl + t.bl + t.wtr;
        assert_eq!(c.check(&rd, earliest - 1), Err(IssueError::TooEarly));
        assert!(c.check(&rd, earliest).is_ok());
    }

    #[test]
    fn refab_requires_all_banks_closed() {
        let mut c = chan(SarpSupport::Disabled);
        c.issue(act(0, 3, 9), 0).unwrap();
        let refab = Command::RefreshAllBank {
            rank: 0,
            fgr: FgrMode::X1,
        };
        assert_eq!(c.check(&refab, 100), Err(IssueError::BankNotClosed));
        c.issue(Command::PrechargeAll { rank: 0 }, 24).unwrap();
        // tRP after precharge.
        assert_eq!(c.check(&refab, 30), Err(IssueError::TooEarly));
        let r = c.issue(refab, 40).unwrap();
        assert_eq!(r.refresh_done, Some(40 + c.timing().rfc_ab));
    }

    #[test]
    fn refab_blocks_whole_rank_without_sarp() {
        let mut c = chan(SarpSupport::Disabled);
        let refab = Command::RefreshAllBank {
            rank: 0,
            fgr: FgrMode::X1,
        };
        c.issue(refab, 0).unwrap();
        let rfc = c.timing().rfc_ab;
        assert_eq!(
            c.check(&act(0, 0, 1), rfc - 1),
            Err(IssueError::RefreshBusy)
        );
        assert!(c.check(&act(0, 0, 1), rfc).is_ok());
        // Other rank unaffected.
        assert!(c.check(&act(1, 0, 1), 5).is_ok());
    }

    #[test]
    fn refpb_blocks_only_its_bank_without_sarp() {
        let mut c = chan(SarpSupport::Disabled);
        c.issue(Command::RefreshPerBank { rank: 0, bank: 2 }, 0)
            .unwrap();
        let rfc_pb = c.timing().rfc_pb;
        assert_eq!(
            c.check(&act(0, 2, 1), rfc_pb - 1),
            Err(IssueError::RefreshBusy)
        );
        // Another bank in the same rank is accessible (after tRRD, since a
        // refresh is internally an activation).
        assert!(c.check(&act(0, 3, 1), c.timing().rrd).is_ok());
    }

    #[test]
    fn refpb_no_overlap_within_rank() {
        let mut c = chan(SarpSupport::Disabled);
        c.issue(Command::RefreshPerBank { rank: 0, bank: 0 }, 0)
            .unwrap();
        let next = Command::RefreshPerBank { rank: 0, bank: 1 };
        assert_eq!(
            c.check(&next, c.timing().rrd),
            Err(IssueError::RefpbOverlap)
        );
        assert!(c.check(&next, c.timing().rfc_pb).is_ok());
        // A REFpb in the *other* rank may overlap freely.
        let other_rank = Command::RefreshPerBank { rank: 1, bank: 0 };
        assert!(c.check(&other_rank, 4).is_ok());
    }

    #[test]
    fn refab_names_the_refresh_that_blocks_it() {
        let mut c = chan(SarpSupport::Disabled);
        let refab = Command::RefreshAllBank {
            rank: 0,
            fgr: FgrMode::X1,
        };
        // A REFab in flight is a busy rank, not a REFpb conflict.
        c.issue(refab, 100).unwrap();
        assert!(!c.rank(0).is_refpb_busy(101));
        assert_eq!(c.check(&refab, 101), Err(IssueError::RefreshBusy));
        // A REFpb in flight is.
        let rank1 = Command::RefreshAllBank {
            rank: 1,
            fgr: FgrMode::X1,
        };
        c.issue(Command::RefreshPerBank { rank: 1, bank: 0 }, 102)
            .unwrap();
        assert_eq!(c.check(&rank1, 103), Err(IssueError::RefpbOverlap));
    }

    #[test]
    fn sarp_allows_access_to_other_subarray_during_refpb() {
        let mut c = chan(SarpSupport::Enabled);
        c.issue(Command::RefreshPerBank { rank: 0, bank: 0 }, 0)
            .unwrap();
        // Bank 0 is refreshing subarray 0 (counter starts at row 0).
        assert_eq!(c.refreshing_subarray(0, 0, 1), Some(0));
        // Row in subarray 0 conflicts...
        let conflict = act(0, 0, 5);
        let inflated_rrd = c.rank(0).earliest_act_allowed(0, c.timing());
        assert_eq!(
            c.check(&conflict, inflated_rrd),
            Err(IssueError::SubarrayConflict)
        );
        // ...but a row in subarray 1 is accessible while refreshing.
        let ok = act(0, 0, 8_192);
        assert!(c.check(&ok, inflated_rrd).is_ok());
        c.issue(ok, inflated_rrd).unwrap();
    }

    #[test]
    fn sarp_inflates_trrd_during_refresh_only() {
        let mut c = chan(SarpSupport::Enabled);
        let t = *c.timing();
        c.issue(Command::RefreshPerBank { rank: 0, bank: 0 }, 0)
            .unwrap();
        // Effective tRRD = ceil(4 * 1.1375) = 5 during the refresh.
        assert_eq!(c.check(&act(0, 1, 0), t.rrd), Err(IssueError::TooEarly));
        assert!(c.check(&act(0, 1, 0), 5).is_ok());
        // After the refresh completes, nominal tRRD applies again.
        let after = t.rfc_pb + 10;
        let mut c2 = c.clone();
        c2.issue(act(0, 1, 0), after).unwrap();
        assert!(c2.check(&act(0, 2, 0), after + t.rrd).is_ok());
    }

    #[test]
    fn sarp_allbank_refresh_keeps_rank_accessible() {
        let mut c = chan(SarpSupport::Enabled);
        c.issue(
            Command::RefreshAllBank {
                rank: 0,
                fgr: FgrMode::X1,
            },
            0,
        )
        .unwrap();
        // Every bank refreshes subarray 0; rows in other subarrays work.
        let factor = sarp_inflation(&c.idd, RefreshScope::AllBank);
        let inflated_rrd = (c.timing().rrd as f64 * factor).ceil() as u64;
        assert!(
            inflated_rrd >= 8,
            "2.1x inflation expected, got {inflated_rrd}"
        );
        assert_eq!(
            c.check(&act(0, 0, 0), inflated_rrd),
            Err(IssueError::SubarrayConflict)
        );
        assert!(c.check(&act(0, 0, 8_192), inflated_rrd).is_ok());
    }

    #[test]
    fn refresh_advances_row_counters_and_subarray() {
        let mut c = chan(SarpSupport::Enabled);
        let mut t = 0;
        // 1024 REFpb commands cover subarray 0 (8192 rows / 8 rows each).
        for _ in 0..1024 {
            c.issue(Command::RefreshPerBank { rank: 0, bank: 0 }, t)
                .unwrap();
            t += c.timing().rfc_pb;
        }
        c.issue(Command::RefreshPerBank { rank: 0, bank: 0 }, t)
            .unwrap();
        assert_eq!(c.refreshing_subarray(0, 0, t + 1), Some(1));
    }

    #[test]
    fn command_log_records_issues() {
        let mut c = chan(SarpSupport::Disabled);
        c.enable_command_log();
        c.issue(act(0, 0, 5), 0).unwrap();
        c.issue(
            Command::Read {
                rank: 0,
                bank: 0,
                col: 1,
                auto_precharge: true,
            },
            9,
        )
        .unwrap();
        let log = c.take_command_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, 0);
        assert_eq!(log[1].1.mnemonic(), "RDA");
    }

    #[test]
    fn bad_addresses_are_rejected() {
        let c = chan(SarpSupport::Disabled);
        assert_eq!(c.check(&act(9, 0, 0), 0), Err(IssueError::BadAddress));
        assert_eq!(c.check(&act(0, 99, 0), 0), Err(IssueError::BadAddress));
        assert_eq!(c.check(&act(0, 0, 1 << 20), 0), Err(IssueError::BadAddress));
        let rd = Command::Read {
            rank: 0,
            bank: 0,
            col: 400,
            auto_precharge: false,
        };
        assert_eq!(c.check(&rd, 0), Err(IssueError::BadAddress));
    }

    #[test]
    fn earliest_issue_matches_pointwise_check() {
        // A busy SARP channel: an in-flight REFpb (bank 0, subarray 0), an
        // open row in bank 1, and a recent read on the data bus.
        let mut c = chan(SarpSupport::Enabled);
        c.issue(Command::RefreshPerBank { rank: 0, bank: 0 }, 0)
            .unwrap();
        c.issue(act(0, 1, 3), 5).unwrap();
        c.issue(
            Command::Read {
                rank: 0,
                bank: 1,
                col: 2,
                auto_precharge: false,
            },
            14,
        )
        .unwrap();
        let cmds = [
            act(0, 0, 8_192), // other subarray of the refreshing bank
            act(0, 0, 5),     // conflicting subarray: waits for the refresh
            act(0, 2, 1),
            Command::Read {
                rank: 0,
                bank: 1,
                col: 3,
                auto_precharge: false,
            },
            Command::Write {
                rank: 0,
                bank: 1,
                col: 3,
                auto_precharge: false,
            },
            Command::Precharge { rank: 0, bank: 1 },
            Command::Precharge { rank: 0, bank: 0 }, // closed: state-blocked
            Command::RefreshPerBank { rank: 0, bank: 2 },
            Command::RefreshAllBank {
                rank: 0,
                fgr: FgrMode::X1,
            }, // bank 1 open: state-blocked
        ];
        const HORIZON: Cycle = 400;
        for cmd in &cmds {
            for now in 15..120 {
                let reported = c.earliest_issue(cmd, now);
                let probed = (now..now + HORIZON).find(|&t| c.check(cmd, t).is_ok());
                assert_eq!(
                    reported, probed,
                    "cmd={cmd:?} now={now}: earliest_issue disagrees with check()"
                );
            }
        }
    }

    #[test]
    fn auto_precharge_enables_next_activate_after_ras_rp() {
        let mut c = chan(SarpSupport::Disabled);
        let t = *c.timing();
        c.issue(act(0, 0, 1), 0).unwrap();
        c.issue(
            Command::Read {
                rank: 0,
                bank: 0,
                col: 0,
                auto_precharge: true,
            },
            t.rcd,
        )
        .unwrap();
        // Row closed by auto-precharge; re-activate after tRAS+tRP (>= tRC).
        let ready = (t.ras + t.rp).max(t.rc);
        assert_eq!(c.check(&act(0, 0, 2), ready - 1), Err(IssueError::TooEarly));
        assert!(c.check(&act(0, 0, 2), ready).is_ok());
    }
}
