//! DARP — Dynamic Access Refresh Parallelization (paper §4.2).
//!
//! Two components:
//!
//! 1. **Out-of-order per-bank refresh** (Fig. 8): the per-bank refresh
//!    schedule ticks every `tREFIpb`, designating banks round-robin. A due
//!    bank with pending demand requests is *postponed* (its refresh debt
//!    grows); on cycles when no demand command can issue, the controller
//!    instead refreshes a *random idle bank* — either catching up postponed
//!    refreshes or *pulling in* future ones.
//! 2. **Write-refresh parallelization** (Algorithm 1): while the channel
//!    drains its write batch (writeback mode), proactively refresh the bank
//!    with the fewest pending demands, hiding `tRFCpb` behind the writes.
//!
//! Bookkeeping follows the **erratum**: each bank's *refresh debt* is the
//! number of its scheduled refreshes not yet performed. Debt is bounded to
//! `[-8, +8]` — at most 8 postponed (more would violate retention) and at
//! most 8 pulled in (the standard's flexibility window). A bank hitting
//! debt = +8 forces a refresh that outranks demand requests. The workspace
//! integration tests verify the resulting gap bound from the command log.

use super::{PolicyContext, RefreshDirective, RefreshKind, RefreshPolicy, RefreshTarget, Wake};
use dsarp_dram::{Cycle, TimingParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Maximum refreshes a bank may be behind (postponed) or ahead (pulled in).
pub(crate) const MAX_DEBT: i32 = 8;

#[derive(Debug, Clone)]
struct RankState {
    next_tick: Cycle,
    rr: usize,
    debt: Vec<i32>,
}

/// The DARP refresh scheduler.
#[derive(Debug)]
pub(crate) struct Darp {
    ranks: Vec<RankState>,
    refi_pb: u64,
    /// Enable write-refresh parallelization (off for the §6.1.2 breakdown).
    wrp: bool,
    rng: SmallRng,
    stats: DarpStats,
    /// Source of the most recently proposed target, for stats attribution
    /// when the controller actually issues it.
    proposal: Option<(RefreshTarget, Source)>,
    /// Reusable (rank, bank) pools for the out-of-order pick; `decide` runs
    /// on every controller step, so these must not reallocate per call.
    postponed: Vec<(usize, usize)>,
    pullable: Vec<(usize, usize)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Forced,
    WriteParallelized,
    Opportunistic,
}

/// Counters exposing how DARP earned its refreshes (for analysis and the
/// §6.1.2 component breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DarpStats {
    /// Refreshes forced by a bank reaching the postponement limit.
    pub forced: u64,
    /// Refreshes issued during writeback mode by Algorithm 1.
    pub write_parallelized: u64,
    /// Refreshes issued opportunistically to idle banks (Fig. 8 ③).
    pub opportunistic: u64,
    /// Refreshes that served *postponed* debt (the bank was behind
    /// schedule when the refresh issued).
    pub postponed_catchup: u64,
    /// Refreshes *pulled in* ahead of schedule (the bank was at or ahead
    /// of schedule when the refresh issued).
    pub pulled_in: u64,
}

impl Darp {
    /// Creates the scheduler for `ranks` ranks of `banks` banks.
    /// `wrp` enables the write-refresh parallelization component.
    pub(crate) fn new(
        ranks: usize,
        banks: usize,
        timing: &TimingParams,
        seed: u64,
        wrp: bool,
    ) -> Self {
        let refi_pb = timing.refi_pb;
        Self {
            ranks: (0..ranks)
                .map(|_| RankState {
                    next_tick: refi_pb,
                    rr: 0,
                    debt: vec![0; banks],
                })
                .collect(),
            refi_pb,
            wrp,
            rng: SmallRng::seed_from_u64(seed ^ 0xDA29),
            stats: DarpStats::default(),
            proposal: None,
            postponed: Vec::with_capacity(ranks * banks),
            pullable: Vec::with_capacity(ranks * banks),
        }
    }

    fn advance_ticks(&mut self, now: Cycle) {
        for r in &mut self.ranks {
            while now >= r.next_tick {
                // The scheduled bank accrues one more owed refresh. The
                // forced rule below keeps this at +8 in practice; the +1
                // headroom absorbs the cycles while a forced refresh waits
                // for the bank to precharge.
                r.debt[r.rr] = (r.debt[r.rr] + 1).min(MAX_DEBT + 1);
                r.rr = (r.rr + 1) % r.debt.len();
                r.next_tick += self.refi_pb;
            }
        }
    }

    /// Whether `rank` can accept any `REFpb` right now: no `REFpb` and no
    /// `REFab` in flight. Checked once per rank, ahead of its banks.
    fn rank_refreshable(ctx: &PolicyContext<'_>, rank: usize) -> bool {
        let rk = ctx.chan.rank(rank);
        !rk.is_refpb_busy(ctx.now) && !rk.is_refab_busy(ctx.now)
    }

    /// Whether `bank` of a [refreshable](Self::rank_refreshable) rank can
    /// physically accept a `REFpb` right now.
    fn bank_refreshable(ctx: &PolicyContext<'_>, rank: usize, bank: usize) -> bool {
        let b = ctx.chan.rank(rank).bank(bank);
        !b.is_refresh_busy(ctx.now) && b.sarp_refresh(ctx.now).is_none()
    }

    /// The wake side of a walk that found nothing refreshable: the next
    /// schedule tick, and for each bank the walk would take — forced
    /// whatever its demand, idle for the out-of-order pool — the cycle the
    /// last of its blockers ([`Self::rank_refreshable`],
    /// [`Self::bank_refreshable`]) expires; their maximum is exact while
    /// nothing new issues. Algorithm 1's candidates are left out: the
    /// controller never sleeps in or on the edge of writeback mode.
    fn report_blockers(&self, ctx: &PolicyContext<'_>, wake: &mut Wake) {
        for (r, st) in self.ranks.iter().enumerate() {
            wake.at(st.next_tick);
            let rk = ctx.chan.rank(r);
            let rank_clear = rk.refab_until().max(rk.refpb_until());
            for (b, &d) in st.debt.iter().enumerate() {
                if d >= MAX_DEBT || (d > -MAX_DEBT && !ctx.queues.bank_has_demand(r, b)) {
                    let bank = rk.bank(b);
                    let sarp_clear = bank.sarp_refresh(ctx.now).map_or(0, |s| s.until);
                    wake.at(rank_clear.max(bank.refresh_until()).max(sarp_clear));
                }
            }
        }
    }
}

impl RefreshPolicy for Darp {
    fn decide(&mut self, ctx: &PolicyContext<'_>, wake: &mut Wake) -> RefreshDirective {
        self.advance_ticks(ctx.now);

        // 1. Forced: a bank at the postponement limit outranks demands.
        for (r, st) in self.ranks.iter().enumerate() {
            if !Self::rank_refreshable(ctx, r) {
                continue;
            }
            if let Some((bank, _)) = st
                .debt
                .iter()
                .enumerate()
                .filter(|&(b, &d)| d >= MAX_DEBT && Self::bank_refreshable(ctx, r, b))
                .map(|(b, &d)| (b, d))
                .max_by_key(|&(_, d)| d)
            {
                let target = RefreshTarget {
                    rank: r,
                    kind: RefreshKind::PerBank { bank },
                };
                self.proposal = Some((target, Source::Forced));
                return RefreshDirective::Urgent(target);
            }
        }

        // 2. Write-refresh parallelization (Algorithm 1): during writeback
        //    mode, refresh the bank with the fewest pending demands.
        if self.wrp && ctx.queues.in_drain_mode() {
            for (r, st) in self.ranks.iter().enumerate() {
                if !Self::rank_refreshable(ctx, r) {
                    continue;
                }
                let candidate = (0..st.debt.len())
                    .filter(|&b| st.debt[b] > -MAX_DEBT && Self::bank_refreshable(ctx, r, b))
                    .min_by_key(|&b| ctx.queues.demand_count(r, b));
                if let Some(bank) = candidate {
                    let target = RefreshTarget {
                        rank: r,
                        kind: RefreshKind::PerBank { bank },
                    };
                    self.proposal = Some((target, Source::WriteParallelized));
                    return RefreshDirective::Urgent(target);
                }
            }
        }

        // 3. Out-of-order refresh of an idle bank (Fig. 8 ③), served only if
        //    no demand command issues this cycle. Prefer catching up
        //    postponed debt, then pull-ins; pick randomly among candidates.
        self.postponed.clear();
        self.pullable.clear();
        for (r, st) in self.ranks.iter().enumerate() {
            if !Self::rank_refreshable(ctx, r) {
                continue;
            }
            for b in 0..st.debt.len() {
                if ctx.queues.bank_has_demand(r, b)
                    || st.debt[b] <= -MAX_DEBT
                    || !Self::bank_refreshable(ctx, r, b)
                {
                    continue;
                }
                if st.debt[b] > 0 {
                    self.postponed.push((r, b));
                } else {
                    self.pullable.push((r, b));
                }
            }
        }
        let pool = if !self.postponed.is_empty() {
            &self.postponed
        } else {
            &self.pullable
        };
        if pool.is_empty() {
            // The per-bank blocker scan costs more than the walk it follows,
            // so it runs only when the controller asks for the bound.
            if wake.is_on() {
                self.report_blockers(ctx, wake);
            }
            return RefreshDirective::None;
        }
        // The only randomness, drawn on the way to a non-`None` answer.
        let (rank, bank) = pool[self.rng.gen_range(0..pool.len())];
        let target = RefreshTarget {
            rank,
            kind: RefreshKind::PerBank { bank },
        };
        self.proposal = Some((target, Source::Opportunistic));
        RefreshDirective::Relaxed(target)
    }

    fn refresh_issued(&mut self, target: &RefreshTarget, _now: Cycle) {
        let RefreshKind::PerBank { bank } = target.kind else {
            panic!("DARP issued a non-per-bank refresh");
        };
        let d = &mut self.ranks[target.rank].debt[bank];
        // Debt sign *before* the decrement distinguishes catching up
        // postponed refreshes from pulling future ones in (§4.2.2).
        if *d > 0 {
            self.stats.postponed_catchup += 1;
        } else {
            self.stats.pulled_in += 1;
        }
        *d -= 1;
        debug_assert!(*d >= -MAX_DEBT, "pull-in bound violated");
        let source = match self.proposal.take() {
            Some((t, s)) if t == *target => s,
            _ => Source::Opportunistic,
        };
        match source {
            Source::Forced => self.stats.forced += 1,
            Source::WriteParallelized => self.stats.write_parallelized += 1,
            Source::Opportunistic => self.stats.opportunistic += 1,
        }
    }

    fn darp_stats(&self) -> Option<DarpStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::RequestQueues;
    use crate::request::Request;
    use dsarp_dram::{Command, Density, DramChannel, Geometry, Location, Retention, SarpSupport};

    fn timing() -> TimingParams {
        TimingParams::ddr3_1333(Density::G8, Retention::Ms32)
    }

    fn chan() -> DramChannel {
        DramChannel::new(Geometry::paper_default(), timing(), SarpSupport::Disabled)
    }

    /// A channel with a `REFpb` in flight on rank 0 since cycle 0, and the
    /// cycle it completes (before the first schedule tick).
    fn chan_mid_refpb() -> (DramChannel, Cycle) {
        let mut c = chan();
        c.issue(Command::RefreshPerBank { rank: 0, bank: 0 }, 0)
            .expect("idle channel accepts a REFpb");
        let refpb_done = c.rank(0).refpb_until();
        assert!(refpb_done < timing().refi_pb);
        (c, refpb_done)
    }

    fn req(rank: usize, bank: usize) -> Request {
        Request::read(
            1,
            Location {
                channel: 0,
                rank,
                bank,
                row: 0,
                col: 0,
            },
            0,
            0,
        )
    }

    #[test]
    fn ticks_accrue_debt_round_robin() {
        let t = timing();
        let mut p = Darp::new(1, 8, &t, 1, true);
        let c = chan();
        let q = RequestQueues::paper_default();
        // Queue demand on every bank so nothing is refreshable-idle and no
        // pull-ins mask the tick accounting.
        let mut q_busy = q.clone();
        for b in 0..8 {
            q_busy.try_push_read(req(0, b));
        }
        let ctx = PolicyContext {
            now: 3 * t.refi_pb,
            queues: &q_busy,
            chan: &c,
        };
        let _ = p.decide(&ctx, &mut Wake::off());
        assert_eq!(p.ranks[0].debt[0], 1);
        assert_eq!(p.ranks[0].debt[1], 1);
        assert_eq!(p.ranks[0].debt[2], 1);
        assert_eq!(p.ranks[0].debt[3], 0);
    }

    #[test]
    fn postponement_grows_debt_of_busy_bank() {
        let t = timing();
        let mut p = Darp::new(1, 8, &t, 1, true);
        let c = chan();
        let mut q = RequestQueues::paper_default();
        for b in 0..8 {
            q.try_push_read(req(0, b));
        }
        // 24 ticks = 3 full rounds; every bank postponed 3 times.
        let ctx = PolicyContext {
            now: 24 * t.refi_pb,
            queues: &q,
            chan: &c,
        };
        assert_eq!(
            p.decide(&ctx, &mut Wake::off()),
            RefreshDirective::None,
            "all banks busy, none forced yet"
        );
        for b in 0..8 {
            assert_eq!(p.ranks[0].debt[b], 3);
        }
    }

    #[test]
    fn forced_refresh_at_debt_limit_outranks_demands() {
        let t = timing();
        let mut p = Darp::new(1, 8, &t, 1, true);
        let c = chan();
        let mut q = RequestQueues::paper_default();
        for b in 0..8 {
            q.try_push_read(req(0, b));
        }
        // 64 ticks = 8 rounds → every bank at the +8 limit.
        let ctx = PolicyContext {
            now: 64 * t.refi_pb,
            queues: &q,
            chan: &c,
        };
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Urgent(target) => {
                assert_eq!(target.rank, 0);
                assert!(matches!(target.kind, RefreshKind::PerBank { .. }));
                p.refresh_issued(&target, 64 * t.refi_pb);
                assert_eq!(p.stats.forced, 1);
            }
            other => panic!("expected forced urgent refresh, got {other:?}"),
        }
    }

    #[test]
    fn pull_in_prefers_idle_banks_and_respects_floor() {
        let t = timing();
        let mut p = Darp::new(1, 8, &t, 7, true);
        let c = chan();
        let mut q = RequestQueues::paper_default();
        // Banks 0..6 busy; bank 7 idle.
        for b in 0..7 {
            q.try_push_read(req(0, b));
        }
        let ctx = PolicyContext {
            now: 1,
            queues: &q,
            chan: &c,
        };
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Relaxed(target) => {
                assert_eq!(target.kind, RefreshKind::PerBank { bank: 7 });
            }
            other => panic!("expected relaxed pull-in, got {other:?}"),
        }
        // Drive bank 7 to the pull-in floor.
        for _ in 0..MAX_DEBT {
            p.refresh_issued(
                &RefreshTarget {
                    rank: 0,
                    kind: RefreshKind::PerBank { bank: 7 },
                },
                1,
            );
        }
        assert_eq!(p.ranks[0].debt[7], -MAX_DEBT);
        let ctx2 = PolicyContext {
            now: 2,
            queues: &q,
            chan: &c,
        };
        assert_eq!(
            p.decide(&ctx2, &mut Wake::off()),
            RefreshDirective::None,
            "no candidate once the only idle bank hits -8"
        );
    }

    #[test]
    fn postponed_banks_catch_up_before_new_pull_ins() {
        let t = timing();
        let mut p = Darp::new(1, 8, &t, 3, true);
        let c = chan();
        // Make bank 0 postponed (debt > 0) while it is busy...
        let mut q = RequestQueues::paper_default();
        q.try_push_read(req(0, 0));
        let ctx = PolicyContext {
            now: t.refi_pb,
            queues: &q,
            chan: &c,
        };
        let _ = p.decide(&ctx, &mut Wake::off());
        assert_eq!(p.ranks[0].debt[0], 1);
        // ...then it goes idle: the postponed bank must be chosen over
        // random zero-debt banks.
        let q_idle = RequestQueues::paper_default();
        let ctx2 = PolicyContext {
            now: t.refi_pb + 1,
            queues: &q_idle,
            chan: &c,
        };
        match p.decide(&ctx2, &mut Wake::off()) {
            RefreshDirective::Relaxed(target) => {
                assert_eq!(target.kind, RefreshKind::PerBank { bank: 0 });
            }
            other => panic!("expected catch-up on bank 0, got {other:?}"),
        }
    }

    #[test]
    fn write_drain_triggers_algorithm_one() {
        let t = timing();
        let mut p = Darp::new(1, 8, &t, 3, true);
        let c = chan();
        let mut q = RequestQueues::new(64, 64, 4, 2);
        // Fill the write queue past the high watermark: bank 2 has the
        // fewest (zero) demands.
        for i in 0..4 {
            let bank = [0usize, 0, 1, 3][i as usize];
            q.try_push_write(Request::write(
                i,
                Location {
                    channel: 0,
                    rank: 0,
                    bank,
                    row: 0,
                    col: 0,
                },
                0,
                0,
            ));
        }
        q.update_drain_mode();
        assert!(q.in_drain_mode());
        let ctx = PolicyContext {
            now: 5,
            queues: &q,
            chan: &c,
        };
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Urgent(target) => {
                let RefreshKind::PerBank { bank } = target.kind else {
                    unreachable!()
                };
                assert_eq!(q.demand_count(0, bank), 0, "min-demand bank selected");
                p.refresh_issued(&target, 5);
                assert_eq!(p.stats.write_parallelized, 1);
            }
            other => panic!("expected Algorithm 1 refresh, got {other:?}"),
        }
    }

    #[test]
    fn drain_mode_wakes_when_the_refpb_completes_despite_demand() {
        let mut p = Darp::new(1, 8, &timing(), 3, true);
        let (c, refpb_done) = chan_mid_refpb();
        // Writeback mode with demand queued on every bank: nothing is idle,
        // so only Algorithm 1 can act, and only once the REFpb completes.
        let mut q = RequestQueues::new(64, 64, 4, 2);
        for bank in 0..8 {
            q.try_push_write(Request::write(
                bank as u64,
                Location {
                    channel: 0,
                    rank: 0,
                    bank,
                    row: 0,
                    col: 0,
                },
                0,
                0,
            ));
        }
        q.update_drain_mode();
        assert!(q.in_drain_mode());
        // The controller steps every cycle of writeback mode, so there is no
        // bound to report here: each of those walks must hold until the
        // REFpb completes, and the first one after must fire whatever the
        // demand.
        for now in 1..=refpb_done {
            let ctx = PolicyContext {
                now,
                queues: &q,
                chan: &c,
            };
            let fired = matches!(
                p.decide(&ctx, &mut Wake::off()),
                RefreshDirective::Urgent(_)
            );
            assert_eq!(fired, now == refpb_done, "cycle {now}");
        }
    }

    #[test]
    fn sleeps_until_the_refpb_completes() {
        let mut p = Darp::new(1, 8, &timing(), 3, true);
        let (c, refpb_done) = chan_mid_refpb();
        // Every bank is idle and pullable, but the rank already has its one
        // REFpb in flight: the walk holds and reports the cycle it completes
        // — the same on a second walk, which must leave no trace.
        let q = RequestQueues::paper_default();
        let asleep = PolicyContext {
            now: 1,
            queues: &q,
            chan: &c,
        };
        assert_eq!(p.decide(&asleep, &mut Wake::off()), RefreshDirective::None);
        for _ in 0..2 {
            let mut wake = Wake::on();
            assert_eq!(p.decide(&asleep, &mut wake), RefreshDirective::None);
            assert_eq!(wake.earliest(), Some(refpb_done));
        }
        let awake = PolicyContext {
            now: refpb_done,
            queues: &q,
            chan: &c,
        };
        assert!(matches!(
            p.decide(&awake, &mut Wake::off()),
            RefreshDirective::Relaxed(_)
        ));
    }

    #[test]
    fn wrp_disabled_for_component_breakdown() {
        let t = timing();
        let mut p = Darp::new(1, 8, &t, 3, false);
        let c = chan();
        let mut q = RequestQueues::new(64, 64, 2, 1);
        q.try_push_write(Request::write(
            0,
            Location {
                channel: 0,
                rank: 0,
                bank: 0,
                row: 0,
                col: 0,
            },
            0,
            0,
        ));
        q.try_push_write(Request::write(
            1,
            Location {
                channel: 0,
                rank: 0,
                bank: 1,
                row: 0,
                col: 0,
            },
            0,
            0,
        ));
        q.update_drain_mode();
        assert!(q.in_drain_mode());
        let ctx = PolicyContext {
            now: 5,
            queues: &q,
            chan: &c,
        };
        // Without WRP the drain mode does not produce urgent refreshes; the
        // idle banks still get relaxed pull-ins.
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Relaxed(_) => {}
            other => panic!("expected relaxed only, got {other:?}"),
        }
        assert_eq!(p.stats.write_parallelized, 0);
    }

    #[test]
    fn debt_never_leaves_bounds() {
        let t = timing();
        let mut p = Darp::new(2, 8, &t, 11, true);
        let c = chan();
        let q = RequestQueues::paper_default();
        let mut now = 0;
        for step in 0..5_000u64 {
            now += 13;
            let ctx = PolicyContext {
                now,
                queues: &q,
                chan: &c,
            };
            match p.decide(&ctx, &mut Wake::off()) {
                RefreshDirective::Urgent(target) | RefreshDirective::Relaxed(target) => {
                    if step % 3 != 0 {
                        p.refresh_issued(&target, now);
                    }
                }
                RefreshDirective::None => {}
            }
            for r in 0..2 {
                for b in 0..8 {
                    let d = p.ranks[r].debt[b];
                    assert!(
                        (-MAX_DEBT..=MAX_DEBT + 1).contains(&d),
                        "debt {d} out of range"
                    );
                }
            }
        }
    }
}
