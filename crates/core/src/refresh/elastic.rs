//! Elastic Refresh \[Stuecheli+ MICRO'10\], the paper's third baseline (§6).
//!
//! Elastic refresh exploits the DDR standard's allowance of up to eight
//! postponed all-bank refreshes: it delays a due `REFab` until the rank has
//! been idle (no pending demand requests) for a threshold that *shrinks* as
//! the postponement backlog grows, and forces the refresh once eight are
//! postponed. The idle threshold is derived from a running estimate of the
//! rank's average idle-period length, as in the original proposal.
//!
//! The paper (§7) points out the scheme's two weaknesses — it cannot hide
//! refreshes when idle periods are shorter than `tRFCab`, and mispredicted
//! idleness stalls demand requests — both of which emerge naturally from
//! this implementation.

use super::{PolicyContext, RefreshDirective, RefreshKind, RefreshPolicy, RefreshTarget, Wake};
use dsarp_dram::{Cycle, FgrMode, TimingParams};

/// Maximum refreshes the DDR standard lets a rank postpone.
pub(crate) const MAX_POSTPONED: u32 = 8;

#[derive(Debug, Clone)]
struct RankState {
    next_due: Cycle,
    pending: u32,
    idle_since: Option<Cycle>,
    /// EWMA of observed idle-period lengths (cycles).
    avg_idle: f64,
}

/// The elastic refresh policy.
#[derive(Debug, Clone)]
pub(crate) struct ElasticRefresh {
    ranks: Vec<RankState>,
    refi: u64,
    rfc: u64,
}

impl ElasticRefresh {
    /// Creates the policy for `ranks` ranks.
    pub(crate) fn new(ranks: usize, timing: &TimingParams) -> Self {
        let refi = timing.refi_ab;
        Self {
            ranks: (0..ranks)
                .map(|_| RankState {
                    next_due: refi,
                    pending: 0,
                    idle_since: None,
                    avg_idle: timing.rfc_ab as f64,
                })
                .collect(),
            refi,
            rfc: timing.rfc_ab,
        }
    }

    /// Idle threshold before issuing with `pending` refreshes outstanding:
    /// proportional to the estimated idle-period length, shrinking linearly
    /// to zero at the forced limit.
    fn idle_threshold(&self, rank: usize, pending: u32) -> u64 {
        if pending >= MAX_POSTPONED {
            return 0;
        }
        let scale = (MAX_POSTPONED - pending) as f64 / MAX_POSTPONED as f64;
        ((self.ranks[rank].avg_idle.max(self.rfc as f64)) * scale) as u64
    }
}

impl RefreshPolicy for ElasticRefresh {
    fn decide(&mut self, ctx: &PolicyContext<'_>, wake: &mut Wake) -> RefreshDirective {
        for r in 0..self.ranks.len() {
            // Track idleness and the idle-period estimator. Only a busy/idle
            // edge mutates, so a second walk at the same cycle changes nothing.
            let busy = ctx.queues.rank_has_demand(r);
            match (busy, self.ranks[r].idle_since) {
                (false, None) => self.ranks[r].idle_since = Some(ctx.now),
                (true, Some(since)) => {
                    let len = (ctx.now - since) as f64;
                    let s = &mut self.ranks[r];
                    s.avg_idle = 0.875 * s.avg_idle + 0.125 * len;
                    s.idle_since = None;
                }
                _ => {}
            }

            while ctx.now >= self.ranks[r].next_due {
                // Accrue, saturating at the standard's postponement cap
                // (beyond it we must already be forcing).
                self.ranks[r].pending = (self.ranks[r].pending + 1).min(MAX_POSTPONED);
                self.ranks[r].next_due += self.refi;
            }
            wake.at(self.ranks[r].next_due);

            let pending = self.ranks[r].pending;
            if pending == 0 {
                continue;
            }
            let rank = ctx.chan.rank(r);
            if rank.is_refab_busy(ctx.now) {
                wake.at(rank.refab_until());
                continue;
            }
            let target = RefreshTarget {
                rank: r,
                kind: RefreshKind::AllBank(FgrMode::X1),
            };
            if pending >= MAX_POSTPONED {
                return RefreshDirective::Urgent(target);
            }
            // A busy rank below the cap waits for an accrual or an idle edge.
            if let Some(since) = self.ranks[r].idle_since {
                let crossing = since + self.idle_threshold(r, pending);
                if ctx.now >= crossing {
                    return RefreshDirective::Urgent(target);
                }
                wake.at(crossing);
            }
        }
        RefreshDirective::None
    }

    fn refresh_issued(&mut self, target: &RefreshTarget, _now: Cycle) {
        let s = &mut self.ranks[target.rank];
        s.pending = s.pending.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::RequestQueues;
    use crate::request::Request;
    use dsarp_dram::{Density, DramChannel, Geometry, Location, Retention, SarpSupport};

    fn setup() -> (DramChannel, ElasticRefresh, TimingParams) {
        let t = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        let chan = DramChannel::new(Geometry::paper_default(), t, SarpSupport::Disabled);
        (chan, ElasticRefresh::new(2, &t), t)
    }

    fn busy_queues(rank: usize) -> RequestQueues {
        let mut q = RequestQueues::paper_default();
        let loc = Location {
            channel: 0,
            rank,
            bank: 0,
            row: 0,
            col: 0,
        };
        q.try_push_read(Request::read(1, loc, 0, 0));
        q
    }

    #[test]
    fn postpones_while_rank_is_busy() {
        let (chan, mut p, t) = setup();
        let q = busy_queues(0);
        // Rank 0 busy: its refresh is postponed. Rank 1 idle: issued.
        let ctx = PolicyContext {
            now: t.refi_ab + 1,
            queues: &q,
            chan: &chan,
        };
        // First decide observes idleness start for rank 1; idle threshold
        // not yet met, so nothing fires immediately, and the walk reports
        // the cycle the threshold is crossed...
        let mut wake = Wake::on();
        assert_eq!(p.decide(&ctx, &mut wake), RefreshDirective::None);
        assert_eq!(p.ranks[0].pending, 1);
        let crossing = t.refi_ab + 1 + p.idle_threshold(1, 1);
        assert_eq!(wake.earliest(), Some(crossing));
        let just_before = PolicyContext {
            now: crossing - 1,
            queues: &q,
            chan: &chan,
        };
        assert_eq!(
            p.decide(&just_before, &mut Wake::off()),
            RefreshDirective::None
        );
        // ...which is exactly when rank 1 fires.
        let ctx2 = PolicyContext {
            now: crossing,
            queues: &q,
            chan: &chan,
        };
        match p.decide(&ctx2, &mut Wake::off()) {
            RefreshDirective::Urgent(target) => assert_eq!(target.rank, 1),
            other => panic!("expected rank 1 refresh, got {other:?}"),
        }
    }

    #[test]
    fn forces_after_eight_postponements() {
        let (chan, mut p, t) = setup();
        let q = busy_queues(0);
        let now = 9 * t.refi_ab;
        let ctx = PolicyContext {
            now,
            queues: &q,
            chan: &chan,
        };
        // Rank 0 has been busy for 9 intervals: pending caps at 8 => forced
        // even though the rank is busy.
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Urgent(target) => {
                assert_eq!(target.rank, 0);
                assert_eq!(p.ranks[0].pending, 8);
            }
            other => panic!("expected forced refresh, got {other:?}"),
        }
    }

    #[test]
    fn threshold_shrinks_with_backlog() {
        let (_, p, _) = setup();
        let t0 = p.idle_threshold(0, 0);
        let t4 = p.idle_threshold(0, 4);
        let t7 = p.idle_threshold(0, 7);
        assert!(t0 > t4 && t4 > t7, "{t0} > {t4} > {t7}");
        assert_eq!(p.idle_threshold(0, 8), 0);
    }

    #[test]
    fn issue_decrements_backlog() {
        let (chan, mut p, t) = setup();
        let q = RequestQueues::paper_default();
        let now = 3 * t.refi_ab;
        let ctx = PolicyContext {
            now,
            queues: &q,
            chan: &chan,
        };
        let _ = p.decide(&ctx, &mut Wake::off());
        let before = p.ranks[0].pending;
        p.refresh_issued(
            &RefreshTarget {
                rank: 0,
                kind: RefreshKind::AllBank(FgrMode::X1),
            },
            now,
        );
        assert_eq!(p.ranks[0].pending, before - 1);
    }
}
