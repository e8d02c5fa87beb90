//! Adaptive Refresh \[Mukundan+ ISCA'13\] (paper §6.5): dynamically switch
//! between FGR 1x and 4x per refresh, based on observed memory activity.
//!
//! **Modeling note (documented substitution).** Mukundan et al. switch modes
//! on command-queue pressure; like the paper's controller (§7), ours has no
//! command queues, so this implementation switches on demand-queue
//! occupancy: a rank whose demand queues have been empty for a window
//! refreshes in 4x mode (shorter individual interruptions while idle),
//! otherwise in 1x. The paper's own conclusion — AR lands within ~1% of
//! `REFab`, far below DSARP, because 4x FGR is intrinsically more expensive
//! — does not depend on the exact switching heuristic.

use super::{PolicyContext, RefreshDirective, RefreshKind, RefreshPolicy, RefreshTarget, Wake};
use dsarp_dram::{Cycle, FgrMode, TimingParams};

/// Adaptive 1x/4x refresh.
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveRefresh {
    /// Refresh *work* owed, in quarters of a 1x refresh.
    owed_quarters: Vec<u32>,
    next_due: Vec<Cycle>,
    idle_since: Vec<Option<Cycle>>,
    refi_1x: u64,
    /// Idleness window (cycles) after which a rank switches to 4x mode.
    idle_window: u64,
}

impl AdaptiveRefresh {
    /// Creates the policy for `ranks` ranks.
    pub(crate) fn new(ranks: usize, timing: &TimingParams) -> Self {
        Self {
            owed_quarters: vec![0; ranks],
            next_due: vec![timing.refi_ab / 4; ranks],
            idle_since: vec![None; ranks],
            refi_1x: timing.refi_ab,
            idle_window: timing.rfc_ab,
        }
    }
}

impl RefreshPolicy for AdaptiveRefresh {
    fn decide(&mut self, ctx: &PolicyContext<'_>, wake: &mut Wake) -> RefreshDirective {
        for r in 0..self.owed_quarters.len() {
            // Accrue work in quarter-refresh units every tREFIab/4.
            while ctx.now >= self.next_due[r] {
                self.owed_quarters[r] += 1;
                self.next_due[r] += self.refi_1x / 4;
            }
            wake.at(self.next_due[r]);
            // Idleness tracking (mutates on busy/idle edges only).
            let busy = ctx.queues.rank_has_demand(r);
            if busy {
                self.idle_since[r] = None;
            } else if self.idle_since[r].is_none() {
                self.idle_since[r] = Some(ctx.now);
            }
            let owed = self.owed_quarters[r];
            let rank = ctx.chan.rank(r);
            if rank.is_refab_busy(ctx.now) {
                if owed > 0 {
                    wake.at(rank.refab_until());
                }
                continue;
            }
            let crossing = self.idle_since[r].map(|since| since + self.idle_window);
            let idle_long = crossing.is_some_and(|c| ctx.now >= c);
            // 4x commands retire 1 quarter; 1x commands retire 4. Choose 4x
            // when the rank looks idle and a single quarter is due; fall
            // back to 1x when work has piled up (a busy rank defers until
            // a full 1x unit is owed, like the REFab baseline).
            let mode = if idle_long { FgrMode::X4 } else { FgrMode::X1 };
            let quarters_needed = match mode {
                FgrMode::X4 => 1,
                _ => 4,
            };
            if owed >= quarters_needed {
                return RefreshDirective::Urgent(RefreshTarget {
                    rank: r,
                    kind: RefreshKind::AllBank(mode),
                });
            }
            // A quarter is owed and the rank idle, but not for long enough.
            if let (1.., Some(c)) = (owed, crossing) {
                wake.at(c);
            }
        }
        RefreshDirective::None
    }

    fn refresh_issued(&mut self, target: &RefreshTarget, _now: Cycle) {
        let RefreshKind::AllBank(mode) = target.kind else {
            panic!("adaptive refresh issued a per-bank refresh");
        };
        let quarters = match mode {
            FgrMode::X4 => 1,
            FgrMode::X2 => 2,
            FgrMode::X1 => 4,
        };
        self.owed_quarters[target.rank] = self.owed_quarters[target.rank].saturating_sub(quarters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::RequestQueues;
    use crate::request::Request;
    use dsarp_dram::{Density, DramChannel, Geometry, Location, Retention, SarpSupport};

    fn setup() -> (DramChannel, AdaptiveRefresh, TimingParams) {
        let t = TimingParams::ddr3_1333(Density::G32, Retention::Ms32);
        let chan = DramChannel::new(Geometry::paper_default(), t, SarpSupport::Disabled);
        (chan, AdaptiveRefresh::new(1, &t), t)
    }

    #[test]
    fn idle_rank_uses_4x_mode() {
        let (chan, mut p, t) = setup();
        let q = RequestQueues::paper_default();
        // Observe idleness early, then hit a quarter-due time much later.
        let ctx0 = PolicyContext {
            now: 1,
            queues: &q,
            chan: &chan,
        };
        let _ = p.decide(&ctx0, &mut Wake::off());
        let ctx = PolicyContext {
            now: t.refi_ab / 4 + 1,
            queues: &q,
            chan: &chan,
        };
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Urgent(target) => {
                assert_eq!(target.kind, RefreshKind::AllBank(FgrMode::X4));
                p.refresh_issued(&target, t.refi_ab / 4 + 1);
            }
            other => panic!("expected 4x refresh, got {other:?}"),
        }
    }

    #[test]
    fn busy_rank_waits_for_full_1x_unit() {
        let (chan, mut p, t) = setup();
        let mut q = RequestQueues::paper_default();
        q.try_push_read(Request::read(
            1,
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
        // One quarter owed: busy rank does not refresh yet.
        let ctx = PolicyContext {
            now: t.refi_ab / 4 + 1,
            queues: &q,
            chan: &chan,
        };
        assert_eq!(p.decide(&ctx, &mut Wake::off()), RefreshDirective::None);
        // The rank goes idle with that quarter owed: the walk holds until
        // the idle window is crossed or another quarter accrues, and says so.
        let idle = PolicyContext {
            now: t.refi_ab / 4 + 2,
            queues: &RequestQueues::paper_default(),
            chan: &chan,
        };
        let mut wake = Wake::on();
        assert_eq!(p.decide(&idle, &mut wake), RefreshDirective::None);
        let crossing = idle.now + t.rfc_ab;
        assert_eq!(wake.earliest(), Some(crossing.min(2 * (t.refi_ab / 4))));
        // Four quarters owed: busy rank issues a 1x refresh.
        let ctx4 = PolicyContext {
            now: t.refi_ab + 1,
            queues: &q,
            chan: &chan,
        };
        match p.decide(&ctx4, &mut Wake::off()) {
            RefreshDirective::Urgent(target) => {
                assert_eq!(target.kind, RefreshKind::AllBank(FgrMode::X1));
            }
            other => panic!("expected 1x refresh, got {other:?}"),
        }
    }

    #[test]
    fn work_accounting_balances() {
        let (chan, mut p, t) = setup();
        let q = RequestQueues::paper_default();
        let mut issued_quarters = 0u32;
        let mut now = 0;
        while now < 10 * t.refi_ab {
            now += 97;
            let ctx = PolicyContext {
                now,
                queues: &q,
                chan: &chan,
            };
            if let RefreshDirective::Urgent(target) = p.decide(&ctx, &mut Wake::off()) {
                p.refresh_issued(&target, now);
                issued_quarters += match target.kind {
                    RefreshKind::AllBank(FgrMode::X4) => 1,
                    RefreshKind::AllBank(FgrMode::X2) => 2,
                    RefreshKind::AllBank(FgrMode::X1) => 4,
                    _ => unreachable!(),
                };
            }
        }
        // Ten tREFIab of simulated time = 40 quarters of refresh work.
        assert!(
            (36..=44).contains(&(issued_quarters + p.owed_quarters[0])),
            "quarters issued {issued_quarters} + owed {} should be ~40",
            p.owed_quarters[0]
        );
    }
}
