//! Baseline all-bank refresh (`REFab`, §2.2.1): one rank-level refresh every
//! `tREFIab`, issued on schedule with no postponement — and, in its 2×/4×
//! modes, DDR4 Fine Granularity Refresh (§6.5).

use super::{PolicyContext, RefreshDirective, RefreshKind, RefreshPolicy, RefreshTarget, Wake};
use dsarp_dram::{Cycle, FgrMode, TimingParams};

/// The commodity DDR refresh scheme: every `tREFIab` each rank owes one
/// `REFab`, which the controller issues as soon as it can precharge the
/// rank. Pending refreshes accumulate while a refresh is already in flight.
///
/// FGR is the same schedule in another mode: every command is issued in
/// the configured [`FgrMode`], with `tREFIab` divided by the rate. Because
/// `tRFCab` shrinks by only 1.35×/1.63× while the rate grows 2×/4×, the
/// total refresh-busy time *increases* — the paper's Figure 16 shows FGR
/// losing to plain `REFab`, and this implementation reproduces that.
#[derive(Debug, Clone)]
pub(crate) struct AllBankRefresh {
    mode: FgrMode,
    next_due: Vec<Cycle>,
    pending: Vec<u32>,
    refi: u64,
}

impl AllBankRefresh {
    /// Creates the policy for `ranks` ranks in `mode` ([`FgrMode::X1`] is
    /// plain `REFab`).
    pub(crate) fn new(ranks: usize, timing: &TimingParams, mode: FgrMode) -> Self {
        let refi = timing.refi_ab_for(mode);
        Self {
            mode,
            next_due: vec![refi; ranks],
            pending: vec![0; ranks],
            refi,
        }
    }

    fn accrue(&mut self, now: Cycle) {
        for r in 0..self.next_due.len() {
            while now >= self.next_due[r] {
                self.pending[r] += 1;
                self.next_due[r] += self.refi;
            }
        }
    }
}

impl RefreshPolicy for AllBankRefresh {
    fn decide(&mut self, ctx: &PolicyContext<'_>, wake: &mut Wake) -> RefreshDirective {
        self.accrue(ctx.now);
        for r in 0..self.pending.len() {
            wake.at(self.next_due[r]);
            if self.pending[r] == 0 {
                continue;
            }
            let rank = ctx.chan.rank(r);
            if rank.is_refab_busy(ctx.now) {
                wake.at(rank.refab_until());
                continue;
            }
            // SARP-ab refreshes do not set the blocking flag; avoid
            // requesting a second refresh until every in-flight window ends.
            let sarp_windows = rank.banks().filter_map(|b| b.sarp_refresh(ctx.now));
            if let Some(until) = sarp_windows.map(|s| s.until).max() {
                wake.at(until);
                continue;
            }
            return RefreshDirective::Urgent(RefreshTarget {
                rank: r,
                kind: RefreshKind::AllBank(self.mode),
            });
        }
        RefreshDirective::None
    }

    fn refresh_issued(&mut self, target: &RefreshTarget, _now: Cycle) {
        debug_assert!(matches!(target.kind, RefreshKind::AllBank(_)));
        self.pending[target.rank] = self.pending[target.rank].saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::RequestQueues;
    use dsarp_dram::{Density, DramChannel, Geometry, Retention, SarpSupport};

    fn setup() -> (DramChannel, RequestQueues, AllBankRefresh, TimingParams) {
        let t = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        let chan = DramChannel::new(Geometry::paper_default(), t, SarpSupport::Disabled);
        let q = RequestQueues::paper_default();
        let p = AllBankRefresh::new(2, &t, FgrMode::X1);
        (chan, q, p, t)
    }

    #[test]
    fn quiet_before_first_interval() {
        let (chan, q, mut p, t) = setup();
        let ctx = PolicyContext {
            now: t.refi_ab - 1,
            queues: &q,
            chan: &chan,
        };
        let mut wake = Wake::on();
        assert_eq!(p.decide(&ctx, &mut wake), RefreshDirective::None);
        assert_eq!(wake.earliest(), Some(t.refi_ab), "the first tick");
    }

    #[test]
    fn urgent_at_interval_and_cleared_on_issue() {
        let (chan, q, mut p, t) = setup();
        let ctx = PolicyContext {
            now: t.refi_ab,
            queues: &q,
            chan: &chan,
        };
        let d = p.decide(&ctx, &mut Wake::off());
        let target = match d {
            RefreshDirective::Urgent(t) => t,
            other => panic!("expected urgent, got {other:?}"),
        };
        assert_eq!(target.rank, 0);
        p.refresh_issued(&target, t.refi_ab);
        assert_eq!(p.pending[0], 0);
        // Rank 1 still owes one.
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Urgent(t2) => assert_eq!(t2.rank, 1),
            other => panic!("expected urgent for rank 1, got {other:?}"),
        }
    }

    #[test]
    fn obligations_accumulate_if_unserved() {
        let (chan, q, mut p, t) = setup();
        let ctx = PolicyContext {
            now: 3 * t.refi_ab + 1,
            queues: &q,
            chan: &chan,
        };
        let _ = p.decide(&ctx, &mut Wake::off());
        assert_eq!(p.pending[0], 3);
        assert_eq!(p.pending[1], 3);
    }

    #[test]
    fn not_rerequested_while_in_flight() {
        let (mut chan, q, mut p, t) = setup();
        chan.issue(
            dsarp_dram::Command::RefreshAllBank {
                rank: 0,
                fgr: FgrMode::X1,
            },
            0,
        )
        .unwrap();
        let ctx = PolicyContext {
            now: t.refi_ab,
            queues: &q,
            chan: &chan,
        };
        // refi_ab (2600) > rfc_ab (234), so the refresh finished: rank 0 ok.
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Urgent(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        // But while one is mid-flight, the rank is skipped.
        let mut chan2 = DramChannel::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1333(Density::G8, Retention::Ms32),
            SarpSupport::Disabled,
        );
        chan2
            .issue(
                dsarp_dram::Command::RefreshAllBank {
                    rank: 0,
                    fgr: FgrMode::X1,
                },
                t.refi_ab - 1,
            )
            .unwrap();
        let ctx2 = PolicyContext {
            now: t.refi_ab,
            queues: &q,
            chan: &chan2,
        };
        match p.decide(&ctx2, &mut Wake::off()) {
            RefreshDirective::Urgent(t2) => {
                assert_eq!(t2.rank, 1, "rank 0 is busy; rank 1 serves its debt")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn four_x_mode_refreshes_four_times_as_often() {
        let t = TimingParams::ddr3_1333(Density::G32, Retention::Ms32);
        let chan = DramChannel::new(Geometry::paper_default(), t, SarpSupport::Disabled);
        let q = RequestQueues::paper_default();
        let mut p = AllBankRefresh::new(1, &t, FgrMode::X4);
        let ctx = PolicyContext {
            now: t.refi_ab,
            queues: &q,
            chan: &chan,
        };
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Urgent(target) => {
                assert_eq!(target.kind, RefreshKind::AllBank(FgrMode::X4));
            }
            other => panic!("expected urgent, got {other:?}"),
        }
        assert_eq!(p.pending[0], 4);
    }

    #[test]
    fn worst_case_busy_time_exceeds_refab() {
        // rate * tRFC(mode) > tRFC(1x): the §6.5 pathology.
        let t = TimingParams::ddr3_1333(Density::G32, Retention::Ms32);
        for (mode, min_ratio) in [(FgrMode::X2, 1.4), (FgrMode::X4, 2.4)] {
            let busy = (mode.rate() * t.rfc_ab_for(mode)) as f64;
            let base = t.rfc_ab_for(FgrMode::X1) as f64;
            assert!(busy / base > min_ratio, "{mode}: {}", busy / base);
        }
    }
}
