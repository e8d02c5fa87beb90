//! Baseline per-bank refresh (`REFpb`, §2.2.2): one bank-level refresh every
//! `tREFIpb`, in the strict sequential round-robin order the LPDDR standard
//! hard-wires into the device.

use super::{PolicyContext, RefreshDirective, RefreshKind, RefreshPolicy, RefreshTarget, Wake};
use dsarp_dram::{Cycle, TimingParams};

/// The LPDDR per-bank refresh scheme. A real LPDDR device keeps the
/// round-robin bank counter; in this model every `REFpb` names its bank, so
/// the order is this policy's `rr` and the device keeps no copy of it.
#[derive(Debug, Clone)]
pub(crate) struct PerBankRefresh {
    next_due: Vec<Cycle>,
    pending: Vec<u32>,
    rr: Vec<usize>,
    banks: usize,
    refi_pb: u64,
}

impl PerBankRefresh {
    /// Creates the policy for `ranks` ranks of `banks` banks.
    pub(crate) fn new(ranks: usize, banks: usize, timing: &TimingParams) -> Self {
        let refi_pb = timing.refi_pb;
        Self {
            next_due: vec![refi_pb; ranks],
            pending: vec![0; ranks],
            rr: vec![0; ranks],
            banks,
            refi_pb,
        }
    }
}

impl RefreshPolicy for PerBankRefresh {
    fn decide(&mut self, ctx: &PolicyContext<'_>, wake: &mut Wake) -> RefreshDirective {
        for r in 0..self.next_due.len() {
            while ctx.now >= self.next_due[r] {
                self.pending[r] += 1;
                self.next_due[r] += self.refi_pb;
            }
            wake.at(self.next_due[r]);
            if self.pending[r] == 0 {
                continue;
            }
            // The JEDEC rule serializes REFpb within a rank: wait out an
            // in-flight one before requesting the next.
            let free = ctx.chan.rank(r).refpb_until();
            if ctx.now >= free {
                return RefreshDirective::Urgent(RefreshTarget {
                    rank: r,
                    kind: RefreshKind::PerBank { bank: self.rr[r] },
                });
            }
            wake.at(free);
        }
        RefreshDirective::None
    }

    fn refresh_issued(&mut self, target: &RefreshTarget, _now: Cycle) {
        let RefreshKind::PerBank { bank } = target.kind else {
            panic!("per-bank policy issued a non-per-bank refresh");
        };
        debug_assert_eq!(
            bank, self.rr[target.rank],
            "baseline must follow round-robin"
        );
        self.pending[target.rank] = self.pending[target.rank].saturating_sub(1);
        self.rr[target.rank] = (self.rr[target.rank] + 1) % self.banks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::RequestQueues;
    use dsarp_dram::{Density, DramChannel, Geometry, Retention, SarpSupport};

    fn setup() -> (DramChannel, RequestQueues, PerBankRefresh, TimingParams) {
        let t = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        let chan = DramChannel::new(Geometry::paper_default(), t, SarpSupport::Disabled);
        let q = RequestQueues::paper_default();
        let p = PerBankRefresh::new(2, 8, &t);
        (chan, q, p, t)
    }

    #[test]
    fn round_robin_order() {
        let (chan, q, mut p, t) = setup();
        for i in 0..10u64 {
            let now = t.refi_pb * (i + 1);
            let ctx = PolicyContext {
                now,
                queues: &q,
                chan: &chan,
            };
            match p.decide(&ctx, &mut Wake::off()) {
                RefreshDirective::Urgent(target) => {
                    assert_eq!(target.rank, 0, "rank 0 due first each tick");
                    assert_eq!(
                        target.kind,
                        RefreshKind::PerBank {
                            bank: (i % 8) as usize
                        }
                    );
                    p.refresh_issued(&target, now);
                    // Serve rank 1's tick too so it does not back up.
                    let ctx2 = PolicyContext {
                        now: now + 1,
                        queues: &q,
                        chan: &chan,
                    };
                    if let RefreshDirective::Urgent(t1) = p.decide(&ctx2, &mut Wake::off()) {
                        assert_eq!(t1.rank, 1);
                        p.refresh_issued(&t1, now + 1);
                    }
                }
                other => panic!("tick {i}: expected urgent, got {other:?}"),
            }
        }
        assert_eq!(p.rr[0], 10 % 8);
    }

    #[test]
    fn eight_times_the_refab_rate() {
        let t = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        assert_eq!(t.refi_pb * 8, t.refi_ab);
    }

    #[test]
    fn waits_out_inflight_refpb() {
        let (mut chan, q, mut p, t) = setup();
        chan.issue(
            dsarp_dram::Command::RefreshPerBank { rank: 0, bank: 0 },
            t.refi_pb - 10,
        )
        .unwrap();
        // While rank 0's REFpb is in flight, rank 0 is skipped even if due.
        let ctx = PolicyContext {
            now: t.refi_pb,
            queues: &q,
            chan: &chan,
        };
        match p.decide(&ctx, &mut Wake::off()) {
            RefreshDirective::Urgent(target) => assert_eq!(target.rank, 1),
            RefreshDirective::None => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
