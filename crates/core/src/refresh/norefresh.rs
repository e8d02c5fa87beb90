//! The ideal no-refresh bound ("No REF" in the paper's figures).

use super::{PolicyContext, RefreshDirective, RefreshPolicy, RefreshTarget, Wake};
use dsarp_dram::Cycle;

/// Never refreshes. The upper bound every real policy is compared against.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoRefresh;

impl RefreshPolicy for NoRefresh {
    /// No gate ever opens, so nothing is reported and the controller may
    /// sleep for good.
    fn decide(&mut self, _ctx: &PolicyContext<'_>, _wake: &mut Wake) -> RefreshDirective {
        RefreshDirective::None
    }

    fn refresh_issued(&mut self, _target: &RefreshTarget, _now: Cycle) {
        unreachable!("NoRefresh never requests a refresh");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::RequestQueues;
    use dsarp_dram::{Density, DramChannel, Geometry, Retention, SarpSupport, TimingParams};

    #[test]
    fn always_none() {
        let chan = DramChannel::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1333(Density::G8, Retention::Ms32),
            SarpSupport::Disabled,
        );
        let q = RequestQueues::paper_default();
        let mut p = NoRefresh;
        for now in [0u64, 10_000, 1_000_000] {
            let ctx = PolicyContext {
                now,
                queues: &q,
                chan: &chan,
            };
            let mut wake = Wake::on();
            assert_eq!(p.decide(&ctx, &mut wake), RefreshDirective::None);
            assert_eq!(wake.earliest(), None, "nothing to wake for");
        }
    }
}
