//! Refresh-scheduling policies.
//!
//! Every mechanism the paper evaluates (§6) is a [`RefreshPolicy`]
//! implementation: one *gate walk* ([`RefreshPolicy::decide`]) that the
//! controller runs on each cycle it steps, ahead of demand scheduling. The
//! walk answers with a [`RefreshDirective`]; *urgent* directives outrank
//! demand requests (the controller precharges the target and issues the
//! refresh as soon as the timing allows), *relaxed* directives are served
//! only on cycles when no demand command could issue (DARP's idle-bank
//! pull-in, Fig. 8 ③). The same walk is the policy's event source for the
//! skip-ahead loop: every time-based gate it finds closed reports the cycle
//! it opens to the [`Wake`] sink the controller passes in.

use crate::queues::RequestQueues;
use dsarp_dram::{Cycle, DramChannel, FgrMode, SarpSupport, TimingParams};
use serde::{Deserialize, Serialize};

mod adaptive;
mod allbank;
mod darp;
mod elastic;
mod norefresh;
mod perbank;

use adaptive::AdaptiveRefresh;
use allbank::AllBankRefresh;
use darp::Darp;
pub use darp::DarpStats;
use elastic::ElasticRefresh;
use norefresh::NoRefresh;
use perbank::PerBankRefresh;

/// What to refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshKind {
    /// `REFab` in the given fine-granularity mode.
    AllBank(FgrMode),
    /// `REFpb` to one bank.
    PerBank {
        /// Bank to refresh.
        bank: usize,
    },
}

/// A refresh the policy wants issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshTarget {
    /// Target rank.
    pub rank: usize,
    /// Granularity and (for per-bank) the bank.
    pub kind: RefreshKind,
}

/// The policy's decision for this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshDirective {
    /// Nothing to do.
    None,
    /// Issue as soon as legal; outranks demand scheduling to the target.
    Urgent(RefreshTarget),
    /// Issue only if no demand command could be issued this cycle.
    Relaxed(RefreshTarget),
}

/// Read-only controller state handed to the policy's walk.
pub struct PolicyContext<'a> {
    /// Current DRAM cycle.
    pub now: Cycle,
    /// The demand queues (occupancies drive DARP and Elastic decisions).
    pub queues: &'a RequestQueues,
    /// The DRAM channel (refresh-in-flight state, timing).
    pub chan: &'a DramChannel,
}

/// Where a gate walk reports when its closed gates open. The controller
/// alone constructs one: [`Wake::off`] for the walk `step` acts on (a report
/// is then a no-op, so `step` never pays for the bound), [`Wake::on`] to
/// collect the earliest reported cycle.
pub struct Wake(Option<Cycle>);

impl Wake {
    /// A sink that discards every report.
    pub fn off() -> Self {
        Wake(None)
    }

    /// A sink that keeps the earliest reported cycle.
    pub fn on() -> Self {
        Wake(Some(Cycle::MAX))
    }

    /// Whether reports are kept — a walk may skip work that only feeds them.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Reports that a gate closed now opens at cycle `t`.
    pub fn at(&mut self, t: Cycle) {
        if let Some(earliest) = &mut self.0 {
            *earliest = (*earliest).min(t);
        }
    }

    /// The earliest reported cycle; `None` when off or nothing reported.
    pub fn earliest(&self) -> Option<Cycle> {
        self.0.filter(|&t| t != Cycle::MAX)
    }
}

/// A refresh-scheduling policy (one instance per channel).
pub trait RefreshPolicy: std::fmt::Debug + Send {
    /// The policy's one gate walk, run before demand scheduling on every
    /// cycle the controller steps: what to refresh at `ctx.now`, if anything.
    ///
    /// The walk doubles as the policy's event source. Every *time-based*
    /// gate it finds closed — the next `tREFI` tick, a refresh still in
    /// flight, an idle threshold not yet crossed — must report the cycle it
    /// opens to `wake`; gates that only a command or an arriving request can
    /// open report nothing, because either wakes the controller anyway. When
    /// the walk answers [`RefreshDirective::None`], the earliest report is
    /// then the first cycle it could answer otherwise, as long as nothing
    /// issues or arrives in between. A report that is too early is always
    /// exact; one that is too late would break cycle-exactness.
    ///
    /// The controller walks with the sink off in `step` and, to put itself
    /// to sleep, walks *again at the same cycle* with the sink on — only
    /// after a walk that answered `None`, with nothing issued or accepted
    /// since. The second walk is exact because, on unchanged state at the
    /// same cycle, every mutation a walk makes must be idempotent (tick
    /// accrual, idle-edge tracking) and randomness may be drawn only on the
    /// way to a non-`None` answer.
    fn decide(&mut self, ctx: &PolicyContext<'_>, wake: &mut Wake) -> RefreshDirective;

    /// Notification that the controller issued `target` at `now`.
    fn refresh_issued(&mut self, target: &RefreshTarget, now: Cycle);

    /// How DARP earned its refreshes; `None` for every other policy.
    fn darp_stats(&self) -> Option<DarpStats> {
        None
    }
}

/// The named mechanisms evaluated in the paper, as configuration values.
///
/// A mechanism bundles a refresh policy with whether the DRAM device has the
/// SARP modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mechanism {
    /// Ideal: no refreshes at all ("No REF").
    NoRefresh,
    /// Baseline all-bank refresh (`REFab`).
    RefAb,
    /// Baseline round-robin per-bank refresh (`REFpb`).
    RefPb,
    /// Elastic refresh \[Stuecheli+ MICRO'10\] on all-bank refresh.
    Elastic,
    /// DARP: out-of-order per-bank refresh + write-refresh parallelization.
    Darp,
    /// DARP with only the out-of-order component (§6.1.2 breakdown).
    DarpOooOnly,
    /// SARP applied to all-bank refresh.
    SarpAb,
    /// SARP applied to per-bank refresh.
    SarpPb,
    /// DARP + SARPpb (the paper's headline mechanism).
    Dsarp,
    /// DDR4 fine-granularity refresh, 2x mode.
    Fgr2x,
    /// DDR4 fine-granularity refresh, 4x mode.
    Fgr4x,
    /// Adaptive refresh \[Mukundan+ ISCA'13\]: dynamic 1x/4x switching.
    AdaptiveRefresh,
}

impl Mechanism {
    /// Every mechanism, in declaration order.
    pub const ALL: [Mechanism; 12] = {
        use Mechanism::*;
        // Exhaustive on purpose: a new variant stops this compiling until
        // it is listed here and in the array below.
        match NoRefresh {
            NoRefresh | RefAb | RefPb | Elastic | Darp | DarpOooOnly | SarpAb | SarpPb | Dsarp
            | Fgr2x | Fgr4x | AdaptiveRefresh => {}
        }
        [
            NoRefresh,
            RefAb,
            RefPb,
            Elastic,
            Darp,
            DarpOooOnly,
            SarpAb,
            SarpPb,
            Dsarp,
            Fgr2x,
            Fgr4x,
            AdaptiveRefresh,
        ]
    };

    /// Whether the DRAM device must be built with SARP support.
    pub fn sarp_support(self) -> SarpSupport {
        match self {
            Mechanism::SarpAb | Mechanism::SarpPb | Mechanism::Dsarp => SarpSupport::Enabled,
            _ => SarpSupport::Disabled,
        }
    }

    /// Always 1: one `REFpb` in flight per rank. Exists only for the call in
    /// `ledger/src/sim.rs` and goes with it.
    pub fn refpb_overlap_ways(self) -> usize {
        1
    }

    /// Builds the policy instance for one channel.
    ///
    /// `banks_per_rank`/`ranks` describe the channel; `seed` feeds DARP's
    /// random idle-bank selection.
    pub(crate) fn build_policy(
        self,
        ranks: usize,
        banks_per_rank: usize,
        timing: &TimingParams,
        seed: u64,
    ) -> Box<dyn RefreshPolicy> {
        match self {
            Mechanism::NoRefresh => Box::new(NoRefresh),
            Mechanism::RefAb | Mechanism::SarpAb => {
                Box::new(AllBankRefresh::new(ranks, timing, FgrMode::X1))
            }
            Mechanism::RefPb | Mechanism::SarpPb => {
                Box::new(PerBankRefresh::new(ranks, banks_per_rank, timing))
            }
            Mechanism::Elastic => Box::new(ElasticRefresh::new(ranks, timing)),
            Mechanism::Darp | Mechanism::Dsarp => {
                Box::new(Darp::new(ranks, banks_per_rank, timing, seed, true))
            }
            Mechanism::DarpOooOnly => {
                Box::new(Darp::new(ranks, banks_per_rank, timing, seed, false))
            }
            Mechanism::Fgr2x => Box::new(AllBankRefresh::new(ranks, timing, FgrMode::X2)),
            Mechanism::Fgr4x => Box::new(AllBankRefresh::new(ranks, timing, FgrMode::X4)),
            Mechanism::AdaptiveRefresh => Box::new(AdaptiveRefresh::new(ranks, timing)),
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::NoRefresh => "No REF",
            Mechanism::RefAb => "REFab",
            Mechanism::RefPb => "REFpb",
            Mechanism::Elastic => "Elastic",
            Mechanism::Darp => "DARP",
            Mechanism::DarpOooOnly => "DARP (OoO only)",
            Mechanism::SarpAb => "SARPab",
            Mechanism::SarpPb => "SARPpb",
            Mechanism::Dsarp => "DSARP",
            Mechanism::Fgr2x => "FGR 2x",
            Mechanism::Fgr4x => "FGR 4x",
            Mechanism::AdaptiveRefresh => "AR",
        }
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsarp_dram::{Density, FgrMode, Geometry, Retention};

    #[test]
    fn sarp_mapping_matches_paper_table() {
        assert_eq!(Mechanism::RefAb.sarp_support(), SarpSupport::Disabled);
        assert_eq!(Mechanism::SarpAb.sarp_support(), SarpSupport::Enabled);
        assert_eq!(Mechanism::SarpPb.sarp_support(), SarpSupport::Enabled);
        assert_eq!(Mechanism::Dsarp.sarp_support(), SarpSupport::Enabled);
        assert_eq!(Mechanism::Darp.sarp_support(), SarpSupport::Disabled);
    }

    #[test]
    fn build_all_policies() {
        let t = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        for m in Mechanism::ALL {
            let _ = m.build_policy(2, 8, &t, 1);
            assert!(!m.label().is_empty());
        }
    }

    #[test]
    fn fgr_scales_rows_per_command() {
        let geom = Geometry::paper_default();
        assert_eq!(geom.rows_per_command(FgrMode::X1), 8);
        assert_eq!(geom.rows_per_command(FgrMode::X2), 4);
        assert_eq!(geom.rows_per_command(FgrMode::X4), 2);
    }
}
