//! SARP (Subarray Access Refresh Parallelization) device support.
//!
//! SARP (paper §4.3) modifies the DRAM bank so that one subarray can be kept
//! activated for refresh while a *different* subarray is activated for an
//! access. The two enablers (decoupled refresh-subarray/local-row counters,
//! and the per-subarray column-select gate) are modeled behaviourally:
//!
//! * a refreshing bank records which subarray its refresh occupies
//!   ([`crate::bank::SarpRefresh`]);
//! * `ACT` to that bank is legal iff the target row lies in a different
//!   subarray;
//! * while a parallelized refresh is in flight in a rank, `tFAW` and `tRRD`
//!   are inflated by the power-integrity factor of Eq. (1)–(3) — refreshes
//!   internally perform activations, so allowing concurrent accesses costs
//!   ACT-rate headroom.

use crate::power::IddValues;
use serde::{Deserialize, Serialize};

/// Whether the DRAM device has the SARP modification (paper §4.3.1:
/// ~0.71% die-area overhead on a 2 Gb DDR3 chip).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SarpSupport {
    /// Commodity device: a refreshing bank (or rank, for `REFab`) cannot be
    /// accessed at all until the refresh completes.
    #[default]
    Disabled,
    /// SARP device: idle subarrays of a refreshing bank stay accessible.
    Enabled,
}

impl SarpSupport {
    /// `true` when SARP is available.
    pub fn is_enabled(self) -> bool {
        matches!(self, SarpSupport::Enabled)
    }
}

/// Which refresh granularity a SARP inflation factor applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum RefreshScope {
    /// All-bank refresh: every bank refreshes a subarray concurrently.
    AllBank,
    /// Per-bank refresh: a single bank refreshes a subarray.
    PerBank,
}

/// Computes the paper's Eq. (1) power-overhead factor,
/// `(4·I_ACT + I_REF) / (4·I_ACT)`, which multiplies `tFAW` and `tRRD`
/// while a SARP-parallelized refresh is in flight.
///
/// With the Micron 8 Gb IDD values this evaluates to ≈2.1 for all-bank
/// refresh and ≈1.138 for per-bank refresh (per-bank refresh draws 8× less
/// current), matching §4.3.3.
pub(crate) fn sarp_inflation(idd: &IddValues, scope: RefreshScope) -> f64 {
    let i_act = idd.activate_ma();
    let i_ref = match scope {
        RefreshScope::AllBank => idd.refresh_ma(),
        RefreshScope::PerBank => idd.refresh_ma() / 8.0,
    };
    (4.0 * i_act + i_ref) / (4.0 * i_act)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflation_matches_paper_section_4_3_3() {
        let idd = IddValues::micron_8gb_ddr3_1333();
        let ab = sarp_inflation(&idd, RefreshScope::AllBank);
        let pb = sarp_inflation(&idd, RefreshScope::PerBank);
        assert!((ab - 2.1).abs() < 0.01, "all-bank factor = {ab}");
        assert!((pb - 1.138).abs() < 0.005, "per-bank factor = {pb}");
    }

    #[test]
    fn per_bank_inflation_is_always_milder() {
        let idd = IddValues::micron_8gb_ddr3_1333();
        assert!(
            sarp_inflation(&idd, RefreshScope::PerBank)
                < sarp_inflation(&idd, RefreshScope::AllBank)
        );
    }

    #[test]
    fn support_flag() {
        assert!(!SarpSupport::Disabled.is_enabled());
        assert!(SarpSupport::Enabled.is_enabled());
        assert_eq!(SarpSupport::default(), SarpSupport::Disabled);
    }
}
