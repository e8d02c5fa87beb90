//! Extension study — the paper's footnote 5.
//!
//! §2.2.2 footnote 5: *"At slightly increased complexity, one can
//! potentially propose a modified standard that allows overlapped refresh
//! of a subset of banks within a rank."* This experiment implements that
//! proposal (up to 4 concurrent `REFpb` per rank, still rate-limited by
//! `tRRD`/`tFAW` since each refresh internally activates rows) and measures
//! what it would buy on top of the paper's mechanisms.
//!
//! Expected outcome: overlap helps the *baseline* per-bank scheme (its
//! serialized 8 × tRFCpb backlog shrinks) but adds little on top of DSARP,
//! which already avoids refresh/access collisions by scheduling — evidence
//! for the paper's choice to work within the standard.

use super::harness::Grid;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// One row of the overlap study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlapRow {
    /// DRAM density.
    pub density: Density,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Gmean WS improvement over plain `REFpb`, percent.
    pub over_refpb_pct: f64,
}

/// Mechanisms compared (all against the `RefPb` baseline).
pub const OVERLAP_MECHS: [Mechanism; 4] = [
    Mechanism::RefPbOverlapped,
    Mechanism::Dsarp,
    Mechanism::DsarpOverlapped,
    Mechanism::SarpPb,
];

/// Reduces a grid containing `RefPb` plus the [`OVERLAP_MECHS`].
pub fn reduce(grid: &Grid, densities: &[Density]) -> Vec<OverlapRow> {
    let mut out = Vec::new();
    for &d in densities {
        for m in OVERLAP_MECHS {
            out.push(OverlapRow {
                density: d,
                mechanism: m,
                over_refpb_pct: grid.gmean_improvement(m, Mechanism::RefPb, d),
            });
        }
    }
    out
}
