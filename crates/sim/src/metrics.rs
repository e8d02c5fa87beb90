//! System-level performance metrics: weighted speedup, harmonic speedup
//! and maximum slowdown.
//!
//! The paper (§5, §6.1.5) reports weighted speedup (WS) as the primary
//! metric, plus harmonic speedup and maximum slowdown for fairness.
//! `IPC_alone` for each benchmark is measured on a single-core system with
//! the same DRAM density and LLC capacity and no refresh; because every
//! policy comparison divides by the *same* alone values, the choice of
//! alone baseline cancels out of relative improvements.

use crate::system::RunStats;
use serde::{Deserialize, Serialize};

/// The paper's multiprogram metrics for one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Weighted speedup: Σ IPCᵢ(shared) / IPCᵢ(alone).
    pub weighted_speedup: f64,
    /// Harmonic speedup: N / Σ IPCᵢ(alone)/IPCᵢ(shared).
    pub harmonic_speedup: f64,
    /// Maximum slowdown: max IPCᵢ(alone)/IPCᵢ(shared).
    pub max_slowdown: f64,
    /// Energy per DRAM access in nanojoules.
    pub energy_per_access_nj: f64,
}

impl Metrics {
    /// Computes the metrics for `stats` of `workload`, using `alone` IPCs.
    ///
    /// # Panics
    ///
    /// Panics if `alone.len()` does not match the number of cores in
    /// `stats`.
    pub(crate) fn compute(stats: &RunStats, alone: &[f64]) -> Self {
        Self::from_ipcs(&stats.ipc, alone, stats.energy_per_access_nj())
    }

    /// Computes the metrics from raw per-core IPCs (the form the campaign
    /// result cache stores, so cached runs reduce without a `RunStats`).
    ///
    /// # Panics
    ///
    /// Panics if `shared.len() != alone.len()`.
    pub fn from_ipcs(shared: &[f64], alone: &[f64], energy_per_access_nj: f64) -> Self {
        assert_eq!(shared.len(), alone.len());
        let n = alone.len() as f64;
        let mut ws = 0.0;
        let mut inv_sum = 0.0;
        let mut max_sd: f64 = 0.0;
        for (shared, alone_ipc) in shared.iter().zip(alone) {
            let shared = shared.max(1e-9);
            ws += shared / alone_ipc;
            inv_sum += alone_ipc / shared;
            max_sd = max_sd.max(alone_ipc / shared);
        }
        Metrics {
            weighted_speedup: ws,
            harmonic_speedup: n / inv_sum,
            max_slowdown: max_sd,
            energy_per_access_nj,
        }
    }
}

/// Geometric mean of a non-empty slice of positive values.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Percentage improvement of `new` over `base`.
pub fn improvement_pct(new: f64, base: f64) -> f64 {
    (new / base - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_ipc(ipc: Vec<f64>) -> RunStats {
        RunStats {
            insts: vec![0; ipc.len()],
            ipc,
            cpu_cycles: 1,
            dram_cycles: 1,
            ctrl: vec![],
            llc: Default::default(),
            energy: Default::default(),
            telemetry: None,
        }
    }

    #[test]
    fn weighted_speedup_math() {
        let s = stats_with_ipc(vec![1.0, 0.5]);
        let m = Metrics::compute(&s, &[2.0, 1.0]);
        assert!((m.weighted_speedup - 1.0).abs() < 1e-12); // 0.5 + 0.5
        assert!((m.harmonic_speedup - 0.5).abs() < 1e-12); // 2 / (2 + 2)
        assert!((m.max_slowdown - 2.0).abs() < 1e-12);
    }

    #[test]
    fn identical_runs_give_ws_equal_to_n() {
        let s = stats_with_ipc(vec![1.5, 2.0, 0.7]);
        let m = Metrics::compute(&s, &[1.5, 2.0, 0.7]);
        assert!((m.weighted_speedup - 3.0).abs() < 1e-12);
        assert!((m.harmonic_speedup - 1.0).abs() < 1e-12);
        assert!((m.max_slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_and_improvement() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((improvement_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert!(improvement_pct(0.9, 1.0) < 0.0);
    }
}
