//! Opt-in per-run simulator telemetry ([`crate::SystemBuilder::telemetry`]).
//!
//! Captures the internal DRAM behavior the paper's analysis rests on —
//! cycles banks spend serving accesses vs sitting refresh-blocked, refresh
//! counts broken down by mechanism component (REFab/REFpb, DARP pull-in vs
//! postponed catch-up, SARP-parallelized accesses), read-queue occupancy,
//! and row-buffer locality — without perturbing the simulation: sampling
//! only reads state the tick loop already computes, and the struct rides
//! on [`crate::RunStats`] as an `Option` that stays `None` unless enabled.

use dsarp_core::SchedulerScan;
use dsarp_obs::{bucket_index, NBUCKETS};
use serde::{Deserialize, Serialize};

/// Per-run telemetry; attached to [`crate::RunStats::telemetry`] when
/// enabled.
///
/// This declaration is the sidecar's schema: every field is written in
/// declaration order except the `#[serde(skip)]` ones, which are
/// in-memory only and read back as their defaults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimTelemetry {
    /// DRAM cycles the run covered (sampling denominator).
    pub dram_cycles: u64,
    /// Per-(channel, rank, bank) cycle accounting.
    pub banks: Vec<BankTelemetry>,
    /// Refresh counts by kind and mechanism component.
    pub refreshes: RefreshTelemetry,
    /// Read-queue depth sampled once per channel per DRAM cycle.
    pub read_queue_depth: DepthHistogram,
    /// Column commands issued (`ControllerStats::row_hits`): each miss's
    /// first column command is counted here as well as in `row_misses`,
    /// so true row hits are `row_hits - row_misses` and
    /// `row_hits + row_misses` counts every miss twice.
    pub row_hits: u64,
    /// Demand activations (row misses — every ACT opens a missed row).
    pub row_misses: u64,
    /// Precharges issued to close a conflicting open row for a demand
    /// request.
    pub row_conflicts: u64,
    /// Write-queue depth sampled once per channel per DRAM cycle.
    #[serde(skip)]
    pub write_queue_depth: DepthHistogram,
    /// Demand-scheduler work accounting summed over controllers: candidates
    /// the FR-FCFS passes examined on issuing cycles.
    #[serde(skip)]
    pub scheduler: SchedulerScan,
}

/// Cycle accounting for one bank.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BankTelemetry {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Cycles the bank had a row open serving accesses (and was not
    /// refresh-blocked).
    pub busy_cycles: u64,
    /// Cycles the bank was unavailable behind a blocking refresh (its own
    /// `REFpb`/blocking refresh or the rank's `REFab`).
    pub refresh_blocked_cycles: u64,
}

/// Refresh counts by kind and component.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RefreshTelemetry {
    /// All-bank (`REFab`) commands issued.
    pub refab: u64,
    /// Per-bank (`REFpb`) commands issued.
    pub refpb: u64,
    /// DARP: refreshes forced by a bank hitting the postponement limit.
    pub darp_forced: u64,
    /// DARP: refreshes issued during write drains (Algorithm 1).
    pub darp_write_parallelized: u64,
    /// DARP: opportunistic idle-bank refreshes (Fig. 8 ③).
    pub darp_opportunistic: u64,
    /// DARP: refreshes that served postponed debt.
    pub darp_postponed_catchup: u64,
    /// DARP: refreshes pulled in ahead of schedule.
    pub darp_pulled_in: u64,
    /// ACTs issued to a bank while that bank had a SARP refresh in
    /// flight — accesses parallelized with refresh (§4.3).
    pub sarp_parallel_acts: u64,
}

/// A plain-data log2 histogram using the same bucket layout as
/// [`dsarp_obs::Histogram`] (so bounds and rendering agree), but owned and
/// serializable — the simulator is single-threaded per run and the result
/// travels inside [`SimTelemetry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthHistogram {
    /// Per-bucket counts; `buckets[i]` counts values in bucket `i` of
    /// [`dsarp_obs::bucket_bound`].
    pub buckets: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Default for DepthHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; NBUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl DepthHistogram {
    /// Records one value.
    pub(crate) fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Records `value` as if observed on `n` consecutive samples.
    ///
    /// The sampling contract is **once per channel per DRAM cycle**
    /// (`dram_cycles` is the denominator). When the skip-ahead run loop
    /// batches a span of dead cycles, the sampled state is frozen for the
    /// whole span, so the per-cycle samples it replaces are `n` identical
    /// observations — this folds them in arithmetically, leaving the bucket
    /// counts byte-identical to per-cycle stepping.
    pub(crate) fn observe_n(&mut self, value: u64, n: u64) {
        self.buckets[bucket_index(value)] += n;
        self.sum += value * n;
        self.count += n;
    }

    /// Mean observed value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl SimTelemetry {
    /// Empty telemetry shaped for a `channels x ranks x banks` system.
    pub(crate) fn for_geometry(channels: usize, ranks: usize, banks: usize) -> Self {
        let mut t = Self::default();
        for c in 0..channels {
            for r in 0..ranks {
                for b in 0..banks {
                    t.banks.push(BankTelemetry {
                        channel: c,
                        rank: r,
                        bank: b,
                        busy_cycles: 0,
                        refresh_blocked_cycles: 0,
                    });
                }
            }
        }
        t
    }

    /// Fraction of sampled bank-cycles spent refresh-blocked, across all
    /// banks.
    pub fn refresh_blocked_fraction(&self) -> f64 {
        let blocked: u64 = self.banks.iter().map(|b| b.refresh_blocked_cycles).sum();
        let denom = self.dram_cycles * self.banks.len() as u64;
        if denom == 0 {
            0.0
        } else {
            blocked as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_histogram_matches_obs_bucketing() {
        let mut h = DepthHistogram::default();
        for v in [0, 1, 5, 64] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 70);
        assert_eq!(h.buckets[bucket_index(5)], 1);
        assert_eq!(h.buckets[0], 1);
    }

    #[test]
    fn observe_n_equals_repeated_observe() {
        let mut a = DepthHistogram::default();
        let mut b = DepthHistogram::default();
        for _ in 0..37 {
            a.observe(5);
        }
        b.observe_n(5, 37);
        assert_eq!(a, b);
        b.observe_n(0, 0); // zero-length span is a no-op
        assert_eq!(a, b);
    }

    #[test]
    fn serialized_shape_excludes_in_memory_fields() {
        let mut t = SimTelemetry::for_geometry(1, 1, 2);
        t.dram_cycles = 7;
        t.write_queue_depth.observe(3);
        t.scheduler.issue_cycles = 5;
        let v = t.to_value();
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        // Sidecar byte-stability: exactly the pre-existing fields, in
        // declaration order; the in-memory-only fields never serialize.
        assert_eq!(
            keys,
            [
                "dram_cycles",
                "banks",
                "refreshes",
                "read_queue_depth",
                "row_hits",
                "row_misses",
                "row_conflicts"
            ]
        );
        let back = SimTelemetry::from_value(&v).expect("roundtrip");
        assert_eq!(back.dram_cycles, 7);
        assert_eq!(back.write_queue_depth, DepthHistogram::default());
        assert_eq!(back.scheduler, SchedulerScan::default());
    }

    #[test]
    fn geometry_shaping_orders_banks() {
        let t = SimTelemetry::for_geometry(2, 2, 8);
        assert_eq!(t.banks.len(), 32);
        assert_eq!(
            (t.banks[0].channel, t.banks[0].rank, t.banks[0].bank),
            (0, 0, 0)
        );
        let last = t.banks.last().unwrap();
        assert_eq!((last.channel, last.rank, last.bank), (1, 1, 7));
        assert_eq!(t.refresh_blocked_fraction(), 0.0);
    }
}
