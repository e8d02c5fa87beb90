//! Retention-integrity bookkeeping.
//!
//! The whole point of the paper's erratum is that refresh *scheduling
//! flexibility must stay bounded*: a bank may skip at most 8 of its scheduled
//! per-bank refreshes, otherwise rows decay. This tracker records every
//! refresh the device performs, at refresh-group granularity, so tests can
//! assert two invariants for any scheduling policy:
//!
//! 1. **Gap bound** — the time between consecutive refreshes *of the same
//!    bank* never exceeds `(1 + max_debt) ×` the bank's refresh period;
//! 2. **Coverage** — refresh-row counters sweep groups in order, so combined
//!    with (1), every row is refreshed within its retention budget.

use crate::{Cycle, Geometry};
use serde::{Deserialize, Serialize};

/// Records refresh activity per (rank, bank, refresh group).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetentionTracker {
    groups_per_bank: usize,
    rows_per_refresh: u32,
    banks: usize,
    /// Last refresh cycle per group, `u64::MAX` = never refreshed yet.
    group_last: Vec<Cycle>,
    /// Per (rank, bank): cycle of the most recent refresh touching it.
    bank_last: Vec<Cycle>,
    /// Per (rank, bank): largest observed gap between refreshes.
    bank_max_gap: Vec<u64>,
    /// Per (rank, bank): number of refreshes received.
    bank_count: Vec<u64>,
    start: Cycle,
}

impl RetentionTracker {
    /// Creates a tracker for one channel of `geom`.
    pub(crate) fn new(geom: &Geometry) -> Self {
        let banks = geom.ranks_per_channel() * geom.banks_per_rank();
        let groups_per_bank = geom.refresh_groups_per_bank();
        Self {
            groups_per_bank,
            rows_per_refresh: geom.rows_per_refresh(),
            banks: geom.banks_per_rank(),
            group_last: vec![Cycle::MAX; banks * groups_per_bank],
            bank_last: vec![0; banks],
            bank_max_gap: vec![0; banks],
            bank_count: vec![0; banks],
            start: 0,
        }
    }

    fn bank_idx(&self, rank: usize, bank: usize) -> usize {
        rank * self.banks + bank
    }

    /// Records a refresh of `rows` rows starting at `first_row` in
    /// (rank, bank) at cycle `now`.
    pub(crate) fn record(
        &mut self,
        rank: usize,
        bank: usize,
        first_row: u32,
        rows: u32,
        now: Cycle,
    ) {
        let bi = self.bank_idx(rank, bank);
        let group = (first_row / self.rows_per_refresh) as usize;
        // Multi-group commands (FGR) land on their first group; the counter
        // advances proportionally so coverage still holds.
        let _ = rows;
        self.group_last[bi * self.groups_per_bank + group.min(self.groups_per_bank - 1)] = now;
        if self.bank_count[bi] > 0 {
            let gap = now - self.bank_last[bi];
            if gap > self.bank_max_gap[bi] {
                self.bank_max_gap[bi] = gap;
            }
        } else {
            let gap = now - self.start;
            self.bank_max_gap[bi] = self.bank_max_gap[bi].max(gap);
        }
        self.bank_last[bi] = now;
        self.bank_count[bi] += 1;
    }

    /// Largest gap (cycles) between consecutive refreshes of any single bank,
    /// including the leading gap from simulation start and the trailing gap
    /// up to `now`.
    pub fn max_bank_gap(&self, now: Cycle) -> u64 {
        let mut max = 0;
        for bi in 0..self.bank_last.len() {
            let trailing = if self.bank_count[bi] == 0 {
                now - self.start
            } else {
                now - self.bank_last[bi]
            };
            max = max.max(self.bank_max_gap[bi]).max(trailing);
        }
        max
    }

    /// Total refreshes recorded.
    pub fn total_refreshes(&self) -> u64 {
        self.bank_count.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> RetentionTracker {
        RetentionTracker::new(&Geometry::paper_default())
    }

    #[test]
    fn gap_tracks_per_bank_not_global() {
        let mut t = tracker();
        // Bank 0 refreshed at 0 and 100; bank 1 refreshed only at 50.
        t.record(0, 0, 0, 8, 0);
        t.record(0, 1, 0, 8, 50);
        t.record(0, 0, 8, 8, 100);
        // At now=120: bank0 gaps {0,100}, trailing 20; bank1 leading 50,
        // trailing 70; untouched banks trailing 120.
        assert_eq!(t.max_bank_gap(120), 120);
    }

    #[test]
    fn counts_accumulate() {
        let mut t = tracker();
        t.record(0, 0, 0, 8, 0);
        t.record(0, 0, 8, 8, 10);
        t.record(1, 3, 0, 8, 5);
        assert_eq!(t.total_refreshes(), 3);
        assert_eq!(t.bank_count[0], 2);
        assert_eq!(t.bank_count.iter().min(), Some(&0));
    }

    #[test]
    fn gap_bound_check() {
        let mut t = tracker();
        for bank in 0..8 {
            for rank in 0..2 {
                t.record(rank, bank, 0, 8, 10);
                t.record(rank, bank, 8, 8, 110);
            }
        }
        // Period 50, max_debt 1 -> bound 100 + slack.
        assert!(t.max_bank_gap(110) <= 2 * 50 + 10);
        assert_eq!(t.max_bank_gap(300), 190);
    }

    #[test]
    fn never_refreshed_bank_counts_from_start() {
        let t = tracker();
        assert_eq!(t.max_bank_gap(500), 500);
    }
}
