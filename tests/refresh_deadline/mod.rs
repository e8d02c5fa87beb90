//! The per-bank refresh deadline, judged from the device's command log
//! alone: a `REFab` refreshes every bank of its rank, a `REFpb` refreshes
//! one bank, and a bank's gaps run from cycle 0 to its first refresh,
//! between consecutive refreshes, and from its last refresh to the end of
//! the run.

use dsarp_dram::{Command, Cycle, Geometry};

/// Per-bank refresh period at 32 ms retention: a bank's turn comes every
/// 8 ticks of tREFIpb, i.e. every tREFIab = 2600 cycles.
const PER_BANK_PERIOD: u64 = 2_600;

/// Budget of a mechanism that refreshes on schedule (REFab, REFpb and
/// their SARP, FGR and adaptive variants): two periods.
pub const ON_SCHEDULE: u64 = 2 * PER_BANK_PERIOD;

/// Budget of a mechanism that may postpone up to 8 refreshes of a bank
/// (Elastic, DARP, DSARP): the erratum's 9 periods, plus 2 of scheduling
/// slack.
pub const POSTPONING: u64 = 9 * PER_BANK_PERIOD + 2 * PER_BANK_PERIOD;

/// The largest gap, in cycles, between refreshes of any one bank over
/// every channel's log of a run that ended at cycle `end`.
pub fn longest_refresh_gap(logs: &[Vec<(Cycle, Command)>], geom: &Geometry, end: Cycle) -> u64 {
    let banks = geom.banks_per_rank();
    let mut max = 0;
    for log in logs {
        let mut last = vec![0; geom.ranks_per_channel() * banks];
        for &(cycle, cmd) in log {
            let refreshed = match cmd {
                Command::RefreshAllBank { rank, .. } => rank * banks..(rank + 1) * banks,
                Command::RefreshPerBank { rank, bank } => {
                    rank * banks + bank..rank * banks + bank + 1
                }
                _ => continue,
            };
            for b in refreshed {
                max = max.max(cycle - last[b]);
                last[b] = cycle;
            }
        }
        max = last.iter().fold(max, |m, &l| m.max(end - l));
    }
    max
}
