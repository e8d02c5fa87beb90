//! DRAM command set: the bus-level operations a memory controller can issue
//! to a [`crate::DramChannel`].

use crate::timing::FgrMode;
use serde::{Deserialize, Serialize};

/// One DRAM command. All indices are relative to the channel the command is
/// issued on; one command occupies the command bus for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Command {
    /// Open `row` in (rank, bank), latching it into the row buffer.
    Activate {
        /// Target rank.
        rank: usize,
        /// Target bank.
        bank: usize,
        /// Row to open.
        row: u32,
    },
    /// Close the open row of (rank, bank).
    Precharge {
        /// Target rank.
        rank: usize,
        /// Target bank.
        bank: usize,
    },
    /// Close the open rows of every bank in `rank` (used before `REFab`).
    PrechargeAll {
        /// Target rank.
        rank: usize,
    },
    /// Read one cache-line column from the open row.
    Read {
        /// Target rank.
        rank: usize,
        /// Target bank.
        bank: usize,
        /// Column (cache-line slot) to read.
        col: u32,
        /// Issue with auto-precharge (closed-row policy).
        auto_precharge: bool,
    },
    /// Write one cache-line column into the open row.
    Write {
        /// Target rank.
        rank: usize,
        /// Target bank.
        bank: usize,
        /// Column (cache-line slot) to write.
        col: u32,
        /// Issue with auto-precharge (closed-row policy).
        auto_precharge: bool,
    },
    /// All-bank refresh (`REFab`): refreshes rows in every bank of `rank`.
    RefreshAllBank {
        /// Target rank.
        rank: usize,
        /// Fine-granularity mode the command is issued in.
        fgr: FgrMode,
    },
    /// Per-bank refresh (`REFpb`): refreshes rows in a single bank.
    ///
    /// The bank index travels on the address bus — the DARP modification of
    /// §4.2.3. Baseline LPDDR picks the bank with an in-DRAM round-robin
    /// counter instead; here the baseline policy names that order itself.
    RefreshPerBank {
        /// Target rank.
        rank: usize,
        /// Bank to refresh.
        bank: usize,
    },
}

impl Command {
    /// The rank this command addresses.
    pub fn rank(&self) -> usize {
        match *self {
            Command::Activate { rank, .. }
            | Command::Precharge { rank, .. }
            | Command::PrechargeAll { rank }
            | Command::Read { rank, .. }
            | Command::Write { rank, .. }
            | Command::RefreshAllBank { rank, .. }
            | Command::RefreshPerBank { rank, .. } => rank,
        }
    }

    /// The bank this command addresses, if it is bank-scoped.
    pub fn bank(&self) -> Option<usize> {
        match *self {
            Command::Activate { bank, .. }
            | Command::Precharge { bank, .. }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. }
            | Command::RefreshPerBank { bank, .. } => Some(bank),
            Command::PrechargeAll { .. } | Command::RefreshAllBank { .. } => None,
        }
    }

    /// Whether this is a column (data-transferring) command.
    pub fn is_column(&self) -> bool {
        matches!(self, Command::Read { .. } | Command::Write { .. })
    }

    /// Short mnemonic used in command traces and timeline printouts.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Command::Activate { .. } => "ACT",
            Command::Precharge { .. } => "PRE",
            Command::PrechargeAll { .. } => "PREA",
            Command::Read {
                auto_precharge: false,
                ..
            } => "RD",
            Command::Read {
                auto_precharge: true,
                ..
            } => "RDA",
            Command::Write {
                auto_precharge: false,
                ..
            } => "WR",
            Command::Write {
                auto_precharge: true,
                ..
            } => "WRA",
            Command::RefreshAllBank { .. } => "REFab",
            Command::RefreshPerBank { .. } => "REFpb",
        }
    }
}

impl std::fmt::Display for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Command::Activate { rank, bank, row } => {
                write!(f, "ACT r{rank} b{bank} row{row}")
            }
            Command::Precharge { rank, bank } => write!(f, "PRE r{rank} b{bank}"),
            Command::PrechargeAll { rank } => write!(f, "PREA r{rank}"),
            Command::Read {
                rank,
                bank,
                col,
                auto_precharge,
            } => {
                write!(
                    f,
                    "RD{} r{rank} b{bank} col{col}",
                    if auto_precharge { "A" } else { "" }
                )
            }
            Command::Write {
                rank,
                bank,
                col,
                auto_precharge,
            } => {
                write!(
                    f,
                    "WR{} r{rank} b{bank} col{col}",
                    if auto_precharge { "A" } else { "" }
                )
            }
            Command::RefreshAllBank { rank, fgr } => write!(f, "REFab r{rank} ({fgr})"),
            Command::RefreshPerBank { rank, bank } => write!(f, "REFpb r{rank} b{bank}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let c = Command::Read {
            rank: 1,
            bank: 3,
            col: 9,
            auto_precharge: true,
        };
        assert_eq!(c.rank(), 1);
        assert_eq!(c.bank(), Some(3));
        assert!(c.is_column());
        assert_eq!(c.mnemonic(), "RDA");

        let r = Command::RefreshAllBank {
            rank: 0,
            fgr: FgrMode::X1,
        };
        assert_eq!(r.bank(), None);
    }

    #[test]
    fn display_is_compact() {
        let c = Command::Activate {
            rank: 0,
            bank: 7,
            row: 42,
        };
        assert_eq!(c.to_string(), "ACT r0 b7 row42");
        let r = Command::RefreshPerBank { rank: 1, bank: 2 };
        assert_eq!(r.to_string(), "REFpb r1 b2");
    }
}
