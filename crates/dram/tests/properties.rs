//! Property-based tests for the DRAM device model.

use dsarp_dram::{
    Command, Cycle, Density, DramChannel, FgrMode, Geometry, IssueError, Retention, SarpSupport,
    TimingParams,
};
use proptest::prelude::*;

fn paper_channel(sarp: SarpSupport) -> DramChannel {
    DramChannel::new(
        Geometry::paper_default(),
        TimingParams::ddr3_1333(Density::G8, Retention::Ms32),
        sarp,
    )
}

proptest! {
    /// decode/encode is a bijection on line-aligned addresses.
    #[test]
    fn address_mapping_roundtrips(addr in 0u64..(16u64 << 30)) {
        let g = Geometry::paper_default();
        let aligned = addr & !(g.line_bytes() as u64 - 1);
        let loc = g.decode(aligned);
        prop_assert_eq!(g.encode(&loc), aligned);
        prop_assert!(loc.channel < g.channels());
        prop_assert!(loc.rank < g.ranks_per_channel());
        prop_assert!(loc.bank < g.banks_per_rank());
        prop_assert!((loc.row as usize) < g.rows_per_bank());
        prop_assert!((loc.col as usize) < g.cols_per_row());
    }

    /// Distinct line-aligned addresses decode to distinct locations.
    #[test]
    fn address_mapping_is_injective(a in 0u64..(1u64 << 34), b in 0u64..(1u64 << 34)) {
        let g = Geometry::paper_default();
        let a = a & !(63u64);
        let b = b & !(63u64);
        let (la, lb) = (g.decode(a), g.decode(b));
        if a != b && a < g.capacity_bytes() && b < g.capacity_bytes() {
            prop_assert_ne!(la, lb);
        }
    }

    /// Subarray index is always in range and changes only at subarray-size
    /// boundaries.
    #[test]
    fn subarray_of_row_in_range(row in 0u32..65_536, n in prop::sample::select(vec![1usize,2,4,8,16,32,64])) {
        let g = Geometry::paper_default().with_subarrays(n).unwrap();
        let s = g.subarray_of_row(row);
        prop_assert!(s < n);
        if !(row as usize + 1).is_multiple_of(g.rows_per_subarray()) && row < 65_535 {
            prop_assert_eq!(g.subarray_of_row(row + 1), s);
        }
    }
}

/// `DramChannel::check` as it stood before it and `earliest_issue` became
/// one gate walk, kept verbatim as the differential oracle except for
/// spellings through the public API: `self.ranks[i]` is `chan.rank(i)`,
/// the bank count comes from the geometry, the data-bus registers are
/// `col_bus_ready`, and the rank's pointwise tRRD/tFAW test at `now` is
/// spelled `rank.earliest_act_allowed(now) > now`, the same predicate (the
/// rank tests prove that solve against the pointwise rule).
fn reference_check(chan: &DramChannel, cmd: &Command, now: Cycle) -> Result<(), IssueError> {
    if chan.last_issue() == Some(now) {
        return Err(IssueError::CommandBusBusy);
    }
    let rank_idx = cmd.rank();
    if rank_idx >= chan.geometry().ranks_per_channel() {
        return Err(IssueError::BadAddress);
    }
    let rank = chan.rank(rank_idx);
    if let Some(b) = cmd.bank() {
        if b >= chan.geometry().banks_per_rank() {
            return Err(IssueError::BadAddress);
        }
    }
    let timing = chan.timing();
    match *cmd {
        Command::Activate { bank, row, .. } => {
            if row as usize >= chan.geometry().rows_per_bank() {
                return Err(IssueError::BadAddress);
            }
            let b = rank.bank(bank);
            if rank.is_refab_busy(now) || b.is_refresh_busy(now) {
                return Err(IssueError::RefreshBusy);
            }
            if !b.is_closed() {
                return Err(IssueError::BankNotClosed);
            }
            if let Some(r) = b.sarp_refresh(now) {
                debug_assert!(chan.sarp_support().is_enabled());
                if chan.geometry().subarray_of_row(row) == r.subarray {
                    return Err(IssueError::SubarrayConflict);
                }
            }
            if now < b.next_act() || rank.earliest_act_allowed(now, timing) > now {
                return Err(IssueError::TooEarly);
            }
            Ok(())
        }
        Command::Precharge { bank, .. } => {
            let b = rank.bank(bank);
            if rank.is_refab_busy(now) || b.is_refresh_busy(now) {
                return Err(IssueError::RefreshBusy);
            }
            if b.is_closed() {
                return Err(IssueError::NoOpenRow);
            }
            if now < b.next_pre() {
                return Err(IssueError::TooEarly);
            }
            Ok(())
        }
        Command::PrechargeAll { .. } => {
            if rank.is_refab_busy(now) {
                return Err(IssueError::RefreshBusy);
            }
            for b in rank.banks() {
                if !b.is_closed() && now < b.next_pre() {
                    return Err(IssueError::TooEarly);
                }
            }
            Ok(())
        }
        Command::Read { bank, col, .. } | Command::Write { bank, col, .. } => {
            if col as usize >= chan.geometry().cols_per_row() {
                return Err(IssueError::BadAddress);
            }
            let b = rank.bank(bank);
            if rank.is_refab_busy(now) || b.is_refresh_busy(now) {
                return Err(IssueError::RefreshBusy);
            }
            if b.is_closed() {
                return Err(IssueError::NoOpenRow);
            }
            if now < b.next_col() {
                return Err(IssueError::TooEarly);
            }
            let bus = chan.col_bus_ready(matches!(cmd, Command::Write { .. }));
            if now < bus {
                return Err(IssueError::TooEarly);
            }
            Ok(())
        }
        Command::RefreshAllBank { .. } => {
            if rank.is_refab_busy(now) {
                return Err(IssueError::RefreshBusy);
            }
            if rank.is_refpb_busy(now) {
                return Err(IssueError::RefpbOverlap);
            }
            if !rank.all_banks_closed() {
                return Err(IssueError::BankNotClosed);
            }
            for b in rank.banks() {
                if b.is_refresh_busy(now) {
                    return Err(IssueError::RefreshBusy);
                }
                if b.sarp_refresh(now).is_some() {
                    return Err(IssueError::RefreshBusy);
                }
                if now < b.next_act() {
                    return Err(IssueError::TooEarly);
                }
            }
            if rank.earliest_act_allowed(now, timing) > now {
                return Err(IssueError::TooEarly);
            }
            Ok(())
        }
        Command::RefreshPerBank { bank, .. } => {
            let b = rank.bank(bank);
            if rank.is_refab_busy(now) {
                return Err(IssueError::RefreshBusy);
            }
            if rank.is_refpb_busy(now) {
                return Err(IssueError::RefpbOverlap);
            }
            if b.is_refresh_busy(now) || b.sarp_refresh(now).is_some() {
                return Err(IssueError::RefreshBusy);
            }
            if !b.is_closed() {
                return Err(IssueError::BankNotClosed);
            }
            if now < b.next_act() || rank.earliest_act_allowed(now, timing) > now {
                return Err(IssueError::TooEarly);
            }
            Ok(())
        }
    }
}

/// Commands probed at every step of the fuzzer: every kind on rank 0's
/// bank 0 (an ACT in the subarray a SARP refresh holds first and one
/// outside it) and on rank 1's bank 5.
fn probes() -> Vec<Command> {
    let mut probes = Vec::new();
    for (rank, bank) in [(0, 0), (1, 5)] {
        probes.extend([
            Command::Activate { rank, bank, row: 0 },
            Command::Activate {
                rank,
                bank,
                row: 8_192,
            },
            Command::Precharge { rank, bank },
            Command::PrechargeAll { rank },
            Command::Read {
                rank,
                bank,
                col: 3,
                auto_precharge: false,
            },
            Command::Write {
                rank,
                bank,
                col: 3,
                auto_precharge: true,
            },
            Command::RefreshPerBank { rank, bank },
            Command::RefreshAllBank {
                rank,
                fgr: FgrMode::X1,
            },
        ]);
    }
    probes
}

/// A randomized legal-command fuzzer: attempt random commands at advancing
/// cycles; whatever `check` admits must also succeed in `issue`, and the
/// device state must stay internally consistent. Before each attempt,
/// every probe command is judged two ways on the frozen state: `check`
/// must return exactly the oracle's `Result`, and `earliest_issue` must be
/// the first cycle within a horizon at which `check` admits it.
fn fuzz_channel(sarp: SarpSupport, seed_cmds: Vec<(u8, u8, u8, u16, u8)>) {
    const HORIZON: Cycle = 400;
    let probes = probes();
    let mut chan = paper_channel(sarp);
    let mut now: Cycle = 0;
    let mut refpb_windows: Vec<(usize, Cycle, Cycle)> = Vec::new(); // rank, start, end
    for (kind, rank, bank, row, gap) in seed_cmds {
        now += 1 + gap as Cycle;
        for probe in &probes {
            assert_eq!(
                chan.check(probe, now),
                reference_check(&chan, probe, now),
                "{probe:?} at cycle {now}"
            );
            assert_eq!(
                chan.earliest_issue(probe, now),
                (now..now + HORIZON).find(|&t| chan.check(probe, t).is_ok()),
                "{probe:?} from cycle {now}"
            );
        }
        let rank = (rank % 2) as usize;
        let bank = (bank % 8) as usize;
        let row = (row % 1024) as u32 * 64; // spread across subarrays
        let cmd = match kind % 6 {
            0 => Command::Activate { rank, bank, row },
            1 => Command::Precharge { rank, bank },
            2 => Command::Read {
                rank,
                bank,
                col: (row % 128),
                auto_precharge: kind % 2 == 0,
            },
            3 => Command::Write {
                rank,
                bank,
                col: (row % 128),
                auto_precharge: kind % 2 == 1,
            },
            4 => Command::RefreshPerBank { rank, bank },
            _ => Command::RefreshAllBank {
                rank,
                fgr: FgrMode::X1,
            },
        };
        if chan.check(&cmd, now).is_ok() {
            let receipt = chan.issue(cmd, now).expect("check admitted the command");
            if let Command::RefreshPerBank { rank, .. } = cmd {
                let end = receipt.refresh_done.unwrap();
                // JEDEC non-overlap: no other REFpb window in this rank may
                // contain `now`.
                for &(r, s, e) in &refpb_windows {
                    if r == rank {
                        assert!(now >= e || now < s, "REFpb overlap in rank {rank}");
                    }
                }
                refpb_windows.push((rank, now, end));
            }
            if let Command::Read { .. } = cmd {
                let ready = receipt.data_ready.unwrap();
                assert!(ready > now);
            }
        } else {
            // Rejected commands must not mutate state: issue must fail too.
            assert!(chan.issue(cmd, now).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_command_streams_keep_invariants_plain(
        cmds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>(), 0u8..32), 1..400)
    ) {
        fuzz_channel(SarpSupport::Disabled, cmds);
    }

    #[test]
    fn random_command_streams_keep_invariants_sarp(
        cmds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>(), 0u8..32), 1..400)
    ) {
        fuzz_channel(SarpSupport::Enabled, cmds);
    }

    /// Under SARP, any ACT admitted while the bank has a refresh in flight
    /// must target a different subarray.
    #[test]
    fn sarp_never_admits_conflicting_activate(rows in prop::collection::vec(0u32..65_536, 1..64)) {
        let mut chan = paper_channel(SarpSupport::Enabled);
        chan.issue(Command::RefreshPerBank { rank: 0, bank: 0 }, 0).unwrap();
        let refreshing = chan.refreshing_subarray(0, 0, 1).unwrap();
        let geom = *chan.geometry();
        let mut now = 10; // inside the tRFCpb window (102 cycles)
        for row in rows {
            let cmd = Command::Activate { rank: 0, bank: 0, row };
            if chan.check(&cmd, now).is_ok() {
                prop_assert_ne!(geom.subarray_of_row(row), refreshing);
                chan.issue(cmd, now).unwrap();
                // Close it again so the next ACT has a chance.
                now += chan.timing().ras;
                chan.issue(Command::Precharge { rank: 0, bank: 0 }, now).unwrap();
                now += chan.timing().rp;
            }
            now += 1;
            if now >= chan.timing().rfc_pb {
                break;
            }
        }
    }

    /// Energy accounting never goes backwards and accesses count reads+writes.
    #[test]
    fn energy_counters_are_monotonic(gaps in prop::collection::vec(1u64..40, 1..100)) {
        let mut chan = paper_channel(SarpSupport::Disabled);
        let mut now = 0;
        let mut last_accesses = 0;
        let mut open = false;
        for (i, g) in gaps.iter().enumerate() {
            now += g;
            let cmd = if !open {
                Command::Activate { rank: 0, bank: 0, row: (i % 100) as u32 }
            } else {
                Command::Read { rank: 0, bank: 0, col: 0, auto_precharge: true }
            };
            if chan.check(&cmd, now).is_ok() {
                chan.issue(cmd, now).unwrap();
                open = !open;
            }
            let acc = chan.energy_counters().accesses();
            prop_assert!(acc >= last_accesses);
            last_accesses = acc;
        }
        chan.finalize_energy(now);
        prop_assert!(chan.energy_counters().active_rank_cycles() <= now * 2);
    }
}
