//! Property-based tests for the memory controller: random request streams
//! under every mechanism must preserve the core invariants.

use dsarp_core::{Mechanism, MemoryController, Probe, Request};
use dsarp_dram::{Command, Density, DramChannel, Geometry, Location, Retention, TimingParams};
use proptest::prelude::*;

/// Drives one controller with a random arrival pattern and checks:
/// * every accepted read completes exactly once, within a latency bound;
/// * the device never reports an issue error (the controller only issues
///   validated commands — `issue` would panic through `expect`);
/// * completions are never duplicated or invented;
/// * the device logged exactly the ACT, PRE/PREA, RD, WR and refresh
///   commands the controller counted, and every column command counts as
///   a row hit.
fn drive(mech: Mechanism, arrivals: &[(u16, u8, bool)], cycles: u64, seed: u64) {
    let geom = Geometry::paper_default();
    let timing = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
    let mut chan = DramChannel::new(geom, timing, mech.sarp_support());
    chan.enable_command_log();
    let mut mc = MemoryController::new(0, geom, timing, mech, seed);

    let mut next_id = 1u64;
    let mut outstanding = std::collections::HashSet::new();
    let mut accepted_reads = 0u64;
    let mut arrival_iter = arrivals.iter().cycle();
    let mut next_arrival = 0u64;
    let mut completions = Vec::new();

    for now in 0..cycles {
        if now >= next_arrival {
            let (gap, spread, is_write) = *arrival_iter.next().expect("cycled");
            next_arrival = now + 1 + gap as u64 % 40;
            // Spread addresses over banks/rows deterministically.
            let addr = (spread as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(next_id * 64)
                % geom.capacity_bytes();
            let mut loc = geom.decode(addr & !63);
            loc.channel = 0; // single controller under test
            let id = next_id;
            next_id += 1;
            if is_write {
                let _ = mc.try_enqueue_write(Request::write(id, loc, 0, now));
            } else if mc.try_enqueue_read(Request::read(id, loc, 0, now)) {
                outstanding.insert(id);
                accepted_reads += 1;
            }
        }
        completions.clear();
        mc.step(&mut chan, now, &mut completions);
        for c in &completions {
            assert!(
                outstanding.remove(&c.id),
                "completion for unknown/duplicate id {}",
                c.id
            );
            assert!(c.ready_at <= now, "completion from the future");
        }
    }

    // Everything accepted and given time must have completed. Requests from
    // the last couple thousand cycles may legitimately be in flight.
    let stats = mc.stats();
    // `reads_done` counts at column-command issue; completions deliver a
    // few cycles later (CL + BL), so the counters may run slightly ahead of
    // the delivered set.
    let delivered = accepted_reads - outstanding.len() as u64;
    let counted = stats.reads_done + stats.forwarded_reads;
    assert!(
        counted >= delivered,
        "counted {counted} < delivered {delivered}"
    );
    assert!(
        counted <= delivered + 32,
        "counted {counted} vs delivered {delivered}"
    );
    assert!(
        outstanding.len() <= 64 + 16,
        "{} reads stuck (queue cap is 64): starvation?",
        outstanding.len()
    );

    // Command accounting: the device logged exactly the commands the
    // controller counted, kind by kind. Every column command issues from
    // the row-hit pass (after its row's ACT), so `row_hits` is all of them.
    let log = chan.take_command_log();
    let count = |kind: fn(&Command) -> bool| log.iter().filter(|(_, c)| kind(c)).count() as u64;
    let acts = count(|c| matches!(c, Command::Activate { .. }));
    let precharges =
        count(|c| matches!(c, Command::Precharge { .. } | Command::PrechargeAll { .. }));
    let reads = count(|c| matches!(c, Command::Read { .. }));
    let writes = count(|c| matches!(c, Command::Write { .. }));
    assert_eq!(acts, stats.acts, "{mech}: ACT");
    assert_eq!(precharges, stats.precharges, "{mech}: PRE + PREA");
    assert_eq!(reads, stats.reads_done, "{mech}: RD");
    assert_eq!(writes, stats.writes_done, "{mech}: WR");
    assert_eq!(
        stats.row_hits,
        stats.reads_done + stats.writes_done,
        "{mech}: row hits"
    );
    // Refresh accounting: there are none without refresh, and some with it
    // once postponement cannot explain it.
    let logged = count(|c| {
        matches!(
            c,
            Command::RefreshAllBank { .. } | Command::RefreshPerBank { .. }
        )
    });
    assert_eq!(logged, stats.refab_issued + stats.refpb_issued, "{mech}");
    if mech == Mechanism::NoRefresh {
        assert_eq!(logged, 0);
    } else if cycles >= 30_000 {
        assert!(logged > 0, "{mech} issued no refresh in {cycles} cycles");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_traffic_preserves_invariants(
        arrivals in prop::collection::vec((any::<u16>(), any::<u8>(), any::<bool>()), 4..60),
        seed in any::<u64>(),
    ) {
        for mech in Mechanism::ALL {
            drive(mech, &arrivals, 12_000, seed);
        }
    }

    /// Long quiet stretches + bursts: refresh debt machinery must neither
    /// starve nor over-refresh.
    #[test]
    fn bursty_traffic_darp(seed in any::<u64>(), burst in 1u16..30) {
        let arrivals = vec![(0u16, 7u8, false); burst as usize];
        drive(Mechanism::Dsarp, &arrivals, 40_000, seed);
    }
}

/// The wake contract: a controller stepped only at cycles `>= wake()`
/// (through `step_and_rearm`) is indistinguishable from one stepped every
/// cycle — same command stream, same completions at the same cycles, same
/// statistics and writeback-mode accounting — with requests arriving at
/// arbitrary cycles, asleep or not. Returns how many steps the sleeper made.
fn drive_sleeper(mech: Mechanism, arrivals: &[(u16, u8, bool)], cycles: u64, seed: u64) -> u64 {
    let geom = Geometry::paper_default();
    let timing = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
    let mk = || {
        let mut chan = DramChannel::new(geom, timing, mech.sarp_support());
        chan.enable_command_log();
        (chan, MemoryController::new(0, geom, timing, mech, seed))
    };
    let (mut ref_chan, mut ref_mc) = mk();
    let (mut chan, mut mc) = mk();
    let (mut ref_done, mut done) = (Vec::new(), Vec::new());
    let mut arrival_iter = arrivals.iter().cycle();
    let mut next_arrival = 0u64;
    let mut steps = 0;
    for now in 0..cycles {
        if now >= next_arrival {
            let (gap, spread, is_write) = *arrival_iter.next().expect("cycled");
            // Bursts of back-to-back requests between long quiet gaps.
            next_arrival = now
                + 1
                + if gap % 4 == 0 {
                    u64::from(gap) % 600
                } else {
                    0
                };
            let addr = u64::from(spread).wrapping_mul(0x9E37_79B9) % geom.capacity_bytes();
            let mut loc = geom.decode(addr & !63);
            loc.channel = 0;
            let req = if is_write {
                Request::write(now, loc, 0, now)
            } else {
                Request::read(now, loc, 0, now)
            };
            for m in [&mut ref_mc, &mut mc] {
                let _ = if is_write {
                    m.try_enqueue_write(req)
                } else {
                    m.try_enqueue_read(req)
                };
            }
        }
        ref_mc.step(&mut ref_chan, now, &mut ref_done);
        if mc.wake() <= now {
            mc.step_and_rearm(&mut chan, now, &mut done);
            steps += 1;
        }
        assert_eq!(
            done, ref_done,
            "{mech}: completions diverged by cycle {now}"
        );
    }
    assert_eq!(
        chan.take_command_log(),
        ref_chan.take_command_log(),
        "{mech}"
    );
    assert_eq!(mc.stats(), ref_mc.stats(), "{mech}");
    assert_eq!(
        mc.queues().drain_cycles(),
        ref_mc.queues().drain_cycles(),
        "{mech}"
    );
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sleeping_controller_matches_per_cycle_stepping(
        arrivals in prop::collection::vec((any::<u16>(), any::<u8>(), any::<bool>()), 4..60),
        seed in any::<u64>(),
    ) {
        let cycles = 12_000;
        let mut steps = 0;
        for mech in Mechanism::ALL {
            steps += drive_sleeper(mech, &arrivals, cycles, seed);
        }
        // The comparison is not vacuous: the sleeper did sleep.
        prop_assert!(steps < Mechanism::ALL.len() as u64 * cycles / 2, "{}", steps);
    }
}

#[test]
fn starvation_freedom_under_saturation() {
    // Saturate one bank with reads for a long time under every mechanism;
    // every request must still complete (FR-FCFS ages out, refreshes are
    // bounded).
    for mech in Mechanism::ALL {
        drive(mech, &[(0, 0, false)], 30_000, 99);
    }
}

#[test]
fn write_heavy_traffic_drains() {
    let geom = Geometry::paper_default();
    let timing = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
    for mech in [Mechanism::Darp, Mechanism::Dsarp, Mechanism::RefAb] {
        let mut chan = DramChannel::new(geom, timing, mech.sarp_support());
        let mut mc = MemoryController::new(0, geom, timing, mech, 5);
        let mut done = Vec::new();
        let mut id = 0u64;
        for now in 0..30_000u64 {
            if now % 13 == 0 {
                let mut loc = geom.decode(((id * 6_400) % geom.capacity_bytes()) & !63);
                loc.channel = 0;
                id += 1;
                let _ = mc.try_enqueue_write(Request::write(id, loc, 0, now));
            }
            mc.step(&mut chan, now, &mut done);
        }
        let s = mc.stats();
        assert!(
            s.writes_done > 1_500,
            "{mech}: only {} writes drained of ~2300 offered",
            s.writes_done
        );
    }
}

/// Work conservation, judged by the device instead of the scheduler: under
/// `NoRefresh` (no refresh mask, no SARP windows) a cycle on which `step`
/// issued nothing must be a cycle on which nothing *could* issue. Every
/// queued request of the servable side — writes in writeback mode, reads
/// otherwise — has a next command (a column access on a row hit, an ACT on
/// a closed bank, a PRE on a conflict once no queued request hits the open
/// row), and `DramChannel::check` must reject each one. This is what the
/// ready-bank prune has to preserve: it may only skip banks that could not
/// have issued.
fn drive_work_conserving(arrivals: &[(u8, u8, u8, bool)], cycles: u64) {
    let geom = Geometry::paper_default();
    let timing = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
    let mut chan = DramChannel::new(geom, timing, Mechanism::NoRefresh.sarp_support());
    let mut mc = MemoryController::new(0, geom, timing, Mechanism::NoRefresh, 1);
    let mut arrival_iter = arrivals.iter().cycle();
    let mut next_arrival = 0u64;
    let mut completions = Vec::new();
    let mut idle_cycles_with_demand = 0u64;

    for now in 0..cycles {
        if now >= next_arrival {
            let (gap, place, line, is_write) = *arrival_iter.next().expect("cycled");
            next_arrival = now + 1 + u64::from(gap % 5);
            // A small location space, so hits, conflicts and closed banks
            // all occur constantly.
            let loc = Location {
                channel: 0,
                rank: usize::from(place & 1),
                bank: usize::from(place >> 1) % geom.banks_per_rank(),
                row: u32::from(line & 3),
                col: u32::from(line >> 2) % 8,
            };
            let id = now + 1;
            if is_write {
                let _ = mc.try_enqueue_write(Request::write(id, loc, 0, now));
            } else {
                let _ = mc.try_enqueue_read(Request::read(id, loc, 0, now));
            }
        }
        completions.clear();
        mc.step(&mut chan, now, &mut completions);
        if chan.last_issue() == Some(now) {
            continue;
        }
        let drain = mc.queues().in_drain_mode();
        let servable: Vec<Probe> = if drain {
            mc.queues().iter_writes().collect()
        } else {
            mc.queues().iter_reads().collect()
        };
        idle_cycles_with_demand += u64::from(!servable.is_empty());
        for req in &servable {
            let (rank, bank) = (req.rank, req.bank);
            let cmd = match chan.rank(rank).bank(bank).open_row() {
                None => Command::Activate {
                    rank,
                    bank,
                    row: req.row,
                },
                Some(open) if open == req.row && drain => Command::Write {
                    rank,
                    bank,
                    col: req.col,
                    auto_precharge: false,
                },
                Some(open) if open == req.row => Command::Read {
                    rank,
                    bank,
                    col: req.col,
                    auto_precharge: false,
                },
                Some(open) => {
                    let hit_queued = servable
                        .iter()
                        .any(|r| (r.rank, r.bank, r.row) == (rank, bank, open));
                    if hit_queued {
                        continue; // the row stays open for its hits
                    }
                    Command::Precharge { rank, bank }
                }
            };
            assert!(
                chan.check(&cmd, now).is_err(),
                "cycle {now} issued nothing, yet {cmd:?} for {req:?} was legal"
            );
        }
    }
    assert!(
        idle_cycles_with_demand > 0,
        "the oracle never saw a non-issuing cycle with queued demand"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn idle_cycles_are_forced_idle_without_refresh(
        arrivals in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()),
            8..80,
        ),
    ) {
        drive_work_conserving(&arrivals, 6_000);
    }
}
