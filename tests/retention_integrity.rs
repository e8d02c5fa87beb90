//! Data-integrity invariants: no matter how aggressively a policy reorders,
//! postpones or pulls in refreshes, every bank keeps receiving them within
//! the bound the erratum establishes (≤ 8 postponed ⇒ gap ≤ 9 periods).
//! The gaps are judged from the command log, not by the device.

mod refresh_deadline;

use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::{SimConfig, SystemBuilder};
use dsarp_workloads::{catalogue, mixes, IntensityCategory, Workload};
use refresh_deadline::{longest_refresh_gap, ON_SCHEDULE, POSTPONING};

/// The longest refresh gap of any bank over `cycles` of `wl` under `cfg`.
fn longest_gap(cfg: &SimConfig, wl: &Workload, cycles: u64) -> u64 {
    let mut sys = SystemBuilder::new(cfg)
        .workload(wl)
        .command_log(true)
        .build();
    let end = sys.run(cycles).dram_cycles;
    let geom = cfg.geometry();
    let logs: Vec<_> = (0..geom.channels())
        .map(|ch| sys.take_command_log(ch))
        .collect();
    let gap = longest_refresh_gap(&logs, &geom, end);
    println!("{}: max bank gap {gap} cycles over {cycles}", cfg.mechanism);
    gap
}

fn max_gap(mech: Mechanism, cycles: u64) -> u64 {
    let wl = &mixes::intensive_mixes(8, 3)[0];
    longest_gap(&SimConfig::paper(mech, Density::G8), wl, cycles)
}

#[test]
fn baseline_refab_meets_schedule() {
    // REFab refreshes each bank every tREFIab; small slack for precharge
    // preparation under load.
    let gap = max_gap(Mechanism::RefAb, 40_000);
    assert!(
        gap <= ON_SCHEDULE,
        "REFab max bank gap {gap} cycles exceeds twice the period"
    );
}

#[test]
fn baseline_refpb_meets_schedule() {
    let gap = max_gap(Mechanism::RefPb, 40_000);
    assert!(gap <= ON_SCHEDULE, "REFpb max bank gap {gap}");
}

#[test]
fn darp_respects_the_erratum_bound() {
    // The erratum: at most 8 of a bank's refreshes may be postponed, so the
    // gap between consecutive refreshes of one bank is bounded by 9 periods
    // (plus scheduling slack).
    let gap = max_gap(Mechanism::Darp, 120_000);
    let bound = POSTPONING;
    assert!(
        gap <= bound,
        "DARP max bank gap {gap} exceeds erratum bound {bound}"
    );
}

#[test]
fn dsarp_respects_the_erratum_bound() {
    let gap = max_gap(Mechanism::Dsarp, 120_000);
    let bound = POSTPONING;
    assert!(
        gap <= bound,
        "DSARP max bank gap {gap} exceeds erratum bound {bound}"
    );
}

#[test]
fn elastic_respects_the_postponement_cap() {
    // Elastic postpones up to 8 rank-level refreshes: same 9-period bound.
    let gap = max_gap(Mechanism::Elastic, 120_000);
    let bound = POSTPONING;
    assert!(
        gap <= bound,
        "Elastic max bank gap {gap} exceeds bound {bound}"
    );
}

/// One full retention window, `tREFW` (the 8192 `tREFIab` intervals of
/// 32 ms), plus the 9 intervals a postponing mechanism may run behind: the
/// first run in which every bank of every rank must have been refreshed
/// end to end, judged by the same budgets as the short runs above. A
/// compute-bound mix leaves the DRAM idle, so skip-ahead makes it cheap in
/// the release profile (about half a second per mechanism); a dev build
/// takes minutes.
///
/// DARP and DSARP fail it (about 41 700 cycles, 16 periods): their debt
/// window of [-8, +8] lets a bank that was pulled in 8 refreshes ahead be
/// postponed 8 behind while a write left queued after a drain keeps it
/// out of the idle pool, so the erratum's 9-period gap holds only for a
/// bank that starts on schedule.
#[test]
#[ignore = "release only: cargo test --release --test retention_integrity -- --ignored"]
fn every_bank_is_refreshed_through_a_full_retention_window() {
    let wl = Workload {
        name: "8x-compute_bound".into(),
        category: IntensityCategory::P0,
        benchmarks: vec![&catalogue::COMPUTE_BOUND; 8],
    };
    let mut over = Vec::new();
    for (mech, budget) in [
        (Mechanism::RefAb, ON_SCHEDULE),
        (Mechanism::RefPb, ON_SCHEDULE),
        (Mechanism::Elastic, POSTPONING),
        (Mechanism::Darp, POSTPONING),
        (Mechanism::Dsarp, POSTPONING),
    ] {
        let cfg = SimConfig::paper(mech, Density::G32);
        let refi = cfg.timing().refi_ab;
        let gap = longest_gap(&cfg, &wl, (8_192 + 9) * refi);
        if gap > budget {
            over.push(format!("{mech}: {gap} > {budget}"));
        }
    }
    assert!(over.is_empty(), "max bank gap over budget: {over:?}");
}

#[test]
fn total_refresh_work_is_conserved_under_darp() {
    // Reordering must not change the long-run refresh *rate*: after T
    // cycles, total refreshes are within the schedule ± the flexibility
    // window (8 per bank, pulled in or postponed).
    let wl = &mixes::intensive_mixes(8, 3)[0];
    let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G8);
    let mut sys = SystemBuilder::new(&cfg).workload(wl).build();
    let cycles = 100_000;
    let stats = sys.run(cycles);
    let scheduled_per_rank = cycles / 325; // tREFIpb ticks
    let scheduled = scheduled_per_rank * 4; // 2 channels x 2 ranks
    let window = 8 * 8 * 4; // 8 per bank x 8 banks x 4 ranks
    let got = stats.refreshes();
    assert!(
        got + window >= scheduled && got <= scheduled + window,
        "refresh work drifted: {got} vs schedule {scheduled} ± {window}"
    );
}
