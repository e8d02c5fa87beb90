//! End-to-end integration: the full stack (trace → core → LLC → controller
//! → DRAM) produces sane, internally consistent results for every mechanism.

use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::{SimConfig, SystemBuilder};
use dsarp_workloads::mixes;

fn workload() -> dsarp_workloads::Workload {
    mixes::intensive_mixes(8, 7)[1].clone()
}

#[test]
fn every_mechanism_runs_and_reports() {
    for mech in Mechanism::ALL {
        let cfg = SimConfig::paper(mech, Density::G16);
        // Long enough that even Elastic (which may legally postpone its
        // first refresh by up to 9 x tREFIab = 23.4K cycles) must refresh.
        let stats = SystemBuilder::new(&cfg)
            .workload(&workload())
            .build()
            .run(26_000);
        assert!(
            stats.total_ipc() > 0.05,
            "{mech}: ipc {}",
            stats.total_ipc()
        );
        assert!(
            stats.accesses() > 50,
            "{mech}: accesses {}",
            stats.accesses()
        );
        assert_eq!(stats.ipc.len(), 8);
        assert!(stats.energy.total_nj() > 0.0, "{mech}");
        if mech == Mechanism::NoRefresh {
            assert_eq!(stats.refreshes(), 0);
        } else {
            assert!(stats.refreshes() > 0, "{mech} must refresh");
        }
    }
}

#[test]
fn refresh_rates_match_the_standard() {
    // Over T cycles each rank owes T / tREFIab all-bank refreshes (or 8x
    // per-bank ones). Check the controller issues within tolerance of that.
    let cycles = 60_000u64;
    for (mech, per_rank_expected) in [
        (Mechanism::RefAb, cycles / 2_600),
        (Mechanism::RefPb, cycles / 325),
    ] {
        let cfg = SimConfig::paper(mech, Density::G8);
        let stats = SystemBuilder::new(&cfg)
            .workload(&workload())
            .build()
            .run(cycles);
        // 2 channels x 2 ranks.
        let expected = per_rank_expected * 4;
        let got = stats.refreshes();
        assert!(
            got * 8 >= expected * 7 && got <= expected + 8,
            "{mech}: {got} refreshes vs expected ~{expected}"
        );
    }
}

#[test]
fn darp_pull_ins_exceed_baseline_rate_but_bounded() {
    // DARP pulls refreshes in up to 8 per bank ahead; its total refresh
    // count can exceed the schedule by at most 8 x banks x ranks x channels.
    let cycles = 40_000u64;
    let cfg = SimConfig::paper(Mechanism::Darp, Density::G8);
    let stats = SystemBuilder::new(&cfg)
        .workload(&workload())
        .build()
        .run(cycles);
    let scheduled = (cycles / 325) * 4; // per-rank ticks x 4 ranks
    let slack = 8 * 8 * 4;
    assert!(
        stats.refreshes() <= scheduled + slack,
        "DARP issued {} refreshes vs schedule {scheduled} + slack {slack}",
        stats.refreshes()
    );
    // And it must not starve the schedule either (debts stay bounded).
    assert!(
        stats.refreshes() * 10 >= scheduled * 7,
        "DARP issued {} refreshes vs schedule {scheduled}",
        stats.refreshes()
    );
}

#[test]
fn energy_breakdown_components_are_consistent() {
    let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G32);
    let stats = SystemBuilder::new(&cfg)
        .workload(&workload())
        .build()
        .run(15_000);
    let e = &stats.energy;
    let total = e.total_nj();
    assert!(total > 0.0);
    let sum = e.act_pre_nj + e.read_nj + e.write_nj + e.refresh_nj + e.background_nj;
    assert!((sum - total).abs() < 1e-6);
    assert!(e.background_nj > 0.0, "background energy always accrues");
    assert!(
        e.refresh_nj > 0.0,
        "refreshing mechanism must spend refresh energy"
    );
    assert_eq!(e.accesses, stats.accesses());
}

#[test]
fn read_latency_is_at_least_the_unloaded_minimum() {
    let cfg = SimConfig::paper(Mechanism::NoRefresh, Density::G8);
    let stats = SystemBuilder::new(&cfg)
        .workload(&workload())
        .build()
        .run(15_000);
    let t = cfg.timing();
    // ACT + RD + data return is the floor for any miss.
    let floor = (t.rcd + t.cl + t.bl) as f64;
    assert!(
        stats.avg_read_latency() >= floor,
        "avg latency {} below physical floor {floor}",
        stats.avg_read_latency()
    );
}

#[test]
fn llc_misses_match_dram_reads() {
    let cfg = SimConfig::paper(Mechanism::RefPb, Density::G8);
    let mut sys = SystemBuilder::new(&cfg).workload(&workload()).build();
    let stats = sys.run(15_000);
    let dram_reads: u64 = stats.ctrl.iter().map(|c| c.reads_done).sum();
    let forwarded: u64 = stats.ctrl.iter().map(|c| c.forwarded_reads).sum();
    // Every LLC miss becomes a DRAM read (or a forwarded hit on the write
    // queue); some may still be in flight at the end of the run.
    assert!(
        dram_reads + forwarded <= stats.llc.misses,
        "reads {dram_reads} + forwarded {forwarded} vs misses {}",
        stats.llc.misses
    );
    assert!(
        (dram_reads + forwarded) * 10 >= stats.llc.misses * 8,
        "most misses should be serviced within the run"
    );
}

#[test]
fn command_log_is_temporally_ordered_and_legal_density() {
    let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G8);
    let mut sys = SystemBuilder::new(&cfg)
        .workload(&workload())
        .command_log(true)
        .build();
    let _ = sys.run(5_000);
    for ch in 0..2 {
        let log = sys.take_command_log(ch);
        assert!(!log.is_empty());
        for w in log.windows(2) {
            assert!(w[1].0 > w[0].0, "one command per channel cycle, in order");
        }
    }
}
