//! Command-stream snapshot: pins the exact `(cycle, Command)` sequence every
//! mechanism emits on each channel, not just the aggregate `RunStats`. A
//! scheduler change that reorders two commands but happens to leave every
//! counter equal still fails here.
//!
//! The expected hashes were generated on the commit *before* the ready-bank
//! scheduler (PR 12) and must never be regenerated to make a scheduler
//! change pass; a deliberate behaviour change replaces them in its own PR.
//! To print the current values: `cargo test --test command_stream -- --nocapture`
//! after emptying `EXPECTED`.

mod refresh_deadline;

use dsarp_campaign::fingerprint::fingerprint_bytes;
use dsarp_core::Mechanism;
use dsarp_dram::{Command, Density, FgrMode};
use dsarp_sim::{SimConfig, SystemBuilder};
use dsarp_workloads::{catalogue, mixes, Workload};
use refresh_deadline::{longest_refresh_gap, ON_SCHEDULE, POSTPONING};
use std::fmt::Write;
use std::sync::OnceLock;

const CYCLES: u64 = 30_000;

/// `(workload, mechanism label, channel-0 hash, channel-1 hash)`.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str, &str, &str)] = &[
    ("mi01", "No REF", "bb8074a46290a3d0613697e27a491e5f", "e8fec85f4b16933fb179c4830b1b845f"),
    ("mi01", "REFab", "e68abb15f1b281901d2e8c4c39b1d21a", "dff43af1667f0ef0cfa21a89fe120129"),
    ("mi01", "REFpb", "8564b447d925594013d6ba2b481028ad", "b2ab8b1d1de46c75a7e3d8a88af81783"),
    ("mi01", "Elastic", "e91b083f866d89e8ecfff649c4f1d6c7", "dfa64c36240a2218dec9b85438a3de4e"),
    ("mi01", "DARP", "0f267618f2d8b066fc5246740a01bad6", "f8622bef5b0b32bfc6da5d24b230934b"),
    ("mi01", "DARP (OoO only)", "efb7683cb35865bf5771fdece7aeda53", "2cd7671c70c30e00ebe672274fc78f9b"),
    ("mi01", "SARPab", "d409ec996ec740717a9125004f8d0955", "1075a1e6a51bd9e54b63a8f29c6f2409"),
    ("mi01", "SARPpb", "7e9c7e2837ef127f9a6fa75031a4b3cb", "6d6e3f359b50833c59e29ddcda8cb32b"),
    ("mi01", "DSARP", "b888038ab623c2f78f8b69d93c13a41e", "8c028e1dd0f3df5a43a3e42eda0ea01e"),
    ("mi01", "FGR 2x", "16048d046f5c858569f227a61e7eddac", "91242c42a9518d18fb815df066971743"),
    ("mi01", "FGR 4x", "c8d75419dbdae14de2ae8cb1571c9bfe", "86996c4d37b936de885fbefb282d1a07"),
    ("mi01", "AR", "e68abb15f1b281901d2e8c4c39b1d21a", "dff43af1667f0ef0cfa21a89fe120129"),
    ("8x-lbm_like", "No REF", "4ea99b69664c75536449eb75f78e6e90", "7a1c39ec500ea5c1b778369d04fe9bc3"),
    ("8x-lbm_like", "REFab", "8a7ece0697eaae5662f6115a8e45e871", "2250bc15762939b54c4c5766be8bdb9a"),
    ("8x-lbm_like", "REFpb", "b73f6c7bbc483711a8077d53c330cdbf", "a0ce03e2900aa0cf64fba1f0d4e30744"),
    ("8x-lbm_like", "Elastic", "8b29aa07a2de43afbfa614febf67a9ae", "a3bcb03303a788d556a685f59f046545"),
    ("8x-lbm_like", "DARP", "aad21fe02682d2780947b048e4c474e8", "7c15c01525adb8d1048bbffcd956e02c"),
    ("8x-lbm_like", "DARP (OoO only)", "13d14783f7f6c88678a97ba1e4dd3683", "3589ab1c7f3adf2ae9b26e23e3771977"),
    ("8x-lbm_like", "SARPab", "4bd26008fe04b99a1b736ee37ff1b0b8", "77874add37dd14e5afe99225d6af0007"),
    ("8x-lbm_like", "SARPpb", "0a65f2b88e912f2d002feaca082c4400", "3fcba8fb8652b9af58ba99250a4c241d"),
    ("8x-lbm_like", "DSARP", "449b1a48fe374938b2e3e850aa8ce707", "2bef450220f94911b032df1a2bd030b9"),
    ("8x-lbm_like", "FGR 2x", "1377fca032b12b79916d43112a70f180", "f0ca01144ae1ede0d3a4dbf0c4ecd49a"),
    ("8x-lbm_like", "FGR 4x", "b4c48d9310fbe9b8d0546ee9ab59a8aa", "3a590f3a058670709dee75f2781f519f"),
    ("8x-lbm_like", "AR", "8a7ece0697eaae5662f6115a8e45e871", "2250bc15762939b54c4c5766be8bdb9a"),
    ("w000", "No REF", "ecb38fb9d71e044ee6cd5ff9e33d2c1d", "49c9e5afc39a03af12553e0f35347985"),
    ("w000", "REFab", "ff2586c8d50bc0fc5a7401e9edb48a83", "38b861b15f8f56524bcb32aba2da594d"),
    ("w000", "REFpb", "169415657af4168196b84c32aef1ec25", "9e91217a374794652ab88ba968b8b6e4"),
    ("w000", "Elastic", "e258f5aa5c16ee634daca243beb911c0", "f5d8351dd61e877d8d9dc86bedbd4f89"),
    ("w000", "DARP", "f5d301a9a94e2c283e7ede1da6a60f21", "4c193a282984ece08cb2667e31284055"),
    ("w000", "DARP (OoO only)", "f5d301a9a94e2c283e7ede1da6a60f21", "4c193a282984ece08cb2667e31284055"),
    ("w000", "SARPab", "b0facbc1a5f89d5841ff654f661597a0", "8e75f5d7bbc3fb611f15f5da42b4fd9e"),
    ("w000", "SARPpb", "97574f828a564688faec36aaf6818436", "409623932d9563822d118b9845763e8d"),
    ("w000", "DSARP", "19c31552e0f77b88cb78a47db7eac759", "0d8e9d79eee3d3542ba7c463cc9f05dc"),
    ("w000", "FGR 2x", "908c80620d56446f9617acff5aa802ef", "f4770b6adc4cbe1c685b3c0c0a2745d5"),
    ("w000", "FGR 4x", "43801faa9324d226249fbeeab27e99d6", "0fe26a3deadc12399f62aeca45e34618"),
    ("w000", "AR", "9596967e70dc81ad04396cce25918f81", "fdf30dac98e5462148fad27d6537bd9c"),
];

fn workloads() -> [Workload; 3] {
    let lbm = catalogue::by_name("lbm_like").expect("catalogue has lbm_like");
    [
        mixes::intensive_mixes(8, 7)[1].clone(),
        Workload {
            name: "8x-lbm_like".into(),
            category: mixes::IntensityCategory::P100,
            benchmarks: vec![lbm; 8],
        },
        // A mixed-intensity mix on which Adaptive Refresh leaves 1x mode.
        mixes::paper_workloads(8, 7)[0].clone(),
    ]
}

/// FNV-128 of one channel's log rendered one `cycle command` line each.
fn log_hash(log: &[(u64, Command)]) -> String {
    let mut text = String::with_capacity(log.len() * 48);
    for (cycle, cmd) in log {
        writeln!(text, "{cycle} {cmd:?}").expect("writing to a String");
    }
    fingerprint_bytes(text.as_bytes()).to_string()
}

/// Both channels' `(cycle, Command)` logs of `mech` on `wl` at 32 Gb.
type Streams = [Vec<(u64, Command)>; 2];

fn config(mech: Mechanism) -> SimConfig {
    SimConfig::paper(mech, Density::G32)
}

/// Every pinned `(workload, mechanism, streams)`, simulated once and
/// shared by the tests below.
fn pinned() -> &'static [(String, Mechanism, Streams)] {
    static PINNED: OnceLock<Vec<(String, Mechanism, Streams)>> = OnceLock::new();
    PINNED.get_or_init(|| {
        let mut runs = Vec::new();
        for wl in workloads() {
            for mech in Mechanism::ALL {
                let cfg = config(mech);
                let mut sys = SystemBuilder::new(&cfg)
                    .workload(&wl)
                    .command_log(true)
                    .build();
                sys.run(CYCLES);
                let streams = [sys.take_command_log(0), sys.take_command_log(1)];
                runs.push((wl.name.clone(), mech, streams));
            }
        }
        runs
    })
}

/// The pinned streams of `mech` on the workload named `wl`.
fn streams(wl: &str, mech: Mechanism) -> &'static Streams {
    pinned()
        .iter()
        .find(|(w, m, _)| w == wl && *m == mech)
        .map(|(_, _, streams)| streams)
        .expect("a pinned run")
}

#[test]
fn command_streams_match_the_pre_pruning_scheduler() {
    let mut actual = Vec::new();
    for (wl, mech, [ch0, ch1]) in pinned() {
        assert!(ch0.len() + ch1.len() > 1_000, "{mech} on {wl}");
        actual.push((wl, mech.label(), log_hash(ch0), log_hash(ch1)));
    }
    for (wl, mech, ch0, ch1) in &actual {
        println!("    ({wl:?}, {mech:?}, {ch0:?}, {ch1:?}),");
    }
    assert_eq!(actual.len(), EXPECTED.len(), "snapshot table size");
    for ((wl, mech, ch0, ch1), want) in actual.iter().zip(EXPECTED) {
        assert_eq!(
            (wl.as_str(), *mech, ch0.as_str(), ch1.as_str()),
            *want,
            "command stream diverged for {mech} on {wl}"
        );
    }
}

/// The per-bank refresh deadline on every pinned stream, with each
/// mechanism's budget from `retention_integrity.rs`. `None`: the
/// mechanism issues no refresh command at all.
fn refresh_budget(mech: Mechanism) -> Option<u64> {
    use Mechanism::*;
    match mech {
        NoRefresh => None,
        RefAb | RefPb | SarpAb | SarpPb | Fgr2x | Fgr4x | AdaptiveRefresh => Some(ON_SCHEDULE),
        Elastic | Darp | DarpOooOnly | Dsarp => Some(POSTPONING),
    }
}

#[test]
fn pinned_streams_meet_their_refresh_deadlines() {
    let geom = config(Mechanism::RefAb).geometry();
    for (wl, mech, streams) in pinned() {
        let gap = longest_refresh_gap(streams, &geom, CYCLES);
        println!(
            "{wl:>12} {:>16}: max bank gap {gap:>5} cycles",
            mech.label()
        );
        match refresh_budget(*mech) {
            Some(budget) => assert!(
                gap <= budget,
                "{mech} on {wl}: a bank went {gap} cycles without refresh (budget {budget})"
            ),
            None => assert!(
                !streams.iter().flatten().any(|(_, cmd)| matches!(
                    cmd,
                    Command::RefreshAllBank { .. } | Command::RefreshPerBank { .. }
                )),
                "{mech} on {wl} issued a refresh"
            ),
        }
    }
}

/// Streams that are equal only by accident of the pinned hashes pin
/// nothing (ROADMAP 2(d)), so both sides are asserted on the streams
/// themselves: Adaptive Refresh never leaves 1x mode on the two intensive
/// workloads, so it issues exactly `REFab`'s commands there, and it does
/// switch on `w000`, which the `AR` rows therefore cover.
#[test]
fn adaptive_refresh_emits_refab_stream_only_where_it_holds_1x() {
    for wl in ["mi01", "8x-lbm_like"] {
        let (ar, refab) = (
            streams(wl, Mechanism::AdaptiveRefresh),
            streams(wl, Mechanism::RefAb),
        );
        for ch in 0..2 {
            let first = ar[ch].iter().zip(&refab[ch]).position(|(g, w)| g != w);
            assert!(
                first.is_none() && ar[ch].len() == refab[ch].len(),
                "identity broken: AR must emit exactly REFab's command stream on {wl} \
                 channel {ch}, but they part at command {:?} ({} vs {} commands)",
                first,
                ar[ch].len(),
                refab[ch].len()
            );
        }
    }
    let ar = streams("w000", Mechanism::AdaptiveRefresh);
    assert_ne!(ar, streams("w000", Mechanism::RefAb), "AR on w000");
    let four_x = ar.iter().flatten().any(|(_, cmd)| {
        matches!(
            cmd,
            Command::RefreshAllBank {
                fgr: FgrMode::X4,
                ..
            }
        )
    });
    assert!(four_x, "AR must leave 1x mode on w000");
}

/// DARP is DARP-OoO-only plus write-refresh parallelization, so the two
/// emit one stream exactly where that component never acts. Telemetry
/// gives the reason on both sides: on `w000` DARP parallelizes no refresh
/// with a write drain on either channel, and on `8x-lbm_like` it does.
#[test]
fn darp_equals_its_ooo_only_half_exactly_where_no_write_drain_is_parallelized() {
    let workloads = workloads();
    let write_parallelized = |wl: &str| {
        let wl = workloads.iter().find(|w| w.name == wl).expect("a workload");
        let cfg = config(Mechanism::Darp);
        let stats = SystemBuilder::new(&cfg)
            .workload(wl)
            .telemetry(true)
            .build()
            .run(CYCLES);
        let tel = stats.telemetry.expect("telemetry was on");
        tel.refreshes.darp_write_parallelized
    };
    let darp = |wl| streams(wl, Mechanism::Darp);
    let ooo_only = |wl| streams(wl, Mechanism::DarpOooOnly);
    assert_eq!(write_parallelized("w000"), 0, "summed over both channels");
    assert!(darp("w000") == ooo_only("w000"), "DARP vs OoO-only on w000");
    assert!(write_parallelized("8x-lbm_like") > 0);
    assert!(darp("8x-lbm_like") != ooo_only("8x-lbm_like"));
}
