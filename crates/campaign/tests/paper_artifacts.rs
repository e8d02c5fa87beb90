//! The paper's shape checks, on the path a user runs: `CampaignSpec::paper`
//! is drained once at a tiny scale and every assertion reads the rows the
//! artifact table's own reduce step produced — so the production sweep
//! definitions, the sweep-name formats and the reducers fed the shared
//! 12-mechanism `main` grid are what is under test.

use dsarp_campaign::{paper, Campaign, CampaignSpec};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::experiments::{
    ablations::AblationRow,
    fig06_07::Fig7Row,
    fig12_table2::{Fig12Point, Table2Row},
    fig13::Fig13Row,
    fig14::Fig14Row,
    fig15::Fig15Row,
    fig16::Fig16Row,
    table3::Table3Row,
    table4::Table4Row,
    table5::Table5Row,
    table6::Table6Row,
    Scale,
};
use serde::Deserialize;
use serde_json::Value;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Rows by CSV stem.
type Reduced = HashMap<&'static str, Vec<Value>>;

struct Shared {
    /// Every artifact of the full paper campaign, one workload per category.
    paper: Reduced,
    /// Figure 15 again with two workloads per category: its check compares
    /// intensity categories, which one workload each is too few for.
    fig15: Reduced,
}

fn reduce(dir: &std::path::Path, spec: CampaignSpec, only: Option<&str>) -> Reduced {
    let report = Campaign::open(dir, spec).unwrap().run().unwrap();
    paper::ARTIFACTS
        .iter()
        .filter(|a| a.answers(only))
        .flat_map(|a| a.reduce(&report))
        .map(|section| (section.stem, section.rows))
        .collect()
}

/// Both campaigns, drained once for all tests into one store (the second
/// reuses the first's cells for the workloads they share).
fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let scale = Scale {
            dram_cycles: 30_000,
            alone_cycles: 15_000,
            per_category: 1,
            threads: 0,
            warmup_ops: 20_000,
        };
        let dir = std::env::temp_dir()
            .join("dsarp-campaign-int-tests")
            .join(format!("paper-artifacts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paper = reduce(&dir, CampaignSpec::paper(scale), None);
        let two = Scale {
            per_category: 2,
            ..scale
        };
        let fig15 = reduce(&dir, paper::spec(two, Some("fig15")), Some("fig15"));
        let _ = std::fs::remove_dir_all(&dir);
        Shared { paper, fig15 }
    })
}

fn typed<T: Deserialize>(reduced: &Reduced, stem: &str) -> Vec<T> {
    reduced[stem]
        .iter()
        .map(|row| serde_json::from_value(row).expect("rows deserialize as written"))
        .collect()
}

fn rows<T: Deserialize>(stem: &str) -> Vec<T> {
    typed(&shared().paper, stem)
}

#[test]
fn every_declared_section_is_reduced() {
    let declared = paper::ARTIFACTS.iter().flat_map(|a| a.sections);
    for section in declared {
        let rows = &shared().paper[section.stem];
        assert!(!rows.is_empty(), "{} has no rows", section.stem);
    }
}

#[test]
fn quick_run_shows_refresh_hurting_more_at_high_density() {
    let fig7: Vec<Fig7Row> = rows("fig07_refab_refpb_loss");
    assert_eq!(fig7.len(), 3);
    let loss8 = fig7.iter().find(|r| r.density == Density::G8).unwrap();
    let loss32 = fig7.iter().find(|r| r.density == Density::G32).unwrap();
    assert!(
        loss32.refab_loss_pct > loss8.refab_loss_pct,
        "REFab loss must grow with density: {loss8:?} vs {loss32:?}"
    );
    // Per-bank refresh recovers part of the loss on average.
    assert!(loss32.refpb_loss_pct < loss32.refab_loss_pct);
}

#[test]
fn quick_run_reproduces_headline_shape() {
    let fig12: Vec<Fig12Point> = rows("fig12_sorted_ws");
    let table2: Vec<Table2Row> = rows("table2_ws_improvements");
    assert!(!fig12.is_empty());
    // Fig 12 sorted curves: DARP series is non-decreasing in index.
    let darp32: Vec<f64> = {
        let mut pts: Vec<&Fig12Point> = fig12
            .iter()
            .filter(|p| p.density == Density::G32 && p.mechanism == Mechanism::Darp)
            .collect();
        pts.sort_by_key(|p| p.sorted_index);
        pts.iter().map(|p| p.ws_over_refab).collect()
    };
    for w in darp32.windows(2) {
        assert!(w[1] >= w[0] - 1e-9, "sorted series must be monotonic");
    }
    // Table 2 shape at 32 Gb: DSARP's gmean gain over REFab exceeds
    // DARP's (SARP adds on top of DARP at high density).
    let at = |m: Mechanism| {
        table2
            .iter()
            .find(|r| r.density == Density::G32 && r.mechanism == m)
            .unwrap()
            .gmean_over_refab_pct
    };
    assert!(
        at(Mechanism::Dsarp) >= at(Mechanism::Darp) - 0.5,
        "DSARP {} vs DARP {}",
        at(Mechanism::Dsarp),
        at(Mechanism::Darp)
    );
}

#[test]
fn quick_run_ideal_dominates_and_dsarp_tracks_it() {
    let rows: Vec<Fig13Row> = rows("fig13_all_mechanisms");
    let get = |m: Mechanism, d: Density| {
        rows.iter()
            .find(|r| r.mechanism == m && r.density == d)
            .unwrap()
            .gmean_over_refab_pct
    };
    for d in Density::evaluated() {
        let ideal = get(Mechanism::NoRefresh, d);
        let dsarp = get(Mechanism::Dsarp, d);
        assert!(
            ideal >= dsarp - 1.0,
            "ideal {ideal} vs dsarp {dsarp} at {d}"
        );
        // DSARP captures most of the ideal gain (paper: within 0.9-3.7%).
        assert!(
            dsarp > 0.3 * ideal,
            "DSARP should capture most of No-REF's gain at {d}: {dsarp} vs {ideal}"
        );
    }
    // Full DARP (OoO + WRP) >= OoO-only on average at 32 Gb.
    let full = get(Mechanism::Darp, Density::G32);
    let ooo = get(Mechanism::DarpOooOnly, Density::G32);
    assert!(full >= ooo - 1.5, "full DARP {full} vs OoO-only {ooo}");
}

#[test]
fn dsarp_reduces_energy_per_access() {
    let rows: Vec<Fig14Row> = rows("fig14_energy");
    for d in Density::evaluated() {
        let get = |m: Mechanism| {
            rows.iter()
                .find(|r| r.mechanism == m && r.density == d)
                .unwrap()
                .energy_nj
        };
        assert!(get(Mechanism::RefAb) > 0.0);
        // Paper Fig. 14: DSARP consumes less energy per access than
        // REFab (3-9% depending on density).
        assert!(
            get(Mechanism::Dsarp) < get(Mechanism::RefAb) * 1.02,
            "DSARP {} vs REFab {} at {d}",
            get(Mechanism::Dsarp),
            get(Mechanism::RefAb)
        );
    }
}

#[test]
fn improvement_over_refab_grows_with_intensity() {
    let rows: Vec<Fig15Row> = typed(&shared().fig15, "fig15_intensity");
    let at = |cat: &str, d: Density| {
        rows.iter()
            .find(|r| r.category == cat && r.density == d)
            .unwrap()
    };
    // The all-intensive category benefits more than the all-compute one
    // at 32 Gb (the paper's central trend).
    let low = at("0", Density::G32).over_refab_pct;
    let high = at("100", Density::G32).over_refab_pct;
    // The average row is labelled, not a sentinel number.
    assert!(at("all", Density::G32).over_refab_pct.is_finite());
    assert!(high > low, "100% {high} should beat 0% {low}");
}

#[test]
fn fgr_loses_ar_ties_dsarp_wins() {
    let rows: Vec<Fig16Row> = rows("fig16_fgr_ar");
    let at = |m: Mechanism, d: Density| {
        rows.iter()
            .find(|r| r.mechanism == m && r.density == d)
            .unwrap()
            .normalized_ws
    };
    for d in Density::evaluated() {
        // The paper's §6.5 ordering: FGR 4x < FGR 2x < ~REFab ~ AR < DSARP.
        assert!(at(Mechanism::Fgr4x, d) < at(Mechanism::Fgr2x, d) + 0.02);
        assert!(at(Mechanism::Fgr2x, d) < 1.02);
        assert!(at(Mechanism::Dsarp, d) > at(Mechanism::Fgr2x, d));
        assert!(at(Mechanism::Dsarp, d) > 1.0);
    }
    // FGR's penalty is worst at the highest density.
    assert!(at(Mechanism::Fgr4x, Density::G32) < at(Mechanism::Fgr4x, Density::G8));
}

#[test]
fn dsarp_helps_at_every_core_count() {
    let rows: Vec<Table3Row> = rows("table3_core_count");
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(
            r.ws_improvement_pct > 0.0,
            "{} cores: WS improvement {}",
            r.cores,
            r.ws_improvement_pct
        );
    }
}

#[test]
fn tighter_faw_does_not_erase_sarp_gains() {
    let rows: Vec<Table4Row> = rows("table4_tfaw");
    assert_eq!(rows.len(), 6);
    // The paper's trend: looser activation windows (small tFAW) give
    // SARP more headroom; improvement shrinks as tFAW/tRRD grow
    // (Table 4: 14.0% -> 10.3%). At quick scale we assert the ordering
    // with slack rather than absolute values.
    for r in &rows {
        assert!(
            r.ws_improvement_pct > -4.0,
            "tFAW {}: improvement {}",
            r.faw,
            r.ws_improvement_pct
        );
    }
    assert!(
        rows[0].ws_improvement_pct >= rows[5].ws_improvement_pct - 2.0,
        "5/1 ({}) should not trail 30/6 ({})",
        rows[0].ws_improvement_pct,
        rows[5].ws_improvement_pct
    );
}

#[test]
fn single_subarray_gives_no_benefit_many_give_much() {
    let rows: Vec<Table5Row> = rows("table5_subarrays");
    assert_eq!(rows.len(), 7);
    let at = |n: usize| {
        rows.iter()
            .find(|r| r.subarrays == n)
            .unwrap()
            .ws_improvement_pct
    };
    // With one subarray SARP cannot parallelize anything within a bank:
    // every row shares the refreshing subarray (paper Table 5: 0%).
    assert!(at(1).abs() < 2.0, "1 subarray: {}", at(1));
    // More subarrays help more (paper: 3.8% -> 16.9%).
    assert!(at(64) > at(1), "64 subarrays {} vs 1 {}", at(64), at(1));
}

#[test]
fn gains_positive_and_growing_with_density() {
    let rows: Vec<Table6Row> = rows("table6_64ms");
    assert_eq!(rows.len(), 3);
    let at = |d: Density| rows.iter().find(|r| r.density == d).unwrap();
    assert!(at(Density::G32).gmean_over_refab_pct > 0.0);
    assert!(
        at(Density::G32).gmean_over_refab_pct >= at(Density::G8).gmean_over_refab_pct - 0.5,
        "gain should grow with density"
    );
}

#[test]
fn throttle_costs_something_but_not_everything() {
    let rows: Vec<AblationRow> = rows("ablations");
    let get = |study: &str, variant_prefix: &str| {
        rows.iter()
            .find(|r| r.study == study && r.variant.starts_with(variant_prefix))
            .unwrap_or_else(|| panic!("{study}/{variant_prefix}"))
            .ws_improvement_pct
    };
    // Unthrottled SARP can only do better or equal (it has strictly
    // looser constraints); tolerance for scheduling noise.
    let throttled = get("sarp_power_throttle", "throttled");
    let unthrottled = get("sarp_power_throttle", "unthrottled");
    assert!(
        unthrottled >= throttled - 1.0,
        "unthrottled {unthrottled} vs throttled {throttled}"
    );
    // All drain-watermark variants keep DARP ahead of REFpb.
    for r in rows.iter().filter(|r| r.study == "drain_watermarks") {
        assert!(
            r.ws_improvement_pct > -2.0,
            "{}: {}",
            r.variant,
            r.ws_improvement_pct
        );
    }
}
