//! The paper's artifact table: every figure and table of the evaluation
//! declared once — the `--exp` name(s) it answers to, the sweeps it
//! reduces from, the files it writes, its row types and the reduction
//! itself.
//!
//! Everything that needs to know "what makes up artifact X" derives it
//! from [`ARTIFACTS`]: [`CampaignSpec::paper`] is the union of the table's
//! sweeps, the `experiments` binary validates and filters `--exp` against
//! [`names`], and its reduction loop is [`Artifact::reduce`] over the
//! selected entries. Each entry is declared below in table order, followed
//! by its row types and its reduction:
//!
//! | Entry → paper artifact |
//! |---|
//! | `fig5` → Fig. 5, tRFC trend (analytic) |
//! | `fig6`, `fig7` → Fig. 6 + 7, motivation |
//! | `fig12`, `table2` → Fig. 12 + Table 2, headline |
//! | `fig13` → Fig. 13 + §6.1.2 breakdown |
//! | `fig14` → Fig. 14, energy |
//! | `fig15` → Fig. 15, intensity |
//! | `fig16` → Fig. 16, FGR/AR |
//! | `table3` → Table 3, core count |
//! | `table4` → Table 4, tFAW |
//! | `table5` → Table 5, subarrays |
//! | `table6` → Table 6, 64 ms retention |
//! | `ablations` → throttle, DARP split, watermarks |

use crate::runner::CampaignReport;
use crate::spec::{CampaignSpec, SweepSpec, WorkloadSet};
use dsarp_core::Mechanism;
use dsarp_dram::timing::{trfc_projection1_ns, trfc_projection2_ns};
use dsarp_dram::{Density, Retention};
use dsarp_sim::experiments::harness::{Grid, WsRow};
use dsarp_sim::experiments::{report, Scale};
use dsarp_sim::{gmean, improvement_pct};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashMap;

/// One declared output file of an artifact.
pub struct Section {
    /// CSV file stem under `--out`.
    pub stem: &'static str,
    /// Heading of the section's markdown table; `None` keeps the rows out
    /// of `EXPERIMENTS_RAW.md` (Figure 12's per-workload points).
    pub title: Option<&'static str>,
}

const fn section(stem: &'static str, title: Option<&'static str>) -> Section {
    Section { stem, title }
}

/// What a reducer yields for one [`Section`].
struct Rows {
    rows: Vec<Value>,
    /// ASCII chart rendered after the section's table.
    chart: Option<String>,
}

/// One reduced [`Section`], ready to write.
pub struct Output {
    /// CSV file stem under `--out`.
    pub stem: &'static str,
    /// The rows, one flat JSON object each (what `report::write_csv` and
    /// `serde_json::from_value` both take).
    pub rows: Vec<Value>,
    /// The section's part of `EXPERIMENTS_RAW.md`.
    pub markdown: String,
}

/// One paper artifact.
pub struct Artifact {
    /// The `--exp` names that select it.
    pub names: &'static [&'static str],
    /// The files it writes, in order.
    pub sections: &'static [Section],
    sweeps: fn() -> Vec<SweepSpec>,
    /// One [`Rows`] per declared section.
    reduce: fn(&CampaignReport) -> Vec<Rows>,
}

impl Artifact {
    /// Whether `--exp only` (or its absence) selects this artifact.
    pub fn answers(&self, only: Option<&str>) -> bool {
        only.is_none_or(|o| self.names.contains(&o))
    }

    /// Reduces the artifact from a report holding its sweeps' grids.
    ///
    /// # Panics
    ///
    /// If the report lacks one of the artifact's sweeps.
    pub fn reduce(&self, report: &CampaignReport) -> Vec<Output> {
        let reduced = (self.reduce)(report);
        assert_eq!(reduced.len(), self.sections.len(), "{:?}", self.names);
        let output = |(section, Rows { rows, chart }): (&Section, Rows)| {
            let table = section.title.map(|title| report::to_markdown(title, &rows));
            Output {
                stem: section.stem,
                rows,
                markdown: table.into_iter().chain(chart).collect(),
            }
        };
        self.sections.iter().zip(reduced).map(output).collect()
    }
}

/// Every artifact of the evaluation, in sweep (and report) order.
pub static ARTIFACTS: [Artifact; 12] = [
    FIG5,
    FIG6_7,
    FIG12_TABLE2,
    FIG13,
    FIG14,
    FIG15,
    FIG16,
    TABLE3,
    TABLE4,
    TABLE5,
    TABLE6,
    ABLATIONS,
];

fn rows<T: Serialize>(rows: &[T]) -> Rows {
    let value = |row| serde_json::to_value(row).expect("experiment rows serialize");
    Rows {
        rows: rows.iter().map(value).collect(),
        chart: None,
    }
}

/// The shared 12-mechanism grid Figures 6/7/12–16 and Table 2 reduce from;
/// the binary also exports it raw.
pub const MAIN_SWEEP: &str = "main";

/// Every mechanism the main evaluation grid covers: the baselines, the
/// paper's mechanisms, and the DDR4/adaptive comparison points — enough
/// for Figures 6/7/12–16 and Table 2 to reduce from one grid.
const MAIN_GRID_MECHS: [Mechanism; 12] = [
    Mechanism::NoRefresh,
    Mechanism::RefAb,
    Mechanism::RefPb,
    Mechanism::Elastic,
    Mechanism::DarpOooOnly,
    Mechanism::Darp,
    Mechanism::SarpAb,
    Mechanism::SarpPb,
    Mechanism::Dsarp,
    Mechanism::Fgr2x,
    Mechanism::Fgr4x,
    Mechanism::AdaptiveRefresh,
];

fn main_sweep() -> Vec<SweepSpec> {
    let densities = Density::evaluated();
    vec![SweepSpec::new(
        MAIN_SWEEP,
        WorkloadSet::Paper,
        &MAIN_GRID_MECHS,
        &densities,
    )]
}

fn main(report: &CampaignReport) -> &Grid {
    report.grid(MAIN_SWEEP)
}

/// Per-workload WS ratios of `mech` over `base` at `density`, over one
/// intensity category's rows (every row for `None`).
fn ws_ratios(
    grid: &Grid,
    mech: Mechanism,
    base: Mechanism,
    density: Density,
    category: Option<u32>,
) -> Vec<f64> {
    grid.pairs(mech, base, density)
        .filter(|(row, _)| category.is_none_or(|c| row.category == c))
        .map(|(row, base)| row.ws / base.ws)
        .collect()
}

/// Geometric-mean WS improvement (%) of `mech` over `base`.
fn gmean_improvement(grid: &Grid, mech: Mechanism, base: Mechanism, density: Density) -> f64 {
    improvement_pct(gmean(&ws_ratios(grid, mech, base, density, None)), 1.0)
}

/// Maximum WS improvement (%) of `mech` over `base`.
fn max_improvement(grid: &Grid, mech: Mechanism, base: Mechanism, density: Density) -> f64 {
    ws_ratios(grid, mech, base, density, None)
        .into_iter()
        .map(|r| improvement_pct(r, 1.0))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// The intensity categories (% memory-intensive) Figures 6 and 15 break
/// down by, then `all` (every row) for the Gmean column.
fn categories() -> impl Iterator<Item = (String, Option<u32>)> {
    let each = [0u32, 25, 50, 75, 100].map(|c| (c.to_string(), Some(c)));
    each.into_iter().chain([("all".to_string(), None)])
}

/// A sweep over the 8-core memory-intensive mixes (every sensitivity
/// study but Table 3 runs on them).
fn intensive(name: String, mechanisms: &[Mechanism], densities: &[Density]) -> SweepSpec {
    let mixes = WorkloadSet::Intensive { cores: 8 };
    SweepSpec::new(name, mixes, mechanisms, densities)
}

const G32: [Density; 1] = [Density::G32];
const REFPB_SARPPB: [Mechanism; 2] = [Mechanism::RefPb, Mechanism::SarpPb];
const REF_DSARP: [Mechanism; 3] = [Mechanism::RefAb, Mechanism::RefPb, Mechanism::Dsarp];

/// One table column per sweep, in sweep order.
fn per_sweep<T: Serialize>(
    report: &CampaignReport,
    sweeps: Vec<SweepSpec>,
    column: impl Fn(&Grid, &SweepSpec) -> T,
) -> Vec<Rows> {
    let columns: Vec<T> = sweeps
        .iter()
        .map(|s| column(report.grid(&s.name), s))
        .collect();
    vec![rows(&columns)]
}

/// Figure 5: the `tRFCab` scaling trend with DRAM density.
///
/// Purely analytic — the paper extrapolates refresh latency linearly from
/// shipped devices (Projection 1: 1/2/4 Gb, Projection 2: 4/8 Gb) and uses
/// Projection 2 for evaluation.
const FIG5: Artifact = Artifact {
    names: &["fig5"],
    sections: &[section(
        "fig05_trfc_trend",
        Some("Figure 5: tRFCab trend (ns)"),
    )],
    sweeps: Vec::new,
    reduce: |_| vec![rows(&fig5_rows())],
};

/// One density point of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Density in gigabits.
    pub gigabits: u32,
    /// Data-sheet value for shipped devices, where one exists (ns).
    pub present_ns: Option<f64>,
    /// Projection 1 (from 1/2/4 Gb devices), ns.
    pub projection1_ns: f64,
    /// Projection 2 (from 4/8 Gb devices; used for evaluation), ns.
    pub projection2_ns: f64,
}

/// Data-sheet `tRFCab` for shipped densities (ns).
fn present(gb: u32) -> Option<f64> {
    match gb {
        1 => Some(110.0),
        2 => Some(160.0),
        4 => Some(260.0),
        8 => Some(350.0),
        _ => None,
    }
}

/// The figure's series at every 8 Gb step (plus the small shipped
/// densities).
fn fig5_rows() -> Vec<Fig5Row> {
    let mut gbs = vec![1u32, 2, 4];
    gbs.extend((1..=8).map(|i| i * 8));
    gbs.iter()
        .map(|&gb| Fig5Row {
            gigabits: gb,
            present_ns: present(gb),
            projection1_ns: trfc_projection1_ns(gb as f64),
            projection2_ns: trfc_projection2_ns(gb as f64),
        })
        .collect()
}

/// Figures 6 and 7: the motivation data.
///
/// * Fig. 6 — performance loss of all-bank refresh vs an ideal no-refresh
///   system, across the five memory-intensity categories and three DRAM
///   densities (the paper: up to ~20%+ at 32 Gb on all-intensive mixes).
/// * Fig. 7 — average loss of `REFab` and `REFpb` vs ideal per density
///   (the paper: `REFpb` still loses 16.6% at 32 Gb).
const FIG6_7: Artifact = Artifact {
    names: &["fig6", "fig7"],
    sections: &[
        section(
            "fig06_refab_loss",
            Some("Figure 6: WS loss of REFab vs no-refresh (%)"),
        ),
        section(
            "fig07_refab_refpb_loss",
            Some("Figure 7: WS loss of REFab/REFpb vs no-refresh (%)"),
        ),
    ],
    sweeps: main_sweep,
    reduce: reduce_fig6_7,
};

/// The ideal Figures 6/7 measure loss against, then the two baselines.
const FIG6_7_MECHS: [Mechanism; 3] = [Mechanism::NoRefresh, Mechanism::RefAb, Mechanism::RefPb];

/// One bar of Figure 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Intensity category (`0`/`25`/`50`/`75`/`100` = % memory-intensive),
    /// or `all` for the Gmean column.
    pub category: String,
    /// DRAM density.
    pub density: Density,
    /// Performance (WS) loss of `REFab` vs no-refresh, percent.
    pub loss_pct: f64,
}

/// One bar group of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// DRAM density.
    pub density: Density,
    /// Mean WS loss of `REFab` vs no-refresh, percent.
    pub refab_loss_pct: f64,
    /// Mean WS loss of `REFpb` vs no-refresh, percent.
    pub refpb_loss_pct: f64,
}

fn reduce_fig6_7(report: &CampaignReport) -> Vec<Rows> {
    let grid = main(report);
    let [ideal, refab, refpb] = FIG6_7_MECHS;
    let loss = |m, d, category| (1.0 - gmean(&ws_ratios(grid, m, ideal, d, category))) * 100.0;
    let mut fig6 = Vec::new();
    let mut fig7 = Vec::new();
    for d in Density::evaluated() {
        for (category, c) in categories() {
            let loss_pct = loss(refab, d, c);
            fig6.push(Fig6Row {
                category,
                density: d,
                loss_pct,
            });
        }
        fig7.push(Fig7Row {
            density: d,
            refab_loss_pct: loss(refab, d, None),
            refpb_loss_pct: loss(refpb, d, None),
        });
    }
    vec![rows(&fig6), rows(&fig7)]
}

/// Figure 12 and Table 2: the paper's headline results.
///
/// * Fig. 12 — per-workload WS improvement of `REFpb`, DARP, SARPpb and
///   DSARP over the `REFab` baseline, sorted by the DARP improvement,
///   for 8/16/32 Gb.
/// * Table 2 — maximum and geometric-mean WS improvement of DARP / SARPpb /
///   DSARP over both `REFpb` and `REFab` per density.
const FIG12_TABLE2: Artifact = Artifact {
    names: &["fig12", "table2"],
    sections: &[
        section("fig12_sorted_ws", None),
        section(
            "table2_ws_improvements",
            Some("Table 2: max / gmean WS improvement over REFpb and REFab (%)"),
        ),
    ],
    sweeps: main_sweep,
    reduce: reduce_fig12_table2,
};

/// Mechanisms plotted in Figure 12 (over the `REFab` baseline).
const FIG12_MECHS: [Mechanism; 4] = [
    Mechanism::RefPb,
    Mechanism::Darp,
    Mechanism::SarpPb,
    Mechanism::Dsarp,
];

/// Table 2's two baselines, then the mechanisms it compares against them.
const TABLE2_MECHS: [Mechanism; 5] = [
    Mechanism::RefAb,
    Mechanism::RefPb,
    Mechanism::Darp,
    Mechanism::SarpPb,
    Mechanism::Dsarp,
];

/// One plotted point of Figure 12.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Point {
    /// DRAM density.
    pub density: Density,
    /// Position on the x axis after sorting by DARP improvement.
    pub sorted_index: usize,
    /// Workload name.
    pub workload: String,
    /// Intensity category (%).
    pub category: u32,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// WS normalized to `REFab` for the same workload.
    pub ws_over_refab: f64,
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// DRAM density.
    pub density: Density,
    /// Mechanism (DARP / SARPpb / DSARP).
    pub mechanism: Mechanism,
    /// Maximum WS improvement over `REFpb`, percent.
    pub max_over_refpb_pct: f64,
    /// Maximum WS improvement over `REFab`, percent.
    pub max_over_refab_pct: f64,
    /// Gmean WS improvement over `REFpb`, percent.
    pub gmean_over_refpb_pct: f64,
    /// Gmean WS improvement over `REFab`, percent.
    pub gmean_over_refab_pct: f64,
}

fn reduce_fig12_table2(report: &CampaignReport) -> Vec<Rows> {
    let grid = main(report);
    let mut fig12 = Vec::new();
    let mut table2 = Vec::new();
    let [refab, refpb, compared @ ..] = TABLE2_MECHS;
    for d in Density::evaluated() {
        let over_refab = |m| grid.pairs(m, refab, d).map(|(r, b)| (r, r.ws / b.ws));
        // Sort workloads by DARP's improvement, as the paper does.
        let mut darp: Vec<(&WsRow, f64)> = over_refab(Mechanism::Darp).collect();
        darp.sort_by(|a, b| a.1.total_cmp(&b.1));
        let sorted: HashMap<&str, usize> = darp
            .iter()
            .enumerate()
            .map(|(i, (r, _))| (r.workload.as_str(), i))
            .collect();
        let start = fig12.len();
        for m in FIG12_MECHS {
            for (r, ws_over_refab) in over_refab(m) {
                if let Some(&sorted_index) = sorted.get(r.workload.as_str()) {
                    fig12.push(Fig12Point {
                        density: d,
                        sorted_index,
                        workload: r.workload.clone(),
                        category: r.category,
                        mechanism: m,
                        ws_over_refab,
                    });
                }
            }
        }
        // Stable: each workload's points keep the plotted mechanisms' order.
        fig12[start..].sort_by_key(|p| p.sorted_index);
        for m in compared {
            table2.push(Table2Row {
                density: d,
                mechanism: m,
                max_over_refpb_pct: max_improvement(grid, m, refpb, d),
                max_over_refab_pct: max_improvement(grid, m, refab, d),
                gmean_over_refpb_pct: gmean_improvement(grid, m, refpb, d),
                gmean_over_refab_pct: gmean_improvement(grid, m, refab, d),
            });
        }
    }
    let series: Vec<(&str, Vec<f64>)> = [Mechanism::RefPb, Mechanism::Darp, Mechanism::Dsarp]
        .iter()
        .map(|m| {
            let at_32 = fig12
                .iter()
                .filter(|p| p.density == Density::G32 && p.mechanism == *m);
            (m.label(), at_32.map(|p| p.ws_over_refab).collect())
        })
        .collect();
    let title = "Figure 12 at 32 Gb: WS over REFab, workloads sorted by DARP gain";
    vec![
        Rows {
            chart: Some(line_chart(title, &series, 12)),
            ..rows(&fig12)
        },
        rows(&table2),
    ]
}

/// Figure 13 and the §6.1.2 DARP-component breakdown: average WS
/// improvement of every mechanism over the `REFab` baseline.
const FIG13: Artifact = Artifact {
    names: &["fig13"],
    sections: &[section(
        "fig13_all_mechanisms",
        Some("Figure 13: gmean WS improvement over REFab (%)"),
    )],
    sweeps: main_sweep,
    reduce: reduce_fig13,
};

/// Mechanisms in the paper's Figure 13, plus the DARP out-of-order-only
/// configuration used for the §6.1.2 component breakdown.
const FIG13_MECHS: [Mechanism; 8] = [
    Mechanism::RefPb,
    Mechanism::Elastic,
    Mechanism::DarpOooOnly,
    Mechanism::Darp,
    Mechanism::SarpAb,
    Mechanism::SarpPb,
    Mechanism::Dsarp,
    Mechanism::NoRefresh,
];

/// One bar of Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig13Row {
    /// DRAM density.
    pub density: Density,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Gmean WS improvement over `REFab`, percent.
    pub gmean_over_refab_pct: f64,
}

fn reduce_fig13(report: &CampaignReport) -> Vec<Rows> {
    let mut fig13 = Vec::new();
    for d in Density::evaluated() {
        for m in FIG13_MECHS {
            fig13.push(Fig13Row {
                density: d,
                mechanism: m,
                gmean_over_refab_pct: gmean_improvement(main(report), m, Mechanism::RefAb, d),
            });
        }
    }
    let bars: Vec<(String, f64)> = fig13
        .iter()
        .filter(|r| r.density == Density::G32)
        .map(|r| (r.mechanism.label().to_string(), r.gmean_over_refab_pct))
        .collect();
    let chart = bar_chart("Figure 13 at 32 Gb (% over REFab)", &bars, 40);
    vec![Rows {
        chart: Some(chart),
        ..rows(&fig13)
    }]
}

/// Figure 14: DRAM energy per memory access under each mechanism.
const FIG14: Artifact = Artifact {
    names: &["fig14"],
    sections: &[section(
        "fig14_energy",
        Some("Figure 14: energy per access (nJ)"),
    )],
    sweeps: main_sweep,
    reduce: reduce_fig14,
};

/// Mechanisms shown in Figure 14.
const FIG14_MECHS: [Mechanism; 8] = [
    Mechanism::RefAb,
    Mechanism::RefPb,
    Mechanism::Elastic,
    Mechanism::Darp,
    Mechanism::SarpAb,
    Mechanism::SarpPb,
    Mechanism::Dsarp,
    Mechanism::NoRefresh,
];

/// One bar of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig14Row {
    /// DRAM density.
    pub density: Density,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Mean energy per access across workloads (nJ).
    pub energy_nj: f64,
    /// Reduction vs `REFab`, percent (positive = less energy).
    pub reduction_vs_refab_pct: f64,
}

fn mean_energy(grid: &Grid, m: Mechanism, d: Density) -> f64 {
    let vals: Vec<f64> = grid
        .rows()
        .iter()
        .filter(|r| r.mechanism == m && r.density == d && r.energy_nj > 0.0)
        .map(|r| r.energy_nj)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

fn reduce_fig14(report: &CampaignReport) -> Vec<Rows> {
    let grid = main(report);
    let mut out = Vec::new();
    for d in Density::evaluated() {
        let base = mean_energy(grid, Mechanism::RefAb, d);
        for m in FIG14_MECHS {
            let e = mean_energy(grid, m, d);
            out.push(Fig14Row {
                density: d,
                mechanism: m,
                energy_nj: e,
                reduction_vs_refab_pct: if base > 0.0 {
                    (1.0 - e / base) * 100.0
                } else {
                    0.0
                },
            });
        }
    }
    vec![rows(&out)]
}

/// Figure 15: DSARP's WS improvement over `REFab` and `REFpb` as memory
/// intensity and DRAM density vary.
const FIG15: Artifact = Artifact {
    names: &["fig15"],
    sections: &[section(
        "fig15_intensity",
        Some("Figure 15: DSARP WS improvement by memory intensity (%)"),
    )],
    sweeps: main_sweep,
    reduce: reduce_fig15,
};

/// Figure 15's two baselines, then DSARP.
const FIG15_MECHS: [Mechanism; 3] = [Mechanism::RefAb, Mechanism::RefPb, Mechanism::Dsarp];

/// One bar of Figure 15.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig15Row {
    /// Intensity category (% memory-intensive; `all` = average).
    pub category: String,
    /// DRAM density.
    pub density: Density,
    /// DSARP gmean WS improvement over `REFab`, percent.
    pub over_refab_pct: f64,
    /// DSARP gmean WS improvement over `REFpb`, percent.
    pub over_refpb_pct: f64,
}

fn reduce_fig15(report: &CampaignReport) -> Vec<Rows> {
    let grid = main(report);
    let [refab, refpb, dsarp] = FIG15_MECHS;
    let over = |base, d, c| improvement_pct(gmean(&ws_ratios(grid, dsarp, base, d, c)), 1.0);
    let mut out = Vec::new();
    for d in Density::evaluated() {
        for (category, c) in categories() {
            out.push(Fig15Row {
                category,
                density: d,
                over_refab_pct: over(refab, d, c),
                over_refpb_pct: over(refpb, d, c),
            });
        }
    }
    vec![rows(&out)]
}

/// Figure 16: DDR4 fine-granularity refresh (2x/4x), Adaptive Refresh, and
/// DSARP, normalized to the `REFab` baseline.
const FIG16: Artifact = Artifact {
    names: &["fig16"],
    sections: &[section(
        "fig16_fgr_ar",
        Some("Figure 16: WS normalized to REFab"),
    )],
    sweeps: main_sweep,
    reduce: reduce_fig16,
};

/// Mechanisms in Figure 16 (all normalized to `RefAb`).
const FIG16_MECHS: [Mechanism; 5] = [
    Mechanism::RefAb,
    Mechanism::Fgr2x,
    Mechanism::Fgr4x,
    Mechanism::AdaptiveRefresh,
    Mechanism::Dsarp,
];

/// One bar of Figure 16.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig16Row {
    /// DRAM density.
    pub density: Density,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Gmean WS normalized to `REFab` (1.0 = baseline).
    pub normalized_ws: f64,
}

fn reduce_fig16(report: &CampaignReport) -> Vec<Rows> {
    let mut out = Vec::new();
    for d in Density::evaluated() {
        for m in FIG16_MECHS {
            let ratios = ws_ratios(main(report), m, Mechanism::RefAb, d, None);
            out.push(Fig16Row {
                density: d,
                mechanism: m,
                normalized_ws: gmean(&ratios),
            });
        }
    }
    vec![rows(&out)]
}

/// Table 3: DSARP's effect on multi-core system metrics at 2, 4 and 8
/// cores (WS, harmonic speedup, maximum slowdown, energy per access),
/// evaluated on memory-intensive workloads at 32 Gb.
const TABLE3: Artifact = Artifact {
    names: &["table3"],
    sections: &[section(
        "table3_core_count",
        Some("Table 3: DSARP vs REFab by core count (32 Gb, intensive, %)"),
    )],
    sweeps: table3_sweeps,
    reduce: |r| per_sweep(r, table3_sweeps(), |grid, s| table3_column(grid, s.cores)),
};

fn table3_sweeps() -> Vec<SweepSpec> {
    let sweep = |cores| {
        let mixes = WorkloadSet::Intensive { cores };
        let mechs = [Mechanism::RefAb, Mechanism::Dsarp];
        SweepSpec::new(format!("table3/cores{cores}"), mixes, &mechs, &G32)
    };
    [2, 4, 8].map(sweep).into()
}

/// One column of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Core count.
    pub cores: usize,
    /// Gmean WS improvement of DSARP over `REFab`, percent.
    pub ws_improvement_pct: f64,
    /// Gmean harmonic-speedup improvement, percent.
    pub hs_improvement_pct: f64,
    /// Gmean maximum-slowdown reduction, percent.
    pub max_slowdown_reduction_pct: f64,
    /// Gmean energy-per-access reduction, percent.
    pub energy_reduction_pct: f64,
}

/// One core count's Table 3 column, from its grid (`RefAb` and `Dsarp`
/// rows at 32 Gb).
fn table3_column(grid: &Grid, cores: usize) -> Table3Row {
    let ratio = |f: fn(&WsRow) -> f64| -> f64 {
        let ratios: Vec<f64> = grid
            .pairs(Mechanism::Dsarp, Mechanism::RefAb, Density::G32)
            .map(|(r, b)| f(r) / f(b).max(1e-12))
            .collect();
        gmean(&ratios)
    };
    Table3Row {
        cores,
        ws_improvement_pct: improvement_pct(ratio(|r| r.ws), 1.0),
        hs_improvement_pct: improvement_pct(ratio(|r| r.hs), 1.0),
        max_slowdown_reduction_pct: (1.0 - ratio(|r| r.max_slowdown)) * 100.0,
        energy_reduction_pct: (1.0 - ratio(|r| r.energy_nj.max(1e-12))) * 100.0,
    }
}

/// Table 4: SARPpb's gain over `REFpb` as `tFAW`/`tRRD` vary.
///
/// SARP pays for parallelized refreshes by inflating `tFAW`/`tRRD`
/// (§4.3.3), so looser activation windows let it parallelize more — the
/// paper sweeps `tFAW/tRRD` from 5/1 to 30/6 DRAM cycles.
const TABLE4: Artifact = Artifact {
    names: &["table4"],
    sections: &[section(
        "table4_tfaw",
        Some("Table 4: SARPpb over REFpb vs tFAW/tRRD (32 Gb, %)"),
    )],
    sweeps: table4_sweeps,
    reduce: |r| {
        per_sweep(r, table4_sweeps(), |grid, s| {
            let (faw, rrd) = s.faw_rrd.expect("table 4 sweeps set tFAW/tRRD");
            Table4Row {
                faw,
                rrd,
                ws_improvement_pct: sarppb_over_refpb(grid),
            }
        })
    },
};

fn table4_sweeps() -> Vec<SweepSpec> {
    let sweep = |(faw, rrd)| SweepSpec {
        faw_rrd: Some((faw, rrd)),
        ..intensive(format!("table4/faw{faw}-rrd{rrd}"), &REFPB_SARPPB, &G32)
    };
    // The paper's `(tFAW, tRRD)` points, in DRAM cycles.
    [(5, 1), (10, 2), (15, 3), (20, 4), (25, 5), (30, 6)]
        .map(sweep)
        .into()
}

/// One column of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Four-activate window (DRAM cycles).
    pub faw: u64,
    /// Row-to-row activation delay (DRAM cycles).
    pub rrd: u64,
    /// Gmean WS improvement of SARPpb over `REFpb`, percent.
    pub ws_improvement_pct: f64,
}

/// Tables 4 and 5's column value, from one sweep point's grid (`RefPb`
/// and `SarpPb` rows at 32 Gb).
fn sarppb_over_refpb(grid: &Grid) -> f64 {
    gmean_improvement(grid, Mechanism::SarpPb, Mechanism::RefPb, Density::G32)
}

/// Table 5: SARPpb's gain over `REFpb` as the number of subarrays per bank
/// varies (1–64). More subarrays mean a smaller chance that a demand
/// request collides with the refreshing subarray.
///
/// Paper Table 5 (provenance: in-tree comment, from the deleted
/// `examples/subarray_sweep.rs`): 0 % at one subarray -> 16.9 % at 64.
const TABLE5: Artifact = Artifact {
    names: &["table5"],
    sections: &[section(
        "table5_subarrays",
        Some("Table 5: SARPpb over REFpb vs subarrays/bank (32 Gb, %)"),
    )],
    sweeps: table5_sweeps,
    reduce: |r| {
        per_sweep(r, table5_sweeps(), |grid, s| Table5Row {
            subarrays: s.subarrays,
            ws_improvement_pct: sarppb_over_refpb(grid),
        })
    },
};

fn table5_sweeps() -> Vec<SweepSpec> {
    let sweep = |subarrays| SweepSpec {
        subarrays,
        ..intensive(format!("table5/sub{subarrays}"), &REFPB_SARPPB, &G32)
    };
    [1, 2, 4, 8, 16, 32, 64].map(sweep).into()
}

/// One column of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table5Row {
    /// Subarrays per bank.
    pub subarrays: usize,
    /// Gmean WS improvement of SARPpb over `REFpb`, percent.
    pub ws_improvement_pct: f64,
}

/// Table 6's one sweep, named as the table is.
const TABLE6_SWEEP: &str = "table6";

/// Table 6: DSARP's gains at the relaxed 64 ms retention time
/// (`tREFIpb` = 7.8 µs/8). Refreshes are half as frequent, so all gains
/// shrink relative to the 32 ms main results — but stay positive and still
/// grow with density.
const TABLE6: Artifact = Artifact {
    names: &[TABLE6_SWEEP],
    sections: &[section(
        "table6_64ms",
        Some("Table 6: DSARP improvements at 64 ms retention (%)"),
    )],
    // The relaxed retention: refreshes half as frequent as the main grid's.
    sweeps: || {
        vec![SweepSpec {
            retention: Retention::Ms64,
            ..intensive(TABLE6_SWEEP.into(), &REF_DSARP, &Density::evaluated())
        }]
    },
    reduce: reduce_table6,
};

/// One row of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table6Row {
    /// DRAM density.
    pub density: Density,
    /// Max WS improvement of DSARP over `REFpb`, percent.
    pub max_over_refpb_pct: f64,
    /// Max WS improvement over `REFab`, percent.
    pub max_over_refab_pct: f64,
    /// Gmean WS improvement over `REFpb`, percent.
    pub gmean_over_refpb_pct: f64,
    /// Gmean WS improvement over `REFab`, percent.
    pub gmean_over_refab_pct: f64,
}

fn reduce_table6(report: &CampaignReport) -> Vec<Rows> {
    let grid = report.grid(TABLE6_SWEEP);
    let [refab, refpb, dsarp] = REF_DSARP;
    let row = |d| Table6Row {
        density: d,
        max_over_refpb_pct: max_improvement(grid, dsarp, refpb, d),
        max_over_refab_pct: max_improvement(grid, dsarp, refab, d),
        gmean_over_refpb_pct: gmean_improvement(grid, dsarp, refpb, d),
        gmean_over_refab_pct: gmean_improvement(grid, dsarp, refab, d),
    };
    vec![rows(&Density::evaluated().map(row))]
}

/// Ablation studies for the design choices DESIGN.md calls out.
///
/// Not paper artifacts — these quantify the cost/benefit of individual
/// pieces of the mechanisms:
///
/// 1. **SARP power throttle** — the `tFAW`/`tRRD` inflation of Eq. (1)–(3)
///    is mandatory for power integrity; disabling it bounds how much
///    performance the throttle costs (the gap between SARPpb and an
///    unthrottled, physically impossible variant).
/// 2. **DARP component split** — out-of-order refresh alone vs full DARP
///    (also visible in Figure 13, repeated here against `REFpb`).
/// 3. **Write-drain watermarks** — the paper fixes only the low watermark
///    (32); this sweep shows the high watermark choice is not load-bearing.
const ABLATIONS: Artifact = Artifact {
    names: &["ablations"],
    sections: &[section(
        "ablations",
        Some("Ablations (32 Gb, intensive, %)"),
    )],
    sweeps: ablation_sweeps,
    reduce: reduce_ablations,
};

/// `RefPb` + `SarpPb` under the paper's real (throttled) device.
const THROTTLE_SWEEP: &str = "ablations/throttle";
/// `SarpPb` with the power throttle ablated.
const UNTHROTTLED_SWEEP: &str = "ablations/unthrottled";
/// `RefPb` + `DarpOooOnly` + `Darp`.
const DARP_SWEEP: &str = "ablations/darp";

/// The throttle, unthrottled and DARP-split sweeps, then one `RefPb` +
/// `Darp` sweep per `(enter, exit)` watermark pair.
fn ablation_sweeps() -> Vec<SweepSpec> {
    use Mechanism::{Darp, DarpOooOnly, RefPb, SarpPb};
    let watermarks = |(enter, exit)| SweepSpec {
        drain_watermarks: Some((enter, exit)),
        ..intensive(format!("ablations/wm{enter}-{exit}"), &[RefPb, Darp], &G32)
    };
    let mut sweeps = vec![
        intensive(THROTTLE_SWEEP.into(), &REFPB_SARPPB, &G32),
        // Compared against the throttle sweep's plain `RefPb` rows.
        SweepSpec {
            ablate_sarp_throttle: true,
            ..intensive(UNTHROTTLED_SWEEP.into(), &[SarpPb], &G32)
        },
        intensive(DARP_SWEEP.into(), &[RefPb, DarpOooOnly, Darp], &G32),
    ];
    sweeps.extend([(40, 24), (48, 32), (56, 40)].map(watermarks));
    sweeps
}

/// One ablation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which ablation.
    pub study: String,
    /// Variant label.
    pub variant: String,
    /// Gmean WS improvement over the study's baseline, percent.
    pub ws_improvement_pct: f64,
}

fn reduce_ablations(report: &CampaignReport) -> Vec<Rows> {
    use Mechanism::{Darp, DarpOooOnly, RefPb, SarpPb};
    let over_refpb = |grid: &Grid, m| gmean_improvement(grid, m, RefPb, Density::G32);
    let row = |study: &str, variant: &str, ws_improvement_pct| AblationRow {
        study: study.into(),
        variant: variant.into(),
        ws_improvement_pct,
    };
    // 1. SARP power throttle: REFpb vs SARPpb vs unthrottled SARPpb. The
    // unthrottled sweep runs SARPpb alone, so merge in the throttle
    // sweep's plain REFpb rows to form the ratio.
    let throttle = report.grid(THROTTLE_SWEEP);
    let mut unthrottled = report.grid(UNTHROTTLED_SWEEP).clone();
    let refpb = throttle.rows().iter().filter(|r| r.mechanism == RefPb);
    unthrottled.merge(Grid::from_rows(refpb.cloned().collect()));
    let power = "sarp_power_throttle";
    let mut out = vec![
        row(
            power,
            "throttled (real device)",
            over_refpb(throttle, SarpPb),
        ),
        row(
            power,
            "unthrottled (ablation)",
            over_refpb(&unthrottled, SarpPb),
        ),
    ];

    // 2. DARP components vs REFpb.
    for (m, label) in [
        (DarpOooOnly, "out-of-order only"),
        (Darp, "out-of-order + write-refresh"),
    ] {
        let gain = over_refpb(report.grid(DARP_SWEEP), m);
        out.push(row("darp_components", label, gain));
    }

    // 3. Drain watermarks under DARP (vs the same watermark's REFpb).
    for sweep in ablation_sweeps() {
        if let Some((enter, exit)) = sweep.drain_watermarks {
            let gain = over_refpb(report.grid(&sweep.name), Darp);
            let variant = format!("enter {enter} / exit {exit}");
            out.push(row("drain_watermarks", &variant, gain));
        }
    }
    vec![rows(&out)]
}

// Minimal ASCII charts for the markdown report: bar charts for figure-style
// results and line series for the sorted Figure 12 curves, so
// `results/EXPERIMENTS_RAW.md` is readable without a plotting stack.

/// Renders a horizontal bar chart. `rows` are `(label, value)`; bars are
/// scaled to `width` characters over the value range (including 0).
fn bar_chart(title: &str, rows: &[(String, f64)], width: usize) -> String {
    let mut out = format!("```text\n{title}\n");
    if rows.is_empty() {
        out.push_str("(no data)\n```\n");
        return out;
    }
    let max = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let min = rows.iter().map(|(_, v)| *v).fold(0.0_f64, f64::min);
    let span = (max - min).max(1e-12);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, v) in rows {
        let frac = (v - min) / span;
        let bars = (frac * width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<label_w$} | {}{} {v:.2}\n",
            "#".repeat(bars),
            " ".repeat(width - bars),
        ));
    }
    out.push_str("```\n");
    out
}

/// Renders one or more y-series sharing an implicit x index as a compact
/// ASCII plot of `height` rows. Each series is drawn with its own glyph.
fn line_chart(title: &str, series: &[(&str, Vec<f64>)], height: usize) -> String {
    let mut out = format!("```text\n{title}\n");
    let n = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    if n == 0 || height == 0 {
        out.push_str("(no data)\n```\n");
        return out;
    }
    let glyphs = ['*', '+', 'o', 'x', '@', '%'];
    let all: Vec<f64> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    let max = all.iter().cloned().fold(f64::MIN, f64::max);
    let min = all.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    let mut grid = vec![vec![' '; n]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        for (x, v) in s.iter().enumerate() {
            let y = (((v - min) / span) * (height - 1) as f64).round() as usize;
            grid[height - 1 - y][x] = glyphs[si % glyphs.len()];
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let y_label = if i == 0 {
            format!("{max:>8.2} ")
        } else if i == height - 1 {
            format!("{min:>8.2} ")
        } else {
            " ".repeat(9)
        };
        out.push_str(&y_label);
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&" ".repeat(9));
    out.push_str(&"-".repeat(n));
    out.push('\n');
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {name}", glyphs[si % glyphs.len()]));
    }
    out.push_str("\n```\n");
    out
}

/// Every `--exp` name, in table order.
pub fn names() -> impl Iterator<Item = &'static str> {
    ARTIFACTS.iter().flat_map(|a| a.names.iter().copied())
}

/// The campaign behind the artifacts `only` selects (all of them for
/// `None`): their sweeps in table order, a sweep shared by several
/// artifacts taken once.
pub fn spec(scale: Scale, only: Option<&str>) -> CampaignSpec {
    let mut spec = CampaignSpec::new("paper", scale);
    for artifact in ARTIFACTS.iter().filter(|a| a.answers(only)) {
        for sweep in (artifact.sweeps)() {
            if spec.sweep(&sweep.name).is_none() {
                spec = spec.with_sweep(sweep);
            }
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exp_names_and_file_stems_are_unique() {
        let names: Vec<&str> = names().collect();
        assert_eq!(names.len(), 14);
        assert_eq!(names.iter().collect::<HashSet<_>>().len(), names.len());
        let stems: Vec<&str> = ARTIFACTS
            .iter()
            .flat_map(|a| a.sections.iter().map(|s| s.stem))
            .collect();
        assert_eq!(stems.iter().collect::<HashSet<_>>().len(), stems.len());
    }

    /// `MAIN_GRID_MECHS` is a hand-kept union: a mechanism a main-grid
    /// reducer iterates but the sweep lacks would be a silently skipped
    /// pair, not an error. Every main-grid reduction names what it reads.
    #[test]
    fn main_grid_covers_every_mechanism_its_reducers_iterate() {
        let iterated = FIG6_7_MECHS
            .iter()
            .chain(&FIG12_MECHS)
            .chain(&TABLE2_MECHS)
            .chain(&FIG13_MECHS)
            .chain(&FIG14_MECHS)
            .chain(&FIG15_MECHS)
            .chain(&FIG16_MECHS);
        for mechanism in iterated {
            assert!(
                MAIN_GRID_MECHS.contains(mechanism),
                "{mechanism:?} is reduced but not swept"
            );
        }
    }

    /// The 24 sweep names of the paper campaign, written down from the
    /// commit before the table existed (less the `overlap` sweep, deleted
    /// since): the derived spec must be that spec.
    #[test]
    fn paper_spec_sweeps_are_the_pre_table_list_in_order() {
        let spec = CampaignSpec::paper(Scale::quick());
        let names: Vec<&str> = spec.sweeps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "main",
                "table3/cores2",
                "table3/cores4",
                "table3/cores8",
                "table4/faw5-rrd1",
                "table4/faw10-rrd2",
                "table4/faw15-rrd3",
                "table4/faw20-rrd4",
                "table4/faw25-rrd5",
                "table4/faw30-rrd6",
                "table5/sub1",
                "table5/sub2",
                "table5/sub4",
                "table5/sub8",
                "table5/sub16",
                "table5/sub32",
                "table5/sub64",
                "table6",
                "ablations/throttle",
                "ablations/unthrottled",
                "ablations/darp",
                "ablations/wm40-24",
                "ablations/wm48-32",
                "ablations/wm56-40",
            ]
        );
        assert_eq!(spec.name, "paper");
    }

    #[test]
    fn exp_filter_keeps_exactly_the_artifacts_sweeps() {
        let sweeps = |only| -> Vec<String> {
            let spec = spec(Scale::quick(), Some(only));
            spec.sweeps.into_iter().map(|s| s.name).collect()
        };
        assert!(sweeps("fig5").is_empty());
        assert_eq!(sweeps("table2"), [MAIN_SWEEP]);
        assert_eq!(sweeps("table6"), [TABLE6_SWEEP]);
        assert_eq!(sweeps("table3").len(), 3);
        assert_eq!(sweeps("ablations").len(), 6);
    }

    #[test]
    fn projection2_hits_paper_anchor_points() {
        let rows = fig5_rows();
        let at = |gb: u32| rows.iter().find(|r| r.gigabits == gb).unwrap();
        assert_eq!(at(16).projection2_ns, 530.0);
        assert_eq!(at(32).projection2_ns, 890.0);
        assert_eq!(at(64).projection2_ns, 1_610.0);
        // Figure 5's top end: Projection 1 lands above 3 us at 64 Gb.
        assert!(at(64).projection1_ns > 3_000.0);
    }

    #[test]
    fn both_projections_are_monotonic() {
        let rows = fig5_rows();
        for w in rows.windows(2) {
            assert!(w[1].projection1_ns > w[0].projection1_ns);
            assert!(w[1].projection2_ns > w[0].projection2_ns);
        }
    }

    #[test]
    fn bar_chart_scales_and_labels() {
        let rows = vec![("REFab".to_string(), 0.0), ("DSARP".to_string(), 10.0)];
        let c = bar_chart("gains", &rows, 20);
        assert!(c.contains("gains"));
        assert!(c.contains("REFab"));
        // The max bar fills the width, the min bar is empty.
        assert!(c.contains(&"#".repeat(20)));
        assert!(c.contains("10.00"));
    }

    #[test]
    fn line_chart_draws_all_series() {
        let s = vec![("a", vec![1.0, 2.0, 3.0]), ("b", vec![3.0, 2.0, 1.0])];
        let c = line_chart("curves", &s, 5);
        assert!(c.contains('*') && c.contains('+'));
        assert!(c.contains("a") && c.contains("b"));
        assert!(c.lines().count() >= 8);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert!(bar_chart("t", &[], 10).contains("no data"));
        assert!(line_chart("t", &[], 5).contains("no data"));
    }
}
