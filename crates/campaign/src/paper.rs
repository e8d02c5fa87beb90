//! The paper's artifact table: every figure and table of the evaluation
//! declared once — the `--exp` name(s) it answers to, the sweeps it
//! reduces from, the files it writes and the reduction itself.
//!
//! Everything that needs to know "what makes up artifact X" derives it
//! from [`ARTIFACTS`]: [`CampaignSpec::paper`] is the union of the table's
//! sweeps, the `experiments` binary validates and filters `--exp` against
//! [`names`], and its reduction loop is [`Artifact::reduce`] over the
//! selected entries.
//!
//! | Entry | Paper artifact | Reducer |
//! |---|---|---|
//! | `fig5` | Fig. 5, tRFC trend (analytic) | [`fig05`] |
//! | `fig6`, `fig7` | Fig. 6 + 7, motivation | [`fig06_07`] |
//! | `fig12`, `table2` | Fig. 12 + Table 2, headline | [`fig12_table2`] |
//! | `fig13` | Fig. 13 + §6.1.2 breakdown | [`fig13`] |
//! | `fig14` | Fig. 14, energy | [`fig14`] |
//! | `fig15` | Fig. 15, intensity | [`fig15`] |
//! | `fig16` | Fig. 16, FGR/AR | [`fig16`] |
//! | `table3` | Table 3, core count | [`table3`] |
//! | `table4` | Table 4, tFAW | [`table4`] |
//! | `table5` | Table 5, subarrays | [`table5`] |
//! | `table6` | Table 6, 64 ms retention | [`table6`] |
//! | `ablations` | Throttle, DARP split, watermarks | [`ablations`] |

use crate::runner::CampaignReport;
use crate::spec::{CampaignSpec, SweepSpec, WorkloadSet};
use dsarp_core::Mechanism;
use dsarp_dram::{Density, Retention};
use dsarp_sim::experiments::harness::{Grid, MAIN_GRID_MECHS};
use dsarp_sim::experiments::{
    ablations, chart, fig05, fig06_07, fig12_table2, fig13, fig14, fig15, fig16, report, table3,
    table4, table5, table6, Scale,
};
use serde::Serialize;
use serde_json::Value;

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

/// The shared 12-mechanism grid Figures 6/7/12–16 and Table 2 reduce from;
/// the binary also exports it raw.
pub const MAIN_SWEEP: &str = "main";
// Table 6 reduces from one sweep named as it is; the ablations write one
// file named as they are.
const TABLE6: &str = "table6";
const ABLATIONS: &str = "ablations";

/// Every artifact of the evaluation, in sweep (and report) order.
pub static ARTIFACTS: [Artifact; 12] = [
    Artifact {
        names: &["fig5"],
        sections: &[section(
            "fig05_trfc_trend",
            Some("Figure 5: tRFCab trend (ns)"),
        )],
        sweeps: Vec::new,
        reduce: |_| vec![rows(&fig05::run())],
    },
    Artifact {
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
        reduce: |r| {
            let (fig6, fig7) = fig06_07::reduce(main(r), &Density::evaluated());
            vec![rows(&fig6), rows(&fig7)]
        },
    },
    Artifact {
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
    },
    Artifact {
        names: &["fig13"],
        sections: &[section(
            "fig13_all_mechanisms",
            Some("Figure 13: gmean WS improvement over REFab (%)"),
        )],
        sweeps: main_sweep,
        reduce: reduce_fig13,
    },
    Artifact {
        names: &["fig14"],
        sections: &[section(
            "fig14_energy",
            Some("Figure 14: energy per access (nJ)"),
        )],
        sweeps: main_sweep,
        reduce: |r| vec![rows(&fig14::reduce(main(r), &Density::evaluated()))],
    },
    Artifact {
        names: &["fig15"],
        sections: &[section(
            "fig15_intensity",
            Some("Figure 15: DSARP WS improvement by memory intensity (%)"),
        )],
        sweeps: main_sweep,
        reduce: |r| vec![rows(&fig15::reduce(main(r), &Density::evaluated()))],
    },
    Artifact {
        names: &["fig16"],
        sections: &[section(
            "fig16_fgr_ar",
            Some("Figure 16: WS normalized to REFab"),
        )],
        sweeps: main_sweep,
        reduce: |r| vec![rows(&fig16::reduce(main(r), &Density::evaluated()))],
    },
    Artifact {
        names: &["table3"],
        sections: &[section(
            "table3_core_count",
            Some("Table 3: DSARP vs REFab by core count (32 Gb, intensive, %)"),
        )],
        sweeps: table3_sweeps,
        reduce: |r| per_sweep(r, table3_sweeps(), |grid, s| table3::reduce(grid, s.cores)),
    },
    Artifact {
        names: &["table4"],
        sections: &[section(
            "table4_tfaw",
            Some("Table 4: SARPpb over REFpb vs tFAW/tRRD (32 Gb, %)"),
        )],
        sweeps: table4_sweeps,
        reduce: |r| {
            per_sweep(r, table4_sweeps(), |grid, s| {
                let (faw, rrd) = s.faw_rrd.expect("table 4 sweeps set tFAW/tRRD");
                table4::reduce(grid, faw, rrd)
            })
        },
    },
    Artifact {
        names: &["table5"],
        sections: &[section(
            "table5_subarrays",
            Some("Table 5: SARPpb over REFpb vs subarrays/bank (32 Gb, %)"),
        )],
        sweeps: table5_sweeps,
        reduce: |r| {
            per_sweep(r, table5_sweeps(), |grid, s| {
                table5::reduce(grid, s.subarrays)
            })
        },
    },
    Artifact {
        names: &[TABLE6],
        sections: &[section(
            "table6_64ms",
            Some("Table 6: DSARP improvements at 64 ms retention (%)"),
        )],
        // The relaxed retention: refreshes half as frequent as the main grid's.
        sweeps: || {
            vec![SweepSpec {
                retention: Retention::Ms64,
                ..intensive(TABLE6.into(), &REF_DSARP, &Density::evaluated())
            }]
        },
        reduce: |r| vec![rows(&table6::reduce(r.grid(TABLE6), &Density::evaluated()))],
    },
    Artifact {
        names: &[ABLATIONS],
        sections: &[section(ABLATIONS, Some("Ablations (32 Gb, intensive, %)"))],
        sweeps: ablation_sweeps,
        reduce: reduce_ablations,
    },
];

fn rows<T: Serialize>(rows: &[T]) -> Rows {
    let value = |row| serde_json::to_value(row).expect("experiment rows serialize");
    Rows {
        rows: rows.iter().map(value).collect(),
        chart: None,
    }
}

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

fn reduce_fig12_table2(report: &CampaignReport) -> Vec<Rows> {
    let fig12 = fig12_table2::reduce_fig12(main(report), &Density::evaluated());
    let series: Vec<(&str, Vec<f64>)> = [Mechanism::RefPb, Mechanism::Darp, Mechanism::Dsarp]
        .iter()
        .map(|m| {
            let mut pts: Vec<&fig12_table2::Fig12Point> = fig12
                .iter()
                .filter(|p| p.density == Density::G32 && p.mechanism == *m)
                .collect();
            pts.sort_by_key(|p| p.sorted_index);
            (m.label(), pts.iter().map(|p| p.ws_over_refab).collect())
        })
        .collect();
    let title = "Figure 12 at 32 Gb: WS over REFab, workloads sorted by DARP gain";
    let table2 = fig12_table2::reduce_table2(main(report), &Density::evaluated());
    vec![
        Rows {
            chart: Some(chart::line_chart(title, &series, 12)),
            ..rows(&fig12)
        },
        rows(&table2),
    ]
}

fn reduce_fig13(report: &CampaignReport) -> Vec<Rows> {
    let fig13 = fig13::reduce(main(report), &Density::evaluated());
    let bars: Vec<(String, f64)> = fig13
        .iter()
        .filter(|r| r.density == Density::G32)
        .map(|r| (r.mechanism.label().to_string(), r.gmean_over_refab_pct))
        .collect();
    let chart = chart::bar_chart("Figure 13 at 32 Gb (% over REFab)", &bars, 40);
    vec![Rows {
        chart: Some(chart),
        ..rows(&fig13)
    }]
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

fn table3_sweeps() -> Vec<SweepSpec> {
    let sweep = |cores| {
        let mixes = WorkloadSet::Intensive { cores };
        let mechs = [Mechanism::RefAb, Mechanism::Dsarp];
        SweepSpec::new(format!("table3/cores{cores}"), mixes, &mechs, &G32)
    };
    [2, 4, 8].map(sweep).into()
}

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

fn table5_sweeps() -> Vec<SweepSpec> {
    let sweep = |subarrays| SweepSpec {
        subarrays,
        ..intensive(format!("table5/sub{subarrays}"), &REFPB_SARPPB, &G32)
    };
    [1, 2, 4, 8, 16, 32, 64].map(sweep).into()
}

/// The throttle, unthrottled and DARP-split sweeps, then one sweep per
/// watermark pair — the order [`reduce_ablations`] reads them back in.
fn ablation_sweeps() -> Vec<SweepSpec> {
    use Mechanism::{Darp, DarpOooOnly, RefPb, SarpPb};
    let watermarks = |(enter, exit)| SweepSpec {
        drain_watermarks: Some((enter, exit)),
        ..intensive(format!("ablations/wm{enter}-{exit}"), &[RefPb, Darp], &G32)
    };
    let mut sweeps = vec![
        intensive("ablations/throttle".into(), &REFPB_SARPPB, &G32),
        // Compared against the throttle sweep's plain `RefPb` rows.
        SweepSpec {
            ablate_sarp_throttle: true,
            ..intensive("ablations/unthrottled".into(), &[SarpPb], &G32)
        },
        intensive("ablations/darp".into(), &[RefPb, DarpOooOnly, Darp], &G32),
    ];
    sweeps.extend([(40, 24), (48, 32), (56, 40)].map(watermarks));
    sweeps
}

fn reduce_ablations(report: &CampaignReport) -> Vec<Rows> {
    let sweeps = ablation_sweeps();
    let grid = |sweep: &SweepSpec| report.grid(&sweep.name).clone();
    let watermarks = |s: &SweepSpec| {
        let (enter, exit) = s.drain_watermarks.expect("watermark sweeps set them");
        (enter, exit, grid(s))
    };
    let grids = ablations::AblationGrids {
        throttle: grid(&sweeps[0]),
        unthrottled: grid(&sweeps[1]),
        darp: grid(&sweeps[2]),
        watermarks: sweeps[3..].iter().map(watermarks).collect(),
    };
    vec![rows(&ablations::reduce(&grids))]
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
    /// `filter_map` row, not an error.
    #[test]
    fn main_grid_covers_every_mechanism_its_reducers_iterate() {
        use Mechanism::*;
        let fig6_7 = [NoRefresh, RefAb, RefPb];
        let table2 = [RefAb, RefPb, Darp, SarpPb, Dsarp];
        let fig15 = [RefAb, RefPb, Dsarp];
        let iterated = fig6_7
            .iter()
            .chain(&fig12_table2::FIG12_MECHS)
            .chain(&table2)
            .chain(&fig13::FIG13_MECHS)
            .chain(&fig14::FIG14_MECHS)
            .chain(&fig15)
            .chain(&fig16::FIG16_MECHS);
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
        assert_eq!(sweeps("table6"), [TABLE6]);
        assert_eq!(sweeps("table3").len(), 3);
        assert_eq!(sweeps("ablations").len(), 6);
    }
}
