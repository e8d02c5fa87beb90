//! Artifact export: campaign grids and cache stats as CSV / JSON-lines,
//! feeding the `report`/`chart` modules and external tooling.

use crate::runner::{CacheStats, CampaignReport, PhaseTiming};
use dsarp_sim::experiments::harness::Grid;
use dsarp_sim::experiments::report;
use std::io::Write;
use std::path::Path;

/// Writes one grid as `<dir>/<name>.csv` (via the shared report module)
/// and `<dir>/<name>.jsonl` (one row object per line).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_grid(dir: &Path, name: &str, grid: &Grid) -> std::io::Result<()> {
    report::write_csv(dir, name, grid.rows())?;
    write_jsonl(dir, name, grid.rows())
}

/// Writes any serializable rows as `<dir>/<name>.jsonl`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn write_jsonl<T: serde::Serialize>(
    dir: &Path,
    name: &str,
    rows: &[T],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.jsonl")))?;
    for row in rows {
        writeln!(f, "{}", serde_json::to_string(row).expect("rows serialize"))?;
    }
    Ok(())
}

/// `campaign_report.json`: this declaration is its schema.
#[derive(serde::Serialize)]
struct ReportDoc {
    stats: CacheStats,
    timing: PhaseTiming,
    sweeps: Vec<SweepRows>,
}

/// One sweep of [`ReportDoc`]: its name and grid row count.
#[derive(serde::Serialize)]
struct SweepRows {
    name: String,
    rows: usize,
}

/// Writes the campaign's cache stats, per-phase wall times and sweep
/// inventory as `<dir>/campaign_report.json`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report_json(dir: &Path, report: &CampaignReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let doc = ReportDoc {
        stats: report.stats,
        timing: report.timing,
        sweeps: report
            .grids
            .iter()
            .map(|(name, grid)| SweepRows {
                name: name.clone(),
                rows: grid.rows().len(),
            })
            .collect(),
    };
    let json = serde_json::to_string(&doc).expect("reports serialize");
    std::fs::write(dir.join("campaign_report.json"), format!("{json}\n"))
}
