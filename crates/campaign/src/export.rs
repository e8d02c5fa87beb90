//! Artifact export: campaign grids and cache stats as CSV / JSON-lines,
//! feeding the `report`/`chart` modules and external tooling.

use crate::runner::CampaignReport;
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

/// Writes the campaign's cache stats, per-phase wall times and sweep
/// inventory as `<dir>/campaign_report.json`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report_json(dir: &Path, report: &CampaignReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut doc = serde_json::Map::new();
    doc.insert(
        "stats".into(),
        serde_json::to_value(report.stats).expect("stats serialize"),
    );
    doc.insert(
        "timing".into(),
        serde_json::to_value(report.timing).expect("timing serializes"),
    );
    let sweeps: Vec<serde_json::Value> = report
        .grids
        .iter()
        .map(|(name, grid)| {
            let mut m = serde_json::Map::new();
            m.insert("name".into(), serde_json::Value::String(name.clone()));
            m.insert(
                "rows".into(),
                serde_json::to_value(grid.rows().len()).expect("infallible"),
            );
            serde_json::Value::Object(m)
        })
        .collect();
    doc.insert("sweeps".into(), serde_json::Value::Array(sweeps));
    std::fs::write(
        dir.join("campaign_report.json"),
        format!("{}\n", serde_json::Value::Object(doc)),
    )
}
