//! CSV and markdown emission for experiment rows.
//!
//! Rows are any `Serialize` struct that flattens to a JSON object of
//! scalars; headers come from the first row's keys (in declaration order,
//! courtesy of `serde_json`'s preserve-order feature being off — we sort
//! keys for stability).

use serde::Serialize;
use std::io::Write;
use std::path::Path;

fn flatten<T: Serialize>(row: &T) -> Vec<(String, String)> {
    let v = serde_json::to_value(row).expect("experiment rows serialize");
    let obj = v.as_object().expect("experiment rows are flat structs");
    obj.iter()
        .map(|(k, v)| {
            let s = match v {
                serde_json::Value::String(s) => s.clone(),
                serde_json::Value::Number(n) => {
                    if let Some(f) = n.as_f64() {
                        if n.is_f64() {
                            format!("{f:.4}")
                        } else {
                            n.to_string()
                        }
                    } else {
                        n.to_string()
                    }
                }
                serde_json::Value::Null => String::new(),
                other => other.to_string(),
            };
            (k.clone(), s)
        })
        .collect()
}

/// Renders rows as CSV text.
pub fn to_csv<T: Serialize>(rows: &[T]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    let first = flatten(&rows[0]);
    let headers: Vec<&String> = first.iter().map(|(k, _)| k).collect();
    out.push_str(
        &headers
            .iter()
            .map(|h| h.as_str())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        let cells = flatten(row);
        out.push_str(
            &cells
                .iter()
                .map(|(_, v)| v.as_str())
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    out
}

/// Renders rows as a GitHub-flavoured markdown table.
pub fn to_markdown<T: Serialize>(title: &str, rows: &[T]) -> String {
    let mut out = format!("### {title}\n\n");
    if rows.is_empty() {
        out.push_str("_(no rows)_\n");
        return out;
    }
    let first = flatten(&rows[0]);
    let headers: Vec<&String> = first.iter().map(|(k, _)| k).collect();
    out.push_str("| ");
    out.push_str(
        &headers
            .iter()
            .map(|h| h.as_str())
            .collect::<Vec<_>>()
            .join(" | "),
    );
    out.push_str(" |\n|");
    out.push_str(&headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    out.push_str("|\n");
    for row in rows {
        let cells = flatten(row);
        out.push_str("| ");
        out.push_str(
            &cells
                .iter()
                .map(|(_, v)| v.as_str())
                .collect::<Vec<_>>()
                .join(" | "),
        );
        out.push_str(" |\n");
    }
    out.push('\n');
    out
}

/// Writes rows to `<dir>/<name>.csv`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv<T: Serialize>(dir: &Path, name: &str, rows: &[T]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
    f.write_all(to_csv(rows).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        name: String,
        value: f64,
        count: u32,
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rows = vec![
            Row {
                name: "a".into(),
                value: 1.5,
                count: 2,
            },
            Row {
                name: "b".into(),
                value: 0.25,
                count: 9,
            },
        ];
        let csv = to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("name"));
        assert!(lines[1].contains("1.5000"));
        assert!(lines[2].contains('9'));
    }

    #[test]
    fn markdown_table_shape() {
        let rows = vec![Row {
            name: "x".into(),
            value: 2.0,
            count: 1,
        }];
        let md = to_markdown("Test", &rows);
        assert!(md.starts_with("### Test"));
        assert!(md.matches('\n').count() >= 5);
        assert!(md.contains("| x |") || md.contains("x |"));
    }

    #[test]
    fn empty_rows_are_safe() {
        let rows: Vec<Row> = vec![];
        assert_eq!(to_csv(&rows), "");
        assert!(to_markdown("Empty", &rows).contains("no rows"));
    }

    /// A non-finite float survives `to_value` as the number it was:
    /// `max_slowdown` is NaN and `ws` infinite when an alone IPC is 0.
    #[test]
    fn non_finite_floats_export_unchanged() {
        use crate::experiments::harness::WsRow;
        use dsarp_core::Mechanism;
        use dsarp_dram::Density;
        let row = |ws: f64, max_slowdown: f64| WsRow {
            workload: "w\"0\n".into(),
            category: 50,
            mechanism: Mechanism::Dsarp,
            density: Density::G32,
            ws,
            hs: 0.5,
            max_slowdown,
            energy_nj: -0.0,
            total_ipc: 1e-300,
        };
        let rows = [row(f64::INFINITY, f64::NAN), row(f64::NEG_INFINITY, 1e20)];
        let want = "workload,category,mechanism,density,ws,hs,max_slowdown,energy_nj,total_ipc\n\
                    w\"0\n,50,Dsarp,G32,inf,0.5000,NaN,-0.0000,0.0000\n\
                    w\"0\n,50,Dsarp,G32,-inf,0.5000,100000000000000000000.0000,-0.0000,0.0000\n";
        assert_eq!(to_csv(&rows), want);
    }
}
