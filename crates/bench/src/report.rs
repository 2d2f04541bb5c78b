//! Report rendering for the figure harness: aligned text tables on
//! stdout plus CSV and JSON files under `results/`.

use smarth_core::json::ToJson;
use smarth_core::json_struct;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A rectangular result table destined for one figure/table of the
/// paper.
#[derive(Debug, Clone)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form notes comparing against the paper's reported values.
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    fn csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes `<dir>/<id>.csv` and `<dir>/<id>.json`, creating `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        fs::create_dir_all(dir)?;
        let csv_path = dir.join(format!("{}.csv", self.id));
        fs::write(&csv_path, self.csv())?;
        let json_path = dir.join(format!("{}.json", self.id));
        fs::write(&json_path, self.to_json().to_string_pretty())?;
        Ok((csv_path, json_path))
    }
}

json_struct!(impl ToJson for Table {
    "id" => id: String,
    "title" => title: String,
    "columns" => columns: Vec<String>,
    "rows" => rows: Vec<Vec<String>>,
    "notes" => notes: Vec<String>,
});

/// Formats seconds with sensible precision for tables.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

pub fn pct(v: f64) -> String {
    format!("{v:.0}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("figX", "demo", &["size", "HDFS (s)", "SMARTH (s)"]);
        t.row(vec!["1GiB".into(), "163.9".into(), "80.1".into()]);
        t.row(vec!["8GiB".into(), "1311".into(), "641".into()]);
        t.note("paper: 130%");
        let r = t.render();
        assert!(r.contains("figX"));
        assert!(r.contains("note: paper: 130%"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[1].trim_start().split("  ").count(), 3);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("t", "x", &["a", "b"]);
        t.row(vec!["1,5".into(), "plain".into()]);
        let csv = t.csv();
        assert!(csv.contains("\"1,5\",plain"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", "x", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn save_writes_csv_and_json() {
        let dir = std::env::temp_dir().join(format!("smarth-report-{}", std::process::id()));
        let mut t = Table::new("fig_test", "demo", &["k", "v"]);
        t.row(vec!["1".into(), "2".into()]);
        let (csv, json) = t.save(&dir).unwrap();
        assert!(csv.exists());
        assert!(json.exists());
        let parsed =
            smarth_core::json::parse(&std::fs::read_to_string(json).unwrap()).unwrap();
        assert_eq!(parsed.get("id").as_str(), Some("fig_test"));
        assert_eq!(parsed.get("rows").idx(0).idx(1).as_str(), Some("2"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn json_text_is_pinned() {
        let mut t = Table::new("fig_test", "demo", &["k", "v"]);
        t.row(vec!["1".into(), "2,5".into()]);
        t.note("paper: 130%");
        assert_eq!(
            t.to_json().to_string_compact(),
            r#"{"id":"fig_test","title":"demo","columns":["k","v"],"rows":[["1","2,5"]],"notes":["paper: 130%"]}"#
        );
    }

    #[test]
    fn number_formatting() {
        assert_eq!(secs(1311.4), "1311");
        assert_eq!(secs(80.12), "80.1");
        assert_eq!(secs(3.25159), "3.25");
        assert_eq!(pct(130.4), "130%");
    }
}
