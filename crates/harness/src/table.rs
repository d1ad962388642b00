//! Plain-text table rendering for experiment reports.

use std::fmt;

/// A simple text table with aligned columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header count"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Render to a string with aligned columns. The first column is
    /// left-aligned (labels), the rest right-aligned (numbers).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("## {}\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as CSV, headers first. A cell holding a comma, a quote or
    /// a line break is quoted, its quotes doubled (RFC 4180).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n', '\r']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a seconds value in milliseconds with 3 decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1000.0)
}

/// Format a ratio as a percentage with 1 decimal.
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["a".into(), "1.5".into()]);
        t.push_row(vec!["longer".into(), "10.25".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("name"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows, plus title line.
        assert_eq!(lines.len(), 5);
        // Right alignment: values end at the same column.
        assert!(lines[3].ends_with("1.5") || lines[4].ends_with("1.5"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.title(), "demo");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn csv_quotes_cells_with_commas_and_quotes() {
        let mut t = Table::new("x", &["name", "v"]);
        t.push_row(vec!["f(a,b)".into(), "1".into()]);
        t.push_row(vec!["say \"hi\"".into(), "2".into()]);
        assert_eq!(t.to_csv(), "name,v\n\"f(a,b)\",1\n\"say \"\"hi\"\"\",2\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(0.0123456), "12.346");
        assert_eq!(pct(0.291), "29.1%");
    }

    #[test]
    fn display_matches_render() {
        let t = Table::new("t", &["h"]);
        assert_eq!(format!("{t}"), t.render());
    }
}
