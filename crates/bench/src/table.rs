//! Plain-text result tables — the harness's replacement for the demo's
//! statistics screens. Tables also serialise to JSON (`exp --json`) so
//! perf trajectories can be tracked by machines, not just eyeballs.

use serde::Serialize;
use std::fmt::Write as _;

/// A rendered experiment result: a title, column headers and rows.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Experiment id + description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (stringified cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{c:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("E0 — demo", &["n", "time"]);
        t.row(vec!["2".into(), "1.5ms".into()]);
        t.row(vec!["100".into(), "12.0ms".into()]);
        let s = t.render();
        assert!(s.starts_with("## E0 — demo"));
        assert!(s.contains("  n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
