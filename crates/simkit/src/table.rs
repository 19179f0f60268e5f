//! Plain-text and CSV table formatting for experiment output.
//!
//! Every figure/table reproduction in `crates/bench` prints its result
//! series through this module so output is uniform and diffable.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// # Examples
///
/// ```
/// use simkit::table::Table;
/// let mut t = Table::new(&["payload", "p50_us", "p99_us"]);
/// t.row(&["64", "8.1", "11.2"]);
/// t.row(&["4096", "9.0", "13.5"]);
/// let text = t.render();
/// assert!(text.contains("payload"));
/// assert!(text.contains("4096"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the cell count must match the header count.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len()` differs from the number of headers.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a column-aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths.iter()).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        write_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }

    /// Renders as CSV (no quoting; cells in this workspace never contain
    /// commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with a sensible number of significant digits for
/// table cells.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["a", "long_header"]);
        t.row(&["12345", "x"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_roundtrip_structure() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1", "2"]);
        t.row(&["3", "4"]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n3,4\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn fmt_f64_scales_precision() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.12345), "0.1235");
        assert_eq!(fmt_f64(1.23456), "1.23");
        assert_eq!(fmt_f64(123.456), "123.5");
    }
}
