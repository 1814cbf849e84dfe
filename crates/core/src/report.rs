//! Plain-text report rendering for the exhibit regenerators.
//!
//! The bench binaries print the same rows/series the paper's tables and
//! figures report; this module keeps the formatting in one place.

/// A simple aligned text table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells for {} headers",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            line.push_str(&format!("{:>w$}  ", h, w = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                line.push_str(&format!("{:>w$}  ", cell, w = widths[i]));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

/// Format a number with engineering-friendly significant digits:
/// integers up to 6 digits stay plain; large/small values go scientific.
#[must_use]
pub fn fmt_num(x: f64) -> String {
    if x.is_nan() {
        return "-".to_string();
    }
    if x.is_infinite() {
        return if x > 0.0 { "inf" } else { "-inf" }.to_string();
    }
    let a = x.abs();
    // dses-lint: allow(float-totality) -- exact-zero formatting special case
    if a == 0.0 {
        "0".to_string()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{x:.3e}")
    } else if a >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Format a ratio like "12.3x".
#[must_use]
pub fn fmt_ratio(numerator: f64, denominator: f64) -> String {
    // dses-lint: allow(float-totality) -- exact-zero denominator guard
    if denominator == 0.0 || !numerator.is_finite() || !denominator.is_finite() {
        "-".to_string()
    } else {
        format!("{:.1}x", numerator / denominator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["rho", "slowdown"]);
        t.push_row(vec!["0.5".into(), "12.3".into()]);
        t.push_row(vec!["0.7".into(), "45.6".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("rho"));
        assert!(s.contains("45.6"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_num(f64::NAN), "-");
        assert_eq!(fmt_num(f64::INFINITY), "inf");
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(1.23456), "1.235");
        assert_eq!(fmt_num(123.456), "123.5");
        assert!(fmt_num(1.0e9).contains('e'));
        assert!(fmt_num(1.0e-6).contains('e'));
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(10.0, 2.0), "5.0x");
        assert_eq!(fmt_ratio(1.0, 0.0), "-");
        assert_eq!(fmt_ratio(f64::INFINITY, 2.0), "-");
    }
}
