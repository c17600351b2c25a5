//! Table rendering for the harness binaries: fixed-width text tables that
//! mirror the rows/series of the paper's figures, plus the latency
//! percentile every bench reports.

use nrpm_linalg::stats::quantile_sorted;
use std::time::Duration;

/// A simple fixed-width table printer.
#[derive(Debug, Clone)]
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

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats a float with two decimals.
pub fn f2(value: f64) -> String {
    format!("{value:.2}")
}

/// The `q`-quantile of ascending latencies in milliseconds, interpolated
/// between neighbouring ranks; `NaN` (a JSON `null`) when there are none.
pub fn percentile(sorted: &[Duration], q: f64) -> f64 {
    let ms: Vec<f64> = sorted.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    quantile_sorted(&ms, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_milliseconds() {
        let sorted: Vec<Duration> = [1, 2, 3, 4].map(Duration::from_millis).to_vec();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 2.5);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["noise", "regression", "adaptive"]);
        t.row(vec!["2%".into(), "99.1%".into(), "98.0%".into()]);
        t.row(vec!["100%".into(), "55.0%".into(), "77.5%".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("noise"));
        assert!(lines[2].ends_with("98.0%"));
        // all rows equally wide
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_enforced() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.1744), "17.4%");
        assert_eq!(f2(3.98765), "3.99");
    }
}
