//! Plain-text table rendering for the experiment harness.

use std::fmt::Write as _;

/// A simple left-aligned text table.
///
/// ```
/// use dmx_core::report::Table;
/// let mut t = Table::new(vec!["benchmark".into(), "speedup".into()]);
/// t.row(vec!["Sound Detection".into(), "3.8x".into()]);
/// let s = t.render();
/// assert!(s.contains("Sound Detection"));
/// assert!(s.contains("speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Table {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// True if no data rows were added.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", c, width = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a ratio as `N.NNx`.
pub(crate) fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats milliseconds.
pub(crate) fn ms(t: dmx_sim::Time) -> String {
    format!("{:.2}ms", t.as_ms_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a".into(), "bb".into()]);
        t.row(vec!["xxxx".into(), "y".into()]);
        t.row(vec!["z".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    fn formatters() {
        assert_eq!(ratio(3.456), "3.46x");
        assert_eq!(pct(0.668), "66.8%");
        assert_eq!(ms(dmx_sim::Time::from_us(1500)), "1.50ms");
    }
}
