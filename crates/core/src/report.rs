//! Small plain-text table formatter used by the benchmark binaries that
//! regenerate the paper's tables and figures.

use std::fmt::Write as _;

/// A fixed-column text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

impl Table {
    /// Renders as CSV (header row first; cells quoted only when needed).
    pub fn to_csv(&self) -> String {
        let quote = |c: &str| -> String {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.header);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

/// Formats a `f64` with engineering-style significant digits.
pub fn sig3(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let mag = x.abs().log10().floor() as i32;
    let decimals = (2 - mag).clamp(0, 6) as usize;
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // All data lines have equal width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_too_many_cells() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn renders_empty_tables() {
        // No rows: header and separator only.
        let t = Table::new("empty", &["a", "bb"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], "-".repeat("a".len() + "bb".len() + 2));

        // Degenerate zero-column table must not underflow the separator
        // width computation.
        let t = Table::new("", &[]);
        let s = t.render();
        assert_eq!(s, "\n\n");
    }

    #[test]
    fn column_widths_track_the_widest_cell() {
        let mut t = Table::new("", &["h", "wide-header"]);
        t.row(&["wider-cell".into(), "x".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Separator spans both column widths plus the two-space gap.
        assert_eq!(lines[1], "-".repeat(10 + 11 + 2));
        // Right-aligned header pads to the widest cell below it.
        assert!(lines[0].starts_with("         h"));
        assert!(lines[2].ends_with("          x"));
    }

    #[test]
    fn csv_round_trips_structure() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["plain".into(), "with,comma".into()]);
        t.row(&["quote\"d".into(), "x".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"with,comma\"");
        assert_eq!(lines[2], "\"quote\"\"d\",x");
    }

    #[test]
    fn sig3_formatting() {
        assert_eq!(sig3(0.0), "0");
        assert_eq!(sig3(1234.2), "1234");
        assert_eq!(sig3(6.54321), "6.54");
        assert_eq!(sig3(0.0123), "0.0123");
    }
}
