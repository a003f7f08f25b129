//! ASCII table rendering in the paper's format.

use std::fmt;

/// A rendered evaluation table.
#[derive(Debug, Clone)]
pub struct Table {
    /// e.g. "Table 1: Statistics of IS on 16 processors".
    pub title: String,
    /// Column headers (systems or processor counts).
    pub columns: Vec<String>,
    /// `(row label, one cell per column)`.
    pub rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Table {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Append a row; the cell count must match the columns.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) -> &mut Self {
        let cells_len = cells.len();
        self.rows.push((label.into(), cells));
        assert_eq!(cells_len, self.columns.len(), "cell/column mismatch");
        self
    }

    /// Cell for a float with `prec` decimals.
    pub fn f(v: f64, prec: usize) -> String {
        format!("{v:.prec$}")
    }

    /// Cell for an integer with thousands separators (paper style).
    pub fn i(v: u64) -> String {
        let s = v.to_string();
        let mut out = String::new();
        for (i, ch) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push(',');
            }
            out.push(ch);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .max()
            .unwrap_or(0)
            .max(4);
        let mut col_w: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for (_, cells) in &self.rows {
            for (i, c) in cells.iter().enumerate() {
                col_w[i] = col_w[i].max(c.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let total = label_w + col_w.iter().map(|w| w + 2).sum::<usize>();
        writeln!(f, "{}", "-".repeat(total))?;
        write!(f, "{:<label_w$}", "")?;
        for (c, w) in self.columns.iter().zip(&col_w) {
            write!(f, "  {c:>w$}")?;
        }
        writeln!(f)?;
        writeln!(f, "{}", "-".repeat(total))?;
        for (label, cells) in &self.rows {
            write!(f, "{label:<label_w$}")?;
            for (c, w) in cells.iter().zip(&col_w) {
                write!(f, "  {c:>w$}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "{}", "-".repeat(total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Test", vec!["A".into(), "BB".into()]);
        t.row("x", vec!["1".into(), "2".into()]);
        t.row("longer", vec!["3.5".into(), "4,000".into()]);
        let s = t.to_string();
        assert!(s.contains("Test"));
        assert!(s.contains("4,000"));
    }

    #[test]
    fn thousands_separator() {
        assert_eq!(Table::i(0), "0");
        assert_eq!(Table::i(999), "999");
        assert_eq!(Table::i(1000), "1,000");
        assert_eq!(Table::i(1234567), "1,234,567");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_cell_count_panics() {
        let mut t = Table::new("T", vec!["A".into()]);
        t.row("x", vec!["1".into(), "2".into()]);
    }
}
