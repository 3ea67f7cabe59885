//! Plain-text table rendering for the experiment harness.
//!
//! The experiments binary prints every figure/table of the paper as an
//! aligned text table; this module is the tiny formatter behind that.

/// A fixed-column text table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<S: Into<String>>(title: S, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of cells from anything yielding string-convertible
    /// items (owned arrays, vectors, iterators, `&[String]`, …).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn add_row<I>(&mut self, cells: I)
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "table row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Serializes the table as a self-describing JSON object:
    /// `{"title": …, "header": […], "rows": [[…], …]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"title\":");
        out.push_str(&json_string(&self.title));
        out.push_str(",\"header\":[");
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(h));
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(cell));
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>w$}", w = *w));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

// The JSON string escaper lives in `vortex_obs::json` so experiment
// tables and metric snapshots escape identically; re-exported here to
// keep this module the report-side home of the API.
pub use vortex_obs::json::json_string;

/// Formats a rate as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a float with the given number of decimals.
pub fn fixed(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(["a", "1.0"]);
        t.add_row(["longer".to_string(), "2".to_string()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("name"));
        let lines: Vec<&str> = s.lines().collect();
        // Header + separator + 2 rows + title.
        assert_eq!(lines.len(), 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn add_row_accepts_borrowed_and_iterator_inputs() {
        let mut t = Table::new("Demo", &["a", "b"]);
        let owned = vec!["1".to_string(), "2".to_string()];
        t.add_row(&owned); // borrowed slice of Strings still works
        t.add_row(owned); // and so does the owned vector
        t.add_row((0..2).map(|i| i.to_string()));
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows()[0], t.rows()[1]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(["only one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.8491), "84.9%");
        assert_eq!(fixed(1.23456, 2), "1.23");
    }

    #[test]
    fn json_escapes_and_structures() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), r#""\u0001""#);
        let mut t = Table::new("T \"quoted\"", &["h1", "h2"]);
        t.add_row(["x", "1"]);
        let j = t.to_json();
        assert_eq!(
            j,
            r#"{"title":"T \"quoted\"","header":["h1","h2"],"rows":[["x","1"]]}"#
        );
        assert!(Table::new("empty", &["a"])
            .to_json()
            .contains("\"rows\":[]"));
    }

    #[test]
    fn table_json_escapes_control_characters_and_passes_non_ascii() {
        // Control characters anywhere in a table must come out as \uXXXX
        // escapes; non-ASCII text passes through untouched (JSON is UTF-8).
        let mut t = Table::new("\u{7}bell σ-sweep", &["col\n1", "β"]);
        t.add_row(["\u{1}ctl\u{1f}", "λ → ∞"]);
        let j = t.to_json();
        assert!(j.contains("\\u0007bell σ-sweep"));
        assert!(j.contains("col\\n1"));
        assert!(j.contains("\\u0001ctl\\u001f"));
        assert!(j.contains("λ → ∞"));
        // No raw control bytes may survive into the payload.
        assert!(j.chars().all(|c| (c as u32) >= 0x20));
    }
}
