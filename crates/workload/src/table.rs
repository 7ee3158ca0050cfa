//! Result tables: Markdown for terminals/docs, CSV for plotting.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple rectangular results table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The data rows, in order, with cells read by column header.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.rows.iter().map(|cells| Row {
            headers: &self.headers,
            cells,
        })
    }

    /// Renders as aligned GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}\n", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for i in 0..cols {
                let _ = write!(line, " {:<width$} |", cells[i], width = widths[i]);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders as RFC-4180-ish CSV (quoting cells containing commas or
    /// quotes).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV form to `path`, creating parent directories.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// One data row of a [`Table`], read by column header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    headers: &'a [String],
    cells: &'a [String],
}

impl<'a> Row<'a> {
    /// The cell under `header`.
    ///
    /// # Panics
    /// Panics if the table has no such column.
    pub(crate) fn get(&self, header: &str) -> &'a str {
        let col = self
            .headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("no column {header:?} in {:?}", self.headers));
        &self.cells[col]
    }

    /// The cell under `header`, parsed as a number.
    ///
    /// # Panics
    /// Panics if the table has no such column or the cell is not a
    /// number.
    pub(crate) fn num(&self, header: &str) -> f64 {
        let cell = self.get(header);
        cell.parse()
            .unwrap_or_else(|_| panic!("column {header:?} holds {cell:?}, not a number"))
    }
}

/// Formats a float with `digits` decimals (helper for table cells).
pub fn fmt_f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Reuse", &["RUs", "LRU", "LFD"]);
        t.push_row(vec!["4".into(), "30.1".into(), "46.0".into()]);
        t.push_row(vec!["10".into(), "33.9".into(), "48.2".into()]);
        t
    }

    #[test]
    fn markdown_is_aligned() {
        let md = sample().to_markdown();
        assert!(md.contains("### Reuse"));
        assert!(md.contains("| RUs | LRU  | LFD  |"));
        assert!(md.contains("| 4   | 30.1 | 46.0 |"));
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",\"say \"\"hi\"\"\""));
    }

    #[test]
    fn rows_read_cells_by_header() {
        let t = sample();
        let lfd: Vec<f64> = t.rows().map(|r| r.num("LFD")).collect();
        assert_eq!(lfd, [46.0, 48.2]);
        assert_eq!(t.rows().last().map(|r| r.get("RUs")), Some("10"));
    }

    #[test]
    #[should_panic(expected = "no column \"MRU\"")]
    fn unknown_header_panics() {
        let _ = sample().rows().next().map(|r| r.get("MRU"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("rtr_table_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        sample().write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("RUs,LRU,LFD"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt_f(30.0571, 2), "30.06");
    }
}
