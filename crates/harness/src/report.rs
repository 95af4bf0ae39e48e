//! Report rendering: aligned ASCII tables, CSV and JSON (through the
//! workspace's single JSON emitter, [`crate::json`]).

use crate::json::Json;
use std::fmt;

/// A simple column-aligned table renderable as plain text, CSV or JSON.
///
/// # Example
///
/// ```
/// use dspatch_harness::Table;
/// let mut table = Table::new("Fig. X", vec!["workload".into(), "speedup".into()]);
/// table.add_row(vec!["mcf".into(), "1.26".into()]);
/// let text = table.render();
/// assert!(text.contains("mcf") && text.contains("1.26"));
/// assert!(table.to_csv().contains("mcf,1.26"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Self {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} does not match header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text. Column widths count
    /// characters, not bytes, so multi-byte labels ("≥", "µ") do not skew
    /// the alignment.
    pub fn render(&self) -> String {
        let width_of = |cell: &String| cell.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(width_of).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(width_of(cell));
            }
        }
        let render_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let pad = widths[i].saturating_sub(c.chars().count());
                    format!("{}{}", c, " ".repeat(pad))
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as RFC 4180 CSV: a header row then the data rows,
    /// with fields containing commas, quotes or newlines quoted and embedded
    /// quotes doubled. The title is not part of the CSV payload.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &String| {
            if cell.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.clone()
            }
        };
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(self.rows.iter()) {
            out.push_str(&row.iter().map(escape).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// The table as a JSON document: `{"title", "headers", "rows"}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::str(&self.title)),
            ("headers", Json::arr(self.headers.iter().map(Json::str))),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| Json::arr(row.iter().map(Json::str)))
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a fractional delta (e.g. `0.063`) as a percentage string ("6.3%").
pub fn percent(delta: f64) -> String {
    format!("{:.1}%", delta * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_headers_and_rows() {
        let mut t = Table::new("Demo", vec!["a".into(), "bbbb".into()]);
        t.add_row(vec!["xxxxx".into(), "1".into()]);
        t.add_row(vec!["y".into(), "22".into()]);
        let text = t.render();
        assert!(text.starts_with("Demo\n"));
        assert!(text.contains("xxxxx"));
        assert_eq!(text.lines().count(), 5);
        // Columns are aligned: the second column starts at the same offset.
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let col = lines[0].find("bbbb").unwrap();
        assert_eq!(lines[2].find('1'), Some(col));
    }

    #[test]
    fn multibyte_labels_do_not_skew_alignment() {
        // "≥128B" is 5 characters but 7 bytes; byte-based widths used to pad
        // the following column two cells too far right.
        let mut t = Table::new("Align", vec!["range".into(), "v".into()]);
        t.add_row(vec!["≥128B".into(), "1".into()]);
        t.add_row(vec!["<128B".into(), "2".into()]);
        let lines: Vec<String> = t.render().lines().skip(1).map(str::to_owned).collect();
        let col_of = |line: &str| {
            line.chars()
                .rev()
                .position(|c| !c.is_whitespace())
                .map(|from_end| line.chars().count() - 1 - from_end)
                .unwrap()
        };
        // The last column's single-character cells land on the same
        // character column in every row.
        assert_eq!(col_of(&lines[1]), col_of(&lines[2]));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_is_rejected() {
        let mut t = Table::new("Demo", vec!["a".into()]);
        t.add_row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(0.063), "6.3%");
        assert_eq!(percent(-0.02), "-2.0%");
    }

    #[test]
    fn display_matches_render() {
        let t = Table::new("T", vec!["h".into()]);
        assert_eq!(format!("{t}"), t.render());
    }

    /// Workload and mix names can carry commas, quotes and even line breaks.
    fn hostile_table() -> Table {
        let mut t = Table::new("CSV", vec!["name".into(), "value".into(), "note".into()]);
        t.add_row(vec!["plain".into(), "1".into(), String::new()]);
        t.add_row(vec![
            "mix(mcf,lbm,gcc)".into(),
            "say \"hi\"".into(),
            "line\nbreak".into(),
        ]);
        t.add_row(vec![
            "\"fully quoted\"".into(),
            "trailing,comma,".into(),
            "cr\r\nlf".into(),
        ]);
        t
    }

    /// A minimal RFC 4180 reader for newline-terminated documents.
    fn read_csv(csv: &str) -> Vec<Vec<String>> {
        let (mut records, mut record, mut field) = (Vec::new(), Vec::new(), String::new());
        let mut quoted = false;
        let mut chars = csv.chars().peekable();
        while let Some(c) = chars.next() {
            match (quoted, c) {
                (true, '"') if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                (_, '"') => quoted = !quoted,
                (false, ',') => record.push(std::mem::take(&mut field)),
                (false, '\n') => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                (_, other) => field.push(other),
            }
        }
        assert!(
            !quoted && field.is_empty() && record.is_empty(),
            "unterminated document"
        );
        records
    }

    #[test]
    fn csv_escapes_delimiters_and_quotes() {
        // A cell with a comma, quote or line break is quoted with its quotes
        // doubled; every other cell (the empty one included) is written as is.
        let expected = [
            "name,value,note\n",
            "plain,1,\n",
            "\"mix(mcf,lbm,gcc)\",\"say \"\"hi\"\"\",\"line\nbreak\"\n",
            "\"\"\"fully quoted\"\"\",\"trailing,comma,\",\"cr\r\nlf\"\n",
        ];
        assert_eq!(hostile_table().to_csv(), expected.concat());
    }

    #[test]
    fn csv_round_trips_hostile_cells() {
        // Every cell survives to_csv and an RFC 4180 reader byte for byte.
        let t = hostile_table();
        let mut cells = vec![t.headers.clone()];
        cells.extend(t.rows.iter().cloned());
        assert_eq!(read_csv(&t.to_csv()), cells);
    }

    #[test]
    fn json_form_parses_back() {
        let mut t = Table::new("J", vec!["k".into()]);
        t.add_row(vec!["v".into()]);
        let json = t.to_json();
        assert_eq!(json.get("title").and_then(Json::as_str), Some("J"));
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(reparsed, json);
    }
}
