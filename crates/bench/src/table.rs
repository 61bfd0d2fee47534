//! Figure results: tabular containers, text rendering, JSON persistence.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One regenerated figure: a labeled table of relative prediction errors
/// (percent), mirroring a bar group or line series of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Identifier ("fig2", "sc-table", "ablate-robj", ...).
    pub id: String,
    /// Human-readable title echoing the paper's caption.
    pub title: String,
    /// Column headers (after the row-label column).
    pub columns: Vec<String>,
    /// Rows: label plus one value per column (`NaN` = not applicable;
    /// serialized as JSON `null` and restored as `NaN`).
    #[serde(with = "nan_as_null")]
    pub rows: Vec<(String, Vec<f64>)>,
    /// Footnotes (measured context: totals, factors, ...).
    pub notes: Vec<String>,
}

impl Figure {
    /// Render as an aligned text table with percentages.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.title);
        let label_w = self.rows.iter().map(|(l, _)| l.len()).chain([9]).max().unwrap();
        let col_w = self.columns.iter().map(|c| c.len()).chain([8]).max().unwrap();
        let _ = write!(out, "{:label_w$}", "");
        for c in &self.columns {
            let _ = write!(out, "  {c:>col_w$}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for v in values {
                if v.is_nan() {
                    let _ = write!(out, "  {:>col_w$}", "-");
                } else {
                    let _ = write!(out, "  {:>col_w$}", format!("{:.2}%", v * 100.0));
                }
            }
            let _ = writeln!(out);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Render as grouped horizontal ASCII bar charts — the visual shape
    /// of the paper's figures. Bars are scaled to the table's maximum.
    pub fn render_bars(&self) -> String {
        const WIDTH: usize = 46;
        let max = self.max_value().max(1e-12);
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(self.columns.iter().map(|c| c.len()))
            .max()
            .unwrap_or(8);
        for (label, values) in &self.rows {
            let _ = writeln!(out, "{label}");
            for (col, v) in self.columns.iter().zip(values.iter()) {
                if v.is_nan() {
                    continue;
                }
                let cells = ((v / max) * WIDTH as f64).round() as usize;
                let _ = writeln!(
                    out,
                    "  {col:>label_w$} |{:<WIDTH$}| {:.2}%",
                    "#".repeat(cells),
                    v * 100.0
                );
            }
        }
        out
    }

    /// Largest finite value in the table (for assertions on error bounds).
    pub fn max_value(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|(_, vs)| vs.iter())
            .copied()
            .filter(|v| v.is_finite())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// All finite values in one named column.
    pub fn column_values(&self, column: &str) -> Vec<f64> {
        let idx = self.column_index(column);
        self.rows.iter().map(|(_, vs)| vs[idx]).filter(|v| v.is_finite()).collect()
    }

    /// Mean of the finite values in one named column.
    pub fn column_mean(&self, column: &str) -> f64 {
        let v = self.column_values(column);
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// The cell at a row label and a column (`NaN` where not applicable).
    pub fn at(&self, row: &str, column: &str) -> f64 {
        let idx = self.column_index(column);
        self.rows
            .iter()
            .find(|(l, _)| l == row)
            .map(|(_, vs)| vs[idx])
            .unwrap_or_else(|| panic!("no row {row:?} in figure {}", self.id))
    }

    fn column_index(&self, column: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == column)
            .unwrap_or_else(|| panic!("no column {column:?} in figure {}", self.id))
    }
}

/// JSON has no NaN; not-applicable cells round-trip as `null`.
mod nan_as_null {
    use serde::{Deserialize, Error, Reader, Serialize, Writer};

    pub fn serialize(rows: &[(String, Vec<f64>)], w: &mut Writer) {
        let mapped: Vec<(&String, Vec<Option<f64>>)> = rows
            .iter()
            .map(|(l, vs)| {
                (l, vs.iter().map(|v| if v.is_nan() { None } else { Some(*v) }).collect())
            })
            .collect();
        mapped.serialize(w);
    }

    pub fn deserialize(r: &mut Reader<'_>) -> Result<Vec<(String, Vec<f64>)>, Error> {
        let mapped: Vec<(String, Vec<Option<f64>>)> = Deserialize::deserialize(r)?;
        Ok(mapped
            .into_iter()
            .map(|(l, vs)| (l, vs.into_iter().map(|v| v.unwrap_or(f64::NAN)).collect()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure {
            id: "t".into(),
            title: "test".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![("r1".into(), vec![0.05, 0.10]), ("r2".into(), vec![0.01, f64::NAN])],
            notes: vec!["hello".into()],
        }
    }

    #[test]
    fn render_contains_all_cells() {
        let s = fig().render();
        assert!(s.contains("5.00%"));
        assert!(s.contains("10.00%"));
        assert!(s.contains("1.00%"));
        assert!(s.contains(" -"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn max_value_ignores_nan() {
        assert_eq!(fig().max_value(), 0.10);
    }

    #[test]
    fn column_extraction() {
        assert_eq!(fig().column_values("a"), vec![0.05, 0.01]);
        assert_eq!(fig().column_values("b"), vec![0.10]);
    }

    #[test]
    fn cell_lookup_and_column_mean() {
        assert_eq!(fig().at("r1", "b"), 0.10);
        assert!(fig().at("r2", "b").is_nan());
        assert!((fig().column_mean("a") - 0.03).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn missing_column_panics() {
        fig().column_values("zzz");
    }

    #[test]
    #[should_panic(expected = "no row")]
    fn missing_row_panics() {
        fig().at("r3", "a");
    }

    #[test]
    fn bar_rendering_scales_to_the_maximum() {
        let s = fig().render_bars();
        // The 0.10 cell is the maximum: a full-width bar of 46 '#'.
        assert!(s.contains(&"#".repeat(46)), "{s}");
        // The 0.05 cell gets half of that.
        assert!(s.contains(&format!("|{:<46}| 5.00%", "#".repeat(23))), "{s}");
        // NaN cells render no bar line.
        assert_eq!(s.matches('|').count(), 6, "{s}");
    }

    #[test]
    fn json_roundtrip_preserves_nan_cells() {
        let f = fig();
        let json = serde_json::to_string(&f).expect("serialize");
        assert!(json.contains("null"), "NaN must serialize as null: {json}");
        let back: Figure = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.rows[0].1, f.rows[0].1);
        assert!(back.rows[1].1[1].is_nan());
        assert_eq!(back.columns, f.columns);
    }
}
