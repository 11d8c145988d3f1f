//! Figure reports: aligned text tables plus JSON artifacts.
//!
//! JSON is emitted by a small hand-rolled writer (the build is fully
//! self-contained, so no serde): the output is stable, pretty-printed,
//! and shaped exactly like the derive would have produced.

use bellwether_obs::json;
use std::fs;
use std::path::Path;

/// One plotted series: `(x, y)` points (missing y = the method produced
/// no result at that x, e.g. nothing affordable).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend name (e.g. "Bel Err").
    pub name: String,
    /// Data points.
    pub points: Vec<(f64, Option<f64>)>,
}

impl Series {
    /// Build a series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: Option<f64>) {
        self.points.push((x, y));
    }

    fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut out = String::new();
        out.push_str(&format!("{pad}{{\n"));
        out.push_str(&format!(
            "{inner}\"name\": \"{}\",\n",
            json::escape(&self.name)
        ));
        if self.points.is_empty() {
            out.push_str(&format!("{inner}\"points\": []\n"));
        } else {
            out.push_str(&format!("{inner}\"points\": [\n"));
            let point_pad = " ".repeat(indent + 4);
            for (i, (x, y)) in self.points.iter().enumerate() {
                let y_str = match y {
                    Some(v) => json::number(*v),
                    None => "null".to_string(),
                };
                let comma = if i + 1 < self.points.len() { "," } else { "" };
                out.push_str(&format!(
                    "{point_pad}[{}, {}]{comma}\n",
                    json::number(*x),
                    y_str
                ));
            }
            out.push_str(&format!("{inner}]\n"));
        }
        out.push_str(&format!("{pad}}}"));
        out
    }
}

/// A reproduced figure: id, axis labels, and its series.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Figure id, e.g. "fig07a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureReport {
    /// Build an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn add_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Render an aligned text table: one row per x, one column per
    /// series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.name.clone()));
        out.push_str(&format!("{}\n", header.join("\t")));
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| *x).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let mut row = vec![format!("{x}")];
            for s in &self.series {
                let y = s.points.get(i).and_then(|(_, y)| *y);
                row.push(match y {
                    Some(v) => format!("{v:.4}"),
                    None => "-".to_string(),
                });
            }
            out.push_str(&format!("{}\n", row.join("\t")));
        }
        out
    }

    /// Serialize as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"id\": \"{}\",\n", json::escape(&self.id)));
        out.push_str(&format!("  \"title\": \"{}\",\n", json::escape(&self.title)));
        out.push_str(&format!(
            "  \"x_label\": \"{}\",\n",
            json::escape(&self.x_label)
        ));
        out.push_str(&format!(
            "  \"y_label\": \"{}\",\n",
            json::escape(&self.y_label)
        ));
        if self.series.is_empty() {
            out.push_str("  \"series\": []\n");
        } else {
            out.push_str("  \"series\": [\n");
            for (i, s) in self.series.iter().enumerate() {
                out.push_str(&s.to_json(4));
                out.push_str(if i + 1 < self.series.len() { ",\n" } else { "\n" });
            }
            out.push_str("  ]\n");
        }
        out.push('}');
        out
    }

    /// Print the table and write `results/<id>.json`.
    pub fn emit(&self, results_dir: &Path) {
        println!("{}", self.render());
        if let Err(e) = fs::create_dir_all(results_dir) {
            eprintln!("warning: cannot create {results_dir:?}: {e}");
            return;
        }
        let path = results_dir.join(format!("{}.json", self.id));
        if let Err(e) = fs::write(&path, self.to_json()) {
            eprintln!("warning: cannot write {path:?}: {e}");
        } else {
            println!("(wrote {})\n", path.display());
        }
    }
}

/// Default results directory: `results/` at the workspace root.
/// Anchored at this crate's manifest so binaries (run from the root)
/// and benches (run from the package dir) agree on the location.
pub fn results_dir() -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_series() {
        let mut fig = FigureReport::new("t1", "demo", "budget", "rmse");
        let mut a = Series::new("A");
        a.push(5.0, Some(1.25));
        a.push(10.0, None);
        let mut b = Series::new("B");
        b.push(5.0, Some(2.0));
        b.push(10.0, Some(3.0));
        fig.add_series(a);
        fig.add_series(b);
        let s = fig.render();
        assert!(s.contains("budget\tA\tB"));
        assert!(s.contains("5\t1.2500\t2.0000"));
        assert!(s.contains("10\t-\t3.0000"));
    }

    #[test]
    fn json_shape_round_trips_fields() {
        let mut fig = FigureReport::new("t3", "q\"uote", "x", "y");
        let mut a = Series::new("A");
        a.push(1.0, Some(2.5));
        a.push(2.0, None);
        fig.add_series(a);
        let j = fig.to_json();
        assert!(j.contains("\"id\": \"t3\""));
        assert!(j.contains("\\\"uote"));
        assert!(j.contains("[1.0, 2.5]"));
        assert!(j.contains("[2.0, null]"));
    }

    #[test]
    fn emit_writes_json() {
        let dir = std::env::temp_dir().join("bw_report_test");
        let fig = FigureReport::new("t2", "demo", "x", "y");
        fig.emit(&dir);
        let path = dir.join("t2.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"id\": \"t2\""));
        std::fs::remove_file(path).ok();
    }
}
