//! Experiment result tables.
//!
//! Every experiment of the harness produces an [`ExperimentResult`]: the
//! series the corresponding paper figure plots (one value per algorithm per
//! x-axis point), rendered either as an aligned text table or as JSON.
//! ROADMAP item 14 plans the paper-vs-measured record written from these
//! tables.

/// One plotted series (one line of a paper figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, e.g. `"IncDect"`.
    pub name: String,
    /// `(x, y)` points; the x value is kept as a string so that sweeps over
    /// sizes ("(10M,20M)"), percentages ("15%") and counts all render
    /// uniformly.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// A new, empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }

    /// The y value at a given x, if present.
    pub fn at(&self, x: &str) -> Option<f64> {
        self.points.iter().find(|(px, _)| px == x).map(|&(_, y)| y)
    }
}

ngd_json::impl_json_struct!(Series { name, points });

/// The result of one experiment (one paper figure or table).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment identifier, e.g. `"fig4a"`.
    pub id: String,
    /// Human-readable title, e.g. `"DBpedia: varying |ΔG|"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label (usually `"time (ms)"`).
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
    /// Free-form notes (scale factors, substitutions, observed ratios).
    pub notes: Vec<String>,
}

ngd_json::impl_json_struct!(ExperimentResult {
    id,
    title,
    x_label,
    y_label,
    series,
    notes
});

impl ExperimentResult {
    /// A new, empty result.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a note to the result.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Find a series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The x values, in the order of the first series.
    pub fn x_values(&self) -> Vec<String> {
        self.series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| x.clone()).collect())
            .unwrap_or_default()
    }

    /// Render as an aligned text table: one row per x value, one column per
    /// series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.id, self.title));
        let xs = self.x_values();
        let mut header: Vec<String> = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.name.clone()));
        let mut rows: Vec<Vec<String>> = vec![header];
        for x in &xs {
            let mut row = vec![x.clone()];
            for series in &self.series {
                row.push(match series.at(x) {
                    Some(y) if y.abs() >= 100.0 => format!("{y:.0}"),
                    Some(y) => format!("{y:.2}"),
                    None => "-".to_string(),
                });
            }
            rows.push(row);
        }
        let columns = rows.iter().map(Vec::len).max().unwrap_or(0);
        let widths: Vec<usize> = (0..columns)
            .map(|c| {
                rows.iter()
                    .filter_map(|r| r.get(c))
                    .map(String::len)
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for row in &rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{cell:>width$}", width = widths[c]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out.push_str(&format!("({})\n", self.y_label));
        out
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        ngd_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentResult {
        let mut result = ExperimentResult::new("fig4x", "sample", "|ΔG|", "time (ms)");
        let mut a = Series::new("Dect");
        a.push("5%", 120.0);
        a.push("10%", 121.5);
        let mut b = Series::new("IncDect");
        b.push("5%", 10.0);
        b.push("10%", 22.0);
        result.series.push(a);
        result.series.push(b);
        result.note("quick scale");
        result
    }

    #[test]
    fn render_contains_all_series_and_points() {
        let text = sample().render();
        assert!(text.contains("Dect"));
        assert!(text.contains("IncDect"));
        assert!(text.contains("5%"));
        assert!(text.contains("22.00"));
        assert!(text.contains("note: quick scale"));
    }

    #[test]
    fn series_lookup() {
        let result = sample();
        assert_eq!(
            result.series_named("IncDect").unwrap().at("10%"),
            Some(22.0)
        );
        assert!(result.series_named("missing").is_none());
        assert_eq!(result.x_values(), vec!["5%", "10%"]);
    }

    #[test]
    fn json_roundtrip() {
        let result = sample();
        let json = result.to_json();
        let back: ExperimentResult = ngd_json::from_str(&json).unwrap();
        assert_eq!(back.id, "fig4x");
        assert_eq!(back.series.len(), 2);
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut result = sample();
        result.series[1].points.truncate(1);
        let text = result.render();
        assert!(text.contains('-'));
    }
}
