//! Summary statistics and the benchmark's output: one human-readable
//! line per metric, then the result as one JSON line.

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the number is, for the human-readable line.
    pub note: String,
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Sheet {
    metrics: Vec<Metric>,
}

impl Sheet {
    pub fn add(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Prints every metric by name with its unit, all measured.
    pub fn print_table(&self, title: &str) {
        println!("# {title}");
        for m in &self.metrics {
            println!(
                "{:<32} {:>16} {:<8} measured  {}",
                m.name,
                fmt_number(m.value),
                m.unit,
                m.note
            );
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics
    /// named in `keep`, in that order.
    pub fn json_line(&self, correct: bool, attempted: u64, failed: u64, keep: &[&str]) -> String {
        let metrics: Vec<String> = keep
            .iter()
            .filter_map(|name| self.metrics.iter().find(|m| m.name == *name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits; non-finite values (a window where
/// most transactions failed) print as a huge latency.
fn fmt_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}
