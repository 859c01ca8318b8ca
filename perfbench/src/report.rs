//! Metrics and how they are printed: a human-readable table on stdout
//! (name, value, unit, sample count), then the one-line JSON result.

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `job_p50_ms`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
    /// Extra context (the tail's percentile, what was timed).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The table printed before the result line.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("# {title}\n");
    for m in metrics {
        out.push_str(&format!(
            "{:<28} {:>14.4} {:<6} n={:<5} {}\n",
            m.name, m.value, m.unit, m.samples, m.note
        ));
    }
    out
}

/// The final result line: `correct`, `attempted`, `failed`, and the named
/// metrics with their units.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        items.join(", ")
    )
}

/// A finite JSON number with all its digits (non-finite values, which no
/// metric should produce, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let m = [
            Metric::new("job_p50_ms", 1.25, "ms", 9),
            Metric::new("proof_bytes", 8896.0, "B", 9),
        ];
        let line = result_line(true, 9, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\
             \"job_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"proof_bytes\": {\"value\": 8896.0, \"unit\": \"B\"}}}"
        );
        assert!(zkml_net::Json::parse(&line).is_ok());
    }
}
