//! Order statistics, and the metric list every result is printed from.

use std::fmt::Write as _;

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the number covers (`per_block`, `per_frame`, `per_run`), and
    /// how many samples it summarises when it is a statistic.
    pub scope: String,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        scope: impl Into<String>,
    ) {
        self.0.push(Metric {
            name,
            value,
            unit,
            scope: scope.into(),
        });
    }

    /// Human-readable lines: name, value, unit and scope.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for m in &self.0 {
            let _ = writeln!(
                s,
                "  {:<34} {:>16} {:<8} {}",
                m.name, m.value, m.unit, m.scope
            );
        }
        s
    }

    /// The `metrics` object of the result line. A non-finite value cannot
    /// be written as JSON; it is reported as an error instead.
    pub fn json(&self) -> Result<String, String> {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push('}');
        Ok(s)
    }
}
