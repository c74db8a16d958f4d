//! Collected metrics: a human-readable table and the one-line JSON
//! result.

use crate::oracle::Tally;
use crate::stats::Summary;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `1/s`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Spread of the samples behind the value, when it has several.
    pub summary: Option<Summary>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<Entry>,
    notes: Vec<String>,
}

/// Which statistic of a sample set a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The median.
    Median,
    /// The tail percentile chosen by [`crate::stats::tail_percentile`].
    Tail,
    /// The third quartile: for rates of repeated identical work, the
    /// quick end, which a machine shared with other work disturbs least.
    Q3,
}

impl Report {
    /// Record a single value.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(Entry {
            name: name.into(),
            unit,
            value,
            summary: None,
        });
    }

    /// Record a statistic of samples; nothing when there are none.
    pub fn samples(&mut self, name: &str, unit: &'static str, samples: &[f64], pick: Pick) {
        if let Some(s) = Summary::of(samples) {
            let value = match pick {
                Pick::Median => s.p50,
                Pick::Tail => s.tail,
                Pick::Q3 => s.q3,
            };
            self.push(Entry {
                name: name.into(),
                unit,
                value,
                summary: Some(s),
            });
        }
    }

    /// Record the same value as another entry under a second name.
    pub fn alias(&mut self, name: &str, of: &str) {
        if let Some(e) = self.get(of).cloned() {
            self.push(Entry {
                name: name.into(),
                ..e
            });
        }
    }

    /// Add a free-form line to the human-readable report.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().rev().find(|e| e.name == name)
    }

    fn push(&mut self, entry: Entry) {
        self.entries.retain(|e| e.name != entry.name);
        self.entries.push(entry);
    }

    /// The human-readable table: every metric with its unit, median,
    /// quartiles, tail and sample count.
    pub fn render(&self, tally: &Tally) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>14} {:<6} {:>12} {:>12} {:>12} {:>16} {:>7}\n",
            "metric", "value", "unit", "median", "q1", "q3", "tail", "n"
        ));
        for e in &self.entries {
            match &e.summary {
                Some(s) => out.push_str(&format!(
                    "{:<34} {:>14.6} {:<6} {:>12.6} {:>12.6} {:>12.6} {:>16} {:>7}\n",
                    e.name,
                    e.value,
                    e.unit,
                    s.p50,
                    s.q1,
                    s.q3,
                    format!("p{}={:.6}", s.tail_pct, s.tail),
                    s.n
                )),
                None => out.push_str(&format!(
                    "{:<34} {:>14.6} {:<6} {:>12} {:>12} {:>12} {:>16} {:>7}\n",
                    e.name, e.value, e.unit, "-", "-", "-", "-", 1
                )),
            }
        }
        out.push_str(&format!(
            "{:<34} {:>14.6} {:<6} ({} failed of {} attempted)\n",
            "error_rate",
            tally.error_rate(),
            "ratio",
            tally.failed,
            tally.attempted
        ));
        if let Some(why) = &tally.first_failure {
            out.push_str(&format!("first failure: {why}\n"));
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// The result line: the named metrics, every one of which must be
    /// present and finite.
    pub fn json(&self, tally: &Tally, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in names {
            let e = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !e.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", e.value));
            }
            if e.unit != *unit {
                return Err(format!("metric {name} has unit {} not {unit}", e.unit));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(e.value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite f64 as a JSON number with every digit Rust needs to
/// round-trip it (`-0` from an empty float sum reads as `0`).
fn json_number(x: f64) -> String {
    format!("{:?}", x + 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_exactly_the_named_metrics() {
        let mut r = Report::default();
        r.value("setup_s", "s", 0.8127);
        r.samples("p50_ms", "ms", &[1.0, 2.0, 3.0], Pick::Median);
        r.value("extra", "count", 3.0);
        let mut tally = Tally::default();
        tally.record("op", Ok(()));
        let line = r
            .json(&tally, &[("setup_s", "s"), ("p50_ms", "ms")])
            .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"p50_ms\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn json_refuses_missing_or_non_finite_metrics() {
        let mut r = Report::default();
        r.value("tail_ms", "ms", f64::INFINITY);
        let tally = Tally::default();
        assert!(r.json(&tally, &[("setup_s", "s")]).is_err());
        assert!(r.json(&tally, &[("tail_ms", "ms")]).is_err());
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.value("setup_s", "s", 1.0);
        let mut tally = Tally::default();
        tally.record("op", Ok(()));
        tally.record("op", Err("wrong".into()));
        let line = r.json(&tally, &[("setup_s", "s")]).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(r.render(&tally).contains("first failure: op: wrong"));
    }
}
