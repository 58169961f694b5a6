//! The result of one benchmark run and how it is printed.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes (units, spans or scrapes).
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed (wrong verdict, wrong cone, error, refusal,
    /// transport failure).
    pub failed: u64,
    /// Self-check violations: oracle mismatches aside, anything that
    /// makes the measurement untrustworthy (traced and product paths
    /// disagreeing, counts not repeating, spans not reconciling).
    pub problems: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Run context: `(key, value)` pairs.
    pub context: Vec<(String, String)>,
}

impl Report {
    /// Sets a metric, replacing an earlier value of the same name.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        let m = Metric {
            name,
            value,
            unit,
            samples,
        };
        match self.metrics.iter_mut().find(|old| old.name == name) {
            Some(old) => *old = m,
            None => self.metrics.push(m),
        }
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a self-check violation.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// True when no unit failed and no self-check was violated.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable table: context, then one metric a line with
    /// unit and sample count, then any problem.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.context {
            let _ = writeln!(out, "# {}: {}", k, v);
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<28} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "PROBLEM: {}", p);
        }
        out
    }

    /// The one-line JSON result over the metrics named in `names`.
    pub fn json_line(&self, names: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for name in names {
            let Some(m) = self.metrics.iter().find(|m| m.name == *name) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            workload: "w",
            attempted: 3,
            ..Report::default()
        };
        r.put("latency_p50_ms", 1.25, "ms", 3);
        r.put("other", 2.0, "count", 1);
        let line = r.json_line(&["latency_p50_ms"]);
        let json = daenerys_obs::parse_json(&line).unwrap();
        let obj = json.as_obj().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = obj["metrics"].as_obj().unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(
            metrics["latency_p50_ms"].as_obj().unwrap()["value"].as_num(),
            Some(1.25)
        );
    }

    #[test]
    fn a_problem_makes_the_run_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        assert!(r.correct());
        r.problem("counts differ");
        assert!(!r.correct());
    }
}
