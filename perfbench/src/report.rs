//! Result assembly: named metrics with units, the operation ledger, and
//! the one-line JSON the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Operations attempted and failed, per kind, plus every correctness
/// check with the number of times it ran and failed. A failed check
/// marks the operation it covers as failed, so `failed ≤ attempted`.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    ops: BTreeMap<&'static str, (u64, u64)>,
    checks: BTreeMap<&'static str, (u64, u64)>,
    notes: Vec<String>,
}

impl Ledger {
    /// Count one operation of `kind`; `ok == false` counts it as failed.
    pub fn op(&mut self, kind: &'static str, ok: bool) {
        let e = self.ops.entry(kind).or_default();
        e.0 += 1;
        e.1 += u64::from(!ok);
    }

    /// Count `n` operations of `kind`, `failed` of which failed.
    pub fn ops(&mut self, kind: &'static str, n: u64, failed: u64) {
        let e = self.ops.entry(kind).or_default();
        e.0 += n;
        e.1 += failed;
    }

    /// Count one run of check `name`; returns `ok` so callers can fold it
    /// into the covered operation. A failure also records `detail`.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let e = self.checks.entry(name).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("{name}: {}", detail()));
            }
        }
        ok
    }

    /// Count `n` runs of check `name`, `failed` of which failed.
    pub fn checks(&mut self, name: &'static str, n: u64, failed: u64) {
        let e = self.checks.entry(name).or_default();
        e.0 += n;
        e.1 += failed;
    }

    /// Total operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|e| e.0).sum()
    }

    /// Total operations failed.
    pub fn failed(&self) -> u64 {
        self.ops.values().map(|e| e.1).sum()
    }

    /// Failed runs of any check.
    pub fn failed_checks(&self) -> u64 {
        self.checks.values().map(|e| e.1).sum()
    }

    /// Human-readable breakdown (one line per kind and check).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (k, (a, f)) in &self.ops {
            let _ = writeln!(s, "  op    {k:<22} attempted {a:>10}  failed {f}");
        }
        for (k, (a, f)) in &self.checks {
            let _ = writeln!(s, "  check {k:<22} ran       {a:>10}  failed {f}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "  FAILED {n}");
        }
        s
    }
}

/// The finished result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operation and check counts.
    pub ledger: Ledger,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every operation and check passed and every value is finite.
    pub fn correct(&self) -> bool {
        self.ledger.failed() == 0
            && self.ledger.failed_checks() == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            // Rust's `{}` for f64 prints the shortest string that reads
            // back to the same value; a non-finite value (already marked
            // incorrect) is written as null to keep the line valid JSON.
            let value = if metric.value.is_finite() {
                format!("{}", metric.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.ledger.attempted(),
            self.ledger.failed(),
        )
    }
}

/// Metrics in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_check_marks_report_incorrect() {
        let mut l = Ledger::default();
        l.op("read", true);
        let ok = l.check("parity", false, || "mismatch".into());
        l.op("ingest", ok);
        assert_eq!(l.attempted(), 2);
        assert_eq!(l.failed(), 1);
        let r = Report {
            ledger: l,
            metrics: vec![],
        };
        assert!(!r.correct());
        assert!(r
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn json_line_lists_metrics_with_units() {
        let mut l = Ledger::default();
        l.ops("read", 10, 0);
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("setup_s", 0.5, "s");
        let r = Report {
            ledger: l,
            metrics: m.0,
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
