//! What one workload run measured and checked.

/// The paper's Fig. 7: Sentinel within 9% of fast-only on average. Printed
/// beside every `sim_gap_to_fast.*` value.
pub const FIG7_NOTE: &str = "paper Fig. 7: 0.09 averaged over its models";

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
    /// A reference to print beside the value (paper figure, or why there
    /// is none).
    pub note: Option<String>,
}

/// Metrics plus the correctness gate's tally for one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations that failed or gave a wrong result.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: None,
        });
    }

    /// Record a metric with a reference note.
    pub fn metric_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: Some(note.into()),
        });
    }

    /// Count one operation; a failure when `ok` is false, described by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what());
        }
    }

    /// Count one operation that failed.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Append another run's metrics and fold in its tally.
    pub fn absorb(&mut self, mut other: Outcome) {
        self.metrics.append(&mut other.metrics);
        self.absorb_checks(other);
    }

    /// Fold another tally (from a worker thread) into this one.
    pub fn absorb_checks(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        for why in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
        self.failed += other.failed;
    }
}

/// The process's peak resident set so far (`VmHWM`) in MiB, or `None`
/// where `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
