//! What one run reports: operation tallies, end-to-end and per-layer
//! metrics, and the deterministic counts that must repeat exactly for a
//! fixed seed.

use std::collections::BTreeMap;

use crate::stats::{blocked, highest_supported, median, quartiles, Tally};

/// The end-to-end metrics every run prints with tracing off, with units.
/// `BENCHMARK.json` lists the same names (checked by a test).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("compile_cold_ms", "ms"),
    ("edit_literal_ms", "ms"),
    ("edit_shape_ms", "ms"),
    ("machine_cells", "count"),
    ("sim_event_steps_per_s", "1/s"),
    ("sim_par2_steps_per_s", "1/s"),
    ("sim_interval", "steps"),
    ("serve_open_ms", "ms"),
    ("serve_job_p50_ms", "ms"),
    ("serve_job_p99_ms", "ms"),
    ("serve_jobs_per_s", "1/s"),
];

/// The per-layer metrics every traced run prints, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_ratio", "ratio"),
    ("val.parse_ms", "ms"),
    ("val.typecheck_ms", "ms"),
    ("val.analyze_ms", "ms"),
    ("core.compile_unbalanced_ms", "ms"),
    ("core.queries_total", "count"),
    ("core.queries_executed.literal", "count"),
    ("core.queries_executed.shape", "count"),
    ("balance.solve_ms", "ms"),
    ("balance.buffers", "count"),
    ("ir.expand_ms", "ms"),
    ("ir.cells_balanced", "count"),
    ("machine.event.run_ms", "ms"),
    ("machine.par2.run_ms", "ms"),
    ("machine.scan.run_ms", "ms"),
    ("machine.steps", "count"),
    ("machine.fires", "count"),
    ("machine.fires_per_step", "ratio"),
    ("machine.par2.epochs", "count"),
    ("machine.par2.mean_horizon", "steps"),
    ("machine.par2.horizon_fallbacks", "count"),
    ("machine.par2.batched_ratio", "ratio"),
    ("machine.advance_ms", "ms"),
    ("machine.ff.skip_ratio", "ratio"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("serve.registry_open_ms", "ms"),
    ("serve.registry_job_ms", "ms"),
    ("serve.residency_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("hibernate.encode_ms", "ms"),
    ("hibernate.load_ms", "ms"),
    ("hibernate.bytes", "bytes"),
    ("serve.hibernations", "count"),
    ("serve.resumes", "count"),
    ("serve.rejected_overload", "count"),
    ("serve.ff_skipped_steps", "count"),
];

/// Accumulates one run's results.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    values: BTreeMap<String, f64>,
    samples: BTreeMap<String, usize>,
    /// The samples behind metrics recorded as a median.
    spreads: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, f64>,
}

impl Report {
    /// Count one successful operation.
    pub fn ok(&mut self) {
        self.tally.record(true);
    }

    /// Count one failed operation and say why on stderr.
    pub fn fail(&mut self, what: impl AsRef<str>) {
        eprintln!("perfbench: FAILED: {}", what.as_ref());
        self.tally.record(false);
    }

    /// Count an operation by its outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(what());
        }
    }

    /// Record a metric measured as the median of `xs`; nothing when the
    /// sample is empty (the run then fails for the missing metric).
    pub fn median_of(&mut self, name: &str, xs: &[f64]) {
        if let Some(m) = median(xs) {
            self.set(name, m, xs.len());
            self.spreads.insert(name.to_string(), xs.to_vec());
        }
    }

    /// Record a timing: the median over blocks of the run of each
    /// block's mean (see [`blocked`]), from samples in the order taken.
    pub fn time_of(&mut self, name: &str, xs: &[f64]) {
        let pairs: Vec<(f64, f64)> = xs.iter().map(|&x| (x, 1.0)).collect();
        if let Some(v) = blocked(&pairs) {
            self.set(name, v, xs.len());
            self.spreads.insert(name.to_string(), xs.to_vec());
        }
    }

    /// Record a rate from `(work, seconds)` samples in run order: the
    /// median over blocks of the run of each block's rate.
    pub fn rate_of(&mut self, name: &str, samples: &[(f64, f64)]) {
        if let Some(v) = blocked(samples) {
            self.set(name, v, samples.len());
            let rates = samples.iter().map(|(w, s)| w / s).collect();
            self.spreads.insert(name.to_string(), rates);
        }
    }

    /// Record a metric computed from `n` samples.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.values.insert(name.to_string(), value);
        self.samples.insert(name.to_string(), n);
    }

    /// Record a deterministic count: also listed among the values that
    /// must repeat exactly for a fixed seed.
    pub fn count(&mut self, name: &str, value: f64) {
        self.set(name, value, 1);
        self.counts.insert(name.to_string(), value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// One line per recorded metric: its value and sample count, and
    /// for metrics taken from a sample its mean, median and quartiles and
    /// the highest percentile with at least 10 samples beyond it.
    pub fn summary(&self) -> Vec<String> {
        self.values
            .iter()
            .map(|(name, v)| {
                let n = self.samples[name];
                let mut line = format!("{name:>32} = {v:<14.6} n={n}");
                if let Some(xs) = self.spreads.get(name) {
                    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
                    line += &format!("  mean={mean:.6}");
                    if let Some(m) = median(xs) {
                        line += &format!("  median={m:.6}");
                    }
                    if let Some((q1, q3)) = quartiles(xs) {
                        line += &format!("  q1={q1:.6} q3={q3:.6}");
                    }
                    let tails = [90.0, 95.0, 99.0, 99.9];
                    if let Some((p, t)) = highest_supported(xs, &tails, 10) {
                        line += &format!("  p{p}={t:.6}");
                    }
                }
                line
            })
            .collect()
    }

    /// The deterministic counts.
    pub fn counts(&self) -> &BTreeMap<String, f64> {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valpipe_util::Json;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, listed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_arr).unwrap();
            let declared: Vec<(&str, &str)> = entries
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, listed.to_vec(), "{key}");
        }
    }
}
