//! Metric tables, the collected result of one run, and its JSON output.
//!
//! Every metric the program can print is declared here with its unit;
//! `BENCHMARK.json` declares the same names (a self-test keeps the two in
//! step). End-to-end metrics are printed with tracing off, per-layer
//! metrics by the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("optimize_s", "s"),
    ("evals_per_s", "1/s"),
    ("kfail_sla", "cost"),
    ("kfail_congestion", "cost"),
    ("normal_phi_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Cost-kernel timings reported as a median and a tail percentile.
const TIMED_KERNELS: &[(&str, &str)] = &[
    ("cost.cost_with_normal.us", "us"),
    ("cost.cost_with_failure.us", "us"),
    ("cost.cost_cached.us", "us"),
    ("cost.cache_refresh.ms", "ms"),
    ("cost.scenario_floor.us", "us"),
    ("mtr.cost_normal.us", "us"),
    ("mtr.cost_failure.us", "us"),
    ("mtr.scenario_floor.us", "us"),
    ("routing.dist_to_into.us", "us"),
    ("routing.route_class_with.ms", "ms"),
    ("routing.route_destination_repair.us", "us"),
];

/// Per-layer metrics other than the timed kernels: `(name, unit)`.
const LAYER_SCALARS: &[(&str, &str)] = &[
    ("core.phase1.s", "s"),
    ("core.phase1b.s", "s"),
    ("core.selection.s", "s"),
    ("core.phase2.s", "s"),
    ("core.phase1.evals", "count"),
    ("core.phase1b.evals", "count"),
    ("core.phase2.evals", "count"),
    ("core.phase2.skipped_cache", "count"),
    ("core.phase2.skipped_floor", "count"),
    ("core.phase2.skipped_cutoff", "count"),
    ("core.phase2.skip_ratio", "ratio"),
    ("core.phase2.cache_resident", "count"),
    ("core.phase2.cache_fallback_evals", "count"),
    ("core.search.speculative_wasted", "count"),
    ("mtr.regular.s", "s"),
    ("mtr.top_up.s", "s"),
    ("mtr.selection.s", "s"),
    ("mtr.robust.s", "s"),
    ("mtr.regular.evals", "count"),
    ("mtr.top_up.evals", "count"),
    ("mtr.robust.evals", "count"),
    ("mtr.robust.skipped_cache", "count"),
    ("mtr.robust.skipped_floor", "count"),
    ("mtr.robust.skipped_cutoff", "count"),
    ("mtr.robust.skip_ratio", "ratio"),
    ("mtr.robust.cache_resident", "count"),
    ("mtr.robust.cache_fallback_evals", "count"),
    ("mtr.robust.speculative_wasted", "count"),
    ("cost.cache.resident_bytes", "bytes"),
    ("core.parallel.evaluate_set_t1.ms", "ms"),
    ("core.parallel.evaluate_set_tN.ms", "ms"),
    ("core.parallel.scaling", "ratio"),
    ("persist.store.ms", "ms"),
    ("persist.stores", "count"),
    ("persist.snapshot_bytes", "bytes"),
    ("trace.overhead", "ratio"),
];

/// Suffix of the tail-percentile companion of a timed kernel.
const TAIL_SUFFIX: &str = ".tail";

/// Every per-layer metric: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_SCALARS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for &(n, u) in TIMED_KERNELS {
        out.push((n.to_string(), u));
        out.push((format!("{n}{TAIL_SUFFIX}"), u));
    }
    out
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Result of one benchmark invocation.
pub struct Report {
    pub traced: bool,
    /// Optimizer runs attempted and runs with a failed verification check.
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
    /// Free-form details (sample counts, percentile levels, digests,
    /// check outcomes) as JSON fragments, printed beside the metrics.
    pub detail: BTreeMap<String, String>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Report {
            traced,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            detail: BTreeMap::new(),
        }
    }

    /// Record a metric; panics on a name the mode does not declare.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            valid_name(name),
            "metric name {name} is not [A-Za-z0-9_.-]+"
        );
        assert!(
            self.unit_of(name).is_some(),
            "metric {name} is not declared for this mode"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a kernel's samples as a median and a tail percentile.
    pub fn set_timed(&mut self, name: &str, samples: &[f64]) {
        self.set(name, crate::stats::median(samples));
        let (level, value) = crate::stats::tail(samples)
            .unwrap_or_else(|| panic!("{name}: too few samples for a tail ({})", samples.len()));
        self.set(&format!("{name}{TAIL_SUFFIX}"), value);
        self.note(
            &format!("{name}{TAIL_SUFFIX}"),
            format!(
                "{{\"percentile\": {level}, \"samples\": {}}}",
                samples.len()
            ),
        );
    }

    pub fn note(&mut self, key: &str, json: String) {
        self.detail.insert(key.to_string(), json);
    }

    pub fn record_check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn unit_of(&self, name: &str) -> Option<&'static str> {
        if self.traced {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        } else {
            END_TO_END.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
        }
    }

    /// Names the mode prints, in declaration order.
    pub fn declared(&self) -> Vec<(String, &'static str)> {
        if self.traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// Per-layer metrics of layers that did not run in this workload are
    /// reported as 0 — no time spent and no work done in that layer — so
    /// every traced run prints the full per-layer set.
    pub fn fill_absent_layers(&mut self) {
        assert!(self.traced);
        let absent: Vec<String> = self
            .declared()
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| !self.metrics.contains_key(n))
            .collect();
        for n in &absent {
            self.metrics.insert(n.clone(), 0.0);
        }
        self.note(
            "layers_not_run",
            format!(
                "[{}]",
                absent
                    .iter()
                    .map(|n| format!("\"{n}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    }

    /// Names declared for the mode but not recorded.
    pub fn missing(&self) -> Vec<String> {
        self.declared()
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| !self.metrics.contains_key(n))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.missing().is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, unit)) in self.declared().iter().enumerate() {
            let Some(v) = self.metrics.get(name) else {
                continue;
            };
            if i > 0 && !m.is_empty() {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_f64(*v)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The detail block, one JSON object.
    pub fn detail_json(&self) -> String {
        let body: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"detail\": {{{}}}}}", body.join(", "))
    }
}

/// A finite float as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` value of a JSON document, in order.
    fn declared_names(json: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut rest = json;
        while let Some(i) = rest.find("\"name\"") {
            rest = &rest[i + "\"name\"".len()..];
            let colon = rest.find(':').expect("name key has a value");
            let open = rest[colon..].find('"').expect("name is a string") + colon + 1;
            let close = rest[open..].find('"').expect("name string closes") + open;
            out.push(rest[open..close].to_string());
            rest = &rest[close + 1..];
        }
        out
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn every_printable_metric_is_declared_in_benchmark_json() {
        let declared = declared_names(&benchmark_json());
        let printable = END_TO_END
            .iter()
            .map(|&(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n));
        for name in printable {
            assert!(valid_name(&name), "{name} is not [A-Za-z0-9_.-]+");
            assert!(
                declared.contains(&name),
                "{name} is missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printable_metrics_and_workloads() {
        let declared = declared_names(&benchmark_json());
        let mut printable: Vec<String> = END_TO_END
            .iter()
            .map(|&(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        // The gated workloads: a subset of the program's workloads.
        let workloads: Vec<String> = declared
            .iter()
            .filter(|n| crate::inputs::Workload::from_name(n).is_some())
            .cloned()
            .collect();
        assert!(workloads.len() >= 2, "BENCHMARK.json gates {workloads:?}");
        printable.extend(workloads);
        let mut a = declared.clone();
        a.sort();
        printable.sort();
        assert_eq!(a, printable);
        let mut dedup = declared;
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), printable.len(), "a name is declared twice");
    }

    #[test]
    fn result_line_prints_every_declared_metric_with_its_unit() {
        let mut r = Report::new(false);
        for (i, (n, _)) in r.declared().iter().enumerate() {
            r.set(n, 1.5 + i as f64);
        }
        r.record_check(true);
        let line = r.result_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for (n, u) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\": {{\"value\": ")), "{n}");
            assert!(line.contains(&format!("\"unit\": \"{u}\"")), "{u}");
        }
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.1 + 0.2), "0.30000000000000004");
    }
}
