//! The metric catalogue and the one-line JSON result.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: every run prints exactly the end-to-end set
//! (`--trace 0`) or exactly the per-layer set (`--trace 1`), by these
//! names and units.

/// End-to-end metrics: `(name, unit)`. Printed on every workload; what
/// "operation" and "latency" mean per workload is in the README.
/// `latency_ms` is the median over a run's rounds of each round's mean
/// latency: a workload's operations differ by input (games, tenants), so
/// a median over operations lands between input modes and moved twice as
/// much between seeds as the round means did.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by the module that forms
/// the layer. A workload that never calls into a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 30] = [
    // stochastics::bank
    ("bank.gen_ms", "ms"),
    ("bank.bytes_per_count", "B/count"),
    // stochastics::snapshot + audit_game::persist
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "B"),
    // audit_runtime::checkpoint
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "B"),
    // audit_game::detection
    ("pal.ms", "ms"),
    ("pal.columns", "count"),
    ("pal.state_hits", "count"),
    ("pal.cache_hits", "count"),
    ("pal.cache_misses", "count"),
    // audit_game::master + lp_solver
    ("lp.ms", "ms"),
    ("lp.calls", "count"),
    ("lp.pivots", "count"),
    // inner evaluators (exact, CGGS, decomposed)
    ("inner.ms", "ms"),
    ("inner.evals", "count"),
    // audit_game::ishm
    ("ishm.self_ms", "ms"),
    ("ishm.thresholds_explored", "count"),
    ("ishm.improvements", "count"),
    // audit_runtime::service
    ("epoch.quiet_ms", "ms"),
    ("epoch.solve_ms", "ms"),
    ("epoch.resolves", "count"),
    ("epoch.drift_epochs", "count"),
    // audit_runtime::fleet
    ("fleet.wait_ms", "ms"),
    ("fleet.shared_adoptions", "count"),
    ("fleet.shared_publishes", "count"),
    // the traced run itself
    ("trace.overhead_pct", "%"),
    ("trace.replay_mismatches", "count"),
];

/// The result of one run.
pub struct Report {
    /// `false` as soon as any output failed a correctness check.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// An empty report: nothing attempted yet, nothing wrong yet.
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Record one operation's outcome: `Err` carries the failed check or
    /// error, which is reported on stderr.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            eprintln!("auditbench: operation failed: {e}");
            self.failed += 1;
            self.correct = false;
        }
    }

    /// Set a metric from either catalogue (a name outside both is a bug
    /// in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, unit, value));
    }

    /// Fill every per-layer metric not yet set with 0: the workload does
    /// not call into that layer.
    pub fn zero_untouched_layers(&mut self) {
        for (name, _) in PER_LAYER {
            if !self.metrics.iter().any(|(n, _, _)| *n == name) {
                self.set(name, 0.0);
            }
        }
    }

    /// Panic unless the metrics are exactly the catalogue the mode owes.
    pub fn assert_complete(&self, trace: bool) {
        let owed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        assert_eq!(self.metrics.len(), owed.len(), "metric count");
        for (name, _) in owed {
            assert!(
                self.metrics.iter().any(|(n, _, _)| n == name),
                "metric {name} missing"
            );
        }
    }

    /// The result line: metrics in catalogue order, values with every
    /// digit Rust's shortest round-trip formatting gives.
    pub fn to_json(&self) -> String {
        let order = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .position(|(n, _)| *n == name)
                .expect("catalogued")
        };
        let mut metrics = self.metrics.clone();
        metrics.sort_by_key(|(n, _, _)| order(n));
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
