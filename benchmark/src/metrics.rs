//! The benchmark's metric tables — the same names, units, directions and
//! bounds `BENCHMARK.json` declares (a unit test holds the two together) —
//! and the record a run reports them in.

use std::collections::BTreeMap;

/// A metric's unit and which way is better.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may worsen before it is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: 0.0 }
}

/// What a user of the system sees. Every workload reports every one; the
/// operation behind `op_*`, `aux_*` and `tuples_per_s` is the workload's own
/// (see the README's workload table).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("op_ms_p50", "ms", false, 0.25),
    e2e("aux_ms_p50", "ms", false, 0.25),
    e2e("tuples_per_s", "1/s", true, 0.25),
    e2e("msgs_per_op", "count", false, 0.05),
    e2e("stored_bytes_per_tuple", "bytes", false, 0.02),
    e2e("peak_rss_mb", "MB", false, 0.10),
];

/// Single layers (layer = crate). No bounds: they explain, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("relational.fire_ms", "ms", false),
    layer("relational.firings", "count", false),
    layer("relational.fire_delta_ms", "ms", false),
    layer("relational.apply_ms", "ms", false),
    layer("relational.query_ms_p50", "ms", false),
    layer("relational.snapshot_encode_ms", "ms", false),
    layer("relational.snapshot_decode_ms", "ms", false),
    layer("relational.snapshot_bytes", "bytes", false),
    layer("relational.ldb_tuples", "count", false),
    layer("core.callback_ms", "ms", false),
    layer("core.callbacks", "count", false),
    layer("core.callback_us_p50", "us", false),
    layer("core.callback_us_p99", "us", false),
    layer("core.self_ms_est", "ms", false),
    layer("core.data_msgs", "count", false),
    layer("core.control_msgs", "count", false),
    layer("core.firings_sent", "count", false),
    layer("core.tuples_added", "count", false),
    layer("core.dup_ratio", "ratio", true),
    layer("core.longest_path", "count", false),
    layer("core.closed_early", "count", true),
    layer("net.loop_self_ms", "ms", false),
    layer("net.events", "count", false),
    layer("net.us_per_event", "us", false),
    layer("net.sent", "count", false),
    layer("net.bytes_sent", "bytes", false),
    layer("net.timers", "count", false),
    layer("net.undeliverable", "count", false),
    layer("net.sim_ms", "sim_ms", false),
    layer("net.pool_busy_ms", "ms", false),
    layer("net.pool_idle_share", "ratio", false),
    layer("net.quiesce_tail_ms", "ms", false),
    layer("net.pool_delivered", "count", false),
    layer("net.mailbox_peak", "count", false),
    layer("net.pool_undeliverable", "count", false),
    layer("store.wal_appends", "count", false),
    layer("store.wal_bytes", "bytes", false),
    layer("store.fsyncs", "count", false),
    layer("store.fsync_ms", "ms", false),
    layer("store.group_drains", "count", false),
    layer("store.records_per_fsync", "ratio", true),
    layer("store.append_ms", "ms", false),
    layer("store.append_us", "us", false),
    layer("store.open_ms_p50", "ms", false),
    layer("store.replay_records_per_s", "1/s", true),
    layer("store.checkpoint_ms_p50", "ms", false),
    layer("store.snap_bytes", "bytes", false),
    layer("store.wal_bytes_on_disk", "bytes", false),
    layer("store.write_amp", "ratio", false),
    // The tail of the primary operation, on the product's own path. It is
    // here and not end to end because it does not hold a bound in this
    // sandbox: its run-to-run spread is 10-20% however long the run.
    layer("harness.op_ms_p90", "ms", false),
    layer("harness.op_samples", "count", true),
    // `durable_ingest`'s timings on the wall clock. They are here and not
    // end to end because they are the sandbox's disk more than the program:
    // the same commit's round took 68 ms in one hour and 87 ms in the next,
    // 74 ms alone and 115 ms beside a process that only calls fsync. End to
    // end the workload reports processor time, which stayed at 34 ms.
    layer("harness.round_wall_ms_p50", "ms", false),
    layer("harness.recovery_wall_ms_p50", "ms", false),
    layer("trace.overhead_pct", "%", false),
    layer("trace.events", "count", false),
    layer("trace.emit_ns", "ns", false),
    layer("trace.bytes_per_event", "bytes", false),
];

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose result differed from the oracle's, or that did not
    /// reach quiescence. A failed operation contributes no latency sample.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the human reader: sample counts, what the percentile rule
    /// supports, the worker count.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A metric's value (0 when the workload does not reach that layer).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints and `compare` applies. They must say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<MetricDef> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| MetricDef {
                    name: leak(m.get("name").and_then(|v| v.as_str()).expect("name")),
                    unit: leak(m.get("unit").and_then(|v| v.as_str()).expect("unit")),
                    higher_is_better: m.get("better").and_then(|v| v.as_str()) == Some("higher"),
                    bound: m.get("bound").and_then(|v| v.as_f64()).unwrap_or(0.0),
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        let specs: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, specs);
    }

    fn leak(s: &str) -> &'static str {
        Box::leak(s.to_owned().into_boxed_str())
    }
}
