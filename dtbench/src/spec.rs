//! The benchmark's contract and sizes. Metric names, units, directions
//! and bounds are read from the root `BENCHMARK.json` compiled in here,
//! so the file the driver reads and the names this program emits cannot
//! drift apart.

use std::time::Instant;

use crate::json::{quote, Json};
use crate::stats::{peak_rss_mb, Samples};
use crate::trace::Tracer;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 5] = [
    "batch_text",
    "batch_er",
    "serve_read",
    "serve_ingest",
    "restart",
];
pub const DEFAULT_SEED: u64 = 0xDA7A;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .expect("metric list present")
                .items()
                .iter()
                .map(|m| MetricSpec {
                    name: m
                        .get("name")
                        .and_then(Json::str)
                        .expect("metric name")
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Json::str)
                        .expect("metric unit")
                        .to_string(),
                    lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                    bound: m.get("bound").and_then(Json::num),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::num)
                .expect("run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Input sizes of every workload. Fixed per sizing: a seed changes the
/// content, never the amount.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// Rows drawn from each of the 20 FTABLES sources (both batch workloads).
    pub rows_per_source: usize,
    /// `batch_text`: web-text fragments, padding sentences, background mentions.
    pub text: (usize, usize, usize),
    /// `batch_er`: the same three.
    pub er: (usize, usize, usize),
    /// Entities seeded by `serve_read`, by `serve_ingest` and `restart`.
    pub read_entities: usize,
    pub ingest_entities: usize,
    /// Near-duplicate spellings per seeded entity.
    pub spellings: usize,
    /// Records per delta batch.
    pub delta_records: usize,
    /// Delta batches in the log a restart replays.
    pub restart_deltas: usize,
    /// Closed-loop clients of `serve_read`.
    pub clients: usize,
    /// Open-loop read rate beside the writer of `serve_ingest`, per second.
    pub open_loop_rate: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Fewest timed operations a run takes, however short `--seconds` is.
    pub min_ops: usize,
}

impl Sizing {
    pub fn full() -> Sizing {
        Sizing {
            rows_per_source: 28,
            text: (1200, 24, 9),
            er: (300, 2, 3),
            read_entities: 8000,
            ingest_entities: 4000,
            spellings: 3,
            delta_records: 32,
            restart_deltas: 48,
            clients: 2,
            open_loop_rate: 250.0,
            setups: 3,
            min_ops: 3,
        }
    }

    /// Every code path in well under a second, for the unit tests.
    pub fn smoke() -> Sizing {
        Sizing {
            rows_per_source: 4,
            text: (20, 1, 2),
            er: (20, 1, 2),
            read_entities: 60,
            ingest_entities: 60,
            spellings: 2,
            delta_records: 8,
            restart_deltas: 3,
            clients: 2,
            open_loop_rate: 500.0,
            setups: 1,
            min_ops: 2,
        }
    }
}

/// The set-up a workload measures on and how long it took; `None` (with
/// the failure on the record) if it failed.
pub fn first_set_up<T>(
    out: &mut Outcome,
    set_up: &impl Fn(usize) -> Result<T, String>,
) -> Option<(T, f64)> {
    let begin = Instant::now();
    match set_up(0) {
        Ok(built) => Some((built, begin.elapsed().as_secs_f64())),
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("set-up: {e}"));
            None
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Timed samples behind the value (0 for counts and ratios).
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Fingerprints, tails and other lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.get(name).is_none(), "metric {name} emitted twice");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// The median of the spans called `span`, as metric `metric`.
    pub fn set_median_of(&mut self, tracer: &Tracer, span: &str, metric: &str) -> Samples {
        let d = tracer.durations_ms(span);
        self.set(metric, d.median(), d.len());
        d
    }

    /// Close an end-to-end run with the four metrics, in the order
    /// `BENCHMARK.json` lists them. Peak memory is read first; only then
    /// is the measured set-up torn down and the set-up repeated for the
    /// median of `setup_s` — repeats before the timed section left the
    /// allocator in one of two states and `peak_rss_mb` 131 or 149 MiB on
    /// the same inputs, where a single set-up gives 91 ± 2.
    pub fn finish_end_to_end<T>(
        &mut self,
        sizing: &Sizing,
        (built, first_setup_s): (T, f64),
        set_up: &impl Fn(usize) -> Result<T, String>,
        tear_down: impl Fn(T),
        latency_ms: &Samples,
        throughput_per_s: f64,
    ) {
        let peak_rss_mb = peak_rss_mb();
        tear_down(built);
        let mut setups = vec![first_setup_s];
        for round in 1..sizing.setups {
            if let Some((again, seconds)) = first_set_up(self, &|_| set_up(round)) {
                setups.push(seconds);
                tear_down(again);
            }
        }
        let setups = Samples::new(setups);
        self.set("setup_s", setups.median(), setups.len());
        self.set("latency_ms_p50", latency_ms.median(), latency_ms.len());
        self.set("throughput_per_s", throughput_per_s, latency_ms.len());
        self.set("peak_rss_mb", peak_rss_mb, 0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// One failed operation, with the reason on the record.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// The result object the driver reads: every metric of `listed`, in
    /// order. A per-layer metric this workload does not exercise reads 0;
    /// an end-to-end metric must have been measured.
    pub fn result_json(&self, listed: &[MetricSpec], all_required: bool) -> String {
        let metrics: Vec<String> = listed
            .iter()
            .map(|spec| {
                let value = match self.get(&spec.name) {
                    Some(v) => v,
                    None if all_required => {
                        panic!("end-to-end metric {} was not measured", spec.name)
                    }
                    None => 0.0,
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(&spec.name),
                    quote(&spec.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", "),
        )
    }

    /// Human-readable report: notes, then every measured metric.
    pub fn report(&self, listed: &[MetricSpec]) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("  # {note}\n"));
        }
        for m in &self.metrics {
            let unit = listed
                .iter()
                .find(|s| s.name == m.name)
                .map_or("", |s| s.unit.as_str());
            let n = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<34} {:>14.4} {}{}\n",
                m.name, m.value, unit, n
            ));
        }
        out
    }
}
