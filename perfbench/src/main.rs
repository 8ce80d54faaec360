//! casyn's benchmark: the paper-table sweep, the single-design flow and
//! the service mix, measured end to end and layer by layer.
//!
//! ```text
//! casyn-perfbench --workload <spla-edge|tl-flows|serve-mix> [--seed N]
//!                 [--seconds S] [--trace 0|1]
//! ```
//!
//! The seed (decimal or `0x` hex) generates the workload's designs; each
//! workload's default seed reproduces the paper's stand-in exactly.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the serial traced pipeline and reports the per-layer
//! metrics, writing its spans as Chrome trace events under
//! `.bench_out/`. Every output is checked; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` and the
//! exit status is non-zero when a check failed.
//!
//! The workloads, why each was chosen and which layer metric should
//! move which end-to-end metric are recorded in `predictions.json`.

mod compose;
mod serve_mix;
mod spla;
mod stats;
mod tl;
mod trace;

use casyn_obs::json::JsonValue;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_p95_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("routed_wl_um", "um"),
    ("crit_ns", "ns"),
    ("cell_area_um2", "um2"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.gen_ms", "ms"),
    ("logic.optimize_ms", "ms"),
    ("logic.decompose_ms", "ms"),
    ("logic.base_gates", "count"),
    ("core.floorplan_map_ms", "ms"),
    ("place.global_ms", "ms"),
    ("place.alloc_mb", "MB"),
    ("place.subject_hpwl_um", "um"),
    ("place.legalize_ms", "ms"),
    ("place.legalize_displacement_um", "um"),
    ("core.map_ms", "ms"),
    ("core.alloc_mb", "MB"),
    ("core.cells", "count"),
    ("core.trees", "count"),
    ("core.duplicated_covers", "count"),
    ("route.ms", "ms"),
    ("route.iters", "count"),
    ("route.ms_per_iter", "ms"),
    ("route.rerouted_nets", "count"),
    ("route.alloc_mb", "MB"),
    ("route.cap_hits", "count"),
    ("route.violations", "count"),
    ("route.overflow", "tracks"),
    ("timing.sta_ms", "ms"),
    ("flow.glue_ms", "ms"),
    ("exec.sweep_speedup", "x"),
    ("exec.efficiency", "share"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p95", "ms"),
    ("serve.compute_ms_p95", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.hit_share", "share"),
    ("serve.prepare_hit_share", "share"),
    ("serve.rejected", "count"),
    ("serve.backlog_end", "count"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run reports.
pub struct Report {
    trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    values: Vec<f64>,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        let n = if trace { PER_LAYER.len() } else { END_TO_END.len() };
        Report { trace, attempted: 0, failed: 0, errors: Vec::new(), values: vec![0.0; n] }
    }

    fn spec(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Sets a declared metric of this run's kind.
    ///
    /// # Panics
    ///
    /// Panics on a name this run kind does not declare (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .spec()
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared for this run kind"));
        self.values[i] = value;
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    /// Records a check outcome: one attempt, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn result_json(&self) -> String {
        let metrics = self
            .spec()
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                let m = JsonValue::object(vec![
                    ("value".into(), JsonValue::Number(*v)),
                    ("unit".into(), JsonValue::Str((*unit).into())),
                ]);
                (name.to_string(), m)
            })
            .collect();
        JsonValue::object(vec![
            ("correct".into(), JsonValue::Bool(self.errors.is_empty())),
            ("attempted".into(), JsonValue::Number(self.attempted.max(1) as f64)),
            ("failed".into(), JsonValue::Number(self.failed as f64)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .to_string_compact()
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("bad --seed {s}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: None, seconds: 20.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(parse_seed(&value)?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("bad --seconds {value}: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Worker threads for every pool and server: the machine's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where traced runs write their Chrome trace files.
pub const OUT_DIR: &str = ".bench_out";

/// Writes a traced run's spans under [`OUT_DIR`].
pub fn write_trace(workload: &str, seed: u64, json: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{workload}-{seed}.json");
    std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("trace: {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("workers: {} (available parallelism)", nproc());
    // peak_heap_mb is the high-water mark of this run: set-up included
    casyn_obs::alloc::reset_peak();
    let report = match args.workload.as_str() {
        "spla-edge" => spla::run(&args),
        "tl-flows" => tl::run(&args),
        "serve-mix" => serve_mix::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?} (spla-edge, tl-flows, serve-mix)");
            return ExitCode::from(2);
        }
    };
    for ((name, unit), v) in report.spec().iter().zip(&report.values) {
        println!("{name} = {v} {unit}");
    }
    println!(
        "failed_share = {} ({} of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted.max(1)
    );
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.result_json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above and the repository's BENCHMARK.json must
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .expect("metric array")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(JsonValue::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, list.to_vec(), "{key}");
        }
    }
}
