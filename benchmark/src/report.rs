//! What a run reports: the metric tables, the output checks, the
//! simulated (model) outputs kept apart from host-time metrics, and the
//! provenance stamped on every artifact.

use serde_json::{json, Value};

/// End-to-end metrics every workload reports with `--trace 0`:
/// `(name, unit)`. `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("open_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
];

/// Per-layer metrics every workload reports with `--trace 1` (a layer
/// the workload does not run reads 0): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hydro.amr_advance_s", "s"),
    ("hydro.amr_steps", "count"),
    ("hydro.cell_updates", "count"),
    ("hydro.cell_updates_per_s", "1/s"),
    ("hydro.oracle_advance_s", "s"),
    ("hydro.oracle_steps", "count"),
    ("pool.cell_s_sum", "s"),
    ("pool.critical_path_s", "s"),
    ("pool.utilization", "ratio"),
    ("plotfile.snapshot_calls", "count"),
    ("plotfile.snapshot_s", "s"),
    ("iosim.vfs_write_calls", "count"),
    ("iosim.vfs_write_bytes", "B"),
    ("iosim.vfs_write_s", "s"),
    ("iosim.vfs_read_calls", "count"),
    ("iosim.vfs_read_s", "s"),
    ("driver.self_s", "s"),
    ("driver.logical_mb_per_s", "MB/s"),
    ("fabric.fleet_s", "s"),
    ("fabric.solo_sum_s", "s"),
    ("fabric.fleet_over_solo", "ratio"),
    ("spec.compile_s", "s"),
    ("spec.cells", "count"),
    ("store.append_s", "s"),
    ("store.append_rows", "count"),
    ("store.log_bytes", "B"),
    ("store.bytes_per_row", "B"),
    ("store.open_s", "s"),
    ("store.open_rows", "count"),
    ("store.get_s", "s"),
    ("store.filter_s", "s"),
    ("store.group_mean_s", "s"),
    ("store.fit_s", "s"),
    ("store.log_out_of_order_cells", "count"),
    ("trace.overhead_s", "s"),
];

/// Named metric values; names must come from one of the tables above.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `table`, in table
    /// order; unset entries, and values a failed run left undefined
    /// (0/0), read 0.
    pub fn render(&self, table: &[(&str, &str)]) -> Value {
        Value::Object(
            table
                .iter()
                .map(|&(name, unit)| {
                    let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                    (name.to_string(), json!({ "value": value, "unit": unit }))
                })
                .collect(),
        )
    }
}

/// Output checks: every comparison the benchmark makes against the
/// program's outputs, counted into `attempted`/`failed`.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                let msg = what();
                eprintln!("check failed: {msg}");
                self.failures.push(msg);
            }
        }
    }

    /// Failed checks over checks made (0 when nothing was checked).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host-time end-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// Model outputs (simulated seconds, slowdown, bytes) — never speed.
    pub simulated: Vec<(&'static str, f64)>,
    /// Output checks.
    pub checks: Checks,
    /// Spans of the traced pass.
    pub spans: Vec<crate::layers::Span>,
    /// Measured passes in the window.
    pub passes: usize,
    /// Read-latency samples behind `query_p50_ms` and `query_p90_ms`.
    pub query_samples: usize,
}

/// The `q`-quantile of `values` (linear interpolation; 0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Per-pass samples without the warm-up pass (pass 0 pays first-touch
/// costs — page faults, lazy statics — that later passes do not), once
/// a run has passes to spare.
pub fn warm<T>(samples: &[T]) -> &[T] {
    if samples.len() >= 3 {
        &samples[1..]
    } else {
        samples
    }
}

/// Calls per timed sample of a small store read: a few-millisecond call
/// is repeated and its median kept, so one cold-cache call cannot set
/// the sample.
pub const REPEATS: usize = 5;

/// Times `f` [`REPEATS`] times; returns its last value and the median
/// seconds.
pub fn repeated<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut secs = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let t = std::time::Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repeat"), median(&secs))
}

/// The end-to-end timing metrics shared by every workload, from
/// per-pass samples: set-up and wall seconds, items per second over the
/// warm passes, reopen seconds, and the read latency at p50 and p90
/// over every read sample of the warm passes. Returns that sample
/// count.
pub fn set_pass_metrics(
    e: &mut Metrics,
    setups: &[f64],
    walls: &[f64],
    items_per_pass: &[f64],
    opens: &[f64],
    reads: &[Vec<f64>],
) -> usize {
    e.set("setup_s", median(setups));
    e.set("wall_s", median(warm(walls)));
    let items: f64 = warm(items_per_pass).iter().sum();
    e.set("items_per_s", items / warm(walls).iter().sum::<f64>());
    e.set("open_s", median(warm(opens)));
    let samples = warm(reads).concat();
    e.set("query_p50_ms", quantile(&samples, 0.5) * 1e3);
    e.set("query_p90_ms", quantile(&samples, 0.9) * 1e3);
    samples.len()
}

/// Peak resident set of this process in MB (`VmHWM`; 0 where the
/// kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host worker threads (what the static-chunk pool fans out to).
pub fn nproc() -> usize {
    rayon::current_num_threads()
}

/// Provenance stamped on every artifact a run writes.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "profile": env!("AMRBENCH_PROFILE"),
        "rustc": env!("AMRBENCH_RUSTC"),
        "git_rev": env!("AMRBENCH_GIT_REV"),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH
    })
}
