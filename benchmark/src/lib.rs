//! Outside-in benchmark of the AMR proxy I/O workspace: the paper's
//! Table III campaign, a spec I/O matrix, machine-room fleets and
//! results-store queries, each timed end to end, plus a traced pass
//! that splits host time across the layers through public seams only.
//! See `README.md` beside this crate for each workload's rationale and
//! the layer-to-metric map.

pub mod campaign;
pub mod inputs;
pub mod layers;
pub mod machine_room;
pub mod report;
pub mod rng;
pub mod store_query;
pub mod trace;

use amrproxy::{ResultsStore, RunResult, RunSummary};
use layers::Ledger;
use report::{Checks, Metrics, Outcome};
use std::path::{Path, PathBuf};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["table3", "spec_io", "machine_room", "store_query"];

/// Runs one workload.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    scratch: &Scratch,
) -> Outcome {
    match workload {
        "table3" | "spec_io" => campaign::run(workload, seed, seconds, trace, scratch),
        "machine_room" => machine_room::run(seed, seconds, trace, scratch),
        "store_query" => store_query::run(seed, seconds, trace, scratch),
        other => panic!("unknown workload '{other}'"),
    }
}

/// The simulated-output columns a `RunResult` carries, bit for bit: what
/// a traced run must reproduce of its plain twin's summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Columns {
    /// Simulated wall seconds, as bits.
    pub wall_time_bits: u64,
    /// Tracker bytes (backend- and codec-invariant).
    pub total_bytes: u64,
    /// Bytes shipped to storage.
    pub physical_bytes: u64,
    /// Payload bytes through the backend.
    pub logical_bytes: u64,
    /// Files the backend created.
    pub physical_files: u64,
    /// Logical output records.
    pub total_files: u64,
}

impl Columns {
    /// The columns of a finished run.
    pub fn of_result(r: &RunResult) -> Self {
        Self {
            wall_time_bits: r.wall_time.to_bits(),
            total_bytes: r.xy_series().final_bytes() as u64,
            physical_bytes: r.physical_bytes,
            logical_bytes: r.logical_bytes,
            physical_files: r.files_written,
            total_files: r.tracker.total_files(),
        }
    }

    /// The same columns of a stored summary.
    pub fn of_summary(s: &RunSummary) -> Self {
        Self {
            wall_time_bits: s.wall_time.to_bits(),
            total_bytes: s.total_bytes,
            physical_bytes: s.physical_bytes,
            logical_bytes: s.logical_bytes,
            physical_files: s.physical_files,
            total_files: s.total_files,
        }
    }
}

/// Per-run scratch space inside the benchmark's `out/` directory: every
/// pass's store lives in its own subdirectory, removed when the pass
/// ends; the whole tree goes when the run ends.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// A fresh scratch tree under `out`.
    pub fn new(out: &Path) -> std::io::Result<Self> {
        let root = out.join(format!("tmp-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// An empty directory path `name` inside the tree.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        self.remove(&dir);
        dir
    }

    /// Removes a directory made by [`Scratch::dir`].
    pub fn remove(&self, dir: &Path) {
        if dir.exists() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Fills the engine, snapshot, Vfs and driver metrics from `ledger`.
/// `run_s` is the summed host time of the wrapped runs; what the layers
/// do not account for is the driver's own time (plotfile formatting,
/// encode/put, burst scheduling).
pub fn set_layer_metrics(m: &mut Metrics, ledger: &Ledger, run_s: f64, logical_bytes: u64) {
    let amr = &ledger.amr_advance;
    m.set("hydro.amr_advance_s", amr.seconds());
    m.set("hydro.amr_steps", amr.calls() as f64);
    m.set("hydro.cell_updates", amr.amount() as f64);
    if amr.seconds() > 0.0 {
        m.set(
            "hydro.cell_updates_per_s",
            amr.amount() as f64 / amr.seconds(),
        );
    }
    m.set("hydro.oracle_advance_s", ledger.oracle_advance.seconds());
    m.set("hydro.oracle_steps", ledger.oracle_advance.calls() as f64);
    m.set("plotfile.snapshot_calls", ledger.snapshot.calls() as f64);
    m.set("plotfile.snapshot_s", ledger.snapshot.seconds());
    m.set("iosim.vfs_write_calls", ledger.vfs_write.calls() as f64);
    m.set("iosim.vfs_write_bytes", ledger.vfs_write.amount() as f64);
    m.set("iosim.vfs_write_s", ledger.vfs_write.seconds());
    m.set("iosim.vfs_read_calls", ledger.vfs_read.calls() as f64);
    m.set("iosim.vfs_read_s", ledger.vfs_read.seconds());
    let layers = amr.seconds()
        + ledger.oracle_advance.seconds()
        + ledger.snapshot.seconds()
        + ledger.vfs_write.seconds()
        + ledger.vfs_read.seconds();
    let self_s = run_s - layers;
    m.set("driver.self_s", self_s);
    if self_s > 0.0 {
        m.set(
            "driver.logical_mb_per_s",
            logical_bytes as f64 / 1e6 / self_s,
        );
    }
}

/// Times one `filter`, `group_mean` and `fit` on a reopened campaign
/// store and checks each against the same aggregate computed from
/// `rows` (the report's summaries, in log order).
pub fn aggregate_probe(
    store: &ResultsStore,
    rows: &[RunSummary],
    ledger: &Ledger,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    use inputs::QueryOp;
    use serde::Serialize;
    let values: Vec<serde_json::Value> = rows.iter().map(Serialize::to_value).collect();
    let backend = rows.first().map(|s| s.backend.clone()).unwrap_or_default();
    let probes = [
        QueryOp::Filter("backend", backend),
        QueryOp::GroupMean("backend", "wall_time"),
        QueryOp::Fit("physical_bytes", "wall_time"),
    ];
    for op in probes {
        if !store_query::answerable(&values, &op) {
            continue;
        }
        let (span, metric) = op.layer();
        let (got, s) = ledger.timed(span, None, || store_query::execute(store, &op));
        m.set(metric, s);
        checks.check(got == store_query::expected(&values, &op), || {
            format!("{op:?} answered differently")
        });
    }
}

/// Reads every key back [`report::REPEATS`] times; returns the last
/// round's rows and each key's median read seconds (one latency sample
/// per key).
pub fn read_back(store: &ResultsStore, keys: &[&str]) -> (Vec<Vec<RunSummary>>, Vec<f64>) {
    let mut secs = vec![Vec::with_capacity(report::REPEATS); keys.len()];
    let mut rows = Vec::new();
    for _ in 0..report::REPEATS {
        rows = keys
            .iter()
            .zip(&mut secs)
            .map(|(key, s)| {
                let t = std::time::Instant::now();
                let got = store.get(key);
                s.push(t.elapsed().as_secs_f64());
                got
            })
            .collect();
    }
    (rows, secs.iter().map(|s| report::median(s)).collect())
}

/// Everything a run writes lands under `out/` beside this crate.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the run's artifacts: `<workload>-seed<n>-trace<t>.json`
/// (provenance, host metrics, simulated outputs, checks) and, for a
/// traced run, `<workload>-seed<n>.trace.json` (Chrome trace events).
pub fn write_artifacts(
    out: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    outcome: &Outcome,
) -> std::io::Result<()> {
    use serde_json::{json, Value};
    let provenance = report::provenance(workload, seed, seconds, trace);
    let simulated = Value::Object(
        outcome
            .simulated
            .iter()
            .map(|(k, v)| (k.to_string(), json!(*v)))
            .collect(),
    );
    let doc = json!({
        "provenance": provenance.clone(),
        "host": {
            "passes": outcome.passes,
            "query_samples": outcome.query_samples,
            "peak_rss_mb": report::peak_rss_mb(),
            "end_to_end": outcome.end_to_end.render(report::END_TO_END),
            "per_layer": if trace { outcome.per_layer.render(report::PER_LAYER) } else { Value::Null }
        },
        "simulated": simulated,
        "checks": {
            "attempted": outcome.checks.attempted,
            "failed": outcome.checks.failed,
            "error_rate": outcome.checks.error_rate(),
            "failures": outcome.checks.failures.clone()
        }
    });
    std::fs::create_dir_all(out)?;
    let stem = format!("{workload}-seed{seed}");
    let text = serde_json::to_string_pretty(&doc).map_err(std::io::Error::other)?;
    std::fs::write(
        out.join(format!("{stem}-trace{}.json", u8::from(trace))),
        text,
    )?;
    if trace {
        let chrome = trace::chrome_trace(workload, &outcome.spans, &provenance);
        let text = serde_json::to_string(&chrome).map_err(std::io::Error::other)?;
        std::fs::write(out.join(format!("{stem}.trace.json")), text)?;
    }
    Ok(())
}
