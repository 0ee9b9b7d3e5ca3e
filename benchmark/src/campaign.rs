//! The two spec-campaign workloads, `table3` and `spec_io`: a compiled
//! spec executed by `run_spec` on a fresh store per pass, then reopened
//! and read back. The traced pass re-runs pass 0's cells through the
//! layer wrappers on the same static-chunk pool and times the store's
//! write and read sides with direct calls.

use crate::inputs::{spec_io_toml, table3_configs};
use crate::layers::{run_traced, set_track, Ledger, TimedVfs};
use crate::report::{nproc, repeated, set_pass_metrics, Checks, Metrics, Outcome};
use crate::{read_back, Columns, Scratch};
use amrproxy::{run_spec, ExperimentSpec, ResultsStore, RunSummary, SpecCell};
use iosim::{MemFs, StorageAttach, StorageModel};
use rayon::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The spec pass `pass` of `workload` runs.
pub fn spec_for(workload: &str, seed: u64, pass: u64) -> ExperimentSpec {
    match workload {
        "table3" => ExperimentSpec::over("table3", &table3_configs(seed, pass)),
        "spec_io" => ExperimentSpec::from_toml(&spec_io_toml(seed)).expect("spec_io TOML parses"),
        other => panic!("not a spec-campaign workload: {other}"),
    }
}

/// Splits spec-ordered summaries into per-cell row slices.
fn per_cell<'a>(cells: &[SpecCell], summaries: &'a [RunSummary]) -> Option<Vec<&'a [RunSummary]>> {
    let mut out = Vec::with_capacity(cells.len());
    let mut at = 0usize;
    for cell in cells {
        let rows = summaries.get(at..at + cell.tenants)?;
        out.push(rows);
        at += cell.tenants;
    }
    (at == summaries.len()).then_some(out)
}

/// Cells whose position in `runs.jsonl` (first appearance of their key)
/// differs from their position in spec order.
pub fn out_of_order_cells(dir: &Path, cells: &[SpecCell]) -> usize {
    let text = std::fs::read_to_string(dir.join("runs.jsonl")).unwrap_or_default();
    let mut seen: Vec<String> = Vec::new();
    for line in text.lines() {
        let Ok(record) = serde_json::from_str::<serde_json::Value>(line) else {
            continue;
        };
        let Some(key) = record.get("cell").and_then(|v| v.as_str()) else {
            continue;
        };
        if seen.last().map(String::as_str) != Some(key) {
            seen.push(key.to_string());
        }
    }
    cells
        .iter()
        .enumerate()
        .filter(|(i, c)| seen.get(*i).map(String::as_str) != Some(c.key.as_str()))
        .count()
}

/// Pass 0, kept for the traced pass.
struct Reference {
    spec: ExperimentSpec,
    cells: Vec<SpecCell>,
    summaries: Vec<RunSummary>,
    wall: f64,
    out_of_order: usize,
}

/// Runs `workload` (`table3` or `spec_io`) for `seconds`, plus a traced
/// pass when `trace` is set.
pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool, scratch: &Scratch) -> Outcome {
    let storage = StorageModel::summit_alpine(1.0);
    let mut out = Outcome::default();
    let checks = &mut out.checks;
    let (mut setups, mut walls, mut items, mut opens, mut reads) =
        (vec![], vec![], vec![], vec![], vec![]);
    // Summaries by run name from the first pass: every later pass (in
    // table3, a different order) must reproduce them exactly.
    let mut first: HashMap<String, RunSummary> = HashMap::new();
    let mut reference: Option<Reference> = None;
    let window = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || window.elapsed() < Duration::from_secs(seconds) {
        let t = Instant::now();
        let spec = spec_for(workload, seed, pass);
        let cells = spec.compile().expect("benchmark specs compile");
        let dir = scratch.dir(&format!("{workload}-{pass}"));
        let mut store = ResultsStore::open(&dir).expect("open a fresh store");
        setups.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let report = run_spec(&spec, &mut store, Some(&storage));
        let wall = t.elapsed().as_secs_f64();
        drop(store);
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                checks.check(false, || {
                    format!("{workload} pass {pass}: run_spec failed: {e}")
                });
                scratch.remove(&dir);
                pass += 1;
                continue;
            }
        };
        walls.push(wall);
        items.push(cells.len() as f64);
        checks.check(
            report.executed == cells.len() && report.resumed == 0,
            || {
                format!(
                    "{workload} pass {pass}: executed {} resumed {} of {} cells on a fresh store",
                    report.executed,
                    report.resumed,
                    cells.len()
                )
            },
        );
        for s in &report.summaries {
            match first.get(&s.name) {
                Some(f) => checks.check(f == s, || {
                    format!("{workload}: run {} differs between passes", s.name)
                }),
                None => {
                    first.insert(s.name.clone(), s.clone());
                }
            }
        }

        let (reopened, open_s) = repeated(|| ResultsStore::open(&dir));
        opens.push(open_s);
        match (reopened, per_cell(&cells, &report.summaries)) {
            (Ok(store), Some(slices)) => {
                let keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
                let (got, secs) = read_back(&store, &keys);
                reads.push(secs);
                for ((cell, rows), got) in cells.iter().zip(slices).zip(got) {
                    checks.check(got == rows, || {
                        format!(
                            "{workload}: reopened store disagrees with the report on {}",
                            cell.config.name
                        )
                    });
                }
            }
            _ => checks.check(false, || {
                format!("{workload} pass {pass}: reopen or row split failed")
            }),
        }
        let out_of_order = out_of_order_cells(&dir, &cells);
        scratch.remove(&dir);
        if reference.is_none() {
            reference = Some(Reference {
                spec,
                cells,
                summaries: report.summaries,
                wall,
                out_of_order,
            });
        }
        pass += 1;
    }
    out.passes = pass as usize;

    out.query_samples =
        set_pass_metrics(&mut out.end_to_end, &setups, &walls, &items, &opens, &reads);

    if let Some(r) = &mut reference {
        out.simulated = vec![
            (
                "simulated_wall_s_sum",
                r.summaries.iter().map(|s| s.wall_time).sum(),
            ),
            (
                "physical_bytes_sum",
                r.summaries.iter().map(|s| s.physical_bytes as f64).sum(),
            ),
            (
                "logical_bytes_sum",
                r.summaries.iter().map(|s| s.logical_bytes as f64).sum(),
            ),
        ];
        if trace {
            // Pass 0 again, untraced and right before the traced pass, so
            // the tracing overhead compares two warm runs of one order.
            let dir = scratch.dir(&format!("{workload}-rerun"));
            if let Ok(mut store) = ResultsStore::open(&dir) {
                let t = Instant::now();
                let rerun = run_spec(&r.spec, &mut store, Some(&storage));
                r.wall = t.elapsed().as_secs_f64();
                out.checks
                    .check(rerun.is_ok_and(|rep| rep.summaries == r.summaries), || {
                        format!("{workload}: re-running pass 0 changed its summaries")
                    });
            }
            scratch.remove(&dir);
            let ledger = Ledger::new();
            traced_pass(
                workload,
                r,
                &storage,
                &ledger,
                scratch,
                &mut out.per_layer,
                &mut out.checks,
            );
            out.spans = ledger.spans();
        }
    }
    out
}

/// Pass 0 again, through the layer wrappers and direct store calls.
fn traced_pass(
    workload: &str,
    r: &Reference,
    storage: &StorageModel,
    ledger: &Ledger,
    scratch: &Scratch,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    set_track(crate::trace::MAIN_TRACK);
    let (compiled, compile_s) = ledger.timed("spec.compile", None, || r.spec.compile());
    m.set("spec.compile_s", compile_s);
    m.set("spec.cells", compiled.map_or(0, |c| c.len()) as f64);

    // Cells in spec order on the same pool `run_spec` fans out to.
    let t = Instant::now();
    let traced: Vec<(Result<Columns, String>, f64)> = r
        .cells
        .par_iter()
        .map(|cell| {
            let start = ledger.now_ns();
            let fs = TimedVfs::new(MemFs::with_retention(0), ledger);
            let model = cell.storage.map_or(*storage, |p| p.build());
            let result = run_traced(&cell.config, ledger, &fs, StorageAttach::Model(&model))
                .map(|res| Columns::of_result(&res))
                .map_err(|e| e.to_string());
            let dur = ledger.span("pool.cell", Some(cell.config.name.clone()), start);
            (result, dur as f64 * 1e-9)
        })
        .collect();
    let traced_wall = t.elapsed().as_secs_f64();

    let mut logical_bytes = 0u64;
    let slices = per_cell(&r.cells, &r.summaries).unwrap_or_default();
    for ((cell, rows), (cols, _)) in r.cells.iter().zip(&slices).zip(&traced) {
        match cols {
            Ok(cols) => {
                logical_bytes += cols.logical_bytes;
                checks.check(
                    rows.len() == 1 && Columns::of_summary(&rows[0]) == *cols,
                    || {
                        format!(
                            "{workload}: traced run of {} differs from its summary",
                            cell.config.name
                        )
                    },
                );
            }
            Err(e) => checks.check(false, || {
                format!("{workload}: traced {} failed: {e}", cell.config.name)
            }),
        }
    }
    let cell_s: Vec<f64> = traced.iter().map(|(_, s)| *s).collect();
    let cell_s_sum: f64 = cell_s.iter().sum();
    m.set("pool.cell_s_sum", cell_s_sum);
    m.set(
        "pool.critical_path_s",
        cell_s.iter().copied().fold(0.0, f64::max),
    );
    m.set("pool.utilization", cell_s_sum / (r.wall * nproc() as f64));
    crate::set_layer_metrics(m, ledger, cell_s_sum, logical_bytes);
    m.set("trace.overhead_s", traced_wall - r.wall);
    m.set("store.log_out_of_order_cells", r.out_of_order as f64);

    // Store write side: the report's rows, cell by cell, on a fresh log.
    let dir = scratch.dir(&format!("{workload}-traced"));
    let mut append_s = 0.0;
    let mut rows = 0usize;
    if let Ok(mut store) = ResultsStore::open(&dir) {
        for (cell, cell_rows) in r.cells.iter().zip(&slices) {
            let (res, s) = ledger.timed("store.append", None, || {
                store.append_cell(&cell.key, cell_rows)
            });
            checks.check(res.is_ok(), || {
                format!("{workload}: append_cell failed on {}", cell.config.name)
            });
            append_s += s;
            rows += cell_rows.len();
        }
    }
    let log_bytes = std::fs::metadata(dir.join("runs.jsonl")).map_or(0, |md| md.len());
    m.set("store.append_s", append_s);
    m.set("store.append_rows", rows as f64);
    m.set("store.log_bytes", log_bytes as f64);
    m.set("store.bytes_per_row", log_bytes as f64 / rows.max(1) as f64);

    // Store read side: reopen, point reads, and one of each aggregate.
    let (store, open_s) = ledger.timed("store.open", None, || ResultsStore::open(&dir));
    m.set("store.open_s", open_s);
    if let Ok(store) = store {
        m.set("store.open_rows", store.len() as f64);
        let mut get_s = 0.0;
        for (cell, cell_rows) in r.cells.iter().zip(&slices) {
            let (got, s) = ledger.timed("store.get", None, || store.get(&cell.key));
            get_s += s;
            checks.check(got == *cell_rows, || {
                format!("{workload}: get({}) disagrees", cell.config.name)
            });
        }
        m.set("store.get_s", get_s);
        crate::aggregate_probe(&store, &r.summaries, ledger, m, checks);
    } else {
        checks.check(false, || {
            format!("{workload}: reopening the traced store failed")
        });
    }
    scratch.remove(&dir);
}
