//! The `store_query` workload: no simulation, only the results store's
//! read path. Set-up appends a seeded ~20k-row store through
//! `append_cell`; each measured pass reopens it and runs a fixed, seeded
//! mix of `get`, `filter`, `filter_num`, `group_mean` and `fit`, checking
//! every answer against what the benchmark computes from the rows it
//! generated.

use crate::inputs::{query_mix, store_cells, QueryOp, StoreCell};
use crate::layers::{set_track, Ledger};
use crate::report::{median, repeated, set_pass_metrics, warm, Checks, Metrics, Outcome};
use crate::Scratch;
use amrproxy::{run_campaign_serial, CastroSedovConfig, Engine, ResultsStore, RunSummary};
use serde::Serialize;
use serde_json::Value;
use std::time::{Duration, Instant};

/// Set-ups per run (each builds the whole store; the median is
/// reported).
const SETUPS: usize = 3;

/// A query's answer, comparable across the store and the benchmark's
/// own computation.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// Rows of one cell.
    Rows(Vec<RunSummary>),
    /// Run names of the rows a filter kept, in log order.
    Names(Vec<String>),
    /// `(group, mean)` in first-seen order.
    Groups(Vec<(String, f64)>),
    /// `(slope, intercept)`.
    Fit(f64, f64),
}

/// Runs `op` against the store.
pub fn execute(store: &ResultsStore, op: &QueryOp) -> Answer {
    match op {
        QueryOp::Get(key) => Answer::Rows(store.get(key)),
        QueryOp::Filter(column, value) => {
            Answer::Names(store.query().filter(column, value).strings("name"))
        }
        QueryOp::FilterNum(column, min) => Answer::Names(
            store
                .query()
                .filter_num(column, |x| x >= *min)
                .strings("name"),
        ),
        QueryOp::GroupMean(key, value) => Answer::Groups(store.query().group_mean(key, value)),
        QueryOp::Fit(x, y) => {
            let fit = store.query().fit(x, y);
            Answer::Fit(fit.slope, fit.intercept)
        }
    }
}

fn render(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

fn name_of(row: &Value) -> String {
    row.get("name")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// The answer to an aggregate `op` computed directly from `rows` (the
/// generated summaries as JSON, in append order). `Get` is answered by
/// the caller, which knows the cells.
pub fn expected(rows: &[Value], op: &QueryOp) -> Answer {
    match op {
        QueryOp::Get(_) => unreachable!("point reads are answered from the generated cells"),
        QueryOp::Filter(column, value) => Answer::Names(
            rows.iter()
                .filter(|r| r.get(column).is_some_and(|v| render(v) == *value))
                .map(name_of)
                .collect(),
        ),
        QueryOp::FilterNum(column, min) => Answer::Names(
            rows.iter()
                .filter(|r| {
                    r.get(column)
                        .and_then(Value::as_f64)
                        .is_some_and(|x| x >= *min)
                })
                .map(name_of)
                .collect(),
        ),
        QueryOp::GroupMean(key, value) => {
            let mut groups: Vec<(String, f64, usize)> = Vec::new();
            for r in rows {
                let (Some(k), Some(v)) = (r.get(key), r.get(value).and_then(Value::as_f64)) else {
                    continue;
                };
                let k = render(k);
                match groups.iter_mut().find(|(g, _, _)| *g == k) {
                    Some((_, sum, n)) => {
                        *sum += v;
                        *n += 1;
                    }
                    None => groups.push((k, v, 1)),
                }
            }
            Answer::Groups(
                groups
                    .into_iter()
                    .map(|(k, s, n)| (k, s / n as f64))
                    .collect(),
            )
        }
        QueryOp::Fit(x, y) => {
            let (xs, ys): (Vec<f64>, Vec<f64>) = rows
                .iter()
                .filter_map(|r| Some((r.get(x)?.as_f64()?, r.get(y)?.as_f64()?)))
                .unzip();
            let fit = model::linear_fit(&xs, &ys);
            Answer::Fit(fit.slope, fit.intercept)
        }
    }
}

/// True when `op` can be answered on `rows` (a fit needs two distinct x).
pub fn answerable(rows: &[Value], op: &QueryOp) -> bool {
    match op {
        QueryOp::Fit(x, y) => {
            let xs: Vec<f64> = rows
                .iter()
                .filter(|r| r.get(y).and_then(Value::as_f64).is_some())
                .filter_map(|r| r.get(x).and_then(Value::as_f64))
                .collect();
            xs.len() >= 2 && xs.iter().any(|&v| v != xs[0])
        }
        _ => true,
    }
}

/// The row template: one small real oracle run, so generated rows carry
/// every column a real summary does.
pub fn template() -> RunSummary {
    let cfg = CastroSedovConfig {
        name: "template".to_string(),
        engine: Engine::Oracle,
        n_cell: 32,
        max_level: 1,
        max_step: 4,
        plot_int: 2,
        nprocs: 2,
        account_only: true,
        ..Default::default()
    };
    run_campaign_serial(&[cfg]).remove(0)
}

/// Builds the workload's store in `dir`; returns the generated cells and
/// the seconds spent in `append_cell`.
fn build_store(
    seed: u64,
    dir: &std::path::Path,
    ledger: Option<&Ledger>,
) -> std::io::Result<(Vec<StoreCell>, f64)> {
    let cells = store_cells(seed, &template());
    let mut store = ResultsStore::open(dir)?;
    let mut append_s = 0.0;
    for (key, rows) in &cells {
        let t = Instant::now();
        match ledger {
            Some(l) => {
                l.timed("store.append", None, || store.append_cell(key, rows))
                    .0?
            }
            None => store.append_cell(key, rows)?,
        }
        append_s += t.elapsed().as_secs_f64();
    }
    Ok((cells, append_s))
}

/// Runs the workload for `seconds`, plus a traced pass when `trace` is
/// set.
pub fn run(seed: u64, seconds: u64, trace: bool, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let ledger = Ledger::new();
    set_track(crate::trace::MAIN_TRACK);
    let mut setups = Vec::new();
    let mut built = None;
    for k in 0..SETUPS {
        let dir = scratch.dir(&format!("store_query-setup{k}"));
        let t = Instant::now();
        let res = build_store(seed, &dir, (k + 1 == SETUPS).then_some(&ledger));
        setups.push(t.elapsed().as_secs_f64());
        match res {
            Ok(cells) if k + 1 == SETUPS => built = Some((dir, cells)),
            Ok(_) => scratch.remove(&dir),
            Err(e) => {
                out.checks.check(false, || {
                    format!("store_query: building the store failed: {e}")
                });
                scratch.remove(&dir);
            }
        }
    }
    let Some((dir, (cells, append_s))) = built else {
        out.end_to_end.set("setup_s", median(&setups));
        return out;
    };
    let rows: Vec<RunSummary> = cells.iter().flat_map(|(_, r)| r.iter().cloned()).collect();
    let log_bytes = std::fs::metadata(dir.join("runs.jsonl")).map_or(0, |md| md.len());
    let m = &mut out.per_layer;
    m.set("store.append_s", append_s);
    m.set("store.append_rows", rows.len() as f64);
    m.set("store.log_bytes", log_bytes as f64);
    m.set(
        "store.bytes_per_row",
        log_bytes as f64 / rows.len().max(1) as f64,
    );
    out.simulated = vec![
        ("store_rows", rows.len() as f64),
        ("store_cells", cells.len() as f64),
    ];

    let values: Vec<Value> = rows.iter().map(Serialize::to_value).collect();
    let mix = query_mix(seed, &cells);
    let answers: Vec<Option<Answer>> = mix
        .iter()
        .map(|op| match op {
            QueryOp::Get(key) => cells
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, r)| Answer::Rows(r.clone())),
            op => answerable(&values, op).then(|| expected(&values, op)),
        })
        .collect();
    drop(values);

    let (mut walls, mut opens, mut lat) = (vec![], vec![], vec![]);
    let window = Instant::now();
    while walls.is_empty() || window.elapsed() < Duration::from_secs(seconds) {
        let mut pass_lat = Vec::with_capacity(mix.len());
        let (wall, open) = query_pass(&dir, &mix, &answers, None, &mut pass_lat, &mut out.checks);
        walls.push(wall);
        opens.push(open);
        lat.push(pass_lat);
    }
    out.passes = walls.len();
    let items = vec![mix.len() as f64; walls.len()];
    out.query_samples =
        set_pass_metrics(&mut out.end_to_end, &setups, &walls, &items, &opens, &lat);

    if trace {
        let mut traced_lat = Vec::new();
        let (wall, _) = query_pass(
            &dir,
            &mix,
            &answers,
            Some((&ledger, &mut out.per_layer)),
            &mut traced_lat,
            &mut out.checks,
        );
        out.per_layer
            .set("trace.overhead_s", wall - median(warm(&walls)));
        out.spans = ledger.spans();
    }
    scratch.remove(&dir);
    out
}

/// One pass: reopen, then the mix. Returns `(pass wall, open seconds)`;
/// pushes each query's latency onto `lat`. With a ledger, every call is
/// a span and the per-kind seconds land in `m`.
fn query_pass(
    dir: &std::path::Path,
    mix: &[QueryOp],
    answers: &[Option<Answer>],
    mut traced: Option<(&Ledger, &mut Metrics)>,
    lat: &mut Vec<f64>,
    checks: &mut Checks,
) -> (f64, f64) {
    let pass = Instant::now();
    let store = match &traced {
        Some((ledger, _)) => {
            ledger
                .timed("store.open", None, || ResultsStore::open(dir))
                .0
        }
        None => ResultsStore::open(dir),
    };
    let open = pass.elapsed().as_secs_f64();
    let store = match store {
        Ok(s) => s,
        Err(e) => {
            checks.check(false, || format!("store_query: reopen failed: {e}"));
            return (pass.elapsed().as_secs_f64(), open);
        }
    };
    let mut per_kind: Vec<(&'static str, f64)> = Vec::new();
    for (op, want) in mix.iter().zip(answers) {
        let Some(want) = want else {
            continue;
        };
        let call = || match &traced {
            Some((ledger, _)) => ledger.timed(op.layer().0, None, || execute(&store, op)).0,
            None => execute(&store, op),
        };
        // A point read takes microseconds, so right after an aggregate has
        // churned the caches one cold call would set its sample: it is
        // timed like the campaigns' read-back, as the median of repeats.
        let (got, s) = match op {
            QueryOp::Get(_) => repeated(call),
            _ => {
                let t = Instant::now();
                let got = call();
                (got, t.elapsed().as_secs_f64())
            }
        };
        lat.push(s);
        let metric = op.layer().1;
        match per_kind.iter_mut().find(|(k, _)| *k == metric) {
            Some(slot) => slot.1 += s,
            None => per_kind.push((metric, s)),
        }
        checks.check(got == *want, || {
            format!("store_query: {op:?} answered differently")
        });
    }
    let wall = pass.elapsed().as_secs_f64();
    if let Some((_, m)) = traced.as_mut() {
        m.set("store.open_s", open);
        m.set("store.open_rows", store.len() as f64);
        for (metric, s) in per_kind {
            m.set(metric, s);
        }
    }
    (wall, open)
}
