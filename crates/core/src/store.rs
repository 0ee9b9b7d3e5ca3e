//! The append-only, queryable results store: [`ResultsStore`].
//!
//! Before this module, every campaign's [`RunSummary`] set was thrown
//! away into a one-off JSON blob under `results/` — each bench wrote its
//! own schema, nothing accumulated, and re-running a sweep re-executed
//! every cell. The store graduates `results/` to a durable substrate:
//!
//! * **Append-only JSON lines** (`runs.jsonl`): one schema-versioned
//!   record per run, `{"schema":1,"cell":"<hash>","summary":{...}}`,
//!   keyed by the [`crate::spec::SpecCell`] content hash. Appends never
//!   rewrite existing bytes; what a crash mid-append can leave behind
//!   is spelled out on [`ResultsStore::append_cell`].
//! * **A query API** ([`Query`]): filter rows by column values, project
//!   columns, group/aggregate — the summaries are queried as JSON rows,
//!   so every present *and future* `RunSummary` column is addressable
//!   without store migrations. `model` fits plug in via
//!   [`Query::xy`] / [`Query::fit`].
//! * **Resumable, parallel campaigns** ([`run_spec`]): executing an
//!   [`ExperimentSpec`] against a populated store runs only the cells
//!   whose content hash is missing; everything already persisted is
//!   served back from disk, byte-identical. Add one value to an axis
//!   and only the new cells execute. Pending cells run concurrently on
//!   the rayon pool (tenancy cells as mirrored clone groups), and a
//!   small reorder buffer commits each finished cell in spec order, so
//!   the log is byte-identical to the one [`run_spec_serial`], the
//!   sequential reference, writes.
//! * **A compat reader** ([`read_legacy_blob`]): the old single-blob
//!   artifacts (`results/backend_compare.json`,
//!   `results/machine_room.json`) load into the same [`Query`] surface,
//!   so analyses written against the store can read pre-store results.
//!
//! ```no_run
//! use amrproxy::spec::ExperimentSpec;
//! use amrproxy::store::{run_spec, ResultsStore};
//! use iosim::StorageModel;
//!
//! let spec = ExperimentSpec::load("specs/smoke.toml").unwrap();
//! let mut store = ResultsStore::open("results/store").unwrap();
//! let storage = StorageModel::ideal(4, 2.5e8);
//! let first = run_spec(&spec, &mut store, Some(&storage)).unwrap();
//! let again = run_spec(&spec, &mut store, Some(&storage)).unwrap();
//! assert_eq!(again.executed, 0, "second run is resume-only");
//! let walls = store.query().filter("backend", "fpp").numbers("wall_time");
//! assert_eq!(walls.len(), first.summaries.len() / 2);
//! ```

use crate::campaign::{
    run_campaign_fabric, run_campaign_fabric_cloned, run_campaign_serial,
    run_campaign_timed_serial, RunSummary,
};
use crate::config::CastroSedovConfig;
use crate::spec::{ExperimentSpec, SpecCell, SpecError};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Wire schema of a store record. Bump when a record's *envelope*
/// changes shape; `RunSummary` column additions ride on serde defaults
/// and do not bump it.
pub const STORE_SCHEMA: u32 = 1;

/// An append-only results store over a directory (`<dir>/runs.jsonl`).
///
/// All records stay resident in memory (a campaign is thousands of rows,
/// not millions); the file is the durable log. Opening replays the log,
/// appending writes one line and flushes.
#[derive(Debug)]
pub struct ResultsStore {
    dir: PathBuf,
    file: File,
    rows: Vec<(String, Value)>,
    /// Row indices per cell key, in append order.
    index: HashMap<String, Vec<usize>>,
    /// Bytes of `runs.jsonl` already replayed into `rows` — the
    /// [`Self::refresh`] fast path's cursor. Every append (ours or a
    /// replayed one) advances it, so a reused store object never
    /// re-reads bytes it has already ingested.
    log_len: u64,
}

/// Parses one log line into its `(cell, summary)` pair, or `None` for a
/// blank line. `at` renders the error location (`path:line` on open,
/// `path@byte` on [`ResultsStore::refresh`]).
fn parse_record(line: &str, at: impl Fn() -> String) -> std::io::Result<Option<(String, Value)>> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let record: Value = serde_json::from_str(line).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{}: {e}", at()))
    })?;
    let schema = record
        .get("schema")
        .and_then(Value::as_u64)
        .unwrap_or_default() as u32;
    if schema != STORE_SCHEMA {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: record schema {schema}, this reader speaks {STORE_SCHEMA}",
                at()
            ),
        ));
    }
    let cell = record
        .get("cell")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let summary = record.get("summary").cloned().unwrap_or(Value::Null);
    Ok(Some((cell, summary)))
}

impl ResultsStore {
    /// Opens (creating if needed) the store at `dir`, replaying any
    /// existing log. Records with an unknown schema are an error — a
    /// newer writer's store must not be silently misread.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("runs.jsonl");
        let mut rows = Vec::new();
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        let mut log_len = 0u64;
        if path.exists() {
            let mut reader = BufReader::new(File::open(&path)?);
            let mut line = String::new();
            let mut lineno = 0usize;
            loop {
                line.clear();
                let n = reader.read_line(&mut line)?;
                if n == 0 {
                    break;
                }
                log_len += n as u64;
                lineno += 1;
                let at = || format!("{}:{lineno}", path.display());
                if let Some((cell, summary)) = parse_record(&line, at)? {
                    index.entry(cell.clone()).or_default().push(rows.len());
                    rows.push((cell, summary));
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            dir,
            file,
            rows,
            index,
            log_len,
        })
    }

    /// Ingests any log bytes appended *behind this store object's back*
    /// (a second handle, another process) without re-reading the whole
    /// file: stats `runs.jsonl`, and when it grew past the bytes already
    /// replayed, parses only the tail. Returns the number of rows added
    /// — `Ok(0)` without touching file contents when nothing changed,
    /// which makes reopening-by-refresh O(1) instead of O(log).
    pub fn refresh(&mut self) -> std::io::Result<usize> {
        let path = self.dir.join("runs.jsonl");
        let size = std::fs::metadata(&path)?.len();
        if size == self.log_len {
            return Ok(0);
        }
        if size < self.log_len {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: log shrank ({} bytes, {} already replayed) — appends never rewrite",
                    path.display(),
                    size,
                    self.log_len
                ),
            ));
        }
        let mut f = File::open(&path)?;
        f.seek(SeekFrom::Start(self.log_len))?;
        let mut reader = BufReader::new(f);
        let mut line = String::new();
        let mut added = 0usize;
        loop {
            line.clear();
            let n = reader.read_line(&mut line)?;
            if n == 0 {
                break;
            }
            let offset = self.log_len;
            self.log_len += n as u64;
            let at = || format!("{}@{offset}", path.display());
            if let Some((cell, summary)) = parse_record(&line, at)? {
                self.index
                    .entry(cell.clone())
                    .or_default()
                    .push(self.rows.len());
                self.rows.push((cell, summary));
                added += 1;
            }
        }
        Ok(added)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of persisted run records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when at least one record is persisted under `cell` — the
    /// resume predicate.
    pub fn contains(&self, cell: &str) -> bool {
        self.index.contains_key(cell)
    }

    /// Appends one summary under a cell key: one JSON line, flushed.
    pub fn append(&mut self, cell: &str, summary: &RunSummary) -> std::io::Result<()> {
        self.append_row(cell, &summary.to_value())
    }

    /// Appends one arbitrary JSON row under a cell key — the path bench
    /// artifacts (non-`RunSummary` tables) persist through; [`Self::append`]
    /// is the typed wrapper campaigns use.
    pub fn append_row(&mut self, cell: &str, row: &Value) -> std::io::Result<()> {
        let mut batch = String::new();
        Self::encode_record(&mut batch, cell, row)?;
        self.file.write_all(batch.as_bytes())?;
        self.file.flush()?;
        self.log_len += batch.len() as u64;
        self.index
            .entry(cell.to_string())
            .or_default()
            .push(self.rows.len());
        self.rows.push((cell.to_string(), row.clone()));
        Ok(())
    }

    /// Appends a fully-executed cell's summaries as one batch: every
    /// record is encoded first, then written with a single `write_all`
    /// and one flush, so a cell's rows are contiguous in the log. Both
    /// spec executors commit each finished cell through here.
    /// Byte-for-byte, the log is identical to `summaries.len()` calls
    /// to [`Self::append`] — resume readers cannot tell them apart.
    ///
    /// The batch is not crash-atomic: `write_all` may take several
    /// `write` calls and nothing calls `fsync`, so a crash mid-append can
    /// leave a torn final line (which [`Self::open`] rejects) or a
    /// partial cell (which resume then serves as if complete). Commit
    /// records and repair on open are ROADMAP item 1b.
    pub fn append_cell(&mut self, cell: &str, summaries: &[RunSummary]) -> std::io::Result<()> {
        let mut batch = String::new();
        let values: Vec<Value> = summaries.iter().map(RunSummary::to_value).collect();
        for row in &values {
            Self::encode_record(&mut batch, cell, row)?;
        }
        self.file.write_all(batch.as_bytes())?;
        self.file.flush()?;
        self.log_len += batch.len() as u64;
        for row in values {
            self.index
                .entry(cell.to_string())
                .or_default()
                .push(self.rows.len());
            self.rows.push((cell.to_string(), row));
        }
        Ok(())
    }

    /// Encodes one wire record (envelope + newline) onto `batch`.
    fn encode_record(batch: &mut String, cell: &str, row: &Value) -> std::io::Result<()> {
        let record = Value::Object(vec![
            ("schema".to_string(), serde_json::to_value(&STORE_SCHEMA)),
            ("cell".to_string(), Value::String(cell.to_string())),
            ("summary".to_string(), row.clone()),
        ]);
        let line = serde_json::to_string(&record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        batch.push_str(&line);
        batch.push('\n');
        Ok(())
    }

    /// All summaries persisted under `cell`, in append order (a
    /// throughput cell stores one summary per tenant).
    pub fn get(&self, cell: &str) -> Vec<RunSummary> {
        self.index
            .get(cell)
            .map(|idxs| {
                idxs.iter()
                    .filter_map(|&i| RunSummary::from_value(&self.rows[i].1).ok())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A query over every persisted summary row.
    pub fn query(&self) -> Query {
        Query {
            rows: self.rows.clone(),
        }
    }
}

/// A filterable, projectable view over summary rows (JSON objects).
/// Filters narrow, projections extract, aggregates reduce; all columns
/// are addressed by their JSON field name, so queries keep working as
/// `RunSummary` grows columns.
#[derive(Clone, Debug)]
pub struct Query {
    rows: Vec<(String, Value)>,
}

impl Query {
    /// A query over free-standing JSON rows (no cell keys) — the compat
    /// path for legacy blob artifacts ([`read_legacy_blob`]).
    pub fn from_values(rows: Vec<Value>) -> Self {
        Self {
            rows: rows.into_iter().map(|v| (String::new(), v)).collect(),
        }
    }

    /// Remaining row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows remain.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The raw `(cell, row)` pairs.
    pub fn rows(&self) -> &[(String, Value)] {
        &self.rows
    }

    /// Keeps rows whose `column` renders equal to `value` (strings
    /// compare directly; numbers and booleans by their JSON spelling).
    pub fn filter(mut self, column: &str, value: &str) -> Self {
        self.rows.retain(|(_, row)| {
            row.get(column).is_some_and(|v| match v {
                Value::String(s) => s == value,
                other => serde_json::to_string(other)
                    .map(|s| s == value)
                    .unwrap_or(false),
            })
        });
        self
    }

    /// Keeps rows where `predicate` holds on `column`'s numeric value
    /// (rows without the column or with a non-number are dropped).
    pub fn filter_num(mut self, column: &str, predicate: impl Fn(f64) -> bool) -> Self {
        self.rows.retain(|(_, row)| {
            row.get(column)
                .and_then(Value::as_f64)
                .is_some_and(&predicate)
        });
        self
    }

    /// Projects one column (missing → `Null`).
    pub fn column(&self, column: &str) -> Vec<Value> {
        self.rows
            .iter()
            .map(|(_, row)| row.get(column).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// Projects a numeric column (non-numbers are skipped).
    pub fn numbers(&self, column: &str) -> Vec<f64> {
        self.rows
            .iter()
            .filter_map(|(_, row)| row.get(column).and_then(Value::as_f64))
            .collect()
    }

    /// Projects a string column (non-strings are skipped).
    pub fn strings(&self, column: &str) -> Vec<String> {
        self.rows
            .iter()
            .filter_map(|(_, row)| row.get(column).and_then(Value::as_str).map(String::from))
            .collect()
    }

    /// Deserializes the remaining rows back into [`RunSummary`]s (rows
    /// that do not parse — e.g. legacy blob rows — are skipped).
    pub fn summaries(&self) -> Vec<RunSummary> {
        self.rows
            .iter()
            .filter_map(|(_, row)| RunSummary::from_value(row).ok())
            .collect()
    }

    /// Projects two numeric columns as a labelled [`model::XySeries`] —
    /// the bridge from store rows to the regression plane.
    pub fn xy(&self, x: &str, y: &str, label: impl Into<String>) -> model::XySeries {
        let pairs: Vec<(f64, f64)> = self
            .rows
            .iter()
            .filter_map(|(_, row)| {
                Some((
                    row.get(x).and_then(Value::as_f64)?,
                    row.get(y).and_then(Value::as_f64)?,
                ))
            })
            .collect();
        model::XySeries::from_pairs(label, &pairs)
    }

    /// Least-squares line over two numeric columns
    /// (`model::linear_fit`).
    pub fn fit(&self, x: &str, y: &str) -> model::LinearFit {
        self.xy(x, y, "fit").fit()
    }

    /// Mean of a numeric column (0.0 when empty).
    pub fn mean(&self, column: &str) -> f64 {
        let vals = self.numbers(column);
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Groups rows by a key column's rendered value and averages a
    /// numeric column per group, in first-seen group order — the
    /// campaign-table aggregate (`group_mean("backend", "wall_time")`).
    pub fn group_mean(&self, key: &str, value: &str) -> Vec<(String, f64)> {
        let mut groups: Vec<(String, f64, usize)> = Vec::new();
        for (_, row) in &self.rows {
            let Some(k) = row.get(key).map(|v| match v {
                Value::String(s) => s.clone(),
                other => serde_json::to_string(other).unwrap_or_default(),
            }) else {
                continue;
            };
            let Some(v) = row.get(value).and_then(Value::as_f64) else {
                continue;
            };
            match groups.iter_mut().find(|(g, _, _)| *g == k) {
                Some((_, sum, n)) => {
                    *sum += v;
                    *n += 1;
                }
                None => groups.push((k, v, 1)),
            }
        }
        groups
            .into_iter()
            .map(|(k, sum, n)| (k, sum / n as f64))
            .collect()
    }
}

/// Loads a pre-store artifact into query rows: a JSON array becomes one
/// row per element, a single JSON object becomes one row — the two blob
/// shapes `results/` accumulated before the store existed
/// (`backend_compare.json` rows, `machine_room.json` object).
pub fn read_legacy_blob(path: impl AsRef<Path>) -> Result<Query, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let rows = match value {
        Value::Array(items) => items,
        obj @ Value::Object(_) => vec![obj],
        other => {
            return Err(format!(
                "{}: expected a JSON array or object at the top level, got {other:?}",
                path.display()
            ))
        }
    };
    Ok(Query::from_values(rows))
}

/// Outcome of [`run_spec`]: the cells' summaries (spec order, resumed
/// cells served from the store) and the execute/resume split.
#[derive(Clone, Debug)]
pub struct SpecReport {
    /// One summary per run, in spec cell order (throughput cells
    /// contribute one summary per tenant).
    pub summaries: Vec<RunSummary>,
    /// Cells actually executed this invocation.
    pub executed: usize,
    /// Cells served from the store without executing.
    pub resumed: usize,
}

/// Compiles and executes a spec against a store, resuming persisted
/// cells: a cell whose content key is already in the store is read
/// back instead of run, so the second invocation of the same spec
/// executes zero cells and a spec extended by one axis value executes
/// only the new cells.
///
/// `default_storage` prices cells without a `storage` axis value
/// (`None` runs them untimed). Throughput cells (tenants > 1) require a
/// storage model — they are priced on a shared fabric by construction.
///
/// Pending cells execute **concurrently**, in one pass over the rayon
/// pool. Tenancy cells run as *mirrored clone groups*
/// ([`run_campaign_fabric_cloned`]): one real application run, the
/// clones' traffic synthesized inside the engine. The mirrors hold
/// permanently parked quorum seats, so a clone group never waits on the
/// fabric's condvar and is safe on a rayon worker. Every cell's rows
/// are a function of that cell alone: each tenancy cell replays its own
/// solo shadow.
///
/// Finished cells commit through [`ResultsStore::append_cell`] in spec
/// order: a cell that finishes early waits in a small reorder buffer
/// until every pending cell before it has committed. The log is thus
/// byte-identical to the one [`run_spec_serial`] writes. A failed cell
/// stops commits at its position — the cells before it persist, none
/// after — which is the store the serial reference leaves, and the
/// first error in spec order is returned. Returned summaries are in
/// spec cell order.
pub fn run_spec(
    spec: &ExperimentSpec,
    store: &mut ResultsStore,
    default_storage: Option<&iosim::StorageModel>,
) -> Result<SpecReport, SpecError> {
    use rayon::prelude::*;

    let cells = spec.compile()?;
    let mut slots = resume(&cells, store);
    let pending: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();
    let reorder = Mutex::new(Reorder {
        store,
        cells: &cells,
        pending: &pending,
        next: 0,
        parked: HashMap::new(),
        slots: &mut slots,
        failed: None,
    });
    pending.par_iter().for_each(|&i| {
        let produced = execute_cell(&cells[i], default_storage, run_campaign_fabric_cloned);
        reorder
            .lock()
            .expect("no commit panicked while holding the reorder lock")
            .finish(i, produced);
    });
    let reorder = reorder
        .into_inner()
        .expect("no commit panicked while holding the reorder lock");
    if let Some(err) = reorder.failed {
        return Err(err);
    }
    Ok(report(slots, pending.len()))
}

/// [`run_spec`]'s commit point: finished cells park here until every
/// pending cell before them (in spec order) has committed.
struct Reorder<'a> {
    store: &'a mut ResultsStore,
    cells: &'a [SpecCell],
    /// Spec indices of the pending cells, ascending.
    pending: &'a [usize],
    /// Position in `pending` of the next cell to commit.
    next: usize,
    parked: HashMap<usize, Result<Vec<RunSummary>, SpecError>>,
    slots: &'a mut [Option<Vec<RunSummary>>],
    /// The first failure in spec order; nothing commits after it.
    failed: Option<SpecError>,
}

impl Reorder<'_> {
    /// Parks cell `i`'s outcome, then commits the longest run of parked
    /// cells that continues the committed prefix.
    fn finish(&mut self, i: usize, produced: Result<Vec<RunSummary>, SpecError>) {
        self.parked.insert(i, produced);
        while let Some(&i) = self.pending.get(self.next) {
            let Some(produced) = self.parked.remove(&i) else {
                break;
            };
            self.next += 1;
            if self.failed.is_some() {
                continue;
            }
            match produced.and_then(|rows| commit(self.store, &self.cells[i].key, rows)) {
                Ok(rows) => self.slots[i] = Some(rows),
                Err(e) => self.failed = Some(e),
            }
        }
    }
}

/// Sequential reference implementation of [`run_spec`]: one cell at a
/// time in spec order, tenancy cells priced as a *threaded* fleet
/// ([`run_campaign_fabric`]: one native thread per tenant, no clone
/// mirroring), each tenant with its own cold solo shadow. The parallel
/// executor must be indistinguishable from this by results — same
/// summaries, same resume mask, byte-identical store log — and
/// `tests/proptests_spec_parallel.rs` holds it to that.
pub fn run_spec_serial(
    spec: &ExperimentSpec,
    store: &mut ResultsStore,
    default_storage: Option<&iosim::StorageModel>,
) -> Result<SpecReport, SpecError> {
    let cells = spec.compile()?;
    let mut slots = resume(&cells, store);
    let mut executed = 0;
    let fleet: Fleet = |clones, storage| run_campaign_fabric(clones, storage, None, &[]);
    for (cell, slot) in cells.iter().zip(&mut slots) {
        if slot.is_none() {
            let rows = execute_cell(cell, default_storage, fleet)
                .and_then(|rows| commit(store, &cell.key, rows))?;
            *slot = Some(rows);
            executed += 1;
        }
    }
    Ok(report(slots, executed))
}

/// Each cell's persisted rows, or `None` where the store lacks the cell.
fn resume(cells: &[SpecCell], store: &ResultsStore) -> Vec<Option<Vec<RunSummary>>> {
    cells
        .iter()
        .map(|cell| store.contains(&cell.key).then(|| store.get(&cell.key)))
        .collect()
}

/// Appends one executed cell's rows under its key, handing them back.
fn commit(
    store: &mut ResultsStore,
    key: &str,
    rows: Vec<RunSummary>,
) -> Result<Vec<RunSummary>, SpecError> {
    store
        .append_cell(key, &rows)
        .map_err(|e| SpecError::Parse(format!("store append failed: {e}")))?;
    Ok(rows)
}

/// Flattens filled per-cell slots into the report, in spec order.
fn report(slots: Vec<Option<Vec<RunSummary>>>, executed: usize) -> SpecReport {
    SpecReport {
        resumed: slots.len() - executed,
        executed,
        summaries: slots
            .into_iter()
            .flat_map(|slot| slot.expect("every cell is either resumed or committed"))
            .collect(),
    }
}

/// How a throughput cell's N clones share one fabric: a mirrored clone
/// group in [`run_spec`], a threaded fleet in [`run_spec_serial`].
type Fleet = fn(&[CastroSedovConfig], &iosim::StorageModel) -> Vec<RunSummary>;

/// Runs one compiled cell: solo cells on their (or the default) storage
/// model, throughput cells as N identical clones under `_t{i}` names on
/// one shared fabric, priced by `fleet`.
fn execute_cell(
    cell: &SpecCell,
    default_storage: Option<&iosim::StorageModel>,
    fleet: Fleet,
) -> Result<Vec<RunSummary>, SpecError> {
    let storage = cell.storage.map(|p| p.build());
    let storage = storage.as_ref().or(default_storage);
    if cell.tenants > 1 {
        let storage = storage.ok_or_else(|| {
            SpecError::Parse(format!(
                "throughput cell '{}' needs a storage model (storage axis or default)",
                cell.config.name
            ))
        })?;
        let clones: Vec<CastroSedovConfig> = (0..cell.tenants)
            .map(|i| CastroSedovConfig {
                name: format!("{}_t{i}", cell.config.name),
                ..cell.config.clone()
            })
            .collect();
        return Ok(fleet(&clones, storage));
    }
    let cfg = std::slice::from_ref(&cell.config);
    Ok(match storage {
        Some(s) => run_campaign_timed_serial(cfg, s),
        None => run_campaign_serial(cfg),
    })
}

/// Merges columns into a JSON-object bench artifact without clobbering
/// columns other writers own: reads `path` if it already holds a JSON
/// object, overwrites/inserts the given keys (preserving the existing
/// key order for the rest), and writes the result back. The machine-room
/// artifact (`BENCH_campaign.json`) has three writers — the example, the
/// criterion bench, and the spec-campaign example — and a plain
/// serialize-and-write from any one of them silently drops the others'
/// columns.
pub fn update_bench_artifact(
    path: impl AsRef<Path>,
    columns: &[(&str, Value)],
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut entries: Vec<(String, Value)> = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Object(entries)) => entries,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    for (key, value) in columns {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.clone(),
            None => entries.push((key.to_string(), value.clone())),
        }
    }
    let text = serde_json::to_string_pretty(&Value::Object(entries))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CastroSedovConfig, Engine};
    use crate::spec::ExperimentSpec;
    use io_engine::{BackendSpec, CodecSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amrproxy_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_base(name: &str) -> CastroSedovConfig {
        CastroSedovConfig {
            name: name.into(),
            engine: Engine::Oracle,
            n_cell: 32,
            max_step: 4,
            plot_int: 2,
            nprocs: 2,
            account_only: true,
            ..Default::default()
        }
    }

    #[test]
    fn append_and_query_round_trip() {
        let dir = tmp_dir("rt");
        let mut store = ResultsStore::open(&dir).unwrap();
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summary = run_campaign_timed_serial(&[small_base("one")], &storage).remove(0);
        store.append("cellkey1", &summary).unwrap();
        assert!(store.contains("cellkey1"));
        assert!(!store.contains("cellkey2"));
        assert_eq!(store.get("cellkey1"), vec![summary.clone()]);

        // A fresh open replays the log to the identical state.
        drop(store);
        let reopened = ResultsStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get("cellkey1"), vec![summary.clone()]);
        let walls = reopened.query().numbers("wall_time");
        assert_eq!(walls, vec![summary.wall_time]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let dir = tmp_dir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("runs.jsonl"),
            "{\"schema\":99,\"cell\":\"x\",\"summary\":{}}\n",
        )
        .unwrap();
        let err = ResultsStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("schema 99"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_filters_projects_and_aggregates() {
        let dir = tmp_dir("query");
        let mut store = ResultsStore::open(&dir).unwrap();
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let spec = ExperimentSpec::new("q")
            .base(small_base("q"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(2)])
            .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)]);
        for cell in spec.compile().unwrap() {
            let s = run_campaign_timed_serial(&[cell.config], &storage).remove(0);
            store.append(&cell.key, &s).unwrap();
        }
        let q = store.query();
        assert_eq!(q.len(), 4);
        assert_eq!(q.clone().filter("backend", "fpp").len(), 2);
        assert_eq!(
            q.clone()
                .filter("backend", "agg:2")
                .filter("codec", "quant:8")
                .len(),
            1
        );
        // Numeric filters and projections.
        let heavy = q.clone().filter_num("physical_bytes", |b| b > 0.0);
        assert_eq!(heavy.len(), 4);
        assert_eq!(q.numbers("wall_time").len(), 4);
        assert!(q.mean("wall_time") > 0.0);
        // Boolean columns filter by JSON spelling.
        assert_eq!(q.clone().filter("restart", "false").len(), 4);
        // Grouped aggregation, first-seen order.
        let by_backend = q.group_mean("backend", "physical_bytes");
        assert_eq!(by_backend.len(), 2);
        assert_eq!(by_backend[0].0, "fpp");
        assert!(by_backend.iter().all(|(_, v)| *v > 0.0));
        // The store → model bridge.
        let fit = q.fit("physical_bytes", "wall_time");
        assert!(fit.slope.is_finite());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_spec_resumes_and_extends() {
        let dir = tmp_dir("resume");
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let spec = ExperimentSpec::new("resume")
            .base(small_base("r"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(2)]);
        let mut store = ResultsStore::open(&dir).unwrap();
        let first = run_spec(&spec, &mut store, Some(&storage)).unwrap();
        assert_eq!(first.executed, 2);
        assert_eq!(first.resumed, 0);
        // Identical spec: zero cells execute, summaries identical.
        let second = run_spec(&spec, &mut store, Some(&storage)).unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.resumed, 2);
        assert_eq!(second.summaries, first.summaries);
        // One fresh axis value: only the new cell executes.
        let extended = ExperimentSpec::new("resume")
            .base(small_base("r"))
            .backends(&[
                BackendSpec::FilePerProcess,
                BackendSpec::Aggregated(2),
                BackendSpec::Deferred(1),
            ]);
        let third = run_spec(&extended, &mut store, Some(&storage)).unwrap();
        assert_eq!(third.executed, 1);
        assert_eq!(third.resumed, 2);
        assert_eq!(third.summaries.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn throughput_cells_run_as_fabric_groups() {
        use crate::spec::ScalingMode;
        let dir = tmp_dir("tput");
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let spec = ExperimentSpec::new("tput")
            .base(small_base("t"))
            .scales(&[2])
            .scaling(ScalingMode::Throughput);
        let mut store = ResultsStore::open(&dir).unwrap();
        let report = run_spec(&spec, &mut store, Some(&storage)).unwrap();
        assert_eq!(report.executed, 1);
        assert_eq!(report.summaries.len(), 2, "one summary per tenant");
        assert!(report.summaries.iter().all(|s| s.tenants == 2));
        assert_eq!(report.summaries[0].name, "t_x2_t0");
        // Resume serves both tenant summaries from the one cell key.
        let again = run_spec(&spec, &mut store, Some(&storage)).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.summaries, report.summaries);
        // Throughput without any storage model is a clear error.
        let mut dry = ResultsStore::open(tmp_dir("tput2")).unwrap();
        let err = run_spec(&spec, &mut dry, None).unwrap_err();
        assert!(err.to_string().contains("storage"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(dry.dir()).unwrap();
    }

    #[test]
    fn batched_append_is_wire_byte_identical_to_row_appends() {
        let dir_a = tmp_dir("wire_a");
        let dir_b = tmp_dir("wire_b");
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries: Vec<_> = ["one", "two", "three"]
            .iter()
            .map(|n| run_campaign_timed_serial(&[small_base(n)], &storage).remove(0))
            .collect();
        let mut row_wise = ResultsStore::open(&dir_a).unwrap();
        for s in &summaries {
            row_wise.append("cell_k", s).unwrap();
        }
        let mut batched = ResultsStore::open(&dir_b).unwrap();
        batched.append_cell("cell_k", &summaries).unwrap();
        let bytes_a = std::fs::read(dir_a.join("runs.jsonl")).unwrap();
        let bytes_b = std::fs::read(dir_b.join("runs.jsonl")).unwrap();
        assert_eq!(bytes_a, bytes_b, "batch must not change the wire format");
        assert_eq!(batched.get("cell_k"), summaries);
        // Regression pin on the wire format itself: envelope key order,
        // schema tag, one object per line.
        let text = String::from_utf8(bytes_a).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            assert!(
                line.starts_with("{\"schema\":1,\"cell\":\"cell_k\",\"summary\":{"),
                "wire envelope changed: {line}"
            );
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn refresh_ingests_only_the_tail() {
        let dir = tmp_dir("refresh");
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let s1 = run_campaign_timed_serial(&[small_base("a")], &storage).remove(0);
        let s2 = run_campaign_timed_serial(&[small_base("b")], &storage).remove(0);
        let mut writer = ResultsStore::open(&dir).unwrap();
        writer.append("k1", &s1).unwrap();
        // A second handle on the same directory: sees k1 on open, then
        // k2 only after a refresh, which reads only the appended tail.
        let mut reader = ResultsStore::open(&dir).unwrap();
        assert!(reader.contains("k1"));
        assert_eq!(reader.refresh().unwrap(), 0, "nothing new: O(1) stat only");
        writer.append("k2", &s2).unwrap();
        assert!(!reader.contains("k2"));
        assert_eq!(reader.refresh().unwrap(), 1);
        assert_eq!(reader.get("k2"), vec![s2.clone()]);
        assert_eq!(reader.len(), writer.len());
        assert_eq!(reader.refresh().unwrap(), 0);
        // The reader's own appends keep its cursor current.
        reader.append("k3", &s1).unwrap();
        assert_eq!(reader.refresh().unwrap(), 0);
        // A shrunken log is corruption, not a resume point.
        drop(writer);
        let log = dir.join("runs.jsonl");
        let full = std::fs::read(&log).unwrap();
        std::fs::write(&log, &full[..full.len() / 2]).unwrap();
        assert!(reader.refresh().unwrap_err().to_string().contains("shrank"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_run_spec_matches_the_serial_reference() {
        use crate::spec::ScalingMode;
        let storage = iosim::StorageModel::ideal(2, 5e7);
        // Mixed spec: solo cells and tenancy cells (mirrored clones in
        // the parallel executor, threaded fleets in the serial one) in
        // one compile.
        let spec = ExperimentSpec::new("par")
            .base(small_base("p"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(2)])
            .scales(&[1, 2, 4])
            .scaling(ScalingMode::Throughput);
        let mut serial_store = ResultsStore::open(tmp_dir("par_serial")).unwrap();
        let serial = run_spec_serial(&spec, &mut serial_store, Some(&storage)).unwrap();
        let mut parallel_store = ResultsStore::open(tmp_dir("par_parallel")).unwrap();
        let parallel = run_spec(&spec, &mut parallel_store, Some(&storage)).unwrap();
        assert_eq!(parallel.executed, serial.executed);
        assert_eq!(parallel.resumed, 0);
        assert_eq!(
            parallel.summaries, serial.summaries,
            "mirrored clones must be invisible in the results"
        );
        // Both executors commit in spec order: the logs are byte-identical.
        let log = |store: &ResultsStore| std::fs::read(store.dir().join("runs.jsonl")).unwrap();
        assert_eq!(log(&parallel_store), log(&serial_store));
        // Resuming the parallel store is a no-op second time around.
        let again = run_spec(&spec, &mut parallel_store, Some(&storage)).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.summaries, parallel.summaries);
        std::fs::remove_dir_all(serial_store.dir()).unwrap();
        std::fs::remove_dir_all(parallel_store.dir()).unwrap();
    }

    #[test]
    fn bench_artifact_updates_merge_instead_of_clobbering() {
        let dir = tmp_dir("artifact");
        let path = dir.join("BENCH_test.json");
        update_bench_artifact(
            &path,
            &[
                ("alpha", serde_json::to_value(&1.5)),
                ("beta", Value::String("keep me".into())),
            ],
        )
        .unwrap();
        // A second writer updates one key and adds another: beta survives.
        update_bench_artifact(
            &path,
            &[
                ("alpha", serde_json::to_value(&2.0)),
                ("gamma", serde_json::to_value(&3_u64)),
            ],
        )
        .unwrap();
        let q = read_legacy_blob(&path).unwrap();
        assert_eq!(q.numbers("alpha"), vec![2.0]);
        assert_eq!(q.strings("beta"), vec!["keep me".to_string()]);
        assert_eq!(q.numbers("gamma"), vec![3.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_blobs_load_into_queries() {
        let dir = tmp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let array = dir.join("rows.json");
        std::fs::write(
            &array,
            r#"[{"backend":"fpp","wall_time":1.5},{"backend":"agg:4","wall_time":0.75}]"#,
        )
        .unwrap();
        let q = read_legacy_blob(&array).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.clone().filter("backend", "fpp").numbers("wall_time"),
            vec![1.5]
        );
        let object = dir.join("single.json");
        std::fs::write(&object, r#"{"campaign_runs":47,"steps_per_sec":12.0}"#).unwrap();
        let q = read_legacy_blob(&object).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.numbers("campaign_runs"), vec![47.0]);
        assert!(read_legacy_blob(dir.join("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
