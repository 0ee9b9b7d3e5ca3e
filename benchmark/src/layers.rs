//! The per-layer ledger, timed from outside through seams the program
//! already exposes: a [`StepSource`] wrapper (hydro advance, plotfile
//! snapshots) and a [`Vfs`] wrapper (iosim file I/O). Both forward every
//! call unchanged, so a wrapped run produces the same simulated outputs
//! as a plain one — the transparency the tests pin.
//!
//! Counters are atomics (cells and tenants run on several threads at
//! once); spans stay in memory until the run exports them as a Chrome
//! trace ([`crate::trace`]).

use amrproxy::{
    try_run_scenario_attached, AmrSource, CastroSedovConfig, Engine, OracleSource, RunResult,
    StepSource,
};
use hydro::StepInfo;
use iosim::{Bytes, StorageAttach, Vfs};
use plotfile::{CheckpointLevel, LayoutLevel, PlotLevel};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Calls, nanoseconds and a layer-specific amount (cell updates, bytes)
/// accumulated for one layer.
#[derive(Debug, Default)]
pub struct Counter {
    calls: AtomicU64,
    nanos: AtomicU64,
    amount: AtomicU64,
}

impl Counter {
    fn add(&self, nanos: u64, amount: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.amount.fetch_add(amount, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds recorded.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Amount recorded (the counter's unit: cell updates, bytes).
    pub fn amount(&self) -> u64 {
        self.amount.load(Ordering::Relaxed)
    }
}

/// One timed interval on a track (a pool worker or a tenant).
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer metric the span belongs to (`hydro.amr_advance`, ...).
    pub name: &'static str,
    /// Optional detail (the cell or fleet the span covers).
    pub label: Option<String>,
    /// Track (Chrome-trace thread) the span is drawn on.
    pub track: u32,
    /// Start, nanoseconds since the ledger's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Spans kept per run; past this the counters keep counting but no more
/// spans are stored, which bounds the trace's memory.
const MAX_SPANS: usize = 400_000;

static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static TRACK: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Pins the calling thread's spans to `track` (a tenant slot).
pub fn set_track(track: u32) {
    TRACK.with(|t| t.set(Some(track)));
}

/// The calling thread's track: the pinned one, or a fresh id on first
/// use (pool workers get one track each).
fn track() -> u32 {
    TRACK.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = 1000 + NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// The per-layer ledger of one traced pass.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    /// `StepSource::advance` (plus construction and reset) on the hydro
    /// solve; amount = cell updates.
    pub amr_advance: Counter,
    /// The same on the Sedov oracle; amount = cell updates.
    pub oracle_advance: Counter,
    /// `layout_levels` / `plot_levels` / `checkpoint_levels` calls.
    pub snapshot: Counter,
    /// Vfs writes and directory creation; amount = bytes written.
    pub vfs_write: Counter,
    /// Vfs reads, size probes and listings.
    pub vfs_read: Counter,
    spans: Mutex<Vec<Span>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    /// An empty ledger whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            amr_advance: Counter::default(),
            oracle_advance: Counter::default(),
            snapshot: Counter::default(),
            vfs_write: Counter::default(),
            vfs_read: Counter::default(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` and ends now on the
    /// calling thread's track; returns its duration.
    pub fn span(&self, name: &'static str, label: Option<String>, start_ns: u64) -> u64 {
        let end = self.now_ns();
        let dur_ns = end.saturating_sub(start_ns);
        let mut spans = self.spans.lock().expect("span lock");
        if spans.len() < MAX_SPANS {
            spans.push(Span {
                name,
                label,
                track: track(),
                start_ns,
                dur_ns,
            });
        }
        dur_ns
    }

    /// Times `f` as one span; returns its value and its seconds.
    pub fn timed<R>(
        &self,
        name: &'static str,
        label: Option<String>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.now_ns();
        let out = f();
        let dur = self.span(name, label, start);
        (out, dur as f64 * 1e-9)
    }

    /// Times one call into `counter` (and the span list).
    fn counted<R>(
        &self,
        counter: &Counter,
        name: &'static str,
        f: impl FnOnce() -> R,
        amount: impl FnOnce(&R) -> u64,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let dur = self.span(name, None, start);
        counter.add(dur, amount(&out));
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }
}

/// Which engine a [`TimedSource`] wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SourceKind {
    Amr,
    Oracle,
}

impl SourceKind {
    fn counter(self, ledger: &Ledger) -> (&Counter, &'static str) {
        match self {
            SourceKind::Amr => (&ledger.amr_advance, "hydro.amr_advance"),
            SourceKind::Oracle => (&ledger.oracle_advance, "hydro.oracle_advance"),
        }
    }

    /// Times engine work that is not a step (construction, a restart
    /// rebuild) into the engine's seconds without adding a call.
    fn charge<R>(self, ledger: &Ledger, what: &str, f: impl FnOnce() -> R) -> R {
        let (counter, name) = self.counter(ledger);
        let start = ledger.now_ns();
        let out = f();
        let dur = ledger.span(name, Some(what.to_string()), start);
        counter.nanos.fetch_add(dur, Ordering::Relaxed);
        out
    }
}

/// A [`StepSource`] that times every call into a [`Ledger`] and forwards
/// it unchanged.
pub struct TimedSource<'a, S> {
    inner: S,
    ledger: &'a Ledger,
    kind: SourceKind,
    ref_ratio: u64,
}

/// Runs `cfg` through the scenario driver on its engine (the hydro
/// solve or the oracle) wrapped in a [`TimedSource`] — the traced twin
/// of `amrproxy::try_run_simulation_attached`. The engine's construction
/// (the initial hierarchy) is charged to its seconds without counting a
/// step.
pub fn run_traced(
    cfg: &CastroSedovConfig,
    ledger: &Ledger,
    fs: &dyn Vfs,
    storage: StorageAttach<'_>,
) -> io::Result<RunResult> {
    let ref_ratio = cfg.grid.ref_ratio.max(1) as u64;
    match cfg.engine {
        Engine::Hydro => {
            let kind = SourceKind::Amr;
            let inner = kind.charge(ledger, "init", || AmrSource::new(cfg));
            let src = TimedSource {
                inner,
                ledger,
                kind,
                ref_ratio,
            };
            try_run_scenario_attached(cfg, src, fs, storage)
        }
        Engine::Oracle => {
            let kind = SourceKind::Oracle;
            let inner = kind.charge(ledger, "init", || OracleSource::new(cfg));
            let src = TimedSource {
                inner,
                ledger,
                kind,
                ref_ratio,
            };
            try_run_scenario_attached(cfg, src, fs, storage)
        }
    }
}

/// Cell updates of one step: levels subcycle, so level `l` advances
/// `r^l` times per coarse step.
fn cell_updates(info: &StepInfo, ref_ratio: u64) -> u64 {
    info.cells
        .iter()
        .enumerate()
        .map(|(l, &c)| c.max(0) as u64 * ref_ratio.pow(l as u32))
        .sum()
}

impl<S: StepSource> TimedSource<'_, S> {
    fn snapshot<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        self.ledger.counted(
            &self.ledger.snapshot,
            "plotfile.snapshot",
            || f(&self.inner),
            |_| 0,
        )
    }
}

impl<S: StepSource> StepSource for TimedSource<'_, S> {
    fn advance(&mut self) -> StepInfo {
        let (counter, name) = self.kind.counter(self.ledger);
        let ratio = self.ref_ratio;
        let inner = &mut self.inner;
        self.ledger.counted(
            counter,
            name,
            || inner.advance(),
            |info| cell_updates(info, ratio),
        )
    }

    fn step_count(&self) -> u64 {
        self.inner.step_count()
    }

    fn time(&self) -> f64 {
        self.inner.time()
    }

    fn reset(&mut self) {
        let inner = &mut self.inner;
        self.kind.charge(self.ledger, "reset", || inner.reset());
    }

    fn layout_levels(&self) -> Vec<LayoutLevel> {
        self.snapshot(S::layout_levels)
    }

    fn plot_levels(&self) -> Option<Vec<PlotLevel<'_>>> {
        let inner = &self.inner;
        self.ledger.counted(
            &self.ledger.snapshot,
            "plotfile.snapshot",
            || inner.plot_levels(),
            |_| 0,
        )
    }

    fn checkpoint_levels(&self, dt: f64) -> Vec<CheckpointLevel> {
        self.snapshot(|s| s.checkpoint_levels(dt))
    }
}

/// A [`Vfs`] that times every call into a [`Ledger`] and forwards it
/// unchanged.
pub struct TimedVfs<'a, V> {
    inner: V,
    ledger: &'a Ledger,
}

impl<'a, V: Vfs> TimedVfs<'a, V> {
    /// Wraps `inner`.
    pub fn new(inner: V, ledger: &'a Ledger) -> Self {
        Self { inner, ledger }
    }

    fn write<R>(&self, f: impl FnOnce(&V) -> R, bytes: impl FnOnce(&R) -> u64) -> R {
        self.ledger.counted(
            &self.ledger.vfs_write,
            "iosim.vfs_write",
            || f(&self.inner),
            bytes,
        )
    }

    fn read<R>(&self, f: impl FnOnce(&V) -> R) -> R {
        self.ledger.counted(
            &self.ledger.vfs_read,
            "iosim.vfs_read",
            || f(&self.inner),
            |_| 0,
        )
    }
}

fn written(r: &io::Result<u64>) -> u64 {
    *r.as_ref().unwrap_or(&0)
}

impl<V: Vfs> Vfs for TimedVfs<'_, V> {
    fn create_dir_all(&self, path: &str) -> io::Result<()> {
        self.write(|fs| fs.create_dir_all(path), |_| 0)
    }

    fn write_file(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        self.write(|fs| fs.write_file(path, data), written)
    }

    fn write_file_concat(&self, path: &str, segs: &[Bytes]) -> io::Result<u64> {
        self.write(|fs| fs.write_file_concat(path, segs), written)
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        self.read(|fs| fs.file_size(path))
    }

    fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        self.read(|fs| fs.read_file(path))
    }

    fn read_file_shared(&self, path: &str) -> Option<Bytes> {
        self.read(|fs| fs.read_file_shared(path))
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.read(|fs| fs.list(prefix))
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn nfiles(&self) -> usize {
        self.inner.nfiles()
    }
}
