//! The declarative experiment grammar: [`ExperimentSpec`].
//!
//! The paper's 47-run Summit campaign — and every sweep this repo grew
//! after it — is a cross product of a few named axes: I/O backend,
//! compression codec, read mode, analysis read pattern, storage layout,
//! scenario program, task count, AMR rung, storage profile. Five
//! hand-written sweep functions once enumerated five corners of that
//! product; this module replaced them with one compiler.
//! An `ExperimentSpec` *declares* the matrix (builder API or a TOML
//! file), and [`ExperimentSpec::compile`] turns it into
//! [`SpecCell`]s — concrete [`CastroSedovConfig`]s with deterministic,
//! collision-checked run labels and a content hash the results store
//! ([`crate::store`]) keys persistence and resume on.
//!
//! The grammar follows the benchpark experiment-spec shape: axes are
//! crossed in declaration order (last declared varies fastest, exactly
//! like the nested loops the legacy sweeps wrote), `zip` groups advance
//! member axes in lockstep instead of crossing them, `exclude` tables
//! drop cells whose canonical axis values match, and a *scaling mode*
//! gives the `scale` axis its meaning: strong (vary ranks at fixed
//! problem), weak (vary ranks at fixed cells-per-rank), or throughput
//! (vary tenant count on the shared machine-room fabric).
//!
//! Label spellings are bit-compatible with the legacy sweeps —
//! `tests/proptests_spec.rs` pins each builder chain equal to a frozen
//! copy of the sweep it replaced — so labels already persisted in
//! results stores stay addressable.
//!
//! ```
//! use amrproxy::spec::ExperimentSpec;
//! use amrproxy::CastroSedovConfig;
//! use io_engine::{BackendSpec, CodecSpec};
//!
//! let base = CastroSedovConfig {
//!     name: "sedov".into(),
//!     ..Default::default()
//! };
//! let cells = ExperimentSpec::new("smoke")
//!     .base(base)
//!     .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
//!     .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)])
//!     .exclude(&[("backend", "agg:4"), ("codec", "quant:8")])
//!     .compile()
//!     .unwrap();
//! let labels: Vec<&str> = cells.iter().map(|c| c.config.name.as_str()).collect();
//! assert_eq!(
//!     labels,
//!     ["sedov_fpp_identity", "sedov_fpp_quant8", "sedov_agg4_identity"]
//! );
//! ```

use crate::config::CastroSedovConfig;
use io_engine::grammar::{disambiguate_tags, MatrixShape, TomlDoc, TomlSection, TomlValue};
use io_engine::{BackendSpec, CodecSpec, ReadSelection, Scenario};

/// What the `scale` axis varies (benchpark's experiment modes).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ScalingMode {
    /// Fixed problem, vary ranks: `scale = v` sets `nprocs = v`
    /// (label tag `p{v}`).
    #[default]
    Strong,
    /// Fixed cells per rank, vary ranks: `scale = v` sets `nprocs = v`
    /// and grows `n_cell` by `sqrt(v / base_nprocs)` (2-D mesh), snapped
    /// up to a blocking-factor multiple (label tag `p{v}w`).
    Weak,
    /// Fixed workload, vary tenancy: `scale = v` runs `v` clones of the
    /// cell concurrently on one shared storage fabric (label tag
    /// `x{v}`); the clones form one fabric group in [`SpecCell`].
    Throughput,
}

impl ScalingMode {
    /// Parses a mode spelling (`strong` / `weak` / `throughput`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "strong" => Ok(Self::Strong),
            "weak" => Ok(Self::Weak),
            "throughput" => Ok(Self::Throughput),
            other => Err(format!(
                "unknown scaling mode '{other}' (strong, weak, throughput)"
            )),
        }
    }

    /// Canonical spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Strong => "strong",
            Self::Weak => "weak",
            Self::Throughput => "throughput",
        }
    }
}

/// A named storage model an axis can sweep over (the machine half of a
/// cell: the same workload priced on different machines).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum StorageProfile {
    /// `iosim::StorageModel::ideal(servers, bandwidth)`.
    Ideal {
        /// Server count.
        servers: usize,
        /// Per-server bandwidth, bytes/s.
        bandwidth: f64,
    },
    /// `iosim::StorageModel::summit_alpine(scale)`.
    Summit {
        /// Fraction of the full Alpine deployment, in `(0, 1]`.
        scale: f64,
    },
}

impl StorageProfile {
    /// Parses `ideal:<servers>:<bandwidth>` or `summit:<scale>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        match parts.next() {
            Some("ideal") => {
                let servers = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("ideal:<servers>:<bandwidth>, got '{s}'"))?;
                let bandwidth = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("ideal:<servers>:<bandwidth>, got '{s}'"))?;
                Ok(Self::Ideal { servers, bandwidth })
            }
            Some("summit") => {
                let scale: f64 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("summit:<scale>, got '{s}'"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(format!("summit scale must be in (0, 1], got {scale}"));
                }
                Ok(Self::Summit { scale })
            }
            _ => Err(format!("unknown storage profile '{s}' (ideal, summit)")),
        }
    }

    /// Canonical spelling (`ideal:8:2.5e8`, `summit:0.5`).
    pub fn name(&self) -> String {
        match self {
            Self::Ideal { servers, bandwidth } => format!("ideal:{servers}:{bandwidth:e}"),
            Self::Summit { scale } => format!("summit:{scale}"),
        }
    }

    /// Name-safe label tag (`ideal82p5e8`, `summit0p5`).
    pub fn tag(&self) -> String {
        self.name().replace(':', "").replace('.', "p")
    }

    /// Builds the concrete storage model.
    pub fn build(&self) -> iosim::StorageModel {
        match *self {
            Self::Ideal { servers, bandwidth } => iosim::StorageModel::ideal(servers, bandwidth),
            Self::Summit { scale } => iosim::StorageModel::summit_alpine(scale),
        }
    }
}

/// Read mode of a cell: write-only or write + restart read-back (the
/// pre-spec restart sweep's doubling).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Write-only (no label tag — matches the legacy spelling where the
    /// write half of the restart sweep carries no suffix).
    Write,
    /// Write, then restart-read the last dump (`_restart` suffix).
    Restart,
}

/// Storage layout an analysis read is served from (the pre-spec
/// analysis sweep's raw/reorg doubling).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layout {
    /// The raw written layout (`_raw` suffix).
    Raw,
    /// The read-optimized reorganized layout (`_reorg` suffix).
    Reorg,
}

/// How a dump leaves the application — the `delivery` axis. A coarse
/// three-way cut across the backend space for sweeps that compare
/// delivery *strategies* rather than backend parameters: each value maps
/// to a canonical backend (use the `backend` axis for tuned variants).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Synchronous storage writes ([`BackendSpec::FilePerProcess`]).
    Storage,
    /// In-transit streaming over the modeled interconnect
    /// ([`BackendSpec::Streaming`] with the default link).
    Stream,
    /// Overlapped burst-buffer staging ([`BackendSpec::Deferred`]).
    Deferred,
}

impl Delivery {
    /// The canonical backend this delivery strategy maps to.
    pub fn backend(self) -> BackendSpec {
        match self {
            Delivery::Storage => BackendSpec::FilePerProcess,
            Delivery::Stream => BackendSpec::Streaming(io_engine::StreamSpec::default()),
            Delivery::Deferred => BackendSpec::Deferred(1),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Delivery::Storage => "storage",
            Delivery::Stream => "stream",
            Delivery::Deferred => "deferred",
        }
    }
}

/// One named axis with its values. Declaration order is loop order.
#[derive(Clone, Debug)]
enum Axis {
    Backend(Vec<BackendSpec>),
    Codec(Vec<CodecSpec>),
    Mode(Vec<RunMode>),
    Pattern(Vec<ReadSelection>),
    Layout(Vec<Layout>),
    Scenario(Vec<Scenario>),
    Scale(Vec<usize>),
    Rung(Vec<i64>),
    Storage(Vec<StorageProfile>),
    Delivery(Vec<Delivery>),
}

impl Axis {
    fn key(&self) -> &'static str {
        match self {
            Axis::Backend(_) => "backend",
            Axis::Codec(_) => "codec",
            Axis::Mode(_) => "mode",
            Axis::Pattern(_) => "pattern",
            Axis::Layout(_) => "layout",
            Axis::Scenario(_) => "scenario",
            Axis::Scale(_) => "scale",
            Axis::Rung(_) => "rung",
            Axis::Storage(_) => "storage",
            Axis::Delivery(_) => "delivery",
        }
    }

    fn len(&self) -> usize {
        match self {
            Axis::Backend(v) => v.len(),
            Axis::Codec(v) => v.len(),
            Axis::Mode(v) => v.len(),
            Axis::Pattern(v) => v.len(),
            Axis::Layout(v) => v.len(),
            Axis::Scenario(v) => v.len(),
            Axis::Scale(v) => v.len(),
            Axis::Rung(v) => v.len(),
            Axis::Storage(v) => v.len(),
            Axis::Delivery(v) => v.len(),
        }
    }

    /// Canonical (lossless) spelling of value `i` — what excludes match
    /// on and what collision errors print.
    fn value_name(&self, i: usize) -> String {
        match self {
            Axis::Backend(v) => v[i].name(),
            Axis::Codec(v) => v[i].name(),
            Axis::Mode(v) => match v[i] {
                RunMode::Write => "write".to_string(),
                RunMode::Restart => "restart".to_string(),
            },
            Axis::Pattern(v) => v[i].name(),
            Axis::Layout(v) => match v[i] {
                Layout::Raw => "raw".to_string(),
                Layout::Reorg => "reorg".to_string(),
            },
            Axis::Scenario(v) => v[i].name(),
            Axis::Scale(v) => v[i].to_string(),
            Axis::Rung(v) => v[i].to_string(),
            Axis::Storage(v) => v[i].name(),
            Axis::Delivery(v) => v[i].name().to_string(),
        }
    }

    /// Name-safe label tags for every value, matching the legacy sweep
    /// spellings exactly (lossy flattenings are index-disambiguated
    /// with the same prefix characters the sweeps used).
    fn tags(&self, mode: ScalingMode) -> Vec<String> {
        match self {
            Axis::Backend(v) => v.iter().map(|b| b.name().replace(':', "")).collect(),
            // Codec spellings keep '.' distinct ('p', as in "2p5") so
            // fractional Rle ratios cannot collide (2.1 vs 21).
            Axis::Codec(v) => v
                .iter()
                .map(|c| c.name().replace(':', "").replace('.', "p"))
                .collect(),
            Axis::Mode(v) => v
                .iter()
                .map(|m| match m {
                    RunMode::Write => String::new(),
                    RunMode::Restart => "restart".to_string(),
                })
                .collect(),
            Axis::Pattern(v) => {
                let mut tags: Vec<String> = v
                    .iter()
                    .map(|p| {
                        p.name()
                            .replace(':', "")
                            .replace('-', "to")
                            .replace([',', '/', '.'], "_")
                    })
                    .collect();
                disambiguate_tags(&mut tags, 'p');
                tags
            }
            Axis::Layout(v) => v
                .iter()
                .map(|l| match l {
                    Layout::Raw => "raw".to_string(),
                    Layout::Reorg => "reorg".to_string(),
                })
                .collect(),
            Axis::Scenario(v) => {
                let mut tags: Vec<String> = v
                    .iter()
                    .map(|s| {
                        s.name()
                            .replace([';', ','], "_")
                            .replace('-', "to")
                            .replace([':', '@', '.', '/'], "")
                    })
                    .collect();
                disambiguate_tags(&mut tags, 's');
                tags
            }
            Axis::Scale(v) => v
                .iter()
                .map(|s| match mode {
                    ScalingMode::Strong => format!("p{s}"),
                    ScalingMode::Weak => format!("p{s}w"),
                    ScalingMode::Throughput => format!("x{s}"),
                })
                .collect(),
            Axis::Rung(v) => v.iter().map(|n| format!("n{n}")).collect(),
            Axis::Storage(v) => v.iter().map(StorageProfile::tag).collect(),
            Axis::Delivery(v) => v.iter().map(|d| d.name().to_string()).collect(),
        }
    }
}

/// Errors a spec can fail to compile with.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// TOML or value parse failure.
    Parse(String),
    /// Two compiled cells produced the same run label; the payload names
    /// both cells by their canonical axis coordinates.
    LabelCollision {
        /// The clashing label.
        label: String,
        /// Canonical `axis=value` coordinates of the first cell.
        first: String,
        /// Canonical `axis=value` coordinates of the second cell.
        second: String,
    },
    /// A zip or exclude referenced an axis the spec does not declare.
    UnknownAxis(String),
    /// Zip group validation failed (unequal lengths, overlap, ...).
    Zip(String),
    /// The spec has no base configuration.
    NoBase,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(msg) => write!(f, "spec parse error: {msg}"),
            SpecError::LabelCollision {
                label,
                first,
                second,
            } => write!(
                f,
                "run label collision: '{label}' is produced by both cell ({first}) \
                 and cell ({second}); rename the base or add a distinguishing axis"
            ),
            SpecError::UnknownAxis(name) => {
                write!(f, "spec references unknown axis '{name}'")
            }
            SpecError::Zip(msg) => write!(f, "zip group error: {msg}"),
            SpecError::NoBase => write!(f, "spec has no base configuration"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One compiled cell of an experiment matrix: the concrete run
/// configuration, the machine it is priced on, and the identity the
/// results store persists it under.
#[derive(Clone, Debug)]
pub struct SpecCell {
    /// The fully-applied run configuration (label in `config.name`).
    pub config: CastroSedovConfig,
    /// Storage profile from the `storage` axis (`None` = the executor's
    /// default storage).
    pub storage: Option<StorageProfile>,
    /// Concurrent clones of this cell on a shared fabric (1 outside
    /// throughput scaling).
    pub tenants: usize,
    /// Content key: a hash of the canonical config JSON, storage name,
    /// and tenancy — what the append-only store indexes persistence and
    /// resume by. Identical cell, identical key, across processes.
    pub key: String,
    /// Canonical `(axis, value)` coordinates (base first) — the
    /// queryable identity of the cell, also used by exclude matching
    /// and collision diagnostics.
    pub coords: Vec<(String, String)>,
}

impl SpecCell {
    fn coords_string(&self) -> String {
        self.coords
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A declarative experiment: bases × axes, zips, excludes, scaling mode.
/// See the module docs for the grammar; build with the fluent API or
/// [`ExperimentSpec::from_toml`].
#[derive(Clone, Debug, Default)]
pub struct ExperimentSpec {
    /// Spec name (campaigns in the store are grouped under it).
    pub name: String,
    bases: Vec<CastroSedovConfig>,
    axes: Vec<Axis>,
    zips: Vec<Vec<String>>,
    excludes: Vec<Vec<(String, String)>>,
    mode: ScalingMode,
}

impl ExperimentSpec {
    /// New empty spec.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Spec over existing base configurations (the legacy sweeps'
    /// calling convention: bases are the outermost loop).
    pub fn over(name: impl Into<String>, bases: &[CastroSedovConfig]) -> Self {
        Self {
            name: name.into(),
            bases: bases.to_vec(),
            ..Default::default()
        }
    }

    /// Adds one base configuration.
    pub fn base(mut self, cfg: CastroSedovConfig) -> Self {
        self.bases.push(cfg);
        self
    }

    /// Declares the backend axis.
    pub fn backends(mut self, backends: &[BackendSpec]) -> Self {
        self.axes.push(Axis::Backend(backends.to_vec()));
        self
    }

    /// Declares the codec axis.
    pub fn codecs(mut self, codecs: &[CodecSpec]) -> Self {
        self.axes.push(Axis::Codec(codecs.to_vec()));
        self
    }

    /// Declares the read-mode axis (write / restart).
    pub fn modes(mut self, modes: &[RunMode]) -> Self {
        self.axes.push(Axis::Mode(modes.to_vec()));
        self
    }

    /// Declares the analysis read-pattern axis.
    pub fn patterns(mut self, patterns: &[ReadSelection]) -> Self {
        self.axes.push(Axis::Pattern(patterns.to_vec()));
        self
    }

    /// Declares the layout axis (raw / reorganized).
    pub fn layouts(mut self, layouts: &[Layout]) -> Self {
        self.axes.push(Axis::Layout(layouts.to_vec()));
        self
    }

    /// Declares the scenario axis.
    pub fn scenarios(mut self, scenarios: &[Scenario]) -> Self {
        self.axes.push(Axis::Scenario(scenarios.to_vec()));
        self
    }

    /// Declares the scale axis; what it varies depends on
    /// [`ExperimentSpec::scaling`].
    pub fn scales(mut self, scales: &[usize]) -> Self {
        self.axes.push(Axis::Scale(scales.to_vec()));
        self
    }

    /// Declares the AMR-rung axis (level-0 `n_cell` per direction).
    pub fn rungs(mut self, rungs: &[i64]) -> Self {
        self.axes.push(Axis::Rung(rungs.to_vec()));
        self
    }

    /// Declares the storage-profile axis.
    pub fn storages(mut self, storages: &[StorageProfile]) -> Self {
        self.axes.push(Axis::Storage(storages.to_vec()));
        self
    }

    /// Declares the delivery axis (storage / stream / deferred).
    pub fn deliveries(mut self, deliveries: &[Delivery]) -> Self {
        self.axes.push(Axis::Delivery(deliveries.to_vec()));
        self
    }

    /// Zips the named axes: they advance in lockstep instead of
    /// crossing (members must have equal lengths).
    pub fn zip(mut self, members: &[&str]) -> Self {
        self.zips
            .push(members.iter().map(|m| m.to_string()).collect());
        self
    }

    /// Excludes every cell whose canonical axis values match all the
    /// given `(axis, value)` clauses (values spelled canonically:
    /// `agg:4`, `quant:8`, `level:1`, `write;restart`, ...).
    pub fn exclude(mut self, clauses: &[(&str, &str)]) -> Self {
        self.excludes.push(
            clauses
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        self
    }

    /// Sets the scaling mode the `scale` axis is interpreted under.
    pub fn scaling(mut self, mode: ScalingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Compiles the spec: enumerates the (zipped) matrix per base, in
    /// declaration order with the last axis varying fastest, applies
    /// excludes, stamps deterministic labels, and rejects collisions.
    pub fn compile(&self) -> Result<Vec<SpecCell>, SpecError> {
        if self.bases.is_empty() {
            return Err(SpecError::NoBase);
        }
        for zip in &self.zips {
            for member in zip {
                if !self.axes.iter().any(|a| a.key() == member.as_str()) {
                    return Err(SpecError::UnknownAxis(member.clone()));
                }
            }
        }
        for clause in self.excludes.iter().flatten() {
            if !self.axes.iter().any(|a| a.key() == clause.0) {
                return Err(SpecError::UnknownAxis(clause.0.clone()));
            }
        }
        let mut shape = MatrixShape::new();
        for axis in &self.axes {
            shape = shape.axis(axis.key(), axis.len());
        }
        for zip in &self.zips {
            let members: Vec<&str> = zip.iter().map(String::as_str).collect();
            shape = shape.zip(&members);
        }
        let indices = shape.enumerate().map_err(SpecError::Zip)?;
        let tags: Vec<Vec<String>> = self.axes.iter().map(|a| a.tags(self.mode)).collect();

        let mut cells = Vec::with_capacity(self.bases.len() * indices.len());
        for base in &self.bases {
            'cell: for cell_idx in &indices {
                let mut coords = vec![("base".to_string(), base.name.clone())];
                for (axis, &i) in self.axes.iter().zip(cell_idx) {
                    coords.push((axis.key().to_string(), axis.value_name(i)));
                }
                for clauses in &self.excludes {
                    let hit = clauses
                        .iter()
                        .all(|(k, v)| coords.iter().any(|(ck, cv)| ck == k && cv == v));
                    if !clauses.is_empty() && hit {
                        continue 'cell;
                    }
                }
                let mut label = base.name.clone();
                for (a, &i) in cell_idx.iter().enumerate() {
                    let tag = &tags[a][i];
                    if !tag.is_empty() {
                        label.push('_');
                        label.push_str(tag);
                    }
                }
                let (config, storage, tenants) = self.apply(base, cell_idx, label.clone());
                let key = cell_key(&config, storage.as_ref(), tenants);
                cells.push(SpecCell {
                    config,
                    storage,
                    tenants,
                    key,
                    coords,
                });
            }
        }
        let mut seen: Vec<(&str, usize)> = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            if let Some(&(_, j)) = seen.iter().find(|(l, _)| *l == cell.config.name) {
                return Err(SpecError::LabelCollision {
                    label: cell.config.name.clone(),
                    first: cells[j].coords_string(),
                    second: cell.coords_string(),
                });
            }
            seen.push((cell.config.name.as_str(), i));
        }
        Ok(cells)
    }

    /// Compiles straight to run configurations (the legacy sweeps'
    /// return type); storage/tenancy cells keep their config half.
    pub fn compile_configs(&self) -> Result<Vec<CastroSedovConfig>, SpecError> {
        Ok(self.compile()?.into_iter().map(|c| c.config).collect())
    }

    /// Applies one cell's axis values to a base, in declaration order.
    fn apply(
        &self,
        base: &CastroSedovConfig,
        cell_idx: &[usize],
        label: String,
    ) -> (CastroSedovConfig, Option<StorageProfile>, usize) {
        let mut cfg = base.clone();
        let mut storage = None;
        let mut tenants = 1usize;
        for (axis, &i) in self.axes.iter().zip(cell_idx) {
            match axis {
                Axis::Backend(v) => cfg.backend = v[i],
                Axis::Codec(v) => cfg.codec = v[i],
                Axis::Mode(v) => {
                    if v[i] == RunMode::Restart {
                        cfg.read_after_write = true;
                    }
                }
                Axis::Pattern(v) => cfg.analysis_read = Some(v[i].clone()),
                Axis::Layout(v) => cfg.reorganize = v[i] == Layout::Reorg,
                Axis::Scenario(v) => cfg.scenario = Some(v[i].clone()),
                Axis::Scale(v) => match self.mode {
                    ScalingMode::Strong => cfg.nprocs = v[i],
                    ScalingMode::Weak => {
                        let base_procs = base.nprocs.max(1) as f64;
                        let factor = (v[i] as f64 / base_procs).sqrt();
                        let bf = cfg.grid.blocking_factor.max(1);
                        let scaled = (cfg.n_cell as f64 * factor).round() as i64;
                        cfg.n_cell = ((scaled + bf - 1) / bf).max(1) * bf;
                        cfg.nprocs = v[i];
                    }
                    ScalingMode::Throughput => tenants = v[i].max(1),
                },
                Axis::Rung(v) => cfg.n_cell = v[i],
                Axis::Storage(v) => storage = Some(v[i]),
                Axis::Delivery(v) => cfg.backend = v[i].backend(),
            }
        }
        cfg.name = label;
        (cfg, storage, tenants)
    }

    /// Parses a spec from the TOML grammar. Sections:
    ///
    /// ```toml
    /// [experiment]
    /// name = "smoke"
    /// scaling = "strong"            # optional
    /// zip = ["backend+codec"]       # optional
    ///
    /// [base]                         # CastroSedovConfig overrides
    /// name = "sedov"
    /// n_cell = 64
    /// nprocs = 4
    ///
    /// [axes]                         # declaration order = loop order
    /// backend = ["fpp", "agg:4"]
    /// codec = ["identity", "quant:8"]
    /// mode = ["write", "restart"]
    ///
    /// [[exclude]]                    # optional, repeatable
    /// backend = "agg:4"
    /// codec = "quant:8"
    /// ```
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let doc = TomlDoc::parse(text).map_err(SpecError::Parse)?;
        let mut spec = ExperimentSpec::new("experiment");
        if let Some(exp) = doc.section("experiment") {
            for (key, value) in &exp.entries {
                match key.as_str() {
                    "name" => {
                        spec.name = value
                            .as_str()
                            .ok_or_else(|| {
                                SpecError::Parse("experiment.name must be a string".into())
                            })?
                            .to_string();
                    }
                    "scaling" => {
                        let s = value.as_str().ok_or_else(|| {
                            SpecError::Parse("experiment.scaling must be a string".into())
                        })?;
                        spec.mode = ScalingMode::parse(s).map_err(SpecError::Parse)?;
                    }
                    "zip" => {
                        let items = value.as_array().ok_or_else(|| {
                            SpecError::Parse("experiment.zip must be an array".into())
                        })?;
                        for item in items {
                            let group = item.as_str().ok_or_else(|| {
                                SpecError::Parse("zip entries must be strings".into())
                            })?;
                            spec.zips
                                .push(group.split('+').map(|m| m.trim().to_string()).collect());
                        }
                    }
                    other => {
                        return Err(SpecError::Parse(format!(
                            "unknown [experiment] key '{other}'"
                        )))
                    }
                }
            }
        }
        let base = match doc.section("base") {
            Some(section) => parse_base(section)?,
            None => CastroSedovConfig::default(),
        };
        spec.bases.push(base);
        if let Some(axes) = doc.section("axes") {
            for (key, value) in &axes.entries {
                spec.axes.push(parse_axis(key, value)?);
            }
        }
        for table in doc.all("exclude") {
            let clauses: Vec<(String, String)> = table
                .entries
                .iter()
                .map(|(k, v)| (k.clone(), v.render()))
                .collect();
            spec.excludes.push(clauses);
        }
        Ok(spec)
    }

    /// Loads and parses a spec file from disk.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Parse(format!("cannot read spec {}: {e}", path.display())))?;
        Self::from_toml(&text)
    }
}

/// Content key of a compiled cell: FNV-1a 64 over the canonical config
/// JSON plus the storage/tenancy half. Deterministic across processes
/// (no hasher randomization), so stores written yesterday resume today.
fn cell_key(
    config: &CastroSedovConfig,
    storage: Option<&StorageProfile>,
    tenants: usize,
) -> String {
    let canonical = format!(
        "{}|{}|{}",
        serde_json::to_string(config).unwrap_or_default(),
        storage.map(StorageProfile::name).unwrap_or_default(),
        tenants
    );
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canonical.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

fn parse_base(section: &TomlSection) -> Result<CastroSedovConfig, SpecError> {
    use crate::config::Engine;
    let mut cfg = CastroSedovConfig::default();
    let bad = |key: &str, want: &str| SpecError::Parse(format!("base.{key} must be {want}"));
    for (key, value) in &section.entries {
        match key.as_str() {
            "name" => cfg.name = value.as_str().ok_or_else(|| bad(key, "a string"))?.into(),
            "engine" => {
                cfg.engine = match value.as_str().ok_or_else(|| bad(key, "a string"))? {
                    "hydro" => Engine::Hydro,
                    "oracle" => Engine::Oracle,
                    other => {
                        return Err(SpecError::Parse(format!(
                            "unknown engine '{other}' (hydro, oracle)"
                        )))
                    }
                }
            }
            "n_cell" => cfg.n_cell = value.as_i64().ok_or_else(|| bad(key, "an integer"))?,
            "max_level" => {
                cfg.max_level = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as usize
            }
            "max_step" => {
                cfg.max_step = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as u64
            }
            "stop_time" => cfg.stop_time = value.as_f64().ok_or_else(|| bad(key, "a number"))?,
            "plot_int" => {
                cfg.plot_int = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as u64
            }
            "check_int" => {
                cfg.check_int = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as u64
            }
            "regrid_int" => {
                cfg.regrid_int = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as u64
            }
            "nprocs" => cfg.nprocs = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as usize,
            "cfl" => cfg.ctrl.cfl = value.as_f64().ok_or_else(|| bad(key, "a number"))?,
            "compute_ns_per_cell" => {
                cfg.compute_ns_per_cell = value.as_f64().ok_or_else(|| bad(key, "a number"))?
            }
            "account_only" => {
                cfg.account_only = value.as_bool().ok_or_else(|| bad(key, "a boolean"))?
            }
            "blocking_factor" => {
                cfg.grid.blocking_factor = value.as_i64().ok_or_else(|| bad(key, "an integer"))?
            }
            "max_grid_size" => {
                cfg.grid.max_grid_size = value.as_i64().ok_or_else(|| bad(key, "an integer"))?
            }
            "backend" => {
                cfg.backend =
                    BackendSpec::parse(value.as_str().ok_or_else(|| bad(key, "a string"))?)
                        .map_err(SpecError::Parse)?
            }
            "codec" => {
                cfg.codec = CodecSpec::parse(value.as_str().ok_or_else(|| bad(key, "a string"))?)
                    .map_err(SpecError::Parse)?
            }
            "scenario" => {
                cfg.scenario = Some(
                    Scenario::parse(value.as_str().ok_or_else(|| bad(key, "a string"))?)
                        .map_err(SpecError::Parse)?,
                )
            }
            other => {
                return Err(SpecError::Parse(format!("unknown [base] key '{other}'")));
            }
        }
    }
    Ok(cfg)
}

fn parse_axis(key: &str, value: &TomlValue) -> Result<Axis, SpecError> {
    let items = value
        .as_array()
        .ok_or_else(|| SpecError::Parse(format!("axis '{key}' must be an array")))?;
    if items.is_empty() {
        return Err(SpecError::Parse(format!("axis '{key}' is empty")));
    }
    let strings = || -> Result<Vec<&str>, SpecError> {
        items
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| SpecError::Parse(format!("axis '{key}' wants strings")))
            })
            .collect()
    };
    let ints = || -> Result<Vec<i64>, SpecError> {
        items
            .iter()
            .map(|v| {
                v.as_i64()
                    .ok_or_else(|| SpecError::Parse(format!("axis '{key}' wants integers")))
            })
            .collect()
    };
    match key {
        "backend" => Ok(Axis::Backend(
            strings()?
                .into_iter()
                .map(BackendSpec::parse)
                .collect::<Result<_, _>>()
                .map_err(SpecError::Parse)?,
        )),
        "codec" => Ok(Axis::Codec(
            strings()?
                .into_iter()
                .map(CodecSpec::parse)
                .collect::<Result<_, _>>()
                .map_err(SpecError::Parse)?,
        )),
        "mode" => Ok(Axis::Mode(
            strings()?
                .into_iter()
                .map(|s| match s {
                    "write" => Ok(RunMode::Write),
                    "restart" => Ok(RunMode::Restart),
                    other => Err(SpecError::Parse(format!(
                        "unknown mode '{other}' (write, restart)"
                    ))),
                })
                .collect::<Result<_, _>>()?,
        )),
        "pattern" => Ok(Axis::Pattern(
            strings()?
                .into_iter()
                .map(ReadSelection::parse)
                .collect::<Result<_, _>>()
                .map_err(SpecError::Parse)?,
        )),
        "layout" => Ok(Axis::Layout(
            strings()?
                .into_iter()
                .map(|s| match s {
                    "raw" => Ok(Layout::Raw),
                    "reorg" => Ok(Layout::Reorg),
                    other => Err(SpecError::Parse(format!(
                        "unknown layout '{other}' (raw, reorg)"
                    ))),
                })
                .collect::<Result<_, _>>()?,
        )),
        "scenario" => Ok(Axis::Scenario(
            strings()?
                .into_iter()
                .map(Scenario::parse)
                .collect::<Result<_, _>>()
                .map_err(SpecError::Parse)?,
        )),
        "scale" => Ok(Axis::Scale(
            ints()?.into_iter().map(|v| v.max(1) as usize).collect(),
        )),
        "rung" => Ok(Axis::Rung(ints()?)),
        "storage" => Ok(Axis::Storage(
            strings()?
                .into_iter()
                .map(StorageProfile::parse)
                .collect::<Result<_, _>>()
                .map_err(SpecError::Parse)?,
        )),
        "delivery" => Ok(Axis::Delivery(
            strings()?
                .into_iter()
                .map(|s| match s {
                    "storage" => Ok(Delivery::Storage),
                    "stream" => Ok(Delivery::Stream),
                    "deferred" => Ok(Delivery::Deferred),
                    other => Err(SpecError::Parse(format!(
                        "unknown delivery '{other}' (storage, stream, deferred)"
                    ))),
                })
                .collect::<Result<_, _>>()?,
        )),
        other => Err(SpecError::UnknownAxis(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Engine;

    fn base(name: &str) -> CastroSedovConfig {
        CastroSedovConfig {
            name: name.into(),
            ..Default::default()
        }
    }

    #[test]
    fn backend_codec_labels_match_legacy_spellings() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
            .codecs(&[CodecSpec::Identity, CodecSpec::Rle(2.5)])
            .compile()
            .unwrap();
        let labels: Vec<&str> = cells.iter().map(|c| c.config.name.as_str()).collect();
        assert_eq!(
            labels,
            [
                "m_fpp_identity",
                "m_fpp_rle2p5",
                "m_agg4_identity",
                "m_agg4_rle2p5"
            ]
        );
    }

    #[test]
    fn write_mode_is_untagged_and_restart_suffixes() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .backends(&[BackendSpec::FilePerProcess])
            .codecs(&[CodecSpec::Identity])
            .modes(&[RunMode::Write, RunMode::Restart])
            .compile()
            .unwrap();
        assert_eq!(cells[0].config.name, "m_fpp_identity");
        assert!(!cells[0].config.read_after_write);
        assert_eq!(cells[1].config.name, "m_fpp_identity_restart");
        assert!(cells[1].config.read_after_write);
    }

    #[test]
    fn pattern_and_layout_tags_match_analysis_sweep() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .patterns(&[ReadSelection::parse("box:0-1,0-3").unwrap()])
            .layouts(&[Layout::Raw, Layout::Reorg])
            .compile()
            .unwrap();
        assert_eq!(cells[0].config.name, "m_box0to1_0to3_raw");
        assert!(!cells[0].config.reorganize);
        assert_eq!(cells[1].config.name, "m_box0to1_0to3_reorg");
        assert!(cells[1].config.reorganize);
        assert!(cells.iter().all(|c| c.config.analysis_read.is_some()));
    }

    #[test]
    fn zip_advances_axes_in_lockstep() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
            .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)])
            .zip(&["backend", "codec"])
            .compile()
            .unwrap();
        let labels: Vec<&str> = cells.iter().map(|c| c.config.name.as_str()).collect();
        assert_eq!(labels, ["m_fpp_identity", "m_agg4_quant8"]);
    }

    #[test]
    fn excludes_drop_matching_cells_by_canonical_names() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
            .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)])
            .exclude(&[("backend", "agg:4"), ("codec", "quant:8")])
            .compile()
            .unwrap();
        assert_eq!(cells.len(), 3);
        assert!(!cells.iter().any(|c| c.config.name == "m_agg4_quant8"));
    }

    #[test]
    fn label_collisions_are_rejected_naming_both_cells() {
        // Two bases that differ in configuration but not in name: every
        // axis tag is appended to both, so their labels collide cell for
        // cell and the compile must refuse rather than let one cell's
        // results shadow the other's in the store.
        let mut oracle_twin = base("m");
        oracle_twin.engine = Engine::Oracle;
        let err = ExperimentSpec::new("t")
            .base(base("m"))
            .base(oracle_twin)
            .backends(&[BackendSpec::FilePerProcess])
            .codecs(&[CodecSpec::Identity])
            .compile()
            .unwrap_err();
        match &err {
            SpecError::LabelCollision {
                label,
                first,
                second,
            } => {
                assert_eq!(label, "m_fpp_identity");
                assert!(first.contains("base=m"), "{first}");
                assert!(second.contains("backend=fpp"), "{second}");
            }
            other => panic!("expected LabelCollision, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("m_fpp_identity"), "{msg}");
    }

    #[test]
    fn scaling_modes_interpret_the_scale_axis() {
        let mut b = base("s");
        b.nprocs = 4;
        b.n_cell = 64;
        // Strong: ranks vary, problem fixed.
        let strong = ExperimentSpec::new("t")
            .base(b.clone())
            .scales(&[4, 16])
            .scaling(ScalingMode::Strong)
            .compile()
            .unwrap();
        assert_eq!(strong[0].config.name, "s_p4");
        assert_eq!(strong[1].config.name, "s_p16");
        assert_eq!(strong[1].config.nprocs, 16);
        assert_eq!(strong[1].config.n_cell, 64);
        // Weak: cells per rank fixed — 4x ranks doubles n_cell (2-D),
        // snapped to the blocking factor.
        let weak = ExperimentSpec::new("t")
            .base(b.clone())
            .scales(&[4, 16])
            .scaling(ScalingMode::Weak)
            .compile()
            .unwrap();
        assert_eq!(weak[0].config.name, "s_p4w");
        assert_eq!(
            weak[0].config.n_cell, 64,
            "scale == base nprocs is identity"
        );
        assert_eq!(weak[1].config.n_cell, 128);
        assert_eq!(weak[1].config.nprocs, 16);
        assert_eq!(weak[1].config.n_cell % b.grid.blocking_factor, 0);
        // Throughput: tenancy varies, workload fixed.
        let tput = ExperimentSpec::new("t")
            .base(b)
            .scales(&[1, 4])
            .scaling(ScalingMode::Throughput)
            .compile()
            .unwrap();
        assert_eq!(tput[0].config.name, "s_x1");
        assert_eq!(tput[0].tenants, 1);
        assert_eq!(tput[1].config.name, "s_x4");
        assert_eq!(tput[1].tenants, 4);
        assert_eq!(tput[1].config.nprocs, 4, "workload untouched");
    }

    #[test]
    fn rung_and_storage_axes() {
        let cells = ExperimentSpec::new("t")
            .base(base("r"))
            .rungs(&[64, 128])
            .storages(&[
                StorageProfile::Ideal {
                    servers: 8,
                    bandwidth: 2.5e8,
                },
                StorageProfile::Summit { scale: 0.5 },
            ])
            .compile()
            .unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].config.name, "r_n64_ideal82p5e8");
        assert_eq!(cells[3].config.name, "r_n128_summit0p5");
        assert_eq!(cells[3].config.n_cell, 128);
        assert_eq!(
            cells[3].storage,
            Some(StorageProfile::Summit { scale: 0.5 })
        );
        let m = cells[3].storage.unwrap().build();
        assert!(m.nservers >= 1);
    }

    #[test]
    fn cell_keys_are_deterministic_and_content_sensitive() {
        let build = || {
            ExperimentSpec::new("t")
                .base(base("k"))
                .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
                .compile()
                .unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a[0].key, b[0].key, "same cell, same key, every compile");
        assert_ne!(a[0].key, a[1].key, "different cell, different key");
        // The storage half is part of the identity.
        let stored = ExperimentSpec::new("t")
            .base(base("k"))
            .backends(&[BackendSpec::FilePerProcess])
            .storages(&[StorageProfile::Ideal {
                servers: 8,
                bandwidth: 2.5e8,
            }])
            .compile()
            .unwrap();
        assert_ne!(stored[0].key, a[0].key);
    }

    #[test]
    fn delivery_axis_maps_to_canonical_backends() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .deliveries(&[Delivery::Storage, Delivery::Stream, Delivery::Deferred])
            .compile()
            .unwrap();
        let labels: Vec<&str> = cells.iter().map(|c| c.config.name.as_str()).collect();
        assert_eq!(labels, ["m_storage", "m_stream", "m_deferred"]);
        let backends: Vec<String> = cells.iter().map(|c| c.config.backend.name()).collect();
        assert_eq!(backends, ["fpp", "streaming", "deferred:1"]);
        assert!(cells[1].config.backend.in_transit());
    }

    #[test]
    fn delivery_axis_parses_from_toml() {
        let spec = ExperimentSpec::from_toml(
            r#"
            [experiment]
            name = "d"
            [axes]
            delivery = ["storage", "stream"]
            "#,
        )
        .unwrap();
        let cells = spec.compile().unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells[1].config.backend.in_transit());

        let bad = ExperimentSpec::from_toml("[axes]\ndelivery = [\"carrier-pigeon\"]").unwrap_err();
        assert!(bad
            .to_string()
            .contains("unknown delivery 'carrier-pigeon'"));
    }

    #[test]
    fn toml_round_trip_compiles_the_matrix() {
        let spec = ExperimentSpec::from_toml(
            r#"
            [experiment]
            name = "smoke"
            scaling = "strong"

            [base]
            name = "sedov"
            engine = "oracle"
            n_cell = 64
            max_step = 8
            plot_int = 2
            nprocs = 4
            account_only = true

            [axes]
            backend = ["fpp", "agg:4"]
            codec = ["identity", "quant:8"]
            mode = ["write", "restart"]

            [[exclude]]
            backend = "agg:4"
            codec = "quant:8"
            "#,
        )
        .unwrap();
        assert_eq!(spec.name, "smoke");
        let cells = spec.compile().unwrap();
        // 2 x 2 x 2 = 8, minus the excluded agg4+quant8 pair (2 modes).
        assert_eq!(cells.len(), 6);
        assert!(cells
            .iter()
            .any(|c| c.config.name == "sedov_fpp_quant8_restart"));
        assert!(!cells.iter().any(|c| c.config.name.contains("agg4_quant8")));
        assert!(cells.iter().all(|c| c.config.engine == Engine::Oracle));
        assert!(cells.iter().all(|c| c.config.account_only));
    }

    #[test]
    fn toml_zip_and_errors() {
        let spec = ExperimentSpec::from_toml(
            r#"
            [experiment]
            name = "z"
            zip = ["backend+codec"]
            [axes]
            backend = ["fpp", "agg:4"]
            codec = ["identity", "quant:8"]
            "#,
        )
        .unwrap();
        assert_eq!(spec.compile().unwrap().len(), 2);

        assert!(matches!(
            ExperimentSpec::from_toml("[axes]\nghost = [1]").unwrap_err(),
            SpecError::UnknownAxis(_)
        ));
        assert!(ExperimentSpec::from_toml("[base]\nnot_a_field = 3").is_err());
        let unequal = ExperimentSpec::from_toml(
            "[experiment]\nzip = [\"backend+codec\"]\n[axes]\nbackend = [\"fpp\"]\ncodec = [\"identity\", \"rle:2\"]",
        )
        .unwrap();
        assert!(matches!(unequal.compile().unwrap_err(), SpecError::Zip(_)));
        let ghost_zip = ExperimentSpec::from_toml(
            "[experiment]\nzip = [\"backend+ghost\"]\n[axes]\nbackend = [\"fpp\"]",
        )
        .unwrap();
        assert!(matches!(
            ghost_zip.compile().unwrap_err(),
            SpecError::UnknownAxis(_)
        ));
    }

    #[test]
    fn storage_profile_parse_round_trips() {
        for spelling in ["ideal:8:2.5e8", "summit:0.5"] {
            let p = StorageProfile::parse(spelling).unwrap();
            assert_eq!(StorageProfile::parse(&p.name()).unwrap(), p);
        }
        assert!(StorageProfile::parse("summit:1.5").is_err());
        assert!(StorageProfile::parse("lustre:3").is_err());
    }
}
