//! The Table III parameter campaign.
//!
//! The paper performed 47 Summit runs sweeping `amr.n_cell`,
//! `amr.max_level`, `amr.plot_int`, `castro.cfl`, and the task count.
//! This module defines the equivalent 47-run campaign (hydro engine at
//! small scales, oracle at paper scales) and executes it in parallel.

use crate::config::{CastroSedovConfig, Engine};
use crate::run::{run_simulation, run_simulation_attached, RunResult};
use amr_mesh::GridParams;
use hydro::TimestepControl;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Summary of one campaign run (serializable for the figure benches).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Run label.
    pub name: String,
    /// Level-0 cells per direction.
    pub n_cell: i64,
    /// `amr.max_level`.
    pub max_level: usize,
    /// `amr.plot_int`.
    pub plot_int: u64,
    /// `castro.cfl`.
    pub cfl: f64,
    /// Task count.
    pub nprocs: usize,
    /// Engine used.
    pub oracle: bool,
    /// I/O backend the run wrote through (`fpp`, `agg:<r>`, `deferred:<w>`).
    pub backend: String,
    /// Compression codec applied to plot data (`identity`, `rle:<r>`,
    /// `quant:<b>`).
    pub codec: String,
    /// Eq. (1)/(2) cumulative series.
    pub series: Vec<(f64, f64)>,
    /// Total logical bytes the workload produced (backend- and
    /// codec-invariant; the tracker's view).
    pub total_bytes: u64,
    /// Logical payload bytes through the backend plus checkpoint state
    /// (equals `physical_bytes - overhead_bytes` under the identity
    /// codec).
    pub logical_bytes: u64,
    /// Physical bytes shipped to storage (what compression reduces).
    pub physical_bytes: u64,
    /// Declared bookkeeping bytes inside `physical_bytes` (aggregation
    /// index tables, compression sidecars).
    pub overhead_bytes: u64,
    /// Logical output records in the tracker (backend-invariant).
    pub total_files: u64,
    /// Physical files the backend created (what aggregation reduces).
    pub physical_files: u64,
    /// Simulated wall-clock seconds (compute + I/O; 0 without a storage
    /// model).
    pub wall_time: f64,
    /// Modeled codec CPU seconds inside `wall_time`.
    pub codec_seconds: f64,
    /// True when the run restart-read its last dump back (the
    /// read-after-write campaign axis).
    pub restart: bool,
    /// Logical bytes restart-read back (0 for write-only runs;
    /// backend- and codec-invariant).
    pub read_bytes: u64,
    /// Physical bytes fetched from storage during the restart read
    /// (what compression and aggregation shrink).
    pub physical_read_bytes: u64,
    /// Simulated seconds of the restart-read phase (inside `wall_time`).
    pub read_wall: f64,
    /// Selective analysis-read pattern of the run (`none` without one;
    /// otherwise the `ReadSelection` spelling: `level:1`, `field:...`,
    /// `box:...`, `full`).
    pub read_pattern: String,
    /// True when the analysis read was served from the reorganized
    /// (read-optimized) layout instead of the raw written one.
    pub reorganized: bool,
    /// Logical bytes the selective analysis read delivered (layout- and
    /// codec-invariant: the matched chunks' logical volume).
    pub selective_read_bytes: u64,
    /// Physical bytes the selective analysis read fetched — the column
    /// the raw-vs-reorganized comparison prices.
    pub selective_physical_read_bytes: u64,
    /// Simulated seconds of the selective analysis read (inside
    /// `wall_time`; excludes the reorganization pass).
    pub selective_read_wall: f64,
    /// Simulated seconds of the reorganization pass itself (0 for raw
    /// runs) — what selective-read savings must amortize.
    pub reorg_wall: f64,
    /// Canonical spelling of the scenario the run executed (`write`,
    /// `write;restart`, `write;check@4;fail@10;restart`, ...).
    pub scenario: String,
    /// Restart reads performed (mid-run recoveries + trailing reads).
    pub restarts: u32,
    /// Physical bytes of checkpoint dumps inside `physical_bytes` (the
    /// checkpoint plane is priced through the same backend/codec stack
    /// but reported separately from plot totals).
    pub check_bytes: u64,
    /// Physical files of checkpoint dumps inside `physical_files`.
    pub check_files: u64,
    /// Simulated seconds of checkpoint bursts (inside `wall_time`).
    pub check_wall: f64,
    /// Simulated seconds of compute phases (inside `wall_time`; includes
    /// compute re-paid after mid-run restarts).
    pub compute_wall: f64,
    /// Simulated seconds of plot-dump bursts on the application clock.
    pub plot_wall: f64,
    /// Simulated seconds the closing flush barrier waited on drains.
    pub drain_wall: f64,
    /// Tenant index on the shared fabric (0 for solo runs; defaulted so
    /// pre-tenancy summary blobs still deserialize).
    #[serde(default)]
    pub tenant: usize,
    /// Tenants sharing the fabric during this run (1 for solo runs).
    #[serde(default)]
    pub tenants: usize,
    /// Wall the same workload would have taken alone on the same
    /// storage (equals `wall_time` for solo runs; 0 in pre-tenancy
    /// blobs).
    #[serde(default)]
    pub solo_wall: f64,
    /// `wall_time / solo_wall` — the interference slowdown (1.0 solo).
    #[serde(default)]
    pub slowdown: f64,
    /// Simulated seconds lost to other tenants' traffic (fair share
    /// below solo rate).
    #[serde(default)]
    pub contention_stall: f64,
    /// Simulated seconds lost to this tenant's own QoS cap (rate below
    /// fair share).
    #[serde(default)]
    pub throttle_stall: f64,
    /// Simulated seconds bursts waited for shared burst-buffer space.
    #[serde(default)]
    pub staging_wait: f64,
    /// Bytes shipped over the modeled interconnect instead of storage
    /// (in-transit streaming backends only; defaulted so pre-streaming
    /// summary blobs still deserialize).
    #[serde(default)]
    pub net_bytes: u64,
    /// Link-transfer seconds for `net_bytes` (inside
    /// `plot_wall`/`check_wall`).
    #[serde(default)]
    pub net_wall: f64,
    /// Producer seconds stalled on consumer-window back-pressure
    /// (disjoint from `net_wall`; the streaming twin of `staging_wait`).
    #[serde(default)]
    pub window_stall: f64,
}

impl RunSummary {
    fn from_result(r: &RunResult) -> Self {
        let xy = r.xy_series();
        // The read-plane columns derive from the *effective* scenario,
        // so scenario-first configs and legacy boolean configs report
        // identically.
        let scenario = r.config.effective_scenario();
        let analyze = scenario.ops.iter().find_map(|op| match op {
            io_engine::ScenarioOp::Analyze { sel, reorganize }
            | io_engine::ScenarioOp::AnalyzeEvery {
                sel, reorganize, ..
            } => Some((sel.clone(), *reorganize)),
            _ => None,
        });
        Self {
            name: r.config.name.clone(),
            n_cell: r.config.n_cell,
            max_level: r.config.max_level,
            plot_int: r.config.plot_int,
            cfl: r.config.cfl(),
            nprocs: r.config.nprocs,
            oracle: r.config.engine == Engine::Oracle,
            backend: r.config.backend.name(),
            codec: r.config.codec.name(),
            series: xy.points.iter().map(|p| (p.x, p.y)).collect(),
            total_bytes: xy.final_bytes() as u64,
            logical_bytes: r.logical_bytes,
            physical_bytes: r.physical_bytes,
            overhead_bytes: r.overhead_bytes,
            total_files: r.tracker.total_files(),
            physical_files: r.files_written,
            wall_time: r.wall_time,
            codec_seconds: r.codec_seconds,
            restart: r.restarts > 0,
            read_bytes: r.read_bytes,
            physical_read_bytes: r.physical_read_bytes,
            read_wall: r.read_wall,
            read_pattern: analyze
                .as_ref()
                .map_or_else(|| "none".to_string(), |(sel, _)| sel.name()),
            // Reorganization only runs as part of an analysis read; a
            // config with the flag set but no pattern rewrote nothing.
            reorganized: analyze.as_ref().is_some_and(|(_, reorg)| *reorg),
            selective_read_bytes: r.selective_read_bytes,
            selective_physical_read_bytes: r.selective_physical_read_bytes,
            selective_read_wall: r.selective_read_wall,
            reorg_wall: r.reorg_wall,
            scenario: r.scenario.clone(),
            restarts: r.restarts,
            check_bytes: r.check_bytes,
            check_files: r.check_files,
            check_wall: r.check_wall,
            compute_wall: r.compute_wall,
            plot_wall: r.plot_wall,
            drain_wall: r.drain_wall,
            // Solo tenancy defaults; the fabric runners overlay the
            // shared-fabric columns (`set_tenancy`) after the run.
            tenant: 0,
            tenants: 1,
            solo_wall: r.wall_time,
            slowdown: 1.0,
            contention_stall: 0.0,
            throttle_stall: 0.0,
            staging_wait: 0.0,
            net_bytes: r.net_bytes,
            net_wall: r.net_wall,
            window_stall: r.window_stall,
        }
    }

    /// Overlays one tenant's shared-fabric columns onto a summary of its
    /// run: `tenants` sharing the fabric, plus the solo wall, slowdown,
    /// and stall attribution from the tenant's `stats`.
    fn set_tenancy(&mut self, stats: &iosim::TenantStats, tenants: usize) {
        self.tenant = stats.tenant;
        self.tenants = tenants;
        self.solo_wall = stats.solo_wall;
        self.slowdown = stats.slowdown();
        self.contention_stall = stats.contention_stall;
        self.throttle_stall = stats.throttle_stall;
        self.staging_wait = stats.staging_wait;
    }

    /// Wall-clock seconds per level-0 cell — the per-cell cost metric the
    /// backend × codec sweeps report.
    pub fn wall_per_cell(&self) -> f64 {
        self.wall_time / (self.n_cell as f64 * self.n_cell as f64)
    }

    /// Achieved compression ratio on payload bytes (logical / physical
    /// net of declared bookkeeping; exactly 1.0 for identity, whatever
    /// the backend's index overhead).
    pub fn compression_ratio(&self) -> f64 {
        let payload = self.physical_bytes - self.overhead_bytes;
        if payload == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / payload as f64
        }
    }
}

/// Builds the 47-run campaign of Table III.
///
/// Scales and ranks follow the paper's ladder (32^2 on 1 task up to
/// 8192^2 on the equivalent of 64 nodes); the paper's two largest
/// configurations (17 G cells) are represented by the 8192^2 oracle runs,
/// as documented in DESIGN.md.
pub fn table3_campaign() -> Vec<CastroSedovConfig> {
    let mut runs = Vec::new();
    let grid = GridParams {
        ref_ratio: 2,
        blocking_factor: 8,
        max_grid_size: 256,
        n_error_buf: 2,
        grid_eff: 0.7,
    };
    // (n_cell, nprocs, engine) ladder.
    let ladder: &[(i64, usize, Engine)] = &[
        (32, 1, Engine::Hydro),
        (64, 2, Engine::Hydro),
        (128, 4, Engine::Hydro),
        (256, 8, Engine::Hydro),
        (512, 32, Engine::Oracle),
        (1024, 64, Engine::Oracle),
        (2048, 128, Engine::Oracle),
        (4096, 512, Engine::Oracle),
        (8192, 1024, Engine::Oracle),
    ];
    let mut push = |n: i64, p: usize, e: Engine, maxl: usize, cfl: f64, plot_int: u64| {
        let max_grid = grid.max_grid_size.min(n.max(grid.blocking_factor));
        // The hydro engine needs Castro's protective ramp but a faster one
        // than init_shrink=0.01 so the blast ignites within the campaign's
        // step budget; the oracle starts CFL-limited (see cases.rs).
        let ctrl = match e {
            Engine::Hydro => TimestepControl {
                cfl,
                init_shrink: 0.5,
                change_max: 1.4,
            },
            Engine::Oracle => TimestepControl {
                cfl,
                init_shrink: 1.0,
                change_max: 1.1,
            },
        };
        runs.push(CastroSedovConfig {
            name: format!("n{n}_p{p}_l{maxl}_cfl{cfl}_pi{plot_int}"),
            engine: e,
            n_cell: n,
            max_level: maxl,
            max_step: 120,
            stop_time: 0.5,
            plot_int,
            regrid_int: 2,
            grid: GridParams {
                max_grid_size: max_grid,
                ..grid
            },
            nprocs: p,
            ctrl,
            account_only: true,
            ..Default::default()
        });
    };
    // Base sweep: every rung at the Listing 2 defaults.
    for &(n, p, e) in ladder {
        push(n, p, e, 2, 0.5, 2);
    }
    // Level sweep on the middle rungs (the Fig. 6 driver).
    for &(n, p, e) in &ladder[2..7] {
        for maxl in [3, 4] {
            push(n, p, e, maxl, 0.5, 2);
        }
    }
    // CFL sweep (Table III range 0.3-0.6; the smallest rung keeps only
    // the extremes, which is what lands the campaign at 47 runs).
    for &(n, p, e) in &ladder[2..7] {
        for cfl in [0.3, 0.4, 0.6] {
            if n == 128 && cfl == 0.4 {
                continue;
            }
            push(n, p, e, 2, cfl, 2);
        }
    }
    // Output-frequency sweep (plot_int 1-20).
    for &(n, p, e) in &ladder[3..7] {
        for pi in [1, 5, 20] {
            push(n, p, e, 2, 0.5, pi);
        }
    }
    // The paper's heavy pivot combinations (case4/case27 relatives).
    push(512, 32, Engine::Oracle, 4, 0.4, 1);
    push(1024, 64, Engine::Oracle, 3, 0.5, 10);
    debug_assert_eq!(runs.len(), 47, "Table III count");
    runs
}

/// Runs a set of configurations in parallel (the rayon stand-in fans
/// the work across threads), returning summaries in the input order.
/// With a `storage` model every run is timed against it, so summaries
/// carry comparable wall-clock times (the backend axis's dependent
/// variable); without one, runs are untimed. Deterministic: identical
/// to [`run_campaign_serial`] / [`run_campaign_timed_serial`] on the
/// same configs, pinned by a test.
pub fn run_campaign(
    configs: &[CastroSedovConfig],
    storage: Option<&iosim::StorageModel>,
) -> Vec<RunSummary> {
    configs
        .par_iter()
        .map(|cfg| RunSummary::from_result(&run_simulation(cfg, None, storage)))
        .collect()
}

/// Sequential reference implementation of untimed [`run_campaign`]
/// (debugging, and the determinism oracle for the parallel path).
pub fn run_campaign_serial(configs: &[CastroSedovConfig]) -> Vec<RunSummary> {
    configs
        .iter()
        .map(|cfg| RunSummary::from_result(&run_simulation(cfg, None, None)))
        .collect()
}

/// Sequential reference implementation of [`run_campaign`] timed
/// against `storage`.
pub fn run_campaign_timed_serial(
    configs: &[CastroSedovConfig],
    storage: &iosim::StorageModel,
) -> Vec<RunSummary> {
    configs
        .iter()
        .map(|cfg| RunSummary::from_result(&run_simulation(cfg, None, Some(storage))))
        .collect()
}

/// Runs a set of configurations *concurrently* against one shared
/// storage fabric — the machine-room campaign. Every config becomes a
/// tenant on the fabric (registration order = input order), all runs
/// overlap in simulated time, and the returned summaries carry the
/// tenancy columns: shared wall (`wall_time`), the exact solo wall the
/// same workload would have taken alone (`solo_wall`), their ratio
/// (`slowdown`), and the stall attribution split between neighbour
/// traffic (`contention_stall`) and the tenant's own QoS cap
/// (`throttle_stall`).
///
/// `qos` assigns per-tenant policies positionally; missing entries get
/// the fair default. `staging_bytes` bounds a shared burst-buffer pool
/// for deferred-backend tenants (`None` = unbounded).
///
/// Tenants run on `std::thread::scope` natives rather than rayon
/// tasks: a tenant blocks inside the shared event engine while other
/// tenants make progress, and parking a rayon worker on that condvar
/// could starve the pool that is supposed to run the peers.
pub fn run_campaign_fabric(
    configs: &[CastroSedovConfig],
    storage: &iosim::StorageModel,
    staging_bytes: Option<u64>,
    qos: &[iosim::QosPolicy],
) -> Vec<RunSummary> {
    run_campaign_fabric_linked(configs, storage, staging_bytes, qos, None)
}

/// [`run_campaign_fabric`] with a shared interconnect: streamed
/// (in-transit) tenants split `link`'s bandwidth evenly — the network
/// twin of stored tenants sharing the servers — while stored tenants
/// never touch it. Without a link, streamed tenants keep the solo link
/// their own backend spec configured.
pub fn run_campaign_fabric_linked(
    configs: &[CastroSedovConfig],
    storage: &iosim::StorageModel,
    staging_bytes: Option<u64>,
    qos: &[iosim::QosPolicy],
    link: Option<mpi_sim::NetworkModel>,
) -> Vec<RunSummary> {
    if configs.is_empty() {
        return Vec::new();
    }
    let mut fabric = iosim::Fabric::new(*storage);
    if let Some(bytes) = staging_bytes {
        fabric = fabric.with_staging(bytes);
    }
    if let Some(net) = link {
        fabric = fabric.with_link(net);
        fabric.set_stream_tenants(configs.iter().filter(|c| c.backend.in_transit()).count());
    }
    // Register every tenant before the first burst (the fabric's
    // conservative clock needs the full quorum up front).
    let handles: Vec<iosim::FabricHandle> = configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| fabric.tenant_with(&cfg.name, qos.get(i).copied().unwrap_or_default()))
        .collect();
    let mut summaries: Vec<RunSummary> = std::thread::scope(|s| {
        let joins: Vec<_> = configs
            .iter()
            .zip(handles)
            .map(|(cfg, handle)| {
                s.spawn(move || {
                    RunSummary::from_result(&run_simulation_attached(
                        cfg,
                        None,
                        iosim::StorageAttach::Fabric(handle),
                    ))
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("fabric tenant run panicked"))
            .collect()
    });
    for (summary, stats) in summaries.iter_mut().zip(fabric.tenant_stats()) {
        summary.set_tenancy(&stats, configs.len());
    }
    summaries
}

/// [`run_campaign_fabric`] specialized to *identical clones* — the
/// throughput-scaling cells, N copies of one configuration differing
/// only in display name. Instead of N application runs on N native
/// threads, the single real run drives a clone group
/// ([`iosim::Fabric::tenant_clones`]): the engine synthesizes the
/// mirrors' traffic, prices contention over the full N-tenant job set,
/// and the clones' summaries are composed from the real run plus each
/// mirror slot's stats. Clone symmetry makes this bit-identical to the
/// threaded fleet (request paths and noise draws are independent of the
/// display name), which the spec-parallel property tests pin against
/// [`run_campaign_fabric`].
///
/// # Panics
/// Panics if `configs` are not identical modulo `name` — the caller
/// (the spec executor) constructs them as clones by definition.
pub fn run_campaign_fabric_cloned(
    configs: &[CastroSedovConfig],
    storage: &iosim::StorageModel,
) -> Vec<RunSummary> {
    if configs.is_empty() {
        return Vec::new();
    }
    assert!(
        configs.iter().all(|c| {
            let mut normalized = c.clone();
            normalized.name.clone_from(&configs[0].name);
            normalized == configs[0]
        }),
        "run_campaign_fabric_cloned: configs must be identical modulo name"
    );
    let fabric = iosim::Fabric::new(*storage);
    let names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
    // One real application run; the mirror slots' traffic and stats are
    // synthesized inside the engine. No threads: with every mirror seat
    // permanently parked, the lone real tenant always holds the quorum
    // and the engine advances inline.
    let real = RunSummary::from_result(&run_simulation_attached(
        &configs[0],
        None,
        iosim::StorageAttach::Fabric(fabric.tenant_clones(&names)),
    ));
    configs
        .iter()
        .zip(fabric.tenant_stats())
        .map(|(cfg, stats)| {
            let mut summary = real.clone();
            summary.name.clone_from(&cfg.name);
            summary.set_tenancy(&stats, configs.len());
            summary
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExperimentSpec, Layout, RunMode};
    use io_engine::{BackendSpec, CodecSpec, ReadSelection, Scenario};

    #[test]
    fn campaign_has_exactly_47_runs() {
        assert_eq!(table3_campaign().len(), 47);
    }

    #[test]
    fn campaign_covers_table3_ranges() {
        let runs = table3_campaign();
        let ncells: Vec<i64> = runs.iter().map(|r| r.n_cell).collect();
        assert!(ncells.contains(&32));
        assert!(ncells.contains(&8192));
        let cfls: Vec<f64> = runs.iter().map(|r| r.ctrl.cfl).collect();
        assert!(cfls.contains(&0.3));
        assert!(cfls.contains(&0.6));
        let pis: Vec<u64> = runs.iter().map(|r| r.plot_int).collect();
        assert!(pis.contains(&1));
        assert!(pis.contains(&20));
        let nprocs: Vec<usize> = runs.iter().map(|r| r.nprocs).collect();
        assert!(nprocs.contains(&1));
        assert!(nprocs.contains(&1024));
        let levels: Vec<usize> = runs.iter().map(|r| r.max_level).collect();
        assert!(levels.contains(&2));
        assert!(levels.contains(&4));
    }

    #[test]
    fn run_names_are_unique() {
        let runs = table3_campaign();
        let mut names: Vec<String> = runs.iter().map(|r| r.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), runs.len());
    }

    #[test]
    fn backend_axis_is_a_scenario_matrix() {
        let base = vec![
            CastroSedovConfig {
                name: "a".into(),
                ..Default::default()
            },
            CastroSedovConfig {
                name: "b".into(),
                ..Default::default()
            },
        ];
        let backends = [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(4),
            BackendSpec::Deferred(1),
        ];
        let matrix = ExperimentSpec::over("m", &base)
            .backends(&backends)
            .compile_configs()
            .unwrap();
        assert_eq!(matrix.len(), 6);
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6, "scenario names stay unique");
        assert!(matrix
            .iter()
            .any(|c| c.backend == BackendSpec::Aggregated(4)));
        assert!(matrix.iter().any(|c| c.name == "a_agg4"));
    }

    #[test]
    fn streamed_tenant_attributes_stall_to_the_window_not_contention() {
        // A lone streamed tenant on a linked fabric: the slow consumer
        // (10 MB/s behind the shared 100 MB/s link) stalls the producer,
        // and the stall lands in `window_stall` — never in the fabric's
        // `contention_stall`, which belongs to server-plane neighbours.
        let cfg = CastroSedovConfig {
            name: "streamed".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 8,
            plot_int: 2,
            nprocs: 4,
            account_only: true,
            backend: BackendSpec::parse("streaming:100:1:10").unwrap(),
            ..Default::default()
        };
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let link = mpi_sim::NetworkModel::ideal(100e6);
        let summaries = run_campaign_fabric_linked(&[cfg], &storage, None, &[], Some(link));
        let s = &summaries[0];
        assert!(s.net_bytes > 0, "the run streamed");
        assert!(s.net_wall > 0.0);
        assert!(s.window_stall > 0.0, "slow consumer must back-pressure");
        assert_eq!(s.contention_stall, 0.0, "no server-plane neighbours");
        assert_eq!(s.physical_bytes, 0, "nothing reached the servers");
    }

    #[test]
    fn backend_axis_preserves_byte_totals_and_orders_wall_clock() {
        let base = CastroSedovConfig {
            name: "axis".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 8,
            plot_int: 2,
            nprocs: 4,
            account_only: true,
            compute_ns_per_cell: 40_000.0,
            ..Default::default()
        };
        let matrix = ExperimentSpec::over("axis", &[base])
            .backends(&[
                BackendSpec::FilePerProcess,
                BackendSpec::Aggregated(4),
                BackendSpec::Deferred(1),
            ])
            .compile_configs()
            .unwrap();
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries = run_campaign(&matrix, Some(&storage));
        // The workload's byte accounting is backend-invariant.
        assert_eq!(summaries[0].total_bytes, summaries[1].total_bytes);
        assert_eq!(summaries[0].total_bytes, summaries[2].total_bytes);
        // Deferred overlaps drains with compute: strictly less wall-clock
        // than the synchronous N-to-N run of the same byte volume.
        let fpp = summaries[0].wall_time;
        let deferred = summaries[2].wall_time;
        assert!(deferred < fpp, "deferred {deferred} must beat fpp {fpp}");
    }

    #[test]
    fn backend_codec_axes_are_the_full_matrix() {
        let base = vec![CastroSedovConfig {
            name: "m".into(),
            ..Default::default()
        }];
        let backends = [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(4),
            BackendSpec::Deferred(1),
        ];
        let codecs = [
            CodecSpec::Identity,
            CodecSpec::Rle(2.0),
            CodecSpec::LossyQuant(8),
        ];
        let matrix = ExperimentSpec::over("m", &base)
            .backends(&backends)
            .codecs(&codecs)
            .compile_configs()
            .unwrap();
        assert_eq!(matrix.len(), 9);
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9, "scenario names stay unique");
        // Fractional codec parameters stay distinguishable in names.
        let tricky = ExperimentSpec::over("m", &base)
            .backends(&[BackendSpec::FilePerProcess])
            .codecs(&[CodecSpec::Rle(2.1), CodecSpec::Rle(21.0)])
            .compile_configs()
            .unwrap();
        assert_ne!(tricky[0].name, tricky[1].name, "{:?}", tricky[0].name);
        assert!(matrix.iter().any(
            |c| c.backend == BackendSpec::Aggregated(4) && c.codec == CodecSpec::LossyQuant(8)
        ));
        // The identity column matches the backend axis's spelling convention.
        assert!(matrix.iter().any(|c| c.name == "m_fpp_identity"));
    }

    #[test]
    fn codec_axis_reduces_physical_bytes_and_wall_clock() {
        // The acceptance slice: 3 backends x 3 codecs on the Sedov case,
        // reporting physical bytes, logical bytes, and wall-clock.
        let base = CastroSedovConfig {
            name: "sedov".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 8,
            plot_int: 2,
            nprocs: 4,
            account_only: true,
            compute_ns_per_cell: 40_000.0,
            ..Default::default()
        };
        let matrix = ExperimentSpec::over("sedov", &[base])
            .backends(&[
                BackendSpec::FilePerProcess,
                BackendSpec::Aggregated(4),
                BackendSpec::Deferred(1),
            ])
            .codecs(&[
                CodecSpec::Identity,
                CodecSpec::Rle(2.0),
                CodecSpec::LossyQuant(8),
            ])
            .compile_configs()
            .unwrap();
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries = run_campaign(&matrix, Some(&storage));
        assert_eq!(summaries.len(), 9);
        // Logical accounting is invariant across the whole matrix, and
        // physical payload bytes (net of declared bookkeeping) never
        // exceed logical bytes.
        for s in &summaries {
            assert_eq!(s.total_bytes, summaries[0].total_bytes, "{}", s.name);
            assert!(
                s.physical_bytes - s.overhead_bytes <= s.logical_bytes,
                "{}",
                s.name
            );
            assert!(s.wall_per_cell() > 0.0);
        }
        // LossyQuant strictly reduces physical bytes and wall-clock vs
        // identity on every backend.
        for backend in ["fpp", "agg:4", "deferred:1"] {
            let of = |codec: &str| {
                summaries
                    .iter()
                    .find(|s| s.backend == backend && s.codec == codec)
                    .unwrap_or_else(|| panic!("{backend}/{codec} present"))
            };
            let id = of("identity");
            let quant = of("quant:8");
            assert_eq!(
                id.physical_bytes - id.overhead_bytes,
                id.logical_bytes,
                "identity is 1:1 on payload bytes"
            );
            assert!(
                quant.physical_bytes < id.physical_bytes,
                "{backend}: quant {} must beat identity {}",
                quant.physical_bytes,
                id.physical_bytes
            );
            assert!(
                quant.wall_time < id.wall_time,
                "{backend}: quant {} s must beat identity {} s",
                quant.wall_time,
                id.wall_time
            );
            assert!(quant.codec_seconds > 0.0);
            assert!(quant.compression_ratio() > 3.0, "{backend}");
        }
    }

    #[test]
    fn restart_axes_cross_the_full_cube() {
        let base = vec![CastroSedovConfig {
            name: "m".into(),
            ..Default::default()
        }];
        let backends = [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(4),
            BackendSpec::Deferred(1),
        ];
        let codecs = [
            CodecSpec::Identity,
            CodecSpec::Rle(2.0),
            CodecSpec::LossyQuant(8),
        ];
        let matrix = ExperimentSpec::over("m", &base)
            .backends(&backends)
            .codecs(&codecs)
            .modes(&[RunMode::Write, RunMode::Restart])
            .compile_configs()
            .unwrap();
        assert_eq!(matrix.len(), 18, "3 backends x 3 codecs x 2 modes");
        assert_eq!(matrix.iter().filter(|c| c.read_after_write).count(), 9);
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 18, "scenario names stay unique");
        assert!(matrix
            .iter()
            .any(|c| c.name == "m_agg4_quant8_restart" && c.read_after_write));
    }

    #[test]
    fn restart_axis_prices_recovery_reads() {
        let base = CastroSedovConfig {
            name: "rst".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 6,
            plot_int: 2,
            nprocs: 4,
            account_only: true,
            compute_ns_per_cell: 40_000.0,
            ..Default::default()
        };
        let matrix = ExperimentSpec::over("rst", &[base])
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
            .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)])
            .modes(&[RunMode::Write, RunMode::Restart])
            .compile_configs()
            .unwrap();
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries = run_campaign(&matrix, Some(&storage));
        for s in &summaries {
            if s.restart {
                assert!(s.read_bytes > 0, "{}", s.name);
                assert!(s.read_wall > 0.0, "{}", s.name);
                assert!(s.physical_read_bytes > 0, "{}", s.name);
            } else {
                assert_eq!(s.read_bytes, 0, "{}", s.name);
                assert_eq!(s.read_wall, 0.0, "{}", s.name);
            }
        }
        // Logical read bytes are backend- and codec-invariant; physical
        // read bytes shrink under compression (restart reads less wire).
        let restarts: Vec<_> = summaries.iter().filter(|s| s.restart).collect();
        assert!(restarts
            .windows(2)
            .all(|w| w[0].read_bytes == w[1].read_bytes));
        let of = |backend: &str, codec: &str| {
            restarts
                .iter()
                .find(|s| s.backend == backend && s.codec == codec)
                .copied()
                .unwrap_or_else(|| panic!("{backend}/{codec}"))
        };
        for b in ["fpp", "agg:4"] {
            let id = of(b, "identity");
            let q = of(b, "quant:8");
            assert!(
                q.physical_read_bytes < id.physical_read_bytes,
                "{b}: compressed restart fetches less wire"
            );
            assert!(q.read_wall < id.read_wall, "{b}: and finishes faster");
            // Decode CPU lands in codec_seconds next to the encode cost.
            let q_write = summaries
                .iter()
                .find(|s| !s.restart && s.backend == b && s.codec == "quant:8")
                .unwrap();
            assert!(
                q.codec_seconds > q_write.codec_seconds,
                "{b}: restart adds decode CPU to codec_seconds"
            );
        }
    }

    #[test]
    fn analysis_axes_cross_patterns_and_layouts() {
        let base = vec![CastroSedovConfig {
            name: "m".into(),
            ..Default::default()
        }];
        let backends = [BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)];
        let codecs = [CodecSpec::Identity, CodecSpec::LossyQuant(8)];
        let patterns = [
            ReadSelection::Level(1),
            ReadSelection::parse("box:0-1,0-3").unwrap(),
        ];
        let matrix = ExperimentSpec::over("m", &base)
            .backends(&backends)
            .codecs(&codecs)
            .patterns(&patterns)
            .layouts(&[Layout::Raw, Layout::Reorg])
            .compile_configs()
            .unwrap();
        assert_eq!(matrix.len(), 2 * 2 * 2 * 2, "b x c x pattern x layout");
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), matrix.len(), "scenario names stay unique");
        assert!(matrix
            .iter()
            .any(|c| c.name == "m_agg4_quant8_level1_reorg" && c.reorganize));
        assert!(matrix
            .iter()
            .any(|c| c.name == "m_fpp_identity_box0to1_0to3_raw"));
        assert!(matrix
            .iter()
            .all(|c| c.analysis_read.is_some() && !c.read_after_write));

        // Lossy tag flattening must not collapse distinct patterns into
        // one scenario name: colliding tags are index-disambiguated.
        let colliding = ExperimentSpec::over("m", &base)
            .backends(&[BackendSpec::FilePerProcess])
            .codecs(&[CodecSpec::Identity])
            .patterns(&[
                ReadSelection::Field("a,b".into()),
                ReadSelection::Field("a.b".into()),
            ])
            .layouts(&[Layout::Raw, Layout::Reorg])
            .compile_configs()
            .unwrap();
        let mut names: Vec<String> = colliding.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), colliding.len(), "{names:?}");
    }

    #[test]
    fn reorganized_column_requires_an_analysis_read() {
        // A config with the reorganize flag but no analysis pattern
        // rewrites nothing; the summary must not claim it did.
        let cfg = CastroSedovConfig {
            name: "noop".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 4,
            plot_int: 2,
            nprocs: 2,
            account_only: true,
            reorganize: true,
            ..Default::default()
        };
        let s = &run_campaign(&[cfg], None)[0];
        assert!(!s.reorganized);
        assert_eq!(s.read_pattern, "none");
        assert_eq!(s.reorg_wall, 0.0);
    }

    #[test]
    fn analysis_axis_prices_reorganization_against_selective_reads() {
        // The acceptance slice at campaign level: on the aggregated
        // backend, a by-level analysis read of the reorganized layout
        // fetches strictly fewer physical bytes and strictly less wall
        // than the same selection on the raw layout — and the logical
        // volume delivered is layout-invariant.
        let base = CastroSedovConfig {
            name: "ana".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 6,
            plot_int: 2,
            nprocs: 4,
            account_only: true,
            compute_ns_per_cell: 40_000.0,
            ..Default::default()
        };
        let matrix = ExperimentSpec::over("ana", &[base])
            .backends(&[BackendSpec::Aggregated(2)])
            .codecs(&[CodecSpec::Identity])
            .patterns(&[ReadSelection::Level(1)])
            .layouts(&[Layout::Raw, Layout::Reorg])
            .compile_configs()
            .unwrap();
        // Bandwidth-bound storage (one server class): wall tracks bytes
        // moved + files opened. On wide stripes the raw layout's scatter
        // can buy parallelism back — the reorg module docs call out that
        // trade; here we pin the volume/open-count win.
        let storage = iosim::StorageModel {
            open_latency: 1e-3,
            ..iosim::StorageModel::ideal(1, 5e7)
        };
        let summaries = run_campaign(&matrix, Some(&storage));
        assert_eq!(summaries.len(), 2);
        let raw = summaries.iter().find(|s| !s.reorganized).unwrap();
        let opt = summaries.iter().find(|s| s.reorganized).unwrap();
        assert_eq!(raw.read_pattern, "level:1");
        assert!(raw.selective_read_bytes > 0);
        assert_eq!(raw.selective_read_bytes, opt.selective_read_bytes);
        assert!(
            opt.selective_physical_read_bytes < raw.selective_physical_read_bytes,
            "reorg {} must fetch less than raw {}",
            opt.selective_physical_read_bytes,
            raw.selective_physical_read_bytes
        );
        assert!(
            opt.selective_read_wall < raw.selective_read_wall,
            "reorg {} s must beat raw {} s",
            opt.selective_read_wall,
            raw.selective_read_wall
        );
        // The rewrite itself is priced, not free.
        assert!(opt.reorg_wall > 0.0);
        assert_eq!(raw.reorg_wall, 0.0);
    }

    #[test]
    fn scenario_axis_crosses_configs_and_scenarios() {
        let base = vec![CastroSedovConfig {
            name: "m".into(),
            ..Default::default()
        }];
        let scenarios = [
            Scenario::write_only(),
            Scenario::parse("write;check@4;fail@10;restart").unwrap(),
            Scenario::in_run_analysis(2, ReadSelection::Level(1)),
        ];
        let matrix = ExperimentSpec::over("m", &base)
            .scenarios(&scenarios)
            .compile_configs()
            .unwrap();
        assert_eq!(matrix.len(), 3);
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 3, "scenario names stay unique");
        assert!(matrix.iter().all(|c| c.scenario.is_some()));
        assert!(matrix.iter().any(|c| c.name == "m_write"));
        assert!(matrix
            .iter()
            .any(|c| c.name == "m_write_check4_fail10_restart"));

        // Lossy tag flattening must not collapse distinct scenarios.
        let colliding = ExperimentSpec::over("m", &base)
            .scenarios(&[
                Scenario::parse("write;analyze:field:a,b").unwrap(),
                Scenario::parse("write;analyze:field:a.b").unwrap(),
            ])
            .compile_configs()
            .unwrap();
        let mut names: Vec<String> = colliding.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), colliding.len(), "{names:?}");

        // Regression: a disambiguating rename must not collide with a
        // *third* scenario whose flattening already looks renamed
        // (field `xy_s1` flattens to exactly what `xy`'s rename
        // produces). The dedup iterates to a fixed point.
        let adversarial = ExperimentSpec::over("m", &base)
            .scenarios(&[
                Scenario::parse("write;analyze:field:xy").unwrap(),
                Scenario::parse("write;analyze:field:x.y").unwrap(),
                Scenario::parse("write;analyze:field:xy_s1").unwrap(),
            ])
            .compile_configs()
            .unwrap();
        let mut names: Vec<String> = adversarial.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), adversarial.len(), "{names:?}");
    }

    #[test]
    fn scenario_axis_prices_failures_and_in_run_analysis() {
        // The tentpole acceptance at campaign level: one base workload
        // crossed with three scenario shapes, each summary carrying the
        // scenario spelling and its per-phase walls.
        let base = CastroSedovConfig {
            name: "sc".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 12,
            plot_int: 4,
            nprocs: 4,
            account_only: true,
            compute_ns_per_cell: 40_000.0,
            ..Default::default()
        };
        let matrix = ExperimentSpec::over("sc", &[base])
            .scenarios(&[
                Scenario::write_only(),
                Scenario::parse("write;check@4;fail@10;restart").unwrap(),
                Scenario::in_run_analysis(2, ReadSelection::Level(1)),
            ])
            .compile_configs()
            .unwrap();
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries = run_campaign(&matrix, Some(&storage));
        let clean = &summaries[0];
        let failed = &summaries[1];
        let insitu = &summaries[2];
        assert_eq!(clean.scenario, "write");
        assert_eq!(clean.restarts, 0);
        assert_eq!(failed.scenario, "write;check@4;fail@10;restart");
        // The failure re-pays compute and the recovery read, on top of
        // the checkpoint cadence's own write cost.
        assert_eq!(failed.restarts, 1);
        assert!(failed.check_bytes > 0);
        assert!(failed.check_wall > 0.0);
        assert!(failed.compute_wall > clean.compute_wall);
        assert!(failed.read_bytes > 0);
        assert!(failed.wall_time > clean.wall_time);
        // In-run analysis pays selective reads between writes; the
        // write plane stays untouched.
        assert_eq!(insitu.total_bytes, clean.total_bytes);
        assert!(insitu.selective_read_bytes > 0);
        assert!(insitu.wall_time > clean.wall_time);
    }

    #[test]
    fn parallel_campaign_matches_serial_reference() {
        // The rayon fan-out must be a pure speedup: summaries identical
        // to the sequential path, in input order.
        let mut configs: Vec<CastroSedovConfig> = table3_campaign()
            .into_iter()
            .filter(|c| c.n_cell <= 64)
            .collect();
        configs.push(CastroSedovConfig {
            name: "sc_fail".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 12,
            plot_int: 4,
            nprocs: 4,
            account_only: true,
            scenario: Some(Scenario::parse("write;check@4;fail@10;restart").unwrap()),
            ..Default::default()
        });
        assert!(configs.len() >= 3);
        let parallel = run_campaign(&configs, None);
        let serial = run_campaign_serial(&configs);
        assert_eq!(parallel, serial);
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let parallel_timed = run_campaign(&configs, Some(&storage));
        let serial_timed = run_campaign_timed_serial(&configs, &storage);
        assert_eq!(parallel_timed, serial_timed);
        // Order is the input order, not completion order.
        for (s, c) in parallel.iter().zip(&configs) {
            assert_eq!(s.name, c.name);
        }
    }

    #[test]
    fn small_campaign_subset_executes() {
        // Run the four smallest configurations end to end.
        let runs: Vec<CastroSedovConfig> = table3_campaign()
            .into_iter()
            .filter(|c| c.n_cell <= 64)
            .collect();
        assert!(!runs.is_empty());
        let summaries = run_campaign(&runs, None);
        for s in &summaries {
            assert!(s.total_bytes > 0, "{} wrote nothing", s.name);
            assert!(!s.series.is_empty());
            // Cumulative series is monotone.
            assert!(s.series.windows(2).all(|w| w[1].1 >= w[0].1));
        }
    }
}
