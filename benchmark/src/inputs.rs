//! The workloads' inputs, generated from `--seed` alone. The program
//! under test only ever receives what these functions return.

use crate::rng::Rng;
use amrproxy::{table3_campaign, CastroSedovConfig, Engine, RunSummary};
use iosim::QosPolicy;

/// Step budget of every Table III config. The full campaign runs to 120
/// steps and takes minutes; the cap keeps the paper's 47 configs and
/// their cost shape (the l4 hydro runs stay the longest cells) inside a
/// pass of about a second, so one run prices many config orders.
pub const TABLE3_MAX_STEP: u64 = 4;

/// Fleets per machine-room pass.
pub const MACHINE_ROOM_FLEETS: usize = 36;

/// Rows in the store-query workload's store.
pub const STORE_ROWS: usize = 20_000;

/// Point reads in one store-query pass (beside 8 aggregate queries).
pub const QUERY_GETS: usize = 24;

/// Independent random streams, one per input kind.
const TABLE3_STREAM: u64 = 1 << 32;
const SPEC_IO_STREAM: u64 = 2 << 32;
const FLEET_STREAM: u64 = 3 << 32;
const STORE_STREAM: u64 = 4 << 32;
const QUERY_STREAM: u64 = 5 << 32;

/// The 47 Table III configs, step-capped, in a seeded order: pass `p`
/// of a run gets its own order, so a run prices the static-chunk pool
/// over several placements of the heavy hydro cells.
pub fn table3_configs(seed: u64, pass: u64) -> Vec<CastroSedovConfig> {
    let mut configs = table3_campaign();
    for cfg in &mut configs {
        cfg.max_step = cfg.max_step.min(TABLE3_MAX_STEP);
    }
    Rng::new(seed, TABLE3_STREAM + pass).shuffle(&mut configs);
    configs
}

/// Analysis selections the spec I/O matrix draws from.
const SELECTIONS: &[&str] = &[
    "level:0",
    "level:1",
    "field:density",
    "field:pressure",
    "full",
];

/// The spec I/O matrix as spec TOML: a small hydro base that writes
/// real plotfile bytes every step, crossed over backend × codec ×
/// scenario (36 cells). The seed picks the axis order (the loop order
/// of the compiled cells) and the in-run analysis selection.
pub fn spec_io_toml(seed: u64) -> String {
    let mut rng = Rng::new(seed, SPEC_IO_STREAM);
    let selection = rng.pick(SELECTIONS);
    let mut axes = vec![
        r#"backend = ["fpp", "agg:2", "deferred:1", "streaming"]"#.to_string(),
        r#"codec = ["identity", "rle", "quant:8"]"#.to_string(),
        format!(
            r#"scenario = ["write;check@2", "write;fail@6;restart", "write;analyze_every:2:{selection},reorg"]"#
        ),
    ];
    rng.shuffle(&mut axes);
    format!(
        r#"[experiment]
name = "spec_io"

[base]
name = "sio"
engine = "hydro"
n_cell = 64
max_level = 1
max_step = 8
stop_time = 1.0
plot_int = 1
check_int = 2
nprocs = 4
account_only = false

[axes]
{}
"#,
        axes.join("\n")
    )
}

/// One machine-room fleet: heterogeneous tenants sharing one fabric and
/// one bounded staging pool.
#[derive(Clone, Debug)]
pub struct Fleet {
    /// Tenant configs, registration order.
    pub configs: Vec<CastroSedovConfig>,
    /// Per-tenant QoS, positional.
    pub qos: Vec<QosPolicy>,
    /// Shared staging-pool capacity in bytes.
    pub staging_bytes: u64,
}

impl Fleet {
    /// Simulation steps the fleet's tenants take together.
    pub fn tenant_steps(&self) -> u64 {
        self.configs.iter().map(|c| c.max_step).sum()
    }
}

/// The machine-room tenant population: every combination of mesh,
/// level depth, plot cadence and backend (72 workloads), with a rank
/// count that grows with the mesh.
fn tenant_population() -> Vec<CastroSedovConfig> {
    let mut population = Vec::new();
    for n_cell in [256, 512, 1024] {
        for max_level in [1, 2] {
            for plot_int in [1, 2, 4] {
                for backend in ["fpp", "agg:2", "deferred:1", "streaming"] {
                    population.push(CastroSedovConfig {
                        engine: Engine::Oracle,
                        n_cell,
                        max_level,
                        max_step: 24,
                        stop_time: 1.0,
                        plot_int,
                        nprocs: (n_cell / 16) as usize,
                        account_only: true,
                        backend: io_backend(backend),
                        ..Default::default()
                    });
                }
            }
        }
    }
    population
}

/// A seeded sequence of [`MACHINE_ROOM_FLEETS`] heterogeneous fleets of
/// `tenants` tenants each. The seed deals the tenant population (cycled
/// to fill every seat) and a balanced set of QoS policies into fleets,
/// so every seed runs the same total work and only the pairings change.
/// No fleet holds the same workload twice.
pub fn machine_room_fleets(seed: u64, tenants: usize) -> Vec<Fleet> {
    let mut rng = Rng::new(seed, FLEET_STREAM);
    let population = tenant_population();
    let seats = MACHINE_ROOM_FLEETS * tenants;
    let mut deal: Vec<usize> = (0..seats).map(|i| i % population.len()).collect();
    rng.shuffle(&mut deal);
    let policies = [
        QosPolicy::default(),
        QosPolicy::weighted(2.0),
        QosPolicy::capped(0.5),
    ];
    let mut qos: Vec<QosPolicy> = (0..seats).map(|i| policies[i % policies.len()]).collect();
    rng.shuffle(&mut qos);
    // Swap a repeated workload with a seat in another fleet that takes
    // it without repeating anything there.
    for seat in 0..seats {
        let start = seat / tenants * tenants;
        if !deal[start..seat].contains(&deal[seat]) {
            continue;
        }
        let partner = (0..seats)
            .find(|&j| {
                let js = j / tenants * tenants;
                js != start
                    && !deal[start..seat].contains(&deal[j])
                    && !(js..js + tenants).any(|k| k != j && deal[k] == deal[seat])
            })
            .expect("a fleet of distinct workloads exists");
        deal.swap(seat, partner);
    }
    (0..MACHINE_ROOM_FLEETS)
        .map(|f| {
            let seats = f * tenants..(f + 1) * tenants;
            Fleet {
                configs: seats
                    .clone()
                    .map(|s| CastroSedovConfig {
                        name: format!("f{f}_t{}", s - f * tenants),
                        ..population[deal[s]].clone()
                    })
                    .collect(),
                qos: qos[seats].to_vec(),
                staging_bytes: (8 + rng.below(57) as u64) << 20,
            }
        })
        .collect()
}

fn io_backend(name: &str) -> io_engine::BackendSpec {
    io_engine::BackendSpec::parse(name).expect("benchmark backend spellings parse")
}

/// Backend and codec spellings of the store-query rows.
const BACKENDS: [&str; 5] = ["fpp", "agg:2", "agg:4", "deferred:1", "streaming"];
const CODECS: [&str; 3] = ["identity", "rle:2", "quant:8"];

/// A store cell: its key and its rows (1–4, like tenancy cells).
pub type StoreCell = (String, Vec<RunSummary>);

/// The store-query workload's rows: [`STORE_ROWS`] summaries derived
/// from one real `template` run, with seeded columns, grouped into cells
/// of 1–4 rows under seeded keys.
pub fn store_cells(seed: u64, template: &RunSummary) -> Vec<StoreCell> {
    let mut rng = Rng::new(seed, STORE_STREAM);
    let mut cells = Vec::new();
    let mut rows = 0usize;
    while rows < STORE_ROWS {
        let tenants = (1 + rng.below(4)).min(STORE_ROWS - rows);
        let key = format!("{:016x}", rng.next_u64());
        let n_cell = 32i64 << rng.below(9);
        let backend = rng.pick(&BACKENDS).to_string();
        let codec = rng.pick(&CODECS).to_string();
        let base_wall = (n_cell as f64).sqrt() * (0.5 + rng.unit());
        let summaries = (0..tenants)
            .map(|t| {
                let mut s = template.clone();
                s.name = format!("q{}_t{t}", cells.len());
                s.n_cell = n_cell;
                s.nprocs = 1 << rng.below(11);
                s.max_level = 2 + rng.below(3);
                s.plot_int = *rng.pick(&[1, 2, 5, 20]);
                s.backend.clone_from(&backend);
                s.codec.clone_from(&codec);
                s.total_bytes = (n_cell * n_cell) as u64 * (40 + rng.below(200) as u64);
                s.physical_bytes = s.total_bytes / (1 + rng.below(3) as u64);
                s.wall_time = base_wall * (1.0 + 0.25 * t as f64);
                s.solo_wall = base_wall;
                s.slowdown = s.wall_time / s.solo_wall;
                s.tenant = t;
                s.tenants = tenants;
                s
            })
            .collect::<Vec<_>>();
        rows += summaries.len();
        cells.push((key, summaries));
    }
    cells
}

/// One query of the store-query mix.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOp {
    /// `ResultsStore::get(cell)`.
    Get(String),
    /// `query().filter(column, value)`.
    Filter(&'static str, String),
    /// `query().filter_num(column, |x| x >= min)`.
    FilterNum(&'static str, f64),
    /// `query().group_mean(key, value)`.
    GroupMean(&'static str, &'static str),
    /// `query().fit(x, y)`.
    Fit(&'static str, &'static str),
}

impl QueryOp {
    /// The span and the per-layer metric this query's time lands in
    /// (`filter` and `filter_num` share one).
    pub fn layer(&self) -> (&'static str, &'static str) {
        match self {
            QueryOp::Get(_) => ("store.get", "store.get_s"),
            QueryOp::Filter(..) | QueryOp::FilterNum(..) => ("store.filter", "store.filter_s"),
            QueryOp::GroupMean(..) => ("store.group_mean", "store.group_mean_s"),
            QueryOp::Fit(..) => ("store.fit", "store.fit_s"),
        }
    }
}

/// The fixed, seeded query mix over `cells`, in seeded order. The seed
/// picks the values inside fixed strata, so every seed reads the same
/// amount of data:
/// - [`QUERY_GETS`] point reads, the same number on cells of each size
///   (1–4 rows);
/// - two each of `filter` (one on `backend`, one on `codec`),
///   `filter_num` (one threshold keeping most rows, one keeping few),
///   `group_mean` (by `backend` and by `codec`) and `fit` (against
///   `n_cell` and against `total_bytes`).
pub fn query_mix(seed: u64, cells: &[StoreCell]) -> Vec<QueryOp> {
    let mut rng = Rng::new(seed, QUERY_STREAM);
    let by_size: Vec<Vec<&StoreCell>> = (1..=4)
        .map(|n| {
            cells
                .iter()
                .filter(|(_, rows)| rows.len() == n)
                .collect::<Vec<_>>()
        })
        .filter(|group| !group.is_empty())
        .collect();
    let mut ops: Vec<QueryOp> = (0..QUERY_GETS)
        .map(|i| QueryOp::Get(rng.pick(&by_size[i % by_size.len()]).0.clone()))
        .collect();
    let values = ["wall_time", "total_bytes", "slowdown"];
    let ys = ["wall_time", "physical_bytes"];
    ops.extend([
        QueryOp::Filter("backend", rng.pick(&BACKENDS).to_string()),
        QueryOp::Filter("codec", rng.pick(&CODECS).to_string()),
        QueryOp::FilterNum("n_cell", (32i64 << rng.below(4)) as f64),
        QueryOp::FilterNum("n_cell", (32i64 << (5 + rng.below(4))) as f64),
        QueryOp::GroupMean("backend", values[rng.below(values.len())]),
        QueryOp::GroupMean("codec", values[rng.below(values.len())]),
        QueryOp::Fit("n_cell", ys[rng.below(ys.len())]),
        QueryOp::Fit("total_bytes", ys[rng.below(ys.len())]),
    ]);
    rng.shuffle(&mut ops);
    ops
}
