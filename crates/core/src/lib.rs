//! Orchestration of the paper's study: parameterized Castro-Sedov runs,
//! the Table III campaign, and the AMR-vs-MACSio comparison pipeline.
//!
//! **Layer position:** the top of the workspace (package name
//! `amrproxy`): it drives `hydro` workloads through `plotfile` and the
//! `io-engine` stack, times them against `iosim`, and feeds `model`.
//! Key types: [`CastroSedovConfig`], [`RunResult`], [`RunSummary`], the
//! scenario plane ([`Scenario`] programs compiled by [`compile_phases`]
//! and executed by the [`driver`] over a [`StepSource`]), and the
//! experiment plane ([`ExperimentSpec`] matrices executed by
//! [`run_spec`] against a [`ResultsStore`]).
//!
//! ```
//! use amrproxy::{run_simulation, CastroSedovConfig, Engine};
//!
//! let cfg = CastroSedovConfig {
//!     engine: Engine::Oracle,
//!     n_cell: 128,
//!     max_step: 8,
//!     plot_int: 4,
//!     ..Default::default()
//! };
//! let result = run_simulation(&cfg, None, None);
//! assert!(result.tracker.total_bytes() > 0);
//! ```

pub mod campaign;
pub mod cases;
pub mod compare;
pub mod config;
pub mod driver;
pub mod run;
pub mod spec;
pub mod store;

pub use campaign::{
    run_campaign, run_campaign_fabric, run_campaign_fabric_cloned, run_campaign_fabric_linked,
    run_campaign_serial, run_campaign_timed_serial, table3_campaign, RunSummary,
};
pub use cases::{big8192, case27, case4, case4_hydro_scaled};
pub use compare::{compare_with_macsio, Comparison};
pub use config::{CastroSedovConfig, Engine};
pub use driver::{
    compile_phases, run_scenario, run_scenario_attached, try_run_scenario_attached, AmrSource,
    DumpSource, OracleSource, Phase, ScheduledPhase, StepSource,
};
pub use io_engine::{Scenario, ScenarioOp};
pub use run::{run_simulation, run_simulation_attached, try_run_simulation_attached, RunResult};
pub use spec::{
    Delivery, ExperimentSpec, Layout, RunMode, ScalingMode, SpecCell, SpecError, StorageProfile,
};
pub use store::{run_spec, run_spec_serial, update_bench_artifact, ResultsStore, SpecReport};
