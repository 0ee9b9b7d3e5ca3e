//! The benchmark's own guarantees: the layer wrappers change no
//! simulated output, one seed always generates byte-identical inputs,
//! and the metric tables match `BENCHMARK.json`.

use amrbench::inputs::{machine_room_fleets, query_mix, spec_io_toml, store_cells, table3_configs};
use amrbench::layers::{run_traced, Ledger, TimedVfs};
use amrbench::report::{END_TO_END, PER_LAYER};
use amrbench::{campaign, store_query, Columns, WORKLOADS};
use amrproxy::{
    run_campaign_fabric, run_simulation, CastroSedovConfig, Engine, ExperimentSpec, RunSummary,
    Scenario,
};
use iosim::{MemFs, StorageAttach, StorageModel};
use serde::Serialize;

/// Runs `cfg` plainly and through both wrappers; returns the two column
/// sets, the step counts, and the ledger.
fn both_ways(
    cfg: &CastroSedovConfig,
    storage: &StorageModel,
) -> (Columns, Columns, usize, usize, Ledger) {
    let plain = run_simulation(cfg, None, Some(storage));
    let ledger = Ledger::new();
    let fs = TimedVfs::new(MemFs::with_retention(0), &ledger);
    let traced = run_traced(cfg, &ledger, &fs, StorageAttach::Model(storage)).expect("traced run");
    (
        Columns::of_result(&plain),
        Columns::of_result(&traced),
        plain.steps.len(),
        traced.steps.len(),
        ledger,
    )
}

#[test]
fn wrappers_are_transparent_on_hydro_io_scenarios() {
    let storage = StorageModel::summit_alpine(1.0);
    for scenario in [
        "write;check@2",
        "write;fail@4;restart",
        "write;analyze_every:2:level:1,reorg",
    ] {
        for backend in ["fpp", "agg:2", "deferred:1", "streaming"] {
            let cfg = CastroSedovConfig {
                name: "t".into(),
                engine: Engine::Hydro,
                n_cell: 32,
                max_level: 1,
                max_step: 6,
                stop_time: 1.0,
                plot_int: 1,
                check_int: 2,
                nprocs: 2,
                backend: io_engine::BackendSpec::parse(backend).unwrap(),
                scenario: Some(Scenario::parse(scenario).unwrap()),
                ..Default::default()
            };
            let (plain, traced, plain_steps, traced_steps, ledger) = both_ways(&cfg, &storage);
            assert_eq!(plain, traced, "{scenario} on {backend}");
            assert_eq!(plain_steps, traced_steps);
            assert!(
                ledger.amr_advance.calls() >= traced_steps as u64,
                "replayed steps count too"
            );
            assert!(ledger.snapshot.calls() > 0);
            if backend != "streaming" {
                assert!(
                    ledger.vfs_write.amount() > 0,
                    "{backend} writes through the Vfs"
                );
            }
        }
    }
}

#[test]
fn wrappers_are_transparent_on_the_oracle() {
    let storage = StorageModel::summit_alpine(1.0);
    let cfg = CastroSedovConfig {
        name: "o".into(),
        engine: Engine::Oracle,
        n_cell: 512,
        max_level: 3,
        max_step: 8,
        nprocs: 32,
        account_only: true,
        ..Default::default()
    };
    let (plain, traced, _, steps, ledger) = both_ways(&cfg, &storage);
    assert_eq!(plain, traced);
    assert_eq!(ledger.oracle_advance.calls(), steps as u64);
    assert_eq!(ledger.amr_advance.calls(), 0);
}

#[test]
fn spec_io_cells_match_their_store_summaries() {
    let storage = StorageModel::summit_alpine(1.0);
    let spec = ExperimentSpec::from_toml(&spec_io_toml(3)).unwrap();
    let cells = spec.compile().unwrap();
    assert_eq!(cells.len(), 36);
    for cell in cells.iter().step_by(7) {
        let summary =
            amrproxy::run_campaign_timed_serial(std::slice::from_ref(&cell.config), &storage);
        let ledger = Ledger::new();
        let fs = TimedVfs::new(MemFs::with_retention(0), &ledger);
        let traced =
            run_traced(&cell.config, &ledger, &fs, StorageAttach::Model(&storage)).unwrap();
        assert_eq!(
            Columns::of_summary(&summary[0]),
            Columns::of_result(&traced),
            "{}",
            cell.config.name
        );
    }
}

#[test]
fn a_wrapped_fleet_matches_run_campaign_fabric() {
    let storage = amrbench::machine_room::storage();
    let fleet = &machine_room_fleets(5, 2)[0];
    let plain = run_campaign_fabric(
        &fleet.configs,
        &storage,
        Some(fleet.staging_bytes),
        &fleet.qos,
    );
    let ledger = Ledger::new();
    let (runs, stats) = amrbench::machine_room::run_fleet_traced(fleet, &storage, &ledger);
    for ((summary, (run, _)), stats) in plain.iter().zip(&runs).zip(&stats) {
        let (cols, steps) = run.as_ref().expect("traced tenant run");
        assert_eq!(Columns::of_summary(summary), *cols);
        assert_eq!(*steps as u64, fleet.configs[summary.tenant].max_step);
        assert_eq!(summary.solo_wall.to_bits(), stats.solo_wall.to_bits());
        assert_eq!(summary.slowdown.to_bits(), stats.slowdown().to_bits());
    }
}

/// Canonical bytes of a workload's inputs for `seed` (`template` is the
/// store-query row template).
fn fingerprint(workload: &str, seed: u64, tenants: usize, template: &RunSummary) -> Vec<u8> {
    let text = match workload {
        "table3" => (0..3)
            .map(|p| serde_json::to_string(&table3_configs(seed, p).to_value()).unwrap())
            .collect::<Vec<_>>()
            .join("\n"),
        "spec_io" => spec_io_toml(seed),
        "machine_room" => format!("{:?}", machine_room_fleets(seed, tenants)),
        "store_query" => {
            let cells = store_cells(seed, template);
            let rows: Vec<String> = cells
                .iter()
                .map(|(k, rows)| {
                    format!("{k}:{}", serde_json::to_string(&rows.to_value()).unwrap())
                })
                .collect();
            format!("{}\n{:?}", rows.join("\n"), query_mix(seed, &cells))
        }
        other => panic!("unknown workload '{other}'"),
    };
    text.into_bytes()
}

#[test]
fn one_seed_generates_byte_identical_inputs() {
    let template = store_query::template();
    assert_eq!(
        template,
        store_query::template(),
        "the row template is deterministic"
    );
    for w in WORKLOADS {
        let a = fingerprint(w, 11, 2, &template);
        let b = fingerprint(w, 11, 2, &template);
        assert!(!a.is_empty());
        assert!(a == b, "{w}: seed 11 generated different inputs");
        assert!(
            a != fingerprint(w, 12, 2, &template),
            "{w}: the seed changes the inputs"
        );
    }
}

#[test]
fn machine_room_fleets_hold_no_clones() {
    for fleet in machine_room_fleets(9, 4) {
        for (i, a) in fleet.configs.iter().enumerate() {
            for b in &fleet.configs[i + 1..] {
                let mut b = b.clone();
                b.name.clone_from(&a.name);
                assert_ne!(*a, b, "a fleet repeats a workload");
            }
        }
    }
}

#[test]
fn out_of_order_cells_counts_log_positions() {
    let spec = campaign::spec_for("spec_io", 1, 0);
    let cells = spec.compile().unwrap();
    let dir = std::env::temp_dir().join(format!("amrbench-ooo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let line = |key: &str| format!("{{\"schema\":1,\"cell\":\"{key}\",\"summary\":{{}}}}\n");
    let mut log: String = cells.iter().map(|c| line(&c.key)).collect();
    std::fs::write(dir.join("runs.jsonl"), &log).unwrap();
    assert_eq!(campaign::out_of_order_cells(&dir, &cells), 0);
    log = line(&cells[1].key)
        + &line(&cells[0].key)
        + &cells[2..].iter().map(|c| line(&c.key)).collect::<String>();
    std::fs::write(dir.join("runs.jsonl"), &log).unwrap();
    assert_eq!(campaign::out_of_order_cells(&dir, &cells), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                    m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                )
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(END_TO_END));
    assert_eq!(names("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn chrome_trace_has_named_tracks_and_complete_events() {
    let ledger = Ledger::new();
    amrbench::layers::set_track(amrbench::trace::MAIN_TRACK);
    let _ = ledger.timed("store.open", None, || ());
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ = ledger.timed("pool.cell", Some("c0".into()), || ());
        });
    });
    let doc = amrbench::trace::chrome_trace("t", &ledger.spans(), &serde_json::Value::Null);
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert_eq!(names, ["main", "worker 0"]);
    assert_eq!(
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .count(),
        2
    );
}
