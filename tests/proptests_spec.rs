//! Property tests for the declarative experiment grammar and the
//! results store.
//!
//! The five pre-spec sweep enumerations (backend, backend × codec,
//! restart, analysis, scenario) are frozen here as inline reference
//! implementations (copied verbatim from the pre-spec `campaign.rs`);
//! each must stay byte-identical — full config-list equality through
//! the serde wire format — to the equivalent `ExperimentSpec` builder
//! chain compiled with `compile_configs`. The store
//! properties cover the append/reopen round trip (byte-identical rows)
//! and resume (exactly the persisted cells are skipped).

use amr_proxy_io::amrproxy::store::{run_spec, ResultsStore};
use amr_proxy_io::amrproxy::{
    run_campaign_serial, CastroSedovConfig, Engine, ExperimentSpec, Layout, RunMode, Scenario,
};
use amr_proxy_io::io_engine::{BackendSpec, CodecSpec, ReadSelection};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

// ── Frozen legacy reference implementations ────────────────────────────

fn legacy_backend_sweep(
    configs: &[CastroSedovConfig],
    backends: &[BackendSpec],
) -> Vec<CastroSedovConfig> {
    let mut out = Vec::new();
    for cfg in configs {
        for &backend in backends {
            out.push(CastroSedovConfig {
                name: format!("{}_{}", cfg.name, backend.name().replace(':', "")),
                backend,
                ..cfg.clone()
            });
        }
    }
    out
}

fn legacy_backend_codec_sweep(
    configs: &[CastroSedovConfig],
    backends: &[BackendSpec],
    codecs: &[CodecSpec],
) -> Vec<CastroSedovConfig> {
    let mut out = Vec::new();
    for cfg in configs {
        for &backend in backends {
            for &codec in codecs {
                out.push(CastroSedovConfig {
                    name: format!(
                        "{}_{}_{}",
                        cfg.name,
                        backend.name().replace(':', ""),
                        codec.name().replace(':', "").replace('.', "p")
                    ),
                    backend,
                    codec,
                    ..cfg.clone()
                });
            }
        }
    }
    out
}

fn legacy_restart_sweep(
    configs: &[CastroSedovConfig],
    backends: &[BackendSpec],
    codecs: &[CodecSpec],
) -> Vec<CastroSedovConfig> {
    let mut out = Vec::new();
    for cfg in legacy_backend_codec_sweep(configs, backends, codecs) {
        out.push(cfg.clone());
        out.push(CastroSedovConfig {
            name: format!("{}_restart", cfg.name),
            read_after_write: true,
            ..cfg
        });
    }
    out
}

fn legacy_disambiguate_tags(tags: &mut [String], prefix: char) {
    loop {
        let snapshot: Vec<String> = tags.to_vec();
        let mut changed = false;
        for i in 0..tags.len() {
            if snapshot.iter().filter(|t| **t == snapshot[i]).count() > 1 {
                tags[i] = format!("{}_{prefix}{i}", snapshot[i]);
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

fn legacy_analysis_sweep(
    configs: &[CastroSedovConfig],
    backends: &[BackendSpec],
    codecs: &[CodecSpec],
    patterns: &[ReadSelection],
) -> Vec<CastroSedovConfig> {
    let mut tags: Vec<String> = patterns
        .iter()
        .map(|p| {
            p.name()
                .replace(':', "")
                .replace('-', "to")
                .replace([',', '/', '.'], "_")
        })
        .collect();
    legacy_disambiguate_tags(&mut tags, 'p');
    let mut out = Vec::new();
    for cfg in legacy_backend_codec_sweep(configs, backends, codecs) {
        for (pattern, tag) in patterns.iter().zip(&tags) {
            for reorganize in [false, true] {
                out.push(CastroSedovConfig {
                    name: format!(
                        "{}_{}_{}",
                        cfg.name,
                        tag,
                        if reorganize { "reorg" } else { "raw" }
                    ),
                    analysis_read: Some(pattern.clone()),
                    reorganize,
                    ..cfg.clone()
                });
            }
        }
    }
    out
}

fn legacy_scenario_sweep(
    configs: &[CastroSedovConfig],
    scenarios: &[Scenario],
) -> Vec<CastroSedovConfig> {
    let mut tags: Vec<String> = scenarios
        .iter()
        .map(|s| {
            s.name()
                .replace([';', ','], "_")
                .replace('-', "to")
                .replace([':', '@', '.', '/'], "")
        })
        .collect();
    legacy_disambiguate_tags(&mut tags, 's');
    let mut out = Vec::new();
    for cfg in configs {
        for (scenario, tag) in scenarios.iter().zip(&tags) {
            out.push(CastroSedovConfig {
                name: format!("{}_{}", cfg.name, tag),
                scenario: Some(scenario.clone()),
                ..cfg.clone()
            });
        }
    }
    out
}

// ── Strategies ─────────────────────────────────────────────────────────

/// A non-empty subset of `all`, order-preserving, drawn from a bitmask
/// (the vendored proptest has no `sample::subsequence`).
fn subset_of<T: Clone + 'static>(all: Vec<T>) -> impl Strategy<Value = Vec<T>> {
    let n = all.len();
    prop::collection::vec(0u8..2, n..n + 1).prop_map(move |mask| {
        let mut out: Vec<T> = all
            .iter()
            .zip(&mask)
            .filter(|(_, m)| **m == 1)
            .map(|(v, _)| v.clone())
            .collect();
        if out.is_empty() {
            out.push(all[0].clone());
        }
        out
    })
}

fn arb_bases() -> impl Strategy<Value = Vec<CastroSedovConfig>> {
    (
        prop_oneof![Just("m"), Just("sedov"), Just("case4")],
        prop_oneof![Just(32i64), Just(64)],
        prop_oneof![Just(2usize), Just(4)],
        prop_oneof![Just(1usize), Just(2)],
    )
        .prop_map(|(name, n_cell, nprocs, nbases)| {
            (0..nbases)
                .map(|i| CastroSedovConfig {
                    name: if i == 0 {
                        name.to_string()
                    } else {
                        format!("{name}{i}")
                    },
                    engine: Engine::Oracle,
                    n_cell,
                    max_step: 4,
                    plot_int: 2,
                    nprocs,
                    account_only: true,
                    ..Default::default()
                })
                .collect()
        })
}

fn arb_backends() -> impl Strategy<Value = Vec<BackendSpec>> {
    subset_of(vec![
        BackendSpec::FilePerProcess,
        BackendSpec::Aggregated(1),
        BackendSpec::Aggregated(4),
        BackendSpec::Aggregated(16),
        BackendSpec::Deferred(1),
    ])
}

fn arb_codecs() -> impl Strategy<Value = Vec<CodecSpec>> {
    subset_of(vec![
        CodecSpec::Identity,
        CodecSpec::Rle(2.0),
        CodecSpec::Rle(2.5),
        CodecSpec::LossyQuant(8),
    ])
}

fn arb_patterns() -> impl Strategy<Value = Vec<ReadSelection>> {
    // The last two flatten to the same lossy tag ("fielda_b"), forcing
    // the index-disambiguation path on both sides of the comparison.
    subset_of(vec![
        ReadSelection::Level(1),
        ReadSelection::Field("Cell".to_string()),
        ReadSelection::parse("box:0-1,0-2").unwrap(),
        ReadSelection::Field("a.b".to_string()),
        ReadSelection::Field("a/b".to_string()),
    ])
}

fn arb_scenarios() -> impl Strategy<Value = Vec<Scenario>> {
    subset_of(vec![
        Scenario::write_only(),
        Scenario::parse("write;restart").unwrap(),
        Scenario::parse("write;fail@2;restart").unwrap(),
        Scenario::parse("write;check@2;fail@2;restart").unwrap(),
        Scenario::parse("write;analyze_every:2:level:1").unwrap(),
    ])
}

/// Canonical wire form of a config list — byte-level equality.
fn canon(cfgs: &[CastroSedovConfig]) -> Vec<String> {
    cfgs.iter()
        .map(|c| serde_json::to_string(c).expect("config serializes"))
        .collect()
}

/// A unique scratch directory per proptest case.
fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amrproxy_proptest_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The backend enumeration == its spec compilation, byte-identical.
    #[test]
    fn backend_sweep_matches_spec(bases in arb_bases(), backends in arb_backends()) {
        let spec = ExperimentSpec::over("backends", &bases).backends(&backends);
        prop_assert_eq!(
            canon(&legacy_backend_sweep(&bases, &backends)),
            canon(&spec.compile_configs().unwrap())
        );
    }

    /// The backend × codec enumeration == its spec compilation,
    /// byte-identical.
    #[test]
    fn backend_codec_sweep_matches_spec(
        bases in arb_bases(),
        backends in arb_backends(),
        codecs in arb_codecs(),
    ) {
        let spec = ExperimentSpec::over("codecs", &bases)
            .backends(&backends)
            .codecs(&codecs);
        prop_assert_eq!(
            canon(&legacy_backend_codec_sweep(&bases, &backends, &codecs)),
            canon(&spec.compile_configs().unwrap())
        );
    }

    /// The restart enumeration == its spec compilation (the `mode`
    /// axis), byte-identical.
    #[test]
    fn restart_sweep_matches_spec(
        bases in arb_bases(),
        backends in arb_backends(),
        codecs in arb_codecs(),
    ) {
        let spec = ExperimentSpec::over("restarts", &bases)
            .backends(&backends)
            .codecs(&codecs)
            .modes(&[RunMode::Write, RunMode::Restart]);
        prop_assert_eq!(
            canon(&legacy_restart_sweep(&bases, &backends, &codecs)),
            canon(&spec.compile_configs().unwrap())
        );
    }

    /// The analysis enumeration == its spec compilation (the `pattern`
    /// and `layout` axes), byte-identical — including the lossy pattern-tag flattening and its index
    /// disambiguation.
    #[test]
    fn analysis_sweep_matches_spec(
        bases in arb_bases(),
        backends in arb_backends(),
        codecs in arb_codecs(),
        patterns in arb_patterns(),
    ) {
        let spec = ExperimentSpec::over("analysis", &bases)
            .backends(&backends)
            .codecs(&codecs)
            .patterns(&patterns)
            .layouts(&[Layout::Raw, Layout::Reorg]);
        prop_assert_eq!(
            canon(&legacy_analysis_sweep(&bases, &backends, &codecs, &patterns)),
            canon(&spec.compile_configs().unwrap())
        );
    }

    /// The scenario enumeration == its spec compilation, byte-identical.
    #[test]
    fn scenario_sweep_matches_spec(bases in arb_bases(), scenarios in arb_scenarios()) {
        let spec = ExperimentSpec::over("scenarios", &bases).scenarios(&scenarios);
        prop_assert_eq!(
            canon(&legacy_scenario_sweep(&bases, &scenarios)),
            canon(&spec.compile_configs().unwrap())
        );
    }

    /// Store round trip: append N summaries, reopen, and every row comes
    /// back byte-identical (wire-format string equality, not just
    /// structural equality).
    #[test]
    fn store_round_trip_is_byte_identical(
        walls in prop::collection::vec(0.001f64..100.0, 1..6),
    ) {
        let template = run_campaign_serial(&[CastroSedovConfig {
            name: "rt".into(),
            engine: Engine::Oracle,
            n_cell: 16,
            max_step: 2,
            plot_int: 1,
            nprocs: 2,
            account_only: true,
            ..Default::default()
        }])
        .remove(0);
        let dir = scratch("rt");
        let mut originals = Vec::new();
        {
            let mut store = ResultsStore::open(&dir).unwrap();
            for (i, wall) in walls.iter().enumerate() {
                let mut s = template.clone();
                s.name = format!("row{i}");
                s.wall_time = *wall;
                store.append(&format!("cell{i}"), &s).unwrap();
                originals.push(s);
            }
        }
        let store = ResultsStore::open(&dir).unwrap();
        prop_assert_eq!(store.len(), originals.len());
        for (i, original) in originals.iter().enumerate() {
            let got = store.get(&format!("cell{i}"));
            prop_assert_eq!(&got[..], std::slice::from_ref(original));
            let wire_orig = serde_json::to_string(original).unwrap();
            let wire_got = serde_json::to_string(&got[0]).unwrap();
            prop_assert_eq!(wire_orig, wire_got, "row {} drifted on disk", i);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Resume skips exactly the persisted cells: pre-persist an arbitrary
    /// subset of a compiled spec's cells, then `run_spec` executes the
    /// complement and resumes the subset.
    #[test]
    fn resume_skips_exactly_the_persisted_cells(
        backends in arb_backends(),
        mask in prop::collection::vec(0u8..2, 5..6),
    ) {
        let base = CastroSedovConfig {
            name: "resume".into(),
            engine: Engine::Oracle,
            n_cell: 16,
            max_step: 2,
            plot_int: 1,
            nprocs: 2,
            account_only: true,
            ..Default::default()
        };
        let spec = ExperimentSpec::over("resume", std::slice::from_ref(&base))
            .backends(&backends)
            .modes(&[RunMode::Write, RunMode::Restart]);
        let cells = spec.compile().unwrap();
        let template = run_campaign_serial(std::slice::from_ref(&base)).remove(0);

        let dir = scratch("resume");
        let mut store = ResultsStore::open(&dir).unwrap();
        let mut persisted = 0usize;
        for (cell, keep) in cells.iter().zip(mask.iter().cycle()) {
            if *keep == 1 {
                store.append(&cell.key, &template).unwrap();
                persisted += 1;
            }
        }
        let report = run_spec(&spec, &mut store, None).unwrap();
        prop_assert_eq!(report.resumed, persisted);
        prop_assert_eq!(report.executed, cells.len() - persisted);
        prop_assert_eq!(report.summaries.len(), cells.len());
        // A second pass is now fully resumed.
        let again = run_spec(&spec, &mut store, None).unwrap();
        prop_assert_eq!(again.executed, 0);
        prop_assert_eq!(again.resumed, cells.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
