//! The `machine_room` workload: a seeded sequence of heterogeneous
//! fleets through `run_campaign_fabric`, each fleet persisted as one
//! store cell. The traced pass rebuilds every fleet by hand — one
//! `Fabric`, `tenant_with` per tenant, wrapped sources and filesystems —
//! and prices each tenant alone on a private storage model.

use crate::inputs::{machine_room_fleets, Fleet};
use crate::layers::{run_traced, set_track, Ledger, TimedVfs};
use crate::report::{median, repeated, set_pass_metrics, warm, Checks, Metrics, Outcome};
use crate::trace::{tenant_track, MAIN_TRACK};
use crate::{read_back, Columns, Scratch};
use amrproxy::{run_campaign_fabric, run_simulation, ResultsStore, RunSummary};
use iosim::{Fabric, MemFs, StorageAttach, StorageModel, TenantStats};
use std::time::{Duration, Instant};

/// Tenants per fleet: one per host worker, and never fewer than two.
pub fn fleet_tenants() -> usize {
    crate::report::nproc().max(2)
}

/// The shared storage every fleet contends on: four servers, a
/// metadata latency, modest bandwidth.
pub fn storage() -> StorageModel {
    StorageModel {
        metadata_latency: 1e-4,
        ..StorageModel::ideal(4, 5e7)
    }
}

fn fleet_key(f: usize) -> String {
    format!("fleet{f:03}")
}

/// The tenancy columns of a fleet summary, bit for bit.
fn tenancy_bits(s: &RunSummary) -> [u64; 5] {
    [
        s.solo_wall,
        s.slowdown,
        s.contention_stall,
        s.throttle_stall,
        s.staging_wait,
    ]
    .map(f64::to_bits)
}

/// The same columns as the fabric reports them.
fn stats_bits(st: &TenantStats) -> [u64; 5] {
    [
        st.solo_wall,
        st.slowdown(),
        st.contention_stall,
        st.throttle_stall,
        st.staging_wait,
    ]
    .map(f64::to_bits)
}

/// Runs the workload for `seconds`, plus a traced pass when `trace` is
/// set.
pub fn run(seed: u64, seconds: u64, trace: bool, scratch: &Scratch) -> Outcome {
    let storage = storage();
    let tenants = fleet_tenants();
    let mut out = Outcome::default();
    let checks = &mut out.checks;
    let (mut setups, mut walls, mut items, mut opens, mut reads) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut reference: Option<(Vec<Fleet>, Vec<Vec<RunSummary>>)> = None;
    let window = Instant::now();
    let mut pass = 0usize;
    while pass == 0 || window.elapsed() < Duration::from_secs(seconds) {
        let t = Instant::now();
        let fleets = machine_room_fleets(seed, tenants);
        let dir = scratch.dir(&format!("machine_room-{pass}"));
        let store = ResultsStore::open(&dir);
        setups.push(t.elapsed().as_secs_f64());
        let Ok(mut store) = store else {
            checks.check(false, || {
                "machine_room: opening a fresh store failed".to_string()
            });
            pass += 1;
            continue;
        };

        let t = Instant::now();
        let mut results = Vec::with_capacity(fleets.len());
        for (f, fleet) in fleets.iter().enumerate() {
            let summaries = run_campaign_fabric(
                &fleet.configs,
                &storage,
                Some(fleet.staging_bytes),
                &fleet.qos,
            );
            let appended = store.append_cell(&fleet_key(f), &summaries);
            checks.check(appended.is_ok(), || {
                format!("machine_room: append of fleet {f} failed")
            });
            results.push(summaries);
        }
        let wall = t.elapsed().as_secs_f64();
        drop(store);
        walls.push(wall);
        items.push(fleets.iter().map(Fleet::tenant_steps).sum::<u64>() as f64);

        for (f, summaries) in results.iter().enumerate() {
            for s in summaries {
                checks.check(s.slowdown >= 1.0, || {
                    format!(
                        "machine_room: fleet {f} tenant {} slowdown {} < 1",
                        s.tenant, s.slowdown
                    )
                });
            }
            if let Some((_, first)) = &reference {
                checks.check(first[f] == *summaries, || {
                    format!("machine_room: fleet {f} differs between passes")
                });
            }
        }
        let (reopened, open_s) = repeated(|| ResultsStore::open(&dir));
        opens.push(open_s);
        match reopened {
            Ok(store) => {
                let keys: Vec<String> = (0..results.len()).map(fleet_key).collect();
                let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                let (got, secs) = read_back(&store, &keys);
                reads.push(secs);
                for (f, (got, summaries)) in got.iter().zip(&results).enumerate() {
                    checks.check(got == summaries, || {
                        format!("machine_room: reopened fleet {f} disagrees")
                    });
                }
            }
            Err(e) => checks.check(false, || format!("machine_room: reopen failed: {e}")),
        }
        scratch.remove(&dir);
        if reference.is_none() {
            reference = Some((fleets, results));
        }
        pass += 1;
    }
    out.passes = pass;
    out.query_samples =
        set_pass_metrics(&mut out.end_to_end, &setups, &walls, &items, &opens, &reads);

    if let Some((fleets, results)) = &reference {
        let all = results.iter().flatten();
        out.simulated = vec![
            (
                "simulated_wall_s_sum",
                all.clone().map(|s| s.wall_time).sum(),
            ),
            (
                "simulated_solo_wall_s_sum",
                all.clone().map(|s| s.solo_wall).sum(),
            ),
            (
                "max_slowdown",
                all.clone().map(|s| s.slowdown).fold(1.0, f64::max),
            ),
            (
                "physical_bytes_sum",
                all.map(|s| s.physical_bytes as f64).sum(),
            ),
        ];
        if trace {
            let ledger = Ledger::new();
            traced_pass(
                fleets,
                results,
                median(warm(&walls)),
                &storage,
                &ledger,
                &mut out.per_layer,
                &mut out.checks,
            );
            out.spans = ledger.spans();
        }
    }
    out
}

/// One tenant's traced run: its columns and steps (or the I/O error),
/// and its host seconds.
pub type TenantRun = (Result<(Columns, usize), String>, f64);

/// Runs `fleet` by hand on one fabric — `tenant_with` per tenant, one
/// thread each, wrapped engine and filesystem — the traced twin of
/// `run_campaign_fabric`. Returns each tenant's run and the fabric's
/// tenant stats.
pub fn run_fleet_traced(
    fleet: &Fleet,
    storage: &StorageModel,
    ledger: &Ledger,
) -> (Vec<TenantRun>, Vec<TenantStats>) {
    let fabric = Fabric::new(*storage).with_staging(fleet.staging_bytes);
    let handles: Vec<_> = fleet
        .configs
        .iter()
        .zip(&fleet.qos)
        .map(|(cfg, qos)| fabric.tenant_with(&cfg.name, *qos))
        .collect();
    let runs = std::thread::scope(|s| {
        let joins: Vec<_> = fleet
            .configs
            .iter()
            .zip(handles)
            .enumerate()
            .map(|(i, (cfg, handle))| {
                s.spawn(move || {
                    set_track(tenant_track(i));
                    let t0 = ledger.now_ns();
                    let fs = TimedVfs::new(MemFs::with_retention(0), ledger);
                    let res = run_traced(cfg, ledger, &fs, StorageAttach::Fabric(handle))
                        .map(|r| (Columns::of_result(&r), r.steps.len()))
                        .map_err(|e| e.to_string());
                    let dur = ledger.span("fabric.tenant", Some(cfg.name.clone()), t0);
                    (res, dur as f64 * 1e-9)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("tenant thread"))
            .collect()
    });
    (runs, fabric.tenant_stats())
}

/// Pass 0 again, fleet by fleet, through the fabric's tenant API.
fn traced_pass(
    fleets: &[Fleet],
    results: &[Vec<RunSummary>],
    untraced_wall: f64,
    storage: &StorageModel,
    ledger: &Ledger,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    set_track(MAIN_TRACK);
    let (mut fleet_s, mut solo_s, mut run_s, mut logical) = (0.0, 0.0, 0.0, 0u64);
    for (f, (fleet, summaries)) in fleets.iter().zip(results).enumerate() {
        let start = ledger.now_ns();
        let (runs, stats) = run_fleet_traced(fleet, storage, ledger);
        fleet_s += ledger.span("fabric.fleet", Some(fleet_key(f)), start) as f64 * 1e-9;
        for (((cfg, (res, secs)), st), summary) in
            fleet.configs.iter().zip(&runs).zip(&stats).zip(summaries)
        {
            run_s += secs;
            match res {
                Ok((cols, steps)) => {
                    logical += cols.logical_bytes;
                    checks.check(
                        *cols == Columns::of_summary(summary)
                            && stats_bits(st) == tenancy_bits(summary),
                        || {
                            format!(
                                "machine_room: traced tenant {} differs from its fleet summary",
                                cfg.name
                            )
                        },
                    );
                    checks.check(*steps as u64 == cfg.max_step, || {
                        format!(
                            "machine_room: {} took {steps} of {} steps",
                            cfg.name, cfg.max_step
                        )
                    });
                }
                Err(e) => checks.check(false, || {
                    format!("machine_room: traced {} failed: {e}", cfg.name)
                }),
            }
        }
        // Each tenant alone on a private model: what the fleet costs over
        // running the same tenants one by one.
        for cfg in &fleet.configs {
            let ((), s) = ledger.timed("fabric.solo", Some(cfg.name.clone()), || {
                let _ = run_simulation(cfg, None, Some(storage));
            });
            solo_s += s;
        }
    }
    m.set("fabric.fleet_s", fleet_s);
    m.set("fabric.solo_sum_s", solo_s);
    m.set(
        "fabric.fleet_over_solo",
        fleet_s / solo_s.max(f64::MIN_POSITIVE),
    );
    m.set("trace.overhead_s", fleet_s - untraced_wall);
    crate::set_layer_metrics(m, ledger, run_s, logical);
}
