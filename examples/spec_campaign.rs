//! The declarative campaign end-to-end: parse a TOML experiment spec,
//! execute it against the append-only results store, run it *again* and
//! prove the second pass resumes every cell from disk, then reproduce
//! the campaign table and a model fit purely from the store's query
//! plane — this example doubles as the campaign-spec smoke suite in CI.
//!
//! It then times `specs/ladder.toml` (a 2/4/8-tenant throughput ladder)
//! under the serial reference executor and the parallel one, asserts
//! the two are bit-identical and that a third pass is resume-only, and
//! records `spec_parallel_speedup`, `spec_cells_per_sec`, and
//! `store_append_rows_per_sec` into `BENCH_campaign.json`.
//!
//! The store is durable across invocations: running this example a
//! second time (same process or a fresh one) executes zero cells.
//!
//! ```text
//! cargo run --release --example spec_campaign
//! ```

use amr_proxy_io::amrproxy::store::{
    run_spec, run_spec_serial, update_bench_artifact, ResultsStore,
};
use amr_proxy_io::amrproxy::ExperimentSpec;
use amr_proxy_io::iosim::StorageModel;

fn main() {
    let root = env!("CARGO_MANIFEST_DIR");
    let spec = ExperimentSpec::load(format!("{root}/specs/smoke.toml")).expect("parse smoke spec");
    let storage = StorageModel::ideal(4, 5e7);
    let mut store =
        ResultsStore::open(format!("{root}/results/store/smoke")).expect("open results store");

    // Pass 1 executes whatever the store does not yet hold; pass 2 must
    // resume everything.
    let first = run_spec(&spec, &mut store, Some(&storage)).expect("first pass");
    println!(
        "first pass:  executed={} resumed={}",
        first.executed, first.resumed
    );
    let second = run_spec(&spec, &mut store, Some(&storage)).expect("second pass");
    println!(
        "second pass: executed={} resumed={}",
        second.executed, second.resumed
    );
    assert_eq!(second.executed, 0, "second pass must be resume-only");
    assert_eq!(second.resumed, first.executed + first.resumed);
    assert_eq!(
        second.summaries, first.summaries,
        "resumed summaries are identical to the executed ones"
    );

    // The campaign table, reproduced from the store's query plane — not
    // from the in-memory run reports.
    let q = store.query();
    let rows = q.summaries();
    assert_eq!(
        rows, second.summaries,
        "the query plane reproduces the campaign table exactly"
    );
    println!(
        "\n{:<28} {:>12} {:>10} {:>14} {:>10}",
        "label", "backend", "codec", "phys bytes", "wall (s)"
    );
    for s in &rows {
        println!(
            "{:<28} {:>12} {:>10} {:>14} {:>10.4}",
            s.name, s.backend, s.codec, s.physical_bytes, s.wall_time
        );
    }

    println!("\nmean wall by backend (store group_mean):");
    for (backend, wall) in q.group_mean("backend", "wall_time") {
        println!("  {backend:<12} {wall:.4} s");
    }

    // The excluded cell really is excluded, and the codec lever levers.
    assert_eq!(rows.len(), 5, "3 backends x 2 codecs minus one exclude");
    assert!(
        q.clone()
            .filter("backend", "deferred:1")
            .filter("codec", "quant:8")
            .is_empty(),
        "the [[exclude]] cell must not run"
    );
    let id = q.clone().filter("codec", "identity").mean("physical_bytes");
    let quant = q.clone().filter("codec", "quant:8").mean("physical_bytes");
    assert!(quant < id, "quant:8 must shrink the wire volume");

    // The store -> model bridge: a least-squares line over two store
    // columns.
    let fit = q.fit("physical_bytes", "wall_time");
    println!(
        "\nwall vs physical bytes over the store rows: slope {:.3e} s/B (r2 {:.3})",
        fit.slope, fit.r2
    );

    // ── The parallel executor against its serial reference ──────────
    // The throughput ladder (2/4/8 tenant clones per cell) runs twice
    // from scratch: once under the one-cell-at-a-time serial reference
    // (threaded fleets), once under the parallel executor (mirrored
    // clone groups, spec-order commits). Results must be bit-identical;
    // only the wall may differ.
    let ladder =
        ExperimentSpec::load(format!("{root}/specs/ladder.toml")).expect("parse ladder spec");
    let serial_dir = format!("{root}/results/store/ladder_serial");
    let parallel_dir = format!("{root}/results/store/ladder_parallel");
    // Fresh stores each invocation: the walls below must time real
    // execution, not resume.
    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
    let mut serial_store = ResultsStore::open(&serial_dir).expect("open serial store");
    let started = std::time::Instant::now();
    let serial = run_spec_serial(&ladder, &mut serial_store, Some(&storage)).expect("serial run");
    let serial_wall = started.elapsed().as_secs_f64();
    println!(
        "\nladder serial:   executed={} resumed={} wall={:.3}s",
        serial.executed, serial.resumed, serial_wall
    );
    let mut parallel_store = ResultsStore::open(&parallel_dir).expect("open parallel store");
    let started = std::time::Instant::now();
    let parallel = run_spec(&ladder, &mut parallel_store, Some(&storage)).expect("parallel run");
    let parallel_wall = started.elapsed().as_secs_f64();
    println!(
        "ladder parallel: executed={} resumed={} wall={:.3}s",
        parallel.executed, parallel.resumed, parallel_wall
    );
    assert_eq!(
        parallel.summaries, serial.summaries,
        "the parallel executor must be result-identical to the serial reference"
    );
    let resumed = run_spec(&ladder, &mut parallel_store, Some(&storage)).expect("ladder resume");
    println!(
        "ladder resume:   executed={} resumed={}",
        resumed.executed, resumed.resumed
    );
    assert_eq!(
        resumed.executed, 0,
        "ladder second pass must be resume-only"
    );
    assert_eq!(resumed.summaries, parallel.summaries);
    let speedup = serial_wall / parallel_wall;
    let cells_per_sec = parallel.executed as f64 / parallel_wall;
    println!(
        "spec executor speedup: {speedup:.2}x over serial ({} cells, {cells_per_sec:.1} cells/s)",
        parallel.executed
    );

    // Batched store-append micro-throughput (the path every finished
    // cell commits through).
    let bench_dir = format!("{root}/results/store/append_bench");
    let _ = std::fs::remove_dir_all(&bench_dir);
    let mut bench_store = ResultsStore::open(&bench_dir).expect("open append-bench store");
    let batch: Vec<_> = std::iter::repeat_with(|| serial.summaries[0].clone())
        .take(64)
        .collect();
    let started = std::time::Instant::now();
    let mut appended = 0u64;
    while started.elapsed().as_secs_f64() < 0.05 {
        bench_store
            .append_cell("bench_cell", &batch)
            .expect("bench append");
        appended += batch.len() as u64;
    }
    let append_rows_per_sec = appended as f64 / started.elapsed().as_secs_f64();
    println!("store append: {append_rows_per_sec:.0} rows/s (batched, 64-row cells)");
    let _ = std::fs::remove_dir_all(&bench_dir);

    update_bench_artifact(
        format!("{root}/BENCH_campaign.json"),
        &[
            (
                "spec_serial_wall_seconds",
                serde_json::to_value(&serial_wall),
            ),
            ("spec_cells_per_sec", serde_json::to_value(&cells_per_sec)),
            ("spec_parallel_speedup", serde_json::to_value(&speedup)),
            (
                "store_append_rows_per_sec",
                serde_json::to_value(&append_rows_per_sec),
            ),
        ],
    )
    .expect("update bench artifact");

    println!(
        "\nspec campaign OK: store {} holds {} rows, second pass executed 0 cells",
        store.dir().display(),
        store.len()
    );
}
