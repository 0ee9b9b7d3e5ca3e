//! Write + restart campaign across the full backend × codec matrix.
//!
//! Two parts:
//!
//! 1. **Round-trip proof** (materialized bytes): every backend × codec
//!    stack writes a step of synthetic AMR-like field chunks, reads it
//!    back through the new read plane, and the restart bytes are checked
//!    against the exact logical bytes written. The f64 fields are
//!    *lattice-valued* (integers 0..=255 with per-block anchors), so even
//!    the lossy quantizer reproduces them bit-exactly at 8 bits — the
//!    whole 3×3 matrix round-trips byte-identically.
//! 2. **Restart campaign** (oracle scale): the Sedov slice swept over
//!    {3 backends × 3 codecs × write/restart}, timed on a
//!    bandwidth-bound storage model; restart rows report read bytes and
//!    read wall-clock, and the read-time regression
//!    (`model::fit_read_time`) recovers the effective restart bandwidth.
//!
//! ```text
//! cargo run --release --example restart_sweep
//! ```

use amr_proxy_io::amrproxy::store::{run_spec, ResultsStore};
use amr_proxy_io::amrproxy::{CastroSedovConfig, Engine, ExperimentSpec, RunMode};
use amr_proxy_io::io_engine::{BackendSpec, CodecSpec, Payload, Put};
use amr_proxy_io::iosim::{IoKey, IoKind, IoTracker, MemFs, StorageModel, Vfs};
use amr_proxy_io::model;

/// `nvals` f64 values on the 8-bit quantization lattice: integers in
/// [0, 255] with 0 and 255 anchored per 256-value block, so quant:8
/// stores them exactly (scale = 1.0, q = v).
fn lattice_field(nvals: usize, salt: u32) -> Vec<u8> {
    let mut vals: Vec<f64> = (0..nvals)
        .map(|i| ((i as u32 * 37 + salt * 11) % 256) as f64)
        .collect();
    for block in vals.chunks_mut(256) {
        block[0] = 0.0;
        let last = block.len() - 1;
        block[last] = 255.0;
    }
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn main() {
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

    // --- Part 1: byte-exact restart round trip ------------------------
    println!("# restart round-trip, 3 backends x 3 codecs, materialized bytes\n");
    let nprocs = 8u32;
    for backend in backends {
        for codec in codecs {
            let fs = MemFs::new();
            let tracker = IoTracker::new();
            let mut stack = backend.build_with_codec(codec, &fs as &dyn Vfs, &tracker);
            let mut written: Vec<(String, Vec<u8>)> = Vec::new();
            stack.begin_step(1, "/plt00001");
            for task in 0..nprocs {
                let path = format!("/plt00001/Level_0/Cell_D_{task:05}");
                let data = lattice_field(2048, task);
                written.push((path.clone(), data.clone()));
                stack
                    .put(Put {
                        key: IoKey {
                            step: 1,
                            level: 0,
                            task,
                        },
                        kind: IoKind::Data,
                        path,
                        payload: Payload::Bytes(data.into()),
                    })
                    .unwrap();
            }
            stack
                .put(Put {
                    key: IoKey {
                        step: 1,
                        level: 0,
                        task: 0,
                    },
                    kind: IoKind::Metadata,
                    path: "/plt00001/Header".into(),
                    payload: Payload::Bytes(b"restart header".to_vec().into()),
                })
                .unwrap();
            let stats = stack.end_step().unwrap();

            let read = stack.read_step(1, "/plt00001").unwrap();
            for (path, data) in &written {
                let back = read
                    .logical_content(path)
                    .unwrap_or_else(|| panic!("{path} not materialized"));
                assert_eq!(
                    &back,
                    data,
                    "{}/{}: restart bytes differ",
                    backend.name(),
                    codec.name()
                );
            }
            assert_eq!(
                read.logical_content("/plt00001/Header").unwrap(),
                b"restart header".to_vec()
            );
            assert_eq!(
                tracker.total_read_bytes(),
                stats.logical_bytes,
                "read plane sees the logical bytes"
            );
            stack.close().unwrap();
            println!(
                "  {:<18} wrote {:>7} physical B, restart fetched {:>7} B -> {} logical B round-trip exact",
                format!("{}+{}", backend.name(), codec.name()),
                stats.bytes,
                read.stats.bytes,
                read.stats.logical_bytes,
            );
        }
    }

    // --- Part 2: write/restart campaign -------------------------------
    println!("\n# restart campaign: 3 backends x 3 codecs x {{write, restart}}\n");
    let base = CastroSedovConfig {
        name: "sedov256".into(),
        engine: Engine::Oracle,
        n_cell: 256,
        max_level: 2,
        max_step: 16,
        plot_int: 2,
        nprocs: 32,
        account_only: true,
        compute_ns_per_cell: 2_000.0,
        ..Default::default()
    };
    let spec = ExperimentSpec::over("restarts", &[base])
        .backends(&backends)
        .codecs(&codecs)
        .modes(&[RunMode::Write, RunMode::Restart]);
    let storage = StorageModel::ideal(8, 2.5e8);
    let mut store = ResultsStore::open(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/store/restart_sweep"
    ))
    .expect("open results store");
    let report = run_spec(&spec, &mut store, Some(&storage)).expect("run spec");
    println!(
        "store {}: {} cells executed, {} resumed\n",
        store.dir().display(),
        report.executed,
        report.resumed
    );
    let summaries = report.summaries;
    println!(
        "{:<10} {:>10} {:>8} {:>13} {:>13} {:>10} {:>10}",
        "backend", "codec", "mode", "phys bytes", "read bytes", "read wall", "wall (s)"
    );
    for s in &summaries {
        println!(
            "{:<10} {:>10} {:>8} {:>13} {:>13} {:>10.4} {:>10.4}",
            s.backend,
            s.codec,
            if s.restart { "restart" } else { "write" },
            s.physical_bytes,
            s.physical_read_bytes,
            s.read_wall,
            s.wall_time,
        );
    }

    // Logical read bytes are backend- and codec-invariant; restarts cost
    // wall-clock over their write-only twins.
    let restarts: Vec<_> = summaries.iter().filter(|s| s.restart).collect();
    assert_eq!(restarts.len(), 9);
    assert!(restarts
        .windows(2)
        .all(|w| w[0].read_bytes == w[1].read_bytes));
    for r in &restarts {
        let twin = summaries
            .iter()
            .find(|s| !s.restart && s.backend == r.backend && s.codec == r.codec)
            .expect("write twin");
        assert!(
            r.wall_time > twin.wall_time,
            "{}: restart must cost",
            r.name
        );
        assert!(r.read_wall > 0.0);
    }

    // The read-time regression, served by the store's query plane:
    // filter the restart rows, project the two columns as an XySeries,
    // and hand it to the model crate's read-time fit.
    let series = store.query().filter("restart", "true").xy(
        "physical_read_bytes",
        "read_wall",
        "restart reads",
    );
    assert_eq!(series.points.len(), restarts.len());
    let fit = model::fit_read_time(&series.xs(), &series.ys());
    println!(
        "\nread-time regression over the 9 restart rows: \
         wall = {:.4} s + bytes / {:.3e} B/s (r2 = {:.4})",
        fit.intercept,
        1.0 / fit.slope,
        fit.r2
    );
    assert!(fit.slope > 0.0, "more read bytes, more read wall");
    println!("\nrestart reads round-trip and are priced across the full matrix: OK");
}
