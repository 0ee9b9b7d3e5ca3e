//! A parameterized Sedov campaign (a small slice of the paper's Table III
//! study): sweep CFL and max_level, collect the cumulative output series,
//! and classify runs as linear vs non-linear via least-squares R^2.
//!
//! ```text
//! cargo run --release --example sedov_campaign
//! ```

use amr_proxy_io::amrproxy::{run_campaign, table3_campaign};
use amr_proxy_io::model::linear_fit;

fn main() {
    // The small half of the Table III ladder for a fast demonstration.
    let configs: Vec<_> = table3_campaign()
        .into_iter()
        .filter(|c| c.n_cell <= 512)
        .collect();
    println!(
        "running {} of the 47 Table III configurations ...",
        configs.len()
    );
    let summaries = run_campaign(&configs, None);

    println!(
        "\n{:<28} {:>7} {:>5} {:>5} {:>9} {:>12} {:>8}",
        "run", "n_cell", "maxl", "cfl", "R^2", "bytes", "family"
    );
    for s in &summaries {
        if s.series.len() < 3 {
            continue;
        }
        let xs: Vec<f64> = s.series.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = s.series.iter().map(|p| p.1).collect();
        let fit = linear_fit(&xs, &ys);
        println!(
            "{:<28} {:>7} {:>5} {:>5} {:>9.5} {:>12} {:>8}",
            s.name,
            s.n_cell,
            s.max_level,
            s.cfl,
            fit.r2,
            s.total_bytes,
            if fit.r2 > 0.999 { "linear" } else { "non-lin" }
        );
    }

    let bytes_total: u64 = summaries.iter().map(|s| s.total_bytes).sum();
    let files_total: u64 = summaries.iter().map(|s| s.total_files).sum();
    println!("\ncampaign totals: {bytes_total} bytes across {files_total} files");
}
