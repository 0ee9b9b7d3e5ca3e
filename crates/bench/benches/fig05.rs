//! Fig. 5: cumulative output size per output step vs the cumulative
//! number of output cells (Eq. 1), across the Table III campaign —
//! the mixed linear / non-linear families.

use amrproxy::{run_campaign, table3_campaign};
use bench::{ascii_loglog, banner, print_series, write_artifact};
use model::linear_fit;

fn main() {
    banner(
        "fig05",
        "Fig. 5 of the paper",
        "Cumulative output size vs cumulative output cells (log-log), Table III campaign",
    );
    // The figure shows a representative subset; exclude the very largest
    // runs exactly as the paper does "for illustration purposes".
    let configs: Vec<_> = table3_campaign()
        .into_iter()
        .filter(|c| c.n_cell <= 2048)
        .collect();
    eprintln!("running {} campaign configurations...", configs.len());
    let summaries = run_campaign(&configs, None);

    let mut plotted: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    let mut linear_count = 0usize;
    let mut nonlinear_count = 0usize;
    for s in &summaries {
        if s.series.len() < 3 {
            continue;
        }
        let xs: Vec<f64> = s.series.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = s.series.iter().map(|p| p.1).collect();
        let fit = linear_fit(&xs, &ys);
        let tag = if fit.r2 > 0.999 {
            "linear"
        } else {
            "non-linear"
        };
        if fit.r2 > 0.999 {
            linear_count += 1;
        } else {
            nonlinear_count += 1;
        }
        println!(
            "{:<28} maxl={} cfl={:.1} R2={:.5} ({tag})",
            s.name, s.max_level, s.cfl, fit.r2
        );
        plotted.push((s.name.clone(), s.series.clone()));
    }
    println!("\n{linear_count} near-linear runs, {nonlinear_count} non-linear runs");
    // The paper's observation: both families exist, and the non-linear
    // family is driven by refinement (higher max_level).
    assert!(linear_count > 0, "a near-linear family must exist");
    assert!(nonlinear_count > 0, "a non-linear family must exist");
    let deep_runs_r2: Vec<f64> = summaries
        .iter()
        .filter(|s| s.max_level >= 4 && s.series.len() >= 3)
        .map(|s| {
            let xs: Vec<f64> = s.series.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = s.series.iter().map(|p| p.1).collect();
            linear_fit(&xs, &ys).r2
        })
        .collect();
    let shallow_runs_r2: Vec<f64> = summaries
        .iter()
        .filter(|s| s.max_level == 2 && s.series.len() >= 3)
        .map(|s| {
            let xs: Vec<f64> = s.series.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = s.series.iter().map(|p| p.1).collect();
            linear_fit(&xs, &ys).r2
        })
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "mean R2: max_level=2 runs {:.6}, max_level>=4 runs {:.6}",
        mean(&shallow_runs_r2),
        mean(&deep_runs_r2)
    );
    assert!(
        mean(&deep_runs_r2) < mean(&shallow_runs_r2),
        "deeper hierarchies deviate more from linearity"
    );

    println!("\nlog-log scatter (each mark family = one run):");
    print!("{}", ascii_loglog(&plotted, 72, 24));

    // Print two representative series in full.
    if let Some(s) = summaries
        .iter()
        .find(|s| s.max_level == 2 && s.n_cell == 256)
    {
        print_series(&format!("{} (near-linear)", s.name), &s.series);
    }
    if let Some(s) = summaries.iter().find(|s| s.max_level == 4) {
        print_series(&format!("{} (non-linear)", s.name), &s.series);
    }
    write_artifact("fig05", &summaries);
}
