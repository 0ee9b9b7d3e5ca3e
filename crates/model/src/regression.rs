//! Ordinary least-squares linear regression.
//!
//! The paper applies linear regression to the cumulative `(x, y)` samples
//! to separate the near-linear runs (L0-dominated) from the non-linear
//! family driven by refinement (Figs. 5-7).

use serde::{Deserialize, Serialize};

/// A fitted line `y = intercept + slope * x` with its goodness of fit.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

/// Fits `y = a + b x` by least squares.
///
/// # Panics
/// Panics when fewer than 2 samples are given or all x are identical.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "linear_fit: length mismatch");
    assert!(xs.len() >= 2, "linear_fit: need at least 2 samples");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    assert!(sxx > 0.0, "linear_fit: degenerate x values");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy > 0.0 {
        (sxy * sxy) / (sxx * syy)
    } else {
        1.0 // constant y is fit perfectly by slope ~ 0
    };
    LinearFit {
        slope,
        intercept,
        r2,
    }
}

/// A fitted hyperplane `y = intercept + sum(coeffs[j] * x[j])` with its
/// goodness of fit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultiFit {
    /// One coefficient per feature.
    pub coeffs: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

impl MultiFit {
    /// Predicts `y` for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coeffs.len(), "MultiFit: feature mismatch");
        self.intercept + self.coeffs.iter().zip(x).map(|(c, v)| c * v).sum::<f64>()
    }
}

/// Fits `y = a + b . x` over multiple features by ordinary least squares
/// (normal equations, Gaussian elimination with partial pivoting — the
/// feature counts here are tiny). Used to learn compression ratio as a
/// regression feature alongside the Eq. (1) cumulative term.
///
/// # Panics
/// Panics when sample counts mismatch, there are fewer samples than
/// `nfeatures + 1`, or the design matrix is singular.
pub fn multi_linear_fit(rows: &[Vec<f64>], ys: &[f64]) -> MultiFit {
    assert_eq!(rows.len(), ys.len(), "multi_linear_fit: length mismatch");
    let n = rows.len();
    assert!(n >= 2, "multi_linear_fit: need at least 2 samples");
    let k = rows[0].len();
    assert!(k >= 1, "multi_linear_fit: need at least 1 feature");
    assert!(rows.iter().all(|r| r.len() == k), "ragged feature rows");
    assert!(n > k, "multi_linear_fit: need more samples than features");

    // Augmented design: column 0 is the intercept.
    let d = k + 1;
    let mut ata = vec![vec![0.0f64; d]; d];
    let mut aty = vec![0.0f64; d];
    for (row, &y) in rows.iter().zip(ys) {
        let mut aug = Vec::with_capacity(d);
        aug.push(1.0);
        aug.extend_from_slice(row);
        for i in 0..d {
            aty[i] += aug[i] * y;
            for j in 0..d {
                ata[i][j] += aug[i] * aug[j];
            }
        }
    }
    // Solve (A^T A) beta = A^T y.
    for col in 0..d {
        let pivot = (col..d)
            .max_by(|&a, &b| ata[a][col].abs().total_cmp(&ata[b][col].abs()))
            .expect("non-empty");
        assert!(
            ata[pivot][col].abs() > 1e-12,
            "multi_linear_fit: singular design matrix"
        );
        ata.swap(col, pivot);
        aty.swap(col, pivot);
        let pivot_row = ata[col].clone();
        for row in 0..d {
            if row == col {
                continue;
            }
            let factor = ata[row][col] / pivot_row[col];
            for (a, p) in ata[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *a -= factor * p;
            }
            aty[row] -= factor * aty[col];
        }
    }
    let beta: Vec<f64> = (0..d).map(|i| aty[i] / ata[i][i]).collect();

    let mean_y = ys.iter().sum::<f64>() / n as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (row, &y) in rows.iter().zip(ys) {
        let pred = beta[0] + row.iter().zip(&beta[1..]).map(|(v, c)| v * c).sum::<f64>();
        ss_res += (y - pred) * (y - pred);
        ss_tot += (y - mean_y) * (y - mean_y);
    }
    let r2 = if ss_tot > 0.0 {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    } else {
        1.0
    };
    MultiFit {
        coeffs: beta[1..].to_vec(),
        intercept: beta[0],
        r2,
    }
}

/// Fits physical output bytes against the Eq. (1) cumulative term and the
/// inverse compression ratio: `physical = a + b * (x / ratio)` — the
/// compression-aware extension of the paper's linear family. Samples come
/// from backend × codec sweeps (`x` per Eq. (1), `ratio = logical /
/// physical` per run).
pub fn fit_bytes_with_ratio(xs: &[f64], ratios: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ratios.len(), "fit_bytes_with_ratio: mismatch");
    assert!(
        ratios.iter().all(|&r| r >= 1.0),
        "fit_bytes_with_ratio: ratios must be >= 1"
    );
    let scaled: Vec<f64> = xs.iter().zip(ratios).map(|(&x, &r)| x / r).collect();
    linear_fit(&scaled, ys)
}

/// Fits restart-read wall-clock against physical read volume:
/// `read_wall = a + b * physical_read_bytes` — the read plane's second
/// regression target next to the Eq. (1) write-bytes family. `1 / b` is
/// the effective restart bandwidth the proxy achieved, `a` the per-phase
/// fixed cost (index fetches, file opens). Samples come from restart
/// sweeps (`RunSummary::{physical_read_bytes, read_wall}`); non-finite
/// samples (idealized zero-latency models) are skipped rather than
/// ingested as fake zeros.
///
/// # Panics
/// Panics when fewer than 2 finite samples remain or all x are identical.
pub fn fit_read_time(physical_read_bytes: &[f64], read_walls: &[f64]) -> LinearFit {
    assert_eq!(
        physical_read_bytes.len(),
        read_walls.len(),
        "fit_read_time: length mismatch"
    );
    let (xs, ys): (Vec<f64>, Vec<f64>) = physical_read_bytes
        .iter()
        .zip(read_walls)
        .filter(|(&x, &y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .unzip();
    linear_fit(&xs, &ys)
}

/// Fits selective-analysis-read wall-clock against *touched* physical
/// bytes: `selective_read_wall = a + b * touched_physical_bytes` — the
/// analysis plane's regression target, fitted across read patterns and
/// layouts ({raw, reorganized} × {level, field, box} from analysis
/// campaign summaries:
/// `RunSummary::{selective_physical_read_bytes, selective_read_wall}`).
/// `1 / b` is the effective selective-read bandwidth, `a` the per-query
/// fixed cost (index/directory fetches, file opens). A layout change
/// that helps shows up as the reorganized samples sitting below the raw
/// fit line at equal logical volume — which is how "how much does reorg
/// buy each read pattern" becomes a number.
///
/// Non-finite samples and zero-byte samples (empty selections, which
/// carry no bandwidth information) are skipped rather than ingested as
/// fake zeros.
///
/// # Panics
/// Panics when fewer than 2 usable samples remain or all x are
/// identical.
pub fn fit_selective_read(touched_physical_bytes: &[f64], selective_walls: &[f64]) -> LinearFit {
    assert_eq!(
        touched_physical_bytes.len(),
        selective_walls.len(),
        "fit_selective_read: length mismatch"
    );
    let (xs, ys): (Vec<f64>, Vec<f64>) = touched_physical_bytes
        .iter()
        .zip(selective_walls)
        .filter(|(&x, &y)| x.is_finite() && y.is_finite() && x > 0.0)
        .map(|(&x, &y)| (x, y))
        .unzip();
    linear_fit(&xs, &ys)
}

/// Fits streamed-transfer wall-clock against network bytes:
/// `net_wall = a + b * net_bytes` — the network plane's regression
/// target, fitted from `RunSummary::{net_bytes, net_wall}` across a
/// streaming sweep. `1 / b` is the effective link bandwidth actually
/// achieved (fair-shared across streamed tenants when a fabric link is
/// attached), `a` the accumulated per-transfer latency — the same
/// intercept/slope split `fit_read_time` gives the storage plane, but
/// priced on the interconnect instead of the servers. Storage-backend
/// rows (net_bytes == 0) carry no link information and are skipped, so
/// a mixed campaign can be fed in unfiltered.
///
/// # Panics
/// Panics when fewer than 2 usable samples remain or all x are
/// identical.
pub fn fit_stream_time(net_bytes: &[f64], net_walls: &[f64]) -> LinearFit {
    assert_eq!(
        net_bytes.len(),
        net_walls.len(),
        "fit_stream_time: length mismatch"
    );
    let (xs, ys): (Vec<f64>, Vec<f64>) = net_bytes
        .iter()
        .zip(net_walls)
        .filter(|(&x, &y)| x.is_finite() && y.is_finite() && x > 0.0)
        .map(|(&x, &y)| (x, y))
        .unzip();
    linear_fit(&xs, &ys)
}

/// Fits a power law `y = c * x^p` by regressing in log-log space.
/// Requires strictly positive data.
pub fn powerlaw_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert!(
        xs.iter().chain(ys).all(|&v| v > 0.0),
        "powerlaw_fit: data must be positive"
    );
    let lx: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|v| v.ln()).collect();
    let fit = linear_fit(&lx, &ly);
    (fit.intercept.exp(), fit.slope, fit.r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let fit = linear_fit(&xs, &ys);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noise_lowers_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 25.0 } else { -25.0 })
            .collect();
        let fit = linear_fit(&xs, &ys);
        assert!(fit.r2 < 0.95);
        assert!((fit.slope - 2.0).abs() < 0.2);
    }

    #[test]
    fn constant_y_has_zero_slope() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 5.0];
        let fit = linear_fit(&xs, &ys);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    fn powerlaw_recovers_exponent() {
        let xs: Vec<f64> = (1..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 * x.powf(1.5)).collect();
        let (c, p, r2) = powerlaw_fit(&xs, &ys);
        assert!((c - 4.0).abs() < 1e-9);
        assert!((p - 1.5).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_fit_recovers_plane() {
        // y = 1 + 2a + 3b, exactly.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for a in 0..6 {
            for b in 0..6 {
                rows.push(vec![a as f64, b as f64]);
                ys.push(1.0 + 2.0 * a as f64 + 3.0 * b as f64);
            }
        }
        let fit = multi_linear_fit(&rows, &ys);
        assert!((fit.intercept - 1.0).abs() < 1e-9, "{fit:?}");
        assert!((fit.coeffs[0] - 2.0).abs() < 1e-9);
        assert!((fit.coeffs[1] - 3.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
        assert!((fit.predict(&[2.0, 2.0]) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn multi_fit_matches_simple_fit_on_one_feature() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let simple = linear_fit(&xs, &ys);
        let multi = multi_linear_fit(&rows, &ys);
        assert!((multi.coeffs[0] - simple.slope).abs() < 1e-9);
        assert!((multi.intercept - simple.intercept).abs() < 1e-9);
    }

    #[test]
    fn ratio_feature_recovers_compression_law() {
        // physical = logical / ratio with logical = 400 * x: samples at
        // three ratios collapse onto one line in x / ratio.
        let mut xs = Vec::new();
        let mut ratios = Vec::new();
        let mut ys = Vec::new();
        for step in 1..=8 {
            for ratio in [1.0, 2.0, 7.5] {
                let x = step as f64 * 1024.0;
                xs.push(x);
                ratios.push(ratio);
                ys.push(400.0 * x / ratio);
            }
        }
        let fit = fit_bytes_with_ratio(&xs, &ratios, &ys);
        assert!((fit.slope - 400.0).abs() < 1e-6, "{fit:?}");
        assert!(fit.intercept.abs() < 1e-6);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn read_time_fit_recovers_bandwidth_and_open_cost() {
        // read_wall = 0.02 + bytes / 5e7, with two non-finite samples
        // (ideal-model artifacts) that must be skipped.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for mb in [1u64, 4, 16, 64, 256] {
            let bytes = (mb * 1_000_000) as f64;
            xs.push(bytes);
            ys.push(0.02 + bytes / 5e7);
        }
        xs.push(f64::INFINITY);
        ys.push(1.0);
        xs.push(1.0e6);
        ys.push(f64::NAN);
        let fit = fit_read_time(&xs, &ys);
        assert!((1.0 / fit.slope - 5e7).abs() / 5e7 < 1e-9, "{fit:?}");
        assert!((fit.intercept - 0.02).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn selective_read_fit_recovers_bandwidth_and_skips_empty_queries() {
        // Samples across patterns and layouts: wall = open cost + bytes
        // at 2e7 B/s, with a zero-byte empty selection and a NaN thrown
        // in — both must be skipped, not ingested.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for bytes in [5e4, 2e5, 1e6, 4e6, 2e7] {
            xs.push(bytes);
            ys.push(0.005 + bytes / 2e7);
        }
        xs.push(0.0);
        ys.push(0.0); // empty selection: no bandwidth information
        xs.push(3e5);
        ys.push(f64::NAN);
        let fit = fit_selective_read(&xs, &ys);
        assert!((1.0 / fit.slope - 2e7).abs() / 2e7 < 1e-9, "{fit:?}");
        assert!((fit.intercept - 0.005).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stream_fit_recovers_link_bandwidth_from_a_mixed_campaign() {
        // Streamed rows pay a fixed per-transfer latency total plus
        // bytes over a 12.5 GB/s link; storage rows report net_bytes
        // == 0 and must be skipped rather than dragging the intercept.
        let link = 12.5e9;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for bytes in [1e7, 5e7, 2e8, 1e9, 8e9] {
            xs.push(bytes);
            ys.push(0.002 + bytes / link);
        }
        xs.push(0.0);
        ys.push(0.0); // a storage-backend row from the same campaign
        let fit = fit_stream_time(&xs, &ys);
        assert!((1.0 / fit.slope - link).abs() / link < 1e-9, "{fit:?}");
        assert!((fit.intercept - 0.002).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn multi_fit_rejects_degenerate_features() {
        // A feature identical to the intercept column.
        let rows = vec![vec![1.0], vec![1.0], vec![1.0]];
        multi_linear_fit(&rows, &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn too_few_samples_panics() {
        linear_fit(&[1.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn identical_x_panics() {
        linear_fit(&[2.0, 2.0], &[1.0, 3.0]);
    }
}
