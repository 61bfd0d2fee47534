//! Deterministic ridge regression by normal equations.
//!
//! The learned predictors fit tiny linear models — a handful of
//! physically-motivated features per execution-time component — from at
//! most a few hundred retained samples, so the textbook route is the
//! right one: form `A = XᵀX + λI` and `b = Xᵀy`, then solve `Aw = b`
//! by Gaussian elimination with partial pivoting. Everything is plain
//! `f64` arithmetic in a fixed order, so a fit is a pure function of
//! its inputs: the same sample matrix produces bit-identical
//! coefficients on every run.
//!
//! There is one solver, [`solve_ridge`], and it takes any number of
//! target columns: the three execution-time components share a design
//! matrix, so the learned predictor forms `A` once and eliminates once,
//! all right-hand sides riding along — the same bits as a fit per
//! component, because nothing on the left-hand side ever depended on
//! `y`. It reads rows from an iterator and works in the caller's
//! scratch, so that caller stores no feature matrix and allocates
//! nothing. [`fit_ridge`] is its one-column caller for a materialized
//! matrix.
//!
//! Degenerate inputs are *typed rejections*, never panics and never
//! non-finite coefficients: an empty sample set, a sample containing a
//! NaN or infinity, too few rows to determine the coefficients, and a
//! numerically singular normal matrix each map to their own
//! [`FitError`] variant so callers can keep serving the analytical
//! model instead of poisoning predictions.

use std::fmt;

/// Why a fit was refused. Every variant is a property of the sample
/// set, not a transient condition: retrying the same fit yields the
/// same error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// No samples at all.
    Empty,
    /// Fewer rows than coefficients: the normal equations would be
    /// determined only by the ridge prior, not the data.
    NotEnoughSamples {
        /// Rows provided.
        got: usize,
        /// Rows required (the feature dimension).
        need: usize,
    },
    /// A feature or target value is NaN or infinite.
    NonFinite,
    /// The regularized normal matrix is numerically singular (e.g.
    /// duplicated feature columns with `lambda == 0`), or elimination
    /// produced non-finite coefficients.
    IllConditioned,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Empty => write!(f, "no samples to fit"),
            FitError::NotEnoughSamples { got, need } => {
                write!(f, "{got} samples cannot determine {need} coefficients")
            }
            FitError::NonFinite => write!(f, "sample set contains a non-finite value"),
            FitError::IllConditioned => {
                write!(f, "normal matrix is numerically singular")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Least-squares fit of `y ≈ X·w` with Tikhonov damping `lambda` on
/// every coefficient. Returns the coefficient vector `w` (same length
/// as each feature row), or a typed [`FitError`].
///
/// All rows must share one length; `lambda` must be finite and
/// non-negative. The returned coefficients are always finite. This is
/// [`solve_ridge`] with one target column.
pub fn fit_ridge(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<Vec<f64>, FitError> {
    if xs.is_empty() || ys.is_empty() {
        return Err(FitError::Empty);
    }
    assert_eq!(xs.len(), ys.len(), "one target per feature row");
    let dims = xs[0].len();
    let mut a = vec![0.0f64; dims * dims];
    let mut w = vec![0.0f64; dims];
    solve_ridge(dims, xs.iter().zip(ys).map(|(x, &y)| (x, [y])), lambda, &mut a, &mut w)?;
    Ok(w)
}

/// The one solver: ridge normal equations for every target column of a
/// shared design matrix.
///
/// `rows` yields `(φ, y)` — a feature row of length `dims` and that
/// row's `k` targets. `a` (`dims × dims`, row-major) and `w` (`k`
/// vectors of `dims`, one after the other) are the caller's scratch, so
/// a caller with fixed dimensions solves on its stack; their contents
/// on entry are ignored. On `Ok`, `w[c·dims..][..dims]` holds the
/// coefficients for target column `c`, all finite.
///
/// `A = Σφφᵀ + λI` is accumulated once and `b_c = Σφ·y_c` beside it in
/// the same row order; one elimination then carries every right-hand
/// side. Pivots and multipliers are functions of `A` alone and each
/// right-hand side sees exactly the operations a solve of its own would
/// apply, so the result equals `k` separate [`fit_ridge`] calls bit for
/// bit. (The products `φᵢφⱼ` and `φⱼφᵢ` are the same bits, so only the
/// upper triangle is summed and the lower is copied from it.)
///
/// Refusals, checked in this order: no rows ([`FitError::Empty`]),
/// fewer rows than `dims`, a non-finite cell in any row or target, a
/// negligible pivot, a non-finite coefficient in any column.
pub fn solve_ridge<X: AsRef<[f64]>, Y: AsRef<[f64]>>(
    dims: usize,
    rows: impl ExactSizeIterator<Item = (X, Y)>,
    lambda: f64,
    a: &mut [f64],
    w: &mut [f64],
) -> Result<(), FitError> {
    assert!(dims > 0, "feature rows must be non-empty");
    assert!(lambda.is_finite() && lambda >= 0.0, "ridge damping must be finite and non-negative");
    assert_eq!(a.len(), dims * dims, "scratch for a dims × dims normal matrix");
    assert_eq!(w.len() % dims, 0, "one coefficient vector of dims per target column");
    let k = w.len() / dims;
    match rows.len() {
        0 => return Err(FitError::Empty),
        got if got < dims => return Err(FitError::NotEnoughSamples { got, need: dims }),
        _ => {}
    }

    // Normal equations: A = XᵀX + λI, b_c = Xᵀy_c.
    a.fill(0.0);
    w.fill(0.0);
    for (x, y) in rows {
        let (x, y) = (x.as_ref(), y.as_ref());
        assert_eq!(x.len(), dims, "ragged feature matrix");
        assert_eq!(y.len(), k, "one target per column in every row");
        if x.iter().chain(y).any(|v| !v.is_finite()) {
            return Err(FitError::NonFinite);
        }
        for i in 0..dims {
            for j in i..dims {
                a[i * dims + j] += x[i] * x[j];
            }
            for c in 0..k {
                w[c * dims + i] += x[i] * y[c];
            }
        }
    }
    for i in 0..dims {
        for j in 0..i {
            a[i * dims + j] = a[j * dims + i];
        }
        a[i * dims + i] += lambda;
    }

    // Gaussian elimination with partial pivoting, every right-hand
    // side riding along.
    let scale = a.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
    for col in 0..dims {
        // Largest remaining pivot in this column; ties keep the
        // lowest row index, so the elimination order is deterministic.
        let mut pivot = col;
        for row in col + 1..dims {
            if a[row * dims + col].abs() > a[pivot * dims + col].abs() {
                pivot = row;
            }
        }
        if a[pivot * dims + col].abs() <= 1e-12 * scale {
            return Err(FitError::IllConditioned);
        }
        if pivot != col {
            let (upper, lower) = a.split_at_mut(pivot * dims);
            upper[col * dims..(col + 1) * dims].swap_with_slice(&mut lower[..dims]);
            for b in w.chunks_exact_mut(dims) {
                b.swap(col, pivot);
            }
        }
        for row in col + 1..dims {
            let f = a[row * dims + col] / a[col * dims + col];
            a[row * dims + col] = 0.0;
            // Split so the pivot row can be borrowed immutably while
            // the target row is eliminated in place.
            let (upper, lower) = a.split_at_mut(row * dims);
            let pivot_row = &upper[col * dims + col + 1..(col + 1) * dims];
            for (t, p) in lower[col + 1..dims].iter_mut().zip(pivot_row) {
                *t -= f * p;
            }
            for b in w.chunks_exact_mut(dims) {
                b[row] -= f * b[col];
            }
        }
    }
    for b in w.chunks_exact_mut(dims) {
        for col in (0..dims).rev() {
            let mut acc = b[col];
            for j in col + 1..dims {
                acc -= a[col * dims + j] * b[j];
            }
            b[col] = acc / a[col * dims + col];
        }
    }
    if w.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(FitError::IllConditioned)
    }
}

/// `fit_ridge` as it stood when it owned its elimination: a normal
/// matrix of `Vec<Vec<f64>>` per call and a solver for one right-hand
/// side, verbatim. The bit-identity tests here and in `predictor`
/// compare against it, so they do not rest on the code they check.
#[cfg(test)]
pub(crate) mod reference {
    use super::FitError;

    pub fn fit_ridge(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<Vec<f64>, FitError> {
        if xs.is_empty() || ys.is_empty() {
            return Err(FitError::Empty);
        }
        assert_eq!(xs.len(), ys.len(), "one target per feature row");
        let dims = xs[0].len();
        assert!(dims > 0, "feature rows must be non-empty");
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "ridge damping must be finite and non-negative"
        );
        if xs.len() < dims {
            return Err(FitError::NotEnoughSamples { got: xs.len(), need: dims });
        }
        for (row, &y) in xs.iter().zip(ys) {
            assert_eq!(row.len(), dims, "ragged feature matrix");
            if !y.is_finite() || row.iter().any(|v| !v.is_finite()) {
                return Err(FitError::NonFinite);
            }
        }

        // Normal equations: A = XᵀX + λI (dims × dims), b = Xᵀy.
        let mut a = vec![vec![0.0f64; dims]; dims];
        let mut b = vec![0.0f64; dims];
        for (row, &y) in xs.iter().zip(ys) {
            for i in 0..dims {
                for j in 0..dims {
                    a[i][j] += row[i] * row[j];
                }
                b[i] += row[i] * y;
            }
        }
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += lambda;
        }

        solve(a, b).ok_or(FitError::IllConditioned)
    }

    /// Gaussian elimination with partial pivoting. `None` when a pivot is
    /// negligible relative to the matrix scale or the solution is not
    /// finite.
    fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
        let n = b.len();
        let scale = a.iter().flat_map(|row| row.iter()).fold(1.0f64, |acc, &v| acc.max(v.abs()));
        for col in 0..n {
            // Largest remaining pivot in this column; ties keep the
            // lowest row index, so the elimination order is deterministic.
            let mut pivot = col;
            for row in col + 1..n {
                if a[row][col].abs() > a[pivot][col].abs() {
                    pivot = row;
                }
            }
            if a[pivot][col].abs() <= 1e-12 * scale {
                return None;
            }
            a.swap(col, pivot);
            b.swap(col, pivot);
            for row in col + 1..n {
                let f = a[row][col] / a[col][col];
                a[row][col] = 0.0;
                // Split the two rows so the pivot row can be borrowed
                // immutably while the target row is eliminated in place.
                let (pivot_rows, target_rows) = a.split_at_mut(row);
                let (pivot_row, target_row) = (&pivot_rows[col], &mut target_rows[0]);
                for (t, p) in target_row[col + 1..n].iter_mut().zip(&pivot_row[col + 1..n]) {
                    *t -= f * p;
                }
                b[row] -= f * b[col];
            }
        }
        let mut w = vec![0.0f64; n];
        for col in (0..n).rev() {
            let mut acc = b[col];
            for k in col + 1..n {
                acc -= a[col][k] * w[k];
            }
            w[col] = acc / a[col][col];
        }
        if w.iter().all(|v| v.is_finite()) {
            Some(w)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(rows: &[(f64, f64)]) -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 3 + 2·u − 0.5·v, exactly.
        let xs: Vec<Vec<f64>> = rows.iter().map(|&(u, v)| vec![1.0, u, v]).collect();
        let ys: Vec<f64> = rows.iter().map(|&(u, v)| 3.0 + 2.0 * u - 0.5 * v).collect();
        (xs, ys)
    }

    #[test]
    fn recovers_exact_coefficients_from_noise_free_samples() {
        let (xs, ys) = design(&[(0.0, 1.0), (1.0, 0.0), (2.0, 3.0), (5.0, 2.0), (7.0, 9.0)]);
        let w = fit_ridge(&xs, &ys, 0.0).unwrap();
        assert!((w[0] - 3.0).abs() < 1e-9, "intercept {w:?}");
        assert!((w[1] - 2.0).abs() < 1e-9);
        assert!((w[2] + 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_set_is_a_typed_rejection() {
        assert_eq!(fit_ridge(&[], &[], 1e-6), Err(FitError::Empty));
    }

    #[test]
    fn non_finite_samples_are_rejected_not_propagated() {
        let (mut xs, ys) = design(&[(0.0, 1.0), (1.0, 0.0), (2.0, 3.0)]);
        xs[1][2] = f64::NAN;
        assert_eq!(fit_ridge(&xs, &ys, 1e-6), Err(FitError::NonFinite));
        let (xs, mut ys) = design(&[(0.0, 1.0), (1.0, 0.0), (2.0, 3.0)]);
        ys[0] = f64::INFINITY;
        assert_eq!(fit_ridge(&xs, &ys, 1e-6), Err(FitError::NonFinite));
    }

    #[test]
    fn underdetermined_set_is_rejected() {
        let (xs, ys) = design(&[(0.0, 1.0), (1.0, 0.0)]);
        assert_eq!(fit_ridge(&xs, &ys, 1e-6), Err(FitError::NotEnoughSamples { got: 2, need: 3 }));
    }

    #[test]
    fn duplicated_columns_without_damping_are_ill_conditioned() {
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![1.0, i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..6).map(|i| 1.0 + 3.0 * i as f64).collect();
        assert_eq!(fit_ridge(&xs, &ys, 0.0), Err(FitError::IllConditioned));
        // A whisper of ridge makes the same system solvable — and the
        // collinear pair splits the slope deterministically.
        let w = fit_ridge(&xs, &ys, 1e-9).unwrap();
        assert!(w.iter().all(|v| v.is_finite()));
        assert!((w[1] + w[2] - 3.0).abs() < 1e-3, "{w:?}");
    }

    /// `fit_ridge` is a one-column caller of `solve_ridge` now; its
    /// answers — coefficients bit for bit, and which inputs it refuses
    /// with which error — are those of the solver it used to own.
    #[test]
    fn fit_ridge_keeps_the_bits_of_the_solver_it_replaced() {
        // xorshift: designs of every shape the callers produce.
        let mut h = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            h
        };
        let (mut fitted, mut refused) = (0, 0);
        for case in 0..2_000 {
            let dims = 1 + (next() % 6) as usize;
            let rows = (next() % 40) as usize;
            let lambda = [0.0, 1e-10, 1e-6, 1e-2][(next() % 4) as usize];
            let mut xs: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..dims).map(|_| (next() % 20_000) as f64 / 1_000.0 - 5.0).collect())
                .collect();
            let mut ys: Vec<f64> = (0..rows).map(|_| (next() % 9_000) as f64 / 7.0).collect();
            match (case % 8, rows) {
                (_, 0) => {}
                // A duplicated column, a poisoned cell, a poisoned
                // target, a design that overflows the normal matrix.
                (1, _) if dims > 1 => xs.iter_mut().for_each(|x| x[dims - 1] = x[0]),
                (2, _) => xs[rows / 2][dims / 2] = f64::NAN,
                (3, _) => ys[rows / 3] = f64::NEG_INFINITY,
                (4, _) => xs[0][0] = 1e200,
                _ => {}
            }
            let want = reference::fit_ridge(&xs, &ys, lambda);
            let got = fit_ridge(&xs, &ys, lambda);
            let bits = |r: &Result<Vec<f64>, FitError>| {
                r.as_ref()
                    .map(|w| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    .map_err(|e| *e)
            };
            assert_eq!(bits(&got), bits(&want), "case {case}: {dims} dims, {rows} rows");
            match want {
                Ok(_) => fitted += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(fitted > 500 && refused > 500, "{fitted} fitted, {refused} refused");
    }

    #[test]
    fn fit_is_bitwise_deterministic() {
        let (xs, ys) = design(&[(0.2, 1.7), (1.1, 0.3), (2.9, 3.4), (5.5, 2.2), (7.1, 9.9)]);
        let a = fit_ridge(&xs, &ys, 1e-6).unwrap();
        let b = fit_ridge(&xs, &ys, 1e-6).unwrap();
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }
}
