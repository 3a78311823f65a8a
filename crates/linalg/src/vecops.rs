//! Free functions on `&[f64]` slices.
//!
//! Vectors flow between crates as plain `Vec<f64>`; these helpers keep the
//! call sites short without committing the whole workspace to a wrapper type.
//!
//! The `dot`/`axpy`/`gather_dot`/`scatter_axpy`/`masked_gather_dot` kernels
//! are the inner loops of the revised simplex (`B⁻¹` row updates,
//! simplex-multiplier accumulation, column pricing, and the sparse
//! triangular solves through the LU factors and Forrest–Tomlin
//! row etas). Since PR 8 they dispatch through the [`kernel`](crate::kernel)
//! subsystem: one runtime selection per process picks the best
//! [`VecKernel`](crate::kernel::VecKernel) backend the CPU proves
//! (AVX2+FMA on x86_64, NEON on aarch64, the portable four-wide scalar
//! unrolls everywhere), overridable with `QAVA_KERNEL={auto,scalar,avx2,
//! neon}`. The free-function signatures here are unchanged, so every call
//! site across the workspace rides whichever backend was selected.
//!
//! Slices shorter than [`kernel::DISPATCH_MIN`](crate::kernel::DISPATCH_MIN)
//! bypass the dispatch table into the inlined scalar bodies — the µs-scale
//! polyhedra probes and short eta columns live below one vector iteration,
//! where an indirect call costs more than it saves. Results for such
//! lengths are therefore bit-identical under every `QAVA_KERNEL` value.

use crate::kernel::{self, scalar};

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// assert_eq!(qava_linalg::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    if a.len() < kernel::DISPATCH_MIN {
        scalar::dot(a, b)
    } else {
        kernel::active().dot(a, b)
    }
}

/// `y += alpha * x`, the classic axpy update.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if x.len() < kernel::DISPATCH_MIN {
        scalar::axpy(alpha, x, y);
    } else {
        kernel::active().axpy(alpha, x, y);
    }
}

/// Sparse gather dot product `Σ_k vals[k] · x[idx[k]]` — the pricing and
/// forward-transformation kernel of the revised simplex, where one operand
/// is a CSC column and the other a dense vector.
///
/// # Panics
///
/// Panics if `idx` and `vals` have different lengths, or if an index is out
/// of bounds for `x`.
#[inline]
pub fn gather_dot(idx: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    assert_eq!(idx.len(), vals.len(), "gather_dot: length mismatch");
    if idx.len() < kernel::DISPATCH_MIN {
        scalar::gather_dot(idx, vals, x)
    } else {
        kernel::active().gather_dot(idx, vals, x)
    }
}

/// Sparse scatter update `y[idx[k]] += alpha · vals[k]` — the other half of
/// the sparse triangular-solve kernels: [`gather_dot`] drives the transposed
/// (btran) solves, this drives the forward (ftran) solves through L columns
/// and product-form eta columns, where one elimination column is subtracted
/// from a dense running right-hand side.
///
/// The indices must be pairwise distinct (CSC columns are); with duplicates
/// the unrolled accumulation order would differ from the naive one.
///
/// # Panics
///
/// Panics if `idx` and `vals` have different lengths, or if an index is out
/// of bounds for `y`.
#[inline]
pub fn scatter_axpy(alpha: f64, idx: &[usize], vals: &[f64], y: &mut [f64]) {
    assert_eq!(idx.len(), vals.len(), "scatter_axpy: length mismatch");
    if idx.len() < kernel::DISPATCH_MIN {
        scalar::scatter_axpy(alpha, idx, vals, y);
    } else {
        kernel::active().scatter_axpy(alpha, idx, vals, y);
    }
}

/// Masked sparse gather dot product `Σ_k vals[k] · x[idx[k]]` over the
/// entries whose position `pos[idx[k]]` is strictly greater than
/// `cutoff` — the row-spike elimination kernel of the Forrest–Tomlin
/// basis update, where one U column is dotted against the running spike
/// multipliers but only the entries inside the active permutation window
/// `(cutoff, m)` participate (everything at or before the cut is outside
/// the spike row and must not touch the workspace).
///
/// Fusing the position test into the gather keeps the kernel O(nnz of
/// the column) with no materialized sub-column, and lets the caller keep
/// a workspace that is only clean inside the window: an excluded entry's
/// `x` value is never read into the product under any kernel backend.
///
/// # Panics
///
/// Panics if `idx` and `vals` have different lengths, or if an index is
/// out of bounds for `pos`, or if a window-*included* index is out of
/// bounds for `x` — identically under every kernel backend (the SIMD
/// backends run the window test per lane before touching `x`).
#[inline]
pub fn masked_gather_dot(
    idx: &[usize],
    vals: &[f64],
    x: &[f64],
    pos: &[usize],
    cutoff: usize,
) -> f64 {
    assert_eq!(idx.len(), vals.len(), "masked_gather_dot: length mismatch");
    if idx.len() < kernel::DISPATCH_MIN {
        scalar::masked_gather_dot(idx, vals, x, pos, cutoff)
    } else {
        kernel::active().masked_gather_dot(idx, vals, x, pos, cutoff)
    }
}

/// Returns `alpha * x` as a new vector.
pub fn scale(alpha: f64, x: &[f64]) -> Vec<f64> {
    let mut out = x.to_vec();
    scale_in_place(alpha, &mut out);
    out
}

/// In-place `x *= alpha` — the row-scaling kernel of equilibration and
/// of the dense tableau's pivot normalization.
#[inline]
pub fn scale_in_place(alpha: f64, x: &mut [f64]) {
    if x.len() < kernel::DISPATCH_MIN {
        scalar::scale(alpha, x);
    } else {
        kernel::active().scale(alpha, x);
    }
}

/// Element-wise sum `a + b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `a - b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Maximum absolute entry (`∞`-norm); `0.0` for the empty slice.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    if x.len() < kernel::DISPATCH_MIN {
        scalar::norm_inf(x)
    } else {
        kernel::active().norm_inf(x)
    }
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Scales `x` so its largest absolute entry is 1; leaves (near-)zero vectors
/// untouched. Used to keep double-description rays well-conditioned.
pub fn normalize_inf(x: &mut [f64]) {
    let m = norm_inf(x);
    if m > crate::EPS {
        scale_in_place(1.0 / m, x);
    }
}

/// Returns `true` when every entry of `x` is within `tol` of zero.
pub fn is_zero(x: &[f64], tol: f64) -> bool {
    x.iter().all(|v| v.abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, -2.0, 3.0], &[4.0, 5.0, 6.0]), 12.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_unrolled_matches_naive_at_every_remainder_length() {
        // Lengths 0..13 cross the 4-wide chunk boundary at every offset
        // and straddle the DISPATCH_MIN cutover into the SIMD backend.
        for len in 0..13usize {
            let a: Vec<f64> = (0..len).map(|i| (i as f64) * 0.75 - 3.0).collect();
            let b: Vec<f64> = (0..len).map(|i| 1.5 - (i as f64) * 0.25).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-12, "len {len}");
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn axpy_unrolled_matches_naive_at_every_remainder_length() {
        for len in 0..13usize {
            let x: Vec<f64> = (0..len).map(|i| (i as f64) - 2.0).collect();
            let mut y: Vec<f64> = (0..len).map(|i| 0.5 * (i as f64)).collect();
            let mut naive = y.clone();
            for (ni, xi) in naive.iter_mut().zip(&x) {
                *ni += -1.75 * xi;
            }
            axpy(-1.75, &x, &mut y);
            for (got, want) in y.iter().zip(&naive) {
                assert!((got - want).abs() < 1e-12, "len {len}");
            }
        }
    }

    #[test]
    fn gather_dot_matches_dense_dot() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        // Sparse vector with entries at 0, 2, 3, 5 (crosses the unroll
        // boundary at length 4) plus shorter prefixes.
        let idx = [0usize, 2, 3, 5, 1];
        let vals = [2.0, -1.0, 0.5, 4.0, 3.0];
        for take in 0..=idx.len() {
            let naive: f64 = idx[..take].iter().zip(&vals[..take]).map(|(&r, &v)| v * x[r]).sum();
            assert_eq!(gather_dot(&idx[..take], &vals[..take], &x), naive, "take {take}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn gather_dot_length_mismatch_panics() {
        gather_dot(&[0], &[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn masked_gather_dot_respects_the_position_window() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        // A permutation of positions, deliberately not the identity.
        let pos = vec![3usize, 0, 5, 1, 7, 2, 6, 4];
        let idx = [0usize, 2, 3, 5, 1, 7, 6];
        let vals = [2.0, -1.0, 0.5, 4.0, 3.0, -0.25, 1.5];
        for cutoff in 0..8usize {
            for take in 0..=idx.len() {
                let naive: f64 = idx[..take]
                    .iter()
                    .zip(&vals[..take])
                    .filter(|&(&r, _)| pos[r] > cutoff)
                    .map(|(&r, &v)| v * x[r])
                    .sum();
                let got = masked_gather_dot(&idx[..take], &vals[..take], &x, &pos, cutoff);
                assert!((got - naive).abs() < 1e-12, "cutoff {cutoff} take {take}");
            }
        }
    }

    #[test]
    fn masked_gather_dot_never_reads_excluded_entries() {
        // Entries outside the window hold NaN: the kernel must not let
        // them poison the sum (select-to-zero, not multiply-by-mask).
        // Length 9 pushes the call through the dispatched SIMD path.
        let x = vec![f64::NAN, 2.0, f64::NAN, 4.0, 1.0, f64::NAN, 3.0, f64::NAN, 5.0];
        let pos = vec![0usize, 4, 1, 5, 6, 2, 7, 3, 8];
        let idx = [0usize, 1, 2, 3, 4, 5, 6, 7, 8];
        let vals = [1.0; 9];
        let got = masked_gather_dot(&idx, &vals, &x, &pos, 3);
        assert_eq!(got, 2.0 + 4.0 + 1.0 + 3.0 + 5.0, "every NaN entry sits outside the window");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn masked_gather_dot_length_mismatch_panics() {
        masked_gather_dot(&[0], &[1.0, 2.0], &[1.0], &[0], 0);
    }

    #[test]
    fn scatter_axpy_matches_naive_at_every_remainder_length() {
        // Distinct indices crossing the 4-wide unroll boundary and the
        // DISPATCH_MIN cutover.
        let idx = [5usize, 0, 3, 7, 1, 6, 2, 4, 8];
        let vals = [2.0, -1.0, 0.5, 4.0, 3.0, -0.25, 1.25, -2.0, 0.75];
        for take in 0..=idx.len() {
            let mut y = vec![1.0; 9];
            let mut naive = y.clone();
            for (&r, &v) in idx[..take].iter().zip(&vals[..take]) {
                naive[r] += -1.5 * v;
            }
            scatter_axpy(-1.5, &idx[..take], &vals[..take], &mut y);
            for (got, want) in y.iter().zip(&naive) {
                assert!((got - want).abs() < 1e-12, "take {take}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn scatter_axpy_length_mismatch_panics() {
        scatter_axpy(1.0, &[0], &[1.0, 2.0], &mut [1.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.5, -0.5, 4.0];
        assert_eq!(sub(&add(&a, &b), &b), a);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn norm_inf_long_slice_rides_the_kernel() {
        let mut x = vec![0.5; 37];
        x[19] = -7.25;
        assert_eq!(norm_inf(&x), 7.25);
    }

    #[test]
    fn scale_in_place_matches_scale() {
        for len in 0..13usize {
            let x: Vec<f64> = (0..len).map(|i| (i as f64) * 0.5 - 2.0).collect();
            let owned = scale(-3.0, &x);
            let mut inplace = x.clone();
            scale_in_place(-3.0, &mut inplace);
            assert_eq!(owned, inplace, "len {len}");
        }
    }

    #[test]
    fn normalize_scales_to_unit_inf_norm() {
        let mut x = vec![2.0, -8.0, 4.0];
        normalize_inf(&mut x);
        assert_eq!(x, vec![0.25, -1.0, 0.5]);
    }

    #[test]
    fn normalize_leaves_zero_alone() {
        let mut x = vec![0.0, 0.0];
        normalize_inf(&mut x);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn is_zero_tolerant() {
        assert!(is_zero(&[1e-12, -1e-12], 1e-9));
        assert!(!is_zero(&[1e-3], 1e-9));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
