//! Free functions on `&[f64]` slices.
//!
//! Vectors flow between crates as plain `Vec<f64>`; these helpers keep the
//! call sites short without committing the whole workspace to a wrapper type.
//!
//! The `dot`/`axpy`/`gather_dot`/`scatter_axpy`/`masked_gather_dot` kernels
//! are the inner loops of the revised simplex (`B⁻¹` row updates,
//! simplex-multiplier accumulation, column pricing, and the sparse
//! triangular solves through the LU factors and Forrest–Tomlin row etas);
//! `dot` is also the inner loop of the barrier solver.
//!
//! # One numeric contract
//!
//! Every kernel has exactly one body, so its result does not depend on the
//! CPU. The four-wide unrolls keep four independent accumulators, which
//! keeps the FP pipelines full, and reduce them as `(s0+s1)+(s2+s3)+tail`.
//! For slices of eight or more entries, [`dot`] and [`axpy`] fuse their
//! multiply-adds with [`f64::mul_add`], which is correctly rounded on every
//! target, in a fixed lane order that their docs spell out. Pivot counts,
//! Newton counts and bounds are therefore the same on every machine.
//!
//! On x86_64 a build without the `fma` target feature lowers each
//! `mul_add` to a library call. The two fused bodies are therefore also
//! compiled inside a `#[target_feature(enable = "fma")]` wrapper, which runs
//! when the CPU has the instruction. Both copies compute the same bits: the
//! branch picks the instruction encoding, not the arithmetic.

/// Slices at least this long take the fused `dot`/`axpy` bodies; shorter
/// ones keep the unfused four-wide loops.
const FUSED_MIN: usize = 8;

/// Dot product of two equal-length slices.
///
/// Below eight entries this is the unfused four-wide unroll. From eight
/// entries on, eight accumulators `acc[0..8]` take `mul_add` over blocks of
/// eight, and a leftover block of four goes into `acc[0..4]`. Then
/// `v_k = acc[k] + acc[k+4]`, the sum is `(v0+v2)+(v1+v3)`, and the last
/// `len % 4` products are added to it one at a time, unfused.
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
    if a.len() < FUSED_MIN {
        return dot_unfused(a, b);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU has just been shown to support `fma`.
        return unsafe { fma::dot(a, b) };
    }
    dot_fused(a, b)
}

/// `y += alpha * x`, the classic axpy update.
///
/// From eight entries on, the first `⌊len/4⌋·4` entries are updated with
/// `alpha.mul_add(x[i], y[i])` and the rest unfused; shorter slices are
/// updated unfused throughout.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if x.len() < FUSED_MIN {
        return axpy_unfused(alpha, x, y);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU has just been shown to support `fma`.
        return unsafe { fma::axpy(alpha, x, y) };
    }
    axpy_fused(alpha, x, y);
}

/// The fused bodies compiled with the `fma` target feature, so that each
/// `mul_add` is one instruction instead of a library call.
#[cfg(target_arch = "x86_64")]
mod fma {
    #[target_feature(enable = "fma")]
    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        super::dot_fused(a, b)
    }

    #[target_feature(enable = "fma")]
    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        super::axpy_fused(alpha, x, y);
    }
}

fn dot_unfused(a: &[f64], b: &[f64]) -> f64 {
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        s0 += xa[0] * xb[0];
        s1 += xa[1] * xb[1];
        s2 += xa[2] * xb[2];
        s3 += xa[3] * xb[3];
    }
    let tail: f64 = ca.remainder().iter().zip(cb.remainder()).map(|(x, y)| x * y).sum();
    (s0 + s1) + (s2 + s3) + tail
}

#[inline(always)]
fn dot_fused(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for k in 0..8 {
            acc[k] = xa[k].mul_add(xb[k], acc[k]);
        }
    }
    let (mut ra, mut rb) = (ca.remainder(), cb.remainder());
    if ra.len() >= 4 {
        for k in 0..4 {
            acc[k] = ra[k].mul_add(rb[k], acc[k]);
        }
        (ra, rb) = (&ra[4..], &rb[4..]);
    }
    let v: [f64; 4] = std::array::from_fn(|k| acc[k] + acc[k + 4]);
    let mut s = (v[0] + v[2]) + (v[1] + v[3]);
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

fn axpy_unfused(alpha: f64, x: &[f64], y: &mut [f64]) {
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact_mut(4);
    for (xs, ys) in cx.by_ref().zip(cy.by_ref()) {
        ys[0] += alpha * xs[0];
        ys[1] += alpha * xs[1];
        ys[2] += alpha * xs[2];
        ys[3] += alpha * xs[3];
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
    }
}

#[inline(always)]
fn axpy_fused(alpha: f64, x: &[f64], y: &mut [f64]) {
    let split = x.len() / 4 * 4;
    let (xf, xt) = x.split_at(split);
    let (yf, yt) = y.split_at_mut(split);
    for (yi, xi) in yf.iter_mut().zip(xf) {
        *yi = alpha.mul_add(*xi, *yi);
    }
    for (yi, xi) in yt.iter_mut().zip(xt) {
        *yi += alpha * xi;
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
    let mut ci = idx.chunks_exact(4);
    let mut cv = vals.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (is, vs) in ci.by_ref().zip(cv.by_ref()) {
        s0 += vs[0] * x[is[0]];
        s1 += vs[1] * x[is[1]];
        s2 += vs[2] * x[is[2]];
        s3 += vs[3] * x[is[3]];
    }
    let tail: f64 = ci
        .remainder()
        .iter()
        .zip(cv.remainder())
        .map(|(&r, &v)| v * x[r])
        .sum();
    (s0 + s1) + (s2 + s3) + tail
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
    let mut ci = idx.chunks_exact(4);
    let mut cv = vals.chunks_exact(4);
    for (is, vs) in ci.by_ref().zip(cv.by_ref()) {
        y[is[0]] += alpha * vs[0];
        y[is[1]] += alpha * vs[1];
        y[is[2]] += alpha * vs[2];
        y[is[3]] += alpha * vs[3];
    }
    for (&r, &v) in ci.remainder().iter().zip(cv.remainder()) {
        y[r] += alpha * v;
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
/// `x` value is never read into the product.
///
/// # Panics
///
/// Panics if `idx` and `vals` have different lengths, or if an index is
/// out of bounds for `pos`, or if a window-*included* index is out of
/// bounds for `x`.
#[inline]
pub fn masked_gather_dot(
    idx: &[usize],
    vals: &[f64],
    x: &[f64],
    pos: &[usize],
    cutoff: usize,
) -> f64 {
    assert_eq!(idx.len(), vals.len(), "masked_gather_dot: length mismatch");
    let mut ci = idx.chunks_exact(4);
    let mut cv = vals.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    // Select-to-zero rather than conditional skip: the four accumulator
    // lanes stay independent (a branch would serialize them), and an
    // excluded entry's `x` value is never read into the product, so the
    // caller's workspace only has to be clean inside the window.
    let pick = |r: usize| if pos[r] > cutoff { x[r] } else { 0.0 };
    for (is, vs) in ci.by_ref().zip(cv.by_ref()) {
        s0 += vs[0] * pick(is[0]);
        s1 += vs[1] * pick(is[1]);
        s2 += vs[2] * pick(is[2]);
        s3 += vs[3] * pick(is[3]);
    }
    let tail: f64 = ci
        .remainder()
        .iter()
        .zip(cv.remainder())
        .map(|(&r, &v)| v * pick(r))
        .sum();
    (s0 + s1) + (s2 + s3) + tail
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
    for v in x.iter_mut() {
        *v *= alpha;
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

/// Maximum absolute entry (`∞`-norm); `0.0` for the empty slice. NaN
/// entries are ignored, as in an `f64::max` fold.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
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
        // and straddle the switch to the fused body at eight entries.
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

    /// Equal bits, or both NaN: which NaN payload survives a sum is not
    /// part of the contract.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn fma_instantiation_matches_the_plain_body_bit_for_bit() {
        // Lengths 0..=40 cover every remainder of the 8-wide blocks; the
        // data mixes ordinary values with subnormals, ±inf and NaN.
        let tiny = f64::from_bits(1);
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0 * tiny, -tiny];
        let wiggle = |i: usize, salt: f64| ((i as f64) * 0.7310585 + salt).sin() * 4.0;
        for len in 0..=40usize {
            let clean: Vec<f64> = (0..len).map(|i| wiggle(i, 0.1)).collect();
            let b: Vec<f64> = (0..len).map(|i| wiggle(i, 2.7)).collect();
            let subnormal: Vec<f64> = (0..len).map(|i| (i as f64 + 1.0) * tiny).collect();
            let mut inputs = vec![clean.clone(), subnormal];
            for (slot, &poison) in special.iter().enumerate().take(len) {
                let mut a = clean.clone();
                a[len - 1 - slot] = poison;
                inputs.push(a);
            }
            if len >= 2 {
                // Opposite infinities in different lanes meet in the
                // reduction and make a NaN there.
                let mut a = clean.clone();
                (a[0], a[len - 1]) = (f64::INFINITY, f64::NEG_INFINITY);
                inputs.push(a);
            }
            for a in &inputs {
                let plain = dot_fused(a, &b);
                assert!(len < FUSED_MIN || same_bits(dot(a, &b), plain), "dot len {len}");
                let mut y_plain = b.clone();
                axpy_fused(-1.375, a, &mut y_plain);
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("fma") {
                    // SAFETY: the CPU has just been shown to support `fma`.
                    let wide = unsafe { fma::dot(a, &b) };
                    assert!(same_bits(wide, plain), "dot len {len}");
                    let mut y_wide = b.clone();
                    // SAFETY: as above.
                    unsafe { fma::axpy(-1.375, a, &mut y_wide) };
                    for (i, (w, p)) in y_wide.iter().zip(&y_plain).enumerate() {
                        assert!(same_bits(*w, *p), "axpy len {len} slot {i}");
                    }
                }
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
        // Length 9 covers two unrolled blocks and a tail.
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
        // Distinct indices crossing the 4-wide unroll boundary twice.
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
    fn norm_inf_ignores_nan_and_maps_infinities_to_plus_inf() {
        let mut x = vec![0.5; 37];
        x[19] = -7.25;
        assert_eq!(norm_inf(&x), 7.25);
        x[4] = f64::NAN;
        assert_eq!(norm_inf(&x), 7.25);
        x[30] = f64::NEG_INFINITY;
        assert_eq!(norm_inf(&x), f64::INFINITY);
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
