//! x86_64 AVX2+FMA backend: 4-lane `f64` vectors with fused
//! multiply-add, insert-based gathers for the sparse kernels.
//!
//! # Safety architecture
//!
//! Every intrinsic body is an `unsafe fn` carrying
//! `#[target_feature(enable = "avx2,fma")]`. The only way this backend is
//! ever reached is through [`super::by_name`] / the private `select`, which
//! hand out the `Avx2Kernel` instance **only after**
//! `is_x86_feature_detected!("avx2")` and `("fma")` both succeed, so the
//! trait methods' `unsafe` calls are sound on every path that can execute
//! them.
//!
//! The gathered kernels deliberately do **not** use the `vgatherqpd`
//! hardware gather: it is microcoded on every AVX2 part and loses to
//! four ordinary loads packed with `_mm256_set_pd`. The insert-based
//! form also keeps the loads as ordinary bounds-checked indexing, so
//! out-of-range indices panic exactly like the scalar baseline (and
//! `masked_gather_dot` touches `x` only inside the window, preserving
//! the "never reads excluded entries" guarantee the FT spike
//! elimination relies on).
//!
//! # Numerics
//!
//! The kernels split into two contracts:
//!
//! * **Dense `dot`/`axpy`: FMA, ulp-level divergence.** FMA contracts
//!   each `mul + add` into one rounding and the 4-lane accumulators
//!   reassociate the reduction differently from the scalar baseline's
//!   four partial sums; both effects stay at ulp level — orders of
//!   magnitude inside the 1e-7 tolerances every LP verdict is pinned
//!   to, and pinned directly by the kernel-agreement property tests.
//! * **Everything else: bit-exact with the scalar baseline.** The
//!   gathered kernels use separate mul + add with lane `k` replaying
//!   scalar accumulator `s_k` and the final reduction in the baseline's
//!   `(s0+s1)+(s2+s3)+tail` association; `scatter_axpy`, `norm_inf`,
//!   and `scale` perform the identical per-element operations. This is
//!   deliberate, not incidental: the Forrest–Tomlin LU solve
//!   paths run almost entirely on the gathered kernels, and keeping
//!   them bit-exact keeps pivot trajectories identical across backends
//!   on the suite's knife-edge degenerate LPs (an early FMA variant of
//!   the gathers tipped one εmax system into a ~50k-pivot Bland
//!   anti-cycling stall — the speedup there is in the loads, not the
//!   arithmetic, so exactness costs nothing).
//!
//! NaN/±inf propagate through products and sums exactly as in the
//! baseline; `norm_inf` keeps `f64::max`'s ignore-NaN semantics by
//! ordering the `maxpd` operands so a NaN lane never displaces the
//! running maximum.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;

use super::VecKernel;

/// The AVX2+FMA kernel; constructed only behind runtime feature
/// detection (see the module docs' safety architecture).
#[derive(Debug, Clone, Copy)]
pub struct Avx2Kernel;

impl VecKernel for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        // SAFETY: selection guarantees avx2+fma (module docs).
        unsafe { dot(a, b) }
    }

    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: selection guarantees avx2+fma (module docs).
        unsafe { axpy(alpha, x, y) }
    }

    fn gather_dot(&self, idx: &[usize], vals: &[f64], x: &[f64]) -> f64 {
        // SAFETY: selection guarantees avx2+fma (module docs).
        unsafe { gather_dot(idx, vals, x) }
    }

    fn scatter_axpy(&self, alpha: f64, idx: &[usize], vals: &[f64], y: &mut [f64]) {
        // SAFETY: selection guarantees avx2+fma (module docs).
        unsafe { scatter_axpy(alpha, idx, vals, y) }
    }

    fn masked_gather_dot(
        &self,
        idx: &[usize],
        vals: &[f64],
        x: &[f64],
        pos: &[usize],
        cutoff: usize,
    ) -> f64 {
        // SAFETY: selection guarantees avx2+fma (module docs).
        unsafe { masked_gather_dot(idx, vals, x, pos, cutoff) }
    }

    fn norm_inf(&self, x: &[f64]) -> f64 {
        // SAFETY: selection guarantees avx2+fma (module docs).
        unsafe { norm_inf(x) }
    }

    fn scale(&self, alpha: f64, x: &mut [f64]) {
        // SAFETY: selection guarantees avx2+fma (module docs).
        unsafe { scale(alpha, x) }
    }
}

/// Horizontal sum of the four lanes.
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd(v, 1);
    let pair = _mm_add_pd(lo, hi);
    _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)))
}

/// Horizontal sum in the scalar baseline's association `(l0+l1)+(l2+l3)`
/// — the reduction order of its four unrolled accumulators. Used by the
/// bit-exact gathered kernels (see the module docs' numerics section).
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum_lane_pairs(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd(v, 1);
    let a = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
    let b = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi));
    _mm_cvtsd_f64(_mm_add_sd(a, b))
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 8 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)), acc0);
        acc1 =
            _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i + 4)), _mm256_loadu_pd(pb.add(i + 4)), acc1);
        i += 8;
    }
    if i + 4 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)), acc0);
        i += 4;
    }
    let mut s = hsum(_mm256_add_pd(acc0, acc1));
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

#[target_feature(enable = "avx2,fma")]
unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len().min(y.len());
    let va = _mm256_set1_pd(alpha);
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        let y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)));
        _mm256_storeu_pd(py.add(i), y0);
        let y1 =
            _mm256_fmadd_pd(va, _mm256_loadu_pd(px.add(i + 4)), _mm256_loadu_pd(py.add(i + 4)));
        _mm256_storeu_pd(py.add(i + 4), y1);
        i += 8;
    }
    if i + 4 <= n {
        let y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)));
        _mm256_storeu_pd(py.add(i), y0);
        i += 4;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn gather_dot(idx: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    // Insert-based gather: four ordinary (bounds-checked, so OOB still
    // panics like the scalar baseline) loads packed into one lane set.
    // On every AVX2 part we care about this beats the microcoded
    // `vgatherqpd` hardware gather, which costs more µops than four
    // scalar loads. Separate mul + add (no FMA) and the lane-pair
    // reduction keep the result **bit-exact** with the scalar baseline:
    // lane k replays accumulator `s_k` operation for operation.
    let n = idx.len().min(vals.len());
    let mut acc = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 4 <= n {
        let g = _mm256_set_pd(x[idx[i + 3]], x[idx[i + 2]], x[idx[i + 1]], x[idx[i]]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(vals.as_ptr().add(i)), g));
        i += 4;
    }
    let mut tail = 0.0;
    while i < n {
        tail += vals[i] * x[idx[i]];
        i += 1;
    }
    hsum_lane_pairs(acc) + tail
}

#[target_feature(enable = "avx2,fma")]
unsafe fn scatter_axpy(alpha: f64, idx: &[usize], vals: &[f64], y: &mut [f64]) {
    // No scatter store below AVX-512: vectorize the multiply, keep the
    // four stores scalar (bounds-checked by ordinary indexing). The
    // indices are pairwise distinct per the kernel contract, so the
    // read-modify-write order within a chunk is immaterial.
    let n = idx.len().min(vals.len());
    let va = _mm256_set1_pd(alpha);
    let mut i = 0usize;
    let mut prod = [0.0f64; 4];
    while i + 4 <= n {
        let p = _mm256_mul_pd(va, _mm256_loadu_pd(vals.as_ptr().add(i)));
        _mm256_storeu_pd(prod.as_mut_ptr(), p);
        y[idx[i]] += prod[0];
        y[idx[i + 1]] += prod[1];
        y[idx[i + 2]] += prod[2];
        y[idx[i + 3]] += prod[3];
        i += 4;
    }
    while i < n {
        y[idx[i]] += alpha * vals[i];
        i += 1;
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn masked_gather_dot(
    idx: &[usize],
    vals: &[f64],
    x: &[f64],
    pos: &[usize],
    cutoff: usize,
) -> f64 {
    // Insert-based masked gather, same rationale as [`gather_dot`]
    // (including bit-exactness): the per-lane window test selects `x[r]`
    // or `0.0` *before* the lanes are packed, so an excluded entry's
    // value (NaN in the FT workspace outside the active window) never
    // enters the product, and the bounds-check/panic behavior is
    // lane-for-lane identical to the scalar baseline (`pos` indexed
    // always, `x` only inside the window).
    let n = idx.len().min(vals.len());
    let mut acc = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 4 <= n {
        let (r0, r1, r2, r3) = (idx[i], idx[i + 1], idx[i + 2], idx[i + 3]);
        let v0 = if pos[r0] > cutoff { x[r0] } else { 0.0 };
        let v1 = if pos[r1] > cutoff { x[r1] } else { 0.0 };
        let v2 = if pos[r2] > cutoff { x[r2] } else { 0.0 };
        let v3 = if pos[r3] > cutoff { x[r3] } else { 0.0 };
        let g = _mm256_set_pd(v3, v2, v1, v0);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(vals.as_ptr().add(i)), g));
        i += 4;
    }
    let mut tail = 0.0;
    while i < n {
        let r = idx[i];
        let p = if pos[r] > cutoff { x[r] } else { 0.0 };
        tail += vals[i] * p;
        i += 1;
    }
    hsum_lane_pairs(acc) + tail
}

#[target_feature(enable = "avx2,fma")]
unsafe fn norm_inf(x: &[f64]) -> f64 {
    // Clearing the sign bit is |x|; `maxpd` returns its *second* operand
    // when either input is NaN, so keeping the accumulator second makes
    // a NaN lane lose — the same ignore-NaN semantics as `f64::max`.
    let absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
    let mut acc = _mm256_setzero_pd();
    let p = x.as_ptr();
    let mut i = 0usize;
    while i + 4 <= x.len() {
        let v = _mm256_and_pd(_mm256_loadu_pd(p.add(i)), absmask);
        acc = _mm256_max_pd(v, acc);
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd(acc, 1);
    let pair = _mm_max_pd(hi, lo);
    let mut m = _mm_cvtsd_f64(_mm_max_sd(_mm_unpackhi_pd(pair, pair), pair));
    while i < x.len() {
        m = m.max(x[i].abs());
        i += 1;
    }
    m
}

#[target_feature(enable = "avx2,fma")]
unsafe fn scale(alpha: f64, x: &mut [f64]) {
    let va = _mm256_set1_pd(alpha);
    let p = x.as_mut_ptr();
    let n = x.len();
    let mut i = 0usize;
    while i + 4 <= n {
        _mm256_storeu_pd(p.add(i), _mm256_mul_pd(va, _mm256_loadu_pd(p.add(i))));
        i += 4;
    }
    while i < n {
        x[i] *= alpha;
        i += 1;
    }
}
