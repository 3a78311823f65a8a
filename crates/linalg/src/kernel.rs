//! Runtime-dispatched SIMD kernel subsystem behind [`vecops`].
//!
//! The five sparse/dense kernels every LP pivot funnels through
//! (`dot`, `axpy`, `gather_dot`, `scatter_axpy`, `masked_gather_dot`,
//! plus the `norm_inf`/`scale` pair equilibration uses) are defined once
//! as the [`VecKernel`] trait and implemented three times:
//!
//! * [`scalar`] — the portable four-wide unrolled baseline, always
//!   available, and the reference semantics for the others;
//! * [`avx2`] — x86_64 AVX2+FMA (4-lane `f64`, fused multiply-add,
//!   hardware gathers), selected when `is_x86_feature_detected!` proves
//!   both features at startup;
//! * `neon` — aarch64 AdvSIMD (2-lane `f64`, fused multiply-add),
//!   selected behind `is_aarch64_feature_detected!`.
//!
//! Selection happens **once per process**, on the first kernel call,
//! into a [`OnceLock`] dispatch table; every later call is one indirect
//! call through the chosen implementation. The [`vecops`] free
//! functions additionally short-circuit slices shorter than
//! [`DISPATCH_MIN`] straight into the inlined scalar bodies — below one
//! vector iteration the indirect call costs more than it saves, and the
//! µs-scale polyhedra probes live there.
//!
//! # Forcing a backend
//!
//! `QAVA_KERNEL={auto,scalar,avx2,neon}` (read at selection time)
//! overrides auto-detection for testing and benchmarking. A backend the
//! running CPU cannot execute — and any unrecognized value — falls back
//! to `scalar`, never to a faulting path. That degradation is **never
//! silent**: selection prints a one-shot warning to stderr when the
//! request and the resolved backend differ, [`active_name`] always
//! reports the backend actually selected, and [`provenance`] (what the
//! LP stats footer and the bench provenance header print) annotates the
//! actual name with the ignored request, so logs and bench artifacts
//! can't misattribute numbers. Correctness
//! never depends on which backend runs: the conformance corpus, the
//! metamorphic suite, and the kernel-agreement property tests all hold
//! under every forced value (SIMD reassociation and FMA stay at ulp
//! level, far inside the pinned 1e-7 LP tolerances).
//!
//! [`vecops`]: crate::vecops

use std::sync::OnceLock;

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

#[cfg(target_arch = "aarch64")]
pub mod neon;

pub use scalar::ScalarKernel;

/// The kernel interface: one implementation per instruction-set tier.
///
/// All slice-pair methods assume equal lengths — the [`vecops`] wrappers
/// assert it once with a uniform panic message; implementations called
/// directly (tests, benches) clamp to the shorter length rather than
/// read out of bounds. Gathered kernels must panic on an out-of-bounds
/// index, never read it, and `scatter_axpy` requires pairwise-distinct
/// indices. `masked_gather_dot` must not let a window-excluded entry's
/// value reach the accumulator (the FT spike workspace holds garbage —
/// possibly NaN — outside the active window).
///
/// [`vecops`]: crate::vecops
pub trait VecKernel: Sync + Send {
    /// Stable identifier (`"scalar"`, `"avx2"`, `"neon"`), also the
    /// `QAVA_KERNEL` spelling that forces this backend.
    fn name(&self) -> &'static str;
    /// Dot product `Σ a_i · b_i`.
    fn dot(&self, a: &[f64], b: &[f64]) -> f64;
    /// `y += alpha · x`.
    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]);
    /// Sparse gather dot `Σ_k vals[k] · x[idx[k]]`.
    fn gather_dot(&self, idx: &[usize], vals: &[f64], x: &[f64]) -> f64;
    /// Sparse scatter update `y[idx[k]] += alpha · vals[k]`.
    fn scatter_axpy(&self, alpha: f64, idx: &[usize], vals: &[f64], y: &mut [f64]);
    /// Windowed gather dot `Σ_{pos[idx[k]] > cutoff} vals[k] · x[idx[k]]`.
    fn masked_gather_dot(
        &self,
        idx: &[usize],
        vals: &[f64],
        x: &[f64],
        pos: &[usize],
        cutoff: usize,
    ) -> f64;
    /// Maximum absolute entry; `0.0` for the empty slice, NaN entries
    /// ignored (the `f64::max` fold semantics).
    fn norm_inf(&self, x: &[f64]) -> f64;
    /// In-place `x *= alpha`.
    fn scale(&self, alpha: f64, x: &mut [f64]);
}

/// Slices shorter than this skip the dispatch table: the [`vecops`]
/// wrappers run the inlined scalar body directly, because below one
/// vector iteration the indirect call dominates.
///
/// [`vecops`]: crate::vecops
pub const DISPATCH_MIN: usize = 8;

static SCALAR: ScalarKernel = ScalarKernel;

#[cfg(target_arch = "x86_64")]
static AVX2: avx2::Avx2Kernel = avx2::Avx2Kernel;

#[cfg(target_arch = "aarch64")]
static NEON: neon::NeonKernel = neon::NeonKernel;

static ACTIVE: OnceLock<&'static dyn VecKernel> = OnceLock::new();

/// The `QAVA_KERNEL` value that selection had to ignore: `Some(request)`
/// when it degraded to another backend, `None` when the request (or
/// auto-detection) was honored. Populated by [`select`] before [`ACTIVE`]
/// is ever readable.
static REQUESTED: OnceLock<Option<String>> = OnceLock::new();

/// The process-wide kernel, selecting it on first use (reads
/// `QAVA_KERNEL`, then falls back to CPU auto-detection).
#[inline]
pub fn active() -> &'static dyn VecKernel {
    *ACTIVE.get_or_init(select)
}

/// Name of the process-wide kernel actually selected. Artifacts that
/// record the kernel should prefer [`provenance`], which additionally
/// exposes a `QAVA_KERNEL` request that selection had to ignore.
pub fn active_name() -> &'static str {
    active().name()
}

/// Looks up a backend by its `QAVA_KERNEL` spelling. Returns `None` for
/// unknown names **and** for backends the running CPU cannot execute,
/// so a returned kernel is always safe to call.
pub fn by_name(name: &str) -> Option<&'static dyn VecKernel> {
    match name {
        "scalar" => Some(&SCALAR),
        #[cfg(target_arch = "x86_64")]
        "avx2" if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") => {
            Some(&AVX2)
        }
        #[cfg(target_arch = "aarch64")]
        "neon" if std::arch::is_aarch64_feature_detected!("neon") => Some(&NEON),
        _ => None,
    }
}

/// Every backend the running CPU supports (scalar always first). Tests
/// and benches iterate this to compare all selectable backends against
/// the scalar reference on the machine at hand.
pub fn available() -> Vec<&'static dyn VecKernel> {
    ["scalar", "avx2", "neon"].iter().filter_map(|n| by_name(n)).collect()
}

/// The active kernel's name annotated with the `QAVA_KERNEL` request
/// when the two differ (e.g. `"scalar (requested avx2)"`), the plain
/// name when they agree. Stats footers and bench provenance headers use
/// this instead of [`active_name`] so a silently degraded run can never
/// masquerade as the requested backend in recorded artifacts.
pub fn provenance() -> String {
    // Forces selection, which populates REQUESTED before returning.
    let actual = active_name();
    provenance_label(actual, REQUESTED.get().and_then(|r| r.as_deref()))
}

/// Pure formatting rule behind [`provenance`].
fn provenance_label(actual: &str, ignored_request: Option<&str>) -> String {
    match ignored_request {
        Some(req) => format!("{actual} (requested {req})"),
        None => actual.to_string(),
    }
}

/// Pure resolution rule behind [`select`]: the backend a `QAVA_KERNEL`
/// value resolves to on this CPU, plus whether that silently differs
/// from what was asked for (`true` exactly when the request named a
/// backend that is unknown or unsupported here and scalar stood in).
fn resolve(requested: Option<&str>) -> (&'static dyn VecKernel, bool) {
    match requested {
        None | Some("auto") => (detect_best(), false),
        Some(name) => match by_name(name) {
            Some(kernel) => (kernel, false),
            None => (&SCALAR, true),
        },
    }
}

/// One-shot selection: `QAVA_KERNEL` override first, otherwise the best
/// backend the CPU detection proves. A request that cannot be honored
/// degrades to scalar with a single stderr warning (selection runs once
/// per process) and is recorded for [`provenance`].
fn select() -> &'static dyn VecKernel {
    let requested = std::env::var("QAVA_KERNEL").ok();
    let (kernel, degraded) = resolve(requested.as_deref());
    if degraded {
        let req = requested.as_deref().unwrap_or_default();
        eprintln!(
            "qava: QAVA_KERNEL={req} is unknown or unsupported on this CPU; \
             falling back to the {} kernel",
            kernel.name()
        );
    }
    let _ = REQUESTED.set(if degraded { requested } else { None });
    kernel
}

fn detect_best() -> &'static dyn VecKernel {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        return &AVX2;
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return &NEON;
    }
    &SCALAR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_listed_first() {
        let names: Vec<_> = available().iter().map(|k| k.name()).collect();
        assert_eq!(names.first(), Some(&"scalar"));
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("sse9").is_none());
        assert!(by_name("").is_none());
        assert!(by_name("auto").is_none(), "auto is a selection policy, not a backend");
    }

    #[test]
    fn active_is_stable_and_listed() {
        let first = active_name();
        assert_eq!(first, active_name(), "selection must be once-per-process");
        assert!(
            available().iter().any(|k| k.name() == first),
            "active kernel {first} must be runnable on this CPU"
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_listed_exactly_when_detected() {
        let detected = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        assert_eq!(by_name("avx2").is_some(), detected);
    }

    #[test]
    fn resolve_flags_degraded_requests() {
        // Honored requests: no mismatch to report.
        let (k, degraded) = resolve(None);
        assert_eq!(k.name(), detect_best().name());
        assert!(!degraded);
        let (k, degraded) = resolve(Some("auto"));
        assert_eq!(k.name(), detect_best().name());
        assert!(!degraded, "auto is a policy, not a request that can degrade");
        let (k, degraded) = resolve(Some("scalar"));
        assert_eq!(k.name(), "scalar");
        assert!(!degraded);
        // Unknown and empty names degrade to scalar — and say so. This
        // pins the fix for the silent-fallback bug: `select` used to
        // swallow the mismatch entirely.
        for bad in ["sse9", "", "AVX2", "scalar "] {
            let (k, degraded) = resolve(Some(bad));
            assert_eq!(k.name(), "scalar", "QAVA_KERNEL={bad:?}");
            assert!(degraded, "QAVA_KERNEL={bad:?} must be flagged as degraded");
        }
        // A supported non-scalar backend resolves to itself, honored.
        for kernel in available() {
            let (k, degraded) = resolve(Some(kernel.name()));
            assert_eq!(k.name(), kernel.name());
            assert!(!degraded);
        }
    }

    #[test]
    fn provenance_label_annotates_only_mismatches() {
        assert_eq!(provenance_label("avx2", None), "avx2");
        assert_eq!(provenance_label("scalar", Some("avx9")), "scalar (requested avx9)");
    }

    #[test]
    fn provenance_is_consistent_with_active_name() {
        // Whatever the process-wide selection was, provenance must start
        // with the actual backend name.
        assert!(provenance().starts_with(active_name()));
    }
}
