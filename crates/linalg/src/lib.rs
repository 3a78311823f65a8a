#![warn(missing_docs)]

//! Small dense linear-algebra kernel used by every other `qava` crate.
//!
//! The polyhedra, LP, and convex-optimization substrates of `qava` all operate
//! on low-dimensional dense problems (a handful of program variables, dozens
//! of template unknowns), so this crate deliberately implements a compact
//! `f64` toolbox instead of pulling in a BLAS:
//!
//! * [`Matrix`] — row-major dense matrix with Gaussian elimination,
//!   [`Matrix::solve`], [`Matrix::rank`], [`Matrix::nullspace`],
//!   least-squares, and inverse.
//! * [`vecops`] — free functions on `&[f64]` slices (dot products, axpy,
//!   sparse gathers and scatters, ...). Each kernel has one portable body
//!   whose result is the same bits on every CPU (see the module docs).
//! * [`EPS`] — the absolute tolerance shared by all numeric pivoting code.
//!
//! # Examples
//!
//! ```
//! use qava_linalg::Matrix;
//!
//! let a = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 3.0]]);
//! let x = a.solve(&[3.0, 5.0]).unwrap();
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! ```

pub mod matrix;
pub mod vecops;

pub use matrix::Matrix;

/// Absolute tolerance used for pivot selection and zero tests throughout the
/// workspace. Benchmarks have small integer-ish coefficients, so a fixed
/// absolute tolerance is appropriate.
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` differ by at most `tol` absolutely or
/// relatively (whichever is larger).
///
/// ```
/// assert!(qava_linalg::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!qava_linalg::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}
