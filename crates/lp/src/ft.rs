//! Forrest–Tomlin basis updates: spike swaps inside the LU factors.
//!
//! A product-form eta file leaves the factors of the last
//! refactorization untouched and pays for it at solve time: every
//! ftran/btran walks L, U, *and* the whole eta stack, so between
//! refactorizations the solve cost is O(nnz(LU) + nnz(etas)) and grows
//! with every pivot. The Forrest–Tomlin update instead edits **U
//! itself** on each basis exchange, so solves stay O(nnz(L) + nnz(U))
//! with only a thin stack of sparse *row* etas on the side:
//!
//! 1. the U column of the leaving variable is deleted and the ftran'd
//!    entering column — un-solved back into the **spike** `w = U·u`, the
//!    partially eliminated column the factors see — takes its place;
//! 2. the pivot's row and column cycle to the last position of the
//!    factor ordering (a permutation update, no data movement in L);
//! 3. the now out-of-place **spike row** (the old row of the leaving
//!    pivot) is eliminated against the columns inside the permutation
//!    window by a transposed triangular solve, and the multipliers are
//!    stored as one sparse row eta ([`vecops::masked_gather_dot`] is
//!    this elimination's kernel).
//!
//! After step 3 the updated U is upper triangular again in the rotated
//! ordering, with the new diagonal `d = w_t − rᵀw`.
//!
//! **Indexing discipline.** Everything mutable is keyed by the *original
//! pivot row* of a U column's diagonal, never by its position: the FT
//! rotation renumbers positions on every update, but the (pivot row ↔
//! basis slot) pairing of each diagonal survives the rotation unchanged.
//! Row-keyed storage therefore makes stored row etas permutation-stable
//! — they are written once and never renumbered — while the position
//! order lives in two small permutation vectors (`order`, `pos_of`).
//!
//! **Refactorization triggers.** An eta file refactorizes on eta count
//! and stack fill-in; FT has no eta stack to speak of, so its triggers
//! move into the factors themselves:
//!
//! * **spike-pivot magnitude** — FT has no pivoting freedom: the new
//!   diagonal is dictated by the exchange, and a small `|d|` poisons
//!   every later solve. Anything below [`SHAKY_PIVOT`] schedules a fresh
//!   factorization (which re-pivots with full Markowitz/threshold
//!   freedom);
//! * **U fill-in growth** — replaced columns and eliminated spike rows
//!   accumulate fill; once the live factors plus row etas outgrow
//!   [`FILL_FACTOR`] × the freshly factorized size, refactorizing is
//!   cheaper than dragging the fill through every solve;
//! * **update count** — [`MAX_UPDATES`] bounds rounding-error
//!   accumulation outright, matching the dense inverse's refactorization
//!   period (`lp/kernel/basis_update*` in `benches/lp_kernel.rs`
//!   measures the update on longer chains). The accuracy cross-check
//!   below refactorizes adaptively well before the budget when the
//!   numbers degrade.
//!
//! Optimality/unboundedness verdicts are still only trusted from a fresh
//! factorization ([`BasisRepr::trusts_incremental_optimal`] is `false`)
//! — the drift-verification machinery is the backstop for the
//! incremental updates, and the conformance corpus (`tests/corpus.rs`)
//! races the engine against the dense-inverse and dense-tableau
//! backends.

use crate::lu::{LuFactors, SparseCol};
use crate::revised::BasisRepr;
use crate::CscMatrix;
use qava_linalg::vecops;
use std::cell::RefCell;

/// Spike-pivot magnitude below which the update is accuracy-risky and
/// the next opportunity refactorizes; mirrors `PIVOT_TOL` in the ratio
/// test of [`crate::revised`].
const SHAKY_PIVOT: f64 = 1e-7;

/// Fill-in growth trigger: refactorize when the live U plus the row-eta
/// stack outgrow this multiple of the factors' size at the last
/// refactorization.
const FILL_FACTOR: usize = 2;

/// Relative disagreement between the eliminated diagonal and the one the
/// determinant identity predicts (`d = u[row]·U_tt`) beyond which the
/// update is deemed accuracy-compromised — cancellation in the spike-row
/// elimination or drift in the recovered spike — and the next
/// opportunity refactorizes. 1e-6 leaves ~9 clean digits, far inside the
/// 1e-7 tolerances the pivot loop itself runs on.
const ACCURACY_DRIFT: f64 = 1e-6;

/// Backstop on updates between refactorizations.
const MAX_UPDATES: usize = 64;

/// The spike of the most recent [`BasisRepr::ftran_col`], kept so
/// [`BasisRepr::update`] can reuse it: the simplex always ftrans the
/// entering column immediately before pivoting on it, and the spike —
/// the column carried through L and the row etas, short of U — is an
/// intermediate of exactly that solve. `update` validates the cache
/// against the raw column data and recomputes on a mismatch, so reuse
/// is a pure optimization, never a correctness assumption.
#[derive(Debug, Clone, Default)]
struct SpikeCache {
    col_idx: Vec<usize>,
    col_vals: Vec<f64>,
    spike: Vec<f64>,
    valid: bool,
}

impl SpikeCache {
    fn matches(&self, idx: &[usize], vals: &[f64]) -> bool {
        self.valid && self.col_idx == idx && self.col_vals == vals
    }
}

/// One stored spike-row elimination: row `row` (a row key) had the
/// multipliers `col` (row-keyed) eliminated into it. Applied to a
/// forward solve as `x[row] -= col · x`, transposed as
/// `x -= x[row] · col`.
#[derive(Debug, Clone)]
struct RowEta {
    row: usize,
    col: SparseCol,
    /// Support bitmask of `col.idx` over row keys. A forward solve
    /// intersects it with the running nonzero-row mask of the solve
    /// vector: no overlap means the gather is provably zero and the eta
    /// is skipped outright — a *row* operation reads many components,
    /// so sparse-RHS skipping takes a set intersection instead of a
    /// single load.
    mask: Vec<u64>,
}

/// Number of `u64` words a row-key bitmask over `m` rows needs.
fn mask_words(m: usize) -> usize {
    m.div_ceil(64)
}

/// Sets `row`'s bit.
fn mask_set(mask: &mut [u64], row: usize) {
    mask[row >> 6] |= 1u64 << (row & 63);
}

/// Whether two equally sized masks share any set bit.
fn masks_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// The Forrest–Tomlin basis representation behind the `lu-ft` backend
/// ([`crate::LuFtSimplex`]): frozen L factors plus a mutable, row-keyed
/// U that absorbs each basis exchange as a spike swap.
#[derive(Debug, Clone)]
pub(crate) struct FtBasis {
    m: usize,
    /// Factors of the last refactorization. Only the L half (plus its
    /// row permutation) is used after [`install`](Self::install) copies
    /// U out into the mutable row-keyed form below.
    lu: LuFactors,
    /// Position → row key of the diagonal at that position.
    order: Vec<usize>,
    /// Row key → current position (inverse of `order`).
    pos_of: Vec<usize>,
    /// Row key → basis slot of the column whose diagonal lives on that
    /// row. Stable across updates: the entering variable takes over the
    /// leaving variable's slot *and* its diagonal row.
    slot_of: Vec<usize>,
    /// Basis slot → row key (inverse of `slot_of`).
    key_of_slot: Vec<usize>,
    /// Row key → above-diagonal entries of that diagonal's U column,
    /// themselves row-keyed (every entry's position is smaller than the
    /// diagonal's — the triangularity invariant the update maintains).
    u_cols: Vec<SparseCol>,
    /// Row key → diagonal value.
    u_diag: Vec<f64>,
    /// Stored U nonzeros, diagonals included.
    u_nnz: usize,
    /// `nnz(L) + nnz(U)` right after the last refactorization — the
    /// yardstick of the fill-in trigger.
    base_nnz: usize,
    /// Spike-row eliminations since the last refactorization, oldest
    /// first.
    etas: Vec<RowEta>,
    eta_nnz: usize,
    updates: usize,
    /// A spike pivot below [`SHAKY_PIVOT`] was accepted; refactorize at
    /// the next opportunity.
    shaky: bool,
    /// Row-keyed spike workspace; all-zero between updates.
    spike: Vec<f64>,
    /// Row-keyed elimination-multiplier workspace; all-zero between
    /// updates (the masked gather only ever reads inside the active
    /// window, but the zero discipline keeps successive updates
    /// independent).
    relim: Vec<f64>,
    /// Row key → number of stored off-diagonal U entries lying on that
    /// row (across all columns). Lets the spike-row deletion stop as
    /// soon as every entry is found — usually immediately, since most
    /// rows carry no off-diagonal entries at all.
    row_nnz: Vec<usize>,
    /// See [`SpikeCache`].
    spike_cache: RefCell<SpikeCache>,
    /// Reusable nonzero-row mask for [`apply_etas_forward`]
    /// (`RefCell`: the solve paths take `&self`); rebuilt at the start
    /// of every use, so no cross-call state.
    live_mask: RefCell<Vec<u64>>,
    /// Updates whose determinant-identity cross-check disagreed with the
    /// eliminated diagonal — accuracy-triggered refactorizations.
    /// Cumulative over the engine's lifetime ([`install`](Self::install)
    /// never resets it): `RunTelemetry` polls it once per run via
    /// [`BasisRepr::accuracy_refactors`], and each run builds a fresh
    /// engine.
    acc_refactors: usize,
}

impl FtBasis {
    /// Adopts a fresh factorization: copies U into the mutable row-keyed
    /// form, resets permutations, etas and counters.
    fn install(&mut self, lu: LuFactors) {
        let m = self.m;
        self.order.clear();
        self.order.extend_from_slice(&lu.pos_row);
        self.base_nnz = lu.nnz();
        self.u_nnz = m;
        for k in 0..m {
            let r = lu.pos_row[k];
            self.pos_of[r] = k;
            self.slot_of[r] = lu.col_order[k];
            self.key_of_slot[lu.col_order[k]] = r;
            self.u_diag[r] = lu.diag[k];
            // Translate the column's entries from position indexing to
            // row keys.
            let uc = &lu.u_cols[k];
            let entries: Vec<(usize, f64)> =
                uc.idx.iter().zip(&uc.vals).map(|(&t, &v)| (lu.pos_row[t], v)).collect();
            self.u_nnz += entries.len();
            self.u_cols[r] = SparseCol::from_entries(entries);
        }
        self.row_nnz.iter_mut().for_each(|v| *v = 0);
        for col in &self.u_cols {
            for &rk in &col.idx {
                self.row_nnz[rk] += 1;
            }
        }
        self.lu = lu;
        self.etas.clear();
        self.eta_nnz = 0;
        self.updates = 0;
        self.shaky = false;
        self.spike_cache.borrow_mut().valid = false;
    }

    /// Applies the stored spike-row etas, oldest first, to a vector that
    /// has already been carried through the frozen L part. Each eta's
    /// support mask is intersected with a running nonzero-row mask of
    /// the solve vector, so etas that provably gather zero are skipped —
    /// on the sparse right-hand sides of the pivot loop's column ftrans
    /// most etas are (the L solve confines fill to the columns it
    /// touches). The mask only ever grows: between etas nothing else
    /// writes `x`, and an applied eta adds exactly the one row it
    /// updates, so staying a superset of the true nonzero set is
    /// invariant (cancellation to exact zero just leaves a stale bit).
    fn apply_etas_forward(&self, x: &mut [f64]) {
        if self.etas.is_empty() {
            return;
        }
        let mut live = self.live_mask.borrow_mut();
        live.clear();
        live.resize(mask_words(self.m), 0);
        for (r, &v) in x.iter().enumerate() {
            if v != 0.0 {
                mask_set(&mut live, r);
            }
        }
        for eta in &self.etas {
            if !masks_intersect(&eta.mask, &live) {
                continue;
            }
            let s = vecops::gather_dot(&eta.col.idx, &eta.col.vals, x);
            if s != 0.0 {
                x[eta.row] -= s;
                mask_set(&mut live, eta.row);
            }
        }
    }

    /// Solves `B·z = b` for `b` given dense in row indexing; returns `z`
    /// in basis-slot indexing. When `cache_as` carries the originating
    /// sparse column, the intermediate spike (post-L, post-etas, pre-U)
    /// is stashed for the [`update`](BasisRepr::update) that typically
    /// follows.
    fn solve_forward(&self, mut x: Vec<f64>, cache_as: Option<(&[usize], &[f64])>) -> Vec<f64> {
        // Frozen L, then the spike-row etas oldest first (they sit
        // between L and U by construction), then the mutable U.
        self.lu.l_solve(&mut x);
        self.apply_etas_forward(&mut x);
        if let Some((idx, vals)) = cache_as {
            let mut cache = self.spike_cache.borrow_mut();
            cache.col_idx.clear();
            cache.col_idx.extend_from_slice(idx);
            cache.col_vals.clear();
            cache.col_vals.extend_from_slice(vals);
            cache.spike.clear();
            cache.spike.extend_from_slice(&x);
            cache.valid = true;
        }
        let mut out = vec![0.0; self.m];
        for p in (0..self.m).rev() {
            let r = self.order[p];
            let w = x[r] / self.u_diag[r];
            if w != 0.0 {
                let uc = &self.u_cols[r];
                vecops::scatter_axpy(-w, &uc.idx, &uc.vals, &mut x);
                out[self.slot_of[r]] = w;
            }
        }
        out
    }
}

impl BasisRepr for FtBasis {
    fn identity(m: usize) -> Self {
        let mut repr = FtBasis {
            m,
            lu: LuFactors::identity(m),
            order: Vec::with_capacity(m),
            pos_of: vec![0; m],
            slot_of: vec![0; m],
            key_of_slot: vec![0; m],
            u_cols: vec![SparseCol::default(); m],
            u_diag: vec![1.0; m],
            u_nnz: m,
            base_nnz: m,
            etas: Vec::new(),
            eta_nnz: 0,
            updates: 0,
            shaky: false,
            spike: vec![0.0; m],
            relim: vec![0.0; m],
            row_nnz: vec![0; m],
            spike_cache: RefCell::new(SpikeCache::default()),
            live_mask: RefCell::new(Vec::new()),
            acc_refactors: 0,
        };
        repr.install(LuFactors::identity(m));
        repr
    }

    fn refactor(&mut self, a: &CscMatrix, n: usize, basis: &[usize]) -> bool {
        let cols: Vec<(Vec<usize>, Vec<f64>)> =
            basis.iter().map(|&j| crate::revised::basis_col(a, n, j)).collect();
        match LuFactors::factorize(self.m, &cols) {
            Some(lu) => {
                self.install(lu);
                true
            }
            None => false,
        }
    }

    fn ftran_col(&self, idx: &[usize], vals: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.m];
        for (&r, &v) in idx.iter().zip(vals) {
            x[r] = v;
        }
        self.solve_forward(x, Some((idx, vals)))
    }

    fn ftran_dense(&self, rhs: &[f64]) -> Vec<f64> {
        self.solve_forward(rhs.to_vec(), None)
    }

    fn btran_dense(&self, cb: &[f64]) -> Vec<f64> {
        // Uᵀ forward over positions (row-keyed gather), then the
        // transposed etas newest first, then frozen Lᵀ.
        let mut w = vec![0.0; self.m];
        for p in 0..self.m {
            let r = self.order[p];
            let uc = &self.u_cols[r];
            let s = cb[self.slot_of[r]] - vecops::gather_dot(&uc.idx, &uc.vals, &w);
            w[r] = s / self.u_diag[r];
        }
        for eta in self.etas.iter().rev() {
            let t = w[eta.row];
            if t != 0.0 {
                vecops::scatter_axpy(-t, &eta.col.idx, &eta.col.vals, &mut w);
            }
        }
        self.lu.lt_solve(&mut w);
        w
    }

    fn binv_row(&self, i: usize) -> Vec<f64> {
        // Unit-vector btran — the pricing row `ρ = eᵢᵀB⁻¹` of the dual
        // ratio test (`Revised::run_dual`). The RHS is `eᵢ`, so every Uᵀ
        // position before slot `i`'s diagonal sees a zero RHS entry and
        // gathers only zeros: the forward sweep can start at that
        // diagonal's position instead of position 0.
        let mut w = vec![0.0; self.m];
        let start = self.pos_of[self.key_of_slot[i]];
        for p in start..self.m {
            let r = self.order[p];
            let uc = &self.u_cols[r];
            let rhs = if p == start { 1.0 } else { 0.0 };
            let s = rhs - vecops::gather_dot(&uc.idx, &uc.vals, &w);
            w[r] = s / self.u_diag[r];
        }
        for eta in self.etas.iter().rev() {
            let t = w[eta.row];
            if t != 0.0 {
                vecops::scatter_axpy(-t, &eta.col.idx, &eta.col.vals, &mut w);
            }
        }
        self.lu.lt_solve(&mut w);
        w
    }

    /// The Forrest–Tomlin exchange: slot `row`'s variable leaves, the
    /// column `col_idx`/`col_vals` with ftran'd direction `u` enters.
    fn update(
        &mut self,
        row: usize,
        u: &[f64],
        _support: &[usize],
        col_idx: &[usize],
        col_vals: &[f64],
    ) {
        let m = self.m;
        let rt = self.key_of_slot[row];
        let t = self.pos_of[rt];
        // The determinant identity predicts the new diagonal before any
        // elimination runs: det(B')/det(B) = u[row], and FT changes only
        // one diagonal of U, so d = u[row] · U_tt. The elimination below
        // recomputes d independently; disagreement between the two is a
        // direct measurement of accumulated/cancellation error and flags
        // the update shaky (the Forrest–Tomlin accuracy check).
        let predicted = u[row] * self.u_diag[rt];
        if u[row].abs() < SHAKY_PIVOT || crate::faults::trip(crate::faults::Site::UpdatePivot) {
            // Tiny simplex pivots shrink the diagonal by the same factor
            // and amplify every later solve.
            self.shaky = true;
        }

        // ---- 1. Obtain the spike w = E_k…E_1·L⁻¹·a — the raw entering
        // column carried through the frozen L part and the accumulated
        // row etas, stopping short of U. This is the spike's
        // *definition* (un-solving the direction back as U·u would
        // round-trip through U⁻¹ and U and amplify error by cond(U)),
        // and it is an intermediate of the ftran that chose this column,
        // so the cached copy from that solve almost always serves.
        debug_assert!(self.spike.iter().all(|&v| v == 0.0));
        {
            let mut cache = self.spike_cache.borrow_mut();
            if cache.matches(col_idx, col_vals) {
                // Swap rather than copy: the workspace hands its zeroed
                // buffer to the (now invalidated) cache.
                std::mem::swap(&mut self.spike, &mut cache.spike);
            } else {
                drop(cache);
                let mut spike = std::mem::take(&mut self.spike);
                for (&r, &v) in col_idx.iter().zip(col_vals) {
                    spike[r] = v;
                }
                self.lu.l_solve(&mut spike);
                self.apply_etas_forward(&mut spike);
                self.spike = spike;
            }
        }
        // Any cached spike is stale once U changes below.
        self.spike_cache.borrow_mut().valid = false;

        // ---- 2. Delete the leaving column (the spike replaces it).
        let old_col = std::mem::take(&mut self.u_cols[rt]);
        self.u_nnz -= old_col.nnz() + 1;
        for &rk in &old_col.idx {
            self.row_nnz[rk] -= 1;
        }

        // ---- 3. Delete the spike row from every column inside the
        // window, recording its values — the right-hand side of the
        // elimination solve, read back through the `relim` workspace so
        // the order of discovery does not matter. The row-occupancy
        // count ends the scan as soon as every entry is found (usually
        // immediately: most rows carry no off-diagonal entries).
        // Removal is order-preserving: sorted columns keep every
        // gather/scatter's summation order deterministic and
        // independent of the update history, which keeps replays and
        // the pivot-trace tests exactly reproducible.
        let mut row_keys: Vec<usize> = Vec::new();
        let mut to_find = self.row_nnz[rt];
        for p in t + 1..m {
            if to_find == 0 {
                break;
            }
            let c = self.order[p];
            let col = &mut self.u_cols[c];
            if let Ok(k) = col.idx.binary_search(&rt) {
                self.relim[c] = col.vals[k];
                row_keys.push(c);
                col.idx.remove(k);
                col.vals.remove(k);
                self.u_nnz -= 1;
                to_find -= 1;
            }
        }
        self.row_nnz[rt] = 0;

        // ---- 4. Eliminate the spike row: the multipliers r solve
        // rᵀ·U[window] = rowvec, a transposed triangular solve walked in
        // position order. Only window entries of a column participate —
        // the masked gather keys the cut on `pos_of` — and the walk ends
        // early once the remaining right-hand side is exhausted and no
        // multiplier is live to generate fill (the common case: a
        // near-empty spike row eliminates in a handful of steps).
        let mut eta_entries: Vec<(usize, f64)> = Vec::new();
        if !row_keys.is_empty() {
            let mut remaining = row_keys.len();
            for p in t + 1..m {
                if remaining == 0 && eta_entries.is_empty() {
                    break;
                }
                let c = self.order[p];
                let mut val = self.relim[c];
                if val != 0.0 {
                    // Consume this rowvec entry; `relim[c]` is rewritten
                    // below with the multiplier (or zero).
                    remaining -= 1;
                    self.relim[c] = 0.0;
                }
                if !eta_entries.is_empty() {
                    let uc = &self.u_cols[c];
                    val -=
                        vecops::masked_gather_dot(&uc.idx, &uc.vals, &self.relim, &self.pos_of, t);
                }
                if val != 0.0 {
                    let rj = val / self.u_diag[c];
                    self.relim[c] = rj;
                    eta_entries.push((c, rj));
                }
            }
        }

        // ---- 5. New diagonal d = w_t − rᵀ·w (the fully eliminated
        // last-row, last-column entry). FT has no pivoting freedom here;
        // a small |d| schedules a fresh, freely pivoted factorization.
        let mut d = self.spike[rt];
        for &(c, rj) in &eta_entries {
            d -= rj * self.spike[c];
        }
        let tiny = d.abs() < SHAKY_PIVOT;
        let drifted = (d - predicted).abs() > ACCURACY_DRIFT * (d.abs() + predicted.abs())
            || crate::faults::trip(crate::faults::Site::FtAccuracy);
        if drifted {
            self.acc_refactors += 1;
        }
        if tiny || drifted {
            self.shaky = true;
            // Same diagnostics channel as the feasibility watchdog in
            // `crate::revised` (see CHANGES.md): which accuracy trigger
            // scheduled the refactorization, with the numbers behind it.
            if std::env::var_os("QAVA_LP_DEBUG_WATCHDOG").is_some() {
                eprintln!(
                    "ft shaky after update {}: d = {d:e} vs predicted {predicted:e} \
                     (tiny = {tiny}, drifted = {drifted})",
                    self.updates
                );
            }
        }
        if d == 0.0 {
            // An exactly singular spike would poison the very next solve
            // with non-finite values before the refactorization check
            // runs; any representable nonzero keeps the solves finite
            // until the shaky flag forces the rebuild.
            d = SHAKY_PIVOT * SHAKY_PIVOT;
        }

        // ---- 6. Install the spike as the new column of `rt`'s diagonal
        // (its above-diagonal part is the spike minus the pivot
        // component — the row elimination never touches the column), and
        // reset the spike workspace as it is read out. The L solve can
        // fill anywhere, so the whole workspace is scanned (O(m), minor
        // against the O(nnz) solves that produced it).
        let mut new_entries: Vec<(usize, f64)> = Vec::new();
        for c in 0..m {
            let v = self.spike[c];
            if v != 0.0 {
                self.spike[c] = 0.0;
                if c != rt {
                    self.row_nnz[c] += 1;
                    new_entries.push((c, v));
                }
            }
        }
        self.u_nnz += new_entries.len() + 1;
        self.u_cols[rt] = SparseCol::from_entries(new_entries);
        self.u_diag[rt] = d;

        // ---- 7. Reset the elimination workspace.
        for &(c, _) in &eta_entries {
            self.relim[c] = 0.0;
        }

        // ---- 8. Rotate the permutation: the pivot's row and column
        // cycle from position t to the end; everything in between shifts
        // up one. Row keys never change, so nothing else moves.
        self.order[t..].rotate_left(1);
        debug_assert_eq!(self.order[m - 1], rt);
        for p in t..m {
            self.pos_of[self.order[p]] = p;
        }

        // ---- 9. Record the spike-row eta (it sits between L and U in
        // every later solve), with its support bitmask so forward solves
        // can skip it when the solve vector has no mass on its rows.
        if !eta_entries.is_empty() {
            self.eta_nnz += eta_entries.len();
            let mut mask = vec![0u64; mask_words(m)];
            for &(c, _) in &eta_entries {
                mask_set(&mut mask, c);
            }
            self.etas.push(RowEta { row: rt, col: SparseCol::from_entries(eta_entries), mask });
        }
        self.updates += 1;
    }

    fn should_refactor(&self, _iteration: usize) -> bool {
        self.shaky
            || self.updates >= MAX_UPDATES
            || self.u_nnz + self.eta_nnz > FILL_FACTOR * self.base_nnz + self.m
    }

    /// Optimality claimed through incrementally updated factors must be
    /// re-derived from a fresh refactorization before it is reported
    /// (see `tests/drift_regression.rs` — the failure mode is shared by
    /// every incremental update scheme).
    fn trusts_incremental_optimal(&self) -> bool {
        false
    }

    fn accuracy_refactors(&self) -> usize {
        self.acc_refactors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qava_linalg::Matrix;

    fn basis_csc(dense: Vec<Vec<f64>>) -> CscMatrix {
        CscMatrix::from_dense(&Matrix::from_rows(dense))
    }

    /// Reference B⁻¹ for a basis assembled the same way `refactor` does.
    fn dense_inverse(a: &CscMatrix, n: usize, basis: &[usize]) -> Matrix {
        let m = a.rows();
        let mut bm = Matrix::zeros(m, m);
        for (k, &j) in basis.iter().enumerate() {
            if j < n {
                let (idx, vals) = a.col(j);
                for (&r, &v) in idx.iter().zip(vals) {
                    bm[(r, k)] = v;
                }
            } else {
                bm[(j - n, k)] = 1.0;
            }
        }
        bm.inverse().expect("test basis nonsingular")
    }

    /// Every solve of `repr` must match the dense inverse of the basis.
    fn assert_matches_inverse(repr: &FtBasis, inv: &Matrix, tol: f64, ctx: &str) {
        let m = inv.rows();
        for t in 0..=m {
            let b: Vec<f64> = if t < m {
                (0..m).map(|i| if i == t { 1.0 } else { 0.0 }).collect()
            } else {
                (0..m).map(|i| (i as f64) * 0.7 - 1.3).collect()
            };
            let x = repr.ftran_dense(&b);
            let want = inv.mul_vec(&b);
            for (i, (&g, &w)) in x.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < tol, "{ctx}: ftran[{i}] {g} vs {w}");
            }
            let y = repr.btran_dense(&b);
            let want_y = inv.mul_vec_transposed(&b);
            for (i, (&g, &w)) in y.iter().zip(&want_y).enumerate() {
                assert!((g - w).abs() < tol, "{ctx}: btran[{i}] {g} vs {w}");
            }
        }
    }

    /// Structural invariants of the row-keyed representation.
    fn check_invariants(repr: &FtBasis) {
        let m = repr.m;
        let mut seen = vec![false; m];
        for p in 0..m {
            let r = repr.order[p];
            assert!(!seen[r], "row key {r} appears twice in the order");
            seen[r] = true;
            assert_eq!(repr.pos_of[r], p, "pos_of out of sync at {r}");
            assert_eq!(repr.key_of_slot[repr.slot_of[r]], r, "slot maps out of sync");
        }
        let mut nnz = 0;
        for r in 0..m {
            nnz += repr.u_cols[r].nnz() + 1;
            for &rk in &repr.u_cols[r].idx {
                assert!(
                    repr.pos_of[rk] < repr.pos_of[r],
                    "triangularity violated: entry {rk} (pos {}) in column {r} (pos {})",
                    repr.pos_of[rk],
                    repr.pos_of[r]
                );
            }
        }
        assert_eq!(nnz, repr.u_nnz, "u_nnz bookkeeping drifted");
        let mut row_counts = vec![0usize; m];
        for r in 0..m {
            for &rk in &repr.u_cols[r].idx {
                row_counts[rk] += 1;
            }
        }
        assert_eq!(row_counts, repr.row_nnz, "row_nnz bookkeeping drifted");
        assert!(repr.spike.iter().all(|&v| v == 0.0), "spike workspace not reset");
        assert!(repr.relim.iter().all(|&v| v == 0.0), "relim workspace not reset");
    }

    #[test]
    fn identity_is_trivial() {
        let repr = FtBasis::identity(4);
        check_invariants(&repr);
        let x = repr.ftran_dense(&[1.0, -2.0, 3.0, 0.5]);
        assert_eq!(x, vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(repr.btran_dense(&x), vec![1.0, -2.0, 3.0, 0.5]);
    }

    #[test]
    fn refactor_matches_dense_inverse() {
        let a = basis_csc(vec![
            vec![2.0, 0.0, 1.0, 1.0],
            vec![0.0, 3.0, 0.0, -1.0],
            vec![1.0, 1.0, 1.0, 0.0],
        ]);
        let basis = vec![0usize, 3, 2];
        let mut repr = FtBasis::identity(3);
        assert!(repr.refactor(&a, 4, &basis));
        check_invariants(&repr);
        let inv = dense_inverse(&a, 4, &basis);
        assert_matches_inverse(&repr, &inv, 1e-9, "refactor");
        for i in 0..3 {
            let row = repr.binv_row(i);
            for (j, got) in row.iter().enumerate() {
                assert!((got - inv[(i, j)]).abs() < 1e-9, "row {i} col {j}");
            }
        }
    }

    /// The FT update must track an explicit reinversion through a chain
    /// of exchanges — including re-pivoting a slot that was already
    /// replaced (second spike through the same diagonal) and pivoting at
    /// the last position (empty elimination window).
    #[test]
    fn ft_updates_track_explicit_reinversion() {
        let a = basis_csc(vec![
            vec![1.0, 2.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0, -1.0],
            vec![1.0, 0.0, 2.0, 0.5],
            vec![0.0, -1.0, 1.0, 2.0],
        ]);
        let n = 4;
        let m = 4;
        let mut repr = FtBasis::identity(m);
        let mut basis: Vec<usize> = (n..n + m).collect();
        // (column, slot) exchanges; column 3 later replaces slot 0 again.
        for &(col, slot) in &[(1usize, 0usize), (2, 2), (0, 1), (3, 0)] {
            let (idx, vals) = a.col(col);
            let u = repr.ftran_col(idx, vals);
            let support: Vec<usize> =
                (0..m).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
            assert!(u[slot].abs() > 1e-9, "test exchange must be pivotable");
            repr.update(slot, &u, &support, idx, vals);
            basis[slot] = col;
            check_invariants(&repr);
            let inv = dense_inverse(&a, n, &basis);
            assert_matches_inverse(&repr, &inv, 1e-8, &format!("after col {col} -> slot {slot}"));
        }
        assert_eq!(repr.updates, 4);
    }

    /// The binv_row fast path (Uᵀ sweep entered at slot `i`'s diagonal
    /// position) must agree with the generic dense btran once updates
    /// have rotated the factor ordering and stacked row etas.
    #[test]
    fn unit_btran_fast_path_matches_generic_after_updates() {
        let a = basis_csc(vec![
            vec![1.0, 2.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0, -1.0],
            vec![1.0, 0.0, 2.0, 0.5],
            vec![0.0, -1.0, 1.0, 2.0],
        ]);
        let m = 4;
        let mut repr = FtBasis::identity(m);
        for &(col, slot) in &[(1usize, 0usize), (2, 2), (0, 1)] {
            let (idx, vals) = a.col(col);
            let u = repr.ftran_col(idx, vals);
            let support: Vec<usize> =
                (0..m).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
            repr.update(slot, &u, &support, idx, vals);
        }
        assert!(repr.updates > 0 && !repr.etas.is_empty(), "fast path must see a rotated order");
        for i in 0..m {
            let fast = repr.binv_row(i);
            let mut e = vec![0.0; m];
            e[i] = 1.0;
            let generic = repr.btran_dense(&e);
            for (g, w) in fast.iter().zip(&generic) {
                assert!((g - w).abs() < 1e-12, "row {i}: {g} vs {w}");
            }
        }
    }

    /// Randomized stress: long random pivot chains on random sparse
    /// systems, each step checked against the dense inverse.
    #[test]
    fn random_pivot_chains_match_dense_inverse() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        };
        for m in [3usize, 6, 11, 17] {
            let n = m + 5;
            // Random sparse system with solid column norms.
            let mut rows = vec![vec![0.0; n]; m];
            for (i, row) in rows.iter_mut().enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    if j % m == i {
                        *v = 2.0 + next().abs();
                    } else if next() > 0.4 {
                        *v = next();
                    }
                }
            }
            let a = basis_csc(rows);
            let mut ft = FtBasis::identity(m);
            let mut basis: Vec<usize> = (n..n + m).collect();
            let mut updates_done = 0;
            for step in 0..3 * m {
                let col = ((next().abs() * n as f64) as usize).min(n - 1);
                let (idx, vals) = a.col(col);
                if basis.contains(&col) || idx.is_empty() {
                    continue;
                }
                let u = ft.ftran_col(idx, vals);
                // Pivot on the largest healthy component.
                let Some((slot, _)) = u
                    .iter()
                    .enumerate()
                    .filter(|(i, v)| v.abs() > 0.1 && basis[*i] != col)
                    .max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()))
                else {
                    continue;
                };
                let support: Vec<usize> =
                    (0..m).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
                ft.update(slot, &u, &support, idx, vals);
                basis[slot] = col;
                updates_done += 1;
                check_invariants(&ft);
                let inv = dense_inverse(&a, n, &basis);
                assert_matches_inverse(&ft, &inv, 1e-7, &format!("m={m} step={step}"));
            }
            assert!(updates_done >= m, "m={m}: chain too short to be meaningful");
        }
    }

    #[test]
    fn refactor_triggers_fire() {
        // Column 1's bottom entry is tiny, so pivoting it into slot 1
        // dictates a tiny new diagonal.
        let a = basis_csc(vec![vec![1.0, 4.0], vec![0.0, 1e-9]]);
        let mut repr = FtBasis::identity(2);
        assert!(repr.refactor(&a, 2, &[0, 3]));
        assert!(!repr.should_refactor(0));
        let (idx, vals) = a.col(1);
        repr.update(1, &[4.0, 1e-9], &[0, 1], idx, vals);
        assert!(repr.shaky, "tiny spike pivot must flag shaky");
        assert!(repr.should_refactor(0));
        // Refactorization clears the flag (fresh pivoting order).
        assert!(repr.refactor(&a, 2, &[0, 1]));
        assert!(!repr.should_refactor(0));
        // Update-count backstop (self-replacements keep U the identity,
        // so neither the accuracy check nor the fill trigger interferes).
        let single = basis_csc(vec![vec![1.0]]);
        let mut repr = FtBasis::identity(1);
        assert!(repr.refactor(&single, 1, &[0]));
        for n in 0..MAX_UPDATES {
            assert!(!repr.should_refactor(0), "premature trigger after {n} updates");
            repr.update(0, &[1.0], &[0], &[0], &[1.0]);
        }
        assert!(repr.should_refactor(0));
        // A singular refactorization keeps the incremental state.
        let singular = basis_csc(vec![vec![0.0]]);
        assert!(!repr.refactor(&singular, 1, &[0]));
        assert!(repr.should_refactor(0), "state kept after failed refactor");
    }

    /// The fill-in trigger: dense spikes into a sparse (diagonal)
    /// factorization grow U until the threshold fires.
    #[test]
    fn fill_in_growth_triggers_refactorization() {
        let m = 12;
        // Diagonal basis columns 0..m plus m fully dense columns m..2m,
        // each diagonally dominant so every partially swapped basis
        // stays well-conditioned.
        let mut rows = vec![vec![0.0; 2 * m]; m];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = 3.0;
            for j in 0..m {
                row[m + j] = if i == j { 4.0 } else { 1.0 / (1.0 + (i + 2 * j) as f64) };
            }
        }
        let a = basis_csc(rows);
        let mut repr = FtBasis::identity(m);
        assert!(repr.refactor(&a, 2 * m, &(0..m).collect::<Vec<_>>()));
        let mut fired = false;
        for slot in 0..m {
            let (idx, vals) = a.col(m + slot);
            let u = repr.ftran_col(idx, vals);
            assert!(u[slot].abs() > 0.1, "dominant diagonal keeps the exchange pivotable");
            let support: Vec<usize> = (0..m).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
            repr.update(slot, &u, &support, idx, vals);
            check_invariants(&repr);
            if repr.should_refactor(0) {
                fired = true;
                break;
            }
        }
        assert!(fired, "dense spikes never tripped the fill-in trigger");
    }
}
