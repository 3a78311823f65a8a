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
//! **Storage.** Nothing in the engine is allocated per column or per
//! update. L is the flat CSC of the last factorization
//! ([`LuFactors`]), rebuilt in place into a spare set of factors that is
//! swapped in only when the refactorization succeeds. The mutable U
//! keeps every row-keyed column in one flat index/value array pair with
//! a start and a length per row key: deleting a spike-row entry shifts
//! the rest of its column down, and a replacement column is appended at
//! the end, its old segment left as garbage that the next
//! refactorization (or a compaction, once garbage outweighs the live
//! entries) reclaims. The row etas are one more flat column store plus
//! one flat array of support bitmasks. All of these, and the solve and
//! elimination workspaces, are cleared rather than dropped, so once a
//! run has sized them its pivots and refactorizations allocate nothing.
//!
//! **Skip only provably-zero work.** A gather's entry order is part of
//! the numeric contract (it fixes the summation order, so every bit,
//! pivot and work counter downstream), so the fast paths here never
//! reorder or regroup arithmetic that produces a nonzero; they only skip
//! work whose result is provably zero. Each U column keeps a support
//! bitmask over row keys, and the spike-row elimination skips the
//! gather of a column that shares no row with a live multiplier; the U
//! and Uᵀ sweeps skip the division of an entry that is exactly zero and
//! the gather of an empty column; forward solves skip row etas whose
//! support misses the solve vector's. A skipped zero of the Uᵀ sweep
//! stays `+0.0` where the division would have given a signed zero, and
//! a zero's sign changes no later comparison or nonzero result.
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

use crate::lu::{mask_set, mask_words, FlatCols, LuFactors};
use crate::revised::{basis_col, BasisRepr};
use crate::CscMatrix;
use qava_linalg::vecops;

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
#[derive(Debug, Default)]
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

/// The mutable U, row-keyed: column `r` (the U column whose diagonal
/// lies on row `r`) holds its above-diagonal entries, themselves
/// row-keyed and increasing, at `idx/vals[start[r]..start[r] + len[r]]`
/// of one flat array pair. A replaced column is appended at the end and
/// its old segment becomes garbage until the next
/// [`clear`](Self::clear) or [`compact`](Self::compact).
///
/// Each column also keeps a support bitmask over row keys, `words`
/// words per column: a bit is set when an entry is pushed and cleared
/// when it is removed or its column begins afresh, so the mask is always
/// exactly the column's set of row keys. The spike-row elimination
/// intersects it with the live multipliers to skip gathers that are
/// provably zero.
#[derive(Debug, Default)]
struct RowKeyedU {
    start: Vec<usize>,
    len: Vec<usize>,
    idx: Vec<usize>,
    vals: Vec<f64>,
    masks: Vec<u64>,
    words: usize,
    /// Compaction scratch: row keys in segment order.
    keys: Vec<usize>,
}

impl RowKeyedU {
    fn with_rows(m: usize) -> Self {
        let words = mask_words(m);
        RowKeyedU {
            start: vec![0; m],
            len: vec![0; m],
            masks: vec![0; m * words],
            words,
            ..Default::default()
        }
    }

    /// Empties every column, keeping the capacity.
    fn clear(&mut self) {
        self.idx.clear();
        self.vals.clear();
        self.start.iter_mut().for_each(|s| *s = 0);
        self.len.iter_mut().for_each(|l| *l = 0);
        self.masks.fill(0);
    }

    fn col(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.start[r], self.start[r] + self.len[r]);
        (&self.idx[lo..hi], &self.vals[lo..hi])
    }

    /// Column `r`'s support bitmask.
    fn mask(&self, r: usize) -> &[u64] {
        &self.masks[r * self.words..(r + 1) * self.words]
    }

    fn mask_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.masks[r * self.words..(r + 1) * self.words]
    }

    /// Starts column `r` afresh at the end of the storage; its entries
    /// follow through [`push`](Self::push) in increasing row-key order.
    fn begin(&mut self, r: usize) {
        self.start[r] = self.idx.len();
        self.len[r] = 0;
        self.mask_mut(r).fill(0);
    }

    /// Appends an entry to column `r`, the column begun last.
    fn push(&mut self, r: usize, key: usize, v: f64) {
        debug_assert_eq!(self.start[r] + self.len[r], self.idx.len());
        self.idx.push(key);
        self.vals.push(v);
        self.len[r] += 1;
        mask_set(self.mask_mut(r), key);
    }

    /// Begins column `r` afresh as a copy of the increasing row-keyed
    /// entries `idx`/`vals`.
    fn push_col(&mut self, r: usize, idx: &[usize], vals: &[f64]) {
        self.begin(r);
        self.idx.extend_from_slice(idx);
        self.vals.extend_from_slice(vals);
        self.len[r] = idx.len();
        for &key in idx {
            mask_set(self.mask_mut(r), key);
        }
    }

    /// Whether column `r` holds an entry with row key `key`.
    fn holds(&self, r: usize, key: usize) -> bool {
        self.mask(r)[key >> 6] >> (key & 63) & 1 == 1
    }

    /// Removes the entry with row key `key` from column `r`, keeping the
    /// rest in order; returns its value, or `None` when absent (read off
    /// the support mask, so only a present key costs a search).
    fn remove(&mut self, r: usize, key: usize) -> Option<f64> {
        if !self.holds(r, key) {
            return None;
        }
        let (lo, hi) = (self.start[r], self.start[r] + self.len[r]);
        let k = lo + self.idx[lo..hi].binary_search(&key).ok()?;
        let v = self.vals[k];
        self.idx.copy_within(k + 1..hi, k);
        self.vals.copy_within(k + 1..hi, k);
        self.len[r] -= 1;
        self.mask_mut(r)[key >> 6] &= !(1u64 << (key & 63));
        Some(v)
    }

    /// Whether every column's support bitmask is exactly the set of its
    /// stored row keys (the keys are distinct, so every key's bit set
    /// and as many bits as keys means no other bit is).
    fn masks_match(&self) -> bool {
        (0..self.start.len()).all(|r| {
            let (idx, _) = self.col(r);
            let mask = self.mask(r);
            let bits: u32 = mask.iter().map(|w| w.count_ones()).sum();
            bits as usize == idx.len() && idx.iter().all(|&k| self.holds(r, k))
        })
    }

    /// Entries held by live columns.
    fn live(&self) -> usize {
        self.len.iter().sum()
    }

    /// Moves every live column down over the garbage, keeping each
    /// column's entries (and so every solve's summation order) as they
    /// are.
    fn compact(&mut self) {
        self.keys.clear();
        self.keys.extend(0..self.start.len());
        let start = &self.start;
        self.keys.sort_unstable_by_key(|&r| start[r]);
        let mut write = 0;
        for &r in &self.keys {
            let (lo, len) = (self.start[r], self.len[r]);
            self.idx.copy_within(lo..lo + len, write);
            self.vals.copy_within(lo..lo + len, write);
            self.start[r] = write;
            write += len;
        }
        self.idx.truncate(write);
        self.vals.truncate(write);
    }
}

/// The spike-row eliminations since the last refactorization, oldest
/// first. Eta `k` says row `rows[k]` (a row key) had the multipliers
/// `cols.col(k)` (row-keyed) eliminated into it: applied to a forward
/// solve as `x[row] -= col · x`, transposed as `x -= x[row] · col`.
#[derive(Debug, Default)]
struct RowEtas {
    rows: Vec<usize>,
    cols: FlatCols,
    /// Support bitmask of each eta's column over row keys, `words` words
    /// per eta. A forward solve intersects it with the running
    /// nonzero-row mask of the solve vector: no overlap means the gather
    /// is provably zero and the eta is skipped outright — a *row*
    /// operation reads many components, so sparse-RHS skipping takes a
    /// set intersection instead of a single load.
    masks: Vec<u64>,
    words: usize,
}

impl RowEtas {
    fn with_rows(m: usize) -> Self {
        let mut etas = RowEtas { words: mask_words(m), ..Default::default() };
        etas.clear();
        etas
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.masks.clear();
    }

    /// Makes room for `etas` more etas of `nnz` entries in total.
    fn reserve(&mut self, etas: usize, nnz: usize) {
        self.rows.reserve(etas);
        self.cols.reserve(etas, nnz);
        self.masks.reserve(etas * self.words);
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Records the elimination of the multipliers `entries` (row key,
    /// value; sorted here) into row `row`.
    fn push(&mut self, row: usize, entries: &mut [(usize, f64)]) {
        let base = self.masks.len();
        self.masks.resize(base + self.words, 0);
        for &(c, _) in entries.iter() {
            mask_set(&mut self.masks[base..], c);
        }
        self.rows.push(row);
        self.cols.push_sorted(entries);
    }

    fn mask(&self, k: usize) -> &[u64] {
        &self.masks[k * self.words..(k + 1) * self.words]
    }

    /// Applies the etas, oldest first, to a vector that has already been
    /// carried through the frozen L part. Each eta's support mask is
    /// intersected with a running nonzero-row mask of the solve vector
    /// (kept in `live`), so etas that provably gather zero are skipped —
    /// on the sparse right-hand sides of the pivot loop's column ftrans
    /// most etas are (the L solve confines fill to the columns it
    /// touches). The mask only ever grows: between etas nothing else
    /// writes `x`, and an applied eta adds exactly the one row it
    /// updates, so staying a superset of the true nonzero set is
    /// invariant (cancellation to exact zero just leaves a stale bit).
    fn apply_forward(&self, x: &mut [f64], live: &mut Vec<u64>) {
        if self.is_empty() {
            return;
        }
        live.clear();
        live.resize(self.words, 0);
        for (r, &v) in x.iter().enumerate() {
            if v != 0.0 {
                mask_set(live, r);
            }
        }
        for k in 0..self.len() {
            if !masks_intersect(self.mask(k), live) {
                continue;
            }
            let (ci, cv) = self.cols.col(k);
            let s = vecops::gather_dot(ci, cv, x);
            if s != 0.0 {
                let row = self.rows[k];
                x[row] -= s;
                mask_set(live, row);
            }
        }
    }

    /// Applies the transposed etas, newest first.
    fn apply_transposed(&self, w: &mut [f64]) {
        for k in (0..self.len()).rev() {
            let t = w[self.rows[k]];
            if t != 0.0 {
                let (ci, cv) = self.cols.col(k);
                vecops::scatter_axpy(-t, ci, cv, w);
            }
        }
    }
}

/// Whether two equally sized masks share any set bit.
fn masks_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// The Forrest–Tomlin basis representation behind the `lu-ft` backend
/// ([`crate::LuFtSimplex`]): frozen L factors plus a mutable, row-keyed
/// U that absorbs each basis exchange as a spike swap.
#[derive(Debug)]
pub(crate) struct FtBasis {
    m: usize,
    /// Factors of the last refactorization. Only the L half (plus its
    /// row permutation) is used after [`install`](Self::install) copies
    /// U out into the mutable row-keyed form below.
    lu: LuFactors,
    /// The factors the next refactorization is built into, swapped with
    /// `lu` on success (a singular basis leaves `lu` untouched).
    spare: LuFactors,
    /// `0..m`: the index slices of artificial unit columns
    /// ([`basis_col`]).
    unit_rows: Vec<usize>,
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
    /// Row key → above-diagonal entries of that diagonal's U column
    /// (every entry's position is smaller than the diagonal's — the
    /// triangularity invariant the update maintains).
    u: RowKeyedU,
    /// Row key → diagonal value.
    u_diag: Vec<f64>,
    /// Stored U nonzeros, diagonals included.
    u_nnz: usize,
    /// `nnz(L) + nnz(U)` right after the last refactorization — the
    /// yardstick of the fill-in trigger.
    base_nnz: usize,
    /// Spike-row eliminations since the last refactorization.
    etas: RowEtas,
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
    /// Row-key bitmask of the live multipliers in `relim`; all-zero
    /// between updates.
    mult_mask: Vec<u64>,
    /// The spike-row multipliers of an update, `(row key, value)` in
    /// elimination order.
    pairs: Vec<(usize, f64)>,
    /// Row key → number of stored off-diagonal U entries lying on that
    /// row (across all columns). Lets the spike-row deletion stop as
    /// soon as every entry is found — usually immediately, since most
    /// rows carry no off-diagonal entries at all.
    row_nnz: Vec<usize>,
    /// See [`SpikeCache`].
    spike_cache: SpikeCache,
    /// Nonzero-row mask workspace of [`RowEtas::apply_forward`].
    live_mask: Vec<u64>,
    /// Row-indexed solve vector of the forward solves.
    work: Vec<f64>,
    /// Updates whose determinant-identity cross-check disagreed with the
    /// eliminated diagonal — accuracy-triggered refactorizations.
    /// Cumulative since the engine was built or reset
    /// ([`install`](Self::install) never resets it): `RunTelemetry` polls
    /// it once per run via [`BasisRepr::accuracy_refactors`], and each
    /// run starts from a fresh or reset engine.
    acc_refactors: usize,
}

impl FtBasis {
    /// Adopts the fresh factorization in `lu`: copies U into the mutable
    /// row-keyed form, resets permutations, etas and counters.
    fn install(&mut self) {
        let m = self.m;
        let lu = &self.lu;
        self.order.clear();
        self.order.extend_from_slice(&lu.pos_row);
        self.base_nnz = lu.nnz();
        self.u_nnz = m;
        // Size U and the eta file for the updates up to the fill-in
        // trigger at once, rather than growing them step by step.
        self.u.clear();
        self.u.idx.reserve(2 * self.base_nnz + m);
        self.u.vals.reserve(2 * self.base_nnz + m);
        self.etas.clear();
        self.etas.reserve(MAX_UPDATES, self.base_nnz);
        for k in 0..m {
            let r = lu.pos_row[k];
            self.pos_of[r] = k;
            self.slot_of[r] = lu.col_order[k];
            self.key_of_slot[lu.col_order[k]] = r;
            self.u_diag[r] = lu.diag[k];
            // The factors store U row-keyed and sorted already.
            let (ui, uv) = lu.u.col(k);
            self.u.push_col(r, ui, uv);
            self.u_nnz += ui.len();
        }
        self.row_nnz.iter_mut().for_each(|v| *v = 0);
        for &rk in &self.u.idx {
            self.row_nnz[rk] += 1;
        }
        self.eta_nnz = 0;
        self.updates = 0;
        self.shaky = false;
        self.spike_cache.valid = false;
    }

    /// Solves `B·z = b` for `b` given dense in row indexing in `work`;
    /// writes `z` in basis-slot indexing to `out`. When `cache_as`
    /// carries the originating sparse column, the intermediate spike
    /// (post-L, post-etas, pre-U) is stashed for the
    /// [`update`](BasisRepr::update) that typically follows.
    fn solve_forward(&mut self, out: &mut [f64], cache_as: Option<(&[usize], &[f64])>) {
        let x = &mut self.work;
        // Frozen L, then the spike-row etas oldest first (they sit
        // between L and U by construction), then the mutable U.
        self.lu.l_solve(x);
        self.etas.apply_forward(x, &mut self.live_mask);
        if let Some((idx, vals)) = cache_as {
            let cache = &mut self.spike_cache;
            cache.col_idx.clear();
            cache.col_idx.extend_from_slice(idx);
            cache.col_vals.clear();
            cache.col_vals.extend_from_slice(vals);
            cache.spike.clear();
            cache.spike.extend_from_slice(x);
            cache.valid = true;
        }
        out.fill(0.0);
        for p in (0..self.m).rev() {
            let r = self.order[p];
            // A zero entry solves to zero: no division, no scatter.
            if x[r] == 0.0 {
                continue;
            }
            let w = x[r] / self.u_diag[r];
            if w != 0.0 {
                let (ui, uv) = self.u.col(r);
                vecops::scatter_axpy(-w, ui, uv, x);
                out[self.slot_of[r]] = w;
            }
        }
    }

    /// The Uᵀ sweep of a backward solve from position `start` on (the
    /// right-hand side `rhs(slot)` is zero before it), then the
    /// transposed etas and the frozen Lᵀ; `w` must be all-zero on entry.
    fn solve_backward(&self, w: &mut [f64], start: usize, rhs: impl Fn(usize) -> f64) {
        for p in start..self.m {
            let r = self.order[p];
            let (ui, uv) = self.u.col(r);
            let mut s = rhs(self.slot_of[r]);
            // An empty column gathers zero, and a zero entry solves to
            // the zero `w[r]` already holds.
            if !ui.is_empty() {
                s -= vecops::gather_dot(ui, uv, w);
            }
            if s != 0.0 {
                w[r] = s / self.u_diag[r];
            }
        }
        self.etas.apply_transposed(w);
        self.lu.lt_solve(w);
    }
}

impl BasisRepr for FtBasis {
    fn identity(m: usize) -> Self {
        let mut repr = FtBasis {
            m,
            lu: LuFactors::identity(m),
            spare: LuFactors::identity(m),
            unit_rows: (0..m).collect(),
            order: Vec::with_capacity(m),
            pos_of: vec![0; m],
            slot_of: vec![0; m],
            key_of_slot: vec![0; m],
            u: RowKeyedU::with_rows(m),
            u_diag: vec![1.0; m],
            u_nnz: m,
            base_nnz: m,
            etas: RowEtas::with_rows(m),
            eta_nnz: 0,
            updates: 0,
            shaky: false,
            spike: vec![0.0; m],
            relim: vec![0.0; m],
            mult_mask: vec![0; mask_words(m)],
            pairs: Vec::with_capacity(m),
            row_nnz: vec![0; m],
            spike_cache: SpikeCache {
                spike: Vec::with_capacity(m),
                col_idx: Vec::with_capacity(m),
                col_vals: Vec::with_capacity(m),
                valid: false,
            },
            live_mask: Vec::with_capacity(mask_words(m)),
            work: vec![0.0; m],
            acc_refactors: 0,
        };
        repr.install();
        repr
    }

    fn reset(&mut self) {
        self.lu.reset();
        self.install();
        self.acc_refactors = 0;
    }

    fn refactor(&mut self, a: &CscMatrix, n: usize, basis: &[usize]) -> bool {
        let rows = &self.unit_rows;
        if !self.spare.factorize(|k| basis_col(a, n, basis[k], rows)) {
            return false;
        }
        std::mem::swap(&mut self.lu, &mut self.spare);
        self.install();
        true
    }

    fn ftran_col(&mut self, idx: &[usize], vals: &[f64], out: &mut [f64]) {
        self.work.fill(0.0);
        for (&r, &v) in idx.iter().zip(vals) {
            self.work[r] = v;
        }
        self.solve_forward(out, Some((idx, vals)));
    }

    fn ftran_dense(&mut self, rhs: &[f64], out: &mut [f64]) {
        self.work.copy_from_slice(rhs);
        self.solve_forward(out, None);
    }

    fn btran_dense(&self, cb: &[f64], out: &mut [f64]) {
        // Uᵀ forward over positions (row-keyed gather), then the
        // transposed etas newest first, then frozen Lᵀ.
        out.fill(0.0);
        self.solve_backward(out, 0, |slot| cb[slot]);
    }

    fn binv_row(&self, i: usize, out: &mut [f64]) {
        // Unit-vector btran — the row `ρ = eᵢᵀB⁻¹` phase 1 scans to
        // drive a lingering artificial out of slot `i` (the drive-out
        // loop of `cold_two_phase_traced`). The RHS is `eᵢ`, so every Uᵀ
        // position before slot `i`'s diagonal sees a zero RHS entry and
        // gathers only zeros: the forward sweep can start at that
        // diagonal's position instead of position 0.
        out.fill(0.0);
        let start = self.pos_of[self.key_of_slot[i]];
        self.solve_backward(out, start, |slot| if slot == i { 1.0 } else { 0.0 });
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
        if self.spike_cache.matches(col_idx, col_vals) {
            // Swap rather than copy: the workspace hands its zeroed
            // buffer to the (now invalidated) cache.
            std::mem::swap(&mut self.spike, &mut self.spike_cache.spike);
        } else {
            for (&r, &v) in col_idx.iter().zip(col_vals) {
                self.spike[r] = v;
            }
            self.lu.l_solve(&mut self.spike);
            self.etas.apply_forward(&mut self.spike, &mut self.live_mask);
        }
        // Any cached spike is stale once U changes below.
        self.spike_cache.valid = false;

        // ---- 2. Delete the leaving column (the spike replaces it).
        let (old_idx, _) = self.u.col(rt);
        self.u_nnz -= old_idx.len() + 1;
        for &rk in old_idx {
            self.row_nnz[rk] -= 1;
        }
        self.u.len[rt] = 0;

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
        let found = self.row_nnz[rt];
        let mut to_find = found;
        for p in t + 1..m {
            if to_find == 0 {
                break;
            }
            let c = self.order[p];
            if let Some(v) = self.u.remove(c, rt) {
                self.relim[c] = v;
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
        // near-empty spike row eliminates in a handful of steps). A
        // column whose support shares no row with a live multiplier
        // (`mult_mask`) gathers only zeros, so its gather is skipped.
        // The multipliers collect in `pairs`, in elimination order.
        self.pairs.clear();
        if found > 0 {
            let mut remaining = found;
            for p in t + 1..m {
                if remaining == 0 && self.pairs.is_empty() {
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
                if masks_intersect(self.u.mask(c), &self.mult_mask) {
                    let (ui, uv) = self.u.col(c);
                    val -= vecops::masked_gather_dot(ui, uv, &self.relim, &self.pos_of, t);
                }
                if val != 0.0 {
                    let rj = val / self.u_diag[c];
                    self.relim[c] = rj;
                    mask_set(&mut self.mult_mask, c);
                    self.pairs.push((c, rj));
                }
            }
        }

        // ---- 5. New diagonal d = w_t − rᵀ·w (the fully eliminated
        // last-row, last-column entry). FT has no pivoting freedom here;
        // a small |d| schedules a fresh, freely pivoted factorization.
        let mut d = self.spike[rt];
        for &(c, rj) in &self.pairs {
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
        // against the O(nnz) solves that produced it). The column is
        // appended after the garbage of replaced columns, which is
        // compacted away first once it outweighs the live entries.
        if self.u.idx.len() > 2 * self.u.live() + m {
            self.u.compact();
        }
        self.u.begin(rt);
        for c in 0..m {
            let v = self.spike[c];
            if v != 0.0 {
                self.spike[c] = 0.0;
                if c != rt {
                    self.row_nnz[c] += 1;
                    self.u.push(rt, c, v);
                }
            }
        }
        self.u_nnz += self.u.len[rt] + 1;
        self.u_diag[rt] = d;

        // ---- 7. Reset the elimination workspace.
        for &(c, _) in &self.pairs {
            self.relim[c] = 0.0;
        }
        self.mult_mask.fill(0);

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
        if !self.pairs.is_empty() {
            self.eta_nnz += self.pairs.len();
            self.etas.push(rt, &mut self.pairs);
        }
        self.updates += 1;
        debug_assert!(self.u.masks_match(), "a U column's support mask drifted from its row keys");
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

    fn ftran_col(repr: &mut FtBasis, idx: &[usize], vals: &[f64]) -> Vec<f64> {
        let mut out = vec![f64::NAN; repr.m];
        repr.ftran_col(idx, vals, &mut out);
        out
    }

    fn ftran_dense(repr: &mut FtBasis, rhs: &[f64]) -> Vec<f64> {
        let mut out = vec![f64::NAN; repr.m];
        repr.ftran_dense(rhs, &mut out);
        out
    }

    fn btran_dense(repr: &FtBasis, cb: &[f64]) -> Vec<f64> {
        let mut out = vec![f64::NAN; repr.m];
        repr.btran_dense(cb, &mut out);
        out
    }

    fn binv_row(repr: &FtBasis, i: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; repr.m];
        repr.binv_row(i, &mut out);
        out
    }

    /// Every solve of `repr` must match the dense inverse of the basis.
    fn assert_matches_inverse(repr: &mut FtBasis, inv: &Matrix, tol: f64, ctx: &str) {
        let m = inv.rows();
        for t in 0..=m {
            let b: Vec<f64> = if t < m {
                (0..m).map(|i| if i == t { 1.0 } else { 0.0 }).collect()
            } else {
                (0..m).map(|i| (i as f64) * 0.7 - 1.3).collect()
            };
            let x = ftran_dense(repr, &b);
            let want = inv.mul_vec(&b);
            for (i, (&g, &w)) in x.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < tol, "{ctx}: ftran[{i}] {g} vs {w}");
            }
            let y = btran_dense(repr, &b);
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
            let (idx, _) = repr.u.col(r);
            nnz += idx.len() + 1;
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "column {r} not sorted by row key");
            for &rk in idx {
                assert!(
                    repr.pos_of[rk] < repr.pos_of[r],
                    "triangularity violated: entry {rk} (pos {}) in column {r} (pos {})",
                    repr.pos_of[rk],
                    repr.pos_of[r]
                );
            }
        }
        assert_eq!(nnz, repr.u_nnz, "u_nnz bookkeeping drifted");
        assert!(
            repr.u.idx.len() <= 2 * repr.u.live() + m,
            "U garbage not compacted: {} stored for {} live",
            repr.u.idx.len(),
            repr.u.live()
        );
        let mut row_counts = vec![0usize; m];
        for r in 0..m {
            for &rk in repr.u.col(r).0 {
                row_counts[rk] += 1;
            }
        }
        assert_eq!(row_counts, repr.row_nnz, "row_nnz bookkeeping drifted");
        assert!(repr.u.masks_match(), "a U column's support mask drifted from its row keys");
        assert!(repr.mult_mask.iter().all(|&w| w == 0), "multiplier mask not reset");
        assert!(repr.spike.iter().all(|&v| v == 0.0), "spike workspace not reset");
        assert!(repr.relim.iter().all(|&v| v == 0.0), "relim workspace not reset");
    }

    #[test]
    fn identity_is_trivial() {
        let mut repr = FtBasis::identity(4);
        check_invariants(&repr);
        let x = ftran_dense(&mut repr, &[1.0, -2.0, 3.0, 0.5]);
        assert_eq!(x, vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(btran_dense(&repr, &x), vec![1.0, -2.0, 3.0, 0.5]);
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
        assert_matches_inverse(&mut repr, &inv, 1e-9, "refactor");
        for i in 0..3 {
            let row = binv_row(&repr, i);
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
            let u = ftran_col(&mut repr, idx, vals);
            let support: Vec<usize> =
                (0..m).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
            assert!(u[slot].abs() > 1e-9, "test exchange must be pivotable");
            repr.update(slot, &u, &support, idx, vals);
            basis[slot] = col;
            check_invariants(&repr);
            let inv = dense_inverse(&a, n, &basis);
            let ctx = format!("after col {col} -> slot {slot}");
            assert_matches_inverse(&mut repr, &inv, 1e-8, &ctx);
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
            let u = ftran_col(&mut repr, idx, vals);
            let support: Vec<usize> =
                (0..m).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
            repr.update(slot, &u, &support, idx, vals);
        }
        assert!(repr.updates > 0 && !repr.etas.is_empty(), "fast path must see a rotated order");
        for i in 0..m {
            let fast = binv_row(&repr, i);
            let mut e = vec![0.0; m];
            e[i] = 1.0;
            let generic = btran_dense(&repr, &e);
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
                let u = ftran_col(&mut ft, idx, vals);
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
                assert_matches_inverse(&mut ft, &inv, 1e-7, &format!("m={m} step={step}"));
            }
            assert!(updates_done >= m, "m={m}: chain too short to be meaningful");
        }
    }

    /// Long random update chains on the 3DWalk corpus matrix, across
    /// U compactions and refactorizations: after every update each U
    /// column's support mask is exactly its set of row keys. The chains
    /// run past the engine's own refactorization triggers (which would
    /// rebuild U before its garbage ever outweighs the live entries on
    /// this sparse matrix), refactorizing every `CHAIN` updates.
    #[test]
    fn support_masks_track_row_keys_through_long_chains() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/corpus/walk3d_emax_100_0.qlp");
        let a = crate::lu::tests::read_qlp(&path).a;
        let (m, n) = (a.rows(), a.cols());
        let mut state = 0x5851F42D4C957F2Du64;
        let mut next = move |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        const CHAIN: usize = 400;
        let mut ft = FtBasis::identity(m);
        let mut basis: Vec<usize> = (n..n + m).collect();
        let (mut updates, mut refactors, mut compactions) = (0, 0, 0);
        for step in 0..4000 {
            if ft.updates >= CHAIN {
                assert!(ft.refactor(&a, n, &basis), "step {step}: basis went singular");
                assert!(ft.u.masks_match(), "step {step}: masks after refactorization");
                refactors += 1;
            }
            let col = next(n);
            let (idx, vals) = a.col(col);
            if idx.is_empty() || basis.contains(&col) {
                continue;
            }
            let u = ftran_col(&mut ft, idx, vals);
            // A random healthy pivot: varied exchanges, nonsingular bases.
            let healthy: Vec<usize> = (0..m).filter(|&i| u[i].abs() > 0.1).collect();
            if healthy.is_empty() {
                continue;
            }
            let slot = healthy[next(healthy.len())];
            let support: Vec<usize> = (0..m).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
            let stored = ft.u.idx.len();
            ft.update(slot, &u, &support, idx, vals);
            basis[slot] = col;
            updates += 1;
            // Without a compaction the replacement column is appended.
            if ft.u.idx.len() < stored {
                compactions += 1;
            }
            check_invariants(&ft);
        }
        assert!(updates >= 2000, "only {updates} updates");
        assert!(refactors >= 4, "only {refactors} refactorizations");
        assert!(compactions >= 10, "only {compactions} U compactions");
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
            let u = ftran_col(&mut repr, idx, vals);
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

    /// Compaction moves live columns over the garbage of replaced ones
    /// without changing any column's entries or their order.
    #[test]
    fn compaction_keeps_every_column() {
        let mut u = RowKeyedU::with_rows(4);
        let cols: [&[(usize, f64)]; 4] =
            [&[(1, 1.0), (3, 2.0)], &[], &[(0, -1.0)], &[(0, 4.0), (1, 5.0), (2, 6.0)]];
        for (r, col) in cols.iter().enumerate() {
            u.begin(r);
            for &(k, v) in col.iter() {
                u.push(r, k, v);
            }
        }
        // Replace column 0 twice and delete an entry of column 3.
        for v in [7.0, 8.0] {
            u.len[0] = 0;
            u.begin(0);
            u.push(0, 2, v);
        }
        assert_eq!(u.remove(3, 1), Some(5.0));
        assert_eq!(u.remove(3, 1), None);
        let before: Vec<(Vec<usize>, Vec<f64>)> =
            (0..4).map(|r| (u.col(r).0.to_vec(), u.col(r).1.to_vec())).collect();
        assert!(u.idx.len() > u.live());
        u.compact();
        assert_eq!(u.idx.len(), u.live());
        for (r, (idx, vals)) in before.iter().enumerate() {
            assert_eq!(u.col(r), (&idx[..], &vals[..]), "column {r}");
        }
        assert_eq!(u.col(0), (&[2usize][..], &[8.0][..]));
    }

    /// A refactorization into the reused storage gives bit for bit the
    /// solves of a factorization into new storage, after any number of
    /// updates and earlier refactorizations — and a singular attempt in
    /// between leaves the engine as it was. A reset engine is the
    /// identity engine.
    #[test]
    fn reused_storage_solves_bit_for_bit_like_fresh() {
        let a = basis_csc(vec![
            vec![1.0, 2.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 1.0, -1.0, 0.0],
            vec![1.0, 0.0, 2.0, 0.5, 0.0],
            vec![0.0, -1.0, 1.0, 2.0, 0.0],
        ]);
        let (n, m) = (5, 4);
        let mut reused = FtBasis::identity(m);
        let mut basis: Vec<usize> = (n..n + m).collect();
        for &(col, slot) in &[(1usize, 0usize), (2, 2), (0, 1), (3, 3)] {
            let (idx, vals) = a.col(col);
            let u = ftran_col(&mut reused, idx, vals);
            let support: Vec<usize> = (0..m).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
            reused.update(slot, &u, &support, idx, vals);
            basis[slot] = col;
            assert!(reused.refactor(&a, n, &basis));
            // Column 4 is empty: a basis holding it is singular.
            let mut singular = basis.clone();
            singular[slot] = 4;
            let before = ftran_dense(&mut reused, &[1.0, 2.0, 3.0, 4.0]);
            assert!(!reused.refactor(&a, n, &singular));
            assert_eq!(ftran_dense(&mut reused, &[1.0, 2.0, 3.0, 4.0]), before);
            let mut fresh = FtBasis::identity(m);
            assert!(fresh.refactor(&a, n, &basis));
            for rhs in [[1.0, 0.0, 0.0, 0.0], [0.3, -1.0, 2.0, 0.5]] {
                let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let (got, want) = (ftran_dense(&mut reused, &rhs), ftran_dense(&mut fresh, &rhs));
                assert_eq!(bits(got), bits(want));
                assert_eq!(bits(btran_dense(&reused, &rhs)), bits(btran_dense(&fresh, &rhs)));
            }
            check_invariants(&reused);
        }
        // Reset returns exactly to the identity engine.
        reused.reset();
        check_invariants(&reused);
        assert!(!reused.should_refactor(1) && reused.etas.is_empty() && reused.updates == 0);
        assert_eq!(reused.accuracy_refactors(), 0);
        let mut fresh = FtBasis::identity(m);
        for rhs in [[1.0, 0.0, 0.0, 0.0], [0.3, -1.0, 2.0, 0.5]] {
            assert_eq!(ftran_dense(&mut reused, &rhs), ftran_dense(&mut fresh, &rhs));
            assert_eq!(btran_dense(&reused, &rhs), btran_dense(&fresh, &rhs));
        }
    }
}
