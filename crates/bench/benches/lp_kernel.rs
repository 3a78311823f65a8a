//! LP-kernel backend matrix: one Handelman-certificate synthesis
//! workload per size class, solved through each pinned LP backend.
//!
//! Unlike the `table1`/`table2` suite benches (which run whatever
//! `BackendChoice::Auto` routes to and measure the paper's end-to-end
//! numbers), these rows pin the backend so the basis-representation
//! engines compete on identical LP streams:
//!
//! * `rdwalk_small` — the µs-scale Rdwalk Hoeffding LPs the dense
//!   tableau exists for;
//! * `coupon_mid` — mid-size Coupon systems, the dense-inverse revised
//!   simplex's home turf;
//! * `3dwalk_large` — the largest Handelman class in the suite
//!   (m ≈ 64–127 at a few percent density, degenerate εmax systems):
//!   the class the factorized `lu-ft` (Forrest–Tomlin spike swaps)
//!   representation targets — the pivot-heavy runs FT exists for.
//!
//! The `sweep_coupon`/`sweep_epsmax` rows race cold solves against dual
//! reoptimization on the harvested reoptimization chains
//! (`crates/lp/tests/corpus/sweep_*.qlp`): `cold` solves every chain
//! member from scratch, `reopt` cold-solves the head and
//! dual-reoptimizes each successor from the previous final basis, as a
//! reoptimizing session (`LpSolver::set_reoptimize`) does.
//!
//! The `ser_probes` rows solve one Ser probe chain of `hoeffding-linear`
//! two ways: `rebuild` builds the fixed-ε LP afresh for every probe and
//! solves it (lowering, presolve and equilibration every time), while
//! `prepared` prepares it once and patches only the ε rows' right-hand
//! sides per probe (`LpSolver::solve_prepared`, what the search runs).
//! Both give the same bits; the gap is the per-probe work the prepared
//! family saves.
//!
//! `bench_compare` holds every `lp/` benchmark to the hard ±25% gate
//! (the suite benches stay warn-only), so a regression in any backend's
//! kernel fails CI even on noisy shared runners.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qava_core::hoeffding::{
    synthesize_reprsm_bound_in, BoundKind, SerProbeLp, DEFAULT_SER_ITERATIONS,
};
use qava_core::suite::{coupon_rows, rdwalk_rows, walk3d_rows};
use qava_linalg::vecops;
use qava_lp::debug::{update_solve_cycle, TraceEngine};
use qava_lp::{BackendChoice, CscMatrix, LpBackend, LpSolver, LuFtSimplex};

/// Reduced Ser budget: enough ε-probe LPs to exercise warm starts and
/// the εmax knife edge while keeping the matrix quick.
const SER_ITERATIONS: usize = 6;

fn bench_lp_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/kernel");
    group.sample_size(10);
    let classes = [
        ("rdwalk_small", rdwalk_rows().remove(0)),
        ("coupon_mid", coupon_rows().remove(0)),
        ("3dwalk_large", walk3d_rows().remove(0)),
    ];
    for (class, row) in classes {
        let pts = row.compile();
        for backend in [BackendChoice::Sparse, BackendChoice::Dense, BackendChoice::LuFt] {
            group.bench_with_input(BenchmarkId::new(class, backend), &pts, |bench, pts| {
                bench.iter(|| {
                    // A fresh session per iteration: cold warm-start
                    // cache, so the measurement is the backend's own
                    // solve path, not cross-iteration cache luck.
                    let mut solver = LpSolver::with_choice(backend);
                    synthesize_reprsm_bound_in(
                        pts,
                        BoundKind::Hoeffding,
                        SER_ITERATIONS,
                        &mut solver,
                    )
                    .unwrap()
                })
            });
        }
    }
    group.finish();
}

/// The vecops kernels on the three access shapes the LP hot loops are
/// made of — dense contiguous (`dot`, the pricing and
/// tableau-elimination shape), gathered (`gather_dot`, the CSC
/// column-against-dense btran shape), and masked-gathered
/// (`masked_gather_dot`, the Forrest–Tomlin row-spike window shape) —
/// at lengths 8 (the shortest fused `dot`), 64 (a typical suite basis),
/// and 512 (throughput territory). Every sample loops the kernel `REPS`
/// times over the same buffers so even the 8-length rows are µs-scale —
/// stable under `bench_compare`'s hard 25% `lp/` gate.
fn bench_vecops(c: &mut Criterion) {
    // Keyed pseudo-random data: deterministic, no zero/denormal cliffs.
    fn fill(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt);
                ((h >> 11) % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }
    const REPS: usize = 256;
    let mut group = c.benchmark_group("lp/kernel");
    group.sample_size(10);
    for len in [8usize, 64, 512] {
        let x = fill(len, 1);
        let y = fill(len, 2);
        let vals = fill(len, 3);
        // Gather indices: a scrambled permutation of 0..len, the
        // cache-unfriendly order.
        let mut idx: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            let h = (i as u64).wrapping_mul(0xD1B54A32D192ED03) >> 17;
            idx.swap(i, h as usize % (i + 1));
        }
        // Positions for the masked shape: pos[r] = r, cutoff at the
        // midpoint, so half the entries fall inside the window.
        let pos: Vec<usize> = (0..len).collect();
        let cutoff = len / 2;
        group.bench_function(format!("vecops_dot{len}"), |bench| {
            bench.iter(|| {
                let mut acc = 0.0;
                for _ in 0..REPS {
                    acc += vecops::dot(black_box(&x), black_box(&y));
                }
                acc
            })
        });
        group.bench_function(format!("vecops_gather{len}"), |bench| {
            bench.iter(|| {
                let mut acc = 0.0;
                for _ in 0..REPS {
                    acc += vecops::gather_dot(black_box(&idx), black_box(&vals), black_box(&x));
                }
                acc
            })
        });
        group.bench_function(format!("vecops_masked{len}"), |bench| {
            bench.iter(|| {
                let mut acc = 0.0;
                for _ in 0..REPS {
                    acc += vecops::masked_gather_dot(
                        black_box(&idx),
                        black_box(&vals),
                        black_box(&x),
                        black_box(&pos),
                        black_box(cutoff),
                    );
                }
                acc
            })
        });
    }
    group.finish();
}

/// A 3dwalk-shaped sparse system for the basis-update micro-bench:
/// m = 96 rows, n = 192 columns at ~4% density, every column carrying
/// one strong entry so the greedy exchange chain never starves.
fn walk3d_like_matrix() -> CscMatrix {
    let m = 96usize;
    let n = 192usize;
    let mut state = 0xD1B54A32D192ED03u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for j in 0..n {
        let anchor = (next() as usize) % m;
        rows[anchor].push((j, 1.5 + (next() % 1000) as f64 / 1000.0));
        for _ in 0..3 {
            let r = (next() as usize) % m;
            if r != anchor {
                rows[r].push((j, (next() % 2000) as f64 / 1000.0 - 1.0));
            }
        }
    }
    CscMatrix::from_sparse_rows(m, n, &rows)
}

/// The Forrest–Tomlin update at fixed refactorization count: one
/// (trivial) factorization, a deterministic exchange chain of
/// 16/64/128/192 pivots — a short run, the update budget between
/// refactorizations, and two pivot-heavier runs — then 256 rounds of one
/// sparse ftran + one dense btran, the pivot loop's solve mix. With the
/// updates absorbed into U there is no eta stack to traverse, so the
/// solve cost should stay nearly flat as the chain grows; the row-eta
/// support masks keep sparse right-hand sides cheap on the short rows.
fn bench_basis_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/kernel");
    group.sample_size(10);
    let a = walk3d_like_matrix();
    for updates in [16usize, 64, 128, 192] {
        group.bench_with_input(
            BenchmarkId::new(format!("basis_update{updates}"), "lu-ft"),
            &a,
            |bench, a| bench.iter(|| update_solve_cycle(TraceEngine::LuFt, a, updates, 256)),
        );
    }
    group.finish();
}

/// One member of a harvested sweep chain, ready to solve.
struct ChainInst {
    costs: Vec<f64>,
    a: CscMatrix,
    b: Vec<f64>,
}

/// Loads an ordered `sweep_*_NN.qlp` reoptimization chain from the LP
/// conformance corpus (a minimal reader for the subset of the `.qlp`
/// grammar the chain files use; `crates/lp/tests/corpus.rs` documents
/// the full format and replays the same files for correctness).
fn load_chain(prefix: &str) -> Vec<ChainInst> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../lp/tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "qlp")
                && p.file_name().is_some_and(|f| f.to_string_lossy().starts_with(prefix))
        })
        .collect();
    files.sort();
    assert!(files.len() >= 3, "{prefix}: sweep chain missing from the corpus");
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            let (mut costs, mut b) = (Vec::new(), Vec::new());
            let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
            for line in text.lines() {
                let mut t = line.split_whitespace();
                match t.next() {
                    Some("m") => {
                        let m: usize = t.next().unwrap().parse().unwrap();
                        let n: usize = t.nth(1).unwrap().parse().unwrap();
                        costs = vec![0.0; n];
                        b = vec![0.0; m];
                        rows = vec![Vec::new(); m];
                    }
                    Some("c") => {
                        let j: usize = t.next().unwrap().parse().unwrap();
                        costs[j] = t.next().unwrap().parse().unwrap();
                    }
                    Some("b") => {
                        let i: usize = t.next().unwrap().parse().unwrap();
                        b[i] = t.next().unwrap().parse().unwrap();
                    }
                    Some("a") => {
                        let i: usize = t.next().unwrap().parse().unwrap();
                        let j: usize = t.next().unwrap().parse().unwrap();
                        rows[i].push((j, t.next().unwrap().parse().unwrap()));
                    }
                    _ => {}
                }
            }
            let a = CscMatrix::from_sparse_rows(rows.len(), costs.len(), &rows);
            ChainInst { costs, a, b }
        })
        .collect()
}

/// Reoptimized vs cold sweep LP cost on the harvested chains, through
/// the `lu-ft` backend. `cold` is what a per-point baseline pays;
/// `reopt` is the reoptimizing session's path, falling back cold on a declined
/// attempt exactly like the session does — so the row measures the
/// honest cost, not the happy path.
fn bench_sweep_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/kernel");
    group.sample_size(10);
    for class in ["sweep_coupon", "sweep_epsmax"] {
        let chain = load_chain(&format!("{class}_"));
        group.bench_with_input(BenchmarkId::new(class, "cold"), &chain, |bench, chain| {
            bench.iter(|| {
                let mut pivots = 0usize;
                for inst in chain {
                    pivots +=
                        LuFtSimplex.solve_core(&inst.costs, &inst.a, &inst.b, None).unwrap().pivots;
                }
                pivots
            })
        });
        group.bench_with_input(BenchmarkId::new(class, "reopt"), &chain, |bench, chain| {
            bench.iter(|| {
                let head =
                    LuFtSimplex.solve_core(&chain[0].costs, &chain[0].a, &chain[0].b, None).unwrap();
                let mut pivots = head.pivots;
                let mut basis = head.basis;
                for inst in &chain[1..] {
                    let sol = basis
                        .as_deref()
                        .and_then(|p| LuFtSimplex.reoptimize_core(&inst.costs, &inst.a, &inst.b, p))
                        .unwrap_or_else(|| {
                            LuFtSimplex.solve_core(&inst.costs, &inst.a, &inst.b, None).unwrap()
                        });
                    pivots += sol.pivots;
                    basis = sol.basis;
                }
                pivots
            })
        });
    }
    group.finish();
}

/// The Ser probe chain of Coupon `Pr[T > 100]` under the default budget,
/// solved rebuilt and prepared, each in a fresh `Auto` session. The ε
/// sequence replays a ternary search on `[0, 2ε*]` that always keeps
/// the side holding the row's ε\*, so consecutive probes converge and
/// share bases the way a real search's do.
fn bench_ser_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/kernel");
    group.sample_size(10);
    let pts = coupon_rows().remove(0).compile();
    let eps_star = synthesize_reprsm_bound_in(
        &pts,
        BoundKind::Hoeffding,
        DEFAULT_SER_ITERATIONS,
        &mut LpSolver::new(),
    )
    .unwrap()
    .epsilon;
    let mut chain = Vec::new();
    let (mut lo, mut hi) = (0.0, 2.0 * eps_star);
    while chain.len() < 2 * DEFAULT_SER_ITERATIONS && hi - lo >= 1e-10 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        chain.extend([m1, m2]);
        if eps_star < m2 {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    let probes = SerProbeLp::new(&pts, BoundKind::Hoeffding, &mut LpSolver::new()).unwrap();
    group.bench_with_input(BenchmarkId::new("ser_probes", "rebuild"), &chain, |bench, chain| {
        bench.iter(|| {
            let mut solver = LpSolver::new();
            chain
                .iter()
                .map(|&eps| solver.solve(&probes.build(eps).0).map_or(0.0, |s| s.objective))
                .sum::<f64>()
        })
    });
    group.bench_with_input(BenchmarkId::new("ser_probes", "prepared"), &chain, |bench, chain| {
        bench.iter(|| {
            let mut solver = LpSolver::new();
            let (lp, eps_rows) = probes.build(chain[0]);
            let mut prepared = solver.prepare(&lp);
            chain
                .iter()
                .map(|&eps| {
                    let rhs: Vec<_> = eps_rows.iter().map(|&(row, d)| (row, d - eps)).collect();
                    solver.solve_prepared(&mut prepared, &rhs).map_or(0.0, |s| s.objective)
                })
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_vecops,
    bench_lp_kernel,
    bench_basis_update,
    bench_sweep_chains,
    bench_ser_probes
);
criterion_main!(benches);
