//! Synthesis-kernel benchmark: the scalar oracle vs the portable lanes
//! path vs the runtime-dispatched SIMD backend on a 1024-frame workload
//! (the `sharded_serving` deployment: 28×30 grid, K = M = 16).
//!
//! Two levels are measured per backend:
//!
//! * `synthesize` — the one kernel entry point (`KernelKind::synthesize`
//!   over the deployment's `PackedBasis`, `FRAME_BLOCK` frames per call,
//!   straight from the frame-major coefficients), i.e. exactly the
//!   phase-2 work of `reconstruct_batch`;
//! * `reconstruct_batch` — end to end through a forced-backend
//!   `Deployment`, including the per-frame least-squares solves.
//!
//! Before timing, every backend's output is checked against the scalar
//! oracle (`1e-10` relative; the lanes path bitwise). On hosts where
//! dispatch selects AVX2 or AVX-512, the dispatched kernel must be
//! ≥ 1.5× faster than the scalar backend; elsewhere the speedup is only
//! reported.
//!
//! A second, **big-grid** axis (96×96 grid, K = 48 — a ~3.4 MB basis
//! that no longer fits a typical L2) measures what the packed panel
//! layout buys: `KernelKind::synthesize` against the row-major
//! **streamed** layout at the same vector width. The streamed comparator
//! is frozen in this file — the AVX2 and AVX-512 bodies the kernel module
//! ran before it was reduced to one entry point, with frames on the SIMD
//! lanes and every basis element broadcast from its row-major position.
//! It is checked bitwise against the packed path before timing. On
//! ≥ AVX2 hosts the packed path must be ≥ 1.3× faster.
//!
//! Both gates take the **median** ratio over `REPEATS` repeats that
//! alternate which side runs first, and print min / median / max.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eigenmaps_core::kernel::{KernelKind, PackedBasis, FRAME_BLOCK};
use eigenmaps_core::prelude::*;
use eigenmaps_floorplan::prelude::*;
use eigenmaps_linalg::Matrix;

const FRAMES: usize = 1024;

/// Repeats per wall-clock gate (odd, so the median is one sample).
const REPEATS: usize = 9;

struct Workload {
    deployment: Deployment,
    frames: Vec<Vec<f64>>,
    packed: PackedBasis,
    /// Frame-major coefficients (`FRAMES × K`), exactly what
    /// `reconstruct_batch` hands the kernel.
    alphas: Vec<f64>,
}

fn setup() -> Workload {
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(28, 30)
        .snapshots(300)
        .settle_steps(20)
        .seed(42)
        .build()
        .expect("dataset generation");
    let ensemble = dataset.ensemble();
    let deployment = Pipeline::new(ensemble)
        .basis(BasisSpec::Eigen { k: 16 })
        .sensors(16)
        .design()
        .expect("design");
    let mut noise = NoiseModel::new(0x5E41);
    let frames: Vec<Vec<f64>> = (0..FRAMES)
        .map(|t| {
            let map = ensemble.map(t % ensemble.len());
            noise.apply_sigma(&deployment.sensors().sample(&map), 0.2)
        })
        .collect();
    let alphas = frames
        .iter()
        .flat_map(|readings| deployment.coefficients(readings).expect("solve"))
        .collect();
    let packed = PackedBasis::pack(deployment.basis().matrix());
    Workload {
        deployment,
        frames,
        packed,
        alphas,
    }
}

/// Runs the kernel over every `FRAME_BLOCK`-frame block, writing into
/// `cells` (one block of scratch frames, reused per block like the batch
/// path reuses its outputs' cache residency).
fn run_kernel(w: &Workload, kind: KernelKind, cells: &mut [Vec<f64>]) {
    let k = w.deployment.k();
    let mean = w.deployment.basis().mean();
    for block in w.alphas.chunks(FRAME_BLOCK * k) {
        let bsz = block.len() / k;
        let mut outs: Vec<&mut [f64]> = cells[..bsz].iter_mut().map(|c| c.as_mut_slice()).collect();
        kind.synthesize(&w.packed, mean, block, bsz, &mut outs);
    }
}

/// Full-batch kernel outputs, frame-major, for the agreement gate.
fn kernel_outputs(w: &Workload, kind: KernelKind) -> Vec<Vec<f64>> {
    let n = w.deployment.rows() * w.deployment.cols();
    let k = w.deployment.k();
    let mean = w.deployment.basis().mean();
    let mut all: Vec<Vec<f64>> = (0..FRAMES).map(|_| vec![0.0; n]).collect();
    let mut outs: Vec<&mut [f64]> = all.iter_mut().map(|c| c.as_mut_slice()).collect();
    for (block, out) in w
        .alphas
        .chunks(FRAME_BLOCK * k)
        .zip(outs.chunks_mut(FRAME_BLOCK))
    {
        kind.synthesize(&w.packed, mean, block, out.len(), out);
    }
    all
}

fn wall_clock(rounds: u32, f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        f();
    }
    t0.elapsed().as_secs_f64() / rounds as f64
}

/// The median over [`REPEATS`] of `time(baseline) / time(candidate)`,
/// alternating which side runs first so drift and warm-up do not favour
/// either; prints min / median / max under `label`.
fn median_speedup(
    label: &str,
    rounds: u32,
    mut baseline: impl FnMut(),
    mut candidate: impl FnMut(),
) -> f64 {
    let mut ratios: Vec<f64> = (0..REPEATS)
        .map(|r| {
            let (tb, tc) = if r % 2 == 0 {
                let tb = wall_clock(rounds, &mut baseline);
                (tb, wall_clock(rounds, &mut candidate))
            } else {
                let tc = wall_clock(rounds, &mut candidate);
                (wall_clock(rounds, &mut baseline), tc)
            };
            tb / tc.max(1e-12)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[REPEATS / 2];
    println!(
        "{label}: {:.2}x min / {median:.2}x median / {:.2}x max over {REPEATS} alternating repeats",
        ratios[0],
        ratios[REPEATS - 1]
    );
    median
}

fn bench_kernel(c: &mut Criterion) {
    let w = setup();
    let n = w.deployment.rows() * w.deployment.cols();
    let dispatched = KernelKind::detect();

    // Agreement gate before any timing: SIMD must match the oracle.
    let oracle = kernel_outputs(&w, KernelKind::Scalar);
    for kind in KernelKind::available() {
        let got = kernel_outputs(&w, kind);
        let mut worst = 0.0f64;
        for (a, b) in oracle.iter().zip(got.iter()) {
            for (&x, &y) in a.iter().zip(b.iter()) {
                worst = worst.max((x - y).abs() / x.abs().max(y.abs()).max(1.0));
            }
        }
        assert!(
            worst <= 1e-10,
            "{kind} kernel diverged from scalar by {worst:e} relative"
        );
        if kind == KernelKind::Lanes {
            assert_eq!(oracle, got, "lanes must be bitwise identical to scalar");
        }
    }

    let mut group = c.benchmark_group("kernel_1024_frames");
    group.sample_size(20);

    let mut cells: Vec<Vec<f64>> = (0..FRAME_BLOCK).map(|_| vec![0.0; n]).collect();
    for kind in KernelKind::available() {
        group.bench_with_input(
            BenchmarkId::new("synthesize", kind.name()),
            &kind,
            |bch, &kind| bch.iter(|| run_kernel(&w, kind, black_box(&mut cells))),
        );
    }
    for kind in KernelKind::available() {
        let forced = w.deployment.clone().with_kernel(kind).expect("available");
        group.bench_with_input(
            BenchmarkId::new("reconstruct_batch", kind.name()),
            &forced,
            |bch, d| bch.iter(|| black_box(d.reconstruct_batch(&w.frames).unwrap())),
        );
    }

    // Wall-clock summary + the dispatch speedup gate.
    let mut scalar_cells = cells.clone();
    let speedup = median_speedup(
        &format!("kernel_1024_frames/summary: dispatched={dispatched} vs scalar"),
        10,
        || run_kernel(&w, KernelKind::Scalar, &mut scalar_cells),
        || run_kernel(&w, dispatched, &mut cells),
    );
    if matches!(dispatched, KernelKind::Avx2 | KernelKind::Avx512) {
        assert!(
            speedup >= 1.5,
            "dispatched {dispatched} kernel reached only {speedup:.2}x (median) over scalar \
             (>= 1.5x required)"
        );
    } else {
        println!(
            "kernel_1024_frames/summary: dispatch selected {dispatched} (no AVX2/AVX-512) — \
             skipping the >= 1.5x assertion"
        );
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Big-grid axis: packed panels vs the row-major streamed layout.
// ---------------------------------------------------------------------------

/// 96×96 grid, K = 48: the basis is `9216 × 48 × 8 B ≈ 3.4 MB` — past any
/// typical L2 — so both layouts stream it from L3/memory once per frame
/// block; what differs is how each loaded byte is used.
const BIG_ROWS: usize = 96;
const BIG_COLS: usize = 96;
const BIG_K: usize = 48;
const BIG_FRAMES: usize = 256;

struct BigGrid {
    basis: Matrix,
    packed: PackedBasis,
    mean: Vec<f64>,
    /// Frame-major coefficients (`BIG_FRAMES × BIG_K`) for the packed path.
    alphas: Vec<f64>,
    /// The same coefficients per `FRAME_BLOCK`-frame block, transposed
    /// frame-contiguous (`alpha_t[j·bsz + f]`) — the streamed layout's
    /// input, prepared once outside the timed loop.
    blocks: Vec<(Vec<f64>, usize)>,
}

/// Deterministic synthetic operands: the big-grid axis measures the raw
/// kernel, so no dataset/fit is needed (and none would change what the
/// inner loops do).
fn setup_big_grid() -> BigGrid {
    let n = BIG_ROWS * BIG_COLS;
    let basis = Matrix::from_fn(n, BIG_K, |i, j| {
        ((i as f64 + 0.7) * 0.37 + (j as f64 + 1.3) * 1.9).sin() * 0.1
    });
    let mean: Vec<f64> = (0..n).map(|i| 45.0 + (i as f64 * 0.013).cos()).collect();
    let packed = PackedBasis::pack(&basis);
    let alphas: Vec<f64> = (0..BIG_FRAMES * BIG_K)
        .map(|x| ((x as f64) * 0.17).sin() * 2.0)
        .collect();
    let blocks = alphas
        .chunks(FRAME_BLOCK * BIG_K)
        .map(|block| {
            let bsz = block.len() / BIG_K;
            let mut alpha_t = vec![0.0; block.len()];
            for (f, alpha) in block.chunks(BIG_K).enumerate() {
                for (j, &a) in alpha.iter().enumerate() {
                    alpha_t[j * bsz + f] = a;
                }
            }
            (alpha_t, bsz)
        })
        .collect();
    BigGrid {
        basis,
        packed,
        mean,
        alphas,
        blocks,
    }
}

/// The production path: `KernelKind::synthesize` over the packed panels,
/// one call per `FRAME_BLOCK`-frame block.
fn run_big_packed(w: &BigGrid, kind: KernelKind, cells: &mut [Vec<f64>]) {
    let mut outs: Vec<&mut [f64]> = cells.iter_mut().map(|c| c.as_mut_slice()).collect();
    for (block, out) in w
        .alphas
        .chunks(FRAME_BLOCK * BIG_K)
        .zip(outs.chunks_mut(FRAME_BLOCK))
    {
        kind.synthesize(&w.packed, &w.mean, block, out.len(), out);
    }
}

/// The frozen row-major streamed comparator at `kind`'s vector width, or
/// `None` when `kind` has no streamed body (the portable paths, or a
/// non-`x86_64` host).
fn run_big_streamed(w: &BigGrid, kind: KernelKind, cells: &mut [Vec<f64>]) -> Option<()> {
    let mut start = 0;
    for (alpha_t, bsz) in &w.blocks {
        let mut outs: Vec<&mut [f64]> = cells[start..start + bsz]
            .iter_mut()
            .map(|c| c.as_mut_slice())
            .collect();
        streamed::run(kind, &w.basis, &w.mean, alpha_t, *bsz, &mut outs)?;
        start += bsz;
    }
    Some(())
}

fn bench_big_grid(c: &mut Criterion) {
    let w = setup_big_grid();
    let n = BIG_ROWS * BIG_COLS;
    let dispatched = KernelKind::detect();

    // Agreement gate: the streamed comparator must reproduce the packed
    // path bit for bit at every width it has a body for, so the timed
    // comparison below is between two layouts of the same arithmetic.
    let mut packed: Vec<Vec<f64>> = (0..BIG_FRAMES).map(|_| vec![0.0; n]).collect();
    let mut streamed: Vec<Vec<f64>> = (0..BIG_FRAMES).map(|_| vec![0.0; n]).collect();
    for kind in KernelKind::available() {
        if run_big_streamed(&w, kind, &mut streamed).is_some() {
            run_big_packed(&w, kind, &mut packed);
            assert_eq!(
                streamed, packed,
                "{kind}: packed must be bitwise identical to the streamed layout"
            );
        }
    }

    let mut group = c.benchmark_group("kernel_big_grid");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("packed", dispatched.name()),
        &dispatched,
        |bch, &kind| bch.iter(|| run_big_packed(&w, kind, black_box(&mut packed))),
    );
    if run_big_streamed(&w, dispatched, &mut streamed).is_none() {
        println!(
            "kernel_big_grid/summary: dispatch selected {dispatched} (no AVX2/AVX-512 streamed \
             comparator) — skipping the >= 1.3x assertion"
        );
        group.finish();
        return;
    }
    group.bench_with_input(
        BenchmarkId::new("streamed", dispatched.name()),
        &dispatched,
        |bch, &kind| bch.iter(|| run_big_streamed(&w, kind, black_box(&mut streamed))),
    );

    // Wall-clock gate: packed must beat the row-major streamed layout at
    // the same vector width.
    let ratio = median_speedup(
        &format!("kernel_big_grid/summary: {dispatched} packed vs streamed"),
        6,
        || {
            run_big_streamed(&w, dispatched, &mut streamed);
        },
        || run_big_packed(&w, dispatched, &mut packed),
    );
    assert!(
        ratio >= 1.3,
        "packed {dispatched} reached only {ratio:.2}x (median) over the streamed layout \
         (>= 1.3x required on >= AVX2 hosts)"
    );
    group.finish();
}

/// The row-major streamed synthesis — frames on the SIMD lanes, each basis
/// element broadcast from its row-major position, coefficients transposed
/// frame-contiguous (`alpha_t[j·bsz + f]`) — kept verbatim from the kernel
/// module's former second entry point as the big-grid gate's baseline.
/// Per backend it applies the same fused recurrence as the packed path.
mod streamed {
    use eigenmaps_core::kernel::KernelKind;
    use eigenmaps_linalg::Matrix;

    /// Runs one block through the streamed body for `kind`, or returns
    /// `None` if `kind` has none on this host.
    #[cfg(target_arch = "x86_64")]
    pub fn run(
        kind: KernelKind,
        basis: &Matrix,
        mean: &[f64],
        alpha_t: &[f64],
        bsz: usize,
        outs: &mut [&mut [f64]],
    ) -> Option<()> {
        // The bodies read `alpha_t` through raw pointers: these bounds are
        // what make the calls below sound.
        assert_eq!(mean.len(), basis.rows(), "streamed: mean length");
        assert!(alpha_t.len() >= basis.cols() * bsz, "streamed: alpha_t");
        assert!(outs.len() >= bsz, "streamed: too few output frames");
        assert!(outs.iter().all(|o| o.len() == basis.rows()));
        if !kind.is_available() {
            return None;
        }
        match kind {
            // SAFETY: the CPU features were confirmed at run time just
            // above.
            KernelKind::Avx512 => unsafe {
                x86::synthesize_avx512(basis, mean, alpha_t, bsz, outs)
            },
            KernelKind::Avx2 => unsafe { x86::synthesize_avx2(basis, mean, alpha_t, bsz, outs) },
            _ => return None,
        }
        Some(())
    }

    /// No streamed body exists off `x86_64`.
    #[cfg(not(target_arch = "x86_64"))]
    pub fn run(
        _: KernelKind,
        _: &Matrix,
        _: &[f64],
        _: &[f64],
        _: usize,
        _: &mut [&mut [f64]],
    ) -> Option<()> {
        None
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use eigenmaps_linalg::Matrix;

        const LANES: usize = 4;
        /// AVX-512 `f64` lane width.
        const W512: usize = 8;

        #[target_feature(enable = "avx2", enable = "fma")]
        pub unsafe fn synthesize_avx2(
            basis: &Matrix,
            mean: &[f64],
            alpha_t: &[f64],
            bsz: usize,
            outs: &mut [&mut [f64]],
        ) {
            use std::arch::x86_64::{
                _mm256_add_pd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_setzero_pd,
                _mm256_storeu_pd,
            };

            let alpha = alpha_t.as_ptr();
            for i in 0..basis.rows() {
                let row = basis.row(i);
                let mu = _mm256_set1_pd(mean[i]);
                let mut f = 0;
                // Two 4-lane chains: vfmadd latency is ~4-5 cycles at
                // 2/cycle throughput, so one chain per group would leave
                // the FMA units mostly idle.
                while f + 2 * LANES <= bsz {
                    let mut acc0 = _mm256_setzero_pd();
                    let mut acc1 = _mm256_setzero_pd();
                    for (j, &rij) in row.iter().enumerate() {
                        let r = _mm256_set1_pd(rij);
                        let x0 = _mm256_loadu_pd(alpha.add(j * bsz + f));
                        let x1 = _mm256_loadu_pd(alpha.add(j * bsz + f + LANES));
                        acc0 = _mm256_fmadd_pd(r, x0, acc0);
                        acc1 = _mm256_fmadd_pd(r, x1, acc1);
                    }
                    let mut tmp = [0.0f64; 2 * LANES];
                    _mm256_storeu_pd(tmp.as_mut_ptr(), _mm256_add_pd(acc0, mu));
                    _mm256_storeu_pd(tmp.as_mut_ptr().add(LANES), _mm256_add_pd(acc1, mu));
                    for (lane, &v) in tmp.iter().enumerate() {
                        outs[f + lane][i] = v;
                    }
                    f += 2 * LANES;
                }
                while f + LANES <= bsz {
                    let mut acc = _mm256_setzero_pd();
                    for (j, &rij) in row.iter().enumerate() {
                        let r = _mm256_set1_pd(rij);
                        let x = _mm256_loadu_pd(alpha.add(j * bsz + f));
                        acc = _mm256_fmadd_pd(r, x, acc);
                    }
                    let mut tmp = [0.0f64; LANES];
                    _mm256_storeu_pd(tmp.as_mut_ptr(), _mm256_add_pd(acc, mu));
                    for (lane, &v) in tmp.iter().enumerate() {
                        outs[f + lane][i] = v;
                    }
                    f += LANES;
                }
                let mu_scalar = mean[i];
                while f < bsz {
                    let mut acc = 0.0f64;
                    for (j, &rij) in row.iter().enumerate() {
                        // Scalar fused multiply-add: lane-for-lane the same
                        // rounding as `_mm256_fmadd_pd` above, keeping
                        // frames in the remainder bitwise consistent with
                        // full lanes.
                        acc = rij.mul_add(alpha_t[j * bsz + f], acc);
                    }
                    outs[f][i] = acc + mu_scalar;
                    f += 1;
                }
            }
        }

        #[target_feature(enable = "avx512f")]
        pub unsafe fn synthesize_avx512(
            basis: &Matrix,
            mean: &[f64],
            alpha_t: &[f64],
            bsz: usize,
            outs: &mut [&mut [f64]],
        ) {
            use std::arch::x86_64::{
                _mm512_add_pd, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd,
                _mm512_storeu_pd,
            };

            let alpha = alpha_t.as_ptr();
            for i in 0..basis.rows() {
                let row = basis.row(i);
                let mu = _mm512_set1_pd(mean[i]);
                let mut f = 0;
                // Two 8-lane chains in flight, mirroring the AVX2 structure
                // at twice the width.
                while f + 2 * W512 <= bsz {
                    let mut acc0 = _mm512_setzero_pd();
                    let mut acc1 = _mm512_setzero_pd();
                    for (j, &rij) in row.iter().enumerate() {
                        let r = _mm512_set1_pd(rij);
                        let x0 = _mm512_loadu_pd(alpha.add(j * bsz + f));
                        let x1 = _mm512_loadu_pd(alpha.add(j * bsz + f + W512));
                        acc0 = _mm512_fmadd_pd(r, x0, acc0);
                        acc1 = _mm512_fmadd_pd(r, x1, acc1);
                    }
                    let mut tmp = [0.0f64; 2 * W512];
                    _mm512_storeu_pd(tmp.as_mut_ptr(), _mm512_add_pd(acc0, mu));
                    _mm512_storeu_pd(tmp.as_mut_ptr().add(W512), _mm512_add_pd(acc1, mu));
                    for (lane, &v) in tmp.iter().enumerate() {
                        outs[f + lane][i] = v;
                    }
                    f += 2 * W512;
                }
                while f + W512 <= bsz {
                    let mut acc = _mm512_setzero_pd();
                    for (j, &rij) in row.iter().enumerate() {
                        let r = _mm512_set1_pd(rij);
                        let x = _mm512_loadu_pd(alpha.add(j * bsz + f));
                        acc = _mm512_fmadd_pd(r, x, acc);
                    }
                    let mut tmp = [0.0f64; W512];
                    _mm512_storeu_pd(tmp.as_mut_ptr(), _mm512_add_pd(acc, mu));
                    for (lane, &v) in tmp.iter().enumerate() {
                        outs[f + lane][i] = v;
                    }
                    f += W512;
                }
                let mu_scalar = mean[i];
                while f < bsz {
                    let mut acc = 0.0f64;
                    for (j, &rij) in row.iter().enumerate() {
                        // Scalar fused multiply-add: the same rounding per
                        // element as `_mm512_fmadd_pd` above.
                        acc = rij.mul_add(alpha_t[j * bsz + f], acc);
                    }
                    outs[f][i] = acc + mu_scalar;
                    f += 1;
                }
            }
        }
    }
}

criterion_group!(kernel, bench_kernel, bench_big_grid);
criterion_main!(kernel);
