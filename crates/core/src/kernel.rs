//! The frame-blocked synthesis kernel `x̃ = Ψ_K α + mean` behind every
//! serving path, with interchangeable SIMD backends and runtime dispatch.
//!
//! Reconstruction cost at run time is dominated by the dense synthesis
//! step: for every output cell `i`, accumulate `Σ_j Ψ[i,j]·α_j` and add
//! the mean (Sec. 4 of the paper; `O(NK)` per frame vs the `O(MK)`
//! triangular solve). This module owns that loop. It has exactly one
//! entry point, [`KernelKind::synthesize`], which runs over the packed
//! basis panels of [`PackedBasis`] and reads the solver's frame-major
//! coefficients directly. [`Reconstructor`] calls it in groups of at most
//! [`FRAME_BLOCK`] frames, and a `match` on the kind picks the backend:
//!
//! * [`KernelKind::Scalar`] — one accumulator chain per output element,
//!   plain multiply-then-add in ascending-`j` order: exactly the
//!   recurrence of `Matrix::matvec` plus the mean. The **reference
//!   oracle**: slow (bounded by the floating-point add latency of its
//!   single chain) but the baseline every other backend is tested
//!   against.
//! * [`KernelKind::Lanes`] — portable path: a panel's eight row chains
//!   advance together over one contiguous panel column per coefficient,
//!   hiding the add latency. Uses the same multiply-then-add operations
//!   per output element as the scalar path, so its output is **bitwise
//!   identical** to [`KernelKind::Scalar`] on every host.
//! * [`KernelKind::Avx2`] — `x86_64` AVX2 + FMA intrinsics path (one
//!   8-row panel rides two 4-lane fused-multiply-add chains per frame, two
//!   frames in flight), selected by `is_x86_feature_detected!` at run
//!   time. Fusing the multiply and add rounds once instead of twice, so
//!   outputs differ from the scalar oracle by rounding only — the
//!   cross-backend property tests bound the divergence at `1e-10`
//!   relative.
//! * [`KernelKind::Avx512`] — `x86_64` AVX-512F intrinsics path: one
//!   panel column is one aligned 512-bit load, four frames in flight.
//!   Applies the **same** fused per-element recurrence as the AVX2
//!   backend in its full-panel and remainder paths, so its output is
//!   bitwise identical to [`KernelKind::Avx2`] (and therefore within the
//!   same `1e-10` relative envelope of the scalar oracle).
//!
//! # The position-independence contract
//!
//! Every backend must produce, for each frame, a rounding sequence that
//! does not depend on the frame's position inside a block, the block
//! size or its lane assignment. Concretely: a backend fixes one
//! per-element recurrence (multiply-then-add for `Scalar`/`Lanes`, fused
//! multiply-add for `Avx2`/`Avx512`) and applies it in ascending-`j`
//! order to every `(cell, frame)` output element, whether that element
//! sits in a full panel, in a lane-padded remainder panel, among several
//! frames in flight, or alone in a single-frame call.
//!
//! This is what keeps the workspace-wide bitwise guarantees *per
//! backend*: [`Reconstructor::reconstruct`],
//! [`Reconstructor::reconstruct_batch`] and the sharded executor of
//! `eigenmaps-serve` all route through the same deployment-selected
//! backend, so batching and sharding never change an answer — only
//! *changing the backend* does, and then only within the documented
//! tolerance.
//!
//! # Dispatch
//!
//! [`KernelKind::detect`] picks the fastest available backend (AVX-512F
//! where the CPU has it, then AVX2+FMA, then the portable lanes path) and
//! **caches the answer for the process** behind a `OnceLock` — deployment
//! construction is on serving control paths (artifact hot swap, truncated
//! QoS cache fills) and must not re-run feature detection and an
//! environment read every time. The `EIGENMAPS_KERNEL` environment
//! variable (`"scalar"`, `"lanes"`, `"avx2"`, `"avx512"`) is honored by
//! the first detection in the process as a forced override for testing,
//! ignoring values naming a backend the host cannot run;
//! [`KernelKind::detect_uncached`] is the test-only escape hatch that
//! re-reads the environment on every call. Programmatic forcing goes
//! through [`Reconstructor::set_kernel`] /
//! [`crate::Deployment::set_kernel`], which *reject* unavailable backends
//! with [`CoreError::KernelUnavailable`].
//!
//! [`Reconstructor`]: crate::Reconstructor
//! [`Reconstructor::reconstruct`]: crate::Reconstructor::reconstruct
//! [`Reconstructor::reconstruct_batch`]: crate::Reconstructor::reconstruct_batch
//! [`Reconstructor::set_kernel`]: crate::Reconstructor::set_kernel
//! [`CoreError::KernelUnavailable`]: crate::CoreError::KernelUnavailable

use std::fmt;
use std::sync::OnceLock;

use crate::error::{CoreError, Result};
pub use crate::packed::{PackedBasis, PANEL_ROWS};

/// Frames per synthesis block: [`crate::Reconstructor`] calls the kernel
/// in groups of at most this many frames, so the block's output frames
/// stay cache resident while every panel sweeps across them.
pub const FRAME_BLOCK: usize = 32;

/// `f64` lanes in one AVX2 vector (half a panel column; the AVX-512 path
/// loads a whole column at once).
pub const LANES: usize = 4;

/// Identifies one synthesis backend. See the [module docs](self) for what
/// each backend computes and how they relate numerically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelKind {
    /// Reference scalar path — one multiply-then-add chain per element.
    Scalar,
    /// Portable panel-wide path; bitwise identical to `Scalar`.
    Lanes,
    /// `x86_64` AVX2 + FMA intrinsics path; equals `Scalar` within
    /// rounding (`1e-10` relative in the property tests).
    Avx2,
    /// `x86_64` AVX-512F intrinsics path (8-wide `f64` FMA chains);
    /// bitwise identical to `Avx2`, same `1e-10` envelope vs `Scalar`.
    Avx512,
}

static DETECTED: OnceLock<KernelKind> = OnceLock::new();

impl KernelKind {
    /// Every backend kind, in oracle-first order.
    pub const ALL: [KernelKind; 4] = [
        KernelKind::Scalar,
        KernelKind::Lanes,
        KernelKind::Avx2,
        KernelKind::Avx512,
    ];

    /// The fastest backend available on this host: `Avx512` when the CPU
    /// reports AVX-512F, else `Avx2` when it reports AVX2 *and* FMA,
    /// `Lanes` otherwise.
    ///
    /// The answer (including the `EIGENMAPS_KERNEL` override, see
    /// [`KernelKind::detect_uncached`]) is computed once per process and
    /// cached — constructing a [`crate::Reconstructor`] is on serving
    /// control paths and must not re-run CPU feature detection and an
    /// environment read per construction.
    pub fn detect() -> KernelKind {
        *DETECTED.get_or_init(KernelKind::detect_uncached)
    }

    /// Uncached [`KernelKind::detect`]: re-reads `EIGENMAPS_KERNEL`
    /// (`"scalar"`, `"lanes"`, `"avx2"`, `"avx512"`; unknown or
    /// unavailable values are ignored) and re-runs feature detection on
    /// every call. This is the escape hatch for tests that manipulate the
    /// environment; production code should use the cached
    /// [`KernelKind::detect`].
    pub fn detect_uncached() -> KernelKind {
        if let Ok(name) = std::env::var("EIGENMAPS_KERNEL") {
            if let Some(kind) = KernelKind::from_name(&name) {
                if kind.is_available() {
                    return kind;
                }
            }
        }
        if avx512_available() {
            KernelKind::Avx512
        } else if avx2_available() {
            KernelKind::Avx2
        } else {
            KernelKind::Lanes
        }
    }

    /// Whether this backend can run on the current host. `Scalar` and
    /// `Lanes` always can; `Avx2` requires a runtime AVX2 + FMA check and
    /// `Avx512` a runtime AVX-512F check.
    pub fn is_available(self) -> bool {
        match self {
            KernelKind::Scalar | KernelKind::Lanes => true,
            KernelKind::Avx2 => avx2_available(),
            KernelKind::Avx512 => avx512_available(),
        }
    }

    /// Backends available on this host, in [`KernelKind::ALL`] order.
    pub fn available() -> Vec<KernelKind> {
        KernelKind::ALL
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    /// Stable lower-case name (`"scalar"`, `"lanes"`, `"avx2"`,
    /// `"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Lanes => "lanes",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
        }
    }

    /// Parses a [`KernelKind::name`] back to its kind.
    pub fn from_name(name: &str) -> Option<KernelKind> {
        KernelKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Validates that this backend is runnable here.
    ///
    /// # Errors
    ///
    /// [`CoreError::KernelUnavailable`] if the host lacks the required
    /// CPU features.
    pub fn require_available(self) -> Result<()> {
        if self.is_available() {
            Ok(())
        } else {
            Err(CoreError::KernelUnavailable {
                kernel: self.name(),
            })
        }
    }

    /// The backend [`KernelKind::synthesize`] actually runs for this kind.
    ///
    /// An unavailable kind (forced `Avx512`/`Avx2` on a host without it —
    /// unreachable through [`crate::Reconstructor::set_kernel`], which
    /// validates availability) degrades down the dispatch order
    /// (avx512 → avx2 → lanes) rather than executing unsupported
    /// instructions.
    fn resolved(self) -> KernelKind {
        match self {
            KernelKind::Avx512 if avx512_available() => KernelKind::Avx512,
            KernelKind::Avx2 | KernelKind::Avx512 if avx2_available() => KernelKind::Avx2,
            KernelKind::Avx2 | KernelKind::Avx512 => KernelKind::Lanes,
            kind => kind,
        }
    }

    /// Synthesizes a block of `bsz` frames over the packed basis:
    ///
    /// ```text
    /// outs[f][i] = Σ_j Ψ[i, j] · alphas[f·K + j]  +  mean[i]
    /// ```
    ///
    /// where `alphas` holds the block's coefficients frame-major (`K`
    /// per frame, exactly as the least-squares solver writes them). The
    /// result obeys the position-independence contract of the
    /// [module docs](self): frame `f` is bitwise what a `bsz = 1` call on
    /// its coefficients alone would produce.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree: `mean.len() != packed.rows()`,
    /// `alphas.len() < packed.cols() * bsz`, `outs.len() < bsz`, or any
    /// `outs[f].len() != packed.rows()`. The SIMD paths read through raw
    /// pointers, so these checks are what make this a safe API.
    pub fn synthesize(
        self,
        packed: &PackedBasis,
        mean: &[f64],
        alphas: &[f64],
        bsz: usize,
        outs: &mut [&mut [f64]],
    ) {
        check_panel_shapes(packed, mean, alphas, bsz, outs);
        match self.resolved() {
            KernelKind::Scalar => synthesize_scalar(packed, mean, alphas, bsz, outs),
            // SAFETY: `resolved` only yields `Avx512` after
            // `avx512_available()` confirmed `avx512f` at run time; the
            // aligned panel loads are justified by the PackedBasis
            // alignment invariant.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => unsafe { synthesize_avx512(packed, mean, alphas, bsz, outs) },
            // SAFETY: as above, after `avx2_available()` confirmed the
            // `avx2` and `fma` CPU features.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => unsafe { synthesize_avx2(packed, mean, alphas, bsz, outs) },
            _ => synthesize_lanes(packed, mean, alphas, bsz, outs),
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_available() -> bool {
    false
}

/// Shape validation at the kernel boundary, so a mis-sized call fails
/// loudly. These are hard asserts, not debug asserts: the SIMD backends
/// read `alphas` and write `outs` through raw pointers, so the bounds
/// established here are load-bearing for memory safety. The panel-column
/// alignment and lane-padding invariants the SIMD loads rely on are
/// upheld by [`PackedBasis`] itself. Cost is one pass per
/// [`FRAME_BLOCK`]-frame block — noise next to the `O(N·K·bsz)` synthesis
/// it guards.
#[inline]
fn check_panel_shapes(
    packed: &PackedBasis,
    mean: &[f64],
    alphas: &[f64],
    bsz: usize,
    outs: &[&mut [f64]],
) {
    assert_eq!(mean.len(), packed.rows(), "kernel: mean length");
    assert!(
        alphas.len() >= packed.cols() * bsz,
        "kernel: alphas too short"
    );
    assert!(outs.len() >= bsz, "kernel: too few output frames");
    assert!(
        outs.iter().take(bsz).all(|o| o.len() == packed.rows()),
        "kernel: output frame length"
    );
}

/// The reference scalar backend ([`KernelKind::Scalar`]).
fn synthesize_scalar(
    packed: &PackedBasis,
    mean: &[f64],
    alphas: &[f64],
    bsz: usize,
    outs: &mut [&mut [f64]],
) {
    let k = packed.cols();
    for p in 0..packed.panels() {
        let panel = packed.panel(p);
        let base = packed.panel_base(p);
        for lane in 0..packed.panel_valid_rows(p) {
            let mu = mean[base + lane];
            for (f, out) in outs.iter_mut().enumerate().take(bsz) {
                let alpha = &alphas[f * k..(f + 1) * k];
                let mut acc = 0.0;
                for (j, &a) in alpha.iter().enumerate() {
                    acc += panel[j * PANEL_ROWS + lane] * a;
                }
                out[base + lane] = acc + mu;
            }
        }
    }
}

/// The portable backend ([`KernelKind::Lanes`]): a panel's eight row
/// chains advance together over one contiguous panel column per
/// coefficient — a fixed-width inner loop the autovectorizer unrolls into
/// packed multiply/add — hiding the floating-point add latency that
/// bounds the scalar path. Each chain performs exactly the scalar
/// multiply-then-add recurrence, so the output is bitwise identical to
/// the scalar backend. A lane-padded remainder panel runs the same
/// full-width chains (its zero padding lanes are inert) and stores only
/// its valid rows.
fn synthesize_lanes(
    packed: &PackedBasis,
    mean: &[f64],
    alphas: &[f64],
    bsz: usize,
    outs: &mut [&mut [f64]],
) {
    let k = packed.cols();
    for p in 0..packed.panels() {
        let panel = packed.panel(p);
        let base = packed.panel_base(p);
        let rows = base..base + packed.panel_valid_rows(p);
        for (f, out) in outs.iter_mut().enumerate().take(bsz) {
            let mut acc = [0.0f64; PANEL_ROWS];
            for (col, &a) in panel
                .chunks_exact(PANEL_ROWS)
                .zip(&alphas[f * k..(f + 1) * k])
            {
                for (s, &c) in acc.iter_mut().zip(col) {
                    *s += c * a;
                }
            }
            for ((o, &mu), &v) in out[rows.clone()]
                .iter_mut()
                .zip(&mean[rows.clone()])
                .zip(&acc)
            {
                *o = v + mu;
            }
        }
    }
}

/// The `x86_64` AVX2 + FMA backend ([`KernelKind::Avx2`]): one 8-row
/// panel rides two 4-lane chains per frame, two frames in flight (four
/// chains), with **aligned** panel-column loads. Every path applies the
/// *same* fused recurrence per output element, preserving the
/// position-independence contract.
///
/// # Safety
///
/// The host must support `avx2` and `fma`, and the shapes must have
/// passed [`check_panel_shapes`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn synthesize_avx2(
    packed: &PackedBasis,
    mean: &[f64],
    alphas: &[f64],
    bsz: usize,
    outs: &mut [&mut [f64]],
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_fmadd_pd, _mm256_load_pd, _mm256_loadu_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd,
    };

    let k = packed.cols();
    let alpha = alphas.as_ptr();
    for p in 0..packed.panels() {
        // SAFETY of the `_mm256_load_pd` calls below: `PackedBasis::panel`
        // guarantees 64-byte alignment of the panel base and a contiguous
        // `8K`-element panel, so both 32-byte halves of every panel column
        // are aligned in-bounds loads.
        let panel = packed.panel(p).as_ptr();
        let base = packed.panel_base(p);
        let valid = packed.panel_valid_rows(p);
        if valid == PANEL_ROWS {
            let mlo = _mm256_loadu_pd(mean.as_ptr().add(base));
            let mhi = _mm256_loadu_pd(mean.as_ptr().add(base + LANES));
            let mut f = 0;
            // Two frames in flight share every panel-column load: per
            // coefficient that is 2 aligned loads + 2 broadcasts feeding
            // 4 independent FMA chains, keeping load and FMA ports
            // balanced.
            while f + 2 <= bsz {
                let (x0p, x1p) = (alpha.add(f * k), alpha.add((f + 1) * k));
                let mut a00 = _mm256_setzero_pd();
                let mut a01 = _mm256_setzero_pd();
                let mut a10 = _mm256_setzero_pd();
                let mut a11 = _mm256_setzero_pd();
                for j in 0..k {
                    let c0 = _mm256_load_pd(panel.add(j * PANEL_ROWS));
                    let c1 = _mm256_load_pd(panel.add(j * PANEL_ROWS + LANES));
                    let x0 = _mm256_set1_pd(*x0p.add(j));
                    let x1 = _mm256_set1_pd(*x1p.add(j));
                    a00 = _mm256_fmadd_pd(c0, x0, a00);
                    a01 = _mm256_fmadd_pd(c1, x0, a01);
                    a10 = _mm256_fmadd_pd(c0, x1, a10);
                    a11 = _mm256_fmadd_pd(c1, x1, a11);
                }
                let o0 = outs[f].as_mut_ptr().add(base);
                _mm256_storeu_pd(o0, _mm256_add_pd(a00, mlo));
                _mm256_storeu_pd(o0.add(LANES), _mm256_add_pd(a01, mhi));
                let o1 = outs[f + 1].as_mut_ptr().add(base);
                _mm256_storeu_pd(o1, _mm256_add_pd(a10, mlo));
                _mm256_storeu_pd(o1.add(LANES), _mm256_add_pd(a11, mhi));
                f += 2;
            }
            while f < bsz {
                let xp = alpha.add(f * k);
                let mut a0 = _mm256_setzero_pd();
                let mut a1 = _mm256_setzero_pd();
                for j in 0..k {
                    let x = _mm256_set1_pd(*xp.add(j));
                    a0 = _mm256_fmadd_pd(_mm256_load_pd(panel.add(j * PANEL_ROWS)), x, a0);
                    a1 = _mm256_fmadd_pd(_mm256_load_pd(panel.add(j * PANEL_ROWS + LANES)), x, a1);
                }
                let o = outs[f].as_mut_ptr().add(base);
                _mm256_storeu_pd(o, _mm256_add_pd(a0, mlo));
                _mm256_storeu_pd(o.add(LANES), _mm256_add_pd(a1, mhi));
                f += 1;
            }
        } else {
            // Lane-padded remainder panel: run the full-width chains (the
            // padding lanes are zero, so they are inert) and spill, then
            // store only the valid rows. Same per-element recurrence and
            // the same final add as the vector path.
            for (f, out) in outs.iter_mut().enumerate().take(bsz) {
                let xp = alpha.add(f * k);
                let mut a0 = _mm256_setzero_pd();
                let mut a1 = _mm256_setzero_pd();
                for j in 0..k {
                    let x = _mm256_set1_pd(*xp.add(j));
                    a0 = _mm256_fmadd_pd(_mm256_load_pd(panel.add(j * PANEL_ROWS)), x, a0);
                    a1 = _mm256_fmadd_pd(_mm256_load_pd(panel.add(j * PANEL_ROWS + LANES)), x, a1);
                }
                let mut tmp = [0.0f64; PANEL_ROWS];
                _mm256_storeu_pd(tmp.as_mut_ptr(), a0);
                _mm256_storeu_pd(tmp.as_mut_ptr().add(LANES), a1);
                for (lane, &v) in tmp.iter().enumerate().take(valid) {
                    out[base + lane] = v + mean[base + lane];
                }
            }
        }
    }
}

/// The `x86_64` AVX-512F backend ([`KernelKind::Avx512`]): one 8-row
/// panel column is exactly one **aligned** 512-bit load, with four frames
/// in flight sharing it (four chains). A lane-padded remainder panel runs
/// the same loops under a lane mask (masked mean load, masked store), so
/// its padding lanes are neither read from `mean` nor written. Every path
/// applies the same fused recurrence per output element as the AVX2
/// backend, so the two are bitwise identical.
///
/// # Safety
///
/// The host must support `avx512f`, and the shapes must have passed
/// [`check_panel_shapes`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn synthesize_avx512(
    packed: &PackedBasis,
    mean: &[f64],
    alphas: &[f64],
    bsz: usize,
    outs: &mut [&mut [f64]],
) {
    use std::arch::x86_64::{
        __m512d, _mm512_add_pd, _mm512_fmadd_pd, _mm512_load_pd, _mm512_mask_storeu_pd,
        _mm512_maskz_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd,
    };

    let k = packed.cols();
    let alpha = alphas.as_ptr();
    for p in 0..packed.panels() {
        // SAFETY of the `_mm512_load_pd` calls below: `PackedBasis::panel`
        // guarantees every panel column is one 64-byte-aligned cache line,
        // i.e. exactly one aligned in-bounds 512-bit load. The masked mean
        // load and output stores touch only the panel's valid rows.
        let panel = packed.panel(p).as_ptr();
        let base = packed.panel_base(p);
        let valid = 0xFFu8 >> (PANEL_ROWS - packed.panel_valid_rows(p));
        let mv = _mm512_maskz_loadu_pd(valid, mean.as_ptr().add(base));
        let mut f = 0;
        // Four frames in flight share every aligned panel-column load (1
        // load + 4 broadcasts feeding 4 independent FMA chains per
        // coefficient), keeping the FMA ports saturated.
        while f + 4 <= bsz {
            let mut a: [__m512d; 4] = [_mm512_setzero_pd(); 4];
            for j in 0..k {
                let c = _mm512_load_pd(panel.add(j * PANEL_ROWS));
                for (q, acc) in a.iter_mut().enumerate() {
                    let x = _mm512_set1_pd(*alpha.add((f + q) * k + j));
                    *acc = _mm512_fmadd_pd(c, x, *acc);
                }
            }
            for (q, acc) in a.iter().enumerate() {
                let o = outs[f + q].as_mut_ptr().add(base);
                _mm512_mask_storeu_pd(o, valid, _mm512_add_pd(*acc, mv));
            }
            f += 4;
        }
        while f < bsz {
            let xp = alpha.add(f * k);
            let mut acc = _mm512_setzero_pd();
            for j in 0..k {
                let c = _mm512_load_pd(panel.add(j * PANEL_ROWS));
                acc = _mm512_fmadd_pd(c, _mm512_set1_pd(*xp.add(j)), acc);
            }
            let o = outs[f].as_mut_ptr().add(base);
            _mm512_mask_storeu_pd(o, valid, _mm512_add_pd(acc, mv));
            f += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eigenmaps_linalg::Matrix;

    /// Deterministic dense test operands for an `n × k` synthesis over
    /// `bsz` frames: the row-major basis, the mean and the frame-major
    /// coefficients.
    fn operands(n: usize, k: usize, bsz: usize) -> (Matrix, Vec<f64>, Vec<f64>) {
        let basis = Matrix::from_fn(n, k, |i, j| {
            ((i as f64 + 1.3) * 0.7 + (j as f64 + 0.4) * 1.9).sin() * 0.8
        });
        let mean: Vec<f64> = (0..n).map(|i| 50.0 + (i as f64 * 0.31).cos()).collect();
        let alphas: Vec<f64> = (0..k * bsz)
            .map(|x| ((x as f64) * 0.123).sin() * 3.0)
            .collect();
        (basis, mean, alphas)
    }

    fn run(kind: KernelKind, n: usize, k: usize, bsz: usize) -> Vec<Vec<f64>> {
        let (basis, mean, alphas) = operands(n, k, bsz);
        let packed = PackedBasis::pack(&basis);
        let mut cells: Vec<Vec<f64>> = (0..bsz).map(|_| vec![0.0; n]).collect();
        let mut outs: Vec<&mut [f64]> = cells.iter_mut().map(|c| c.as_mut_slice()).collect();
        kind.synthesize(&packed, &mean, &alphas, bsz, &mut outs);
        cells
    }

    /// The FMA-fused backends (everything that is not bitwise-equal to
    /// the scalar oracle), host-filtered.
    fn fma_kinds() -> Vec<KernelKind> {
        [KernelKind::Avx2, KernelKind::Avx512]
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    fn assert_close(want: &[Vec<f64>], got: &[Vec<f64>], context: &str) {
        for (fw, fg) in want.iter().zip(got) {
            for (&a, &b) in fw.iter().zip(fg) {
                let rel = (a - b).abs() / a.abs().max(b.abs()).max(1.0);
                assert!(rel <= 1e-10, "{context}: {a} vs {b}");
            }
        }
    }

    /// Odd shapes crossing every lane/remainder boundary: the 2- and
    /// 4-frame groups of the FMA paths (`bsz ∈ 1..=5`, 7, 8, 9, 15, 16,
    /// 17, 31, 33) and `n` at panel boundaries ±1.
    const SHAPES: [(usize, usize, usize); 19] = [
        (1, 1, 1),
        (5, 1, 7),
        (9, 3, 1),
        (9, 3, 2),
        (9, 3, 3),
        (9, 3, 4),
        (9, 3, 5),
        (12, 7, 8),
        (12, 7, 31),
        (12, 7, 33),
        (11, 4, 7),
        (11, 4, 8),
        (11, 4, 9),
        (11, 4, 15),
        (11, 4, 16),
        (11, 4, 17),
        (15, 3, 9),
        (16, 3, 9),
        (17, 3, 9),
    ];

    #[test]
    fn scalar_is_bitwise_identical_to_matvec_plus_mean() {
        // The independent row-major oracle: `vecops::dot` runs the same
        // ascending multiply-then-add chain as the scalar backend, so the
        // packed scalar path must reproduce `Ψ·α + mean` bit for bit.
        for (n, k, bsz) in SHAPES {
            let (basis, mean, alphas) = operands(n, k, bsz);
            let got = run(KernelKind::Scalar, n, k, bsz);
            for (f, frame) in got.iter().enumerate() {
                let want: Vec<f64> = basis
                    .matvec(&alphas[f * k..(f + 1) * k])
                    .unwrap()
                    .iter()
                    .zip(&mean)
                    .map(|(v, mu)| v + mu)
                    .collect();
                assert_eq!(frame, &want, "n={n} k={k} bsz={bsz} frame={f}");
            }
        }
    }

    #[test]
    fn lanes_is_bitwise_identical_to_scalar() {
        for (n, k, bsz) in SHAPES {
            let scalar = run(KernelKind::Scalar, n, k, bsz);
            let lanes = run(KernelKind::Lanes, n, k, bsz);
            assert_eq!(scalar, lanes, "shape n={n} k={k} bsz={bsz}");
        }
    }

    #[test]
    fn fma_backends_match_scalar_to_tolerance() {
        for kind in fma_kinds() {
            for (n, k, bsz) in SHAPES {
                let scalar = run(KernelKind::Scalar, n, k, bsz);
                let fused = run(kind, n, k, bsz);
                assert_close(&scalar, &fused, &format!("{kind} n={n} k={k} bsz={bsz}"));
            }
        }
    }

    #[test]
    fn avx512_is_bitwise_identical_to_avx2() {
        // Both FMA backends apply the identical fused per-element
        // recurrence, so where a host can run both they must agree bit
        // for bit.
        if !(KernelKind::Avx2.is_available() && KernelKind::Avx512.is_available()) {
            eprintln!("skipping: host lacks avx2 or avx512");
            return;
        }
        for (n, k, bsz) in SHAPES {
            assert_eq!(
                run(KernelKind::Avx2, n, k, bsz),
                run(KernelKind::Avx512, n, k, bsz),
                "n={n} k={k} bsz={bsz}"
            );
        }
    }

    #[test]
    fn frames_are_position_independent_in_every_backend() {
        // The contract that makes batch == single == sharded bitwise per
        // backend: frame `f` of a block must equal the same coefficients
        // synthesized alone (bsz = 1).
        let (n, k, bsz) = (11, 5, 13);
        let (basis, mean, alphas) = operands(n, k, bsz);
        let packed = PackedBasis::pack(&basis);
        for kind in KernelKind::available() {
            let blocked = run(kind, n, k, bsz);
            for (f, frame) in blocked.iter().enumerate() {
                let mut single = vec![0.0; n];
                kind.synthesize(
                    &packed,
                    &mean,
                    &alphas[f * k..(f + 1) * k],
                    1,
                    &mut [single.as_mut_slice()],
                );
                assert_eq!(frame, &single, "kind={kind} frame={f}");
            }
        }
    }

    #[test]
    fn blocks_smaller_than_lane_width_are_exact() {
        // Regression guard for the kernel-blocking boundary: every batch
        // smaller than the frame groups in flight (and FRAME_BLOCK) must
        // still produce each frame's reference values. The contract is
        // *bitwise* for the scalar-recurrence backends; only the
        // FMA-fused backends are allowed their documented rounding
        // envelope.
        for bsz in 1..LANES + 2 {
            let scalar = run(KernelKind::Scalar, 6, 3, bsz);
            for kind in KernelKind::available() {
                let got = run(kind, 6, 3, bsz);
                assert_eq!(got.len(), bsz);
                match kind {
                    KernelKind::Scalar | KernelKind::Lanes => {
                        assert_eq!(got, scalar, "kind={kind} bsz={bsz}");
                    }
                    _ => assert_close(&scalar, &got, &format!("kind={kind} bsz={bsz}")),
                }
            }
        }
    }

    #[test]
    fn names_roundtrip_and_detection_is_sane() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(KernelKind::from_name("neon"), None);
        // The detected backend is always available, scalar/lanes are
        // available everywhere, and the cached answer is stable and
        // agrees with a fresh detection (the process environment does not
        // change under the tests).
        assert!(KernelKind::detect().is_available());
        assert_eq!(KernelKind::detect(), KernelKind::detect());
        assert_eq!(KernelKind::detect(), KernelKind::detect_uncached());
        assert!(KernelKind::Scalar.is_available());
        assert!(KernelKind::Lanes.is_available());
        assert!(KernelKind::available().contains(&KernelKind::Scalar));
        // require_available errors exactly on unavailable kinds.
        for kind in KernelKind::ALL {
            let res = kind.require_available();
            if kind.is_available() {
                assert!(res.is_ok());
            } else {
                assert!(matches!(res, Err(CoreError::KernelUnavailable { .. })));
            }
        }
    }

    #[test]
    fn unavailable_backend_degrades_to_a_safe_path() {
        // synthesize() must never run unexecutable code; unavailable
        // kinds resolve down the dispatch order (avx512 → avx2 → lanes).
        assert_eq!(KernelKind::Scalar.resolved(), KernelKind::Scalar);
        assert_eq!(KernelKind::Lanes.resolved(), KernelKind::Lanes);
        let avx2 = if KernelKind::Avx2.is_available() {
            KernelKind::Avx2
        } else {
            KernelKind::Lanes
        };
        assert_eq!(KernelKind::Avx2.resolved(), avx2);
        let avx512 = if KernelKind::Avx512.is_available() {
            KernelKind::Avx512
        } else {
            avx2
        };
        assert_eq!(KernelKind::Avx512.resolved(), avx512);
    }
}
