//! [`PackedBasis`]: the synthesis basis repacked into cache-line-aligned,
//! lane-padded row panels.
//!
//! The row-major `N×K` basis matrix is the wrong layout for the synthesis
//! hot loop: vectorizing across output cells means every SIMD load would
//! stride by `K` doubles, and vectorizing across frames means every basis
//! element is a scalar broadcast from a row-major walk. `PackedBasis`
//! fixes the layout once per deployment — it is **derived state**, rebuilt
//! from the basis matrix at `design()`/load time and never persisted (the
//! `EMDEPLOY` wire format is unchanged).
//!
//! # Layout
//!
//! Rows are grouped into **panels** of [`PANEL_ROWS`] = 8 consecutive
//! output cells. Within a panel, storage is coefficient-major: for panel
//! `p` (covering rows `8p .. 8p+8`) and coefficient `j`, the 8 values
//! `Ψ[8p + lane, j]` for `lane ∈ 0..8` are stored contiguously as one
//! 64-byte **panel column** — exactly one cache line, and exactly one
//! AVX-512 `f64` vector (or two AVX2 vectors):
//!
//! ```text
//! row-major Ψ (N×K)                 packed panels (ceil(N/8) panels)
//! ┌ Ψ[0,0] Ψ[0,1] … Ψ[0,K-1] ┐      panel 0: │Ψ[0,0]…Ψ[7,0]│Ψ[0,1]…Ψ[7,1]│…
//! │ Ψ[1,0] Ψ[1,1] …          │      panel 1: │Ψ[8,0]…Ψ[15,0]│Ψ[8,1]…Ψ[15,1]│…
//! │   ⋮                      │         ⋮            └── 64 B, 64-B aligned ──┘
//! └ Ψ[N-1,0] …               ┘      panel P-1: … (rows ≥ N lane-padded with 0)
//! ```
//!
//! # Invariants (load-bearing for the unsafe SIMD loads)
//!
//! These are what `kernel`'s AVX2/AVX-512 backends rely on when they read
//! panel columns through raw pointers with **aligned** vector loads:
//!
//! * **Alignment** — every panel column starts on a 64-byte boundary
//!   (storage is a `Vec` of `#[repr(C, align(64))]` 8-double blocks), so
//!   `_mm512_load_pd` / `_mm256_load_pd` are always legal on it.
//! * **Panel stride** — panel `p` occupies `K` consecutive panel columns
//!   starting at column index `p·K`; [`PackedBasis::panel`] exposes it as
//!   one contiguous `&[f64]` of length `8K` with coefficient `j` at
//!   `[8j .. 8j+8]`.
//! * **Lane padding** — the last panel's out-of-range lanes
//!   (`row ≥ N`) are present and zero, so full-width vector arithmetic
//!   over any panel never reads uninitialized memory; backends simply
//!   must not *store* those lanes (see
//!   [`PackedBasis::panel_valid_rows`]).

use std::fmt;

use eigenmaps_linalg::Matrix;

/// Rows per panel: one 64-byte cache line of `f64`, one AVX-512 vector,
/// two AVX2 vectors.
pub const PANEL_ROWS: usize = 8;

/// One packed panel column: the 8 values of one basis coefficient across
/// a panel's rows, forced onto its own cache line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct PanelCol([f64; PANEL_ROWS]);

/// The basis matrix repacked for the synthesis kernel: cache-line-aligned,
/// lane-padded row panels. See the [module docs](self) for the layout and
/// its invariants.
#[derive(Clone)]
pub struct PackedBasis {
    /// `panels · cols` panel columns; panel `p`, coefficient `j` at index
    /// `p·cols + j`.
    data: Vec<PanelCol>,
    rows: usize,
    cols: usize,
    panels: usize,
}

impl PackedBasis {
    /// Packs a row-major `N×K` basis matrix.
    pub fn pack(matrix: &Matrix) -> PackedBasis {
        let rows = matrix.rows();
        let cols = matrix.cols();
        let panels = rows.div_ceil(PANEL_ROWS);
        let mut data = vec![PanelCol([0.0; PANEL_ROWS]); panels * cols];
        for i in 0..rows {
            let (p, lane) = (i / PANEL_ROWS, i % PANEL_ROWS);
            for (j, &v) in matrix.row(i).iter().enumerate() {
                data[p * cols + j].0[lane] = v;
            }
        }
        PackedBasis {
            data,
            rows,
            cols,
            panels,
        }
    }

    /// Unpadded row count `N` of the packed matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Coefficient count `K`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of 8-row panels (`ceil(N / 8)`).
    pub fn panels(&self) -> usize {
        self.panels
    }

    /// First row covered by panel `p`.
    pub fn panel_base(&self, p: usize) -> usize {
        p * PANEL_ROWS
    }

    /// How many of panel `p`'s lanes map to real rows (8 for every panel
    /// except possibly the last; the rest are zero padding that must not
    /// be stored to the output).
    pub fn panel_valid_rows(&self, p: usize) -> usize {
        (self.rows - self.panel_base(p)).min(PANEL_ROWS)
    }

    /// Panel `p` as one contiguous, 64-byte-aligned `&[f64]` of length
    /// `8K`: coefficient `j`'s eight rows at `[8j .. 8j+8]`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.panels()`.
    pub fn panel(&self, p: usize) -> &[f64] {
        let cols = &self.data[p * self.cols..(p + 1) * self.cols];
        // SAFETY: `PanelCol` is `repr(C)` over `[f64; 8]` with size 64 ==
        // its alignment, so a slice of `PanelCol` is layout-identical to a
        // contiguous `[f64]` 8× as long.
        unsafe { std::slice::from_raw_parts(cols.as_ptr().cast::<f64>(), cols.len() * PANEL_ROWS) }
    }
}

impl fmt::Debug for PackedBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedBasis")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("panels", &self.panels)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix(n: usize, k: usize) -> Matrix {
        Matrix::from_fn(n, k, |i, j| (i * 31 + j * 7 + 1) as f64 * 0.25)
    }

    #[test]
    fn packing_preserves_every_element_and_pads_with_zeros() {
        for (n, k) in [(1, 1), (7, 3), (8, 3), (9, 5), (16, 2), (23, 4)] {
            let m = sample_matrix(n, k);
            let packed = PackedBasis::pack(&m);
            assert_eq!(packed.rows(), n);
            assert_eq!(packed.cols(), k);
            assert_eq!(packed.panels(), n.div_ceil(PANEL_ROWS));
            for p in 0..packed.panels() {
                let panel = packed.panel(p);
                assert_eq!(panel.len(), k * PANEL_ROWS);
                for j in 0..k {
                    for lane in 0..PANEL_ROWS {
                        let i = packed.panel_base(p) + lane;
                        let expected = if lane < packed.panel_valid_rows(p) {
                            m[(i, j)]
                        } else {
                            0.0
                        };
                        assert_eq!(
                            panel[j * PANEL_ROWS + lane],
                            expected,
                            "n={n} k={k} p={p} j={j} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn panel_columns_are_cache_line_aligned() {
        let packed = PackedBasis::pack(&sample_matrix(20, 5));
        for p in 0..packed.panels() {
            assert_eq!(packed.panel(p).as_ptr() as usize % 64, 0, "panel {p}");
        }
    }
}
