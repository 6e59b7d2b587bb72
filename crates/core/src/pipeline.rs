//! The design-time → runtime lifecycle API: [`Pipeline`] and [`Deployment`].
//!
//! The paper's workflow is a two-phase contract:
//!
//! * **design time** — fit an approximation basis on an ensemble of
//!   simulated thermal maps, place `M` sensors, prefactor the sensing
//!   matrix;
//! * **run time** — turn every interval's `M` sensor readings into a full
//!   thermal map, as fast as the hardware allows.
//!
//! [`Pipeline`] is the fluent builder for the design phase; it produces a
//! [`Deployment`], the self-contained runtime artifact that owns the fitted
//! basis, the sensor layout and the prefactored least-squares solver. A
//! `Deployment` can be serialized to a versioned on-disk format
//! ([`Deployment::save`] / [`Deployment::load`]) so placement artifacts
//! computed once at design time can be shipped to a fleet of runtime
//! monitors.
//!
//! ```
//! use eigenmaps_core::prelude::*;
//!
//! # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
//! // Design-time ensemble (here: synthetic two-mode maps).
//! let maps: Vec<ThermalMap> = (0..60)
//!     .map(|t| {
//!         let a = (t as f64 / 5.0).sin();
//!         let b = (t as f64 / 3.0).cos();
//!         ThermalMap::from_fn(8, 8, |r, c| 50.0 + a * r as f64 + b * c as f64)
//!     })
//!     .collect();
//! let ensemble = MapEnsemble::from_maps(&maps)?;
//!
//! // Design: basis → placement → prefactored solver, in one expression.
//! let deployment = Pipeline::new(&ensemble)
//!     .basis(BasisSpec::Eigen { k: 2 })
//!     .allocator(AllocatorSpec::Greedy(GreedyAllocator::new()))
//!     .sensors(4)
//!     .noise(NoiseSpec::snr_db(40.0))
//!     .design()?;
//!
//! // Serve: reconstruct maps from sensor readings.
//! let truth = ensemble.map(33);
//! let estimate = deployment.reconstruct(&deployment.sensors().sample(&truth))?;
//! assert!(truth.mse(&estimate) < 1e-6);
//! # Ok(())
//! # }
//! ```

use std::path::Path;

use eigenmaps_linalg::Matrix;

use crate::allocate::{
    AllocationInput, EnergyCenterAllocator, ExhaustiveAllocator, GreedyAllocator, RandomAllocator,
    SensorAllocator, UniformGridAllocator,
};
use crate::basis::{Basis, BasisKind, DctBasis, EigenBasis};
use crate::codec::{Decoder, Encoder};
use crate::error::{CoreError, Result};
use crate::kernel::KernelKind;
use crate::map::{MapEnsemble, ThermalMap};
use crate::metrics::{evaluate_reconstruction, ErrorReport, NoiseSpec};
use crate::reconstruct::{BatchScratch, Reconstructor};
use crate::sensors::{Mask, SensorSet};
use crate::tracking::TrackingReconstructor;

/// Which approximation basis [`Pipeline::design`] fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BasisSpec {
    /// The EigenMaps basis (top-`k` covariance eigenvectors, randomized
    /// PCA path) — the paper's method.
    Eigen {
        /// Subspace dimension `K`.
        k: usize,
    },
    /// The EigenMaps basis via the exact dense eigendecomposition
    /// (`O(N³)`; small grids and cross-validation).
    EigenExact {
        /// Subspace dimension `K`.
        k: usize,
    },
    /// The `k`-atom zigzag-DCT basis of the k-LSE baseline.
    Dct {
        /// Subspace dimension `K`.
        k: usize,
    },
}

/// Which sensor-placement strategy [`Pipeline::design`] runs.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum AllocatorSpec {
    /// Algorithm 1 of the paper (configure endgame/threshold on the inner
    /// allocator).
    Greedy(GreedyAllocator),
    /// The energy-center baseline of Nowroz et al.
    EnergyCenter,
    /// Evenly spaced sub-lattice placement.
    UniformGrid,
    /// Uniformly random allowed cells (deterministic per seed).
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Brute-force optimum (tiny grids only).
    Exhaustive,
    /// Skip allocation: the hardware already has sensors at these
    /// locations (e.g. re-fitting a basis for a taped-out chip).
    Fixed(SensorSet),
}

impl Default for AllocatorSpec {
    fn default() -> Self {
        AllocatorSpec::Greedy(GreedyAllocator::new())
    }
}

impl BasisKind {
    fn tag(self) -> u8 {
        match self {
            BasisKind::Eigen => 0,
            BasisKind::Dct => 1,
            BasisKind::Custom => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(BasisKind::Eigen),
            1 => Ok(BasisKind::Dct),
            2 => Ok(BasisKind::Custom),
            _ => Err(CoreError::Persist {
                context: "deployment: unknown basis kind tag",
            }),
        }
    }
}

/// The deployment's materialized basis: matrix + mean + grid shape. This is
/// what [`Deployment`] persists and what its [`Reconstructor`] is built
/// over, independent of how the basis was originally fitted.
#[derive(Debug, Clone)]
struct RawBasis {
    matrix: Matrix,
    mean: Vec<f64>,
    rows: usize,
    cols: usize,
    kind: BasisKind,
}

impl Basis for RawBasis {
    fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    fn mean(&self) -> &[f64] {
        &self.mean
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn name(&self) -> &'static str {
        self.kind.display_name()
    }

    fn kind(&self) -> BasisKind {
        self.kind
    }
}

enum BasisSource {
    Spec(BasisSpec),
    Fitted(Box<dyn Basis>, BasisKind),
}

/// Fluent builder for the design phase: ensemble → basis → sensor placement
/// → prefactored runtime solver. See the [module docs](self) for the full
/// lifecycle example.
///
/// Defaults: if only [`Pipeline::sensors`] is given the basis defaults to
/// `BasisSpec::Eigen { k: m }` (the paper's `K = M` policy); if only
/// [`Pipeline::basis`] is given the sensor count defaults to `m = k`; the
/// allocator defaults to [`GreedyAllocator`]; the mask defaults to
/// all-allowed; the noise model defaults to [`NoiseSpec::None`].
pub struct Pipeline<'a> {
    ensemble: &'a MapEnsemble,
    basis: Option<BasisSource>,
    allocator: AllocatorSpec,
    mask: Option<Mask>,
    m: Option<usize>,
    noise: NoiseSpec,
}

impl<'a> Pipeline<'a> {
    /// Starts a design over the given design-time ensemble.
    pub fn new(ensemble: &'a MapEnsemble) -> Self {
        Pipeline {
            ensemble,
            basis: None,
            allocator: AllocatorSpec::default(),
            mask: None,
            m: None,
            noise: NoiseSpec::None,
        }
    }

    /// Selects the basis to fit.
    pub fn basis(mut self, spec: BasisSpec) -> Self {
        self.basis = Some(BasisSource::Spec(spec));
        self
    }

    /// Uses an already-fitted basis instead of fitting one (e.g. a
    /// [`EigenBasis`] fitted once at a large `K` and truncated per design
    /// point, or any custom [`Basis`] implementation).
    pub fn fitted_basis<B: Basis + 'static>(mut self, basis: B) -> Self {
        let kind = basis.kind();
        self.basis = Some(BasisSource::Fitted(Box::new(basis), kind));
        self
    }

    /// Selects the sensor-placement strategy.
    pub fn allocator(mut self, spec: AllocatorSpec) -> Self {
        self.allocator = spec;
        self
    }

    /// Constrains sensor placement (the Fig. 6 "no sensors in caches"
    /// experiment).
    pub fn mask(mut self, mask: Mask) -> Self {
        self.mask = Some(mask);
        self
    }

    /// Sets the sensor budget `M`.
    pub fn sensors(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }

    /// Records the measurement-noise assumption the deployment is designed
    /// for; [`Deployment::evaluate`] uses it and it is persisted with the
    /// artifact.
    pub fn noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = noise;
        self
    }

    /// Runs the design phase: fit (or adopt) the basis, place the sensors,
    /// factor the sensing matrix — producing the runtime [`Deployment`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidArgument`] if neither a basis nor a sensor
    ///   budget was specified, the basis spec is out of range
    ///   (`k = 0`, `k > cells`), or a [`AllocatorSpec::Fixed`] sensor set
    ///   disagrees with an explicitly declared budget.
    /// * [`CoreError::InsufficientSensors`] if `m < k` (Theorem 1 needs
    ///   `M ≥ K`).
    /// * [`CoreError::ShapeMismatch`] if a fitted basis, mask or fixed
    ///   sensor set disagrees with the ensemble grid.
    /// * [`CoreError::MaskTooRestrictive`] if the mask allows fewer than
    ///   `m` cells.
    /// * [`CoreError::SensingRankDeficient`] if the chosen layout cannot
    ///   observe the subspace.
    pub fn design(self) -> Result<Deployment> {
        let ens = self.ensemble;
        let (rows, cols) = (ens.rows(), ens.cols());

        // A fixed sensor set *is* the budget; a contradictory explicit
        // budget is a configuration error rather than something to
        // silently reconcile.
        let declared_m = match (&self.allocator, self.m) {
            (AllocatorSpec::Fixed(s), Some(m)) if s.len() != m => {
                return Err(CoreError::InvalidArgument {
                    context: "pipeline: sensor budget disagrees with the fixed sensor set",
                });
            }
            (AllocatorSpec::Fixed(s), _) => Some(s.len()),
            (_, m) => m,
        };

        let check_k = |k: usize| -> Result<()> {
            if k == 0 || k > ens.cells() {
                return Err(CoreError::InvalidArgument {
                    context: "pipeline: basis k must satisfy 1 <= k <= cells",
                });
            }
            Ok(())
        };
        let (basis, kind): (Box<dyn Basis>, BasisKind) = match self.basis {
            Some(BasisSource::Fitted(b, kind)) => (b, kind),
            Some(BasisSource::Spec(spec)) => {
                match spec {
                    BasisSpec::Eigen { k } | BasisSpec::EigenExact { k } | BasisSpec::Dct { k } => {
                        check_k(k)?
                    }
                }
                match spec {
                    BasisSpec::Eigen { k } => {
                        (Box::new(EigenBasis::fit(ens, k)?), BasisKind::Eigen)
                    }
                    BasisSpec::EigenExact { k } => {
                        (Box::new(EigenBasis::fit_exact(ens, k)?), BasisKind::Eigen)
                    }
                    BasisSpec::Dct { k } => {
                        (Box::new(DctBasis::new(rows, cols, k)?), BasisKind::Dct)
                    }
                }
            }
            None => {
                let m = declared_m.ok_or(CoreError::InvalidArgument {
                    context: "pipeline: specify at least a basis or a sensor budget",
                })?;
                // The paper's K = M policy.
                check_k(m)?;
                (Box::new(EigenBasis::fit(ens, m)?), BasisKind::Eigen)
            }
        };
        if basis.rows() != rows || basis.cols() != cols {
            return Err(CoreError::ShapeMismatch {
                context: "pipeline: basis grid disagrees with ensemble",
                expected: rows * cols,
                found: basis.cells(),
            });
        }

        let m = declared_m.unwrap_or_else(|| basis.k());
        if m < basis.k() {
            return Err(CoreError::InsufficientSensors {
                sensors: m,
                basis_dim: basis.k(),
            });
        }

        let mask = match self.mask {
            Some(mask) => {
                if mask.rows() != rows || mask.cols() != cols {
                    return Err(CoreError::ShapeMismatch {
                        context: "pipeline: mask grid disagrees with ensemble",
                        expected: rows * cols,
                        found: mask.rows() * mask.cols(),
                    });
                }
                mask
            }
            None => Mask::all_allowed(rows, cols),
        };

        let sensors = match self.allocator {
            AllocatorSpec::Fixed(sensors) => {
                if sensors.rows() != rows || sensors.cols() != cols {
                    return Err(CoreError::ShapeMismatch {
                        context: "pipeline: fixed sensors disagree with ensemble grid",
                        expected: rows * cols,
                        found: sensors.rows() * sensors.cols(),
                    });
                }
                if !sensors.respects(&mask) {
                    return Err(CoreError::InvalidArgument {
                        context: "pipeline: fixed sensor set violates the placement mask",
                    });
                }
                sensors
            }
            spec => {
                let energy = ens.cell_variance();
                let input = AllocationInput {
                    basis: basis.matrix(),
                    energy: &energy,
                    rows,
                    cols,
                    mask: &mask,
                };
                let allocator: Box<dyn SensorAllocator> = match spec {
                    AllocatorSpec::Greedy(g) => Box::new(g),
                    AllocatorSpec::EnergyCenter => Box::new(EnergyCenterAllocator::new()),
                    AllocatorSpec::UniformGrid => Box::new(UniformGridAllocator::new()),
                    AllocatorSpec::Random { seed } => Box::new(RandomAllocator::new(seed)),
                    AllocatorSpec::Exhaustive => Box::new(ExhaustiveAllocator::new()),
                    AllocatorSpec::Fixed(_) => unreachable!("handled above"),
                };
                allocator.allocate(&input, m)?
            }
        };

        Deployment::assemble(
            RawBasis {
                matrix: basis.matrix().clone(),
                mean: basis.mean().to_vec(),
                rows,
                cols,
                kind,
            },
            sensors,
            self.noise,
        )
    }
}

/// Magic + version of the on-disk deployment format.
const DEPLOY_MAGIC: &[u8; 8] = b"EMDEPLOY";
const DEPLOY_VERSION: u32 = 1;

/// The runtime artifact produced by [`Pipeline::design`]: fitted basis,
/// sensor layout and prefactored solver, plus the serving surface —
/// [`Deployment::reconstruct`] for single frames,
/// [`Deployment::reconstruct_batch`] for high-throughput batched serving
/// and [`Deployment::tracker`] for temporally filtered monitoring.
#[derive(Debug, Clone)]
pub struct Deployment {
    raw: RawBasis,
    sensors: SensorSet,
    rec: Reconstructor,
    noise: NoiseSpec,
}

impl Deployment {
    /// Builds the runtime state from the persisted pieces. Everything the
    /// hot path needs beyond the artifact — the QR factorization *and*
    /// the packed basis panels ([`crate::PackedBasis`]) — is
    /// derived here, which is why design, `load`/`from_bytes` and
    /// `truncated` all produce identically-behaving deployments while the
    /// `EMDEPLOY` wire format stores only the raw basis.
    fn assemble(raw: RawBasis, sensors: SensorSet, noise: NoiseSpec) -> Result<Self> {
        let rec = Reconstructor::new(&raw, &sensors)?;
        Ok(Deployment {
            raw,
            sensors,
            rec,
            noise,
        })
    }

    /// Reconstructs one full thermal map from `M` sensor readings
    /// (Theorem 1) — the single-frame runtime path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `readings.len() != m()` and
    /// [`CoreError::NonFiniteReading`] if any reading is NaN or ±inf.
    pub fn reconstruct(&self, readings: &[f64]) -> Result<ThermalMap> {
        self.rec.reconstruct(readings)
    }

    /// Reconstructs a batch of frames, reusing the factored QR and all
    /// solver scratch across frames — the serving hot path. Produces maps
    /// bitwise-identical to calling [`Deployment::reconstruct`] per frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if any frame has the wrong
    /// number of readings and [`CoreError::NonFiniteReading`] if any
    /// reading is NaN or ±inf.
    pub fn reconstruct_batch(&self, frames: &[Vec<f64>]) -> Result<Vec<ThermalMap>> {
        self.rec.reconstruct_batch(frames)
    }

    /// [`Deployment::reconstruct_batch`] with caller-owned scratch, for
    /// serving loops that process many batches and want zero per-batch
    /// coefficient-buffer allocations (see
    /// [`Reconstructor::reconstruct_batch_with`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Deployment::reconstruct_batch`].
    pub fn reconstruct_batch_with(
        &self,
        frames: &[Vec<f64>],
        scratch: &mut BatchScratch,
    ) -> Result<Vec<ThermalMap>> {
        self.rec.reconstruct_batch_with(frames, scratch)
    }

    /// Estimates the subspace coefficients `α̂` for one frame.
    ///
    /// # Errors
    ///
    /// Same contract as [`Deployment::reconstruct`].
    pub fn coefficients(&self, readings: &[f64]) -> Result<Vec<f64>> {
        self.rec.coefficients(readings)
    }

    /// Wraps the deployment's reconstructor in a fixed-gain temporal
    /// tracker (`g ∈ (0, 1]`; `g = 1` is the memoryless paper behavior).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for a gain outside `(0, 1]`.
    pub fn tracker(&self, gain: f64) -> Result<TrackingReconstructor> {
        TrackingReconstructor::new(self.rec.clone(), gain)
    }

    /// Evaluates the deployment over an ensemble under its designed-for
    /// noise model (the one given to [`Pipeline::noise`]).
    ///
    /// # Errors
    ///
    /// Propagates reconstruction and noise-model failures.
    pub fn evaluate(&self, ensemble: &MapEnsemble, noise_seed: u64) -> Result<ErrorReport> {
        self.evaluate_on(ensemble, self.noise, noise_seed)
    }

    /// Evaluates the deployment over an ensemble under an explicit noise
    /// model.
    ///
    /// # Errors
    ///
    /// Propagates reconstruction and noise-model failures.
    pub fn evaluate_on(
        &self,
        ensemble: &MapEnsemble,
        noise: NoiseSpec,
        noise_seed: u64,
    ) -> Result<ErrorReport> {
        evaluate_reconstruction(&self.rec, &self.sensors, ensemble, noise, noise_seed)
    }

    /// A deployment keeping only the leading `keep` basis vectors over the
    /// **same** sensor layout (re-factoring the smaller sensing matrix).
    /// Valid for any basis whose columns are ordered by importance —
    /// eigenvalue order for EigenMaps, zigzag order for DCT — and the
    /// engine behind runtime `K*` tuning.
    ///
    /// The truncated deployment keeps the parent's synthesis backend: a
    /// [`Deployment::set_kernel`] override survives truncation, so a
    /// forced-backend A/B comparison can sweep `K` without re-forcing.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidArgument`] unless `1 ≤ keep ≤ k()`.
    /// * [`CoreError::SensingRankDeficient`] if the truncated sensing
    ///   matrix loses rank.
    pub fn truncated(&self, keep: usize) -> Result<Deployment> {
        if keep == 0 || keep > self.k() {
            return Err(CoreError::InvalidArgument {
                context: "deployment truncated: keep must satisfy 1 <= keep <= k",
            });
        }
        let raw = RawBasis {
            matrix: self.raw.matrix.leading_cols(keep)?,
            mean: self.raw.mean.clone(),
            rows: self.raw.rows,
            cols: self.raw.cols,
            kind: self.raw.kind,
        };
        let mut d = Deployment::assemble(raw, self.sensors.clone(), self.noise)?;
        d.set_kernel(self.kernel_kind())?;
        Ok(d)
    }

    /// The deployed basis (matrix + mean view; eigen-specific diagnostics
    /// are not retained by the artifact).
    pub fn basis(&self) -> &dyn Basis {
        &self.raw
    }

    /// What family of basis this deployment carries.
    pub fn basis_kind(&self) -> BasisKind {
        self.raw.kind
    }

    /// The sensor layout.
    pub fn sensors(&self) -> &SensorSet {
        &self.sensors
    }

    /// The underlying prefactored reconstructor.
    pub fn reconstructor(&self) -> &Reconstructor {
        &self.rec
    }

    /// The noise model the deployment was designed for.
    pub fn noise(&self) -> NoiseSpec {
        self.noise
    }

    /// Which synthesis-kernel backend every serving path of this
    /// deployment runs ([`crate::kernel`] module docs describe the
    /// backends) — a diagnostic for "what is this host actually
    /// executing". Chosen by [`KernelKind::detect`] when the deployment
    /// is designed, loaded ([`Deployment::load`] / `from_bytes` —
    /// the artifact never stores a backend, it is a per-host property) or
    /// cloned, unless overridden with [`Deployment::set_kernel`].
    pub fn kernel_kind(&self) -> KernelKind {
        self.rec.kernel_kind()
    }

    /// Forces a specific synthesis backend on every serving path of this
    /// deployment — single-frame, batch and (through `eigenmaps-serve`)
    /// sharded execution switch together. Intended for tests and
    /// benchmarks comparing backends; production callers should keep the
    /// [`KernelKind::detect`] choice.
    ///
    /// # Errors
    ///
    /// [`CoreError::KernelUnavailable`] if this host cannot run `kind`
    /// (the current backend is left unchanged).
    pub fn set_kernel(&mut self, kind: KernelKind) -> Result<()> {
        self.rec.set_kernel(kind)
    }

    /// Builder-style [`Deployment::set_kernel`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Deployment::set_kernel`].
    pub fn with_kernel(mut self, kind: KernelKind) -> Result<Self> {
        self.set_kernel(kind)?;
        Ok(self)
    }

    /// Subspace dimension `K` — the number of basis vectors (columns of
    /// `Ψ_K`) the deployment reconstructs in, fixed at design time (or by
    /// [`Deployment::truncated`]). Theorem 1 requires `K ≤ M`.
    pub fn k(&self) -> usize {
        self.rec.k()
    }

    /// Sensor count `M` — how many readings every
    /// [`Deployment::reconstruct`] call (and each batch frame) must
    /// supply, in the exact order of [`Deployment::sensors`].
    pub fn m(&self) -> usize {
        self.sensors.len()
    }

    /// Grid height.
    pub fn rows(&self) -> usize {
        self.raw.rows
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.raw.cols
    }

    /// Condition number `κ(Ψ̃_K)` of the deployed sensing matrix (ratio
    /// of its extreme singular values, computed once at design/load
    /// time) — the noise-amplification bound of eq. (5): sensor noise of
    /// energy `ε` can grow to at most `κ·ε` in the reconstructed
    /// coefficients. The sensor-placement algorithms exist to make this
    /// small; values near 1 are ideal, and a large `κ` means the layout
    /// barely observes some basis direction.
    pub fn condition_number(&self) -> f64 {
        self.rec.condition_number()
    }

    /// Serializes the deployment to the versioned binary artifact format
    /// (little-endian; magic `EMDEPLOY`, version 1).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.raw.rows * self.raw.cols;
        let k = self.k();
        let mut enc = Encoder::with_capacity(64 + 8 * (n + n * k + self.m()));
        enc.bytes(DEPLOY_MAGIC)
            .u32(DEPLOY_VERSION)
            .u8(self.raw.kind.tag());
        let (noise_tag, noise_value) = match self.noise {
            NoiseSpec::None => (0u8, 0.0),
            NoiseSpec::SnrDb(db) => (1u8, db),
            NoiseSpec::Sigma(s) => (2u8, s),
        };
        enc.u8(noise_tag).f64(noise_value);
        for dim in [self.raw.rows, self.raw.cols, k, self.m()] {
            enc.put_len(dim);
        }
        enc.f64_slice(&self.raw.mean)
            .f64_slice(self.raw.matrix.as_slice());
        for &loc in self.sensors.locations() {
            enc.put_len(loc);
        }
        enc.finish()
    }

    /// Deserializes a deployment previously written by
    /// [`Deployment::to_bytes`], re-factoring the solver from the stored
    /// basis and layout (so a round-tripped deployment reconstructs
    /// bitwise-identically).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Persist`] on magic/version/length mismatches.
    /// * Propagated [`Reconstructor::new`] failures for corrupted
    ///   contents.
    pub fn from_bytes(bytes: &[u8]) -> Result<Deployment> {
        let mut dec = Decoder::new(bytes);
        dec.magic(DEPLOY_MAGIC)?;
        dec.version(DEPLOY_VERSION)?;
        let kind = BasisKind::from_tag(dec.u8()?)?;
        let noise_tag = dec.u8()?;
        let noise_value = dec.f64()?;
        let noise = match noise_tag {
            0 => NoiseSpec::None,
            1 => NoiseSpec::SnrDb(noise_value),
            2 => NoiseSpec::Sigma(noise_value),
            _ => {
                return Err(CoreError::Persist {
                    context: "deployment: unknown noise tag",
                })
            }
        };
        let rows = dec.take_len()?;
        let cols = dec.take_len()?;
        let k = dec.take_len()?;
        let m = dec.take_len()?;
        let n = rows.checked_mul(cols).ok_or(CoreError::Persist {
            context: "deployment: grid dimensions overflow",
        })?;
        if n == 0 || k == 0 || m == 0 || k > n || m > n {
            return Err(CoreError::Persist {
                context: "deployment: dimensions out of range",
            });
        }
        let mean = dec.f64_vec(n)?;
        let flat = dec.f64_vec(n * k)?;
        let mut locations = Vec::with_capacity(m);
        for _ in 0..m {
            locations.push(dec.take_len()?);
        }
        dec.finish()?;
        let mut matrix = Matrix::zeros(n, k);
        matrix.as_mut_slice().copy_from_slice(&flat);
        let raw = RawBasis {
            matrix,
            mean,
            rows,
            cols,
            kind,
        };
        let sensors = SensorSet::new(rows, cols, locations)?;
        Deployment::assemble(raw, sensors, noise)
    }

    /// Writes the artifact to disk (creating parent directories).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] on I/O failures.
    pub fn save(&self, path: &Path) -> Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|_| CoreError::Persist {
                context: "deployment save: cannot create parent directory",
            })?;
        }
        std::fs::write(path, self.to_bytes()).map_err(|_| CoreError::Persist {
            context: "deployment save: write failed",
        })
    }

    /// Reads an artifact previously written by [`Deployment::save`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Deployment::from_bytes`], plus
    /// [`CoreError::Persist`] on I/O failures.
    pub fn load(path: &Path) -> Result<Deployment> {
        let bytes = std::fs::read(path).map_err(|_| CoreError::Persist {
            context: "deployment load: read failed",
        })?;
        Deployment::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_mode_ensemble(rows: usize, cols: usize, t: usize) -> MapEnsemble {
        let maps: Vec<ThermalMap> = (0..t)
            .map(|i| {
                let a = (i as f64 / 5.0).sin();
                let b = (i as f64 / 3.0).cos();
                ThermalMap::from_fn(rows, cols, |r, c| 55.0 + a * (r as f64) - b * (c as f64))
            })
            .collect();
        MapEnsemble::from_maps(&maps).unwrap()
    }

    #[test]
    fn design_and_serve_roundtrip() {
        let ens = two_mode_ensemble(8, 8, 60);
        let d = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 })
            .sensors(4)
            .design()
            .unwrap();
        assert_eq!(d.k(), 2);
        assert_eq!(d.m(), 4);
        assert_eq!((d.rows(), d.cols()), (8, 8));
        assert_eq!(d.basis_kind(), BasisKind::Eigen);
        assert!(d.condition_number().is_finite());
        let truth = ens.map(17);
        let est = d.reconstruct(&d.sensors().sample(&truth)).unwrap();
        assert!(truth.mse(&est) < 1e-12, "mse {}", truth.mse(&est));
    }

    #[test]
    fn sensor_budget_alone_uses_k_equals_m() {
        let ens = two_mode_ensemble(6, 6, 40);
        let d = Pipeline::new(&ens).sensors(3).design().unwrap();
        assert_eq!(d.k(), 3);
        assert_eq!(d.m(), 3);
    }

    #[test]
    fn basis_alone_defaults_m_to_k() {
        let ens = two_mode_ensemble(6, 6, 40);
        let d = Pipeline::new(&ens)
            .basis(BasisSpec::Dct { k: 4 })
            .design()
            .unwrap();
        assert_eq!(d.m(), 4);
        assert_eq!(d.basis_kind(), BasisKind::Dct);
    }

    #[test]
    fn empty_pipeline_rejected() {
        let ens = two_mode_ensemble(4, 4, 20);
        assert!(matches!(
            Pipeline::new(&ens).design(),
            Err(CoreError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn oversized_k_rejected() {
        let ens = two_mode_ensemble(4, 4, 20);
        assert!(matches!(
            Pipeline::new(&ens)
                .basis(BasisSpec::Eigen { k: 17 })
                .sensors(16)
                .design(),
            Err(CoreError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn undersized_m_rejected() {
        let ens = two_mode_ensemble(6, 6, 40);
        assert!(matches!(
            Pipeline::new(&ens)
                .basis(BasisSpec::EigenExact { k: 4 })
                .sensors(3)
                .design(),
            Err(CoreError::InsufficientSensors {
                sensors: 3,
                basis_dim: 4
            })
        ));
    }

    #[test]
    fn mask_shape_checked() {
        let ens = two_mode_ensemble(6, 6, 40);
        assert!(matches!(
            Pipeline::new(&ens)
                .sensors(3)
                .mask(Mask::all_allowed(5, 6))
                .design(),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn mask_is_respected() {
        let ens = two_mode_ensemble(8, 8, 60);
        let mask = Mask::all_allowed(8, 8).forbid_rects(&[(0.0, 0.0, 0.5, 1.0)]);
        let d = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 })
            .sensors(5)
            .mask(mask.clone())
            .design()
            .unwrap();
        assert!(d.sensors().respects(&mask));
    }

    #[test]
    fn fixed_sensors_skip_allocation() {
        let ens = two_mode_ensemble(6, 6, 40);
        // NB: off-diagonal cells — on r = c the two planted modes coincide
        // and the sensing matrix would lose rank.
        let sensors = SensorSet::new(6, 6, vec![0, 5, 20, 30]).unwrap();
        let d = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 })
            .allocator(AllocatorSpec::Fixed(sensors.clone()))
            .sensors(4)
            .design()
            .unwrap();
        assert_eq!(d.sensors(), &sensors);
        // And the result matches wiring the parts manually.
        let basis = EigenBasis::fit_exact(&ens, 2).unwrap();
        let manual = Reconstructor::new(&basis, &sensors).unwrap();
        let truth = ens.map(9);
        let readings = sensors.sample(&truth);
        let a = d.reconstruct(&readings).unwrap();
        let b = manual.reconstruct(&readings).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn fixed_sensors_budget_must_agree() {
        let ens = two_mode_ensemble(6, 6, 40);
        let sensors = SensorSet::new(6, 6, vec![0, 5, 20, 30]).unwrap();
        // A contradictory explicit budget is rejected...
        assert!(matches!(
            Pipeline::new(&ens)
                .basis(BasisSpec::EigenExact { k: 2 })
                .allocator(AllocatorSpec::Fixed(sensors.clone()))
                .sensors(10)
                .design(),
            Err(CoreError::InvalidArgument { .. })
        ));
        // ...omitting it adopts the fixed set's size...
        let d = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 })
            .allocator(AllocatorSpec::Fixed(sensors.clone()))
            .design()
            .unwrap();
        assert_eq!(d.m(), 4);
        // ...and with no basis either, the K = M policy keys off it too.
        let d = Pipeline::new(&ens)
            .allocator(AllocatorSpec::Fixed(sensors))
            .design()
            .unwrap();
        assert_eq!((d.k(), d.m()), (4, 4));
    }

    #[test]
    fn fixed_sensors_must_respect_mask() {
        let ens = two_mode_ensemble(6, 6, 40);
        let sensors = SensorSet::new(6, 6, vec![0, 7, 21]).unwrap();
        let mask = Mask::all_allowed(6, 6).forbid_rects(&[(0.0, 0.0, 0.2, 0.2)]); // forbids cell 0
        assert!(matches!(
            Pipeline::new(&ens)
                .basis(BasisSpec::EigenExact { k: 2 })
                .allocator(AllocatorSpec::Fixed(sensors))
                .mask(mask)
                .design(),
            Err(CoreError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn all_allocator_specs_design() {
        let ens = two_mode_ensemble(4, 4, 30);
        for spec in [
            AllocatorSpec::Greedy(GreedyAllocator::new()),
            AllocatorSpec::EnergyCenter,
            AllocatorSpec::UniformGrid,
            AllocatorSpec::Random { seed: 11 },
            AllocatorSpec::Exhaustive,
        ] {
            let d = Pipeline::new(&ens)
                .basis(BasisSpec::EigenExact { k: 2 })
                .allocator(spec)
                .sensors(3)
                .design()
                .unwrap();
            assert_eq!(d.m(), 3);
        }
    }

    #[test]
    fn serialization_roundtrip_reconstructs_identically() {
        let ens = two_mode_ensemble(7, 5, 50);
        let d = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 })
            .sensors(4)
            .noise(NoiseSpec::snr_db(30.0))
            .design()
            .unwrap();
        let back = Deployment::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(back.k(), d.k());
        assert_eq!(back.m(), d.m());
        assert_eq!(back.basis_kind(), d.basis_kind());
        assert_eq!(back.noise(), d.noise());
        assert_eq!(back.sensors(), d.sensors());
        for t in [0, 13, 42] {
            let readings = d.sensors().sample(&ens.map(t));
            let a = d.reconstruct(&readings).unwrap();
            let b = back.reconstruct(&readings).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "t = {t}");
        }
    }

    #[test]
    fn corrupted_artifacts_rejected() {
        let ens = two_mode_ensemble(4, 4, 30);
        let d = Pipeline::new(&ens).sensors(2).design().unwrap();
        let bytes = d.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Deployment::from_bytes(&bad),
            Err(CoreError::Persist { .. })
        ));
        // Truncated.
        assert!(matches!(
            Deployment::from_bytes(&bytes[..bytes.len() - 1]),
            Err(CoreError::Persist { .. })
        ));
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Deployment::from_bytes(&long),
            Err(CoreError::Persist { .. })
        ));
    }

    #[test]
    fn save_load_through_disk() {
        let ens = two_mode_ensemble(5, 5, 40);
        let d = Pipeline::new(&ens).sensors(3).design().unwrap();
        let path =
            std::env::temp_dir().join(format!("eigenmaps-deployment-{}.emd", std::process::id()));
        d.save(&path).unwrap();
        let back = Deployment::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.sensors(), d.sensors());
        let readings = d.sensors().sample(&ens.map(7));
        assert_eq!(
            d.reconstruct(&readings).unwrap().as_slice(),
            back.reconstruct(&readings).unwrap().as_slice()
        );
    }

    #[test]
    fn truncated_deployment_reuses_sensors() {
        let ens = two_mode_ensemble(8, 8, 60);
        let d = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 4 })
            .sensors(6)
            .design()
            .unwrap();
        let t = d.truncated(2).unwrap();
        assert_eq!(t.k(), 2);
        assert_eq!(t.sensors(), d.sensors());
        assert!(d.truncated(0).is_err());
        assert!(d.truncated(5).is_err());
        // The 2-mode family is still recovered exactly at keep = 2.
        let truth = ens.map(11);
        let est = t.reconstruct(&t.sensors().sample(&truth)).unwrap();
        assert!(truth.mse(&est) < 1e-12);
    }

    #[test]
    fn batch_matches_single_bitwise() {
        let ens = two_mode_ensemble(8, 8, 60);
        let d = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 })
            .sensors(5)
            .design()
            .unwrap();
        let frames: Vec<Vec<f64>> = (0..60).map(|t| d.sensors().sample(&ens.map(t))).collect();
        let batch = d.reconstruct_batch(&frames).unwrap();
        assert_eq!(batch.len(), frames.len());
        for (frame, map) in frames.iter().zip(batch.iter()) {
            let single = d.reconstruct(frame).unwrap();
            assert_eq!(single.as_slice(), map.as_slice());
        }
    }

    #[test]
    fn batch_validates_frame_lengths() {
        let ens = two_mode_ensemble(6, 6, 40);
        let d = Pipeline::new(&ens).sensors(3).design().unwrap();
        assert!(d.reconstruct_batch(&[]).unwrap().is_empty());
        assert!(matches!(
            d.reconstruct_batch(&[vec![1.0, 2.0]]),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn kernel_diagnostic_and_forcing() {
        let ens = two_mode_ensemble(6, 6, 40);
        let d = Pipeline::new(&ens).sensors(4).design().unwrap();
        // The detected backend is always runnable, and round-trips through
        // the artifact as a per-host (not persisted) property.
        assert!(d.kernel_kind().is_available());
        let back = Deployment::from_bytes(&d.to_bytes()).unwrap();
        assert!(back.kernel_kind().is_available());
        for kind in KernelKind::available() {
            let forced = d.clone().with_kernel(kind).unwrap();
            assert_eq!(forced.kernel_kind(), kind);
            // A forced backend survives K-truncation.
            assert_eq!(forced.truncated(2).unwrap().kernel_kind(), kind);
            // And every backend serves.
            let readings = forced.sensors().sample(&ens.map(3));
            assert!(forced.reconstruct(&readings).is_ok());
        }
        for kind in KernelKind::ALL {
            if !kind.is_available() {
                assert!(matches!(
                    d.clone().with_kernel(kind),
                    Err(CoreError::KernelUnavailable { .. })
                ));
            }
        }
    }

    #[test]
    fn tracker_wraps_the_deployment() {
        let ens = two_mode_ensemble(6, 6, 40);
        let d = Pipeline::new(&ens).sensors(4).design().unwrap();
        assert!(d.tracker(0.0).is_err());
        let mut tracker = d.tracker(1.0).unwrap();
        let truth = ens.map(5);
        let readings = d.sensors().sample(&truth);
        let tracked = tracker.step(&readings).unwrap();
        let memoryless = d.reconstruct(&readings).unwrap();
        assert_eq!(tracked.as_slice(), memoryless.as_slice());
    }

    #[test]
    fn fitted_basis_is_adopted() {
        let ens = two_mode_ensemble(6, 6, 40);
        let basis = EigenBasis::fit_exact(&ens, 3).unwrap();
        let d = Pipeline::new(&ens)
            .fitted_basis(basis.clone())
            .sensors(5)
            .design()
            .unwrap();
        assert_eq!(d.basis_kind(), BasisKind::Eigen);
        assert_eq!(d.basis().matrix().as_slice(), basis.matrix().as_slice());
    }

    #[test]
    fn evaluate_uses_designed_noise() {
        let ens = two_mode_ensemble(6, 6, 40);
        let clean = Pipeline::new(&ens).sensors(4).design().unwrap();
        let noisy = Pipeline::new(&ens)
            .sensors(4)
            .noise(NoiseSpec::snr_db(10.0))
            .design()
            .unwrap();
        let rep_clean = clean.evaluate(&ens, 7).unwrap();
        let rep_noisy = noisy.evaluate(&ens, 7).unwrap();
        assert!(rep_noisy.mse > rep_clean.mse);
    }
}
