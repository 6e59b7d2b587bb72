//! # eigenmaps-core
//!
//! The algorithms of *“EigenMaps: Algorithms for Optimal Thermal Maps
//! Extraction and Sensor Placement on Multicore Processors”* (Ranieri,
//! Vincenzi, Chebira, Atienza, Vetterli — DAC 2012), plus the baselines the
//! paper compares against:
//!
//! * [`Pipeline`] / [`Deployment`] — the design-time → runtime lifecycle
//!   API: a fluent builder that fits a basis, places sensors and prefactors
//!   the solver, producing a serializable runtime artifact with single-frame
//!   ([`Deployment::reconstruct`]) and batched
//!   ([`Deployment::reconstruct_batch`]) serving paths;
//! * [`EigenBasis`] — the optimal `K`-dimensional approximation of thermal
//!   maps (top-`K` covariance eigenvectors; Sec. 3.1, Prop. 1);
//! * [`Reconstructor`] — least-squares recovery of the full map from `M`
//!   noisy sensors (Sec. 3.2, Theorem 1), with the sensing-matrix condition
//!   number exposed as the placement figure of merit;
//! * [`kernel`] — the frame-blocked synthesis kernel behind every serving
//!   path: one entry point ([`KernelKind::synthesize`]) with scalar /
//!   portable / AVX2+FMA / AVX-512 backends selected by runtime dispatch,
//!   running over the cache-line-aligned panel layout of [`packed`];
//! * [`GreedyAllocator`] — the polynomial near-optimal sensor allocation of
//!   Algorithm 1 (correlation-driven row elimination with a rank guard),
//!   with [`Mask`] support for forbidden regions (Fig. 6);
//! * [`DctBasis`] + [`EnergyCenterAllocator`] — the k-LSE reconstruction
//!   and energy-center placement baselines (Nowroz et al., DAC 2010);
//! * [`metrics`] — the paper's `MSE`/`MAX` figures of merit and the
//!   evaluation engine used by every experiment;
//! * [`NoiseModel`] — exact-SNR measurement corruption (Fig. 3c);
//! * [`tradeoff`] — the `K`-vs-`M` optimum search of Sec. 3.2.
//!
//! # Quickstart: design → deploy → serve
//!
//! ```
//! use eigenmaps_core::prelude::*;
//!
//! # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
//! // 1. Design-time ensemble (here: synthetic two-mode maps).
//! let maps: Vec<ThermalMap> = (0..60)
//!     .map(|t| {
//!         let a = (t as f64 / 5.0).sin();
//!         let b = (t as f64 / 3.0).cos();
//!         ThermalMap::from_fn(8, 8, |r, c| 50.0 + a * r as f64 + b * c as f64)
//!     })
//!     .collect();
//! let ensemble = MapEnsemble::from_maps(&maps)?;
//!
//! // 2. Design: fit 2 EigenMaps, place 4 sensors greedily, prefactor the
//! //    solver. The `Deployment` can be serialized and shipped to a
//! //    runtime fleet (`deployment.save(path)` / `Deployment::load`).
//! let deployment = Pipeline::new(&ensemble)
//!     .basis(BasisSpec::Eigen { k: 2 })
//!     .allocator(AllocatorSpec::Greedy(GreedyAllocator::new()))
//!     .sensors(4)
//!     .noise(NoiseSpec::snr_db(40.0))
//!     .design()?;
//!
//! // 3. Serve: reconstruct any map of the family from 4 readings —
//! //    per frame, or batched for throughput (bitwise-identical results).
//! let truth = ensemble.map(33);
//! let estimate = deployment.reconstruct(&deployment.sensors().sample(&truth))?;
//! assert!(truth.mse(&estimate) < 1e-6);
//!
//! let frames: Vec<Vec<f64>> = (0..8)
//!     .map(|t| deployment.sensors().sample(&ensemble.map(t)))
//!     .collect();
//! let batch = deployment.reconstruct_batch(&frames)?;
//! assert_eq!(batch.len(), 8);
//! # Ok(())
//! # }
//! ```
//!
//! The pre-`Pipeline` entry points remain available for callers that need
//! to wire the phases manually ([`EigenBasis::fit`] →
//! [`SensorAllocator::allocate`] → [`Reconstructor::new`]); the builder is
//! the recommended path and the manual one is considered deprecated for
//! application code.

pub mod allocate;
pub mod basis;
pub mod clock;
pub mod codec;
pub mod error;
pub mod kernel;
pub mod map;
pub mod metrics;
pub mod noise;
pub mod packed;
pub mod pipeline;
pub mod reconstruct;
pub mod sensors;
pub mod tracking;
pub mod tradeoff;

pub use allocate::{
    AllocationInput, Endgame, EnergyCenterAllocator, ExhaustiveAllocator, GreedyAllocator,
    RandomAllocator, SensorAllocator, UniformGridAllocator,
};
pub use basis::{Basis, BasisKind, DctBasis, EigenBasis};
pub use clock::MonotonicClock;
pub use codec::{CodecError, CodecResult, Decoder, Encoder, SessionSnapshot};
pub use error::{CoreError, Result};
pub use kernel::KernelKind;
pub use map::{MapEnsemble, ThermalMap};
pub use metrics::{
    evaluate_approximation, evaluate_hotspot_detection, evaluate_reconstruction, ErrorReport,
    HotspotReport, NoiseSpec,
};
pub use noise::{db_to_snr, snr_to_db, NoiseModel};
pub use packed::PackedBasis;
pub use pipeline::{AllocatorSpec, BasisSpec, Deployment, Pipeline};
pub use reconstruct::{shard_spans, BatchScratch, Reconstructor};
pub use sensors::{Mask, SensorSet};
pub use tracking::TrackingReconstructor;
pub use tradeoff::{optimal_k, TradeoffPoint, TradeoffSweep};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::allocate::{
        AllocationInput, Endgame, EnergyCenterAllocator, ExhaustiveAllocator, GreedyAllocator,
        RandomAllocator, SensorAllocator, UniformGridAllocator,
    };
    pub use crate::basis::{Basis, BasisKind, DctBasis, EigenBasis};
    pub use crate::clock::MonotonicClock;
    pub use crate::error::{CoreError, Result};
    pub use crate::kernel::KernelKind;
    pub use crate::map::{MapEnsemble, ThermalMap};
    pub use crate::metrics::{
        evaluate_approximation, evaluate_hotspot_detection, evaluate_reconstruction, ErrorReport,
        HotspotReport, NoiseSpec,
    };
    pub use crate::noise::{db_to_snr, snr_to_db, NoiseModel};
    pub use crate::packed::PackedBasis;
    pub use crate::pipeline::{AllocatorSpec, BasisSpec, Deployment, Pipeline};
    pub use crate::reconstruct::{shard_spans, BatchScratch, Reconstructor};
    pub use crate::sensors::{Mask, SensorSet};
    pub use crate::tracking::TrackingReconstructor;
    pub use crate::tradeoff::{optimal_k, TradeoffPoint, TradeoffSweep};
}
