//! Workload definitions, the cached thermal ensembles, the timed design
//! phases and the seeded request streams.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eigenmaps::core::{
    Deployment, EigenBasis, MapEnsemble, NoiseModel, Pipeline, SensorSet, ThermalMap,
};
use eigenmaps::floorplan::cache::{load_ensemble, save_ensemble};
use eigenmaps::floorplan::DatasetBuilder;
use eigenmaps::serve::DeploymentRegistry;

use crate::Error;

/// Snapshots the deployment is designed from.
pub const DESIGN_T: usize = 300;
/// Snapshots simulated after the design window and held out as the ground
/// truth the served maps are scored against.
pub const TEST_T: usize = 40;
/// The thermal simulation's seed. The ensemble is a fixed input of every
/// workload (simulating it takes far longer than a run); the `--seed`
/// argument drives everything the program is asked to do with it.
pub const ENSEMBLE_SEED: u64 = 0xD1E5;
/// Sensor noise added to every reading, in °C.
pub const NOISE_SIGMA: f64 = 0.2;
/// Execution shards of every `Server`.
pub const SHARDS: usize = 2;
/// Registry name of the deployment under test.
pub const DEPLOYMENT: &str = "t1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TcpSingleFrame,
    BulkBigmap,
    SessionsDurable,
}

/// Grid and subspace of one deployment (K = M).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    pub rows: usize,
    pub cols: usize,
    pub k: usize,
}

/// The paper's 56×60 UltraSPARC T1 grid with K = M = 16.
pub const PAPER_GRID: Grid = Grid {
    rows: 56,
    cols: 60,
    k: 16,
};
/// A 96×96 grid with K = M = 48: its 3.5 MB basis overflows a 2 MiB L2.
pub const BIG_GRID: Grid = Grid {
    rows: 96,
    cols: 96,
    k: 48,
};

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TcpSingleFrame,
        Workload::BulkBigmap,
        Workload::SessionsDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpSingleFrame => "tcp_single_frame",
            Workload::BulkBigmap => "bulk_bigmap",
            Workload::SessionsDurable => "sessions_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn grid(self) -> Grid {
        match self {
            Workload::BulkBigmap => BIG_GRID,
            _ => PAPER_GRID,
        }
    }

    /// The latency a request must meet to count as a deadline hit.
    pub fn latency_limit(self) -> Duration {
        match self {
            Workload::BulkBigmap => Duration::from_millis(100),
            _ => Duration::from_millis(10),
        }
    }
}

/// Where the benchmark keeps what it generates: all inside its own
/// directory, which `.gitignore` excludes.
#[derive(Debug, Clone)]
pub struct Dirs {
    pub cache: PathBuf,
    pub work: PathBuf,
    pub results: PathBuf,
}

impl Dirs {
    pub fn new() -> Dirs {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        Dirs {
            cache: root.join(".cache"),
            work: root.join(".work"),
            results: root.join("results"),
        }
    }
}

fn ensemble_path(dirs: &Dirs, grid: Grid) -> PathBuf {
    dirs.cache.join(format!(
        "ensemble-{}x{}-t{}-seed{ENSEMBLE_SEED}.bin",
        grid.rows,
        grid.cols,
        DESIGN_T + TEST_T
    ))
}

/// Simulates and caches the ensemble for `grid` unless a valid cache
/// exists; returns the generation time when it ran.
pub fn ensure_ensemble(dirs: &Dirs, grid: Grid) -> Result<Option<Duration>, Error> {
    let path = ensemble_path(dirs, grid);
    let valid = load_ensemble(&path).is_ok_and(|e| {
        e.len() == DESIGN_T + TEST_T && e.rows() == grid.rows && e.cols() == grid.cols
    });
    if valid {
        return Ok(None);
    }
    let t0 = Instant::now();
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(grid.rows, grid.cols)
        .snapshots(DESIGN_T + TEST_T)
        .seed(ENSEMBLE_SEED)
        .build()?;
    save_ensemble(dataset.ensemble(), &path)?;
    Ok(Some(t0.elapsed()))
}

/// The design snapshots and the held-out ground-truth maps.
pub fn load(dirs: &Dirs, grid: Grid) -> Result<(MapEnsemble, Vec<ThermalMap>), Error> {
    let all = load_ensemble(&ensemble_path(dirs, grid))?;
    let (design, test) = all.split_at(DESIGN_T)?;
    Ok((design, test.iter().collect()))
}

/// Wall time of each design phase of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignPhases {
    /// `EigenBasis::fit`.
    pub fit: Duration,
    /// Greedy allocation through `Pipeline::fitted_basis(..).design()`.
    pub allocate: Duration,
    /// `Deployment::to_bytes` and `DeploymentRegistry::publish_bytes`
    /// (which rebuilds the packed basis).
    pub emdeploy: Duration,
}

/// Designs the deployment and publishes it as `EMDEPLOY` bytes into a
/// fresh registry — the program's design-time path, phase by phase.
pub fn design(
    ensemble: &MapEnsemble,
    grid: Grid,
) -> Result<(Arc<DeploymentRegistry>, Vec<u8>, DesignPhases), Error> {
    let t0 = Instant::now();
    let basis = EigenBasis::fit(ensemble, grid.k)?;
    let t1 = Instant::now();
    let deployment = Pipeline::new(ensemble)
        .fitted_basis(basis)
        .sensors(grid.k)
        .design()?;
    let t2 = Instant::now();
    let artifact = deployment.to_bytes();
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish_bytes(DEPLOYMENT, &artifact)?;
    let t3 = Instant::now();
    let phases = DesignPhases {
        fit: t1 - t0,
        allocate: t2 - t1,
        emdeploy: t3 - t2,
    };
    Ok((registry, artifact, phases))
}

/// SplitMix64: a tiny seeded generator for the request stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded stream of single frames: the readings the program receives
/// (sensor samples of a held-out map plus σ = 0.2 °C noise) and, per
/// frame, which held-out map is the ground truth.
///
/// Frames are interleaved over `monitors` independent monitors: frame `i`
/// belongs to monitor `i % monitors`, which plays the held-out snapshots
/// in time order from a seeded starting point, as a chip's sensors would.
#[derive(Debug, Clone)]
pub struct Frames {
    pub readings: Vec<Vec<f64>>,
    pub truth: Vec<usize>,
}

impl Frames {
    pub fn generate(
        sensors: &SensorSet,
        test: &[ThermalMap],
        count: usize,
        monitors: usize,
        seed: u64,
    ) -> Frames {
        let mut pick = SplitMix::new(seed);
        let mut noise = NoiseModel::new(seed ^ 0x5E45_0125);
        let starts: Vec<usize> = (0..monitors).map(|_| pick.below(test.len())).collect();
        let truth: Vec<usize> = (0..count)
            .map(|i| (starts[i % monitors] + i / monitors) % test.len())
            .collect();
        let readings = truth
            .iter()
            .map(|&j| noise.apply_sigma(&sensors.sample(&test[j]), NOISE_SIGMA))
            .collect();
        Frames { readings, truth }
    }

    pub fn len(&self) -> usize {
        self.readings.len()
    }
}

/// A 64-bit digest of a map's exact IEEE-754 bits. Each step is a
/// bijection of the running state, so two maps that differ in a single
/// cell always digest differently.
pub fn digest(cells: &[f64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ cells.len() as u64;
    for v in cells {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
    }
    h
}

/// Sum of squared differences between a served map and its ground truth.
pub fn sq_err(served: &[f64], truth: &ThermalMap) -> f64 {
    served
        .iter()
        .zip(truth.as_slice())
        .map(|(a, b)| (a - b) * (a - b))
        .sum()
}

/// Reference digests of `frames` from `Deployment::reconstruct_batch`,
/// computed in 256-frame chunks to bound memory.
pub fn reference_digests(reference: &Deployment, frames: &[Vec<f64>]) -> Result<Vec<u64>, Error> {
    let mut out = Vec::with_capacity(frames.len());
    for chunk in frames.chunks(256) {
        for map in reference.reconstruct_batch(chunk)? {
            out.push(digest(map.as_slice()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_single_bit() {
        let base: Vec<f64> = (0..64).map(|i| f64::from(i) * 0.25).collect();
        let d = digest(&base);
        for i in 0..base.len() {
            for bit in [0u32, 17, 63] {
                let mut v = base.clone();
                v[i] = f64::from_bits(v[i].to_bits() ^ (1u64 << bit));
                assert_ne!(digest(&v), d, "flip of bit {bit} in cell {i}");
            }
        }
        assert_ne!(digest(&base[..63]), d);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut other = SplitMix::new(8);
        assert_ne!(a[0], other.next_u64());
    }
}
