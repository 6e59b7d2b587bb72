//! Offline shim for the subset of the `criterion` API this workspace uses.
//!
//! The build environment has no registry access, so the benchmark targets
//! link against this minimal harness instead of the real `criterion`. It
//! supports the same source-level API (`criterion_group!`/`criterion_main!`,
//! benchmark groups, `bench_function`, `bench_with_input`, `Bencher::iter`,
//! `black_box`) and reports the median wall-clock time per iteration over
//! its samples, with the MAD (median absolute deviation) as the spread
//! and the mean alongside. It performs no outlier rejection, regression
//! analysis or HTML reporting.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Label for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` style id.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Id consisting of the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Fewest samples a benchmark takes, however slow one iteration is.
const MIN_SAMPLES: usize = 3;

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    target: Duration,
    samples: usize,
    max_iters: u64,
    /// Per-iteration time of each sample taken by the last `iter` call.
    measured: Vec<Duration>,
}

impl Bencher {
    /// Calls `routine` repeatedly and records per-iteration wall-clock
    /// times: one warm-up call, then up to `samples` samples of
    /// `target / samples` each (at least one call per sample), stopping
    /// early once the time budget is spent and `MIN_SAMPLES` are in.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, also primes caches/allocators
        let per_sample = self.target / self.samples as u32;
        let start = Instant::now();
        let mut iters: u64 = 0;
        self.measured.clear();
        while self.measured.len() < self.samples
            && iters < self.max_iters
            && (self.measured.len() < MIN_SAMPLES || start.elapsed() < self.target)
        {
            let sample_start = Instant::now();
            let mut n: u32 = 0;
            loop {
                black_box(routine());
                n += 1;
                if sample_start.elapsed() >= per_sample {
                    break;
                }
            }
            self.measured.push(sample_start.elapsed() / n);
            iters += u64::from(n);
        }
    }
}

/// Median, MAD and mean of a set of samples (all zero when empty).
fn summarize(samples: &[Duration]) -> (Duration, Duration, Duration) {
    fn median(sorted: &[Duration]) -> Duration {
        match sorted.len() {
            0 => Duration::ZERO,
            n if n % 2 == 1 => sorted[n / 2],
            n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2,
        }
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let med = median(&sorted);
    let mut deviations: Vec<Duration> = sorted.iter().map(|&s| s.abs_diff(med)).collect();
    deviations.sort();
    let mean = if samples.is_empty() {
        Duration::ZERO
    } else {
        samples.iter().sum::<Duration>() / samples.len() as u32
    };
    (med, median(&deviations), mean)
}

fn run_benchmark(full_id: &str, sample_size: usize, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher {
        // Scale the budget with the requested sample count, within reason:
        // the default 100-sample config gets ~1 s, `sample_size(10)` ~300 ms.
        target: Duration::from_millis(100 + 9 * sample_size.min(100) as u64),
        samples: sample_size.clamp(MIN_SAMPLES, 100),
        max_iters: 1_000_000,
        measured: Vec::new(),
    };
    f(&mut b);
    let (median, mad, mean) = summarize(&b.measured);
    println!(
        "{full_id:<55} time: [median {median:>10.3?} MAD {mad:>10.3?} mean {mean:>10.3?} per iter, {} samples]",
        b.measured.len()
    );
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-benchmark sample-count hint (scales the time budget).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut f = f;
        run_benchmark(&format!("{}/{}", self.name, id.id), self.sample_size, |b| {
            f(b)
        });
        self
    }

    /// Runs one benchmark with a shared input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut f = f;
        run_benchmark(&format!("{}/{}", self.name, id.id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 100,
            _criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut f = f;
        run_benchmark(&id.id, 100, |b| f(b));
        self
    }
}

/// Declares a function that runs a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(10);
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn summary_is_median_and_median_absolute_deviation() {
        let ms = Duration::from_millis;
        // Samples 1, 2, 3, 4, 100 ms: median 3, deviations 0, 1, 1, 2, 97
        // → MAD 1; the outlier drags the mean to 22 but not the median.
        let (median, mad, mean) = summarize(&[ms(4), ms(100), ms(1), ms(3), ms(2)]);
        assert_eq!((median, mad, mean), (ms(3), ms(1), ms(22)));
        let (median, mad, _) = summarize(&[ms(2), ms(4)]);
        assert_eq!((median, mad), (ms(3), ms(1)));
        assert_eq!(
            summarize(&[]),
            (Duration::ZERO, Duration::ZERO, Duration::ZERO)
        );
    }

    #[test]
    fn bencher_takes_bounded_samples() {
        let mut b = Bencher {
            target: Duration::from_millis(20),
            samples: 5,
            max_iters: 1_000_000,
            measured: Vec::new(),
        };
        b.iter(|| std::thread::sleep(Duration::from_millis(1)));
        assert!((MIN_SAMPLES..=5).contains(&b.measured.len()));
        assert!(b.measured.iter().all(|&d| d >= Duration::from_millis(1)));
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 8).id, "f/8");
        assert_eq!(BenchmarkId::from_parameter("28x30").id, "28x30");
        assert_eq!(BenchmarkId::from("plain").id, "plain");
    }
}
