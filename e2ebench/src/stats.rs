//! Order statistics, open-loop timing and failure accounting.
//!
//! Everything the benchmark reports goes through these few functions, so
//! they are unit-tested on their own (`cargo test` in this package).

use std::time::{Duration, Instant};

/// Minimum number of samples that must lie beyond a reported percentile.
/// A p99 therefore needs at least 1000 samples and a p50 at least 20.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    pub p: f64,
    pub samples: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} needs at least {MIN_TAIL_SAMPLES} samples beyond it, have {} in total",
            self.p, self.samples
        )
    }
}

/// The `p`-th percentile (0 < p < 100) of `samples` by the nearest-rank
/// rule, refused unless at least [`MIN_TAIL_SAMPLES`] samples lie above
/// that rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let n = samples.len();
    let refuse = TooFewSamples { p, samples: n };
    if !(p > 0.0 && p < 100.0) || n == 0 {
        return Err(refuse);
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return Err(refuse);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The smallest sample count [`percentile`] accepts for `p`.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n: &usize| n - ((p / 100.0) * n as f64).ceil() as usize >= MIN_TAIL_SAMPLES)
        .expect("some count supports any p < 100")
}

/// The `p`-th percentile of each consecutive block of `samples` (in
/// arrival order), and the lowest of them. Blocks are as many as the
/// sample supports, each with at least [`min_samples`]`(p)` samples. A
/// tail the program causes recurs in every block and sets the lowest one;
/// a stall of the shared host lands in some blocks and not others, so it
/// cannot move the result. Refused when the sample cannot fill one block.
pub fn block_percentile(samples: &[f64], p: f64) -> Result<(f64, Vec<f64>), TooFewSamples> {
    if !(p > 0.0 && p < 100.0) {
        return Err(TooFewSamples {
            p,
            samples: samples.len(),
        });
    }
    let blocks = (samples.len() / min_samples(p)).max(1);
    let size = samples.len() / blocks;
    let per_block = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * size
            };
            percentile(&samples[b * size..end], p)
        })
        .collect::<Result<Vec<f64>, _>>()?;
    let lowest = per_block.iter().copied().fold(f64::INFINITY, f64::min);
    Ok((lowest, per_block))
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones an external check computes.
///
/// # Panics
///
/// With fewer than two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // Position i * (n + 1) / 4 (1-based), clamped to the data range and
        // linearly interpolated, exactly as CPython computes it.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// An open-loop arrival schedule: request `i` is due at
/// `start + i * interval`, whether or not the program kept up.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * u32::try_from(i).expect("request index fits u32")
    }

    /// How late request `i` was actually sent.
    pub fn lag(&self, i: usize, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

/// What became of one attempted request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered with the expected maps, after this latency.
    Ok(Duration),
    /// An error, shed, refused, degraded or missing reply, or a map that
    /// failed its check.
    Failed,
}

/// Running totals behind `failed_ratio` and `deadline_hit_ratio`.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Correct answers within the latency limit.
    pub hits: u64,
    /// Latencies of the correct answers, in microseconds.
    pub latencies_us: Vec<f64>,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome, limit: Duration) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok(latency) => {
                if latency <= limit {
                    self.hits += 1;
                }
                self.latencies_us.push(latency.as_secs_f64() * 1e6);
            }
            Outcome::Failed => self.failed += 1,
        }
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Failures over attempts.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The reported `failed_ratio`: add-one smoothed, `(failed + 1) /
    /// (attempted + 1)`, so a clean run reads as the smallest value its
    /// sample size can resolve instead of 0 (a 0 median has no relative
    /// spread or bound). The raw count is the `failed` field of the result.
    pub fn failed_ratio(&self) -> f64 {
        (self.failed + 1) as f64 / (self.attempted + 1) as f64
    }

    /// Share of attempts answered correctly within the limit; every
    /// failure counts as a miss.
    pub fn deadline_hit_ratio(&self) -> f64 {
        self.hits as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&samples, 99.0).is_err(), "9 samples beyond p99");
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Ok(990.0));
        assert!(percentile(&samples[..19], 50.0).is_err());
        assert_eq!(percentile(&samples[..20], 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&samples, 100.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let p = percentile(&samples, 99.0).unwrap();
        samples.sort_by(f64::total_cmp);
        assert_eq!(p, samples[1979]);
    }

    #[test]
    fn block_percentile_ignores_stalled_blocks() {
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(50.0), 20);
        // 5000 samples: five blocks of 1000, two of them with stalls.
        let mut samples: Vec<f64> = (0..5000).map(|i| f64::from(i % 100)).collect();
        samples[2000..2100].fill(1e6);
        samples[4000..4020].fill(1e6);
        let (p99, blocks) = block_percentile(&samples, 99.0).unwrap();
        assert_eq!(blocks, vec![98.0, 98.0, 1e6, 98.0, 1e6]);
        assert_eq!(p99, 98.0);
        assert!(percentile(&samples, 99.0).unwrap() > 1e5);
        // A remainder joins the last block; too few samples are refused.
        assert_eq!(block_percentile(&samples[..1999], 99.0).unwrap().1.len(), 1);
        assert!(block_percentile(&samples[..999], 99.0).is_err());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), (2.5, 7.5));
    }

    #[test]
    fn failures_count_as_deadline_misses() {
        let limit = Duration::from_millis(10);
        let mut t = Tally::default();
        t.record(Outcome::Ok(Duration::from_millis(2)), limit);
        t.record(Outcome::Ok(Duration::from_millis(12)), limit);
        t.record(Outcome::Failed, limit);
        t.record(Outcome::Ok(Duration::from_millis(10)), limit);
        assert_eq!((t.attempted, t.failed, t.ok(), t.hits), (4, 1, 3, 2));
        assert_eq!(t.deadline_hit_ratio(), 0.5);
        assert_eq!(t.failed_share(), 0.25);
        assert_eq!(t.failed_ratio(), 2.0 / 5.0);
        // Failed requests contribute no latency sample.
        assert_eq!(t.latencies_us.len(), 3);

        let mut clean = Tally::default();
        for _ in 0..99 {
            clean.record(Outcome::Ok(Duration::from_millis(1)), limit);
        }
        assert_eq!(clean.failed_share(), 0.0);
        assert_eq!(clean.failed_ratio(), 0.01);
        assert_eq!(clean.deadline_hit_ratio(), 1.0);
    }
}
