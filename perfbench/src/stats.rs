//! Sample statistics: median, quartiles and the tail-percentile rule.
//!
//! Every timing is summarised from raw samples, never from the program's
//! log2 telemetry histograms. The tail of a timing is the highest of
//! [`TAIL_CANDIDATES`] that still has at least [`MIN_BEYOND`] samples
//! beyond it, so a reported p99 always rests on at least ten slower
//! observations. Long runs take that percentile in blocks of
//! [`TAIL_BLOCK`] consecutive samples and report the median block, so one
//! stall of the machine moves one block, not the run's tail.

/// Candidate tail percentiles in per mille, highest first. Coarse steps
/// keep the chosen percentile from flickering when the sample count
/// moves a little between runs.
pub const TAIL_CANDIDATES: [usize; 4] = [990, 950, 900, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples per tail block: the fewest that support a p99.
pub const TAIL_BLOCK: usize = 1000;

/// Linear-interpolation quantile (`q` in 0..=1) of sorted samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 || sorted[lo] == sorted[hi] {
        // Exact rank or a tie; also keeps infinities from making NaN.
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it; the median when even that is out of reach.
pub fn tail_percentile(n: usize) -> f64 {
    let per_mille = TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|p| n * (1000 - p) / 1000 >= MIN_BEYOND)
        .unwrap_or(500);
    per_mille as f64 / 10.0
}

/// Summary of one timing or measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub q3: f64,
    /// Which percentile [`Summary::tail`] is.
    pub tail_pct: f64,
    /// Value at `tail_pct`: the median over blocks of [`TAIL_BLOCK`]
    /// samples (the last block absorbs the remainder), or over all
    /// samples when there are fewer than two blocks.
    pub tail: f64,
}

impl Summary {
    /// Summarise samples, given in the order they were taken; `None`
    /// when there are none. Infinite samples (failed requests) sort last
    /// and so count against the tail.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        let blocks = (samples.len() / TAIL_BLOCK).max(1);
        let (tail_pct, tail) = if blocks == 1 {
            let pct = tail_percentile(sorted.len());
            (pct, quantile_sorted(&sorted, pct / 100.0))
        } else {
            let pct = tail_percentile(TAIL_BLOCK);
            let tails: Vec<f64> = (0..blocks)
                .map(|b| {
                    let end = if b + 1 == blocks {
                        samples.len()
                    } else {
                        (b + 1) * TAIL_BLOCK
                    };
                    quantile_sorted(&self::sorted(&samples[b * TAIL_BLOCK..end]), pct / 100.0)
                })
                .collect();
            (pct, quantile_sorted(&self::sorted(&tails), 0.5))
        };
        Some(Summary {
            n: sorted.len(),
            q1: quantile_sorted(&sorted, 0.25),
            p50: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            tail_pct,
            tail,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// Operations per second of a weighted mix, priced at the quick quartile
/// of each operation's latencies.
///
/// `classes` holds, for every repeated operation (one kind on one
/// target), its weight in the mix and its latencies in ms. The first
/// quartile of a class is its cost; the mix's cost per operation is the
/// weighted mean of those costs. A machine shared with other work only
/// ever slows an operation down, so the quick end of repeated identical
/// work tracks the program and not the neighbours, while any change to
/// an operation's own cost moves its quartile. `None` when no class has
/// samples.
pub fn quick_mix_rate(classes: &[(f64, &[f64])]) -> Option<f64> {
    let (mut weight, mut ms) = (0.0, 0.0);
    for &(w, samples) in classes.iter().filter(|(_, s)| !s.is_empty()) {
        weight += w;
        ms += w * quantile_sorted(&sorted(samples), 0.25);
    }
    (weight > 0.0).then(|| 1e3 * weight / ms)
}

/// Outcome of one open-loop rate step.
#[derive(Debug, Clone, PartialEq)]
pub struct RungOutcome {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Completed requests per second actually achieved.
    pub achieved_rps: f64,
    /// Tail latency (ms), failures counted as infinitely slow.
    pub tail_ms: f64,
    /// Whether the backlog of due-but-unsent requests grew.
    pub backlog_grew: bool,
}

impl RungOutcome {
    /// Does this step meet the latency limit without a growing backlog?
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && !self.backlog_grew
    }
}

/// The highest offered rate that passes, with its achieved rate.
pub fn max_passing_rate(rungs: &[RungOutcome], limit_ms: f64) -> Option<&RungOutcome> {
    rungs
        .iter()
        .filter(|r| r.passes(limit_ms))
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
}

/// Saturation throughput: the highest rate achieved at any step. Once a
/// step offers more than the system can serve, its achieved rate is the
/// system's capacity, so this needs no latency limit and moves smoothly
/// where [`max_passing_rate`] jumps a whole step.
pub fn saturation_rate(rungs: &[RungOutcome]) -> Option<f64> {
    rungs.iter().map(|r| r.achieved_rps).reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    /// Samples strictly above `value`.
    fn beyond(samples: &[f64], value: f64) -> usize {
        samples.iter().filter(|&&x| x > value).count()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn reported_tail_has_ten_samples_beyond() {
        for n in [20, 99, 100, 150, 199, 200, 999, 1000, 1001, 5000] {
            let samples = ramp(n);
            let s = Summary::of(&samples).unwrap();
            assert!(
                beyond(&samples, s.tail) >= MIN_BEYOND,
                "n={n}: p{} = {} has {} beyond",
                s.tail_pct,
                s.tail,
                beyond(&samples, s.tail)
            );
        }
        // Exactly ten beyond at the boundary.
        let samples = ramp(1000);
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(beyond(&samples, s.tail), 10);
    }

    #[test]
    fn long_runs_take_the_median_block_tail() {
        // Five blocks of 1..=1000; one block also holds a stall.
        let mut samples: Vec<f64> = (0..5).flat_map(|_| ramp(1000)).collect();
        for x in &mut samples[2000..2100] {
            *x = 1e6;
        }
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert!((s.tail - 990.01).abs() < 1e-9, "{}", s.tail);
        // A remainder joins the last block instead of forming its own.
        let s = Summary::of(&ramp(2999)).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert!(s.tail > 1000.0 && s.tail < 2999.0);
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.p50, s.q3), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failures_push_the_tail_to_infinity() {
        let mut samples = vec![1.0; 990];
        samples.extend(std::iter::repeat_n(f64::INFINITY, 11));
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert!(s.tail.is_infinite());
        assert_eq!(s.p50, 1.0);
        let all_failed = Summary::of(&[f64::INFINITY; 40]).unwrap();
        assert!(all_failed.p50.is_infinite() && all_failed.q1.is_infinite());
    }

    #[test]
    fn quick_mix_rate_prices_each_class_at_its_first_quartile() {
        // Quartiles 2 ms and 10 ms; weights 3:1 give 4 ms per operation.
        let fast = [1.0, 2.0, 3.0, 4.0, 5.0];
        let slow = [9.0, 10.0, 11.0, 12.0, 13.0];
        let rate = quick_mix_rate(&[(3.0, &fast), (1.0, &slow)]).unwrap();
        assert!((rate - 250.0).abs() < 1e-9, "{rate}");
        // An empty class drops out instead of reading as free.
        let rate = quick_mix_rate(&[(3.0, &fast), (1.0, &[])]).unwrap();
        assert!((rate - 500.0).abs() < 1e-9, "{rate}");
        assert_eq!(quick_mix_rate(&[(1.0, &[])]), None);
    }

    #[test]
    fn quick_mix_rate_ignores_a_slowed_minority_but_not_a_slower_program() {
        let steady: Vec<f64> = (0..100).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let base = quick_mix_rate(&[(1.0, &steady)]).unwrap();
        // Neighbours double the cost of a third of the operations.
        let mut shared = steady.clone();
        for x in shared.iter_mut().step_by(3) {
            *x *= 2.0;
        }
        assert!((quick_mix_rate(&[(1.0, &shared)]).unwrap() - base).abs() / base < 0.01);
        // The program itself gets 20% slower: the rate falls with it.
        let slower: Vec<f64> = steady.iter().map(|x| x * 1.2).collect();
        let rate = quick_mix_rate(&[(1.0, &slower)]).unwrap();
        assert!((rate * 1.2 - base).abs() / base < 1e-9, "{rate} vs {base}");
    }

    fn rung(offered: f64, tail_ms: f64, grew: bool) -> RungOutcome {
        RungOutcome {
            offered_rps: offered,
            achieved_rps: offered * 0.99,
            tail_ms,
            backlog_grew: grew,
        }
    }

    #[test]
    fn max_rate_is_the_highest_passing_rung() {
        let rungs = [
            rung(250.0, 2.0, false),
            rung(500.0, 3.0, false),
            rung(1000.0, 30.0, false), // over the limit
            rung(2000.0, 4.0, false),
            rung(4000.0, 5.0, true), // backlog grew
            rung(8000.0, 900.0, true),
        ];
        let best = max_passing_rate(&rungs, 20.0).unwrap();
        assert_eq!(best.offered_rps, 2000.0);
        assert_eq!(best.achieved_rps, 2000.0 * 0.99);
    }

    #[test]
    fn no_rate_passes_when_every_rung_fails() {
        let rungs = [rung(250.0, f64::INFINITY, false), rung(500.0, 1.0, true)];
        assert!(max_passing_rate(&rungs, 20.0).is_none());
        assert!(max_passing_rate(&[], 20.0).is_none());
    }

    #[test]
    fn saturation_is_the_highest_achieved_rate() {
        let mut over = rung(2000.0, f64::INFINITY, true);
        over.achieved_rps = 1430.0;
        let mut further = rung(4000.0, f64::INFINITY, true);
        further.achieved_rps = 1210.0;
        let rungs = [
            rung(500.0, 2.0, false),
            rung(1000.0, 9.0, false),
            over,
            further,
        ];
        assert_eq!(saturation_rate(&rungs), Some(1430.0));
        assert_eq!(saturation_rate(&rungs[..2]), Some(990.0));
        assert_eq!(saturation_rate(&[]), None);
    }

    #[test]
    fn limit_is_inclusive() {
        assert!(rung(100.0, 20.0, false).passes(20.0));
        assert!(!rung(100.0, 20.000001, false).passes(20.0));
    }
}
