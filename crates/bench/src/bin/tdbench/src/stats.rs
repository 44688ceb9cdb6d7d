//! Sample statistics: percentiles, the floor of repeated identical work,
//! and the seeded generator every workload draws its inputs from.
//!
//! The box the bounds were set on shares its cores with other tenants: a
//! single-threaded loop runs at full speed or about 1.45 times slower, the
//! two alternate within milliseconds, and the share of slow time drifts
//! between nothing and everything over tens of seconds. Interference only
//! ever adds time. So where an op repeats exactly the same work — the
//! in-process workloads run a fixed round of ops a hundred times and more —
//! the figure is each position's fastest repeat, summed over the round: what
//! the round costs when the neighbours are quiet ([`Floor`]). Whole-window
//! means and medians of the same runs spread 0.2 to 0.3 between runs, the
//! 5th percentile per position 0.035, the fastest repeat 0.02.
//! Server ops never repeat (the store grows, two clients interleave), so
//! their figures are plain whole-window ones.

use std::time::Duration;

/// SplitMix64: the only source of randomness in the benchmark, so a seed
/// fixes every input without depending on a `rand` implementation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Nearest-rank percentile of a sorted slice: the element at rank
/// `ceil(p * n)` (so for an ascending slice, the smallest element with at
/// least `p` of the samples at or below it). Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// One measured operation: when it completed (offset into the measured
/// window), how long it took, the CPU time its thread spent on it (0 where
/// the harness cannot know: a server's ops), and its position in the round
/// (in-process ops; 0 elsewhere).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub done: Duration,
    pub latency_us: f64,
    pub cpu_us: f64,
    pub position: u32,
}

/// `p`-percentile latency of all samples.
pub fn latency_percentile(samples: &[Sample], p: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// What one round of `positions` ops costs undisturbed: per position, the
/// least wall and the least CPU time of all its repeats. A monotonic clock
/// cannot read less than the work took, so nothing sets the floor too low.
pub struct Floor {
    pub wall_us: Vec<f64>,
    pub cpu_us: Vec<f64>,
}

impl Floor {
    /// A position never sampled contributes 0.
    pub fn of(samples: &[Sample], positions: usize) -> Floor {
        let mut wall = vec![f64::INFINITY; positions];
        let mut cpu = vec![f64::INFINITY; positions];
        for s in samples {
            let at = s.position as usize;
            wall[at] = wall[at].min(s.latency_us);
            cpu[at] = cpu[at].min(s.cpu_us);
        }
        let or_zero = |v: Vec<f64>| v.into_iter().map(|x| if x.is_finite() { x } else { 0.0 });
        Floor {
            wall_us: or_zero(wall).collect(),
            cpu_us: or_zero(cpu).collect(),
        }
    }

    /// Ops per second of a thread that runs rounds back to back.
    pub fn ops_per_s(&self) -> f64 {
        let round_us: f64 = self.wall_us.iter().sum();
        if round_us > 0.0 {
            self.wall_us.len() as f64 * 1e6 / round_us
        } else {
            0.0
        }
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_us.iter().sum::<f64>() / self.cpu_us.len().max(1) as f64
    }
}

/// Open-loop timing: latency runs from when the request was *due*, so the
/// wait a stall imposes on later requests is counted; lateness is how far
/// behind its schedule the generator actually sent.
pub fn due_latency_us(due: Duration, sent: Duration, done: Duration) -> (f64, f64) {
    let latency = done.saturating_sub(due).as_secs_f64() * 1e6;
    let lateness = sent.saturating_sub(due).as_secs_f64() * 1e6;
    (latency, lateness)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-process op at `position` of its round.
    fn op(position: u32, latency_us: f64, cpu_us: f64) -> Sample {
        Sample {
            done: Duration::ZERO,
            latency_us,
            cpu_us,
            position,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_floor_ignores_interference_but_not_a_slower_op() {
        // A round of two ops, 100 us and 300 us, run 40 times. A neighbour
        // makes 38 of the rounds 1.5 times slower.
        let run = |first_us: f64| {
            let mut samples = Vec::new();
            for round in 0..40 {
                let slow = if round % 20 == 7 { 1.0 } else { 1.5 };
                samples.push(op(0, first_us * slow, first_us * slow - 1.0));
                samples.push(op(1, 300.0 * slow, 299.0 * slow));
            }
            Floor::of(&samples, 2)
        };
        let quiet = run(100.0);
        assert_eq!(quiet.wall_us, [100.0, 300.0]);
        assert_eq!(quiet.ops_per_s(), 5_000.0);
        assert_eq!(quiet.cpu_us_per_op(), 199.0);
        // The first op itself gets slower: every repeat shows it.
        assert_eq!(run(200.0).ops_per_s(), 4_000.0);
    }

    #[test]
    fn whole_window_percentile_of_latencies() {
        let samples: Vec<Sample> = (1..=100).map(|i| op(0, f64::from(i), 0.0)).collect();
        assert_eq!(latency_percentile(&samples, 0.50), 50.0);
        assert_eq!(latency_percentile(&samples, 0.99), 99.0);
        assert_eq!(latency_percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let ms = Duration::from_millis;
        // Due at 10 ms, sent 3 ms late, done at 15 ms: the caller waited
        // 5 ms, of which 3 were the generator's.
        let (lat, late) = due_latency_us(ms(10), ms(13), ms(15));
        assert_eq!((lat, late), (5_000.0, 3_000.0));
        // Sent early (never happens, but must not underflow).
        let (_, late) = due_latency_us(ms(10), ms(9), ms(15));
        assert_eq!(late, 0.0);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
        let mut order: Vec<u32> = (0..8).collect();
        Rng::new(1).shuffle(&mut order);
        order.sort_unstable();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }
}
