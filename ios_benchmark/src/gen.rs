//! Seeded input generation: the only randomness in the benchmark. The
//! program under test receives the generated inputs, never the seed.

use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and independent of the workspace's own
/// `rand` stand-in so the workload does not change when that crate does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with mean 1.
    pub fn next_exp(&mut self) -> f64 {
        -self.next_unit().ln()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times of an open-loop arrival schedule: a Poisson process of the
/// given rate over `window`, conditioned on its expected count so every
/// seed sends the same number of requests (exponential gaps rescaled to
/// fill the window — the order statistics of uniform arrivals). Bursts and
/// lulls differ per seed; the offered load does not.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    let count = (rate_per_s * window.as_secs_f64()).round().max(1.0) as usize;
    let mut rng = Rng::new(seed);
    let gaps: Vec<f64> = (0..=count).map(|_| rng.next_exp()).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..count]
        .iter()
        .map(|gap| {
            at += gap;
            window.mul_f64(at / total)
        })
        .collect()
}

/// Latency of an open-loop request, timed from when it was *due*: a stall
/// of the generator (or of the system, which delays later sends) is charged
/// to every request it held back.
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_and_seed_dependent() {
        let w = Duration::from_secs(10);
        let a = poisson_schedule(7, 12.0, w);
        let b = poisson_schedule(7, 12.0, w);
        let c = poisson_schedule(8, 12.0, w);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 120);
        assert_eq!(c.len(), 120);
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!(*a.last().unwrap() < w);
    }

    #[test]
    fn gaps_look_exponential() {
        let s = poisson_schedule(1, 1000.0, Duration::from_secs(10));
        let gaps: Vec<f64> = s.windows(2).map(|p| (p[1] - p[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential gaps have a coefficient of variation of 1.
        let cv = var.sqrt() / mean;
        assert!((0.9..1.1).contains(&cv), "cv {cv}");
    }

    #[test]
    fn stalled_generator_is_charged_to_the_requests_it_held() {
        // Three requests due at 0, 10 and 20 ms; the generator stalls and
        // sends all three at 100 ms; each is served 5 ms after its send.
        let ms = Duration::from_millis;
        let start = Instant::now();
        let done = start + ms(105);
        let latencies: Vec<_> = [ms(0), ms(10), ms(20)]
            .into_iter()
            .map(|due| due_latency(start + due, done))
            .collect();
        assert_eq!(latencies, vec![ms(105), ms(95), ms(85)]);
        // A response can never precede its due time by clock skew.
        assert_eq!(due_latency(start + ms(10), start + ms(9)), Duration::ZERO);
    }
}
