//! Small numeric helpers: order statistics, clocks and a seeded generator.

use crate::sys;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule, or
/// `None` when there are no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples` (mean of the middle pair for even counts).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Seconds of `steal` the kernel has booked across all CPUs (time a
/// hypervisor ran other guests while this VM wanted its CPUs); 0 on
/// machines that report none.
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Wall-clock stopwatch that discounts CPU time stolen by the hypervisor.
///
/// On a shared VM another guest's burst can take a quarter of a round's
/// wall time; [`Stopwatch::elapsed_s`] subtracts the steal booked during the
/// interval, spread over the VM's CPUs. On bare metal steal is 0 and this is
/// plain wall time. Steal is booked in 10 ms ticks, so use it for intervals
/// of a tenth of a second or more.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    steal: f64,
    cpus: f64,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Stopwatch { wall: std::time::Instant::now(), steal: steal_s(), cpus: cpus as f64 }
    }

    /// Plain wall seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Wall seconds since [`Stopwatch::start`], less stolen time per CPU.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        let wall = self.wall_s();
        let stolen = (steal_s() - self.steal).max(0.0) / self.cpus;
        (wall - stolen).max(0.0)
    }
}

/// Times single-threaded work in thread CPU seconds, falling back to wall
/// time where thread CPU time is unavailable.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer {
    cpu: Option<f64>,
    wall: std::time::Instant,
}

impl CpuTimer {
    /// Starts timing the calling thread now.
    #[must_use]
    pub fn start() -> Self {
        CpuTimer { cpu: sys::thread_cpu_s(), wall: std::time::Instant::now() }
    }

    /// Seconds the calling thread has run since [`CpuTimer::start`] (call it
    /// on the same thread).
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        match (self.cpu, sys::thread_cpu_s()) {
            (Some(start), Some(now)) => now - start,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// SplitMix64: a tiny, fully determined generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream is fixed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
        assert_eq!(quantile(&xs, 0.9), Some(9.0));
        assert_eq!(quantile(&xs, 1.0), Some(10.0));
        assert_eq!(median(&xs), Some(5.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn clocks_advance() {
        let (watch, cpu) = (Stopwatch::start(), CpuTimer::start());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(watch.elapsed_s() > 0.0);
        assert!(cpu.elapsed_s() > 0.0);
    }

    #[test]
    fn generator_is_determined_by_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
    }
}
