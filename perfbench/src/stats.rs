//! Sample statistics, the seeded generator and process facts.

/// Linear-interpolated quantile (R type 7) of `samples`; sorts a copy.
/// Returns 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (s[pos.floor() as usize], s[pos.ceil() as usize]);
    lo + (hi - lo) * pos.fract()
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q` quantile when at least ten samples lie beyond it, else `None`.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    (samples.len() as f64 * (1.0 - q) >= 10.0).then(|| quantile(samples, q))
}

/// SplitMix64: every input the benchmark generates derives from the
/// command-line seed through this generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f`, pushing its wall time in seconds onto `times`.
///
/// The workloads time their set-up this way several times in a run,
/// some before the load and some spread between its rounds, and report
/// the median: on a shared host the CPU slows down for stretches of
/// seconds, and a figure taken in one block would land in one of them.
pub fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = std::time::Instant::now();
    let value = f();
    times.push(t.elapsed().as_secs_f64());
    value
}
