//! Order statistics, a seeded generator, and the process's peak memory.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `0.0..=1.0`; `0.0` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail latency to report: the value at the highest percentile (at
/// most p99) that has at least ten samples beyond it, with that
/// percentile; the maximum (percentile 100) when fewer than twenty
/// samples exist, since then not even the median has ten beyond it.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    if n < 20.0 {
        return (xs.iter().copied().fold(0.0, f64::max), 100.0);
    }
    let q = (1.0 - 10.0 / n).min(0.99);
    (quantile(xs, q), 100.0 * q)
}

/// SplitMix64: a small, seedable generator, so the same `--seed` always
/// produces the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// CPU time this process has used, user plus system, in seconds (from
/// `/proc/self/stat`, in clock ticks of 1/100 s), or `None` where `/proc`
/// does not provide it. Time the hypervisor gave to other guests (steal)
/// is not charged to the process.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Host-wide `(steal, wanted)` clock ticks from `/proc/stat`: time the
/// hypervisor ran other guests while this guest's processors had work,
/// out of all the time they had work (user, nice, system, irq, softirq
/// and steal; idle and iowait left out). A processor with nothing to run
/// accrues no steal, so this share is what a busy thread loses, however
/// many processors the workload keeps busy. `None` where `/proc` does not
/// provide it.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    let &[user, nice, system, _idle, _iowait, irq, softirq, steal] = ticks.as_slice() else {
        return None;
    };
    Some((steal, user + nice + system + irq + softirq + steal))
}

/// The share of wanted processor time stolen between two
/// [`steal_ticks`] readings; 0 when either is missing.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, w0)), Some((s1, w1))) if w1 > w0 => (s1 - s0) as f64 / (w1 - w0) as f64,
        _ => 0.0,
    }
}

/// Returns heap memory the allocator holds but no longer uses to the
/// operating system. Called before the passes start, so garbage left by
/// set-up (reference compilations on other threads) does not stay
/// resident in whichever allocator arena a later thread happens to pick,
/// which otherwise makes the peak jump between runs by whole arenas.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers, may be called
        // from any thread at any time, and only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resident set size of this process in MiB (`VmRSS`), or `None` where
/// `/proc` does not provide it.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).1, 99.0);
        assert_eq!(tail(&xs[..200]).1, 95.0);
        assert_eq!(tail(&xs[..40]).1, 75.0);
        assert_eq!(tail(&xs[..20]).1, 50.0);
        assert_eq!(tail(&xs[..19]), (19.0, 100.0));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
