//! The host-speed probe: a fixed piece of work that uses no dhpf code,
//! timed between the benchmark's passes so that its timings can be
//! divided by how fast the host happened to run at the time.
//!
//! On a shared virtual machine the same pass of the same binary takes
//! 2.3 s in one run and 2.8 s in the next, and drifts by as much within a
//! long run, because other guests contend for the processors. Those
//! swings make a run's timings say more about the neighbours than about
//! the compiler. The probe sees the same swings: it allocates small
//! vectors, interns them in an ordered map, hashes and does integer
//! arithmetic, as the compiler's integer-set layer does. A timing
//! multiplied by [`NOMINAL_S`] and divided by the probe time around it
//! reads as the time the work takes on a host of fixed speed.
//!
//! The probe shares no code with the compiler, so no change to the
//! compiler moves it, and a change in the compiler's own work moves the
//! normalised timings in full.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's duration on the 2-vCPU host the benchmark was tuned on, at
/// its median speed. Normalised timings read as seconds on that host.
pub const NOMINAL_S: f64 = 0.02;

/// Rounds of the fixed work per probe (about 20 ms).
const ROUNDS: u32 = 20;

/// Runs the fixed work once on each of `threads` threads at the same time
/// and returns the mean time a thread took, in seconds. A workload probes
/// with as many threads as it keeps busy, so that time the host takes
/// from one of its processors (steal), and the wait for a processor
/// among the workload's own threads, slow the probe as they slow the
/// workload.
pub fn run(threads: usize) -> f64 {
    if threads <= 1 {
        return work();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("the probe does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

fn work() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..ROUNDS {
        let mut intern: BTreeMap<Vec<i64>, u32> = BTreeMap::new();
        let mut memo: HashMap<(u32, u32), i64> = HashMap::new();
        for i in 0..2000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 2 + (x % 5) as usize;
            let v: Vec<i64> = (0..len)
                .map(|k| ((x >> (k * 7)) % 23) as i64 - 11)
                .collect();
            let g = v.iter().fold(0i64, |a, &b| gcd(a, b));
            let n = intern.len() as u32;
            let id = *intern.entry(v).or_insert(n);
            *memo.entry((id, i % 97)).or_insert(0) += g;
        }
        black_box((&intern, &memo));
    }
    t0.elapsed().as_secs_f64()
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}
