//! The measurement loop shared by every workload: repeated set-up, passes
//! until the time is up, and the end-to-end metrics computed from them.

use crate::{probe, stats};
use dhpf_obs::{Collector, Trace};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// The end-to-end metrics every workload prints with `--trace 0`, with
/// their units (these names and units are the ones `BENCHMARK.json` lists).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload prints with `--trace 1`. A layer
/// that a workload leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hpf.parse_s", "s"),
    ("omega.calls", "count"),
    ("omega.misses", "count"),
    ("omega.hit_rate", "ratio"),
    ("omega.interned_conjuncts", "count"),
    ("omega.evictions", "count"),
    ("omega.memo_entries", "count"),
    ("omega.sat.calls", "count"),
    ("omega.sat.misses", "count"),
    ("omega.sat.time_s", "s"),
    ("omega.fme.calls", "count"),
    ("omega.fme.misses", "count"),
    ("omega.fme.time_s", "s"),
    ("omega.negate.calls", "count"),
    ("omega.negate.misses", "count"),
    ("omega.negate.time_s", "s"),
    ("omega.gist.calls", "count"),
    ("omega.gist.misses", "count"),
    ("omega.gist.time_s", "s"),
    ("omega.simplify.calls", "count"),
    ("omega.simplify.misses", "count"),
    ("omega.simplify.time_s", "s"),
    ("core.partitioning_s", "s"),
    ("core.loop_splitting_s", "s"),
    ("core.bounds_reduction_s", "s"),
    ("core.comm_gen_s", "s"),
    ("core.comm_partners_s", "s"),
    ("core.contiguity_s", "s"),
    ("core.partitioning.fme_calls", "count"),
    ("core.partitioning.sat_calls", "count"),
    ("core.loop_splitting.fme_calls", "count"),
    ("core.loop_splitting.sat_calls", "count"),
    ("core.bounds_reduction.fme_calls", "count"),
    ("core.bounds_reduction.sat_calls", "count"),
    ("core.comm_gen.fme_calls", "count"),
    ("core.comm_gen.sat_calls", "count"),
    ("core.comm_partners.fme_calls", "count"),
    ("core.comm_partners.sat_calls", "count"),
    ("core.contiguity.fme_calls", "count"),
    ("core.contiguity.sat_calls", "count"),
    ("core.comm_events", "count"),
    ("core.coalesced_groups", "count"),
    ("core.contiguous_events", "count"),
    ("core.split_nests", "count"),
    ("core.degradations", "count"),
    ("codegen.mm_codegen_s", "s"),
    ("codegen.code_bytes", "bytes"),
    ("parallel.utilization", "ratio"),
    ("parallel.dup_misses", "count"),
    ("sim.p1_s", "s"),
    ("sim.p2_s", "s"),
    ("sim.p4_s", "s"),
    ("sim.messages", "count"),
    ("sim.payload_bytes", "bytes"),
    ("sim.inplace_frac", "ratio"),
    ("serve.compile_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.warm_frac", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.repeat_frac", "ratio"),
    ("serve.near_dup_frac", "ratio"),
    ("serve.unseen_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Per-layer values of one traced pass, keyed by the names in
/// [`PER_LAYER`]; every name starts at 0.
#[derive(Clone, Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        self.0
            .iter_mut()
            .find(|(k, _)| **k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn set(&mut self, name: &str, v: f64) {
        *self.slot(name) = v;
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.slot(name) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// Per-metric median over several passes.
    pub fn median_of(all: &[Layers]) -> Layers {
        let mut out = Layers::new();
        for (name, v) in &mut out.0 {
            let xs: Vec<f64> = all.iter().map(|l| l.0[name]).collect();
            *v = stats::median(&xs);
        }
        out
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| Metric::new(n, self.0[n], u))
            .collect()
    }
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The outcome of one pass over a workload's operations.
pub struct Pass<T> {
    /// Wall time of the pass, checks included. The workload measures it
    /// around everything it does; [`measure`] then takes out the probes.
    pub wall_s: f64,
    /// CPU time the process used during the pass, probes left out
    /// (untraced passes only).
    pub cpu_s: f64,
    /// Durations of the host-speed probes the pass ran between its
    /// operations (see [`Pass::probe`]), per probing thread.
    pub probe_s: Vec<f64>,
    /// Wall and CPU time the probes took, to be taken out of the pass's.
    probe_wall_s: f64,
    probe_cpu_s: f64,
    /// [`probe::NOMINAL_S`] over the pass's mean probe time: the factor
    /// that turns the pass's timings into timings on a host of fixed
    /// speed.
    pub host_factor: f64,
    /// Latency of each operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Operations attempted (compiles, simulate-and-compares, requests).
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Workload-specific results the per-layer metrics are derived from.
    pub data: T,
}

impl<T> Pass<T> {
    /// Wall time normalised to the fixed-speed host.
    pub fn norm_wall_s(&self) -> f64 {
        self.wall_s * self.host_factor
    }

    /// Runs the host-speed probe on `threads` threads, the number the next
    /// operation keeps busy. A workload calls it before each of its
    /// operations, or group of operations, while nothing else of the
    /// benchmark runs: the host's speed changes from one second to the
    /// next, so the probe must sample it as often as the work does.
    pub fn probe(&mut self, threads: usize) {
        let t0 = Instant::now();
        let per_thread = probe::run(threads);
        self.probe_wall_s += t0.elapsed().as_secs_f64();
        self.probe_cpu_s += per_thread * threads as f64;
        self.probe_s.push(per_thread);
    }

    /// Takes the probes out of the pass's timings and sets its factor.
    fn settle(&mut self) {
        self.wall_s -= self.probe_wall_s;
        self.cpu_s = (self.cpu_s - self.probe_cpu_s).max(0.0);
        if !self.probe_s.is_empty() {
            let mean = self.probe_s.iter().sum::<f64>() / self.probe_s.len() as f64;
            self.host_factor = probe::NOMINAL_S / mean;
        }
    }

    pub fn new(data: T) -> Self {
        Pass {
            wall_s: 0.0,
            cpu_s: 0.0,
            probe_s: Vec::new(),
            probe_wall_s: 0.0,
            probe_cpu_s: 0.0,
            host_factor: 1.0,
            op_ms: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            data,
        }
    }
}

/// All passes of one run: untraced ones, and (with `--trace 1`) traced
/// ones with the span tree the benchmark recorded around them.
pub struct Measured<T> {
    pub plain: Vec<Pass<T>>,
    pub traced: Vec<(Pass<T>, Trace)>,
    /// Highest resident set size sampled while the passes ran, in MiB.
    pub peak_rss_mb: f64,
    /// Share of wanted processor time the hypervisor stole while the
    /// passes ran (see [`stats::steal_ticks`]).
    pub steal_frac: f64,
}

impl<T> Measured<T> {
    pub fn attempted(&self) -> u64 {
        self.passes().map(|p| p.attempted).sum()
    }

    pub fn failures(&self) -> Vec<String> {
        self.passes().flat_map(|p| p.failures.clone()).collect()
    }

    pub fn passes(&self) -> impl Iterator<Item = &Pass<T>> {
        self.plain.iter().chain(self.traced.iter().map(|(p, _)| p))
    }

    /// `obs.trace_overhead_frac`: median traced pass over median untraced
    /// pass (both normalised), minus one.
    pub fn trace_overhead(&self) -> f64 {
        let plain: Vec<f64> = self.plain.iter().map(Pass::norm_wall_s).collect();
        let traced: Vec<f64> = self.traced.iter().map(|(p, _)| p.norm_wall_s()).collect();
        stats::median(&traced) / stats::median(&plain) - 1.0
    }
}

/// Sets the workload up [`SETUPS`] times, keeping the last result, and
/// returns it with each set-up's duration in seconds, normalised by the
/// host-speed probes around it.
pub fn setup<S>(mut f: impl FnMut() -> Result<S, String>) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    let mut before = probe::run(1);
    for _ in 0..SETUPS {
        // Release the previous set-up first so two never coexist.
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(f()?);
        let secs = t0.elapsed().as_secs_f64();
        let after = probe::run(1);
        times.push(secs * probe::NOMINAL_S * 2.0 / (before + after));
        before = after;
    }
    Ok((kept.expect("SETUPS > 0"), times))
}

/// Runs passes until `seconds` have elapsed (at least one). With `traced`,
/// passes alternate between untraced and traced, so the run holds both
/// and their ratio gives the tracing overhead. A traced pass gets a fresh
/// collector holding one `"pass"` span of the benchmark's own.
pub fn measure<T>(
    seconds: f64,
    traced: bool,
    mut run: impl FnMut(usize, Option<&Collector>) -> Pass<T>,
) -> Measured<T> {
    stats::release_free_memory();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Samples resident memory while the passes run, so set-up (and
        // its reference computations) does not count towards the peak.
        let sampler = s.spawn(|| {
            let mut peak: f64 = 0.0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(stats::rss_mb().unwrap_or(0.0));
                std::thread::sleep(Duration::from_millis(20));
            }
            peak.max(stats::rss_mb().unwrap_or(0.0))
        });
        let run_steal0 = stats::steal_ticks();
        let start = Instant::now();
        let mut plain = Vec::new();
        let mut traced_passes = Vec::new();
        for i in 0.. {
            if traced && i % 2 == 1 {
                let c = Collector::new();
                let mut pass = {
                    let _span = c.guard(&format!("pass {i}"), "bench");
                    run(i, Some(&c))
                };
                pass.settle();
                traced_passes.push((pass, c.trace()));
            } else {
                let cpu0 = stats::cpu_s().unwrap_or(0.0);
                let mut pass = run(i, None);
                pass.cpu_s = stats::cpu_s().unwrap_or(0.0) - cpu0;
                pass.settle();
                plain.push(pass);
            }
            let enough = !traced || !traced_passes.is_empty();
            if start.elapsed().as_secs_f64() >= seconds && enough {
                break;
            }
        }
        done.store(true, Ordering::Relaxed);
        let peak_rss_mb = sampler.join().expect("the memory sampler does not panic");
        let steal_frac = stats::steal_share(run_steal0, stats::steal_ticks());
        Measured {
            plain,
            traced: traced_passes,
            peak_rss_mb,
            steal_frac,
        }
    })
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order, plus the
/// tail of the pooled operation latencies at the highest percentile with
/// at least ten samples beyond it, as `(latency, percentile, samples)`.
/// Every timing is normalised by its pass's host-speed probes.
///
/// Each metric is a median over passes of a per-pass value: the pass's
/// median and slowest operation, and its operations per second. Pooling
/// the operations of all passes instead would weigh a run's first pass,
/// which on `serve_mix` sends every catalog entry for the first time,
/// by how many passes the run happened to fit, and a pooled tail would
/// move between operation kinds (SP against JACOBI compiles) with it.
pub fn end_to_end<T>(setup_s: &[f64], m: &Measured<T>) -> (Vec<Metric>, (f64, f64, usize)) {
    let per_pass = |f: &dyn Fn(&Pass<T>) -> f64| -> f64 {
        stats::median(&m.plain.iter().map(f).collect::<Vec<_>>())
    };
    let norm_ops =
        |p: &Pass<T>| -> Vec<f64> { p.op_ms.iter().map(|ms| ms * p.host_factor).collect() };
    let values = [
        stats::median(setup_s),
        per_pass(&Pass::norm_wall_s),
        per_pass(&|p| p.cpu_s * p.host_factor),
        per_pass(&|p| stats::median(&norm_ops(p))),
        per_pass(&|p| norm_ops(p).into_iter().fold(0.0, f64::max)),
        per_pass(&|p| p.op_ms.len() as f64 / p.norm_wall_s()),
        m.peak_rss_mb,
    ];
    let ops: Vec<f64> = m.plain.iter().flat_map(norm_ops).collect();
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| Metric::new(n, v, u))
        .collect();
    let (tail, pct) = stats::tail(&ops);
    (metrics, (tail, pct, ops.len()))
}

/// Runs `f`, turning a panic into an error message, so one failing
/// operation is counted instead of aborting the run.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panic: {}",
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    }
}
