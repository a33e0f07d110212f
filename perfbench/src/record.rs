//! Command-line arguments, the printed result, and the files a run leaves
//! in the output directory: its full record, its spans, and the
//! deterministic-counter record later runs are checked against.

use crate::harness::{Layers, Measured, Metric};
use dhpf_obs::json::{escape, Arr, Obj};
use dhpf_obs::Trace;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::PathBuf;

/// Where records, spans and counter records go, relative to the working
/// directory (the root of the checkout).
pub const OUT_DIR: &str = ".bench_out";

/// The benchmark's command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("{flag}: invalid value {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: f64::from(seconds.unwrap_or(20).max(1)),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a run prints and records.
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub record: String,
    pub traces: Vec<Trace>,
}

/// Assembles the report of a run: end-to-end metrics untraced, per-layer
/// metrics traced, and a record with the host, the set-up times and the
/// workload's own details.
pub fn report<T>(
    args: &Args,
    setup_s: &[f64],
    m: &Measured<T>,
    e2e: Vec<Metric>,
    layers: Layers,
    detail: Obj,
) -> Report {
    let metrics = if args.trace {
        layers.metrics()
    } else {
        e2e.clone()
    };
    let failures = m.failures();
    let mut setups = Arr::new();
    for s in setup_s {
        setups = setups.raw(&number(*s));
    }
    let mut fails = Arr::new();
    for f in failures.iter().take(20) {
        fails = fails.str(f);
    }
    let mut walls = Arr::new();
    let mut cpus = Arr::new();
    for p in &m.plain {
        walls = walls.raw(&number(p.wall_s));
        cpus = cpus.raw(&number(p.cpu_s));
    }
    let mut probes = Arr::new();
    for p in &m.plain {
        probes = probes.raw(&number(crate::stats::median(&p.probe_s)));
    }
    let attempted = m.attempted();
    let record = Obj::new()
        .str("workload", &args.workload)
        .u64("seed", args.seed)
        .raw("seconds", &number(args.seconds))
        .bool("trace", args.trace)
        .obj("host", host().raw("steal_frac", &number(m.steal_frac)))
        .arr("setup_s", setups)
        .arr("raw_pass_s", walls)
        .arr("raw_pass_cpu_s", cpus)
        .arr("probe_median_s", probes)
        .u64("attempted", attempted)
        .u64("failed", failures.len() as u64)
        .raw(
            "fail_frac",
            &number(failures.len() as f64 / attempted.max(1) as f64),
        )
        .arr("failures", fails)
        .obj("detail", detail)
        .raw("end_to_end", &metrics_json(&e2e))
        .raw("per_layer", &metrics_json(&layers.metrics()))
        .finish();
    Report {
        attempted,
        failures,
        metrics,
        record,
        traces: m.traced.iter().map(|(_, t)| t.clone()).collect(),
    }
}

/// Host metadata: processor count, and the compiler version, commit and
/// source digest the wrapper script found (`unknown` when run without it).
fn host() -> Obj {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    Obj::new()
        .u64(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str("rustc", &env("DHPF_BENCH_RUSTC"))
        .str("commit", &env("DHPF_BENCH_COMMIT"))
        .str("source_digest", &env("DHPF_BENCH_SOURCE"))
}

/// A number with all its digits; non-finite values, which JSON cannot
/// carry, become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The pooled tail latency `(ms, percentile, samples)` as a record field.
pub fn tail_obj((ms, pct, n): (f64, f64, usize)) -> Obj {
    Obj::new()
        .raw("ms", &number(ms))
        .raw("percentile", &number(pct))
        .u64("samples", n as u64)
}

fn metrics_json(ms: &[Metric]) -> String {
    let mut o = Obj::new();
    for m in ms {
        o = o.raw(
            &m.name,
            &format!(
                "{{\"value\":{},\"unit\":{}}}",
                number(m.value),
                escape(&m.unit)
            ),
        );
    }
    o.finish()
}

/// Prints the human-readable lines, the record, and last the result line
/// a benchmark runner reads; writes the record and the spans to [`OUT_DIR`].
pub fn emit(args: &Args, r: &Report) {
    println!(
        "# dhpf benchmark: workload {}, seed {}, {} s, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &r.metrics {
        println!("{:<34} {:>16} {}", m.name, number(m.value), m.unit);
    }
    for f in r.failures.iter().take(5) {
        println!("# FAILED: {f}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut files = vec![(format!("{stem}.json"), format!("{}\n", r.record))];
    if !r.traces.is_empty() {
        let spans: String = r
            .traces
            .iter()
            .map(dhpf_obs::export::to_json_lines)
            .collect();
        files.push((format!("{stem}.spans.jsonl"), spans));
    }
    for (name, text) in files {
        if let Err(e) = write_out(&name, &text) {
            eprintln!("cannot write {OUT_DIR}/{name}: {e}");
        }
    }
    println!("{}", r.record);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.failures.is_empty(),
        r.attempted,
        r.failures.len(),
        metrics_json(&r.metrics)
    );
}

fn write_out(name: &str, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = PathBuf::from(OUT_DIR).join(name);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(tmp, path)
}

/// The counter-record file for this build of the benchmark: keyed by a
/// hash of the running executable, so a rebuilt compiler starts a new
/// record instead of being checked against another program's counters.
fn counters_file() -> Option<PathBuf> {
    let exe = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let mut h = DefaultHasher::new();
    h.write(&exe);
    Some(PathBuf::from(OUT_DIR).join(format!("compile_cold-counters-{:016x}.tsv", h.finish())))
}

/// The counters an earlier run of this build recorded, by program name.
pub fn load_counters() -> BTreeMap<String, String> {
    counters_file()
        .and_then(|f| std::fs::read_to_string(f).ok())
        .map(|text| {
            text.lines()
                .filter_map(|l| l.split_once('\t'))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        })
        .unwrap_or_default()
}

/// Records the counters for later runs, unless a record exists already
/// (a mismatching run must not overwrite the record it failed against).
pub fn store_counters<'a>(entries: impl Iterator<Item = (&'a str, &'a Option<String>)>) {
    let Some(file) = counters_file() else { return };
    if file.exists() {
        return;
    }
    let text: String = entries
        .filter_map(|(k, v)| v.as_ref().map(|v| format!("{k}\t{v}\n")))
        .collect();
    let name = file
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default()
        .to_string();
    if let Err(e) = write_out(&name, &text) {
        eprintln!("cannot write the counter record: {e}");
    }
}
