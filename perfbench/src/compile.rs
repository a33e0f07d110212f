//! `compile_cold` and `compile_par2`: passes of cold compilations, each on
//! a fresh Omega `Context`, checked against hand-written Table-1
//! statistics, a recorded counter set, and the serial pipeline's code.

use crate::harness::{self, guarded, Layers, Measured, Pass};
use crate::kernels::{self, Program, Synthesis};
use crate::layers;
use crate::record::{self, Args, Report};
use crate::stats::Rng;
use dhpf_core::{compile_with, render_program, CompileOptions, Compiled};
use dhpf_obs::json::Obj;
use dhpf_obs::Collector;
use dhpf_omega::Context;
use std::time::Instant;

/// One compilation's results, kept for the checks and the layer metrics.
struct Done {
    compiled: Compiled,
    memo_entries: u64,
    code: String,
}

/// Compiles `p` cold (fresh context) with `threads` workers, inside a
/// span of the benchmark's own when a collector is given. Returns the
/// latency in milliseconds with the result.
fn compile_cold(
    p: &Program,
    threads: usize,
    trace: Option<&Collector>,
) -> (f64, Result<Done, String>) {
    let mut opts = CompileOptions::new().threads(threads);
    if let Some(c) = trace {
        opts = opts.trace(c.clone());
    }
    let _span = trace.map(|c| c.guard(&format!("compile {}", p.name), "bench"));
    let t0 = Instant::now();
    let ctx = Context::new();
    let out = guarded(|| compile_with(&ctx, &p.source, &opts).map_err(|e| e.to_string()));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let done = out.map(|compiled| {
        let code = render_program(&compiled.program);
        Done {
            memo_entries: ctx.memo_entries(),
            compiled,
            code,
        }
    });
    (ms, done)
}

/// The counters a `threads = 1` compilation must repeat exactly: memo
/// calls and misses per op, interned conjuncts, synthesis statistics,
/// degradations and code size.
fn counters(d: &Done) -> String {
    let c = &d.compiled.report.cache;
    let s = &d.compiled.report.stats;
    let mut o = Obj::new();
    for (op, counts) in c.rows() {
        o = o
            .u64(&format!("{op} calls"), counts.hits + counts.misses)
            .u64(&format!("{op} misses"), counts.misses);
    }
    o.u64("interned conjuncts", c.interned_conjuncts)
        .u64("comm events", s.comm_events as u64)
        .u64("vectorized", s.fully_vectorized as u64)
        .u64("coalesced groups", s.coalesced_groups as u64)
        .u64("contiguous", s.contiguous_events as u64)
        .u64("split nests", s.split_nests as u64)
        .u64("degradations", s.degradations.len() as u64)
        .u64("code bytes", d.code.len() as u64)
        .finish()
}

fn synthesis(d: &Done) -> Synthesis {
    let s = &d.compiled.report.stats;
    Synthesis {
        comm_events: s.comm_events,
        vectorized: s.fully_vectorized,
        coalesced: s.coalesced_groups,
        contiguous: s.contiguous_events,
        split_nests: s.split_nests,
    }
}

/// Per-pass results beyond latency.
#[derive(Default)]
struct PassData {
    layers: Layers,
    code_bytes: usize,
    misses: u64,
    /// Each compilation's program index and latency in milliseconds.
    program_ms: Vec<(usize, f64)>,
}

/// The compile order of pass `idx`: a seeded shuffle, so runs with other
/// seeds also vary which program follows which.
fn order(n: usize, seed: u64, idx: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(idx as u64)).shuffle(&mut v);
    v
}

/// Runs the passes of a compile workload. `check` validates each
/// successful compilation of program `k`.
fn passes(
    args: &Args,
    programs: &[Program],
    threads: usize,
    mut check: impl FnMut(usize, &Done) -> Result<(), String>,
) -> Measured<PassData> {
    harness::measure(args.seconds, args.trace, |idx, trace| {
        let t0 = Instant::now();
        let mut pass = Pass::new(PassData::default());
        for k in order(programs.len(), args.seed, idx) {
            let p = &programs[k];
            pass.probe(threads);
            let (ms, out) = compile_cold(p, threads, trace);
            pass.op_ms.push(ms);
            pass.data.program_ms.push((k, ms));
            pass.attempted += 1;
            match out.and_then(|d| check(k, &d).map(|()| d)) {
                Ok(d) => {
                    let r = &d.compiled.report;
                    layers::add_report(&mut pass.data.layers, r, d.memo_entries, d.code.len());
                    pass.data.code_bytes += d.code.len();
                    pass.data.misses += r.cache.total_misses();
                }
                Err(e) => pass.failures.push(format!("{}: {e}", p.name)),
            }
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass
    })
}

/// The per-layer metrics of the traced passes.
fn traced_layers(m: &Measured<PassData>, threads: usize, serial_misses: Option<u64>) -> Layers {
    let per_pass: Vec<Layers> = m
        .traced
        .iter()
        .map(|(p, t)| {
            let mut l = p.data.layers.clone();
            let (busy, wall) = layers::add_trace(&mut l, t);
            layers::finish_hit_rate(&mut l);
            if threads > 1 && wall > 0.0 {
                l.set("parallel.utilization", busy / (threads as f64 * wall));
            }
            if let Some(serial) = serial_misses {
                l.set("parallel.dup_misses", p.data.misses as f64 - serial as f64);
            }
            l
        })
        .collect();
    let mut l = Layers::median_of(&per_pass);
    l.set("obs.trace_overhead_frac", m.trace_overhead());
    l
}

/// The record's detail: pass counts, the pooled tail, code size, and each
/// program's median normalised compile latency (the numbers that replace
/// Table 1's times).
fn finish(
    args: &Args,
    setup_s: &[f64],
    programs: &[Program],
    m: &Measured<PassData>,
    layers: Layers,
    extra: Obj,
) -> Report {
    let (e2e, tail) = harness::end_to_end(setup_s, m);
    let code_bytes = m.passes().map(|p| p.data.code_bytes).max().unwrap_or(0);
    let mut program_ms = Obj::new();
    for (k, p) in programs.iter().enumerate() {
        let ms: Vec<f64> = m
            .plain
            .iter()
            .flat_map(|pass| {
                let f = pass.host_factor;
                pass.data
                    .program_ms
                    .iter()
                    .filter(move |(i, _)| *i == k)
                    .map(move |(_, ms)| ms * f)
            })
            .collect();
        program_ms = program_ms.raw(p.name, &record::number(crate::stats::median(&ms)));
    }
    let detail = extra
        .u64("passes", m.plain.len() as u64)
        .u64("traced_passes", m.traced.len() as u64)
        .obj("pooled_tail", record::tail_obj(tail))
        .u64("code_bytes", code_bytes as u64)
        .obj("program_ms", program_ms);
    record::report(args, setup_s, m, e2e, layers, detail)
}

/// `compile_cold`: SP-4, SP-sym, T-sym, JACOBI and ERLEBACHER at one
/// thread. Checks the Table-1 statistics and that every counter repeats
/// exactly, within the run and against the record an earlier run of the
/// same sources left in the output directory.
pub fn cold(args: &Args) -> Result<Report, String> {
    let programs = kernels::cold_programs();
    // Set-up: validate every source through the frontend, load the
    // counter record of earlier runs, and compile the three smallest
    // programs once so lazy allocation is done before timing starts.
    let (stored, setup_s) = harness::setup(|| {
        for p in &programs {
            dhpf_hpf::parse(&p.source).map_err(|e| format!("{}: {e}", p.name))?;
        }
        for p in programs.iter().filter(|p| !p.name.starts_with("SP")) {
            compile_cold(p, 1, None)
                .1
                .map_err(|e| format!("{}: {e}", p.name))?;
        }
        Ok(record::load_counters())
    })?;
    let mut seen: Vec<Option<String>> = programs
        .iter()
        .map(|p| stored.get(p.name).cloned())
        .collect();
    let m = passes(args, &programs, 1, |k, d| {
        let p = &programs[k];
        if let Some(want) = p.expect {
            let got = synthesis(d);
            if got != want {
                return Err(format!("synthesis {got:?}, Table 1 lists {want:?}"));
            }
        }
        let now = counters(d);
        match &seen[k] {
            Some(first) if *first != now => {
                Err(format!("counters changed: recorded {first}, now {now}"))
            }
            Some(_) => Ok(()),
            None => {
                seen[k] = Some(now);
                Ok(())
            }
        }
    });
    record::store_counters(programs.iter().map(|p| p.name).zip(&seen));
    let layers = if args.trace {
        traced_layers(&m, 1, None)
    } else {
        Layers::new()
    };
    let mut record = Obj::new();
    for (p, c) in programs.iter().zip(&seen) {
        if let Some(c) = c {
            record = record.raw(p.name, c);
        }
    }
    Ok(finish(
        args,
        &setup_s,
        &programs,
        &m,
        layers,
        Obj::new().obj("counters", record),
    ))
}

/// `compile_par2`: SP-4 and SP-sym on the parallel driver at two threads.
/// Set-up compiles both serially; every parallel compilation must render
/// byte-identical code.
pub fn par2(args: &Args) -> Result<Report, String> {
    const THREADS: usize = 2;
    let programs = kernels::par_programs();
    let (reference, setup_s) = harness::setup(|| {
        programs
            .iter()
            .map(|p| {
                compile_cold(p, 1, None)
                    .1
                    .map(|d| (d.code, d.compiled.report.cache.total_misses()))
                    .map_err(|e| format!("serial {}: {e}", p.name))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let serial_misses: u64 = reference.iter().map(|r| r.1).sum();
    let m = passes(args, &programs, THREADS, |k, d| {
        if d.code == reference[k].0 {
            Ok(())
        } else {
            Err("parallel code differs from the serial compilation".to_string())
        }
    });
    let dup: Vec<f64> = m
        .passes()
        .filter(|p| p.failures.is_empty())
        .map(|p| p.data.misses as f64 - serial_misses as f64)
        .collect();
    let layers = if args.trace {
        traced_layers(&m, THREADS, Some(serial_misses))
    } else {
        Layers::new()
    };
    let extra = Obj::new()
        .u64("threads", THREADS as u64)
        .u64("serial_misses", serial_misses)
        .f64("dup_misses_median", crate::stats::median(&dup), 1);
    Ok(finish(args, &setup_s, &programs, &m, layers, extra))
}
