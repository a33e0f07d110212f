//! `figure7_sim`: simulate the compiled Figure 7 kernels on grids of at
//! most four ranks and compare every result with the serial interpreter.

use crate::harness::{self, guarded, Layers, Measured, Pass};
use crate::kernels;
use crate::layers;
use crate::record::{self, Args, Report};
use crate::stats::{self, Rng};
use dhpf_core::{compile_with, render_program, CompileOptions, Compiled};
use dhpf_obs::json::Obj;
use dhpf_obs::Collector;
use dhpf_omega::Context;
use dhpf_sim::{run_serial, simulate_with, MachineModel, SimResult, Store};
use std::collections::HashMap;
use std::time::Instant;

/// One compiled kernel with its serial reference result.
struct Kernel {
    name: &'static str,
    compiled: Compiled,
    memo_entries: u64,
    inputs: HashMap<String, i64>,
    serial: Store,
    /// Processor grids to simulate: every rank is an OS thread, so four
    /// ranks on this benchmark's small hosts already measure scheduling
    /// as much as simulation; larger grids would measure only that.
    grids: Vec<Vec<i64>>,
}

/// A Figure 7 kernel at its harness size, with run-time inputs and grids.
struct Source {
    name: &'static str,
    text: String,
    inputs: &'static [(&'static str, i64)],
    grids: Vec<Vec<i64>>,
}

fn sources() -> Result<Vec<Source>, String> {
    let one_d = vec![vec![1], vec![2], vec![4]];
    Ok(vec![
        Source {
            name: "TOMCATV",
            text: kernels::rewrite(
                kernels::TOMCATV,
                "parameter (n = 257)",
                "parameter (n = 129)",
            )?,
            inputs: &[("niter", 3)],
            grids: one_d.clone(),
        },
        Source {
            name: "ERLEBACHER",
            text: kernels::ERLEBACHER.to_string(),
            inputs: &[],
            grids: one_d,
        },
        Source {
            name: "JACOBI",
            text: kernels::JACOBI.to_string(),
            inputs: &[("niter", 3)],
            grids: vec![vec![2, 1], vec![2, 2]],
        },
    ])
}

/// Compiles the kernels (cold, one thread, traced when a collector is
/// given) and runs each serially.
fn build(trace: Option<&Collector>) -> Result<Vec<Kernel>, String> {
    let mut out = Vec::new();
    for Source {
        name,
        text,
        inputs,
        grids,
    } in sources()?
    {
        let mut opts = CompileOptions::new();
        if let Some(c) = trace {
            opts = opts.trace(c.clone());
        }
        let ctx = Context::new();
        let compiled = {
            let _span = trace.map(|c| c.guard(&format!("compile {name}"), "bench"));
            compile_with(&ctx, &text, &opts).map_err(|e| format!("{name}: {e}"))?
        };
        let inputs: HashMap<String, i64> =
            inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        let (serial, _flops) = {
            let _span = trace.map(|c| c.guard(&format!("run_serial {name}"), "bench"));
            run_serial(&compiled.analysis, &inputs).map_err(|e| format!("{name} serial: {e}"))?
        };
        out.push(Kernel {
            name,
            compiled,
            memo_entries: ctx.memo_entries(),
            inputs,
            serial,
            grids,
        });
    }
    Ok(out)
}

/// True when `got` is within `tol` of `want`; false for NaN.
fn close(got: f64, want: f64, tol: f64) -> bool {
    (got - want).abs() < tol
}

/// Compares a simulated result with the serial reference at 1e-9, as the
/// end-to-end tests do.
fn compare(k: &Kernel, r: &SimResult) -> Result<(), String> {
    for (name, want) in &k.serial.arrays {
        let got = r
            .arrays
            .get(name)
            .ok_or_else(|| format!("array {name} missing"))?;
        if got.dims != want.dims {
            return Err(format!(
                "array {name} dims {:?}, want {:?}",
                got.dims, want.dims
            ));
        }
        let bad = (0..want.data.len()).find(|&i| !close(got.data[i], want.data[i], 1e-9));
        if let Some(i) = bad {
            return Err(format!(
                "array {name}[{i}] = {}, serial {}",
                got.data[i], want.data[i]
            ));
        }
    }
    for (name, want) in &k.serial.floats {
        let got = r.floats.get(name).copied().unwrap_or(f64::NAN);
        if !close(got, *want, 1e-9 * want.abs().max(1.0)) {
            return Err(format!("scalar {name} = {got}, serial {want}"));
        }
    }
    Ok(())
}

#[derive(Default)]
struct PassData {
    /// Simulation wall seconds by total rank count 1, 2 and 4.
    by_ranks: [f64; 3],
    model_s: f64,
    messages: u64,
    bytes: u64,
    inplace: u64,
    buffered: u64,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (kernels, setup_s) = harness::setup(|| build(None))?;
    let machine = MachineModel::sp2();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as i64);
    let jobs: Vec<(usize, usize)> = kernels
        .iter()
        .enumerate()
        .flat_map(|(k, kern)| (0..kern.grids.len()).map(move |g| (k, g)))
        .collect();
    let m: Measured<PassData> = harness::measure(args.seconds, args.trace, |idx, trace| {
        let t0 = Instant::now();
        let mut pass = Pass::new(PassData::default());
        let mut order = jobs.clone();
        Rng::new(args.seed.wrapping_mul(1_000_003).wrapping_add(idx as u64)).shuffle(&mut order);
        for (k, g) in order {
            let kern = &kernels[k];
            let grid = &kern.grids[g];
            let ranks: i64 = grid.iter().product();
            pass.probe(ranks.min(nproc) as usize);
            let _span =
                trace.map(|c| c.guard(&format!("simulate {} {grid:?}", kern.name), "bench"));
            let s0 = Instant::now();
            let out = guarded(|| {
                simulate_with(&kern.compiled, grid, &kern.inputs, &machine, trace)
                    .map_err(|e| e.to_string())
            });
            let secs = s0.elapsed().as_secs_f64();
            pass.op_ms.push(secs * 1e3);
            pass.attempted += 1;
            if let Some(slot) = [1, 2, 4].iter().position(|&p| p == ranks) {
                pass.data.by_ranks[slot] += secs;
            }
            match out.and_then(|r| compare(kern, &r).map(|()| r)) {
                Ok(r) => {
                    let d = &mut pass.data;
                    d.model_s += r.time;
                    d.messages += r.messages;
                    d.bytes += r.bytes;
                    d.inplace += r.comm.iter().map(|c| c.inplace_sends).sum::<u64>();
                    d.buffered += r.comm.iter().map(|c| c.buffered_sends).sum::<u64>();
                }
                Err(e) => pass.failures.push(format!("{} {grid:?}: {e}", kern.name)),
            }
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass
    });
    let layers = if args.trace {
        traced_layers(&m)?
    } else {
        Layers::new()
    };
    let (e2e, tail) = harness::end_to_end(&setup_s, &m);
    let model: Vec<f64> = m
        .passes()
        .filter(|p| p.failures.is_empty())
        .map(|p| p.data.model_s)
        .collect();
    let code_bytes: usize = kernels
        .iter()
        .map(|k| render_program(&k.compiled.program).len())
        .sum();
    let detail = Obj::new()
        .u64("passes", m.plain.len() as u64)
        .u64("traced_passes", m.traced.len() as u64)
        .obj("pooled_tail", record::tail_obj(tail))
        .raw("sim_model_s", &record::number(stats::median(&model)))
        .u64("code_bytes", code_bytes as u64);
    Ok(record::report(args, &setup_s, &m, e2e, layers, detail))
}

/// Per-layer metrics: the simulator's from the traced passes, and the
/// compile layers' from one traced compilation of the three kernels (the
/// optimizations those count are what the simulated message traffic
/// reflects).
fn traced_layers(m: &Measured<PassData>) -> Result<Layers, String> {
    let c = Collector::new();
    let compiled = build(Some(&c))?;
    let mut base = Layers::new();
    for k in &compiled {
        let code = render_program(&k.compiled.program);
        layers::add_report(&mut base, &k.compiled.report, k.memo_entries, code.len());
    }
    layers::add_trace(&mut base, &c.trace());
    layers::finish_hit_rate(&mut base);
    let per_pass: Vec<Layers> = m
        .traced
        .iter()
        .map(|(p, _)| {
            let d = &p.data;
            let mut l = base.clone();
            l.set("sim.p1_s", d.by_ranks[0]);
            l.set("sim.p2_s", d.by_ranks[1]);
            l.set("sim.p4_s", d.by_ranks[2]);
            l.set("sim.messages", d.messages as f64);
            l.set("sim.payload_bytes", d.bytes as f64);
            let sends = d.inplace + d.buffered;
            if sends > 0 {
                l.set("sim.inplace_frac", d.inplace as f64 / sends as f64);
            }
            l
        })
        .collect();
    let mut l = Layers::median_of(&per_pass);
    l.set("obs.trace_overhead_frac", m.trace_overhead());
    Ok(l)
}
