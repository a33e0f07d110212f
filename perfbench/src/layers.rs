//! Per-layer attribution of compilations: counters from the
//! `CompileReport`, and self times and per-phase op counts from the span
//! tree the compiler records into an attached collector.

use crate::harness::Layers;
use dhpf_core::CompileReport;
use dhpf_obs::Trace;

/// Table-1 phase span names and the `core.<phase>` prefix each reports as.
const PHASES: &[(&str, &str)] = &[
    ("partitioning computation", "core.partitioning"),
    ("loop splitting", "core.loop_splitting"),
    ("loop bounds reduction", "core.bounds_reduction"),
    ("communication generation", "core.comm_gen"),
    ("loops over comm partners", "core.comm_partners"),
    ("check if msg is contiguous", "core.contiguity"),
];

/// Omega op-sample names and their short metric names.
const OPS: &[(&str, &str)] = &[
    ("satisfiability", "sat"),
    ("fme projection", "fme"),
    ("negation", "negate"),
    ("gist", "gist"),
    ("simplify", "simplify"),
];

/// Adds one compilation's report counters: memo calls and misses per op,
/// interned conjuncts, evictions, resident memo entries, synthesis
/// statistics and the rendered code size.
pub fn add_report(l: &mut Layers, r: &CompileReport, memo_entries: u64, code_bytes: usize) {
    let c = &r.cache;
    for (short, counts) in [
        ("sat", c.sat),
        ("fme", c.eliminate),
        ("negate", c.negate),
        ("gist", c.gist),
        ("simplify", c.simplify),
    ] {
        l.add(
            &format!("omega.{short}.calls"),
            (counts.hits + counts.misses) as f64,
        );
        l.add(&format!("omega.{short}.misses"), counts.misses as f64);
    }
    l.add("omega.calls", (c.total_hits() + c.total_misses()) as f64);
    l.add("omega.misses", c.total_misses() as f64);
    l.add("omega.interned_conjuncts", c.interned_conjuncts as f64);
    l.add("omega.evictions", c.total_evictions() as f64);
    l.add("omega.memo_entries", memo_entries as f64);
    let s = &r.stats;
    l.add("core.comm_events", s.comm_events as f64);
    l.add("core.coalesced_groups", s.coalesced_groups as f64);
    l.add("core.contiguous_events", s.contiguous_events as f64);
    l.add("core.split_nests", s.split_nests as f64);
    l.add("core.degradations", s.degradations.len() as f64);
    l.add("codegen.code_bytes", code_bytes as f64);
}

/// Sets `omega.hit_rate` from the summed calls and misses.
pub fn finish_hit_rate(l: &mut Layers) {
    let calls = l.get("omega.calls");
    if calls > 0.0 {
        l.set("omega.hit_rate", 1.0 - l.get("omega.misses") / calls);
    }
}

/// Adds what a span tree holds about the compilations recorded in it:
/// the self time of each Table-1 phase, parsing and multiple-mappings
/// code generation; satisfiability and FME calls made directly in each
/// phase; inclusive time per Omega op; and, for the compilations that ran
/// nest tasks on worker threads, the workers' busy time and the
/// compilations' wall time (for `parallel.utilization`). Returns
/// `(worker busy seconds, compile wall seconds)`.
pub fn add_trace(l: &mut Layers, t: &Trace) -> (f64, f64) {
    let mut busy = 0.0;
    let mut wall = 0.0;
    for (i, n) in t.nodes.iter().enumerate() {
        let secs = |ns: u64| ns as f64 / 1e9;
        if n.cat == "compile" {
            wall += secs(n.dur_ns);
        }
        // A span opened on another thread than its parent is a nest task
        // the parallel driver ran on a worker.
        if n.parent.is_some_and(|p| t.nodes[p].thread != n.thread) {
            busy += secs(n.dur_ns);
        }
        for &(span, short) in OPS {
            if let Some(op) = n.ops.get(span) {
                l.add(&format!("omega.{short}.time_s"), secs(op.total_ns));
            }
        }
        if n.cat != "phase" {
            continue;
        }
        let self_s = secs(t.self_ns(i));
        match n.name.as_str() {
            "parsing" => l.add("hpf.parse_s", self_s),
            "mult mappings code generation" => l.add("codegen.mm_codegen_s", self_s),
            name => {
                if let Some(&(_, prefix)) = PHASES.iter().find(|(p, _)| *p == name) {
                    l.add(&format!("{prefix}_s"), self_s);
                    let calls = |op: &str| n.ops.get(op).map_or(0.0, |s| s.calls as f64);
                    l.add(&format!("{prefix}.fme_calls"), calls("fme projection"));
                    l.add(&format!("{prefix}.sat_calls"), calls("satisfiability"));
                }
            }
        }
    }
    (busy, wall)
}
