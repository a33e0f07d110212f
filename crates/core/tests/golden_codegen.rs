//! A fixed reference for the compiler's output.
//!
//! `parallel_equiv` checks that the output does not depend on the thread
//! count; this suite pins what that output *is*. For each benchmark kernel
//! it compares a fresh compile at `threads = 1` and `threads = 2` against
//! committed goldens: the rendered SPMD code (`tests/golden/*.txt`), the
//! synthesis statistics, and a 64-bit FNV-1a digest of the program's
//! `Debug` form, which covers every field the rendering leaves out
//! (event ids, nest ops, op tables).
//!
//! A legitimate change to code generation must regenerate the goldens and
//! say why the output moved.

use dhpf_core::{compile, compile_with, render_program, CompileOptions, SpmdStats};
use dhpf_omega::Context;

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../../../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");
const SP: &str = include_str!("../../../benchmarks/sp.hpf");

/// One kernel: its source, rendered code, statistics and program digest.
struct Golden {
    name: &'static str,
    src: String,
    code: &'static str,
    stats: SpmdStats,
    digest: u64,
}

fn stats(
    comm_events: usize,
    fully_vectorized: usize,
    contiguous_events: usize,
    split_nests: usize,
    coalesced_groups: usize,
) -> SpmdStats {
    SpmdStats {
        comm_events,
        fully_vectorized,
        contiguous_events,
        split_nests,
        coalesced_groups,
        degradations: Vec::new(),
    }
}

fn goldens() -> Vec<Golden> {
    let sp_sym = SP.replacen(
        "!HPF$ processors p(2, 2)",
        "!HPF$ processors p(2, number_of_processors())",
        1,
    );
    assert_ne!(sp_sym, SP, "sp.hpf no longer declares processors p(2, 2)");
    vec![
        Golden {
            name: "JACOBI",
            src: JACOBI.to_string(),
            code: include_str!("golden/jacobi.txt"),
            stats: stats(1, 1, 0, 1, 1),
            digest: 0xff2a_eb94_b99f_b4b3,
        },
        Golden {
            name: "TOMCATV",
            src: TOMCATV.to_string(),
            code: include_str!("golden/tomcatv.txt"),
            stats: stats(2, 2, 0, 1, 2),
            digest: 0x855f_594c_410d_072b,
        },
        Golden {
            name: "ERLEBACHER",
            src: ERLEBACHER.to_string(),
            code: include_str!("golden/erlebacher.txt"),
            stats: stats(5, 1, 0, 1, 1),
            digest: 0x88ae_14d2_04d9_e525,
        },
        Golden {
            name: "SP-4",
            src: SP.to_string(),
            code: include_str!("golden/sp4.txt"),
            stats: stats(9, 7, 2, 3, 7),
            digest: 0x40d1_8043_548a_6d22,
        },
        Golden {
            name: "SP-sym",
            src: sp_sym,
            code: include_str!("golden/sp_sym.txt"),
            stats: stats(10, 7, 2, 3, 7),
            digest: 0x2f47_7b8e_d893_6b22,
        },
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn check(threads: usize) {
    for g in goldens() {
        let c = compile(&g.src, &CompileOptions::new().threads(threads))
            .unwrap_or_else(|e| panic!("{} (threads = {threads}): {e}", g.name));
        assert_eq!(
            render_program(&c.program),
            g.code,
            "{} (threads = {threads}): rendered code differs from the golden",
            g.name
        );
        assert_eq!(
            c.report.stats, g.stats,
            "{} (threads = {threads}): synthesis statistics",
            g.name
        );
        assert_eq!(
            fnv1a(&format!("{:?}", c.program)),
            g.digest,
            "{} (threads = {threads}): program digest",
            g.name
        );
    }
}

#[test]
fn one_thread_matches_goldens() {
    check(1);
}

#[test]
fn two_threads_match_goldens() {
    check(2);
}

/// Each `Context` keys its interner's hash afresh, so interned ids and
/// shard placement differ from one context to the next. Nothing
/// observable may depend on them: two fresh contexts compile the same
/// program to the same `Debug` form with the same cache counters.
#[test]
fn output_and_counters_do_not_depend_on_hash_keys() {
    for g in goldens()
        .into_iter()
        .filter(|g| g.name == "SP-4" || g.name == "SP-sym")
    {
        let run = || {
            let c = compile_with(&Context::new(), &g.src, &CompileOptions::new())
                .unwrap_or_else(|e| panic!("{}: {e}", g.name));
            (format!("{:?}", c.program), c.report.cache)
        };
        let (code_a, cache_a) = run();
        let (code_b, cache_b) = run();
        assert!(
            code_a == code_b,
            "{}: output differs between contexts",
            g.name
        );
        assert_eq!(cache_a, cache_b, "{}: cache counters", g.name);
    }
}
