//! The benchmark's input programs: the repository's four HPF kernels and
//! the variants derived from them by rewriting one source line.

/// JACOBI 128x128, (BLOCK, BLOCK) on a 2 x P grid.
pub const JACOBI: &str = include_str!("../../benchmarks/jacobi.hpf");
/// TOMCATV 257x257, (BLOCK, *).
pub const TOMCATV: &str = include_str!("../../benchmarks/tomcatv.hpf");
/// ERLEBACHER 32^3, (*, *, BLOCK).
pub const ERLEBACHER: &str = include_str!("../../benchmarks/erlebacher.hpf");
/// SP (extent 34), (*, BLOCK, BLOCK) on a fixed 2 x 2 grid (SP-4).
pub const SP: &str = include_str!("../../benchmarks/sp.hpf");

const SP_FIXED: &str = "!HPF$ processors p(2, 2)";
const SP_SYMBOLIC: &str = "!HPF$ processors p(2, number_of_processors())";

/// Replaces exactly one occurrence of `from`, so a rewrite that no longer
/// matches its source fails loudly instead of silently compiling the
/// unmodified program.
pub fn rewrite(src: &str, from: &str, to: &str) -> Result<String, String> {
    match src.matches(from).count() {
        1 => Ok(src.replacen(from, to, 1)),
        n => Err(format!("rewrite {from:?}: expected 1 match, found {n}")),
    }
}

/// SP with the symbolic processor count (SP-sym).
pub fn sp_symbolic() -> String {
    rewrite(SP, SP_FIXED, SP_SYMBOLIC).expect("sp.hpf declares processors p(2, 2)")
}

/// The synthesis statistics the committed Table 1 lists for a program:
/// communication events, fully vectorized events, coalesced groups,
/// contiguous events and split nests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Synthesis {
    pub comm_events: usize,
    pub vectorized: usize,
    pub coalesced: usize,
    pub contiguous: usize,
    pub split_nests: usize,
}

/// One program of a compile pass, with the hand-written statistics it must
/// reproduce where the paper's Table 1 covers it.
pub struct Program {
    pub name: &'static str,
    pub source: String,
    pub expect: Option<Synthesis>,
}

/// The `compile_cold` programs: Table 1's three columns (values copied from
/// `table1_output.txt`) plus the two remaining Figure 7 kernels.
pub fn cold_programs() -> Vec<Program> {
    vec![
        Program {
            name: "SP-4",
            source: SP.to_string(),
            expect: Some(Synthesis {
                comm_events: 9,
                vectorized: 7,
                coalesced: 7,
                contiguous: 2,
                split_nests: 3,
            }),
        },
        Program {
            name: "SP-sym",
            source: sp_symbolic(),
            expect: Some(Synthesis {
                comm_events: 10,
                vectorized: 7,
                coalesced: 7,
                contiguous: 2,
                split_nests: 3,
            }),
        },
        Program {
            name: "T-sym",
            source: TOMCATV.to_string(),
            expect: Some(Synthesis {
                comm_events: 2,
                vectorized: 2,
                coalesced: 2,
                contiguous: 0,
                split_nests: 1,
            }),
        },
        Program {
            name: "JACOBI",
            source: JACOBI.to_string(),
            expect: None,
        },
        Program {
            name: "ERLEBACHER",
            source: ERLEBACHER.to_string(),
            expect: None,
        },
    ]
}

/// The `compile_par2` programs: the two SP columns of Table 1.
pub fn par_programs() -> Vec<Program> {
    cold_programs()
        .into_iter()
        .filter(|p| p.name.starts_with("SP"))
        .collect()
}

/// One entry of the `serve_mix` catalog. Entries with the same `family`
/// differ in one line (grid or one edited statement) and share most of
/// their integer-set work.
pub struct CatalogEntry {
    pub name: String,
    pub family: String,
    pub source: String,
}

/// A kernel of the catalog: how to set its problem size, its fixed and
/// symbolic processor lines, and a one-statement edit.
struct Kernel {
    name: &'static str,
    source: &'static str,
    size_line: &'static str,
    sizes: &'static [(&'static str, &'static str)],
    grid_symbolic: &'static str,
    grid_fixed: &'static str,
    edit: (&'static str, &'static str),
}

const KERNELS: &[Kernel] = &[
    Kernel {
        name: "JACOBI",
        source: JACOBI,
        size_line: "parameter (n = 128)",
        sizes: &[("64", "parameter (n = 64)"), ("128", "parameter (n = 128)")],
        grid_symbolic: "!HPF$ processors p(2, number_of_processors())",
        grid_fixed: "!HPF$ processors p(2, 2)",
        edit: ("a(i,j) = 0.25 * (b(i-1,j)", "a(i,j) = 0.2 * (b(i-1,j)"),
    },
    Kernel {
        name: "TOMCATV",
        source: TOMCATV,
        size_line: "parameter (n = 257)",
        sizes: &[
            ("129", "parameter (n = 129)"),
            ("257", "parameter (n = 257)"),
        ],
        grid_symbolic: "!HPF$ processors p(number_of_processors())",
        grid_fixed: "!HPF$ processors p(4)",
        edit: (
            "x(i,j) = x(i,j) + 0.3 * rx(i,j)",
            "x(i,j) = x(i,j) + 0.4 * rx(i,j)",
        ),
    },
    Kernel {
        name: "ERLEBACHER",
        source: ERLEBACHER,
        size_line: "parameter (n = 32, nz = 32)",
        sizes: &[
            ("32", "parameter (n = 32, nz = 32)"),
            ("64", "parameter (n = 64, nz = 64)"),
        ],
        grid_symbolic: "!HPF$ processors p(number_of_processors())",
        grid_fixed: "!HPF$ processors p(4)",
        edit: (
            "rhs(i,j,k) = rhs(i,j,k) - 0.4 * rhs(i,j,k-1)",
            "rhs(i,j,k) = rhs(i,j,k) - 0.5 * rhs(i,j,k-1)",
        ),
    },
    Kernel {
        name: "SP",
        source: SP,
        size_line: "",
        sizes: &[("34", "")],
        grid_symbolic: SP_SYMBOLIC,
        grid_fixed: SP_FIXED,
        edit: (
            "rhs(2,i,j,k) = rhs(2,i,j,k) - 0.35 * rhs(2,i,j-1,k)",
            "rhs(2,i,j,k) = rhs(2,i,j,k) - 0.45 * rhs(2,i,j-1,k)",
        ),
    },
];

/// The `serve_mix` catalog: every kernel at each of its problem sizes,
/// on a fixed or a symbolic grid, unedited or with its one-statement edit.
pub fn catalog() -> Result<Vec<CatalogEntry>, String> {
    let mut out = Vec::new();
    for k in KERNELS {
        for (size, line) in k.sizes {
            let sized = if k.size_line.is_empty() {
                k.source.to_string()
            } else {
                rewrite(k.source, k.size_line, line)?
            };
            for symbolic in [false, true] {
                // Each source declares its own default grid; rewrite only
                // when the catalog entry asks for the other one.
                let gridded = if sized.contains(k.grid_fixed) != symbolic {
                    sized.clone()
                } else if symbolic {
                    rewrite(&sized, k.grid_fixed, k.grid_symbolic)?
                } else {
                    rewrite(&sized, k.grid_symbolic, k.grid_fixed)?
                };
                for edited in [false, true] {
                    let source = if edited {
                        rewrite(&gridded, k.edit.0, k.edit.1)?
                    } else {
                        gridded.clone()
                    };
                    out.push(CatalogEntry {
                        name: format!(
                            "{}-{}-{}{}",
                            k.name,
                            size,
                            if symbolic { "sym" } else { "fixed" },
                            if edited { "-edit" } else { "" }
                        ),
                        family: format!("{}-{}", k.name, size),
                        source,
                    });
                }
            }
        }
    }
    Ok(out)
}
