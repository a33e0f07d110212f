//! SPMD program synthesis: partitioned loop nests, communication events,
//! loop splitting, and reductions, assembled into an executable per-rank
//! program (interpreted by `dhpf-sim`).

use crate::comm::{comm_sets, CommRef};
use crate::cp::{cp_map_at_level, myid_set, proc_rank_of, slice_context};
use crate::dependence::placement_level_in;
use crate::inplace::{contiguity, Contiguity};
use crate::ir::{collect_in, ArrayRef, Reduction, StmtInfo};
use crate::layout::{Layout, ProcCoord};
use crate::split::split_sets;
use dhpf_codegen::{codegen, Code, CodegenOptions, Mapping, StmtId};
use dhpf_hpf::{Affine, Analysis, Expr, Stmt, StmtKind, TypeName};
use dhpf_omega::{Relation, Set, Var};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from SPMD synthesis.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// Frontend error.
    Frontend(dhpf_hpf::HpfError),
    /// A construct the SPMD generator does not support.
    Unsupported(String),
    /// Loop synthesis failed.
    Codegen(dhpf_codegen::CodegenError),
    /// A set-algebra operation hit an exactness limit (inexact negation,
    /// coefficient overflow, …) while analyzing the program.
    SetAlgebra(dhpf_omega::OmegaError),
    /// The compile budget (deadline or op fuel) was exhausted and the
    /// failing construct had no sound conservative fallback. The payload
    /// names the exhausted resource.
    Budget(&'static str),
    /// The compilation was cancelled through its
    /// [`CancelToken`](dhpf_omega::CancelToken). Cancellation never
    /// degrades: it is always surfaced as this error.
    Cancelled,
    /// A compiler task panicked; the payload is the panic message. The
    /// panic was contained by the driver's isolation boundary — sibling
    /// tasks ran to completion and no lock was poisoned.
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            CompileError::Codegen(e) => write!(f, "code generation failed: {e}"),
            CompileError::SetAlgebra(e) => write!(f, "set algebra failed: {e}"),
            CompileError::Budget(what) => write!(f, "compile budget exceeded: {what}"),
            CompileError::Cancelled => write!(f, "compilation cancelled"),
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl CompileError {
    /// The stable machine-readable [`ErrorCode`](dhpf_omega::ErrorCode) of
    /// this error — the code `dhpf-serve` serializes and tests assert on,
    /// shared with [`OmegaError::code`](dhpf_omega::OmegaError::code).
    pub fn code(&self) -> dhpf_omega::ErrorCode {
        match self {
            CompileError::Frontend(_) => dhpf_omega::ErrorCode::Frontend,
            CompileError::Unsupported(_) => dhpf_omega::ErrorCode::Unsupported,
            CompileError::Codegen(_) => dhpf_omega::ErrorCode::Codegen,
            CompileError::SetAlgebra(e) => e.code(),
            CompileError::Budget(_) => dhpf_omega::ErrorCode::Budget,
            CompileError::Cancelled => dhpf_omega::ErrorCode::Cancelled,
            CompileError::Internal(_) => dhpf_omega::ErrorCode::Internal,
        }
    }
}

impl std::error::Error for CompileError {}

impl From<dhpf_hpf::HpfError> for CompileError {
    fn from(e: dhpf_hpf::HpfError) -> Self {
        CompileError::Frontend(e)
    }
}

impl From<dhpf_codegen::CodegenError> for CompileError {
    fn from(e: dhpf_codegen::CodegenError) -> Self {
        CompileError::Codegen(e)
    }
}

impl From<dhpf_omega::OmegaError> for CompileError {
    fn from(e: dhpf_omega::OmegaError) -> Self {
        match e {
            dhpf_omega::OmegaError::Cancelled => CompileError::Cancelled,
            dhpf_omega::OmegaError::BudgetExceeded(what) => CompileError::Budget(what),
            e => CompileError::SetAlgebra(e),
        }
    }
}

/// True for errors the driver may absorb by falling back to a sound
/// conservative construct: exactness failures and budget exhaustion.
/// Cancellation and structural errors (unsupported constructs, panics)
/// always abort.
pub(crate) fn degradable(e: &CompileError) -> bool {
    matches!(
        e,
        CompileError::SetAlgebra(_) | CompileError::Budget(_) | CompileError::Codegen(_)
    )
}

/// One compiled assignment statement.
#[derive(Clone, Debug)]
pub struct CompiledStmt {
    /// Target name (array or scalar).
    pub lhs: String,
    /// LHS subscripts (empty for scalars).
    pub subs: Vec<Expr>,
    /// Right-hand side.
    pub rhs: Expr,
    /// Enclosing IF conditions (all must hold).
    pub guards: Vec<Expr>,
    /// Floating-point operation count (for the machine model).
    pub cost: u64,
}

/// Operations referenced by `Code::Stmt` ids inside a nest.
#[derive(Clone, Debug)]
pub enum NestOp {
    /// Execute an assignment instance.
    Assign(CompiledStmt),
    /// Pack and send all messages of a communication event.
    CommSend(usize),
    /// Receive and unpack all messages of a communication event.
    CommRecv(usize),
}

/// A communication event: what `myid` sends and receives.
#[derive(Clone, Debug)]
pub struct CommEvent {
    /// Event id (message tag).
    pub id: usize,
    /// The communicated array.
    pub array: String,
    /// Code enumerating `SendCommMap(m)` over `[q1..qr, d1..dk]`.
    pub send_code: Code,
    /// Code enumerating `RecvCommMap(m)` over `[q1..qr, d1..dk]`.
    pub recv_code: Code,
    /// Processor-space rank.
    pub proc_rank: u32,
    /// Array rank.
    pub data_rank: u32,
    /// True if §3.3 proved the messages contiguous (in-place eligible:
    /// the simulator charges no pack/unpack copy cost).
    pub contiguous: bool,
    /// Loop level the event was vectorized to (0 = out of the whole nest).
    pub level: u32,
}

/// A partitioned loop nest with embedded communication markers.
#[derive(Clone, Debug)]
pub struct NestItem {
    /// The generated code; `Stmt(id)` indexes into `ops`.
    pub code: Code,
    /// Operation table.
    pub ops: Vec<NestOp>,
    /// Reductions to combine after the nest (scalar, op).
    pub reductions: Vec<Reduction>,
    /// True if Figure-4 loop splitting restructured this nest.
    pub split: bool,
}

/// One element of the SPMD program.
#[derive(Clone, Debug)]
pub enum SpmdItem {
    /// A statement replicated on every rank (`read`, `print`, pure-scalar
    /// assignments and IFs).
    Serial(Stmt),
    /// A replicated (time-step) loop whose body is more items.
    SerialLoop {
        /// Loop variable (bound in every rank's environment).
        var: String,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
        /// Body items.
        body: Vec<SpmdItem>,
    },
    /// A partitioned nest.
    Nest(NestItem),
}

/// Per-dimension processor grid specification.
#[derive(Clone, Debug)]
pub struct ProcDimSpec {
    /// The dimension's realization.
    pub coord: ProcCoord,
    /// Distributed template extent (needed to compute block sizes for
    /// symbolic distributions).
    pub extent: Option<Affine>,
}

/// Array allocation info.
#[derive(Clone, Debug)]
pub struct ArraySpec {
    /// Per-dimension `(lower, upper)` bounds.
    pub dims: Vec<(Affine, Affine)>,
    /// Element type.
    pub ty: TypeName,
    /// Code enumerating the locally-owned index set (for result gathering);
    /// `None` for replicated arrays.
    pub owned_code: Option<Code>,
}

/// The compiled SPMD program.
#[derive(Clone, Debug)]
pub struct SpmdProgram {
    /// Program name.
    pub name: String,
    /// Processor grid dimensions.
    pub proc_dims: Vec<ProcDimSpec>,
    /// Array allocations.
    pub arrays: BTreeMap<String, ArraySpec>,
    /// Runtime input scalars (from `read`).
    pub inputs: Vec<String>,
    /// The program body.
    pub items: Vec<SpmdItem>,
    /// All communication events (indexed by [`CommEvent::id`]).
    pub events: Vec<CommEvent>,
}

/// One recorded graceful degradation: where the exact analysis gave up,
/// why, and which sound conservative construct replaced it. Collected in
/// [`SpmdStats::degradations`] in source nest order at every thread count,
/// so the list is deterministic for a given program, options, and fault
/// plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Degradation {
    /// The construct that degraded: `"split"` (Figure-4 loop splitting
    /// abandoned), `"comm_sets"` (one event fell back to the conservative
    /// full exchange), or `"nest"` (the whole nest was replicated).
    pub site: &'static str,
    /// The affected array, when the degradation is array-scoped.
    pub array: Option<String>,
    /// The error that triggered the fallback.
    pub reason: String,
    /// What the compiler did instead.
    pub action: &'static str,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.site)?;
        if let Some(a) = &self.array {
            write!(f, "({a})")?;
        }
        write!(f, ": {} — {}", self.reason, self.action)
    }
}

/// Statistics gathered during synthesis (feeds the Table 1 harness).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpmdStats {
    /// Number of communication events generated.
    pub comm_events: usize,
    /// Events vectorized out of the full nest.
    pub fully_vectorized: usize,
    /// Events proven contiguous (§3.3).
    pub contiguous_events: usize,
    /// Nests restructured by loop splitting.
    pub split_nests: usize,
    /// Coalesced reference groups (more than one reference per event).
    pub coalesced_groups: usize,
    /// Graceful degradations taken, in source nest order. Empty means the
    /// whole program compiled exactly.
    pub degradations: Vec<Degradation>,
}

/// Options for SPMD synthesis.
#[derive(Clone, Debug)]
pub struct SpmdOptions {
    /// Apply Figure-4 loop splitting for communication overlap.
    pub loop_splitting: bool,
}

impl Default for SpmdOptions {
    fn default() -> Self {
        SpmdOptions {
            loop_splitting: true,
        }
    }
}

/// Context shared across synthesis.
pub(crate) struct Synth<'a> {
    analysis: &'a Analysis,
    layouts: &'a BTreeMap<String, Layout>,
    opts: &'a SpmdOptions,
    events: Vec<CommEvent>,
    stats: SpmdStats,
    timers: &'a mut crate::phases::PhaseTimers,
    /// The Omega context the layouts carry (if any): attached to every
    /// root set built during synthesis so all derived operations share it.
    octx: Option<dhpf_omega::Context>,
}

impl Synth<'_> {
    fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        // PhaseTimers::time needs &mut PhaseTimers; emulate with open/close
        // so we can keep borrowing self while nested phases still link to
        // their parent (no double-counted self time).
        self.timers.open(name);
        let t0 = std::time::Instant::now();
        let out = f(self);
        self.timers.close(name, t0.elapsed());
        out
    }

    /// Records one graceful degradation.
    fn degrade(
        &mut self,
        site: &'static str,
        array: Option<&str>,
        reason: &dyn fmt::Display,
        action: &'static str,
    ) {
        self.stats.degradations.push(Degradation {
            site,
            array: array.map(str::to_string),
            reason: reason.to_string(),
            action,
        });
    }
}

/// Assembles the unit-level program around already-built items: processor
/// grid, array allocations (with owned-set enumeration code), inputs. The
/// last step of [`assemble_spmd`], run inside the driver's per-unit
/// assembly task.
fn finish_program(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    items: Vec<SpmdItem>,
    events: Vec<CommEvent>,
) -> Result<SpmdProgram, CompileError> {
    // Unit assembly is *structural*: owned-set enumeration per declared
    // array, grid and input collection — bounded work proportional to the
    // declarations, with no sound fallback (a program without its
    // allocation code is not a program). The budget governs analysis and
    // per-nest synthesis, not this epilogue, so it runs in a governor
    // grace scope: a tripped budget cannot fail it, and injection skips
    // it (cancellation stays live).
    let _grace = dhpf_omega::governor_grace();
    // Processor grid: from the distributed layouts (all share one arrangement).
    let proc_dims = grid_of(analysis, layouts);
    // Arrays.
    let mut arrays = BTreeMap::new();
    for (name, info) in &analysis.arrays {
        let layout = &layouts[name];
        let owned_code = if layout.replicated {
            None
        } else {
            let owned = layout.rel.apply(&myid_set(layout.proc_rank()));
            let names: Vec<String> = (0..info.dims.len())
                .map(|d| format!("d{}", d + 1))
                .collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            Some(dhpf_codegen::codegen_set(
                &owned,
                StmtId(0),
                &name_refs,
                &CodegenOptions::default(),
            )?)
        };
        arrays.insert(
            name.clone(),
            ArraySpec {
                dims: info.dims.clone(),
                ty: info.ty,
                owned_code,
            },
        );
    }
    let mut inputs = Vec::new();
    collect_inputs(&analysis.unit.body, &mut inputs);
    Ok(SpmdProgram {
        name: analysis.unit.name.clone(),
        proc_dims,
        arrays,
        inputs,
        items,
        events,
    })
}

fn grid_of(analysis: &Analysis, layouts: &BTreeMap<String, Layout>) -> Vec<ProcDimSpec> {
    // Find a non-replicated layout and take its coordinate structure,
    // pairing each processor dimension with its template extent.
    for (aname, l) in layouts {
        if l.replicated {
            continue;
        }
        let info = &analysis.arrays[aname];
        let Some(align) = &info.align else { continue };
        let Some(t) = analysis.templates.get(&align.template) else {
            continue;
        };
        let Some(dist) = &t.dist else { continue };
        let mut out = Vec::new();
        let mut pdim = 0;
        for (tdim, f) in dist.formats.iter().enumerate() {
            if matches!(f, dhpf_hpf::DistFormat::Star) {
                continue;
            }
            out.push(ProcDimSpec {
                coord: l.coords[pdim].clone(),
                extent: Some(t.extents[tdim].clone()),
            });
            pdim += 1;
        }
        return out;
    }
    vec![ProcDimSpec {
        coord: ProcCoord::Physical { count: 1 },
        extent: None,
    }]
}

fn collect_inputs(body: &[Stmt], out: &mut Vec<String>) {
    for s in body {
        match &s.kind {
            StmtKind::Read { vars } => out.extend(vars.iter().cloned()),
            StmtKind::Do { body, .. } => collect_inputs(body, out),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                collect_inputs(then_body, out);
                collect_inputs(else_body, out);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Unit synthesis: plan → build each nest standalone → assemble
// ---------------------------------------------------------------------------
//
// A unit is synthesized in three steps, at every thread count: (1) *plan*
// the item skeleton up front (a pure structural pass over the AST), (2)
// build each extracted nest *standalone* — as one task of the driver's
// nest DAG — with local event ids counted from 0, and (3) *assemble*:
// walk the skeleton in order, offsetting each nest's event ids by the
// running total so events are numbered in source traversal order.
// Synthesis statistics are per-nest and additive, so summing them in nest
// order gives the unit's statistics.

/// Skeleton of a unit's item list with nest bodies factored out by index.
pub(crate) enum ItemSkel {
    /// A replicated statement.
    Serial(Stmt),
    /// A replicated loop over more skeleton items.
    SerialLoop {
        /// Loop variable.
        var: String,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
        /// Body skeleton.
        body: Vec<ItemSkel>,
    },
    /// The `i`-th extracted nest body (index into [`UnitPlan::nests`]).
    Nest(usize),
}

/// A planned unit: the item skeleton plus the extracted nest bodies, each
/// of which can be synthesized independently.
pub(crate) struct UnitPlan {
    /// Item structure, with nests by index.
    pub skel: Vec<ItemSkel>,
    /// Nest bodies, in source traversal order.
    pub nests: Vec<Vec<Stmt>>,
}

/// Plans a unit's items without doing any set algebra: `skel` is the item
/// structure and `nests` lists nest bodies in source traversal order.
/// Consecutive array assignments (and scalar assignments that read
/// distributed arrays, e.g. reductions) fuse into one nest; a parallel DO
/// or an IF with array assignments stands alone (fusing separate source
/// loops could violate dependences); a DO whose index subscripts no
/// distributed array is a replicated serial loop whose body is planned
/// recursively.
pub(crate) fn plan_items(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    body: &[Stmt],
) -> Result<UnitPlan, CompileError> {
    let mut nests = Vec::new();
    let skel = plan_body(analysis, layouts, body, &mut nests)?;
    Ok(UnitPlan { skel, nests })
}

fn plan_body(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    body: &[Stmt],
    nests: &mut Vec<Vec<Stmt>>,
) -> Result<Vec<ItemSkel>, CompileError> {
    fn flush(pending: &mut Vec<Stmt>, items: &mut Vec<ItemSkel>, nests: &mut Vec<Vec<Stmt>>) {
        if !pending.is_empty() {
            items.push(ItemSkel::Nest(nests.len()));
            nests.push(std::mem::take(pending));
        }
    }
    let mut items = Vec::new();
    let mut pending: Vec<Stmt> = Vec::new();
    for s in body {
        match &s.kind {
            StmtKind::Read { .. } | StmtKind::Print { .. } => {
                flush(&mut pending, &mut items, nests);
                items.push(ItemSkel::Serial(s.clone()));
            }
            StmtKind::Call { name, .. } => {
                return Err(CompileError::Unsupported(format!(
                    "call to '{name}' (inline subroutines before SPMD synthesis)"
                )));
            }
            StmtKind::Assign { name, rhs, .. } => {
                if !analysis.is_array(name) && !reads_distributed_array(analysis, layouts, rhs) {
                    flush(&mut pending, &mut items, nests);
                    items.push(ItemSkel::Serial(s.clone()));
                } else {
                    pending.push(s.clone());
                }
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                flush(&mut pending, &mut items, nests);
                if is_pure_scalar_block(analysis, layouts, then_body)
                    && is_pure_scalar_block(analysis, layouts, else_body)
                {
                    items.push(ItemSkel::Serial(s.clone()));
                } else {
                    items.push(ItemSkel::Nest(nests.len()));
                    nests.push(vec![s.clone()]);
                }
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                body: do_body,
                ..
            } => {
                flush(&mut pending, &mut items, nests);
                if is_serial_loop(analysis, layouts, var, do_body) {
                    let inner = plan_body(analysis, layouts, do_body, nests)?;
                    items.push(ItemSkel::SerialLoop {
                        var: var.clone(),
                        lo: lo.clone(),
                        hi: hi.clone(),
                        body: inner,
                    });
                } else {
                    items.push(ItemSkel::Nest(nests.len()));
                    nests.push(vec![s.clone()]);
                }
            }
        }
    }
    flush(&mut pending, &mut items, nests);
    Ok(items)
}

/// Output of one standalone nest synthesis: the nest item with event ids
/// local to the nest (counted from 0), the events themselves, and the
/// statistics and phase timings the nest accumulated.
pub(crate) struct NestOut {
    /// The synthesized nest.
    pub item: NestItem,
    /// The nest's communication events, ids local (0-based).
    pub events: Vec<CommEvent>,
    /// Synthesis statistics for this nest alone.
    pub stats: SpmdStats,
    /// Phase timings for this nest alone (merge into the unit's timers
    /// with `PhaseTimers::merge`).
    pub timers: crate::phases::PhaseTimers,
}

/// Synthesizes one planned nest in isolation (safe to run on a worker
/// thread: the layouts' shared `Context` is `Sync`). If `obs` is given,
/// the nest's phase spans are stitched under the anchor span via
/// [`dhpf_obs::Collector::begin_child_of`].
pub(crate) fn build_nest_standalone(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    opts: &SpmdOptions,
    body: &[Stmt],
    label: &str,
    obs: Option<(dhpf_obs::Collector, dhpf_obs::SpanId)>,
) -> Result<NestOut, CompileError> {
    let octx = layouts.values().find_map(|l| l.rel.context().cloned());
    let mut timers = crate::phases::PhaseTimers::new();
    let wrapper = obs.map(|(c, anchor)| {
        let id = c.begin_child_of(anchor, label, "phase");
        timers.attach_collector(c.clone());
        (c, id)
    });
    let item = {
        let mut synth = Synth {
            analysis,
            layouts,
            opts,
            events: Vec::new(),
            stats: SpmdStats::default(),
            timers: &mut timers,
            octx,
        };
        let item = build_nest(&mut synth, body);
        let events = synth.events;
        let stats = synth.stats;
        item.map(|item| (item, events, stats))
    };
    if let Some((c, id)) = wrapper {
        c.end(id);
    }
    timers.finish();
    let (item, events, stats) = item?;
    Ok(NestOut {
        item,
        events,
        stats,
        timers,
    })
}

/// Assembles standalone nest outputs back into a unit program, numbering
/// events in source traversal order: each nest's local event ids are
/// shifted by the number of events in all earlier nests, and the
/// `CommSend`/`CommRecv` op references inside the nest are rewritten to
/// match. Returns the program plus the summed statistics.
pub(crate) fn assemble_spmd(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    skel: &[ItemSkel],
    nest_outs: Vec<NestOut>,
) -> Result<(SpmdProgram, SpmdStats), CompileError> {
    let mut events: Vec<CommEvent> = Vec::new();
    let mut stats = SpmdStats::default();
    let mut items_by_nest: Vec<Option<NestItem>> = Vec::with_capacity(nest_outs.len());
    for out in nest_outs {
        let offset = events.len();
        let mut item = out.item;
        for op in &mut item.ops {
            match op {
                NestOp::CommSend(e) | NestOp::CommRecv(e) => *e += offset,
                NestOp::Assign(_) => {}
            }
        }
        for mut ev in out.events {
            ev.id += offset;
            events.push(ev);
        }
        stats.comm_events += out.stats.comm_events;
        stats.fully_vectorized += out.stats.fully_vectorized;
        stats.contiguous_events += out.stats.contiguous_events;
        stats.split_nests += out.stats.split_nests;
        stats.coalesced_groups += out.stats.coalesced_groups;
        // Degradations concatenate in nest order, so the list (and thus
        // the whole stats value) is independent of the thread count.
        stats.degradations.extend(out.stats.degradations);
        items_by_nest.push(Some(item));
    }
    fn realize(skel: &[ItemSkel], nests: &mut [Option<NestItem>]) -> Vec<SpmdItem> {
        skel.iter()
            .map(|s| match s {
                ItemSkel::Serial(stmt) => SpmdItem::Serial(stmt.clone()),
                ItemSkel::SerialLoop { var, lo, hi, body } => SpmdItem::SerialLoop {
                    var: var.clone(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                    body: realize(body, nests),
                },
                ItemSkel::Nest(i) => {
                    SpmdItem::Nest(nests[*i].take().expect("each nest realized once"))
                }
            })
            .collect()
    }
    let items = realize(skel, &mut items_by_nest);
    let program = finish_program(analysis, layouts, items, events)?;
    Ok((program, stats))
}

fn reads_distributed_array(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    e: &Expr,
) -> bool {
    match e {
        Expr::Ref(name, args) => {
            (analysis.is_array(name) && !layouts[name].replicated)
                || args
                    .iter()
                    .any(|a| reads_distributed_array(analysis, layouts, a))
        }
        Expr::Bin(_, a, b) => {
            reads_distributed_array(analysis, layouts, a)
                || reads_distributed_array(analysis, layouts, b)
        }
        Expr::Un(_, a) => reads_distributed_array(analysis, layouts, a),
        _ => false,
    }
}

fn is_pure_scalar_block(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    body: &[Stmt],
) -> bool {
    body.iter().all(|s| match &s.kind {
        StmtKind::Assign { name, rhs, .. } => {
            !analysis.is_array(name) && !reads_distributed_array(analysis, layouts, rhs)
        }
        StmtKind::Print { .. } => true,
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => {
            is_pure_scalar_block(analysis, layouts, then_body)
                && is_pure_scalar_block(analysis, layouts, else_body)
        }
        _ => false,
    })
}

/// A DO loop is *serial* (replicated, e.g. a time-step or convergence loop)
/// when its index never appears in a subscript of a distributed array.
fn is_serial_loop(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    var: &str,
    body: &[Stmt],
) -> bool {
    !var_in_distributed_subscript(analysis, layouts, var, body)
}

fn var_in_distributed_subscript(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    var: &str,
    body: &[Stmt],
) -> bool {
    fn expr_has_var_subscript(
        analysis: &Analysis,
        layouts: &BTreeMap<String, Layout>,
        var: &str,
        e: &Expr,
    ) -> bool {
        match e {
            Expr::Ref(name, args) => {
                let in_sub = analysis.is_array(name)
                    && !layouts[name].replicated
                    && args.iter().any(|a| mentions_var(a, var));
                in_sub
                    || args
                        .iter()
                        .any(|a| expr_has_var_subscript(analysis, layouts, var, a))
            }
            Expr::Bin(_, a, b) => {
                expr_has_var_subscript(analysis, layouts, var, a)
                    || expr_has_var_subscript(analysis, layouts, var, b)
            }
            Expr::Un(_, a) => expr_has_var_subscript(analysis, layouts, var, a),
            _ => false,
        }
    }
    fn mentions_var(e: &Expr, var: &str) -> bool {
        match e {
            Expr::Var(v) => v == var,
            Expr::Ref(_, args) => args.iter().any(|a| mentions_var(a, var)),
            Expr::Bin(_, a, b) => mentions_var(a, var) || mentions_var(b, var),
            Expr::Un(_, a) => mentions_var(a, var),
            _ => false,
        }
    }
    body.iter().any(|s| match &s.kind {
        StmtKind::Assign {
            name, subs, rhs, ..
        } => {
            let lhs_hit = analysis.is_array(name)
                && !layouts[name].replicated
                && subs.iter().any(|a| mentions_var(a, var));
            lhs_hit || expr_has_var_subscript(analysis, layouts, var, rhs)
        }
        StmtKind::Do { body, .. } => var_in_distributed_subscript(analysis, layouts, var, body),
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => {
            var_in_distributed_subscript(analysis, layouts, var, then_body)
                || var_in_distributed_subscript(analysis, layouts, var, else_body)
        }
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Nest synthesis
// ---------------------------------------------------------------------------

/// Synthesizes one nest with the degradation ladder wrapped around the
/// exact path (the failure model in DESIGN.md §12):
///
/// - rung 0 (inside [`build_nest_exact`]): Figure-4 loop splitting fails →
///   keep the exact events, emit the unsplit schedule;
/// - rung 1 (inside [`build_nest_exact`]): a level-0 read event's Figure-3
///   equations fail → substitute the conservative full exchange for that
///   event only;
/// - rung 2 (here): anything else degradable fails → roll back whatever
///   the exact attempt accumulated and rebuild the nest *replicated*, with
///   conservative pre-refresh events.
///
/// Cancellation is checked at entry (nests are the driver's unit of
/// progress) and is never absorbed by the ladder.
fn build_nest(synth: &mut Synth, body: &[Stmt]) -> Result<NestItem, CompileError> {
    dhpf_omega::check_cancelled()?;
    if let Err(e) = dhpf_omega::inject_check("nest") {
        let e = CompileError::from(e);
        if !degradable(&e) {
            return Err(e);
        }
        synth.degrade(
            "nest",
            None,
            &e,
            "replicated nest with conservative refresh",
        );
        return build_nest_replicated(synth, body);
    }
    let events_mark = synth.events.len();
    let stats_mark = synth.stats.clone();
    // Infallible set-algebra entry points (`then`, `domain`, projection)
    // surface a governed abort by *panicking*; when the budget has
    // tripped, catch the unwind and degrade like any other budget error.
    // Panics with an untripped budget are genuine bugs (or injected
    // panics probing unwind isolation) and are re-raised to the driver's
    // isolation boundary.
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        build_nest_exact(synth, body)
    }));
    let attempt = match attempt {
        Ok(r) => r,
        Err(payload) => {
            match dhpf_omega::RequestGovernor::current().and_then(|g| g.stats().tripped) {
                Some(what) => Err(CompileError::Budget(what)),
                None => std::panic::resume_unwind(payload),
            }
        }
    };
    match attempt {
        Ok(item) => Ok(item),
        Err(e) if degradable(&e) => {
            // Roll back everything the failed exact attempt accumulated
            // (half-built events, stats — including rung-0/1 records of
            // abandoned work) so the replicated rebuild starts clean.
            synth.events.truncate(events_mark);
            synth.stats = stats_mark;
            synth.degrade(
                "nest",
                None,
                &e,
                "replicated nest with conservative refresh",
            );
            build_nest_replicated(synth, body)
        }
        Err(e) => Err(e),
    }
}

/// The rung-2 fallback: the whole nest is *replicated*. Every distributed
/// array the nest references is first refreshed with a conservative full
/// exchange (each rank receives every other rank's owned section, making
/// all copies owner-current); then every rank executes the full iteration
/// set with no partitioning, in original statement order. Reductions are
/// dropped from the item: each rank computes the complete value locally,
/// so combining partials would over-count. After the nest every rank's
/// copy of each written array is identical and owner-current, so later
/// exact nests — and the simulator's owned-region result gathering — stay
/// correct.
fn build_nest_replicated(synth: &mut Synth, body: &[Stmt]) -> Result<NestItem, CompileError> {
    // The rebuild runs in a governor grace scope: it executes precisely
    // when the budget has tripped or a fault fired, and its own (cheap,
    // bounded) set algebra and codegen must not re-fail. Cancellation
    // stays live inside the scope.
    let _grace = dhpf_omega::governor_grace();
    let stmts = collect_in(synth.analysis, body);
    if stmts.is_empty() {
        return Ok(NestItem {
            code: Code::empty(),
            ops: Vec::new(),
            reductions: Vec::new(),
            split: false,
        });
    }
    // Refresh every distributed array the nest references, in sorted
    // order for determinism.
    let mut arrays: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for s in &stmts {
        for r in &s.reads {
            if synth.layouts.get(&r.array).is_some_and(|l| !l.replicated) {
                arrays.insert(&r.array);
            }
        }
        if let Some(l) = &s.lhs {
            if synth.layouts.get(&l.array).is_some_and(|ly| !ly.replicated) {
                arrays.insert(&l.array);
            }
        }
    }
    let mut ops: Vec<NestOp> = Vec::new();
    let mut chunks: Vec<Code> = Vec::new();
    for array in arrays {
        let array = array.to_string();
        let sets = crate::comm::conservative_comm_sets(&synth.layouts[&array]);
        if sets.recv_map.is_empty() {
            continue; // single-rank grid: nothing to refresh
        }
        let id = push_event(synth, &array, &sets.send_map, &sets.recv_map, 0)?;
        let op = ops.len();
        ops.push(NestOp::CommSend(id));
        chunks.push(Code::Stmt(StmtId(op)));
        let op = ops.len();
        ops.push(NestOp::CommRecv(id));
        chunks.push(Code::Stmt(StmtId(op)));
    }
    // Full-iteration code, group by group, mirroring the exact path's
    // grouping so statement order is preserved.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (k, s) in stmts.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if stmts[g[0]].ctx.vars == s.ctx.vars => g.push(k),
            _ => groups.push(vec![k]),
        }
    }
    for g in &groups {
        let names: Vec<&str> = stmts[g[0]].ctx.vars.iter().map(String::as_str).collect();
        let mut mappings = Vec::new();
        for &k in g {
            let s = &stmts[k];
            let mut space = s.ctx.iteration_set();
            space.set_context(synth.octx.as_ref());
            let op = ops.len();
            ops.push(NestOp::Assign(compile_stmt(s)));
            mappings.push(Mapping {
                stmt: StmtId(op),
                space,
            });
        }
        let code = synth.time("mult mappings code generation", |_| {
            codegen(&mappings, &names, &CodegenOptions::default())
        })?;
        chunks.push(code);
    }
    Ok(NestItem {
        code: Code::Seq(chunks),
        ops,
        reductions: Vec::new(),
        split: false,
    })
}

fn build_nest_exact(synth: &mut Synth, body: &[Stmt]) -> Result<NestItem, CompileError> {
    let stmts = collect_in(synth.analysis, body);
    if stmts.is_empty() {
        return Ok(NestItem {
            code: Code::empty(),
            ops: Vec::new(),
            reductions: Vec::new(),
            split: false,
        });
    }
    // All writes in the nest (for dependence-based placement).
    let writes: Vec<(usize, ArrayRef)> = stmts
        .iter()
        .enumerate()
        .filter_map(|(k, s)| s.lhs.clone().map(|l| (k, l)))
        .collect();

    // Plan communication events: group potentially non-local reads by
    // (array, placement level, statement-group) for coalescing.
    #[derive(Default)]
    struct EventPlan {
        refs: Vec<CommRef>,
        /// (statement index, read index) pairs behind `refs`.
        sources: Vec<(usize, usize)>,
        level: u32,
        array: String,
        group_of_stmt: usize,
    }
    let mut plans: BTreeMap<(String, u32, usize), EventPlan> = BTreeMap::new();

    // Statement groups: consecutive statements with identical loop nests.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (k, s) in stmts.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if stmts[g[0]].ctx.vars == s.ctx.vars => g.push(k),
            _ => groups.push(vec![k]),
        }
    }
    let group_of = |k: usize| groups.iter().position(|g| g.contains(&k)).unwrap();

    for (k, s) in stmts.iter().enumerate() {
        for (ri, r) in s.reads.iter().enumerate() {
            let Some(layout) = synth.layouts.get(&r.array) else {
                continue;
            };
            if layout.replicated {
                continue;
            }
            // Owner-computes self-reference: a read identical to the sole
            // ON_HOME term is local by definition (the paper's "early
            // phases identify potentially non-local references").
            if s.on_home.len() == 1 && s.on_home[0].array == r.array && s.on_home[0].subs == r.subs
            {
                continue;
            }
            let same_ctx_writes: Vec<&ArrayRef> = writes
                .iter()
                .filter(|(wk, w)| stmts[*wk].ctx.vars == s.ctx.vars && w.array == r.array)
                .map(|(_, w)| w)
                .collect();
            let mut level = synth.time("communication placement", |sy| {
                placement_level_in(r, &same_ctx_writes, &s.ctx, sy.octx.as_ref())
            });
            // Cross-context writes to the same array force conservative
            // placement inside the whole nest for safety.
            let cross = writes
                .iter()
                .any(|(wk, w)| w.array == r.array && stmts[*wk].ctx.vars != s.ctx.vars);
            if cross {
                level = s.ctx.depth();
            }
            let (cp, _) = synth.time("partitioning computation", |sy| {
                cp_map_at_level(s, sy.layouts, level)
            });
            let rm = r.ref_map(&slice_context(&s.ctx, level));
            let key = (
                r.array.clone(),
                level,
                if level > 0 { group_of(k) } else { usize::MAX },
            );
            let plan = plans.entry(key.clone()).or_insert_with(|| EventPlan {
                refs: Vec::new(),
                sources: Vec::new(),
                level,
                array: r.array.clone(),
                group_of_stmt: group_of(k),
            });
            plan.refs.push(CommRef {
                cp_map: cp,
                ref_map: rm,
            });
            plan.sources.push((k, ri));
        }
        // Non-local writes (CP differs from owner of the LHS).
        if let Some(l) = &s.lhs {
            let layout = &synth.layouts[&l.array];
            if !layout.replicated && !s.on_home.is_empty() {
                let owner_differs = s
                    .on_home
                    .iter()
                    .any(|oh| oh.array != l.array || oh.subs != l.subs);
                if owner_differs {
                    let (cp, _) = cp_map_at_level(s, synth.layouts, 0);
                    let rm = l.ref_map(&s.ctx);
                    let key = (format!("{}!w", l.array), 0, usize::MAX);
                    let plan = plans.entry(key).or_insert_with(|| EventPlan {
                        refs: Vec::new(),
                        sources: Vec::new(),
                        level: 0,
                        array: l.array.clone(),
                        group_of_stmt: group_of(k),
                    });
                    plan.refs.push(CommRef {
                        cp_map: cp,
                        ref_map: rm,
                    });
                }
            }
        }
    }

    // Materialize events.
    struct BuiltEvent {
        event: usize,
        level: u32,
        group: usize,
        is_write: bool,
    }
    let mut built: Vec<BuiltEvent> = Vec::new();
    let plan_list: Vec<((String, u32, usize), EventPlan)> = plans.into_iter().collect();
    for ((key_arr, _, _), plan) in plan_list {
        let is_write = key_arr.ends_with("!w");
        let layout = &synth.layouts[&plan.array];
        let sets = match synth.time("communication generation", |_| {
            if is_write {
                comm_sets(&[], &plan.refs, layout)
            } else {
                comm_sets(&plan.refs, &[], layout)
            }
        }) {
            Ok(sets) => sets,
            // Rung 1: a level-0 read exchange has a sound in-place
            // fallback — the conservative full exchange delivers a
            // superset of the data the exact event would have moved,
            // before the nest runs. Non-local writes and pipelined
            // placements have no such event-local fallback (a full
            // exchange would push stale copies over owner data or break
            // the send/recv pairing inside the loop), so they escalate
            // to the nest-level rung in `build_nest`. Cancellation is
            // never absorbed.
            Err(e)
                if !is_write
                    && plan.level == 0
                    && !matches!(e, dhpf_omega::OmegaError::Cancelled) =>
            {
                synth.degrade(
                    "comm_sets",
                    Some(&plan.array),
                    &e,
                    "conservative full exchange",
                );
                crate::comm::conservative_comm_sets(layout)
            }
            Err(e) => return Err(e.into()),
        };
        // An event is needed only if some processor touches *non-local*
        // data. With the virtual-processor layouts the send-side maps can
        // be spuriously non-empty (fictitious VPs overlap every real one),
        // so emptiness is judged on the non-local data sets: `m` is
        // symbolic, so emptiness here means "empty for every processor".
        let needed = if is_write {
            !sets.nl_write_data.is_empty()
        } else {
            !sets.nl_read_data.is_empty()
        };
        if !needed {
            continue;
        }
        if plan.refs.len() > 1 {
            synth.stats.coalesced_groups += 1;
        }
        if plan.level == 0 {
            // Vectorized out of the whole nest: one pre-/post-nest event.
            let id = push_event(synth, &plan.array, &sets.send_map, &sets.recv_map, 0)?;
            if !is_write {
                synth.stats.fully_vectorized += 1;
            }
            built.push(BuiltEvent {
                event: id,
                level: 0,
                group: plan.group_of_stmt,
                is_write,
            });
            continue;
        }
        // Pipelined placement inside loop `level`. The *receive* happens at
        // the consumer's iteration (the level-l maps are parameterized by
        // the outer loop variables), but the matching *send* must be driven
        // by the PRODUCER's own iteration: a processor sends boundary data
        // right after producing it. Data never written inside the nest is
        // exchanged once, before the nest.
        let consumer_stmt_idx = groups[plan.group_of_stmt][0];
        let ctx = &stmts[consumer_stmt_idx].ctx;
        // All data of this array written anywhere in the nest.
        let mut written = Set::empty(layout.rel.n_out());
        written.set_context(layout.rel.context());
        for (wk, w) in &writes {
            if w.array == plan.array {
                written = written.union(
                    &w.ref_map(&stmts[*wk].ctx)
                        .apply(&stmts[*wk].ctx.iteration_set()),
                );
            }
        }
        written.simplify();
        let mut all_indices = array_index_set(synth.analysis, &plan.array);
        all_indices.set_context(layout.rel.context());
        let unwritten = all_indices.try_subtract(&written)?;
        // Fully-vectorized maps for this plan's own references (no
        // consumer-iteration parameters): they drive the producer-side
        // send schedule.
        let refs0: Vec<CommRef> = plan
            .sources
            .iter()
            .map(|&(k, ri)| {
                let s = &stmts[k];
                let (cp, _) = cp_map_at_level(s, synth.layouts, 0);
                CommRef {
                    cp_map: cp,
                    ref_map: s.reads[ri].ref_map(&s.ctx),
                }
            })
            .collect();
        let sets0 = synth.time("communication generation", |_| {
            comm_sets(&refs0, &[], layout)
        })?;
        // Pre-nest exchange of never-written data.
        let pre_send = sets0.send_map.restrict_range(&unwritten);
        let pre_recv = sets0.recv_map.restrict_range(&unwritten);
        if !pre_recv.is_empty() {
            let id = push_event(synth, &plan.array, &pre_send, &pre_recv, 0)?;
            built.push(BuiltEvent {
                event: id,
                level: 0,
                group: plan.group_of_stmt,
                is_write: false,
            });
        }
        // In-loop event: receive what this iteration consumes (written
        // data only); send what this iteration just produced and someone
        // else will consume.
        let mut w_cur = Set::empty(layout.rel.n_out());
        w_cur.set_context(layout.rel.context());
        for (wk, w) in &writes {
            if w.array != plan.array || stmts[*wk].ctx.vars != ctx.vars {
                continue;
            }
            let (wcp, _) = cp_map_at_level(&stmts[*wk], synth.layouts, plan.level);
            let my_inner = wcp.apply(&crate::cp::myid_set(layout.proc_rank()));
            let rm = w.ref_map(&slice_context(&stmts[*wk].ctx, plan.level));
            w_cur = w_cur.union(&rm.apply(&my_inner));
        }
        w_cur.simplify();
        let in_send = sets0.send_map.restrict_range(&w_cur);
        let in_recv = sets.recv_map.restrict_range(&written);
        if !in_recv.is_empty() {
            let id = push_event(synth, &plan.array, &in_send, &in_recv, plan.level)?;
            built.push(BuiltEvent {
                event: id,
                level: plan.level,
                group: plan.group_of_stmt,
                is_write: false,
            });
        }
    }

    // Generate the partitioned code, group by group.
    let mut ops: Vec<NestOp> = Vec::new();
    let mut chunks: Vec<Code> = Vec::new();
    // Pre-nest receives/sends for level-0 read events are emitted before
    // the first group unless loop splitting moves the receive.
    let mut split_used = false;
    let level0_reads: Vec<usize> = built
        .iter()
        .filter(|b| b.level == 0 && !b.is_write)
        .map(|b| b.event)
        .collect();

    // Decide on loop splitting: single group, single statement, all
    // communication vectorized out of the nest, and no loop-carried
    // dependence (splitting reorders iterations, Figure 4 requires
    // "no dependences that prevent iteration reordering").
    let reorder_safe = || {
        stmts.iter().all(|s| {
            s.reads.iter().all(|r| {
                writes.iter().all(|(wk, w)| {
                    w.array != r.array
                        || stmts[*wk].ctx.vars != s.ctx.vars
                        || crate::dependence::carried_level_in(w, r, &s.ctx, synth.octx.as_ref())
                            .is_none()
                })
            })
        })
    };
    // All statements must share one loop nest and one partition for the
    // sections of Figure 4 to be computed once for the whole group.
    let shared_partition = || -> Result<Option<Set>, CompileError> {
        let s0 = &stmts[groups[0][0]];
        let (cp0, _) = cp_map_at_level(s0, synth.layouts, 0);
        let mine0 = cp0.apply(&myid_set(proc_rank_of(s0, synth.layouts)));
        for &k in &groups[0][1..] {
            let (cp, _) = cp_map_at_level(&stmts[k], synth.layouts, 0);
            let mine = cp.apply(&myid_set(proc_rank_of(&stmts[k], synth.layouts)));
            if !mine.try_equal(&mine0)? {
                return Ok(None);
            }
        }
        Ok(Some(mine0))
    };
    let try_split = synth.opts.loop_splitting
        && groups.len() == 1
        && !level0_reads.is_empty()
        && built.iter().all(|b| b.level == 0)
        && stmts.iter().all(|s| s.reduction.is_none())
        && reorder_safe();

    // Rung 0: a degradable failure anywhere in the Figure-4 analysis
    // abandons splitting for this nest (the exact events stay; only the
    // schedule overlap is lost) instead of failing the nest.
    let mine = if try_split {
        match shared_partition() {
            Ok(m) => m,
            Err(e) if degradable(&e) => {
                synth.degrade("split", None, &e, "unsplit schedule");
                None
            }
            Err(e) => return Err(e),
        }
    } else {
        None
    };
    let sections = if let Some(mine) = &mine {
        let s0 = &stmts[groups[0][0]];
        let (cp, _) = cp_map_at_level(s0, synth.layouts, 0);
        // Sections intersected across every statement's references.
        let reads_l: Vec<(CommRef, &Layout)> = stmts
            .iter()
            .flat_map(|s| {
                s.reads
                    .iter()
                    .filter(|r| !synth.layouts[&r.array].replicated)
                    .map(|r| {
                        (
                            CommRef {
                                cp_map: cp.clone(),
                                ref_map: r.ref_map(&s.ctx),
                            },
                            &synth.layouts[&r.array],
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let read_pairs: Vec<(&CommRef, &Layout)> = reads_l.iter().map(|(c, l)| (c, *l)).collect();
        match synth.time("loop splitting", |_| split_sets(mine, &read_pairs, &[])) {
            Ok(s) => Some(s),
            Err(e) => {
                let e = CompileError::from(e);
                if degradable(&e) {
                    synth.degrade("split", None, &e, "unsplit schedule");
                    None
                } else {
                    return Err(e);
                }
            }
        }
    } else {
        None
    };
    if let Some(sections) = sections {
        let s0 = &stmts[groups[0][0]];
        // SEND; compute local; RECV; compute non-local (Figure 4(b) without
        // non-local writes).
        let names: Vec<&str> = s0.ctx.vars.iter().map(String::as_str).collect();
        let stmt_ops: Vec<StmtId> = stmts
            .iter()
            .map(|s| {
                let op = ops.len();
                ops.push(NestOp::Assign(compile_stmt(s)));
                StmtId(op)
            })
            .collect();
        let gen = |space: &Set| -> Result<Code, dhpf_codegen::CodegenError> {
            let mappings: Vec<Mapping> = stmt_ops
                .iter()
                .map(|&id| Mapping {
                    stmt: id,
                    space: space.clone(),
                })
                .collect();
            // Splitting already established that iterations may be
            // reordered, so disjoint section pieces become independent
            // loop nests (no per-iteration membership guards).
            let opts = CodegenOptions {
                sequential_pieces: true,
                ..CodegenOptions::default()
            };
            codegen(&mappings, &names, &opts)
        };
        let local_code = synth.time("mult mappings code generation", |_| gen(&sections.local))?;
        let nl = sections.nl_ro.union(&sections.nl_wo).union(&sections.nl_rw);
        let nl_code = synth.time("mult mappings code generation", |_| gen(&nl))?;
        for &ev in &level0_reads {
            let op = ops.len();
            ops.push(NestOp::CommSend(ev));
            chunks.push(Code::Stmt(StmtId(op)));
        }
        chunks.push(local_code);
        for &ev in &level0_reads {
            let op = ops.len();
            ops.push(NestOp::CommRecv(ev));
            chunks.push(Code::Stmt(StmtId(op)));
        }
        chunks.push(nl_code);
        split_used = true;
        synth.stats.split_nests += 1;
    } else {
        // Plain schedule: send+recv all level-0 read events up front.
        for b in built.iter().filter(|b| b.level == 0 && !b.is_write) {
            let op = ops.len();
            ops.push(NestOp::CommSend(b.event));
            chunks.push(Code::Stmt(StmtId(op)));
            let op = ops.len();
            ops.push(NestOp::CommRecv(b.event));
            chunks.push(Code::Stmt(StmtId(op)));
        }
        for (gidx, g) in groups.iter().enumerate() {
            let names: Vec<&str> = stmts[g[0]].ctx.vars.iter().map(String::as_str).collect();
            let mut mappings = Vec::new();
            for &k in g {
                let s = &stmts[k];
                let (cp, _) = synth.time("partitioning computation", |sy| {
                    cp_map_at_level(s, sy.layouts, 0)
                });
                let mut mine = cp.apply(&myid_set(proc_rank_of(s, synth.layouts)));
                synth.time("loop bounds reduction", |_| mine.simplify_deep());
                let op = ops.len();
                ops.push(NestOp::Assign(compile_stmt(s)));
                mappings.push(Mapping {
                    stmt: StmtId(op),
                    space: mine,
                });
            }
            let mut code = synth.time("mult mappings code generation", |_| {
                codegen(&mappings, &names, &CodegenOptions::default())
            })?;
            // Inject inner-level communication (pipelines) into this group.
            for b in built.iter().filter(|b| b.level > 0 && b.group == gidx) {
                let send = ops.len();
                ops.push(NestOp::CommSend(b.event));
                let recv = ops.len();
                ops.push(NestOp::CommRecv(b.event));
                code = inject_at_level(
                    code,
                    b.level,
                    vec![Code::Stmt(StmtId(recv))],
                    vec![Code::Stmt(StmtId(send))],
                );
            }
            chunks.push(code);
        }
        // Post-nest write events (send our non-local writes to owners).
        for b in built.iter().filter(|b| b.is_write) {
            let op = ops.len();
            ops.push(NestOp::CommSend(b.event));
            chunks.push(Code::Stmt(StmtId(op)));
            let op = ops.len();
            ops.push(NestOp::CommRecv(b.event));
            chunks.push(Code::Stmt(StmtId(op)));
        }
    }
    let reductions: Vec<Reduction> = {
        let mut rs: Vec<Reduction> = Vec::new();
        for s in &stmts {
            if let Some(r) = &s.reduction {
                if !rs.contains(r) {
                    rs.push(r.clone());
                }
            }
        }
        rs
    };
    Ok(NestItem {
        code: Code::Seq(chunks),
        ops,
        reductions,
        split: split_used,
    })
}

/// Builds a [`CommEvent`] from send/recv maps and registers it.
fn push_event(
    synth: &mut Synth,
    array: &str,
    send_map: &Relation,
    recv_map: &Relation,
    level: u32,
) -> Result<usize, CompileError> {
    synth.time("communication generation", |sy| {
        push_event_inner(sy, array, send_map, recv_map, level)
    })
}

fn push_event_inner(
    synth: &mut Synth,
    array: &str,
    send_map: &Relation,
    recv_map: &Relation,
    level: u32,
) -> Result<usize, CompileError> {
    let layout = &synth.layouts[array];
    let local = array_index_set(synth.analysis, array);
    let recv_data = recv_map.range();
    let contiguous = synth.time("check if msg is contiguous", |_| {
        matches!(contiguity(&recv_data, &local), Contiguity::Contiguous)
    });
    if contiguous {
        synth.stats.contiguous_events += 1;
    }
    let id = synth.events.len();
    let send_code = synth.time("loops over comm partners", |sy| comm_code(sy, send_map))?;
    let recv_code = synth.time("loops over comm partners", |sy| comm_code(sy, recv_map))?;
    synth.events.push(CommEvent {
        id,
        array: array.to_string(),
        send_code,
        recv_code,
        proc_rank: layout.proc_rank(),
        data_rank: layout.rel.n_out(),
        contiguous,
        level,
    });
    synth.stats.comm_events += 1;
    Ok(id)
}

/// Compiles one statement for the executor.
fn compile_stmt(s: &StmtInfo) -> CompiledStmt {
    let StmtKind::Assign {
        name, subs, rhs, ..
    } = &s.stmt.kind
    else {
        unreachable!("nest statements are assignments");
    };
    CompiledStmt {
        lhs: name.clone(),
        subs: subs.clone(),
        rhs: rhs.clone(),
        guards: s.guards.clone(),
        cost: count_ops(rhs),
    }
}

fn count_ops(e: &Expr) -> u64 {
    match e {
        Expr::Bin(_, a, b) => 1 + count_ops(a) + count_ops(b),
        Expr::Un(_, a) => count_ops(a),
        Expr::Ref(_, args) => args.iter().map(count_ops).sum::<u64>() + 1,
        _ => 0,
    }
}

/// The full local index set of an array, as a [`Set`].
fn array_index_set(analysis: &Analysis, array: &str) -> Set {
    let info = &analysis.arrays[array];
    let rank = info.dims.len() as u32;
    let mut rel = Relation::universe(rank, 0);
    let mut c = dhpf_omega::Conjunct::new();
    for (d, (lo, hi)) in info.dims.iter().enumerate() {
        let v = dhpf_omega::LinExpr::var(Var::In(d as u32));
        let lo_e = crate::ir::affine_to_lin(lo, &[], &mut rel);
        let hi_e = crate::ir::affine_to_lin(hi, &[], &mut rel);
        c.add_geq(v.clone() - lo_e);
        c.add_geq(hi_e - v);
    }
    rel.conjuncts_mut().clear();
    rel.add_conjunct(c);
    Set::from_relation(rel)
}

/// Generates enumeration code for a comm map `[q1..qr] -> [d1..dk]`.
fn comm_code(synth: &mut Synth, map: &Relation) -> Result<Code, CompileError> {
    let r = map.n_in();
    let k = map.n_out();
    let set = rel_to_set(map);
    let mut names: Vec<String> = (0..r).map(|d| format!("q{}", d + 1)).collect();
    names.extend((0..k).map(|d| format!("d{}", d + 1)));
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let _ = synth;
    Ok(dhpf_codegen::codegen_set(
        &set,
        StmtId(0),
        &name_refs,
        &CodegenOptions::default(),
    )?)
}

/// Flattens a relation into a set over `[in..., out...]`.
pub fn rel_to_set(rel: &Relation) -> Set {
    let n_in = rel.n_in();
    let n_out = rel.n_out();
    let mut out = Relation::universe(n_in + n_out, 0);
    out.set_context(rel.context());
    for p in rel.params() {
        out.ensure_param(p);
    }
    let conjs: Vec<_> = rel
        .conjuncts()
        .iter()
        .map(|c| {
            c.rename(|v| match v {
                Var::Out(j) => Var::In(n_in + j),
                v => v,
            })
        })
        .collect();
    *out.conjuncts_mut() = conjs;
    Set::from_relation(out)
}

/// Inserts `pre`/`post` code around the body of the `level`-th nested loop
/// (1-based: `level = 1` is inside the outermost loop).
fn inject_at_level(code: Code, level: u32, pre: Vec<Code>, post: Vec<Code>) -> Code {
    fn go(code: Code, remaining: u32, pre: &[Code], post: &[Code]) -> Code {
        match code {
            Code::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                if remaining == 1 {
                    let mut seq = pre.to_vec();
                    seq.push(*body);
                    seq.extend(post.to_vec());
                    Code::Loop {
                        var,
                        lo,
                        hi,
                        step,
                        body: Box::new(Code::Seq(seq)),
                    }
                } else {
                    Code::Loop {
                        var,
                        lo,
                        hi,
                        step,
                        body: Box::new(go(*body, remaining - 1, pre, post)),
                    }
                }
            }
            Code::Seq(cs) => Code::Seq(
                cs.into_iter()
                    .map(|c| go(c, remaining, pre, post))
                    .collect(),
            ),
            Code::If { cond, body } => Code::If {
                cond,
                body: Box::new(go(*body, remaining, pre, post)),
            },
            other => other,
        }
    }
    go(code, level, &pre, &post)
}
