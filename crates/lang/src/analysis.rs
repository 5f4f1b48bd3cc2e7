//! Static analysis over compiled bytecode: a chunk **verifier** and an
//! **abstract interpreter**, plus the DSL-level lints behind the
//! `pb_lint` CLI.
//!
//! The differential suite pins the VM *dynamically* — outputs, RNG
//! draws, and virtual cost bit-identical to the tree-walking
//! interpreter at every [`crate::opt::OptLevel`]. This module adds the
//! static half of that contract:
//!
//! * [`verify_chunk`] / [`verify_code`] prove a [`Chunk`] is
//!   *well-formed* before dispatch: every jump (including the fused
//!   `JumpCmp*`/`LoopNext` forms and `Switch` tables) lands inside
//!   the chunk, every fused back edge replays its loop head exactly,
//!   every register/slot/name index is in bounds, every
//!   register is defined on every path before it is read (forward
//!   must-defined dataflow over the CFG), every `Switch` is guarded by
//!   the clamping `Choice` that feeds it, and every `Charge` is
//!   positive and finite. Violations carry a typed
//!   [`ViolationKind`] so regression tests can pin exactly *which*
//!   invariant a hand-broken chunk trips.
//! * [`charge_signature`] summarizes a chunk's cost accounting as the
//!   ordered per-straight-line-region charge totals of its reachable
//!   code; [`crate::opt::optimize`] checks the signature after every
//!   pass (under `PB_VERIFY=1` or in debug builds), so a `Charge`
//!   hoisted across control flow is attributed to the pass that moved
//!   it.
//! * [`analyze_chunk`] runs a forward abstract interpretation over the
//!   same CFG, inferring each slot's shape (scalar, array of a rank, or
//!   either) as a [`ChunkFacts`] artifact attached to
//!   [`crate::compile::CompiledTransform`]: what `promote` and `inline`
//!   read to prove a slot scalar.
//! * [`lint_program`] layers DSL-level lints on top of sema and the
//!   verifier: dead tunables, unconsumed rule products, tunables whose
//!   range collapses to a constant, and rules whose chunks fail
//!   verification.
//!
//! The verifier and the signature check structure only. Whether a pass
//! kept what it claims to keep — outputs, draws and charges — is the
//! differential suite's to show: it runs both engines at every level
//! against the tree-walker.

use crate::ast::{Expr, LValue, Program, Stmt, Transform};
use crate::compile::{Chunk, FirstArg, Instr, Slot};
use crate::opt::{
    for_each_def, for_each_slot_def, for_each_slot_use, for_each_target, for_each_use, is_cmp,
    is_terminator, Cfg, OptLevel,
};
use crate::token::Span;
use pb_config::{Schema, TunableKind};
use std::collections::HashSet;
use std::fmt;

// ---- violations --------------------------------------------------------

/// Which well-formedness invariant a chunk breaks. Each variant is one
/// distinct verifier check; the hand-broken regression corpus pins one
/// chunk per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A jump/switch target past `code.len()` (`== len` is legal
    /// fall-off termination).
    BadJumpTarget,
    /// A register reference `>= n_regs`.
    RegOutOfBounds,
    /// A slot reference `>= n_slots` (instruction operand or
    /// input/output binding table).
    SlotOutOfBounds,
    /// An interned-name index `>= names.len()`.
    NameOutOfBounds,
    /// A register that may be read before any definition reaches it.
    UseBeforeDef,
    /// A `Switch` whose table is empty or that is not fed by an
    /// adjacent clamping `Choice` covering its table.
    UnguardedSwitch,
    /// A `Charge` amount that is not finite and positive, or a
    /// `Choice` with zero branches.
    BadCharge,
    /// Per-region charge totals changed across an optimizer pass —
    /// cost was hoisted across control flow.
    ChargeMoved,
    /// A `Bin`-family or fused-compare instruction carrying an
    /// operator the VM cannot dispatch there (`&&`/`||` lower to
    /// jumps; `JumpCmp*` requires a comparison).
    BadOperator,
    /// A tunable name with no entry in the config schema.
    UnknownTunable,
    /// A tunable resolved to the wrong kind (e.g. `ForEnoughPrep` on a
    /// non-accuracy-variable, `Choice` branches exceeding the site's
    /// algorithm count).
    TunableMismatch,
    /// A fused back edge that does not replay its loop head: behind its
    /// `body` (and the `Charge` it carries, if any) there is no
    /// `JumpIfGe` with its comparands and exit, or that `Charge` is not
    /// the amount it carries.
    BadBackEdge,
}

impl ViolationKind {
    /// Stable lower-snake name (for diagnostics and test pins).
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::BadJumpTarget => "bad_jump_target",
            ViolationKind::RegOutOfBounds => "reg_out_of_bounds",
            ViolationKind::SlotOutOfBounds => "slot_out_of_bounds",
            ViolationKind::NameOutOfBounds => "name_out_of_bounds",
            ViolationKind::UseBeforeDef => "use_before_def",
            ViolationKind::UnguardedSwitch => "unguarded_switch",
            ViolationKind::BadCharge => "bad_charge",
            ViolationKind::ChargeMoved => "charge_moved",
            ViolationKind::BadOperator => "bad_operator",
            ViolationKind::UnknownTunable => "unknown_tunable",
            ViolationKind::TunableMismatch => "tunable_mismatch",
            ViolationKind::BadBackEdge => "bad_back_edge",
        }
    }
}

/// One verifier finding, anchored to an instruction index.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Instruction index the violation is anchored to.
    pub at: usize,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at instr {}: {}",
            self.kind.name(),
            self.at,
            self.detail
        )
    }
}

impl std::error::Error for Violation {}

fn violation(kind: ViolationKind, at: usize, detail: impl Into<String>) -> Violation {
    Violation {
        kind,
        at,
        detail: detail.into(),
    }
}

// ---- instruction walkers ----------------------------------------------
// `crate::opt` owns the register use/def walkers (shared with liveness
// and DCE); the verifier additionally needs *every* slot, name, and
// jump-target reference, including write targets the optimizer's
// read-oriented walkers skip.

fn for_each_slot(instr: &Instr, mut f: impl FnMut(Slot)) {
    for_each_slot_use(instr, &mut f);
    for_each_slot_def(instr, &mut f);
}

fn for_each_name(instr: &Instr, mut f: impl FnMut(u16)) {
    match instr {
        Instr::LoadParam { name, .. }
        | Instr::ForEnoughPrep { name, .. }
        | Instr::Choice { name, .. }
        | Instr::CallHost { name, .. }
        | Instr::CallTransform { name, .. } => f(*name),
        _ => {}
    }
}

// ---- the verifier ------------------------------------------------------

/// Verifies one chunk. See [`verify_code`].
///
/// # Errors
///
/// Returns the first [`Violation`] in instruction order.
pub fn verify_chunk(chunk: &Chunk) -> Result<(), Violation> {
    verify_code(
        &chunk.code,
        chunk.n_regs,
        chunk.n_slots,
        chunk.names.len(),
        &chunk.input_slots,
        &chunk.output_slots,
    )
}

/// Verifies a code sequence against its declared register/slot/name
/// counts: jump-target validity, operand bounds, `Switch` guarding,
/// charge sanity, and register def-before-use (forward must-defined
/// dataflow over the CFG; registers are checked on *every* path, with
/// unreachable blocks excluded).
///
/// Operates on parts rather than a [`Chunk`] so the optimizer can
/// re-verify mid-pipeline, where only the instruction vector exists.
///
/// # Errors
///
/// Returns the first [`Violation`] in instruction order.
pub fn verify_code(
    code: &[Instr],
    n_regs: u16,
    n_slots: u16,
    n_names: usize,
    input_slots: &[Slot],
    output_slots: &[Slot],
) -> Result<(), Violation> {
    for &s in input_slots.iter().chain(output_slots) {
        if s >= n_slots {
            return Err(violation(
                ViolationKind::SlotOutOfBounds,
                0,
                format!("binding slot s{s} >= n_slots {n_slots}"),
            ));
        }
    }
    for (i, instr) in code.iter().enumerate() {
        let mut first: Option<Violation> = None;
        let mut note = |v: Violation| {
            if first.is_none() {
                first = Some(v);
            }
        };
        for_each_target(instr, |t| {
            if t > code.len() {
                note(violation(
                    ViolationKind::BadJumpTarget,
                    i,
                    format!("target {t} past code end {}", code.len()),
                ));
            }
        });
        let mut check_reg = |r: u16| {
            if r >= n_regs {
                note(violation(
                    ViolationKind::RegOutOfBounds,
                    i,
                    format!("r{r} >= n_regs {n_regs}"),
                ));
            }
        };
        for_each_use(instr, &mut check_reg);
        for_each_def(instr, &mut check_reg);
        for_each_slot(instr, |s| {
            if s >= n_slots {
                note(violation(
                    ViolationKind::SlotOutOfBounds,
                    i,
                    format!("s{s} >= n_slots {n_slots}"),
                ));
            }
        });
        for_each_name(instr, |idx| {
            if idx as usize >= n_names {
                note(violation(
                    ViolationKind::NameOutOfBounds,
                    i,
                    format!("name index {idx} >= names.len() {n_names}"),
                ));
            }
        });
        match instr {
            Instr::Charge { amount } if !(amount.is_finite() && *amount > 0.0) => {
                note(violation(
                    ViolationKind::BadCharge,
                    i,
                    format!("charge amount {amount} is not finite and positive"),
                ));
            }
            Instr::Choice { branches, .. } if *branches == 0 => {
                note(violation(
                    ViolationKind::BadCharge,
                    i,
                    "choice with zero branches",
                ));
            }
            Instr::Switch { src, targets } => {
                // A `Switch` is only safe when the instruction feeding
                // `src` is the adjacent `Choice` whose clamp
                // (`pick.min(branches - 1)`) covers the target table.
                // Nops may sit between them mid-pipeline.
                let guard = (0..i)
                    .rev()
                    .map(|p| &code[p])
                    .find(|instr| !matches!(instr, Instr::Nop));
                let guarded = matches!(
                    guard,
                    Some(Instr::Choice { dst, branches, .. })
                        if dst == src && (1..=targets.len()).contains(&(*branches as usize))
                );
                if targets.is_empty() || !guarded {
                    note(violation(
                        ViolationKind::UnguardedSwitch,
                        i,
                        format!(
                            "switch on r{src} with {} targets lacks an adjacent clamping choice",
                            targets.len()
                        ),
                    ));
                }
            }
            Instr::Bin { op, .. } => {
                if matches!(op, crate::ast::BinOp::And | crate::ast::BinOp::Or) {
                    note(violation(
                        ViolationKind::BadOperator,
                        i,
                        "&&/|| lower to jumps; Bin cannot dispatch them",
                    ));
                }
            }
            Instr::BinRI { op, .. } | Instr::BinIR { op, .. } | Instr::BinStoreIdx1 { op, .. } => {
                if matches!(op, crate::ast::BinOp::And | crate::ast::BinOp::Or) {
                    note(violation(
                        ViolationKind::BadOperator,
                        i,
                        "&&/|| lower to jumps; fused arithmetic cannot dispatch them",
                    ));
                }
            }
            Instr::JumpCmp { op, .. } | Instr::JumpCmpImm { op, .. } if !is_cmp(*op) => {
                note(violation(
                    ViolationKind::BadOperator,
                    i,
                    format!("fused compare carries non-comparison operator {op:?}"),
                ));
            }
            Instr::LoopNext {
                a,
                b,
                exit,
                body,
                charge,
                ..
            } => {
                // The trip it replays: the head, then the charge it
                // carries, right behind `body`.
                let behind = |k: usize| body.checked_sub(k).and_then(|at| code.get(at));
                let head = match behind(1) {
                    Some(Instr::Charge { amount }) if *charge != 0.0 => {
                        let same = amount.to_bits() == charge.to_bits();
                        behind(2).filter(|_| same)
                    }
                    _ => behind(1).filter(|_| *charge == 0.0),
                };
                let replays = matches!(
                    head,
                    Some(Instr::JumpIfGe { a: ha, b: hb, target })
                        if (ha, hb, target) == (a, b, exit)
                );
                if !replays {
                    note(violation(
                        ViolationKind::BadBackEdge,
                        i,
                        format!("{instr:?} does not replay the loop head behind {body}"),
                    ));
                }
            }
            _ => {}
        }
        if let Some(v) = first {
            return Err(v);
        }
    }
    verify_def_before_use(code, n_regs)
}

/// Forward must-defined dataflow: at every instruction, every register
/// read must be defined on *all* paths from entry. Unreachable blocks
/// start at ⊤ (all-defined) so they cannot raise false positives.
fn verify_def_before_use(code: &[Instr], n_regs: u16) -> Result<(), Violation> {
    let n = code.len();
    if n == 0 {
        return Ok(());
    }
    let cfg = Cfg::build(code);
    let nb = cfg.len();
    let words = (n_regs as usize).div_ceil(64).max(1);

    let mut in_sets: Vec<Vec<u64>> = vec![vec![u64::MAX; words]; nb];
    in_sets[0] = vec![0; words];

    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            let mut cur = in_sets[b].clone();
            for i in cfg.range(b) {
                for_each_def(&code[i], |r| cur[r as usize / 64] |= 1 << (r as usize % 64));
            }
            for &s in cfg.successors(b) {
                for (dst, src) in in_sets[s].iter_mut().zip(&cur) {
                    let next = *dst & *src;
                    changed |= next != *dst;
                    *dst = next;
                }
            }
        }
    }

    for (b, in_set) in in_sets.iter().enumerate() {
        let mut cur = in_set.clone();
        for i in cfg.range(b) {
            let mut undef = None;
            for_each_use(&code[i], |r| {
                if cur[r as usize / 64] & (1 << (r as usize % 64)) == 0 && undef.is_none() {
                    undef = Some(r);
                }
            });
            if let Some(r) = undef {
                return Err(violation(
                    ViolationKind::UseBeforeDef,
                    i,
                    format!("r{r} may be read before any definition reaches it"),
                ));
            }
            for_each_def(&code[i], |r| cur[r as usize / 64] |= 1 << (r as usize % 64));
        }
    }
    Ok(())
}

/// The chunk's cost-accounting shape: ordered per-straight-line-region
/// charge totals over the code reachable from the entry (zero-total
/// regions elided, so pure `Nop` compaction cannot perturb it; code
/// nothing reaches never charges, and a pass may drop it). Every
/// optimizer pass must preserve this signature exactly —
/// `fold_charges` merges within a region, never across one — which is
/// what "no `Charge` hoisted across control flow" means statically.
///
/// Jump targets must already be validated (`<= code.len()`).
pub fn charge_signature(code: &[Instr]) -> Vec<f64> {
    let cfg = Cfg::build(code);
    let reached = cfg.reached();
    let live = || {
        (0..cfg.len())
            .filter(|&b| reached[b])
            .flat_map(|b| cfg.range(b))
    };
    // A fused back edge re-entering past its head's `Charge` replays
    // that charge (`verify_code` checks it does): its `body` opens no
    // region of its own.
    let mut targets = vec![false; code.len() + 1];
    for i in live() {
        match &code[i] {
            Instr::LoopNext { exit, .. } => targets[*exit] = true,
            other => for_each_target(other, |t| targets[t] = true),
        }
    }
    let mut signature = Vec::new();
    let mut cur = 0.0f64;
    let flush = |cur: &mut f64, signature: &mut Vec<f64>| {
        if *cur != 0.0 {
            signature.push(*cur);
            *cur = 0.0;
        }
    };
    for i in live() {
        if targets[i] {
            flush(&mut cur, &mut signature);
        }
        if let Instr::Charge { amount } = code[i] {
            cur += amount;
        }
        if is_terminator(&code[i]) {
            flush(&mut cur, &mut signature);
        }
    }
    flush(&mut cur, &mut signature);
    signature
}

// ---- schema validation -------------------------------------------------

/// Validates every tunable reference in `chunk` against `schema` under
/// `prefix` (the `<callee>.`-style namespace the chunk executes in):
/// `LoadParam`/`ForEnoughPrep`/`Choice` names must resolve, a
/// `ForEnoughPrep` must name an accuracy variable, and a `Choice` must
/// name a choice site whose algorithm count matches its branch count.
/// Host-function and callee names are resolved at runtime and skipped.
///
/// # Errors
///
/// Returns the first [`Violation`]
/// ([`ViolationKind::UnknownTunable`]/[`ViolationKind::TunableMismatch`]).
pub fn verify_tunables(chunk: &Chunk, schema: &Schema, prefix: &str) -> Result<(), Violation> {
    let resolve = |idx: u16, at: usize| -> Result<&pb_config::Tunable, Violation> {
        let name = chunk.names.get(idx as usize).ok_or_else(|| {
            violation(
                ViolationKind::NameOutOfBounds,
                at,
                format!("name index {idx}"),
            )
        })?;
        let full = format!("{prefix}{name}");
        schema.tunable(&full).map(|(_, t)| t).ok_or_else(|| {
            violation(
                ViolationKind::UnknownTunable,
                at,
                format!("`{full}` is not in the config schema"),
            )
        })
    };
    for (i, instr) in chunk.code.iter().enumerate() {
        match instr {
            Instr::LoadParam { name, .. } => {
                resolve(*name, i)?;
            }
            Instr::ForEnoughPrep { name, .. } => {
                let t = resolve(*name, i)?;
                if !matches!(t.kind(), TunableKind::AccuracyVariable { .. }) {
                    return Err(violation(
                        ViolationKind::TunableMismatch,
                        i,
                        format!("`{}` is not an accuracy variable", t.name()),
                    ));
                }
            }
            Instr::Choice { name, branches, .. } => {
                let t = resolve(*name, i)?;
                match t.kind() {
                    TunableKind::ChoiceSite { num_algorithms }
                        if *num_algorithms == *branches as usize => {}
                    _ => {
                        return Err(violation(
                            ViolationKind::TunableMismatch,
                            i,
                            format!("`{}` is not a {branches}-way choice site", t.name()),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

// ---- abstract interpretation -------------------------------------------

/// Abstract value: the shape a slot can hold, an element of the
/// join-semilattice `Bottom ⊑ Scalar, Array { rank } ⊑ Any`.
/// (Registers only ever hold scalars, so only slots are tracked.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsValue {
    /// Unreached / never holds a value.
    Bottom,
    /// A scalar number.
    Scalar,
    /// An array of the given rank (1 or 2).
    Array {
        /// Number of dimensions.
        rank: u8,
    },
    /// Anything (host-call results, mixed scalar/array).
    Any,
}

impl AbsValue {
    /// Least upper bound.
    pub fn join(self, other: AbsValue) -> AbsValue {
        match (self, other) {
            (AbsValue::Bottom, x) | (x, AbsValue::Bottom) => x,
            (a, b) if a == b => a,
            _ => AbsValue::Any,
        }
    }
}

/// Per-chunk inferred facts: the join, over every reachable program
/// point, of each slot's shape — what `promote` and `inline` consult to
/// prove a slot scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkFacts {
    /// Slot state at chunk entry (rule bindings from the transform
    /// declaration; everything else ⊥). Kept so `promote` can start
    /// from it and an inlined chunk's facts can be recomputed without
    /// the AST.
    pub entry_slots: Vec<AbsValue>,
    /// Per-slot inferred shape, entry state included.
    pub slots: Vec<AbsValue>,
}

fn declared_shape(transform: &Transform, data: &str) -> AbsValue {
    match transform.data(data) {
        Some(p) if p.dims.is_empty() => AbsValue::Scalar,
        Some(p) => AbsValue::Array {
            rank: p.dims.len() as u8,
        },
        None => AbsValue::Any,
    }
}

/// How a transform's rules bind its data — what [`transform_facts`]
/// needs of the AST, kept with the compiled transform so the facts can
/// be settled again once the `inline` pass knows which calls return
/// scalars.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bindings {
    /// The declared shape of each datum some rule binds.
    declared: Vec<AbsValue>,
    /// Per rule, the data it binds (indices into `declared`): inputs,
    /// then outputs, in the order of the chunk's `input_slots` and
    /// `output_slots`.
    rules: Vec<(Vec<usize>, Vec<usize>)>,
}

impl Bindings {
    pub(crate) fn of(transform: &Transform) -> Bindings {
        let mut names: Vec<&str> = Vec::new();
        let mut bindings = Bindings::default();
        for rule in &transform.rules {
            let mut bound = (Vec::new(), Vec::new());
            for (side, ids) in [(&rule.inputs, &mut bound.0), (&rule.outputs, &mut bound.1)] {
                for b in side {
                    let known = names.iter().position(|n| *n == b.data);
                    ids.push(known.unwrap_or_else(|| {
                        names.push(&b.data);
                        bindings.declared.push(declared_shape(transform, &b.data));
                        names.len() - 1
                    }));
                }
            }
            bindings.rules.push(bound);
        }
        bindings
    }
}

/// The facts of every rule of a transform, from entry states that hold
/// wherever the schedule puts the rule: a binding enters with its
/// declared shape only if no rule of the transform can leave that datum
/// in another one (`s = v` with `v` an array makes scalar-declared `S`
/// an array for every rule that runs afterwards). Starts from the
/// declarations and withdraws, to a fixpoint, each datum some rule's
/// output slot is not proven to keep in shape.
pub(crate) fn transform_facts(bindings: &Bindings, rules: &[Chunk]) -> Vec<ChunkFacts> {
    let mut shape = bindings.declared.clone();
    loop {
        let facts: Vec<ChunkFacts> = bindings
            .rules
            .iter()
            .zip(rules)
            .map(|((inputs, outputs), chunk)| {
                let mut entry = vec![AbsValue::Bottom; chunk.n_slots as usize];
                // Output aliases bind last, shadowing same-named inputs.
                let bound = (inputs.iter().zip(&chunk.input_slots))
                    .chain(outputs.iter().zip(&chunk.output_slots));
                for (&d, &s) in bound {
                    entry[s as usize] = shape[d];
                }
                analyze_chunk(chunk, &entry)
            })
            .collect();
        let mut settled = true;
        for (((_, outputs), chunk), facts) in bindings.rules.iter().zip(rules).zip(&facts) {
            for (&d, &s) in outputs.iter().zip(&chunk.output_slots) {
                // The slot's fact joins every state it is ever in, the
                // entry state included.
                if shape[d] != AbsValue::Any && shape[d] != facts.slots[s as usize] {
                    shape[d] = AbsValue::Any;
                    settled = false;
                }
            }
        }
        if settled {
            return facts;
        }
    }
}

/// Runs the abstract interpreter over a verified chunk: forward
/// fixpoint over the CFG, joining states at merge points, then a final
/// accumulation pass folding every post-instruction state into the
/// returned [`ChunkFacts`].
///
/// `entry_slots` is the slot state at chunk entry (what
/// [`ChunkFacts::entry_slots`] records: for the facts a
/// [`crate::compile::CompiledProgram`] stores, each binding's declared
/// shape unless some rule of the transform can leave the datum in
/// another one, ⊥ for locals); it is padded/truncated to `n_slots`.
pub fn analyze_chunk(chunk: &Chunk, entry_slots: &[AbsValue]) -> ChunkFacts {
    let ns = chunk.n_slots as usize;
    let mut entry = entry_slots.to_vec();
    entry.resize(ns, AbsValue::Bottom);

    let mut facts = ChunkFacts {
        entry_slots: entry.clone(),
        slots: entry.clone(),
    };
    if chunk.code.is_empty() {
        return facts;
    }

    let code = &chunk.code;
    let cfg = Cfg::build(code);
    let nb = cfg.len();
    // Block-entry states, one flat row per block.
    let mut in_slots = vec![AbsValue::Bottom; nb * ns];
    in_slots[..ns].copy_from_slice(&entry);

    /// `into = into ⊔ from`, element-wise; whether anything rose.
    fn join_into(into: &mut [AbsValue], from: &[AbsValue]) -> bool {
        let mut changed = false;
        for (dst, &v) in into.iter_mut().zip(from) {
            let next = dst.join(v);
            changed |= next != *dst;
            *dst = next;
        }
        changed
    }

    // Every block runs at least once (unreachable ones from ⊥, as
    // ever), then again whenever a predecessor raised its entry state.
    let mut slots = vec![AbsValue::Bottom; ns];
    let mut dirty = vec![true; nb];
    while dirty.contains(&true) {
        for b in 0..nb {
            if !std::mem::take(&mut dirty[b]) {
                continue;
            }
            slots.copy_from_slice(&in_slots[b * ns..][..ns]);
            for i in cfg.range(b) {
                step(&code[i], &mut slots);
            }
            for &s in cfg.successors(b) {
                dirty[s] |= join_into(&mut in_slots[s * ns..][..ns], &slots);
            }
        }
    }

    // A slot takes a new shape only where an instruction writes it, so
    // folding in what each instruction touched covers every program
    // point.
    for b in 0..nb {
        slots.copy_from_slice(&in_slots[b * ns..][..ns]);
        for i in cfg.range(b) {
            step(&code[i], &mut slots);
            for_each_slot(&code[i], |s| {
                let s = s as usize;
                facts.slots[s] = facts.slots[s].join(slots[s]);
            });
        }
    }
    facts
}

/// Transfer function: one instruction over the slots. Only the four
/// instructions that overwrite a slot whole change its shape; an
/// element write leaves an array the array it was.
fn step(instr: &Instr, slots: &mut [AbsValue]) {
    match instr {
        // Registers only ever hold scalars.
        Instr::StoreSlotNum { slot, .. } => slots[*slot as usize] = AbsValue::Scalar,
        Instr::CopySlot { dst, src } => slots[*dst as usize] = slots[*src as usize],
        Instr::CallHost { first, dst, .. } => {
            slots[*dst as usize] = AbsValue::Any;
            if let FirstArg::Var(s) = first {
                // The host may overwrite its mutable first argument
                // with anything.
                slots[*s as usize] = AbsValue::Any;
            }
        }
        // A callee's declared-scalar output may still be assigned an
        // array; only a callee whose facts rule that out is stamped.
        Instr::CallTransform { dst, scalar, .. } => {
            slots[*dst as usize] = if *scalar {
                AbsValue::Scalar
            } else {
                AbsValue::Any
            };
        }
        _ => {}
    }
}

// ---- DSL-level lints ---------------------------------------------------

/// Lint severity. Errors always fail `pb_lint`; warnings fail it under
/// `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but executable.
    Warning,
    /// Broken: failed verification or unresolvable references.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Error or warning.
    pub severity: Severity,
    /// Source span the finding anchors to, when one exists.
    pub span: Option<Span>,
    /// The message.
    pub message: String,
}

/// Every name a transform references: rule bodies, rule binding data,
/// and data dimension expressions.
fn transform_referenced_names(t: &Transform) -> HashSet<&str> {
    fn note<'a>(names: &mut HashSet<&'a str>, expr: &'a Expr) {
        if let Expr::Var(name, _) | Expr::Index { name, .. } = expr {
            names.insert(name);
        }
    }
    let mut names: HashSet<&str> = HashSet::new();
    for rule in &t.rules {
        rule.body.for_each_stmt(&mut |stmt| {
            // Assignment targets included: writing `Out` still *uses*
            // the data.
            if let Stmt::Assign { target, .. } = stmt {
                let (LValue::Var(name) | LValue::Index { name, .. }) = target;
                names.insert(name);
            }
            stmt.for_each_expr(&mut |e| note(&mut names, e));
        });
        names.extend(
            rule.inputs
                .iter()
                .chain(&rule.outputs)
                .map(|b| b.data.as_str()),
        );
    }
    for dim in t.all_data().flat_map(|p| &p.dims) {
        dim.for_each(&mut |e| note(&mut names, e));
    }
    names
}

/// Runs the DSL-level lints over a parsed (and sema-checked) program:
///
/// * **error** — the program hits a capacity limit of the bytecode
///   (`check_program` accepts nothing else that does not lower), a rule
///   chunk fails verification (at `O0` or through the full `O3` pass
///   pipeline), or references a tunable missing from the transform's
///   schema;
/// * **warning** — an accuracy variable nothing reads, a tunable whose
///   range collapses to a single value, a rule producing only data no
///   rule consumes and no output needs, a call to a scalar helper the `inline`
///   pass had to leave on the generic path (with the reason), or a
///   scalar variable `promote` had to leave in its `Value` slot (with
///   the reason).
pub fn lint_program(program: &Program) -> Vec<Lint> {
    let mut lints = Vec::new();
    let compiled = crate::compile::compile_program(program);
    if let Some(e) = compiled.error() {
        return vec![Lint {
            severity: Severity::Error,
            span: None,
            message: e.to_string(),
        }];
    }
    // What `O3` dispatches starts from the inlined chunks; the lowered
    // ones are still verified on their own below.
    let mut inlined = compiled.clone();
    if let Err(v) = inlined.inline_calls(true) {
        lints.push(Lint {
            severity: Severity::Error,
            span: None,
            message: v.to_string(),
        });
        inlined = compiled.clone();
    }
    for skip in inlined.inline_skips() {
        lints.push(Lint {
            severity: Severity::Warning,
            span: None,
            message: format!(
                "chunk `{}`: call to scalar helper `{}` is not inlined: {}",
                skip.chunk, skip.callee, skip.reason
            ),
        });
    }
    for t in &program.transforms {
        let schema = crate::traininfo::extract_schema(program, &t.name);
        let referenced = transform_referenced_names(t);

        for av in &t.accuracy_variables {
            if !referenced.contains(av.name.as_str()) {
                lints.push(Lint {
                    severity: Severity::Warning,
                    span: Some(av.span),
                    message: format!(
                        "transform `{}`: accuracy variable `{}` is never read",
                        t.name, av.name
                    ),
                });
            }
        }

        for (_, tunable) in schema.iter() {
            if tunable.name().contains('.') {
                continue; // reported by the callee's own lint run
            }
            let collapsed = match *tunable.kind() {
                TunableKind::Cutoff { min, max }
                | TunableKind::AccuracyVariable { min, max }
                | TunableKind::UserDefined { min, max } => min == max,
                TunableKind::FloatParam { min, max } => min == max,
                TunableKind::Switch { num_values } => num_values <= 1,
                TunableKind::ChoiceSite { num_algorithms } => num_algorithms <= 1,
            };
            if collapsed {
                lints.push(Lint {
                    severity: Severity::Warning,
                    span: Some(t.span),
                    message: format!(
                        "transform `{}`: tunable `{}` range collapses to a constant",
                        t.name,
                        tunable.name()
                    ),
                });
            }
        }

        // Data consumed somewhere: a rule input, an output, or a name
        // referenced by any body/dimension (metrics read outputs).
        let consumed: HashSet<&str> = t
            .rules
            .iter()
            .flat_map(|r| r.inputs.iter().map(|b| b.data.as_str()))
            .chain(t.outputs.iter().map(|p| p.name.as_str()))
            .collect();
        for (ri, rule) in t.rules.iter().enumerate() {
            let live = rule
                .outputs
                .iter()
                .any(|b| consumed.contains(b.data.as_str()));
            if !live && !rule.outputs.is_empty() {
                lints.push(Lint {
                    severity: Severity::Warning,
                    span: Some(rule.span),
                    message: format!(
                        "transform `{}`: rule #{ri} is unreachable — nothing consumes {}",
                        t.name,
                        rule.outputs
                            .iter()
                            .map(|b| format!("`{}`", b.data))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }

        let Some(ct) = compiled.transform(&t.name) else {
            continue;
        };
        for (ri, (rule, chunk)) in t.rules.iter().zip(&ct.rules).enumerate() {
            let mut broken = |what: &str| {
                lints.push(Lint {
                    severity: Severity::Error,
                    span: Some(rule.span),
                    message: format!("transform `{}`: rule #{ri}: {what}", t.name),
                });
            };
            if let Err(v) = verify_chunk(chunk) {
                broken(&format!("chunk fails verification: {v}"));
                continue;
            }
            // The entry state the program will optimize against.
            let entry = &ct.facts[ri].entry_slots;
            let chunk = inlined.chunk(&t.name, ri).unwrap_or(chunk);
            match crate::opt::optimize(chunk, OptLevel::O3, true, Some(entry)) {
                Err(v) => broken(&v.to_string()),
                Ok(opt_chunk) => {
                    if let Err(v) = verify_tunables(&opt_chunk, &schema, "") {
                        broken(&v.to_string());
                    }
                }
            }
            let names = crate::compile::named_slots(rule);
            for (slot, why) in crate::opt::unpromoted(chunk, entry) {
                let what = match names.get(slot as usize) {
                    Some(name) => format!("`{name}`"),
                    None => format!("in temporary s{slot}"),
                };
                lints.push(Lint {
                    severity: Severity::Warning,
                    span: Some(rule.span),
                    message: format!(
                        "transform `{}`: rule #{ri}: scalar {what} stays in a slot: {why}",
                        t.name
                    ),
                });
            }
        }
    }
    lints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Operand;

    fn chunk(code: Vec<Instr>, n_regs: u16, n_slots: u16, names: Vec<String>) -> Chunk {
        Chunk {
            label: "test::r0".into(),
            code,
            names,
            n_regs,
            n_slots,
            input_slots: vec![],
            output_slots: vec![],
            moves: vec![],
        }
    }

    #[test]
    fn accepts_minimal_chunk() {
        let c = chunk(
            vec![
                Instr::Charge { amount: 1.0 },
                Instr::Const { dst: 0, val: 2.0 },
                Instr::StoreSlotNum { slot: 0, src: 0 },
                Instr::Return,
            ],
            1,
            1,
            vec![],
        );
        verify_chunk(&c).unwrap();
    }

    #[test]
    fn rejects_bad_jump_target() {
        let c = chunk(vec![Instr::Jump { target: 5 }], 0, 0, vec![]);
        let v = verify_chunk(&c).unwrap_err();
        assert_eq!(v.kind, ViolationKind::BadJumpTarget);
        assert_eq!(v.at, 0);
    }

    #[test]
    fn fall_off_target_is_legal() {
        let c = chunk(vec![Instr::Jump { target: 1 }], 0, 0, vec![]);
        verify_chunk(&c).unwrap();
    }

    #[test]
    fn rejects_use_before_def() {
        let c = chunk(
            vec![Instr::Move { dst: 0, src: 1 }, Instr::Return],
            2,
            0,
            vec![],
        );
        let v = verify_chunk(&c).unwrap_err();
        assert_eq!(v.kind, ViolationKind::UseBeforeDef);
    }

    #[test]
    fn rejects_one_sided_definition() {
        // r1 defined only on the taken branch; the join reads it.
        let c = chunk(
            vec![
                Instr::Const { dst: 0, val: 0.0 },
                Instr::JumpIfZero { cond: 0, target: 3 },
                Instr::Const { dst: 1, val: 1.0 },
                Instr::Move { dst: 2, src: 1 },
                Instr::Return,
            ],
            3,
            0,
            vec![],
        );
        let v = verify_chunk(&c).unwrap_err();
        assert_eq!(v.kind, ViolationKind::UseBeforeDef);
        assert_eq!(v.at, 3);
    }

    #[test]
    fn accepts_both_sided_definition() {
        let c = chunk(
            vec![
                Instr::Const { dst: 0, val: 0.0 },
                Instr::JumpIfZero { cond: 0, target: 4 },
                Instr::Const { dst: 1, val: 1.0 },
                Instr::Jump { target: 5 },
                Instr::Const { dst: 1, val: 2.0 },
                Instr::Move { dst: 2, src: 1 },
                Instr::Return,
            ],
            3,
            0,
            vec![],
        );
        verify_chunk(&c).unwrap();
    }

    #[test]
    fn rejects_slot_out_of_bounds() {
        let c = chunk(
            vec![
                Instr::Const { dst: 0, val: 1.0 },
                Instr::StoreSlotNum { slot: 3, src: 0 },
            ],
            1,
            1,
            vec![],
        );
        let v = verify_chunk(&c).unwrap_err();
        assert_eq!(v.kind, ViolationKind::SlotOutOfBounds);
        assert_eq!(v.at, 1);
    }

    #[test]
    fn rejects_reg_out_of_bounds() {
        let c = chunk(vec![Instr::Const { dst: 7, val: 0.0 }], 2, 0, vec![]);
        let v = verify_chunk(&c).unwrap_err();
        assert_eq!(v.kind, ViolationKind::RegOutOfBounds);
    }

    #[test]
    fn rejects_name_out_of_bounds() {
        let c = chunk(vec![Instr::LoadParam { dst: 0, name: 4 }], 1, 0, vec![]);
        let v = verify_chunk(&c).unwrap_err();
        assert_eq!(v.kind, ViolationKind::NameOutOfBounds);
    }

    #[test]
    fn rejects_unguarded_switch() {
        let c = chunk(
            vec![
                Instr::Const { dst: 0, val: 0.0 },
                Instr::Switch {
                    src: 0,
                    targets: vec![2, 2],
                },
                Instr::Return,
            ],
            1,
            0,
            vec![],
        );
        let v = verify_chunk(&c).unwrap_err();
        assert_eq!(v.kind, ViolationKind::UnguardedSwitch);
    }

    #[test]
    fn accepts_choice_guarded_switch() {
        let c = chunk(
            vec![
                Instr::Choice {
                    dst: 0,
                    name: 0,
                    branches: 2,
                },
                Instr::Switch {
                    src: 0,
                    targets: vec![2, 2],
                },
                Instr::Return,
            ],
            1,
            0,
            vec!["either_0".into()],
        );
        verify_chunk(&c).unwrap();
    }

    #[test]
    fn rejects_bad_charge() {
        let c = chunk(vec![Instr::Charge { amount: -1.0 }], 0, 0, vec![]);
        let v = verify_chunk(&c).unwrap_err();
        assert_eq!(v.kind, ViolationKind::BadCharge);
    }

    #[test]
    fn rejects_bad_operator() {
        let c = chunk(
            vec![
                Instr::Const { dst: 0, val: 1.0 },
                Instr::Const { dst: 1, val: 1.0 },
                Instr::Bin {
                    op: crate::ast::BinOp::And,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
            ],
            3,
            0,
            vec![],
        );
        let v = verify_chunk(&c).unwrap_err();
        assert_eq!(v.kind, ViolationKind::BadOperator);
    }

    #[test]
    fn charge_signature_elides_zero_regions_and_sums() {
        let code = vec![
            Instr::Charge { amount: 1.0 },
            Instr::Charge { amount: 1.0 },
            Instr::Jump { target: 3 },
            Instr::Charge { amount: 1.0 },
            Instr::Return,
        ];
        assert_eq!(charge_signature(&code), vec![2.0, 1.0]);
    }

    #[test]
    fn join_is_a_lattice() {
        use AbsValue::*;
        let all = [Bottom, Scalar, Array { rank: 1 }, Array { rank: 2 }, Any];
        for a in all {
            assert_eq!(Bottom.join(a), a);
            assert_eq!(a.join(a), a);
            assert_eq!(a.join(Any), Any);
            for b in all {
                assert_eq!(a.join(b), b.join(a));
                for c in all {
                    assert_eq!(a.join(b).join(c), a.join(b.join(c)));
                }
            }
        }
        assert_eq!(Scalar.join(Array { rank: 2 }), Any);
        assert_eq!(Array { rank: 1 }.join(Array { rank: 2 }), Any);
    }

    #[test]
    fn slot_transfers_track_shape() {
        // Entry: s0 a matrix, s1 a vector, the rest unwritten.
        let c = chunk(
            vec![
                Instr::Const { dst: 0, val: 1.0 },
                Instr::StoreSlotNum { slot: 2, src: 0 },
                Instr::CopySlot { dst: 3, src: 0 },
                Instr::CallHost {
                    name: 0,
                    first: FirstArg::Var(1),
                    rest: vec![],
                    dst: 4,
                },
                Instr::CallTransform {
                    name: 1,
                    callee: 0,
                    args: vec![Operand::Slot(2)],
                    dst: 5,
                    scalar: true,
                },
                Instr::CallTransform {
                    name: 1,
                    callee: 0,
                    args: vec![Operand::Slot(2)],
                    dst: 6,
                    scalar: false,
                },
                // s7: a scalar on one path, the matrix on the other.
                Instr::StoreSlotNum { slot: 7, src: 0 },
                Instr::JumpIfZero { cond: 0, target: 9 },
                Instr::CopySlot { dst: 7, src: 0 },
                Instr::Return,
            ],
            1,
            8,
            vec!["host".into(), "callee".into()],
        );
        verify_chunk(&c).unwrap();
        let entry = [AbsValue::Array { rank: 2 }, AbsValue::Array { rank: 1 }];
        let facts = analyze_chunk(&c, &entry);
        use AbsValue::*;
        assert_eq!(
            facts.slots,
            [
                Array { rank: 2 },
                Any, // the host may overwrite its mutable first argument
                Scalar,
                Array { rank: 2 },
                Any,
                Scalar,
                Any,
                Any,
            ]
        );
        assert_eq!(facts.entry_slots[..2], entry);
        assert!(facts.entry_slots[2..].iter().all(|v| *v == Bottom));
    }
}
