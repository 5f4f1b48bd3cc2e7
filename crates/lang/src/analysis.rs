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
//!   `JumpCmp*`/`AddImmJump` forms and `Switch` tables) lands inside
//!   the chunk, every register/slot/name index is in bounds, every
//!   register is defined on every path before it is read (forward
//!   must-defined dataflow over the CFG), every `Switch` is guarded by
//!   the clamping `Choice` that feeds it, and every `Charge` is
//!   positive and finite. Violations carry a typed
//!   [`ViolationKind`] so regression tests can pin exactly *which*
//!   invariant a hand-broken chunk trips.
//! * [`charge_signature`] summarizes a chunk's cost accounting as the
//!   ordered per-straight-line-region charge totals;
//!   [`crate::opt::optimize`] checks the signature after every pass
//!   (under `PB_VERIFY=1` or in debug builds), so a `Charge` hoisted
//!   across control flow is attributed to the pass that moved it.
//! * [`verify_inlined`] checks a chunk the `inline` pass rewrote
//!   against the chunk it started from and the pass's own site
//!   records: regions closed to stray control flow, sites licensed by
//!   the facts, no state surviving from one entry to the next, and
//!   the callee's charges present in full.
//! * [`analyze_chunk`] runs a forward abstract interpretation over the
//!   same CFG, inferring per-register and per-slot abstract kinds
//!   (bool/int/float scalars with a constant-ness lattice, arrays with
//!   rank) as a [`ChunkFacts`] artifact attached to
//!   [`crate::compile::CompiledTransform`] — the seed for the typed IR
//!   the ROADMAP's native-code tier needs.
//! * [`lint_program`] layers DSL-level lints on top of sema and the
//!   verifier: dead tunables, unconsumed rule products, tunables whose
//!   range collapses to a constant, and rules whose chunks fail
//!   verification.

use crate::ast::{Expr, LValue, Program, Stmt, Transform};
use crate::compile::{Chunk, FirstArg, Instr, Operand, Slot};
use crate::opt::{
    for_each_def, for_each_slot_def, for_each_slot_use, for_each_target, for_each_use,
    is_terminator, jump_targets, live_in_at_entry, Bank, Cfg, InlineSite, OptLevel,
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
    /// An inlined region that is not closed: it does not open with its
    /// `DepthGuard`, control enters it past the guard or leaves it
    /// other than through its exit, or an argument slot the site
    /// relied on is not proven scalar (see [`verify_inlined`]).
    BadInlineRegion,
    /// An inlined region that can read one of its private registers or
    /// slots before writing it — state left by the previous entry,
    /// where a call would have started from a zeroed frame.
    StaleInlineState,
    /// A slot `promote` moved into a register is still touched as a
    /// slot, or an exit is not preceded by the stores that write the
    /// promoted outputs back (see `verify_promoted`).
    LostWriteBack,
    /// Value tracking pointed a read at a register that does not
    /// provably hold the value the original operand held there, or
    /// replaced an instruction with one that writes something else
    /// (see `verify_forwarded`).
    StaleValue,
    /// A `DepthGuard` was removed where no guard at least as deep has
    /// run on every path.
    UnguardedDepth,
    /// A threaded jump is not a copy of the `AddImmJump` its `Jump`
    /// pointed at (see `verify_threaded`).
    BadJumpThread,
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
            ViolationKind::BadInlineRegion => "bad_inline_region",
            ViolationKind::StaleInlineState => "stale_inline_state",
            ViolationKind::LostWriteBack => "lost_write_back",
            ViolationKind::StaleValue => "stale_value",
            ViolationKind::UnguardedDepth => "unguarded_depth",
            ViolationKind::BadJumpThread => "bad_jump_thread",
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

fn is_cmp_op(op: crate::ast::BinOp) -> bool {
    use crate::ast::BinOp::*;
    matches!(op, Eq | Ne | Lt | Le | Gt | Ge)
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
            Instr::JumpCmp { op, .. } | Instr::JumpCmpImm { op, .. } if !is_cmp_op(*op) => {
                note(violation(
                    ViolationKind::BadOperator,
                    i,
                    format!("fused compare carries non-comparison operator {op:?}"),
                ));
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
/// charge totals (zero-total regions elided, so pure `Nop` compaction
/// cannot perturb it). Every optimizer pass must preserve this
/// signature exactly — `fold_charges` merges within a region, never
/// across one — which is what "no `Charge` hoisted across control
/// flow" means statically.
///
/// Jump targets must already be validated (`<= code.len()`).
pub fn charge_signature(code: &[Instr]) -> Vec<f64> {
    charge_segments(code, &[]).concat()
}

/// [`charge_signature`] split into one signature per stretch of code
/// between consecutive `cuts` (ascending instruction indices, each a
/// forced region boundary) — how an inlined chunk's accounting is
/// compared piecewise with its caller's and callees'.
fn charge_segments(code: &[Instr], cuts: &[usize]) -> Vec<Vec<f64>> {
    let targets = jump_targets(code);
    let mut segments = vec![Vec::new()];
    let mut cur = 0.0f64;
    let flush = |cur: &mut f64, segments: &mut Vec<Vec<f64>>| {
        if *cur != 0.0 {
            segments.last_mut().expect("never empty").push(*cur);
            *cur = 0.0;
        }
    };
    for (i, instr) in code.iter().enumerate() {
        if targets[i] {
            flush(&mut cur, &mut segments);
        }
        for _ in cuts.iter().filter(|&&c| c == i) {
            flush(&mut cur, &mut segments);
            segments.push(Vec::new());
        }
        if let Instr::Charge { amount } = instr {
            cur += *amount;
        }
        if is_terminator(instr) {
            flush(&mut cur, &mut segments);
        }
    }
    flush(&mut cur, &mut segments);
    segments.resize(cuts.len() + 1, Vec::new());
    segments
}

/// Checks the `inline` pass's output against its input and its own
/// site records, one rule per thing a splice can get wrong:
///
/// * **closed regions** — each region opens with its `DepthGuard`;
///   every jump inside it lands inside it or on its exit, and nothing
///   outside jumps past the guard ([`ViolationKind::BadInlineRegion`]);
/// * **licensed sites** — each slot argument of the replaced call is
///   proven scalar by facts recomputed over `before` (same kind);
/// * **fresh state** — analysed on its own, a region reads none of its
///   private registers or slots before writing them
///   ([`ViolationKind::StaleInlineState`]);
/// * **charges kept** — with boundaries forced at every region's ends,
///   the result's charge signature is the caller's with each callee's
///   inserted where its call was ([`ViolationKind::ChargeMoved`]).
///
/// `entry` is `before`'s entry slot state.
///
/// # Errors
///
/// Returns the first [`Violation`].
pub fn verify_inlined(
    before: &Chunk,
    after: &Chunk,
    sites: &[InlineSite],
    entry: &[AbsValue],
) -> Result<(), Violation> {
    let calls: Vec<usize> = before
        .code
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Instr::CallTransform { .. }))
        .map(|(at, _)| at)
        .collect();
    let facts = analyze_chunk(before, entry);
    let bad_region =
        |at: usize, detail: String| violation(ViolationKind::BadInlineRegion, at, detail);

    // Where each site's call sat in `before`: regions only ever grow
    // the code, so the offset is the growth of the sites before it.
    let mut grown = 0;
    let mut call_at = Vec::with_capacity(sites.len());
    for site in sites {
        let Some(len) = site
            .end
            .checked_sub(site.start)
            .filter(|_| site.end <= after.code.len())
        else {
            return Err(bad_region(
                site.start,
                "region lies outside the chunk".into(),
            ));
        };
        let at = site.start.wrapping_sub(grown);
        let Some(Instr::CallTransform { args, .. }) = calls.contains(&at).then(|| &before.code[at])
        else {
            return Err(bad_region(
                site.start,
                format!(
                    "no call to `{}` at the matching point of the caller",
                    site.callee
                ),
            ));
        };
        for op in args {
            if let Operand::Slot(s) = op {
                if !matches!(facts.slots.get(*s as usize), Some(AbsValue::Scalar { .. })) {
                    return Err(bad_region(
                        site.start,
                        format!("argument s{s} of `{}` is not proven scalar", site.callee),
                    ));
                }
            }
        }
        call_at.push(at);
        grown += len.saturating_sub(1);
    }

    for site in sites {
        let region = &after.code[site.start..site.end];
        if !matches!(region.first(), Some(Instr::DepthGuard { .. })) {
            return Err(bad_region(
                site.start,
                format!(
                    "region of `{}` does not open with its depth guard",
                    site.callee
                ),
            ));
        }
        // Control flow: closed from the inside, sealed from the outside.
        for (i, instr) in after.code.iter().enumerate() {
            let inside = (site.start..site.end).contains(&i);
            let mut stray = None;
            for_each_target(instr, |t| {
                let ok = if inside {
                    (site.start..=site.end).contains(&t)
                } else {
                    !(site.start < t && t < site.end)
                };
                if !ok {
                    stray = Some(t);
                }
            });
            if let Some(t) = stray {
                return Err(bad_region(
                    i,
                    format!("jump to {t} crosses the region of `{}`", site.callee),
                ));
            }
        }
        // Fresh state: the region as a program of its own.
        let mut alone = region.to_vec();
        for instr in &mut alone {
            crate::opt::for_each_target_mut(instr, |t| *t -= site.start);
        }
        let stale_reg = live_in_at_entry(&alone, Bank::Regs, &[])
            .into_iter()
            .find(|r| site.regs.contains(r))
            .map(|r| format!("r{r}"));
        let stale = stale_reg.or_else(|| {
            live_in_at_entry(&alone, Bank::Slots, &[])
                .into_iter()
                .find(|s| site.slots.contains(s))
                .map(|s| format!("s{s}"))
        });
        if let Some(what) = stale {
            return Err(violation(
                ViolationKind::StaleInlineState,
                site.start,
                format!(
                    "`{}`'s {what} may be read before this entry writes it",
                    site.callee
                ),
            ));
        }
    }

    // Charges: the caller's stretches between calls must survive as
    // the result's stretches between regions, and each region must
    // carry exactly its callee's signature.
    let cuts: Vec<usize> = sites.iter().flat_map(|s| [s.start, s.end]).collect();
    let got = charge_segments(&after.code, &cuts);
    let kept = charge_segments(&before.code, &call_at);
    for (i, want) in kept.iter().enumerate() {
        if got[2 * i] != *want {
            return Err(violation(
                ViolationKind::ChargeMoved,
                sites.get(i).map_or(after.code.len(), |s| s.start),
                format!("caller charges {want:?} became {:?}", got[2 * i]),
            ));
        }
    }
    for (i, site) in sites.iter().enumerate() {
        if got[2 * i + 1] != site.charges {
            return Err(violation(
                ViolationKind::ChargeMoved,
                site.start,
                format!(
                    "`{}` charges {:?}, its inlined region {:?}",
                    site.callee,
                    site.charges,
                    got[2 * i + 1]
                ),
            ));
        }
    }
    Ok(())
}

// ---- claims of the register-residency passes ----------------------------

/// Checks `promote`'s output against its own record: a promoted slot
/// is mentioned only by its entry load and its write-back stores, and
/// every exit — each `Return`, and the end of the code when control
/// can run off it — sits directly behind the full write-back run, with
/// no jump landing inside the run or on the exit itself.
///
/// # Errors
///
/// Returns the first [`Violation`] ([`ViolationKind::LostWriteBack`]).
pub(crate) fn verify_promoted(
    code: &[Instr],
    promotion: &crate::opt::Promotion,
) -> Result<(), Violation> {
    let lost = |at: usize, detail: String| violation(ViolationKind::LostWriteBack, at, detail);
    let home = |s: Slot| {
        promotion
            .homes
            .iter()
            .find(|(p, _)| *p == s)
            .map(|&(_, h)| h)
    };
    for (i, instr) in code.iter().enumerate() {
        let edge = match instr {
            Instr::LoadSlotNum { dst, slot } => {
                i < promotion.entry_loads && home(*slot) == Some(*dst)
            }
            Instr::StoreSlotNum { slot, src } => home(*slot) == Some(*src),
            _ => false,
        };
        let mut stray = None;
        for_each_slot(instr, |s| {
            if home(s).is_some() && !edge {
                stray = Some(s);
            }
        });
        if let Some(s) = stray {
            return Err(lost(i, format!("promoted s{s} is still used as a slot")));
        }
    }
    let run = &promotion.write_back;
    if run.is_empty() {
        return Ok(());
    }
    let targets = jump_targets(code);
    let n = code.len();
    let falls_off = crate::opt::falls_off_end(code);
    let exits = (0..n)
        .filter(|&i| matches!(code[i], Instr::Return))
        .chain(falls_off.then_some(n));
    for exit in exits {
        let written = exit >= run.len() && code[exit - run.len()..exit] == run[..];
        if !written {
            return Err(lost(
                exit.min(n.saturating_sub(1)),
                "an exit is not preceded by the output write-back".into(),
            ));
        }
        if let Some(t) = (exit - run.len() + 1..=exit).find(|&t| targets[t]) {
            return Err(lost(
                t,
                "a jump lands past the start of a write-back".into(),
            ));
        }
    }
    Ok(())
}

/// Instruction identity for the before/after checks: `==`, except that
/// a `NaN` immediate equals itself.
fn same_instr(a: &Instr, b: &Instr) -> bool {
    a == b || format!("{a:?}") == format!("{b:?}")
}

/// What [`verify_forwarded`] knows of a register: the class of
/// registers it provably equals, and how deep a depth guard has run.
#[derive(Clone, PartialEq)]
struct Equalities {
    /// `Some(c)`: this constant's bits; registers with the same
    /// `Ok(root)` hold the same value.
    class: Vec<Result<u16, u64>>,
    guard: u8,
}

impl Equalities {
    fn define(&mut self, d: u16) {
        // Registers that were copies of `d` keep one another: re-root
        // them on the first.
        let mut heir = None;
        for r in 0..self.class.len() as u16 {
            if r != d && self.class[r as usize] == Ok(d) {
                self.class[r as usize] = Ok(*heir.get_or_insert(r));
            }
        }
        self.class[d as usize] = Ok(d);
    }

    fn step(&mut self, instr: &Instr) {
        match *instr {
            Instr::Const { dst, val } => {
                self.define(dst);
                self.class[dst as usize] = Err(val.to_bits());
            }
            Instr::Move { dst, src } => {
                let class = self.class[src as usize];
                if class != self.class[dst as usize] {
                    self.define(dst);
                    self.class[dst as usize] = class;
                }
            }
            Instr::DepthGuard { extra } => self.guard = self.guard.max(extra),
            _ => {
                let mut defs = Vec::new();
                for_each_def(instr, |d| defs.push(d));
                defs.into_iter().for_each(|d| self.define(d));
            }
        }
    }
}

/// Checks value tracking's output against the code it started from.
/// The pass rewrites in place, so instruction `i` of `after` stands for
/// instruction `i` of `before`: where the opcode is unchanged, every
/// register it reads must be the original operand or provably equal to
/// it at that point — by a must-equality dataflow over `after` (copies
/// and constants, met over all predecessors) — and it must write the
/// same registers; where the opcode changed, a `DepthGuard` may only
/// vanish behind a guard at least as deep, and anything else must still
/// write exactly what the original wrote.
///
/// # Errors
///
/// Returns the first [`Violation`] ([`ViolationKind::StaleValue`] or
/// [`ViolationKind::UnguardedDepth`]).
pub(crate) fn verify_forwarded(
    before: &[Instr],
    after: &[Instr],
    n_regs: u16,
) -> Result<(), Violation> {
    let stale = |at: usize, detail: String| violation(ViolationKind::StaleValue, at, detail);
    if before.len() != after.len() {
        return Err(stale(0, "value tracking changed the code length".into()));
    }
    if after.is_empty() {
        return Ok(());
    }
    let cfg = Cfg::build(after);
    let mut at_entry: Vec<Option<Equalities>> = vec![None; cfg.len()];
    at_entry[0] = Some(Equalities {
        class: (0..n_regs).map(Ok).collect(),
        guard: 0,
    });
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..cfg.len() {
            let Some(mut state) = at_entry[b].clone() else {
                continue;
            };
            for i in cfg.range(b) {
                state.step(&after[i]);
            }
            for &s in cfg.successors(b) {
                match &mut at_entry[s] {
                    None => {
                        at_entry[s] = Some(state.clone());
                        changed = true;
                    }
                    Some(known) => {
                        // Two registers stay equal only if they were
                        // on both sides: re-root by pairs of classes.
                        let pairs: Vec<_> = known.class.iter().zip(&state.class).collect();
                        let met: Vec<Result<u16, u64>> = (0..pairs.len())
                            .map(|r| match pairs[r] {
                                (Err(a), Err(b)) if a == b => Err(*a),
                                pair => {
                                    Ok(pairs.iter().position(|p| *p == pair).unwrap_or(r) as u16)
                                }
                            })
                            .collect();
                        let guard = known.guard.min(state.guard);
                        if met != known.class || guard != known.guard {
                            known.class = met;
                            known.guard = guard;
                            changed = true;
                        }
                    }
                }
            }
        }
    }
    for (b, state) in at_entry.into_iter().enumerate() {
        let Some(mut state) = state else {
            continue;
        };
        for i in cfg.range(b) {
            let (old, new) = (&before[i], &after[i]);
            if !same_instr(old, new) {
                let defs = |instr: &Instr| {
                    let mut v = Vec::new();
                    for_each_def(instr, |d| v.push(d));
                    v
                };
                let uses = |instr: &Instr| {
                    let mut v = Vec::new();
                    for_each_use(instr, |r| v.push(r));
                    v
                };
                match (old, new) {
                    (Instr::DepthGuard { extra }, Instr::Nop) => {
                        if state.guard < *extra {
                            return Err(violation(
                                ViolationKind::UnguardedDepth,
                                i,
                                format!("no guard of depth {extra} or more dominates this one"),
                            ));
                        }
                    }
                    _ if old.opcode_index() == new.opcode_index() => {
                        let (was, now) = (uses(old), uses(new));
                        for (w, n) in was.iter().zip(&now) {
                            if state.class[*w as usize] != state.class[*n as usize] {
                                return Err(stale(i, format!("r{n} is not a copy of r{w} here")));
                            }
                        }
                        if was.len() != now.len() || defs(old) != defs(new) {
                            return Err(stale(i, "the instruction's shape changed".into()));
                        }
                    }
                    // Folded, strength-reduced, or reused: any pure
                    // form writing the same register (an expression
                    // recomputed into the register that still holds it
                    // may go altogether).
                    _ => {
                        let same = defs(old) == defs(new) || matches!(new, Instr::Nop);
                        let pure = matches!(
                            new,
                            Instr::Const { .. }
                                | Instr::Move { .. }
                                | Instr::BinRI { .. }
                                | Instr::BinIR { .. }
                                | Instr::Nop
                        );
                        if !(same && pure) {
                            return Err(stale(i, format!("{old:?} became {new:?}")));
                        }
                    }
                }
            }
            state.step(new);
        }
    }
    Ok(())
}

/// Checks `thread_jumps`' output against its input: the only change it
/// may make is a `Jump` becoming a copy of the `AddImmJump` it pointed
/// at.
///
/// # Errors
///
/// Returns the first [`Violation`] ([`ViolationKind::BadJumpThread`]).
pub(crate) fn verify_threaded(before: &[Instr], after: &[Instr]) -> Result<(), Violation> {
    let bad = |at: usize, detail: String| violation(ViolationKind::BadJumpThread, at, detail);
    if before.len() != after.len() {
        return Err(bad(0, "jump threading changed the code length".into()));
    }
    for (i, (old, new)) in before.iter().zip(after).enumerate() {
        if same_instr(old, new) {
            continue;
        }
        let through = match old {
            Instr::Jump { target } => before.get(*target),
            _ => None,
        };
        if !matches!(through, Some(next @ Instr::AddImmJump { .. }) if same_instr(next, new)) {
            return Err(bad(i, format!("{old:?} became {new:?}")));
        }
    }
    Ok(())
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

/// Scalar kind lattice: `Bool ⊑ Int ⊑ Float` (every bool is 0/1,
/// every int is an integral `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScalarKind {
    /// Always `0.0` or `1.0` (comparisons, logic).
    Bool,
    /// Always an integral `f64` (counters, indices, shapes, tunables).
    Int,
    /// Any `f64`.
    Float,
}

impl fmt::Display for ScalarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ScalarKind::Bool => "bool",
            ScalarKind::Int => "int",
            ScalarKind::Float => "float",
        })
    }
}

/// Abstract value: the join-semilattice element inferred for a
/// register or slot.
///
/// Equality is lattice-element identity: constants compare **bitwise**
/// (`NaN == NaN`), matching [`AbsValue::join`]'s merge rule — the
/// fixpoint in [`analyze_chunk`] relies on a folded `NaN` constant
/// being equal to itself to converge.
#[derive(Debug, Clone, Copy)]
pub enum AbsValue {
    /// Unreached / never holds a value.
    Bottom,
    /// A scalar of the given kind; `cst` when every reaching value is
    /// the same constant (bitwise).
    Scalar {
        /// The scalar kind.
        kind: ScalarKind,
        /// The constant value, if provably unique.
        cst: Option<f64>,
    },
    /// An array of the given rank (1 or 2).
    Array {
        /// Number of dimensions.
        rank: u8,
    },
    /// Anything (host-call results, mixed scalar/array).
    Any,
}

impl PartialEq for AbsValue {
    fn eq(&self, other: &AbsValue) -> bool {
        use AbsValue::*;
        match (self, other) {
            (Bottom, Bottom) | (Any, Any) => true,
            (Scalar { kind: ka, cst: ca }, Scalar { kind: kb, cst: cb }) => {
                ka == kb && ca.map(f64::to_bits) == cb.map(f64::to_bits)
            }
            (Array { rank: a }, Array { rank: b }) => a == b,
            _ => false,
        }
    }
}

impl Eq for AbsValue {}

impl AbsValue {
    /// A non-constant scalar.
    pub fn scalar(kind: ScalarKind) -> AbsValue {
        AbsValue::Scalar { kind, cst: None }
    }

    /// A known constant (kind inferred from the value).
    pub fn constant(v: f64) -> AbsValue {
        AbsValue::Scalar {
            kind: const_kind(v),
            cst: Some(v),
        }
    }

    /// Least upper bound.
    pub fn join(self, other: AbsValue) -> AbsValue {
        use AbsValue::*;
        match (self, other) {
            (Bottom, x) | (x, Bottom) => x,
            (Scalar { kind: ka, cst: ca }, Scalar { kind: kb, cst: cb }) => Scalar {
                kind: ka.max(kb),
                cst: match (ca, cb) {
                    (Some(a), Some(b)) if a.to_bits() == b.to_bits() => Some(a),
                    _ => None,
                },
            },
            (Array { rank: a }, Array { rank: b }) if a == b => Array { rank: a },
            _ => Any,
        }
    }

    fn as_scalar(self) -> (ScalarKind, Option<f64>) {
        match self {
            AbsValue::Scalar { kind, cst } => (kind, cst),
            _ => (ScalarKind::Float, None),
        }
    }
}

impl fmt::Display for AbsValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsValue::Bottom => f.write_str("bot"),
            AbsValue::Scalar { kind, cst: None } => write!(f, "{kind}"),
            AbsValue::Scalar { kind, cst: Some(v) } => write!(f, "{kind}={v}"),
            AbsValue::Array { rank } => write!(f, "arr{rank}"),
            AbsValue::Any => f.write_str("any"),
        }
    }
}

fn const_kind(v: f64) -> ScalarKind {
    if v.is_finite() && v.fract() == 0.0 {
        ScalarKind::Int
    } else {
        ScalarKind::Float
    }
}

/// Per-chunk inferred facts: the join, over every reachable program
/// point, of each register's and slot's abstract value. This is the
/// artifact the ROADMAP's typed IR consumes — e.g. a slot inferred
/// `arr2` needs no rank check, a reg inferred `int` can skip
/// float-path checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkFacts {
    /// Slot state at chunk entry (rule bindings from the transform
    /// declaration; everything else ⊥). Kept so the facts can be
    /// recomputed after re-optimization without the AST.
    pub entry_slots: Vec<AbsValue>,
    /// Per-register inferred kind (⊥ = never written / unreachable).
    pub regs: Vec<AbsValue>,
    /// Per-slot inferred kind, entry state included.
    pub slots: Vec<AbsValue>,
}

fn declared_shape(transform: &Transform, data: &str) -> AbsValue {
    match transform.data(data) {
        Some(p) if p.dims.is_empty() => AbsValue::scalar(ScalarKind::Float),
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
                let kept = match (shape[d], facts.slots[s as usize]) {
                    (AbsValue::Any, _) | (AbsValue::Scalar { .. }, AbsValue::Scalar { .. }) => true,
                    (declared, now) => declared == now,
                };
                if !kept {
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
    let n = chunk.code.len();
    let nr = chunk.n_regs as usize;
    let ns = chunk.n_slots as usize;
    let mut entry = entry_slots.to_vec();
    entry.resize(ns, AbsValue::Bottom);

    let mut facts = ChunkFacts {
        entry_slots: entry.clone(),
        regs: vec![AbsValue::Bottom; nr],
        slots: entry.clone(),
    };
    if n == 0 {
        return facts;
    }

    let code = &chunk.code;
    let cfg = Cfg::build(code);
    let nb = cfg.len();
    // Block-entry states, one flat row per block.
    let mut in_regs = vec![AbsValue::Bottom; nb * nr];
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
    let mut regs = vec![AbsValue::Bottom; nr];
    let mut slots = vec![AbsValue::Bottom; ns];
    let mut dirty = vec![true; nb];
    while dirty.contains(&true) {
        for b in 0..nb {
            if !std::mem::take(&mut dirty[b]) {
                continue;
            }
            regs.copy_from_slice(&in_regs[b * nr..][..nr]);
            slots.copy_from_slice(&in_slots[b * ns..][..ns]);
            for i in cfg.range(b) {
                step(&code[i], &mut regs, &mut slots);
            }
            for &s in cfg.successors(b) {
                let raised = join_into(&mut in_regs[s * nr..][..nr], &regs)
                    | join_into(&mut in_slots[s * ns..][..ns], &slots);
                dirty[s] |= raised;
            }
        }
    }

    // A register or slot takes a new value only where an instruction
    // writes it, so folding in what each instruction touched covers
    // every program point.
    for b in 0..nb {
        regs.copy_from_slice(&in_regs[b * nr..][..nr]);
        slots.copy_from_slice(&in_slots[b * ns..][..ns]);
        for i in cfg.range(b) {
            step(&code[i], &mut regs, &mut slots);
            for_each_def(&code[i], |r| {
                let r = r as usize;
                facts.regs[r] = facts.regs[r].join(regs[r]);
            });
            for_each_slot(&code[i], |s| {
                let s = s as usize;
                facts.slots[s] = facts.slots[s].join(slots[s]);
            });
        }
    }
    facts
}

/// Abstract result of `a op b`.
fn abs_bin(
    op: crate::ast::BinOp,
    a: (ScalarKind, Option<f64>),
    b: (ScalarKind, Option<f64>),
) -> AbsValue {
    use crate::ast::BinOp::*;
    if matches!(op, And | Or) {
        // Malformed (the VM cannot dispatch it); stay conservative.
        return AbsValue::scalar(ScalarKind::Bool);
    }
    let cst = match (a.1, b.1) {
        (Some(x), Some(y)) => Some(crate::opt::apply_bin(op, x, y)),
        _ => None,
    };
    if is_cmp_op(op) {
        return AbsValue::Scalar {
            kind: ScalarKind::Bool,
            cst,
        };
    }
    match cst {
        Some(v) => AbsValue::constant(v),
        None => {
            let kind = match op {
                Div => ScalarKind::Float,
                _ => a.0.max(b.0).max(ScalarKind::Int),
            };
            AbsValue::scalar(kind)
        }
    }
}

/// Transfer function: one instruction over (registers, slots).
fn step(instr: &Instr, regs: &mut [AbsValue], slots: &mut [AbsValue]) {
    use crate::compile::{MathFn1, MathFn2};
    let reg = |regs: &[AbsValue], r: u16| regs[r as usize].as_scalar();
    match instr {
        Instr::Const { dst, val } => regs[*dst as usize] = AbsValue::constant(*val),
        Instr::Move { dst, src } => regs[*dst as usize] = regs[*src as usize],
        Instr::LoadSlotNum { dst, slot } => {
            regs[*dst as usize] = match slots[*slot as usize] {
                v @ AbsValue::Scalar { .. } => v,
                _ => AbsValue::scalar(ScalarKind::Float),
            };
        }
        Instr::StoreSlotNum { slot, src } => {
            let (kind, cst) = reg(regs, *src);
            slots[*slot as usize] = AbsValue::Scalar { kind, cst };
        }
        Instr::CopySlot { dst, src } => slots[*dst as usize] = slots[*src as usize],
        Instr::LoadParam { dst, .. }
        | Instr::ForEnoughPrep { dst, .. }
        | Instr::Choice { dst, .. } => {
            regs[*dst as usize] = AbsValue::scalar(ScalarKind::Int);
        }
        Instr::Bin { op, dst, a, b } => {
            regs[*dst as usize] = abs_bin(*op, reg(regs, *a), reg(regs, *b));
        }
        Instr::BinRI { op, dst, a, imm } => {
            regs[*dst as usize] = abs_bin(*op, reg(regs, *a), (const_kind(*imm), Some(*imm)));
        }
        Instr::BinIR { op, dst, imm, b } => {
            regs[*dst as usize] = abs_bin(*op, (const_kind(*imm), Some(*imm)), reg(regs, *b));
        }
        Instr::Neg { dst, src } => {
            let (kind, cst) = reg(regs, *src);
            regs[*dst as usize] = AbsValue::Scalar {
                kind: kind.max(ScalarKind::Int),
                cst: cst.map(|v| -v),
            };
        }
        Instr::Not { dst, src } => {
            let (_, cst) = reg(regs, *src);
            regs[*dst as usize] = AbsValue::Scalar {
                kind: ScalarKind::Bool,
                cst: cst.map(|v| (v == 0.0) as i64 as f64),
            };
        }
        Instr::TestNonZero { dst, src } => {
            let (_, cst) = reg(regs, *src);
            regs[*dst as usize] = AbsValue::Scalar {
                kind: ScalarKind::Bool,
                cst: cst.map(|v| (v != 0.0) as i64 as f64),
            };
        }
        Instr::Math1 { f, dst, src } => {
            let (kind, cst) = reg(regs, *src);
            let kind = match f {
                MathFn1::Floor | MathFn1::Ceil => ScalarKind::Int,
                MathFn1::Abs => kind,
                MathFn1::Sqrt | MathFn1::Exp | MathFn1::Log => ScalarKind::Float,
            };
            regs[*dst as usize] = AbsValue::Scalar {
                kind,
                cst: cst.map(|v| crate::vm::apply_math1(*f, v)),
            };
        }
        Instr::Math2 { f, dst, a, b } => {
            let (ka, ca) = reg(regs, *a);
            let (kb, cb) = reg(regs, *b);
            let kind = match f {
                MathFn2::Min | MathFn2::Max => ka.max(kb),
                MathFn2::Pow => ScalarKind::Float,
            };
            let cst = match (ca, cb) {
                (Some(x), Some(y)) => Some(crate::vm::apply_math2(*f, x, y)),
                _ => None,
            };
            regs[*dst as usize] = AbsValue::Scalar { kind, cst };
        }
        Instr::Rand { dst, .. } => regs[*dst as usize] = AbsValue::scalar(ScalarKind::Float),
        Instr::Shape { dst, .. } => regs[*dst as usize] = AbsValue::scalar(ScalarKind::Int),
        Instr::LoadIdx1 { dst, .. } | Instr::LoadIdx2 { dst, .. } => {
            regs[*dst as usize] = AbsValue::scalar(ScalarKind::Float);
        }
        // Element writes refine nothing: the slot keeps its array kind.
        Instr::StoreIdx1 { .. } | Instr::StoreIdx2 { .. } | Instr::BinStoreIdx1 { .. } => {}
        Instr::AddImm { dst, imm } | Instr::AddImmJump { dst, imm, .. } => {
            let a = reg(regs, *dst);
            regs[*dst as usize] =
                abs_bin(crate::ast::BinOp::Add, a, (const_kind(*imm), Some(*imm)));
        }
        Instr::TruncPair { a, b } => {
            regs[*a as usize] = AbsValue::scalar(ScalarKind::Int);
            regs[*b as usize] = AbsValue::scalar(ScalarKind::Int);
        }
        Instr::WhileGuard { counter } => {
            regs[*counter as usize] = AbsValue::scalar(ScalarKind::Int);
        }
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
                AbsValue::scalar(ScalarKind::Float)
            } else {
                AbsValue::Any
            };
        }
        Instr::Jump { .. }
        | Instr::JumpIfZero { .. }
        | Instr::JumpIfNonZero { .. }
        | Instr::JumpIfGe { .. }
        | Instr::JumpCmp { .. }
        | Instr::JumpCmpImm { .. }
        | Instr::Switch { .. }
        | Instr::Charge { .. }
        | Instr::Return
        | Instr::DepthGuard { .. }
        | Instr::Nop => {}
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

    fn chunk(code: Vec<Instr>, n_regs: u16, n_slots: u16, names: Vec<String>) -> Chunk {
        Chunk {
            label: "test::r0".into(),
            code,
            names,
            n_regs,
            n_slots,
            input_slots: vec![],
            output_slots: vec![],
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
        let int = AbsValue::scalar(ScalarKind::Int);
        let a2 = Array { rank: 2 };
        assert_eq!(Bottom.join(int), int);
        assert_eq!(int.join(Bottom), int);
        assert_eq!(a2.join(a2), a2);
        assert_eq!(a2.join(Array { rank: 1 }), Any);
        assert_eq!(int.join(a2), Any);
        assert_eq!(
            AbsValue::constant(3.0).join(AbsValue::constant(3.0)),
            AbsValue::constant(3.0)
        );
        assert_eq!(
            AbsValue::constant(3.0).join(AbsValue::constant(4.0)),
            AbsValue::scalar(ScalarKind::Int)
        );
        assert_eq!(
            AbsValue::constant(1.5).join(AbsValue::constant(2.0)),
            AbsValue::scalar(ScalarKind::Float)
        );
    }

    #[test]
    fn abstract_interp_infers_kinds_and_consts() {
        // s0 = const 6 (3 * 2 folded abstractly), r-level bool from a
        // comparison.
        let c = chunk(
            vec![
                Instr::Const { dst: 0, val: 3.0 },
                Instr::BinRI {
                    op: crate::ast::BinOp::Mul,
                    dst: 1,
                    a: 0,
                    imm: 2.0,
                },
                Instr::StoreSlotNum { slot: 0, src: 1 },
                Instr::Bin {
                    op: crate::ast::BinOp::Lt,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
                Instr::Return,
            ],
            3,
            1,
            vec![],
        );
        let facts = analyze_chunk(&c, &[]);
        assert_eq!(facts.slots[0], AbsValue::constant(6.0));
        assert_eq!(
            facts.regs[2],
            AbsValue::Scalar {
                kind: ScalarKind::Bool,
                cst: Some(1.0)
            }
        );
    }

    #[test]
    fn loop_counter_loses_constness_but_stays_int() {
        // r0 = 0; loop: r0 += 1; jump back — the join forces non-const
        // but keeps int.
        let c = chunk(
            vec![
                Instr::Const { dst: 0, val: 0.0 },
                Instr::AddImmJump {
                    dst: 0,
                    imm: 1.0,
                    target: 1,
                },
            ],
            1,
            0,
            vec![],
        );
        let facts = analyze_chunk(&c, &[]);
        assert_eq!(facts.regs[0], AbsValue::scalar(ScalarKind::Int));
    }

    #[test]
    fn nan_constants_converge() {
        // Equality is bitwise, so a folded NaN constant is equal to
        // itself — the fixpoint's changed-check relies on that to
        // terminate when a NaN stays live across a back-edge.
        assert_eq!(AbsValue::constant(f64::NAN), AbsValue::constant(f64::NAN));
        let c = chunk(
            vec![
                Instr::Const {
                    dst: 0,
                    val: f64::NAN,
                },
                Instr::Const { dst: 1, val: 1.0 },
                Instr::JumpIfZero { cond: 1, target: 4 },
                Instr::Jump { target: 1 },
                Instr::Return,
            ],
            2,
            0,
            vec![],
        );
        verify_chunk(&c).unwrap();
        let facts = analyze_chunk(&c, &[]);
        let (kind, cst) = facts.regs[0].as_scalar();
        assert_eq!(kind, ScalarKind::Float);
        assert!(cst.is_some_and(f64::is_nan));
    }
}
