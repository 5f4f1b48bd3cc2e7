//! The bytecode optimizer: a fixed pass pipeline between lowering
//! ([`crate::compile`]) and dispatch ([`crate::vm`]).
//!
//! Lowering is deliberately naive — it mirrors the interpreter's
//! evaluation order statement by statement, which makes it easy to
//! prove semantics-preserving but leaves obvious fat in the hot loops:
//! constants rematerialized every iteration, loop variables bounced
//! through their slots on every read, three dispatches for a scalar
//! accumulator update, one `Charge` dispatch per statement. This
//! module removes that fat while keeping execution *observably
//! identical* to the interpreter: same outputs bit for bit, same RNG
//! consumption order, same virtual-cost totals, same errors at the
//! same execution points.
//!
//! At [`OptLevel::O3`] one whole-program pass runs first:
//!
//! 0. **Inlining** ([`inline`]) — calls to scalar helper transforms are
//!    replaced by the callee's lowered body (registers, slots, names
//!    and jump targets renumbered; charges, draws and error points
//!    kept), callees first. Everything below then runs across the old
//!    call boundary: the argument stores and the helper's loads
//!    collapse into register moves, its statement charge folds into
//!    the caller's.
//!
//! Then, per [`Chunk`]:
//!
//! 1. **Local value tracking** — block-local constant folding, copy
//!    propagation, and slot-scalar aliasing (a `LoadSlotNum` from a
//!    slot that provably holds `Num(regs[r])` becomes a `Move` from
//!    `r`, which copy propagation then usually erases).
//! 2. **Superinstruction fusion** ([`OptLevel::O2`]) — the dominant
//!    dynamic sequences collapse into one dispatch:
//!    `Const`-operand arithmetic → [`Instr::BinRI`]/[`Instr::BinIR`];
//!    compare-then-branch → [`Instr::JumpCmp`]/[`Instr::JumpCmpImm`];
//!    `LoadSlotNum`+binop+`StoreSlotNum` →
//!    [`Instr::SlotUpdImm`]/[`Instr::SlotUpdReg`];
//!    binop+`StoreIdx1` → [`Instr::BinStoreIdx1`]; and the
//!    `AddImm`+`Jump` loop back-edge → [`Instr::AddImmJump`]. Fusion
//!    only fires when no jump lands inside the sequence and the
//!    absorbed registers are dead afterwards (per the liveness
//!    analysis).
//! 3. **Dead-code elimination** — pure instructions whose results are
//!    dead become `Nop`s. Instructions with side effects (stores, RNG,
//!    cost charges, anything that can error) are never removed, so
//!    error behavior is preserved exactly.
//! 4. **Charge folding** ([`OptLevel::O2`]) — consecutive `Charge`
//!    amounts within a straight-line region merge into the first one.
//!    Charges never move across control flow (block leaders or
//!    terminators) or an inlined body's depth guard, so totals on
//!    every *completed* execution are identical. The one sanctioned
//!    deviation: a region's merged
//!    charge lands at its first charge's position, so an execution
//!    aborted by an error mid-region has already been charged for the
//!    region's later statements — the error itself (message and
//!    point) is unchanged, and no completed run ever observes a
//!    different total.
//! 5. **Specialization** ([`OptLevel::O3`], [`specialize`]) — indexed
//!    accesses whose slot the facts prove an array of the right rank
//!    become guarded unchecked (`*U`) forms, and loop-invariant
//!    `Shape` reads hoist behind zero-trip guards.
//! 6. **Compaction + register coalescing** — `Nop`s are dropped (jump
//!    targets remapped), and surviving registers are renumbered
//!    densely, shrinking `n_regs` and with it the per-invocation frame
//!    reset cost.
//!
//! Constant folding computes with the same `f64` operations the VM
//! would execute, so folded results are bit-identical to runtime
//! evaluation (including NaN, signed zero, and the interpreter's
//! `i64`-truncation rules).

use crate::ast::BinOp;
use crate::compile::{Chunk, FirstArg, Instr, Operand, Reg};
use std::collections::HashMap;

mod inline;
mod specialize;

pub(crate) use inline::inline_program;
pub use inline::{InlineRecord, InlineSite, InlineSkip};

/// How much optimization to run between lowering and dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// Straight-from-lowering bytecode (the pre-optimizer behavior).
    O0,
    /// Constant folding, copy propagation, dead-code elimination, and
    /// register coalescing.
    O1,
    /// Everything in [`OptLevel::O1`] plus superinstruction fusion and
    /// charge folding.
    O2,
    /// Everything in [`OptLevel::O2`] plus the facts-directed rewrites
    /// ([`crate::analysis::ChunkFacts`]): scalar helper transforms
    /// inlined into their callers, unchecked length-specialized
    /// indexing, and loop-invariant `Shape` hoisting behind zero-trip
    /// guards.
    #[default]
    O3,
}

impl OptLevel {
    /// Every level, lowest to highest — benches and differential
    /// suites iterate this so new tiers appear automatically.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];
}

/// A verifier violation attributed to the optimizer pass that
/// introduced it (or to `lowering` when the input chunk was already
/// malformed).
#[derive(Debug, Clone, PartialEq)]
pub struct PassViolation {
    /// Pass name: `lowering`, `inline`, `local_value`, `dce`,
    /// `compact`, `fuse`, `fold_charges`, `specialize`, or
    /// `renumber_regs`.
    pub pass: &'static str,
    /// The chunk's label.
    pub label: String,
    /// The underlying violation.
    pub violation: crate::analysis::Violation,
}

impl std::fmt::Display for PassViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pass `{}` broke chunk `{}`: {}",
            self.pass, self.label, self.violation
        )
    }
}

impl std::error::Error for PassViolation {}

/// Whether the pipeline re-verifies after every pass by default:
/// `PB_VERIFY=1` forces it on, `PB_VERIFY=0` off, unset follows
/// `debug_assertions`.
pub fn verify_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| match std::env::var("PB_VERIFY") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => cfg!(debug_assertions),
    })
}

/// Runs the pass pipeline over one chunk. [`OptLevel::O0`] returns the
/// chunk unchanged. Under `PB_VERIFY=1` (or in debug builds) the chunk
/// is re-verified after every pass; a violation panics with the name
/// of the pass that introduced it.
pub fn optimize(chunk: &Chunk, level: OptLevel) -> Chunk {
    match optimize_verified(chunk, level, verify_enabled()) {
        Ok(c) => c,
        Err(v) => panic!("optimizer bug: {v}"),
    }
}

/// [`optimize`] with entry-slot facts for the specializer (see
/// [`optimize_verified_with_entry`]).
pub fn optimize_with_entry(
    chunk: &Chunk,
    level: OptLevel,
    entry: Option<&[crate::analysis::AbsValue]>,
) -> Chunk {
    match optimize_verified_with_entry(chunk, level, verify_enabled(), entry) {
        Ok(c) => c,
        Err(v) => panic!("optimizer bug: {v}"),
    }
}

/// [`optimize`] with explicit control over pass-by-pass verification.
/// With `verify` off this is the plain pipeline (no per-pass cost);
/// with it on, [`crate::analysis::verify_code`] runs after every pass
/// and the per-region charge signature
/// ([`crate::analysis::charge_signature`]) is checked against the
/// input's, so the first pass to break an invariant — including
/// hoisting a `Charge` across control flow — is named in the error.
///
/// # Errors
///
/// Returns the [`PassViolation`] for the first pass whose output fails
/// verification (pass `lowering` if the input chunk is already bad).
pub fn optimize_verified(
    chunk: &Chunk,
    level: OptLevel,
    verify: bool,
) -> Result<Chunk, PassViolation> {
    optimize_verified_with_entry(chunk, level, verify, None)
}

/// [`optimize_verified`] with optional entry-slot facts (see
/// [`crate::analysis::entry_slots`]) feeding the [`OptLevel::O3`]
/// specializer. Without them the specializer still runs, but only the
/// rewrites that are safe from chunk-local inference alone fire —
/// `Shape` hoisting in particular needs the entry facts to prove a
/// hoisted read cannot introduce a new error point.
///
/// # Errors
///
/// Returns the [`PassViolation`] for the first pass whose output fails
/// verification (pass `lowering` if the input chunk is already bad).
pub fn optimize_verified_with_entry(
    chunk: &Chunk,
    level: OptLevel,
    verify: bool,
    entry: Option<&[crate::analysis::AbsValue]>,
) -> Result<Chunk, PassViolation> {
    use crate::analysis::{charge_signature, verify_code, Violation, ViolationKind};

    let n_names = chunk.names.len();
    let check = |pass: &'static str,
                 code: &[Instr],
                 n_regs: u16,
                 want_sig: Option<&[f64]>|
     -> Result<(), PassViolation> {
        let fail = |violation: Violation| PassViolation {
            pass,
            label: chunk.label.clone(),
            violation,
        };
        verify_code(
            code,
            n_regs,
            chunk.n_slots,
            n_names,
            &chunk.input_slots,
            &chunk.output_slots,
        )
        .map_err(fail)?;
        if let Some(want) = want_sig {
            let got = charge_signature(code);
            if got != want {
                return Err(fail(Violation {
                    kind: ViolationKind::ChargeMoved,
                    at: 0,
                    detail: format!("charge signature changed: {want:?} -> {got:?}"),
                }));
            }
        }
        Ok(())
    };

    let sig = if verify {
        check("lowering", &chunk.code, chunk.n_regs, None)?;
        Some(charge_signature(&chunk.code))
    } else {
        None
    };
    if level == OptLevel::O0 {
        return Ok(chunk.clone());
    }
    let mut code = chunk.code.clone();
    // The specializer allocates fresh registers, so the bank size is
    // tracked explicitly and every gate verifies against the current
    // count.
    let mut n_regs_cur = chunk.n_regs;
    let gate = |pass: &'static str, code: &[Instr], n_regs: u16| -> Result<(), PassViolation> {
        match &sig {
            Some(sig) => check(pass, code, n_regs, Some(sig)),
            None => Ok(()),
        }
    };

    // Value tracking and DCE cascade (a folded constant exposes a dead
    // `Const`, whose removal exposes nothing further), so two rounds
    // reach the fixpoint for the shapes lowering produces.
    for _ in 0..2 {
        local_value_pass(&mut code, level);
        gate("local_value", &code, n_regs_cur)?;
        dce(&mut code, &chunk.output_slots);
        gate("dce", &code, n_regs_cur)?;
        code = compact(code);
        gate("compact", &code, n_regs_cur)?;
    }
    if level >= OptLevel::O2 {
        fuse(&mut code);
        gate("fuse", &code, n_regs_cur)?;
        dce(&mut code, &chunk.output_slots);
        gate("dce", &code, n_regs_cur)?;
        fold_charges(&mut code);
        gate("fold_charges", &code, n_regs_cur)?;
        code = compact(code);
        gate("compact", &code, n_regs_cur)?;
    }
    if level >= OptLevel::O3 {
        // Facts for the specializer come from the code as it stands
        // now (the forms the earlier passes produced are what dispatch
        // will see), seeded with the caller's entry-slot facts.
        let interim = Chunk {
            label: chunk.label.clone(),
            code: code.clone(),
            names: chunk.names.clone(),
            n_regs: n_regs_cur,
            n_slots: chunk.n_slots,
            input_slots: chunk.input_slots.clone(),
            output_slots: chunk.output_slots.clone(),
            opt: OptLevel::O2,
        };
        let facts = crate::analysis::analyze_chunk(&interim, entry.unwrap_or(&[]));
        n_regs_cur = specialize::specialize(&mut code, n_regs_cur, &facts);
        gate("specialize", &code, n_regs_cur)?;
        if sig.is_some() {
            crate::analysis::verify_specialized(&code, &facts).map_err(|violation| {
                PassViolation {
                    pass: "specialize",
                    label: chunk.label.clone(),
                    violation,
                }
            })?;
        }
        // The hoist rewrite leaves `Move`s where the in-loop `Shape`s
        // were; one more cleanup round propagates and drops them.
        local_value_pass(&mut code, level);
        gate("local_value", &code, n_regs_cur)?;
        dce(&mut code, &chunk.output_slots);
        gate("dce", &code, n_regs_cur)?;
        code = compact(code);
        gate("compact", &code, n_regs_cur)?;
    }

    let (code, n_regs) = renumber_regs(code);
    if let Some(sig) = &sig {
        check("renumber_regs", &code, n_regs, Some(sig))?;
    }
    Ok(Chunk {
        label: chunk.label.clone(),
        code,
        names: chunk.names.clone(),
        n_regs,
        n_slots: chunk.n_slots,
        input_slots: chunk.input_slots.clone(),
        output_slots: chunk.output_slots.clone(),
        opt: level,
    })
}

// ---- instruction facts -------------------------------------------------

/// Registers an instruction reads (including the old value of
/// read-modify-write destinations).
pub(crate) fn for_each_use(instr: &Instr, mut f: impl FnMut(Reg)) {
    match instr {
        Instr::Move { src, .. }
        | Instr::Neg { src, .. }
        | Instr::Not { src, .. }
        | Instr::TestNonZero { src, .. }
        | Instr::Math1 { src, .. }
        | Instr::StoreSlotNum { src, .. } => f(*src),
        Instr::Bin { a, b, .. } | Instr::Math2 { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Instr::BinRI { a, .. } => f(*a),
        Instr::BinIR { b, .. } => f(*b),
        Instr::Rand { lo, hi, .. } => {
            f(*lo);
            f(*hi);
        }
        Instr::LoadIdx1 { idx, .. } | Instr::LoadIdx1U { idx, .. } => f(*idx),
        Instr::LoadIdx2 { i, j, .. } | Instr::LoadIdx2U { i, j, .. } => {
            f(*i);
            f(*j);
        }
        Instr::StoreIdx1 { idx, src, .. } | Instr::StoreIdx1U { idx, src, .. } => {
            f(*idx);
            f(*src);
        }
        Instr::BinStoreIdx1 { idx, a, b, .. } | Instr::BinStoreIdx1U { idx, a, b, .. } => {
            f(*idx);
            f(*a);
            f(*b);
        }
        Instr::StoreIdx2 { i, j, src, .. } | Instr::StoreIdx2U { i, j, src, .. } => {
            f(*i);
            f(*j);
            f(*src);
        }
        Instr::JumpIfZero { cond, .. } | Instr::JumpIfNonZero { cond, .. } => f(*cond),
        Instr::JumpIfGe { a, b, .. } | Instr::JumpCmp { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Instr::JumpCmpImm { a, .. } => f(*a),
        // Read-modify-write: the old value is consumed.
        Instr::AddImm { dst, .. } | Instr::AddImmJump { dst, .. } => f(*dst),
        Instr::TruncPair { a, b } => {
            f(*a);
            f(*b);
        }
        Instr::WhileGuard { counter } => f(*counter),
        Instr::Switch { src, .. } => f(*src),
        Instr::SlotUpdReg { b, .. } => f(*b),
        Instr::CallHost { first, rest, .. } => {
            if let FirstArg::Anon(Operand::Reg(r)) = first {
                f(*r);
            }
            for op in rest {
                if let Operand::Reg(r) = op {
                    f(*r);
                }
            }
        }
        Instr::CallTransform { args, .. } => {
            for op in args {
                if let Operand::Reg(r) = op {
                    f(*r);
                }
            }
        }
        Instr::Const { .. }
        | Instr::LoadSlotNum { .. }
        | Instr::CopySlot { .. }
        | Instr::LoadParam { .. }
        | Instr::Shape { .. }
        | Instr::ShapeHoisted { .. }
        | Instr::Jump { .. }
        | Instr::Charge { .. }
        | Instr::ForEnoughPrep { .. }
        | Instr::Choice { .. }
        | Instr::SlotUpdImm { .. }
        | Instr::Return
        | Instr::DepthGuard { .. }
        | Instr::Nop => {}
    }
}

/// Registers an instruction writes.
pub(crate) fn for_each_def(instr: &Instr, mut f: impl FnMut(Reg)) {
    match instr {
        Instr::Const { dst, .. }
        | Instr::Move { dst, .. }
        | Instr::LoadSlotNum { dst, .. }
        | Instr::LoadParam { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::BinRI { dst, .. }
        | Instr::BinIR { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::TestNonZero { dst, .. }
        | Instr::Math1 { dst, .. }
        | Instr::Math2 { dst, .. }
        | Instr::Rand { dst, .. }
        | Instr::Shape { dst, .. }
        | Instr::ShapeHoisted { dst, .. }
        | Instr::LoadIdx1 { dst, .. }
        | Instr::LoadIdx1U { dst, .. }
        | Instr::LoadIdx2 { dst, .. }
        | Instr::LoadIdx2U { dst, .. }
        | Instr::AddImm { dst, .. }
        | Instr::AddImmJump { dst, .. }
        | Instr::ForEnoughPrep { dst, .. }
        | Instr::Choice { dst, .. } => f(*dst),
        Instr::TruncPair { a, b } => {
            f(*a);
            f(*b);
        }
        Instr::WhileGuard { counter } => f(*counter),
        _ => {}
    }
}

/// Whether the instruction is free of observable effects beyond its
/// register writes — removable when those writes are dead. Everything
/// that can error, consume RNG, charge cost, touch slots, or transfer
/// control stays.
fn is_pure(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Const { .. }
            | Instr::Move { .. }
            | Instr::Bin { .. }
            | Instr::BinRI { .. }
            | Instr::BinIR { .. }
            | Instr::Neg { .. }
            | Instr::Not { .. }
            | Instr::TestNonZero { .. }
            | Instr::Math1 { .. }
            | Instr::Math2 { .. }
            | Instr::AddImm { .. }
            | Instr::TruncPair { .. }
            | Instr::Nop
    )
}

/// Whether the instruction ends a straight-line region.
pub(crate) fn is_terminator(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Jump { .. }
            | Instr::AddImmJump { .. }
            | Instr::JumpIfZero { .. }
            | Instr::JumpIfNonZero { .. }
            | Instr::JumpIfGe { .. }
            | Instr::JumpCmp { .. }
            | Instr::JumpCmpImm { .. }
            | Instr::Switch { .. }
            | Instr::Return
    )
}

/// Indices that are jump targets (block leaders, minus index 0 and
/// fall-throughs, which the passes that need full leader sets add
/// themselves).
pub(crate) fn jump_targets(code: &[Instr]) -> Vec<bool> {
    let mut targets = vec![false; code.len() + 1];
    for instr in code {
        for_each_target(instr, |t| targets[t] = true);
    }
    targets
}

/// Every instruction index an instruction may transfer control to
/// (fall-through excluded).
pub(crate) fn for_each_target(instr: &Instr, mut f: impl FnMut(usize)) {
    match instr {
        Instr::Jump { target }
        | Instr::AddImmJump { target, .. }
        | Instr::JumpIfZero { target, .. }
        | Instr::JumpIfNonZero { target, .. }
        | Instr::JumpIfGe { target, .. }
        | Instr::JumpCmp { target, .. }
        | Instr::JumpCmpImm { target, .. } => f(*target),
        Instr::Switch { targets, .. } => targets.iter().for_each(|t| f(*t)),
        _ => {}
    }
}

/// [`for_each_target`], rewriting: the one place that knows which
/// instructions carry targets, for every pass that moves code.
pub(crate) fn for_each_target_mut(instr: &mut Instr, mut f: impl FnMut(&mut usize)) {
    match instr {
        Instr::Jump { target }
        | Instr::AddImmJump { target, .. }
        | Instr::JumpIfZero { target, .. }
        | Instr::JumpIfNonZero { target, .. }
        | Instr::JumpIfGe { target, .. }
        | Instr::JumpCmp { target, .. }
        | Instr::JumpCmpImm { target, .. } => f(target),
        Instr::Switch { targets, .. } => targets.iter_mut().for_each(f),
        _ => {}
    }
}

// ---- liveness ----------------------------------------------------------

/// A dense per-register bit set.
#[derive(Clone, PartialEq, Default)]
struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    fn with_capacity(n_regs: usize) -> RegSet {
        RegSet {
            words: vec![0; n_regs.div_ceil(64)],
        }
    }

    fn insert(&mut self, r: Reg) {
        let r = r as usize;
        if r / 64 >= self.words.len() {
            self.words.resize(r / 64 + 1, 0);
        }
        self.words[r / 64] |= 1 << (r % 64);
    }

    fn remove(&mut self, r: Reg) {
        let r = r as usize;
        if r / 64 < self.words.len() {
            self.words[r / 64] &= !(1 << (r % 64));
        }
    }

    fn contains(&self, r: Reg) -> bool {
        let r = r as usize;
        r / 64 < self.words.len() && self.words[r / 64] & (1 << (r % 64)) != 0
    }

    /// `self |= other`; returns whether anything changed.
    fn union_with(&mut self, other: &RegSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            let next = *dst | *src;
            changed |= next != *dst;
            *dst = next;
        }
        changed
    }
}

/// Which bank a liveness query tracks.
#[derive(Clone, Copy)]
pub(crate) enum Bank {
    /// Scalar registers.
    Regs,
    /// `Value` slots (a def is a whole-slot overwrite; element stores
    /// read-modify the array in place and count as uses).
    Slots,
}

impl Bank {
    fn uses(self, instr: &Instr, f: impl FnMut(u16)) {
        match self {
            Bank::Regs => for_each_use(instr, f),
            Bank::Slots => for_each_slot_use(instr, f),
        }
    }

    fn defs(self, instr: &Instr, f: impl FnMut(u16)) {
        match self {
            Bank::Regs => for_each_def(instr, f),
            Bank::Slots => for_each_slot_def(instr, f),
        }
    }
}

/// The registers (or slots) some path from entry reads before writing
/// — the state a fresh, zeroed frame would have supplied.
pub(crate) fn live_in_at_entry(code: &[Instr], bank: Bank) -> Vec<u16> {
    let Some(first) = code.first() else {
        return Vec::new();
    };
    let mut live = live_after_sets(code, bank).swap_remove(0);
    bank.defs(first, |r| live.remove(r));
    bank.uses(first, |r| live.insert(r));
    (0..live.words.len() * 64)
        .map(|r| r as u16)
        .filter(|&r| live.contains(r))
        .collect()
}

/// Per-instruction liveness: `live_after[i]` is the set of registers
/// (or slots, per `bank`) whose values may still be read on some path
/// after instruction `i` executes.
fn live_after_sets(code: &[Instr], bank: Bank) -> Vec<RegSet> {
    let n = code.len();
    let mut max_reg = 0usize;
    for instr in code {
        bank.uses(instr, |r| max_reg = max_reg.max(r as usize + 1));
        bank.defs(instr, |r| max_reg = max_reg.max(r as usize + 1));
    }

    // Block structure.
    let targets = jump_targets(code);
    let mut leader = vec![false; n.max(1)];
    if n > 0 {
        leader[0] = true;
    }
    for i in 0..n {
        if targets[i] {
            leader[i] = true;
        }
        if is_terminator(&code[i]) && i + 1 < n {
            leader[i + 1] = true;
        }
    }
    let block_starts: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
    let block_of = {
        let mut map = vec![0usize; n];
        for (b, &start) in block_starts.iter().enumerate() {
            let end = block_starts.get(b + 1).copied().unwrap_or(n);
            for slot in map.iter_mut().take(end).skip(start) {
                *slot = b;
            }
        }
        map
    };
    let block_end = |b: usize| block_starts.get(b + 1).copied().unwrap_or(n);

    // Successor blocks of each block (via its final instruction).
    let successors = |b: usize| -> Vec<usize> {
        let last = block_end(b) - 1;
        let mut out = Vec::new();
        let mut push_target = |t: usize| {
            if t < n {
                out.push(block_of[t]);
            }
        };
        match &code[last] {
            Instr::Jump { target } | Instr::AddImmJump { target, .. } => push_target(*target),
            Instr::JumpIfZero { target, .. }
            | Instr::JumpIfNonZero { target, .. }
            | Instr::JumpIfGe { target, .. }
            | Instr::JumpCmp { target, .. }
            | Instr::JumpCmpImm { target, .. } => {
                push_target(*target);
                push_target(last + 1);
            }
            Instr::Switch { targets, .. } => {
                for t in targets {
                    push_target(*t);
                }
            }
            Instr::Return => {}
            _ => push_target(last + 1),
        }
        out
    };

    // Backward dataflow to a fixpoint over block live-in/live-out.
    let nb = block_starts.len();
    let mut live_in: Vec<RegSet> = vec![RegSet::with_capacity(max_reg); nb];
    let mut live_out: Vec<RegSet> = vec![RegSet::with_capacity(max_reg); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut out = RegSet::with_capacity(max_reg);
            for s in successors(b) {
                out.union_with(&live_in[s]);
            }
            let mut live = out.clone();
            for i in (block_starts[b]..block_end(b)).rev() {
                bank.defs(&code[i], |r| live.remove(r));
                bank.uses(&code[i], |r| live.insert(r));
            }
            changed |= live_out[b] != out || live_in[b] != live;
            live_out[b] = out;
            live_in[b] = live;
        }
    }

    // Final backward walk materializing per-instruction live-after.
    let mut after = vec![RegSet::default(); n];
    for b in 0..nb {
        let mut live = live_out[b].clone();
        for i in (block_starts[b]..block_end(b)).rev() {
            after[i] = live.clone();
            bank.defs(&code[i], |r| live.remove(r));
            bank.uses(&code[i], |r| live.insert(r));
        }
    }
    after
}

// ---- pass 1: local value tracking --------------------------------------

/// What a register is known to hold at the current program point.
#[derive(Clone, Copy, PartialEq)]
enum RegFact {
    Const(f64),
    /// Same value as another register (the fact is stored canonical:
    /// the referenced register is never itself a `Copy`).
    Copy(Reg),
}

/// Applies a binary operator with the VM's exact `f64` semantics.
/// `And`/`Or` never appear (lowering compiles them to jumps).
pub(crate) fn apply_bin(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        BinOp::Eq => (a == b) as i64 as f64,
        BinOp::Ne => (a != b) as i64 as f64,
        BinOp::Lt => (a < b) as i64 as f64,
        BinOp::Le => (a <= b) as i64 as f64,
        BinOp::Gt => (a > b) as i64 as f64,
        BinOp::Ge => (a >= b) as i64 as f64,
        BinOp::And | BinOp::Or => unreachable!("lowered to jumps"),
    }
}

/// Block-local constant folding, copy propagation, and slot-scalar
/// aliasing. Rewrites instructions in place (the code length never
/// changes, so jump targets stay valid).
fn local_value_pass(code: &mut [Instr], level: OptLevel) {
    let n = code.len();
    let targets = jump_targets(code);

    let mut facts: HashMap<Reg, RegFact> = HashMap::new();
    // `slots[s]` holds `Num` equal to the current value of a register.
    let mut slot_alias: HashMap<u16, Reg> = HashMap::new();
    // `slots[s]` holds `Num(imm)`.
    let mut slot_const: HashMap<u16, f64> = HashMap::new();

    for i in 0..n {
        if targets[i] {
            // Joining control flow invalidates everything local.
            facts.clear();
            slot_alias.clear();
            slot_const.clear();
        }

        // Kill facts that depend on a register this instruction writes
        // — done up front against the *pre*-instruction state; the
        // per-variant handling below then installs the new fact.
        let mut defs: Vec<Reg> = Vec::new();
        for_each_def(&code[i], |r| defs.push(r));

        // Resolve a register through the current copy facts.
        let canon = |facts: &HashMap<Reg, RegFact>, r: Reg| -> Reg {
            match facts.get(&r) {
                Some(RegFact::Copy(root)) => *root,
                _ => r,
            }
        };
        let known = |facts: &HashMap<Reg, RegFact>, r: Reg| -> Option<f64> {
            match facts.get(&r) {
                Some(RegFact::Const(v)) => Some(*v),
                _ => None,
            }
        };

        // Rewrite uses through copy facts (pure uses only; the
        // read-modify-write destinations of AddImm/TruncPair/WhileGuard
        // must stay in place).
        match &mut code[i] {
            Instr::Move { src, .. }
            | Instr::Neg { src, .. }
            | Instr::Not { src, .. }
            | Instr::TestNonZero { src, .. }
            | Instr::Math1 { src, .. }
            | Instr::StoreSlotNum { src, .. } => *src = canon(&facts, *src),
            Instr::Bin { a, b, .. } | Instr::Math2 { a, b, .. } => {
                *a = canon(&facts, *a);
                *b = canon(&facts, *b);
            }
            Instr::BinRI { a, .. } => *a = canon(&facts, *a),
            Instr::BinIR { b, .. } => *b = canon(&facts, *b),
            Instr::Rand { lo, hi, .. } => {
                *lo = canon(&facts, *lo);
                *hi = canon(&facts, *hi);
            }
            Instr::LoadIdx1 { idx, .. } | Instr::LoadIdx1U { idx, .. } => {
                *idx = canon(&facts, *idx)
            }
            Instr::LoadIdx2 { i: a, j: b, .. } | Instr::LoadIdx2U { i: a, j: b, .. } => {
                *a = canon(&facts, *a);
                *b = canon(&facts, *b);
            }
            Instr::StoreIdx1 { idx, src, .. } | Instr::StoreIdx1U { idx, src, .. } => {
                *idx = canon(&facts, *idx);
                *src = canon(&facts, *src);
            }
            Instr::BinStoreIdx1 { idx, a, b, .. } | Instr::BinStoreIdx1U { idx, a, b, .. } => {
                *idx = canon(&facts, *idx);
                *a = canon(&facts, *a);
                *b = canon(&facts, *b);
            }
            Instr::StoreIdx2 {
                i: a, j: b, src, ..
            }
            | Instr::StoreIdx2U {
                i: a, j: b, src, ..
            } => {
                *a = canon(&facts, *a);
                *b = canon(&facts, *b);
                *src = canon(&facts, *src);
            }
            Instr::JumpIfZero { cond, .. } | Instr::JumpIfNonZero { cond, .. } => {
                *cond = canon(&facts, *cond)
            }
            Instr::JumpIfGe { a, b, .. } | Instr::JumpCmp { a, b, .. } => {
                *a = canon(&facts, *a);
                *b = canon(&facts, *b);
            }
            Instr::JumpCmpImm { a, .. } => *a = canon(&facts, *a),
            Instr::Switch { src, .. } => *src = canon(&facts, *src),
            Instr::SlotUpdReg { b, .. } => *b = canon(&facts, *b),
            Instr::CallHost { first, rest, .. } => {
                if let FirstArg::Anon(Operand::Reg(r)) = first {
                    *r = canon(&facts, *r);
                }
                for op in rest.iter_mut() {
                    if let Operand::Reg(r) = op {
                        *r = canon(&facts, *r);
                    }
                }
            }
            Instr::CallTransform { args, .. } => {
                for op in args.iter_mut() {
                    if let Operand::Reg(r) = op {
                        *r = canon(&facts, *r);
                    }
                }
            }
            _ => {}
        }

        // Fold where operands are known, then install new facts.
        let new_instr: Option<Instr> = match &code[i] {
            Instr::Bin { op, dst, a, b } => match (known(&facts, *a), known(&facts, *b)) {
                (Some(va), Some(vb)) => Some(Instr::Const {
                    dst: *dst,
                    val: apply_bin(*op, va, vb),
                }),
                (Some(va), None) if level >= OptLevel::O2 => Some(Instr::BinIR {
                    op: *op,
                    dst: *dst,
                    imm: va,
                    b: *b,
                }),
                (None, Some(vb)) if level >= OptLevel::O2 => Some(Instr::BinRI {
                    op: *op,
                    dst: *dst,
                    a: *a,
                    imm: vb,
                }),
                _ => None,
            },
            Instr::BinRI { op, dst, a, imm } => known(&facts, *a).map(|va| Instr::Const {
                dst: *dst,
                val: apply_bin(*op, va, *imm),
            }),
            Instr::BinIR { op, dst, imm, b } => known(&facts, *b).map(|vb| Instr::Const {
                dst: *dst,
                val: apply_bin(*op, *imm, vb),
            }),
            Instr::Neg { dst, src } => {
                known(&facts, *src).map(|v| Instr::Const { dst: *dst, val: -v })
            }
            Instr::Not { dst, src } => known(&facts, *src).map(|v| Instr::Const {
                dst: *dst,
                val: if v == 0.0 { 1.0 } else { 0.0 },
            }),
            Instr::TestNonZero { dst, src } => known(&facts, *src).map(|v| Instr::Const {
                dst: *dst,
                val: (v != 0.0) as i64 as f64,
            }),
            Instr::Math1 { f, dst, src } => known(&facts, *src).map(|v| Instr::Const {
                dst: *dst,
                val: crate::vm::apply_math1(*f, v),
            }),
            Instr::Math2 { f, dst, a, b } => match (known(&facts, *a), known(&facts, *b)) {
                (Some(va), Some(vb)) => Some(Instr::Const {
                    dst: *dst,
                    val: crate::vm::apply_math2(*f, va, vb),
                }),
                _ => None,
            },
            Instr::AddImm { dst, imm } => known(&facts, *dst).map(|v| Instr::Const {
                dst: *dst,
                val: v + imm,
            }),
            // A load from a slot that provably holds `Num(regs[r])`
            // cannot fail and equals a register copy.
            Instr::LoadSlotNum { dst, slot } => match slot_alias.get(slot) {
                Some(&r) => Some(Instr::Move { dst: *dst, src: r }),
                None => slot_const
                    .get(slot)
                    .map(|&v| Instr::Const { dst: *dst, val: v }),
            },
            _ => None,
        };
        if let Some(instr) = new_instr {
            code[i] = instr;
        }

        // Register writes invalidate dependent facts.
        for &d in &defs {
            facts.remove(&d);
            facts.retain(|_, f| !matches!(f, RegFact::Copy(r) if *r == d));
            slot_alias.retain(|_, r| *r != d);
        }

        // Install the post-instruction facts.
        match &code[i] {
            Instr::Const { dst, val } => {
                facts.insert(*dst, RegFact::Const(*val));
            }
            Instr::Move { dst, src } => {
                let fact = match facts.get(src) {
                    Some(RegFact::Const(v)) => RegFact::Const(*v),
                    _ => RegFact::Copy(*src),
                };
                facts.insert(*dst, fact);
            }
            // Read-modify-write instructions (TruncPair, WhileGuard,
            // AddImmJump): the defs-kill above already dropped their
            // registers' facts, leaving them Unknown — fine, since
            // loop-carried counters never stay constant anyway.
            Instr::StoreSlotNum { slot, src } => {
                slot_alias.remove(slot);
                slot_const.remove(slot);
                match facts.get(src) {
                    Some(RegFact::Const(v)) => {
                        slot_const.insert(*slot, *v);
                    }
                    _ => {
                        slot_alias.insert(*slot, *src);
                    }
                }
            }
            Instr::SlotUpdImm { dst, .. } | Instr::SlotUpdReg { dst, .. } => {
                slot_alias.remove(dst);
                slot_const.remove(dst);
            }
            Instr::CopySlot { dst, src } => {
                match (slot_alias.get(src).copied(), slot_const.get(src).copied()) {
                    (Some(r), _) => {
                        slot_const.remove(dst);
                        slot_alias.insert(*dst, r);
                    }
                    (None, Some(v)) => {
                        slot_alias.remove(dst);
                        slot_const.insert(*dst, v);
                    }
                    (None, None) => {
                        slot_alias.remove(dst);
                        slot_const.remove(dst);
                    }
                }
            }
            Instr::CallHost { first, dst, .. } => {
                if let FirstArg::Var(s) = first {
                    slot_alias.remove(s);
                    slot_const.remove(s);
                }
                slot_alias.remove(dst);
                slot_const.remove(dst);
            }
            Instr::CallTransform { dst, .. } => {
                slot_alias.remove(dst);
                slot_const.remove(dst);
            }
            _ => {}
        }

        if is_terminator(&code[i]) {
            facts.clear();
            slot_alias.clear();
            slot_const.clear();
        }
    }
}

// ---- pass 2: superinstruction fusion -----------------------------------

/// Flips a comparison so `imm op b` can be expressed as `b op' imm`.
fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other, // Eq / Ne are symmetric.
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// Collapses the dominant adjacent sequences into superinstructions.
/// A sequence fuses only when no jump lands inside it and the absorbed
/// intermediate registers are dead afterwards.
fn fuse(code: &mut [Instr]) {
    let n = code.len();
    let targets = jump_targets(code);
    let live = live_after_sets(code, Bank::Regs);

    // LoadSlotNum + binop + StoreSlotNum → SlotUpd*.
    for i in 0..n.saturating_sub(2) {
        if targets[i + 1] || targets[i + 2] {
            continue;
        }
        let Instr::LoadSlotNum { dst: r1, slot: src } = code[i] else {
            continue;
        };
        let Instr::StoreSlotNum { slot: dst, src: r2 } = code[i + 2] else {
            continue;
        };
        if live[i + 2].contains(r1) || live[i + 2].contains(r2) {
            continue;
        }
        let fused = match code[i + 1] {
            Instr::Bin { op, dst: d, a, b } if d == r2 && a == r1 && b != r1 => {
                Some(Instr::SlotUpdReg { op, dst, src, b })
            }
            Instr::BinRI { op, dst: d, a, imm } if d == r2 && a == r1 => Some(Instr::SlotUpdImm {
                op,
                dst,
                src,
                imm,
                imm_on_left: false,
            }),
            Instr::BinIR { op, dst: d, imm, b } if d == r2 && b == r1 => Some(Instr::SlotUpdImm {
                op,
                dst,
                src,
                imm,
                imm_on_left: true,
            }),
            _ => None,
        };
        if let Some(fused) = fused {
            code[i] = fused;
            code[i + 1] = Instr::Nop;
            code[i + 2] = Instr::Nop;
        }
    }

    // arithmetic + element store → BinStoreIdx1. The index register
    // must not be the arithmetic result (the fused form reads it
    // directly, so it has to carry its pre-`Bin` value — which it
    // does whenever it is a distinct register).
    for i in 0..n.saturating_sub(1) {
        if targets[i + 1] {
            continue;
        }
        let Instr::Bin { op, dst, a, b } = code[i] else {
            continue;
        };
        let Instr::StoreIdx1 { slot, idx, src } = code[i + 1] else {
            continue;
        };
        if src != dst || idx == dst || live[i + 1].contains(dst) {
            continue;
        }
        code[i] = Instr::BinStoreIdx1 {
            op,
            slot,
            idx,
            a,
            b,
        };
        code[i + 1] = Instr::Nop;
    }

    // counter increment + loop back-edge → AddImmJump (no deadness
    // requirement: both effects are kept, in one dispatch).
    for i in 0..n.saturating_sub(1) {
        if targets[i + 1] {
            continue;
        }
        let Instr::AddImm { dst, imm } = code[i] else {
            continue;
        };
        let Instr::Jump { target } = code[i + 1] else {
            continue;
        };
        code[i] = Instr::AddImmJump { dst, imm, target };
        code[i + 1] = Instr::Nop;
    }

    // compare + conditional branch → JumpCmp / JumpCmpImm.
    for i in 0..n.saturating_sub(1) {
        if targets[i + 1] {
            continue;
        }
        let (cond, jump_if, target) = match code[i + 1] {
            Instr::JumpIfZero { cond, target } => (cond, false, target),
            Instr::JumpIfNonZero { cond, target } => (cond, true, target),
            _ => continue,
        };
        if live[i + 1].contains(cond) {
            continue;
        }
        let fused = match code[i] {
            Instr::Bin { op, dst, a, b } if dst == cond && is_cmp(op) => Some(Instr::JumpCmp {
                op,
                a,
                b,
                jump_if,
                target,
            }),
            Instr::BinRI { op, dst, a, imm } if dst == cond && is_cmp(op) => {
                Some(Instr::JumpCmpImm {
                    op,
                    a,
                    imm,
                    jump_if,
                    target,
                })
            }
            Instr::BinIR { op, dst, imm, b } if dst == cond && is_cmp(op) => {
                Some(Instr::JumpCmpImm {
                    op: flip_cmp(op),
                    a: b,
                    imm,
                    jump_if,
                    target,
                })
            }
            _ => None,
        };
        if let Some(fused) = fused {
            code[i] = Instr::Nop;
            code[i + 1] = fused;
        }
    }
}

// ---- pass 3: dead-code elimination -------------------------------------

/// Slots an instruction reads (a write to a slot no instruction — and
/// no output binding — ever reads is unobservable).
fn for_each_slot_use(instr: &Instr, mut f: impl FnMut(u16)) {
    match instr {
        Instr::LoadSlotNum { slot, .. }
        | Instr::Shape { slot, .. }
        | Instr::ShapeHoisted { slot, .. } => f(*slot),
        Instr::CopySlot { src, .. } => f(*src),
        // Indexed stores read-modify the slot's array in place.
        Instr::LoadIdx1 { slot, .. }
        | Instr::LoadIdx1U { slot, .. }
        | Instr::LoadIdx2 { slot, .. }
        | Instr::LoadIdx2U { slot, .. }
        | Instr::StoreIdx1 { slot, .. }
        | Instr::StoreIdx1U { slot, .. }
        | Instr::StoreIdx2 { slot, .. }
        | Instr::StoreIdx2U { slot, .. }
        | Instr::BinStoreIdx1 { slot, .. }
        | Instr::BinStoreIdx1U { slot, .. } => f(*slot),
        Instr::SlotUpdImm { src, .. } => f(*src),
        Instr::SlotUpdReg { src, .. } => f(*src),
        Instr::CallHost { first, rest, .. } => {
            match first {
                FirstArg::Var(s) => f(*s),
                FirstArg::Anon(Operand::Slot(s)) => f(*s),
                FirstArg::Anon(Operand::Reg(_)) => {}
            }
            for op in rest {
                if let Operand::Slot(s) = op {
                    f(*s);
                }
            }
        }
        Instr::CallTransform { args, .. } => {
            for op in args {
                if let Operand::Slot(s) = op {
                    f(*s);
                }
            }
        }
        _ => {}
    }
}

/// Slots an instruction overwrites whole (element stores mutate in
/// place and are uses, not defs).
fn for_each_slot_def(instr: &Instr, mut f: impl FnMut(u16)) {
    match instr {
        Instr::StoreSlotNum { slot, .. } => f(*slot),
        Instr::CopySlot { dst, .. }
        | Instr::SlotUpdImm { dst, .. }
        | Instr::SlotUpdReg { dst, .. }
        | Instr::CallHost { dst, .. }
        | Instr::CallTransform { dst, .. } => f(*dst),
        _ => {}
    }
}

/// Replaces instructions with no observable effect with `Nop`s: pure
/// instructions whose result registers are dead, self-moves, and
/// never-erroring stores to slots nothing reads.
fn dce(code: &mut [Instr], output_slots: &[crate::compile::Slot]) {
    loop {
        let live = live_after_sets(code, Bank::Regs);
        // Flow-insensitive slot read set: a slot is observable if any
        // instruction may read it or it carries a rule output.
        let mut read_slots: Vec<bool> = Vec::new();
        let mut note = |s: u16| {
            let s = s as usize;
            if s >= read_slots.len() {
                read_slots.resize(s + 1, false);
            }
            read_slots[s] = true;
        };
        for instr in code.iter() {
            for_each_slot_use(instr, &mut note);
        }
        for &s in output_slots {
            note(s);
        }
        let slot_read = |s: u16| read_slots.get(s as usize).copied().unwrap_or(false);

        let mut changed = false;
        for i in 0..code.len() {
            let dead = match &code[i] {
                Instr::Nop => false,
                Instr::Move { dst, src } if dst == src => true,
                // These two slot writes cannot error; dropping them is
                // unobservable when nothing reads the slot.
                Instr::StoreSlotNum { slot, .. } => !slot_read(*slot),
                Instr::CopySlot { dst, .. } => !slot_read(*dst),
                instr if is_pure(instr) => {
                    let mut any_live = false;
                    for_each_def(instr, |r| any_live |= live[i].contains(r));
                    let mut has_def = false;
                    for_each_def(instr, |_| has_def = true);
                    has_def && !any_live
                }
                _ => false,
            };
            if dead {
                code[i] = Instr::Nop;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

// ---- pass 4: charge folding --------------------------------------------

/// Merges consecutive `Charge` amounts within a straight-line region
/// into the region's first `Charge`. Never moves cost across control
/// flow, so totals on completed executions are unchanged; an execution
/// that errors mid-region has pre-paid the region's later charges (see
/// the module docs — errors themselves are unaffected, and nothing
/// observes the cost of an aborted run).
fn fold_charges(code: &mut [Instr]) {
    let n = code.len();
    let targets = jump_targets(code);
    let mut pending: f64 = 0.0;
    let mut first: Option<usize> = None;
    let flush = |code: &mut [Instr], pending: &mut f64, first: &mut Option<usize>| {
        if let Some(at) = first.take() {
            code[at] = Instr::Charge { amount: *pending };
            *pending = 0.0;
        }
    };
    for i in 0..n {
        if targets[i] {
            flush(code, &mut pending, &mut first);
        }
        match &code[i] {
            Instr::Charge { amount } => {
                if first.is_none() {
                    first = Some(i);
                    pending = *amount;
                } else {
                    pending += *amount;
                    code[i] = Instr::Nop;
                }
            }
            // A failing depth guard must see exactly the interpreter's
            // charges: nothing after it is pre-paid before it.
            Instr::DepthGuard { .. } => flush(code, &mut pending, &mut first),
            instr if is_terminator(instr) => flush(code, &mut pending, &mut first),
            _ => {}
        }
    }
    flush(code, &mut pending, &mut first);
}

// ---- pass 5: compaction + register coalescing --------------------------

/// Drops `Nop`s, remapping every jump target.
fn compact(code: Vec<Instr>) -> Vec<Instr> {
    let n = code.len();
    // map[i] = new index of the first surviving instruction at or
    // after i (end-of-code targets map to the new length).
    let mut map = vec![0usize; n + 1];
    let mut next = code.iter().filter(|i| !matches!(i, Instr::Nop)).count();
    map[n] = next;
    for i in (0..n).rev() {
        if !matches!(code[i], Instr::Nop) {
            next -= 1;
        }
        map[i] = next;
    }
    let mut out = Vec::with_capacity(map[n]);
    for (i, mut instr) in code.into_iter().enumerate() {
        if matches!(instr, Instr::Nop) {
            continue;
        }
        debug_assert_eq!(map[i], out.len());
        for_each_target_mut(&mut instr, |t| *t = map[*t]);
        out.push(instr);
    }
    out
}

/// Renumbers surviving registers densely (coalescing the bank) and
/// returns the new register count.
fn renumber_regs(mut code: Vec<Instr>) -> (Vec<Instr>, u16) {
    let mut map: HashMap<Reg, Reg> = HashMap::new();
    let mut next: Reg = 0;
    for instr in &code {
        let mut note = |r: Reg| {
            map.entry(r).or_insert_with(|| {
                let n = next;
                next += 1;
                n
            });
        };
        for_each_use(instr, &mut note);
        for_each_def(instr, &mut note);
    }
    for instr in &mut code {
        remap_regs(instr, |r| map[&r]);
    }
    (code, next)
}

/// Rewrites every register reference through `map`.
pub(crate) fn remap_regs(instr: &mut Instr, map: impl Fn(Reg) -> Reg) {
    let m = |r: &mut Reg| *r = map(*r);
    match instr {
        Instr::Const { dst, .. }
        | Instr::LoadSlotNum { dst, .. }
        | Instr::LoadParam { dst, .. }
        | Instr::AddImm { dst, .. }
        | Instr::AddImmJump { dst, .. }
        | Instr::ForEnoughPrep { dst, .. }
        | Instr::Choice { dst, .. } => m(dst),
        Instr::Move { dst, src }
        | Instr::Neg { dst, src }
        | Instr::Not { dst, src }
        | Instr::TestNonZero { dst, src }
        | Instr::Math1 { dst, src, .. } => {
            m(dst);
            m(src);
        }
        Instr::StoreSlotNum { src, .. } => m(src),
        Instr::Bin { dst, a, b, .. } | Instr::Math2 { dst, a, b, .. } => {
            m(dst);
            m(a);
            m(b);
        }
        Instr::BinRI { dst, a, .. } => {
            m(dst);
            m(a);
        }
        Instr::BinIR { dst, b, .. } => {
            m(dst);
            m(b);
        }
        Instr::Rand { dst, lo, hi } => {
            m(dst);
            m(lo);
            m(hi);
        }
        Instr::Shape { dst, .. } | Instr::ShapeHoisted { dst, .. } => m(dst),
        Instr::LoadIdx1 { dst, idx, .. } | Instr::LoadIdx1U { dst, idx, .. } => {
            m(dst);
            m(idx);
        }
        Instr::LoadIdx2 { dst, i, j, .. } | Instr::LoadIdx2U { dst, i, j, .. } => {
            m(dst);
            m(i);
            m(j);
        }
        Instr::StoreIdx1 { idx, src, .. } | Instr::StoreIdx1U { idx, src, .. } => {
            m(idx);
            m(src);
        }
        Instr::BinStoreIdx1 { idx, a, b, .. } | Instr::BinStoreIdx1U { idx, a, b, .. } => {
            m(idx);
            m(a);
            m(b);
        }
        Instr::StoreIdx2 { i, j, src, .. } | Instr::StoreIdx2U { i, j, src, .. } => {
            m(i);
            m(j);
            m(src);
        }
        Instr::JumpIfZero { cond, .. } | Instr::JumpIfNonZero { cond, .. } => m(cond),
        Instr::JumpIfGe { a, b, .. } | Instr::JumpCmp { a, b, .. } => {
            m(a);
            m(b);
        }
        Instr::JumpCmpImm { a, .. } => m(a),
        Instr::TruncPair { a, b } => {
            m(a);
            m(b);
        }
        Instr::WhileGuard { counter } => m(counter),
        Instr::Switch { src, .. } => m(src),
        Instr::SlotUpdReg { b, .. } => m(b),
        Instr::CallHost { first, rest, .. } => {
            if let FirstArg::Anon(Operand::Reg(r)) = first {
                m(r);
            }
            for op in rest.iter_mut() {
                if let Operand::Reg(r) = op {
                    m(r);
                }
            }
        }
        Instr::CallTransform { args, .. } => {
            for op in args.iter_mut() {
                if let Operand::Reg(r) = op {
                    m(r);
                }
            }
        }
        Instr::CopySlot { .. }
        | Instr::SlotUpdImm { .. }
        | Instr::Jump { .. }
        | Instr::Charge { .. }
        | Instr::Return
        | Instr::DepthGuard { .. }
        | Instr::Nop => {}
    }
}

/// Rewrites every slot reference through `map`.
pub(crate) fn remap_slots(instr: &mut Instr, map: impl Fn(u16) -> u16) {
    let m = |s: &mut u16| *s = map(*s);
    let operand = |op: &mut Operand| {
        if let Operand::Slot(s) = op {
            m(s);
        }
    };
    match instr {
        Instr::LoadSlotNum { slot, .. }
        | Instr::StoreSlotNum { slot, .. }
        | Instr::Shape { slot, .. }
        | Instr::ShapeHoisted { slot, .. }
        | Instr::LoadIdx1 { slot, .. }
        | Instr::LoadIdx1U { slot, .. }
        | Instr::LoadIdx2 { slot, .. }
        | Instr::LoadIdx2U { slot, .. }
        | Instr::StoreIdx1 { slot, .. }
        | Instr::StoreIdx1U { slot, .. }
        | Instr::StoreIdx2 { slot, .. }
        | Instr::StoreIdx2U { slot, .. }
        | Instr::BinStoreIdx1 { slot, .. }
        | Instr::BinStoreIdx1U { slot, .. } => m(slot),
        Instr::CopySlot { dst, src }
        | Instr::SlotUpdImm { dst, src, .. }
        | Instr::SlotUpdReg { dst, src, .. } => {
            m(dst);
            m(src);
        }
        Instr::CallHost {
            first, rest, dst, ..
        } => {
            m(dst);
            match first {
                FirstArg::Var(s) => m(s),
                FirstArg::Anon(op) => operand(op),
            }
            rest.iter_mut().for_each(operand);
        }
        Instr::CallTransform { args, dst, .. } => {
            m(dst);
            args.iter_mut().for_each(operand);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_rule;
    use crate::parser::parse_program;

    fn chunks(src: &str) -> (Chunk, Chunk) {
        let program = parse_program(src).unwrap();
        let t = &program.transforms[0];
        let raw = compile_rule(&program, t, &t.rules[0]).expect("compiles");
        let opt = optimize(&raw, OptLevel::O2);
        (raw, opt)
    }

    fn count(code: &[Instr], pred: impl Fn(&Instr) -> bool) -> usize {
        code.iter().filter(|i| pred(i)).count()
    }

    #[test]
    fn o0_is_identity() {
        let program = parse_program(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) { o[0] = a[0] + 1; }
            }"#,
        )
        .unwrap();
        let t = &program.transforms[0];
        let raw = compile_rule(&program, t, &t.rules[0]).unwrap();
        assert_eq!(optimize(&raw, OptLevel::O0), raw);
    }

    #[test]
    fn constants_fold_and_dead_consts_vanish() {
        let (raw, opt) = chunks(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) { o[0] = 1 + 2 * 3; }
            }"#,
        );
        assert!(count(&raw.code, |i| matches!(i, Instr::Bin { .. })) >= 2);
        assert_eq!(count(&opt.code, |i| matches!(i, Instr::Bin { .. })), 0);
        assert!(opt
            .code
            .iter()
            .any(|i| matches!(i, Instr::Const { val, .. } if *val == 7.0)));
        assert!(opt.n_regs < raw.n_regs, "coalescing shrinks the bank");
    }

    #[test]
    fn accumulator_updates_fuse_to_slot_superinstructions() {
        let (_, opt) = chunks(
            r#"transform t from In[n] to Out[n], W {
                to (Out o, W w) from (In a) {
                    for_enough { w = w + 1; }
                }
            }"#,
        );
        assert!(
            opt.code
                .iter()
                .any(|i| matches!(i, Instr::SlotUpdImm { op: BinOp::Add, imm, .. } if *imm == 1.0)),
            "w = w + 1 should fuse: {:?}",
            opt.code
        );
        assert_eq!(
            count(&opt.code, |i| matches!(i, Instr::LoadSlotNum { .. })),
            0,
            "the accumulator load is absorbed"
        );
    }

    #[test]
    fn compare_branches_fuse() {
        let (_, opt) = chunks(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    let j = 0;
                    while (j < len(a)) { j = j + 1; }
                }
            }"#,
        );
        assert!(
            opt.code
                .iter()
                .any(|i| matches!(i, Instr::JumpCmp { .. } | Instr::JumpCmpImm { .. })),
            "loop condition should fuse: {:?}",
            opt.code
        );
        assert_eq!(
            count(&opt.code, |i| matches!(i, Instr::JumpIfZero { .. })),
            0
        );
    }

    #[test]
    fn charges_fold_within_straight_line_runs() {
        let (raw, opt) = chunks(
            r#"transform t from In[n] to Out[n], W {
                to (Out o, W w) from (In a) {
                    w = 1;
                    w = w + 1;
                    w = w + 2;
                }
            }"#,
        );
        let raw_total: f64 = raw
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::Charge { amount } => Some(*amount),
                _ => None,
            })
            .sum();
        let opt_charges: Vec<f64> = opt
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::Charge { amount } => Some(*amount),
                _ => None,
            })
            .collect();
        assert_eq!(opt_charges.iter().sum::<f64>(), raw_total);
        assert!(
            opt_charges.len() < 3,
            "straight-line charges merge: {opt_charges:?}"
        );
    }

    #[test]
    fn array_update_loops_fuse_arithmetic_into_the_store() {
        let (_, opt) = chunks(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    for (i in 0 .. len(a)) { o[i] = a[i] + i; }
                }
            }"#,
        );
        assert!(
            opt.code
                .iter()
                .any(|i| matches!(i, Instr::BinStoreIdx1 { .. })),
            "o[i] = a[i] + i should fuse the add into the store: {:?}",
            opt.code
        );
        assert!(
            opt.code
                .iter()
                .any(|i| matches!(i, Instr::AddImmJump { .. })),
            "the loop back-edge should fuse"
        );
    }

    #[test]
    fn loop_variable_loads_become_register_moves() {
        let (raw, opt) = chunks(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    for (i in 0 .. len(a)) { o[i] = a[i]; }
                }
            }"#,
        );
        // The body reads `i` twice; lowering loads the slot each time,
        // the optimizer routes both reads through the counter register.
        assert!(count(&raw.code, |i| matches!(i, Instr::LoadSlotNum { .. })) >= 2);
        assert_eq!(
            count(&opt.code, |i| matches!(i, Instr::LoadSlotNum { .. })),
            0,
            "loop-variable loads should vanish: {:?}",
            opt.code
        );
    }

    #[test]
    fn fusion_preserves_jump_targets() {
        // A branch over an else keeps a target that lands after fused
        // and deleted instructions; compaction must remap it.
        let (_, opt) = chunks(
            r#"transform t from In[n] to Out[n], W {
                to (Out o, W w) from (In a) {
                    if (a[0] > 0) { w = 1 + 1; } else { w = 2 + 2; }
                    w = w + 1;
                }
            }"#,
        );
        for instr in &opt.code {
            match instr {
                Instr::Jump { target }
                | Instr::JumpIfZero { target, .. }
                | Instr::JumpIfNonZero { target, .. }
                | Instr::JumpIfGe { target, .. }
                | Instr::JumpCmp { target, .. }
                | Instr::JumpCmpImm { target, .. } => assert!(*target <= opt.code.len()),
                Instr::Switch { targets, .. } => {
                    assert!(targets.iter().all(|t| *t <= opt.code.len()));
                }
                _ => {}
            }
        }
        assert!(!opt.code.iter().any(|i| matches!(i, Instr::Nop)));
    }

    #[test]
    fn side_effects_survive_dce() {
        let (_, opt) = chunks(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    rand(0, 1);
                    o[0] = 1;
                }
            }"#,
        );
        // The discarded rand(0,1) still consumes one RNG draw.
        assert_eq!(count(&opt.code, |i| matches!(i, Instr::Rand { .. })), 1);
    }
}
