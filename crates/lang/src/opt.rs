//! The bytecode optimizer: a fixed pass pipeline between lowering
//! ([`crate::compile`]) and dispatch ([`crate::vm`]).
//!
//! Lowering is deliberately naive — it mirrors the interpreter's
//! evaluation order statement by statement, which makes it easy to
//! prove semantics-preserving but leaves obvious fat in the hot loops:
//! every named local in a `Value` slot, boxed and unboxed on each read
//! and write; constants rematerialized every iteration; one `Charge`
//! dispatch per statement. This module removes that fat while keeping
//! execution *observably identical* to the interpreter: same outputs
//! bit for bit, same RNG consumption order, same virtual-cost totals,
//! same errors at the same execution points.
//!
//! There are two levels: [`OptLevel::O0`] dispatches what lowering
//! emitted, [`OptLevel::O3`] (the default) runs everything below. One
//! whole-program pass runs first:
//!
//! 0. **Inlining** (`inline`) — calls to scalar helper transforms are
//!    replaced by the callee's lowered body (registers, slots, names
//!    and jump targets renumbered; charges, draws and error points
//!    kept), callees first. Everything below then runs across the old
//!    call boundary: the argument stores and the helper's loads
//!    collapse into register moves, its statement charge folds into
//!    the caller's.
//!
//! Then, per [`Chunk`]:
//!
//! 1. **Promotion** (`promote`) — every slot that provably only ever
//!    holds a scalar gets a home register, and the loads, stores and
//!    copies that touched it become register moves: a `let`, a loop
//!    variable or an inlined helper's argument lives in a register for
//!    the whole chunk. Rule bindings the entry facts prove scalar join
//!    in with their traffic moved to the chunk's edges — one load at
//!    entry if the binding is read before written, and **the exit
//!    write-back rule**: one `StoreSlotNum` per promoted output in
//!    front of every `Return` and of the fall-off end, because the VM
//!    moves output slots back to the store on success. An execution
//!    that ends in an error writes nothing back, as before.
//! 2. **Sweep** — one liveness computation serves three rewrites:
//!    dead-code elimination (pure instructions whose results are dead,
//!    never-read slot writes, unreachable blocks; anything that can
//!    error, draw, charge or store stays), *move retargeting* (`t = …;
//!    Move p ← t` with `t` dead becomes `p = …`, so `x = x + y` on a
//!    register-resident `x` is one dispatch), and compaction (`Nop`s
//!    dropped, jump targets remapped). Runs again after steps 3 and 6.
//! 3. **Value tracking** — constant folding (a `Bin` with one constant
//!    operand becomes [`Instr::BinRI`]/[`Instr::BinIR`]), copy
//!    propagation, reuse of already-computed arithmetic *and element
//!    loads* (an identical load of an unchanged slot cannot fail or
//!    differ), removal of a `DepthGuard` behind one at least as deep,
//!    and forwarding of a scalar just stored to a slot that had to stay
//!    one. **Chunk-wide**: the state at a block's entry is the meet of
//!    its predecessors' exit states, iterated to a fixpoint, so what is
//!    known before a loop — or at its head — still holds at the bottom
//!    of its body unless the body overwrites it.
//! 4. **Superinstruction fusion** — the dominant dynamic sequences
//!    collapse into one dispatch: compare-then-branch →
//!    [`Instr::JumpCmp`]/[`Instr::JumpCmpImm`]; binop+`StoreIdx1` →
//!    [`Instr::BinStoreIdx1`]. Fusion only fires when no jump lands
//!    inside the sequence and the absorbed registers are dead
//!    afterwards. The loop back edge fuses later (step 6), once its
//!    head's charge is final.
//! 5. **Charge folding** — consecutive `Charge` amounts within a
//!    straight-line region merge into the first one. Charges never
//!    move across control flow (block leaders or terminators) or a
//!    surviving depth guard, so totals on every *completed* execution
//!    are identical. The one sanctioned deviation: a region's merged
//!    charge lands at its first charge's position, so an execution
//!    aborted by an error mid-region has already been charged for the
//!    region's later statements — the error itself (message and point)
//!    is unchanged, and no completed run ever observes a different
//!    total. So the `Charge` right behind a loop head is all its
//!    region charges up to the first depth guard.
//! 6. **Constant homes and loop rotation** — each
//!    distinct constant an instruction inside a loop reads from a
//!    just-set register gets one register defined by a `Const` at chunk
//!    entry (`promote::const_homes`; the in-loop `Const` is then dead).
//!    Then each counted loop's `AddImm`+`Jump` back edge to its
//!    `JumpIfGe` head becomes one [`Instr::LoopNext`]: it steps the
//!    counter, runs the head's test with the head's exit, and re-enters
//!    the body past the head — carrying the head's `Charge`, when one
//!    follows it, and re-entering past that too. The head and its
//!    `Charge` stay for the first trip, so every later trip costs one
//!    control dispatch instead of three, and the charge signature sees
//!    the carried amount as a replay of the head's region
//!    (`analysis::charge_signature`).
//! 7. **Register coalescing** — surviving registers are renumbered
//!    densely, shrinking `n_regs` and with it the per-invocation frame
//!    reset cost.
//!
//! Under verification ([`optimize`] with `verify` on) every pass goes
//! through a gate that names it when its output is malformed
//! (`analysis`). That a pass kept outputs, draws and charges is the
//! differential suite's to show: it runs both engines at every level
//! against the tree-walker.
//!
//! Constant folding computes with the same `f64` operations the VM
//! would execute, so folded results are bit-identical to runtime
//! evaluation (including NaN, signed zero, and the interpreter's
//! `i64`-truncation rules). Both go through `apply_bin`, whose `%`
//! takes a `u32` remainder where that is exactly libm's `fmod` (see
//! `rem`), and `fmod` everywhere else.

use crate::ast::BinOp;
use crate::compile::{Chunk, FirstArg, Instr, Operand, Reg, Slot};

mod inline;
mod promote;

pub(crate) use inline::inline_program;
pub use inline::InlineSkip;
pub(crate) use promote::unpromoted;

/// How much optimization to run between lowering and dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// Straight-from-lowering bytecode: the baseline the optimizer is
    /// measured and differentially tested against.
    O0,
    /// The whole pipeline (see the module docs): scalar helper
    /// transforms inlined into their callers, scalar slots promoted to
    /// registers, chunk-wide value tracking, dead-code elimination,
    /// superinstruction fusion, charge folding, loop constants in
    /// registers set once, rotated counted loops, and register
    /// coalescing.
    #[default]
    O3,
}

impl OptLevel {
    /// Both levels, lowest first — what the differential and
    /// verification suites iterate.
    pub const ALL: [OptLevel; 2] = [OptLevel::O0, OptLevel::O3];
}

/// A verifier violation attributed to the optimizer pass that
/// introduced it (or to `lowering` when the input chunk was already
/// malformed).
#[derive(Debug, Clone, PartialEq)]
pub struct PassViolation {
    /// Pass name: `lowering`, `inline`, `promote`, `dce`, `retarget`,
    /// `compact`, `value`, `fuse`, `fold_charges`, `const_homes`,
    /// `rotate`, or `renumber_regs`.
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

/// Runs the pass pipeline over one chunk ([`OptLevel::O0`] returns it
/// unchanged).
///
/// With `verify` off this is the plain pipeline (no per-pass cost);
/// with it on ([`verify_enabled`] is the default callers pass),
/// [`crate::analysis::verify_code`] runs after every pass and the
/// per-region charge signature ([`crate::analysis::charge_signature`])
/// is checked against the input's, so the first pass to break an
/// invariant is named in the error.
///
/// `entry` is the slot state at chunk entry
/// ([`crate::analysis::ChunkFacts::entry_slots`]). Without it everything
/// still runs, but `promote` leaves scalar rule bindings in their slots.
///
/// # Errors
///
/// Returns the [`PassViolation`] for the first pass whose output fails
/// verification (pass `lowering` if the input chunk is already bad).
pub fn optimize(
    chunk: &Chunk,
    level: OptLevel,
    verify: bool,
    entry: Option<&[crate::analysis::AbsValue]>,
) -> Result<Chunk, PassViolation> {
    Pipeline::new(chunk, verify, None).run(level, entry)
}

/// Test support for the hand-broken corpus: the fully verified pipeline
/// with `tamper` applied to the output of every run of pass `pass`
/// just before that pass's gate — how a test shows the gate rejects a
/// specific miscompile and attributes it to the right pass.
///
/// # Errors
///
/// The [`PassViolation`] the gates raise (the point of calling this).
#[doc(hidden)]
pub fn optimize_tampered(
    chunk: &Chunk,
    level: OptLevel,
    entry: Option<&[crate::analysis::AbsValue]>,
    pass: &'static str,
    tamper: &mut dyn FnMut(&mut Vec<Instr>),
) -> Result<Chunk, PassViolation> {
    Pipeline::new(chunk, true, Some((pass, tamper))).run(level, entry)
}

/// A pass name and what to do to that pass's output before its gate
/// (see [`optimize_tampered`]).
type Tamper<'a> = (&'static str, &'a mut dyn FnMut(&mut Vec<Instr>));

/// One chunk's trip through the passes: the code as it stands, the
/// register bank size (passes allocate fresh registers; every gate
/// verifies against the current count), and what verification needs.
struct Pipeline<'a> {
    chunk: &'a Chunk,
    code: Vec<Instr>,
    n_regs: u16,
    verify: bool,
    /// The input's charge signature, once `lowering` has verified.
    sig: Option<Vec<f64>>,
    tamper: Option<Tamper<'a>>,
}

impl<'a> Pipeline<'a> {
    fn new(chunk: &'a Chunk, verify: bool, tamper: Option<Tamper<'a>>) -> Self {
        Pipeline {
            chunk,
            code: chunk.code.clone(),
            n_regs: chunk.n_regs,
            verify,
            sig: None,
            tamper,
        }
    }

    fn fail(&self, pass: &'static str, violation: crate::analysis::Violation) -> PassViolation {
        PassViolation {
            pass,
            label: self.chunk.label.clone(),
            violation,
        }
    }

    /// The structural gate every pass goes through: well-formedness
    /// over the current register bank and an unchanged charge
    /// signature.
    fn gate(&mut self, pass: &'static str) -> Result<(), PassViolation> {
        if let Some((target, tamper)) = &mut self.tamper {
            if *target == pass {
                tamper(&mut self.code);
            }
        }
        if !self.verify {
            return Ok(());
        }
        use crate::analysis::{charge_signature, verify_code, Violation, ViolationKind};
        let chunk = self.chunk;
        verify_code(
            &self.code,
            self.n_regs,
            chunk.n_slots,
            chunk.names.len(),
            &chunk.input_slots,
            &chunk.output_slots,
        )
        .map_err(|v| self.fail(pass, v))?;
        if let Some(want) = &self.sig {
            let got = charge_signature(&self.code);
            if got != *want {
                return Err(self.fail(
                    pass,
                    Violation {
                        kind: ViolationKind::ChargeMoved,
                        at: 0,
                        detail: format!("charge signature changed: {want:?} -> {got:?}"),
                    },
                ));
            }
        }
        Ok(())
    }

    /// The code as it stands, taken out into a chunk. An input whose
    /// slot the code now writes no longer moves.
    fn finish(self) -> Chunk {
        let chunk = self.chunk;
        let written = written_slots(&self.code, chunk.n_slots);
        let mut moves = chunk.moves.clone();
        for (moved, &s) in moves.iter_mut().zip(&chunk.input_slots) {
            *moved &= !written[s as usize];
        }
        Chunk {
            label: chunk.label.clone(),
            code: self.code,
            names: chunk.names.clone(),
            n_regs: self.n_regs,
            n_slots: chunk.n_slots,
            input_slots: chunk.input_slots.clone(),
            output_slots: chunk.output_slots.clone(),
            moves,
        }
    }

    /// One liveness computation, shared: dead code becomes `Nop`s,
    /// producers absorb the register moves that follow them, `Nop`s are
    /// dropped. Returns the liveness of the compacted code.
    fn sweep(&mut self) -> Result<Liveness, PassViolation> {
        let chunk = self.chunk;
        let mut live = dce(&mut self.code, chunk.n_slots, &chunk.output_slots);
        self.gate("dce")?;
        retarget_moves(&mut self.code, &mut live);
        self.gate("retarget")?;
        compact(&mut self.code, Some(&mut live));
        self.gate("compact")?;
        Ok(live)
    }

    fn value(&mut self) -> Result<(), PassViolation> {
        value_pass(&mut self.code, self.n_regs);
        self.gate("value")
    }

    fn run(
        mut self,
        level: OptLevel,
        entry: Option<&[crate::analysis::AbsValue]>,
    ) -> Result<Chunk, PassViolation> {
        let chunk = self.chunk;
        if self.verify {
            self.gate("lowering")?;
            self.sig = Some(crate::analysis::charge_signature(&chunk.code));
        }
        if level == OptLevel::O0 {
            return Ok(chunk.clone());
        }

        promote::promote(&mut self.code, &mut self.n_regs, chunk, entry);
        self.gate("promote")?;
        // Value tracking runs twice, each round followed by a sweep: a
        // temp lowering reused for a literal or an index loses the value
        // it held to a `Const` or `Move` that the first round folded
        // away and its sweep dropped, so the second round sees that
        // value survive. A sweep before the first round only renumbers
        // registers: it saves no executed instruction.
        self.value()?;
        self.sweep()?;
        self.value()?;
        let live = self.sweep()?;

        fuse(&mut self.code, &live);
        self.gate("fuse")?;
        fold_charges(&mut self.code);
        self.gate("fold_charges")?;
        compact(&mut self.code, None);
        self.gate("compact")?;

        promote::const_homes(&mut self.code, &mut self.n_regs);
        self.gate("const_homes")?;
        rotate_loops(&mut self.code);
        compact(&mut self.code, None);
        self.gate("rotate")?;
        self.sweep()?;

        self.n_regs = renumber_regs(&mut self.code);
        self.gate("renumber_regs")?;
        Ok(self.finish())
    }
}

// ---- instruction facts -------------------------------------------------

// The walkers below come in a reading and a rewriting flavour that must
// agree on which fields are what. Each list is written once, as a macro
// whose `match` binds the fields by `&` or by `&mut` as the instruction
// is borrowed, and handed to the callback `$f` either way.

/// Every register `$instr` reads *without* also writing it in place —
/// the operands a pass may point at another register holding the same
/// value.
macro_rules! each_read {
    ($instr:expr, $f:ident) => {
        match $instr {
            Instr::Move { src, .. }
            | Instr::Neg { src, .. }
            | Instr::Not { src, .. }
            | Instr::TestNonZero { src, .. }
            | Instr::Math1 { src, .. }
            | Instr::StoreSlotNum { src, .. } => $f(src),
            Instr::Bin { a, b, .. } | Instr::Math2 { a, b, .. } => {
                $f(a);
                $f(b);
            }
            Instr::BinRI { a, .. } => $f(a),
            Instr::BinIR { b, .. } => $f(b),
            Instr::Rand { lo, hi, .. } => {
                $f(lo);
                $f(hi);
            }
            Instr::LoadIdx1 { idx, .. } => $f(idx),
            Instr::LoadIdx2 { i, j, .. } => {
                $f(i);
                $f(j);
            }
            Instr::StoreIdx1 { idx, src, .. } => {
                $f(idx);
                $f(src);
            }
            Instr::BinStoreIdx1 { idx, a, b, .. } => {
                $f(idx);
                $f(a);
                $f(b);
            }
            Instr::StoreIdx2 { i, j, src, .. } => {
                $f(i);
                $f(j);
                $f(src);
            }
            Instr::JumpIfZero { cond, .. } | Instr::JumpIfNonZero { cond, .. } => $f(cond),
            // A fused back edge reads its comparands after stepping its
            // counter (nothing retargets its reads: it forms after value
            // tracking).
            Instr::JumpIfGe { a, b, .. }
            | Instr::JumpCmp { a, b, .. }
            | Instr::LoopNext { a, b, .. } => {
                $f(a);
                $f(b);
            }
            Instr::JumpCmpImm { a, .. } => $f(a),
            Instr::Switch { src, .. } => $f(src),
            Instr::CallHost { first, rest, .. } => {
                if let FirstArg::Anon(Operand::Reg(r)) = first {
                    $f(r);
                }
                for op in rest {
                    if let Operand::Reg(r) = op {
                        $f(r);
                    }
                }
            }
            Instr::CallTransform { args, .. } => {
                for op in args {
                    if let Operand::Reg(r) = op {
                        $f(r);
                    }
                }
            }
            // In-place destinations ([`writes_in_place`]) are
            // `each_def!`'s; the rest read no register.
            Instr::AddImm { .. }
            | Instr::TruncPair { .. }
            | Instr::WhileGuard { .. }
            | Instr::Const { .. }
            | Instr::LoadSlotNum { .. }
            | Instr::CopySlot { .. }
            | Instr::LoadParam { .. }
            | Instr::Shape { .. }
            | Instr::Jump { .. }
            | Instr::Charge { .. }
            | Instr::ForEnoughPrep { .. }
            | Instr::Choice { .. }
            | Instr::Return
            | Instr::DepthGuard { .. }
            | Instr::Nop => {}
        }
    };
}

/// Every register `$instr` writes (the in-place destinations, which it
/// also reads, included).
macro_rules! each_def {
    ($instr:expr, $f:ident) => {
        match $instr {
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
            | Instr::LoadIdx1 { dst, .. }
            | Instr::LoadIdx2 { dst, .. }
            | Instr::AddImm { dst, .. }
            | Instr::LoopNext { ctr: dst, .. }
            | Instr::ForEnoughPrep { dst, .. }
            | Instr::Choice { dst, .. } => $f(dst),
            Instr::TruncPair { a, b } => {
                $f(a);
                $f(b);
            }
            Instr::WhileGuard { counter } => $f(counter),
            _ => {}
        }
    };
}

/// Whether the instruction updates its destination in place: what it
/// writes it also reads.
fn writes_in_place(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::AddImm { .. }
            | Instr::LoopNext { .. }
            | Instr::TruncPair { .. }
            | Instr::WhileGuard { .. }
    )
}

/// Registers an instruction reads (including the old value of
/// read-modify-write destinations).
pub(crate) fn for_each_use(instr: &Instr, mut f: impl FnMut(Reg)) {
    let mut f = |r: &Reg| f(*r);
    each_read!(instr, f);
    if writes_in_place(instr) {
        each_def!(instr, f);
    }
}

/// Registers an instruction writes.
pub(crate) fn for_each_def(instr: &Instr, mut f: impl FnMut(Reg)) {
    let mut f = |r: &Reg| f(*r);
    each_def!(instr, f);
}

/// [`for_each_use`] minus the in-place destinations, rewriting.
pub(crate) fn for_each_read_mut(instr: &mut Instr, mut f: impl FnMut(&mut Reg)) {
    each_read!(instr, f);
}

/// [`for_each_def`], rewriting.
pub(crate) fn for_each_def_mut(instr: &mut Instr, mut f: impl FnMut(&mut Reg)) {
    each_def!(instr, f);
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
            | Instr::LoopNext { .. }
            | Instr::JumpIfZero { .. }
            | Instr::JumpIfNonZero { .. }
            | Instr::JumpIfGe { .. }
            | Instr::JumpCmp { .. }
            | Instr::JumpCmpImm { .. }
            | Instr::Switch { .. }
            | Instr::Return
    )
}

/// Whether `op` is one of the six comparisons, the operators a
/// `JumpCmp` or `JumpCmpImm` may carry.
pub(crate) fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
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

/// Whether control can continue at the next instruction after `instr`.
fn falls_through(instr: &Instr) -> bool {
    !matches!(
        instr,
        Instr::Jump { .. } | Instr::LoopNext { .. } | Instr::Switch { .. } | Instr::Return
    )
}

/// Whether control can run off the end of `code`: a jump targets the
/// end, or the last instruction falls through.
pub(crate) fn falls_off_end(code: &[Instr]) -> bool {
    jump_targets(code)[code.len()] || code.last().is_none_or(falls_through)
}

/// Every instruction index `$instr` may transfer control to
/// (fall-through excluded).
macro_rules! each_target {
    ($instr:expr, $f:ident) => {
        match $instr {
            Instr::Jump { target }
            | Instr::JumpIfZero { target, .. }
            | Instr::JumpIfNonZero { target, .. }
            | Instr::JumpIfGe { target, .. }
            | Instr::JumpCmp { target, .. }
            | Instr::JumpCmpImm { target, .. } => $f(target),
            Instr::LoopNext { exit, body, .. } => {
                $f(exit);
                $f(body);
            }
            Instr::Switch { targets, .. } => {
                for target in targets {
                    $f(target);
                }
            }
            _ => {}
        }
    };
}

/// Every instruction index an instruction may transfer control to
/// (fall-through excluded).
pub(crate) fn for_each_target(instr: &Instr, mut f: impl FnMut(usize)) {
    let mut f = |t: &usize| f(*t);
    each_target!(instr, f);
}

/// [`for_each_target`], rewriting: for every pass that moves code.
pub(crate) fn for_each_target_mut(instr: &mut Instr, mut f: impl FnMut(&mut usize)) {
    each_target!(instr, f);
}

// ---- loops ------------------------------------------------------------------

/// The chunk's loops as `(head, last)` instruction ranges, one per
/// distinct back-edge target (`last` is its furthest back-edge source),
/// in order of first back edge.
pub fn loops(code: &[Instr]) -> Vec<(usize, usize)> {
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for (i, instr) in code.iter().enumerate() {
        for_each_target(instr, |t| {
            if t <= i {
                match loops.iter_mut().find(|(h, _)| *h == t) {
                    Some((_, s)) => *s = (*s).max(i),
                    None => loops.push((t, i)),
                }
            }
        });
    }
    loops
}

/// What one trip round an innermost loop costs in dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopCost {
    /// The loop head (its back edges' target).
    pub head: usize,
    /// The furthest back-edge source.
    pub last: usize,
    /// Instructions on the shortest path from the head round to a back
    /// edge, the back-edge instruction included.
    pub shortest_trip: usize,
}

/// The innermost loops of `code` (those containing no other loop) with
/// their per-trip dispatch counts, in code order — what `pb_lint
/// --disasm` prints and the register-residency tests bound.
pub fn innermost_loops(code: &[Instr]) -> Vec<LoopCost> {
    let all = loops(code);
    let mut inner: Vec<LoopCost> = all
        .iter()
        .filter(|&&(h, s)| {
            !all.iter()
                .any(|&(h2, s2)| (h2, s2) != (h, s) && h <= h2 && s2 <= s)
        })
        .map(|&(head, last)| {
            // Breadth-first over instructions inside the loop.
            let mut dist = vec![0usize; last - head + 1];
            dist[0] = 1;
            let mut queue = std::collections::VecDeque::from([head]);
            let mut shortest_trip = 0;
            while let Some(i) = queue.pop_front() {
                let d = dist[i - head];
                let mut back = false;
                let mut visit = |t: usize| {
                    if t == head {
                        back = true;
                    } else if (head..=last).contains(&t) && dist[t - head] == 0 {
                        dist[t - head] = d + 1;
                        queue.push_back(t);
                    }
                };
                for_each_target(&code[i], &mut visit);
                if falls_through(&code[i]) {
                    visit(i + 1);
                }
                if back {
                    shortest_trip = d;
                    break;
                }
            }
            LoopCost {
                head,
                last,
                shortest_trip,
            }
        })
        .collect();
    inner.sort_by_key(|l| l.head);
    inner
}

// ---- block structure and liveness ---------------------------------------

/// Basic-block structure shared by every dataflow pass here and in
/// [`crate::analysis`]: block start indices and per-block successors.
/// All jump targets must already be valid (`<= code.len()`).
pub(crate) struct Cfg {
    starts: Vec<usize>,
    n: usize,
    succ_at: Vec<usize>,
    succs: Vec<usize>,
    exits: Vec<bool>,
}

impl Cfg {
    pub(crate) fn build(code: &[Instr]) -> Cfg {
        let n = code.len();
        let targets = jump_targets(code);
        let mut block_of = vec![0usize; n];
        let mut starts = Vec::new();
        for i in 0..n {
            if i == 0 || targets[i] || is_terminator(&code[i - 1]) {
                starts.push(i);
            }
            block_of[i] = starts.len() - 1;
        }
        let mut cfg = Cfg {
            starts,
            n,
            succ_at: vec![0],
            succs: Vec::new(),
            exits: Vec::new(),
        };
        for b in 0..cfg.len() {
            let last = cfg.range(b).end - 1;
            let mut exits = false;
            let mut push = |t: usize| match block_of.get(t) {
                Some(&s) => cfg.succs.push(s),
                None => exits = true,
            };
            for_each_target(&code[last], &mut push);
            if matches!(code[last], Instr::Return) {
                exits = true;
            } else if falls_through(&code[last]) {
                push(last + 1);
            }
            cfg.succ_at.push(cfg.succs.len());
            cfg.exits.push(exits);
        }
        cfg
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.starts.len()
    }

    /// The instruction indices of block `b`.
    pub(crate) fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.starts[b]..self.starts.get(b + 1).copied().unwrap_or(self.n)
    }

    /// The blocks control may reach from the end of `b`.
    pub(crate) fn successors(&self, b: usize) -> &[usize] {
        &self.succs[self.succ_at[b]..self.succ_at[b + 1]]
    }

    /// Whether execution can end at `b`'s last instruction (a `Return`,
    /// or control running off the end of the chunk).
    pub(crate) fn exits(&self, b: usize) -> bool {
        self.exits[b]
    }

    /// Per block, whether control can reach it from the entry.
    pub(crate) fn reached(&self) -> Vec<bool> {
        let mut reached = vec![false; self.len()];
        // An empty rule body has no blocks, so no entry block to seed.
        let mut stack = if self.len() > 0 { vec![0] } else { Vec::new() };
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut reached[b], true) {
                stack.extend(self.successors(b));
            }
        }
        reached
    }
}

fn bit(row: &[u64], r: u16) -> bool {
    row[r as usize / 64] & (1 << (r % 64)) != 0
}

fn set_bit(row: &mut [u64], r: u16) {
    row[r as usize / 64] |= 1 << (r % 64);
}

fn clear_bit(row: &mut [u64], r: u16) {
    row[r as usize / 64] &= !(1 << (r % 64));
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

    /// Words in a bit row wide enough for everything `code` mentions.
    fn words(self, code: &[Instr]) -> usize {
        let mut top = 0usize;
        for instr in code {
            self.uses(instr, |r| top = top.max(r as usize + 1));
            self.defs(instr, |r| top = top.max(r as usize + 1));
        }
        top.div_ceil(64).max(1)
    }
}

/// Backward dataflow to a fixpoint: the live-in row of every block,
/// `words` words each. `step(i, row)` takes the row live after
/// instruction `i` to the row live before it; `at_exit` is live where
/// execution ends.
fn block_live_in(
    cfg: &Cfg,
    words: usize,
    at_exit: &[u64],
    step: impl Fn(usize, &mut [u64]),
) -> Vec<u64> {
    let nb = cfg.len();
    let mut live_in = vec![0u64; nb * words];
    let mut row = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            live_out(cfg, b, &live_in, at_exit, &mut row);
            for i in cfg.range(b).rev() {
                step(i, &mut row);
            }
            let cur = &mut live_in[b * words..][..words];
            if cur != row {
                cur.copy_from_slice(&row);
                changed = true;
            }
        }
    }
    live_in
}

/// `row` = what is live at the end of block `b`.
fn live_out(cfg: &Cfg, b: usize, live_in: &[u64], at_exit: &[u64], row: &mut [u64]) {
    let words = row.len();
    row.fill(0);
    if cfg.exits(b) {
        for (w, e) in row.iter_mut().zip(at_exit) {
            *w |= e;
        }
    }
    for &s in cfg.successors(b) {
        for (w, l) in row.iter_mut().zip(&live_in[s * words..][..words]) {
            *w |= l;
        }
    }
}

/// The registers (or slots) some path from entry reads before writing
/// — the state a fresh, zeroed frame would have supplied. `at_exit`
/// lists what the caller reads once the chunk finishes (output slots).
pub(crate) fn live_in_at_entry(code: &[Instr], bank: Bank, at_exit: &[u16]) -> Vec<u16> {
    if code.is_empty() {
        return at_exit.to_vec();
    }
    let mut words = bank.words(code);
    for &r in at_exit {
        words = words.max(r as usize / 64 + 1);
    }
    let mut exit_row = vec![0u64; words];
    for &r in at_exit {
        set_bit(&mut exit_row, r);
    }
    let cfg = Cfg::build(code);
    let live_in = block_live_in(&cfg, words, &exit_row, |i, row| {
        bank.defs(&code[i], |r| clear_bit(row, r));
        bank.uses(&code[i], |r| set_bit(row, r));
    });
    (0..words * 64)
        .map(|r| r as u16)
        .filter(|&r| bit(&live_in[..words], r))
        .collect()
}

/// Per-instruction register liveness: row `i` is the set of registers
/// whose values may still be read on some path after instruction `i`
/// executes.
pub(crate) struct Liveness {
    words: usize,
    rows: Vec<u64>,
}

impl Liveness {
    fn live_after(&self, i: usize, r: Reg) -> bool {
        (r as usize) < self.words * 64 && bit(&self.rows[i * self.words..][..self.words], r)
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.rows[i * self.words..][..self.words]
    }
}

// ---- dead-code elimination ------------------------------------------------

/// Slots `$instr` reads (indexed stores read-modify the slot's array in
/// place, so they count).
macro_rules! each_slot_use {
    ($instr:expr, $f:ident) => {
        match $instr {
            Instr::LoadSlotNum { slot, .. }
            | Instr::Shape { slot, .. }
            | Instr::LoadIdx1 { slot, .. }
            | Instr::LoadIdx2 { slot, .. }
            | Instr::StoreIdx1 { slot, .. }
            | Instr::StoreIdx2 { slot, .. }
            | Instr::BinStoreIdx1 { slot, .. } => $f(slot),
            Instr::CopySlot { src, .. } => $f(src),
            Instr::CallHost { first, rest, .. } => {
                if let FirstArg::Var(s) | FirstArg::Anon(Operand::Slot(s)) = first {
                    $f(s);
                }
                for op in rest {
                    if let Operand::Slot(s) = op {
                        $f(s);
                    }
                }
            }
            Instr::CallTransform { args, .. } => {
                for op in args {
                    if let Operand::Slot(s) = op {
                        $f(s);
                    }
                }
            }
            _ => {}
        }
    };
}

/// Slots `$instr` overwrites whole (element stores mutate in place and
/// are uses, not defs).
macro_rules! each_slot_def {
    ($instr:expr, $f:ident) => {
        match $instr {
            Instr::StoreSlotNum { slot: dst, .. }
            | Instr::CopySlot { dst, .. }
            | Instr::CallHost { dst, .. }
            | Instr::CallTransform { dst, .. } => $f(dst),
            _ => {}
        }
    };
}

/// Slots an instruction reads (a write to a slot no instruction — and
/// no output binding — ever reads is unobservable).
pub(crate) fn for_each_slot_use(instr: &Instr, mut f: impl FnMut(Slot)) {
    let mut f = |s: &Slot| f(*s);
    each_slot_use!(instr, f);
}

/// Slots an instruction overwrites whole.
pub(crate) fn for_each_slot_def(instr: &Instr, mut f: impl FnMut(Slot)) {
    let mut f = |s: &Slot| f(*s);
    each_slot_def!(instr, f);
}

/// Marks the never-erroring slot writes (`StoreSlotNum`, `CopySlot`)
/// whose slot nothing reads — no instruction, no output binding. The
/// read set is flow-insensitive; dropping a dead `CopySlot` can free
/// its source in turn, hence the loop.
fn dead_slot_writes(code: &[Instr], n_slots: u16, output_slots: &[Slot]) -> Vec<bool> {
    let mut reads = vec![0u32; n_slots as usize];
    for instr in code {
        for_each_slot_use(instr, |s| reads[s as usize] += 1);
    }
    for &s in output_slots {
        reads[s as usize] += 1;
    }
    let mut dead = vec![false; code.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for (i, instr) in code.iter().enumerate() {
            if dead[i] {
                continue;
            }
            match instr {
                Instr::StoreSlotNum { slot, .. } if reads[*slot as usize] == 0 => dead[i] = true,
                Instr::CopySlot { dst, src } if reads[*dst as usize] == 0 => {
                    dead[i] = true;
                    reads[*src as usize] -= 1;
                    changed = true;
                }
                _ => {}
            }
        }
    }
    dead
}

/// Replaces instructions with no observable effect with `Nop`s — pure
/// instructions whose result registers are dead, self-moves, and
/// never-erroring writes to slots nothing reads — and returns the
/// register liveness of what is left.
///
/// One liveness computation does it: the transfer function skips an
/// instruction that is removable and whose results are dead (so what
/// *it* reads does not become live on its account), which reaches in
/// one fixpoint what removing and recomputing reached in several.
/// Instructions with side effects (stores that something reads, RNG,
/// cost charges, anything that can error) are never removed, so error
/// behavior is preserved exactly.
fn dce(code: &mut [Instr], n_slots: u16, output_slots: &[Slot]) -> Liveness {
    let dead_write = dead_slot_writes(code, n_slots, output_slots);
    let words = Bank::Regs.words(code);
    // `true` when instruction `i` is dead given `row` live after it;
    // otherwise `row` becomes what is live before it.
    let step = |code: &[Instr], i: usize, row: &mut [u64]| -> bool {
        let instr = &code[i];
        if dead_write[i] || matches!(instr, Instr::Move { dst, src } if dst == src) {
            return true;
        }
        if is_pure(instr) {
            let (mut has_def, mut any_live) = (false, false);
            for_each_def(instr, |r| {
                has_def = true;
                any_live |= bit(row, r);
            });
            if has_def && !any_live {
                return true;
            }
        }
        for_each_def(instr, |r| clear_bit(row, r));
        for_each_use(instr, |r| set_bit(row, r));
        false
    };
    let cfg = Cfg::build(code);
    // Blocks nothing reaches go whole.
    let reached = cfg.reached();
    for b in (0..cfg.len()).filter(|&b| !reached[b]) {
        code[cfg.range(b)].fill(Instr::Nop);
    }
    let live_in = block_live_in(&cfg, words, &[], |i, row| {
        step(code, i, row);
    });
    let mut live = Liveness {
        words,
        rows: vec![0; code.len() * words],
    };
    let mut row = vec![0u64; words];
    for b in 0..cfg.len() {
        live_out(&cfg, b, &live_in, &[], &mut row);
        for i in cfg.range(b).rev() {
            live.row_mut(i).copy_from_slice(&row);
            if step(code, i, &mut row) {
                code[i] = Instr::Nop;
            }
        }
    }
    live
}

/// Whether `instr` writes exactly one register without also reading it
/// as a read-modify-write — the producers [`retarget_moves`] may point
/// elsewhere.
fn sole_plain_def(instr: &Instr) -> Option<Reg> {
    if writes_in_place(instr) {
        return None;
    }
    let mut def = None;
    for_each_def(instr, |r| def = Some(r));
    def
}

/// `t = …; Move p ← t` with `t` dead afterwards becomes `p = …`: the
/// producer writes the destination directly and the `Move` goes, so
/// `x = x + y` on a register-resident `x` stays one dispatch. Only
/// `Nop`s may sit between the two, no jump may land between them, and
/// chains (`Move q ← p` right behind) collapse in the same sweep.
/// `live` is kept exact for the rewritten code.
fn retarget_moves(code: &mut [Instr], live: &mut Liveness) {
    let targets = jump_targets(code);
    let mut producer: Option<usize> = None;
    for m in 0..code.len() {
        if targets[m] {
            producer = None;
        }
        if matches!(code[m], Instr::Nop) {
            continue;
        }
        if let (Instr::Move { dst, src }, Some(q)) = (&code[m], producer) {
            let (p, t) = (*dst, *src);
            if sole_plain_def(&code[q]) == Some(t) && p != t && !live.live_after(m, t) {
                for_each_def_mut(&mut code[q], |d| *d = p);
                code[m] = Instr::Nop;
                for k in q..m {
                    let row = live.row_mut(k);
                    clear_bit(row, t);
                    set_bit(row, p);
                }
                continue;
            }
        }
        producer = (!is_terminator(&code[m])).then_some(m);
    }
}

// ---- value tracking ------------------------------------------------------

/// What a register is known to hold at a program point.
#[derive(Clone, Copy, PartialEq)]
enum RegFact {
    Unknown,
    /// This constant, bit for bit.
    Const(u64),
    /// Same value as another register (stored canonical: the
    /// referenced register is itself `Unknown`).
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
        BinOp::Rem => rem(a, b),
        BinOp::Eq => (a == b) as i64 as f64,
        BinOp::Ne => (a != b) as i64 as f64,
        BinOp::Lt => (a < b) as i64 as f64,
        BinOp::Le => (a <= b) as i64 as f64,
        BinOp::Gt => (a > b) as i64 as f64,
        BinOp::Ge => (a >= b) as i64 as f64,
        BinOp::And | BinOp::Or => unreachable!("lowered to jumps"),
    }
}

/// `a % b` (libm `fmod`) with an integer fast path, bit-identical to it.
/// `a as u32` saturates and maps NaN to 0, so `ai as f64 == a` holds
/// exactly for the integers `0 ..= 2³² − 1` and for `-0.0`, which the
/// sign test excludes (`fmod(-0.0, b)` is `-0.0`); `bi != 0` likewise
/// leaves `b` a positive integer below 2³². On those inputs `fmod` is
/// exact — the remainder of two integers is an integer below `b`, so
/// representable — and its zero is `+0.0`, the sign of `a`: exactly what
/// the `u32` remainder converts to. Every other input takes `%`.
#[inline]
fn rem(a: f64, b: f64) -> f64 {
    let (ai, bi) = (a as u32, b as u32);
    if ai as f64 == a && a.is_sign_positive() && bi != 0 && bi as f64 == b {
        (ai % bi) as f64
    } else {
        a % b
    }
}

/// An operand of an [`Expr`]: a constant, or whatever a register (the
/// root of its copy class) holds.
#[derive(Clone, Copy, PartialEq)]
enum Val {
    Reg(Reg),
    Const(u64),
}

/// A computation whose result a register may still hold: pure
/// arithmetic, or an element load (which, behind an identical load of
/// an unchanged slot, can neither fail nor read anything else).
#[derive(Clone, Copy, PartialEq)]
enum Expr {
    Bin(BinOp, Val, Val),
    Math1(crate::compile::MathFn1, Val),
    Math2(crate::compile::MathFn2, Val, Val),
    Load1(Slot, Val),
    Load2(Slot, Val, Val),
}

impl Expr {
    fn operands_mut(&mut self) -> [Option<&mut Val>; 2] {
        match self {
            Expr::Bin(_, a, b) | Expr::Math2(_, a, b) | Expr::Load2(_, a, b) => [Some(a), Some(b)],
            Expr::Math1(_, a) | Expr::Load1(_, a) => [Some(a), None],
        }
    }

    /// Register `d` is overwritten; `heir` (if any) still holds what it
    /// held. Whether the expression still names live values.
    fn survives(&mut self, d: Reg, heir: Option<Reg>) -> bool {
        self.operands_mut().into_iter().flatten().all(|a| {
            if *a == Val::Reg(d) {
                match heir {
                    Some(h) => *a = Val::Reg(h),
                    None => return false,
                }
            }
            true
        })
    }

    fn loads_from(&self, s: Slot) -> bool {
        matches!(*self, Expr::Load1(slot, _) | Expr::Load2(slot, _, _) if slot == s)
    }
}

/// Slots whose contents an instruction may change: rebound whole, or an
/// element stored through.
fn for_each_slot_write(instr: &Instr, mut f: impl FnMut(Slot)) {
    for_each_slot_def(instr, &mut f);
    match instr {
        Instr::StoreIdx1 { slot, .. }
        | Instr::StoreIdx2 { slot, .. }
        | Instr::BinStoreIdx1 { slot, .. } => f(*slot),
        // The host may mutate or rebind its first argument.
        Instr::CallHost {
            first: FirstArg::Var(s),
            ..
        } => f(*s),
        _ => {}
    }
}

/// Per slot below `n_slots`, whether some instruction of `code` may
/// change its contents ([`for_each_slot_write`]).
pub(crate) fn written_slots(code: &[Instr], n_slots: u16) -> Vec<bool> {
    let mut written = vec![false; n_slots as usize];
    for instr in code {
        for_each_slot_write(instr, |s| {
            if let Some(w) = written.get_mut(s as usize) {
                *w = true;
            }
        });
    }
    written
}

/// The facts that hold on *every* path to a program point: what each
/// register holds, which computations some register still holds the
/// result of, and the deepest inlined-call level a `DepthGuard` has
/// already admitted (the call depth is fixed for one execution of a
/// chunk, so a guard behind a deeper-or-equal one cannot fail).
#[derive(Clone)]
struct Known {
    regs: Vec<RegFact>,
    /// `(e, r)`: `r` holds what `e` evaluates to here. Operands are
    /// canonical (roots of the copy facts); `r` is one too.
    avail: Vec<(Expr, Reg)>,
    guard: u8,
}

impl Known {
    fn canon(&self, r: Reg) -> Reg {
        match self.regs[r as usize] {
            RegFact::Copy(root) => root,
            _ => r,
        }
    }

    fn value(&self, r: Reg) -> Option<f64> {
        match self.regs[r as usize] {
            RegFact::Const(bits) => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// Register `d` is overwritten. Its copies still equal one another
    /// and what `d` held: the first becomes their root and takes over
    /// whatever was known through `d`; with no copy, that is gone.
    /// Returns that heir.
    fn kill(&mut self, d: Reg) -> Option<Reg> {
        let mut heir = None;
        for r in 0..self.regs.len() {
            if self.regs[r] == RegFact::Copy(d) {
                self.regs[r] = match heir {
                    Some(h) => RegFact::Copy(h),
                    None => {
                        heir = Some(r as Reg);
                        RegFact::Unknown
                    }
                };
            }
        }
        self.regs[d as usize] = RegFact::Unknown;
        self.avail.retain_mut(|(expr, held)| {
            if *held == d {
                match heir {
                    Some(h) => *held = h,
                    None => return false,
                }
            }
            expr.survives(d, heir)
        });
        heir
    }

    /// Keeps what `self` and `other` agree on; returns whether `self`
    /// lost anything.
    fn meet(&mut self, other: &Known) -> bool {
        let mut changed = self.guard > other.guard;
        self.guard = self.guard.min(other.guard);
        for (mine, theirs) in self.regs.iter_mut().zip(&other.regs) {
            if *mine != *theirs && *mine != RegFact::Unknown {
                *mine = RegFact::Unknown;
                changed = true;
            }
        }
        let before = self.avail.len();
        self.avail.retain(|e| other.avail.contains(e));
        changed | (self.avail.len() != before)
    }

    /// The constant a pure instruction computes when everything it
    /// reads is known — with the same `f64` operations the VM would
    /// execute, so folding is bit-identical to running it.
    fn fold(&self, instr: &Instr) -> Option<(Reg, f64)> {
        let v = |r: &Reg| self.value(*r);
        Some(match instr {
            Instr::Move { dst, src } => (*dst, v(src)?),
            Instr::Bin { op, dst, a, b } => (*dst, apply_bin(*op, v(a)?, v(b)?)),
            Instr::BinRI { op, dst, a, imm } => (*dst, apply_bin(*op, v(a)?, *imm)),
            Instr::BinIR { op, dst, imm, b } => (*dst, apply_bin(*op, *imm, v(b)?)),
            Instr::Neg { dst, src } => (*dst, -v(src)?),
            Instr::Not { dst, src } => (*dst, if v(src)? == 0.0 { 1.0 } else { 0.0 }),
            Instr::TestNonZero { dst, src } => (*dst, (v(src)? != 0.0) as i64 as f64),
            Instr::Math1 { f, dst, src } => (*dst, crate::vm::apply_math1(*f, v(src)?)),
            Instr::Math2 { f, dst, a, b } => (*dst, crate::vm::apply_math2(*f, v(a)?, v(b)?)),
            Instr::AddImm { dst, imm } => (*dst, v(dst)? + imm),
            _ => return None,
        })
    }

    fn val(&self, r: Reg) -> Val {
        match self.regs[r as usize] {
            RegFact::Const(bits) => Val::Const(bits),
            RegFact::Copy(root) => Val::Reg(root),
            RegFact::Unknown => Val::Reg(r),
        }
    }

    /// What `instr` computes, over the values its operands hold here.
    fn expr(&self, instr: &Instr) -> Option<(Reg, Expr)> {
        let v = |r: Reg| self.val(r);
        let c = |imm: f64| Val::Const(imm.to_bits());
        Some(match *instr {
            Instr::Bin { op, dst, a, b } => (dst, Expr::Bin(op, v(a), v(b))),
            Instr::BinRI { op, dst, a, imm } => (dst, Expr::Bin(op, v(a), c(imm))),
            Instr::BinIR { op, dst, imm, b } => (dst, Expr::Bin(op, c(imm), v(b))),
            Instr::Math1 { f, dst, src } => (dst, Expr::Math1(f, v(src))),
            Instr::Math2 { f, dst, a, b } => (dst, Expr::Math2(f, v(a), v(b))),
            Instr::LoadIdx1 { dst, slot, idx } => (dst, Expr::Load1(slot, v(idx))),
            Instr::LoadIdx2 { dst, slot, i, j } => (dst, Expr::Load2(slot, v(i), v(j))),
            _ => return None,
        })
    }

    /// The destination of `instr` and the register that already holds
    /// what it would compute.
    fn holder(&self, instr: &Instr) -> Option<(Reg, Reg)> {
        let (dst, expr) = self.expr(instr)?;
        let held = self.avail.iter().find(|(e, _)| *e == expr)?.1;
        Some((dst, held))
    }

    /// Transfer function: the facts after `instr` executes.
    fn step(&mut self, instr: &Instr) {
        if let Some((dst, val)) = self.fold(instr) {
            self.kill(dst);
            self.regs[dst as usize] = RegFact::Const(val.to_bits());
            return;
        }
        match instr {
            Instr::Const { dst, val } => {
                self.kill(*dst);
                self.regs[*dst as usize] = RegFact::Const(val.to_bits());
            }
            Instr::Move { dst, src } => {
                // Copying a register onto its own root changes nothing.
                let root = self.canon(*src);
                if root != *dst {
                    self.kill(*dst);
                    self.regs[*dst as usize] = RegFact::Copy(root);
                }
            }
            Instr::DepthGuard { extra } => self.guard = self.guard.max(*extra),
            other => {
                // What it computes is over the values it *read*: an
                // operand it overwrites lives on in its heir, if at all.
                let mut computed = self.expr(other);
                let mut defs = [None; 2];
                let mut n = 0;
                for_each_def(other, |d| {
                    defs[n] = Some(d);
                    n += 1;
                });
                for d in defs.into_iter().flatten() {
                    let heir = self.kill(d);
                    if computed.as_mut().is_some_and(|(_, e)| !e.survives(d, heir)) {
                        computed = None;
                    }
                }
                for_each_slot_write(other, |s| self.avail.retain(|(e, _)| !e.loads_from(s)));
                self.avail.extend(computed.map(|(dst, e)| (e, dst)));
            }
        }
    }
}

/// Constant folding, copy propagation, redundant-guard removal and
/// common-subexpression reuse (arithmetic and element loads), over
/// facts that hold chunk-wide: a forward dataflow whose state at a
/// block's entry is the *meet* of its predecessors' exit states,
/// iterated to a fixpoint, so a copy, constant or loaded element
/// established before a loop — or at its head — is still available at
/// the bottom of its body. Rewrites instructions in place (the code
/// length never changes, so jump targets stay valid).
fn value_pass(code: &mut [Instr], n_regs: u16) {
    if code.is_empty() {
        return;
    }
    let cfg = Cfg::build(code);
    let nb = cfg.len();
    // `None` = not reached yet (the meet's identity).
    let mut at_entry: Vec<Option<Known>> = vec![None; nb];
    at_entry[0] = Some(Known {
        regs: vec![RegFact::Unknown; n_regs as usize],
        avail: Vec::new(),
        guard: 0,
    });
    let mut dirty = vec![false; nb];
    dirty[0] = true;
    while dirty.contains(&true) {
        for b in 0..nb {
            if !std::mem::take(&mut dirty[b]) {
                continue;
            }
            let mut state = at_entry[b].clone().expect("dirty blocks are reached");
            for i in cfg.range(b) {
                state.step(&code[i]);
            }
            for &s in cfg.successors(b) {
                dirty[s] |= match &mut at_entry[s] {
                    Some(known) => known.meet(&state),
                    slot => {
                        *slot = Some(state.clone());
                        true
                    }
                };
            }
        }
    }

    // Scalars stored earlier in the block to slots `promote` had to
    // leave in place, with what was stored: loading one back cannot
    // fail and is a copy.
    let mut stored: Vec<(Slot, RegFact)> = Vec::new();
    for (b, known) in at_entry.into_iter().enumerate() {
        let Some(mut state) = known else {
            continue; // unreachable
        };
        stored.clear();
        for i in cfg.range(b) {
            let instr = &mut code[i];
            // Reads go through the copy facts (plain reads only; the
            // in-place destinations of AddImm/TruncPair/WhileGuard
            // must stay where they are).
            for_each_read_mut(instr, |r| *r = state.canon(*r));
            if let Instr::LoadSlotNum { dst, slot } = *instr {
                match stored.iter().find(|(s, _)| *s == slot) {
                    Some(&(_, RegFact::Copy(src))) => *instr = Instr::Move { dst, src },
                    Some(&(_, RegFact::Const(bits))) => {
                        let val = f64::from_bits(bits);
                        *instr = Instr::Const { dst, val };
                    }
                    _ => {}
                }
            }
            let folded = match *instr {
                Instr::Const { .. } => None,
                Instr::DepthGuard { extra } if state.guard >= extra => Some(Instr::Nop),
                _ => match (state.fold(instr), &*instr) {
                    (Some((dst, val)), _) => Some(Instr::Const { dst, val }),
                    (None, &Instr::Bin { op, dst, a, b }) => {
                        match (state.value(a), state.value(b)) {
                            (Some(imm), _) => Some(Instr::BinIR { op, dst, imm, b }),
                            (_, Some(imm)) => Some(Instr::BinRI { op, dst, a, imm }),
                            _ => None,
                        }
                    }
                    _ => None,
                },
            };
            if let Some(folded) = folded {
                *instr = folded;
            }
            if let Some((dst, held)) = state.holder(instr) {
                *instr = if held == dst {
                    Instr::Nop
                } else {
                    Instr::Move { dst, src: held }
                };
            }
            state.step(instr);
            for_each_def(instr, |d| {
                stored.retain(|(_, fact)| *fact != RegFact::Copy(d))
            });
            for_each_slot_write(instr, |s| stored.retain(|(slot, _)| *slot != s));
            if let Instr::StoreSlotNum { slot, src } = *instr {
                let fact = match state.regs[src as usize] {
                    RegFact::Const(bits) => RegFact::Const(bits),
                    _ => RegFact::Copy(src),
                };
                stored.push((slot, fact));
            }
        }
    }
}

// ---- superinstruction fusion ---------------------------------------------

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

/// Collapses the dominant adjacent sequences into superinstructions.
/// A sequence fuses only when no jump lands inside it and the absorbed
/// intermediate registers are dead afterwards.
fn fuse(code: &mut [Instr], live: &Liveness) {
    let n = code.len();
    let targets = jump_targets(code);

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
        if src != dst || idx == dst || live.live_after(i + 1, dst) {
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
        if live.live_after(i + 1, cond) {
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

// ---- charge folding --------------------------------------------------------

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

// ---- loop rotation ---------------------------------------------------------

/// Fuses each counted loop's back edge — an `AddImm` + `Jump` to a
/// `JumpIfGe` head, with no jump landing on the `Jump` — into one
/// [`Instr::LoopNext`]: it steps the counter, repeats the head's test
/// and, when a `Charge` follows the head, replays that charge and
/// re-enters the body past it. The head and its `Charge` stay for the
/// first trip. Runs after charge folding, so the `Charge` behind a head
/// is the whole of what its region charges before a barrier; a back
/// edge to anything else stays two instructions.
fn rotate_loops(code: &mut [Instr]) {
    let targets = jump_targets(code);
    for i in 0..code.len().saturating_sub(1) {
        let (Instr::AddImm { dst: ctr, imm }, Instr::Jump { target }) = (&code[i], &code[i + 1])
        else {
            continue;
        };
        let (ctr, imm, head) = (*ctr, *imm, *target);
        let Some(&Instr::JumpIfGe { a, b, target: exit }) = code.get(head) else {
            continue;
        };
        if targets[i + 1] {
            continue;
        }
        let (charge, body) = match code.get(head + 1) {
            Some(&Instr::Charge { amount }) => (amount, head + 2),
            _ => (0.0, head + 1),
        };
        code[i] = Instr::LoopNext {
            ctr,
            imm,
            a,
            b,
            exit,
            body,
            charge,
        };
        code[i + 1] = Instr::Nop;
    }
}

// ---- compaction + register coalescing ------------------------------------

/// Drops `Nop`s, remapping every jump target (and dropping the `Nop`s'
/// rows from `live`, when the caller goes on using it).
fn compact(code: &mut Vec<Instr>, live: Option<&mut Liveness>) {
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
    if let Some(live) = live {
        for i in (0..n).filter(|&i| !matches!(code[i], Instr::Nop)) {
            live.rows
                .copy_within(i * live.words..(i + 1) * live.words, map[i] * live.words);
        }
        live.rows.truncate(map[n] * live.words);
    }
    code.retain(|i| !matches!(i, Instr::Nop));
    for instr in code {
        for_each_target_mut(instr, |t| *t = map[*t]);
    }
}

/// Renumbers surviving registers densely (coalescing the bank) and
/// returns the new register count.
fn renumber_regs(code: &mut [Instr]) -> u16 {
    let mut map: Vec<Option<Reg>> = Vec::new();
    let mut next: Reg = 0;
    for instr in code.iter() {
        let mut note = |r: Reg| {
            if map.len() <= r as usize {
                map.resize(r as usize + 1, None);
            }
            map[r as usize].get_or_insert_with(|| {
                next += 1;
                next - 1
            });
        };
        for_each_use(instr, &mut note);
        for_each_def(instr, &mut note);
    }
    for instr in code {
        remap_regs(instr, |r| {
            map[r as usize].expect("every register was noted")
        });
    }
    next
}

/// Rewrites every register reference through `map` (each operand field
/// exactly once: the plain reads, then the written — and
/// read-modify-written — registers).
pub(crate) fn remap_regs(instr: &mut Instr, map: impl Fn(Reg) -> Reg) {
    for_each_read_mut(instr, |r| *r = map(*r));
    for_each_def_mut(instr, |r| *r = map(*r));
}

/// Rewrites every slot reference through `map`.
pub(crate) fn remap_slots(instr: &mut Instr, map: impl Fn(Slot) -> Slot) {
    let m = |s: &mut Slot| *s = map(*s);
    each_slot_use!(instr, m);
    each_slot_def!(instr, m);
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
        let opt = optimize(&raw, OptLevel::O3, true, None).expect("verifies");
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
        assert_eq!(optimize(&raw, OptLevel::O0, true, None).unwrap(), raw);
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
    fn accumulator_updates_stay_in_registers() {
        // `w` is a scalar output: with the entry facts the program
        // optimizes against it lives in a register for the whole chunk,
        // so the loop holds no slot traffic at all.
        let program = parse_program(
            r#"transform t from In[n] to Out[n], W {
                to (Out o, W w) from (In a) {
                    for_enough { w = w + 1; }
                }
            }"#,
        )
        .unwrap();
        let compiled = crate::compile::compile_program(&program).optimized(OptLevel::O3);
        let code = &compiled.chunk("t", 0).unwrap().code;
        let &[(head, last)] = loops(code).as_slice() else {
            panic!("one loop: {code:?}");
        };
        let body = &code[head..=last];
        assert!(
            body.iter()
                .any(|i| matches!(i, Instr::BinRI { op: BinOp::Add, dst, a, imm } if dst == a && *imm == 1.0)),
            "w = w + 1 should be one in-place add: {code:?}"
        );
        assert_eq!(
            count(body, |i| matches!(
                i,
                Instr::LoadSlotNum { .. } | Instr::StoreSlotNum { .. } | Instr::CopySlot { .. }
            )),
            0,
            "the accumulator never touches its slot inside the loop: {code:?}"
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
            opt.code.iter().any(|i| matches!(i, Instr::LoopNext { .. })),
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
            for_each_target(instr, |t| assert!(t <= opt.code.len(), "{instr:?}"));
        }
        assert!(!opt.code.iter().any(|i| matches!(i, Instr::Nop)));
    }

    #[test]
    fn integer_remainder_is_fmod_bit_for_bit() {
        // Integers on both sides of every edge of the fast path's guard,
        // their negations, and neighbours a fraction away.
        let mut edges = vec![0.0, 0.5, 1.0, 2.0, 3.0, 1e300, f64::INFINITY, f64::NAN];
        for k in [31, 32, 52, 53, 54] {
            let p = 2f64.powi(k);
            edges.extend([p - 1.0, p, p + 1.0, p - 0.5]);
        }
        edges.extend(edges.clone().iter().map(|v| -v));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as f64
        };
        let random = (0..20_000).map(|_| (next(), next() % 1000.0 + 1.0));
        let pairs = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
            .chain(random);
        for (a, b) in pairs {
            let (got, want) = (apply_bin(BinOp::Rem, a, b), a % b);
            assert_eq!(got.to_bits(), want.to_bits(), "{a} % {b}");
        }
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
