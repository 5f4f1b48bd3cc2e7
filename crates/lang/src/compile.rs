//! Lowering from the checked AST to flat register bytecode.
//!
//! The original PetaBricks compiler lowered transforms to generated
//! C++; this reproduction's equivalent is a bytecode pass: each *rule
//! body* compiles once into a [`Chunk`] of register instructions that
//! the dispatch-loop VM ([`crate::vm`]) executes against a
//! `pb_runtime::ExecCtx`. Everything outside rule bodies — dimension
//! resolution, `scaled_by` resampling, the choice-dependency-graph
//! schedule, `rule_<Data>` decision trees — stays in the shared
//! orchestration of [`crate::interp::Interpreter`], so compiled and
//! tree-walking execution resolve tunables identically.
//!
//! The compiler is *semantics-preserving by construction*: evaluation
//! order, short-circuiting, RNG consumption, virtual-cost charging,
//! and tunable lookups mirror the interpreter exactly, so a compiled
//! rule produces bit-identical `Value`s (and virtual cost) to the
//! tree-walker.
//!
//! It is also *total* on checked programs: every rule body
//! [`crate::sema::check_program`] accepts lowers, and there is no
//! per-rule fallback. What sema rejects is what lowering could not
//! resolve statically — a read of a name bound on only some of the
//! paths reaching it (local or tunable?), an indexed use of a name that
//! is not a local, the arities of indices, builtins and sub-transform
//! calls. The one thing left to fail here is capacity: a rule that
//! needs more than `u16::MAX` registers, slots or transform indices is
//! a [`CompileError`], and then the *program* has no bytecode
//! ([`CompiledProgram::error`]).
//!
//! Statements lower one by one, in the interpreter's order, with one
//! reshaping that leaves every result and error as it was: a `for` or
//! `for_enough` whose body is exactly one `either` lowers *unswitched*.
//! A choice (§3.2) cannot change within one rule invocation, so the
//! loop's zero-trip check is followed by one `Choice`+`Switch` into a
//! copy of the loop per branch, and no trip dispatches on the choice
//! again. Each branch body is still emitted once, and a loop that runs
//! no trip never resolves the choice, like the tree-walker.
//!
//! Machine model: two register banks per rule activation. Scalar
//! temporaries live in a bank of `f64` registers; named locals (rule
//! aliases, `let` bindings, loop variables) and value temporaries
//! (host-call / sub-transform results) live in a bank of
//! [`crate::interp::Value`] slots. Compile-time resolution of names to
//! slot indices is what removes the interpreter's per-access hash
//! lookups and array clones.

use crate::ast::*;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Index into a chunk's scalar (`f64`) register bank.
pub type Reg = u16;

/// Index into a chunk's `Value` slot bank.
pub type Slot = u16;

/// Index into a chunk's interned-name table.
pub type NameIdx = u16;

/// One-argument math builtins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn1 {
    /// `sqrt(x)`
    Sqrt,
    /// `abs(x)`
    Abs,
    /// `floor(x)`
    Floor,
    /// `ceil(x)`
    Ceil,
    /// `exp(x)`
    Exp,
    /// `log(x)` (natural log, like the interpreter)
    Log,
}

/// Two-argument math builtins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn2 {
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `pow(a, b)`
    Pow,
}

/// Shape queries on arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeKind {
    /// `len(a)`: length of a 1-D array, columns of a 2-D array.
    Len,
    /// `rows(m)`
    Rows,
    /// `cols(m)`
    Cols,
}

/// A value source: either a scalar register or a `Value` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Scalar register (wrapped into `Value::Num` where a `Value` is
    /// needed).
    Reg(Reg),
    /// Value slot (cloned where an owned `Value` is needed).
    Slot(Slot),
}

/// The first argument of a host call, which may be mutated in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstArg {
    /// A named local: cloned out, passed `&mut`, written back — the
    /// interpreter's aliasing semantics.
    Var(Slot),
    /// Any other expression: evaluated, passed `&mut`, discarded.
    Anon(Operand),
}

/// A register-machine instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `regs[dst] = val`
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate.
        val: f64,
    },
    /// `regs[dst] = regs[src]`
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = slots[slot].as_num()?` — errors on arrays.
    LoadSlotNum {
        /// Destination register.
        dst: Reg,
        /// Source slot.
        slot: Slot,
    },
    /// `slots[slot] = Value::Num(regs[src])`
    StoreSlotNum {
        /// Destination slot.
        slot: Slot,
        /// Source register.
        src: Reg,
    },
    /// `slots[dst] = slots[src].clone()`
    CopySlot {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
    },
    /// `regs[dst] = ctx.param(prefix + names[name]) as f64` — the
    /// interpreter's fallback for names not in scope (accuracy
    /// variables and other tunables); errors like it on unknowns.
    LoadParam {
        /// Destination register.
        dst: Reg,
        /// Interned tunable name.
        name: NameIdx,
    },
    /// Non-short-circuit binary op (`And`/`Or` compile to jumps).
    Bin {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `regs[dst] = -regs[src]`
    Neg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = (regs[src] == 0.0) as f64`
    Not {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = (regs[src] != 0.0) as f64`
    TestNonZero {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// One-argument math builtin.
    Math1 {
        /// Which function.
        f: MathFn1,
        /// Destination register.
        dst: Reg,
        /// Argument register.
        src: Reg,
    },
    /// Two-argument math builtin.
    Math2 {
        /// Which function.
        f: MathFn2,
        /// Destination register.
        dst: Reg,
        /// First argument.
        a: Reg,
        /// Second argument.
        b: Reg,
    },
    /// `rand(lo, hi)` with the interpreter's exact semantics: `lo`
    /// unless `lo < hi` (no RNG draw: an empty range or a NaN bound),
    /// else one uniform draw.
    Rand {
        /// Destination register.
        dst: Reg,
        /// Lower bound register.
        lo: Reg,
        /// Upper bound register.
        hi: Reg,
    },
    /// `len` / `rows` / `cols` of a slot.
    Shape {
        /// Which query.
        kind: ShapeKind,
        /// Destination register.
        dst: Reg,
        /// The array slot.
        slot: Slot,
    },
    /// 1-D element read (bounds-checked).
    LoadIdx1 {
        /// Destination register.
        dst: Reg,
        /// Array slot.
        slot: Slot,
        /// Index register (validated and truncated like the
        /// interpreter's `eval_index`).
        idx: Reg,
    },
    /// 2-D element read (bounds-checked).
    LoadIdx2 {
        /// Destination register.
        dst: Reg,
        /// Array slot.
        slot: Slot,
        /// Row index register.
        i: Reg,
        /// Column index register.
        j: Reg,
    },
    /// 1-D element write (bounds-checked).
    StoreIdx1 {
        /// Array slot.
        slot: Slot,
        /// Index register.
        idx: Reg,
        /// Source register.
        src: Reg,
    },
    /// 2-D element write (bounds-checked).
    StoreIdx2 {
        /// Array slot.
        slot: Slot,
        /// Row index register.
        i: Reg,
        /// Column index register.
        j: Reg,
        /// Source register.
        src: Reg,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Jump when `regs[cond] == 0.0`.
    JumpIfZero {
        /// Condition register.
        cond: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Jump when `regs[cond] != 0.0`.
    JumpIfNonZero {
        /// Condition register.
        cond: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Jump when `regs[a] >= regs[b]` (loop exits).
    JumpIfGe {
        /// Left comparand.
        a: Reg,
        /// Right comparand.
        b: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// `regs[dst] += imm` (loop increments).
    AddImm {
        /// Register updated in place.
        dst: Reg,
        /// Immediate addend.
        imm: f64,
    },
    /// Truncates both registers toward zero through `i64`, mirroring
    /// the interpreter's `for`-bound conversion.
    TruncPair {
        /// Lower-bound register.
        a: Reg,
        /// Upper-bound register.
        b: Reg,
    },
    /// `ctx.charge(amount)` — one unit per statement, like the
    /// interpreter's `exec_stmt`.
    Charge {
        /// Virtual-cost units.
        amount: f64,
    },
    /// Increments a loop counter register and errors past the
    /// interpreter's 10M-iteration `while` guard.
    WhileGuard {
        /// Counter register.
        counter: Reg,
    },
    /// `regs[dst] = ctx.for_enough(prefix + names[name]) as f64`
    ForEnoughPrep {
        /// Destination register.
        dst: Reg,
        /// Interned tunable name (`for_enough_<i>`).
        name: NameIdx,
    },
    /// `regs[dst] = ctx.choice(prefix + names[name]).min(branches - 1)`
    Choice {
        /// Destination register.
        dst: Reg,
        /// Interned tunable name (`either_<i>`).
        name: NameIdx,
        /// Number of branches (for clamping, like the interpreter).
        branches: u16,
    },
    /// Indirect jump: `pc = targets[regs[src] as usize]`.
    Switch {
        /// Branch-index register (already clamped by [`Instr::Choice`]).
        src: Reg,
        /// One target per branch.
        targets: Vec<usize>,
    },
    /// Host-function call with the interpreter's exact protocol:
    /// `rest` evaluated first, then `first`; cost charged by `rest`
    /// sizes; mutation written back for [`FirstArg::Var`].
    CallHost {
        /// Interned host-function name (resolved at runtime so hosts
        /// may be registered after compilation).
        name: NameIdx,
        /// The mutable first argument.
        first: FirstArg,
        /// Remaining (read-only) arguments.
        rest: Vec<Operand>,
        /// Slot receiving the call's result `Value`.
        dst: Slot,
    },
    /// Sub-transform call: recurses through the shared executor under
    /// a `<callee>.` tunable prefix. At [`crate::opt::OptLevel::O3`]
    /// the `inline` pass replaces calls to scalar helpers with the
    /// callee's body; the calls that remain take this generic path.
    CallTransform {
        /// Interned callee transform name (the tunable-prefix key).
        name: NameIdx,
        /// The callee's position in `Program::transforms`, resolved at
        /// lowering so dispatch never looks it up by name.
        callee: u16,
        /// Argument values, in callee input order.
        args: Vec<Operand>,
        /// Slot receiving the callee's single output.
        dst: Slot,
        /// Whether the callee's facts prove that output is always a
        /// scalar ([`CompiledTransform::scalar_out`]); lowering emits
        /// `false`, the `inline` pass stamps it.
        scalar: bool,
    },
    /// Early exit from the rule body (`return;`).
    Return,
    /// Entry check of an inlined callee body `extra` call levels below
    /// this chunk: errors with the generic path's "transform call depth
    /// exceeded" when `depth + extra` passes the limit. Emitted only by
    /// the `inline` pass.
    DepthGuard {
        /// Call levels between the chunk and the inlined body (≥ 1).
        extra: u8,
    },

    // ---- fused forms -----------------------------------------------
    // Lowering never emits the variants below; the optimizer
    // ([`crate::opt`]) rewrites the dominant dynamic sequences into
    // them. Each is observably equivalent to the sequence it replaces
    // (same value semantics, same error points, same RNG and cost
    // behavior), which is what keeps every `OptLevel` bit-identical to
    // the tree-walking interpreter.
    /// `regs[dst] = regs[a] op imm` — constant-operand arithmetic.
    BinRI {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand immediate.
        imm: f64,
    },
    /// `regs[dst] = imm op regs[b]` — constant-operand arithmetic with
    /// the immediate on the left (needed for non-commutative ops).
    BinIR {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand immediate.
        imm: f64,
        /// Right operand register.
        b: Reg,
    },
    /// Fused compare-then-branch: jump when
    /// `(regs[a] op regs[b]) == jump_if`. `op` is always a comparison.
    JumpCmp {
        /// The comparison operator.
        op: BinOp,
        /// Left comparand.
        a: Reg,
        /// Right comparand.
        b: Reg,
        /// Branch polarity (`true` fuses `JumpIfNonZero`, `false`
        /// fuses `JumpIfZero`).
        jump_if: bool,
        /// Target instruction index.
        target: usize,
    },
    /// Fused compare-immediate-then-branch: jump when
    /// `(regs[a] op imm) == jump_if`.
    JumpCmpImm {
        /// The comparison operator.
        op: BinOp,
        /// Left comparand register.
        a: Reg,
        /// Right comparand immediate.
        imm: f64,
        /// Branch polarity.
        jump_if: bool,
        /// Target instruction index.
        target: usize,
    },
    /// Fused arithmetic-into-element-store:
    /// `slots[slot][regs[idx]] = regs[a] op regs[b]` — the `Bin` +
    /// `StoreIdx1` pair of array-update loop bodies. Bounds checks and
    /// error behavior match the `StoreIdx1` it absorbs.
    BinStoreIdx1 {
        /// The operator.
        op: BinOp,
        /// Destination array slot.
        slot: Slot,
        /// Index register.
        idx: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// Rotated loop back edge: the `AddImm` + `Jump` that close a
    /// counted loop, fused with the `JumpIfGe` head they jump to.
    /// `regs[ctr] += imm`; then, if `regs[a] >= regs[b]`, `pc = exit`;
    /// otherwise `ctx.charge(charge)` and `pc = body`. `a`, `b` and
    /// `exit` are the head's. When a `Charge` follows the head, `charge`
    /// is its amount and `body` points past it; otherwise `charge` is
    /// `0.0` (adding it changes no total) and `body` is the instruction
    /// after the head. The head stays in place for the first trip, so
    /// every later trip costs one control dispatch.
    LoopNext {
        /// Counter register updated in place.
        ctr: Reg,
        /// Immediate addend.
        imm: f64,
        /// The head's left comparand, read after the update.
        a: Reg,
        /// The head's right comparand.
        b: Reg,
        /// The head's exit target.
        exit: usize,
        /// Where the next trip continues: just past the head and its
        /// `Charge`.
        body: usize,
        /// The head's `Charge` amount, replayed on every trip (`0.0`
        /// when the head has none).
        charge: f64,
    },
    /// Placeholder left by optimizer rewrites; compaction removes every
    /// `Nop` before a chunk reaches the VM (the VM still executes it as
    /// a no-op for robustness).
    Nop,
}

/// Number of distinct opcodes ([`Instr`] variants). Profiling counter
/// tables are sized to this.
pub const N_OPCODES: usize = 40;

/// Stable lower-snake names for opcode indices, in declaration order
/// (`OPCODE_NAMES[i.opcode_index()]` names instruction `i`).
pub const OPCODE_NAMES: [&str; N_OPCODES] = [
    "const",
    "move",
    "load_slot_num",
    "store_slot_num",
    "copy_slot",
    "load_param",
    "bin",
    "neg",
    "not",
    "test_non_zero",
    "math1",
    "math2",
    "rand",
    "shape",
    "load_idx1",
    "load_idx2",
    "store_idx1",
    "store_idx2",
    "jump",
    "jump_if_zero",
    "jump_if_non_zero",
    "jump_if_ge",
    "add_imm",
    "trunc_pair",
    "charge",
    "while_guard",
    "for_enough_prep",
    "choice",
    "switch",
    "call_host",
    "call_transform",
    "return",
    "depth_guard",
    "bin_ri",
    "bin_ir",
    "jump_cmp",
    "jump_cmp_imm",
    "bin_store_idx1",
    "loop_next",
    "nop",
];

/// Always `false`: no opcode is specialized any more (the checked
/// indexed forms carry the in-bounds fast path themselves). Kept only
/// because the frozen ledger (`ledger/src/layers.rs`) calls it, so its
/// `vm.specialized_instr_share` reads 0.
pub fn opcode_is_specialized(_idx: usize) -> bool {
    false
}

impl Instr {
    /// Dense opcode index in declaration order, `0..N_OPCODES`. Used
    /// by the VM's profiling hooks to index pre-sized counter tables.
    pub fn opcode_index(&self) -> usize {
        match self {
            Instr::Const { .. } => 0,
            Instr::Move { .. } => 1,
            Instr::LoadSlotNum { .. } => 2,
            Instr::StoreSlotNum { .. } => 3,
            Instr::CopySlot { .. } => 4,
            Instr::LoadParam { .. } => 5,
            Instr::Bin { .. } => 6,
            Instr::Neg { .. } => 7,
            Instr::Not { .. } => 8,
            Instr::TestNonZero { .. } => 9,
            Instr::Math1 { .. } => 10,
            Instr::Math2 { .. } => 11,
            Instr::Rand { .. } => 12,
            Instr::Shape { .. } => 13,
            Instr::LoadIdx1 { .. } => 14,
            Instr::LoadIdx2 { .. } => 15,
            Instr::StoreIdx1 { .. } => 16,
            Instr::StoreIdx2 { .. } => 17,
            Instr::Jump { .. } => 18,
            Instr::JumpIfZero { .. } => 19,
            Instr::JumpIfNonZero { .. } => 20,
            Instr::JumpIfGe { .. } => 21,
            Instr::AddImm { .. } => 22,
            Instr::TruncPair { .. } => 23,
            Instr::Charge { .. } => 24,
            Instr::WhileGuard { .. } => 25,
            Instr::ForEnoughPrep { .. } => 26,
            Instr::Choice { .. } => 27,
            Instr::Switch { .. } => 28,
            Instr::CallHost { .. } => 29,
            Instr::CallTransform { .. } => 30,
            Instr::Return => 31,
            Instr::DepthGuard { .. } => 32,
            Instr::BinRI { .. } => 33,
            Instr::BinIR { .. } => 34,
            Instr::JumpCmp { .. } => 35,
            Instr::JumpCmpImm { .. } => 36,
            Instr::BinStoreIdx1 { .. } => 37,
            Instr::LoopNext { .. } => 38,
            Instr::Nop => 39,
        }
    }
}

/// A compiled rule body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Chunk {
    /// `transform::rN` — identifies the rule this chunk compiles, for
    /// profiling attribution (chunks have no other back-pointer).
    pub label: String,
    /// The instructions.
    pub code: Vec<Instr>,
    /// Interned names (tunables, host functions, callees).
    pub names: Vec<String>,
    /// Scalar register count.
    pub n_regs: u16,
    /// `Value` slot count (named locals first, then temporaries).
    pub n_slots: u16,
    /// Slot of each rule *input* binding alias, in declaration order.
    pub input_slots: Vec<Slot>,
    /// Slot of each rule *output* binding alias, in declaration order.
    pub output_slots: Vec<Slot>,
    /// Per binding, inputs then outputs: whether the VM moves the datum
    /// between the data store and the slot instead of cloning it (see
    /// [`crate::vm`]). A missing entry clones.
    pub moves: Vec<bool>,
}

impl Chunk {
    /// A listing of the chunk, one instruction per line with its index
    /// (what jump targets refer to), its loop nesting depth and, where
    /// it carries one, the interned name it resolves; then one line per
    /// innermost loop with what a trip round it costs — what `pb_lint
    /// --disasm` prints.
    pub fn disassemble(&self) -> String {
        let mut out = format!(
            "{}: {} instrs, {} regs, {} slots, in {:?}, out {:?}\n",
            self.label,
            self.code.len(),
            self.n_regs,
            self.n_slots,
            self.input_slots,
            self.output_slots,
        );
        let loops = crate::opt::loops(&self.code);
        for (i, instr) in self.code.iter().enumerate() {
            let depth = loops.iter().filter(|&&(h, s)| h <= i && i <= s).count();
            let name = match instr {
                Instr::LoadParam { name, .. }
                | Instr::ForEnoughPrep { name, .. }
                | Instr::Choice { name, .. }
                | Instr::CallHost { name, .. }
                | Instr::CallTransform { name, .. } => self.names.get(*name as usize),
                _ => None,
            };
            out.push_str(&match name {
                Some(name) => format!("{i:5} {depth:2}  {instr:?}  ; {name}\n"),
                None => format!("{i:5} {depth:2}  {instr:?}\n"),
            });
        }
        for l in crate::opt::innermost_loops(&self.code) {
            out.push_str(&format!(
                "  loop {}..={}: {} instrs, {} dispatched on the shortest trip\n",
                l.head,
                l.last,
                l.last - l.head + 1,
                l.shortest_trip
            ));
        }
        out
    }
}

/// Why a rule has no bytecode. On a program
/// [`crate::sema::check_program`] accepts the only reasons are capacity
/// limits (register, slot or transform-index banks past `u16::MAX`); on
/// one it rejects, the constructs sema would have named.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Human-readable reason, starting with the rule's label.
    pub reason: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not compilable: {}", self.reason)
    }
}

impl std::error::Error for CompileError {}

/// The calling convention of a *scalar helper* transform: one whose
/// inputs are all plain scalars (no dims, no `scaled_by`), with no
/// accuracy variables or intermediates, and exactly one dimensionless
/// output produced by a single rule that reads only declared inputs.
///
/// For such a callee everything the generic call path derives per call
/// — dimension environment (empty), input validation (scalars always
/// pass), the zero-initialized store, the schedule walk, the choice of
/// producing rule — is a constant of the program, which is what lets
/// the `inline` pass ([`crate::opt`]) splice the rule's body into a
/// caller.
#[derive(Debug, Clone, PartialEq)]
pub struct HelperSig {
    /// Index of the single producing rule.
    pub rule_idx: usize,
    /// For each of that rule's input bindings (aligned with its
    /// chunk's `input_slots`), the position of the transform input —
    /// and so of the call argument — that binds it.
    pub arg_for_input: Vec<usize>,
}

/// A compiled transform: one chunk per rule (in rule order).
#[derive(Debug, Clone)]
pub struct CompiledTransform {
    /// The transform's name.
    pub name: String,
    /// The rules' chunks.
    pub rules: Vec<Chunk>,
    /// Inferred [`crate::analysis::ChunkFacts`] per rule, of the chunk
    /// `promote` and `inline` consumed (see [`CompiledProgram::facts`]).
    pub facts: Vec<crate::analysis::ChunkFacts>,
    /// The transform's calling convention, when it is a scalar helper.
    pub helper: Option<HelperSig>,
    /// Whether the facts prove the transform's only, dimensionless
    /// output always comes back a scalar — a rule may assign an array
    /// to it, so the declaration alone does not. `None` until the
    /// `inline` pass needs the answer (a caller references the
    /// transform at `O3`).
    pub scalar_out: Option<bool>,
    /// For a transform with exactly one, dimensionless output: per
    /// rule, the positions in that rule's `output_slots` bound to it.
    pub(crate) sole_scalar_output: Option<Vec<Vec<usize>>>,
    /// Which data each rule binds, with the declared shapes: what
    /// settles the entry state of `facts`.
    pub(crate) bindings: crate::analysis::Bindings,
}

/// All compiled transforms of a program, in declaration order — or,
/// when some rule hit a capacity limit, none of them and the reason
/// ([`CompiledProgram::error`]): a program runs on bytecode whole or
/// not at all.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    transforms: Vec<CompiledTransform>,
    by_name: HashMap<String, usize>,
    inline_skips: Vec<crate::opt::InlineSkip>,
    n_rules: usize,
    error: Option<CompileError>,
}

impl CompiledProgram {
    /// A program without bytecode, and why.
    pub(crate) fn failed(program: &Program, error: CompileError) -> Self {
        CompiledProgram {
            n_rules: program.transforms.iter().map(|t| t.rules.len()).sum(),
            error: Some(error),
            ..CompiledProgram::default()
        }
    }

    /// Why the program has no bytecode, if it has none.
    pub fn error(&self) -> Option<&CompileError> {
        self.error.as_ref()
    }

    /// The chunk for `transform`'s rule `rule_idx`.
    pub fn chunk(&self, transform: &str, rule_idx: usize) -> Option<&Chunk> {
        self.transform(transform)?.rules.get(rule_idx)
    }

    /// The chunks of the transform at position `transform` of
    /// `Program::transforms` (what [`Instr::CallTransform`] carries),
    /// in rule order.
    ///
    /// # Errors
    ///
    /// The reason the program has no bytecode.
    pub(crate) fn chunks_at(&self, transform: usize) -> Result<&[Chunk], &CompileError> {
        match &self.error {
            Some(e) => Err(e),
            None => Ok(&self.transforms[transform].rules),
        }
    }

    /// The compiled form of one transform.
    pub fn transform(&self, name: &str) -> Option<&CompiledTransform> {
        self.transforms.get(*self.by_name.get(name)?)
    }

    /// The inferred facts for `transform`'s rule `rule_idx`. They
    /// describe the chunk `promote` and `inline` consumed (as lowered,
    /// or as inlined at [`crate::opt::OptLevel::O3`]) and
    /// over-approximate the optimized one: every shape a slot of the
    /// optimized chunk takes is covered by its fact here.
    pub fn facts(&self, transform: &str, rule_idx: usize) -> Option<&crate::analysis::ChunkFacts> {
        self.transform(transform)?.facts.get(rule_idx)
    }

    /// Calls to scalar helpers the `inline` pass left on the generic
    /// path, with the reason (empty at [`crate::opt::OptLevel::O0`]).
    pub fn inline_skips(&self) -> &[crate::opt::InlineSkip] {
        &self.inline_skips
    }

    /// Runs the optimizer pipeline ([`crate::opt`]) over every chunk.
    /// Both [`crate::opt::OptLevel`]s are observably identical (and
    /// identical to the tree-walker).
    ///
    /// # Panics
    ///
    /// On a verifier violation (under `PB_VERIFY=1` or in debug
    /// builds), naming the pass that introduced it.
    #[must_use]
    pub fn optimized(self, level: crate::opt::OptLevel) -> Self {
        match self.try_optimized(level, crate::opt::verify_enabled()) {
            Ok(program) => program,
            Err(v) => panic!("optimizer bug: {v}"),
        }
    }

    /// [`CompiledProgram::optimized`] with explicit control over
    /// pass-by-pass verification.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::opt::PassViolation`] for the first pass
    /// whose output fails verification.
    pub fn try_optimized(
        mut self,
        level: crate::opt::OptLevel,
        verify: bool,
    ) -> Result<Self, crate::opt::PassViolation> {
        if level == crate::opt::OptLevel::O0 {
            return Ok(self);
        }
        self.inline_calls(verify)?;
        for t in &mut self.transforms {
            for (chunk, facts) in t.rules.iter_mut().zip(&t.facts) {
                // The stored entry state lets `promote` move scalar rule
                // bindings into registers.
                *chunk = crate::opt::optimize(chunk, level, verify, Some(&facts.entry_slots))?;
            }
        }
        Ok(self)
    }

    /// Runs the `inline` pass alone — the first thing
    /// [`CompiledProgram::try_optimized`] does at `O3`.
    ///
    /// # Errors
    ///
    /// With `verify` on, the first violation, under pass name `inline`.
    pub fn inline_calls(&mut self, verify: bool) -> Result<(), crate::opt::PassViolation> {
        self.inline_skips = crate::opt::inline_program(&mut self.transforms, verify)?;
        Ok(())
    }

    /// `(compiled, total)` rule counts across the program: `(n, n)`, or
    /// `(0, n)` for a program without bytecode.
    pub fn coverage(&self) -> (usize, usize) {
        let compiled = self.transforms.iter().map(|t| t.rules.len()).sum();
        (compiled, self.n_rules)
    }
}

/// Lowers every rule of every transform. `program` must have passed
/// [`crate::sema::check_program`]: on one that has not, a rule sema
/// would reject comes back as the [`CompiledProgram::error`] where
/// lowering notices, and a read of a name bound on only some paths
/// lowers as a tunable read.
pub fn compile_program(program: &Program) -> CompiledProgram {
    let mut compiled = CompiledProgram::default();
    for (i, t) in program.transforms.iter().enumerate() {
        let lowered: Result<Vec<Chunk>, CompileError> = t
            .rules
            .iter()
            .map(|rule| compile_rule(program, t, rule))
            .collect();
        let rules = match lowered {
            Ok(rules) => rules,
            Err(e) => return CompiledProgram::failed(program, e),
        };
        compiled.n_rules += rules.len();
        let bindings = crate::analysis::Bindings::of(t);
        let facts = crate::analysis::transform_facts(&bindings, &rules);
        let sole_scalar_output = match t.outputs.as_slice() {
            [out] if out.dims.is_empty() => Some(
                t.rules
                    .iter()
                    .map(|rule| {
                        let bound = rule.outputs.iter().enumerate();
                        bound
                            .filter(|(_, b)| b.data == out.name)
                            .map(|(p, _)| p)
                            .collect()
                    })
                    .collect(),
            ),
            _ => None,
        };
        // Like `Program::transform`, the first of a duplicated name wins.
        compiled.by_name.entry(t.name.clone()).or_insert(i);
        compiled.transforms.push(CompiledTransform {
            name: t.name.clone(),
            helper: helper_sig(t, &rules),
            rules,
            facts,
            bindings,
            scalar_out: None,
            sole_scalar_output,
        });
    }
    compiled
}

/// Qualifies `t` as a scalar helper (see [`HelperSig`]). The
/// conditions mirror exactly what a spliced body skips of the generic
/// call path: every per-call derivation in `run_prefixed` must be a
/// program constant for the callee.
fn helper_sig(t: &Transform, rules: &[Chunk]) -> Option<HelperSig> {
    // All inputs plain scalars: no dimension environment to build, no
    // `scaled_by` resampling, validation always passes. No accuracy
    // variables (their `ctx.param` reads would be skipped) and exactly
    // one scalar output, no intermediates, so the store is one zero
    // scalar.
    let [out] = t.outputs.as_slice() else {
        return None;
    };
    if t.inputs
        .iter()
        .any(|p| !p.dims.is_empty() || p.scaled_by.is_some())
        || !t.accuracy_variables.is_empty()
        || !t.intermediates.is_empty()
        || !out.dims.is_empty()
    {
        return None;
    }
    // Schedule trivial: the one output, produced by a single rule (no
    // `ctx.choice` resolution).
    let graph = crate::cdg::ChoiceDependencyGraph::build(t);
    let order = graph.schedule().ok()?;
    if order.len() != 1 || order[0] != out.name {
        return None;
    }
    let &[rule_idx] = graph.producers(&order[0]) else {
        return None;
    };
    let rule = &t.rules[rule_idx];
    // The rule writes exactly the output.
    let chunk = &rules[rule_idx];
    if rule.outputs.len() != 1
        || rule.outputs[0].data != out.name
        || chunk.output_slots.len() != 1
        || chunk.input_slots.len() != rule.inputs.len()
    {
        return None;
    }
    // Each rule input binding maps to the call argument that supplies
    // it; a binding that reads anything but a declared input (e.g. the
    // zero-initialized output) leaves the generic path in charge.
    let arg_for_input = rule
        .inputs
        .iter()
        .map(|b| t.inputs.iter().position(|p| p.name == b.data))
        .collect::<Option<Vec<usize>>>()?;
    Some(HelperSig {
        rule_idx,
        arg_for_input,
    })
}

/// Lowers a single rule body (of a checked program, see
/// [`compile_program`]).
///
/// # Errors
///
/// [`CompileError`]: the body needs more registers, slots or transform
/// indices than the banks hold.
pub fn compile_rule(
    program: &Program,
    transform: &Transform,
    rule: &Rule,
) -> Result<Chunk, CompileError> {
    let rule_idx = transform.rules.iter().position(|r| std::ptr::eq(r, rule));
    let label = match rule_idx {
        Some(i) => format!("{}::r{i}", transform.name),
        None => format!("{}::r?", transform.name),
    };
    Compiler::new(program, transform, rule)
        .compile(rule, label.clone())
        .map_err(|e| CompileError {
            reason: format!("`{label}`: {}", e.reason),
        })
}

fn bail<T>(reason: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        reason: reason.into(),
    })
}

/// A construct [`crate::sema::check_program`] rejects: unreachable from
/// a checked program.
fn unchecked<T>(what: impl fmt::Display) -> Result<T, CompileError> {
    bail(format!("{what} (`check_program` rejects this program)"))
}

struct Compiler<'a> {
    program: &'a Program,
    transform: &'a Transform,
    code: Vec<Instr>,
    names: Vec<String>,
    name_idx: HashMap<String, NameIdx>,
    slots: HashMap<String, Slot>,
    /// Number of named slots; only these can be mutated by host calls
    /// (temporaries above them are write-once).
    named_slots: u16,
    /// Value-temporary stack pointer (starts just past the named
    /// slots).
    temp_top: u16,
    temp_max: u16,
    /// Scalar-register stack pointer.
    reg_top: u16,
    reg_max: u16,
    /// Names bound on every path to the current program point: reads
    /// of these are slot reads, plain reads of anything else tunable
    /// reads (sema has rejected the reads in between).
    assigned: HashSet<String>,
}

impl<'a> Compiler<'a> {
    fn new(program: &'a Program, transform: &'a Transform, rule: &'a Rule) -> Self {
        // Pre-pass: allocate one slot per name the rule ever binds.
        let order = named_slots(rule);
        let named_slots = order.len() as u16;
        let slots = (order.into_iter().zip(0..)).collect();

        // Aliases are bound before the body runs.
        let assigned: HashSet<String> = rule
            .inputs
            .iter()
            .chain(&rule.outputs)
            .map(|b| b.alias.clone())
            .collect();

        Compiler {
            program,
            transform,
            code: Vec::new(),
            names: Vec::new(),
            name_idx: HashMap::new(),
            slots,
            named_slots,
            temp_top: named_slots,
            temp_max: named_slots,
            reg_top: 0,
            reg_max: 0,
            assigned,
        }
    }

    fn compile(mut self, rule: &Rule, label: String) -> Result<Chunk, CompileError> {
        self.block(&rule.body)?;
        let input_slots: Vec<Slot> = rule.inputs.iter().map(|b| self.slots[&b.alias]).collect();
        let output_slots: Vec<Slot> = rule.outputs.iter().map(|b| self.slots[&b.alias]).collect();
        // An input moves when no other binding names its datum or
        // shares its slot and nothing writes that slot; an output when
        // no other output names its datum (inputs bind first, so any
        // that shares it has taken its copy).
        let bindings = || rule.inputs.iter().chain(&rule.outputs);
        let slots = || input_slots.iter().chain(&output_slots);
        let written = crate::opt::written_slots(&self.code, self.temp_max);
        let inputs = rule.inputs.iter().zip(&input_slots).map(|(b, &s)| {
            bindings().filter(|o| o.data == b.data).count() == 1
                && slots().filter(|&&o| o == s).count() == 1
                && !written[s as usize]
        });
        let outputs = (rule.outputs.iter())
            .map(|b| rule.outputs.iter().filter(|o| o.data == b.data).count() == 1);
        let moves = inputs.chain(outputs).collect();
        Ok(Chunk {
            label,
            code: self.code,
            names: self.names,
            n_regs: self.reg_max,
            n_slots: self.temp_max,
            input_slots,
            output_slots,
            moves,
        })
    }

    // ---- machine-state helpers -------------------------------------

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    fn patch(&mut self, at: usize, target: usize) {
        match &mut self.code[at] {
            Instr::Jump { target: t }
            | Instr::JumpIfZero { target: t, .. }
            | Instr::JumpIfNonZero { target: t, .. }
            | Instr::JumpIfGe { target: t, .. } => *t = target,
            other => panic!("patching a non-jump instruction {other:?}"),
        }
    }

    fn intern(&mut self, name: &str) -> NameIdx {
        if let Some(&i) = self.name_idx.get(name) {
            return i;
        }
        let i = self.names.len() as NameIdx;
        self.names.push(name.to_owned());
        self.name_idx.insert(name.to_owned(), i);
        i
    }

    fn alloc_reg(&mut self) -> Result<Reg, CompileError> {
        if self.reg_top == u16::MAX {
            return bail("register bank exhausted");
        }
        let r = self.reg_top;
        self.reg_top += 1;
        self.reg_max = self.reg_max.max(self.reg_top);
        Ok(r)
    }

    fn alloc_temp(&mut self) -> Result<Slot, CompileError> {
        if self.temp_top == u16::MAX {
            return bail("slot bank exhausted");
        }
        let s = self.temp_top;
        self.temp_top += 1;
        self.temp_max = self.temp_max.max(self.temp_top);
        Ok(s)
    }

    // ---- statements ------------------------------------------------

    fn block(&mut self, block: &Block) -> Result<(), CompileError> {
        for stmt in &block.stmts {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        // The interpreter charges one unit per executed statement.
        self.emit(Instr::Charge { amount: 1.0 });
        match stmt {
            Stmt::Let { name, value, .. }
            | Stmt::Assign {
                target: LValue::Var(name),
                value,
                ..
            } => {
                let save = (self.reg_top, self.temp_top);
                let src = self.expr_value(value)?;
                let slot = self.slots[name];
                match src {
                    Operand::Reg(r) => {
                        self.emit(Instr::StoreSlotNum { slot, src: r });
                    }
                    Operand::Slot(s) => {
                        self.emit(Instr::CopySlot { dst: slot, src: s });
                    }
                }
                (self.reg_top, self.temp_top) = save;
                self.assigned.insert(name.clone());
                Ok(())
            }
            Stmt::Assign {
                target: LValue::Index { name, indices },
                value,
                ..
            } => {
                let slot = self.read_slot(name)?;
                let save = (self.reg_top, self.temp_top);
                // Interpreter order: value first, then the indices.
                let src = self.expr_scalar(value)?;
                let idx: Vec<Reg> = indices
                    .iter()
                    .map(|e| self.expr_scalar(e))
                    .collect::<Result<_, _>>()?;
                match idx.as_slice() {
                    [i] => self.emit(Instr::StoreIdx1 { slot, idx: *i, src }),
                    [i, j] => self.emit(Instr::StoreIdx2 {
                        slot,
                        i: *i,
                        j: *j,
                        src,
                    }),
                    _ => return unchecked("index arity beyond 2-D"),
                };
                (self.reg_top, self.temp_top) = save;
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                let save = (self.reg_top, self.temp_top);
                let c = self.expr_scalar(cond)?;
                (self.reg_top, self.temp_top) = save;
                let jz = self.emit(Instr::JumpIfZero { cond: c, target: 0 });

                let before = self.assigned.clone();
                self.block(then_block)?;
                let after_then = std::mem::replace(&mut self.assigned, before);

                if let Some(else_block) = else_block {
                    let jend = self.emit(Instr::Jump { target: 0 });
                    let else_at = self.here();
                    self.patch(jz, else_at);
                    self.block(else_block)?;
                    let end = self.here();
                    self.patch(jend, end);
                    // Bound in both arms: bound (an arm only adds).
                    self.assigned.retain(|name| after_then.contains(name));
                } else {
                    let end = self.here();
                    self.patch(jz, end);
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let save = (self.reg_top, self.temp_top);
                let guard = self.alloc_reg()?;
                self.emit(Instr::Const {
                    dst: guard,
                    val: 0.0,
                });
                let head = self.here();
                let csave = (self.reg_top, self.temp_top);
                let c = self.expr_scalar(cond)?;
                (self.reg_top, self.temp_top) = csave;
                let jz = self.emit(Instr::JumpIfZero { cond: c, target: 0 });
                let before = self.assigned.clone();
                self.block(body)?;
                // The body may run zero times.
                self.assigned = before;
                self.emit(Instr::WhileGuard { counter: guard });
                self.emit(Instr::Jump { target: head });
                let end = self.here();
                self.patch(jz, end);
                (self.reg_top, self.temp_top) = save;
                Ok(())
            }
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                let save = (self.reg_top, self.temp_top);
                let r_lo = {
                    let s = (self.reg_top, self.temp_top);
                    let r = self.expr_scalar(lo)?;
                    (self.reg_top, self.temp_top) = s;
                    let pin = self.alloc_reg()?;
                    self.emit(Instr::Move { dst: pin, src: r });
                    pin
                };
                let r_hi = {
                    let s = (self.reg_top, self.temp_top);
                    let r = self.expr_scalar(hi)?;
                    (self.reg_top, self.temp_top) = s;
                    let pin = self.alloc_reg()?;
                    self.emit(Instr::Move { dst: pin, src: r });
                    pin
                };
                self.emit(Instr::TruncPair { a: r_lo, b: r_hi });
                let var_slot = self.slots[var];
                // The loop variable is definitely bound inside the body.
                let var_was_definite = self.assigned.contains(var);
                self.assigned.insert(var.clone());
                self.counted_loop(r_lo, r_hi, Some(var_slot), body)?;
                (self.reg_top, self.temp_top) = save;
                if !var_was_definite {
                    // An empty range never binds the variable.
                    self.assigned.remove(var);
                }
                Ok(())
            }
            Stmt::ForEnough { id, body, .. } => {
                let name = self.intern(&format!("for_enough_{id}"));
                let save = (self.reg_top, self.temp_top);
                let iters = self.alloc_reg()?;
                self.emit(Instr::ForEnoughPrep { dst: iters, name });
                let counter = self.alloc_reg()?;
                self.emit(Instr::Const {
                    dst: counter,
                    val: 0.0,
                });
                self.counted_loop(counter, iters, None, body)?;
                (self.reg_top, self.temp_top) = save;
                Ok(())
            }
            Stmt::Either { id, branches, .. } => {
                let switch_at = self.choice(*id, branches.len())?;
                let before = std::mem::take(&mut self.assigned);
                let mut targets = Vec::with_capacity(branches.len());
                let mut end_jumps = Vec::with_capacity(branches.len());
                // Bound in every branch: bound.
                let mut everywhere: Option<HashSet<String>> = None;
                for branch in branches {
                    targets.push(self.here());
                    self.assigned = before.clone();
                    self.block(branch)?;
                    let after = std::mem::take(&mut self.assigned);
                    everywhere = Some(match everywhere {
                        Some(mut so_far) => {
                            so_far.retain(|name| after.contains(name));
                            so_far
                        }
                        None => after,
                    });
                    end_jumps.push(self.emit(Instr::Jump { target: 0 }));
                }
                let end = self.here();
                for j in end_jumps {
                    self.patch(j, end);
                }
                self.switch_to(switch_at, targets);
                self.assigned = everywhere.unwrap_or(before);
                Ok(())
            }
            // Same as the interpreter: verification is disabled during
            // tuning; the checked path lives in `pb_runtime::guarantee`.
            Stmt::VerifyAccuracy { .. } => Ok(()),
            // The interpreter ignores any `return` value expression.
            Stmt::Return { .. } => {
                self.emit(Instr::Return);
                Ok(())
            }
            Stmt::Expr { expr, .. } => {
                let save = (self.reg_top, self.temp_top);
                self.expr_value(expr)?;
                (self.reg_top, self.temp_top) = save;
                Ok(())
            }
        }
    }

    /// A counted loop: `counter` counts up to `bound`, stored to `var`
    /// (the `for` variable) at the top of every trip.
    ///
    /// A body that is exactly one `either` lowers *unswitched*: the
    /// choice cannot change within one invocation, so after the
    /// zero-trip check one `Choice`+`Switch` picks a copy of the loop
    /// per branch — head check, variable store, the `either`'s own
    /// charge, the branch, increment and back edge. A loop that runs no
    /// trip never resolves the choice, like the tree-walker.
    fn counted_loop(
        &mut self,
        counter: Reg,
        bound: Reg,
        var: Option<Slot>,
        body: &Block,
    ) -> Result<(), CompileError> {
        let head_check = Instr::JumpIfGe {
            a: counter,
            b: bound,
            target: 0,
        };
        let mut exits = Vec::new();
        let (switch_at, arms) = match body.stmts.as_slice() {
            [Stmt::Either { id, branches, .. }] => {
                exits.push(self.emit(head_check.clone()));
                (
                    Some(self.choice(*id, branches.len())?),
                    branches.iter().collect(),
                )
            }
            _ => (None, vec![body]),
        };
        let before = self.assigned.clone();
        let mut heads = Vec::with_capacity(arms.len());
        for arm in arms {
            let head = self.here();
            heads.push(head);
            exits.push(self.emit(head_check.clone()));
            if let Some(slot) = var {
                self.emit(Instr::StoreSlotNum { slot, src: counter });
            }
            if switch_at.is_some() {
                self.emit(Instr::Charge { amount: 1.0 });
            }
            self.block(arm)?;
            // The body may run zero times.
            self.assigned = before.clone();
            self.emit(Instr::AddImm {
                dst: counter,
                imm: 1.0,
            });
            self.emit(Instr::Jump { target: head });
        }
        let end = self.here();
        for j in exits {
            self.patch(j, end);
        }
        if let Some(at) = switch_at {
            self.switch_to(at, heads);
        }
        Ok(())
    }

    /// Emits `either_<id>`'s `Choice` and a `Switch` on it, returning
    /// the `Switch`'s index for [`Compiler::switch_to`].
    fn choice(&mut self, id: usize, branches: usize) -> Result<usize, CompileError> {
        let name = self.intern(&format!("either_{id}"));
        let save = (self.reg_top, self.temp_top);
        let pick = self.alloc_reg()?;
        self.emit(Instr::Choice {
            dst: pick,
            name,
            branches: branches as u16,
        });
        let at = self.emit(Instr::Switch {
            src: pick,
            targets: Vec::new(),
        });
        (self.reg_top, self.temp_top) = save;
        Ok(at)
    }

    fn switch_to(&mut self, at: usize, targets: Vec<usize>) {
        if let Instr::Switch { targets: t, .. } = &mut self.code[at] {
            *t = targets;
        }
    }

    /// Resolves a name that must denote a bound local (array ops).
    fn read_slot(&mut self, name: &str) -> Result<Slot, CompileError> {
        if self.assigned.contains(name) {
            Ok(self.slots[name])
        } else {
            unchecked(format_args!("`{name}` is not a bound local here"))
        }
    }

    // ---- expressions -----------------------------------------------

    fn expr_scalar(&mut self, expr: &Expr) -> Result<Reg, CompileError> {
        match expr {
            Expr::Number(v, _) => {
                let dst = self.alloc_reg()?;
                self.emit(Instr::Const { dst, val: *v });
                Ok(dst)
            }
            Expr::Var(name, _) => {
                let dst = self.alloc_reg()?;
                if self.assigned.contains(name) {
                    let slot = self.slots[name];
                    self.emit(Instr::LoadSlotNum { dst, slot });
                } else {
                    // The interpreter's fallback: a prefixed tunable.
                    let idx = self.intern(name);
                    self.emit(Instr::LoadParam { dst, name: idx });
                }
                Ok(dst)
            }
            Expr::Index { name, indices, .. } => {
                let slot = self.read_slot(name)?;
                let save = self.reg_top;
                let idx: Vec<Reg> = indices
                    .iter()
                    .map(|e| self.expr_scalar(e))
                    .collect::<Result<_, _>>()?;
                self.reg_top = save;
                let dst = self.alloc_reg()?;
                match idx.as_slice() {
                    [i] => self.emit(Instr::LoadIdx1 { dst, slot, idx: *i }),
                    [i, j] => self.emit(Instr::LoadIdx2 {
                        dst,
                        slot,
                        i: *i,
                        j: *j,
                    }),
                    _ => return unchecked("index arity beyond 2-D"),
                };
                Ok(dst)
            }
            Expr::Unary { op, operand, .. } => {
                let save = self.reg_top;
                let src = self.expr_scalar(operand)?;
                self.reg_top = save;
                let dst = self.alloc_reg()?;
                match op {
                    UnOp::Neg => self.emit(Instr::Neg { dst, src }),
                    UnOp::Not => self.emit(Instr::Not { dst, src }),
                };
                Ok(dst)
            }
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
                ..
            } => {
                // Short-circuit, preserving the interpreter's RNG and
                // side-effect order exactly.
                let save = self.reg_top;
                let a = self.expr_scalar(lhs)?;
                self.reg_top = save;
                let dst = self.alloc_reg()?;
                let skip = match op {
                    BinOp::And => self.emit(Instr::JumpIfZero { cond: a, target: 0 }),
                    _ => self.emit(Instr::JumpIfNonZero { cond: a, target: 0 }),
                };
                let save2 = self.reg_top;
                let b = self.expr_scalar(rhs)?;
                self.reg_top = save2;
                self.emit(Instr::TestNonZero { dst, src: b });
                let jend = self.emit(Instr::Jump { target: 0 });
                let short = self.here();
                self.patch(skip, short);
                self.emit(Instr::Const {
                    dst,
                    val: if *op == BinOp::And { 0.0 } else { 1.0 },
                });
                let end = self.here();
                self.patch(jend, end);
                Ok(dst)
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let save = self.reg_top;
                let a = self.expr_scalar(lhs)?;
                let b = self.expr_scalar(rhs)?;
                self.reg_top = save;
                let dst = self.alloc_reg()?;
                self.emit(Instr::Bin { op: *op, dst, a, b });
                Ok(dst)
            }
            Expr::Call { .. } => match self.call(expr)? {
                Operand::Reg(r) => Ok(r),
                Operand::Slot(s) => {
                    let dst = self.alloc_reg()?;
                    self.emit(Instr::LoadSlotNum { dst, slot: s });
                    Ok(dst)
                }
            },
        }
    }

    fn expr_value(&mut self, expr: &Expr) -> Result<Operand, CompileError> {
        match expr {
            Expr::Var(name, _) if self.assigned.contains(name) => {
                Ok(Operand::Slot(self.slots[name]))
            }
            Expr::Call { .. } => self.call(expr),
            other => Ok(Operand::Reg(self.expr_scalar(other)?)),
        }
    }

    /// Call instructions read their slot operands when they execute,
    /// but the interpreter captures each argument *value* at its
    /// evaluation point. Those differ only when a later argument's
    /// code mutates a named slot (a nested host call). In that case,
    /// snapshot the slot into a write-once temporary here, at the
    /// evaluation point.
    fn snapshot_if_mutable_later(
        &mut self,
        op: Operand,
        later: &[Expr],
        also: &[Expr],
    ) -> Result<Operand, CompileError> {
        let Operand::Slot(s) = op else {
            return Ok(op);
        };
        if s >= self.named_slots {
            // Temporaries are write-once; no later code can change them.
            return Ok(op);
        }
        let vulnerable = later
            .iter()
            .chain(also)
            .any(|e| self.contains_mutating_call(e));
        if !vulnerable {
            return Ok(op);
        }
        let snap = self.alloc_temp()?;
        self.emit(Instr::CopySlot { dst: snap, src: s });
        Ok(Operand::Slot(snap))
    }

    /// Whether evaluating `expr` can mutate a named slot — i.e. it
    /// contains a host call anywhere (builtins are pure; sub-transform
    /// calls cannot touch the caller's scope).
    fn contains_mutating_call(&self, expr: &Expr) -> bool {
        let mut found = false;
        expr.for_each(&mut |e| {
            if let Expr::Call { name, .. } = e {
                let builtin = crate::sema::builtin_arity(name).is_some();
                let sub_transform =
                    self.program.transform(name).is_some() && *name != self.transform.name;
                found |= !builtin && !sub_transform;
            }
        });
        found
    }

    fn call(&mut self, expr: &Expr) -> Result<Operand, CompileError> {
        let Expr::Call { name, args, .. } = expr else {
            unreachable!("call() only receives Expr::Call");
        };

        // Builtins first, like the interpreter.
        let math1 = match name.as_str() {
            "sqrt" => Some(MathFn1::Sqrt),
            "abs" => Some(MathFn1::Abs),
            "floor" => Some(MathFn1::Floor),
            "ceil" => Some(MathFn1::Ceil),
            "exp" => Some(MathFn1::Exp),
            "log" => Some(MathFn1::Log),
            _ => None,
        };
        if crate::sema::builtin_arity(name).is_some_and(|arity| args.len() != arity) {
            return unchecked(format_args!("`{name}` with {} arguments", args.len()));
        }
        if let Some(f) = math1 {
            let save = self.reg_top;
            let src = self.expr_scalar(&args[0])?;
            self.reg_top = save;
            let dst = self.alloc_reg()?;
            self.emit(Instr::Math1 { f, dst, src });
            return Ok(Operand::Reg(dst));
        }
        let math2 = match name.as_str() {
            "min" => Some(MathFn2::Min),
            "max" => Some(MathFn2::Max),
            "pow" => Some(MathFn2::Pow),
            _ => None,
        };
        if let Some(f) = math2 {
            let save = self.reg_top;
            let a = self.expr_scalar(&args[0])?;
            let b = self.expr_scalar(&args[1])?;
            self.reg_top = save;
            let dst = self.alloc_reg()?;
            self.emit(Instr::Math2 { f, dst, a, b });
            return Ok(Operand::Reg(dst));
        }
        if name == "rand" {
            let save = self.reg_top;
            let lo = self.expr_scalar(&args[0])?;
            let hi = self.expr_scalar(&args[1])?;
            self.reg_top = save;
            let dst = self.alloc_reg()?;
            self.emit(Instr::Rand { dst, lo, hi });
            return Ok(Operand::Reg(dst));
        }
        if let Some(kind) = match name.as_str() {
            "len" => Some(ShapeKind::Len),
            "rows" => Some(ShapeKind::Rows),
            "cols" => Some(ShapeKind::Cols),
            _ => None,
        } {
            let Some(Expr::Var(arg, _)) = args.first() else {
                return unchecked(format_args!("`{name}` of a non-variable expression"));
            };
            let slot = self.read_slot(arg)?;
            let dst = self.alloc_reg()?;
            self.emit(Instr::Shape { kind, dst, slot });
            return Ok(Operand::Reg(dst));
        }

        // Sub-transform call.
        if self.program.transform(name).is_some() && *name != self.transform.name {
            let callee = self.program.transform(name).expect("looked up above");
            if callee.outputs.len() != 1 || args.len() != callee.inputs.len() {
                return unchecked(format_args!(
                    "call of `{name}` does not fit its declaration"
                ));
            }
            let save = (self.reg_top, self.temp_top);
            let mut ops = Vec::with_capacity(args.len());
            for (i, a) in args.iter().enumerate() {
                let op = self.expr_value(a)?;
                ops.push(self.snapshot_if_mutable_later(op, &args[i + 1..], &[])?);
            }
            (self.reg_top, self.temp_top) = save;
            let dst = self.alloc_temp()?;
            let callee = self
                .program
                .transforms
                .iter()
                .position(|t| t.name == *name)
                .and_then(|i| u16::try_from(i).ok());
            let Some(callee) = callee else {
                return bail(format!("callee `{name}` is past the transform-index range"));
            };
            let name = self.intern(name);
            self.emit(Instr::CallTransform {
                name,
                callee,
                args: ops,
                dst,
                scalar: false,
            });
            return Ok(Operand::Slot(dst));
        }

        // Host function (resolved by name at run time, so functions
        // registered after compilation still work — and unknown names
        // fail with the interpreter's error).
        if args.is_empty() {
            return unchecked(format_args!("host call `{name}` without arguments"));
        }
        let save = (self.reg_top, self.temp_top);
        // Interpreter order: rest arguments first, then the first.
        // (The first argument of a Var-named host call is cloned at
        // invocation time by the interpreter too, so only the rest
        // arguments need evaluation-point snapshots.)
        let anon_first: &[Expr] = match &args[0] {
            Expr::Var(..) => &[],
            other => std::slice::from_ref(other),
        };
        let mut rest = Vec::with_capacity(args.len() - 1);
        for (i, a) in args[1..].iter().enumerate() {
            let op = self.expr_value(a)?;
            rest.push(self.snapshot_if_mutable_later(op, &args[i + 2..], anon_first)?);
        }
        let first = match &args[0] {
            Expr::Var(n, _) => FirstArg::Var(self.read_slot(n)?),
            other => FirstArg::Anon(self.expr_value(other)?),
        };
        (self.reg_top, self.temp_top) = save;
        let dst = self.alloc_temp()?;
        let name = self.intern(name);
        self.emit(Instr::CallHost {
            name,
            first,
            rest,
            dst,
        });
        Ok(Operand::Slot(dst))
    }
}

/// The names a rule ever binds, indexed by the slot lowering gives each
/// (a stable order: aliases first, then body-locals as found) — the
/// slots above them are temporaries.
pub(crate) fn named_slots(rule: &Rule) -> Vec<String> {
    let mut order: Vec<String> = Vec::new();
    let mut note = |name: &str| {
        if !order.iter().any(|n| n == name) {
            order.push(name.to_owned());
        }
    };
    for b in rule.inputs.iter().chain(&rule.outputs) {
        note(&b.alias);
    }
    let body = &rule.body;
    body.for_each_stmt(&mut |stmt| stmt.bound_name().into_iter().for_each(&mut note));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile_first_rule(src: &str) -> Result<Chunk, CompileError> {
        let program = parse_program(src).unwrap();
        let t = &program.transforms[0];
        compile_rule(&program, t, &t.rules[0])
    }

    fn chunk(src: &str) -> Chunk {
        compile_first_rule(src).expect("rule should compile")
    }

    fn has(chunk: &Chunk, pred: impl Fn(&Instr) -> bool) -> bool {
        chunk.code.iter().any(pred)
    }

    #[test]
    fn lowers_let_assign_and_arithmetic() {
        let c = chunk(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    let x = 1 + 2 * a[0];
                    o[0] = x - 3;
                }
            }"#,
        );
        assert!(has(&c, |i| matches!(i, Instr::LoadIdx1 { .. })));
        assert!(has(&c, |i| matches!(i, Instr::Bin { op: BinOp::Mul, .. })));
        assert!(has(&c, |i| matches!(i, Instr::StoreSlotNum { .. })));
        assert!(has(&c, |i| matches!(i, Instr::StoreIdx1 { .. })));
        // One charge per statement.
        assert_eq!(
            c.code
                .iter()
                .filter(|i| matches!(i, Instr::Charge { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn lowers_2d_indexing() {
        let c = chunk(
            r#"transform t from M[r, c] to Out[r, c] {
                to (Out o) from (M m) { o[1, 2] = m[0, 1]; }
            }"#,
        );
        assert!(has(&c, |i| matches!(i, Instr::LoadIdx2 { .. })));
        assert!(has(&c, |i| matches!(i, Instr::StoreIdx2 { .. })));
    }

    #[test]
    fn lowers_control_flow() {
        let c = chunk(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    for (i in 0 .. len(a)) {
                        if (a[i] > 0) { o[i] = 1; } else { o[i] = 0 - 1; }
                    }
                    let j = 0;
                    while (j < len(a)) { j = j + 1; }
                }
            }"#,
        );
        assert!(has(&c, |i| matches!(i, Instr::TruncPair { .. })));
        assert!(has(&c, |i| matches!(i, Instr::JumpIfGe { .. })));
        assert!(has(&c, |i| matches!(i, Instr::JumpIfZero { .. })));
        assert!(has(&c, |i| matches!(i, Instr::WhileGuard { .. })));
        assert!(has(&c, |i| matches!(
            i,
            Instr::Shape {
                kind: ShapeKind::Len,
                ..
            }
        )));
    }

    #[test]
    fn lowers_choice_sites_and_accuracy_loops() {
        let c = chunk(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    for_enough { either { o[0] = 1; } or { o[0] = 2; } }
                }
            }"#,
        );
        assert!(has(&c, |i| matches!(i, Instr::ForEnoughPrep { .. })));
        assert!(has(&c, |i| matches!(i, Instr::Choice { branches: 2, .. })));
        assert!(has(&c, |i| matches!(i, Instr::Switch { .. })));
        assert!(c.names.iter().any(|n| n == "for_enough_0"));
        assert!(c.names.iter().any(|n| n == "either_0"));
        // The body is one `either`: unswitched, the `Choice` sits behind
        // the zero-trip check and outside both loops, and each target is
        // a loop head of its own.
        let choice = c
            .code
            .iter()
            .position(|i| matches!(i, Instr::Choice { .. }))
            .unwrap();
        assert!(matches!(c.code[choice - 1], Instr::JumpIfGe { .. }));
        let Instr::Switch { targets, .. } = &c.code[choice + 1] else {
            panic!("{:?}", c.code);
        };
        let heads: Vec<usize> = crate::opt::loops(&c.code).iter().map(|l| l.0).collect();
        assert_eq!(*targets, heads);
        assert!(targets
            .iter()
            .all(|&t| matches!(c.code[t], Instr::JumpIfGe { .. })));
    }

    #[test]
    fn lowers_builtins_and_rand() {
        let c = chunk(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    o[0] = sqrt(abs(a[0])) + min(a[1], 2) + pow(2, 3);
                    o[1] = rand(0, 10);
                }
            }"#,
        );
        assert!(has(&c, |i| matches!(
            i,
            Instr::Math1 {
                f: MathFn1::Sqrt,
                ..
            }
        )));
        assert!(has(&c, |i| matches!(
            i,
            Instr::Math1 {
                f: MathFn1::Abs,
                ..
            }
        )));
        assert!(has(&c, |i| matches!(
            i,
            Instr::Math2 {
                f: MathFn2::Min,
                ..
            }
        )));
        assert!(has(&c, |i| matches!(
            i,
            Instr::Math2 {
                f: MathFn2::Pow,
                ..
            }
        )));
        assert!(has(&c, |i| matches!(i, Instr::Rand { .. })));
    }

    #[test]
    fn lowers_short_circuit_logic_to_jumps() {
        let c = chunk(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    o[0] = a[0] > 0 && a[1] > 0;
                    o[1] = a[0] > 0 || a[1] > 0;
                }
            }"#,
        );
        // No Bin And/Or: both compile to jump structures.
        assert!(!has(&c, |i| matches!(
            i,
            Instr::Bin {
                op: BinOp::And | BinOp::Or,
                ..
            }
        )));
        assert!(has(&c, |i| matches!(i, Instr::JumpIfNonZero { .. })));
        assert!(has(&c, |i| matches!(i, Instr::TestNonZero { .. })));
    }

    #[test]
    fn lowers_host_and_sub_transform_calls() {
        let src = r#"
            transform outer from In[n] to Out[n] {
                to (Out o) from (In a) {
                    Fill(o, 1);
                    o[0] = inner(a) + 1;
                }
            }
            transform inner from X[n] to R {
                to (R r) from (X x) { r = x[0]; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let t = program.transform("outer").unwrap();
        let c = compile_rule(&program, t, &t.rules[0]).unwrap();
        assert!(has(&c, |i| matches!(
            i,
            Instr::CallHost {
                first: FirstArg::Var(_),
                ..
            }
        )));
        assert!(has(&c, |i| matches!(i, Instr::CallTransform { .. })));
        assert!(c.names.iter().any(|n| n == "Fill"));
        assert!(c.names.iter().any(|n| n == "inner"));
    }

    #[test]
    fn lowers_accuracy_variable_reads_to_param_loads() {
        let c = chunk(
            r#"transform t accuracy_variable k 1 64 from In[n] to Out[n] {
                to (Out o) from (In a) { o[0] = k; }
            }"#,
        );
        assert!(has(&c, |i| matches!(i, Instr::LoadParam { .. })));
        assert!(c.names.iter().any(|n| n == "k"));
    }

    #[test]
    fn lowers_return_and_verify_accuracy() {
        let c = chunk(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    verify_accuracy;
                    return;
                    o[0] = 2;
                }
            }"#,
        );
        assert!(has(&c, |i| matches!(i, Instr::Return)));
    }

    #[test]
    fn variables_assigned_in_all_branches_stay_compilable() {
        let c = chunk(
            r#"transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    if (a[0]) { let x = 1; } else { let x = 2; }
                    o[0] = x;
                }
            }"#,
        );
        assert!(has(&c, |i| matches!(i, Instr::CopySlot { .. })
            || matches!(i, Instr::StoreSlotNum { .. })));
    }

    #[test]
    fn alias_slots_line_up_with_bindings() {
        let c = chunk(
            r#"transform t from A[n], B[n] to C[n] {
                to (C c) from (A a, B b) { c[0] = a[0] + b[0]; }
            }"#,
        );
        assert_eq!(c.input_slots.len(), 2);
        assert_eq!(c.output_slots.len(), 1);
        let mut all = c.input_slots.clone();
        all.extend(&c.output_slots);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 3, "distinct aliases get distinct slots");
    }
}
