//! The register VM: a dispatch loop over [`crate::compile::Chunk`]
//! bytecode, executing rule bodies against a `pb_runtime::ExecCtx`.
//!
//! The VM keeps the interpreter's observable semantics instruction for
//! instruction — tunable resolution (`for_enough_<i>`, `either_<i>`,
//! prefixed sub-transform lookups), RNG consumption order, host-call
//! protocol, bounds checks, and per-statement virtual-cost charging —
//! while replacing the tree-walker's per-node dispatch, per-variable
//! hash lookups, and per-access `Value` clones with direct register
//! and slot addressing. Calls to scalar helper transforms were inlined
//! into the chunk by the optimizer ([`crate::opt`]); the sub-transform
//! calls that remain recurse through
//! [`crate::interp::Interpreter`]'s shared orchestration, which runs
//! the callee's rules on this VM too.
//!
//! Rule bindings move arrays rather than copy them wherever that is
//! unobservable ([`crate::compile::Chunk::moves`], settled once per
//! chunk). An output's datum moves out of the data store into its slot
//! and back on success, unless another output binds the same datum. An
//! input's moves in and back out, whether the body succeeds or fails,
//! when it is read-only: no instruction writes its slot, and the rule
//! binds neither that datum nor that alias anywhere else (`from (X a,
//! X b)`, or an output alias shadowing the input's, clones). Every
//! other input clones, like the interpreter's `run_rule`.
//!
//! The hot path is allocation-free in steady state. Each thread owns
//! one `VmScratch`, a `thread_local!` that `run_rule` borrows briefly
//! on entry (to resolve names and pop a frame) and on exit (to push the
//! frame back), never while the rule runs, so a nested call's rules
//! find it free:
//!
//! * Register and slot banks live in a `VmFrame` from its free list,
//!   grown monotonically, replacing the `vec![…]` pair every
//!   invocation used to pay. A frame goes back to the list it came
//!   from; the list is as deep as transform calls can nest.
//! * Tunable names resolve once per `(chunk, prefix)` into its cached
//!   table of pre-built full names and schema ids
//!   (`ResolvedNames`), so the dispatch loop never rebuilds
//!   `prefix + name` strings or hashes them against the schema. The
//!   cache revalidates its ids against the active schema on every
//!   borrow (a few pointer-free string compares), which keeps it
//!   correct even when the same chunk runs under different schemas
//!   (e.g. an accuracy-metric context, which shares the thread's
//!   `VmScratch` with the trial that precedes it).

use crate::ast::BinOp;
use crate::ast::Rule;
use crate::compile::{Chunk, FirstArg, Instr, MathFn1, MathFn2, Operand, ShapeKind};
use crate::interp::{
    read_element, write_element, Interpreter, RuntimeError, Value, CALL_DEPTH_LIMIT,
};
use crate::opt::apply_bin;
use crate::token::Span;
use pb_config::{ConfigError, Schema, TunableId};
use pb_runtime::ExecCtx;
use rand::Rng;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

fn err(message: impl Into<String>) -> RuntimeError {
    RuntimeError {
        message: message.into(),
        span: None,
    }
}

/// Converts an f64 index with the interpreter's `eval_index` checks.
#[inline]
fn index(v: f64) -> Result<usize, RuntimeError> {
    if v < 0.0 || !v.is_finite() {
        return Err(err(format!("illegal index {v}")));
    }
    Ok(v as usize)
}

/// The indexed-access fast path's guard: whether `v` indexes an axis of
/// length `len`. It admits exactly the indices [`index`] accepts and
/// the element access would not reject (`v >= 0.0` excludes NaN and
/// negatives, `v < len` excludes ±inf and overflow), and `v as usize`
/// then truncates them like [`index`] does.
#[inline]
fn in_bounds(v: f64, len: usize) -> bool {
    v >= 0.0 && v < len as f64
}

/// One-argument math builtins, shared with the optimizer's constant
/// folder so folded results are bit-identical to runtime evaluation.
#[inline]
pub(crate) fn apply_math1(f: MathFn1, v: f64) -> f64 {
    match f {
        MathFn1::Sqrt => v.sqrt(),
        MathFn1::Abs => v.abs(),
        MathFn1::Floor => v.floor(),
        MathFn1::Ceil => v.ceil(),
        MathFn1::Exp => v.exp(),
        MathFn1::Log => v.ln(),
    }
}

/// Two-argument math builtins (see [`apply_math1`]).
#[inline]
pub(crate) fn apply_math2(f: MathFn2, a: f64, b: f64) -> f64 {
    match f {
        MathFn2::Min => a.min(b),
        MathFn2::Max => a.max(b),
        MathFn2::Pow => a.powf(b),
    }
}

/// Comparison dispatch for the fused branch forms (`op` is always a
/// comparison; the optimizer never fuses arithmetic into a branch).
#[inline]
fn apply_cmp(op: BinOp, a: f64, b: f64) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("only comparisons fuse into branches"),
    }
}

/// An operand as a borrowed value where possible: slot operands borrow
/// in place (the fast path the old always-`clone` accessor lacked),
/// register operands wrap into an owned scalar.
#[inline]
fn operand_cow<'a>(op: &Operand, regs: &[f64], slots: &'a [Value]) -> Cow<'a, Value> {
    match op {
        Operand::Reg(r) => Cow::Owned(Value::Num(regs[*r as usize])),
        Operand::Slot(s) => Cow::Borrowed(&slots[*s as usize]),
    }
}

/// Element count of a value for host-call cost charging —
/// `dims().iter().product().max(1)` without the `dims()` allocation.
#[inline]
fn value_size(v: &Value) -> usize {
    match v {
        Value::Num(_) => 1,
        Value::Arr1(a) => a.len().max(1),
        Value::Arr2 { rows, cols, .. } => (rows * cols).max(1),
    }
}

/// An operand as an owned value — the host-call protocol needs
/// `&[Value]`, so arrays genuinely clone here; callers that can hold a
/// borrow use [`operand_cow`] instead (the actual fast path).
#[inline]
fn operand_value(op: &Operand, regs: &[f64], slots: &[Value]) -> Value {
    match op {
        Operand::Reg(r) => Value::Num(regs[*r as usize]),
        Operand::Slot(s) => slots[*s as usize].clone(),
    }
}

/// Reusable per-invocation execution state: the scalar register bank
/// and the `Value` slot bank, grown monotonically and recycled through
/// the thread's [`VmScratch`] (nested invocations each borrow their
/// own frame).
#[derive(Default)]
pub(crate) struct VmFrame {
    regs: Vec<f64>,
    slots: Vec<Value>,
    /// Per-invocation memo of `Choice` resolutions, indexed by
    /// `NameIdx` (`usize::MAX` = unresolved). Choice lookups are pure
    /// functions of the context's fixed config/schema/size, so
    /// memoizing them within one invocation is observably identical to
    /// re-resolving — it just lifts the decision-tree walk out of
    /// loops.
    choices: Vec<usize>,
}

impl VmFrame {
    /// Prepares the frame for a chunk: both banks grown to size and
    /// reset to the zero state a fresh allocation would have, so reuse
    /// is observably identical to reallocation.
    fn reset(&mut self, n_regs: usize, n_slots: usize, n_names: usize) {
        if self.regs.len() < n_regs {
            self.regs.resize(n_regs, 0.0);
        }
        self.regs[..n_regs].fill(0.0);
        if self.slots.len() < n_slots {
            self.slots.resize(n_slots, Value::Num(0.0));
        }
        for slot in &mut self.slots[..n_slots] {
            *slot = Value::Num(0.0);
        }
        self.choices.clear();
        self.choices.resize(n_names, usize::MAX);
    }

    /// Drops any arrays parked in the `n_slots` the finished chunk
    /// used (the rest of the bank was released by whoever used it), so
    /// a pooled frame does not pin trial data between invocations.
    fn release_values(&mut self, n_slots: usize) {
        for slot in &mut self.slots[..n_slots] {
            *slot = Value::Num(0.0);
        }
    }
}

/// One interned chunk name, pre-resolved against a prefix: the full
/// tunable key, its schema id (when the schema knows it), and the
/// sub-transform prefix a `CallTransform` through this name would use.
struct ResolvedName {
    full: String,
    id: Option<TunableId>,
    sub_prefix: String,
}

/// The per-`(chunk, prefix)` resolution table.
type ResolvedNames = Rc<Vec<ResolvedName>>;

/// A cached resolution keyed by chunk identity and prefix. The chunk
/// address is only a cache key (never dereferenced), and every hit is
/// revalidated against the live schema, so stale entries can only
/// cause a rebuild — never a wrong resolution.
struct CacheEntry {
    chunk_addr: usize,
    prefix: String,
    names: ResolvedNames,
}

/// The thread's VM scratch state: free execution frames plus the
/// tunable-resolution cache.
struct VmScratch {
    /// Free frames. A running rule holds one; each nested generic call
    /// holds another, so more than one per call level is never needed.
    frames: Vec<VmFrame>,
    cache: Vec<CacheEntry>,
}

thread_local! {
    /// This thread's [`VmScratch`], shared by every context on it, so
    /// rules on a pool worker reuse the same frames across trials and
    /// across a trial and its accuracy metric.
    static SCRATCH: RefCell<VmScratch> = const {
        RefCell::new(VmScratch {
            frames: Vec::new(),
            cache: Vec::new(),
        })
    };
}

/// Frames parked in the current thread's `VmScratch` — a diagnostic
/// for the boundedness tests: however many rules and trials a thread
/// has run, this stays within one frame per call level.
pub fn parked_frames() -> usize {
    SCRATCH.with_borrow(|vm| vm.frames.len())
}

/// Caps the resolution cache so pathological programs (many chunks ×
/// many prefixes) cannot grow it without bound.
const CACHE_CAP: usize = 64;

impl VmScratch {
    fn resolve(&mut self, chunk: &Chunk, prefix: &str, schema: &Schema) -> ResolvedNames {
        let chunk_addr = chunk as *const Chunk as usize;
        if let Some(entry) = self
            .cache
            .iter()
            .find(|e| e.chunk_addr == chunk_addr && e.prefix == prefix)
        {
            if Self::validate(&entry.names, chunk, prefix, schema) {
                return Rc::clone(&entry.names);
            }
        }
        let names: Vec<ResolvedName> = chunk
            .names
            .iter()
            .map(|name| {
                let full = format!("{prefix}{name}");
                let id = schema.tunable(&full).map(|(id, _)| id);
                ResolvedName {
                    sub_prefix: format!("{full}."),
                    full,
                    id,
                }
            })
            .collect();
        let names = Rc::new(names);
        self.cache
            .retain(|e| !(e.chunk_addr == chunk_addr && e.prefix == prefix));
        if self.cache.len() >= CACHE_CAP {
            // Evict the oldest entry; clearing everything would make
            // programs with more than CACHE_CAP (chunk, prefix) pairs
            // rebuild their whole hot set on every invocation.
            self.cache.remove(0);
        }
        self.cache.push(CacheEntry {
            chunk_addr,
            prefix: prefix.to_owned(),
            names: Rc::clone(&names),
        });
        names
    }

    /// Whether a cached table still matches the chunk's names and the
    /// active schema (allocation-free: length and string compares).
    fn validate(names: &ResolvedNames, chunk: &Chunk, prefix: &str, schema: &Schema) -> bool {
        names.len() == chunk.names.len()
            && names.iter().zip(&chunk.names).all(|(r, name)| {
                r.full.len() == prefix.len() + name.len()
                    && r.full.ends_with(name.as_str())
                    && match r.id {
                        Some(id) => {
                            id.0 < schema.len() && schema.tunable_by_id(id).name() == r.full
                        }
                        None => schema.tunable(&r.full).is_none(),
                    }
            })
    }
}

/// Runs one compiled rule against the transform's data store,
/// mirroring the interpreter's `run_rule` binding and write-back, on a
/// pooled frame with cached tunable resolution — whatever level the
/// chunk was optimized at.
pub(crate) fn run_rule(
    interp: &Interpreter,
    rule: &Rule,
    chunk: &Chunk,
    store: &mut HashMap<String, Value>,
    ctx: &mut ExecCtx<'_>,
    prefix: &str,
    depth: usize,
) -> Result<(), RuntimeError> {
    // The scratch is borrowed here and after the rule, never while it
    // runs, so the rules of a nested `CallTransform` borrow it too.
    let (resolved, mut frame) = SCRATCH.with_borrow_mut(|vm| {
        let resolved = vm.resolve(chunk, prefix, ctx.schema());
        (resolved, vm.frames.pop().unwrap_or_default())
    });
    frame.reset(
        chunk.n_regs as usize,
        chunk.n_slots as usize,
        chunk.names.len(),
    );

    let result = bind_exec_writeback(
        interp, rule, chunk, store, ctx, depth, &resolved, &mut frame,
    );

    // Recycle the frame whatever the outcome (dropping parked arrays
    // now, not at the next reset, so pooled frames stay small).
    frame.release_values(chunk.n_slots as usize);
    SCRATCH.with_borrow_mut(|vm| {
        if vm.frames.len() <= CALL_DEPTH_LIMIT {
            vm.frames.push(frame);
        }
    });
    result
}

/// The invocation body: binds the rule's aliases into the frame,
/// dispatches, and writes outputs back on success. Inputs moved into
/// their slots go back to the store whatever the outcome; outputs moved
/// out stay out on an error, which ends the transform's run and drops
/// the store.
#[allow(clippy::too_many_arguments)]
fn bind_exec_writeback(
    interp: &Interpreter,
    rule: &Rule,
    chunk: &Chunk,
    store: &mut HashMap<String, Value>,
    ctx: &mut ExecCtx<'_>,
    depth: usize,
    resolved: &[ResolvedName],
    frame: &mut VmFrame,
) -> Result<(), RuntimeError> {
    let mut bound = 0;
    let result = bind(rule, chunk, store, frame, &mut bound)
        .and_then(|()| exec(interp, chunk, resolved, frame, ctx, depth));
    let inputs = rule.inputs.iter().zip(&chunk.input_slots);
    for ((b, slot), _) in inputs.zip(&chunk.moves).take(bound).filter(|(_, &m)| m) {
        if let Some(v) = store.get_mut(&b.data) {
            *v = std::mem::replace(&mut frame.slots[*slot as usize], Value::Num(0.0));
        }
    }
    result?;

    // Moved, not cloned: `release_values` would drop the slot next, and
    // sema gives each output binding of a rule its own alias, so its
    // own slot. Binding found each datum, so it is replaced in place.
    for (b, slot) in rule.outputs.iter().zip(&chunk.output_slots) {
        let v = std::mem::replace(&mut frame.slots[*slot as usize], Value::Num(0.0));
        if let Some(data) = store.get_mut(&b.data) {
            *data = v;
        }
    }
    Ok(())
}

/// Binds the rule's aliases into the frame: inputs, then outputs, which
/// shadow same-named inputs. Each datum is moved out of the store (a
/// placeholder left behind) where `chunk.moves` says so, else cloned.
/// `bound` counts the bindings made, inputs first.
fn bind(
    rule: &Rule,
    chunk: &Chunk,
    store: &mut HashMap<String, Value>,
    frame: &mut VmFrame,
    bound: &mut usize,
) -> Result<(), RuntimeError> {
    let inputs = (rule.inputs.iter().zip(&chunk.input_slots)).map(|b| (b, "reads unproduced"));
    let outputs = (rule.outputs.iter().zip(&chunk.output_slots)).map(|b| (b, "writes undeclared"));
    for (k, ((b, slot), missing)) in inputs.chain(outputs).enumerate() {
        let v = store.get_mut(&b.data).ok_or_else(|| RuntimeError {
            message: format!("rule {missing} data `{}`", b.data),
            span: Some(b.span),
        })?;
        frame.slots[*slot as usize] = match chunk.moves.get(k) {
            Some(true) => std::mem::replace(v, Value::Num(0.0)),
            _ => v.clone(),
        };
        *bound = k + 1;
    }
    Ok(())
}

/// Dispatch entry point: profiling off takes the unchanged hot loop
/// (monomorphized without the counting code — zero overhead); with
/// profiling on, per-opcode executions count into a stack-local table
/// that merges into this thread's chunk profile *after* the loop
/// returns, so `CallTransform` recursion (which re-enters `exec` on
/// this thread) never holds the profile lock during dispatch.
fn exec(
    interp: &Interpreter,
    chunk: &Chunk,
    resolved: &[ResolvedName],
    frame: &mut VmFrame,
    ctx: &mut ExecCtx<'_>,
    depth: usize,
) -> Result<(), RuntimeError> {
    if pb_trace::vm_profiling() {
        let mut counts = [0u64; crate::compile::N_OPCODES];
        let result = exec_loop::<true>(interp, chunk, resolved, frame, ctx, depth, &mut counts);
        pb_trace::record_chunk(&chunk.label, &counts);
        result
    } else {
        exec_loop::<false>(interp, chunk, resolved, frame, ctx, depth, &mut [])
    }
}

/// The dispatch loop.
fn exec_loop<const PROFILE: bool>(
    interp: &Interpreter,
    chunk: &Chunk,
    resolved: &[ResolvedName],
    frame: &mut VmFrame,
    ctx: &mut ExecCtx<'_>,
    depth: usize,
    counts: &mut [u64],
) -> Result<(), RuntimeError> {
    let n_regs = chunk.n_regs as usize;
    let n_slots = chunk.n_slots as usize;
    let VmFrame {
        regs,
        slots,
        choices,
    } = frame;
    let regs: &mut [f64] = &mut regs[..n_regs];
    let slots: &mut [Value] = &mut slots[..n_slots];
    let code = &chunk.code;
    let names = &chunk.names;
    let mut pc = 0usize;
    while pc < code.len() {
        if PROFILE {
            counts[code[pc].opcode_index()] += 1;
        }
        match &code[pc] {
            Instr::Const { dst, val } => regs[*dst as usize] = *val,
            Instr::Move { dst, src } => regs[*dst as usize] = regs[*src as usize],
            Instr::LoadSlotNum { dst, slot } => match &slots[*slot as usize] {
                Value::Num(v) => regs[*dst as usize] = *v,
                _ => return Err(err("expected a scalar value")),
            },
            Instr::StoreSlotNum { slot, src } => {
                slots[*slot as usize] = Value::Num(regs[*src as usize]);
            }
            Instr::CopySlot { dst, src } => {
                slots[*dst as usize] = slots[*src as usize].clone();
            }
            Instr::LoadParam { dst, name } => {
                let v = match resolved[*name as usize].id {
                    Some(id) => ctx.param_by_id(id).ok(),
                    None => None,
                };
                match v {
                    Some(v) => regs[*dst as usize] = v as f64,
                    None => {
                        let name = &names[*name as usize];
                        return Err(err(format!("unknown variable `{name}`")));
                    }
                }
            }
            Instr::Bin { op, dst, a, b } => {
                regs[*dst as usize] = apply_bin(*op, regs[*a as usize], regs[*b as usize]);
            }
            Instr::BinRI { op, dst, a, imm } => {
                regs[*dst as usize] = apply_bin(*op, regs[*a as usize], *imm);
            }
            Instr::BinIR { op, dst, imm, b } => {
                regs[*dst as usize] = apply_bin(*op, *imm, regs[*b as usize]);
            }
            Instr::Neg { dst, src } => regs[*dst as usize] = -regs[*src as usize],
            Instr::Not { dst, src } => {
                regs[*dst as usize] = if regs[*src as usize] == 0.0 { 1.0 } else { 0.0 };
            }
            Instr::TestNonZero { dst, src } => {
                regs[*dst as usize] = (regs[*src as usize] != 0.0) as i64 as f64;
            }
            Instr::Math1 { f, dst, src } => {
                regs[*dst as usize] = apply_math1(*f, regs[*src as usize]);
            }
            Instr::Math2 { f, dst, a, b } => {
                regs[*dst as usize] = apply_math2(*f, regs[*a as usize], regs[*b as usize]);
            }
            Instr::Rand { dst, lo, hi } => {
                let lo = regs[*lo as usize];
                let hi = regs[*hi as usize];
                // An empty range, or a NaN bound, draws nothing.
                regs[*dst as usize] = if lo < hi {
                    ctx.rng().gen_range(lo..hi)
                } else {
                    lo
                };
            }
            Instr::Shape { kind, dst, slot } => {
                // Matches the value directly (not through `dims()`,
                // which allocates) with the interpreter's exact
                // shape-acceptance rules.
                let v = &slots[*slot as usize];
                regs[*dst as usize] = match (kind, v) {
                    (ShapeKind::Len, Value::Arr1(a)) => a.len() as f64,
                    (ShapeKind::Len, Value::Arr2 { cols, .. })
                    | (ShapeKind::Cols, Value::Arr2 { cols, .. }) => *cols as f64,
                    (ShapeKind::Rows, Value::Arr2 { rows, .. }) => *rows as f64,
                    (kind, _) => {
                        let name = match kind {
                            ShapeKind::Len => "len",
                            ShapeKind::Rows => "rows",
                            ShapeKind::Cols => "cols",
                        };
                        return Err(err(format!("`{name}` applied to a value of wrong shape")));
                    }
                };
            }
            // Indexed access: an in-bounds index into an array of the
            // matching rank reads or writes the element directly; any
            // other index or slot takes the checked `index` +
            // `read_element`/`write_element` path, which raises the
            // interpreter's exact error. The guard ([`in_bounds`])
            // admits only indices that path accepts and truncates them
            // the same way, so results and error points are identical
            // on either path.
            Instr::LoadIdx1 { dst, slot, idx } => {
                let v = regs[*idx as usize];
                regs[*dst as usize] = match &slots[*slot as usize] {
                    Value::Arr1(a) if in_bounds(v, a.len()) => a[v as usize],
                    arr => read_element(arr, &[index(v)?], Span::new(0, 0))
                        .map_err(|e| err(e.message))?,
                };
            }
            Instr::LoadIdx2 { dst, slot, i, j } => {
                let (vi, vj) = (regs[*i as usize], regs[*j as usize]);
                regs[*dst as usize] = match &slots[*slot as usize] {
                    Value::Arr2 { rows, cols, data }
                        if in_bounds(vi, *rows) && in_bounds(vj, *cols) =>
                    {
                        data[vi as usize * *cols + vj as usize]
                    }
                    arr => read_element(arr, &[index(vi)?, index(vj)?], Span::new(0, 0))
                        .map_err(|e| err(e.message))?,
                };
            }
            Instr::StoreIdx1 { slot, idx, src } => {
                let (v, x) = (regs[*idx as usize], regs[*src as usize]);
                match &mut slots[*slot as usize] {
                    Value::Arr1(a) if in_bounds(v, a.len()) => a[v as usize] = x,
                    arr => write_element(arr, &[index(v)?], x, Span::new(0, 0))
                        .map_err(|e| err(e.message))?,
                }
            }
            Instr::BinStoreIdx1 {
                op,
                slot,
                idx,
                a,
                b,
            } => {
                // The absorbed `Bin` is pure, so computing it on either
                // side of the index check is unobservable.
                let v = regs[*idx as usize];
                let x = apply_bin(*op, regs[*a as usize], regs[*b as usize]);
                match &mut slots[*slot as usize] {
                    Value::Arr1(arr) if in_bounds(v, arr.len()) => arr[v as usize] = x,
                    arr => write_element(arr, &[index(v)?], x, Span::new(0, 0))
                        .map_err(|e| err(e.message))?,
                }
            }
            Instr::StoreIdx2 { slot, i, j, src } => {
                let (vi, vj) = (regs[*i as usize], regs[*j as usize]);
                let v = regs[*src as usize];
                match &mut slots[*slot as usize] {
                    Value::Arr2 { rows, cols, data }
                        if in_bounds(vi, *rows) && in_bounds(vj, *cols) =>
                    {
                        data[vi as usize * *cols + vj as usize] = v;
                    }
                    arr => write_element(arr, &[index(vi)?, index(vj)?], v, Span::new(0, 0))
                        .map_err(|e| err(e.message))?,
                }
            }
            Instr::Jump { target } => {
                pc = *target;
                continue;
            }
            Instr::JumpIfZero { cond, target } => {
                if regs[*cond as usize] == 0.0 {
                    pc = *target;
                    continue;
                }
            }
            Instr::JumpIfNonZero { cond, target } => {
                if regs[*cond as usize] != 0.0 {
                    pc = *target;
                    continue;
                }
            }
            Instr::JumpIfGe { a, b, target } => {
                if regs[*a as usize] >= regs[*b as usize] {
                    pc = *target;
                    continue;
                }
            }
            Instr::JumpCmp {
                op,
                a,
                b,
                jump_if,
                target,
            } => {
                if apply_cmp(*op, regs[*a as usize], regs[*b as usize]) == *jump_if {
                    pc = *target;
                    continue;
                }
            }
            Instr::JumpCmpImm {
                op,
                a,
                imm,
                jump_if,
                target,
            } => {
                if apply_cmp(*op, regs[*a as usize], *imm) == *jump_if {
                    pc = *target;
                    continue;
                }
            }
            Instr::AddImm { dst, imm } => regs[*dst as usize] += *imm,
            Instr::LoopNext {
                ctr,
                imm,
                a,
                b,
                exit,
                body,
                charge,
            } => {
                regs[*ctr as usize] += *imm;
                pc = if regs[*a as usize] >= regs[*b as usize] {
                    *exit
                } else {
                    ctx.charge(*charge);
                    *body
                };
                continue;
            }
            Instr::TruncPair { a, b } => {
                // The interpreter converts `for` bounds through i64.
                regs[*a as usize] = regs[*a as usize] as i64 as f64;
                regs[*b as usize] = regs[*b as usize] as i64 as f64;
            }
            Instr::Charge { amount } => ctx.charge(*amount),
            Instr::WhileGuard { counter } => {
                let c = &mut regs[*counter as usize];
                *c += 1.0;
                if *c > 10_000_000.0 {
                    return Err(err("while loop exceeded 10M iterations"));
                }
            }
            Instr::ForEnoughPrep { dst, name } => {
                let r = &resolved[*name as usize];
                let iters = match r.id {
                    Some(id) => ctx.for_enough_by_id(id),
                    None => Err(ConfigError::UnknownTunable(r.full.clone())),
                }
                .map_err(|e| err(format!("{e}")))?;
                regs[*dst as usize] = iters as f64;
            }
            Instr::Choice {
                dst,
                name,
                branches,
            } => {
                let idx = *name as usize;
                let memoized = choices.get(idx).copied().unwrap_or(usize::MAX);
                let pick = if memoized != usize::MAX {
                    memoized
                } else {
                    let r = &resolved[idx];
                    let pick = match r.id {
                        Some(id) => ctx.choice_by_id(id),
                        None => Err(ConfigError::UnknownTunable(r.full.clone())),
                    }
                    .map_err(|e| err(format!("{e}")))?;
                    if let Some(slot) = choices.get_mut(idx) {
                        *slot = pick;
                    }
                    pick
                };
                regs[*dst as usize] = pick.min(*branches as usize - 1) as f64;
            }
            Instr::Switch { src, targets } => {
                // Unreachable for verified chunks (the adjacent Choice
                // clamps the pick); a runtime error, not a panic, for
                // anything hand-built.
                let idx = regs[*src as usize] as usize;
                pc = *targets.get(idx).ok_or_else(|| {
                    err(format!(
                        "switch index {idx} out of range ({} targets)",
                        targets.len()
                    ))
                })?;
                continue;
            }
            Instr::CallHost {
                name,
                first,
                rest,
                dst,
            } => {
                let fname = &names[*name as usize];
                // The arguments were computed by the instructions
                // before this one; the interpreter, too, resolves the
                // name only after evaluating them.
                let Some(f) = interp.host_fn(fname) else {
                    return Err(err(format!("unknown function `{fname}`")));
                };
                let rest_values: Vec<Value> = rest
                    .iter()
                    .map(|op| operand_value(op, regs, slots))
                    .collect();
                let mut first_value = match first {
                    FirstArg::Var(s) => slots[*s as usize].clone(),
                    FirstArg::Anon(op) => operand_value(op, regs, slots),
                };
                ctx.charge(rest_values.iter().map(value_size).sum::<usize>() as f64);
                let out = f(&mut first_value, &rest_values)
                    .map_err(|m| err(format!("host `{fname}`: {m}")))?;
                if let FirstArg::Var(s) = first {
                    slots[*s as usize] = first_value;
                }
                slots[*dst as usize] = out;
            }
            Instr::CallTransform {
                name,
                callee,
                args,
                dst,
                ..
            } => {
                let callee_idx = *callee as usize;
                let callee = &interp.program().transforms[callee_idx];
                // Argument values borrow straight out of the slot bank
                // (the callee clones what it keeps), so array arguments
                // are cloned once — into the callee's store — instead
                // of twice.
                let mut sub_inputs: HashMap<String, Cow<'_, Value>> =
                    HashMap::with_capacity(args.len());
                for (param, op) in callee.inputs.iter().zip(args) {
                    sub_inputs.insert(param.name.clone(), operand_cow(op, regs, slots));
                }
                let sub_prefix = &resolved[*name as usize].sub_prefix;
                let outputs =
                    interp.run_transform(callee_idx, &sub_inputs, ctx, sub_prefix, depth + 1);
                drop(sub_inputs);
                let out_name = &callee.outputs[0].name;
                slots[*dst as usize] = outputs?.get(out_name).cloned().ok_or_else(|| {
                    err(format!(
                        "transform `{}` produced no `{out_name}`",
                        callee.name
                    ))
                })?;
            }
            Instr::Return => return Ok(()),
            Instr::DepthGuard { extra } => {
                // The check (and error) `run_transform` makes first for
                // a call `extra` levels down.
                if depth + *extra as usize > CALL_DEPTH_LIMIT {
                    return Err(err("transform call depth exceeded"));
                }
            }
            Instr::Nop => {}
        }
        pc += 1;
    }
    Ok(())
}
