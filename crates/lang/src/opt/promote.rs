//! Scalars live in registers: the two passes that move values out of
//! per-iteration traffic and into registers defined once.
//!
//! **`promote`** (every level from `O1`) gives each `Value` slot that
//! provably only ever holds a scalar a *home register* and turns the
//! slot instructions that touched it into register moves, which the
//! sweeps and value tracking that follow mostly erase. Lowering keeps
//! every named local — a `let`, a loop variable, an inlined helper's
//! argument — in a slot, so before this pass each read and write of one
//! was a dispatch that boxed or unboxed a `Value`.
//!
//! A slot qualifies when nothing can put an array in it and nothing
//! needs it to be a `Value`: it is only loaded, stored, copied to or
//! from other qualifying slots, or passed by value to a call; it is not
//! indexed, measured, written by a call, or a host call's mutable first
//! argument; and no path reads it before writing it. Rule *bindings*
//! the entry facts declare scalar qualify too, with the traffic at the
//! chunk's edges made explicit: one `LoadSlotNum` at entry when some
//! path reads the binding before writing it, and — for outputs, which
//! the VM copies back to the store on success — one `StoreSlotNum`
//! before every `Return` and at the fall-off end. An execution that
//! ends in an error writes nothing back, exactly as before.
//!
//! **`const_homes`** (`O3`) does the same for constants: lowering
//! materializes an index like the `0` of `p[0, i]` with a `Const`
//! right before each use, once per iteration. Each distinct constant
//! read that way inside a loop gets one register defined by a `Const`
//! at chunk entry; the reads are pointed at it and dead-code
//! elimination drops the in-loop `Const`.

use super::{
    for_each_def, for_each_read_mut, for_each_target_mut, is_terminator, jump_targets,
    live_in_at_entry, Bank,
};
use crate::analysis::AbsValue;
use crate::compile::{Chunk, FirstArg, Instr, Operand, Reg, Slot};

/// Where a slot's value can live; a slot gets the strongest verdict
/// any of its uses demands.
#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    /// In a home register.
    Register,
    /// In its slot, but provably always a scalar there — a copy out of
    /// it is a load that cannot fail, and carries no array along.
    ScalarSlot(&'static str),
    /// In its slot, as a `Value` that may be an array.
    ValueSlot(&'static str),
}

impl Verdict {
    fn rank(self) -> u8 {
        match self {
            Verdict::Register => 0,
            Verdict::ScalarSlot(_) => 1,
            Verdict::ValueSlot(_) => 2,
        }
    }
}

/// Per slot: its verdict, and whether scalar code mentions it at all.
struct Verdicts {
    of: Vec<Verdict>,
    mentioned: Vec<bool>,
    /// Slots some path reads before writing (outputs count as read at
    /// every exit).
    live_in: Vec<Slot>,
}

fn verdicts(code: &[Instr], chunk: &Chunk, entry: Option<&[AbsValue]>) -> Verdicts {
    let n_slots = chunk.n_slots as usize;
    let mut of = vec![Verdict::Register; n_slots];
    let mut mentioned = vec![false; n_slots];
    let mut copies: Vec<(Slot, Slot)> = Vec::new();
    let raise = |of: &mut Vec<Verdict>, s: Slot, v: Verdict| {
        if of[s as usize].rank() < v.rank() {
            of[s as usize] = v;
        }
    };
    for instr in code {
        let mut by_value = |op: &Operand| {
            if let Operand::Slot(s) = op {
                mentioned[*s as usize] = true;
            }
        };
        match instr {
            Instr::LoadSlotNum { slot, .. } | Instr::StoreSlotNum { slot, .. } => {
                mentioned[*slot as usize] = true;
            }
            Instr::CopySlot { dst, src } => {
                mentioned[*dst as usize] = true;
                mentioned[*src as usize] = true;
                copies.push((*dst, *src));
            }
            Instr::Shape { slot, .. }
            | Instr::LoadIdx1 { slot, .. }
            | Instr::LoadIdx2 { slot, .. }
            | Instr::StoreIdx1 { slot, .. }
            | Instr::StoreIdx2 { slot, .. }
            | Instr::BinStoreIdx1 { slot, .. } => {
                raise(&mut of, *slot, Verdict::ValueSlot("it is used as an array"));
            }
            Instr::CallHost {
                first, rest, dst, ..
            } => {
                raise(
                    &mut of,
                    *dst,
                    Verdict::ValueSlot("it receives a host call's result"),
                );
                match first {
                    FirstArg::Var(s) => raise(
                        &mut of,
                        *s,
                        Verdict::ValueSlot("a host call may rebind it (mutable first argument)"),
                    ),
                    FirstArg::Anon(op) => by_value(op),
                }
                rest.iter().for_each(by_value);
            }
            Instr::CallTransform {
                args, dst, scalar, ..
            } => {
                let why = "it receives a transform call's result";
                let verdict = if *scalar {
                    Verdict::ScalarSlot(why)
                } else {
                    Verdict::ValueSlot(why)
                };
                raise(&mut of, *dst, verdict);
                args.iter().for_each(by_value);
            }
            _ => {}
        }
    }
    let bound = |s: Slot| chunk.input_slots.contains(&s) || chunk.output_slots.contains(&s);
    for &s in chunk.input_slots.iter().chain(&chunk.output_slots) {
        if entry.and_then(|e| e.get(s as usize)) != Some(&AbsValue::Scalar) {
            let why = "it is a rule binding not known to be a scalar";
            raise(&mut of, s, Verdict::ValueSlot(why));
        }
    }
    let live_in = live_in_at_entry(code, Bank::Slots, &chunk.output_slots);
    for &s in &live_in {
        if !bound(s) && (s as usize) < n_slots {
            let why = "it may be read before it is written";
            raise(&mut of, s, Verdict::ScalarSlot(why));
        }
    }
    // A copy out of a slot that may hold an array may carry one along.
    let mut changed = true;
    while changed {
        changed = false;
        for &(dst, src) in &copies {
            if of[src as usize].rank() == 2 && of[dst as usize].rank() < 2 {
                of[dst as usize] =
                    Verdict::ValueSlot("it is assigned a value that may be an array");
                changed = true;
            }
        }
    }
    Verdicts {
        of,
        mentioned,
        live_in,
    }
}

/// The slots scalar code reads or writes that `promote` would leave in
/// place, each with the reason — what `pb_lint` reports.
pub(crate) fn unpromoted(chunk: &Chunk, entry: &[AbsValue]) -> Vec<(Slot, &'static str)> {
    let v = verdicts(&chunk.code, chunk, Some(entry));
    let scalar_use = |s: Slot| {
        chunk.code.iter().any(|i| {
            matches!(i, Instr::LoadSlotNum { slot, .. } | Instr::StoreSlotNum { slot, .. } if *slot == s)
        })
    };
    (0..chunk.n_slots)
        .filter_map(|s| match v.of[s as usize] {
            Verdict::Register => None,
            Verdict::ScalarSlot(why) | Verdict::ValueSlot(why) => Some((s, why)),
        })
        .filter(|&(s, _)| scalar_use(s))
        .collect()
}

/// Runs the pass over `code` in place (see the module docs). Fresh home
/// registers come from the top of the bank, raising `n_regs`.
pub(super) fn promote(
    code: &mut Vec<Instr>,
    n_regs: &mut u16,
    chunk: &Chunk,
    entry: Option<&[AbsValue]>,
) {
    let v = verdicts(code, chunk, entry);
    let mut home: Vec<Option<Reg>> = vec![None; chunk.n_slots as usize];
    let mut homes: Vec<(Slot, Reg)> = Vec::new();
    for s in 0..chunk.n_slots {
        if v.mentioned[s as usize] && v.of[s as usize] == Verdict::Register && *n_regs < u16::MAX {
            home[s as usize] = Some(*n_regs);
            homes.push((s, *n_regs));
            *n_regs += 1;
        }
    }
    if homes.is_empty() {
        return;
    }
    let home = |s: Slot| home[s as usize];

    for instr in code.iter_mut() {
        let by_value = |op: &mut Operand| {
            if let Operand::Slot(s) = *op {
                if let Some(h) = home(s) {
                    *op = Operand::Reg(h);
                }
            }
        };
        match instr {
            Instr::LoadSlotNum { dst, slot } => {
                if let Some(src) = home(*slot) {
                    *instr = Instr::Move { dst: *dst, src };
                }
            }
            Instr::StoreSlotNum { slot, src } => {
                if let Some(dst) = home(*slot) {
                    *instr = Instr::Move { dst, src: *src };
                }
            }
            // The verdicts are closed under copies: a promoted
            // destination's source holds a scalar, in its home or (a
            // `ScalarSlot`) in place, where loading it cannot fail.
            Instr::CopySlot { dst, src } => match (home(*dst), home(*src)) {
                (Some(dst), Some(src)) => *instr = Instr::Move { dst, src },
                (None, Some(src)) => *instr = Instr::StoreSlotNum { slot: *dst, src },
                (Some(dst), None) => *instr = Instr::LoadSlotNum { dst, slot: *src },
                (None, None) => {}
            },
            Instr::CallHost { first, rest, .. } => {
                if let FirstArg::Anon(op) = first {
                    by_value(op);
                }
                rest.iter_mut().for_each(by_value);
            }
            Instr::CallTransform { args, .. } => args.iter_mut().for_each(by_value),
            _ => {}
        }
    }

    // The chunk's edges: bindings come in through one load each, and
    // outputs go back through one store each before every exit.
    let (mut loads, mut write_back) = (Vec::new(), Vec::new());
    for &(slot, dst) in &homes {
        if v.live_in.contains(&slot) {
            loads.push(Instr::LoadSlotNum { dst, slot });
        }
        if chunk.output_slots.contains(&slot) {
            write_back.push(Instr::StoreSlotNum { slot, src: dst });
        }
    }
    if loads.is_empty() && write_back.is_empty() {
        return;
    }
    let n = code.len();
    let falls_off = super::falls_off_end(code);
    // map[i]: where a jump to old instruction `i` lands now — on the
    // write-back run in front of it, if it is an exit.
    let mut map = Vec::with_capacity(n + 1);
    let mut out = loads;
    for instr in code.drain(..) {
        map.push(out.len());
        if matches!(instr, Instr::Return) {
            out.extend(write_back.iter().cloned());
        }
        out.push(instr);
    }
    map.push(out.len());
    if falls_off {
        out.extend(write_back.iter().cloned());
    }
    for instr in &mut out {
        for_each_target_mut(instr, |t| *t = map[*t]);
    }
    *code = out;
}

/// Gives every constant that a loop body reads from a just-set
/// register one home register, defined by a `Const` at chunk entry
/// (see the module docs). Block-local: lowering puts a constant's
/// `Const` right in front of its use.
pub(super) fn const_homes(code: &mut Vec<Instr>, n_regs: &mut u16) {
    let mut in_loop = vec![false; code.len()];
    for (head, last) in super::loops(code) {
        in_loop[head..=last].fill(true);
    }
    let targets = jump_targets(code);
    // known[r]: the constant register `r` was last set to, this block.
    let mut known: Vec<Option<u64>> = vec![None; *n_regs as usize];
    let mut homes: Vec<(u64, Reg)> = Vec::new();
    for i in 0..code.len() {
        if targets[i] {
            known.fill(None);
        }
        // A `Move` from a constant is a `Const` already (value
        // tracking), so every read left is an operand.
        if in_loop[i] {
            for_each_read_mut(&mut code[i], |r| {
                let Some(bits) = known[*r as usize] else {
                    return;
                };
                *r = match homes.iter().find(|(b, _)| *b == bits) {
                    Some(&(_, home)) => home,
                    None if *n_regs < u16::MAX => {
                        homes.push((bits, *n_regs));
                        *n_regs += 1;
                        *n_regs - 1
                    }
                    None => *r,
                };
            });
        }
        for_each_def(&code[i], |d| known[d as usize] = None);
        if let Instr::Const { dst, val } = code[i] {
            known[dst as usize] = Some(val.to_bits());
        }
        if is_terminator(&code[i]) {
            known.fill(None);
        }
    }
    if homes.is_empty() {
        return;
    }
    for instr in code.iter_mut() {
        for_each_target_mut(instr, |t| *t += homes.len());
    }
    let entry = homes.iter().map(|&(bits, dst)| Instr::Const {
        dst,
        val: f64::from_bits(bits),
    });
    code.splice(0..0, entry);
}
