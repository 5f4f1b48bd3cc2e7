//! The facts-directed specializer ([`OptLevel::O3`]): consumes
//! [`ChunkFacts`] to rewrite checked operations into the specialized
//! forms dispatch executes faster, without perturbing observable
//! behavior.
//!
//! Two rewrites run here (the third O3 feature, helper inlining, is
//! [`super::inline`] — it needs the whole program, not one chunk):
//!
//! 1. **Unchecked indexing** — an indexed load/store whose slot the
//!    facts prove is an array of the matching rank becomes its `*U`
//!    form. Dispatch of a `*U` form guards with one `0 <= idx < len`
//!    compare and falls back to the checked form's exact path when the
//!    guard fails, so this rewrite is bit-identical even when the
//!    facts were over-optimistic (e.g. computed without entry-slot
//!    information). Index registers carry no licensing condition: the
//!    guard truncates in-range indices exactly like the checked
//!    `index()` conversion, so index *kind* cannot change behavior —
//!    and the chunk-wide register facts join over every program
//!    point, which register reuse after renumbering would turn into
//!    lost coverage, not safety.
//! 2. **Loop-invariant `Shape` hoisting** — a `Shape` read inside a
//!    counted loop, of a slot that (a) the *entry* facts prove is an
//!    array whose rank accepts the query (so the read cannot error)
//!    and (b) no instruction in the chunk rebinds (indexed stores
//!    mutate elements in place and never change the shape), moves into
//!    a preheader as [`Instr::ShapeHoisted`] behind a zero-trip guard
//!    — a copy of the loop header's exit branch — so the hoisted read
//!    executes exactly when the loop body would run at least once. The
//!    in-loop `Shape` becomes a register `Move` that the cleanup round
//!    after this pass propagates away.
//!
//! Hoisting inserts instructions, so it remaps every jump target:
//! entries into the loop run the preheader, back edges skip it.

use crate::analysis::{AbsValue, ChunkFacts};
use crate::compile::{Instr, Reg, ShapeKind, Slot};

/// Runs both rewrites over `code` in place and returns whether
/// anything was hoisted (hoisting allocates fresh registers at the top
/// of the bank, raising `n_regs`; the pipeline's final `renumber_regs`
/// re-densifies).
pub(super) fn specialize(code: &mut Vec<Instr>, n_regs: &mut u16, facts: &ChunkFacts) -> bool {
    // Hoist first: the loop scan reads the checked `Shape` forms, and
    // the unchecked rewrite below is position-independent.
    let mut hoisted = false;
    while hoist_one_loop(code, n_regs, facts) {
        hoisted = true;
    }
    rewrite_unchecked(code, facts);
    hoisted
}

/// Whether the facts prove `s` always holds a rank-`rank` array.
fn slot_is_arr(slots: &[AbsValue], s: Slot, rank: u8) -> bool {
    matches!(slots.get(s as usize), Some(AbsValue::Array { rank: r }) if *r == rank)
}

/// In-place rewrite of checked indexed ops into their `*U` forms where
/// the facts prove the slot rank.
fn rewrite_unchecked(code: &mut [Instr], facts: &ChunkFacts) {
    for instr in code.iter_mut() {
        let next = match *instr {
            Instr::LoadIdx1 { dst, slot, idx } if slot_is_arr(&facts.slots, slot, 1) => {
                Instr::LoadIdx1U { dst, slot, idx }
            }
            Instr::LoadIdx2 { dst, slot, i, j } if slot_is_arr(&facts.slots, slot, 2) => {
                Instr::LoadIdx2U { dst, slot, i, j }
            }
            Instr::StoreIdx1 { slot, idx, src } if slot_is_arr(&facts.slots, slot, 1) => {
                Instr::StoreIdx1U { slot, idx, src }
            }
            Instr::StoreIdx2 { slot, i, j, src } if slot_is_arr(&facts.slots, slot, 2) => {
                Instr::StoreIdx2U { slot, i, j, src }
            }
            Instr::BinStoreIdx1 {
                op,
                slot,
                idx,
                a,
                b,
            } if slot_is_arr(&facts.slots, slot, 1) => Instr::BinStoreIdx1U {
                op,
                slot,
                idx,
                a,
                b,
            },
            _ => continue,
        };
        *instr = next;
    }
}

/// Whether a `Shape` query on a slot of proven rank can never error
/// (see the VM's shape-acceptance rules: `len` reads rank-1 length or
/// rank-2 cols; `rows`/`cols` need rank 2).
fn shape_infallible(kind: ShapeKind, rank: u8) -> bool {
    match kind {
        ShapeKind::Len => rank == 1 || rank == 2,
        ShapeKind::Rows | ShapeKind::Cols => rank == 2,
    }
}

/// Whether any instruction in the chunk rebinds slot `s` to a new
/// value. Indexed stores don't count: they mutate elements of the
/// existing array in place and cannot change its shape.
fn slot_rebound(code: &[Instr], s: Slot) -> bool {
    use crate::compile::FirstArg;
    code.iter().any(|instr| match instr {
        Instr::StoreSlotNum { slot, .. } => *slot == s,
        Instr::CopySlot { dst, .. } => *dst == s,
        Instr::CallHost { first, dst, .. } => {
            *dst == s || matches!(first, FirstArg::Var(fs) if *fs == s)
        }
        Instr::CallTransform { dst, .. } => *dst == s,
        _ => false,
    })
}

/// A copy of a loop header's exit branch, retargeted for use as the
/// preheader's zero-trip guard; `None` when the header instruction is
/// not a forward conditional exit.
fn guard_from_header(header: &Instr, loop_end: usize) -> Option<Instr> {
    let exits = |target: usize| target > loop_end;
    match *header {
        Instr::JumpIfZero { cond, target } if exits(target) => {
            Some(Instr::JumpIfZero { cond, target })
        }
        Instr::JumpIfNonZero { cond, target } if exits(target) => {
            Some(Instr::JumpIfNonZero { cond, target })
        }
        Instr::JumpIfGe { a, b, target } if exits(target) => Some(Instr::JumpIfGe { a, b, target }),
        Instr::JumpCmp {
            op,
            a,
            b,
            jump_if,
            target,
        } if exits(target) => Some(Instr::JumpCmp {
            op,
            a,
            b,
            jump_if,
            target,
        }),
        Instr::JumpCmpImm {
            op,
            a,
            imm,
            jump_if,
            target,
        } if exits(target) => Some(Instr::JumpCmpImm {
            op,
            a,
            imm,
            jump_if,
            target,
        }),
        _ => None,
    }
}

/// Finds one loop with hoistable `Shape` reads, rewrites it, and
/// returns whether anything changed (the caller loops to a fixpoint;
/// each rewrite consumes its `Shape`s, so this terminates).
fn hoist_one_loop(code: &mut Vec<Instr>, n_regs: &mut u16, facts: &ChunkFacts) -> bool {
    for (h, s) in super::loops(code) {
        let Some(guard) = guard_from_header(&code[h], s) else {
            continue;
        };
        // Unique hoistable (kind, slot) pairs in the body, in first-use
        // order.
        let mut pairs: Vec<(ShapeKind, Slot)> = Vec::new();
        for instr in &code[h + 1..=s] {
            if let Instr::Shape { kind, slot, .. } = instr {
                let rank = match facts.entry_slots.get(*slot as usize) {
                    Some(AbsValue::Array { rank }) => *rank,
                    _ => continue,
                };
                if !shape_infallible(*kind, rank)
                    || slot_rebound(code, *slot)
                    || pairs.contains(&(*kind, *slot))
                {
                    continue;
                }
                pairs.push((*kind, *slot));
            }
        }
        if pairs.is_empty() {
            continue;
        }

        // Fresh registers for the hoisted values.
        let regs: Vec<Reg> = pairs
            .iter()
            .map(|_| {
                let r = *n_regs;
                *n_regs += 1;
                r
            })
            .collect();

        // Replace each in-loop `Shape` with a `Move` from its hoisted
        // register (same position, same conditional execution — the
        // def structure of `dst` is unchanged).
        for instr in &mut code[h + 1..=s] {
            if let Instr::Shape { kind, dst, slot } = *instr {
                if let Some(p) = pairs.iter().position(|&(k, sl)| k == kind && sl == slot) {
                    *instr = Instr::Move { dst, src: regs[p] };
                }
            }
        }

        // Remap every jump target across the insertion: targets past
        // the header shift by `k`; back edges (sources inside the
        // loop) re-enter at the shifted header, skipping the
        // preheader; entries from outside run it.
        let k = 1 + pairs.len();
        for (i, instr) in code.iter_mut().enumerate() {
            super::for_each_target_mut(instr, |t| {
                if *t > h || (*t == h && i > h && i <= s) {
                    *t += k;
                }
            });
        }

        // The guard's own exit target also shifts (it was cloned from
        // the pre-insertion header).
        let mut guard = guard;
        super::for_each_target_mut(&mut guard, |t| *t += k);

        // Splice the preheader in: guard first (so the hoisted reads
        // run only when the body will), then the hoists.
        let mut pre = Vec::with_capacity(k);
        pre.push(guard);
        for (&(kind, slot), &dst) in pairs.iter().zip(&regs) {
            pre.push(Instr::ShapeHoisted { kind, dst, slot });
        }
        code.splice(h..h, pre);
        return true;
    }
    false
}
