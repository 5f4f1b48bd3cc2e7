//! The `inline` pass ([`OptLevel::O3`](super::OptLevel::O3)): splices
//! scalar helper transforms into their callers, so the per-chunk
//! passes that follow optimize across what used to be a call boundary.
//!
//! The original compiler turned a call to another transform into a C++
//! call the host compiler could inline; here a `CallTransform` costs a
//! frame, a name-table lookup and a nested dispatch loop around a body
//! that is often one statement. A callee qualifies when it is a
//! *scalar helper* ([`CompiledTransform::helper`]: scalar inputs, one
//! dimensionless output produced by one rule, no accuracy
//! variables), its lowered body is small and free of name-resolved
//! reads and further calls, and every argument at the site is a
//! register or a slot the caller's [`ChunkFacts`](crate::ChunkFacts)
//! prove scalar. Any other site keeps its `CallTransform` and runs the
//! generic path.
//!
//! A spliced region reproduces the generic call instruction for
//! instruction: a [`Instr::DepthGuard`] raises "transform call depth
//! exceeded" at the execution point `run_prefixed` would, inputs bind
//! in rule order and the output slot is zeroed after them (an output
//! alias shadows a same-named input), every callee slot that liveness
//! shows readable before written is re-zeroed on each entry (what a
//! pooled frame's reset supplied), tunable names intern
//! as `<callee>.<name>` so they resolve to the key the call's
//! sub-prefix produced, `Return` becomes a jump to the region's exit,
//! and the callee's `Charge`s stay, verbatim.
//!
//! Transforms are processed callees-first, so a helper's body already
//! contains the helpers *it* calls; a call cycle is left to the
//! generic path, as is any nest deeper than the call-depth limit.

use super::{for_each_target_mut, live_in_at_entry, remap_regs, remap_slots, Bank, PassViolation};
use crate::analysis::{analyze_chunk, transform_facts, verify_code, AbsValue};
use crate::compile::{Chunk, CompiledTransform, HelperSig, Instr, NameIdx, Operand};
use crate::interp::CALL_DEPTH_LIMIT;

/// Largest callee body (lowered instructions, its own inlines
/// included) a site will absorb.
const MAX_CALLEE_INSTRS: usize = 64;

/// A caller stops absorbing callees past this many instructions.
const MAX_CHUNK_INSTRS: usize = 4096;

/// A call to a scalar helper the pass left on the generic path.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineSkip {
    /// The calling chunk's label.
    pub chunk: String,
    /// The callee transform.
    pub callee: String,
    /// Why the site was not inlined.
    pub reason: String,
}

#[derive(Clone, Copy, PartialEq)]
enum Visit {
    Pending,
    Active,
    Done,
}

/// Runs the pass over a whole program, in place, and returns the sites
/// it left on the generic path. With `verify` on, every changed chunk
/// is re-verified and the first violation is returned under pass name
/// `inline`.
pub(crate) fn inline_program(
    transforms: &mut [CompiledTransform],
    verify: bool,
) -> Result<Vec<InlineSkip>, PassViolation> {
    let mut pass = Pass {
        state: vec![Visit::Pending; transforms.len()],
        skips: Vec::new(),
        verify,
    };
    for i in 0..transforms.len() {
        if pass.state[i] == Visit::Pending {
            pass.visit(transforms, i)?;
        }
    }
    Ok(pass.skips)
}

struct Pass {
    state: Vec<Visit>,
    skips: Vec<InlineSkip>,
    verify: bool,
}

impl Pass {
    fn visit(
        &mut self,
        transforms: &mut [CompiledTransform],
        i: usize,
    ) -> Result<(), PassViolation> {
        self.state[i] = Visit::Active;
        let mut callees: Vec<usize> = transforms[i]
            .rules
            .iter()
            .flat_map(|chunk| &chunk.code)
            .filter_map(|instr| match instr {
                Instr::CallTransform { callee, .. } => Some(*callee as usize),
                _ => None,
            })
            .filter(|&c| c < transforms.len())
            .collect();
        callees.sort_unstable();
        callees.dedup();
        for &c in &callees {
            if self.state[c] == Visit::Pending {
                self.visit(transforms, c)?;
            }
            if self.state[c] == Visit::Done {
                prove_scalar_out(&mut transforms[c]);
            }
        }
        // Calls whose callee is now proven to return a scalar say so,
        // and the facts are settled again: a rule that copies such a
        // result into its scalar output no longer counts as reshaping
        // it.
        let proven: Vec<bool> = transforms
            .iter()
            .map(|c| c.scalar_out == Some(true))
            .collect();
        let mut stamped = false;
        for chunk in &mut transforms[i].rules {
            for instr in &mut chunk.code {
                if let Instr::CallTransform { callee, scalar, .. } = instr {
                    let now = proven.get(*callee as usize).copied().unwrap_or(false);
                    stamped |= now != *scalar;
                    *scalar = now;
                }
            }
        }
        if stamped {
            let owner = &mut transforms[i];
            owner.facts = transform_facts(&owner.bindings, &owner.rules);
        }
        for rule_idx in 0..transforms[i].rules.len() {
            self.inline_rule(transforms, i, rule_idx)?;
        }
        self.state[i] = Visit::Done;
        Ok(())
    }

    fn inline_rule(
        &mut self,
        transforms: &mut [CompiledTransform],
        t: usize,
        rule_idx: usize,
    ) -> Result<(), PassViolation> {
        let calls = |i: &Instr| matches!(i, Instr::CallTransform { .. });
        if !transforms[t].rules[rule_idx].code.iter().any(calls) {
            return Ok(());
        }
        // The chunk is out of the program while it absorbs callees (a
        // call cycle through it is declined before its body is read).
        let mut chunk = std::mem::take(&mut transforms[t].rules[rule_idx]);
        let facts = &transforms[t].facts[rule_idx];

        // Decide every site under the one facts snapshot (splicing only
        // adds fresh registers and slots, so a decision cannot be
        // invalidated by another site's splice), then splice back to
        // front, so every site still to visit is where lowering put it.
        let mut spliced = false;
        for at in (0..chunk.code.len()).rev() {
            let Instr::CallTransform { callee, args, .. } = &chunk.code[at] else {
                continue;
            };
            let Some(callee_t) = transforms.get(*callee as usize) else {
                continue;
            };
            let Some(sig) = &callee_t.helper else {
                continue;
            };
            let body = &callee_t.rules[sig.rule_idx];
            let verdict = if self.state[*callee as usize] != Visit::Done {
                Err("it is part of a call cycle".to_owned())
            } else {
                inlinable(&chunk, body, args, &facts.slots)
            };
            match verdict {
                Ok(()) => {
                    splice(&mut chunk, at, body, sig, &callee_t.name);
                    spliced = true;
                }
                Err(reason) => self.skips.push(InlineSkip {
                    chunk: chunk.label.clone(),
                    callee: callee_t.name.clone(),
                    reason,
                }),
            }
        }

        if self.verify && spliced {
            verify_code(
                &chunk.code,
                chunk.n_regs,
                chunk.n_slots,
                chunk.names.len(),
                &chunk.input_slots,
                &chunk.output_slots,
            )
            .map_err(|violation| PassViolation {
                pass: "inline",
                label: chunk.label.clone(),
                violation,
            })?;
        }
        // Facts for the chunk as it now stands: what a caller of *this*
        // transform consults to prove its output scalar.
        let owner = &mut transforms[t];
        if spliced {
            owner.facts[rule_idx] = analyze_chunk(&chunk, &owner.facts[rule_idx].entry_slots);
        }
        owner.rules[rule_idx] = chunk;
        Ok(())
    }
}

/// Settles [`CompiledTransform::scalar_out`]: the transform's only,
/// dimensionless output is provably a scalar when the facts of every
/// rule that can write it keep the bound slot scalar at every program
/// point (the zero it starts as included).
fn prove_scalar_out(t: &mut CompiledTransform) {
    if t.scalar_out.is_some() {
        return;
    }
    let proven = t.sole_scalar_output.as_ref().is_some_and(|per_rule| {
        per_rule.iter().enumerate().all(|(r, positions)| {
            positions.iter().all(|&p| {
                t.facts[r].slots.get(t.rules[r].output_slots[p] as usize) == Some(&AbsValue::Scalar)
            })
        })
    });
    t.scalar_out = Some(proven);
}

/// Whether the site at hand can absorb `body`; the error is the reason
/// `pb_lint` reports.
fn inlinable(
    caller: &Chunk,
    body: &Chunk,
    args: &[Operand],
    slot_facts: &[AbsValue],
) -> Result<(), String> {
    for (i, op) in args.iter().enumerate() {
        if let Operand::Slot(s) = op {
            if slot_facts.get(*s as usize) != Some(&AbsValue::Scalar) {
                return Err(format!("argument {i} (s{s}) is not provably a scalar"));
            }
        }
    }
    if body.code.len() > MAX_CALLEE_INSTRS {
        return Err(format!(
            "its body is {} instructions (limit {MAX_CALLEE_INSTRS})",
            body.code.len()
        ));
    }
    let mut deepest = 0;
    for instr in &body.code {
        match instr {
            Instr::CallTransform { .. } => {
                return Err("its body still makes a transform call".to_owned())
            }
            Instr::LoadParam { .. } => {
                return Err("its body reads a tunable by name".to_owned());
            }
            Instr::DepthGuard { extra } => deepest = deepest.max(*extra as usize),
            _ => {}
        }
    }
    if deepest + 1 > CALL_DEPTH_LIMIT {
        return Err("the nest is deeper than the call-depth limit".to_owned());
    }
    let fits = caller.code.len() + body.code.len() <= MAX_CHUNK_INSTRS
        && caller.n_regs.checked_add(body.n_regs + 1).is_some()
        && caller.n_slots.checked_add(body.n_slots).is_some()
        && caller.names.len() + body.names.len() <= NameIdx::MAX as usize;
    if !fits {
        return Err("the caller has no room left".to_owned());
    }
    Ok(())
}

fn intern(names: &mut Vec<String>, name: String) -> NameIdx {
    let at = names.iter().position(|n| *n == name).unwrap_or_else(|| {
        names.push(name);
        names.len() - 1
    });
    at as NameIdx
}

/// Replaces the `CallTransform` at `at` with `body`'s region (see the
/// module docs for its layout).
fn splice(caller: &mut Chunk, at: usize, body: &Chunk, sig: &HelperSig, callee: &str) {
    let Instr::CallTransform { args, dst, .. } = caller.code[at].clone() else {
        unreachable!("splice() is only called on a CallTransform");
    };
    let (reg_base, slot_base) = (caller.n_regs, caller.n_slots);
    let zero = reg_base + body.n_regs;
    caller.n_regs = zero + 1;
    caller.n_slots = slot_base + body.n_slots;
    let out = slot_base + body.output_slots[0];

    // The body and its copy-out, jump targets still relative to the
    // body's first instruction.
    let exit = body.code.len();
    let mut tail = Vec::with_capacity(exit + 1);
    for instr in &body.code {
        let mut instr = instr.clone();
        remap_regs(&mut instr, |r| reg_base + r);
        remap_slots(&mut instr, |s| slot_base + s);
        match &mut instr {
            Instr::Return => instr = Instr::Jump { target: exit },
            Instr::DepthGuard { extra } => *extra += 1,
            // Host functions are global; tunables live under the
            // callee's prefix.
            Instr::CallHost { name, .. } => {
                *name = intern(&mut caller.names, body.names[*name as usize].clone());
            }
            Instr::ForEnoughPrep { name, .. } | Instr::Choice { name, .. } => {
                let full = format!("{callee}.{}", body.names[*name as usize]);
                *name = intern(&mut caller.names, full);
            }
            _ => {}
        }
        tail.push(instr);
    }
    tail.push(Instr::CopySlot { dst, src: out });

    // Guard, argument binds, then a zero for every other slot the tail
    // can read before writing: the output slot (after the binds — an
    // output alias shadows a same-named input) and any other slot a
    // fresh frame would have supplied. (No register needs one: the
    // callee's body passed the verifier, so it defines every register
    // before reading it.)
    let mut region = vec![Instr::DepthGuard { extra: 1 }];
    for (&slot, &arg) in body.input_slots.iter().zip(&sig.arg_for_input) {
        let slot = slot_base + slot;
        region.push(match args[arg] {
            Operand::Reg(src) => Instr::StoreSlotNum { slot, src },
            Operand::Slot(src) => Instr::CopySlot { dst: slot, src },
        });
    }
    let bound = |s: u16| s != out && body.input_slots.contains(&(s - slot_base));
    let stale_slots: Vec<u16> = live_in_at_entry(&tail, Bank::Slots, &[])
        .into_iter()
        .filter(|&s| s >= slot_base && !bound(s))
        .collect();
    if !stale_slots.is_empty() {
        region.push(Instr::Const {
            dst: zero,
            val: 0.0,
        });
    }
    for slot in stale_slots {
        region.push(Instr::StoreSlotNum { slot, src: zero });
    }

    let body_base = at + region.len();
    for instr in &mut tail {
        for_each_target_mut(instr, |t| *t += body_base);
    }
    region.append(&mut tail);

    let growth = region.len() - 1;
    for instr in &mut caller.code {
        for_each_target_mut(instr, |t| {
            if *t > at {
                *t += growth;
            }
        });
    }
    caller.code.splice(at..=at, region);
}
