//! Static-analysis suite: the bytecode verifier and the abstract
//! interpreter.
//!
//! Three layers:
//!
//! 1. **Fuzz acceptance** — every program the differential suite's
//!    generators produce (straight-line bodies; scalar helpers with
//!    control flow called from loops, branches and argument positions;
//!    array loops with locals, scalar outputs and early exits) must
//!    verify clean at `O0` and through the verified `O3` pass pipeline
//!    (pass-by-pass checking on, the whole-program `inline` pass
//!    included), with the charge signature preserved end to end.
//! 2. **Hand-broken regression corpus** — chunks broken one invariant
//!    at a time must be rejected with exactly the right
//!    [`ViolationKind`], and the pass pipeline must attribute a bad
//!    *input* chunk to `lowering`. Passes whose output can break an
//!    invariant the gate checks have it broken just before their gate,
//!    which must name that pass. Whether a pass kept the program's
//!    meaning is the differential suite's to show, not this one's.
//! 3. **`ChunkFacts` pins** — the shipped kmeans and binpacking
//!    programs infer the expected per-slot shapes (arrays with rank,
//!    scalars), at both levels; the stored facts cover every optimized
//!    chunk; a call result is scalar exactly when the callee's facts
//!    prove it.
//! 4. **Register residency** — the hot loops of the shipped and ledger
//!    programs hold no slot traffic, rematerialized constant or
//!    two-dispatch back edge at `O3`, and cost no more dispatches per
//!    trip than pinned here.

mod common;

use common::{gen_array_loop_program, gen_helper_program, gen_straight_line_program};
use petabricks::lang::compile::{Chunk, Instr};
use petabricks::lang::opt::{innermost_loops, optimize_tampered};
use petabricks::lang::{
    analyze_chunk, charge_signature, check_program, compile_program, lint_program, optimize,
    parse_program, verify_chunk, verify_tunables, AbsValue, CompiledProgram, OptLevel, Program,
    ViolationKind,
};
use proptest::prelude::*;

fn example(name: &str) -> String {
    let path = format!("{}/examples/dsl/{name}.pb", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

// ---- fuzz acceptance ---------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated program's chunks verify clean at `O0`, and the
    /// full pipeline runs over them with pass-by-pass verification on
    /// (without entry facts here, with them in the two suites below) —
    /// so a pass that ever emits a malformed chunk
    /// (or moves a charge across control flow) fails here with the
    /// pass named, not in the differential suite with a diverging
    /// output.
    #[test]
    fn random_bodies_verify_clean_at_every_level(
        seed in 0u64..10_000,
        n_stmts in 1usize..12,
    ) {
        let src = gen_straight_line_program(seed, n_stmts);
        let program = parse_program(&src).unwrap();
        check_program(&program).unwrap();
        let compiled = compile_program(&program);
        let t = compiled.transform("t").unwrap();
        for chunk in &t.rules {
            verify_chunk(chunk).unwrap_or_else(|v| panic!("O0 chunk invalid: {v}\n{src}"));
            let sig = charge_signature(&chunk.code);
            for level in OptLevel::ALL {
                let opt = optimize(chunk, level, true, None)
                    .unwrap_or_else(|v| panic!("{v}\n{src}"));
                verify_chunk(&opt).unwrap_or_else(|v| panic!("{level:?} chunk invalid: {v}"));
                let opt_sig = charge_signature(&opt.code);
                prop_assert!(
                    opt_sig == sig,
                    "charge signature not preserved at {level:?}: {sig:?} -> {opt_sig:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated helper programs go through the whole-program pipeline
    /// with every gate on: `inline`, then each pass of each chunk. What comes out verifies clean and
    /// — the caller resolves every inlined tunable under its helper's
    /// prefix — against the caller's schema.
    #[test]
    fn random_helper_programs_verify_clean_at_every_level(seed in 0u64..100_000) {
        let src = gen_helper_program(seed);
        let program = parse_program(&src).unwrap();
        check_program(&program).unwrap();
        let schema = petabricks::lang::extract_schema(&program, "t");
        for level in OptLevel::ALL {
            let compiled = compile_program(&program)
                .try_optimized(level, true)
                .unwrap_or_else(|v| panic!("{v}\n{src}"));
            let chunk = compiled.chunk("t", 0).expect("generated bodies always compile");
            verify_chunk(chunk).unwrap_or_else(|v| panic!("{level:?} chunk invalid: {v}\n{src}"));
            verify_tunables(chunk, &schema, "").unwrap_or_else(|v| panic!("{level:?}: {v}\n{src}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generated array-loop programs — the shapes `promote`, chunk-wide
    /// value tracking, constant homes and loop rotation rewrite — go
    /// through every level with every gate on.
    #[test]
    fn random_array_loop_programs_verify_clean_at_every_level(seed in 0u64..100_000) {
        let src = gen_array_loop_program(seed);
        let program = parse_program(&src).unwrap();
        check_program(&program).unwrap();
        let schema = petabricks::lang::extract_schema(&program, "t");
        let lowered = compile_program(&program);
        let sig = charge_signature(&lowered.chunk("t", 0).expect("generated bodies always compile").code);
        for level in OptLevel::ALL {
            let compiled = lowered
                .clone()
                .try_optimized(level, true)
                .unwrap_or_else(|v| panic!("{v}\n{src}"));
            let chunk = compiled.chunk("t", 0).unwrap();
            verify_chunk(chunk).unwrap_or_else(|v| panic!("{level:?} chunk invalid: {v}\n{src}"));
            verify_tunables(chunk, &schema, "").unwrap_or_else(|v| panic!("{level:?}: {v}\n{src}"));
            prop_assert!(charge_signature(&chunk.code) == sig, "{level:?} moved a charge\n{src}");
        }
    }
}

/// The `CallTransform`s left in `transform`'s chunks.
fn calls_in(compiled: &CompiledProgram, transform: &str) -> usize {
    let rules = &compiled.transform(transform).unwrap().rules;
    rules
        .iter()
        .flat_map(|chunk| &chunk.code)
        .filter(|i| matches!(i, Instr::CallTransform { .. }))
        .count()
}

/// The `CallTransform`s left in all of `compiled`'s chunks.
fn calls(program: &Program, compiled: &CompiledProgram) -> usize {
    let names = program.transforms.iter().map(|t| t.name.as_str());
    names.map(|t| calls_in(compiled, t)).sum()
}

#[test]
fn generated_helper_programs_exercise_both_call_paths() {
    // The generator is only worth its cases if the inliner both fires
    // and declines on what it produces. An inlinable body makes no
    // call, so each splice takes exactly one `CallTransform` away.
    let (mut inlined, mut declined) = (0, 0);
    for seed in 0..40 {
        let program = parse_program(&gen_helper_program(seed)).unwrap();
        let mut compiled = compile_program(&program);
        let before = calls(&program, &compiled);
        compiled.inline_calls(true).unwrap();
        inlined += before - calls(&program, &compiled);
        declined += compiled.inline_skips().len();
    }
    assert!(
        inlined > 100 && declined > 10,
        "{inlined} inlined, {declined} declined"
    );
}

#[test]
fn unreachable_code_does_not_count_in_the_charge_signature() {
    // Nothing reaches the loop behind the `return`. Its charges and
    // jump targets are no part of the chunk's accounting, so a pass
    // that drops some of that code moves no charge.
    let src = "transform t from In[n] to Out {
        to (Out o) from (In a) { return; for (i in 0 .. len(a)) { if (a[i] == 1) { } } }
    }";
    let program = parse_program(src).unwrap();
    check_program(&program).unwrap();
    let lowered = compile_program(&program);
    let compiled = lowered
        .clone()
        .try_optimized(OptLevel::O3, true)
        .unwrap_or_else(|v| panic!("{v}"));
    for chunk in [lowered.chunk("t", 0), compiled.chunk("t", 0)] {
        assert_eq!(charge_signature(&chunk.unwrap().code), [1.0]);
    }
}

#[test]
fn shipped_examples_verify_clean_with_tunables() {
    for name in ["refine", "kmeans", "binpacking"] {
        let src = example(name);
        let program = parse_program(&src).unwrap();
        check_program(&program).unwrap();
        let compiled = compile_program(&program);
        for t in &program.transforms {
            let schema = petabricks::lang::extract_schema(&program, &t.name);
            let ct = compiled.transform(&t.name).unwrap();
            for chunk in &ct.rules {
                verify_chunk(chunk).unwrap();
                let opt = optimize(chunk, OptLevel::O3, true, None).unwrap();
                verify_tunables(&opt, &schema, "").unwrap();
            }
        }
    }
}

// ---- hand-broken regression corpus -------------------------------------

fn chunk(code: Vec<Instr>, n_regs: u16, n_slots: u16, names: Vec<&str>) -> Chunk {
    Chunk {
        label: "broken::r0".into(),
        code,
        names: names.into_iter().map(String::from).collect(),
        n_regs,
        n_slots,
        input_slots: vec![],
        output_slots: vec![],
        moves: vec![],
    }
}

#[test]
fn corpus_bad_jump_target() {
    let c = chunk(
        vec![Instr::Const { dst: 0, val: 0.0 }, Instr::Jump { target: 9 }],
        1,
        0,
        vec![],
    );
    let v = verify_chunk(&c).unwrap_err();
    assert_eq!(v.kind, ViolationKind::BadJumpTarget);
    assert_eq!(v.at, 1);
}

#[test]
fn corpus_bad_fused_jump_target() {
    // The fused compare-and-branch and back-edge forms carry their own
    // targets; both must be range-checked too.
    let cmp = chunk(
        vec![
            Instr::Const { dst: 0, val: 0.0 },
            Instr::JumpCmpImm {
                op: petabricks::lang::ast::BinOp::Lt,
                a: 0,
                imm: 1.0,
                jump_if: true,
                target: 77,
            },
        ],
        1,
        0,
        vec![],
    );
    assert_eq!(
        verify_chunk(&cmp).unwrap_err().kind,
        ViolationKind::BadJumpTarget
    );
    let back_edge = chunk(
        vec![
            Instr::Const { dst: 0, val: 0.0 },
            Instr::JumpIfGe {
                a: 0,
                b: 0,
                target: 77,
            },
            Instr::LoopNext {
                ctr: 0,
                imm: 1.0,
                a: 0,
                b: 0,
                exit: 77,
                body: 2,
                charge: 0.0,
            },
        ],
        1,
        0,
        vec![],
    );
    let v = verify_chunk(&back_edge).unwrap_err();
    assert_eq!((v.kind, v.at), (ViolationKind::BadJumpTarget, 1));
    let mut past_end = back_edge.clone();
    past_end.code[1] = Instr::JumpIfGe {
        a: 0,
        b: 0,
        target: 3,
    };
    past_end.code[2] = Instr::LoopNext {
        ctr: 0,
        imm: 1.0,
        a: 0,
        b: 0,
        exit: 3,
        body: 77,
        charge: 0.0,
    };
    let v = verify_chunk(&past_end).unwrap_err();
    assert_eq!((v.kind, v.at), (ViolationKind::BadJumpTarget, 2));
}

#[test]
fn corpus_use_before_def_straight_line() {
    let c = chunk(vec![Instr::StoreSlotNum { slot: 0, src: 3 }], 4, 1, vec![]);
    let v = verify_chunk(&c).unwrap_err();
    assert_eq!(v.kind, ViolationKind::UseBeforeDef);
    assert_eq!(v.at, 0);
}

#[test]
fn corpus_use_before_def_one_sided_branch() {
    // r1 is defined only when the branch is taken; reading it at the
    // join must be rejected (must-defined, not may-defined).
    let c = chunk(
        vec![
            Instr::Const { dst: 0, val: 1.0 },
            Instr::JumpIfZero { cond: 0, target: 3 },
            Instr::Const { dst: 1, val: 2.0 },
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
fn corpus_slot_out_of_bounds() {
    let c = chunk(
        vec![
            Instr::Const { dst: 0, val: 0.0 },
            Instr::StoreSlotNum { slot: 2, src: 0 },
        ],
        1,
        2,
        vec![],
    );
    let v = verify_chunk(&c).unwrap_err();
    assert_eq!(v.kind, ViolationKind::SlotOutOfBounds);
    assert_eq!(v.at, 1);
}

#[test]
fn corpus_reg_out_of_bounds() {
    let c = chunk(vec![Instr::Const { dst: 4, val: 0.0 }], 2, 0, vec![]);
    assert_eq!(
        verify_chunk(&c).unwrap_err().kind,
        ViolationKind::RegOutOfBounds
    );
}

#[test]
fn corpus_name_out_of_bounds() {
    let c = chunk(
        vec![Instr::LoadParam { dst: 0, name: 1 }],
        1,
        0,
        vec!["only_one"],
    );
    assert_eq!(
        verify_chunk(&c).unwrap_err().kind,
        ViolationKind::NameOutOfBounds
    );
}

#[test]
fn corpus_unguarded_switch() {
    // A Switch not fed by its clamping Choice can dispatch out of
    // range; the verifier requires the guard.
    let c = chunk(
        vec![
            Instr::Const { dst: 0, val: 7.0 },
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
    assert_eq!(
        verify_chunk(&c).unwrap_err().kind,
        ViolationKind::UnguardedSwitch
    );
}

#[test]
fn corpus_bad_charge() {
    for amount in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
        let c = chunk(vec![Instr::Charge { amount }], 0, 0, vec![]);
        assert_eq!(
            verify_chunk(&c).unwrap_err().kind,
            ViolationKind::BadCharge,
            "amount {amount}"
        );
    }
}

#[test]
fn corpus_bad_operator() {
    let c = chunk(
        vec![
            Instr::Const { dst: 0, val: 1.0 },
            Instr::BinRI {
                op: petabricks::lang::ast::BinOp::Or,
                dst: 1,
                a: 0,
                imm: 0.0,
            },
        ],
        2,
        0,
        vec![],
    );
    assert_eq!(
        verify_chunk(&c).unwrap_err().kind,
        ViolationKind::BadOperator
    );
}

#[test]
fn corpus_bad_input_chunk_attributed_to_lowering() {
    let c = chunk(vec![Instr::Jump { target: 9 }], 0, 0, vec![]);
    let err = optimize(&c, OptLevel::O3, true, None).unwrap_err();
    assert_eq!(err.pass, "lowering");
    assert_eq!(err.violation.kind, ViolationKind::BadJumpTarget);
}

#[test]
fn corpus_unknown_and_mismatched_tunables() {
    // Verify the refine chunk against the metric transform's schema
    // (which has no tunables): every tunable reference is unknown.
    let src = example("refine");
    let program = parse_program(&src).unwrap();
    let compiled = compile_program(&program);
    let refine = compiled.chunk("refine", 0).unwrap();
    let empty = petabricks::lang::extract_schema(&program, "refineacc");
    assert_eq!(
        verify_tunables(refine, &empty, "").unwrap_err().kind,
        ViolationKind::UnknownTunable
    );

    // And a Choice whose branch count disagrees with the schema's
    // choice site is a mismatch.
    let schema = petabricks::lang::extract_schema(&program, "refine");
    let mut tampered = refine.clone();
    for instr in &mut tampered.code {
        if let Instr::Choice { branches, .. } = instr {
            *branches = 3;
        }
    }
    assert_eq!(
        verify_tunables(&tampered, &schema, "").unwrap_err().kind,
        ViolationKind::TunableMismatch
    );
}

// ---- hand-broken register-residency passes -----------------------------

/// `t`'s lowered rule 0 with the entry state the program optimizes
/// against.
fn lowered(src: &str) -> (Chunk, Vec<AbsValue>) {
    let program = parse_program(src).unwrap();
    check_program(&program).unwrap();
    let compiled = compile_program(&program);
    let entry = compiled.facts("t", 0).unwrap().entry_slots.clone();
    (compiled.chunk("t", 0).unwrap().clone(), entry)
}

/// Runs the verified `O3` pipeline over `chunk` with `tamper` applied
/// to the output of `pass`, and returns the pass and violation kind the
/// gates name.
fn broken_by(
    chunk: &Chunk,
    entry: &[AbsValue],
    pass: &'static str,
    mut tamper: impl FnMut(&mut Vec<Instr>),
) -> (&'static str, ViolationKind) {
    optimize(chunk, OptLevel::O3, true, None).expect("the chunk is fine untampered");
    let err = optimize_tampered(chunk, OptLevel::O3, Some(entry), pass, &mut tamper)
        .expect_err("the gates must reject the tampered pass output");
    (err.pass, err.violation.kind)
}

#[test]
fn corpus_promoted_binding_loses_its_entry_load() {
    // `w` is read before it is written: its home register is only
    // defined by the load `promote` opens the chunk with.
    let (chunk, entry) = lowered(
        "transform t from In[n] to Out[n], W { to (Out o, W w) from (In a) { w = w + a[0]; } }",
    );
    let w = chunk.output_slots[1];
    let got = broken_by(&chunk, &entry, "promote", |code| {
        assert!(matches!(code[0], Instr::LoadSlotNum { slot, .. } if slot == w));
        code[0] = Instr::Nop;
    });
    assert_eq!(got, ("promote", ViolationKind::UseBeforeDef));
}

#[test]
fn corpus_constant_home_used_before_its_entry_const() {
    let (chunk, entry) = lowered(
        "transform t from In[n], Grid[2, m] to Out[n] {
            to (Out o) from (In a, Grid g) {
                for (i in 0 .. len(a)) { o[i] = g[0, i] + g[1, i]; }
            }
        }",
    );
    let got = broken_by(&chunk, &entry, "const_homes", |code| {
        assert!(matches!(code[0], Instr::Const { .. }));
        code[0] = Instr::Nop;
    });
    assert_eq!(got, ("const_homes", ViolationKind::UseBeforeDef));
}

#[test]
fn corpus_fused_back_edge_that_does_not_replay_its_head() {
    // A rotated back edge must repeat its head's test with the head's
    // exit and charge what the head's `Charge` does; the gate after
    // rotation names a back edge that differs in either.
    let (chunk, entry) = lowered(
        "transform t from In[n] to Out[n] {
            to (Out o) from (In a) {
                for (i in 0 .. len(a)) { o[i] = a[i] + 1; }
            }
        }",
    );
    type Break = fn(&mut f64, &mut usize, &mut usize);
    let breaks: [(&str, Break); 4] = [
        ("a different charge", |charge, _, _| *charge += 1.0),
        ("a charge it skips", |charge, _, _| *charge = 0.0),
        ("a body past the first statement", |_, body, _| *body += 1),
        ("another exit", |_, _, exit| *exit -= 1),
    ];
    for (what, break_it) in breaks {
        let got = broken_by(&chunk, &entry, "rotate", |code| {
            let (charge, body, exit) = code
                .iter_mut()
                .find_map(|i| match i {
                    Instr::LoopNext {
                        charge, body, exit, ..
                    } => Some((charge, body, exit)),
                    _ => None,
                })
                .expect("the loop rotates");
            assert_eq!(*charge, 1.0, "the body's one statement");
            break_it(charge, body, exit);
        });
        assert_eq!(got, ("rotate", ViolationKind::BadBackEdge), "{what}");
    }
}

#[test]
fn instructions_stay_five_words() {
    // The widest variants, `LoopNext` among them, take 40 bytes; a
    // later one that grows every instruction past that should be a
    // visible choice.
    assert_eq!(std::mem::size_of::<Instr>(), 40);
}

// ---- ChunkFacts pins ---------------------------------------------------

/// `total` is no scalar helper (array input) but its facts prove its
/// output scalar; `leak` assigns its array input to its scalar-declared
/// output, so its facts cannot.
const CALL_RESULTS: &str = r#"
    transform t from In[n] to Out[n] {
        to (Out o) from (In a) {
            o[0] = twice(total(a));
            let d = total(a);
            o[1] = twice(d);
        }
    }
    transform u from In[n] to Out[n] {
        to (Out o) from (In a) { o[0] = twice(leak(a)); }
    }
    transform twice from X to R {
        to (R r) from (X x) { r = x * 2; }
    }
    transform total from V[m] to S {
        to (S s) from (V v) {
            for (i in 0 .. len(v)) { s = s + v[i]; }
        }
    }
    transform leak from V[m] to S {
        to (S s) from (V v) { s = v; }
    }
"#;

#[test]
fn call_results_are_scalar_exactly_when_the_callee_proves_it() {
    let program = parse_program(CALL_RESULTS).unwrap();
    check_program(&program).unwrap();
    let mut compiled = compile_program(&program);
    let before = ["t", "u"].map(|t| calls_in(&compiled, t));
    compiled.inline_calls(true).unwrap();
    assert_eq!(compiled.transform("total").unwrap().scalar_out, Some(true));
    assert_eq!(compiled.transform("leak").unwrap().scalar_out, Some(false));

    // `twice(total(a))` and `twice(d)` inline; `twice(leak(a))` cannot.
    let after = ["t", "u"].map(|t| calls_in(&compiled, t));
    assert_eq!((before[0] - after[0], before[1] - after[1]), (2, 0));
    let skips = compiled.inline_skips();
    assert_eq!(skips.len(), 1, "{skips:?}");
    assert_eq!(
        (skips[0].chunk.as_str(), skips[0].callee.as_str()),
        ("u::r0", "twice")
    );
    assert!(
        skips[0].reason.contains("not provably a scalar"),
        "{skips:?}"
    );

    // The stamp is what the facts see: a proven call's destination is
    // a scalar slot, the unproven one's is anything.
    for (transform, callee, proven) in [("t", "total", true), ("u", "leak", false)] {
        let chunk = compiled.chunk(transform, 0).unwrap();
        let facts = compiled.facts(transform, 0).unwrap();
        let mut calls = 0;
        for instr in &chunk.code {
            if let Instr::CallTransform {
                name, dst, scalar, ..
            } = instr
            {
                if chunk.names[*name as usize] == callee {
                    calls += 1;
                    assert_eq!(*scalar, proven);
                    assert_eq!(facts.slots[*dst as usize] == AbsValue::Scalar, proven);
                }
            }
        }
        assert!(calls > 0, "{transform} calls {callee}");
    }
}

/// The facts for `transform`'s rule `rule_idx` of `src`, computed at
/// `level` through the public compile → optimize path.
fn facts_at(
    src: &str,
    transform: &str,
    rule_idx: usize,
    level: OptLevel,
) -> petabricks::lang::ChunkFacts {
    let program = parse_program(src).unwrap();
    let compiled = compile_program(&program).optimized(level);
    compiled.facts(transform, rule_idx).unwrap().clone()
}

fn slot_of(
    src: &str,
    transform: &str,
    rule_idx: usize,
    level: OptLevel,
    binding: Binding,
) -> usize {
    let program = parse_program(src).unwrap();
    let compiled = compile_program(&program).optimized(level);
    let chunk = compiled.chunk(transform, rule_idx).unwrap();
    match binding {
        Binding::Input(i) => chunk.input_slots[i] as usize,
        Binding::Output(i) => chunk.output_slots[i] as usize,
    }
}

enum Binding {
    Input(usize),
    Output(usize),
}

#[test]
fn kmeans_facts_pin_expected_kinds() {
    let src = example("kmeans");
    for level in OptLevel::ALL {
        // Rule 2: to (Assignments a) from (Points p, Centroids c).
        let facts = facts_at(&src, "kmeans", 2, level);
        let points = slot_of(&src, "kmeans", 2, level, Binding::Input(0));
        let centroids = slot_of(&src, "kmeans", 2, level, Binding::Input(1));
        let assignments = slot_of(&src, "kmeans", 2, level, Binding::Output(0));
        assert_eq!(
            facts.slots[points],
            AbsValue::Array { rank: 2 },
            "{level:?}"
        );
        assert_eq!(
            facts.slots[centroids],
            AbsValue::Array { rank: 2 },
            "{level:?}"
        );
        assert_eq!(
            facts.slots[assignments],
            AbsValue::Array { rank: 1 },
            "{level:?}"
        );

        // Rule 0 (random restarts): to (Centroids c) from (Points p).
        let facts0 = facts_at(&src, "kmeans", 0, level);
        let p0 = slot_of(&src, "kmeans", 0, level, Binding::Input(0));
        let c0 = slot_of(&src, "kmeans", 0, level, Binding::Output(0));
        assert_eq!(facts0.slots[p0], AbsValue::Array { rank: 2 }, "{level:?}");
        assert_eq!(facts0.slots[c0], AbsValue::Array { rank: 2 }, "{level:?}");
    }
}

#[test]
fn binpacking_facts_pin_expected_kinds() {
    let src = example("binpacking");
    for level in OptLevel::ALL {
        let facts = facts_at(&src, "binpack", 0, level);
        let sizes = slot_of(&src, "binpack", 0, level, Binding::Input(0));
        let bins = slot_of(&src, "binpack", 0, level, Binding::Output(0));
        let used = slot_of(&src, "binpack", 0, level, Binding::Output(1));
        assert_eq!(facts.slots[sizes], AbsValue::Array { rank: 1 }, "{level:?}");
        assert_eq!(facts.slots[bins], AbsValue::Array { rank: 1 }, "{level:?}");
        // `Used` is declared scalar and only ever assigned scalars; the
        // join across entry and stores keeps it a scalar, never an array.
        assert_eq!(facts.slots[used], AbsValue::Scalar, "{level:?}");

        // The metric rule: Accuracy output is a scalar.
        let mfacts = facts_at(&src, "binpackacc", 0, level);
        let acc = slot_of(&src, "binpackacc", 0, level, Binding::Output(0));
        assert_eq!(mfacts.slots[acc], AbsValue::Scalar, "{level:?}");
    }
}

#[test]
fn facts_refresh_after_optimization() {
    // Optimizing does not re-infer: the stored facts describe the chunk
    // `promote` and `inline` consumed. They must cover the optimized
    // chunk — every shape a slot takes there within its stored fact —
    // for every rule of every shipped program.
    let mut chunks = 0;
    for (name, src) in ledger_programs() {
        let program = parse_program(&src).unwrap();
        let compiled = compile_program(&program).optimized(OptLevel::O3);
        for t in &program.transforms {
            let rules = &compiled.transform(&t.name).unwrap().rules;
            for (r, chunk) in rules.iter().enumerate() {
                let stored = compiled.facts(&t.name, r).unwrap();
                let fresh = analyze_chunk(chunk, &stored.entry_slots);
                assert_eq!(fresh.slots.len(), stored.slots.len(), "{name}");
                for (s, (now, kept)) in fresh.slots.iter().zip(&stored.slots).enumerate() {
                    assert_eq!(now.join(*kept), *kept, "{name}: {} s{s}", chunk.label);
                }
                chunks += 1;
            }
        }
    }
    assert!(chunks >= 16, "{chunks} chunks");
}

#[test]
fn entry_slots_come_from_declarations() {
    let src = example("kmeans");
    let compiled = compile_program(&parse_program(&src).unwrap());
    let chunk = compiled.chunk("kmeans", 2).unwrap();
    let entry = &compiled.facts("kmeans", 2).unwrap().entry_slots;
    assert_eq!(
        entry[chunk.input_slots[0] as usize],
        AbsValue::Array { rank: 2 }
    );
    assert_eq!(
        entry[chunk.output_slots[0] as usize],
        AbsValue::Array { rank: 1 }
    );
}

// ---- register residency ------------------------------------------------

/// Every program `tune_dsl` and `serve_tuned` run.
fn ledger_programs() -> Vec<(&'static str, String)> {
    let mut programs: Vec<_> = ["refine", "kmeans", "binpacking"]
        .map(|name| (name, example(name)))
        .into();
    for name in ["lloyd", "relax"] {
        let path = format!("{}/ledger/programs/{name}.pb", env!("CARGO_MANIFEST_DIR"));
        programs.push((name, std::fs::read_to_string(&path).unwrap()));
    }
    programs
}

#[test]
fn hot_loops_are_register_resident() {
    // Inside an innermost loop at `O3`: no `Choice` or `Switch`, no
    // scalar slot traffic, no constant rematerialized for an operand, no
    // `Jump` that only reaches the back edge — except these, each with
    // its reason.
    let allowed = |label: &str, instr: &Instr| match (label, instr) {
        // `fill = 0`, the next-fit arm opening a bin: an assignment to
        // a register-resident local, not an operand.
        ("binpack::r0", Instr::Const { val, .. }) => *val == 0.0,
        _ => false,
    };
    // Dispatches on the shortest trip round each innermost loop, in
    // code order (the lowered programs' counts in the comments). A loop
    // whose body is one `either` lowers unswitched, one loop per arm.
    let ceilings: [(&str, &[usize]); 4] = [
        // Seeding loop (18); distance loop on the not-closer path (24);
        // accumulate loop on the not-equal path (10).
        ("lloyd::r2", &[5, 9, 3]),
        // The next-fit arm on the path that keeps its bin (25); the
        // round-robin arm (11).
        ("binpack::r0", &[8, 3]),
        // The halving arm (14); the quartering arm (14).
        ("refine::r0", &[3, 3]),
        // Jacobi sweep (19), copy-back (9), Gauss-Seidel sweep (19): the
        // `for_enough` round them is unswitched, they are not.
        ("relax::r0", &[12, 3, 12]),
    ];
    let mut checked = 0;
    for (name, src) in ledger_programs() {
        let program = parse_program(&src).unwrap();
        let compiled = compile_program(&program)
            .try_optimized(OptLevel::O3, true)
            .unwrap();
        for t in &program.transforms {
            for chunk in &compiled.transform(&t.name).unwrap().rules {
                let loops = innermost_loops(&chunk.code);
                for l in &loops {
                    for i in l.head..=l.last {
                        let instr = &chunk.code[i];
                        let cold = match instr {
                            Instr::LoadSlotNum { .. }
                            | Instr::StoreSlotNum { .. }
                            | Instr::CopySlot { .. }
                            | Instr::Const { .. } => true,
                            Instr::Jump { target } => {
                                matches!(chunk.code.get(*target), Some(Instr::LoopNext { .. }))
                            }
                            _ => false,
                        };
                        assert!(
                            !cold || allowed(&chunk.label, instr),
                            "{name}: `{}` dispatches {instr:?} at {i}, inside the loop at {}:\n{}",
                            chunk.label,
                            l.head,
                            chunk.disassemble()
                        );
                        // A counted loop's back edge is one rotated
                        // dispatch, never `AddImm` + `Jump`.
                        assert!(
                            !matches!(instr, Instr::AddImm { .. }),
                            "{name}: `{}` steps a counter apart from its back edge at {i}:\n{}",
                            chunk.label,
                            chunk.disassemble()
                        );
                        // A choice is resolved once per invocation, not
                        // once per trip.
                        assert!(
                            !matches!(instr, Instr::Choice { .. } | Instr::Switch { .. }),
                            "{name}: `{}` dispatches {instr:?} at {i}, inside the loop at {}:\n{}",
                            chunk.label,
                            l.head,
                            chunk.disassemble()
                        );
                    }
                }
                if chunk.label == "binpack::r0" {
                    // `fill + s[i]` and `fill = fill + s[i]` read `s[i]`
                    // once between them.
                    let next_fit = &chunk.code[loops[0].head..=loops[0].last];
                    let sizes = chunk.input_slots[0];
                    let loads = next_fit
                        .iter()
                        .filter(|i| matches!(i, Instr::LoadIdx1 { slot, .. } if *slot == sizes))
                        .count();
                    assert_eq!(loads, 1, "{}", chunk.disassemble());
                }
                if let Some((_, want)) = ceilings.iter().find(|(label, _)| *label == chunk.label) {
                    let got: Vec<usize> = loops.iter().map(|l| l.shortest_trip).collect();
                    assert_eq!(got.len(), want.len(), "{}", chunk.disassemble());
                    assert!(
                        got.iter().zip(*want).all(|(g, w)| g <= w),
                        "`{}` dispatches {got:?} per trip, ceilings {want:?}:\n{}",
                        chunk.label,
                        chunk.disassemble()
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, ceilings.len());
}

#[test]
fn lint_names_the_scalars_left_in_slots() {
    // `x` is a number when it is added to, but it was an array first:
    // its slot must stay a `Value`, and the lint says why.
    let program = parse_program(
        "transform t from In[n] to Out[n] {
            to (Out o) from (In a) {
                let x = a;
                o[0] = x[0];
                x = 0;
                for (i in 0 .. len(a)) { x = x + a[i]; }
                o[1] = x;
            }
        }",
    )
    .unwrap();
    check_program(&program).unwrap();
    let lints = lint_program(&program);
    assert!(
        lints.iter().any(|l| l
            .message
            .contains("scalar `x` stays in a slot: it is used as an array")),
        "{lints:?}"
    );
    for (name, src) in ledger_programs() {
        let lints = lint_program(&parse_program(&src).unwrap());
        assert!(lints.is_empty(), "{name}: {lints:?}");
    }
}
