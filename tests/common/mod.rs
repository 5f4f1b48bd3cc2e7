//! Shared helpers for the integration tests: the random DSL program
//! generators used by both the differential suite (`vm_differential`)
//! and the static-analysis suite (`analysis`), so every program shape
//! the VM is fuzzed on is also fuzzed through the verifier.

#![allow(dead_code)] // each suite uses its own subset

use petabricks::config::{Config, DecisionTree, Schema, TunableKind, Value as ConfigValue};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What an expression may mention: the scalar variables in scope,
/// whether the rule's input array `a` (four elements) is, and the
/// helper transforms `(name, arity)` it may call.
struct Scope<'a> {
    vars: &'a [String],
    array: bool,
    callees: &'a [(String, usize)],
}

/// Builds a random scalar expression over the scope. Depth is bounded;
/// division, remainder, comparisons, short-circuit logic, builtins,
/// `rand`, and — where the scope has callees — helper calls whose
/// arguments are expressions in turn are all fair game: both executors
/// must agree bit for bit whatever comes out (including NaN and
/// infinities).
fn gen_expr(rng: &mut SmallRng, scope: &Scope<'_>, depth: usize) -> String {
    let vars = scope.vars;
    let leaf = depth == 0 || rng.gen_range(0..10) < 3;
    if leaf {
        match rng.gen_range(0..4) {
            0 => format!("{}", rng.gen_range(-4..6)),
            1 => format!("{}.5", rng.gen_range(0..3)),
            2 if scope.array => format!("a[{}]", rng.gen_range(0..4)),
            _ => vars[rng.gen_range(0..vars.len())].clone(),
        }
    } else if !scope.callees.is_empty() && rng.gen_range(0..4) == 0 {
        let (name, arity) = &scope.callees[rng.gen_range(0..scope.callees.len())];
        let args: Vec<String> = (0..*arity)
            .map(|_| gen_expr(rng, scope, depth - 1))
            .collect();
        format!("{name}({})", args.join(", "))
    } else {
        let a = gen_expr(rng, scope, depth - 1);
        let b = gen_expr(rng, scope, depth - 1);
        match rng.gen_range(0..14) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * {b})"),
            3 => format!("({a} / {b})"),
            4 => format!("({a} % {b})"),
            5 => format!("({a} < {b})"),
            6 => format!("({a} >= {b})"),
            7 => format!("({a} == {b})"),
            8 => format!("({a} && {b})"),
            9 => format!("({a} || {b})"),
            10 => format!("min({a}, {b})"),
            11 => format!("max({a}, abs({b}))"),
            12 => format!("floor(({a}) + sqrt(abs({b})))"),
            // min() absorbs NaN/infinite bounds (f64::min returns the
            // finite side), so the range below is always valid.
            _ => format!("rand(0, min(abs({a}), 9))"),
        }
    }
}

/// Builds a random straight-line rule body: `let` bindings,
/// re-assignments, and constant-indexed array writes, all scalar.
pub fn gen_straight_line_program(seed: u64, n_stmts: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut vars: Vec<String> = vec!["acc".to_string()];
    let mut body = String::new();
    for i in 0..n_stmts {
        let scope = Scope {
            vars: &vars,
            array: true,
            callees: &[],
        };
        let expr = gen_expr(&mut rng, &scope, 3);
        match rng.gen_range(0..4) {
            0 => {
                let name = format!("v{i}");
                body.push_str(&format!("let {name} = {expr};\n"));
                vars.push(name);
            }
            1 => {
                let target = vars[rng.gen_range(0..vars.len())].clone();
                body.push_str(&format!("{target} = {expr};\n"));
            }
            2 => body.push_str(&format!("o[{}] = {expr};\n", rng.gen_range(0..4))),
            _ => body.push_str(&format!("acc = {expr};\n")),
        }
    }
    format!(
        r#"transform t from In[n] to Out[n], Acc {{
            to (Out o, Acc acc) from (In a) {{
                {body}
            }}
        }}"#
    )
}

/// One random statement of a helper body. Every variable it assigns is
/// already declared (the compiler rejects reads of conditionally
/// assigned names), so nested blocks only re-assign; loops are
/// counted or `for_enough`, so every program terminates.
fn gen_helper_stmt(rng: &mut SmallRng, scope: &Scope<'_>, locals: &[String], id: usize) -> String {
    // Mostly shallow, so most helpers fit the inliner's size cap.
    let expr = |rng: &mut SmallRng| {
        let depth = if rng.gen_range(0..4) == 0 { 2 } else { 1 };
        gen_expr(rng, scope, depth)
    };
    let target = |rng: &mut SmallRng| match rng.gen_range(0..3) {
        0 if !locals.is_empty() => locals[rng.gen_range(0..locals.len())].clone(),
        _ => "r".to_string(),
    };
    match rng.gen_range(0..9) {
        0 | 1 => format!("{} = {};\n", target(rng), expr(rng)),
        2 => format!(
            "if ({}) {{ {} = {}; }} else {{ {} = {}; }}\n",
            expr(rng),
            target(rng),
            expr(rng),
            target(rng),
            expr(rng)
        ),
        3 => format!("if ({}) {{ r = r + {}; }}\n", expr(rng), expr(rng)),
        4 => format!(
            "let w{id} = 0;\nwhile (w{id} < {}) {{ r = r + {}; w{id} = w{id} + 1; }}\n",
            rng.gen_range(0..4),
            expr(rng)
        ),
        5 => format!(
            "either {{ {} = {}; }} or {{ r = {}; {} = {}; }}\n",
            target(rng),
            expr(rng),
            expr(rng),
            target(rng),
            expr(rng)
        ),
        6 => format!("for_enough {{ r = r * 0.5 + {}; }}\n", expr(rng)),
        7 => format!(
            "for (q{id} in 0 .. {}) {{ r = r + q{id} * {}; }}\n",
            rng.gen_range(0..3),
            expr(rng)
        ),
        _ => format!("if ({}) {{ return; }}\n", expr(rng)),
    }
}

/// Builds a random program of scalar helper transforms and a rule that
/// calls them from every position a call can sit in:
///
/// * helpers `h0..` take one to three scalars and produce one; their
///   bodies mix straight-line code with `if`, counted `while` and
///   `for`, `either`, `for_enough`, early `return`, `rand`, reads of
///   the zero-initialized output, and calls to lower-numbered helpers
///   (so the call graph is acyclic and at most six deep);
/// * the caller `t` invokes them from counted loops (zero-trip
///   included), from both branches of an `if`, nested as each other's
///   arguments, through a `let`-bound result, and from a `while`.
///
/// [`random_config`] picks the `either`/`for_enough` tunables the
/// helpers introduce under their `<helper>.` prefixes.
pub fn gen_helper_program(seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_helpers = rng.gen_range(2..6);
    let mut helpers: Vec<(String, usize)> = Vec::new();
    let mut text = String::new();
    for h in 0..n_helpers {
        let arity = rng.gen_range(1..4);
        let params: Vec<String> = (0..arity).map(|p| format!("x{p}")).collect();
        let n_locals = rng.gen_range(0..3);
        let locals: Vec<String> = (0..n_locals).map(|l| format!("l{l}")).collect();
        let mut vars = params.clone();
        vars.push("r".to_string());
        let mut body = String::new();
        for local in &locals {
            let scope = Scope {
                vars: &vars,
                array: false,
                callees: &helpers,
            };
            body.push_str(&format!(
                "let {local} = {};\n",
                gen_expr(&mut rng, &scope, 1)
            ));
            vars.push(local.clone());
        }
        let scope = Scope {
            vars: &vars,
            array: false,
            callees: &helpers,
        };
        for s in 0..rng.gen_range(1..4) {
            body.push_str(&gen_helper_stmt(&mut rng, &scope, &locals, s));
        }
        let from: Vec<String> = (0..arity).map(|p| format!("X{p}")).collect();
        let binds: Vec<String> = (0..arity).map(|p| format!("X{p} x{p}")).collect();
        text.push_str(&format!(
            "transform h{h} from {} to R {{\n to (R r) from ({}) {{\n{body}}}\n}}\n",
            from.join(", "),
            binds.join(", ")
        ));
        helpers.push((format!("h{h}"), arity));
    }

    let vars = vec!["acc".to_string()];
    let scope = Scope {
        vars: &vars,
        array: true,
        callees: &helpers,
    };
    let call = |rng: &mut SmallRng, args: &dyn Fn(&mut SmallRng, usize) -> String| {
        let (name, arity) = &helpers[rng.gen_range(0..helpers.len())];
        let args: Vec<String> = (0..*arity).map(|p| args(rng, p)).collect();
        format!("{name}({})", args.join(", "))
    };
    let any_arg = |rng: &mut SmallRng, _: usize| gen_expr(rng, &scope, 1);
    let mut body = String::new();
    for s in 0..rng.gen_range(2..6) {
        body.push_str(&match rng.gen_range(0..6) {
            // Counted loop, zero-trip included; the loop variable and
            // an array element are the arguments.
            0 => format!(
                "for (i{s} in 0 .. {}) {{ acc = acc + {}; }}\n",
                [0, 1, 3, 4][rng.gen_range(0..4)],
                call(&mut rng, &|_, p| if p == 0 {
                    format!("a[i{s}]")
                } else {
                    format!("i{s}")
                })
            ),
            // Both branches of an `if`.
            1 => format!(
                "if ({}) {{ o[0] = {}; }} else {{ o[1] = {}; }}\n",
                gen_expr(&mut rng, &scope, 1),
                call(&mut rng, &any_arg),
                call(&mut rng, &any_arg)
            ),
            // Calls nested as arguments.
            2 => format!("acc = {};\n", call(&mut rng, &|rng, _| call(rng, &any_arg))),
            // A `let`-bound result fed to the next call.
            3 => format!(
                "let d{s} = {};\no[2] = {};\n",
                call(&mut rng, &any_arg),
                call(&mut rng, &|_, _| format!("d{s}"))
            ),
            // From a `while`.
            4 => format!(
                "let w{s} = 0;\nwhile (w{s} < 2) {{ acc = acc + {}; w{s} = w{s} + 1; }}\n",
                call(&mut rng, &|_, p| if p == 0 {
                    format!("w{s}")
                } else {
                    "acc".to_string()
                })
            ),
            _ => format!("o[3] = {};\n", gen_expr(&mut rng, &scope, 3)),
        });
    }
    format!(
        "transform t from In[n] to Out[n], Acc {{\n to (Out o, Acc acc) from (In a) {{\n{body}}}\n}}\n{text}"
    )
}

/// A configuration drawn from `seed`: every choice site picks one of
/// its algorithms and every accuracy variable a small legal value, so
/// the `either`/`for_enough` sites of generated helpers take different
/// paths from case to case.
pub fn random_config(schema: &Schema, seed: u64) -> Config {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut config = schema.default_config();
    let tunables: Vec<(String, TunableKind)> = schema
        .iter()
        .map(|(_, t)| (t.name().to_owned(), *t.kind()))
        .collect();
    for (name, kind) in tunables {
        let value = match kind {
            TunableKind::ChoiceSite { num_algorithms } => {
                ConfigValue::Tree(DecisionTree::single(rng.gen_range(0..num_algorithms)))
            }
            TunableKind::AccuracyVariable { min, max } => {
                ConfigValue::Int(rng.gen_range(min..=max.min(min + 3)))
            }
            _ => continue,
        };
        config
            .set_by_name(schema, &name, value)
            .unwrap_or_else(|e| panic!("`{name}`: {e}"));
    }
    config
}
