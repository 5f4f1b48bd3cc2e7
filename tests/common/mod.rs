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
/// already declared (`check_program` rejects reads of conditionally
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

/// State threaded through [`gen_array_stmts`]: the names in scope by
/// kind, and counters for fresh names.
struct ArrayGen {
    rng: SmallRng,
    /// Scalar locals (and the scalar outputs) definitely assigned here.
    scalars: Vec<String>,
    /// Loop variables of the enclosing counted loops, innermost last.
    loop_vars: Vec<String>,
    /// Locals currently bound to the input array.
    aliases: Vec<String>,
    /// Enclosing loops and branches (a local array is only indexed
    /// when declared outside all of them, so it is definitely bound).
    nesting: usize,
    fresh: usize,
}

impl ArrayGen {
    fn pick<'a>(&mut self, from: &'a [String]) -> &'a str {
        &from[self.rng.gen_range(0..from.len())]
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    /// An index expression: mostly the innermost loop variable or a
    /// small constant (in range for the inputs the suites feed), now
    /// and then an offset or a stray scalar that may fall outside —
    /// the error that raises must be the same at every level.
    fn index(&mut self) -> String {
        match self.rng.gen_range(0..12) {
            0..=5 if !self.loop_vars.is_empty() => self.loop_vars.last().unwrap().clone(),
            6 if !self.loop_vars.is_empty() => format!("{} + 1", self.loop_vars[0]),
            7 if !self.loop_vars.is_empty() => format!("{} - 1", self.loop_vars.last().unwrap()),
            8 => {
                let scalars = self.scalars.clone();
                self.pick(&scalars).to_owned()
            }
            _ => format!("{}", self.rng.gen_range(0..3)),
        }
    }

    fn leaf(&mut self) -> String {
        match self.rng.gen_range(0..10) {
            // The same small constants serve as operands here and as
            // indices above.
            0 | 1 => format!("{}", self.rng.gen_range(0..3)),
            2 => "0.5".to_owned(),
            3 => format!("a[{}]", self.index()),
            // Read back what the loops store (a repeated load must see
            // the store in between).
            9 => format!("o[{}]", self.index()),
            4 => format!("g[{}, {}]", self.rng.gen_range(0..2), self.index()),
            5 if !self.loop_vars.is_empty() => {
                let vars = self.loop_vars.clone();
                self.pick(&vars).to_owned()
            }
            6 => ["len(a)", "cols(g)", "len(o)"][self.rng.gen_range(0..3)].to_owned(),
            7 if !self.aliases.is_empty() => {
                let aliases = self.aliases.clone();
                format!("{}[{}]", self.pick(&aliases), self.index())
            }
            _ => {
                let scalars = self.scalars.clone();
                self.pick(&scalars).to_owned()
            }
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.gen_range(0..3) == 0 {
            return self.leaf();
        }
        let (a, b) = (self.expr(depth - 1), self.expr(depth - 1));
        match self.rng.gen_range(0..10) {
            0 | 1 => format!("({a} + {b})"),
            2 => format!("({a} - {b})"),
            3 | 4 => format!("({a} * {b})"),
            5 => format!("({a} / {b})"),
            6 => format!("({a} < {b})"),
            7 => format!("({a} == {b})"),
            8 => format!("min({a}, {b})"),
            _ => format!("({a} && {b})"),
        }
    }

    /// A block of `n` statements. Names a block declares go out of
    /// scope with it (after a loop or branch they are only
    /// conditionally assigned, and `check_program` rejects reading those).
    fn block(&mut self, n: usize, depth: usize, out: &mut String) {
        let scalars = self.scalars.len();
        self.nesting += 1;
        for _ in 0..n {
            self.stmt(depth, out);
        }
        self.nesting -= 1;
        self.scalars.truncate(scalars);
    }

    /// A `for` or `for_enough` body: one to three statements, or — one
    /// time in three — exactly one `either` of two to four branches,
    /// the shape lowering unswitches, whose arms now and then end in a
    /// `return` (and may hold such a loop themselves).
    fn loop_body(&mut self, depth: usize, out: &mut String) {
        if self.rng.gen_range(0..3) != 0 {
            let n = self.rng.gen_range(1..4);
            self.block(n, depth, out);
            return;
        }
        out.push_str("either {\n");
        for k in 0..self.rng.gen_range(2..5) {
            if k > 0 {
                out.push_str("} or {\n");
            }
            let n = self.rng.gen_range(1..3);
            self.block(n, depth, out);
            if self.rng.gen_range(0..5) == 0 {
                out.push_str("return;\n");
            }
        }
        out.push_str("}\n");
    }

    fn stmt(&mut self, depth: usize, out: &mut String) {
        let in_loop = !self.loop_vars.is_empty();
        match self.rng.gen_range(0..19) {
            // An early exit, from however deep (the scalar outputs
            // must have reached their slots).
            16 => out.push_str(&format!("if ({}) {{ return; }}\n", self.expr(1))),
            // An element read into a local, stored over, and read
            // again: the second read must see the store.
            17 => {
                let (name, idx, add) = (self.fresh("v"), self.index(), self.leaf());
                out.push_str(&format!(
                    "let {name} = o[{idx}];\no[{idx}] = {name} + {add};\nacc = acc + o[{idx}] * {name};\n"
                ));
                self.scalars.push(name);
            }
            // The same product before and after one operand is
            // reassigned on one path only.
            18 => {
                let scalars = self.scalars.clone();
                let (a, b) = (
                    self.pick(&scalars).to_owned(),
                    self.pick(&scalars).to_owned(),
                );
                let (name, cond) = (self.fresh("v"), self.expr(1));
                out.push_str(&format!(
                    "let {name} = {a} * {b};\nif ({cond}) {{ {a} = {a} + 1; }}\ncnt = cnt + {a} * {b} - {name};\n"
                ));
                self.scalars.push(name);
            }
            // A `let` (inside a loop body: re-declared every trip).
            0 | 1 => {
                let name = self.fresh("v");
                out.push_str(&format!("let {name} = {};\n", self.expr(2)));
                self.scalars.push(name);
            }
            // Re-assignment of anything scalar in scope.
            2 | 3 => {
                let scalars = self.scalars.clone();
                let target = self.pick(&scalars).to_owned();
                out.push_str(&format!("{target} = {};\n", self.expr(2)));
            }
            // The loop variable assigned in the body (the counter, not
            // the variable, drives the loop).
            4 if in_loop => {
                let var = self.loop_vars.last().unwrap().clone();
                out.push_str(&format!("{var} = {var} * 2 + {};\n", self.leaf()));
            }
            // Scalar outputs read before written, updated in place.
            5 | 6 => {
                let target = ["acc", "cnt"][self.rng.gen_range(0..2)];
                out.push_str(&format!("{target} = {target} + {};\n", self.expr(1)));
            }
            7 | 8 => out.push_str(&format!("o[{}] = {};\n", self.index(), self.expr(2))),
            // Counted loops: bounds from shapes and constants, zero-trip
            // and nested included; sometimes over a variable declared
            // before the loop, which is then readable after it.
            9..=11 if depth > 0 => {
                let lo = ["0", "0", "1", "2"][self.rng.gen_range(0..4)];
                let hi = ["len(a)", "len(o)", "cols(g)", "len(a) - 1", "1", "3"]
                    [self.rng.gen_range(0..6)];
                let var = self.fresh("i");
                let kept = self.rng.gen_range(0..3) == 0;
                if kept {
                    out.push_str(&format!("let {var} = 7;\n"));
                }
                out.push_str(&format!("for ({var} in {lo} .. {hi}) {{\n"));
                self.loop_vars.push(var.clone());
                self.loop_body(depth - 1, out);
                self.loop_vars.pop();
                out.push_str("}\n");
                if kept {
                    out.push_str(&format!("cnt = cnt + {var};\n"));
                    self.scalars.push(var);
                }
            }
            // A variable reassigned in one branch only.
            12 if depth > 0 => {
                out.push_str(&format!("if ({}) {{\n", self.expr(1)));
                self.block(1, depth - 1, out);
                if self.rng.gen_range(0..2) == 0 {
                    out.push_str("} else {\n");
                    self.block(1, depth - 1, out);
                }
                out.push_str("}\n");
            }
            13 if depth > 0 => {
                out.push_str("either {\n");
                self.block(1, depth - 1, out);
                out.push_str("} or {\n");
                self.block(2, depth - 1, out);
                out.push_str("}\n");
            }
            14 if depth > 0 => {
                out.push_str("for_enough {\n");
                self.loop_body(depth - 1, out);
                out.push_str("}\n");
            }
            // A local bound to the array, or a scalar local rebound to
            // it for a statement (either way it must stay a `Value`
            // slot; it is a number again before anything reads it as
            // one — the tree-walker words that error by context).
            _ => {
                if self.nesting == 1 {
                    let name = self.fresh("w");
                    out.push_str(&format!("let {name} = a;\n"));
                    self.aliases.push(name);
                } else if self.rng.gen_range(0..3) == 0 {
                    // `x` or `y`: declared outside every loop, so the
                    // they are definitely bound where they are indexed.
                    let target = ["x", "y"][self.rng.gen_range(0..2)];
                    out.push_str(&format!(
                        "{target} = a;\no[0] = {target}[0];\n{target} = {};\n",
                        self.rng.gen_range(0..3)
                    ));
                } else {
                    out.push_str(&format!("x = {};\n", self.expr(2)));
                }
            }
        }
    }
}

/// Builds a random rule over a rank-1 input `a`, a rank-2 input `g`
/// (two rows), a rank-1 output `o` as long as `a` and two scalar
/// outputs — the shapes the register-residency passes rewrite:
/// counted loops over the arrays (zero-trip, nested, bounds from
/// `len`/`cols`), `let`s inside loop bodies, variables reassigned in
/// one branch only, loop variables assigned in the body or read after
/// the loop, scalar outputs read before written and updated in loops,
/// `either`/`for_enough` inside loops, loop bodies that are one
/// `either` of two to four branches, the same constant as index and
/// operand, locals bound to an array, and indices that now and then
/// fall out of range (the run must then fail with the same message at
/// every level).
pub fn gen_array_loop_program(seed: u64) -> String {
    let mut gen = ArrayGen {
        rng: SmallRng::seed_from_u64(seed ^ 0xa77a),
        scalars: vec!["acc".into(), "cnt".into(), "x".into(), "y".into()],
        loop_vars: Vec::new(),
        aliases: Vec::new(),
        nesting: 0,
        fresh: 0,
    };
    let mut body = String::from("let x = 1;\nlet y = a[0];\n");
    let n = gen.rng.gen_range(3..8);
    gen.block(n, 3, &mut body);
    format!(
        "transform t from In[n], Grid[2, m] to Out[n], Acc, Cnt {{\n to (Out o, Acc acc, Cnt cnt) from (In a, Grid g) {{\n{body}}}\n}}\n"
    )
}

/// Inputs for a [`gen_array_loop_program`] rule, with the `n` they were
/// built for: `In` of 1 to 5 elements and a two-row `Grid` of 0 to 4
/// columns, so some loops are zero-trip and the small constant indices
/// the generator favours are mostly — not always — in range.
pub fn array_loop_inputs(
    seed: u64,
) -> (
    std::collections::HashMap<String, petabricks::lang::interp::Value>,
    u64,
) {
    use petabricks::lang::interp::Value;
    let (n, m) = [(4, 3), (1, 2), (3, 0), (5, 4)][(seed % 4) as usize];
    let inputs = [
        (
            "In".to_string(),
            Value::Arr1((0..n).map(|i| 0.25 * i as f64 - 0.5).collect()),
        ),
        (
            "Grid".to_string(),
            Value::Arr2 {
                rows: 2,
                cols: m,
                data: (0..2 * m).map(|i| 1.5 - i as f64).collect(),
            },
        ),
    ];
    (inputs.into(), n as u64)
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
