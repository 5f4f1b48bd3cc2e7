//! Transform orchestration shared by both engines, and the reference
//! tree-walking interpreter.
//!
//! [`Interpreter::run`] resolves dimensions, builds the data store and
//! walks the choice-dependency schedule against a
//! [`pb_runtime::ExecCtx`], which supplies the choice configuration
//! exactly as the original compiler's generated config-file lookups
//! did: rule choices resolve through `rule_<Data>` decision trees,
//! `for_enough` loops read their `for_enough_<i>` accuracy variables,
//! `either…or` reads `either_<i>`, and sub-transform calls resolve
//! their tunables under a `<callee>.` prefix.
//!
//! Rule *bodies* run on one engine per [`Interpreter`], chosen at
//! construction: the bytecode VM ([`Interpreter::new_compiled`], what
//! [`crate::DslTransform`] and so every tuned run uses) or the
//! tree-walker below ([`Interpreter::new`]). The tree-walker executes
//! the AST directly and is the *differential oracle*: the semantics the
//! VM is pinned bit-identical to, by the test suites and the frozen
//! benchmark's output checks. Nothing falls back to it.

use crate::ast::*;
use crate::cdg::ChoiceDependencyGraph;
use crate::compile::{CompileError, CompiledProgram};
use crate::opt::OptLevel;
use crate::token::Span;
use pb_runtime::ExecCtx;
use rand::Rng;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;

/// Runtime values.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar number.
    Num(f64),
    /// A 1-D array.
    Arr1(Vec<f64>),
    /// A 2-D array, row-major.
    Arr2 {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// Row-major data.
        data: Vec<f64>,
    },
}

impl Value {
    /// Builds a zero value with the given dimensions (0 dims = scalar),
    /// or `None` when its element count overflows `usize` or its
    /// storage cannot be allocated.
    pub fn zeros(dims: &[usize]) -> Option<Value> {
        let filled = |len: usize| {
            let mut data = Vec::new();
            data.try_reserve_exact(len).ok()?;
            data.resize(len, 0.0);
            Some(data)
        };
        Some(match dims {
            [] => Value::Num(0.0),
            [n] => Value::Arr1(filled(*n)?),
            [r, c] => Value::Arr2 {
                rows: *r,
                cols: *c,
                data: filled(r.checked_mul(*c)?)?,
            },
            _ => panic!("only scalars, 1-D, and 2-D arrays are supported"),
        })
    }

    /// Scalar accessor.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value's dimensions, stored inline — the borrowing-flavoured
    /// shape accessor: no `Vec` allocation per query. Values have at
    /// most two dimensions, so the shape fits in a [`Dims`] on the
    /// stack; deref it as a `&[usize]`.
    pub fn dims_ref(&self) -> Dims {
        match self {
            Value::Num(_) => Dims {
                count: 0,
                dims: [0; 2],
            },
            Value::Arr1(v) => Dims {
                count: 1,
                dims: [v.len(), 0],
            },
            Value::Arr2 { rows, cols, .. } => Dims {
                count: 2,
                dims: [*rows, *cols],
            },
        }
    }

    /// Bitwise equality: stricter than `PartialEq` (distinguishes
    /// `-0.0` from `0.0`) and total over NaN. This is the comparison
    /// the differential suite and benchmarks use to pin executors
    /// "bit-identical" to each other.
    pub fn bits_eq(&self, other: &Value) -> bool {
        fn eq(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits()
        }
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => eq(*a, *b),
            (Value::Arr1(a), Value::Arr1(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(p, q)| eq(*p, *q))
            }
            (
                Value::Arr2 {
                    rows: r1,
                    cols: c1,
                    data: d1,
                },
                Value::Arr2 {
                    rows: r2,
                    cols: c2,
                    data: d2,
                },
            ) => r1 == r2 && c1 == c2 && d1.iter().zip(d2).all(|(p, q)| eq(*p, *q)),
            _ => false,
        }
    }
}

/// A value's shape, stored inline (at most two dimensions), so a
/// shape query allocates no `Vec`. Dereferences to `&[usize]`, so
/// slice-shaped consumers (`len()`, iteration, pattern matching via
/// `as_slice`) use it directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    count: u8,
    dims: [usize; 2],
}

impl Dims {
    /// The dimensions as a slice (empty for scalars).
    pub fn as_slice(&self) -> &[usize] {
        &self.dims[..self.count as usize]
    }
}

impl std::ops::Deref for Dims {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

/// A runtime error with an optional source location.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    /// Human-readable message.
    pub message: String,
    /// Where it happened, if known.
    pub span: Option<Span>,
}

impl RuntimeError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        RuntimeError {
            message: message.into(),
            span: Some(span),
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

/// A host function callable from transform bodies. The first argument
/// may be mutated (how helper calls like `AssignClusters(a, …)` write
/// results); the remaining arguments are read-only; the return value
/// is the call expression's value.
pub type HostFn = Box<dyn Fn(&mut Value, &[Value]) -> Result<Value, String> + Send + Sync>;

/// Control flow of statement execution.
enum Flow {
    Continue,
    Return,
}

/// The interpreter: a checked program plus registered host functions,
/// and — when built by [`Interpreter::new_compiled`] — the program's
/// bytecode (see [`crate::compile`]), which then runs every rule body.
pub struct Interpreter {
    program: Program,
    host_fns: HashMap<String, HostFn>,
    compiled: Option<CompiledProgram>,
    /// Per-transform (in `program.transforms` order) choice dependency
    /// graph and execution schedule, built once at construction: both
    /// are config-independent, so rebuilding them per run (the old
    /// behavior) only burned per-trial time. Scheduling failures are
    /// kept as strings and surface with the same message (and span)
    /// the lazy build produced.
    schedules: Vec<Result<(ChoiceDependencyGraph, Vec<String>), String>>,
}

/// Deepest legal nesting of transform calls (the root runs at 0).
pub(crate) const CALL_DEPTH_LIMIT: usize = 8;

impl fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interpreter")
            .field("transforms", &self.program.transforms.len())
            .field("host_fns", &self.host_fns.keys().collect::<Vec<_>>())
            .field("compiled", &self.compiled.is_some())
            .finish()
    }
}

impl Interpreter {
    /// Wraps a (checked) program for pure tree-walking execution: the
    /// reference the VM is differentially tested against.
    pub fn new(program: Program) -> Self {
        let schedules = build_schedules(&program);
        Interpreter {
            program,
            host_fns: HashMap::new(),
            compiled: None,
            schedules,
        }
    }

    /// Checks a program, lowers every rule to bytecode optimized at the
    /// default [`OptLevel`], and runs all of them on the register VM. A
    /// program [`crate::sema::check_program`] rejects, or one past a
    /// capacity limit of the bytecode, still constructs: every run of
    /// it returns that reason as a [`RuntimeError`].
    pub fn new_compiled(program: Program) -> Self {
        Self::new_compiled_at(program, OptLevel::default())
    }

    /// Like [`Interpreter::new_compiled`] with an explicit optimization
    /// level (both are bit-identical to the tree-walker; `O0` is the
    /// baseline the optimizer is measured and tested against).
    pub fn new_compiled_at(program: Program, level: OptLevel) -> Self {
        match crate::sema::check_program(&program) {
            Ok(()) => Self::compiled_checked(program, level),
            Err(errors) => {
                let reason = errors[0].to_string();
                let failed = CompiledProgram::failed(&program, CompileError { reason });
                Self::with_bytecode(program, failed)
            }
        }
    }

    /// [`Interpreter::new_compiled_at`] for a program the caller has
    /// already put through [`crate::sema::check_program`].
    pub(crate) fn compiled_checked(program: Program, level: OptLevel) -> Self {
        let compiled = crate::compile::compile_program(&program).optimized(level);
        Self::with_bytecode(program, compiled)
    }

    fn with_bytecode(program: Program, compiled: CompiledProgram) -> Self {
        let schedules = build_schedules(&program);
        Interpreter {
            program,
            host_fns: HashMap::new(),
            compiled: Some(compiled),
            schedules,
        }
    }

    /// The bytecode, when built with [`Interpreter::new_compiled`].
    pub fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled.as_ref()
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Looks up a registered host function.
    pub(crate) fn host_fn(&self, name: &str) -> Option<&HostFn> {
        self.host_fns.get(name)
    }

    /// Registers a host function callable from transform bodies.
    pub fn register_host_fn(&mut self, name: impl Into<String>, f: HostFn) {
        self.host_fns.insert(name.into(), f);
    }

    /// Runs `transform_name` on the given inputs under the
    /// configuration carried by `ctx`; returns the produced outputs
    /// (and intermediates).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for missing inputs, dimension
    /// mismatches, unknown functions, unschedulable rules, or
    /// exceeded recursion depth.
    pub fn run(
        &self,
        transform_name: &str,
        inputs: &HashMap<String, Value>,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<HashMap<String, Value>, RuntimeError> {
        self.run_prefixed(transform_name, inputs, ctx, "", 0)
    }

    /// Inputs are generic over [`Borrow`] so internal callers (the VM's
    /// `CallTransform`, the metric runner) can pass borrowed values and
    /// skip one full clone per array argument; the store below clones
    /// exactly what it keeps.
    pub(crate) fn run_prefixed<V: Borrow<Value>>(
        &self,
        transform_name: &str,
        inputs: &HashMap<String, V>,
        ctx: &mut ExecCtx<'_>,
        prefix: &str,
        depth: usize,
    ) -> Result<HashMap<String, Value>, RuntimeError> {
        let found = self
            .program
            .transforms
            .iter()
            .position(|t| t.name == transform_name);
        match found {
            Some(idx) => self.run_transform(idx, inputs, ctx, prefix, depth),
            None => Err(RuntimeError {
                message: format!("unknown transform `{transform_name}`"),
                span: None,
            }),
        }
    }

    /// [`Interpreter::run_prefixed`] by position in
    /// `program.transforms` — what a compiled `CallTransform` carries,
    /// so a call resolves its callee, schedule and chunks by index.
    pub(crate) fn run_transform<V: Borrow<Value>>(
        &self,
        transform: usize,
        inputs: &HashMap<String, V>,
        ctx: &mut ExecCtx<'_>,
        prefix: &str,
        depth: usize,
    ) -> Result<HashMap<String, Value>, RuntimeError> {
        if depth > CALL_DEPTH_LIMIT {
            return Err(RuntimeError {
                message: "transform call depth exceeded".into(),
                span: None,
            });
        }
        let t = &self.program.transforms[transform];
        // One engine for the whole run: this transform's chunks, or the
        // tree-walker when the interpreter holds no bytecode.
        let chunks = match &self.compiled {
            Some(compiled) => Some(compiled.chunks_at(transform).map_err(|e| RuntimeError {
                message: e.to_string(),
                span: None,
            })?),
            None => None,
        };

        // Resolve dimension variables from the provided inputs, the
        // configuration's accuracy variables, and literal dims.
        let mut dim_env: HashMap<String, f64> = HashMap::new();
        for av in &t.accuracy_variables {
            let name = format!("{prefix}{}", av.name);
            if let Ok(v) = ctx.param(&name) {
                dim_env.insert(av.name.clone(), v as f64);
            }
        }
        for p in &t.inputs {
            let actual = inputs
                .get(&p.name)
                .map(Borrow::borrow)
                .ok_or(RuntimeError {
                    message: format!("missing input `{}`", p.name),
                    span: Some(p.span),
                })?;
            let actual_dims = actual.dims_ref();
            if actual_dims.len() != p.dims.len() {
                return Err(RuntimeError::new(
                    format!(
                        "input `{}` has {} dimensions, declared {}",
                        p.name,
                        actual_dims.len(),
                        p.dims.len()
                    ),
                    p.span,
                ));
            }
            for (dim_expr, &actual_dim) in p.dims.iter().zip(actual_dims.iter()) {
                match dim_expr {
                    Expr::Var(name, _) if !dim_env.contains_key(name) => {
                        dim_env.insert(name.clone(), actual_dim as f64);
                    }
                    _ => {
                        let expect = self.eval_dim(dim_expr, &dim_env)?;
                        if expect != actual_dim {
                            return Err(RuntimeError::new(
                                format!(
                                    "input `{}` dimension mismatch: expected {expect}, got {actual_dim}",
                                    p.name
                                ),
                                p.span,
                            ));
                        }
                    }
                }
            }
        }

        // Data store: inputs plus zero-initialized intermediates and
        // outputs. `scaled_by` inputs (§3.2) are down-sampled first per
        // their `scale_<name>` accuracy variable, and the dimension
        // variable bound from them is rebound to the resampled length
        // so all dependent data shrinks with them.
        let mut store: HashMap<String, Value> = HashMap::new();
        for p in &t.inputs {
            let mut value = inputs[&p.name].borrow().clone();
            if p.scaled_by.is_some() {
                let pct = ctx
                    .param(&format!("{prefix}scale_{}", p.name))
                    .unwrap_or(100)
                    .clamp(1, 100) as usize;
                if pct < 100 {
                    if let Value::Arr1(data) = &value {
                        let target = (data.len() * pct / 100).max(1);
                        let resampled = resample_linear(data, target);
                        // Rebind a bare dimension variable to the new
                        // length.
                        if let Some(Expr::Var(dim_name, _)) = p.dims.first() {
                            dim_env.insert(dim_name.clone(), target as f64);
                        }
                        value = Value::Arr1(resampled);
                    }
                }
            }
            store.insert(p.name.clone(), value);
        }
        for p in t.intermediates.iter().chain(&t.outputs) {
            let dims: Vec<usize> = p
                .dims
                .iter()
                .map(|d| self.eval_dim(d, &dim_env))
                .collect::<Result<_, _>>()?;
            let value = Value::zeros(&dims).ok_or_else(|| {
                RuntimeError::new(
                    format!(
                        "`{}` with dimensions {dims:?} is too large to allocate",
                        p.name
                    ),
                    p.span,
                )
            })?;
            store.insert(p.name.clone(), value);
        }

        // Schedule and execute rules, resolving choices through ctx.
        // Graph and order come precomputed from construction.
        let (graph, order) =
            self.schedules[transform]
                .as_ref()
                .map_err(|message| RuntimeError {
                    message: message.clone(),
                    span: Some(t.span),
                })?;
        let mut produced: Vec<&str> = Vec::new();
        for data in order {
            if produced.contains(&data.as_str()) {
                continue;
            }
            let rules = graph.producers(data);
            let rule_idx = if rules.len() > 1 {
                let site = format!("{prefix}rule_{data}");
                let pick = ctx.choice(&site).map_err(|e| RuntimeError {
                    message: format!("cannot resolve choice `{site}`: {e}"),
                    span: Some(t.span),
                })?;
                rules[pick.min(rules.len() - 1)]
            } else {
                rules[0]
            };
            let rule = &t.rules[rule_idx];
            match chunks {
                Some(chunks) => {
                    let chunk = &chunks[rule_idx];
                    crate::vm::run_rule(self, rule, chunk, &mut store, ctx, prefix, depth)?;
                }
                None => self.run_rule(t, rule, &mut store, ctx, prefix, depth)?,
            }
            for out in &rule.outputs {
                produced.push(out.data.as_str());
            }
        }

        // Return the non-input data (outputs and intermediates).
        for p in &t.inputs {
            store.remove(&p.name);
        }
        Ok(store)
    }

    /// The tree-walking engine's rule invocation (see
    /// [`crate::vm::run_rule`] for the VM's).
    fn run_rule(
        &self,
        t: &Transform,
        rule: &Rule,
        store: &mut HashMap<String, Value>,
        ctx: &mut ExecCtx<'_>,
        prefix: &str,
        depth: usize,
    ) -> Result<(), RuntimeError> {
        // Bind aliases: inputs by value, outputs moved in and written
        // back after the body.
        let mut scope: HashMap<String, Value> = HashMap::new();
        for b in &rule.inputs {
            let v = store.get(&b.data).ok_or(RuntimeError::new(
                format!("rule reads unproduced data `{}`", b.data),
                b.span,
            ))?;
            scope.insert(b.alias.clone(), v.clone());
        }
        for b in &rule.outputs {
            let v = store.get(&b.data).ok_or(RuntimeError::new(
                format!("rule writes undeclared data `{}`", b.data),
                b.span,
            ))?;
            // Output alias shadows any input alias of the same name.
            scope.insert(b.alias.clone(), v.clone());
        }

        let mut env = Env {
            interp: self,
            transform: t,
            scope,
            prefix: prefix.to_owned(),
            depth,
        };
        env.exec_block(&rule.body, ctx)?;

        for b in &rule.outputs {
            let v = env.scope.get(&b.alias).cloned().ok_or(RuntimeError::new(
                format!("output alias `{}` vanished", b.alias),
                b.span,
            ))?;
            store.insert(b.data.clone(), v);
        }
        Ok(())
    }

    fn eval_dim(&self, expr: &Expr, dim_env: &HashMap<String, f64>) -> Result<usize, RuntimeError> {
        let v = eval_const(expr, dim_env).ok_or(RuntimeError::new(
            "dimension expression uses an unbound variable",
            expr.span(),
        ))?;
        if v < 0.0 || !v.is_finite() {
            return Err(RuntimeError::new(
                format!("dimension evaluated to illegal value {v}"),
                expr.span(),
            ));
        }
        Ok(v.round() as usize)
    }
}

/// Precomputes every transform's choice dependency graph and execution
/// schedule (config-independent, so they never need rebuilding at run
/// time). Scheduling failures are stored and surfaced on the first run
/// of the affected transform, exactly like the lazy build did.
fn build_schedules(program: &Program) -> Vec<Result<(ChoiceDependencyGraph, Vec<String>), String>> {
    program
        .transforms
        .iter()
        .map(|t| {
            let graph = ChoiceDependencyGraph::build(t);
            match graph.schedule() {
                Ok(order) => Ok((graph, order)),
                Err(e) => Err(e.to_string()),
            }
        })
        .collect()
}

/// Constant-folds dimension expressions (`n`, `k`, `sqrt(n)`, `2*k`…).
fn eval_const(expr: &Expr, env: &HashMap<String, f64>) -> Option<f64> {
    Some(match expr {
        Expr::Number(v, _) => *v,
        Expr::Var(name, _) => *env.get(name)?,
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = eval_const(lhs, env)?;
            let b = eval_const(rhs, env)?;
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Rem => a % b,
                _ => return None,
            }
        }
        Expr::Unary {
            op: UnOp::Neg,
            operand,
            ..
        } => -eval_const(operand, env)?,
        Expr::Call { name, args, .. } if name == "sqrt" && args.len() == 1 => {
            eval_const(&args[0], env)?.sqrt().floor()
        }
        _ => return None,
    })
}

/// Per-rule execution environment.
struct Env<'a> {
    interp: &'a Interpreter,
    transform: &'a Transform,
    scope: HashMap<String, Value>,
    prefix: String,
    depth: usize,
}

impl Env<'_> {
    fn exec_block(&mut self, block: &Block, ctx: &mut ExecCtx<'_>) -> Result<Flow, RuntimeError> {
        for stmt in &block.stmts {
            if let Flow::Return = self.exec_stmt(stmt, ctx)? {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Continue)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, ctx: &mut ExecCtx<'_>) -> Result<Flow, RuntimeError> {
        ctx.charge(1.0);
        match stmt {
            Stmt::Let { name, value, .. } => {
                let v = self.eval(value, ctx)?;
                self.scope.insert(name.clone(), v);
                Ok(Flow::Continue)
            }
            Stmt::Assign {
                target,
                value,
                span,
            } => {
                let v = self.eval(value, ctx)?;
                match target {
                    LValue::Var(name) => {
                        self.scope.insert(name.clone(), v);
                    }
                    LValue::Index { name, indices } => {
                        let idx: Vec<usize> = indices
                            .iter()
                            .map(|e| self.eval_index(e, ctx))
                            .collect::<Result<_, _>>()?;
                        let num = v
                            .as_num()
                            .ok_or(RuntimeError::new("array elements must be scalars", *span))?;
                        let arr = self
                            .scope
                            .get_mut(name)
                            .ok_or(RuntimeError::new(format!("unknown array `{name}`"), *span))?;
                        write_element(arr, &idx, num, *span)?;
                    }
                }
                Ok(Flow::Continue)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                let c = self.eval_num(cond, ctx)?;
                if c != 0.0 {
                    self.exec_block(then_block, ctx)
                } else if let Some(e) = else_block {
                    self.exec_block(e, ctx)
                } else {
                    Ok(Flow::Continue)
                }
            }
            Stmt::While { cond, body, span } => {
                let mut guard = 0u64;
                while self.eval_num(cond, ctx)? != 0.0 {
                    if let Flow::Return = self.exec_block(body, ctx)? {
                        return Ok(Flow::Return);
                    }
                    guard += 1;
                    if guard > 10_000_000 {
                        return Err(RuntimeError::new(
                            "while loop exceeded 10M iterations",
                            *span,
                        ));
                    }
                }
                Ok(Flow::Continue)
            }
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                let lo = self.eval_num(lo, ctx)? as i64;
                let hi = self.eval_num(hi, ctx)? as i64;
                for i in lo..hi {
                    self.scope.insert(var.clone(), Value::Num(i as f64));
                    if let Flow::Return = self.exec_block(body, ctx)? {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Continue)
            }
            Stmt::ForEnough { id, body, span } => {
                let name = format!("{}for_enough_{id}", self.prefix);
                let iters = ctx
                    .for_enough(&name)
                    .map_err(|e| RuntimeError::new(format!("{e}"), *span))?;
                for _ in 0..iters {
                    if let Flow::Return = self.exec_block(body, ctx)? {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Continue)
            }
            Stmt::Either { id, branches, span } => {
                let name = format!("{}either_{id}", self.prefix);
                let pick = ctx
                    .choice(&name)
                    .map_err(|e| RuntimeError::new(format!("{e}"), *span))?;
                self.exec_block(&branches[pick.min(branches.len() - 1)], ctx)
            }
            // The interpreter trains/tests with the checks disabled
            // (§5.5.1: "runtime verification … is disabled during
            // autotuning"); the runtime-checked execution path lives in
            // `pb_runtime::guarantee`.
            Stmt::VerifyAccuracy { .. } => Ok(Flow::Continue),
            Stmt::Return { .. } => Ok(Flow::Return),
            Stmt::Expr { expr, .. } => {
                self.eval(expr, ctx)?;
                Ok(Flow::Continue)
            }
        }
    }

    fn eval_num(&mut self, expr: &Expr, ctx: &mut ExecCtx<'_>) -> Result<f64, RuntimeError> {
        self.eval(expr, ctx)?
            .as_num()
            .ok_or(RuntimeError::new("expected a scalar value", expr.span()))
    }

    fn eval_index(&mut self, expr: &Expr, ctx: &mut ExecCtx<'_>) -> Result<usize, RuntimeError> {
        let v = self.eval_num(expr, ctx)?;
        if v < 0.0 || !v.is_finite() {
            return Err(RuntimeError::new(format!("illegal index {v}"), expr.span()));
        }
        Ok(v as usize)
    }

    fn eval(&mut self, expr: &Expr, ctx: &mut ExecCtx<'_>) -> Result<Value, RuntimeError> {
        match expr {
            Expr::Number(v, _) => Ok(Value::Num(*v)),
            Expr::Var(name, span) => {
                if let Some(v) = self.scope.get(name) {
                    return Ok(v.clone());
                }
                // Accuracy variables are readable by name.
                let tunable = format!("{}{name}", self.prefix);
                if let Ok(v) = ctx.param(&tunable) {
                    return Ok(Value::Num(v as f64));
                }
                Err(RuntimeError::new(
                    format!("unknown variable `{name}`"),
                    *span,
                ))
            }
            Expr::Index {
                name,
                indices,
                span,
            } => {
                let idx: Vec<usize> = indices
                    .iter()
                    .map(|e| self.eval_index(e, ctx))
                    .collect::<Result<_, _>>()?;
                let arr = self
                    .scope
                    .get(name)
                    .ok_or(RuntimeError::new(format!("unknown array `{name}`"), *span))?;
                read_element(arr, &idx, *span).map(Value::Num)
            }
            Expr::Unary { op, operand, span } => {
                let v = self.eval_num(operand, ctx)?;
                Ok(Value::Num(match op {
                    UnOp::Neg => -v,
                    UnOp::Not => {
                        if v == 0.0 {
                            1.0
                        } else {
                            0.0
                        }
                    }
                }))
                .map_err(|e: RuntimeError| RuntimeError::new(e.message, *span))
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.eval_num(lhs, ctx)?;
                // Short-circuit logic.
                match op {
                    BinOp::And if a == 0.0 => return Ok(Value::Num(0.0)),
                    BinOp::Or if a != 0.0 => return Ok(Value::Num(1.0)),
                    _ => {}
                }
                let b = self.eval_num(rhs, ctx)?;
                let v = match op {
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
                    BinOp::And => (b != 0.0) as i64 as f64,
                    BinOp::Or => (b != 0.0) as i64 as f64,
                };
                Ok(Value::Num(v))
            }
            Expr::Call {
                name,
                accuracy: _,
                args,
                span,
            } => self.eval_call(name, args, *span, ctx),
        }
    }

    /// Dispatch order (the VM's too): builtin, other transform, host
    /// function. (One function per kind keeps the frames a nested call
    /// stacks up small.)
    fn eval_call(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Value, RuntimeError> {
        if crate::sema::builtin_arity(name).is_some() {
            return self.eval_builtin(name, args, span, ctx);
        }
        match self.interp.program.transform(name) {
            Some(callee) if name != self.transform.name => {
                self.call_transform(callee, args, span, ctx)
            }
            _ => self.call_host(name, args, span, ctx),
        }
    }

    fn eval_builtin(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Value, RuntimeError> {
        if matches!(name, "len" | "rows" | "cols") {
            let v = self.eval(&args[0], ctx)?;
            let dims = v.dims_ref();
            return Ok(Value::Num(match (name, dims.as_slice()) {
                ("len", [n]) => *n as f64,
                ("len", [_, c]) => *c as f64,
                ("rows", [r, _]) => *r as f64,
                ("cols", [_, c]) => *c as f64,
                _ => {
                    return Err(RuntimeError::new(
                        format!("`{name}` applied to a value of wrong shape"),
                        span,
                    ))
                }
            }));
        }
        let a = self.eval_num(&args[0], ctx)?;
        Ok(Value::Num(match name {
            "sqrt" => a.sqrt(),
            "abs" => a.abs(),
            "floor" => a.floor(),
            "ceil" => a.ceil(),
            "exp" => a.exp(),
            "log" => a.ln(),
            two => {
                let b = self.eval_num(&args[1], ctx)?;
                match two {
                    "min" => a.min(b),
                    "max" => a.max(b),
                    "pow" => a.powf(b),
                    // `rand(lo, hi)`: no draw for an empty range or a
                    // NaN bound.
                    _ if a < b => ctx.rng().gen_range(a..b),
                    _ => a,
                }
            }
        }))
    }

    fn call_transform(
        &mut self,
        callee: &Transform,
        args: &[Expr],
        span: Span,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Value, RuntimeError> {
        let name = &callee.name;
        if callee.outputs.len() != 1 {
            return Err(RuntimeError::new(
                format!("transform `{name}` called as expression must have one output"),
                span,
            ));
        }
        if args.len() != callee.inputs.len() {
            return Err(RuntimeError::new(
                format!(
                    "transform `{name}` takes {} inputs, got {}",
                    callee.inputs.len(),
                    args.len()
                ),
                span,
            ));
        }
        let mut sub_inputs = HashMap::new();
        for (param, arg) in callee.inputs.iter().zip(args) {
            let v = self.eval(arg, ctx)?;
            sub_inputs.insert(param.name.clone(), v);
        }
        let sub_prefix = format!("{}{name}.", self.prefix);
        let outputs =
            self.interp
                .run_prefixed(name, &sub_inputs, ctx, &sub_prefix, self.depth + 1)?;
        let out_name = &callee.outputs[0].name;
        outputs.get(out_name).cloned().ok_or(RuntimeError::new(
            format!("transform `{name}` produced no `{out_name}`"),
            span,
        ))
    }

    /// Host function: the first argument (if an alias) is mutable.
    fn call_host(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Value, RuntimeError> {
        if args.is_empty() {
            return Err(RuntimeError::new(
                format!("host function `{name}` needs at least one argument"),
                span,
            ));
        }
        // An unknown name is reported once the arguments are evaluated:
        // bytecode computes them ahead of the `CallHost` that looks the
        // function up, so an argument's error comes first in both.
        let f = self.interp.host_fns.get(name);
        let rest: Vec<Value> = args[1..]
            .iter()
            .map(|a| self.eval(a, ctx))
            .collect::<Result<_, _>>()?;
        let first_name = match &args[0] {
            Expr::Var(n, _) => Some(n.clone()),
            _ => None,
        };
        let mut first = match &first_name {
            Some(n) => self
                .scope
                .get(n)
                .cloned()
                .ok_or(RuntimeError::new(format!("unknown variable `{n}`"), span))?,
            None => self.eval(&args[0], ctx)?,
        };
        let Some(f) = f else {
            return Err(RuntimeError::new(
                format!("unknown function `{name}`"),
                span,
            ));
        };
        ctx.charge(
            rest.iter()
                .map(|v| v.dims_ref().iter().product::<usize>().max(1))
                .sum::<usize>() as f64,
        );
        let out = f(&mut first, &rest)
            .map_err(|m| RuntimeError::new(format!("host `{name}`: {m}"), span))?;
        if let Some(n) = first_name {
            self.scope.insert(n, first);
        }
        Ok(out)
    }
}

/// Linear-interpolation resampling of a 1-D signal to `target` points
/// (the built-in `linear` resampler for `scaled_by`).
pub fn resample_linear(data: &[f64], target: usize) -> Vec<f64> {
    let n = data.len();
    if target == 0 || n == 0 {
        return Vec::new();
    }
    if target == n {
        return data.to_vec();
    }
    if n == 1 {
        return vec![data[0]; target];
    }
    (0..target)
        .map(|i| {
            let pos = i as f64 * (n - 1) as f64 / (target.max(2) - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            data[lo] * (1.0 - frac) + data[hi] * frac
        })
        .collect()
}

pub(crate) fn read_element(arr: &Value, idx: &[usize], span: Span) -> Result<f64, RuntimeError> {
    match (arr, idx) {
        (Value::Arr1(v), [i]) => v.get(*i).copied().ok_or_else(|| {
            RuntimeError::new(format!("index {i} out of bounds (len {})", v.len()), span)
        }),
        (Value::Arr2 { rows, cols, data }, [i, j]) => {
            if *i >= *rows || *j >= *cols {
                Err(RuntimeError::new(
                    format!("index ({i},{j}) out of bounds ({rows}x{cols})"),
                    span,
                ))
            } else {
                Ok(data[i * cols + j])
            }
        }
        _ => Err(RuntimeError::new(
            "index arity does not match array shape",
            span,
        )),
    }
}

pub(crate) fn write_element(
    arr: &mut Value,
    idx: &[usize],
    v: f64,
    span: Span,
) -> Result<(), RuntimeError> {
    match (arr, idx) {
        (Value::Arr1(vec), [i]) => {
            if *i >= vec.len() {
                return Err(RuntimeError::new(
                    format!("index {i} out of bounds (len {})", vec.len()),
                    span,
                ));
            }
            vec[*i] = v;
            Ok(())
        }
        (Value::Arr2 { rows, cols, data }, [i, j]) => {
            if *i >= *rows || *j >= *cols {
                return Err(RuntimeError::new(
                    format!("index ({i},{j}) out of bounds ({rows}x{cols})"),
                    span,
                ));
            }
            data[*i * *cols + *j] = v;
            Ok(())
        }
        _ => Err(RuntimeError::new(
            "index arity does not match array shape",
            span,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use pb_config::Value as ConfigValue;

    fn simple_ctx<'a>(
        schema: &'a pb_config::Schema,
        config: &'a pb_config::Config,
        n: u64,
    ) -> ExecCtx<'a> {
        ExecCtx::new(schema, config, n, 1)
    }

    #[test]
    fn runs_a_simple_transform() {
        let src = r#"
            transform double from In[n] to Out[n] {
                to (Out o) from (In a) {
                    for (i in 0 .. len(a)) { o[i] = 2 * a[i]; }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "double");
        let config = schema.default_config();
        let interp = Interpreter::new(program);
        let mut inputs = HashMap::new();
        inputs.insert("In".to_string(), Value::Arr1(vec![1.0, 2.0, 3.0]));
        let mut ctx = simple_ctx(&schema, &config, 3);
        let out = interp.run("double", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![2.0, 4.0, 6.0]));
        assert!(ctx.virtual_cost() > 0.0);
    }

    #[test]
    fn either_resolves_through_config() {
        let src = r#"
            transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    either { o[0] = 1; } or { o[0] = 2; }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "t");
        let mut config = schema.default_config();
        let interp = Interpreter::new(program);
        let mut inputs = HashMap::new();
        inputs.insert("In".to_string(), Value::Arr1(vec![0.0]));

        let mut ctx = simple_ctx(&schema, &config, 1);
        let out = interp.run("t", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![1.0]));

        config
            .set_by_name(
                &schema,
                "either_0",
                ConfigValue::Tree(pb_config::DecisionTree::single(1)),
            )
            .unwrap();
        let mut ctx = simple_ctx(&schema, &config, 1);
        let out = interp.run("t", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![2.0]));
    }

    #[test]
    fn for_enough_iterations_come_from_config() {
        let src = r#"
            transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    for_enough { o[0] = o[0] + 1; }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "t");
        let mut config = schema.default_config();
        config
            .set_by_name(&schema, "for_enough_0", ConfigValue::Int(7))
            .unwrap();
        let interp = Interpreter::new(program);
        let mut inputs = HashMap::new();
        inputs.insert("In".to_string(), Value::Arr1(vec![0.0]));
        let mut ctx = simple_ctx(&schema, &config, 1);
        let out = interp.run("t", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![7.0]));
    }

    #[test]
    fn rule_choice_resolves_through_config() {
        let src = r#"
            transform t from In[n] through Mid[n] to Out[n] {
                to (Mid m) from (In a) { m[0] = 10; }
                to (Mid m) from (In a) { m[0] = 20; }
                to (Out o) from (Mid m) { o[0] = m[0] + 1; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "t");
        let mut config = schema.default_config();
        let interp = Interpreter::new(program);
        let mut inputs = HashMap::new();
        inputs.insert("In".to_string(), Value::Arr1(vec![0.0]));

        let mut ctx = simple_ctx(&schema, &config, 1);
        let out = interp.run("t", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![11.0]));

        config
            .set_by_name(
                &schema,
                "rule_Mid",
                ConfigValue::Tree(pb_config::DecisionTree::single(1)),
            )
            .unwrap();
        let mut ctx = simple_ctx(&schema, &config, 1);
        let out = interp.run("t", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![21.0]));
    }

    #[test]
    fn accuracy_variable_sizes_intermediate_data() {
        let src = r#"
            transform t accuracy_variable k 1 64 from In[n] through Mid[k] to Out[n] {
                to (Mid m) from (In a) { m[0] = 1; }
                to (Out o) from (Mid m) { o[0] = len(m); }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "t");
        let mut config = schema.default_config();
        config
            .set_by_name(&schema, "k", ConfigValue::Int(5))
            .unwrap();
        let interp = Interpreter::new(program);
        let mut inputs = HashMap::new();
        inputs.insert("In".to_string(), Value::Arr1(vec![0.0, 0.0]));
        let mut ctx = simple_ctx(&schema, &config, 2);
        let out = interp.run("t", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![5.0, 0.0]));
        assert_eq!(out["Mid"].dims_ref().as_slice(), &[5]);
    }

    #[test]
    fn host_functions_can_mutate_first_argument() {
        let src = r#"
            transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    FillWith(o, 9);
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "t");
        let config = schema.default_config();
        let mut interp = Interpreter::new(program);
        interp.register_host_fn(
            "FillWith",
            Box::new(|first, rest| {
                let v = rest[0].as_num().ok_or("second arg must be scalar")?;
                if let Value::Arr1(a) = first {
                    for x in a.iter_mut() {
                        *x = v;
                    }
                }
                Ok(Value::Num(0.0))
            }),
        );
        let mut inputs = HashMap::new();
        inputs.insert("In".to_string(), Value::Arr1(vec![0.0, 0.0, 0.0]));
        let mut ctx = simple_ctx(&schema, &config, 3);
        let out = interp.run("t", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![9.0, 9.0, 9.0]));
    }

    #[test]
    fn sub_transform_calls_work() {
        let src = r#"
            transform outer from In[n] to Out[n] {
                to (Out o) from (In a) {
                    o[0] = inner(a) + 100;
                }
            }
            transform inner from X[n] to R {
                to (R r) from (X x) { r = x[0] * 2; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "outer");
        let config = schema.default_config();
        let interp = Interpreter::new(program);
        let mut inputs = HashMap::new();
        inputs.insert("In".to_string(), Value::Arr1(vec![21.0]));
        let mut ctx = simple_ctx(&schema, &config, 1);
        let out = interp.run("outer", &inputs, &mut ctx).unwrap();
        // inner doubles 21, outer adds 100.
        assert_eq!(out["Out"], Value::Arr1(vec![142.0]));
    }

    #[test]
    fn out_of_bounds_index_is_a_runtime_error() {
        let src = r#"
            transform t from In[n] to Out[n] {
                to (Out o) from (In a) { o[99] = 1; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "t");
        let config = schema.default_config();
        let interp = Interpreter::new(program);
        let mut inputs = HashMap::new();
        inputs.insert("In".to_string(), Value::Arr1(vec![0.0]));
        let mut ctx = simple_ctx(&schema, &config, 1);
        let err = interp.run("t", &inputs, &mut ctx).unwrap_err();
        assert!(err.message.contains("out of bounds"), "{}", err.message);
    }

    #[test]
    fn missing_input_is_reported() {
        let src = r#"
            transform t from In[n] to Out[n] {
                to (Out o) from (In a) { o[0] = 1; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "t");
        let config = schema.default_config();
        let interp = Interpreter::new(program);
        let inputs = HashMap::new();
        let mut ctx = simple_ctx(&schema, &config, 1);
        let err = interp.run("t", &inputs, &mut ctx).unwrap_err();
        assert!(err.message.contains("missing input"), "{}", err.message);
    }

    #[test]
    fn resample_linear_properties() {
        // Identity at same length; endpoints preserved; constants stay
        // constant.
        let data = vec![0.0, 1.0, 2.0, 3.0];
        assert_eq!(resample_linear(&data, 4), data);
        let half = resample_linear(&data, 2);
        assert_eq!(half, vec![0.0, 3.0]);
        let constant = resample_linear(&[5.0; 10], 3);
        assert!(constant.iter().all(|&v| (v - 5.0).abs() < 1e-12));
        let up = resample_linear(&[0.0, 2.0], 3);
        assert_eq!(up, vec![0.0, 1.0, 2.0]);
        assert_eq!(resample_linear(&[7.0], 3), vec![7.0, 7.0, 7.0]);
    }

    #[test]
    fn scaled_by_downsamples_input_and_rebinds_dims() {
        let src = r#"
            transform mean from Signal[n] scaled_by linear to Out[n], Count {
                to (Out o, Count c) from (Signal s) {
                    c = len(s);
                    for (i in 0 .. len(s)) { o[i] = s[i]; }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        crate::sema::check_program(&program).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "mean");
        assert!(schema.tunable("scale_Signal").is_some());

        let interp = Interpreter::new(program);
        let mut inputs = HashMap::new();
        inputs.insert(
            "Signal".to_string(),
            Value::Arr1((0..100).map(|i| i as f64).collect()),
        );

        // Default 100%: untouched.
        let config = schema.default_config();
        let mut ctx = simple_ctx(&schema, &config, 100);
        let out = interp.run("mean", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Count"], Value::Num(100.0));

        // 25%: the rules see a quarter of the samples, and `Out`
        // (dimensioned by the same `n`) shrinks with them.
        let mut config = schema.default_config();
        config
            .set_by_name(&schema, "scale_Signal", ConfigValue::Int(25))
            .unwrap();
        let mut ctx = simple_ctx(&schema, &config, 100);
        let out = interp.run("mean", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Count"], Value::Num(25.0));
        assert_eq!(out["Out"].dims_ref().as_slice(), &[25]);
    }

    #[test]
    fn scaled_by_on_output_is_rejected_by_sema() {
        let src = r#"
            transform t from A[n] to B[n] scaled_by linear {
                to (B b) from (A a) { b[0] = 1; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let errs = crate::sema::check_program(&program).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("only supported on transform inputs")));
    }

    #[test]
    fn unknown_resampler_is_rejected_by_sema() {
        let src = r#"
            transform t from A[n] scaled_by cubic to B[n] {
                to (B b) from (A a) { b[0] = 1; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let errs = crate::sema::check_program(&program).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("cubic")));
    }

    #[test]
    fn return_exits_the_rule_early() {
        let src = r#"
            transform t from In[n] to Out[n] {
                to (Out o) from (In a) {
                    o[0] = 1;
                    return;
                    o[0] = 2;
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = crate::traininfo::extract_schema(&program, "t");
        let config = schema.default_config();
        let interp = Interpreter::new(program);
        let mut inputs = HashMap::new();
        inputs.insert("In".to_string(), Value::Arr1(vec![0.0]));
        let mut ctx = simple_ctx(&schema, &config, 1);
        let out = interp.run("t", &inputs, &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![1.0]));
    }

    #[test]
    fn dims_ref_matches_dims_for_every_shape() {
        let scalar = Value::Num(1.0);
        let arr1 = Value::Arr1(vec![0.0; 5]);
        let arr2 = Value::zeros(&[3, 4]).unwrap();
        assert_eq!(scalar.dims_ref().as_slice(), &[] as &[usize]);
        assert_eq!(arr1.dims_ref().as_slice(), &[5]);
        assert_eq!(arr2.dims_ref().as_slice(), &[3, 4]);
        // The inline shape behaves like the slice it derefs to.
        assert!(scalar.dims_ref().is_empty());
        assert_eq!(arr1.dims_ref().len(), 1);
        assert_eq!(arr2.dims_ref()[1], 4);
        assert_eq!(arr2.dims_ref().iter().product::<usize>(), 12);
    }
}
