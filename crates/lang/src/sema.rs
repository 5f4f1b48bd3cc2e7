//! Semantic analysis: name resolution and well-formedness checks.

use crate::ast::{Block, Expr, LValue, Program, Rule, Stmt, Transform};
use crate::token::Span;
use std::collections::HashSet;
use std::fmt;

/// A semantic error with its location.
#[derive(Debug, Clone, PartialEq)]
pub struct SemaError {
    /// Human-readable message.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "semantic error: {}", self.message)
    }
}

impl std::error::Error for SemaError {}

/// Checks the whole program, returning every violation found.
///
/// # Errors
///
/// Returns the list of semantic errors (empty never — `Ok(())` means
/// the program is well-formed).
pub fn check_program(program: &Program) -> Result<(), Vec<SemaError>> {
    let mut errors = Vec::new();
    let mut names: HashSet<&str> = HashSet::new();
    for t in &program.transforms {
        if !names.insert(&t.name) {
            errors.push(SemaError {
                message: format!("duplicate transform name `{}`", t.name),
                span: t.span,
            });
        }
    }
    for t in &program.transforms {
        check_transform(program, t, &mut errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn check_transform(program: &Program, t: &Transform, errors: &mut Vec<SemaError>) {
    // Data names unique.
    let mut data_names: HashSet<&str> = HashSet::new();
    for p in t.all_data() {
        if !data_names.insert(&p.name) {
            errors.push(SemaError {
                message: format!(
                    "data `{}` declared more than once in transform `{}`",
                    p.name, t.name
                ),
                span: p.span,
            });
        }
        if p.dims.len() > 2 {
            errors.push(SemaError {
                message: format!(
                    "data `{}` is declared with {} dimensions (arrays have one or two)",
                    p.name,
                    p.dims.len()
                ),
                span: p.span,
            });
        }
    }

    // Accuracy variables: sane ranges, no clash with data names.
    let mut av_names: HashSet<&str> = HashSet::new();
    for av in &t.accuracy_variables {
        if av.min > av.max {
            errors.push(SemaError {
                message: format!(
                    "accuracy variable `{}` has an empty range {}..{}",
                    av.name, av.min, av.max
                ),
                span: av.span,
            });
        }
        if !av_names.insert(&av.name) {
            errors.push(SemaError {
                message: format!("duplicate accuracy variable `{}`", av.name),
                span: av.span,
            });
        }
        if data_names.contains(av.name.as_str()) {
            errors.push(SemaError {
                message: format!("accuracy variable `{}` shadows a data declaration", av.name),
                span: av.span,
            });
        }
    }

    // The accuracy metric must exist and produce a single scalar.
    if let Some(metric) = &t.accuracy_metric {
        match program.transform(metric) {
            None => errors.push(SemaError {
                message: format!(
                    "accuracy metric `{metric}` of transform `{}` is not defined",
                    t.name
                ),
                span: t.span,
            }),
            Some(m) => {
                if m.outputs.len() != 1 || !m.outputs[0].dims.is_empty() {
                    errors.push(SemaError {
                        message: format!(
                            "accuracy metric `{metric}` must produce exactly one scalar output"
                        ),
                        span: m.span,
                    });
                }
            }
        }
    }

    // `scaled_by` (§3.2): supported on inputs, with the built-in
    // `linear` resampler.
    for p in t.intermediates.iter().chain(&t.outputs) {
        if p.scaled_by.is_some() {
            errors.push(SemaError {
                message: format!(
                    "`scaled_by` on `{}` is only supported on transform inputs",
                    p.name
                ),
                span: p.span,
            });
        }
    }
    for p in &t.inputs {
        if let Some(resampler) = &p.scaled_by {
            if resampler != "linear" {
                errors.push(SemaError {
                    message: format!(
                        "unknown resampler `{resampler}` for `{}` (only the built-in `linear` is available)",
                        p.name
                    ),
                    span: p.span,
                });
            }
            if p.dims.len() != 1 {
                errors.push(SemaError {
                    message: format!("`scaled_by` input `{}` must be one-dimensional", p.name),
                    span: p.span,
                });
            }
        }
    }

    // Rules: bindings reference declared data; outputs are writable.
    let input_names: HashSet<&str> = t.inputs.iter().map(|p| p.name.as_str()).collect();
    for rule in &t.rules {
        // One local per output binding: the VM moves each out of its
        // own slot after the body.
        let mut out_aliases: HashSet<&str> = HashSet::new();
        for b in &rule.outputs {
            if !out_aliases.insert(&b.alias) {
                errors.push(SemaError {
                    message: format!("output alias `{}` is bound twice in one rule", b.alias),
                    span: b.span,
                });
            }
            if !data_names.contains(b.data.as_str()) {
                errors.push(SemaError {
                    message: format!("rule writes undeclared data `{}`", b.data),
                    span: b.span,
                });
            } else if input_names.contains(b.data.as_str()) {
                errors.push(SemaError {
                    message: format!("rule writes transform input `{}`", b.data),
                    span: b.span,
                });
            }
        }
        for b in &rule.inputs {
            if !data_names.contains(b.data.as_str()) {
                errors.push(SemaError {
                    message: format!("rule reads undeclared data `{}`", b.data),
                    span: b.span,
                });
            }
        }
        check_rule_body(program, t, rule, errors);
    }

    // Every non-input datum needs at least one producing rule.
    for p in t.intermediates.iter().chain(&t.outputs) {
        let produced = t
            .rules
            .iter()
            .any(|r| r.outputs.iter().any(|b| b.data == p.name));
        if !produced {
            errors.push(SemaError {
                message: format!(
                    "data `{}` in transform `{}` has no producing rule",
                    p.name, t.name
                ),
                span: p.span,
            });
        }
    }
}

/// Argument count of a builtin function (`None` for any other name).
pub(crate) fn builtin_arity(name: &str) -> Option<usize> {
    match name {
        "sqrt" | "abs" | "floor" | "ceil" | "exp" | "log" | "len" | "rows" | "cols" => Some(1),
        "min" | "max" | "pow" | "rand" => Some(2),
        _ => None,
    }
}

/// The rule-body checks — what makes every accepted rule compile
/// ([`crate::compile`] lowers a checked body without a fallback).
///
/// *Definite assignment.* A name is bound by a rule header alias, a
/// `let`, a scalar assignment or a `for` header. A plain read of a name
/// no path has bound yet is a tunable read (accuracy variables are
/// read by name); a read of a name every path has bound is a local
/// read. What is rejected is the read in between — bound by one `if`
/// arm, one `either` branch, a loop body that may run zero times, or a
/// later statement of the enclosing loop body — because which of the
/// two it is would depend on the path taken. `return` is not modelled:
/// a branch that ends in one still counts as a path.
///
/// *Arities.* Builtins take their fixed argument count, `len`/`rows`/
/// `cols` a variable, an index one or two subscripts, a sub-transform
/// call one argument per callee input (and the callee has exactly one
/// output), a host call at least one argument.
struct BodyCheck<'a> {
    program: &'a Program,
    transform: &'a Transform,
    /// Names bound on every path to the current point.
    assigned: HashSet<&'a str>,
    /// Names some path has bound (or, inside a loop, a later statement
    /// of its body will): a read of one not in `assigned` is rejected.
    maybe: HashSet<&'a str>,
    errors: &'a mut Vec<SemaError>,
}

fn check_rule_body(
    program: &Program,
    transform: &Transform,
    rule: &Rule,
    errors: &mut Vec<SemaError>,
) {
    let aliases = rule.inputs.iter().chain(&rule.outputs);
    let mut check = BodyCheck {
        program,
        transform,
        assigned: aliases.map(|b| b.alias.as_str()).collect(),
        maybe: HashSet::new(),
        errors,
    };
    check.block(&rule.body);
}

impl<'a> BodyCheck<'a> {
    fn error(&mut self, message: String, span: Span) {
        self.errors.push(SemaError { message, span });
    }

    fn block(&mut self, block: &'a Block) {
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &'a Stmt) {
        match stmt {
            Stmt::Let { name, value, .. }
            | Stmt::Assign {
                target: LValue::Var(name),
                value,
                ..
            } => {
                self.expr(value);
                self.assigned.insert(name);
            }
            Stmt::Assign {
                target: LValue::Index { name, indices },
                value,
                span,
            } => {
                self.expr(value);
                self.indexed(name, indices, *span);
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                self.expr(cond);
                self.branch([Some(then_block), else_block.as_ref()]);
            }
            Stmt::While { cond, body, .. } => {
                // The condition runs again after every trip.
                self.enter_loop(body);
                self.expr(cond);
                self.zero_or_more(body);
            }
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                // The bounds are evaluated once, ahead of the loop.
                self.expr(lo);
                self.expr(hi);
                self.enter_loop(body);
                let was_definite = !self.assigned.insert(var);
                self.zero_or_more(body);
                if !was_definite {
                    // An empty range never binds the variable.
                    self.assigned.remove(var.as_str());
                    self.maybe.insert(var);
                }
            }
            Stmt::ForEnough { body, .. } => {
                self.enter_loop(body);
                self.zero_or_more(body);
            }
            Stmt::Either { branches, .. } => self.branch(branches.iter().map(Some)),
            Stmt::Return { value: Some(v), .. } | Stmt::Expr { expr: v, .. } => self.expr(v),
            Stmt::Return { value: None, .. } | Stmt::VerifyAccuracy { .. } => {}
        }
    }

    /// What a loop body binds is bound on some paths only from the
    /// loop's head on — inside the body too, ahead of the binding
    /// statement, which the previous trip may or may not have run.
    fn enter_loop(&mut self, body: &'a Block) {
        body.for_each_stmt(&mut |stmt| self.maybe.extend(stmt.bound_name()));
    }

    /// A body that may run zero times leaves nothing more definitely
    /// bound than it found.
    fn zero_or_more(&mut self, body: &'a Block) {
        let before = self.assigned.clone();
        self.block(body);
        self.assigned = before;
    }

    /// One of `arms` runs (`None`: an `if` without `else`). Afterwards,
    /// bound on every path is definite, bound on some only is `maybe`.
    fn branch(&mut self, arms: impl IntoIterator<Item = Option<&'a Block>>) {
        let before = std::mem::take(&mut self.assigned);
        let mut paths = Vec::new();
        for arm in arms {
            self.assigned = before.clone();
            arm.into_iter().for_each(|block| self.block(block));
            paths.push(std::mem::take(&mut self.assigned));
        }
        self.assigned = before;
        for &name in paths.iter().flatten() {
            if paths.iter().all(|p| p.contains(name)) {
                self.assigned.insert(name);
            } else {
                self.maybe.insert(name);
            }
        }
    }

    /// A read of `name`: whether it is a local (bound on every path).
    /// Bound on some paths only is the error; on none, a tunable read.
    fn read(&mut self, name: &str, span: Span) -> bool {
        let local = self.assigned.contains(name);
        if !local && self.maybe.contains(name) {
            self.error(
                format!("`{name}` is read here but bound on only some of the paths that reach it"),
                span,
            );
        }
        local
    }

    /// A use of `name` as a value in place — indexed, measured, or
    /// handed to a host function to mutate: it must be a local.
    fn local(&mut self, name: &str, span: Span) {
        if !self.read(name, span) && !self.maybe.contains(name) {
            self.error(format!("`{name}` is not bound here"), span);
        }
    }

    fn indexed(&mut self, name: &str, indices: &'a [Expr], span: Span) {
        self.local(name, span);
        if indices.len() > 2 {
            self.error(
                format!(
                    "`{name}` is indexed with {} subscripts (arrays have one or two dimensions)",
                    indices.len()
                ),
                span,
            );
        }
        for index in indices {
            self.expr(index);
        }
    }

    fn expr(&mut self, expr: &'a Expr) {
        match expr {
            Expr::Number(..) => {}
            Expr::Var(name, span) => {
                self.read(name, *span);
            }
            Expr::Index {
                name,
                indices,
                span,
            } => self.indexed(name, indices, *span),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Unary { operand, .. } => self.expr(operand),
            Expr::Call {
                name,
                accuracy,
                args,
                span,
            } => self.call(name, accuracy.is_some(), args, *span),
        }
    }

    fn call(&mut self, name: &str, sub_accuracy: bool, args: &'a [Expr], span: Span) {
        let callee = self.program.transform(name);
        if sub_accuracy && callee.is_none() {
            self.error(
                format!("sub-accuracy call targets undeclared transform `{name}`"),
                span,
            );
        }
        // Dispatch order of both engines: builtin, other transform,
        // host function.
        let mut value_args = args;
        if let Some(arity) = builtin_arity(name) {
            if args.len() != arity {
                let s = if arity == 1 { "" } else { "s" };
                self.error(
                    format!("`{name}` takes {arity} argument{s}, got {}", args.len()),
                    span,
                );
            }
            if matches!(name, "len" | "rows" | "cols") {
                match args.first() {
                    Some(Expr::Var(array, at)) => {
                        self.local(array, *at);
                        value_args = &args[1..];
                    }
                    Some(other) => self.error(
                        format!("`{name}` takes a variable, not an expression"),
                        other.span(),
                    ),
                    None => {}
                }
            }
        } else if let Some(callee) = callee.filter(|_| name != self.transform.name) {
            if callee.outputs.len() != 1 {
                self.error(
                    format!(
                        "transform `{name}` is called as an expression but has {} outputs",
                        callee.outputs.len()
                    ),
                    span,
                );
            }
            if args.len() != callee.inputs.len() {
                self.error(
                    format!(
                        "transform `{name}` takes {} inputs, got {}",
                        callee.inputs.len(),
                        args.len()
                    ),
                    span,
                );
            }
        } else {
            match args.first() {
                // The host may mutate its first argument in place.
                Some(Expr::Var(first, at)) => {
                    self.local(first, *at);
                    value_args = &args[1..];
                }
                Some(_) => {}
                None => self.error(
                    format!("host function `{name}` needs at least one argument"),
                    span,
                ),
            }
        }
        for arg in value_args {
            self.expr(arg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn errors_of(src: &str) -> Vec<String> {
        match check_program(&parse_program(src).unwrap()) {
            Ok(()) => Vec::new(),
            Err(es) => es.into_iter().map(|e| e.message).collect(),
        }
    }

    #[test]
    fn valid_program_passes() {
        let src = r#"
            transform t
            accuracy_metric m
            accuracy_variable k 1 10
            from A[n] to B[n] {
                to (B b) from (A a) { b[0] = a[0]; }
            }
            transform m from B[n], A[n] to Accuracy {
                to (Accuracy acc) from (B b, A a) { acc = 1; }
            }
        "#;
        assert!(errors_of(src).is_empty());
    }

    #[test]
    fn missing_metric_reported() {
        let src = r#"
            transform t accuracy_metric nope from A[n] to B[n] {
                to (B b) from (A a) { b[0] = 1; }
            }
        "#;
        let errs = errors_of(src);
        assert!(errs.iter().any(|e| e.contains("nope")), "{errs:?}");
    }

    #[test]
    fn metric_must_be_scalar() {
        let src = r#"
            transform t accuracy_metric m from A[n] to B[n] {
                to (B b) from (A a) { b[0] = 1; }
            }
            transform m from B[n] to Acc[n] {
                to (Acc acc) from (B b) { acc[0] = 1; }
            }
        "#;
        let errs = errors_of(src);
        assert!(errs.iter().any(|e| e.contains("scalar")), "{errs:?}");
    }

    #[test]
    fn unproduced_output_reported() {
        let src = r#"
            transform t from A[n] through C[n] to B[n] {
                to (B b) from (A a) { b[0] = 1; }
            }
        "#;
        let errs = errors_of(src);
        assert!(
            errs.iter().any(|e| e.contains("no producing rule")),
            "{errs:?}"
        );
    }

    #[test]
    fn writing_an_input_reported() {
        let src = r#"
            transform t from A[n] to B[n] {
                to (A a, B b) from () { b[0] = 1; }
            }
        "#;
        let errs = errors_of(src);
        assert!(
            errs.iter().any(|e| e.contains("writes transform input")),
            "{errs:?}"
        );
    }

    #[test]
    fn output_alias_bound_twice_reported() {
        let src = r#"
            transform t from A[n] to B[n], C {
                to (B x, C x) from (A a) { x = 1; }
            }
        "#;
        let errs = errors_of(src);
        assert!(
            errs.iter()
                .any(|e| e.contains("output alias `x` is bound twice")),
            "{errs:?}"
        );
        // An output alias may still shadow an input's.
        let src = r#"
            transform t from A[n] to B[n] {
                to (B a) from (A a) { a[0] = 1; }
            }
        "#;
        assert!(errors_of(src).is_empty());
    }

    #[test]
    fn undeclared_rule_data_reported() {
        let src = r#"
            transform t from A[n] to B[n] {
                to (B b) from (Z z) { b[0] = 1; }
            }
        "#;
        let errs = errors_of(src);
        assert!(
            errs.iter().any(|e| e.contains("undeclared data `Z`")),
            "{errs:?}"
        );
    }

    #[test]
    fn duplicate_transform_and_variable_names() {
        let src = r#"
            transform t accuracy_variable v accuracy_variable v from A[n] to B[n] {
                to (B b) from (A a) { b[0] = 1; }
            }
            transform t from A[n] to B[n] {
                to (B b) from (A a) { b[0] = 1; }
            }
        "#;
        let errs = errors_of(src);
        assert!(errs.iter().any(|e| e.contains("duplicate transform")));
        assert!(errs
            .iter()
            .any(|e| e.contains("duplicate accuracy variable")));
    }

    #[test]
    fn bad_sub_accuracy_target_reported() {
        let src = r#"
            transform t from A[n] to B[n] {
                to (B b) from (A a) { b[0] = Ghost<1.5>(a); }
            }
        "#;
        let errs = errors_of(src);
        assert!(errs.iter().any(|e| e.contains("Ghost")), "{errs:?}");
    }

    #[test]
    fn empty_accuracy_variable_range_reported() {
        let src = r#"
            transform t accuracy_variable v 5 2 from A[n] to B[n] {
                to (B b) from (A a) { b[0] = 1; }
            }
        "#;
        let errs = errors_of(src);
        assert!(errs.iter().any(|e| e.contains("empty range")), "{errs:?}");
    }

    #[test]
    fn data_of_more_than_two_dims_reported() {
        let src = "transform t from A[n, n, n] to B[n, n, n] {
            to (B b) from (A a) { b[0, 0] = a[0, 0]; } }";
        let errors = check_program(&parse_program(src).unwrap()).unwrap_err();
        let spanned: Vec<(&str, &str)> = errors
            .iter()
            .map(|e| (&src[e.span.start..][..1], e.message.as_str()))
            .collect();
        assert_eq!(
            spanned,
            [
                (
                    "A",
                    "data `A` is declared with 3 dimensions (arrays have one or two)"
                ),
                (
                    "B",
                    "data `B` is declared with 3 dimensions (arrays have one or two)"
                ),
            ]
        );
    }

    /// Checks a one-rule transform `t` with the given body (`k` is an
    /// accuracy variable, `one` and `pair` are callable transforms):
    /// `want` is a substring of one of the errors, or empty when the
    /// body must be accepted. Every error's span starts in the body.
    fn body(body: &str, want: &str) {
        let src = format!(
            "transform t accuracy_variable k 1 9 from In[n] to Out[n] {{
                to (Out o) from (In a) {{ {body} }}
            }}
            transform pair from X, Y to R, S {{
                to (R r, S s) from (X x, Y y) {{ r = x; s = y; }}
            }}
            transform one from X to R {{ to (R r) from (X x) {{ r = x; }} }}"
        );
        let at = src.find(body).unwrap();
        let errors = check_program(&parse_program(&src).unwrap())
            .err()
            .unwrap_or_default();
        for e in &errors {
            assert!(
                (at..at + body.len()).contains(&e.span.start),
                "{body}: {e:?}"
            );
        }
        let ok = match want {
            "" => errors.is_empty(),
            want => errors.iter().any(|e| e.message.contains(want)),
        };
        assert!(ok, "{body}: want `{want}`, got {errors:?}");
    }

    /// `name` is read where only some paths have bound it.
    fn partial(code: &str, name: &str) {
        body(
            code,
            &format!("`{name}` is read here but bound on only some"),
        );
    }

    #[test]
    fn binding_only_in_if_without_else_is_rejected() {
        partial("if (a[0]) { let x = 1; } o[0] = x;", "x");
        partial("if (a[0]) { let x = 1; } else { o[1] = 2; } o[0] = x;", "x");
        // The span is the read, not the `if`.
        let src = "transform t from In[n] to Out[n] { to (Out o) from (In a) {
            if (a[0]) { let x = 1; } o[0] = x; } }";
        let errors = check_program(&parse_program(src).unwrap()).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert_eq!(&src[errors[0].span.start..][..2], "x;");
    }

    #[test]
    fn binding_in_one_either_arm_is_rejected() {
        partial("either { let x = 1; } or { o[1] = 2; } o[0] = x;", "x");
        body("either { let x = 1; } or { let x = 2; } o[0] = x;", "");
    }

    #[test]
    fn binding_in_a_loop_body_is_rejected_after_the_loop() {
        partial(
            "let j = 0; while (j < 2) { let y = j; j = j + 1; } o[0] = y;",
            "y",
        );
        partial("for (i in 0 .. len(a)) { let y = a[i]; } o[0] = y;", "y");
        partial("for_enough { let y = 1; } o[0] = y;", "y");
        // The issue's probe: an assignment, not a `let`.
        partial(
            "for (i in 0 .. len(a)) { last = a[i]; } o[0] = last;",
            "last",
        );
        // Declared ahead of the loop, it is readable after it.
        body(
            "let y = 0; for (i in 0 .. len(a)) { y = a[i]; } o[0] = y;",
            "",
        );
    }

    #[test]
    fn binding_later_in_a_loop_body_is_rejected_earlier_in_it() {
        // First trip: the tunable (or nothing); later trips: the local.
        partial("for (i in 0 .. 3) { o[0] = y; let y = i; }", "y");
        partial("let j = 0; while (j < y) { let y = 2; j = j + 1; }", "y");
        // `for` bounds are evaluated once, ahead of every trip.
        body("for (i in 0 .. k) { let k = 2; o[0] = k; }", "");
    }

    #[test]
    fn loop_variable_read_after_a_possibly_empty_for_is_rejected() {
        partial("for (i in 0 .. len(a)) { o[i] = 1; } o[0] = i;", "i");
        body(
            "let i = 7; for (i in 0 .. len(a)) { o[i] = 1; } o[0] = i;",
            "",
        );
    }

    #[test]
    fn both_branches_bind_is_accepted() {
        body("if (a[0]) { let x = 1; } else { let x = 2; } o[0] = x;", "");
        // And a name bound again after a one-armed `if`.
        body("if (a[0]) { let x = 1; } let x = 2; o[0] = x;", "");
    }

    #[test]
    fn read_before_any_binding_is_accepted_and_resolves_the_tunable() {
        // `k` is the accuracy variable until the `let` shadows it.
        body("o[0] = k; let k = 40; o[1] = k;", "");
        let program = parse_program(
            "transform t accuracy_variable k 1 9 from In[n] to Out[n] {
                to (Out o) from (In a) { o[0] = k; let k = 40; o[1] = k; }
            }",
        )
        .unwrap();
        let compiled = crate::compile::compile_program(&program);
        let chunk = compiled.chunk("t", 0).unwrap();
        let param_loads = chunk.code.iter().filter(|i| {
            matches!(i, crate::compile::Instr::LoadParam { name, .. } if chunk.names[*name as usize] == "k")
        });
        assert_eq!(param_loads.count(), 1);
    }

    #[test]
    fn in_place_uses_need_a_local() {
        for code in [
            "o[0] = zz[0];",
            "zz[0] = 1;",
            "o[0] = len(zz);",
            "Fill(zz, 1);",
        ] {
            body(code, "`zz` is not bound here");
        }
        for tail in [
            "o[0] = w[0];",
            "w[0] = 1;",
            "o[0] = rows(w);",
            "Fill(w, 1);",
        ] {
            partial(&format!("if (a[0]) {{ let w = a; }} {tail}"), "w");
        }
        body("let w = a; Fill(w, 1); o[0] = w[0] + len(w);", "");
    }

    #[test]
    fn arities_are_checked() {
        body("o[0] = a[0, 1, 2];", "3 subscripts");
        body("o[0, 1, 2] = 1;", "3 subscripts");
        body("o[0] = sqrt();", "`sqrt` takes 1 argument, got 0");
        body("o[0] = min(1);", "`min` takes 2 arguments, got 1");
        body("o[0] = rand(0, 1, 2);", "`rand` takes 2 arguments, got 3");
        body("o[0] = len();", "`len` takes 1 argument, got 0");
        body("o[0] = cols(a + 1);", "`cols` takes a variable");
        body(
            "o[0] = pair(1, 2);",
            "`pair` is called as an expression but has 2 outputs",
        );
        body("o[0] = one(1, 2);", "`one` takes 1 inputs, got 2");
        body("o[0] = one();", "`one` takes 1 inputs, got 0");
        body(
            "Poke();",
            "host function `Poke` needs at least one argument",
        );
        body("o[0] = one(a[0]) + min(1, 2) + Poke(o, 1) + Peek(1);", "");
    }

    #[test]
    fn kmeans_example_is_well_formed() {
        let program = parse_program(crate::parser::tests::KMEANS).unwrap();
        assert!(check_program(&program).is_ok());
    }
}
