//! Abstract syntax for the transform language (§2–3 of the paper).

use crate::token::Span;

/// A whole source file: one or more transforms.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The transforms, in declaration order.
    pub transforms: Vec<Transform>,
}

impl Program {
    /// Finds a transform by name.
    pub fn transform(&self, name: &str) -> Option<&Transform> {
        self.transforms.iter().find(|t| t.name == name)
    }
}

/// A `transform` declaration with its variable-accuracy headers (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Transform {
    /// Transform name.
    pub name: String,
    /// `accuracy_metric` header: the metric transform's name.
    pub accuracy_metric: Option<String>,
    /// `accuracy_variable` headers.
    pub accuracy_variables: Vec<AccuracyVariable>,
    /// `accuracy_bins` header values.
    pub accuracy_bins: Vec<f64>,
    /// `from` data (inputs).
    pub inputs: Vec<Param>,
    /// `through` data (intermediates).
    pub intermediates: Vec<Param>,
    /// `to` data (outputs).
    pub outputs: Vec<Param>,
    /// The rules in the transform body.
    pub rules: Vec<Rule>,
    /// Source location of the header.
    pub span: Span,
}

impl Transform {
    /// All declared data parameters (inputs, intermediates, outputs).
    pub fn all_data(&self) -> impl Iterator<Item = &Param> {
        self.inputs
            .iter()
            .chain(&self.intermediates)
            .chain(&self.outputs)
    }

    /// Looks a data parameter up by name.
    pub fn data(&self, name: &str) -> Option<&Param> {
        self.all_data().find(|p| p.name == name)
    }
}

/// An `accuracy_variable` declaration with an optional range.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyVariable {
    /// Variable name.
    pub name: String,
    /// Smallest legal value (default 1).
    pub min: i64,
    /// Largest legal value (default 1,000,000).
    pub max: i64,
    /// Source location.
    pub span: Span,
}

/// A data parameter: `Points[n, 2]` or a scalar like `Accuracy`.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Data name.
    pub name: String,
    /// Dimension expressions; empty = scalar.
    pub dims: Vec<Expr>,
    /// `scaled_by` resampler name (§3.2), if declared. The compiler
    /// adds a `scale_<name>` accuracy variable controlling how far the
    /// data may be down-sampled before the rules run.
    pub scaled_by: Option<String>,
    /// Source location.
    pub span: Span,
}

/// One rule: a pathway producing some data from other data.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Output bindings `(DataName localAlias)`.
    pub outputs: Vec<Binding>,
    /// Input bindings.
    pub inputs: Vec<Binding>,
    /// The rule body.
    pub body: Block,
    /// Source location.
    pub span: Span,
}

/// A `(Data alias)` binding in a rule header.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The transform-level data name.
    pub data: String,
    /// The local alias used inside the rule body.
    pub alias: String,
    /// Source location.
    pub span: Span,
}

/// A brace-delimited statement list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Calls `f` on every statement of the block, those of nested
    /// blocks included, in source order.
    pub(crate) fn for_each_stmt<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        for stmt in &self.stmts {
            f(stmt);
            match stmt {
                Stmt::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    then_block.for_each_stmt(f);
                    if let Some(else_block) = else_block {
                        else_block.for_each_stmt(f);
                    }
                }
                Stmt::While { body, .. }
                | Stmt::For { body, .. }
                | Stmt::ForEnough { body, .. } => body.for_each_stmt(f),
                Stmt::Either { branches, .. } => {
                    for branch in branches {
                        branch.for_each_stmt(f);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = expr;`
    Let {
        /// Variable name.
        name: String,
        /// Initializer.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// `lvalue = expr;`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// `if (cond) { … } else { … }`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Optional else branch.
        else_block: Option<Block>,
        /// Source location.
        span: Span,
    },
    /// `while (cond) { … }`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Source location.
        span: Span,
    },
    /// `for (i in lo .. hi) { … }` (half-open range).
    For {
        /// Loop variable.
        var: String,
        /// Lower bound (inclusive).
        lo: Expr,
        /// Upper bound (exclusive).
        hi: Expr,
        /// Loop body.
        body: Block,
        /// Source location.
        span: Span,
    },
    /// `for_enough { … }` — compiler-chosen iteration count (§3.2).
    ForEnough {
        /// Index of this loop within the transform (names its tunable).
        id: usize,
        /// Loop body.
        body: Block,
        /// Source location.
        span: Span,
    },
    /// `either { … } or { … }` — algorithmic choice (§3.2).
    Either {
        /// Index of this site within the transform.
        id: usize,
        /// The alternative branches (≥ 2).
        branches: Vec<Block>,
        /// Source location.
        span: Span,
    },
    /// `verify_accuracy;` — runtime accuracy check marker (§3.3).
    VerifyAccuracy {
        /// Source location.
        span: Span,
    },
    /// `return;` / `return expr;` — early exit from the rule body.
    Return {
        /// Optional value (ignored by rules; kept for metric bodies).
        value: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// A bare expression statement (a call).
    Expr {
        /// The expression.
        expr: Expr,
        /// Source location.
        span: Span,
    },
}

impl Stmt {
    /// The name a statement binds: a `let`, a scalar assignment or a
    /// `for` header.
    pub(crate) fn bound_name(&self) -> Option<&str> {
        match self {
            Stmt::Let { name, .. }
            | Stmt::Assign {
                target: LValue::Var(name),
                ..
            }
            | Stmt::For { var: name, .. } => Some(name),
            _ => None,
        }
    }

    /// Calls `f` on every expression of the statement itself, nested
    /// sub-expressions included (not on those of the statements in its
    /// blocks: see [`Block::for_each_stmt`]).
    pub(crate) fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        let own: [Option<&Expr>; 2] = match self {
            Stmt::Let { value, .. }
            | Stmt::Return {
                value: Some(value), ..
            } => [Some(value), None],
            Stmt::Assign { target, value, .. } => {
                if let LValue::Index { indices, .. } = target {
                    indices.iter().for_each(|e| e.for_each(f));
                }
                [Some(value), None]
            }
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => [Some(cond), None],
            Stmt::For { lo, hi, .. } => [Some(lo), Some(hi)],
            Stmt::Expr { expr, .. } => [Some(expr), None],
            Stmt::ForEnough { .. }
            | Stmt::Either { .. }
            | Stmt::VerifyAccuracy { .. }
            | Stmt::Return { value: None, .. } => [None, None],
        };
        own.into_iter().flatten().for_each(|e| e.for_each(f));
    }

    /// This statement's source span.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::For { span, .. }
            | Stmt::ForEnough { span, .. }
            | Stmt::Either { span, .. }
            | Stmt::VerifyAccuracy { span }
            | Stmt::Return { span, .. }
            | Stmt::Expr { span, .. } => *span,
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable.
    Var(String),
    /// An array element `a[i]` / `a[i, j]`.
    Index {
        /// Array name.
        name: String,
        /// Index expressions (1 or 2).
        indices: Vec<Expr>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64, Span),
    /// Variable reference.
    Var(String, Span),
    /// Array element read.
    Index {
        /// Array name.
        name: String,
        /// Index expressions.
        indices: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// Function or builtin call; `accuracy` is set for
    /// `Callee<2.5>(…)` sub-accuracy calls (§3.2).
    Call {
        /// Callee name.
        name: String,
        /// Requested sub-accuracy, if explicit.
        accuracy: Option<f64>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source location.
        span: Span,
    },
}

impl Expr {
    /// Calls `f` on the expression and every sub-expression.
    pub(crate) fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Index { indices: inner, .. } | Expr::Call { args: inner, .. } => {
                inner.iter().for_each(|e| e.for_each(f));
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.for_each(f);
                rhs.for_each(f);
            }
            Expr::Unary { operand, .. } => operand.for_each(f),
            Expr::Number(..) | Expr::Var(..) => {}
        }
    }

    /// This expression's source span.
    pub fn span(&self) -> Span {
        match self {
            Expr::Number(_, span) | Expr::Var(_, span) => *span,
            Expr::Index { span, .. }
            | Expr::Call { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Unary { span, .. } => *span,
        }
    }
}
