//! Recursive-descent parser for the transform language.

use crate::ast::*;
use crate::lexer::lex;
use crate::token::{Span, Token, TokenKind};
use std::fmt;

/// A syntax error with its location.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at byte {}: {}",
            self.span.start, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source).map_err(|e| ParseError {
        message: e.message,
        span: e.span,
    })?;
    Parser::new(tokens).program()
}

/// Deepest nesting the parser accepts, counted two ways: blocks,
/// parentheses, unary operators and argument lists open around a token
/// (the parser's own recursion), and the height of an expression tree
/// (an operator chain is parsed by iteration but is as deep as it is
/// long). Everything that later recurses over the tree — `sema`,
/// `compile`, the tree-walker, `Drop` — is bounded by it. A
/// level costs the parser under 1.5 KB of stack in an optimized build
/// and under 7 KB in an unoptimized one.
pub(crate) const MAX_NESTING: usize = 256;

/// The binary operator a token spells, with its precedence level:
/// `||` (0) < `&&` (1) < comparisons (2) < `+ -` (3) < `* / %` (4).
fn binary_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 0),
        TokenKind::AndAnd => (BinOp::And, 1),
        TokenKind::Eq => (BinOp::Eq, 2),
        TokenKind::Ne => (BinOp::Ne, 2),
        TokenKind::Lt => (BinOp::Lt, 2),
        TokenKind::Le => (BinOp::Le, 2),
        TokenKind::Gt => (BinOp::Gt, 2),
        TokenKind::Ge => (BinOp::Ge, 2),
        TokenKind::Plus => (BinOp::Add, 3),
        TokenKind::Minus => (BinOp::Sub, 3),
        TokenKind::Star => (BinOp::Mul, 4),
        TokenKind::Slash => (BinOp::Div, 4),
        TokenKind::Percent => (BinOp::Rem, 4),
        _ => return None,
    })
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    let span = lhs.span().to(rhs.span());
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
        span,
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    for_enough_counter: usize,
    either_counter: usize,
    /// Blocks, parentheses, unary operators and argument lists open
    /// around the current token: the parser's own recursion depth.
    depth: usize,
    /// Height of the expression most recently completed (a parenthesis
    /// counts as a level). Operator chains are parsed by iteration into
    /// left-deep trees, so only this bottom-up count sees their depth.
    height: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            for_enough_counter: 0,
            either_counter: 0,
            depth: 0,
            height: 0,
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self, ahead: usize) -> &TokenKind {
        let i = (self.pos + ahead).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        std::mem::discriminant(&self.peek().kind) == std::mem::discriminant(kind)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek().kind)))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            message,
            span: self.peek().span,
        }
    }

    fn too_deep(&self) -> ParseError {
        self.error(format!("nesting deeper than {MAX_NESTING}"))
    }

    /// Runs `parse` one nesting level down.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// The expression just completed sits on subtrees `below` high.
    fn grow(&mut self, below: usize) -> Result<(), ParseError> {
        self.height = below + 1;
        if self.height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    /// An expression one level down the tree: inside parentheses, under
    /// a unary operator, or as a call argument or index.
    fn operand(
        &mut self,
        parse: fn(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        let expr = self.nested(parse);
        if expr.is_ok() {
            self.grow(self.height)?;
        }
        expr
    }

    /// `expr (, expr)*`, each an [`Parser::operand`]; leaves `height`
    /// at the tallest.
    fn expr_list(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut exprs = vec![self.operand(Self::expr)?];
        let mut tallest = self.height;
        while self.eat(&TokenKind::Comma) {
            exprs.push(self.operand(Self::expr)?);
            tallest = tallest.max(self.height);
        }
        self.height = tallest;
        Ok(exprs)
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                let span = self.peek().span;
                self.bump();
                Ok((name, span))
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn number(&mut self) -> Result<(f64, Span), ParseError> {
        // A leading minus sign is allowed in header positions.
        let neg = self.eat(&TokenKind::Minus);
        match self.peek().kind {
            TokenKind::Number(value) => {
                let span = self.peek().span;
                self.bump();
                Ok((if neg { -value } else { value }, span))
            }
            ref other => Err(self.error(format!("expected number, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut transforms = Vec::new();
        while !self.at(&TokenKind::Eof) {
            transforms.push(self.transform()?);
        }
        if transforms.is_empty() {
            return Err(self.error("a program needs at least one transform".into()));
        }
        Ok(Program { transforms })
    }

    fn transform(&mut self) -> Result<Transform, ParseError> {
        self.for_enough_counter = 0;
        self.either_counter = 0;
        let start = self.expect(&TokenKind::Transform)?.span;
        let (name, _) = self.ident()?;
        let mut t = Transform {
            name,
            accuracy_metric: None,
            accuracy_variables: Vec::new(),
            accuracy_bins: Vec::new(),
            inputs: Vec::new(),
            intermediates: Vec::new(),
            outputs: Vec::new(),
            rules: Vec::new(),
            span: start,
        };
        // Headers, in any order, until the body brace.
        loop {
            match self.peek().kind {
                TokenKind::AccuracyMetric => {
                    self.bump();
                    let (metric, _) = self.ident()?;
                    t.accuracy_metric = Some(metric);
                }
                TokenKind::AccuracyVariable => {
                    self.bump();
                    let (vname, vspan) = self.ident()?;
                    // Optional `min max` range.
                    let (min, max) = if matches!(self.peek().kind, TokenKind::Number(_))
                        || self.at(&TokenKind::Minus)
                    {
                        let (lo, _) = self.number()?;
                        let (hi, _) = self.number()?;
                        (lo as i64, hi as i64)
                    } else {
                        (1, 1_000_000)
                    };
                    t.accuracy_variables.push(AccuracyVariable {
                        name: vname,
                        min,
                        max,
                        span: vspan,
                    });
                }
                TokenKind::AccuracyBins => {
                    self.bump();
                    while matches!(self.peek().kind, TokenKind::Number(_))
                        || self.at(&TokenKind::Minus)
                    {
                        let (v, _) = self.number()?;
                        t.accuracy_bins.push(v);
                    }
                    if t.accuracy_bins.is_empty() {
                        return Err(self.error("accuracy_bins needs at least one value".into()));
                    }
                }
                TokenKind::From => {
                    self.bump();
                    t.inputs = self.param_list()?;
                }
                TokenKind::Through => {
                    self.bump();
                    t.intermediates = self.param_list()?;
                }
                TokenKind::To => {
                    self.bump();
                    t.outputs = self.param_list()?;
                }
                TokenKind::LBrace => break,
                ref other => {
                    return Err(self.error(format!(
                        "expected a transform header or `{{`, found {other}"
                    )))
                }
            }
        }
        self.expect(&TokenKind::LBrace)?;
        while !self.at(&TokenKind::RBrace) {
            t.rules.push(self.rule()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(t)
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = vec![self.param()?];
        while self.eat(&TokenKind::Comma) {
            params.push(self.param()?);
        }
        Ok(params)
    }

    fn param(&mut self) -> Result<Param, ParseError> {
        let (name, span) = self.ident()?;
        let mut dims = Vec::new();
        if self.eat(&TokenKind::LBracket) {
            dims = self.expr_list()?;
            self.expect(&TokenKind::RBracket)?;
        }
        let scaled_by = if self.eat(&TokenKind::ScaledBy) {
            Some(self.ident()?.0)
        } else {
            None
        };
        Ok(Param {
            name,
            dims,
            scaled_by,
            span,
        })
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let start = self.expect(&TokenKind::To)?.span;
        self.expect(&TokenKind::LParen)?;
        let outputs = self.binding_list()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::From)?;
        self.expect(&TokenKind::LParen)?;
        let inputs = if self.at(&TokenKind::RParen) {
            Vec::new()
        } else {
            self.binding_list()?
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Rule {
            outputs,
            inputs,
            body,
            span: start,
        })
    }

    fn binding_list(&mut self) -> Result<Vec<Binding>, ParseError> {
        let mut bindings = vec![self.binding()?];
        while self.eat(&TokenKind::Comma) {
            bindings.push(self.binding()?);
        }
        Ok(bindings)
    }

    fn binding(&mut self) -> Result<Binding, ParseError> {
        let (data, span) = self.ident()?;
        let (alias, _) = self.ident()?;
        Ok(Binding { data, alias, span })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            stmts.push(self.stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Block { stmts })
    }

    /// A block inside a statement (the rule body itself is level 0).
    fn nested_block(&mut self) -> Result<Block, ParseError> {
        self.nested(Self::block)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek().span;
        match self.peek().kind {
            TokenKind::If
            | TokenKind::While
            | TokenKind::For
            | TokenKind::ForEnough
            | TokenKind::Either => self.compound_stmt(span),
            _ => self.simple_stmt(span),
        }
    }

    /// A statement that holds blocks, by its keyword. (One function per
    /// kind, so the frames a nesting level stacks up stay small.)
    fn compound_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        match self.bump().kind {
            TokenKind::If => self.if_stmt(span),
            TokenKind::While => self.while_stmt(span),
            TokenKind::For => self.for_stmt(span),
            TokenKind::ForEnough => {
                let id = self.for_enough_counter;
                self.for_enough_counter += 1;
                let body = self.nested_block()?;
                Ok(Stmt::ForEnough { id, body, span })
            }
            _either => self.either_stmt(span),
        }
    }

    fn if_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_block = self.nested_block()?;
        let else_block = if self.eat(&TokenKind::Else) {
            Some(self.nested_block()?)
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_block,
            else_block,
            span,
        })
    }

    fn while_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.nested_block()?;
        Ok(Stmt::While { cond, body, span })
    }

    fn for_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let (var, _) = self.ident()?;
        self.expect(&TokenKind::In)?;
        let lo = self.expr()?;
        self.expect(&TokenKind::DotDot)?;
        let hi = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.nested_block()?;
        Ok(Stmt::For {
            var,
            lo,
            hi,
            body,
            span,
        })
    }

    fn either_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        let id = self.either_counter;
        self.either_counter += 1;
        let mut branches = vec![self.nested_block()?];
        while self.eat(&TokenKind::Or) {
            branches.push(self.nested_block()?);
        }
        if branches.len() < 2 {
            return Err(self.error("`either` needs at least one `or` branch".into()));
        }
        Ok(Stmt::Either { id, branches, span })
    }

    fn simple_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        match self.peek().kind {
            TokenKind::Let => {
                self.bump();
                let (name, _) = self.ident()?;
                self.expect(&TokenKind::Assign)?;
                let value = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Let { name, value, span })
            }
            TokenKind::VerifyAccuracy => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::VerifyAccuracy { span })
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return { value, span })
            }
            _ => {
                // Assignment or expression statement. Try lvalue `=`.
                if let TokenKind::Ident(_) = self.peek().kind {
                    if let Some(stmt) = self.try_assignment(span)? {
                        return Ok(stmt);
                    }
                }
                let expr = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Expr { expr, span })
            }
        }
    }

    /// Parses `ident [indices] = expr ;` if the lookahead matches,
    /// without consuming anything on failure.
    fn try_assignment(&mut self, span: Span) -> Result<Option<Stmt>, ParseError> {
        let save = self.pos;
        let (name, _) = self.ident()?;
        let target = if self.eat(&TokenKind::LBracket) {
            let indices = self.expr_list()?;
            if !self.eat(&TokenKind::RBracket) {
                self.pos = save;
                return Ok(None);
            }
            LValue::Index { name, indices }
        } else {
            LValue::Var(name)
        };
        if !self.eat(&TokenKind::Assign) {
            self.pos = save;
            return Ok(None);
        }
        let value = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Some(Stmt::Assign {
            target,
            value,
            span,
        }))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_expr(0)
    }

    /// Precedence climbing over the binary operators ([`binary_op`]) at
    /// `min_level` and above, all left-associative except the
    /// comparisons, which do not chain (`a < b < c` leaves the second
    /// `<` for the caller to reject).
    fn binary_expr(&mut self, min_level: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        let mut compared = false;
        loop {
            let (op, level) = match binary_op(&self.peek().kind) {
                Some((_, level)) if level < min_level || (level == 2 && compared) => break,
                Some(found) => found,
                None => break,
            };
            compared |= level == 2;
            let lhs_height = self.height;
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            self.grow(lhs_height.max(self.height))?;
            lhs = binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek().span;
        let op = match self.peek().kind {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            _ => return self.primary_expr(),
        };
        self.bump();
        let operand = self.operand(Self::unary_expr)?;
        let span = span.to(operand.span());
        Ok(Expr::Unary {
            op,
            operand: Box::new(operand),
            span,
        })
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek().span;
        self.height = 0;
        match &self.peek().kind {
            &TokenKind::Number(value) => {
                self.bump();
                Ok(Expr::Number(value, span))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.operand(Self::expr);
                if inner.is_ok() {
                    self.expect(&TokenKind::RParen)?;
                }
                inner
            }
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.bump();
                self.named(name, span)
            }
            other => Err(self.error(format!("expected an expression, found {other}"))),
        }
    }

    /// A variable, an indexed element or a call, past the identifier.
    fn named(&mut self, name: String, span: Span) -> Result<Expr, ParseError> {
        // Sub-accuracy call: `Foo<2.5>(args)` — three-token lookahead
        // distinguishes it from a comparison.
        let accuracy = match (self.peek_kind(1), self.peek_kind(2), self.peek_kind(3)) {
            (&TokenKind::Number(v), TokenKind::Gt, TokenKind::LParen)
                if self.at(&TokenKind::Lt) =>
            {
                self.pos += 3; // < number >
                Some(v)
            }
            _ => None,
        };
        if self.eat(&TokenKind::LParen) {
            let args = if self.at(&TokenKind::RParen) {
                Vec::new()
            } else {
                self.expr_list()?
            };
            let end = self.expect(&TokenKind::RParen)?.span;
            let span = span.to(end);
            Ok(Expr::Call {
                name,
                accuracy,
                args,
                span,
            })
        } else if self.eat(&TokenKind::LBracket) {
            let indices = self.expr_list()?;
            let end = self.expect(&TokenKind::RBracket)?.span;
            let span = span.to(end);
            Ok(Expr::Index {
                name,
                indices,
                span,
            })
        } else {
            Ok(Expr::Var(name, span))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The paper's Figure 3 kmeans example, adapted to this grammar.
    pub(crate) const KMEANS: &str = r#"
        transform kmeans
        accuracy_metric kmeansaccuracy
        accuracy_variable k 1 4096
        from Points[n, 2]
        through Centroids[k, 2]
        to Assignments[n]
        {
            // Rule 1: random initial centroids.
            to (Centroids c) from (Points p) {
                for (i in 0 .. cols(c)) {
                    let src = floor(rand(0, cols(p)));
                    c[0, i] = p[0, src];
                    c[1, i] = p[1, src];
                }
            }

            // Rule 2: kmeans++ style initial centroids.
            to (Centroids c) from (Points p) {
                CenterPlus(c, p);
            }

            // Rule 3: the iterative solve.
            to (Assignments a) from (Points p, Centroids c) {
                for_enough {
                    let change = AssignClusters(a, p, c);
                    if (change == 0) { return; }
                    NewClusterLocations(c, p, a);
                }
            }
        }

        transform kmeansaccuracy
        from Assignments[n], Points[n, 2]
        to Accuracy
        {
            to (Accuracy acc) from (Assignments a, Points p) {
                acc = sqrt(2 * len(a) / SumClusterDistanceSquared(a, p));
            }
        }
    "#;

    #[test]
    fn parses_the_kmeans_example() {
        let program = parse_program(KMEANS).unwrap();
        assert_eq!(program.transforms.len(), 2);
        let kmeans = program.transform("kmeans").unwrap();
        assert_eq!(kmeans.accuracy_metric.as_deref(), Some("kmeansaccuracy"));
        assert_eq!(kmeans.accuracy_variables[0].name, "k");
        assert_eq!(kmeans.rules.len(), 3);
        assert_eq!(kmeans.intermediates[0].name, "Centroids");
        // Two rules produce Centroids: the compiler sees a choice.
        let producers = kmeans
            .rules
            .iter()
            .filter(|r| r.outputs.iter().any(|b| b.data == "Centroids"))
            .count();
        assert_eq!(producers, 2);
    }

    #[test]
    fn for_enough_gets_sequential_ids() {
        let src = r#"
            transform t from A[n] to B[n] {
                to (B b) from (A a) {
                    for_enough { b[0] = 1; }
                    for_enough { b[0] = 2; }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let rule = &program.transforms[0].rules[0];
        let ids: Vec<usize> = rule
            .body
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::ForEnough { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn either_or_parses() {
        let src = r#"
            transform t from A[n] to B[n] {
                to (B b) from (A a) {
                    either { b[0] = 1; } or { b[0] = 2; } or { b[0] = 3; }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        match &program.transforms[0].rules[0].body.stmts[0] {
            Stmt::Either { branches, .. } => assert_eq!(branches.len(), 3),
            other => panic!("expected either, got {other:?}"),
        }
    }

    #[test]
    fn sub_accuracy_call_vs_comparison() {
        let src = r#"
            transform t accuracy_variable v from A[n] to B[n] {
                to (B b) from (A a) {
                    let x = Solve<2.5>(a);
                    let y = v < 3;
                    b[0] = x + y;
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let rule = &program.transforms[0].rules[0];
        match &rule.body.stmts[0] {
            Stmt::Let {
                value: Expr::Call { accuracy, .. },
                ..
            } => {
                assert_eq!(*accuracy, Some(2.5));
            }
            other => panic!("expected sub-accuracy call, got {other:?}"),
        }
        match &rule.body.stmts[1] {
            Stmt::Let {
                value: Expr::Binary { op, .. },
                ..
            } => {
                assert_eq!(*op, BinOp::Lt);
            }
            other => panic!("expected comparison, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let src = r#"
            transform t from A[n] to B[n] {
                to (B b) from (A a) { b[0] = 1 + 2 * 3; }
            }
        "#;
        let program = parse_program(src).unwrap();
        match &program.transforms[0].rules[0].body.stmts[0] {
            Stmt::Assign {
                value:
                    Expr::Binary {
                        op: BinOp::Add,
                        rhs,
                        ..
                    },
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_semicolon_is_an_error() {
        let src = r#"
            transform t from A[n] to B[n] {
                to (B b) from (A a) { b[0] = 1 }
            }
        "#;
        let err = parse_program(src).unwrap_err();
        assert!(err.message.contains("expected `;`"), "{}", err.message);
    }

    #[test]
    fn verify_accuracy_and_bins() {
        let src = r#"
            transform t
            accuracy_bins 0.1 0.5 0.9
            from A[n] to B[n] {
                to (B b) from (A a) { b[0] = 1; verify_accuracy; }
            }
        "#;
        let program = parse_program(src).unwrap();
        assert_eq!(program.transforms[0].accuracy_bins, vec![0.1, 0.5, 0.9]);
        assert!(matches!(
            program.transforms[0].rules[0].body.stmts[1],
            Stmt::VerifyAccuracy { .. }
        ));
    }

    /// A one-rule program around `body`.
    fn rule(body: &str) -> String {
        format!(
            "transform t from In[n] to Out[n], Acc {{ to (Out o, Acc acc) from (In a) {{ {body} }} }}"
        )
    }

    /// `core` inside `depth` levels of `open` … `close`.
    fn wrapped(open: &str, core: &str, close: &str, depth: usize) -> String {
        format!("{}{core}{}", open.repeat(depth), close.repeat(depth))
    }

    const EXPR_SHAPES: [(&str, &str, &str); 5] = [
        ("(", "1", ")"),
        ("-", "1", ""),
        ("!", "1", ""),
        ("sqrt(", "1", ")"),
        ("a[", "0", "]"),
    ];

    const BLOCK_SHAPES: [(&str, &str); 4] = [
        ("if (1) {", "}"),
        ("for (i in 0 .. 1) {", "}"),
        ("for_enough {", "}"),
        ("either { acc = 1; } or {", "}"),
    ];

    #[test]
    fn nesting_past_the_limit_is_a_parse_error_not_a_stack_overflow() {
        let too_deep = |what: &str, body: String| {
            let err = parse_program(&rule(&body)).expect_err(what);
            assert!(
                err.message.contains("nesting deeper than 256"),
                "{what}: {err}"
            );
        };
        for depth in [MAX_NESTING + 1, 100_000] {
            for (open, core, close) in EXPR_SHAPES {
                too_deep(
                    open,
                    format!("acc = {};", wrapped(open, core, close, depth)),
                );
            }
            for (open, close) in BLOCK_SHAPES {
                too_deep(open, wrapped(open, "acc = 1;", close, depth));
            }
        }
        // Operator chains build left-deep trees without recursing here;
        // the limit is on the tree.
        for op in [" + ", " * ", " && ", " || "] {
            too_deep(op, format!("acc = {};", vec!["1"; 100_000].join(op)));
            too_deep(
                op,
                format!("acc = {};", vec!["1"; MAX_NESTING + 2].join(op)),
            );
        }
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        for (open, core, close) in EXPR_SHAPES {
            let body = format!("acc = {};", wrapped(open, core, close, MAX_NESTING));
            parse_program(&rule(&body)).unwrap_or_else(|e| panic!("{open}: {e}"));
        }
        for (open, close) in BLOCK_SHAPES {
            let body = wrapped(open, "acc = acc + 1;", close, MAX_NESTING);
            parse_program(&rule(&body)).unwrap_or_else(|e| panic!("{open}: {e}"));
        }
        let sum = format!("acc = {};", vec!["1"; MAX_NESTING + 1].join(" + "));
        parse_program(&rule(&sum)).unwrap();
    }

    #[test]
    fn empty_program_is_an_error() {
        assert!(parse_program("").is_err());
        assert!(parse_program("   // just a comment").is_err());
    }
}
