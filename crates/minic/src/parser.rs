//! Recursive-descent parser for MiniC.

use crate::ast::*;
use crate::lexer::{lex, LexError, Spanned, Tok};
use std::fmt;

/// A syntax error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { line: e.line, msg: e.msg }
    }
}

/// Deepest statement/expression nesting the parser accepts. Each nested
/// statement, expression (a parenthesized one, a call argument, an index)
/// and prefix operator counts one level, so a parenthesized expression
/// costs two: about 60 nested parentheses or 125 nested blocks fit. Past
/// the limit parsing fails with a diagnostic instead of overflowing the
/// stack — the recursive descent, and the recursive passes after it, use
/// stack proportional to the nesting depth. At this limit the deepest
/// accepted shapes still compile and simulate in an unoptimized build on a
/// 2 MB thread stack (the default for spawned threads).
const MAX_NESTING: u32 = 128;

/// Most chained operators one expression may contain: binary operators
/// and postfix `[]`/`++`/`--`, counting those inside its parentheses,
/// call arguments and indexes. Such operators build their tree without
/// nesting the parser (`n + n + … + n` and `a[0][0]…` are left-deep), so
/// [`MAX_NESTING`] does not bound them, yet the recursive passes after
/// parsing need stack proportional to the tree's depth. With both limits
/// at their maximum the deepest accepted expression still compiles in an
/// unoptimized build on a 2 MB thread stack.
const MAX_CHAINED: u32 = 128;

/// Parses a MiniC translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered, including
/// statements or expressions nested too deeply to parse safely.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, depth: 0, chained: None };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: u32,
    /// Chained operators in the expression being parsed (see
    /// [`MAX_CHAINED`]); `None` between expressions.
    chained: Option<u32>,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, msg: String) -> ParseError {
        ParseError { line: self.line(), msg }
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let r = parse(self);
        self.depth -= 1;
        r
    }

    /// Counts one chained operator of the current expression, failing past
    /// [`MAX_CHAINED`].
    fn chain(&mut self) -> Result<(), ParseError> {
        let n = self.chained.get_or_insert(0);
        *n += 1;
        if *n > MAX_CHAINED {
            return Err(self.err(format!("more than {MAX_CHAINED} operators in one expression")));
        }
        Ok(())
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ---- types ----

    fn starts_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwInt
                | Tok::KwUnsigned
                | Tok::KwSigned
                | Tok::KwChar
                | Tok::KwShort
                | Tok::KwLong
                | Tok::KwVoid
                | Tok::KwConst
                | Tok::KwExtern
        )
    }

    /// Parses a base type (no pointer stars).
    fn base_type(&mut self) -> Result<Ty, ParseError> {
        let signed = if self.eat(&Tok::KwUnsigned) {
            false
        } else {
            self.eat(&Tok::KwSigned);
            true
        };
        let ty = match self.peek() {
            Tok::KwChar => {
                self.bump();
                Ty::Int { bits: 8, signed }
            }
            Tok::KwShort => {
                self.bump();
                self.eat(&Tok::KwInt);
                Ty::Int { bits: 16, signed }
            }
            Tok::KwLong => {
                self.bump();
                self.eat(&Tok::KwLong);
                self.eat(&Tok::KwInt);
                Ty::Int { bits: 64, signed }
            }
            Tok::KwInt => {
                self.bump();
                Ty::Int { bits: 32, signed }
            }
            Tok::KwVoid => {
                self.bump();
                Ty::Void
            }
            _ => {
                // Bare `unsigned`.
                if signed {
                    return Err(self.err(format!("expected type, found {}", self.peek())));
                }
                Ty::Int { bits: 32, signed: false }
            }
        };
        Ok(ty)
    }

    fn pointered(&mut self, mut ty: Ty) -> Ty {
        while self.eat(&Tok::Star) {
            ty = ty.ptr();
        }
        ty
    }

    // ---- top level ----

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut items = Vec::new();
        while self.peek() != &Tok::Eof {
            items.extend(self.top_item()?);
        }
        Ok(Program { items })
    }

    fn top_item(&mut self) -> Result<Vec<Item>, ParseError> {
        let line = self.line();
        // `extern` and `const` qualifiers.
        let mut is_const = false;
        let mut _is_extern = false;
        loop {
            if self.eat(&Tok::KwConst) {
                is_const = true;
            } else if self.eat(&Tok::KwExtern) {
                _is_extern = true;
            } else {
                break;
            }
        }
        if !self.starts_type() && is_const {
            return Err(self.err("expected type after qualifier".into()));
        }
        let base = self.base_type()?;
        // Each declarator may add pointers.
        let ty = self.pointered(base.clone());
        let name = self.ident()?;
        if self.peek() == &Tok::LParen {
            // Function definition.
            let f = self.function_rest(name, ty, line)?;
            return Ok(vec![Item::Func(f)]);
        }
        // Global variable(s).
        let mut items = Vec::new();
        let mut cur_name = name;
        let mut cur_ty = ty;
        loop {
            let mut array_len = None;
            if self.eat(&Tok::LBracket) {
                match self.bump() {
                    Tok::Int(n) if n >= 0 => array_len = Some(n as u64),
                    Tok::RBracket => {
                        return Err(
                            self.err(format!("global array `{cur_name}` needs an explicit length"))
                        )
                    }
                    other => return Err(self.err(format!("expected array length, found {other}"))),
                }
                if array_len.is_some() {
                    self.expect(&Tok::RBracket)?;
                }
            }
            let mut init = Vec::new();
            if self.eat(&Tok::Assign) {
                if self.eat(&Tok::LBrace) {
                    loop {
                        init.push(self.const_int()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.peek() == &Tok::RBrace {
                            break; // trailing comma
                        }
                    }
                    self.expect(&Tok::RBrace)?;
                } else {
                    init.push(self.const_int()?);
                }
            }
            items.push(Item::Global(GlobalDecl {
                name: cur_name,
                ty: cur_ty,
                array_len,
                init,
                is_const,
                line,
            }));
            if self.eat(&Tok::Comma) {
                cur_ty = self.pointered(base.clone());
                cur_name = self.ident()?;
            } else {
                break;
            }
        }
        self.expect(&Tok::Semi)?;
        Ok(items)
    }

    fn const_int(&mut self) -> Result<i64, ParseError> {
        let neg = self.eat(&Tok::Minus);
        match self.bump() {
            Tok::Int(v) => Ok(if neg { -v } else { v }),
            other => Err(self.err(format!("expected constant integer, found {other}"))),
        }
    }

    fn function_rest(&mut self, name: String, ret: Ty, line: u32) -> Result<FuncDecl, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            if self.peek() == &Tok::KwVoid && self.peek2() == &Tok::RParen {
                self.bump();
                self.bump();
            } else {
                loop {
                    let base = self.base_type()?;
                    let mut ty = self.pointered(base);
                    let pname = self.ident()?;
                    if self.eat(&Tok::LBracket) {
                        // Array parameter decays to pointer. Allow `a[]` or
                        // `a[N]` (the length is documentation only).
                        if let Tok::Int(_) = self.peek() {
                            self.bump();
                        }
                        self.expect(&Tok::RBracket)?;
                        ty = ty.ptr();
                    }
                    params.push(Param { name: pname, ty });
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
            }
        }
        self.expect(&Tok::LBrace)?;
        let mut body = Vec::new();
        while !self.eat(&Tok::RBrace) {
            body.push(self.stmt()?);
        }
        Ok(FuncDecl { name, ret, params, body, line })
    }

    // ---- statements ----

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_unnested)
    }

    fn stmt_unnested(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::PragmaIndependent(p, q) => {
                self.bump();
                Ok(Stmt::Pragma(p, q))
            }
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::LBrace => {
                self.bump();
                let mut stmts = Vec::new();
                while !self.eat(&Tok::RBrace) {
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt::Block(stmts))
            }
            Tok::KwIf => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let c = self.expr()?;
                self.expect(&Tok::RParen)?;
                let t = Box::new(self.stmt()?);
                let e = if self.eat(&Tok::KwElse) { Some(Box::new(self.stmt()?)) } else { None };
                Ok(Stmt::If { c, t, e })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let c = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { c, body })
            }
            Tok::KwDo => {
                self.bump();
                let body = Box::new(self.stmt()?);
                if !self.eat(&Tok::KwWhile) {
                    return Err(self.err("expected `while` after do-body".into()));
                }
                self.expect(&Tok::LParen)?;
                let c = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::DoWhile { body, c })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if self.peek() == &Tok::Semi {
                    self.bump();
                    None
                } else if self.starts_type() {
                    Some(Box::new(self.decl_stmt()?))
                } else {
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.peek() == &Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(&Tok::Semi)?;
                let step = if self.peek() == &Tok::RParen { None } else { Some(self.expr()?) };
                self.expect(&Tok::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For { init, cond, step, body })
            }
            Tok::KwReturn => {
                self.bump();
                let e = if self.peek() == &Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return(e, line))
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break(line))
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue(line))
            }
            _ if self.starts_type() => self.decl_stmt(),
            _ => {
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        self.eat(&Tok::KwConst); // local const is accepted and ignored
        let base = self.base_type()?;
        let mut decls = Vec::new();
        loop {
            let ty = self.pointered(base.clone());
            let name = self.ident()?;
            let mut array_len = None;
            if self.eat(&Tok::LBracket) {
                match self.bump() {
                    Tok::Int(n) if n >= 0 => array_len = Some(n as u64),
                    other => return Err(self.err(format!("expected array length, found {other}"))),
                }
                self.expect(&Tok::RBracket)?;
            }
            let init = if self.eat(&Tok::Assign) { Some(self.expr()?) } else { None };
            decls.push(LocalDecl { name, ty, array_len, init, line });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Decl(decls))
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        if self.chained.is_some() {
            return self.nested(Self::assignment);
        }
        self.chained = Some(0);
        let r = self.nested(Self::assignment);
        self.chained = None;
        r
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        let lhs = self.ternary()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusEq => Some(Bin::Add),
            Tok::MinusEq => Some(Bin::Sub),
            Tok::StarEq => Some(Bin::Mul),
            Tok::SlashEq => Some(Bin::Div),
            Tok::PercentEq => Some(Bin::Rem),
            Tok::ShlEq => Some(Bin::Shl),
            Tok::ShrEq => Some(Bin::Shr),
            Tok::AmpEq => Some(Bin::And),
            Tok::PipeEq => Some(Bin::Or),
            Tok::CaretEq => Some(Bin::Xor),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.expr()?;
        Ok(Expr { kind: ExprKind::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, line })
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        let c = self.binary(0)?;
        if self.eat(&Tok::Question) {
            let t = self.expr()?;
            self.expect(&Tok::Colon)?;
            let e = self.nested(Self::ternary)?;
            Ok(Expr {
                kind: ExprKind::Cond { c: Box::new(c), t: Box::new(t), e: Box::new(e) },
                line,
            })
        } else {
            Ok(c)
        }
    }

    /// Binary operator precedence, loosest first.
    fn bin_op(&self) -> Option<(Bin, u8)> {
        Some(match self.peek() {
            Tok::PipePipe => (Bin::LOr, 0),
            Tok::AmpAmp => (Bin::LAnd, 1),
            Tok::Pipe => (Bin::Or, 2),
            Tok::Caret => (Bin::Xor, 3),
            Tok::Amp => (Bin::And, 4),
            Tok::EqEq => (Bin::Eq, 5),
            Tok::Ne => (Bin::Ne, 5),
            Tok::Lt => (Bin::Lt, 6),
            Tok::Le => (Bin::Le, 6),
            Tok::Gt => (Bin::Gt, 6),
            Tok::Ge => (Bin::Ge, 6),
            Tok::Shl => (Bin::Shl, 7),
            Tok::Shr => (Bin::Shr, 7),
            Tok::Plus => (Bin::Add, 8),
            Tok::Minus => (Bin::Sub, 8),
            Tok::Star => (Bin::Mul, 9),
            Tok::Slash => (Bin::Div, 9),
            Tok::Percent => (Bin::Rem, 9),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.bin_op() {
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.chain()?;
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr { kind: ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)), line };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::unary_unnested)
    }

    fn unary_unnested(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        let op = match self.peek() {
            Tok::Minus => Some(Un::Neg),
            Tok::Tilde => Some(Un::BitNot),
            Tok::Bang => Some(Un::Not),
            Tok::Star => Some(Un::Deref),
            Tok::Amp => Some(Un::AddrOf),
            Tok::PlusPlus => {
                self.bump();
                let t = self.unary()?;
                return Ok(Expr {
                    kind: ExprKind::IncDec { pre: true, inc: true, target: Box::new(t) },
                    line,
                });
            }
            Tok::MinusMinus => {
                self.bump();
                let t = self.unary()?;
                return Ok(Expr {
                    kind: ExprKind::IncDec { pre: true, inc: false, target: Box::new(t) },
                    line,
                });
            }
            Tok::Plus => {
                self.bump();
                return self.unary();
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.unary()?;
            return Ok(Expr { kind: ExprKind::Un(op, Box::new(e)), line });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            let line = self.line();
            if matches!(self.peek(), Tok::LBracket | Tok::PlusPlus | Tok::MinusMinus) {
                self.chain()?;
            }
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    e = Expr {
                        kind: ExprKind::Index { base: Box::new(e), idx: Box::new(idx) },
                        line,
                    };
                }
                Tok::PlusPlus => {
                    self.bump();
                    e = Expr {
                        kind: ExprKind::IncDec { pre: false, inc: true, target: Box::new(e) },
                        line,
                    };
                }
                Tok::MinusMinus => {
                    self.bump();
                    e = Expr {
                        kind: ExprKind::IncDec { pre: false, inc: false, target: Box::new(e) },
                        line,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr { kind: ExprKind::Int(v), line }),
            Tok::Ident(name) => {
                if self.peek() == &Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    Ok(Expr { kind: ExprKind::Call { name, args }, line })
                } else {
                    Ok(Expr { kind: ExprKind::Ident(name), line })
                }
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(ParseError { line, msg: format!("expected expression, found {other}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_globals() {
        let p = parse("int a[10]; const char msg[3] = {104, 105, 0}; unsigned g = 7;").unwrap();
        let gs: Vec<_> = p.globals().collect();
        assert_eq!(gs.len(), 3);
        assert_eq!(gs[0].array_len, Some(10));
        assert!(gs[1].is_const);
        assert_eq!(gs[1].init, vec![104, 105, 0]);
        assert_eq!(gs[2].init, vec![7]);
        assert_eq!(gs[2].ty, Ty::Int { bits: 32, signed: false });
    }

    #[test]
    fn parses_the_section2_function() {
        let src = r"
void f(unsigned* p, unsigned a[], int i)
{
    if (p) a[i] += *p;
    else a[i] = 1;
    a[i] <<= a[i+1];
}";
        let p = parse(src).unwrap();
        let f = p.functions().next().unwrap();
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].ty, Ty::Int { bits: 32, signed: false }.ptr());
        assert_eq!(f.params[1].ty, Ty::Int { bits: 32, signed: false }.ptr());
        assert_eq!(f.body.len(), 2);
        assert!(matches!(f.body[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_for_loop_with_decl() {
        let src = "void g(int* p) { for (int i = 0; i < 10; i++) p[i] = i; }";
        let p = parse(src).unwrap();
        let f = p.functions().next().unwrap();
        match &f.body[0] {
            Stmt::For { init, cond, step, .. } => {
                assert!(init.is_some());
                assert!(cond.is_some());
                assert!(step.is_some());
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn precedence_shift_vs_add() {
        // 1 + 2 << 3 parses as (1+2) << 3
        let p = parse("int f() { return 1 + 2 << 3; }").unwrap();
        let f = p.functions().next().unwrap();
        match &f.body[0] {
            Stmt::Return(Some(e), _) => match &e.kind {
                ExprKind::Bin(Bin::Shl, l, _) => {
                    assert!(matches!(l.kind, ExprKind::Bin(Bin::Add, _, _)));
                }
                other => panic!("bad parse: {other:?}"),
            },
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parses_pragma_in_body() {
        let src = "void f(int* p, int* q) { #pragma independent p q\n *p = *q; }";
        let p = parse(src).unwrap();
        let f = p.functions().next().unwrap();
        assert!(matches!(&f.body[0], Stmt::Pragma(a, b) if a == "p" && b == "q"));
    }

    #[test]
    fn parses_do_while_break_continue() {
        let src = "void f() { int i = 0; do { i++; if (i == 3) continue; if (i > 5) break; } while (i < 9); }";
        let p = parse(src).unwrap();
        assert_eq!(p.functions().count(), 1);
    }

    #[test]
    fn parses_ternary_and_logical() {
        let src = "int f(int a, int b) { return a && b ? a : b || !a; }";
        parse(src).unwrap();
    }

    #[test]
    fn array_param_decays() {
        let p = parse("void f(int a[16]) { a[0] = 1; }").unwrap();
        let f = p.functions().next().unwrap();
        assert_eq!(f.params[0].ty, Ty::int().ptr());
    }

    #[test]
    fn errors_carry_lines() {
        let e = parse("void f() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_global_array_without_length() {
        assert!(parse("extern int a[];").is_err());
    }
}
