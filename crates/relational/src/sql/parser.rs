//! Recursive-descent SQL parser.

use crate::error::{Error, Result};
use crate::value::{DataType, Value};

use super::ast::*;
use super::lexer::tokenize;
use super::token::{Token, TokenKind};

/// Parse a single SQL statement (an optional trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.eat_kind(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated script.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat_kind(&TokenKind::Semicolon) {}
        if p.at_eof() {
            return Ok(out);
        }
        out.push(p.statement()?);
        if !p.eat_kind(&TokenKind::Semicolon) {
            p.expect_eof()?;
            return Ok(out);
        }
    }
}

/// Parse a standalone scalar expression (used by the SESQL condition
/// scanner to re-locate tagged conditions inside the cleaned WHERE clause).
pub fn parse_expr(sql: &str) -> Result<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// One parameter slot of a prepared statement, in slot-index order.
///
/// Named placeholders (`$name`) occurring several times share one slot;
/// every positional `?` gets a fresh anonymous slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSlot {
    pub name: Option<String>,
}

/// Parse a single statement together with its parameter slot table
/// (the prepare-side entry point; [`parse_statement`] remains the plain
/// text-in path).
pub fn parse_statement_with_params(sql: &str) -> Result<(Statement, Vec<ParamSlot>)> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.eat_kind(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok((stmt, p.params))
}

/// Parse a standalone expression keeping its parameter slots.
pub fn parse_expr_with_params(sql: &str) -> Result<(Expr, Vec<ParamSlot>)> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok((e, p.params))
}

/// Reconstruct the parameter slot table of a parsed SELECT from its
/// `Expr::Param` nodes (every clause, union members, subquery bodies).
/// Inverse of the parser's slot assignment — used when a cached AST needs
/// its slots re-derived.
pub fn collect_params(select: &Select) -> Vec<ParamSlot> {
    fn note(slots: &mut Vec<ParamSlot>, index: usize, name: &Option<String>) {
        if slots.len() <= index {
            slots.resize(index + 1, ParamSlot { name: None });
        }
        if name.is_some() {
            slots[index].name = name.clone();
        }
    }
    fn walk_select(select: &Select, slots: &mut Vec<ParamSlot>) {
        // `visit` meets a subquery node but not its body; descend.
        select.visit_clauses(&mut |e| {
            e.visit(&mut |node| match node {
                Expr::Param { index, name } => note(slots, *index, name),
                Expr::InSubquery { query, .. }
                | Expr::Exists { query, .. }
                | Expr::ScalarSubquery(query) => walk_select(query, slots),
                _ => {}
            })
        });
    }
    let mut slots = Vec::new();
    walk_select(select, &mut slots);
    slots
}

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parameter slots discovered so far, in slot-index order.
    params: Vec<ParamSlot>,
}

impl Parser {
    pub(crate) fn new(sql: &str) -> Result<Self> {
        Ok(Parser { tokens: tokenize(sql)?, pos: 0, params: Vec::new() })
    }

    /// Slot index for a placeholder: named parameters reuse their slot,
    /// positional ones always allocate.
    fn param_slot(&mut self, name: Option<String>) -> usize {
        if let Some(n) = &name {
            if let Some(i) = self
                .params
                .iter()
                .position(|s| s.name.as_deref() == Some(n.as_str()))
            {
                return i;
            }
        }
        self.params.push(ParamSlot { name });
        self.params.len() - 1
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(Error::parse(
                format!("unexpected trailing input `{}`", self.peek()),
                self.offset(),
            ))
        }
    }

    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected `{kind}`, found `{}`", self.peek()),
                self.offset(),
            ))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected `{}`, found `{}`", kw.to_uppercase(), self.peek()),
                self.offset(),
            ))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_kw(kw)
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident { value, .. } => {
                self.advance();
                Ok(value)
            }
            other => Err(Error::parse(
                format!("expected identifier, found `{other}`"),
                self.offset(),
            )),
        }
    }

    // ---- statements -----------------------------------------------------

    pub(crate) fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("select") {
            return Ok(Statement::Select(Box::new(self.select()?)));
        }
        if self.eat_kw("explain") {
            return Ok(Statement::Explain(Box::new(self.select()?)));
        }
        if self.eat_kw("create") {
            if self.eat_kw("index") {
                return self.create_index();
            }
            return self.create_table();
        }
        if self.eat_kw("drop") {
            if self.eat_kw("index") {
                let if_exists = self.if_clause("exists")?;
                let name = self.ident()?;
                return Ok(Statement::DropIndex { name, if_exists });
            }
            self.expect_kw("table")?;
            let if_exists = self.if_clause("exists")?;
            let name = self.ident()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("where") { Some(self.expr()?) } else { None };
            return Ok(Statement::Delete { table, filter });
        }
        if self.eat_kw("update") {
            return self.update();
        }
        Err(Error::parse(
            format!("expected a statement, found `{}`", self.peek()),
            self.offset(),
        ))
    }

    fn if_clause(&mut self, second: &str) -> Result<bool> {
        if self.peek_kw("if") {
            self.advance();
            if second == "exists" {
                self.expect_kw("exists")?;
            } else {
                self.expect_kw("not")?;
                self.expect_kw("exists")?;
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn create_index(&mut self) -> Result<Statement> {
        let if_not_exists = self.if_clause("not exists")?;
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect_kind(&TokenKind::LParen)?;
        let column = self.ident()?;
        self.expect_kind(&TokenKind::RParen)?;
        Ok(Statement::CreateIndex { name, table, column, if_not_exists })
    }

    fn create_table(&mut self) -> Result<Statement> {
        let or_replace = if self.eat_kw("or") {
            self.expect_kw("replace")?;
            true
        } else {
            false
        };
        self.expect_kw("table")?;
        let if_not_exists = self.if_clause("not exists")?;
        let name = self.ident()?;
        self.expect_kind(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let type_name = self.ident()?;
            // Swallow a parenthesised length, e.g. VARCHAR(80).
            if self.eat_kind(&TokenKind::LParen) {
                loop {
                    match self.advance() {
                        TokenKind::RParen => break,
                        TokenKind::Eof => {
                            return Err(Error::parse("unterminated type arguments", self.offset()))
                        }
                        _ => {}
                    }
                }
            }
            let data_type = DataType::parse(&type_name)
                .map_err(|_| Error::parse(format!("unknown data type `{type_name}`"), self.offset()))?;
            columns.push(ColumnDef { name: col_name, data_type });
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kind(&TokenKind::RParen)?;
        Ok(Statement::CreateTable { name, columns, or_replace, if_not_exists })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.eat_kind(&TokenKind::LParen) {
            let mut cols = vec![self.ident()?];
            while self.eat_kind(&TokenKind::Comma) {
                cols.push(self.ident()?);
            }
            self.expect_kind(&TokenKind::RParen)?;
            Some(cols)
        } else {
            None
        };
        if self.peek_kw("select") {
            let query = self.select()?;
            return Ok(Statement::InsertSelect {
                table,
                columns,
                query: Box::new(query),
            });
        }
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_kind(&TokenKind::LParen)?;
            let mut vals = vec![self.expr()?];
            while self.eat_kind(&TokenKind::Comma) {
                vals.push(self.expr()?);
            }
            self.expect_kind(&TokenKind::RParen)?;
            rows.push(vals);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_kind(&TokenKind::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        Ok(Statement::Update { table, assignments, filter })
    }

    // ---- SELECT ----------------------------------------------------------

    pub(crate) fn select(&mut self) -> Result<Select> {
        let mut select = self.select_core()?;
        while self.eat_kw("union") {
            let all = self.eat_kw("all");
            let member = self.select_core()?;
            select.union.push((all, member));
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                select.order_by.push(OrderItem { expr, ascending });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("limit") {
            select.limit = Some(self.unsigned()?);
        }
        if self.eat_kw("offset") {
            select.offset = Some(self.unsigned()?);
        }
        Ok(select)
    }

    /// One SELECT core: everything up to (but excluding) UNION / ORDER BY /
    /// LIMIT, which belong to the compound statement.
    fn select_core(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let mut select = Select::empty();
        select.distinct = self.eat_kw("distinct");
        if self.eat_kw("all") {
            // SELECT ALL is the default; accept and ignore.
        }
        loop {
            select.projections.push(self.select_item()?);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        if self.eat_kw("from") {
            loop {
                select.from.push(self.table_ref()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("where") {
            select.filter = Some(self.expr()?);
        }
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                select.group_by.push(self.expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("having") {
            select.having = Some(self.expr()?);
        }
        Ok(select)
    }

    fn unsigned(&mut self) -> Result<u64> {
        match self.peek().clone() {
            TokenKind::Int(i) if i >= 0 => {
                self.advance();
                Ok(i as u64)
            }
            other => Err(Error::parse(
                format!("expected non-negative integer, found `{other}`"),
                self.offset(),
            )),
        }
    }

    #[allow(clippy::if_same_then_else)] // branches differ in *when*, not what
    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_kind(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let TokenKind::Ident { value, .. } = self.peek().clone() {
            if *self.peek_at(1) == TokenKind::Dot && *self.peek_at(2) == TokenKind::Star {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(value));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if matches!(self.peek(), TokenKind::Ident { quoted: false, value }
            if !is_clause_keyword(value)) || matches!(self.peek(), TokenKind::Ident { quoted: true, .. })
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            let kind = if self.peek_kw("join") || self.peek_kw("inner") {
                self.eat_kw("inner");
                self.expect_kw("join")?;
                JoinKind::Inner
            } else if self.peek_kw("left") {
                self.advance();
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.peek_kw("cross") {
                self.advance();
                self.expect_kw("join")?;
                JoinKind::Cross
            } else {
                return Ok(left);
            };
            let right = self.table_factor()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("on")?;
                Some(self.expr()?)
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
    }

    #[allow(clippy::if_same_then_else)] // branches differ in *when*, not what
    fn table_factor(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if matches!(self.peek(), TokenKind::Ident { quoted: false, value }
            if !is_table_clause_keyword(value))
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    // ---- expressions -----------------------------------------------------
    //
    // Precedence (loosest to tightest):
    //   OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < additive ('+','-','||')
    //   < multiplicative < unary minus < primary

    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::or(left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::and(left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.peek_kw("is") {
            self.advance();
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = if self.peek_kw("not")
            && (self.peek_at(1).is_kw("in")
                || self.peek_at(1).is_kw("between")
                || self.peek_at(1).is_kw("like"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw("in") {
            self.expect_kind(&TokenKind::LParen)?;
            if self.peek_kw("select") {
                let query = self.select()?;
                self.expect_kind(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            if !self.eat_kind(&TokenKind::RParen) {
                list.push(self.expr()?);
                while self.eat_kind(&TokenKind::Comma) {
                    list.push(self.expr()?);
                }
                self.expect_kind(&TokenKind::RParen)?;
            }
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(Error::parse("expected IN, BETWEEN or LIKE after NOT", self.offset()));
        }
        let op = match self.peek() {
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(Expr::binary(left, op, right))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Plus,
                TokenKind::Minus => BinaryOp::Minus,
                TokenKind::Concat => BinaryOp::Concat,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Multiply,
                TokenKind::Slash => BinaryOp::Divide,
                TokenKind::Percent => BinaryOp::Modulo,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_kind(&TokenKind::Minus) {
            let inner = self.unary()?;
            // Fold negation of numeric literals so `-3` is a literal.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) },
            });
        }
        if self.eat_kind(&TokenKind::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::NamedParam(n) => {
                self.advance();
                let index = self.param_slot(Some(n.clone()));
                Ok(Expr::Param { index, name: Some(n) })
            }
            TokenKind::PositionalParam => {
                self.advance();
                let index = self.param_slot(None);
                Ok(Expr::Param { index, name: None })
            }
            TokenKind::Int(i) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(i)))
            }
            TokenKind::Float(f) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(f)))
            }
            TokenKind::String(s) => {
                self.advance();
                // One shared allocation per literal: every per-row clone
                // during evaluation is then a refcount bump.
                Ok(Expr::Literal(Value::from(s)))
            }
            TokenKind::LParen => {
                self.advance();
                if self.peek_kw("select") {
                    let query = self.select()?;
                    self.expect_kind(&TokenKind::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(query)));
                }
                let e = self.expr()?;
                self.expect_kind(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident { value, quoted } => {
                if !quoted && value.eq_ignore_ascii_case("exists") {
                    self.advance();
                    self.expect_kind(&TokenKind::LParen)?;
                    if !self.peek_kw("select") {
                        return Err(Error::parse(
                            "EXISTS requires a subquery",
                            self.offset(),
                        ));
                    }
                    let query = self.select()?;
                    self.expect_kind(&TokenKind::RParen)?;
                    return Ok(Expr::Exists { query: Box::new(query), negated: false });
                }
                if !quoted && value.eq_ignore_ascii_case("case") {
                    self.advance();
                    return self.case_expr();
                }
                if !quoted && is_reserved_in_expr(&value) {
                    return Err(Error::parse(
                        format!("expected expression, found keyword `{value}`"),
                        self.offset(),
                    ));
                }
                if !quoted {
                    if value.eq_ignore_ascii_case("null") {
                        self.advance();
                        return Ok(Expr::Literal(Value::Null));
                    }
                    if value.eq_ignore_ascii_case("true") {
                        self.advance();
                        return Ok(Expr::Literal(Value::Bool(true)));
                    }
                    if value.eq_ignore_ascii_case("false") {
                        self.advance();
                        return Ok(Expr::Literal(Value::Bool(false)));
                    }
                }
                // function call?
                if *self.peek_at(1) == TokenKind::LParen {
                    self.advance(); // name
                    self.advance(); // (
                    if self.eat_kind(&TokenKind::Star) {
                        self.expect_kind(&TokenKind::RParen)?;
                        return Ok(Expr::Function {
                            name: value,
                            args: vec![],
                            distinct: false,
                            star: true,
                        });
                    }
                    let distinct = self.eat_kw("distinct");
                    let mut args = Vec::new();
                    if !self.eat_kind(&TokenKind::RParen) {
                        args.push(self.expr()?);
                        while self.eat_kind(&TokenKind::Comma) {
                            args.push(self.expr()?);
                        }
                        self.expect_kind(&TokenKind::RParen)?;
                    }
                    return Ok(Expr::Function { name: value, args, distinct, star: false });
                }
                // column ref, possibly qualified
                self.advance();
                if self.eat_kind(&TokenKind::Dot) {
                    let name = self.ident()?;
                    Ok(Expr::Column { qualifier: Some(value), name })
                } else {
                    Ok(Expr::Column { qualifier: None, name: value })
                }
            }
            other => Err(Error::parse(
                format!("expected expression, found `{other}`"),
                self.offset(),
            )),
        }
    }

    /// Parse the body of a CASE expression (the `CASE` keyword has been
    /// consumed): `[operand] WHEN w THEN t ... [ELSE e] END`.
    fn case_expr(&mut self) -> Result<Expr> {
        let operand = if self.peek_kw("when") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let w = self.expr()?;
            self.expect_kw("then")?;
            let t = self.expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return Err(Error::parse("CASE requires at least one WHEN branch", self.offset()));
        }
        let else_expr = if self.eat_kw("else") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(Expr::Case { operand, branches, else_expr })
    }
}

/// Keywords that terminate the projection list (an unquoted identifier in
/// alias position must not swallow these).
fn is_clause_keyword(word: &str) -> bool {
    const KW: &[&str] = &[
        "from", "where", "group", "having", "order", "limit", "offset", "union", "as",
        "on", "join", "inner", "left", "right", "cross", "and", "or", "not", "asc",
        "desc", "enrich",
    ];
    KW.iter().any(|k| word.eq_ignore_ascii_case(k))
}

fn is_table_clause_keyword(word: &str) -> bool {
    is_clause_keyword(word)
}

/// Keywords that may not start an expression as a bare column reference.
/// A column really named like one of these can still be referenced with a
/// quoted identifier.
fn is_reserved_in_expr(word: &str) -> bool {
    const KW: &[&str] = &[
        "from", "where", "group", "having", "order", "limit", "offset", "select",
        "set", "values", "into", "by", "on", "join", "inner", "left", "right",
        "cross", "as", "distinct", "union", "enrich",
    ];
    KW.iter().any(|k| word.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_41_sql_part() {
        let stmt = parse_statement(
            "SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = 'a'",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!("not a select") };
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert!(s.filter.is_some());
    }

    #[test]
    fn paper_example_46_self_join() {
        let stmt = parse_statement(
            "SELECT Elecond1.landfill_name AS l_name1, Elecond2.landfill_name AS l_name2, \
             Elecond1.elem_name \
             FROM elem_contained AS Elecond1, elem_contained AS Elecond2 \
             WHERE Elecond1.elem_name <> Elecond2.elem_name \
               AND Elecond1.elem_name = Elecond2.elem_name",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!("not a select") };
        assert_eq!(s.from.len(), 2);
        assert!(matches!(
            &s.from[1],
            TableRef::Table { alias: Some(a), .. } if a == "Elecond2"
        ));
    }

    #[test]
    fn create_insert_round_trip() {
        let c = parse_statement(
            "CREATE TABLE landfill (name VARCHAR(80), city TEXT, tons FLOAT)",
        )
        .unwrap();
        match c {
            Statement::CreateTable { ref columns, .. } => {
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[0].data_type, DataType::Text);
            }
            _ => panic!(),
        }
        let i = parse_statement(
            "INSERT INTO landfill (name, city) VALUES ('a', 'b'), ('c', NULL)",
        )
        .unwrap();
        match i {
            Statement::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns.unwrap().len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn explicit_joins() {
        let s = parse_statement(
            "SELECT l.name FROM landfill l \
             JOIN elem_contained e ON l.name = e.landfill_name \
             LEFT JOIN analysis a ON a.landfill = l.name",
        )
        .unwrap();
        let Statement::Select(s) = s else { panic!() };
        match &s.from[0] {
            TableRef::Join { kind: JoinKind::Left, left, .. } => {
                assert!(matches!(**left, TableRef::Join { kind: JoinKind::Inner, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_or_and() {
        let e = parse_expr("a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter: a=1 OR (b=2 AND c=3)
        match e {
            Expr::Binary { op: BinaryOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinaryOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary { op: BinaryOp::Plus, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinaryOp::Multiply, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn in_between_like_is_null() {
        assert!(matches!(
            parse_expr("x IN ('a','b')").unwrap(),
            Expr::InList { negated: false, .. }
        ));
        assert!(matches!(
            parse_expr("x NOT IN ('a')").unwrap(),
            Expr::InList { negated: true, .. }
        ));
        assert!(matches!(
            parse_expr("x BETWEEN 1 AND 2").unwrap(),
            Expr::Between { .. }
        ));
        assert!(matches!(
            parse_expr("x LIKE 'a%'").unwrap(),
            Expr::Like { negated: false, .. }
        ));
        assert!(matches!(
            parse_expr("x IS NOT NULL").unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn functions_and_count_star() {
        let e = parse_expr("COUNT(*)").unwrap();
        assert!(matches!(e, Expr::Function { star: true, .. }));
        let e = parse_expr("SUM(DISTINCT tons)").unwrap();
        assert!(matches!(e, Expr::Function { distinct: true, .. }));
        let e = parse_expr("coalesce(a, b, 0)").unwrap();
        assert!(matches!(e, Expr::Function { ref args, .. } if args.len() == 3));
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_expr("-3").unwrap(), Expr::lit(-3));
        assert_eq!(parse_expr("-2.5").unwrap(), Expr::lit(-2.5));
    }

    #[test]
    fn bare_alias_without_as() {
        let s = parse_statement("SELECT name n FROM landfill l").unwrap();
        let Statement::Select(s) = s else { panic!() };
        assert!(matches!(
            &s.projections[0],
            SelectItem::Expr { alias: Some(a), .. } if a == "n"
        ));
        assert!(matches!(
            &s.from[0],
            TableRef::Table { alias: Some(a), .. } if a == "l"
        ));
    }

    #[test]
    fn group_having_order_limit() {
        let s = parse_statement(
            "SELECT city, COUNT(*) AS n FROM landfill GROUP BY city \
             HAVING COUNT(*) > 1 ORDER BY n DESC, city LIMIT 5 OFFSET 2",
        )
        .unwrap();
        let Statement::Select(s) = s else { panic!() };
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].ascending);
        assert_eq!(s.limit, Some(5));
        assert_eq!(s.offset, Some(2));
    }

    #[test]
    fn wildcard_variants() {
        let s = parse_statement("SELECT *, l.* FROM landfill l").unwrap();
        let Statement::Select(s) = s else { panic!() };
        assert_eq!(s.projections[0], SelectItem::Wildcard);
        assert_eq!(s.projections[1], SelectItem::QualifiedWildcard("l".into()));
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_script(
            "CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT x FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("SELECT a FROM").is_err());
        assert!(parse_statement("INSERT t VALUES (1)").is_err());
        assert!(parse_statement("SELECT a FROM t WHERE").is_err());
        assert!(parse_statement("SELECT a FROM t extra garbage !").is_err());
        assert!(parse_expr("a NOT 3").is_err());
    }

    #[test]
    fn display_round_trip_reparses() {
        let sql = "SELECT DISTINCT l.name AS n, COUNT(*) FROM landfill AS l \
                   WHERE (l.city = 'Torino') AND (l.tons > 10) \
                   GROUP BY l.name ORDER BY n LIMIT 3";
        let stmt = parse_statement(sql).unwrap();
        let rendered = stmt.to_string();
        let reparsed = parse_statement(&rendered).unwrap();
        assert_eq!(stmt, reparsed, "rendered: {rendered}");
    }

    #[test]
    fn subquery_forms_parse_and_roundtrip() {
        for sql in [
            "SELECT a FROM t WHERE a IN (SELECT b FROM u)",
            "SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE b > 1)",
            "SELECT a FROM t WHERE EXISTS (SELECT b FROM u)",
            "SELECT a FROM t WHERE NOT EXISTS (SELECT b FROM u)",
            "SELECT a FROM t WHERE a > (SELECT MAX(b) FROM u)",
            "SELECT (SELECT MAX(b) FROM u) AS m FROM t",
        ] {
            let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let rendered = stmt.to_string();
            let reparsed = parse_statement(&rendered)
                .unwrap_or_else(|e| panic!("re-parse `{rendered}`: {e}"));
            assert_eq!(stmt, reparsed, "rendered: {rendered}");
        }
    }

    #[test]
    fn in_subquery_ast_shape() {
        let e = parse_expr("a IN (SELECT b FROM u)").unwrap();
        assert!(matches!(e, Expr::InSubquery { negated: false, .. }));
        let e = parse_expr("a NOT IN (SELECT b FROM u)").unwrap();
        assert!(matches!(e, Expr::InSubquery { negated: true, .. }));
    }

    #[test]
    fn exists_requires_subquery() {
        assert!(parse_expr("EXISTS (a + 1)").is_err());
    }

    #[test]
    fn case_forms_parse_and_roundtrip() {
        for sql in [
            "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t",
            "SELECT CASE a WHEN 1 THEN 'x' WHEN 2 THEN 'y' END FROM t",
            "SELECT CASE WHEN a IS NULL THEN 0 END FROM t",
        ] {
            let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let rendered = stmt.to_string();
            let reparsed = parse_statement(&rendered)
                .unwrap_or_else(|e| panic!("re-parse `{rendered}`: {e}"));
            assert_eq!(stmt, reparsed, "rendered: {rendered}");
        }
    }

    #[test]
    fn case_requires_when_and_end() {
        assert!(parse_expr("CASE END").is_err());
        assert!(parse_expr("CASE WHEN a THEN 1").is_err());
        assert!(parse_expr("CASE a THEN 1 END").is_err());
    }

    #[test]
    fn create_and_drop_index_parse() {
        let s = parse_statement("CREATE INDEX i ON t (c)").unwrap();
        assert!(matches!(s, Statement::CreateIndex { if_not_exists: false, .. }));
        let s = parse_statement("CREATE INDEX IF NOT EXISTS i ON t (c)").unwrap();
        assert!(matches!(s, Statement::CreateIndex { if_not_exists: true, .. }));
        let s = parse_statement("DROP INDEX IF EXISTS i").unwrap();
        assert!(matches!(s, Statement::DropIndex { if_exists: true, .. }));
        assert!(parse_statement("CREATE INDEX i ON t (a, b)").is_err());
    }

    #[test]
    fn update_and_delete() {
        let u = parse_statement("UPDATE t SET a = 1, b = 'x' WHERE c > 0").unwrap();
        match u {
            Statement::Update { assignments, filter, .. } => {
                assert_eq!(assignments.len(), 2);
                assert!(filter.is_some());
            }
            _ => panic!(),
        }
        let d = parse_statement("DELETE FROM t").unwrap();
        assert!(matches!(d, Statement::Delete { filter: None, .. }));
    }
}
