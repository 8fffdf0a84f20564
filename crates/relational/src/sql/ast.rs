//! SQL abstract syntax tree.
//!
//! The AST is deliberately close to textbook SQL. `Display` implementations
//! render back to valid SQL text; the SESQL layer relies on this to rebuild
//! the "cleaned" query of paper Remark 4.1.

use std::fmt;

use crate::value::{DataType, Value};

/// Any SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        /// `CREATE OR REPLACE TABLE`
        or_replace: bool,
        /// `CREATE TABLE IF NOT EXISTS`
        if_not_exists: bool,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    Insert {
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// One expression list per `VALUES` tuple.
        rows: Vec<Vec<Expr>>,
    },
    /// `INSERT INTO table [(cols)] SELECT ...` — bulk transfer of a query
    /// result (the databank's "materialise a derived view" path).
    InsertSelect {
        table: String,
        columns: Option<Vec<String>>,
        query: Box<Select>,
    },
    Delete {
        table: String,
        filter: Option<Expr>,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    /// `CREATE INDEX name ON table (column)` — a single-column secondary
    /// index.
    CreateIndex {
        name: String,
        table: String,
        column: String,
        if_not_exists: bool,
    },
    DropIndex {
        name: String,
        if_exists: bool,
    },
    Select(Box<Select>),
    /// `EXPLAIN SELECT ...` — show the bound plan without executing it.
    Explain(Box<Select>),
}

/// Column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
}

/// A `SELECT` query, possibly a compound (`UNION` chain). `ORDER BY` /
/// `LIMIT` / `OFFSET` of the head apply to the whole compound; union
/// members carry none of their own.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projections: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    /// Further SELECT cores combined with `UNION [ALL]`; the bool is
    /// `true` for `UNION ALL`.
    pub union: Vec<(bool, Select)>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

impl Select {
    /// Call `f` on each top-level expression of every clause of this
    /// SELECT and of its UNION members, join conditions included.
    /// Subquery bodies are not entered.
    pub(crate) fn visit_clauses(&self, f: &mut impl FnMut(&Expr)) {
        fn table_ref(tr: &TableRef, f: &mut impl FnMut(&Expr)) {
            if let TableRef::Join { left, right, on, .. } = tr {
                table_ref(left, f);
                table_ref(right, f);
                on.iter().for_each(&mut *f);
            }
        }
        for p in &self.projections {
            if let SelectItem::Expr { expr, .. } = p {
                f(expr);
            }
        }
        self.from.iter().for_each(|tr| table_ref(tr, f));
        let order = self.order_by.iter().map(|o| &o.expr);
        self.filter.iter().chain(&self.group_by).chain(&self.having).chain(order).for_each(&mut *f);
        for (_, member) in &self.union {
            member.visit_clauses(f);
        }
    }

    /// Whether any clause of this SELECT or of a UNION member holds an
    /// `IN (SELECT …)`, `EXISTS` or scalar subquery.
    pub(crate) fn has_subquery(&self) -> bool {
        let mut found = false;
        self.visit_clauses(&mut |e| {
            e.visit(&mut |node| {
                found |= matches!(
                    node,
                    Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_)
                );
            })
        });
        found
    }

    /// An empty SELECT skeleton, useful for programmatic construction.
    pub fn empty() -> Self {
        Select {
            distinct: false,
            projections: Vec::new(),
            from: Vec::new(),
            filter: None,
            group_by: Vec::new(),
            having: None,
            union: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference in the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table {
        name: String,
        alias: Option<String>,
    },
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        /// ON condition; `None` only for CROSS joins.
        on: Option<Expr>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// ORDER BY item: an expression (or output-column name) plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub ascending: bool,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// A parameter placeholder (`$name` or positional `?`) awaiting a
    /// value at execute time. `index` is the parameter slot assigned at
    /// parse time; repeated `$name` occurrences share one slot. A query
    /// containing unbound parameters can be prepared but not executed
    /// directly.
    Param {
        index: usize,
        name: Option<String>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// Scalar or aggregate function call. `COUNT(*)` is represented with
    /// `star = true` and empty args.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        star: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`. The subquery must be uncorrelated and
    /// produce exactly one column; the planner materialises it into an
    /// `InList` before binding (so NULL semantics — and index usability —
    /// are exactly those of a literal IN-list).
    InSubquery {
        expr: Box<Expr>,
        query: Box<Select>,
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`; uncorrelated, resolved at plan time.
    Exists {
        query: Box<Select>,
        negated: bool,
    },
    /// `(SELECT ...)` used as a scalar: one column, at most one row
    /// (zero rows yield NULL). Uncorrelated, resolved at plan time.
    ScalarSubquery(Box<Select>),
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`. With an operand
    /// the WHEN values are compared by SQL equality; without, each WHEN is
    /// a predicate.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column { qualifier: None, name: name.into() }
    }

    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column { qualifier: Some(qualifier.into()), name: name.into() }
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::And, right)
    }

    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::Or, right)
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::Eq, right)
    }

    /// Depth-first pre-order visit of this expression tree.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param { .. } => {}
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Between { expr, low, high, .. } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            // Subquery bodies are separate scopes; only the outer operand
            // participates in this expression tree.
            Expr::InSubquery { expr, .. } => expr.visit(f),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
            Expr::Case { operand, branches, else_expr } => {
                if let Some(op) = operand {
                    op.visit(f);
                }
                for (w, t) in branches {
                    w.visit(f);
                    t.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
        }
    }

    /// Structural rewrite: `f` is applied bottom-up to every node and may
    /// replace it. The SESQL WHERE-clause enrichments (REPLACECONSTANT /
    /// REPLACEVARIABLE) are implemented as such rewrites.
    pub fn rewrite(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param { .. } => self,
            Expr::Unary { op, expr } => Expr::Unary { op, expr: Box::new(expr.rewrite(f)) },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.rewrite(f)),
                op,
                right: Box::new(right.rewrite(f)),
            },
            Expr::IsNull { expr, negated } => {
                Expr::IsNull { expr: Box::new(expr.rewrite(f)), negated }
            }
            Expr::InList { expr, list, negated } => Expr::InList {
                expr: Box::new(expr.rewrite(f)),
                list: list.into_iter().map(|e| e.rewrite(f)).collect(),
                negated,
            },
            Expr::Between { expr, low, high, negated } => Expr::Between {
                expr: Box::new(expr.rewrite(f)),
                low: Box::new(low.rewrite(f)),
                high: Box::new(high.rewrite(f)),
                negated,
            },
            Expr::Like { expr, pattern, negated } => Expr::Like {
                expr: Box::new(expr.rewrite(f)),
                pattern: Box::new(pattern.rewrite(f)),
                negated,
            },
            Expr::Function { name, args, distinct, star } => Expr::Function {
                name,
                args: args.into_iter().map(|e| e.rewrite(f)).collect(),
                distinct,
                star,
            },
            Expr::InSubquery { expr, query, negated } => Expr::InSubquery {
                expr: Box::new(expr.rewrite(f)),
                query,
                negated,
            },
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => self,
            Expr::Case { operand, branches, else_expr } => Expr::Case {
                operand: operand.map(|o| Box::new(o.rewrite(f))),
                branches: branches
                    .into_iter()
                    .map(|(w, t)| (w.rewrite(f), t.rewrite(f)))
                    .collect(),
                else_expr: else_expr.map(|e| Box::new(e.rewrite(f))),
            },
        };
        f(rebuilt)
    }

    /// True if this expression (sub)tree contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if is_aggregate_name(name) {
                    found = true;
                }
            }
        });
        found
    }
}

/// Whether `name` names one of the built-in aggregate functions.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX"
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    Concat,
}

impl BinaryOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
            BinaryOp::Concat => "||",
        };
        f.write_str(s)
    }
}

fn fmt_ident(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let plain = !s.is_empty()
        && s.chars().next().map(|c| c.is_ascii_alphabetic() || c == '_').unwrap_or(false)
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if plain {
        f.write_str(s)
    } else {
        write!(f, "\"{}\"", s.replace('"', "\"\""))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column { qualifier, name } => {
                if let Some(q) = qualifier {
                    fmt_ident(f, q)?;
                    f.write_str(".")?;
                }
                fmt_ident(f, name)
            }
            Expr::Param { name: Some(n), .. } => write!(f, "${n}"),
            Expr::Param { name: None, .. } => f.write_str("?"),
            Expr::Unary { op: UnaryOp::Not, expr } => write!(f, "NOT ({expr})"),
            Expr::Unary { op: UnaryOp::Neg, expr } => write!(f, "-({expr})"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::IsNull { expr, negated: false } => write!(f, "({expr} IS NULL)"),
            Expr::IsNull { expr, negated: true } => write!(f, "({expr} IS NOT NULL)"),
            Expr::InList { expr, list, negated } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "({expr} {}IN ({}))",
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::Between { expr, low, high, negated } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like { expr, pattern, negated } => {
                write!(f, "({expr} {}LIKE {pattern})", if *negated { "NOT " } else { "" })
            }
            Expr::Function { name, args, distinct, star } => {
                write!(f, "{name}(")?;
                if *star {
                    f.write_str("*")?;
                } else {
                    if *distinct {
                        f.write_str("DISTINCT ")?;
                    }
                    let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                    f.write_str(&items.join(", "))?;
                }
                f.write_str(")")
            }
            Expr::InSubquery { expr, query, negated } => {
                write!(f, "({expr} {}IN ({query}))", if *negated { "NOT " } else { "" })
            }
            Expr::Exists { query, negated } => {
                write!(f, "{}EXISTS ({query})", if *negated { "NOT " } else { "" })
            }
            Expr::ScalarSubquery(query) => write!(f, "({query})"),
            Expr::Case { operand, branches, else_expr } => {
                f.write_str("CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*"),
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
            SelectItem::Expr { expr, alias: Some(a) } => {
                write!(f, "{expr} AS ")?;
                fmt_ident(f, a)
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table { name, alias: None } => fmt_ident(f, name),
            TableRef::Table { name, alias: Some(a) } => {
                fmt_ident(f, name)?;
                f.write_str(" AS ")?;
                fmt_ident(f, a)
            }
            TableRef::Join { left, right, kind, on } => {
                let kw = match kind {
                    JoinKind::Inner => "JOIN",
                    JoinKind::Left => "LEFT JOIN",
                    JoinKind::Cross => "CROSS JOIN",
                };
                write!(f, "{left} {kw} {right}")?;
                if let Some(on) = on {
                    write!(f, " ON {on}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        let items: Vec<String> = self.projections.iter().map(|p| p.to_string()).collect();
        f.write_str(&items.join(", "))?;
        if !self.from.is_empty() {
            let tables: Vec<String> = self.from.iter().map(|t| t.to_string()).collect();
            write!(f, " FROM {}", tables.join(", "))?;
        }
        if let Some(w) = &self.filter {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            let g: Vec<String> = self.group_by.iter().map(|e| e.to_string()).collect();
            write!(f, " GROUP BY {}", g.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        for (all, member) in &self.union {
            write!(f, " UNION {}{member}", if *all { "ALL " } else { "" })?;
        }
        if !self.order_by.is_empty() {
            let o: Vec<String> = self
                .order_by
                .iter()
                .map(|i| {
                    format!("{}{}", i.expr, if i.ascending { "" } else { " DESC" })
                })
                .collect();
            write!(f, " ORDER BY {}", o.join(", "))?;
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = self.offset {
            write!(f, " OFFSET {o}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable { name, columns, or_replace, if_not_exists } => {
                f.write_str("CREATE ")?;
                if *or_replace {
                    f.write_str("OR REPLACE ")?;
                }
                f.write_str("TABLE ")?;
                if *if_not_exists {
                    f.write_str("IF NOT EXISTS ")?;
                }
                fmt_ident(f, name)?;
                let cols: Vec<String> = columns
                    .iter()
                    .map(|c| format!("{} {}", c.name, c.data_type))
                    .collect();
                write!(f, " ({})", cols.join(", "))
            }
            Statement::DropTable { name, if_exists } => {
                f.write_str("DROP TABLE ")?;
                if *if_exists {
                    f.write_str("IF EXISTS ")?;
                }
                fmt_ident(f, name)
            }
            Statement::Insert { table, columns, rows } => {
                f.write_str("INSERT INTO ")?;
                fmt_ident(f, table)?;
                if let Some(cols) = columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                f.write_str(" VALUES ")?;
                let tuples: Vec<String> = rows
                    .iter()
                    .map(|vals| {
                        let items: Vec<String> = vals.iter().map(|e| e.to_string()).collect();
                        format!("({})", items.join(", "))
                    })
                    .collect();
                f.write_str(&tuples.join(", "))
            }
            Statement::InsertSelect { table, columns, query } => {
                f.write_str("INSERT INTO ")?;
                fmt_ident(f, table)?;
                if let Some(cols) = columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                write!(f, " {query}")
            }
            Statement::Delete { table, filter } => {
                f.write_str("DELETE FROM ")?;
                fmt_ident(f, table)?;
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Update { table, assignments, filter } => {
                f.write_str("UPDATE ")?;
                fmt_ident(f, table)?;
                let sets: Vec<String> =
                    assignments.iter().map(|(c, e)| format!("{c} = {e}")).collect();
                write!(f, " SET {}", sets.join(", "))?;
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::CreateIndex { name, table, column, if_not_exists } => {
                f.write_str("CREATE INDEX ")?;
                if *if_not_exists {
                    f.write_str("IF NOT EXISTS ")?;
                }
                fmt_ident(f, name)?;
                f.write_str(" ON ")?;
                fmt_ident(f, table)?;
                write!(f, " ({column})")
            }
            Statement::DropIndex { name, if_exists } => {
                f.write_str("DROP INDEX ")?;
                if *if_exists {
                    f.write_str("IF EXISTS ")?;
                }
                fmt_ident(f, name)
            }
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Explain(s) => write!(f, "EXPLAIN {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders_and_display() {
        let e = Expr::and(
            Expr::eq(Expr::qcol("l", "city"), Expr::lit("Torino")),
            Expr::binary(Expr::col("tons"), BinaryOp::Gt, Expr::lit(100)),
        );
        assert_eq!(e.to_string(), "((l.city = 'Torino') AND (tons > 100))");
    }

    #[test]
    fn string_literal_escaped_on_display() {
        let e = Expr::lit("it's");
        assert_eq!(e.to_string(), "'it''s'");
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::Function {
            name: "count".into(),
            args: vec![],
            distinct: false,
            star: true,
        };
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        let nested = Expr::binary(Expr::lit(1), BinaryOp::Plus, e);
        assert!(nested.contains_aggregate());
    }

    #[test]
    fn rewrite_replaces_nodes() {
        let e = Expr::eq(Expr::col("elem_name"), Expr::lit("HazardousWaste"));
        let rewritten = e.rewrite(&mut |node| match node {
            Expr::Literal(Value::Str(s)) if s == "HazardousWaste" => Expr::InList {
                expr: Box::new(Expr::col("elem_name")),
                list: vec![Expr::lit("Hg"), Expr::lit("Pb")],
                negated: false,
            },
            other => other,
        });
        let text = rewritten.to_string();
        assert!(text.contains("IN ('Hg', 'Pb')"), "{text}");
    }

    #[test]
    fn select_display_round_trip_shape() {
        let mut s = Select::empty();
        s.projections = vec![
            SelectItem::Expr { expr: Expr::col("elem_name"), alias: None },
            SelectItem::Expr { expr: Expr::col("landfill_name"), alias: Some("l".into()) },
        ];
        s.from = vec![TableRef::Table { name: "elem_contained".into(), alias: None }];
        s.filter = Some(Expr::eq(Expr::col("landfill_name"), Expr::lit("a")));
        s.limit = Some(10);
        assert_eq!(
            s.to_string(),
            "SELECT elem_name, landfill_name AS l FROM elem_contained \
             WHERE (landfill_name = 'a') LIMIT 10"
        );
    }

    #[test]
    fn weird_identifiers_are_quoted() {
        let e = Expr::qcol("od d", "sel ect");
        assert_eq!(e.to_string(), "\"od d\".\"sel ect\"");
    }
}
