// srclint: allow(R002): scalar-function arity is validated at bind time, so vals.pop() cannot see an empty stack
//! Bound (schema-resolved) expressions and their evaluation.
//!
//! Binding resolves every column reference to a row index once, so repeated
//! evaluation over many rows does no name lookups. Evaluation follows SQL
//! three-valued logic: comparisons involving NULL yield NULL, `AND`/`OR`
//! short-circuit through UNKNOWN, and a WHERE predicate keeps a row only
//! when it evaluates to `TRUE` (not NULL).

use std::borrow::Cow;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::sql::ast::{BinaryOp, Expr, UnaryOp};
use crate::value::{DataType, Value};

/// A fully bound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Literal(Value),
    /// Index into the input row.
    Column(usize),
    /// A value the plan reads from outside its rows — a parameter or a
    /// subquery result, slot `i` of the plan's [`crate::plan::Plan::Bind`]
    /// root — replaced by a literal when a cursor opens.
    Slot(usize),
    /// Slot `slot` holding a literal the statement cache lifted out of
    /// the text, which keeps the literal's type: planning decides what a
    /// literal of `ty` would let it decide (an index key coerces by type
    /// alone).
    Lifted {
        slot: usize,
        ty: DataType,
    },
    Unary {
        op: UnaryOp,
        expr: Box<BoundExpr>,
    },
    Binary {
        left: Box<BoundExpr>,
        op: BinaryOp,
        right: Box<BoundExpr>,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    ScalarFn {
        func: ScalarFn,
        args: Vec<BoundExpr>,
    },
    /// CASE expression. With an operand the WHEN values compare by SQL
    /// equality (NULL operand matches nothing); without, each WHEN is a
    /// predicate kept only on TRUE.
    Case {
        operand: Option<Box<BoundExpr>>,
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
    },
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    Upper,
    Lower,
    Length,
    Abs,
    Coalesce,
    Round,
    Trim,
    Substr,
}

impl ScalarFn {
    pub fn parse(name: &str) -> Option<ScalarFn> {
        Some(match name.to_ascii_uppercase().as_str() {
            "UPPER" => ScalarFn::Upper,
            "LOWER" => ScalarFn::Lower,
            "LENGTH" | "LEN" => ScalarFn::Length,
            "ABS" => ScalarFn::Abs,
            "COALESCE" => ScalarFn::Coalesce,
            "ROUND" => ScalarFn::Round,
            "TRIM" => ScalarFn::Trim,
            "SUBSTR" | "SUBSTRING" => ScalarFn::Substr,
            _ => return None,
        })
    }
}

/// Bind `expr` against `schema`, resolving all column references.
///
/// Aggregate calls are rejected here; the planner replaces them with column
/// references into the aggregation output before binding.
pub fn bind(expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
    match expr {
        Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        Expr::Column { qualifier, name } => {
            let idx = schema.resolve(qualifier.as_deref(), name)?;
            Ok(BoundExpr::Column(idx))
        }
        Expr::Param { index, .. } => Ok(BoundExpr::Slot(*index)),
        Expr::Lifted { index, ty } => Ok(BoundExpr::Lifted { slot: *index, ty: *ty }),
        Expr::Unary { op, expr } => Ok(BoundExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr, schema)?),
        }),
        Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
            left: Box::new(bind(left, schema)?),
            op: *op,
            right: Box::new(bind(right, schema)?),
        }),
        Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
            expr: Box::new(bind(expr, schema)?),
            negated: *negated,
        }),
        Expr::InList { expr, list, negated } => Ok(BoundExpr::InList {
            expr: Box::new(bind(expr, schema)?),
            list: list.iter().map(|e| bind(e, schema)).collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Between { expr, low, high, negated } => Ok(BoundExpr::Between {
            expr: Box::new(bind(expr, schema)?),
            low: Box::new(bind(low, schema)?),
            high: Box::new(bind(high, schema)?),
            negated: *negated,
        }),
        Expr::Like { expr, pattern, negated } => Ok(BoundExpr::Like {
            expr: Box::new(bind(expr, schema)?),
            pattern: Box::new(bind(pattern, schema)?),
            negated: *negated,
        }),
        Expr::Function { name, args, star, .. } => {
            if *star {
                return Err(Error::plan(format!(
                    "`{name}(*)` is only valid as an aggregate"
                )));
            }
            let func = ScalarFn::parse(name).ok_or_else(|| {
                Error::plan(format!("unknown function `{name}` in scalar context"))
            })?;
            let arity_ok = match func {
                ScalarFn::Coalesce => !args.is_empty(),
                ScalarFn::Substr => args.len() == 2 || args.len() == 3,
                ScalarFn::Round => args.len() == 1 || args.len() == 2,
                _ => args.len() == 1,
            };
            if !arity_ok {
                return Err(Error::plan(format!(
                    "wrong number of arguments for `{name}`"
                )));
            }
            Ok(BoundExpr::ScalarFn {
                func,
                args: args.iter().map(|e| bind(e, schema)).collect::<Result<_>>()?,
            })
        }
        // The planner turns subqueries into slots before binding; one
        // reaching here sits in a context the planner does not lift (e.g.
        // a join ON condition).
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => {
            Err(Error::plan(
                "subqueries are only supported in WHERE/HAVING/SELECT/ORDER BY \
                 of the outer query, and must be uncorrelated",
            ))
        }
        Expr::Case { operand, branches, else_expr } => Ok(BoundExpr::Case {
            operand: operand
                .as_ref()
                .map(|o| bind(o, schema).map(Box::new))
                .transpose()?,
            branches: branches
                .iter()
                .map(|(w, t)| Ok((bind(w, schema)?, bind(t, schema)?)))
                .collect::<Result<_>>()?,
            else_expr: else_expr
                .as_ref()
                .map(|e| bind(e, schema).map(Box::new))
                .transpose()?,
        }),
    }
}

/// What an expression evaluates against: anything that hands out a column
/// by index. A stored or streamed row is a slice; a join evaluates its
/// residual and fused projection on a [`Pair`], so the combined row is
/// never built for pairs the residual rejects.
pub trait RowView {
    fn col(&self, i: usize) -> &Value;
}

impl RowView for [Value] {
    #[inline]
    fn col(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl RowView for Vec<Value> {
    #[inline]
    fn col(&self, i: usize) -> &Value {
        &self[i]
    }
}

/// The two halves of a join pair viewed as the combined row: columns
/// `0..left.len()` are the outer row's, the rest the build row's.
#[derive(Clone, Copy)]
pub struct Pair<'a> {
    pub left: &'a [Value],
    pub right: &'a [Value],
}

impl RowView for Pair<'_> {
    #[inline]
    fn col(&self, i: usize) -> &Value {
        match i.checked_sub(self.left.len()) {
            None => &self.left[i],
            Some(j) => &self.right[j],
        }
    }
}

impl BoundExpr {
    /// Visit each direct operand, left to right.
    pub(crate) fn visit_operands<'e>(&'e self, f: &mut impl FnMut(&'e BoundExpr)) {
        match self {
            BoundExpr::Literal(_)
            | BoundExpr::Column(_)
            | BoundExpr::Slot(_)
            | BoundExpr::Lifted { .. } => {}
            BoundExpr::Unary { expr, .. } | BoundExpr::IsNull { expr, .. } => f(expr),
            BoundExpr::Binary { left, right, .. }
            | BoundExpr::Like { expr: left, pattern: right, .. } => {
                f(left);
                f(right);
            }
            BoundExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            BoundExpr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            BoundExpr::ScalarFn { args, .. } => args.iter().for_each(f),
            BoundExpr::Case { operand, branches, else_expr } => {
                operand.iter().for_each(|o| f(o));
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_expr.iter().for_each(|e| f(e));
            }
        }
    }

    /// Rebuild with each direct operand mapped through `f`.
    pub(crate) fn map_operands(self, f: &mut impl FnMut(BoundExpr) -> BoundExpr) -> BoundExpr {
        let mut boxed = |e: Box<BoundExpr>| Box::new(f(*e));
        match self {
            leaf @ (BoundExpr::Literal(_)
            | BoundExpr::Column(_)
            | BoundExpr::Slot(_)
            | BoundExpr::Lifted { .. }) => leaf,
            BoundExpr::Unary { op, expr } => BoundExpr::Unary { op, expr: boxed(expr) },
            BoundExpr::Binary { left, op, right } => {
                BoundExpr::Binary { left: boxed(left), op, right: boxed(right) }
            }
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull { expr: boxed(expr), negated },
            BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
                expr: boxed(expr),
                list: list.into_iter().map(&mut *f).collect(),
                negated,
            },
            BoundExpr::Between { expr, low, high, negated } => BoundExpr::Between {
                expr: boxed(expr),
                low: boxed(low),
                high: boxed(high),
                negated,
            },
            BoundExpr::Like { expr, pattern, negated } => {
                BoundExpr::Like { expr: boxed(expr), pattern: boxed(pattern), negated }
            }
            BoundExpr::ScalarFn { func, args } => {
                BoundExpr::ScalarFn { func, args: args.into_iter().map(f).collect() }
            }
            BoundExpr::Case { operand, branches, else_expr } => BoundExpr::Case {
                operand: operand.map(&mut boxed),
                else_expr: else_expr.map(&mut boxed),
                branches: branches.into_iter().map(|(w, t)| (f(w), f(t))).collect(),
            },
        }
    }

    /// Whether the expression reads a slot anywhere.
    pub(crate) fn has_slot(&self) -> bool {
        let mut found = matches!(self, BoundExpr::Slot(_) | BoundExpr::Lifted { .. });
        self.visit_operands(&mut |e| found |= e.has_slot());
        found
    }

    /// Evaluate against a row, cloning the result out of it.
    pub fn eval<R: RowView + ?Sized>(&self, row: &R) -> Result<Value> {
        self.eval_ref(row).map(Cow::into_owned)
    }

    /// Evaluate as a predicate: true only when the result is `TRUE`.
    pub fn eval_predicate<R: RowView + ?Sized>(&self, row: &R) -> Result<bool> {
        Ok(matches!(*self.eval_ref(row)?, Value::Bool(true)))
    }

    /// Evaluate without taking anything out of the row: column and literal
    /// leaves are borrowed, every node that only inspects its operands
    /// (comparisons, `IS NULL`, `IN`, `BETWEEN`, `LIKE`, `CASE WHEN`)
    /// does so by reference, and only computed values are owned.
    ///
    /// The leaves are answered here, inlined into the caller — most
    /// operands are leaves, and a call that hands a `Result<Cow<Value>>`
    /// back through memory costs several times the comparison it feeds.
    #[inline]
    pub fn eval_ref<'a, R: RowView + ?Sized>(&'a self, row: &'a R) -> Result<Cow<'a, Value>> {
        match self {
            BoundExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            BoundExpr::Column(i) => Ok(Cow::Borrowed(row.col(*i))),
            node => node.eval_node(row),
        }
    }

    fn eval_node<'a, R: RowView + ?Sized>(&'a self, row: &'a R) -> Result<Cow<'a, Value>> {
        let owned = |v: Value| Ok(Cow::Owned(v));
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column(_) => self.eval_ref(row),
            // Only a statement that never reaches a cursor keeps one.
            BoundExpr::Slot(_) | BoundExpr::Lifted { .. } => Err(Error::plan(
                "unbound parameter — prepare the statement and execute it with bound values",
            )),
            BoundExpr::Unary { op, expr } => match (op, &*expr.eval_ref(row)?) {
                (_, Value::Null) => owned(Value::Null),
                (UnaryOp::Not, Value::Bool(b)) => owned(Value::Bool(!b)),
                (UnaryOp::Neg, Value::Int(i)) => owned(Value::Int(-i)),
                (UnaryOp::Neg, Value::Float(f)) => owned(Value::Float(-f)),
                (op, v) => Err(Error::eval(format!("cannot apply {op:?} to {v}"))),
            },
            BoundExpr::Binary { left, op, right } => {
                let l = left.eval_ref(row)?;
                owned(eval_binary(&l, *op, || right.eval_ref(row))?)
            }
            BoundExpr::IsNull { expr, negated } => {
                let isnull = expr.eval_ref(row)?.is_null();
                owned(Value::Bool(isnull != *negated))
            }
            BoundExpr::InList { expr, list, negated } => {
                // `x IN ()` is FALSE and `x NOT IN ()` TRUE for every `x`,
                // NULL included: an empty list decides before the NULL check.
                if list.is_empty() {
                    return owned(Value::Bool(*negated));
                }
                let needle = expr.eval_ref(row)?;
                if needle.is_null() {
                    return owned(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match needle.sql_eq(&*item.eval_ref(row)?) {
                        Some(true) => return owned(Value::Bool(!negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                owned(if saw_null { Value::Null } else { Value::Bool(*negated) })
            }
            BoundExpr::Between { expr, low, high, negated } => {
                let v = expr.eval_ref(row)?;
                let lo = low.eval_ref(row)?;
                let hi = high.eval_ref(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let within = a != std::cmp::Ordering::Less
                            && b != std::cmp::Ordering::Greater;
                        owned(Value::Bool(within != *negated))
                    }
                    _ => owned(Value::Null),
                }
            }
            BoundExpr::Like { expr, pattern, negated } => {
                match (&*expr.eval_ref(row)?, &*pattern.eval_ref(row)?) {
                    (Value::Null, _) | (_, Value::Null) => owned(Value::Null),
                    (Value::Str(s), Value::Str(p)) => {
                        owned(Value::Bool(like_match(s, p) != *negated))
                    }
                    (v, p) => Err(Error::eval(format!("LIKE requires strings, got {v} LIKE {p}"))),
                }
            }
            BoundExpr::ScalarFn { func, args } => {
                let vals = args.iter().map(|a| a.eval_ref(row)).collect::<Result<_>>()?;
                eval_scalar_fn(*func, vals)
            }
            BoundExpr::Case { operand, branches, else_expr } => {
                match operand {
                    Some(op) => {
                        let v = op.eval_ref(row)?;
                        for (w, t) in branches {
                            if v.sql_eq(&*w.eval_ref(row)?) == Some(true) {
                                return t.eval_ref(row);
                            }
                        }
                    }
                    None => {
                        for (w, t) in branches {
                            if w.eval_predicate(row)? {
                                return t.eval_ref(row);
                            }
                        }
                    }
                }
                match else_expr {
                    Some(e) => e.eval_ref(row),
                    None => owned(Value::Null),
                }
            }
        }
    }
}

fn eval_binary<'a>(
    left: &Value,
    op: BinaryOp,
    right: impl FnOnce() -> Result<Cow<'a, Value>>,
) -> Result<Value> {
    use BinaryOp::*;
    // AND/OR implement three-valued logic with short-circuit on the
    // determining value.
    match op {
        And => {
            return match left {
                Value::Bool(false) => Ok(Value::Bool(false)),
                Value::Bool(true) => match &*right()? {
                    Value::Bool(b) => Ok(Value::Bool(*b)),
                    Value::Null => Ok(Value::Null),
                    v => Err(Error::eval(format!("AND requires booleans, got {v}"))),
                },
                Value::Null => match &*right()? {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    Value::Bool(true) | Value::Null => Ok(Value::Null),
                    v => Err(Error::eval(format!("AND requires booleans, got {v}"))),
                },
                v => Err(Error::eval(format!("AND requires booleans, got {v}"))),
            };
        }
        Or => {
            return match left {
                Value::Bool(true) => Ok(Value::Bool(true)),
                Value::Bool(false) => match &*right()? {
                    Value::Bool(b) => Ok(Value::Bool(*b)),
                    Value::Null => Ok(Value::Null),
                    v => Err(Error::eval(format!("OR requires booleans, got {v}"))),
                },
                Value::Null => match &*right()? {
                    Value::Bool(true) => Ok(Value::Bool(true)),
                    Value::Bool(false) | Value::Null => Ok(Value::Null),
                    v => Err(Error::eval(format!("OR requires booleans, got {v}"))),
                },
                v => Err(Error::eval(format!("OR requires booleans, got {v}"))),
            };
        }
        _ => {}
    }
    let right = right()?;
    let right = &*right;
    if op.is_comparison() {
        let cmp = left.sql_cmp(right);
        let Some(ord) = cmp else {
            // NULL operand → UNKNOWN; incomparable types → error unless NULL.
            if left.is_null() || right.is_null() {
                return Ok(Value::Null);
            }
            return Err(Error::eval(format!("cannot compare {left} with {right}")));
        };
        use std::cmp::Ordering::*;
        let b = match op {
            Eq => ord == Equal,
            NotEq => ord != Equal,
            Lt => ord == Less,
            LtEq => ord != Greater,
            Gt => ord == Greater,
            GtEq => ord != Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    if left.is_null() || right.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Concat => {
            let mut s = left.lexical_form();
            s.push_str(&right.lexical());
            Ok(Value::from(s))
        }
        Plus | Minus | Multiply | Divide | Modulo => arith(left, op, right),
        And | Or => unreachable!("handled above"),
        _ => unreachable!(),
    }
}

fn arith(left: &Value, op: BinaryOp, right: &Value) -> Result<Value> {
    use BinaryOp::*;
    match (left, right) {
        (&Value::Int(a), &Value::Int(b)) => match op {
            Plus => Ok(Value::Int(a.wrapping_add(b))),
            Minus => Ok(Value::Int(a.wrapping_sub(b))),
            Multiply => Ok(Value::Int(a.wrapping_mul(b))),
            Divide => {
                if b == 0 {
                    Err(Error::eval("division by zero"))
                } else {
                    Ok(Value::Int(a.wrapping_div(b)))
                }
            }
            Modulo => {
                if b == 0 {
                    Err(Error::eval("modulo by zero"))
                } else {
                    Ok(Value::Int(a.wrapping_rem(b)))
                }
            }
            _ => unreachable!(),
        },
        (a, b) => {
            let (x, y) = match (a, b) {
                (&Value::Int(a), &Value::Float(b)) => (a as f64, b),
                (&Value::Float(a), &Value::Int(b)) => (a, b as f64),
                (&Value::Float(a), &Value::Float(b)) => (a, b),
                (a, b) => {
                    return Err(Error::eval(format!("cannot compute {a} {op} {b}")))
                }
            };
            let r = match op {
                Plus => x + y,
                Minus => x - y,
                Multiply => x * y,
                Divide => {
                    if y == 0.0 {
                        return Err(Error::eval("division by zero"));
                    }
                    x / y
                }
                Modulo => {
                    if y == 0.0 {
                        return Err(Error::eval("modulo by zero"));
                    }
                    x % y
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(r))
        }
    }
}

fn eval_scalar_fn(func: ScalarFn, mut vals: Vec<Cow<'_, Value>>) -> Result<Cow<'_, Value>> {
    let owned = |v: Value| Ok(Cow::Owned(v));
    match func {
        ScalarFn::Coalesce => match vals.into_iter().find(|v| !v.is_null()) {
            Some(v) => Ok(v),
            None => owned(Value::Null),
        },
        ScalarFn::Upper | ScalarFn::Lower | ScalarFn::Trim | ScalarFn::Length => {
            match (func, &*vals.remove(0)) {
                (_, Value::Null) => owned(Value::Null),
                (ScalarFn::Upper, Value::Str(s)) => owned(Value::from(s.to_uppercase())),
                (ScalarFn::Lower, Value::Str(s)) => owned(Value::from(s.to_lowercase())),
                (ScalarFn::Trim, Value::Str(s)) => owned(Value::from(s.trim())),
                (ScalarFn::Length, Value::Str(s)) => {
                    owned(Value::Int(s.chars().count() as i64))
                }
                (f, v) => Err(Error::eval(format!("{f:?} requires a string, got {v}"))),
            }
        }
        ScalarFn::Abs => match &*vals.remove(0) {
            Value::Null => owned(Value::Null),
            Value::Int(i) => owned(Value::Int(i.wrapping_abs())),
            Value::Float(f) => owned(Value::Float(f.abs())),
            v => Err(Error::eval(format!("ABS requires a number, got {v}"))),
        },
        ScalarFn::Round => {
            let digits = if vals.len() == 2 {
                match &*vals.pop().unwrap() {
                    Value::Int(d) => *d,
                    Value::Null => return owned(Value::Null),
                    v => return Err(Error::eval(format!("ROUND digits must be int, got {v}"))),
                }
            } else {
                0
            };
            match &*vals.remove(0) {
                Value::Null => owned(Value::Null),
                Value::Int(i) => owned(Value::Int(*i)),
                Value::Float(f) => {
                    let m = 10f64.powi(digits as i32);
                    owned(Value::Float((f * m).round() / m))
                }
                v => Err(Error::eval(format!("ROUND requires a number, got {v}"))),
            }
        }
        ScalarFn::Substr => {
            let len = if vals.len() == 3 {
                match &*vals.pop().unwrap() {
                    Value::Int(l) => Some((*l).max(0) as usize),
                    Value::Null => return owned(Value::Null),
                    v => return Err(Error::eval(format!("SUBSTR length must be int, got {v}"))),
                }
            } else {
                None
            };
            let start = match &*vals.pop().unwrap() {
                Value::Int(s) => *s,
                Value::Null => return owned(Value::Null),
                v => return Err(Error::eval(format!("SUBSTR start must be int, got {v}"))),
            };
            match &*vals.remove(0) {
                Value::Null => owned(Value::Null),
                Value::Str(s) => {
                    // SQL SUBSTR is 1-based.
                    let skip = (start.max(1) - 1) as usize;
                    let it = s.chars().skip(skip);
                    let out: String = match len {
                        Some(l) => it.take(l).collect(),
                        None => it.collect(),
                    };
                    owned(Value::from(out))
                }
                v => Err(Error::eval(format!("SUBSTR requires a string, got {v}"))),
            }
        }
    }
}

/// SQL LIKE matching: `%` = any sequence, `_` = any single character.
/// Matching is case-sensitive, as in PostgreSQL.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // collapse consecutive %
                let rest = &p[1..];
                (0..=s.len()).any(|k| rec(&s[k..], rest))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::sql::parser::parse_expr;
    use crate::value::{DataType, Row};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("name", DataType::Text),
            Column::new("tons", DataType::Float),
            Column::new("n", DataType::Int),
        ])
    }

    /// Evaluate `src` every way a caller can — owned and borrowed, over
    /// the row as a `Vec`, as a slice, and as a [`Pair`] split at every
    /// position — and return the one answer they must all agree on.
    fn try_eval(src: &str, row: &Row) -> Result<Value> {
        let e = bind(&parse_expr(src).unwrap(), &schema()).unwrap();
        let owned = e.eval(row);
        assert_eq!(e.eval_ref(row).map(Cow::into_owned), owned, "{src}: borrowed");
        assert_eq!(e.eval(&row[..]), owned, "{src}: slice");
        for at in 0..=row.len() {
            let pair = Pair { left: &row[..at], right: &row[at..] };
            assert_eq!(e.eval(&pair), owned, "{src}: pair split at {at}");
            assert_eq!(e.eval_ref(&pair).map(Cow::into_owned), owned, "{src}: borrowed pair");
            let truth = matches!(owned, Ok(Value::Bool(true)));
            assert_eq!(e.eval_predicate(&pair).ok(), owned.as_ref().ok().map(|_| truth));
        }
        owned
    }

    fn eval(src: &str, row: &Row) -> Value {
        try_eval(src, row).unwrap()
    }

    fn row() -> Row {
        vec![Value::from("Hg"), Value::from(12.5), Value::from(3)]
    }

    #[test]
    fn column_and_arith() {
        assert_eq!(eval("tons * 2", &row()), Value::Float(25.0));
        assert_eq!(eval("n + 1", &row()), Value::Int(4));
        assert_eq!(eval("n / 2", &row()), Value::Int(1));
        assert_eq!(eval("n % 2", &row()), Value::Int(1));
        assert_eq!(eval("-n", &row()), Value::Int(-3));
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(try_eval("n / 0", &row()).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let null_row = vec![Value::Null, Value::Null, Value::Null];
        assert_eq!(eval("name = 'Hg'", &null_row), Value::Null);
        assert_eq!(eval("name = 'Hg' OR 1 = 1", &null_row), Value::Bool(true));
        assert_eq!(eval("name = 'Hg' AND 1 = 2", &null_row), Value::Bool(false));
        assert_eq!(eval("name = 'Hg' AND 1 = 1", &null_row), Value::Null);
        assert_eq!(eval("NOT (name = 'Hg')", &null_row), Value::Null);
    }

    #[test]
    fn in_list_with_null_semantics() {
        assert_eq!(eval("name IN ('Hg','Pb')", &row()), Value::Bool(true));
        assert_eq!(eval("name IN ('Pb')", &row()), Value::Bool(false));
        assert_eq!(eval("name NOT IN ('Pb')", &row()), Value::Bool(true));
        // x IN (..., NULL) with no match is UNKNOWN
        assert_eq!(eval("name IN ('Pb', NULL)", &row()), Value::Null);
        // match wins over NULL
        assert_eq!(eval("name IN (NULL, 'Hg')", &row()), Value::Bool(true));
    }

    #[test]
    fn between_and_like() {
        assert_eq!(eval("tons BETWEEN 10 AND 20", &row()), Value::Bool(true));
        assert_eq!(eval("tons NOT BETWEEN 10 AND 20", &row()), Value::Bool(false));
        assert_eq!(eval("name LIKE 'H%'", &row()), Value::Bool(true));
        assert_eq!(eval("name LIKE '_g'", &row()), Value::Bool(true));
        assert_eq!(eval("name NOT LIKE 'x%'", &row()), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("mercury", "merc%"));
        assert!(like_match("mercury", "%cur%"));
        assert!(like_match("mercury", "_______"));
        assert!(!like_match("mercury", "______"));
        assert!(like_match("", "%"));
        assert!(!like_match("a", ""));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn is_null() {
        assert_eq!(eval("name IS NULL", &row()), Value::Bool(false));
        assert_eq!(eval("name IS NOT NULL", &row()), Value::Bool(true));
        let null_row = vec![Value::Null, Value::Null, Value::Null];
        assert_eq!(eval("name IS NULL", &null_row), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval("UPPER(name)", &row()), Value::from("HG"));
        assert_eq!(eval("LOWER('AbC')", &row()), Value::from("abc"));
        assert_eq!(eval("LENGTH('ciao')", &row()), Value::Int(4));
        assert_eq!(eval("ABS(-5)", &row()), Value::Int(5));
        assert_eq!(eval("COALESCE(NULL, NULL, 7)", &row()), Value::Int(7));
        assert_eq!(eval("ROUND(2.567, 2)", &row()), Value::Float(2.57));
        assert_eq!(eval("TRIM('  x ')", &row()), Value::from("x"));
        assert_eq!(eval("SUBSTR('mercury', 1, 4)", &row()), Value::from("merc"));
        assert_eq!(eval("SUBSTR('mercury', 5)", &row()), Value::from("ury"));
    }

    #[test]
    fn concat_operator() {
        assert_eq!(eval("name || '-' || n", &row()), Value::from("Hg-3"));
        assert_eq!(eval("name || NULL", &row()), Value::Null);
    }

    #[test]
    fn unknown_function_rejected() {
        let e = parse_expr("FROBNICATE(name)").unwrap();
        assert!(bind(&e, &schema()).is_err());
    }

    #[test]
    fn incomparable_comparison_is_error() {
        let err = try_eval("name > 3", &row()).unwrap_err();
        assert_eq!(err, Error::eval("cannot compare 'Hg' with 3"));
        // A NULL operand is UNKNOWN before it is incomparable.
        let null_row = vec![Value::Null, Value::Null, Value::Null];
        assert_eq!(eval("name > 3", &null_row), Value::Null);
    }

    #[test]
    fn borrowed_results_point_into_the_row() {
        let row = row();
        let e = bind(&parse_expr("CASE WHEN n > 1 THEN name ELSE 'x' END").unwrap(), &schema())
            .unwrap();
        let Cow::Borrowed(v) = e.eval_ref(&row).unwrap() else {
            panic!("a column chosen by CASE leaves the expression un-cloned");
        };
        assert!(std::ptr::eq(v, &row[0]));
        let coalesce = bind(&parse_expr("COALESCE(NULL, name)").unwrap(), &schema()).unwrap();
        assert!(matches!(coalesce.eval_ref(&row).unwrap(), Cow::Borrowed(_)));
    }
}
