//! Foreign tables: the tables of a registered [`DataSource`] as read-only
//! leaves of the one plan — the `postgres_fdw` pattern of the paper's
//! integration layer, "a single point for read-only query" over the
//! national and EU databanks.
//!
//! [`Database::register_source`](crate::Database::register_source) adds
//! each source table to the catalog as `<source>__<table>`: a [`Table`]
//! that holds no rows, is neither logged nor snapshotted, and rejects
//! writes. The planner scans it as a [`Plan::ForeignScan`] leaf, and the
//! optimizer's filter pushdown ([`crate::opt::rules::pushdown_filters`])
//! ships each conjunct that sinks to that leaf to the source while keeping
//! it as a local filter, so a source can save transfer but never change a
//! result. Every cursor fetches all foreign
//! leaves of its plan concurrently when it opens, never at plan time, so
//! every read is live (a replayed plan template fetches again).
//!
//! The databanks themselves are simulated: [`LocalSource`] is colocated
//! with the mediator, [`RemoteSource`] charges a [`LatencyModel`], and
//! both count what crossed in [`SourceStats`].
//!
//! ```
//! use std::sync::Arc;
//! use crosse_relational::foreign::LocalSource;
//! use crosse_relational::Database;
//!
//! let national = Database::new();
//! national.execute_script(
//!     "CREATE TABLE landfill (name TEXT, city TEXT);
//!      INSERT INTO landfill VALUES ('a','Torino'), ('b','Milano');",
//! ).unwrap();
//! let source = LocalSource::new("it", national);
//! let mediator = Database::new();
//! mediator.register_source(Arc::new(source.clone())).unwrap();
//!
//! let rows = mediator
//!     .query("SELECT name FROM it__landfill WHERE city = 'Torino'")
//!     .unwrap();
//! assert_eq!(rows.len(), 1);
//! assert_eq!(source.stats().rows_transferred, 1); // only the match moved
//! ```

use std::sync::Arc;

use crate::db::RowSet;
use crate::error::{Error, Result};
use crate::exec::expr::BoundExpr;
use crate::plan::{fill_expr, Plan};
use crate::schema::Schema;
use crate::sql::ast::{Expr, Select, SelectItem, TableRef};
use crate::storage::Table;
use crate::value::{Row, Value};

pub use crate::source::{LatencyModel, LocalSource, RemoteSource, SourceStats};

/// A databank behind the integration layer: a queryable source of tables.
pub trait DataSource: Send + Sync {
    /// Stable source name; it prefixes the source's foreign tables.
    fn name(&self) -> &str;

    /// Names of the tables this source exposes.
    fn table_names(&self) -> Vec<String>;

    /// Schema of one table.
    fn table_schema(&self, table: &str) -> Result<Schema>;

    /// Run a read-only SELECT at the source and return its result. This
    /// is the only way rows leave a source, so a remote source charges its
    /// transfer cost on exactly the rows the pushed filters kept.
    fn fetch_query(&self, sql: &str) -> Result<RowSet>;
}

/// Where a foreign table's rows live: one table of a registered source.
pub struct Foreign {
    pub(crate) source: Arc<dyn DataSource>,
    /// The table's name at the source.
    pub(crate) table: String,
}

impl Foreign {
    /// The SELECT shipped to the source: every column, filtered by the
    /// conjunction of the conjuncts filter pushdown shipped to the leaf
    /// whose `schema` they bind against. A conjunct whose slot values
    /// turned out not to round-trip stays local only.
    pub(crate) fn remote_sql(&self, schema: &Schema, pushed: &[BoundExpr]) -> String {
        let mut select = Select::empty();
        select.projections.push(SelectItem::Wildcard);
        select.from.push(TableRef::Table { name: self.table.clone(), alias: None });
        select.filter = pushed.iter().filter_map(|c| remote_conjunct(c, schema)).reduce(Expr::and);
        select.to_string()
    }
}

impl std::fmt::Debug for Foreign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.source.name(), self.table)
    }
}

/// Conjunct `c`, bound against one foreign leaf's `schema`, as the
/// source's own SELECT states it (columns by their unqualified names), or
/// `None` when its SQL text would not parse back to the same expression
/// with the same literal types — `2.0` renders as the integer `2`, and
/// `i / 2.0` is not `i / 2`. Such a conjunct stays local only. A conjunct
/// holding a slot renders it as `$n` and is checked once the cursor's
/// open has put the slot's value in.
pub(crate) fn remote_conjunct(c: &BoundExpr, schema: &Schema) -> Option<Expr> {
    let expr = unbind(c, schema);
    if c.has_slot() {
        return Some(expr);
    }
    let back = crate::sql::parser::parse_expr(&expr.to_string()).ok()?;
    (format!("{back:?}") == format!("{expr:?}")).then_some(expr)
}

/// The expression `e` binds from, with every column unqualified.
fn unbind(e: &BoundExpr, schema: &Schema) -> Expr {
    let boxed = |e: &BoundExpr| Box::new(unbind(e, schema));
    let all = |es: &[BoundExpr]| es.iter().map(|e| unbind(e, schema)).collect();
    match e {
        BoundExpr::Literal(v) => Expr::Literal(v.clone()),
        BoundExpr::Column(i) => {
            Expr::Column { qualifier: None, name: schema.columns[*i].name.clone() }
        }
        BoundExpr::Slot(i) | BoundExpr::Lifted { slot: i, .. } => {
            Expr::Param { name: Some((i + 1).to_string()), index: *i }
        }
        BoundExpr::Unary { op, expr } => Expr::Unary { op: *op, expr: boxed(expr) },
        BoundExpr::Binary { left, op, right } => {
            Expr::Binary { left: boxed(left), op: *op, right: boxed(right) }
        }
        BoundExpr::IsNull { expr, negated } => {
            Expr::IsNull { expr: boxed(expr), negated: *negated }
        }
        BoundExpr::InList { expr, list, negated } => {
            Expr::InList { expr: boxed(expr), list: all(list), negated: *negated }
        }
        BoundExpr::Between { expr, low, high, negated } => Expr::Between {
            expr: boxed(expr),
            low: boxed(low),
            high: boxed(high),
            negated: *negated,
        },
        BoundExpr::Like { expr, pattern, negated } => {
            Expr::Like { expr: boxed(expr), pattern: boxed(pattern), negated: *negated }
        }
        // Each variant is named after its SQL function.
        BoundExpr::ScalarFn { func, args } => {
            let name = format!("{func:?}");
            Expr::Function { name, args: all(args), distinct: false, star: false }
        }
        BoundExpr::Case { operand, branches, else_expr } => Expr::Case {
            operand: operand.as_deref().map(boxed),
            branches: branches
                .iter()
                .map(|(w, t)| (unbind(w, schema), unbind(t, schema)))
                .collect(),
            else_expr: else_expr.as_deref().map(boxed),
        },
    }
}

/// The rows of every foreign leaf of `plan`, its shipped conjuncts holding
/// the slot `values`, in [`crate::plan::fill_slots`]'s order: children
/// left to right, a shared spool's subtree once. One thread per leaf, so
/// a query over several slow sources waits for the slowest, not the sum.
pub(crate) fn fetch_leaves(plan: &Plan, values: &[Vec<Value>]) -> Result<Vec<Vec<Row>>> {
    let mut leaves = Vec::new();
    collect(plan, &mut Vec::new(), &mut leaves);
    if leaves.is_empty() {
        return Ok(Vec::new());
    }
    let fetched: Vec<Result<Vec<Row>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = leaves
            .iter()
            .map(|&(table, schema, pushed)| {
                let pushed: Vec<BoundExpr> =
                    pushed.iter().map(|c| fill_expr(c.clone(), values)).collect();
                scope.spawn(move || fetch(table, schema, &pushed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    fetched.into_iter().collect()
}

fn collect<'p>(
    plan: &'p Plan,
    spools: &mut Vec<usize>,
    out: &mut Vec<(&'p Table, &'p Schema, &'p [BoundExpr])>,
) {
    match plan {
        Plan::ForeignScan { table, schema, pushed } => out.push((table, schema, pushed)),
        Plan::Shared { id, .. } if spools.contains(id) => {}
        Plan::Shared { id, input } => {
            spools.push(*id);
            collect(input, spools, out);
        }
        other => other.visit_children(&mut |child| collect(child, spools, out)),
    }
}

/// One leaf's rows, checked against the schema its table was registered
/// with, as `insert_many` checks rows: a source whose table changed shape
/// since registration is a typed error.
fn fetch(table: &Table, schema: &Schema, pushed: &[BoundExpr]) -> Result<Vec<Row>> {
    let foreign = table
        .foreign()
        .ok_or_else(|| Error::catalog(format!("`{}` is not a foreign table", table.name)))?;
    let fetched = foreign.source.fetch_query(&foreign.remote_sql(schema, pushed))?;
    let shape = |s: &Schema| -> Vec<_> {
        s.columns.iter().map(|c| (c.name.to_ascii_lowercase(), c.data_type)).collect()
    };
    if shape(&fetched.schema) != shape(&table.schema) {
        return Err(Error::catalog(format!(
            "foreign table `{}` no longer matches {foreign:?}: registered {:?}, fetched {:?}",
            table.name,
            shape(&table.schema),
            shape(&fetched.schema)
        )));
    }
    fetched.rows.into_iter().map(|row| table.check_row(row)).collect()
}
