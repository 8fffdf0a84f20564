//! Foreign tables: the tables of a registered [`DataSource`] as read-only
//! leaves of the one plan — the `postgres_fdw` pattern of the paper's
//! integration layer, "a single point for read-only query" over the
//! national and EU databanks.
//!
//! [`Database::register_source`](crate::Database::register_source) adds
//! each source table to the catalog as `<source>__<table>`: a [`Table`]
//! that holds no rows, is neither logged nor snapshotted, and rejects
//! writes. The planner scans it as a [`Plan::ForeignScan`] leaf, and
//! `push_conjunct` ships each WHERE conjunct bound to that leaf to the
//! source while keeping it as a local filter, so a source can save
//! transfer but never change a result. Every cursor fetches all foreign
//! leaves of its plan concurrently when it opens, never at plan time, so
//! every read is live (a replayed plan template fetches again).

use std::collections::HashMap;
use std::sync::Arc;

use crate::db::RowSet;
use crate::error::{Error, Result};
use crate::plan::Plan;
use crate::schema::Schema;
use crate::sql::ast::{Expr, Select, SelectItem, TableRef};
use crate::storage::Table;
use crate::value::Row;

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
    /// conjunction the planner pushed to the leaf.
    pub(crate) fn remote_sql(&self, pushed: Option<&Expr>) -> String {
        let mut select = Select::empty();
        select.projections.push(SelectItem::Wildcard);
        select.from.push(TableRef::Table { name: self.table.clone(), alias: None });
        select.filter = pushed.cloned();
        select.to_string()
    }
}

impl std::fmt::Debug for Foreign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.source.name(), self.table)
    }
}

/// Conjunct `c` of one foreign leaf as the source's own SELECT states it
/// (column qualifiers stripped: `c` binds against that leaf alone), or
/// `None` when its SQL text would not parse back to the same expression
/// with the same literal types — `2.0` renders as the integer `2`, and
/// `i / 2.0` is not `i / 2`. Such a conjunct stays local only.
pub(crate) fn remote_conjunct(c: &Expr) -> Option<Expr> {
    let stripped = c.clone().rewrite(&mut |e| match e {
        Expr::Column { name, .. } => Expr::Column { qualifier: None, name },
        other => other,
    });
    let back = crate::sql::parser::parse_expr(&stripped.to_string()).ok()?;
    (format!("{back:?}") == format!("{stripped:?}")).then_some(stripped)
}

/// Fetch every foreign leaf of `plan`, one thread per leaf (a query over
/// several slow sources waits for the slowest, not for the sum), and
/// splice each result in as a `Values` leaf. Also returns the number of
/// rows fetched.
pub(crate) fn fetch_leaves(plan: Plan) -> Result<(Plan, usize)> {
    let mut leaves = Vec::new();
    collect(&plan, &mut Vec::new(), &mut leaves);
    if leaves.is_empty() {
        return Ok((plan, 0));
    }
    let fetched: Vec<Result<Vec<Row>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = leaves
            .iter()
            .map(|&(table, pushed)| scope.spawn(move || fetch(table, pushed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    let fetched: Vec<Vec<Row>> = fetched.into_iter().collect::<Result<_>>()?;
    let rows = fetched.iter().map(Vec::len).sum();
    Ok((splice(plan, &mut fetched.into_iter(), &mut HashMap::new()), rows))
}

/// The foreign leaves of `plan` in [`splice`]'s order: children left to
/// right, a shared spool's subtree once.
fn collect<'p>(
    plan: &'p Plan,
    spools: &mut Vec<usize>,
    out: &mut Vec<(&'p Table, Option<&'p Expr>)>,
) {
    match plan {
        Plan::ForeignScan { table, pushed, .. } => out.push((table, pushed.as_ref())),
        Plan::Shared { id, .. } if spools.contains(id) => {}
        Plan::Shared { id, input } => {
            spools.push(*id);
            collect(input, spools, out);
        }
        other => other.visit_children(&mut |child| collect(child, spools, out)),
    }
}

fn splice(
    plan: Plan,
    fetched: &mut impl Iterator<Item = Vec<Row>>,
    spools: &mut HashMap<usize, Arc<Plan>>,
) -> Plan {
    match plan {
        Plan::ForeignScan { schema, .. } => {
            Plan::Values { schema, rows: fetched.next().unwrap_or_default() }
        }
        Plan::Shared { id, input } => {
            let input = match spools.get(&id) {
                Some(spliced) => Arc::clone(spliced),
                None => {
                    let spliced = Arc::new(splice((*input).clone(), fetched, spools));
                    spools.insert(id, Arc::clone(&spliced));
                    spliced
                }
            };
            Plan::Shared { id, input }
        }
        other => crate::opt::map_children(other, &mut |child| splice(child, fetched, spools)),
    }
}

/// One leaf's rows, checked against the schema its table was registered
/// with, as `insert_many` checks rows: a source whose table changed shape
/// since registration is a typed error.
fn fetch(table: &Table, pushed: Option<&Expr>) -> Result<Vec<Row>> {
    let foreign = table
        .foreign()
        .ok_or_else(|| Error::catalog(format!("`{}` is not a foreign table", table.name)))?;
    let fetched = foreign.source.fetch_query(&foreign.remote_sql(pushed))?;
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
