//! The grouped output stage: GROUP BY, aggregate functions, HAVING, then
//! projection, DISTINCT and ORDER BY over the output columns (SPARQL 1.1
//! section 11).

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use crate::error::{Error, Result};
use crate::term::{DictReader, Term, TermId};

use super::ast::AggFunc;
use super::compile::{CAgg, Grouping};
use super::ops::{window, Bindings, Exec, RTerm};

impl Exec<'_> {
    /// Group the pattern's rows and compute the output columns.
    pub(super) fn groups(&self, g: &Grouping, rows: Vec<Bindings>) -> Result<Vec<Vec<Option<Term>>>> {
        let reader = self.store.dictionary().reader();
        // Group rows, preserving first-seen order.
        let mut order: Vec<Bindings> = Vec::new();
        let mut groups: HashMap<Bindings, Vec<usize>> = HashMap::new();
        for (ri, row) in rows.iter().enumerate() {
            let key: Bindings = g.keys.iter().map(|&i| row[i]).collect();
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(ri);
        }
        // A global aggregate (no GROUP BY) over an empty input is one group.
        if order.is_empty() && g.keys.is_empty() {
            order.push(Vec::new());
            groups.insert(Vec::new(), Vec::new());
        }

        let mut out: Vec<Vec<Option<Term>>> = Vec::new();
        for key in &order {
            let members = groups.get(key).map(Vec::as_slice).unwrap_or(&[]);
            // The group's environment: key values, then aggregate values.
            let mut env: Vec<Option<Term>> =
                key.iter().map(|id| id.map(|i| self.term(&reader, i).clone())).collect();
            for agg in &g.aggs {
                env.push(self.aggregate(agg, members, &rows, &reader)?);
            }
            if let Some(h) = &g.having {
                if self.test(h, &|i| env[i].as_ref().map(RTerm::Term), &reader) != Some(true) {
                    continue;
                }
            }
            out.push(g.project.iter().map(|&i| env[i].clone()).collect());
        }

        let output = &self.plan.output;
        if output.distinct {
            let mut seen = HashSet::new();
            out.retain(|r| seen.insert(r.clone()));
        }
        if !g.order.is_empty() {
            out.sort_by(|a, b| {
                for &(i, asc) in &g.order {
                    let ord = cmp_term_opt(&a[i], &b[i]);
                    let ord = if asc { ord } else { ord.reverse() };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        Ok(window(&out, output.offset, output.limit).to_vec())
    }

    /// Compute one aggregate over the group member rows.
    fn aggregate(
        &self,
        agg: &CAgg,
        members: &[usize],
        rows: &[Bindings],
        reader: &DictReader,
    ) -> Result<Option<Term>> {
        // COUNT(*) counts solutions, everything else aggregates bound values.
        let values: Vec<Term> = match agg.var {
            None => Vec::new(),
            Some(vi) => {
                let ids = members.iter().filter_map(|&ri| rows[ri][vi]);
                let mut vals: Vec<Term> = ids.map(|id: TermId| self.term(reader, id).clone()).collect();
                if agg.distinct {
                    let mut seen = HashSet::new();
                    vals.retain(|t| seen.insert(t.clone()));
                }
                vals
            }
        };
        let numeric = |vals: &[Term]| -> Result<Vec<f64>> {
            vals.iter()
                .map(|t| {
                    t.as_f64().ok_or_else(|| {
                        Error::eval(format!(
                            "non-numeric value `{}` in numeric aggregate",
                            t.lexical_form()
                        ))
                    })
                })
                .collect()
        };
        Ok(match agg.func {
            AggFunc::Count => {
                let n = if agg.var.is_none() { members.len() } else { values.len() };
                Some(num_term(n as f64))
            }
            AggFunc::Sum => Some(num_term(numeric(&values)?.iter().sum())),
            AggFunc::Avg => {
                let ns = numeric(&values)?;
                if ns.is_empty() {
                    Some(num_term(0.0))
                } else {
                    Some(num_term(ns.iter().sum::<f64>() / ns.len() as f64))
                }
            }
            AggFunc::Min | AggFunc::Max => values.into_iter().reduce(|best, v| {
                let ord = cmp_term_values(&best, &v);
                let keep_new = if agg.func == AggFunc::Min {
                    ord == Ordering::Greater
                } else {
                    ord == Ordering::Less
                };
                if keep_new {
                    v
                } else {
                    best
                }
            }),
            AggFunc::Sample => values.into_iter().next(),
        })
    }
}

/// Render a numeric aggregate result as a plain literal, using integer
/// formatting for whole numbers.
fn num_term(x: f64) -> Term {
    if x.fract() == 0.0 && x.abs() < 9e15 {
        Term::lit(format!("{}", x as i64))
    } else {
        Term::lit(format!("{x}"))
    }
}

/// Numeric-when-possible, lexical-otherwise comparison of two terms.
fn cmp_term_values(a: &Term, b: &Term) -> Ordering {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        _ => a.lexical_form().cmp(b.lexical_form()),
    }
}

fn cmp_term_opt(a: &Option<Term>, b: &Option<Term>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => cmp_term_values(x, y),
    }
}
