//! AST rewrites of Phase A — the REPLACEVARIABLE expansion SELECT and the
//! REPLACECONSTANT condition rewrite — and the attribute and label
//! helpers the enrichment pass shares.

use super::*;

/// Build the rewritten SELECT for a REPLACEVARIABLE expansion over the
/// materialised pairs table `tmp_name`: Q2 adds the pairs table to the
/// FROM clause and rewrites the tagged condition so the enriched
/// attribute matches *through* a pair. With `include_self` the emitted
/// statement is the native compound `Q1 UNION Q2` — no longer an opaque
/// second copy of the original query: the relational optimizer's dedup
/// pushdown factors it over the input both members join and
/// deduplicates that join's inputs rather than its output, and its
/// common-subplan pass reads each base table once per execution through
/// a spool (both visible in `EXPLAIN`). Without `include_self`, Q2 runs
/// alone under DISTINCT (the expansion can hit several KB pairs per row;
/// the paper's replacement semantics are set-oriented), which the same
/// pass moves below the join.
pub(super) fn variable_expansion_select(
    select: &Select,
    cond_expr: &Expr,
    attr: &str,
    tmp_name: &str,
    include_self: bool,
) -> Result<Select> {
    let alias = "__exp";
    let (qualifier, name) = split_attr(attr);
    let attr_col = Expr::Column { qualifier, name };
    let expanded_cond = {
        let target = attr_col.clone();
        let replacement = Expr::qcol(alias, "obj");
        let rewritten = cond_expr.clone().rewrite(&mut |node| {
            if node == target {
                replacement.clone()
            } else {
                node
            }
        });
        if rewritten == *cond_expr {
            return Err(Error::sqm(format!(
                "REPLACEVARIABLE: attribute `{attr}` does not occur in the \
                 tagged condition `{cond_expr}`"
            )));
        }
        Expr::and(Expr::eq(Expr::qcol(alias, "subj"), attr_col), rewritten)
    };
    let mut q2 = select.clone();
    q2.from.push(TableRef::Table {
        name: tmp_name.to_string(),
        alias: Some(alias.to_string()),
    });
    replace_condition(&mut q2, cond_expr, expanded_cond)?;

    if include_self {
        let mut compound = select.clone();
        compound.union.push((false, q2));
        Ok(compound)
    } else {
        q2.distinct = true;
        Ok(q2)
    }
}

// ---- helpers ---------------------------------------------------------------

/// Attr arguments may be qualified (`Elecond2.elem_name`).
fn split_attr(attr: &str) -> (Option<String>, String) {
    match attr.split_once('.') {
        Some((q, n)) => (Some(q.to_string()), n.to_string()),
        None => (None, attr.to_string()),
    }
}

/// Index of the enriched attribute in the base result schema.
pub(super) fn resolve_attr(rows: &RowSet, attr: &str) -> Result<usize> {
    rows.column_index(attr).ok_or_else(|| {
        Error::sqm(format!(
            "enriched attribute `{attr}` is not an output column of the SQL query \
             (available: {})",
            rows.schema
                .columns
                .iter()
                .map(|c| c.display_name())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })
}

/// Human-facing column label from a property/concept argument: the local
/// name for IRIs, the text itself otherwise.
pub(super) fn local_label(arg: &str) -> String {
    Term::iri(arg).local_name().to_string()
}

/// Rewrite an ontology constant inside a tagged condition into the
/// replacement value set. The constant may appear as a bare identifier
/// (paper Ex. 4.5's `HazardousWaste`) or as a string literal; it must sit
/// on one side of a comparison.
pub(super) fn rewrite_constant(cond: Expr, constant: &str, values: &[Value]) -> Result<Expr> {
    fn is_marker(e: &Expr, constant: &str) -> bool {
        match e {
            Expr::Column { qualifier: None, name } => name == constant,
            Expr::Literal(Value::Str(s)) => s == constant,
            _ => false,
        }
    }

    let list: Vec<Expr> = values.iter().map(|v| Expr::Literal(v.clone())).collect();
    let mut replaced = false;
    let rewritten = cond.clone().rewrite(&mut |node| {
        if let Expr::Binary { left, op, right } = &node {
            let (other, marker_side) = if is_marker(right, constant) {
                (left.as_ref().clone(), true)
            } else if is_marker(left, constant) {
                (right.as_ref().clone(), false)
            } else {
                return node;
            };
            replaced = true;
            return match op {
                BinaryOp::Eq => Expr::InList {
                    expr: Box::new(other),
                    list: list.clone(),
                    negated: false,
                },
                BinaryOp::NotEq => Expr::InList {
                    expr: Box::new(other),
                    list: list.clone(),
                    negated: true,
                },
                op => {
                    // attr < Const → ∃ v: attr < v (existential over the
                    // replacement set).
                    let op = *op;
                    list.iter()
                        .map(|v| {
                            if marker_side {
                                Expr::binary(other.clone(), op, v.clone())
                            } else {
                                Expr::binary(v.clone(), op, other.clone())
                            }
                        })
                        .reduce(Expr::or)
                        .unwrap_or(Expr::lit(false))
                }
            };
        }
        node
    });
    if !replaced {
        return Err(Error::sqm(format!(
            "REPLACECONSTANT: constant `{constant}` does not occur in a comparison \
             inside the tagged condition `{cond}`"
        )));
    }
    Ok(rewritten)
}

/// Replace the subtree equal to `target` inside the WHERE clause.
pub(super) fn replace_condition(select: &mut Select, target: &Expr, replacement: Expr) -> Result<()> {
    let Some(filter) = select.filter.take() else {
        return Err(Error::sqm(
            "query has no WHERE clause, nothing to enrich",
        ));
    };
    let mut hit = false;
    let new_filter = filter.rewrite(&mut |node| {
        if !hit && node == *target {
            hit = true;
            replacement.clone()
        } else {
            node
        }
    });
    if !hit {
        select.filter = Some(new_filter);
        return Err(Error::sqm(format!(
            "tagged condition `{target}` not found in the WHERE clause"
        )));
    }
    select.filter = Some(new_filter);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;

    /// The enriched output's contract: base columns keep their position,
    /// a replacement takes its attr's position, extensions append in
    /// clause order, clashing names get `_2`, and every column's reported
    /// type is the type of its values.
    #[test]
    fn finalize_contract_names_positions_types() {
        use DataType::{Bool, Float, Int, Text};
        let cases: [(&str, &[(&str, DataType)]); 5] = [
            (
                "SELECT elem_name, landfill_name FROM elem_contained \
                 WHERE landfill_name = 'a' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
                &[("elem_name", Text), ("landfill_name", Text), ("dangerLevel", Int)],
            ),
            (
                "SELECT name, city FROM landfill ENRICH SCHEMAREPLACEMENT(city, inCountry)",
                &[("name", Text), ("inCountry", Text)],
            ),
            (
                "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
                 ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
                &[("elem_name", Text), ("HazardousWaste", Bool)],
            ),
            (
                "SELECT name, city FROM landfill \
                 ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)",
                &[("name", Text), ("Italy", Bool)],
            ),
            (
                "SELECT e.elem_name, landfill_name AS dangerLevel, amount \
                 FROM elem_contained e WHERE landfill_name = 'a' \
                 ENRICH BOOLSCHEMAEXTENSION(e.elem_name, isA, HazardousWaste) \
                        SCHEMAREPLACEMENT(e.elem_name, dangerLevel)",
                &[
                    ("dangerLevel", Int),
                    ("dangerLevel_2", Text),
                    ("amount", Float),
                    ("HazardousWaste", Bool),
                ],
            ),
        ];
        let e = engine();
        for (sesql, expected) in cases {
            let rows = e.execute("director", sesql).unwrap().rows;
            let got: Vec<(&str, DataType)> = rows
                .schema
                .columns
                .iter()
                .map(|c| (c.name.as_str(), c.data_type))
                .collect();
            assert_eq!(got, expected, "{sesql}");
            assert!(rows.schema.columns.iter().all(|c| c.qualifier.is_none()), "{sesql}");
            assert!(!rows.rows.is_empty(), "{sesql}");
            for row in &rows.rows {
                assert_eq!(row.len(), expected.len(), "{sesql}");
                for (v, (name, ty)) in row.iter().zip(expected) {
                    assert!(
                        v.is_null() || v.data_type() == Some(*ty),
                        "{sesql}: column `{name}` holds {v:?}"
                    );
                }
            }
        }
        // Values travel with their columns: Hg's danger level replaces
        // its name, next to the landfill it sits in.
        let rows = e.execute("director", cases[4].0).unwrap().rows;
        assert!(rows.rows.contains(&vec![
            Value::Int(5),
            Value::from("a"),
            Value::Float(12.5),
            Value::Bool(true),
        ]));
    }
}
