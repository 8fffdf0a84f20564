// srclint: allow(R002): the tagging scanner guarantees every named condition occurs in the cleaned SQL it produced
//! SESQL parser: ties the scanner, the SQL parser, and the enrichment
//! grammar of Fig. 5 together (the paper's Semantic Query Parser, SQP).

use std::collections::HashMap;
use std::sync::Arc;

use crosse_relational::sql::ast::{Expr, Statement};
use crosse_relational::sql::lexer::tokenize;
use crosse_relational::sql::parser::{parse_expr_with_params, parse_tokens};
use crosse_relational::sql::shape::{Shape, Verbatim};
use crosse_relational::sql::token::Token;

use crate::error::{Error, Result};

use super::ast::{Enrichment, SesqlQuery};
use super::scanner::{extract_tags, split_enrich, TaggedCondition};

/// Parse a full SESQL query text.
///
/// Parameter placeholders (`$name`, positional `?`) are allowed anywhere
/// in the SQL part; inside `${...:id}` tagged conditions only named
/// placeholders are accepted (a positional slot's index would be
/// ambiguous between the cleaned query and the standalone condition).
pub fn parse_sesql(text: &str) -> Result<SesqlQuery> {
    let (scanned, tokens) = scan(text)?;
    scanned.parse(tokens)
}

/// A SESQL text as the scanner leaves it (paper Remark 4.1): the cleaned
/// SQL, its tagged conditions and the enrichment specification. Its
/// tokens travel apart, so the statement cache can shape them.
pub(crate) struct Scanned {
    clean_sql: String,
    tags: Vec<TaggedCondition>,
    spec: Option<String>,
}

/// Scan `text` and lex its cleaned SQL.
pub(crate) fn scan(text: &str) -> Result<(Scanned, Vec<Token>)> {
    let (sql_part, spec) = split_enrich(text)?;
    let (clean_sql, tags) = extract_tags(&sql_part)?;
    let tokens = tokenize(&clean_sql)?;
    Ok((Scanned { clean_sql, tags, spec }, tokens))
}

impl Scanned {
    /// The statement-cache shape of the cleaned SQL's `tokens`: each tag
    /// kept as written (REPLACECONSTANT and REPLACEVARIABLE read its
    /// constants), and the ENRICH clause appended as written.
    pub(crate) fn shape(&self, tokens: Vec<Token>) -> Shape {
        let written: Vec<String> =
            self.tags.iter().map(|t| format!("${{{}:{}}}", t.text, t.id)).collect();
        let regions: Vec<Verbatim> = self
            .tags
            .iter()
            .zip(&written)
            .map(|(t, text)| Verbatim { range: t.clean.clone(), text })
            .collect();
        let mut shape = Shape::new(tokens, &regions);
        if let Some(spec) = &self.spec {
            shape.key.push_str(" ENRICH ");
            shape.key.push_str(spec);
        }
        shape
    }

    /// Parse the cleaned SQL from `tokens` (the scanned ones, or a
    /// shape's), the tagged conditions and the enrichment specification.
    pub(crate) fn parse(self, tokens: Vec<Token>) -> Result<SesqlQuery> {
        let Scanned { clean_sql, tags, spec } = self;
        let (stmt, params) = parse_tokens(tokens)?;
        let Statement::Select(select) = stmt else {
            return Err(Error::sesql("SESQL queries must start with SELECT", 0));
        };

        let mut conditions = HashMap::new();
        for tag in &tags {
            let (expr, tag_params) = parse_expr_with_params(&tag.text).map_err(|e| {
                Error::sesql(
                    format!("tagged condition `{}` is not a valid expression: {e}", tag.id),
                    tag.offset,
                )
            })?;
            if tag_params.iter().any(|s| s.name.is_none()) {
                return Err(Error::sesql(
                    format!(
                        "positional `?` parameters are not allowed inside the tagged \
                         condition `{}`; use a named `$param`",
                        tag.id
                    ),
                    tag.offset,
                ));
            }
            // The condition text is embedded in the cleaned SQL, so every
            // named placeholder already has a global slot: remap the
            // locally assigned indices onto it.
            let expr = expr.rewrite(&mut |node| match node {
                Expr::Param { name: Some(n), .. } => {
                    let index = params
                        .iter()
                        .position(|s| s.name.as_deref() == Some(n.as_str()))
                        .expect("condition text is part of the cleaned SQL");
                    Expr::Param { index, name: Some(n) }
                }
                other => other,
            });
            conditions.insert(tag.id.clone(), expr);
        }

        let enrichments = match spec {
            None => Vec::new(),
            Some(s) => parse_enrichments(&s)?,
        };

        // Validate: WHERE-enrichments must reference recorded condition ids.
        for e in &enrichments {
            if let Some(id) = e.condition_id() {
                if !conditions.contains_key(id) {
                    return Err(Error::sesql(
                        format!(
                            "{} references condition `{id}`, but no `${{...:{id}}}` marker exists",
                            e.keyword()
                        ),
                        0,
                    ));
                }
            }
        }

        Ok(SesqlQuery { select: Arc::from(select), clean_sql, conditions, enrichments, params })
    }
}

/// Parse the enrichment specification (everything after `ENRICH`).
///
/// Grammar (Fig. 5): one or more clauses; each clause is a keyword with a
/// parenthesised comma-separated argument list. Keywords are matched
/// case-insensitively, with or without separating spaces/underscores
/// (the paper itself writes both `SCHEMA EXTENSION` and `SCHEMAEXTENSION`).
pub fn parse_enrichments(spec: &str) -> Result<Vec<Enrichment>> {
    let mut out = Vec::new();
    let mut rest = spec.trim();
    if rest.is_empty() {
        return Err(Error::sesql("ENRICH requires at least one clause", 0));
    }
    while !rest.is_empty() {
        let (clause, remainder) = parse_one_clause(rest)?;
        out.push(clause);
        rest = remainder.trim_start_matches([',', ';', ' ', '\n', '\t', '\r']);
    }
    Ok(out)
}

fn parse_one_clause(s: &str) -> Result<(Enrichment, &str)> {
    let open = s
        .find('(')
        .ok_or_else(|| Error::sesql("expected `(` after enrichment keyword", 0))?;
    let keyword: String = s[..open]
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_uppercase();

    // Find matching close paren (args contain no parens, but may contain
    // quoted strings).
    let bytes = s.as_bytes();
    let mut i = open + 1;
    let mut close = None;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            }
            b')' => {
                close = Some(i);
                break;
            }
            _ => i += 1,
        }
    }
    let close = close.ok_or_else(|| Error::sesql("unterminated argument list", open))?;
    let args: Vec<String> = s[open + 1..close]
        .split(',')
        .map(|a| a.trim().trim_matches('\'').to_string())
        .filter(|a| !a.is_empty())
        .collect();

    let expect = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::sesql(
                format!("{keyword} expects {n} arguments, got {}", args.len()),
                open,
            ))
        }
    };

    let clause = match keyword.as_str() {
        "SCHEMAEXTENSION" => {
            expect(2)?;
            Enrichment::SchemaExtension { attr: args[0].clone(), property: args[1].clone() }
        }
        "SCHEMAREPLACEMENT" => {
            expect(2)?;
            Enrichment::SchemaReplacement { attr: args[0].clone(), property: args[1].clone() }
        }
        "BOOLSCHEMAEXTENSION" => {
            expect(3)?;
            Enrichment::BoolSchemaExtension {
                attr: args[0].clone(),
                property: args[1].clone(),
                concept: args[2].clone(),
            }
        }
        "BOOLSCHEMAREPLACEMENT" => {
            expect(3)?;
            Enrichment::BoolSchemaReplacement {
                attr: args[0].clone(),
                property: args[1].clone(),
                concept: args[2].clone(),
            }
        }
        "REPLACECONSTANT" => {
            expect(3)?;
            Enrichment::ReplaceConstant {
                cond: args[0].clone(),
                constant: args[1].clone(),
                property: args[2].clone(),
            }
        }
        "REPLACEVARIABLE" => {
            expect(3)?;
            Enrichment::ReplaceVariable {
                cond: args[0].clone(),
                attr: args[1].clone(),
                property: args[2].clone(),
            }
        }
        other => {
            return Err(Error::sesql(
                format!("unknown enrichment clause `{other}`"),
                0,
            ))
        }
    };
    Ok((clause, &s[close + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_41() {
        let q = parse_sesql(
            "SELECT elem_name, landfill_name \
             FROM elem_contained \
             WHERE landfill_name = 'a' \
             ENRICH \
             SCHEMAEXTENSION( elem_name, dangerLevel)",
        )
        .unwrap();
        assert_eq!(q.enrichments.len(), 1);
        assert_eq!(
            q.enrichments[0],
            Enrichment::SchemaExtension {
                attr: "elem_name".into(),
                property: "dangerLevel".into()
            }
        );
        assert!(q.conditions.is_empty());
        assert!(q.is_enriched());
    }

    #[test]
    fn paper_example_42_replacement() {
        let q = parse_sesql(
            "SELECT name, city FROM landfill ENRICH SCHEMAREPLACEMENT(city, inCountry)",
        )
        .unwrap();
        assert_eq!(
            q.enrichments[0],
            Enrichment::SchemaReplacement { attr: "city".into(), property: "inCountry".into() }
        );
    }

    #[test]
    fn paper_example_43_bool_extension() {
        let q = parse_sesql(
            "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
             ENRICH BOOLSCHEMAEXTENSION( elem_name, isA, HazardousWaste)",
        )
        .unwrap();
        assert_eq!(
            q.enrichments[0],
            Enrichment::BoolSchemaExtension {
                attr: "elem_name".into(),
                property: "isA".into(),
                concept: "HazardousWaste".into()
            }
        );
    }

    #[test]
    fn paper_example_44_bool_replacement() {
        let q = parse_sesql(
            "SELECT name, city FROM landfill \
             ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)",
        )
        .unwrap();
        assert_eq!(
            q.enrichments[0],
            Enrichment::BoolSchemaReplacement {
                attr: "city".into(),
                property: "inCountry".into(),
                concept: "Italy".into()
            }
        );
    }

    #[test]
    fn paper_example_45_replace_constant() {
        let q = parse_sesql(
            "SELECT landfill_name FROM elem_contained \
             WHERE ${elem_name = HazardousWaste:cond1} \
             ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)",
        )
        .unwrap();
        assert_eq!(
            q.enrichments[0],
            Enrichment::ReplaceConstant {
                cond: "cond1".into(),
                constant: "HazardousWaste".into(),
                property: "dangerQuery".into()
            }
        );
        assert!(q.conditions.contains_key("cond1"));
        assert!(q.clean_sql.contains("(elem_name = HazardousWaste)"));
    }

    #[test]
    fn paper_example_46_replace_variable() {
        let q = parse_sesql(
            "SELECT Elecond1.landfill_name AS l_name1, \
                    Elecond2.landfill_name AS l_name2, \
                    Elecond1.elem_name \
             FROM elem_contained AS Elecond1, elem_contained AS Elecond2 \
             WHERE Elecond1.elem_name <> Elecond2.elem_name AND \
                   ${ Elecond1.elem_name = Elecond2.elem_name :cond1} \
             ENRICH REPLACEVARIABLE(cond1, Elecond2.elem_name, oreAssemblage)",
        )
        .unwrap();
        assert_eq!(
            q.enrichments[0],
            Enrichment::ReplaceVariable {
                cond: "cond1".into(),
                attr: "Elecond2.elem_name".into(),
                property: "oreAssemblage".into()
            }
        );
    }

    #[test]
    fn multiple_clauses() {
        let q = parse_sesql(
            "SELECT a, b FROM t ENRICH \
             SCHEMAEXTENSION(a, p) \
             SCHEMAREPLACEMENT(b, q), BOOLSCHEMAEXTENSION(a, r, C)",
        )
        .unwrap();
        assert_eq!(q.enrichments.len(), 3);
    }

    #[test]
    fn spaced_and_underscored_keywords() {
        let q = parse_sesql("SELECT a FROM t ENRICH SCHEMA EXTENSION(a, p)").unwrap();
        assert!(matches!(q.enrichments[0], Enrichment::SchemaExtension { .. }));
        let q = parse_sesql("SELECT a FROM t ENRICH schema_extension(a, p)").unwrap();
        assert!(matches!(q.enrichments[0], Enrichment::SchemaExtension { .. }));
    }

    #[test]
    fn plain_sql_is_valid_sesql() {
        let q = parse_sesql("SELECT a FROM t WHERE a > 1").unwrap();
        assert!(!q.is_enriched());
        assert!(q.conditions.is_empty());
    }

    #[test]
    fn dangling_condition_reference_rejected() {
        let err = parse_sesql(
            "SELECT a FROM t ENRICH REPLACECONSTANT(cond9, X, p)",
        )
        .unwrap_err();
        assert!(err.to_string().contains("cond9"), "{err}");
    }

    #[test]
    fn wrong_arity_rejected() {
        assert!(parse_sesql("SELECT a FROM t ENRICH SCHEMAEXTENSION(a)").is_err());
        assert!(parse_sesql("SELECT a FROM t ENRICH SCHEMAEXTENSION(a, b, c)").is_err());
        assert!(
            parse_sesql("SELECT a FROM t ENRICH BOOLSCHEMAEXTENSION(a, b)").is_err()
        );
    }

    #[test]
    fn unknown_clause_rejected() {
        assert!(parse_sesql("SELECT a FROM t ENRICH FROBNICATE(a, b)").is_err());
    }

    #[test]
    fn empty_enrich_rejected() {
        assert!(parse_sesql("SELECT a FROM t ENRICH").is_err());
    }

    #[test]
    fn non_select_rejected() {
        assert!(parse_sesql("DELETE FROM t ENRICH SCHEMAEXTENSION(a, b)").is_err());
    }

    #[test]
    fn bad_sql_part_is_reported() {
        assert!(parse_sesql("SELECT FROM WHERE ENRICH SCHEMAEXTENSION(a,b)").is_err());
    }

    #[test]
    fn quoted_string_args() {
        let q = parse_sesql(
            "SELECT a FROM t ENRICH SCHEMAEXTENSION('my attr', 'my prop')",
        )
        .unwrap();
        assert_eq!(
            q.enrichments[0],
            Enrichment::SchemaExtension { attr: "my attr".into(), property: "my prop".into() }
        );
    }

    #[test]
    fn display_of_parsed_query_mentions_enrich() {
        let q = parse_sesql("SELECT a FROM t ENRICH SCHEMAEXTENSION(a, p)").unwrap();
        let text = q.to_string();
        assert!(text.contains("ENRICH SCHEMAEXTENSION(a, p)"), "{text}");
    }
}
