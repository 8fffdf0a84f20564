// srclint: allow(R002): char lookups use byte offsets produced by the same scan, always in bounds
//! The dedicated SESQL scanner (paper Remark 4.1).
//!
//! Two pre-parsing passes run over the raw query text:
//!
//! 1. [`split_enrich`] separates the SQL part from the enrichment
//!    specification at the top-level `ENRICH` keyword ("the clause ENRICH
//!    plays the role of the separator between the two query components").
//! 2. [`extract_tags`] recognises the `${ <condition> : <id> }` markers —
//!    "a syntax construct which uses characters which wouldn't be accepted
//!    at that point by standard SQL" — records each tagged condition, and
//!    *cleans* the query by substituting the bare condition text back, "so
//!    that a syntactically correct SQL query can be processed".
//!
//! Both passes are quote-aware: `'...'` string literals (with `''`
//! escapes) and `"..."` quoted identifiers are never scanned for markers.

use crate::error::{Error, Result};

/// Split a SESQL text at the top-level `ENRICH` keyword.
///
/// Returns the SQL part and, if present, the enrichment specification text.
pub fn split_enrich(text: &str) -> Result<(String, Option<String>)> {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => i = skip_string(text, i)?,
            b'"' => i = skip_quoted_ident(text, i)?,
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                if text[start..i].eq_ignore_ascii_case("enrich") {
                    let sql = text[..start].trim().to_string();
                    let spec = text[i..].trim().to_string();
                    if sql.is_empty() {
                        return Err(Error::sesql("empty SQL part before ENRICH", start));
                    }
                    return Ok((sql, Some(spec)));
                }
            }
            _ => i += 1,
        }
    }
    Ok((text.trim().to_string(), None))
}

/// A tagged condition recovered from the raw SQL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedCondition {
    pub id: String,
    /// Raw condition text between `${` and `:id}`.
    pub text: String,
    /// Byte offset of the `${` marker in the original input.
    pub offset: usize,
    /// Where the parenthesised condition stands in the cleaned SQL.
    pub clean: std::ops::Range<usize>,
}

/// Extract every `${ cond : id }` marker; returns the cleaned SQL and the
/// recovered conditions in source order.
pub fn extract_tags(sql: &str) -> Result<(String, Vec<TaggedCondition>)> {
    let bytes = sql.as_bytes();
    let mut i = 0;
    let mut clean = String::with_capacity(sql.len());
    let mut tags = Vec::new();

    while i < bytes.len() {
        match bytes[i] {
            b'\'' => {
                let end = skip_string(sql, i)?;
                clean.push_str(&sql[i..end]);
                i = end;
            }
            b'"' => {
                let end = skip_quoted_ident(sql, i)?;
                clean.push_str(&sql[i..end]);
                i = end;
            }
            b'$' if bytes.get(i + 1) == Some(&b'{') => {
                let marker_start = i;
                i += 2;
                let content_start = i;
                // Find the closing '}' (quote-aware; nesting not allowed).
                let mut last_colon: Option<usize> = None;
                loop {
                    if i >= bytes.len() {
                        return Err(Error::sesql("unterminated `${` marker", marker_start));
                    }
                    match bytes[i] {
                        b'\'' => i = skip_string(sql, i)?,
                        b'"' => i = skip_quoted_ident(sql, i)?,
                        b'$' if bytes.get(i + 1) == Some(&b'{') => {
                            return Err(Error::sesql(
                                "nested `${` markers are not allowed",
                                i,
                            ));
                        }
                        b':' => {
                            last_colon = Some(i);
                            i += 1;
                        }
                        b'}' => break,
                        _ => i += 1,
                    }
                }
                let content_end = i;
                i += 1; // consume '}'
                let Some(colon) = last_colon else {
                    return Err(Error::sesql(
                        "`${...}` marker is missing its `:id`",
                        marker_start,
                    ));
                };
                let cond_text = sql[content_start..colon].trim().to_string();
                let id = sql[colon + 1..content_end].trim().to_string();
                if id.is_empty()
                    || !id
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    return Err(Error::sesql(
                        format!("invalid condition id `{id}`"),
                        colon,
                    ));
                }
                if cond_text.is_empty() {
                    return Err(Error::sesql("empty tagged condition", marker_start));
                }
                if tags.iter().any(|t: &TaggedCondition| t.id == id) {
                    return Err(Error::sesql(
                        format!("duplicate condition id `{id}`"),
                        colon,
                    ));
                }
                // The cleaned query keeps the condition, parenthesised so
                // operator precedence is preserved regardless of context.
                let start = clean.len();
                clean.push('(');
                clean.push_str(&cond_text);
                clean.push(')');
                let clean = start..clean.len();
                tags.push(TaggedCondition { id, text: cond_text, offset: marker_start, clean });
            }
            c => {
                clean.push(c as char);
                // multi-byte chars: copy the full char
                if !c.is_ascii() {
                    let ch = sql[i..].chars().next().expect("in bounds");
                    clean.pop();
                    clean.push(ch);
                    i += ch.len_utf8();
                    continue;
                }
                i += 1;
            }
        }
    }
    Ok((clean, tags))
}

/// Skip a `'...'` literal starting at `start`; returns the index after the
/// closing quote.
fn skip_string(s: &str, start: usize) -> Result<usize> {
    let bytes = s.as_bytes();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                i += 2;
            } else {
                return Ok(i + 1);
            }
        } else {
            i += 1;
        }
    }
    Err(Error::sesql("unterminated string literal", start))
}

/// Skip a `"..."` identifier starting at `start`.
fn skip_quoted_ident(s: &str, start: usize) -> Result<usize> {
    let bytes = s.as_bytes();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            if bytes.get(i + 1) == Some(&b'"') {
                i += 2;
            } else {
                return Ok(i + 1);
            }
        } else {
            i += 1;
        }
    }
    Err(Error::sesql("unterminated quoted identifier", start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_at_enrich() {
        let (sql, spec) = split_enrich(
            "SELECT a FROM t WHERE x = 1 ENRICH SCHEMAEXTENSION(a, p)",
        )
        .unwrap();
        assert_eq!(sql, "SELECT a FROM t WHERE x = 1");
        assert_eq!(spec.unwrap(), "SCHEMAEXTENSION(a, p)");
    }

    #[test]
    fn no_enrich_is_plain_sql() {
        let (sql, spec) = split_enrich("SELECT a FROM t").unwrap();
        assert_eq!(sql, "SELECT a FROM t");
        assert!(spec.is_none());
    }

    #[test]
    fn enrich_inside_string_is_not_a_separator() {
        let (sql, spec) =
            split_enrich("SELECT a FROM t WHERE x = 'ENRICH market'").unwrap();
        assert!(spec.is_none());
        assert!(sql.contains("'ENRICH market'"));
    }

    #[test]
    fn enrich_as_identifier_substring_is_not_matched() {
        let (_, spec) = split_enrich("SELECT enrichment FROM t").unwrap();
        assert!(spec.is_none());
        let (_, spec) = split_enrich("SELECT t.enrich2 FROM t").unwrap();
        assert!(spec.is_none());
    }

    #[test]
    fn case_insensitive_enrich() {
        let (_, spec) = split_enrich("SELECT a FROM t enrich X(a,b)").unwrap();
        assert_eq!(spec.unwrap(), "X(a,b)");
    }

    #[test]
    fn empty_sql_part_rejected() {
        assert!(split_enrich("ENRICH SCHEMAEXTENSION(a,b)").is_err());
    }

    #[test]
    fn extract_single_tag_paper_example_45() {
        let (clean, tags) = extract_tags(
            "SELECT landfill_name FROM elem_contained \
             WHERE ${elem_name = HazardousWaste:cond1}",
        )
        .unwrap();
        assert_eq!(
            clean,
            "SELECT landfill_name FROM elem_contained \
             WHERE (elem_name = HazardousWaste)"
        );
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].id, "cond1");
        assert_eq!(tags[0].text, "elem_name = HazardousWaste");
    }

    #[test]
    fn extract_tag_amid_conjunction_paper_example_46() {
        let (clean, tags) = extract_tags(
            "SELECT e1.landfill_name FROM elem_contained AS e1, elem_contained AS e2 \
             WHERE ${ e1.elem_name <> e2.elem_name :cond1} AND e1.elem_name = e2.elem_name",
        )
        .unwrap();
        assert!(clean.contains("(e1.elem_name <> e2.elem_name) AND"));
        assert_eq!(tags[0].text, "e1.elem_name <> e2.elem_name");
    }

    #[test]
    fn multiple_tags() {
        let (clean, tags) =
            extract_tags("WHERE ${a = 1:c1} AND ${b = 2:c2}").unwrap();
        assert_eq!(tags.len(), 2);
        assert_eq!(tags[0].id, "c1");
        assert_eq!(tags[1].id, "c2");
        assert_eq!(clean, "WHERE (a = 1) AND (b = 2)");
    }

    #[test]
    fn duplicate_ids_rejected() {
        assert!(extract_tags("${a = 1:c} AND ${b = 2:c}").is_err());
    }

    #[test]
    fn colon_inside_string_not_id_separator() {
        let (clean, tags) = extract_tags("${a = 'x:y':c1}").unwrap();
        assert_eq!(tags[0].text, "a = 'x:y'");
        assert_eq!(clean, "(a = 'x:y')");
    }

    #[test]
    fn dollar_without_brace_passes_through() {
        let (clean, tags) = extract_tags("SELECT a FROM t WHERE b = 1").unwrap();
        assert!(tags.is_empty());
        assert_eq!(clean, "SELECT a FROM t WHERE b = 1");
    }

    #[test]
    fn errors_for_malformed_markers() {
        assert!(extract_tags("${a = 1").is_err()); // unterminated
        assert!(extract_tags("${a = 1}").is_err()); // missing :id
        assert!(extract_tags("${:c1}").is_err()); // empty condition
        assert!(extract_tags("${a=1: }").is_err()); // empty id
        assert!(extract_tags("${a = ${b:c2}:c1}").is_err()); // nested
        assert!(extract_tags("${a = 1:bad id}").is_err()); // invalid id chars
    }

    #[test]
    fn markers_inside_strings_ignored() {
        let (clean, tags) = extract_tags("SELECT '${not a tag:x}' FROM t").unwrap();
        assert!(tags.is_empty());
        assert_eq!(clean, "SELECT '${not a tag:x}' FROM t");
    }

    #[test]
    fn utf8_passthrough() {
        let (clean, _) = extract_tags("SELECT 'Torinò' FROM t").unwrap();
        assert_eq!(clean, "SELECT 'Torinò' FROM t");
    }
}
