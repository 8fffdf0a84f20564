//! # crosse-lint
//!
//! The shared diagnostic model for CroSSE's static analyses: the SQL and
//! SESQL linter in `crosse-relational`/`crosse-core`, the SPARQL linter
//! in `crosse-rdf`, and the corpus lint gate (`cargo xtask lint`) all
//! speak [`Diagnostic`].
//!
//! A diagnostic is deliberately small — a stable machine-readable code, a
//! severity, a human message, and an optional source span — so it can
//! cross crate boundaries without any of the linters depending on each
//! other, travel with prepared-statement handles, and render identically
//! in the CLI, `EXPLAIN` footers, and golden snapshots.
//!
//! ## Diagnostic codes
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `L001` | error   | predicate is always false (`x = 1 AND x = 2`, `1 = 2`) |
//! | `L002` | warning | predicate is always true (`x = x`, `1 = 1`) |
//! | `L003` | warning | implicit cross join: FROM items share no equi-link |
//! | `L004` | warning | comparison forces implicit string↔numeric coercion |
//! | `L005` | warning | DISTINCT is a no-op under this GROUP BY |
//! | `L006` | warning | statement has unbound `$params` (prepare + bind) |
//! | `S001` | warning | SPARQL variable bound but never used |
//! | `S002` | warning | SPARQL variable projected but never bound |
//! | `S003` | error   | SPARQL FILTER is always false |
//! | `E001` | warning | SESQL tagged condition not referenced by any enrichment |
//! | `E002` | error   | SESQL enrichment references an unknown condition tag |
//! | `E003` | warning | enrichment references an unregistered stored query |
//! | `R000` | error   | malformed `srclint: allow` directive (unknown rule / no justification) |
//! | `R001` | error   | `std::sync::Mutex`/`RwLock` outside the compat shim |
//! | `R002` | error   | `.unwrap()`/`.expect(` in non-test library code |
//! | `R003` | error   | `panic!` outside tests/sabotage hooks |
//! | `R004` | warning | unlabeled `Mutex::new`/`RwLock::new` in engine code |
//! | `R005` | error   | crate root missing `#![forbid(unsafe_code)]` |
//! | `R006` | error   | `Instant::now`/`SystemTime::now`, or outside tests `Rows`/`ExecCtx`/`fetch_leaves`, in planner/optimizer code |
//!
//! The `R`-prefixed rules are [`srclint`] — the workspace's own Rust
//! sources linted by `cargo xtask srclint` with a hand-rolled,
//! dependency-free lexer.

#![forbid(unsafe_code)]

pub mod srclint;

use std::fmt;

/// How bad a [`Diagnostic`] is. Ordered: `Info < Warning < Error`, so
/// `--deny-warnings` style gates can threshold on `>= Warning`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: nothing wrong, but worth knowing.
    Info,
    /// The query is probably not what the author meant.
    Warning,
    /// The query cannot mean anything useful (e.g. always-false filter).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A half-open byte range `[start, end)` into the linted source text.
///
/// The SQL/SESQL ASTs do not carry positions, so spans are best-effort:
/// linters attach one when they can locate the offending fragment in the
/// original text, and omit it otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }
}

/// One linter finding: a stable code, a severity, a human-readable
/// message, and (when locatable) a source span.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// Stable machine-readable code (`L001`…, `S001`…, `E001`…); see the
    /// crate-level table. Snapshots and tests match on this.
    pub code: &'static str,
    pub severity: Severity,
    pub message: String,
    pub span: Option<Span>,
}

impl Diagnostic {
    pub fn new(
        code: &'static str,
        severity: Severity,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic { code, severity, message: message.into(), span: None }
    }

    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic::new(code, Severity::Error, message)
    }

    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic::new(code, Severity::Warning, message)
    }

    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic::new(code, Severity::Info, message)
    }

    /// Attach a source span (builder-style).
    pub fn with_span(mut self, start: usize, end: usize) -> Self {
        self.span = Some(Span::new(start, end));
        self
    }

    /// Locate `fragment` in `source` (case-insensitive) and attach its
    /// span if found. Best-effort: the diagnostic is returned unchanged
    /// when the fragment does not occur verbatim.
    pub fn try_span_of(mut self, source: &str, fragment: &str) -> Self {
        if self.span.is_none() && !fragment.is_empty() {
            let hay = source.to_ascii_lowercase();
            let needle = fragment.to_ascii_lowercase();
            if let Some(start) = hay.find(&needle) {
                self.span = Some(Span::new(start, start + needle.len()));
            }
        }
        self
    }
}

impl fmt::Display for Diagnostic {
    /// `warning[L003]: implicit cross join … (at 12..40)`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = &self.span {
            write!(f, " (at {}..{})", span.start, span.end)?;
        }
        Ok(())
    }
}

/// The highest severity among `diags`, or `None` when empty.
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

/// Render a diagnostic list one-per-line (no trailing newline), the
/// format shared by the CLI, EXPLAIN footers, and golden snapshots.
pub fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_for_thresholding() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_includes_code_and_span() {
        let d = Diagnostic::warning("L003", "implicit cross join").with_span(4, 9);
        assert_eq!(d.to_string(), "warning[L003]: implicit cross join (at 4..9)");
        let d = Diagnostic::error("L001", "always false");
        assert_eq!(d.to_string(), "error[L001]: always false");
    }

    #[test]
    fn try_span_is_case_insensitive_and_best_effort() {
        let src = "SELECT * FROM t WHERE X = 1 AND x = 2";
        let d = Diagnostic::error("L001", "contradiction").try_span_of(src, "x = 1");
        assert_eq!(d.span, Some(Span::new(22, 27)));
        let d = Diagnostic::error("L001", "contradiction").try_span_of(src, "nowhere");
        assert_eq!(d.span, None);
    }

    #[test]
    fn max_severity_over_mixed_list() {
        assert_eq!(max_severity(&[]), None);
        let diags = vec![
            Diagnostic::info("L006", "params"),
            Diagnostic::error("L001", "false"),
            Diagnostic::warning("L003", "cross join"),
        ];
        assert_eq!(max_severity(&diags), Some(Severity::Error));
    }
}
