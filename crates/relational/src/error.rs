//! Error types for the relational engine.

use std::fmt;

/// Errors produced by the relational engine.
///
/// Every layer (lexer, parser, planner, executor, catalog) reports through
/// this single enum so callers can match on the failure class without
/// depending on internal module structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexical error: unexpected character, unterminated string, ...
    Lex { message: String, position: usize },
    /// Syntax error produced by the SQL parser.
    Parse { message: String, position: usize },
    /// Semantic / binding error (unknown table, ambiguous column, ...).
    Plan(String),
    /// Catalog error (duplicate table, schema mismatch).
    Catalog(String),
    /// The named table is not in the catalog. Its own variant so a caller
    /// racing a `DROP` can tell *which* table went missing without reading
    /// the message.
    NoSuchTable(String),
    /// Runtime evaluation error (type mismatch, division by zero, ...).
    Eval(String),
    /// Constraint violation (arity mismatch on INSERT, type mismatch).
    Constraint(String),
    /// Durability / storage error (WAL append failure, corrupt log or
    /// snapshot on recovery, I/O). Carries a rendered message so the enum
    /// stays `Clone + Eq`; match on the variant, not the text.
    Storage(String),
    /// An optimizer pass broke a plan invariant (caught by the
    /// `debug_assertions`-gated validator, see [`crate::opt::validate`]).
    /// Always an engine bug, never a user error.
    Invariant(crate::opt::validate::PlanInvariantError),
    /// The query was stopped cooperatively: cancelled via
    /// [`crosse_exec::CancelToken`] or past its deadline. Never a user
    /// error in the query text; the serving layer maps this to its typed
    /// `CANCELLED` / `DEADLINE_EXCEEDED` responses.
    Interrupted(crosse_exec::Interrupt),
}

impl Error {
    pub fn lex(message: impl Into<String>, position: usize) -> Self {
        Error::Lex { message: message.into(), position }
    }
    pub fn parse(message: impl Into<String>, position: usize) -> Self {
        Error::Parse { message: message.into(), position }
    }
    pub fn plan(message: impl Into<String>) -> Self {
        Error::Plan(message.into())
    }
    pub fn catalog(message: impl Into<String>) -> Self {
        Error::Catalog(message.into())
    }
    pub fn eval(message: impl Into<String>) -> Self {
        Error::Eval(message.into())
    }
    pub fn constraint(message: impl Into<String>) -> Self {
        Error::Constraint(message.into())
    }
    pub fn storage(message: impl Into<String>) -> Self {
        Error::Storage(message.into())
    }
}

impl From<crosse_wal::WalError> for Error {
    fn from(e: crosse_wal::WalError) -> Self {
        Error::Storage(e.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex { message, position } => {
                write!(f, "lexical error at byte {position}: {message}")
            }
            Error::Parse { message, position } => {
                write!(f, "syntax error at byte {position}: {message}")
            }
            Error::Plan(m) => write!(f, "planning error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::NoSuchTable(name) => {
                write!(f, "catalog error: table `{name}` does not exist")
            }
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::Constraint(m) => write!(f, "constraint violation: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Invariant(e) => write!(f, "{e}"),
            Error::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<crate::opt::validate::PlanInvariantError> for Error {
    fn from(e: crate::opt::validate::PlanInvariantError) -> Self {
        Error::Invariant(e)
    }
}

impl From<crosse_exec::Interrupt> for Error {
    fn from(i: crosse_exec::Interrupt) -> Self {
        Error::Interrupted(i)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = Error::parse("expected FROM", 17);
        assert_eq!(e.to_string(), "syntax error at byte 17: expected FROM");
    }

    #[test]
    fn display_variants() {
        assert!(Error::catalog("dup").to_string().contains("catalog"));
        assert_eq!(
            Error::NoSuchTable("t".into()).to_string(),
            "catalog error: table `t` does not exist"
        );
        assert!(Error::eval("bad").to_string().contains("evaluation"));
        assert!(Error::plan("x").to_string().contains("planning"));
        assert!(Error::constraint("x").to_string().contains("constraint"));
        assert!(Error::lex("x", 0).to_string().contains("lexical"));
        assert!(Error::storage("x").to_string().contains("storage"));
        assert!(Error::Interrupted(crosse_exec::Interrupt::Cancelled)
            .to_string()
            .contains("cancelled"));
        assert!(Error::Interrupted(crosse_exec::Interrupt::DeadlineExceeded)
            .to_string()
            .contains("deadline"));
    }

    #[test]
    fn wal_errors_convert_to_storage() {
        let e: Error = crosse_wal::WalError::BadRecord("short".into()).into();
        assert!(matches!(e, Error::Storage(_)));
        assert!(e.to_string().contains("short"));
    }
}
