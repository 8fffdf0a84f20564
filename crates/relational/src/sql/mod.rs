//! SQL front-end: lexer, AST, parser, and the statement cache's
//! normaliser.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod shape;
pub mod token;
