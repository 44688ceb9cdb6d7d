//! Tokens and source positions.

use std::fmt;

/// A half-open byte range in the source, with line/column of its start
/// (1-based) for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    pub start: usize,
    pub end: usize,
    pub line: u32,
    pub col: u32,
}

impl Span {
    /// A zero-width span at the very start of the input.
    pub fn zero() -> Span {
        Span {
            start: 0,
            end: 0,
            line: 1,
            col: 1,
        }
    }
}

/// Lexical tokens of the `.td` concrete syntax. A name is a slice of the
/// source, so a token is `Copy` and lexing allocates nothing per token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tok<'a> {
    /// Lowercase-initial identifier: predicate or constant name.
    Ident(&'a str),
    /// Uppercase- or `_`-initial identifier: variable name.
    Var(&'a str),
    /// Integer literal, its sign included when a `-` is written right
    /// before the digits.
    Int(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `|`
    Pipe,
    /// `/`
    Slash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `<-`
    Arrow,
    /// `?-`
    Query,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Var(s) => write!(f, "variable `{s}`"),
            Tok::Int(i) => write!(f, "integer `{i}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Pipe => write!(f, "`|`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Arrow => write!(f, "`<-`"),
            Tok::Query => write!(f, "`?-`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Ne => write!(f, "`!=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token<'a> {
    pub tok: Tok<'a>,
    pub span: Span,
}
