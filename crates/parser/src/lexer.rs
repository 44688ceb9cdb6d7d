//! The lexer for `.td` source.
//!
//! Comments run from `%` or `//` to end of line. Identifiers starting with a
//! lowercase letter are constants/predicate names; identifiers starting with
//! an uppercase letter or `_` are variables (Prolog convention — the paper's
//! examples are written this way). A `-` written right before a digit is the
//! sign of an integer literal, so `-9223372036854775808` reads back as the
//! smallest `i64`.
//!
//! Tokens borrow their text from the source: the only allocation is the
//! token vector itself.

use crate::error::{ParseError, ParseErrorKind};
use crate::token::{Span, Tok, Token};

pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Tokenize the whole input. Returns tokens (ending with `Eof`) or the
    /// first lexical error.
    pub fn tokenize(mut self) -> Result<Vec<Token<'a>>, ParseError> {
        // About one token per four bytes of source, so the vector rarely
        // grows more than once.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            self.skip_trivia();
            let span_start = self.here();
            let Some(c) = self.peek() else {
                out.push(Token {
                    tok: Tok::Eof,
                    span: self.span_from(span_start),
                });
                return Ok(out);
            };
            let tok = match c {
                b'(' => self.take(Tok::LParen),
                b')' => self.take(Tok::RParen),
                b'{' => self.take(Tok::LBrace),
                b'}' => self.take(Tok::RBrace),
                b',' => self.take(Tok::Comma),
                b'.' => self.take(Tok::Dot),
                b'*' => self.take(Tok::Star),
                b'|' => self.take(Tok::Pipe),
                b'/' => self.take(Tok::Slash),
                b'+' => self.take(Tok::Plus),
                b'=' => self.take(Tok::Eq),
                b'-' => {
                    // negative integer literal or bare minus
                    self.bump();
                    if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        Tok::Int(self.lex_int(span_start)?)
                    } else {
                        Tok::Minus
                    }
                }
                b'<' => {
                    self.bump();
                    match self.peek() {
                        Some(b'-') => {
                            self.bump();
                            Tok::Arrow
                        }
                        Some(b'=') => {
                            self.bump();
                            Tok::Le
                        }
                        _ => Tok::Lt,
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Ge
                    } else {
                        Tok::Gt
                    }
                }
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Ne
                    } else {
                        return Err(ParseError::new(
                            ParseErrorKind::UnexpectedChar('!'),
                            self.span_from(span_start),
                        ));
                    }
                }
                b'?' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::Query
                    } else {
                        return Err(ParseError::new(
                            ParseErrorKind::UnexpectedChar('?'),
                            self.span_from(span_start),
                        ));
                    }
                }
                c if c.is_ascii_digit() => {
                    let n = self.lex_int(span_start)?;
                    Tok::Int(n)
                }
                c if c.is_ascii_lowercase() => Tok::Ident(self.lex_word()),
                c if c.is_ascii_uppercase() || c == b'_' => Tok::Var(self.lex_word()),
                other => {
                    return Err(ParseError::new(
                        ParseErrorKind::UnexpectedChar(other as char),
                        self.span_from(span_start),
                    ))
                }
            };
            out.push(Token {
                tok,
                span: self.span_from(span_start),
            });
        }
    }

    fn here(&self) -> (usize, u32, u32) {
        (self.pos, self.line, self.col)
    }

    fn span_from(&self, (start, line, col): (usize, u32, u32)) -> Span {
        Span {
            start,
            end: self.pos,
            line,
            col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.pos += 1;
            if c == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn take(&mut self, tok: Tok<'a>) -> Tok<'a> {
        self.bump();
        tok
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => self.bump(),
                Some(b'%') => self.skip_line(),
                Some(b'/') if self.peek2() == Some(b'/') => self.skip_line(),
                _ => return,
            }
        }
    }

    fn skip_line(&mut self) {
        while let Some(c) = self.peek() {
            if c == b'\n' {
                return;
            }
            self.bump();
        }
    }

    /// The integer whose digits start here, signed by a `-` that started
    /// the token at `span_start`.
    fn lex_int(&mut self, span_start: (usize, u32, u32)) -> Result<i64, ParseError> {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        let text = &self.text[span_start.0..self.pos];
        text.parse::<i64>().map_err(|_| {
            ParseError::new(
                ParseErrorKind::IntOutOfRange(text.to_owned()),
                self.span_from(span_start),
            )
        })
    }

    fn lex_word(&mut self) -> &'a str {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.bump();
        }
        &self.text[start..self.pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn lex_rule_shape() {
        let t = toks("r(X) <- p(X) * ins.q(X).");
        assert_eq!(
            t,
            vec![
                Tok::Ident("r"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Arrow,
                Tok::Ident("p"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Star,
                Tok::Ident("ins"),
                Tok::Dot,
                Tok::Ident("q"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Dot,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            toks("< <= > >= = != <- ?- | * / + -"),
            vec![
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Eq,
                Tok::Ne,
                Tok::Arrow,
                Tok::Query,
                Tok::Pipe,
                Tok::Star,
                Tok::Slash,
                Tok::Plus,
                Tok::Minus,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lex_integers_including_negative() {
        assert_eq!(
            toks("0 42 -17"),
            vec![Tok::Int(0), Tok::Int(42), Tok::Int(-17), Tok::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("p. % trailing comment\n// full line\nq.");
        assert_eq!(
            t,
            vec![
                Tok::Ident("p"),
                Tok::Dot,
                Tok::Ident("q"),
                Tok::Dot,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn slash_alone_is_a_token_not_comment() {
        let t = toks("p/2");
        assert_eq!(t, vec![Tok::Ident("p"), Tok::Slash, Tok::Int(2), Tok::Eof]);
    }

    #[test]
    fn variables_and_underscore() {
        assert_eq!(
            toks("X _foo Abc_1"),
            vec![Tok::Var("X"), Tok::Var("_foo"), Tok::Var("Abc_1"), Tok::Eof]
        );
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let tokens = Lexer::new("p.\n  q.").tokenize().unwrap();
        let q = &tokens[2];
        assert_eq!(q.tok, Tok::Ident("q"));
        assert_eq!(q.span.line, 2);
        assert_eq!(q.span.col, 3);
    }

    #[test]
    fn unexpected_char_errors() {
        let err = Lexer::new("p @ q").tokenize().unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedChar('@')));
        assert_eq!(err.span.col, 3);
    }

    #[test]
    fn bang_without_eq_errors() {
        let err = Lexer::new("a ! b").tokenize().unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedChar('!')));
    }

    #[test]
    fn int_out_of_range_errors() {
        let err = Lexer::new("99999999999999999999999")
            .tokenize()
            .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::IntOutOfRange(_)));
    }

    #[test]
    fn the_sign_is_lexed_with_the_digits() {
        assert_eq!(
            toks("-9223372036854775808 9223372036854775807"),
            vec![Tok::Int(i64::MIN), Tok::Int(i64::MAX), Tok::Eof]
        );
        let err = Lexer::new("-9223372036854775809").tokenize().unwrap_err();
        assert_eq!(
            err.kind,
            ParseErrorKind::IntOutOfRange("-9223372036854775809".to_owned())
        );
        assert_eq!(toks("- 5"), vec![Tok::Minus, Tok::Int(5), Tok::Eof]);
    }
}
