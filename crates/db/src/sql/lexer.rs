//! Hand-rolled SQL lexer.
//!
//! A [`Lexer`] yields tokens one at a time, with byte offsets for error
//! messages, so the parser never holds a statement's whole token list.
//! Identifiers and string literals borrow from the input; a string literal
//! is copied only when it contains a `''` escape. Keywords are recognized
//! case-insensitively; identifiers keep their original spelling (column
//! lookup is case-insensitive anyway).

use crate::error::{DbError, DbResult};
use std::borrow::Cow;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Identifier or keyword (keywords are matched by the parser via
    /// [`Token::is_kw`], so quoted identifiers are unnecessary for our subset).
    Ident(&'a str),
    /// Integer literal. `i64::MIN` stands for `9223372036854775808`, the
    /// one magnitude outside `i64` whose negation is in it: the parser takes
    /// it only after a unary minus, which is how `i64::MIN` is written.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal with quotes removed and `''` unescaped.
    Str(Cow<'a, str>),
    /// Positional parameter: `$3` → `Param(3)`; `?` tokens are numbered
    /// left-to-right starting at 1.
    Param(usize),
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*` (projection star or multiplication).
    StarTok,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
}

impl Token<'_> {
    /// Case-insensitive keyword check against an identifier token.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// A token plus the byte offset where it started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Byte offset where the token started.
    pub offset: usize,
}

/// The tokens of one input, in order. After an error it yields nothing more.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    anon_param: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            anon_param: 0,
        }
    }

    /// The next token, or `None` at the end of the input.
    fn token(&mut self) -> DbResult<Option<SpannedToken<'a>>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut i = self.pos;
        // Whitespace and `--` line comments.
        loop {
            match bytes.get(i) {
                Some(b' ' | b'\t' | b'\r' | b'\n') => i += 1,
                Some(b'-') if bytes.get(i + 1) == Some(&b'-') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let start = i;
        self.pos = start;
        let Some(&c) = bytes.get(start) else {
            return Ok(None);
        };
        let then = |b: u8| bytes.get(start + 1) == Some(&b);
        let (token, len) = match c {
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b',' => (Token::Comma, 1),
            b'.' if !bytes.get(start + 1).is_some_and(u8::is_ascii_digit) => (Token::Dot, 1),
            b';' => (Token::Semicolon, 1),
            b'+' => (Token::Plus, 1),
            b'-' => (Token::Minus, 1),
            b'*' => (Token::StarTok, 1),
            b'/' => (Token::Slash, 1),
            b'=' => (Token::Eq, 1),
            b'!' if then(b'=') => (Token::NotEq, 2),
            b'!' => return Err(DbError::Parse(format!("unexpected '!' at byte {start}"))),
            b'<' if then(b'=') => (Token::LtEq, 2),
            b'<' if then(b'>') => (Token::NotEq, 2),
            b'<' => (Token::Lt, 1),
            b'>' if then(b'=') => (Token::GtEq, 2),
            b'>' => (Token::Gt, 1),
            b'?' => {
                self.anon_param += 1;
                (Token::Param(self.anon_param), 1)
            }
            b'$' => {
                let digits = bytes[start + 1..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                if digits == 0 {
                    return Err(DbError::Parse(format!(
                        "expected digits after '$' at byte {start}"
                    )));
                }
                let n: usize = input[start + 1..start + 1 + digits]
                    .parse()
                    .map_err(|_| DbError::Parse(format!("bad parameter index at byte {start}")))?;
                if n == 0 {
                    return Err(DbError::Parse("parameter indexes are 1-based".into()));
                }
                (Token::Param(n), 1 + digits)
            }
            b'\'' => {
                // The literal ends at the first quote that is not doubled.
                let mut end = start + 1;
                let mut escaped = false;
                loop {
                    match bytes.get(end) {
                        None => {
                            return Err(DbError::Parse(format!(
                                "unterminated string starting at byte {start}"
                            )))
                        }
                        Some(b'\'') if bytes.get(end + 1) == Some(&b'\'') => {
                            escaped = true;
                            end += 2;
                        }
                        Some(b'\'') => break,
                        Some(_) => end += 1,
                    }
                }
                let text = &input[start + 1..end];
                let text = if escaped {
                    Cow::Owned(text.replace("''", "'"))
                } else {
                    Cow::Borrowed(text)
                };
                (Token::Str(text), end + 1 - start)
            }
            c if c.is_ascii_digit() || (c == b'.' && start + 1 < bytes.len()) => {
                let mut is_float = c == b'.';
                i = start + 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit() || (bytes[i] == b'.' && !is_float))
                {
                    if bytes[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                // exponent
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let save = i;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    if i < bytes.len() && bytes[i].is_ascii_digit() {
                        is_float = true;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    } else {
                        i = save; // 'e' begins an identifier, not an exponent
                    }
                }
                let text = &input[start..i];
                let token = if is_float {
                    Token::Float(text.parse().map_err(|_| {
                        DbError::Parse(format!("bad float literal '{text}' at byte {start}"))
                    })?)
                } else {
                    match text.parse() {
                        Ok(int) => Token::Int(int),
                        Err(_) if text == "9223372036854775808" => Token::Int(i64::MIN),
                        Err(_) => {
                            let bad = format!("bad int literal '{text}' at byte {start}");
                            return Err(DbError::Parse(bad));
                        }
                    }
                };
                (token, i - start)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let len = bytes[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                    .count();
                (Token::Ident(&input[start..start + len]), len)
            }
            other => {
                return Err(DbError::Parse(format!(
                    "unexpected character '{}' at byte {start}",
                    other as char
                )));
            }
        };
        self.pos = start + len;
        Ok(Some(SpannedToken {
            token,
            offset: start,
        }))
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = DbResult<SpannedToken<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let next = self.token().transpose();
        if matches!(next, Some(Err(_))) {
            self.pos = self.input.len();
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(s: &str) -> DbResult<Vec<SpannedToken<'_>>> {
        Lexer::new(s).collect()
    }

    fn toks(s: &str) -> Vec<Token<'_>> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn lexes_simple_select() {
        let t = toks("SELECT * FROM Car WHERE price >= 10.5");
        assert_eq!(t[0], Token::Ident("SELECT"));
        assert_eq!(t[1], Token::StarTok);
        assert_eq!(t[5], Token::Ident("price"));
        assert_eq!(t[6], Token::GtEq);
        assert_eq!(t[7], Token::Float(10.5));
    }

    #[test]
    fn string_escapes_and_unicode() {
        assert_eq!(toks("'O''Hara'"), vec![Token::Str("O'Hara".into())]);
        assert_eq!(toks("'héllo'"), vec![Token::Str("héllo".into())]);
        assert_eq!(toks("''''"), vec![Token::Str("'".into())]);
        assert_eq!(toks("''"), vec![Token::Str("".into())]);
        // Only an escape makes a copy.
        assert!(matches!(&toks("'plain'")[0], Token::Str(Cow::Borrowed("plain"))));
    }

    #[test]
    fn params_dollar_and_question() {
        assert_eq!(
            toks("$2 ? ? $1"),
            vec![
                Token::Param(2),
                Token::Param(1),
                Token::Param(2),
                Token::Param(1)
            ]
        );
    }

    #[test]
    fn operators_all_forms() {
        assert_eq!(
            toks("<> != <= >= < > ="),
            vec![
                Token::NotEq,
                Token::NotEq,
                Token::LtEq,
                Token::GtEq,
                Token::Lt,
                Token::Gt,
                Token::Eq
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("SELECT -- everything\n1"),
            vec![Token::Ident("SELECT"), Token::Int(1)]
        );
    }

    #[test]
    fn negative_handled_by_parser_not_lexer() {
        assert_eq!(toks("-3"), vec![Token::Minus, Token::Int(3)]);
    }

    #[test]
    fn exponent_vs_identifier() {
        assert_eq!(toks("1e3"), vec![Token::Float(1000.0)]);
        assert_eq!(toks("1 e3"), vec![Token::Int(1), Token::Ident("e3")]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
        assert!(tokenize("'oops''").is_err());
        let mut lexer = Lexer::new("a 'oops");
        assert!(matches!(lexer.next(), Some(Ok(_))));
        assert!(matches!(lexer.next(), Some(Err(_))));
        assert!(lexer.next().is_none(), "nothing after an error");
    }

    #[test]
    fn qualified_name_dots() {
        assert_eq!(
            toks("Car.model"),
            vec![Token::Ident("Car"), Token::Dot, Token::Ident("model")]
        );
    }
}
