//! Hand-written lexer for the gate-level Verilog subset.
//!
//! The lexer works on bytes (synthesized netlists are ASCII), tracks 1-based
//! line/column positions, skips both comment forms and compiler directives
//! (`` `timescale 1ns/1ps `` and friends are irrelevant to partitioning), and
//! produces the token stream consumed by [`crate::parser`].

use crate::error::{Error, Loc, Result};
use crate::token::{Keyword, Token, TokenKind};

/// Streaming lexer over a source string.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Lex the entire input into a token vector ending with `Eof`.
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        // Netlists average roughly one token per 4 bytes; reserving avoids
        // repeated growth on multi-megabyte inputs.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 16);
        loop {
            let tok = self.next_token()?;
            let is_eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if is_eof {
                return Ok(out);
            }
        }
    }

    fn loc(&self) -> Loc {
        Loc {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.loc();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => return Err(Error::lex(start, "unterminated block comment")),
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                // Compiler directives: skip to end of line.
                Some(b'`') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_trivia()?;
        let loc = self.loc();
        let Some(b) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                loc,
            });
        };
        let kind = match b {
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'[' => {
                self.bump();
                TokenKind::LBracket
            }
            b']' => {
                self.bump();
                TokenKind::RBracket
            }
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b';' => {
                self.bump();
                TokenKind::Semi
            }
            b':' => {
                self.bump();
                TokenKind::Colon
            }
            b'.' => {
                self.bump();
                TokenKind::Dot
            }
            b'=' => {
                self.bump();
                TokenKind::Equals
            }
            b'#' => {
                self.bump();
                TokenKind::Hash
            }
            b'\\' => self.lex_escaped_ident(loc)?,
            b'0'..=b'9' => self.lex_number(loc)?,
            b'\'' => self.lex_based_literal(loc, None)?,
            b if b.is_ascii_alphabetic() || b == b'_' || b == b'$' => self.lex_ident(),
            other => {
                return Err(Error::lex(
                    loc,
                    format!("unexpected character `{}`", other as char),
                ))
            }
        };
        Ok(Token { kind, loc })
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'$' {
                self.bump();
            } else {
                break;
            }
        }
        // Identifiers are ASCII by construction of the loop above.
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        match Keyword::from_str(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text.to_string()),
        }
    }

    /// Escaped identifier: `\` followed by any non-whitespace characters,
    /// terminated by whitespace. The backslash is not part of the name.
    fn lex_escaped_ident(&mut self, loc: Loc) -> Result<TokenKind> {
        self.bump(); // backslash
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                break;
            }
            self.bump();
        }
        if self.pos == start {
            return Err(Error::lex(loc, "empty escaped identifier"));
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| Error::lex(loc, "non-ASCII escaped identifier"))?;
        Ok(TokenKind::Ident(text.to_string()))
    }

    /// A decimal number, possibly the size prefix of a based literal
    /// (`4'b1010`).
    fn lex_number(&mut self, loc: Loc) -> Result<TokenKind> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        let value: u64 = text
            .bytes()
            .filter(|b| *b != b'_')
            .try_fold(0u64, |acc, b| {
                acc.checked_mul(10)?.checked_add((b - b'0') as u64)
            })
            .ok_or_else(|| Error::lex(loc, "number too large"))?;
        if self.peek() == Some(b'\'') {
            return self.lex_based_literal(loc, Some(value));
        }
        Ok(TokenKind::Number(value))
    }

    /// Based literal after an optional size: `'b1010`, `'hff`, `'d12`, `'o7`.
    fn lex_based_literal(&mut self, loc: Loc, size: Option<u64>) -> Result<TokenKind> {
        self.bump(); // apostrophe
        let base = self
            .bump()
            .ok_or_else(|| Error::lex(loc, "truncated based literal"))?
            .to_ascii_lowercase();
        let radix: u64 = match base {
            b'b' => 2,
            b'o' => 8,
            b'd' => 10,
            b'h' => 16,
            other => {
                return Err(Error::lex(
                    loc,
                    format!("unknown literal base `{}`", other as char),
                ))
            }
        };
        let start = self.pos;
        let mut bits: u64 = 0;
        let mut ndigits = 0u32;
        while let Some(b) = self.peek() {
            let digit = match b {
                b'_' => {
                    self.bump();
                    continue;
                }
                b'0'..=b'9' => (b - b'0') as u64,
                b'a'..=b'f' => (b - b'a' + 10) as u64,
                b'A'..=b'F' => (b - b'A' + 10) as u64,
                b'x' | b'X' | b'z' | b'Z' | b'?' => {
                    return Err(Error::lex(
                        loc,
                        "x/z digits in constants are not supported by the gate-level subset",
                    ))
                }
                _ => break,
            };
            if digit >= radix {
                break;
            }
            bits = bits
                .checked_mul(radix)
                .and_then(|v| v.checked_add(digit))
                .ok_or_else(|| Error::lex(loc, "literal value exceeds 64 bits"))?;
            ndigits += 1;
            self.bump();
        }
        if ndigits == 0 {
            return Err(Error::lex(loc, "based literal has no digits"));
        }
        let _ = start;
        let width = match size {
            Some(w) => {
                if w == 0 || w > 64 {
                    return Err(Error::lex(loc, "literal width must be in 1..=64"));
                }
                w as u32
            }
            // Unsized based literal: width of the value, at least 1 bit.
            None => (64 - bits.leading_zeros()).max(1),
        };
        if width < 64 && bits >> width != 0 {
            return Err(Error::lex(
                loc,
                format!("literal value does not fit in {width} bits"),
            ));
        }
        Ok(TokenKind::SizedLiteral { width, bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn punctuation_and_keywords() {
        let k = kinds("module m ( ) ; endmodule");
        assert_eq!(
            k,
            vec![
                TokenKind::Keyword(Keyword::Module),
                TokenKind::Ident("m".into()),
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Semi,
                TokenKind::Keyword(Keyword::Endmodule),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("wire /* block \n comment */ a; // line\nwire b;");
        assert_eq!(k.len(), 7); // wire a ; wire b ; eof
        assert_eq!(k[1], TokenKind::Ident("a".into()));
        assert_eq!(k[4], TokenKind::Ident("b".into()));
    }

    #[test]
    fn directives_are_skipped() {
        let k = kinds("`timescale 1ns/1ps\nwire a;");
        assert_eq!(k[0], TokenKind::Keyword(Keyword::Wire));
    }

    #[test]
    fn numbers_and_ranges() {
        let k = kinds("[31:0] #2");
        assert_eq!(
            k,
            vec![
                TokenKind::LBracket,
                TokenKind::Number(31),
                TokenKind::Colon,
                TokenKind::Number(0),
                TokenKind::RBracket,
                TokenKind::Hash,
                TokenKind::Number(2),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn sized_literals() {
        assert_eq!(
            kinds("4'b1010")[0],
            TokenKind::SizedLiteral {
                width: 4,
                bits: 0b1010
            }
        );
        assert_eq!(
            kinds("8'hfF")[0],
            TokenKind::SizedLiteral {
                width: 8,
                bits: 0xff
            }
        );
        assert_eq!(
            kinds("16'd1_000")[0],
            TokenKind::SizedLiteral {
                width: 16,
                bits: 1000
            }
        );
        assert_eq!(
            kinds("'b1")[0],
            TokenKind::SizedLiteral { width: 1, bits: 1 }
        );
    }

    #[test]
    fn literal_overflow_is_error() {
        assert!(Lexer::new("2'b111").tokenize().is_err());
        assert!(Lexer::new("4'bxxxx").tokenize().is_err());
        assert!(Lexer::new("0'b0").tokenize().is_err());
    }

    #[test]
    fn escaped_identifier() {
        let k = kinds("\\net[3].x wire");
        assert_eq!(k[0], TokenKind::Ident("net[3].x".into()));
        assert_eq!(k[1], TokenKind::Keyword(Keyword::Wire));
    }

    #[test]
    fn location_tracking() {
        let toks = Lexer::new("wire\n  a;").tokenize().unwrap();
        assert_eq!(toks[0].loc.line, 1);
        assert_eq!(toks[1].loc.line, 2);
        assert_eq!(toks[1].loc.col, 3);
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(Lexer::new("/* never ends").tokenize().is_err());
    }

    #[test]
    fn bad_character_is_error() {
        let err = Lexer::new("wire @;").tokenize().unwrap_err();
        assert!(err.to_string().contains('@'));
    }

    #[test]
    fn gate_names_lex_as_their_gate_kind() {
        use crate::netlist::GateKind;
        for kind in GateKind::ALL.into_iter().filter(|k| !k.is_const()) {
            let tok = kinds(kind.name()).remove(0);
            assert_eq!(tok, TokenKind::Keyword(Keyword::Gate(kind)));
            assert_eq!(tok.to_string(), format!("keyword `{}`", kind.name()));
        }
        for name in ["const0", "const1"] {
            assert_eq!(kinds(name)[0], TokenKind::Ident(name.into()));
        }
    }

    #[test]
    fn dollar_in_identifier() {
        let k = kinds("n$123 _abc$");
        assert_eq!(k[0], TokenKind::Ident("n$123".into()));
        assert_eq!(k[1], TokenKind::Ident("_abc$".into()));
    }
}
