//! Token definitions for the gate-level Verilog subset.

use crate::error::Loc;
use crate::netlist::GateKind;
use std::fmt;

/// A lexed token together with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub loc: Loc,
}

/// The kinds of token the lexer produces.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier (simple or escaped `\foo[1] `).
    Ident(String),
    /// Keyword from [`Keyword`].
    Keyword(Keyword),
    /// Unsized decimal number, e.g. the `3` in `[3:0]` or `#3`.
    Number(u64),
    /// Sized literal, e.g. `4'b1010`, `8'hff`. Stored as (width, bits), bit 0
    /// of `bits` is the least significant bit. X/Z digits are rejected by the
    /// lexer (synthesized netlists do not contain them in constants).
    SizedLiteral {
        width: u32,
        bits: u64,
    },
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Colon,
    Dot,
    Equals,
    Hash,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Number(n) => write!(f, "number `{n}`"),
            TokenKind::SizedLiteral { width, bits } => {
                write!(f, "literal `{width}'d{bits}`")
            }
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Equals => write!(f, "`=`"),
            TokenKind::Hash => write!(f, "`#`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Reserved words recognized by the subset: ten structural words and the
/// primitive gate names, which are [`GateKind`]'s own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Assign,
    Supply0,
    Supply1,
    /// A primitive gate; never [`GateKind::is_const`], so `const0` and
    /// `const1` stay identifiers.
    Gate(GateKind),
}

impl Keyword {
    /// Look up an identifier as a keyword. (Deliberately not the `FromStr`
    /// trait: lookup failure is an ordinary `None`, not an error.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Keyword> {
        Some(match s {
            "module" => Keyword::Module,
            "endmodule" => Keyword::Endmodule,
            "input" => Keyword::Input,
            "output" => Keyword::Output,
            "inout" => Keyword::Inout,
            "wire" => Keyword::Wire,
            "reg" => Keyword::Reg,
            "assign" => Keyword::Assign,
            "supply0" => Keyword::Supply0,
            "supply1" => Keyword::Supply1,
            _ => {
                return GateKind::from_name(s)
                    .filter(|k| !k.is_const())
                    .map(Keyword::Gate)
            }
        })
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Keyword::Module => "module",
            Keyword::Endmodule => "endmodule",
            Keyword::Input => "input",
            Keyword::Output => "output",
            Keyword::Inout => "inout",
            Keyword::Wire => "wire",
            Keyword::Reg => "reg",
            Keyword::Assign => "assign",
            Keyword::Supply0 => "supply0",
            Keyword::Supply1 => "supply1",
            Keyword::Gate(k) => k.name(),
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        for kw in [
            Keyword::Module,
            Keyword::Endmodule,
            Keyword::Input,
            Keyword::Output,
            Keyword::Inout,
            Keyword::Wire,
            Keyword::Reg,
            Keyword::Assign,
            Keyword::Supply0,
            Keyword::Supply1,
            Keyword::Gate(GateKind::And),
            Keyword::Gate(GateKind::Or),
            Keyword::Gate(GateKind::Nand),
            Keyword::Gate(GateKind::Nor),
            Keyword::Gate(GateKind::Xor),
            Keyword::Gate(GateKind::Xnor),
            Keyword::Gate(GateKind::Buf),
            Keyword::Gate(GateKind::Not),
            Keyword::Gate(GateKind::Dff),
            Keyword::Gate(GateKind::Dffr),
            Keyword::Gate(GateKind::Latch),
        ] {
            assert_eq!(Keyword::from_str(&kw.to_string()), Some(kw));
        }
        assert_eq!(Keyword::from_str("always"), None);
    }

    #[test]
    fn gate_classification() {
        let lexes_as_gate = |s| matches!(Keyword::from_str(s), Some(Keyword::Gate(_)));
        assert!(lexes_as_gate("and"));
        assert!(lexes_as_gate("dff"));
        assert!(!lexes_as_gate("module"));
        assert!(!lexes_as_gate("wire"));
    }
}
