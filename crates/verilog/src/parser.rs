//! Recursive-descent parser for the gate-level Verilog subset.
//!
//! Grammar (informal):
//!
//! ```text
//! source_unit   := module_decl*
//! module_decl   := "module" IDENT [ "(" ident_list? ")" ] ";" item* "endmodule"
//! item          := port_decl | net_decl | gate_inst | module_inst | assign
//! port_decl     := ("input"|"output"|"inout") range? ident_list ";"
//! net_decl      := ("wire"|"reg"|"supply0"|"supply1") range? ident_list ";"
//! gate_inst     := GATE_KW delay? gate_instance ("," gate_instance)* ";"
//! gate_instance := [IDENT] "(" expr_list ")"
//! module_inst   := IDENT mod_instance ("," mod_instance)* ";"
//! mod_instance  := IDENT "(" connections? ")"
//! connections   := expr_list | named_conn ("," named_conn)*
//! named_conn    := "." IDENT "(" expr? ")"
//! assign        := "assign" expr "=" expr ";"
//! expr          := concat | primary
//! primary       := IDENT [ "[" NUM (":" NUM)? "]" ] | LITERAL
//! concat        := "{" expr ("," expr)* "}"
//! range         := "[" NUM ":" NUM "]"
//! delay         := "#" NUM | "#" "(" NUM ("," NUM)* ")"
//! ```

use crate::ast::*;
use crate::error::{Error, Loc, Result};
use crate::lexer::Lexer;
use crate::netlist::GateKind;
use crate::token::{Keyword, Token, TokenKind};

/// Parser state over a fully lexed token vector.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Lex `src` and construct a parser.
    pub fn new(src: &str) -> Result<Self> {
        let tokens = Lexer::new(src).tokenize()?;
        Ok(Parser { tokens, pos: 0 })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn loc(&self) -> Loc {
        self.tokens[self.pos].loc
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(Error::parse(
                self.loc(),
                format!("expected {kind}, found {}", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek() {
            TokenKind::Ident(_) => {
                let TokenKind::Ident(s) = self.bump() else {
                    unreachable!()
                };
                Ok(s)
            }
            other => Err(Error::parse(
                self.loc(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn expect_number(&mut self) -> Result<u64> {
        match self.peek() {
            TokenKind::Number(_) => {
                let TokenKind::Number(n) = self.bump() else {
                    unreachable!()
                };
                Ok(n)
            }
            other => Err(Error::parse(
                self.loc(),
                format!("expected number, found {other}"),
            )),
        }
    }

    /// Parse the whole source unit (sequence of modules until EOF).
    pub fn parse_source_unit(&mut self) -> Result<SourceUnit> {
        let mut unit = SourceUnit::default();
        loop {
            match self.peek() {
                TokenKind::Eof => return Ok(unit),
                TokenKind::Keyword(Keyword::Module) => {
                    unit.modules.push(self.parse_module()?);
                }
                other => {
                    return Err(Error::parse(
                        self.loc(),
                        format!("expected `module` or end of input, found {other}"),
                    ))
                }
            }
        }
    }

    fn parse_module(&mut self) -> Result<ModuleDecl> {
        let loc = self.loc();
        self.expect(&TokenKind::Keyword(Keyword::Module))?;
        let name = self.expect_ident()?;
        let mut ports = Vec::new();
        if self.peek() == &TokenKind::LParen {
            self.bump();
            if self.peek() != &TokenKind::RParen {
                loop {
                    ports.push(self.expect_ident()?);
                    if self.peek() == &TokenKind::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::Semi)?;
        let mut items = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Keyword(Keyword::Endmodule) => {
                    self.bump();
                    break;
                }
                TokenKind::Eof => {
                    return Err(Error::parse(
                        self.loc(),
                        format!("unexpected end of input inside module `{name}`"),
                    ))
                }
                _ => items.push(self.parse_item()?),
            }
        }
        Ok(ModuleDecl {
            name,
            ports,
            items,
            loc,
        })
    }

    fn parse_item(&mut self) -> Result<Item> {
        let loc = self.loc();
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::Input) => self.parse_port_decl(Direction::Input),
            TokenKind::Keyword(Keyword::Output) => self.parse_port_decl(Direction::Output),
            TokenKind::Keyword(Keyword::Inout) => self.parse_port_decl(Direction::Inout),
            TokenKind::Keyword(Keyword::Wire) => self.parse_net_decl(NetKind::Wire),
            TokenKind::Keyword(Keyword::Reg) => self.parse_net_decl(NetKind::Reg),
            TokenKind::Keyword(Keyword::Supply0) => self.parse_net_decl(NetKind::Supply0),
            TokenKind::Keyword(Keyword::Supply1) => self.parse_net_decl(NetKind::Supply1),
            TokenKind::Keyword(Keyword::Assign) => self.parse_assign(),
            TokenKind::Keyword(Keyword::Gate(prim)) => self.parse_gate_inst(prim),
            TokenKind::Ident(_) => self.parse_module_inst(),
            other => Err(Error::parse(
                loc,
                format!("expected declaration, instantiation or assign, found {other}"),
            )),
        }
    }

    fn parse_range(&mut self) -> Result<Range> {
        self.expect(&TokenKind::LBracket)?;
        let msb = self.expect_number()? as u32;
        self.expect(&TokenKind::Colon)?;
        let lsb = self.expect_number()? as u32;
        self.expect(&TokenKind::RBracket)?;
        Ok(Range { msb, lsb })
    }

    fn parse_ident_list(&mut self) -> Result<Vec<String>> {
        let mut names = vec![self.expect_ident()?];
        while self.peek() == &TokenKind::Comma {
            self.bump();
            names.push(self.expect_ident()?);
        }
        Ok(names)
    }

    fn parse_port_decl(&mut self, direction: Direction) -> Result<Item> {
        let loc = self.loc();
        self.bump(); // direction keyword
                     // `input wire [3:0] a;` — tolerate an interposed net kind keyword, as
                     // emitted by some synthesis tools.
        if matches!(
            self.peek(),
            TokenKind::Keyword(Keyword::Wire) | TokenKind::Keyword(Keyword::Reg)
        ) {
            self.bump();
        }
        let range = if self.peek() == &TokenKind::LBracket {
            Some(self.parse_range()?)
        } else {
            None
        };
        let names = self.parse_ident_list()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item::PortDecl {
            direction,
            range,
            names,
            loc,
        })
    }

    fn parse_net_decl(&mut self, kind: NetKind) -> Result<Item> {
        let loc = self.loc();
        self.bump(); // net kind keyword
        let range = if self.peek() == &TokenKind::LBracket {
            Some(self.parse_range()?)
        } else {
            None
        };
        let names = self.parse_ident_list()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item::NetDecl {
            kind,
            range,
            names,
            loc,
        })
    }

    fn parse_assign(&mut self) -> Result<Item> {
        let loc = self.loc();
        self.expect(&TokenKind::Keyword(Keyword::Assign))?;
        let lhs = self.parse_expr()?;
        self.expect(&TokenKind::Equals)?;
        let rhs = self.parse_expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item::Assign { lhs, rhs, loc })
    }

    fn parse_gate_inst(&mut self, prim: GateKind) -> Result<Item> {
        let loc = self.loc();
        self.bump(); // gate keyword
        let delay = self.parse_optional_delay()?;
        let mut instances = Vec::new();
        loop {
            let iloc = self.loc();
            let name = match self.peek() {
                TokenKind::Ident(_) => Some(self.expect_ident()?),
                _ => None,
            };
            self.expect(&TokenKind::LParen)?;
            let mut terminals = vec![self.parse_expr()?];
            while self.peek() == &TokenKind::Comma {
                self.bump();
                terminals.push(self.parse_expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            instances.push(GateInstance {
                name,
                terminals,
                loc: iloc,
            });
            if self.peek() == &TokenKind::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Item::GateInst {
            prim,
            delay,
            instances,
            loc,
        })
    }

    /// `#3` or `#(1)` or `#(1,2)` / `#(1,2,3)` (rise/fall/turnoff). Only the
    /// first value is retained — the partitioner and the unit-delay simulator
    /// do not use per-gate delays.
    fn parse_optional_delay(&mut self) -> Result<Option<u64>> {
        if self.peek() != &TokenKind::Hash {
            return Ok(None);
        }
        self.bump();
        if self.peek() == &TokenKind::LParen {
            self.bump();
            let first = self.expect_number()?;
            while self.peek() == &TokenKind::Comma {
                self.bump();
                self.expect_number()?;
            }
            self.expect(&TokenKind::RParen)?;
            Ok(Some(first))
        } else {
            Ok(Some(self.expect_number()?))
        }
    }

    fn parse_module_inst(&mut self) -> Result<Item> {
        let loc = self.loc();
        let module = self.expect_ident()?;
        let mut instances = Vec::new();
        loop {
            let iloc = self.loc();
            let name = self.expect_ident()?;
            self.expect(&TokenKind::LParen)?;
            let connections = self.parse_connections()?;
            self.expect(&TokenKind::RParen)?;
            instances.push(ModuleInstance {
                name,
                connections,
                loc: iloc,
            });
            if self.peek() == &TokenKind::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Item::ModuleInst {
            module,
            instances,
            loc,
        })
    }

    fn parse_connections(&mut self) -> Result<Connections> {
        if self.peek() == &TokenKind::RParen {
            return Ok(Connections::Positional(Vec::new()));
        }
        if self.peek() == &TokenKind::Dot {
            // Named connections.
            let mut conns = Vec::new();
            loop {
                self.expect(&TokenKind::Dot)?;
                let port = self.expect_ident()?;
                self.expect(&TokenKind::LParen)?;
                let expr = if self.peek() == &TokenKind::RParen {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&TokenKind::RParen)?;
                conns.push((port, expr));
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            Ok(Connections::Named(conns))
        } else {
            // Positional connections; empty slots (`a, , b`) allowed.
            let mut conns = Vec::new();
            loop {
                if matches!(self.peek(), TokenKind::Comma | TokenKind::RParen) {
                    conns.push(None);
                } else {
                    conns.push(Some(self.parse_expr()?));
                }
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            Ok(Connections::Positional(conns))
        }
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::LBrace => {
                self.bump();
                let mut parts = vec![self.parse_expr()?];
                while self.peek() == &TokenKind::Comma {
                    self.bump();
                    parts.push(self.parse_expr()?);
                }
                self.expect(&TokenKind::RBrace)?;
                Ok(Expr::Concat(parts))
            }
            TokenKind::SizedLiteral { width, bits } => {
                self.bump();
                Ok(Expr::Literal { width, bits })
            }
            TokenKind::Ident(_) => {
                let name = self.expect_ident()?;
                if self.peek() == &TokenKind::LBracket {
                    self.bump();
                    let first = self.expect_number()? as u32;
                    if self.peek() == &TokenKind::Colon {
                        self.bump();
                        let lsb = self.expect_number()? as u32;
                        self.expect(&TokenKind::RBracket)?;
                        Ok(Expr::PartSelect(name, Range { msb: first, lsb }))
                    } else {
                        self.expect(&TokenKind::RBracket)?;
                        Ok(Expr::BitSelect(name, first))
                    }
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => Err(Error::parse(
                self.loc(),
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn empty_module() {
        let unit = parse("module top; endmodule").unwrap();
        assert_eq!(unit.modules.len(), 1);
        assert_eq!(unit.modules[0].name, "top");
        assert!(unit.modules[0].ports.is_empty());
    }

    #[test]
    fn module_with_ports_and_decls() {
        let unit = parse(
            "module m(a, b, y);\n input [1:0] a; input b; output y;\n wire [3:0] t;\nendmodule",
        )
        .unwrap();
        let m = &unit.modules[0];
        assert_eq!(m.ports, vec!["a", "b", "y"]);
        assert_eq!(m.items.len(), 4);
        match &m.items[0] {
            Item::PortDecl {
                direction, range, ..
            } => {
                assert_eq!(*direction, Direction::Input);
                assert_eq!(range.unwrap().width(), 2);
            }
            other => panic!("expected port decl, got {other:?}"),
        }
    }

    #[test]
    fn gate_instantiations() {
        let unit = parse(
            "module m(o); output o; wire a, b, c;\n and #2 g1 (o, a, b), (c, a, b);\nendmodule",
        )
        .unwrap();
        match &unit.modules[0].items[2] {
            Item::GateInst {
                prim,
                delay,
                instances,
                ..
            } => {
                assert_eq!(*prim, GateKind::And);
                assert_eq!(*delay, Some(2));
                assert_eq!(instances.len(), 2);
                assert_eq!(instances[0].name.as_deref(), Some("g1"));
                assert!(instances[1].name.is_none());
                assert_eq!(instances[0].terminals.len(), 3);
            }
            other => panic!("expected gate inst, got {other:?}"),
        }
    }

    #[test]
    fn delay_triple() {
        let unit =
            parse("module m(o); output o; wire a; buf #(1,2,3) b1 (o, a); endmodule").unwrap();
        match &unit.modules[0].items[2] {
            Item::GateInst { delay, .. } => assert_eq!(*delay, Some(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn module_instantiation_named_and_positional() {
        let unit = parse(
            "module top(x); output x; wire p, q;\n sub s0 (.a(p), .b(), .y(x));\n sub s1 (p, q, x);\nendmodule\nmodule sub(a,b,y); input a,b; output y; endmodule",
        )
        .unwrap();
        let top = &unit.modules[0];
        match &top.items[2] {
            Item::ModuleInst {
                module, instances, ..
            } => {
                assert_eq!(module, "sub");
                match &instances[0].connections {
                    Connections::Named(c) => {
                        assert_eq!(c.len(), 3);
                        assert_eq!(c[0].0, "a");
                        assert!(c[1].1.is_none());
                    }
                    _ => panic!("expected named"),
                }
            }
            other => panic!("{other:?}"),
        }
        match &top.items[3] {
            Item::ModuleInst { instances, .. } => match &instances[0].connections {
                Connections::Positional(c) => assert_eq!(c.len(), 3),
                _ => panic!("expected positional"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn positional_with_hole() {
        let unit = parse(
            "module top; wire p, x; sub s1 (p, , x); endmodule\nmodule sub(a,b,y); input a,b; output y; endmodule",
        )
        .unwrap();
        match &unit.modules[0].items[1] {
            Item::ModuleInst { instances, .. } => match &instances[0].connections {
                Connections::Positional(c) => {
                    assert_eq!(c.len(), 3);
                    assert!(c[1].is_none());
                }
                _ => panic!(),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assign_with_concat() {
        let unit = parse(
            "module m(y); output [2:0] y; wire a; wire [1:0] b;\n assign y = {a, b[1:0]};\nendmodule",
        )
        .unwrap();
        match &unit.modules[0].items[3] {
            Item::Assign { lhs, rhs, .. } => {
                assert_eq!(*lhs, Expr::Ident("y".into()));
                match rhs {
                    Expr::Concat(parts) => assert_eq!(parts.len(), 2),
                    _ => panic!("expected concat"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_location() {
        let err = parse("module m(; endmodule").unwrap_err();
        assert!(err.loc().is_some());
        let err = parse("module m; wire; endmodule").unwrap_err();
        assert!(err.to_string().contains("identifier"));
    }

    #[test]
    fn truncated_module_is_error() {
        assert!(parse("module m; wire a;").is_err());
    }

    #[test]
    fn garbage_toplevel_is_error() {
        assert!(parse("wire a;").is_err());
    }

    #[test]
    fn multiple_modules() {
        let unit = parse("module a; endmodule module b; endmodule").unwrap();
        assert_eq!(unit.modules.len(), 2);
        assert!(unit.module("a").is_some());
        assert!(unit.module("b").is_some());
    }

    #[test]
    fn dff_and_latch_primitives() {
        let unit = parse(
            "module m(q); output q; wire clk, d, en, l;\n dff f1 (q, clk, d);\n latch l1 (l, en, d);\nendmodule",
        )
        .unwrap();
        let gates: Vec<_> = unit.modules[0]
            .items
            .iter()
            .filter_map(|i| match i {
                Item::GateInst { prim, .. } => Some(*prim),
                _ => None,
            })
            .collect();
        assert_eq!(gates, vec![GateKind::Dff, GateKind::Latch]);
    }
}
