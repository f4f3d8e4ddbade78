//! Abstract syntax tree for the gate-level Verilog subset.
//!
//! The AST is a faithful, unresolved representation of the source: names are
//! strings, vector ranges are as written, and no bit-blasting has happened.
//! [`crate::design::elaborate`] turns a [`SourceUnit`] into a resolved
//! [`crate::design::Design`].

use crate::error::Loc;
use crate::netlist::GateKind;

/// A parsed source file: an ordered list of module declarations.
#[derive(Debug, Clone, Default)]
pub struct SourceUnit {
    pub modules: Vec<ModuleDecl>,
}

impl SourceUnit {
    /// Find a module declaration by name.
    pub fn module(&self, name: &str) -> Option<&ModuleDecl> {
        self.modules.iter().find(|m| m.name == name)
    }
}

/// `module name(port, ...); items endmodule`
#[derive(Debug, Clone)]
pub struct ModuleDecl {
    pub name: String,
    /// Port names in header order. Directions/widths come from the matching
    /// `input`/`output`/`inout` declarations in the body.
    pub ports: Vec<String>,
    pub items: Vec<Item>,
    pub loc: Loc,
}

/// Direction of a declared port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Input,
    Output,
    Inout,
}

/// Net/variable kinds we track. `reg` behaves like `wire` in a structural
/// netlist; `supply0`/`supply1` are constant-driven nets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    Wire,
    Reg,
    Supply0,
    Supply1,
}

/// A vector range `[msb:lsb]`. Both ascending and descending ranges are
/// allowed; `width = |msb - lsb| + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    pub msb: u32,
    pub lsb: u32,
}

impl Range {
    pub fn width(&self) -> u32 {
        self.msb.abs_diff(self.lsb) + 1
    }

    /// Iterate bit indices from LSB to MSB.
    pub fn bits_lsb_first(&self) -> Box<dyn Iterator<Item = u32>> {
        if self.msb >= self.lsb {
            Box::new(self.lsb..=self.msb)
        } else {
            Box::new((self.msb..=self.lsb).rev())
        }
    }

    /// Offset of bit index `idx` from the LSB end, if `idx` is in range.
    pub fn offset_of(&self, idx: u32) -> Option<u32> {
        let (lo, hi) = if self.msb >= self.lsb {
            (self.lsb, self.msb)
        } else {
            (self.msb, self.lsb)
        };
        if idx < lo || idx > hi {
            return None;
        }
        Some(if self.msb >= self.lsb {
            idx - self.lsb
        } else {
            self.lsb - idx
        })
    }
}

/// A body item of a module.
#[derive(Debug, Clone)]
pub enum Item {
    /// `input [3:0] a, b;` — port direction declaration.
    PortDecl {
        direction: Direction,
        range: Option<Range>,
        names: Vec<String>,
        loc: Loc,
    },
    /// `wire [3:0] n1, n2;`
    NetDecl {
        kind: NetKind,
        range: Option<Range>,
        names: Vec<String>,
        loc: Loc,
    },
    /// `and #1 g1 (o, a, b), g2 (o2, c, d);`
    GateInst {
        prim: GateKind,
        delay: Option<u64>,
        instances: Vec<GateInstance>,
        loc: Loc,
    },
    /// `viterbi_acs acs0 (.q(q), .d(d));` or positional.
    ModuleInst {
        module: String,
        instances: Vec<ModuleInstance>,
        loc: Loc,
    },
    /// `assign lhs = rhs;`
    Assign { lhs: Expr, rhs: Expr, loc: Loc },
}

/// One instance within a gate instantiation statement: optional name plus
/// terminal expressions (output(s) first, per the Verilog primitive rules).
#[derive(Debug, Clone)]
pub struct GateInstance {
    pub name: Option<String>,
    pub terminals: Vec<Expr>,
    pub loc: Loc,
}

/// One instance within a module instantiation statement.
#[derive(Debug, Clone)]
pub struct ModuleInstance {
    pub name: String,
    pub connections: Connections,
    pub loc: Loc,
}

/// Port connections: positional or named. Named connections may omit ports
/// (left unconnected); positional connections must match the port count.
#[derive(Debug, Clone)]
pub enum Connections {
    Positional(Vec<Option<Expr>>),
    Named(Vec<(String, Option<Expr>)>),
}

impl Connections {
    pub fn len(&self) -> usize {
        match self {
            Connections::Positional(v) => v.len(),
            Connections::Named(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An expression in a terminal/connection position.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `a`
    Ident(String),
    /// `a[3]`
    BitSelect(String, u32),
    /// `a[7:4]`
    PartSelect(String, Range),
    /// `4'b1010`
    Literal { width: u32, bits: u64 },
    /// `{a, b[2:0], 1'b0}` — MSB-first, as written.
    Concat(Vec<Expr>),
}

impl Expr {
    /// Textual rendering (used by the writer and error messages).
    pub fn display(&self) -> String {
        match self {
            Expr::Ident(n) => n.clone(),
            Expr::BitSelect(n, i) => format!("{n}[{i}]"),
            Expr::PartSelect(n, r) => format!("{n}[{}:{}]", r.msb, r.lsb),
            Expr::Literal { width, bits } => format!("{width}'d{bits}"),
            Expr::Concat(es) => {
                let inner: Vec<String> = es.iter().map(|e| e.display()).collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_width_and_iteration() {
        let r = Range { msb: 7, lsb: 4 };
        assert_eq!(r.width(), 4);
        assert_eq!(r.bits_lsb_first().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        let asc = Range { msb: 0, lsb: 3 };
        assert_eq!(asc.width(), 4);
        assert_eq!(asc.bits_lsb_first().collect::<Vec<_>>(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn range_offsets() {
        let r = Range { msb: 7, lsb: 4 };
        assert_eq!(r.offset_of(4), Some(0));
        assert_eq!(r.offset_of(7), Some(3));
        assert_eq!(r.offset_of(3), None);
        assert_eq!(r.offset_of(8), None);
        let asc = Range { msb: 2, lsb: 5 };
        assert_eq!(asc.offset_of(5), Some(0));
        assert_eq!(asc.offset_of(2), Some(3));
    }

    #[test]
    fn expr_display() {
        let e = Expr::Concat(vec![
            Expr::Ident("a".into()),
            Expr::BitSelect("b".into(), 2),
            Expr::PartSelect("c".into(), Range { msb: 3, lsb: 0 }),
            Expr::Literal { width: 1, bits: 0 },
        ]);
        assert_eq!(e.display(), "{a, b[2], c[3:0], 1'd0}");
    }

    #[test]
    fn source_unit_lookup() {
        let mut unit = SourceUnit::default();
        unit.modules.push(ModuleDecl {
            name: "top".into(),
            ports: vec![],
            items: vec![],
            loc: Loc::default(),
        });
        assert!(unit.module("top").is_some());
        assert!(unit.module("missing").is_none());
    }
}
