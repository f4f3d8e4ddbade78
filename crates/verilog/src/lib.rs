//! # dvs-verilog
//!
//! A from-scratch front end for the structural, gate-level Verilog subset
//! produced by logic synthesis, as consumed by the partitioning algorithm of
//! Li & Tropper, *A Multiway Partitioning Algorithm for Parallel Gate Level
//! Verilog Simulation* (ICPP 2008).
//!
//! The pipeline is:
//!
//! ```text
//! source text --lexer--> tokens --parser--> AST --elaborate--> Design
//!                                                  (bit-blasted Netlist:
//!                                                   flat gates + hierarchy tree)
//! ```
//!
//! ## Supported language subset
//!
//! * `module` / `endmodule` with ordered or `.name(expr)` port connections
//! * `input`, `output`, `inout`, `wire`, `reg` declarations, with vector
//!   ranges `[msb:lsb]` (bit-blasted during elaboration)
//! * primitive gate instantiations: `and`, `or`, `nand`, `nor`, `xor`,
//!   `xnor`, `buf`, `not`, plus the sequential extension primitives `dff`
//!   (positive-edge D flip-flop, terminals `(q, clk, d)`), `dffr` (with
//!   asynchronous active-high reset, terminals `(q, clk, rst, d)`) and
//!   `latch` (level-sensitive, terminals `(q, en, d)`) that synthesized
//!   netlists map library cells onto
//! * hierarchical module instantiation
//! * continuous assignment `assign lhs = rhs;` where `rhs` is an identifier,
//!   bit/part select, literal or concatenation (elaborated to `buf` gates)
//! * delays `#n` on gate instances (parsed, recorded, ignored by unit-delay
//!   simulation), `` `timescale `` and other directives (skipped), both
//!   comment forms
//!
//! Everything outside this subset is a hard parse/elaboration error with a
//! line/column diagnostic: the goal is strict, predictable handling of
//! synthesized netlists, not general-purpose Verilog.
//!
//! ## Quickstart
//!
//! ```
//! use dvs_verilog::parse_and_elaborate;
//!
//! let src = r#"
//! module half_adder(a, b, sum, carry);
//!   input a, b; output sum, carry;
//!   xor x1 (sum, a, b);
//!   and a1 (carry, a, b);
//! endmodule
//! "#;
//! let design = parse_and_elaborate(src).unwrap();
//! let netlist = design.netlist();
//! assert_eq!(netlist.gate_count(), 2);
//! assert_eq!(netlist.primary_inputs.len(), 2);
//! ```

pub mod artifact;
pub mod ast;
pub mod design;
pub mod error;
pub mod flatten;
pub mod lexer;
pub mod netlist;
pub mod parser;
pub mod stats;
pub mod token;

pub use ast::SourceUnit;
pub use design::{Design, ElabOptions};
pub use error::{Error, Result};
pub use netlist::{Gate, GateKind, InstId, Net, NetId, Netlist};

/// Parse Verilog source text into an AST.
pub fn parse(src: &str) -> Result<SourceUnit> {
    parser::Parser::new(src)?.parse_source_unit()
}

/// Parse and elaborate in one step, using the module named `top` if present,
/// otherwise the unique uninstantiated module.
pub fn parse_and_elaborate(src: &str) -> Result<Design> {
    let unit = parse(src)?;
    design::elaborate(&unit, &ElabOptions::default())
}

/// Parse and elaborate with an explicit top module name.
pub fn parse_and_elaborate_top(src: &str, top: &str) -> Result<Design> {
    let unit = parse(src)?;
    design::elaborate(
        &unit,
        &ElabOptions {
            top: Some(top.to_string()),
        },
    )
}
