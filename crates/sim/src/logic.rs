//! Four-valued logic and primitive gate evaluation.
//!
//! Values follow IEEE 1364 semantics for the gate primitives we support:
//! `0`, `1`, `X` (unknown) and `Z` (high impedance; treated as `X` at gate
//! inputs, as Verilog gates do).

use dvs_verilog::netlist::GateKind;

/// A four-valued logic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum Logic {
    Zero = 0,
    One = 1,
    #[default]
    X = 2,
    Z = 3,
}

impl Logic {
    /// Parse from a bit.
    #[inline]
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// `Z` reads as `X` at a gate input.
    #[inline]
    pub fn input(self) -> Logic {
        if self == Logic::Z {
            Logic::X
        } else {
            self
        }
    }

    /// Kleene NOT. (Deliberately an inherent method, not `std::ops::Not`:
    /// four-valued negation is a domain operation, and `!x` syntax would
    /// suggest boolean semantics.)
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn not(self) -> Logic {
        match self.input() {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Kleene AND: 0 dominates.
    #[inline]
    pub fn and(self, rhs: Logic) -> Logic {
        match (self.input(), rhs.input()) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Kleene OR: 1 dominates.
    #[inline]
    pub fn or(self, rhs: Logic) -> Logic {
        match (self.input(), rhs.input()) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Kleene XOR: any X poisons.
    #[inline]
    pub fn xor(self, rhs: Logic) -> Logic {
        match (self.input(), rhs.input()) {
            (Logic::Zero, Logic::Zero) | (Logic::One, Logic::One) => Logic::Zero,
            (Logic::Zero, Logic::One) | (Logic::One, Logic::Zero) => Logic::One,
            _ => Logic::X,
        }
    }

    pub fn display_char(self) -> char {
        match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }

    /// Inverse of [`Logic::display_char`] — used when deserializing value
    /// vectors from artifacts. Case-insensitive for `x`/`z`.
    pub fn from_display_char(c: char) -> Option<Logic> {
        match c {
            '0' => Some(Logic::Zero),
            '1' => Some(Logic::One),
            'x' | 'X' => Some(Logic::X),
            'z' | 'Z' => Some(Logic::Z),
            _ => None,
        }
    }
}

impl std::fmt::Display for Logic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display_char())
    }
}

/// Evaluate a *combinational* gate over its input values. `Dff`/`Latch` are
/// sequential and handled by the simulator kernels (they need edge and
/// enable context); calling this on them is a logic error.
pub fn eval_combinational(kind: GateKind, inputs: &[Logic]) -> Logic {
    match kind {
        GateKind::And => inputs.iter().copied().fold(Logic::One, Logic::and),
        GateKind::Nand => inputs.iter().copied().fold(Logic::One, Logic::and).not(),
        GateKind::Or => inputs.iter().copied().fold(Logic::Zero, Logic::or),
        GateKind::Nor => inputs.iter().copied().fold(Logic::Zero, Logic::or).not(),
        GateKind::Xor => inputs.iter().copied().fold(Logic::Zero, Logic::xor),
        GateKind::Xnor => inputs.iter().copied().fold(Logic::Zero, Logic::xor).not(),
        GateKind::Buf => inputs[0].input(),
        GateKind::Not => inputs[0].not(),
        GateKind::Const0 => Logic::Zero,
        GateKind::Const1 => Logic::One,
        GateKind::Dff | GateKind::Dffr | GateKind::Latch => {
            unreachable!("sequential primitives are evaluated by the kernel")
        }
    }
}

/// Is `old -> new` a positive clock edge? Verilog's posedge includes
/// `0→1`, `0→X`, `X→1`; we use the common gate-level simplification that an
/// edge is only recognized when the new value is a solid `1` and the old was
/// not.
#[inline]
pub fn is_posedge(old: Logic, new: Logic) -> bool {
    new == Logic::One && old != Logic::One
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    #[test]
    fn not_truth_table() {
        assert_eq!(Logic::Zero.not(), Logic::One);
        assert_eq!(Logic::One.not(), Logic::Zero);
        assert_eq!(Logic::X.not(), Logic::X);
        assert_eq!(Logic::Z.not(), Logic::X);
    }

    #[test]
    fn and_dominance() {
        for v in ALL {
            assert_eq!(Logic::Zero.and(v), Logic::Zero);
            assert_eq!(v.and(Logic::Zero), Logic::Zero);
        }
        assert_eq!(Logic::One.and(Logic::One), Logic::One);
        assert_eq!(Logic::One.and(Logic::X), Logic::X);
        assert_eq!(Logic::Z.and(Logic::One), Logic::X);
    }

    #[test]
    fn or_dominance() {
        for v in ALL {
            assert_eq!(Logic::One.or(v), Logic::One);
            assert_eq!(v.or(Logic::One), Logic::One);
        }
        assert_eq!(Logic::Zero.or(Logic::Zero), Logic::Zero);
        assert_eq!(Logic::Zero.or(Logic::X), Logic::X);
    }

    #[test]
    fn xor_poisoning() {
        assert_eq!(Logic::One.xor(Logic::Zero), Logic::One);
        assert_eq!(Logic::One.xor(Logic::One), Logic::Zero);
        assert_eq!(Logic::One.xor(Logic::X), Logic::X);
        assert_eq!(Logic::Z.xor(Logic::Zero), Logic::X);
    }

    #[test]
    fn gate_eval_matches_two_valued_semantics() {
        use GateKind::*;
        let t = Logic::One;
        let f = Logic::Zero;
        assert_eq!(eval_combinational(And, &[t, t, t]), t);
        assert_eq!(eval_combinational(And, &[t, f, t]), f);
        assert_eq!(eval_combinational(Nand, &[t, t]), f);
        assert_eq!(eval_combinational(Or, &[f, f]), f);
        assert_eq!(eval_combinational(Or, &[f, t]), t);
        assert_eq!(eval_combinational(Nor, &[f, f]), t);
        assert_eq!(eval_combinational(Xor, &[t, t, t]), t);
        assert_eq!(eval_combinational(Xor, &[t, t]), f);
        assert_eq!(eval_combinational(Xnor, &[t, f]), f);
        assert_eq!(eval_combinational(Buf, &[f]), f);
        assert_eq!(eval_combinational(Not, &[f]), t);
        assert_eq!(eval_combinational(Const0, &[]), f);
        assert_eq!(eval_combinational(Const1, &[]), t);
    }

    #[test]
    fn demorgan_holds_for_all_values() {
        // not(a and b) == not(a) or not(b) across the whole lattice.
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b).not(), a.not().or(b.not()));
                assert_eq!(a.or(b).not(), a.not().and(b.not()));
            }
        }
    }

    #[test]
    fn posedge_detection() {
        assert!(is_posedge(Logic::Zero, Logic::One));
        assert!(is_posedge(Logic::X, Logic::One));
        assert!(!is_posedge(Logic::One, Logic::One));
        assert!(!is_posedge(Logic::One, Logic::Zero));
        assert!(!is_posedge(Logic::Zero, Logic::X));
    }

    #[test]
    fn display() {
        assert_eq!(Logic::Zero.to_string(), "0");
        assert_eq!(Logic::X.to_string(), "x");
    }
}
