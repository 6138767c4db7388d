//! Variable and literal newtypes.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered densely from zero.
///
/// Variables are created with [`crate::Solver::new_var`]; constructing one by
/// index is only meaningful against the solver that allocated it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its dense index.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        debug_assert!(index < u32::MAX as usize / 2);
        Var(index as u32)
    }

    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `2 * var + (positive ? 0 : 1)` so literals index watcher lists
/// directly. The layout is `repr(transparent)` over `u32`, which the clause
/// arena relies on to reinterpret its storage as literal slices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal over `var` with the given polarity.
    #[inline]
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// Reconstructs a literal from its dense code (see [`Lit::code`]).
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// The dense code of this literal, usable as an array index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal of its variable.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.0 >> 1)
        } else {
            write!(f, "!v{}", self.0 >> 1)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Three-valued assignment state of a variable or literal.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Lbool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Unassigned.
    #[default]
    Undef,
}

impl Lbool {
    /// Whether the value is defined (not `Undef`).
    #[inline]
    pub fn is_defined(self) -> bool {
        self != Lbool::Undef
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_roundtrip() {
        let v = Var::from_index(7);
        let p = v.positive();
        let n = v.negative();
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::from_code(p.code()), p);
    }

    #[test]
    fn lit_codes_are_dense() {
        let v0 = Var::from_index(0);
        let v1 = Var::from_index(1);
        assert_eq!(v0.positive().code(), 0);
        assert_eq!(v0.negative().code(), 1);
        assert_eq!(v1.positive().code(), 2);
        assert_eq!(v1.negative().code(), 3);
    }

    #[test]
    fn lbool_is_defined() {
        assert!(Lbool::True.is_defined());
        assert!(!Lbool::Undef.is_defined());
    }
}
