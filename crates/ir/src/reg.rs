//! Physical registers and the calling convention the post-pass tool assumes.

use std::fmt;

/// A physical general-purpose register, `r0`..`r127`.
///
/// The research Itanium models in the paper give each hardware thread
/// context 128 integer registers; like the paper's tool we analyse machine
/// code over physical registers rather than SSA values.
///
/// `r0` always reads as zero and writes to it are discarded, matching the
/// Itanium convention.
///
/// # Example
///
/// ```
/// use ssp_ir::Reg;
/// let r = Reg(42);
/// assert_eq!(r.index(), 42);
/// assert_eq!(format!("{r}"), "r42");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Reg(pub u16);

/// Number of architected general registers per hardware thread context.
pub const NUM_REGS: usize = 128;

impl Reg {
    /// The register's index within the 128-entry file.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hardwired-zero register `r0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The calling convention: fixed roles for particular registers.
///
/// Modeled loosely on the Itanium software conventions, flattened (no
/// register-stack rotation): arguments arrive in `r32..r32+n`, the return
/// value in `r8`, the stack pointer lives in `r12`. Calls clobber the
/// *scratch* range and preserve the *callee-saved* range; the dependence
/// analyses in [`crate::dataflow`] model exactly these effects.
pub mod conv {
    use super::Reg;

    /// Hardwired zero.
    pub const ZERO: Reg = Reg(0);
    /// Return value register.
    pub const RV: Reg = Reg(8);
    /// Live-in-buffer slot handle, set by `spawn` in a freshly spawned
    /// speculative thread (the only register a child starts with).
    pub const SLOT: Reg = Reg(9);
    /// Stack pointer.
    pub const SP: Reg = Reg(12);
    /// First argument register; arguments are `ARG0..ARG0+MAX_ARGS`.
    pub const ARG0: Reg = Reg(32);
    /// Maximum number of register arguments.
    pub const MAX_ARGS: u16 = 8;

    /// The `i`-th argument register.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_ARGS`.
    pub fn arg(i: u16) -> Reg {
        assert!(i < MAX_ARGS, "argument register index {i} out of range");
        Reg(ARG0.0 + i)
    }

    /// Whether `r` is clobbered by a call (caller-saved / scratch).
    ///
    /// Scratch registers are `r2..r63` (including the return-value and
    /// argument registers). `r64..r127` are preserved across calls; `r0`
    /// is hardwired and `r12` (SP) is preserved by convention.
    pub fn is_scratch(r: Reg) -> bool {
        let i = r.0;
        (2..64).contains(&i) && r != SP
    }

    /// Registers defined (clobbered) by a call instruction, from the
    /// caller's point of view.
    pub fn call_defs() -> impl Iterator<Item = Reg> {
        (0u16..64).map(Reg).filter(|&r| is_scratch(r))
    }

    /// Registers used by a call that passes `nargs` register arguments.
    pub fn call_uses(nargs: u16) -> impl Iterator<Item = Reg> {
        assert!(nargs <= MAX_ARGS, "too many register arguments: {nargs}");
        (0..nargs).map(arg).chain(std::iter::once(SP))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register() {
        assert!(Reg(0).is_zero());
        assert!(!Reg(1).is_zero());
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Reg(0).to_string(), "r0");
        assert_eq!(Reg(127).to_string(), "r127");
    }

    #[test]
    fn scratch_and_callee_saved_partition() {
        // r0 is hardwired, so neither; every other register is scratch
        // (r2..r63 but SP) or callee-saved (r1, SP, r64..r127).
        assert!(!conv::is_scratch(conv::ZERO));
        for r in [Reg(2), conv::RV, conv::SLOT, conv::arg(0), Reg(63)] {
            assert!(conv::is_scratch(r), "register {r} must be scratch");
        }
        for r in [Reg(1), conv::SP, Reg(64), Reg(NUM_REGS as u16 - 1)] {
            assert!(!conv::is_scratch(r), "register {r} must be callee-saved");
        }
        let scratch = (0..NUM_REGS as u16).filter(|&i| conv::is_scratch(Reg(i))).count();
        assert_eq!(scratch, 61, "r2..r63 without SP");
    }

    #[test]
    fn sp_is_preserved() {
        assert!(!conv::is_scratch(conv::SP));
        assert!(!conv::call_defs().any(|r| r == conv::SP));
    }

    #[test]
    fn arg_registers_are_scratch() {
        for i in 0..conv::MAX_ARGS {
            assert!(conv::is_scratch(conv::arg(i)));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arg_out_of_range_panics() {
        conv::arg(conv::MAX_ARGS);
    }

    #[test]
    fn call_uses_includes_sp() {
        let uses: Vec<Reg> = conv::call_uses(2).collect();
        assert!(uses.contains(&conv::SP));
        assert!(uses.contains(&conv::arg(0)));
        assert!(uses.contains(&conv::arg(1)));
        assert!(!uses.contains(&conv::arg(2)));
    }
}
