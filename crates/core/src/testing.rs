//! Test-only failure-injection hooks.
//!
//! These exist solely for the `spread-check` conformance harness's
//! *canaries* — deliberately broken runtime behaviors that prove the
//! harness catches real bugs. They are not part of the directive API:
//! the module is `#[doc(hidden)]` and nothing in this workspace outside
//! spread-check may use it.

use crate::target_spread::TargetSpread;

/// A deliberately broken runtime behavior a [`TargetSpread`] can carry.
/// The harness arms at most one per run, so the builder keeps one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Canary {
    /// Drop the staged writes of the last slice of every spilled piece.
    DropLastSpillSlice,
    /// Let the losing copy of every straggler rescue commit anyway.
    RescueDoubleCommit,
    /// Commit one staged sub-slice of every pipelined piece early.
    OverlapLeak,
}

/// Injection hooks on [`TargetSpread`], importable only by spelling out
/// `spread_core::testing::TargetSpreadTestingExt`.
pub trait TargetSpreadTestingExt {
    /// Silently drop the staged writes of the last slice of every
    /// spilled piece — the `--inject spill` canary. Never use outside
    /// the harness.
    fn inject_drop_last_spill_slice(self) -> Self;

    /// Let the *losing* copy of every straggler rescue commit its
    /// staged writes anyway (first element perturbed) — the
    /// `--inject rescue` canary proving the harness catches a broken
    /// first-commit-wins gate. Never use outside the harness.
    fn inject_rescue_double_commit(self) -> Self;

    /// Commit one staged sub-slice of every pipelined piece *early*
    /// (first element perturbed), before the whole-piece commit point —
    /// the `--inject overlap` canary proving the harness catches a
    /// pipeline that leaks partial results. Never use outside the
    /// harness.
    fn inject_overlap_leak(self) -> Self;
}

impl TargetSpreadTestingExt for TargetSpread {
    fn inject_drop_last_spill_slice(self) -> Self {
        self.arm(Canary::DropLastSpillSlice)
    }

    fn inject_rescue_double_commit(self) -> Self {
        self.arm(Canary::RescueDoubleCommit)
    }

    fn inject_overlap_leak(self) -> Self {
        self.arm(Canary::OverlapLeak)
    }
}
