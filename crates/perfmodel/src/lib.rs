//! # perfmodel — a shim kept for `benchmark/` only
//!
//! Each scheme's all-reduce schedule lives next to the code that issues it:
//! [`OrthoKind::reduce_schedule`] lists the words of every all-reduce one
//! restart cycle issues, and `tests/comm_volume_validation.rs` at the
//! repository root pins it against measured `CommStats`.  The frozen
//! benchmark still compiles against the two names below, so they stay —
//! each value names its `OrthoKind` in one line and the count is that
//! schedule's length — until the benchmark moves to `reduce_schedule`,
//! after which the crate goes.

#![forbid(unsafe_code)]

use blockortho::OrthoKind;

/// The four schemes the benchmark replays, by their old names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// [`OrthoKind::Cgs2`].
    StandardCgs2,
    /// [`OrthoKind::Bcgs2CholQr2`].
    Bcgs2CholQr2,
    /// [`OrthoKind::BcgsPip2`].
    BcgsPip2,
    /// [`OrthoKind::TwoStage`] with `big_panel = bs`.
    TwoStage {
        /// Second-stage block size.
        bs: usize,
    },
}

/// All-reduces of one `k`-wide restart cycle of `m` block steps with step
/// size `s`: the length of [`OrthoKind::reduce_schedule`].
pub fn block_ortho_reduce_count(scheme: SchemeKind, m: usize, s: usize, k: usize) -> usize {
    let kind = match scheme {
        SchemeKind::StandardCgs2 => OrthoKind::Cgs2,
        SchemeKind::Bcgs2CholQr2 => OrthoKind::Bcgs2CholQr2,
        SchemeKind::BcgsPip2 => OrthoKind::BcgsPip2,
        SchemeKind::TwoStage { bs } => OrthoKind::TwoStage { big_panel: bs },
    };
    kind.reduce_schedule(m, s, k).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_shim_value_is_the_length_of_its_schedule() {
        for (scheme, kind) in [
            (SchemeKind::StandardCgs2, OrthoKind::Cgs2),
            (SchemeKind::Bcgs2CholQr2, OrthoKind::Bcgs2CholQr2),
            (SchemeKind::BcgsPip2, OrthoKind::BcgsPip2),
            (
                SchemeKind::TwoStage { bs: 20 },
                OrthoKind::TwoStage { big_panel: 20 },
            ),
        ] {
            for m in [20, 60, 57] {
                for s in [1, 5] {
                    for k in [1, 4] {
                        assert_eq!(
                            block_ortho_reduce_count(scheme, m, s, k),
                            kind.reduce_schedule(m, s, k).len(),
                            "{scheme:?} m={m} s={s} k={k}"
                        );
                    }
                }
            }
        }
    }
}
