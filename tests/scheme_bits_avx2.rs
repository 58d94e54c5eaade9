//! Every orthogonalization kind's output, pinned to the bit under the AVX2
//! kernels.
//!
//! The cases are stated once in `tests/common/bits.rs`; this binary holds
//! the AVX2 level and its expected hashes.  The kernels run capped at
//! `SimdLevel::Avx2`, the level the tiled and ragged vector bodies run at,
//! so a kernel change that claims to keep the bits is checked where it
//! runs.  An AVX-512 host runs its AVX2 bodies under the cap and AVX-512
//! gives AVX2's bits anyway (`tests/simd_levels.rs`).  On a host without
//! AVX2 and FMA every test skips with a message.
//!
//! The override is process-global, which is why these tests have a
//! binary of their own; every test sets the same level.

mod common;

use common::bits;
use dense::SimdLevel;

/// Cap the kernels at AVX2; `false` (after saying so) when the host
/// lacks it.
fn avx2() -> bool {
    dense::set_simd_override(Some(SimdLevel::Avx2));
    let level = dense::simd_level();
    if level != SimdLevel::Avx2 {
        eprintln!("skipped: the host runs {level:?} kernels, not AVX2 + FMA");
    }
    level == SimdLevel::Avx2
}

#[test]
fn solver_fed_panels_keep_their_bits() {
    if !avx2() {
        return;
    }
    bits::solver_fed_panels([
        [
            0xbd966a679eec8bc6,
            0x5fac13714b383e93,
            0xa1e2ab14ad8eaa20,
            0x98501fe74c97e68b,
            0x4426297faf90d04d,
            0xa7dcac77aa860af8,
            0xf20490fa7e076c97,
        ],
        [
            0xb572daca350a7a42,
            0x0f87f0f2af50daf3,
            0x76b45dec7f7a26c4,
            0xf568dc2482bece1c,
            0x44d5fb667525a510,
            0xe0c97eadfb6720f2,
            0x1c6aaea19936024c,
        ],
    ]);
}

#[test]
fn ill_conditioned_panels_keep_their_outcome() {
    if !avx2() {
        return;
    }
    bits::ill_conditioned_panels([
        [
            0xe12eee1e86c4c953,
            0x9e7099d9c14230c8,
            0x2aca9d72874b2590,
            0xb760af8c53a070ba,
            0x24b02b3653417e77,
            0x5f07eb58040693ff,
            0x9d41bc5230886461,
        ],
        [
            0x9eff53a6f53686f7,
            0x8f923900920d186c,
            0xc623119e2b5198a3,
            0xdd4f3d33f9fea778,
            0xac85db60a422ce6e,
            0xeed7a851a265f8a3,
            0x3cfc62adbc2211d4,
        ],
        [
            0x8316af303fb73e03,
            0xdba8ab6ea6e7660a,
            0x6802af076cf05ad2,
            0x7a289df76dfb3b78,
            0x734818924948280b,
            0x36f9c8f47039806c,
            0xd44b9410944149f8,
        ],
        [
            0xa97c824a7073f657,
            0xccca4a9577b24dae,
            0xc762cc12c4a26ce1,
            0xd6d68bca4ff7f43a,
            0xc8d86fcdfeccef09,
            0x6a324ffd49daffde,
            0x78cb49ddf6c883c9,
        ],
        [
            0x576e741a3b47c5e7,
            0xe0416d6c1b274f52,
            0xc23e760f8f83f8e7,
            0x56ce262ad5d6183c,
            0x39efb2dca441959d,
            0xb4e153b04b44be08,
            0xa3adb0bca62e708d,
        ],
    ]);
}

#[test]
fn one_serial_solve_keeps_its_bits() {
    if !avx2() {
        return;
    }
    bits::serial_solve([
        0x3d54e52a74a44af7,
        0xf995569a2e547252,
        0x4b0ba35fcf34ace2,
        0xfa4a763b526a11d0,
        0xab4a03754eefb5db,
        0x114925473d570563,
        0x58a48344aa42d857,
    ]);
}

#[test]
fn one_standard_gmres_solve_keeps_its_bits() {
    if !avx2() {
        return;
    }
    bits::standard_gmres_solve(0x92e2472877918d31);
}

#[test]
fn one_block_solve_of_two_right_hand_sides_keeps_its_bits() {
    if !avx2() {
        return;
    }
    bits::block_solve_of_two([
        0x13a85d899e292d0c,
        0xfe00cc02c3703194,
        0x7a9b673e933c9004,
        0xa721e7235669ee86,
        0xd4d4dceca9f278ec,
        0x2706c10081a7215e,
        0xc6cb9b214d28a634,
    ]);
}
