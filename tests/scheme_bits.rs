//! Every orthogonalization kind's output, pinned to the bit under the
//! scalar kernels.
//!
//! The cases are stated once in `tests/common/bits.rs`; this binary holds
//! the scalar level and its expected hashes.  At the scalar level the
//! hashes do not depend on the host.  The override is process-global,
//! which is why these tests have a binary of their own; every test sets
//! the same level.

mod common;

use common::bits;
use dense::SimdLevel;

fn scalar() {
    dense::set_simd_override(Some(SimdLevel::Scalar));
}

#[test]
fn solver_fed_panels_keep_their_bits() {
    scalar();
    bits::solver_fed_panels([
        [
            0xa4651237af44aa6a,
            0x7c8076def7076487,
            0xeecf5122bb701ef4,
            0x9b39af30a6ae8aab,
            0xb1567f5ad9b7d81d,
            0x801476810887059c,
            0x7796d740f6557f84,
        ],
        [
            0xfa06cead0aea49c2,
            0x00a498c50a3135bb,
            0xabb9ae61aef8d4a0,
            0xc35770dec7acc8a0,
            0xcec7046dd68bed7b,
            0x478f5700a0f3d43e,
            0xc651d338a2e6de9d,
        ],
    ]);
}

#[test]
fn ill_conditioned_panels_keep_their_outcome() {
    scalar();
    bits::ill_conditioned_panels([
        [
            0x815aea3d0583d7cb,
            0xe3e635659cfb4769,
            0x704038fe63043c31,
            0x507cd7c6b43946db,
            0x16f8360bf9924ef7,
            0xd1dcd101d60094cf,
            0x6ec8f5b47a1ccfa0,
        ],
        [
            0xa115fe3adbe454f7,
            0x8f923900920d186c,
            0x22ea23db5558b8bf,
            0xc82413d4c6d916c1,
            0xde4c8413983512e8,
            0x5fd8353794e8e11f,
            0x00fdc0cb9876208f,
        ],
        [
            0xb973c373f8affacb,
            0x211e46fa82a07cab,
            0xad784a9348a97173,
            0x1344c631ce941199,
            0xe88cf6f2c9e86b94,
            0xd28fe9dd87f42d0e,
            0xb2a74d267e26917b,
        ],
        [
            0xedffb622400c3157,
            0xccca4a9577b24dae,
            0xf178b789028c4280,
            0x6ff2b404b090ca5b,
            0xc8d86fcdfeccef09,
            0xf9eae84a683c4042,
            0xb98f302189f002b6,
        ],
        [
            0x1752990c3d5f1f27,
            0xe27492748e3fb0e2,
            0xc23e760f8f83f8e7,
            0xe503cf50febca3c5,
            0xf8696165b2067fd3,
            0x016ef2b2be7117b0,
            0x10878e78cb2bab34,
        ],
    ]);
}

#[test]
fn one_serial_solve_keeps_its_bits() {
    scalar();
    bits::serial_solve([
        0x2f9c68627810ee80,
        0x808339ada919d54d,
        0xaaaebe1c39357e75,
        0x56ba55ca5394013d,
        0x2c55ef88776eb57d,
        0x59b1abe461cb0caf,
        0xb9fd61042ca77a8f,
    ]);
}

#[test]
fn one_standard_gmres_solve_keeps_its_bits() {
    scalar();
    bits::standard_gmres_solve(0x2f4a887937aab692);
}

#[test]
fn one_block_solve_of_two_right_hand_sides_keeps_its_bits() {
    scalar();
    bits::block_solve_of_two([
        0x357343df6774600e,
        0x81ff1d91edb2480e,
        0xd512e60e3835dc0e,
        0x518db249dee2a24d,
        0x8f44c32275fd74d7,
        0x6452c50c8f762f17,
        0x9e12a68cf7f9d9a3,
    ]);
}
