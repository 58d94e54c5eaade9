//! # sparse — CSR matrices, SpMV and the paper's sparse workloads
//!
//! The sparse-matrix substrate of the two-stage GMRES reproduction:
//!
//! * [`csr::Csr`] — compressed sparse row storage, the assembly and
//!   interchange type (row access for preconditioners, coloring and I/O);
//!   its one-row-at-a-time [`csr::Csr::spmv`] is the reference product;
//! * [`sliced::SlicedCsr`] — the same nonzeros re-laid for the product
//!   (slices of four rows interleaved, `u32` column indices): the operator
//!   format `distsim::DistCsr` holds, built straight from a row source in
//!   one pass, whose `spmv` and block `spmm` — the sparse kernels of the
//!   s-step matrix-powers kernel — return the bits of `Csr::spmv` per
//!   column (`tests/sliced_spmv_props.rs`);
//! * [`stencil`] — generators for the model problems of the evaluation
//!   section: 2D Laplace on 5-point and 9-point stencils, 3D Laplace on a
//!   7-point stencil, and a 3-dof 3D elasticity-like operator;
//! * [`suitelike`] — synthetic surrogates for the SuiteSparse matrices used
//!   in Table IV and Fig. 9 (same dimensions, nnz/row, symmetry class), plus
//!   the row/column max-scaling the paper applies before running MPK;
//! * [`rows`] — the streaming [`rows::RowSource`] interface: any operator
//!   that can produce its rows on demand (stencils, surrogates, the
//!   streaming Matrix Market reader, or a replicated CSR) feeds the
//!   distributed per-rank assembly without materializing the global matrix;
//! * [`mm`] — Matrix Market I/O so the real SuiteSparse files can be dropped
//!   in when available, including a streaming row-block reader
//!   ([`mm::read_matrix_market_row_block`]) that scans the file once and
//!   keeps only one rank's rows;
//! * [`coloring`] — greedy multicoloring (the Kokkos-Kernels multicolor
//!   Gauss–Seidel surrogate used by the preconditioner in Fig. 13);
//! * [`partition`] — 1D block-row partitioning (the distribution the paper
//!   uses across MPI ranks) and halo/ghost-column analysis for the
//!   neighborhood exchange of a distributed SpMV.

#![forbid(unsafe_code)]

pub mod coloring;
pub mod csr;
pub mod mm;
pub mod partition;
pub mod rows;
pub mod scaling;
pub mod sliced;
pub mod stencil;
pub mod suitelike;

pub use coloring::{greedy_coloring, Coloring};
pub use csr::{Csr, Triplet};
pub use mm::{
    read_matrix_market, read_matrix_market_info, read_matrix_market_row_block, write_matrix_market,
    MmInfo,
};
pub use partition::{block_row_partition, RowPartition};
pub use rows::{assemble, assemble_rows, RowSource};
pub use scaling::scale_rows_cols_by_max;
pub use sliced::SlicedCsr;
pub use stencil::{
    elasticity3d, laplace2d_5pt, laplace2d_9pt, laplace3d_7pt, Elasticity3dRows, Laplace2d5ptRows,
    Laplace2d9ptRows, Laplace3d7ptRows,
};
pub use suitelike::{suitesparse_surrogate, SuiteLikeRows, SuiteLikeSpec, SUITE_SPARSE_SET};
