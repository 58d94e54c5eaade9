//! Fig. 8 — condition number growth and orthogonality errors of the
//! two-stage scheme on a glued matrix with
//! `(n, m, bs, s) = (100000, 180, 60, 5)` (paper scale).
//!
//! Panels of `s` columns are fed to the two-stage orthogonalizer one at a
//! time; at every panel we record the condition number of the accumulated
//! stored basis (fully orthogonalized big panels + pre-processed panels) and
//! its orthogonality error; at every big-panel flush we record the error of
//! the fully orthogonalized prefix.

use bench::{scale, sci, Scale, Table};
use blockortho::{BlockOrthogonalizer, TwoStage};
use dense::{cond_2, orthogonality_error, Matrix};
use distsim::{DistMultiVector, SerialComm};
use testmat::{glued_matrix, GluedSpec};

fn main() {
    let args = bench::cli::begin("fig08", false);
    let (n, m, bs, s) = match scale() {
        Scale::Paper => (100_000usize, 180usize, 60usize, 5usize),
        Scale::Small => (8_000usize, 60usize, 20usize, 5usize),
    };
    let spec = GluedSpec {
        nrows: n,
        panel_cols: s,
        num_panels: m / s,
        panel_cond: 1e7,
        // κ(V_{1:j}) grows roughly like 2^{j-1}·1e7 as in the paper's Fig. 8.
        glue_cond: 2f64.powi((m / s) as i32 - 1),
    };
    let v = glued_matrix(&spec, 7);
    let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
    let mut r = Matrix::zeros(m, m);
    let mut two_stage = TwoStage::new(bs, m);
    let mut table = Table::new(&[
        "columns",
        "kappa(V_1:j)",
        "kappa(stored basis)",
        "err(stored basis)",
        "flushed cols",
        "err(flushed prefix)",
    ]);
    let mut col = 0usize;
    while col < m {
        let end = col + s;
        match two_stage.orthogonalize_panel(&mut basis, col..end, &mut r) {
            Ok(()) => {}
            Err(e) => {
                println!("breakdown at columns {col}..{end}: {e}");
                break;
            }
        }
        col = end;
        let kappa = cond_2(&basis.local().cols(0..col));
        let err = orthogonality_error(&basis.local().cols(0..col));
        let flushed = two_stage.finalized_cols().unwrap_or(col);
        table.push([
            format!("{col}"),
            sci(cond_2(&v.cols(0..col))),
            sci(kappa),
            sci(err),
            format!("{flushed}"),
            if flushed >= col {
                sci(orthogonality_error(&basis.local().cols(0..flushed)))
            } else {
                "-".into()
            },
        ]);
    }
    two_stage.finish(&mut basis, &mut r).unwrap();
    let final_err = orthogonality_error(&basis.local().cols(0..col));
    table.print(&format!(
        "Fig. 8: two-stage on a glued matrix, (n, m, bs, s) = ({n}, {m}, {bs}, {s})"
    ));
    println!(
        "\nFinal orthogonality error after the last second-stage flush: {}",
        sci(final_err)
    );
    println!(
        "Expected shape (paper): the stored-basis condition number stays O(1)-ish thanks to the\n\
         pre-processing even though kappa(V) grows geometrically, and the final error is O(eps)."
    );
    args.finish();
}
