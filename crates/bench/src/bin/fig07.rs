//! Fig. 7 — condition number and orthogonality error of one-stage
//! BCGS-PIP / BCGS-PIP2 on glued matrices of growing condition number.
//!
//! The paper's plot: as long as the condition number of the input stays
//! below ~`1/√ε`, the basis after the first BCGS-PIP stays `O(1)`
//! conditioned and the error after BCGS-PIP2 is `O(ε)`.

use bench::{scale, sci, Scale, Table};
use blockortho::{orthogonalize_matrix, OrthoKind};
use dense::{cond_2, orthogonality_error};
use testmat::{glued_matrix, GluedSpec};

fn main() {
    let args = bench::cli::begin("fig07", false);
    let (n, panels) = match scale() {
        Scale::Paper => (100_000usize, 8usize),
        Scale::Small => (10_000usize, 6usize),
    };
    let s = 5;
    let mut table = Table::new(&[
        "target kappa",
        "kappa(V)",
        "err after PIP",
        "cond after PIP",
        "err after PIP2",
    ]);
    for exp in (1..=15).step_by(2) {
        let kappa = 10f64.powi(exp);
        let spec = GluedSpec {
            nrows: n,
            panel_cols: s,
            num_panels: panels,
            // Panel and overall condition numbers of the same order, as in
            // the paper's glued test matrix.
            panel_cond: kappa.sqrt().max(1.0),
            glue_cond: kappa.sqrt().max(1.0),
        };
        let v = glued_matrix(&spec, 42);
        let kappa_measured = cond_2(&v.view());
        // One-pass BCGS-PIP.
        let (pip_err, pip_cond) = match orthogonalize_matrix(OrthoKind::BcgsPip, &v, s) {
            Ok((q, _)) => (sci(orthogonality_error(&q.view())), sci(cond_2(&q.view()))),
            Err(e) => (format!("breakdown({e:.0?})"), "-".into()),
        };
        // BCGS-PIP2.
        let pip2_err = match orthogonalize_matrix(OrthoKind::BcgsPip2, &v, s) {
            Ok((q, _)) => sci(orthogonality_error(&q.view())),
            Err(_) => "breakdown".into(),
        };
        table.push([sci(kappa), sci(kappa_measured), pip_err, pip_cond, pip2_err]);
    }
    table.print(&format!(
        "Fig. 7: BCGS-PIP / BCGS-PIP2 on {n}x{} glued matrices",
        panels * s
    ));
    println!(
        "\nExpected shape (paper): for kappa < 1e8 the post-PIP basis stays O(1) conditioned\n\
         and BCGS-PIP2 reaches O(eps); beyond that the Cholesky factorization breaks down."
    );
    args.finish();
}
