//! Fig. 6 — orthogonality error and condition number of CholQR / CholQR2 on
//! a logscaled tall-skinny matrix as a function of κ(V).
//!
//! The paper's plot: the error after the first CholQR grows like
//! `κ(V)²·O(ε)`, CholQR breaks down once `κ(V)` exceeds ~`1/√ε ≈ 1e8`, and
//! below that threshold CholQR2 restores `O(ε)` orthogonality.

use bench::{scale, sci, Scale, Table};
use blockortho::kernels::{cholqr, cholqr2};
use dense::{cond_2, orthogonality_error};
use distsim::{DistMultiVector, SerialComm};
use testmat::logscaled_matrix;

fn main() {
    let args = bench::cli::begin("fig06", false);
    let (n, seeds) = match scale() {
        Scale::Paper => (100_000usize, 10u64),
        Scale::Small => (10_000usize, 3u64),
    };
    let s = 5;
    let mut table = Table::new(&[
        "kappa(V)",
        "err CholQR min",
        "avg",
        "max",
        "cond(Q1) avg",
        "err CholQR2 min",
        "avg",
        "max",
        "breakdowns",
    ]);
    for exp in (1..=16).step_by(1) {
        let kappa = 10f64.powi(exp);
        let mut err1 = Vec::new();
        let mut err2 = Vec::new();
        let mut cond_q1 = Vec::new();
        let mut breakdowns = 0usize;
        for seed in 0..seeds {
            let v = logscaled_matrix(n, s, kappa, seed + 1);
            // First CholQR.
            let mut b1 = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
            match cholqr(&mut b1, 0..s) {
                Ok(_) => {
                    err1.push(orthogonality_error(&b1.local().cols(0..s)));
                    cond_q1.push(cond_2(&b1.local().cols(0..s)));
                }
                Err(_) => breakdowns += 1,
            }
            // CholQR2.
            let mut b2 = DistMultiVector::from_matrix(SerialComm::new(), v);
            if cholqr2(&mut b2, 0..s).is_ok() {
                err2.push(orthogonality_error(&b2.local().cols(0..s)));
            }
        }
        let stats = |v: &[f64]| -> (String, String, String) {
            if v.is_empty() {
                return ("-".into(), "-".into(), "-".into());
            }
            let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = v.iter().cloned().fold(0.0f64, f64::max);
            let avg = v.iter().sum::<f64>() / v.len() as f64;
            (sci(min), sci(avg), sci(max))
        };
        let (e1min, e1avg, e1max) = stats(&err1);
        let (e2min, e2avg, e2max) = stats(&err2);
        let (_, c1avg, _) = stats(&cond_q1);
        table.push([
            sci(kappa),
            e1min,
            e1avg,
            e1max,
            c1avg,
            e2min,
            e2avg,
            e2max,
            format!("{breakdowns}/{seeds}"),
        ]);
    }
    table.print(&format!(
        "Fig. 6: CholQR / CholQR2 on a {n}x5 logscaled matrix ({seeds} seeds)"
    ));
    println!(
        "\nExpected shape (paper): err(CholQR) ~ kappa^2*eps, breakdown past kappa ~ 1e8,\n\
         cond(Q1) = O(1) and err(CholQR2) = O(eps) for kappa < 1e8."
    );
    args.finish();
}
